"""Retrieval-efficiency optimization for free-space atomic arrays.

Pipeline: build a geometry, assemble the photon-exchange matrix, sample
the detection mode at the atoms, eigendecompose in the basis the matrix
carries (the whole space unless a mirror sector is given), assemble the
Hermitian efficiency matrix, and read off the top eigenpair.

Importing the package runs numpy's OpenBLAS on one thread for the whole
process, the caller's own numpy work included; only the eigensolve runs at
the thread count OpenBLAS picked (arraymem.blas).
"""

from .geometry import (
    Geometry,
    apply_position_disorder,
    build_square_array,
    remove_holes,
)
from .greens import (
    ISOTROPIC,
    TWO_LEVEL,
    InteractionMatrix,
    interaction_matrix,
)
from .modes import (
    DetectionMode,
    ModeSamples,
    mode_flux_norm,
    mode_norm,
    sample_mode,
)
from .spectral import SpectralDecomposition, eigendecompose
from .retrieval import (
    EfficiencyMatrix,
    RetrievalSolution,
    efficiency_of_spin_wave,
    k_matrix,
    max_efficiency,
)
from .dynamics import eta_finite_time

__version__ = "0.1.0"

__all__ = [
    "Geometry",
    "build_square_array",
    "remove_holes",
    "apply_position_disorder",
    "InteractionMatrix",
    "interaction_matrix",
    "TWO_LEVEL",
    "ISOTROPIC",
    "DetectionMode",
    "ModeSamples",
    "mode_norm",
    "mode_flux_norm",
    "sample_mode",
    "SpectralDecomposition",
    "eigendecompose",
    "EfficiencyMatrix",
    "RetrievalSolution",
    "k_matrix",
    "max_efficiency",
    "efficiency_of_spin_wave",
    "eta_finite_time",
    "__version__",
]
