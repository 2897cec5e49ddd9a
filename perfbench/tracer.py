"""Outside-in layer tracer for arraymem.

The tracer replaces public functions of the package by timing wrappers,
from outside the program: in the module that defines each function and
under every name by which a sibling ``arraymem`` module imported it. It
also wraps ``scipy.linalg.eig`` (called by ``spectral``) and
``numpy.linalg.eigh`` (called by ``retrieval``). Each call records a span
(name, start, end, parent, work count) in memory; ``restore`` puts every
original object back.

The traced process is single-threaded (the Monte Carlo workload is traced
with ``--workers 1``), so spans nest as a stack and a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _entries_n3(m) -> int:
    return int(m.entries.shape[0]) ** 3


def _k_n3(mat) -> int:
    return int(mat.k.shape[0]) ** 3


# (module, function, span name, work count from the call's arguments)
TARGETS = (
    ("arraymem.geometry", "build_square_array", "geometry", None),
    ("arraymem.geometry", "remove_holes", "geometry", None),
    ("arraymem.geometry", "apply_position_disorder", "geometry", None),
    ("arraymem.greens", "interaction_matrix", "greens", None),
    ("arraymem.spectral", "eigendecompose", "spectral", _entries_n3),
    ("scipy.linalg", "eig", "spectral.eig", None),
    ("arraymem.modes", "sample_mode", "modes", None),
    ("arraymem.modes", "mode_flux_norm", "modes.norm", None),
    ("arraymem.modes", "mode_norm", "modes.norm", None),
    ("arraymem.retrieval", "k_matrix", "retrieval.k", None),
    ("arraymem.retrieval", "max_efficiency", "retrieval.top", _k_n3),
    ("numpy.linalg", "eigh", "retrieval.eigh", None),
    ("arraymem.dynamics", "eta_finite_time", "dynamics", None),
    ("arraymem.studies", "scan_waist", "studies", None),
    ("arraymem.studies", "optimal_waist", "studies", None),
    ("arraymem.studies", "hole_study", "studies", None),
    ("arraymem.studies", "position_disorder_study", "studies", None),
    ("arraymem.studies", "isotropic_comparison", "studies", None),
    ("arraymem.cli", "main", "cli", None),
)


class Tracer:
    """Wraps functions in place and records one span per call."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def _wrapper(self, original, name, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": stack[-1] if stack else None,
                "work": work(*args, **kwargs) if work else 0,
            }
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target where it is defined and wherever arraymem
        modules bound it to a name of their own."""
        for module_name, attr, name, work in targets:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            traced = self._wrapper(original, name, work)
            self._patch(owner, attr, traced)
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("arraymem"):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, alias, traced)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# The metric each span's self time goes to. Every span's self time goes to
# exactly one metric, so the time metrics partition a traced pass.
TIME_METRICS = {
    "geometry": "geometry.ms",
    "greens": "greens.ms",
    "spectral": "spectral.post_ms",
    "spectral.eig": "spectral.eig_ms",
    "modes": "modes.ms",
    "modes.norm": "modes.ms",
    "retrieval.k": "retrieval.k_ms",
    "retrieval.top": "retrieval.top_ms",
    "retrieval.eigh": "retrieval.top_ms",
    "dynamics": "dynamics.ms",
    "studies": "studies.ms",
    "cli": "cli.ms",
}


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass, as plain numbers."""
    metrics = dict.fromkeys(TIME_METRICS.values(), 0.0)
    for span, own in zip(spans, self_times(spans)):
        metrics[TIME_METRICS[span["name"]]] += 1e3 * own

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def work(name):
        return sum(s["work"] for s in spans if s["name"] == name)

    metrics.update({
        "geometry.calls": calls("geometry"),
        "greens.calls": calls("greens"),
        "spectral.calls": calls("spectral"),
        "spectral.dim3": work("spectral"),
        "modes.calls": calls("modes"),
        "modes.norm_calls": calls("modes.norm"),
        "retrieval.calls": calls("retrieval.k"),
        "retrieval.dim3": work("retrieval.top"),
        "dynamics.calls": calls("dynamics"),
    })
    return metrics
