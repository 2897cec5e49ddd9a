import json

import numpy as np
import pytest

from arraymem import (
    Geometry,
    apply_position_disorder,
    build_square_array,
    remove_holes,
)
from arraymem.errors import InvalidArgumentError, SingularGeometryError


def test_single_site_lattice():
    g = build_square_array(1, 0.6)
    assert g.n_atoms == 1
    np.testing.assert_array_equal(g.positions, [[0.0, 0.0, 0.0]])


def test_two_by_two_symmetric_about_origin():
    g = build_square_array(2, 0.6)
    assert g.n_atoms == 4
    got = set(map(tuple, np.round(g.positions, 12)))
    want = {(x, y, 0.0) for x in (-0.3, 0.3) for y in (-0.3, 0.3)}
    assert got == want


def test_ten_by_ten_extent():
    g = build_square_array(10, 0.6)
    assert g.n_atoms == 100
    # (N-1) d / 2 by construction
    assert np.max(np.abs(g.positions)) == pytest.approx(2.7, abs=1e-14)


@pytest.mark.parametrize(
    "n,d", [(0, 0.6), (-3, 0.6), (4, 0.0), (4, -1.0), (3, np.inf), (3, np.nan)]
)
def test_invalid_build_arguments(n, d):
    with pytest.raises(InvalidArgumentError):
        build_square_array(n, d)


def test_remove_no_holes_is_identity():
    g = build_square_array(10, 0.6)
    assert remove_holes(g, []) is g


def test_remove_twenty_holes_leaves_eighty():
    g = remove_holes(build_square_array(10, 0.6), list(range(20)))
    assert g.n_atoms == 80
    assert g.hole_indices == frozenset(range(20))


def test_double_removal_rejected():
    g = remove_holes(build_square_array(10, 0.6), [7])
    with pytest.raises(InvalidArgumentError):
        remove_holes(g, [7])
    with pytest.raises(InvalidArgumentError):
        remove_holes(build_square_array(10, 0.6), [3, 3])


def test_out_of_range_hole_rejected():
    with pytest.raises(InvalidArgumentError):
        remove_holes(build_square_array(10, 0.6), [100])


def test_a_geometry_without_atoms_is_refused():
    with pytest.raises(InvalidArgumentError, match="at least one atom"):
        remove_holes(build_square_array(2, 0.6), [0, 1, 2, 3])
    g = remove_holes(build_square_array(3, 0.6), range(8))
    assert g.n_atoms == 1
    with pytest.raises(InvalidArgumentError, match="at least one atom"):
        remove_holes(g, [8])
    with pytest.raises(InvalidArgumentError, match="at least one atom"):
        Geometry(positions=np.zeros((0, 3)), lattice_constant=0.6, linear_size=1)


def test_zero_sigma_keeps_geometry():
    g = build_square_array(5, 0.6)
    for seed in (0, 1, 123456789):
        assert apply_position_disorder(g, 0.0, seed) is g


def test_disorder_is_deterministic():
    g = build_square_array(6, 0.7)
    a = apply_position_disorder(g, 0.02, 42)
    b = apply_position_disorder(g, 0.02, 42)
    np.testing.assert_array_equal(a.positions, b.positions)
    c = apply_position_disorder(g, 0.02, 43)
    assert not np.array_equal(a.positions, c.positions)


def test_disorder_stays_in_plane():
    g = apply_position_disorder(build_square_array(8, 0.6), 0.05, 7)
    assert np.all(g.positions[:, 2] == 0.0)


def test_disorder_sample_std_matches_sigma():
    # law-of-large-numbers check on the RNG: 1e4 draws per axis
    d = 0.6
    sigma = 0.05 * d
    g = apply_position_disorder(build_square_array(100, d), sigma, 2024)
    delta = g.positions - build_square_array(100, d).positions
    for axis in (0, 1):
        assert abs(np.std(delta[:, axis]) - sigma) < 0.02 * sigma


def test_negative_sigma_rejected():
    # and one that is not a finite number
    for sigma in (-0.1, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError):
            apply_position_disorder(build_square_array(3, 0.6), sigma, 1)


def test_non_finite_positions_rejected():
    # NaN passes the separation check: NaN <= MIN_SEPARATION is False
    for bad in (np.nan, np.inf):
        pos = build_square_array(2, 0.6).positions.copy()
        pos[1, 0] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            Geometry(positions=pos, lattice_constant=0.6, linear_size=2)


def test_double_disorder_rejected():
    g = apply_position_disorder(build_square_array(3, 0.6), 0.01, 1)
    with pytest.raises(InvalidArgumentError):
        apply_position_disorder(g, 0.01, 2)


def test_holes_and_disorder_commute():
    base = build_square_array(7, 0.55)
    holes = [3, 11, 40]
    a = apply_position_disorder(remove_holes(base, holes), 0.03, 5)
    b = remove_holes(apply_position_disorder(base, 0.03, 5), holes)
    np.testing.assert_array_equal(a.positions, b.positions)


def test_json_round_trip_regenerates_positions():
    g = apply_position_disorder(
        remove_holes(build_square_array(6, 0.65), [1, 17]), 0.02, 99
    )
    doc = json.loads(g.to_json())
    assert doc == {"N": 6, "d": 0.65, "holes": [1, 17], "sigma": 0.02, "seed": 99}
    g2 = apply_position_disorder(
        remove_holes(build_square_array(doc["N"], doc["d"]), doc["holes"]),
        doc["sigma"],
        doc["seed"],
    )
    np.testing.assert_array_equal(g.positions, g2.positions)
    assert g2.hole_indices == g.hole_indices
    assert g2.disorder_seed == 99


def test_coincident_atoms_rejected():
    with pytest.raises(SingularGeometryError):
        Geometry(
            positions=np.zeros((2, 3)),
            lattice_constant=0.6,
            linear_size=2,
        )


def pair(p, offset):
    p = np.asarray(p, dtype=float)
    return Geometry(positions=np.array([p, p + offset]), lattice_constant=1.0, linear_size=2)


def test_close_pair_far_from_origin_is_accepted():
    # 1e-8 apart at x = 10: |p_i|^2 + |p_j|^2 - 2 p_i.p_j cancels to 0 here
    g = pair([10.0, 0.0, 0.0], [1e-8, 0.0, 0.0])
    assert g.min_separation() == pytest.approx(1e-8, rel=1e-6)


def test_coincident_pair_far_from_origin_is_rejected():
    # 1e-10 apart, below MIN_SEPARATION: |p_i|^2 + |p_j|^2 - 2 p_i.p_j
    # leaves 2.4e-7 of roundoff here
    with pytest.raises(SingularGeometryError, match="1.000e-10"):
        pair([8.5485, 9.3585, 0.0], [-1e-10, 0.0, 0.0])
