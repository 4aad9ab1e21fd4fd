import itertools
from math import comb

import numpy as np
import pytest

from liefock import FockBasis, boson, fermion, spin
from liefock.errors import InfeasibleSectorError, ResourceGuardError, StateNotInBasisError


def brute_force_sector(capacities, total):
    """Independent oracle: filter the full cartesian product."""
    ranges = [range(c + 1) for c in capacities]
    return sorted(s for s in itertools.product(*ranges) if sum(s) == total)


def test_three_modes_n90_count():
    basis = FockBasis([boson(90)] * 3, constraint=90)
    assert len(basis) == 91 * 92 // 2 == 4186


def test_single_mode_cutoff_count():
    basis = FockBasis([boson(5)])
    assert len(basis) == 6
    assert basis.states == tuple((n,) for n in range(6))


def test_four_modes_n2_stars_and_bars():
    basis = FockBasis([boson(2)] * 4, constraint=2)
    oracle = brute_force_sector([2, 2, 2, 2], 2)
    assert len(basis) == comb(2 + 3, 3) == 10
    assert list(basis.states) == oracle


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("N", [0, 1, 5, 12])
def test_sector_counts_match_binomial(m, N):
    cap = max(N, 1)
    basis = FockBasis([boson(cap)] * m, constraint=N)
    assert len(basis) == comb(N + m - 1, m - 1)
    assert list(basis.states) == brute_force_sector([cap] * m, N)


def test_fermion_unconstrained_count():
    for f in (1, 2, 3, 5):
        basis = FockBasis([fermion()] * f)
        assert len(basis) == 2**f


def test_zero_state_is_first():
    basis = FockBasis([boson(3), fermion(), spin(1)])
    assert basis.index_of((0, 0, 0)) == 0


def test_two_mode_sector_ordering():
    basis = FockBasis([boson(4), boson(4)], constraint=4)
    listed = list(basis.states)
    assert listed[0] == (0, 4) and listed[-1] == (4, 0)
    # oracle: enumerate and search
    assert basis.index_of((4, 0)) == listed.index((4, 0)) == 4
    for j in range(5):
        assert basis.index_of((j, 4 - j)) == j


def test_round_trip_bijection():
    basis = FockBasis([boson(3), spin(1), fermion()], constraint=3)
    for i, s in enumerate(basis.states):
        assert basis.index_of(basis.state_at(i)) == i
        assert basis.state_at(basis.index_of(s)) == s
    # a basis equals every basis built from the same modes and constraint
    assert basis == FockBasis([boson(3), spin(1), fermion()], constraint=3)
    assert basis != FockBasis([boson(3), spin(1), fermion()], constraint=2)


def test_ordering_stable_against_sorted():
    basis = FockBasis([boson(3), boson(2), boson(4)], constraint=5)
    assert list(basis.states) == sorted(basis.states)


def test_empty_mode_list_rejected():
    with pytest.raises(ValueError):
        FockBasis([])


def test_infeasible_sector_is_an_error_not_empty():
    with pytest.raises(InfeasibleSectorError):
        FockBasis([boson(2), boson(2)], constraint=5)
    with pytest.raises(InfeasibleSectorError):
        FockBasis([boson(2)], constraint=-1)


def test_lookup_error_names_the_tuple():
    basis = FockBasis([boson(2), boson(2)], constraint=2)
    with pytest.raises(StateNotInBasisError, match=r"\(2, 2\)"):
        basis.index_of((2, 2))


def test_mode_validation():
    with pytest.raises(ValueError):
        spin(0)
    with pytest.raises(ValueError):
        spin(0.3)
    with pytest.raises(ValueError):
        boson(0)
    assert spin(0.5).levels == 2
    assert spin(2).levels == 5
    assert fermion().capacity == 1


def test_vector_unit():
    basis = FockBasis([boson(2)])
    v = basis.vector((1,))
    assert v[1] == 1.0 and np.sum(np.abs(v)) == 1.0


def test_interior_mask():
    basis = FockBasis([boson(5)])
    inner = basis.interior_mask(truncated_modes=(0,))
    assert list(inner) == [True, True, True, True, False, False]
    both = basis.interior_mask(two_sided_modes=(0,))
    assert list(both) == [False, False, True, True, False, False]


def test_above_capacity_lookup_does_not_alias():
    # radix (2, 5): (0, 5) would encode to the key of (1, 0)
    basis = FockBasis([boson(1), boson(4)])
    assert basis.index_of((1, 0)) == 5
    assert not basis.contains((0, 5))
    with pytest.raises(StateNotInBasisError, match=r"\(0, 5\)"):
        basis.index_of((0, 5))


def test_negative_and_wrong_length_lookups_raise():
    basis = FockBasis([boson(3), boson(3)])
    for bad in ((2, -1), (-1, 3), (1,), (1, 2, 0), ()):
        assert not basis.contains(bad)
        with pytest.raises(StateNotInBasisError):
            basis.index_of(bad)


def test_constrained_radix_is_capped_by_the_constraint():
    basis = FockBasis([boson(50)] * 3, constraint=2)
    assert basis.keys.max() < 3**3
    assert basis.index_of((0, 0, 2)) == 0
    for bad in ((0, 0, 3), (0, 3, -1), (3, -1, 0), (0, 0, 50)):
        assert not basis.contains(bad)
        with pytest.raises(StateNotInBasisError):
            basis.index_of(bad)


def test_key_overflow_is_refused_at_construction():
    with pytest.raises(ResourceGuardError):
        FockBasis([fermion()] * 64)
    with pytest.raises(ResourceGuardError):
        FockBasis([boson(100)] * 10, constraint=100)
    assert FockBasis([fermion()] * 20).keys[-1] == 2**20 - 1
