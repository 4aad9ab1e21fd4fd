"""The array-native basis, operator and weight builders against the
per-state loop versions they replaced.

The oracles below are the earlier implementations, kept verbatim apart from
taking plain mode lists and state lists instead of a basis object: tuple
enumeration with a dict index, per-state transfer and ladder loops with a
per-state Jordan-Wigner sign, and `Fraction` weights grouped in a dict.
Every comparison is exact equality.
"""

from fractions import Fraction

import numpy as np
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st

from liefock import FockBasis, boson, fermion, spin
from liefock.fock import BOSON, FERMION
from liefock.lattice import WeightLattice, cartan_weights
from liefock.operators import EVEN, ODD, SparseOperator, diagonal_op, ladder_ops, transfer_op
from liefock.scenarios import _weights_from_linear_forms, _weights_from_occupations

# ---------------------------------------------------------------------------
# oracles: the per-state loop implementations
# ---------------------------------------------------------------------------


def oracle_enumerate_constrained(capacities, total):
    n_modes = len(capacities)
    suffix_cap = [0] * (n_modes + 1)
    for i in range(n_modes - 1, -1, -1):
        suffix_cap[i] = suffix_cap[i + 1] + capacities[i]

    out = []
    state = [0] * n_modes

    def rec(pos, remaining):
        if pos == n_modes - 1:
            if remaining <= capacities[pos]:
                state[pos] = remaining
                out.append(tuple(state))
            return
        lo = max(0, remaining - suffix_cap[pos + 1])
        hi = min(capacities[pos], remaining)
        for v in range(lo, hi + 1):
            state[pos] = v
            rec(pos + 1, remaining - v)

    rec(0, total)
    return out


def oracle_enumerate_unconstrained(capacities):
    grids = [np.arange(c + 1) for c in capacities]
    mesh = np.meshgrid(*grids, indexing="ij")
    stacked = np.stack([m.ravel() for m in mesh], axis=-1)
    return [tuple(int(v) for v in row) for row in stacked]


def oracle_states(modes, constraint):
    capacities = [m.capacity for m in modes]
    if constraint is None:
        return oracle_enumerate_unconstrained(capacities)
    return oracle_enumerate_constrained(capacities, constraint)


def oracle_jw_sign(state, mode, order):
    count = 0
    for m in order:
        if m == mode:
            break
        count += state[m]
    return -1.0 if count % 2 else 1.0


def oracle_lower(modes, mode, jw_order=None):
    states = oracle_states(modes, None)
    index = {s: i for i, s in enumerate(states)}
    spec = modes[mode]
    fermion_modes = [i for i, m in enumerate(modes) if m.kind == FERMION]
    order = fermion_modes if jw_order is None else list(jw_order)
    rows, cols, vals = [], [], []
    for col, state in enumerate(states):
        n = state[mode]
        if n == 0:
            continue
        target = list(state)
        target[mode] = n - 1
        row = index[tuple(target)]
        if spec.kind == BOSON:
            amp = np.sqrt(n)
        elif spec.kind == FERMION:
            amp = oracle_jw_sign(state, mode, order)
        else:
            s = float(spec.spin_s)
            m = n - s
            amp = np.sqrt(s * (s + 1) - m * (m - 1))
        rows.append(row)
        cols.append(col)
        vals.append(amp)
    mat = sparse.csr_matrix(
        (np.asarray(vals, dtype=complex), (rows, cols)), shape=(len(states), len(states))
    )
    return SparseOperator(mat, grade=ODD if spec.kind == FERMION else EVEN)


def oracle_transfer(modes, constraint, to_mode, from_mode):
    states = oracle_states(modes, constraint)
    index = {s: i for i, s in enumerate(states)}
    rows, cols, vals = [], [], []
    for col, state in enumerate(states):
        if state[from_mode] == 0:
            continue
        if state[to_mode] >= modes[to_mode].capacity:
            continue
        target = list(state)
        target[from_mode] -= 1
        target[to_mode] += 1
        if tuple(target) not in index:
            continue
        rows.append(index[tuple(target)])
        cols.append(col)
        vals.append(np.sqrt((state[to_mode] + 1) * state[from_mode]))
    mat = sparse.csr_matrix(
        (np.asarray(vals, dtype=complex), (rows, cols)), shape=(len(states), len(states))
    )
    return SparseOperator(mat)


def oracle_group(coords):
    """(per-vertex float rows, sorted (coordinate tuple, members) sites)."""
    floats = np.array([[float(v) for v in c] for c in coords])
    groups = {}
    for v, c in enumerate(coords):
        groups.setdefault(c, []).append(v)
    return floats, sorted(groups.items(), key=lambda kv: kv[0])


def oracle_linear_forms(states, rows):
    forms = [[Fraction(str(c)) for c in row] for row in rows]
    return [
        tuple(sum(f * occ for f, occ in zip(row, state)) for row in forms) for state in states
    ]


def oracle_rationalize(values, max_den=1 << 20, tol=1e-9):
    out = []
    for x in values:
        fr = Fraction(float(x)).limit_denominator(max_den)
        assert abs(float(fr) - float(x)) <= tol
        out.append(fr)
    return out


def oracle_weight_coordinates(columns):
    """`columns`: per Cartan operator, (float diagonal, exact Fractions or None)."""
    exact = [col if col is not None else oracle_rationalize(diag) for diag, col in columns]
    n = len(columns[0][0])
    coords = [tuple(col[v] for col in exact) for v in range(n)]
    groups = {}
    for v, c in enumerate(coords):
        groups.setdefault(c, []).append(v)
    return coords, sorted(groups.items(), key=lambda kv: kv[0])


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

mode_specs = st.one_of(
    st.integers(1, 4).map(boson),
    st.just(fermion()),
    st.integers(1, 3).map(lambda two_s: spin(Fraction(two_s, 2))),
)


@st.composite
def bases(draw, specs=mode_specs, max_modes=4):
    modes = draw(st.lists(specs, min_size=1, max_size=max_modes))
    constraint = draw(st.one_of(st.none(), st.integers(0, sum(m.capacity for m in modes))))
    return modes, constraint


def assert_same_csr(got, want):
    assert got.grade == want.grade
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got.mat, attr), getattr(want.mat, attr)), attr


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(bases())
def test_enumeration_and_lookup_match_oracle(case):
    modes, constraint = case
    basis = FockBasis(modes, constraint)
    want = oracle_states(modes, constraint)
    assert basis.states == tuple(want)
    assert np.all(np.diff(basis.keys) > 0)
    for i, s in enumerate(want):
        assert basis.index_of(s) == i and basis.contains(s)
        assert basis.state_at(i) == s
    for m in range(len(modes)):
        assert basis.occupations_of_mode(m).tolist() == [s[m] for s in want]


@settings(max_examples=150, deadline=None)
@given(bases(), st.data())
def test_out_of_basis_tuples_never_alias(case, data):
    modes, constraint = case
    basis = FockBasis(modes, constraint)
    members = set(oracle_states(modes, constraint))
    probe = tuple(
        data.draw(st.lists(st.integers(-2, 7), min_size=len(modes) - 1, max_size=len(modes) + 1))
    )
    assert basis.contains(probe) == (probe in members)


@settings(max_examples=100, deadline=None)
@given(st.lists(mode_specs, min_size=1, max_size=4), st.data())
def test_ladder_ops_match_oracle(modes, data):
    basis = FockBasis(modes)
    mode = data.draw(st.integers(0, len(modes) - 1))
    fermions = [i for i, m in enumerate(modes) if m.kind == FERMION]
    jw_order = data.draw(st.one_of(st.none(), st.permutations(fermions)))
    lower, raise_ = ladder_ops(basis, mode, jw_order=jw_order)
    want = oracle_lower(modes, mode, jw_order)
    assert_same_csr(lower, want)
    assert_same_csr(raise_, want.dagger())


@settings(max_examples=100, deadline=None)
@given(bases(specs=st.integers(1, 4).map(boson)), st.data())
def test_transfer_op_matches_oracle(case, data):
    modes, constraint = case
    basis = FockBasis(modes, constraint)
    to_mode = data.draw(st.integers(0, len(modes) - 1))
    from_mode = data.draw(st.integers(0, len(modes) - 1).filter(lambda m: m != to_mode))
    assert_same_csr(
        transfer_op(basis, to_mode, from_mode), oracle_transfer(modes, constraint, to_mode, from_mode)
    )


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=100, deadline=None)
@given(bases(specs=st.integers(1, 4).map(boson)), st.data())
def test_linear_form_weights_match_oracle(case, data):
    modes, constraint = case
    basis = FockBasis(modes, constraint)
    rank = data.draw(st.integers(1, 3))
    rows = data.draw(
        st.lists(st.lists(rationals.map(str), min_size=len(modes), max_size=len(modes)),
                 min_size=rank, max_size=rank)
    )
    wl = _weights_from_linear_forms(basis, rows)
    coords = oracle_linear_forms(oracle_states(modes, constraint), rows)
    floats, sites = oracle_group(coords)
    assert wl.coordinates == coords
    assert wl.sites == sites
    assert wl.multiplicities == [len(members) for _, members in sites]
    assert np.array_equal(wl.coordinates_float, floats)


@settings(max_examples=50, deadline=None)
@given(bases())
def test_occupation_weights_match_oracle(case):
    modes, constraint = case
    basis = FockBasis(modes, constraint)
    coords = [tuple(Fraction(v) for v in s) for s in oracle_states(modes, constraint)]
    floats, sites = oracle_group(coords)
    wl = _weights_from_occupations(basis)
    assert wl.sites == sites and np.array_equal(wl.coordinates_float, floats)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_cartan_weights_match_oracle(dim, rank, seed, data):
    rng = np.random.default_rng(seed)
    ops, columns = [], []
    for _ in range(rank):
        pool = data.draw(st.lists(rationals, min_size=1, max_size=6))
        values = [pool[k] for k in rng.integers(len(pool), size=dim)]
        diag = np.array([float(v) for v in values])
        if data.draw(st.booleans()):
            den = np.lcm.reduce([v.denominator for v in values])
            num = [v.numerator * (int(den) // v.denominator) for v in values]
            ops.append(diagonal_op(diag, hermitian=True, rational=(num, int(den))))
            columns.append((diag, values))
        else:
            ops.append(diagonal_op(diag, hermitian=True))
            columns.append((diag, None))
    wl = cartan_weights(ops)
    coords, sites = oracle_weight_coordinates(columns)
    assert wl.coordinates == coords
    assert wl.sites == sites
    assert np.array_equal(wl.coordinates_float, np.stack([d for d, _ in columns], axis=-1))


def test_from_numerators_orders_sites_like_fractions():
    nums = np.array([[3, -1], [-2, 5], [3, -1], [-2, -7], [0, 0]])
    wl = WeightLattice.from_numerators(nums, 2)
    keys = [tuple(Fraction(int(n), 2) for n in row) for row in nums]
    assert wl.site_keys() == sorted(set(keys))
    assert wl.multiplicities == [1, 1, 1, 2]
