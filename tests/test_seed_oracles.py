"""The array-native basis, operator and weight builders against the
per-state loop versions they replaced.

The oracles below are the earlier implementations, kept verbatim apart from
taking plain mode lists and state lists instead of a basis object: tuple
enumeration with a dict index, per-state transfer and ladder loops with a
per-state Jordan-Wigner sign, and `Fraction` weights grouped in a dict.
Every comparison of those is exact equality.

The Husimi charts are checked against the per-node loops they replaced (one
closed-form coherent state per grid node) and the two per-cell CSV writers:
values within 1e-12 * max(1, max|ref|), weights and written bytes exact.

The edge-array lattice graph is checked against the `Edge`-list graph it
replaced (adjacency dicts, union-find components, dict BFS trees and one
Python product per cycle) on random Hermitian sparse matrices: edges,
components and cycle counts equal, every flux equal bit for bit.

The Lanczos step is checked against the version that computed the last
basis vector's matvec a second time for its error estimate: results and
error estimates equal bit for bit.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln, jv

from liefock import FockBasis, boson, fermion, spin
from liefock.fock import BOSON, FERMION
from liefock.dynamics import _lanczos_step
from liefock.coherent import HusimiGrid, husimi_cylinder, husimi_disk, husimi_plane, husimi_sphere
from liefock.lattice import (
    FSLGraph,
    WeightLattice,
    _flux_classes,
    build_fsl,
    cartan_weights,
    connected_components,
    plaquette_fluxes,
)
from liefock.operators import EVEN, ODD, SparseOperator, diagonal_op, ladder_ops, transfer_op
from liefock.output import grid_csv_bytes
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
# oracles: the per-node Husimi loops and the per-cell CSV writers
# ---------------------------------------------------------------------------


def oracle_glauber_state(alpha, cutoff):
    alpha = complex(alpha)
    n = np.arange(cutoff + 1)
    log_mag = -abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1) \
        if alpha != 0 else None
    if alpha == 0:
        out = np.zeros(cutoff + 1, dtype=complex)
        out[0] = 1.0
        return out
    out = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
    return out.astype(complex)


def oracle_spin_coherent_state(S, theta, phi):
    two_s = int(Fraction(S) * 2)
    S = two_s / 2.0
    if not 0 <= theta <= np.pi:
        raise ValueError("theta must lie in [0, pi]")
    m = np.arange(-two_s / 2.0, two_s / 2.0 + 1)
    out = np.zeros(two_s + 1, dtype=complex)
    if theta == 0:
        out[-1] = 1.0  # pole state m = +S
        return out
    if theta == np.pi:
        out[0] = 1.0
        return out
    ct, st_ = np.cos(theta / 2.0), np.sin(theta / 2.0)
    log_binom = gammaln(two_s + 1) - gammaln(S + m + 1) - gammaln(S - m + 1)
    amp = np.exp(0.5 * log_binom + (S + m) * np.log(ct) + (S - m) * np.log(st_))
    out = amp * np.exp(-1j * (S - m) * phi)
    return out / np.linalg.norm(out)


def oracle_euclidean_coherent_state(beta, L, start=None):
    beta = complex(beta)
    if start is None:
        start = (L - 1) // 2
    ls = np.arange(L) - start
    out = jv(ls, 2 * abs(beta)) * np.exp(1j * ls * np.angle(beta))
    return out.astype(complex)


def oracle_su11_pcs(k, zeta, chain_len):
    k = float(k)
    z = complex(zeta)
    if abs(z) >= 1:
        raise ValueError("disk coordinate must satisfy |zeta| < 1")
    m = np.arange(chain_len)
    log_mag = 0.5 * (gammaln(m + 2 * k) - gammaln(m + 1) - gammaln(2 * k))
    amp = np.exp(log_mag) * z**m
    return (1 - abs(z) ** 2) ** k * amp


def oracle_overlap_sq(states, psi_or_rho):
    arr = np.asarray(psi_or_rho)
    if arr.ndim == 1:
        amps = states.conj() @ arr
        return np.abs(amps) ** 2
    if arr.ndim == 2:
        return np.real(np.einsum("ni,ij,nj->n", states.conj(), arr, states))
    raise ValueError("expected a state vector or a density matrix")


def oracle_clip(values):
    values = np.real(values)
    if np.min(values, initial=0.0) < -1e-12:
        raise ValueError("Husimi values fell below the -1e-12 clip floor")
    return np.maximum(values, 0.0)


def oracle_husimi_plane(psi_or_rho, cutoff, x, p):
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    values = np.empty((x.size, p.size))
    for ix, xv in enumerate(x):
        alphas = (xv + 1j * p) / np.sqrt(2.0)
        states = np.stack([oracle_glauber_state(a, cutoff) for a in alphas])
        values[ix] = oracle_overlap_sq(states, psi_or_rho) / np.pi
    dx = x[1] - x[0] if x.size > 1 else 1.0
    dp = p[1] - p[0] if p.size > 1 else 1.0
    weights = np.full(values.shape, dx * dp / 2.0)
    return HusimiGrid("plane", (x, p), weights, oracle_clip(values), 1.0 / np.pi)


def oracle_husimi_sphere(psi_or_rho, S, n_theta=200, n_phi=200):
    two_s = int(Fraction(S) * 2)
    norm = (two_s + 1) / (4 * np.pi)
    nodes, gl_w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(nodes)
    phi = np.linspace(0, 2 * np.pi, n_phi, endpoint=False)
    dphi = 2 * np.pi / n_phi
    values = np.empty((n_theta, n_phi))
    for it, th in enumerate(theta):
        states = np.stack([oracle_spin_coherent_state(Fraction(two_s, 2), th, ph) for ph in phi])
        values[it] = oracle_overlap_sq(states, psi_or_rho) * norm
    weights = np.outer(gl_w, np.full(n_phi, dphi))
    return HusimiGrid("sphere", (theta, phi), weights, oracle_clip(values), norm)


def oracle_husimi_cylinder(psi_or_rho, L, n_arc=201, n_rad=201, rad_max=None):
    """Axes (arc, rad) while values are indexed [rad, arc], as they were."""
    if rad_max is None:
        rad_max = L / 4.0
    arc = np.linspace(-np.pi, np.pi, n_arc, endpoint=False)
    rad = np.linspace(0, rad_max, n_rad)
    values = np.empty((n_rad, n_arc))
    for ir, r in enumerate(rad):
        states = np.stack([oracle_euclidean_coherent_state(r * np.exp(1j * u), L) for u in arc])
        values[ir] = oracle_overlap_sq(states, psi_or_rho) / np.pi
    dr = rad[1] - rad[0] if n_rad > 1 else 1.0
    darc = 2 * np.pi / n_arc
    weights = np.outer(rad * dr, np.full(n_arc, darc))
    return HusimiGrid("cylinder", (arc, rad), weights, oracle_clip(values), 1.0 / np.pi)


def oracle_husimi_disk(psi_or_rho_chain, k, n_rad=160, n_arg=160, chain_len=None):
    """Axes (theta, zmag) while values are indexed [zmag, theta], as they were."""
    arr = np.asarray(psi_or_rho_chain)
    if chain_len is None:
        chain_len = arr.shape[0]
    k = float(k)
    u_nodes, u_w = np.polynomial.legendre.leggauss(n_rad)
    u = 0.5 * (u_nodes + 1)
    du = 0.5 * u_w
    s = 1 - (1 - u) ** 2
    ds = 2 * (1 - u) * du
    zmag = np.sqrt(s)
    theta = np.linspace(-np.pi, np.pi, n_arg, endpoint=False)
    dth = 2 * np.pi / n_arg
    w_const = (2 * k - 1) / np.pi if k > 0.5 else 1 / np.pi
    values = np.empty((n_rad, n_arg))
    for ir, zm in enumerate(zmag):
        states = np.stack(
            [oracle_su11_pcs(k, zm * np.exp(1j * th), chain_len) for th in theta]
        )
        values[ir] = oracle_overlap_sq(states, psi_or_rho_chain) * w_const
    radial = 0.5 * ds / (1 - s) ** 2
    weights = np.outer(radial, np.full(n_arg, dth))
    return HusimiGrid("disk", (theta, zmag), weights, oracle_clip(values), w_const)


def oracle_cli_csv(grid):
    """The CLI writer, with its axis-length matching."""
    lines = ["coord_a,coord_b,weight,value"]
    ax_a, ax_b = grid.axes[0], grid.axes[1]
    for ia in range(grid.values.shape[0]):
        for ib in range(grid.values.shape[1]):
            a = ax_a[ia] if len(ax_a) == grid.values.shape[0] else ax_a[ib]
            b = ax_b[ib] if len(ax_b) == grid.values.shape[1] else ax_b[ia]
            lines.append(
                ",".join(repr(float(v)) for v in (a, b, grid.weights[ia, ib], grid.values[ia, ib]))
            )
    return ("\n".join(lines) + "\n").encode()


def oracle_scenario_csv(grid):
    """The scenario writer."""
    axis_a, axis_b = grid.axes
    lines = ["coord_a,coord_b,weight,value"]
    for ia, av in enumerate(axis_a):
        for ib, bv in enumerate(axis_b):
            lines.append(
                ",".join(
                    repr(float(v))
                    for v in (av, bv, grid.weights[ia, ib], grid.values[ia, ib])
                )
            )
    return ("\n".join(lines) + "\n").encode()


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


# ---------------------------------------------------------------------------
# Husimi charts
# ---------------------------------------------------------------------------

node_counts = st.integers(1, 9)


@st.composite
def husimi_cases(draw):
    """(chart, dim, new call, oracle call): the same grid for the kernel and
    for the per-node loop; grids are square, non-square or a single node."""
    chart = draw(st.sampled_from(["plane", "sphere", "cylinder", "disk"]))
    n_a, n_b = draw(node_counts), draw(node_counts)
    if chart == "plane":
        cutoff = draw(st.integers(0, 14))
        half = draw(st.floats(0.5, 6.0))
        x, p = np.linspace(-half, half, n_a), np.linspace(-half, half, n_b)
        return chart, cutoff + 1, (lambda s: husimi_plane(s, cutoff, x, p)), (
            lambda s: oracle_husimi_plane(s, cutoff, x, p))
    if chart == "sphere":
        two_s = draw(st.integers(0, 14))
        S = Fraction(two_s, 2)
        return chart, two_s + 1, (lambda s: husimi_sphere(s, S, n_a, n_b)), (
            lambda s: oracle_husimi_sphere(s, S, n_a, n_b))
    if chart == "cylinder":
        L = draw(st.integers(1, 15))
        rad_max = draw(st.one_of(st.none(), st.floats(0.1, 4.0)))
        return chart, L, (lambda s: husimi_cylinder(s, L, n_b, n_a, rad_max)), (
            lambda s: oracle_husimi_cylinder(s, L, n_b, n_a, rad_max))
    chain_len = draw(st.integers(1, 15))
    k = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 2)]))
    return chart, chain_len, (lambda s: husimi_disk(s, k, n_a, n_b)), (
        lambda s: oracle_husimi_disk(s, k, n_a, n_b))


def random_state(seed, dim, mixed):
    """A normalized pure state, or a density matrix of rank 1..dim."""
    rng = np.random.default_rng(seed)
    if not mixed:
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return amp / np.linalg.norm(amp)
    rank = rng.integers(1, dim + 1)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@settings(max_examples=200, deadline=None)
@given(husimi_cases(), st.integers(0, 2**32 - 1), st.booleans())
def test_husimi_kernel_matches_per_node_loops(case, seed, mixed):
    chart, dim, new, old = case
    state = random_state(seed, dim, mixed)
    got, want = new(state), old(state)
    assert got.parametrization == want.parametrization == chart
    assert got.values.shape == want.values.shape
    tol = 1e-12 * max(1.0, np.max(np.abs(want.values)))
    assert np.max(np.abs(got.values - want.values)) <= tol
    assert np.array_equal(got.weights, want.weights)
    assert got.normalization == want.normalization
    # the old cylinder and disk axes were listed angle first
    want_axes = want.axes[::-1] if chart in ("cylinder", "disk") else want.axes
    for g, w in zip(got.axes, want_axes):
        assert np.array_equal(g, w)
    assert [len(a) for a in got.axes] == list(got.values.shape)


@settings(max_examples=100, deadline=None)
@given(husimi_cases(), st.integers(0, 2**32 - 1))
def test_grid_writer_matches_per_cell_writers(case, seed):
    chart, dim, new, old = case
    grid = new(random_state(seed, dim, False))
    data = grid_csv_bytes(grid)
    assert data == oracle_cli_csv(grid) == oracle_scenario_csv(grid)
    if chart in ("sphere", "plane"):
        # coordinates and weights are byte-identical to the old chart's CSV
        before = oracle_cli_csv(old(random_state(seed, dim, False))).decode().splitlines()
        after = data.decode().splitlines()
        assert [line.rsplit(",", 1)[0] for line in after] == [line.rsplit(",", 1)[0] for line in before]


# ---------------------------------------------------------------------------
# lattice graph: the Edge-list implementation
# ---------------------------------------------------------------------------

ORACLE_FLUX_DEDUP_TOL = 1e-9


@dataclass(frozen=True)
class OracleEdge:
    i: int
    j: int
    amplitude: complex
    label: str = None


def oracle_edges(H, tol=None):
    """build_fsl's Edge list (its Hermiticity check left out)."""
    if tol is None:
        tol = 1e-12 * H.max_norm()
    coo = H.mat.tocoo()
    keep = (coo.row < coo.col) & (np.abs(coo.data) > tol)
    rows, cols, amps = coo.row[keep], coo.col[keep], coo.data[keep]
    order = np.lexsort((cols, rows))
    return [
        OracleEdge(i, j, a)
        for i, j, a in zip(rows[order].tolist(), cols[order].tolist(), amps[order].tolist())
    ]


def oracle_adjacency(n_vertices, edges):
    adj = {v: {} for v in range(n_vertices)}
    for e in edges:
        adj[e.i][e.j] = e.amplitude          # H[i, j]
        adj[e.j][e.i] = np.conj(e.amplitude)  # H[j, i]
    return adj


def oracle_degree(edges, v):
    return sum(1 for e in edges if e.i == v or e.j == v)


def oracle_connected_components(n_vertices, edges):
    parent = list(range(n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        ri, rj = find(e.i), find(e.j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for v in range(n_vertices):
        groups.setdefault(find(v), []).append(v)
    return [sorted(groups[r]) for r in sorted(groups)]


def oracle_wrap_phase(x):
    out = (x + np.pi) % (2 * np.pi) - np.pi
    if out <= -np.pi + 1e-15:
        out = np.pi
    return float(out)


def oracle_cycle_flux(cycle, adj):
    prod = 1.0 + 0.0j
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        amp = adj[b][a]  # transition a -> b carries H[b, a]
        if amp == 0:
            raise ValueError("zero-amplitude edge encountered in a cycle")
        prod *= amp
    return oracle_wrap_phase(np.angle(prod))


def oracle_signed_area(cycle, weights):
    pts = weights[list(cycle)]
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def oracle_orient(cycle, weights):
    if weights is not None and weights.shape[1] == 2:
        area = oracle_signed_area(cycle, weights)
        if abs(area) > 1e-12:
            return cycle if area > 0 else cycle[::-1]
    k = cycle.index(min(cycle))
    rot = cycle[k:] + cycle[:k]
    return rot if rot[1] <= rot[-1] else [rot[0]] + rot[1:][::-1]


def oracle_shortest_path_avoiding(adj, src, dst):
    prev = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in sorted(adj[u]):
            if u == src and w == dst:
                continue
            if w not in prev:
                prev[w] = u
                if w == dst:
                    node, path = dst, []
                    while node is not None:
                        path.append(node)
                        node = prev[node]
                    return path[::-1]
                queue.append(w)
    return None


def oracle_bfs_tree(adj, components):
    parent, depth, tree_edges = {}, {}, set()
    for comp in components:
        root = comp[0]
        parent[root] = None
        depth[root] = 0
        queue = deque([root])
        seen = {root}
        while queue:
            u = queue.popleft()
            for w in sorted(adj[u]):
                if w not in seen:
                    seen.add(w)
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    tree_edges.add((min(u, w), max(u, w)))
                    queue.append(w)
    return parent, depth, tree_edges


def oracle_plaquette_fluxes(n_vertices, edges, weights):
    """(cycle_count, fluxes, elementary_fluxes, class_values, independent_classes)."""
    adj = oracle_adjacency(n_vertices, edges)
    components = oracle_connected_components(n_vertices, edges)
    parent, depth, tree_edges = oracle_bfs_tree(adj, components)

    non_tree = [e for e in edges if (e.i, e.j) not in tree_edges]
    cycle_count = len(edges) - n_vertices + len(components)
    assert len(non_tree) == cycle_count

    fluxes = []
    for e in non_tree:
        u, v = e.i, e.j
        pu, pv = [u], [v]
        a, b = u, v
        while depth[a] > depth[b]:
            a = parent[a]
            pu.append(a)
        while depth[b] > depth[a]:
            b = parent[b]
            pv.append(b)
        while a != b:
            a = parent[a]
            b = parent[b]
            pu.append(a)
            pv.append(b)
        cycle = pu + pv[:-1][::-1]  # u .. lca .. v, closed by edge (v, u)
        fluxes.append(oracle_cycle_flux(oracle_orient(cycle, weights), adj))

    elementary = []
    for e in non_tree:
        path = oracle_shortest_path_avoiding(adj, e.i, e.j)
        if path is None:
            elementary.append(oracle_cycle_flux(oracle_orient([e.i, e.j], weights), adj))
            continue
        elementary.append(oracle_cycle_flux(oracle_orient(path, weights), adj))

    return (cycle_count, fluxes, elementary, *oracle_flux_classes(elementary))


def oracle_flux_classes(elementary):
    nonzero = [f for f in elementary if abs(f) > ORACLE_FLUX_DEDUP_TOL]
    class_values = []
    for f in sorted(nonzero):
        if not any(abs(f - g) < ORACLE_FLUX_DEDUP_TOL for g in class_values):
            class_values.append(f)
    unsigned = []
    for f in class_values:
        if not any(abs(abs(f) - g) < ORACLE_FLUX_DEDUP_TOL for g in unsigned):
            unsigned.append(abs(f))
    return class_values, len(unsigned)


PHASES = (0.0, np.pi / 2, np.pi, -np.pi / 2, np.pi / 3)


@st.composite
def hermitian_graphs(draw):
    """A random Hermitian sparse matrix: vertices split into components
    (some isolated), random edges inside each, amplitudes with random or
    special phases (real, imaginary, negative), plus vertex weights."""
    n = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.floats(0.05, 0.9))
    rng = np.random.default_rng(seed)
    component = rng.integers(draw(st.integers(1, 4)), size=n)
    upper = np.triu(rng.random((n, n)) < density, k=1) & (component[:, None] == component[None, :])
    phase = np.where(rng.random((n, n)) < 0.5, rng.uniform(-np.pi, np.pi, (n, n)), rng.choice(PHASES, (n, n)))
    amp = np.where(upper, rng.uniform(0.5, 2.0, (n, n)) * np.exp(1j * phase), 0)
    H = amp + amp.conj().T + np.diag(rng.normal(size=n))
    kind = draw(st.sampled_from(["none", "2d", "2d_int", "collinear", "1d"]))
    weights = {
        "none": None,
        "2d": rng.normal(size=(n, 2)),
        "2d_int": rng.integers(-2, 3, size=(n, 2)).astype(float),
        "collinear": np.outer(rng.integers(-3, 4, size=n), [1.0, -2.0]),
        "1d": rng.normal(size=(n, 1)),
    }[kind]
    return SparseOperator(sparse.csr_matrix(H), hermitian=True), weights


def same_bits(got, want):
    bits = [np.asarray(values, dtype=float).view(np.int64) for values in (got, want)]
    return np.array_equal(*bits)


@settings(max_examples=300, deadline=None)
@given(hermitian_graphs())
def test_edge_array_graph_matches_edge_list_oracle(case):
    H, weights = case
    graph = build_fsl(H)
    edges = oracle_edges(H)
    assert graph.edges.dtype == np.int64 and graph.edges.shape == (len(edges), 2)
    assert graph.edges.tolist() == [[e.i, e.j] for e in edges]
    want_amplitudes = np.array([e.amplitude for e in edges], dtype=complex)
    assert same_bits(graph.amplitudes.view(float), want_amplitudes.view(float))
    assert graph.degrees().tolist() == [oracle_degree(edges, v) for v in range(H.dim)]
    assert connected_components(graph) == oracle_connected_components(H.dim, edges)

    rep = plaquette_fluxes(graph, weights)
    want = oracle_plaquette_fluxes(H.dim, edges, weights)
    cycle_count, fluxes, elementary, class_values, independent = want
    assert rep.cycle_count == cycle_count
    assert same_bits(rep.fluxes, fluxes)
    assert same_bits(rep.elementary_fluxes, elementary)
    assert rep.class_values == class_values
    assert rep.independent_classes == independent


@settings(max_examples=100, deadline=None)
@given(hermitian_graphs(), st.data())
def test_zero_amplitude_edges_raise_like_the_oracle(case, data):
    H, weights = case
    graph = build_fsl(H)
    if not graph.n_edges:
        return
    k = data.draw(st.integers(0, graph.n_edges - 1))
    graph.amplitudes[k] = 0
    edges = oracle_edges(H)
    edges[k] = OracleEdge(edges[k].i, edges[k].j, 0j)
    try:
        want = oracle_plaquette_fluxes(H.dim, edges, weights)
    except ValueError as exc:
        assert "zero-amplitude" in str(exc)
        with pytest.raises(ValueError, match="zero-amplitude"):
            plaquette_fluxes(graph, weights)
    else:
        rep = plaquette_fluxes(graph, weights)
        assert same_bits(rep.fluxes, want[1]) and same_bits(rep.elementary_fluxes, want[2])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.5, -0.5, np.pi, -np.pi, 1e-9, -2e-9]), min_size=1, max_size=6),
    st.lists(st.integers(-6, 6), max_size=40),
    st.integers(0, 2**32 - 1),
)
def test_flux_classes_match_oracle(centres, offsets, seed):
    """Values clustered within a few FLUX_DEDUP_TOL of each other, so that
    classes chain, split and merge at the tolerance."""
    rng = np.random.default_rng(seed)
    values = [rng.choice(centres) + k * 0.4e-9 for k in offsets]
    assert _flux_classes(np.array(values, dtype=float)) == oracle_flux_classes(values)


def test_flux_classes_split_at_exactly_the_tolerance():
    low, high = 1.0346191165296315e-09, 2.0346191165296315e-09
    assert high - low == ORACLE_FLUX_DEDUP_TOL
    assert _flux_classes(np.array([high, low])) == oracle_flux_classes([high, low]) == ([low, high], 2)


def test_graph_of_hand_built_arrays_matches_oracle():
    """A two-component graph with an isolated vertex, built from arrays."""
    pairs = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (5, 6), (5, 7), (6, 7)]
    amps = np.exp(1j * np.arange(1, len(pairs) + 1))
    graph = FSLGraph(8, np.zeros(8), np.array(pairs, dtype=np.int64), amps)
    edges = [OracleEdge(i, j, a) for (i, j), a in zip(pairs, amps.tolist())]
    components = [[0, 1, 2, 3], [4], [5, 6, 7]]
    assert connected_components(graph) == oracle_connected_components(8, edges) == components
    rep = plaquette_fluxes(graph)
    want = oracle_plaquette_fluxes(8, edges, None)
    assert rep.cycle_count == want[0] == 3
    assert same_bits(rep.fluxes, want[1]) and same_bits(rep.elementary_fluxes, want[2])
    assert (rep.class_values, rep.independent_classes) == (want[3], want[4])


# ---------------------------------------------------------------------------
# the Lanczos step that recomputed its last matvec
# ---------------------------------------------------------------------------


def oracle_lanczos_step(mat, v, dt, m):
    n = v.shape[0]
    m = min(m, n)
    V = np.empty((m, n), dtype=complex)
    alpha = np.zeros(m)
    beta = np.zeros(m)  # beta[k] couples V[k-1], V[k]
    V[0] = v
    happy = m
    for k in range(m):
        w = mat @ V[k]
        alpha[k] = np.real(np.vdot(V[k], w))
        w = w - alpha[k] * V[k]
        if k > 0:
            w = w - beta[k] * V[k - 1]
        for kk in range(k + 1):  # full reorthogonalization, subspace is small
            w = w - np.vdot(V[kk], w) * V[kk]
        nb = np.linalg.norm(w)
        if k + 1 < m:
            if nb < 1e-14:
                happy = k + 1
                break
            beta[k + 1] = nb
            V[k + 1] = w / nb
    k_eff = happy
    T = np.diag(alpha[:k_eff]) + np.diag(beta[1:k_eff], 1) + np.diag(beta[1:k_eff], -1)
    evals, evecs = np.linalg.eigh(T)
    u = evecs @ (np.exp(-1j * evals * dt) * evecs[0].conj())
    result = u @ V[:k_eff]
    if happy < m:
        err = 0.0  # invariant subspace: the projected exponential is exact
    else:
        w_last = mat @ V[m - 1]
        res_beta = np.linalg.norm(
            w_last
            - alpha[m - 1] * V[m - 1]
            - (beta[m - 1] * V[m - 2] if m > 1 else 0)
        )
        err = abs(res_beta * u[m - 1]) * abs(dt)
    return result, err


@settings(max_examples=200, deadline=None)
@given(
    hermitian_graphs(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
    st.floats(1e-3, 5.0),
    st.booleans(),
)
def test_lanczos_step_matches_oracle(case, seed, m, dt, localized):
    """Random Hermitian sparse matrices; a start vector on one vertex of a
    graph with several components stops at a happy breakdown."""
    H, _ = case
    rng = np.random.default_rng(seed)
    if localized:
        v = np.zeros(H.dim, dtype=complex)
        v[rng.integers(H.dim)] = 1.0
    else:
        v = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
        v /= np.linalg.norm(v)
    got, got_err = _lanczos_step(H.mat, v, dt, m)
    want, want_err = oracle_lanczos_step(H.mat, v, dt, m)
    assert same_bits(got.view(float), want.view(float))
    assert got_err == want_err
