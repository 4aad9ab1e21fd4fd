"""The array-native basis, operator and weight builders against the
per-state loop versions they replaced.

The oracles below are the earlier implementations, kept verbatim apart from
taking plain mode lists and state lists instead of a basis object: tuple
enumeration with a dict index, per-state transfer and ladder loops with a
per-state Jordan-Wigner sign, and `Fraction` weights grouped in a dict.
Every comparison of those is exact equality.

A boson bilinear, now one CSR construction (`bilinear_op`), is checked bit
for bit against the earlier `transfer_op` (`oracle_transfer_op`) and the
term loop of `build_system` that summed one sparse piece per term and its
conjugate (`oracle_bilinear_sum`), on bilinear specs over bases with every
mode kind; the Schwinger-boson catalog builders, now stated by their
single-particle matrices, against the hand-stated builders over
`oracle_transfer_op` at several N.

The Husimi charts are checked against the per-node loops they replaced (one
closed-form coherent state per grid node) and the two per-cell CSV writers:
values within 1e-12 * max(1, max|ref|), weights and written bytes exact.
On the sphere, the cylinder and the disk a density matrix is charted by one
quadratic form over the diagonals of its Hermitian part; it is checked
against the eigenvector loop it replaced (`oracle_chart_values_eigen`) on
density matrices of rank 1..N and non-Hermitian matrices: values within
1e-12 * max(1, max|ref|), axes and weights equal.
The grid writer, which formats each axis entry and each distinct weight of
the grid once, is checked byte for byte against the writer that formatted
every cell, on generated grids (signed zeros, infinities, NaN payloads,
subnormals, float32 and int inputs, non-contiguous arrays) and on charts,
and its traced peak is held to 2.5 times the text it writes.

`errors.real_number`, which reads a finite float as itself, is checked bit
for bit against the reader that built a Fraction from every float's repr
(`oracle_real_number`), refusals included.

A scenario config, now kept as its payload and read values, is checked
against the record that copied nine fields out of the payload
(`oracle_config_dict`): equal `to_dict()` and `hash()` on built-in, partial
and closure-gallery configs.

The edge-array lattice graph is checked against the `Edge`-list graph it
replaced (adjacency dicts, union-find components, dict BFS trees and one
Python product per cycle) on random Hermitian sparse matrices: edges,
components and cycle counts equal, every flux equal bit for bit. Flux
classes are gauge-invariant, also on long rings whose flux of pi lands on
either side of the cut at +-pi before it is reported as pi. The elementary
cycles, triangles from one sparse product, are checked against the per-edge
breadth-first searches they replaced (`oracle_elementary_cycles`), row
grouping by one lexsort against `np.unique(axis=0)`, and the per-site sums,
one reduction per multiplicity (`WeightLattice.site_sums`), bit for bit
against the per-site loop they replaced (`oracle_site_sums`).

The Krylov basis (`_krylov_basis`, the plain three-term Lanczos recurrence,
built once per substep and grown until it covers the interval) and Krylov
evolution are checked against dense `eigh` on random sparse Hermitian
matrices, including spectra that stress the recurrence, within stated
bounds. The modified Gram-Schmidt Lanczos steps, the halving propagator and
the fixed-size basis of 40 rows they replaced are kept as oracles and meet
the same bounds on the same draws. Each substep's step size is checked to be
the first crossing of the error estimate, and the evolutions on which the
halving rule accepted a step in a dip of the estimate (spin rotations
through a revival, su2_transport, the so5 quench at N = 60) are checked
against dense `eigh` or a closed form. `displace` is checked against the
dense displacement unitary it replaced.

The Hermiticity defect, which compares the entries of A and its transpose
in place when their sparsity patterns agree, is checked bit for bit against
the sparse difference A - A^dagger it replaced, NaN included.

The array-expression SU(3) coherent state is checked against its per-state
loop to within 1e-15 * max|ref|: the two multiply the factors in a
different order.

The graph export, written column by column from the graph's arrays
(`graph_json_text` through `records_text`), is checked against
`json.dumps(payload, indent=1, sort_keys=True) + "\n"` of the record dicts it
replaced (`oracle_graph_to_json_dict`) on random graphs with special floats,
labels and weights of rank 0 to 3, and on the su3 flux exports: equal text.
The adjacency CSV, from the same edge columns, is checked against the
per-edge f-strings it replaced on the same graphs.
`json_text`, which writes every other JSON text, is that json.dumps call on
generated payloads: equal text, or the same exception type.

The interior reader of `algebra`, which reads the stored entries of a block
P A P and their flat positions straight off an operator's CSR arrays, is
checked bit for bit against the block it replaced, built by two fancy-index
slices and flattened row by row (`oracle_interior_entries`), on random
sparse operators and masks and on every catalog generator.

The closure span, which finds a block's positions in its support by
`searchsorted` and grows the support by a sorted merge, is checked against
the span that grew it by `np.union1d` (`OracleSpan`): equal ratios, supports
and `q` bit for bit after every add. Edge labels, marked by each generator
entry's position in the ascending edge keys, are checked against the
`np.isin` marking (`oracle_edge_labels`).

The catalog builders, which now state only their exact weights and
off-diagonal generators and derive the Cartan diagonals and the roots, are
checked against the builders that stated both by hand (`oracle_catalog`):
every model field equal bit for bit, signed zeros included.

The reference states, read off the annihilators' stored entries, are checked
against the dense null space they replaced (`oracle_reference_states`) on
every catalog case: equal counts and equal spans, measured both ways as
||B - A A^H B|| rather than through principal angles.

Closed forms and checks that only the tests call live here too: the six-bond
so5 single-particle matrix, the su(1,1) coherent-state expectations, the
squeezed quadrature variances, the Bloch-sphere radius, the so5 closed-form
discrepancy, revival detection and the equidistant-gap test.
"""

import functools
import json
import math
import sys
import tracemalloc
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, combinations
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import trapezoid
from scipy.linalg.blas import dznrm2, zaxpy, zdotc
from scipy.special import gammaln, jv

from liefock import FockBasis, boson, dynamics, fermion, spin
from liefock.fock import BOSON, FERMION
from liefock.dynamics import (
    _COVER_CHECK,
    KRYLOV_DIM,
    KRYLOV_TOL,
    STEP_GRID_RATIO,
    _first_crossing,
    _krylov_basis,
    _krylov_step,
    evolve,
    fidelity_series,
)
from liefock.algebra import (
    CATALOG,
    CLOSURE_TOL,
    AlgebraModel,
    RootPair,
    _interior_and_labels,
    _sorted_unique,
    _Span,
    build_algebra,
    find_reference_states,
)
from liefock.coherent import (
    HusimiGrid,
    displace,
    displaced_state,
    husimi_cylinder,
    husimi_disk,
    husimi_plane,
    husimi_sphere,
    su3_coherent_state,
)
from liefock import lattice
from liefock.lattice import (
    EXACT_LIMIT,
    FLUX_DEDUP_TOL,
    FSLGraph,
    _flux_classes,
    build_fsl,
    connected_components,
    graph_json_text,
    graph_to_adjacency_csv,
    group_rows,
    plaquette_fluxes,
    system_graph,
    weight_coordinates,
)
from liefock.errors import ConfigError, NumericContractError, TruncationLeakageWarning, exact_number, real_number
from liefock.operators import (
    EVEN,
    ODD,
    SparseOperator,
    bilinear_op,
    diagonal_op,
    graded_commutator,
    identity,
    ladder_ops,
    linear_combination,
    number_op,
    transfer_op,
    within_hermitian_bound,
)
from liefock.output import float_rows, grid_csv_bytes, json_text, records_text, sha256_bytes
from liefock.scenarios import (
    CONFIG,
    CONFIG_VERSION,
    GALLERY,
    _rational_str,
    _read,
    _site_populations,
    build_initial_state,
    build_system,
    builtin_scenario,
    parse_config,
    read_system,
    run_scenario,
    system_weights,
)

# every catalog entry at its defaults, then once with a parameter changed
CATALOG_CASES = [(name, {}) for name in CATALOG] + [
    ("e2", {"L": 8}),
    ("hw", {"cutoff": 7}),
    ("su2_spin", {"S": Fraction(7, 2)}),
    ("su2_schwinger", {"N": 5}),
    ("su3_schwinger", {"N": 4}),
    ("so5_quoted", {"N": 3}),
    ("su11_single", {"k": Fraction(3, 4)}),
    ("su11_intensity", {"cutoff": 9}),
    ("su11_twomode", {"cutoff": 5}),
    ("sp2n_boson", {"modes": 3, "cutoff": 3}),
    ("so2n_fermion", {"modes": 3}),
    ("jc_super", {"cutoff": 4}),
]


# ---------------------------------------------------------------------------
# helpers over operators, graphs and weight lattices that only tests use
# ---------------------------------------------------------------------------


def restricted(op, indices) -> np.ndarray:
    """Dense sub-block of op over the given basis indices (rows and columns)."""
    indices = np.asarray(indices)
    return op.mat[indices][:, indices].toarray()


def fro_norm(op) -> float:
    """The Frobenius norm of op's stored entries."""
    return float(np.linalg.norm(op.mat.data)) if op.nnz else 0.0


def degrees(graph) -> np.ndarray:
    """The number of bonds at each vertex of an `FSLGraph`."""
    return np.bincount(graph.edges.ravel(), minlength=graph.n_vertices)


def multiplicities(wl) -> list:
    """The number of basis states at each site of a `WeightLattice`."""
    return wl.multiplicity_array().tolist()


# ---------------------------------------------------------------------------
# closed forms and revival detection that only tests use
# ---------------------------------------------------------------------------


def sphere_radius_sq(sample) -> np.ndarray:
    """Sx^2 + Sy^2 + Sz^2 of an `oracles.BlochSample`, S^2 at every time."""
    return sample.sx**2 + sample.sy**2 + sample.sz**2


def discrepancy(singles) -> float:
    """max distance between the sorted closed form and quoted-matrix spectra
    of an `oracles.So5Singles`; NaN when there is no closed form (J1 != J2)."""
    if singles.closed_form is None:
        return float("nan")
    return float(np.max(np.abs(np.sort(singles.closed_form) - np.sort(singles.quoted_matrix))))


def so5_full_matrix(J1, J2, phi) -> np.ndarray:
    """Single-particle matrix of the six-bond Hamiltonian
    J1(a-flip + b-flip) + J2(e^{i phi} up-up + up-down + down-up + down-down)."""
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = J1
    h[2, 3] = J1
    h[0, 2] = J2 * np.exp(1j * phi)
    h[0, 3] = J2
    h[1, 2] = J2
    h[1, 3] = J2
    return h + h.conj().T


def su11_pcs_expectations(k, r, theta):
    """(K0, K1-like, K2-like) = k (cosh 2r, sinh 2r cos theta, sinh 2r sin theta)."""
    k = float(k)
    r = np.asarray(r, dtype=float)
    return (
        k * np.cosh(2 * r),
        k * np.sinh(2 * r) * np.cos(theta),
        k * np.sinh(2 * r) * np.sin(theta),
    )


def squeezed_quadrature_variances(r, theta):
    """((dx)^2, (dp)^2) = (cosh 2r -+ cos(theta) sinh 2r)/2."""
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    return 0.5 * (ch - np.cos(theta) * sh), 0.5 * (ch + np.cos(theta) * sh)


@dataclass
class RevivalReport:
    revival_times: list
    fidelities: list
    threshold: float


def detect_revivals(result, psi0, threshold=0.99, refractory=None) -> RevivalReport:
    """Local maxima of the return probability of an `EvolutionResult` above
    `threshold`, separated by at least `refractory` (default: 5% of the
    scanned span). t = times[0] is the initial condition, not a revival."""
    if not 0 < threshold <= 1:
        raise ValueError("threshold must lie in (0, 1]")
    fid = fidelity_series(result, psi0)
    times = result.times
    if refractory is None:
        refractory = 0.05 * (times[-1] - times[0])
    revival_times, fidelities = [], []
    last = None
    for k in range(1, len(times)):
        left = fid[k - 1]
        right = fid[k + 1] if k + 1 < len(times) else -np.inf
        if fid[k] >= threshold and fid[k] >= left and fid[k] >= right:
            if last is not None and times[k] - last < refractory:
                if fidelities and fid[k] > fidelities[-1]:
                    revival_times[-1] = float(times[k])
                    fidelities[-1] = float(fid[k])
                    last = float(times[k])
                continue
            revival_times.append(float(times[k]))
            fidelities.append(float(fid[k]))
            last = float(times[k])
    return RevivalReport(revival_times, fidelities, threshold)


def equidistant_gap(energies, tol=1e-9):
    """Base gap g when all level spacings are integer multiples of g, else None."""
    energies = np.sort(np.asarray(energies, dtype=float))
    diffs = np.diff(energies)
    diffs = diffs[diffs > tol]
    if diffs.size == 0:
        return None
    g = np.min(diffs)
    ratios = diffs / g
    if np.max(np.abs(ratios - np.round(ratios))) > tol / g:
        return None
    return float(g)


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


def oracle_transfer_op(basis, to_mode, from_mode):
    """`operators.transfer_op` before `bilinear_op`, verbatim: a_to^dagger
    a_from from the matrix elements sqrt((n_to + 1) n_from), or the number
    operator when the two modes are one."""
    for m in (to_mode, from_mode):
        if basis.modes[m].kind != BOSON:
            raise ValueError("transfer_op is defined for boson modes")
    if to_mode == from_mode:
        return number_op(basis, to_mode)
    n_to, n_from = basis.occ[:, to_mode], basis.occ[:, from_mode]
    cols = np.flatnonzero((n_from > 0) & (n_to < basis.modes[to_mode].capacity))
    unit = np.eye(len(basis.modes), dtype=np.int64)
    shift = basis.key_of(unit[to_mode] - unit[from_mode])
    rows = basis.indices_of_keys(basis.keys[cols] + shift)
    found = rows >= 0
    rows, cols = rows[found], cols[found]
    vals = np.sqrt((n_to[cols] + 1) * n_from[cols])
    mat = sparse.csr_matrix(
        (vals.astype(complex), (rows, cols)), shape=(basis.dim, basis.dim)
    )
    return SparseOperator(mat)


def oracle_bilinear_sum(basis, bilinears):
    """The term loop of `scenarios.build_system` before `bilinear_op`,
    verbatim: one sparse piece per term, plus its conjugate transpose when
    the term is off-diagonal, summed by sparse additions in term order."""
    acc = None
    for term in bilinears:
        i, j = term["create"], term["annihilate"]
        op = oracle_transfer_op(basis, i, j) if i != j else number_op(basis, i)
        piece = op.mat * (term["coeff"] * np.exp(1j * term.get("phase", 0.0)))
        if i != j:
            piece = piece + piece.conj().T
        acc = piece if acc is None else acc + piece
    return SparseOperator(acc)


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


def oracle_weight_coordinates(columns):
    """`columns`: per Cartan generator, the exact Fractions of each vertex."""
    coords = list(zip(*columns))
    groups = {}
    for v, c in enumerate(coords):
        groups.setdefault(c, []).append(v)
    return coords, sorted(groups.items(), key=lambda kv: kv[0])


def oracle_site_members(wl) -> list:
    """Ascending vertex indices of each site, in site order: the pieces
    np.split makes of the stable argsort of the site index."""
    return np.split(np.argsort(wl.site_index, kind="stable"), np.cumsum(wl.multiplicity_array())[:-1])


def oracle_site_sums(values, wl) -> np.ndarray:
    """The per-site loop `WeightLattice.site_sums` replaced: one np.sum per
    site over its ascending members, along the last axis of `values`."""
    values = np.asarray(values)
    out = np.zeros(values.shape[:-1] + (len(wl.site_numerators),))
    for s, members in enumerate(oracle_site_members(wl)):
        out[..., s] = np.sum(values[..., members], axis=-1)
    return out


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


def read_heatmap(path):
    """Inverse of `output.heatmap_bytes`: (array scaled to u16, peak, transform)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    lines = []
    pos = 0
    while len(lines) < 5:
        nl = blob.index(b"\n", pos)
        lines.append(blob[pos:nl].decode("ascii"))
        pos = nl + 1
    assert lines[0] == "P5"
    peak = float(lines[1].split()[-1])
    transform = lines[2].split()[-1]
    w, h = (int(v) for v in lines[3].split())
    assert lines[4] == "65535"
    arr = np.frombuffer(blob[pos:], dtype=">u2").reshape(h, w)
    return arr, peak, transform


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


def oracle_chart_values_eigen(psi_or_rho, overlaps, w):
    """The chart values of a state or density matrix as one eigenvector's
    chart at a time: <c|rho|c> = sum_k lam_k |<c|v_k>|^2 over the
    eigenvectors of rho's Hermitian part."""
    arr = np.asarray(psi_or_rho)
    if arr.ndim == 1:
        terms = [(1.0, arr)]
    elif arr.ndim == 2:
        lam, vecs = np.linalg.eigh((arr + arr.conj().T) / 2)
        terms = zip(lam, vecs.T)
    else:
        raise ValueError("expected a state vector or a density matrix")
    values = 0.0
    for lam_k, v in terms:
        values = values + lam_k * np.abs(overlaps(v)) ** 2
    values = w * values
    if not np.all(np.isfinite(values)):
        raise NumericContractError("Husimi chart has non-finite values")
    if np.min(values, initial=0.0) < -1e-12:
        raise ValueError("Husimi values fell below the -1e-12 clip floor")
    return np.maximum(values, 0.0)


def eigen_charts():
    """The charts of `liefock.coherent`, their density matrices charted by
    `oracle_chart_values_eigen` instead of the quadratic form."""
    return mock.patch(
        "liefock.coherent._chart_values",
        lambda psi_or_rho, w, overlaps, quadratic_form=None: oracle_chart_values_eigen(psi_or_rho, overlaps, w),
    )


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


def oracle_grid_csv_bytes(grid) -> bytes:
    """The grid writer that called repr on every cell: a coordinate or
    weight repeated across the grid is formatted again at every node."""
    a, b = np.meshgrid(*grid.axes, indexing="ij")
    table = np.stack([a, b, grid.weights, grid.values], axis=-1)
    # one grid row at a time: Python floats for the whole grid would take
    # several times the size of the text
    rows = (("\n".join(float_rows(row)) + "\n").encode() for row in table)
    return b"".join([b"coord_a,coord_b,weight,value\n", *rows])


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


@settings(max_examples=100, deadline=None)
@given(bases(specs=st.integers(1, 4).map(boson)), st.data())
def test_transfer_op_is_the_seed_transfer_op(case, data):
    basis = FockBasis(*case)
    to_mode, from_mode = (data.draw(st.integers(0, len(basis.modes) - 1)) for _ in range(2))
    assert_same_operator_bytes(
        transfer_op(basis, to_mode, from_mode), oracle_transfer_op(basis, to_mode, from_mode), "transfer_op"
    )


coefficients = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5]), st.floats(-4, 4, allow_subnormal=False)
)
phases = st.one_of(st.sampled_from([0.0, np.pi / 2, np.pi, -np.pi / 2]), st.floats(-7, 7))


@st.composite
def bilinear_specs(draw):
    """A basis from `bases`, constrained or not, and 1..8 bilinears:
    off-diagonal ones on boson modes, drawn from a few pairs so that pairs
    repeat and reverse, each with a phase or none; diagonal ones on any
    mode, with no phase or phase 0."""
    modes, constraint = draw(bases())
    bosons = [k for k, m in enumerate(modes) if m.kind == BOSON]
    pairs = [(i, j) for i in bosons for j in bosons if i != j]
    pool = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3)) if pairs else []
    diagonal = st.integers(0, len(modes) - 1).map(lambda i: (i, i))
    terms = []
    for i, j in draw(st.lists(st.one_of(diagonal, *map(st.just, pool)), min_size=1, max_size=8)):
        term = {"create": i, "annihilate": j, "coeff": draw(coefficients)}
        if draw(st.booleans()):
            term["phase"] = draw(phases) if i != j else 0.0
        terms.append(term)
    return modes, constraint, terms


@settings(max_examples=400, deadline=None)
@given(bilinear_specs())
@example(([fermion()], None, [{"create": 0, "annihilate": 0, "coeff": -0.0}]))
@example(([boson(3)], None, [{"create": 0, "annihilate": 0, "coeff": -2.5}]))
@example(([spin(1), boson(2)], None, [{"create": 0, "annihilate": 0, "coeff": 1.0, "phase": 0.0}]))
# -1.0 times the elements gives -0.0 imaginary parts, which the sum from complex zero makes +0.0
@example(([boson(2)] * 2, None, [{"create": 0, "annihilate": 1, "coeff": -1.0}]))
# in term order 0.1 + 0.2 + 0.3 is 0.6000000000000001; in reverse order it is 0.6
@example(([boson(1)], None, [{"create": 0, "annihilate": 0, "coeff": c} for c in (0.1, 0.2, 0.3)]))
@example(([boson(2)] * 2, 2, [
    {"create": 0, "annihilate": 1, "coeff": 1.0, "phase": np.pi},
    {"create": 1, "annihilate": 0, "coeff": -1.0},
    {"create": 0, "annihilate": 1, "coeff": 0.0, "phase": np.pi / 2},
    {"create": 1, "annihilate": 1, "coeff": 0.5},
]))
def test_bilinears_assemble_bit_for_bit_as_the_term_loop(case):
    modes, constraint, terms = case
    spec = {"modes": [{"kind": m.kind, "capacity": m.capacity} for m in modes], "constraint": constraint}
    system = read_system({"basis": spec, "bilinears": terms}, "system")
    _, got, _, _ = build_system(system)
    want = oracle_bilinear_sum(FockBasis(modes, constraint), system["bilinears"])
    assert_same_csr(got, want)
    assert got.mat.data.tobytes() == want.mat.data.tobytes()
    assert_same_operator_bytes(got, want, "H")


def test_a_bond_and_its_conjugate_share_one_key_lookup():
    """The six-bond so5 spec gives twelve ordered entries, each bond with its
    conjugate; the conjugate takes the bond's lookup swapped, so building H
    looks keys up six times."""
    system = builtin_scenario("so5_quench", N=8, form="six_bond").values["system"]
    with mock.patch.object(FockBasis, "indices_of_keys", autospec=True, side_effect=FockBasis.indices_of_keys) as lookups:
        build_system(system)
    assert lookups.call_count == 6


def test_off_diagonal_bilinear_needs_boson_modes():
    basis = FockBasis([boson(2), fermion(), spin(1)])
    for i, j in ((0, 1), (2, 0), (1, 2)):
        with pytest.raises(ValueError, match="boson modes"):
            bilinear_op(basis, [(i, j, 1.0)])
    for i in range(3):  # a diagonal entry takes the occupation of any mode kind
        assert_same_operator_bytes(bilinear_op(basis, [(i, i, 1.0)]), number_op(basis, i), f"n{i}")
        # one entry keeps its computed values: here a -0.0 imaginary part, as n_i times c gives it
        c = complex(-1.5, -0.0)
        got, want = bilinear_op(basis, [(i, i, c)]), SparseOperator(number_op(basis, i).mat * c)
        assert np.all(np.signbit(got.mat.data.imag))
        assert_same_operator_bytes(got, want, f"{c} n{i}")


@pytest.mark.parametrize("name", ["su2_schwinger", "su3_schwinger", "so5_quoted"])
@pytest.mark.parametrize("N", [1, 2, 3, 6, 13])
def test_schwinger_builders_match_the_seed_transfer_op(name, N):
    # every generator bit for bit and the exact Cartan weights equal, against
    # the hand-stated builders over the seed's transfer_op
    assert_same_model(build_algebra(name, N=N), oracle_catalog[name](N=N))


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
    wl = system_weights({"weights": [[Fraction(c) for c in row] for row in rows]}, basis, None)
    coords = oracle_linear_forms(oracle_states(modes, constraint), rows)
    floats, sites = oracle_group(coords)
    assert wl.coordinates == coords
    assert wl.sites == sites
    assert multiplicities(wl) == [len(members) for _, members in sites]
    assert np.array_equal(wl.coordinates_float, floats)


@settings(max_examples=50, deadline=None)
@given(bases())
def test_occupation_weights_match_oracle(case):
    modes, constraint = case
    basis = FockBasis(modes, constraint)
    coords = [tuple(Fraction(v) for v in s) for s in oracle_states(modes, constraint)]
    floats, sites = oracle_group(coords)
    wl = weight_coordinates(basis.occ, 1)
    assert wl.sites == sites and np.array_equal(wl.coordinates_float, floats)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_cartan_weights_match_oracle(dim, rank, seed, data):
    rng = np.random.default_rng(seed)
    den = data.draw(st.integers(1, 12))
    pool = data.draw(st.lists(st.integers(-36, 36), min_size=1, max_size=6))
    numerators = np.array(pool)[rng.integers(len(pool), size=(dim, rank))]
    columns = [[Fraction(int(n), den) for n in col] for col in numerators.T]
    floats = rng.normal(size=(dim, rank)) if data.draw(st.booleans()) else None
    wl = weight_coordinates(numerators, den, floats)
    coords, sites = oracle_weight_coordinates(columns)
    assert wl.coordinates == coords
    assert wl.sites == sites
    expected = floats if floats is not None else [[float(c) for c in row] for row in coords]
    assert np.array_equal(wl.coordinates_float, expected)


def test_weight_coordinates_orders_sites_like_fractions():
    nums = np.array([[3, -1], [-2, 5], [3, -1], [-2, -7], [0, 0]])
    wl = weight_coordinates(nums, 2)
    keys = [tuple(Fraction(int(n), 2) for n in row) for row in nums]
    assert wl.site_keys() == sorted(set(keys))
    assert multiplicities(wl) == [1, 1, 1, 2]


@st.composite
def repeating_rows(draw):
    """Rows of rank 1 to 3 drawn from a few values, so that rows repeat:
    signed integers up to 2^53 in magnitude, or bools."""
    rank, n = draw(st.integers(1, 3)), draw(st.integers(0, 30))
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.booleans(), min_size=n * rank, max_size=n * rank)), dtype=bool).reshape(n, rank)
    pool = draw(st.lists(st.integers(-3, 3) | st.integers(-EXACT_LIMIT, EXACT_LIMIT), min_size=1, max_size=5))
    cells = draw(st.lists(st.sampled_from(pool), min_size=n * rank, max_size=n * rank))
    return np.array(cells, dtype=np.int64).reshape(n, rank)


@settings(max_examples=300, deadline=None)
@given(repeating_rows())
def test_group_rows_matches_unique(rows):
    sites, index = group_rows(rows)
    want_sites, want_index = np.unique(rows, axis=0, return_inverse=True)
    assert sites.dtype == rows.dtype and np.array_equal(sites, want_sites)
    assert index.dtype == np.int64 and np.array_equal(index, want_index.ravel())


@settings(max_examples=100, deadline=None)
@given(repeating_rows().filter(len), st.integers(1, 12))
def test_site_columns_match_fraction_keys_and_split_members(rows, den):
    """The scenario CSV's site keys are str() of each reduced Fraction, and
    each site's column sums its members, the pieces np.split made of the
    stable argsort (`oracle_site_sums`)."""
    wl = weight_coordinates(rows.astype(np.int64), den)
    populations = np.random.default_rng(den).random((2, len(rows)))
    sums, keys = _site_populations(populations, wl)
    assert keys == ["(" + ",".join(str(c) for c in coord) + ")" for coord in wl.site_keys()]
    assert same_bits(sums, oracle_site_sums(populations, wl))


@st.composite
def site_sum_cases(draw):
    """(values, weight lattice): random site indices of rank 0 to 2 whose
    multiplicities reach past 128, numpy's pairwise block, and 1-D or 2-D
    values of both signs with magnitudes from 1e-8 to 1e7."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(0, 2))
    sizes = st.integers(1, 4) | st.sampled_from([127, 128, 129, 255, 256, 257]) | st.integers(1, 1500)
    counts = draw(st.lists(sizes, min_size=1, max_size=1 if rank == 0 else 8))
    site = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    key = rng.permutation(len(counts))
    rows = np.stack((key, key % 3), axis=1)[:, :rank] - 1
    shape = (draw(st.integers(1, 3)), len(site)) if draw(st.booleans()) else (len(site),)
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 7, size=shape)
    return values, weight_coordinates(rows[site], draw(st.integers(1, 6)))


@settings(max_examples=200, deadline=None)
@given(site_sum_cases())
def test_site_sums_match_per_site_loop(case):
    """Every site sum is bit for bit numpy's sum over the site's ascending
    members, the order the scenario CSV and heatmap bytes depend on."""
    values, wl = case
    got, want = wl.site_sums(values), oracle_site_sums(values, wl)
    assert got.shape == want.shape == values.shape[:-1] + (len(wl.site_keys()),)
    assert np.array_equal(got, want) and same_bits(got, want)


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
        # far nodes at a large cutoff: a Horner sum whose Gaussian factor is
        # applied only at the end overflows there (at cutoff 400 from a half
        # width of about 80)
        far = draw(st.booleans())
        cutoff = draw(st.integers(15, 400) if far else st.integers(0, 14))
        half = draw(st.floats(6.0, 100.0) if far else st.floats(0.5, 6.0))
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
        return chart, L, (lambda s: husimi_cylinder(s, L, n_b, n_a)), (
            lambda s: oracle_husimi_cylinder(s, L, n_b, n_a))
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
    assert np.all(np.isfinite(got.values))
    assert np.max(np.abs(got.values - want.values)) <= tol
    assert np.array_equal(got.weights, want.weights)
    assert got.normalization == want.normalization
    # the old cylinder and disk axes were listed angle first
    want_axes = want.axes[::-1] if chart in ("cylinder", "disk") else want.axes
    for g, w in zip(got.axes, want_axes):
        assert np.array_equal(g, w)
    assert [len(a) for a in got.axes] == list(got.values.shape)


@pytest.mark.parametrize(
    "cutoff,half,mixed",
    [(60, 6.0, False), (60, 6.0, True), (400, 40.0, False), (400, 40.0, True), (400, 100.0, False),
     (1000, 300.0, False)],
)
def test_plane_chart_is_finite_at_large_cutoff_and_radius(cutoff, half, mixed):
    # the Gaussian is folded into every Horner step; a sum multiplied by it
    # only at the end overflows to NaN at cutoff 400 from a half width of
    # about 80. A density matrix takes one Horner pass per eigenvector, about
    # 9 s at cutoff 1000.
    state = random_state(cutoff, cutoff + 1, mixed)
    x, p = np.linspace(-half, half, 7), np.linspace(-half, half, 6)
    got, want = husimi_plane(state, cutoff, x, p), oracle_husimi_plane(state, cutoff, x, p)
    assert np.all(np.isfinite(got.values))
    assert np.max(np.abs(got.values - want.values)) <= 1e-12 * max(1.0, np.max(np.abs(want.values)))


@pytest.mark.parametrize("k", [0, -1, Fraction(-1, 2)])
def test_husimi_kernel_raises_on_non_finite_values(k):
    # the PCS normalisation Gamma(m+2k)/Gamma(2k) is undefined at k <= 0; the
    # kernel refuses the NaN it gives instead of clipping it, for a state
    # vector and a density matrix alike
    for mixed in (False, True):
        with np.errstate(invalid="ignore"), pytest.raises(NumericContractError, match="non-finite"):
            husimi_disk(random_state(0, 8, mixed), k, 5, 4)


def test_husimi_density_matrix_chart_memory():
    # the quadratic form holds one complex array over rows and diagonals and
    # two real tables over diagonals and columns: an array over the 61
    # eigenvector terms and 160 x 160 nodes would take 25 MB of complex128
    rng = np.random.default_rng(61)
    g = rng.normal(size=(61, 61)) + 1j * rng.normal(size=(61, 61))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    tracemalloc.start()
    try:
        grid = husimi_disk(rho, Fraction(3, 4), 160, 160)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.values.shape == (160, 160)
    assert peak < 4 * 2**20


def non_hermitian(rho, seed):
    """rho plus an anti-Hermitian matrix, so that its Hermitian part is rho."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape)
    return rho + (b - b.conj().T) / 2


def assert_matches_eigen_chart(chart, state):
    got = chart(state)
    with eigen_charts():
        want = chart(state)
    assert got.values.shape == want.values.shape
    tol = 1e-12 * max(1.0, np.max(np.abs(want.values)))
    assert np.max(np.abs(got.values - want.values)) <= tol
    assert all(np.array_equal(g, w) for g, w in zip(got.axes, want.axes))
    assert np.array_equal(got.weights, want.weights) and got.normalization == want.normalization


@settings(max_examples=200, deadline=None)
@given(husimi_cases().filter(lambda case: case[0] != "plane"), st.integers(0, 2**32 - 1), st.booleans())
def test_density_matrix_quadratic_form_matches_eigenvector_loop(case, seed, hermitian):
    """On the sphere, the cylinder and the disk a density matrix of rank
    1..N, or a non-Hermitian matrix whose Hermitian part is one, is charted
    by the quadratic form over its diagonals within 1e-12 * max(1, max|ref|)
    of the eigenvector loop it replaced."""
    chart, dim, new, _ = case
    rho = random_state(seed, dim, True)
    assert_matches_eigen_chart(new, rho if hermitian else non_hermitian(rho, seed))


@pytest.mark.parametrize("chart", [
    lambda s: husimi_sphere(s, 0, 7, 5),
    lambda s: husimi_cylinder(s, 1, 5, 7),
    lambda s: husimi_disk(s, Fraction(3, 4), 7, 5),
])
@pytest.mark.parametrize("rho", [np.array([[1.0]]), np.array([[0.5 + 0.3j]])])
def test_density_matrix_quadratic_form_of_dimension_one(chart, rho):
    assert_matches_eigen_chart(chart, rho)


@pytest.mark.parametrize("chart", ["sphere", "cylinder", "disk"])
def test_density_matrix_charts_still_refuse(chart):
    """A matrix whose Hermitian part is negative falls below the clip floor,
    a 2-D input that is not square is refused, and so is a matrix of the
    wrong dimension where the chart fixes it (the disk takes its own)."""
    draw = {"sphere": lambda s: husimi_sphere(s, 2, 6, 5), "cylinder": lambda s: husimi_cylinder(s, 5, 5, 6),
            "disk": lambda s: husimi_disk(s, Fraction(3, 4), 6, 5)}[chart]
    rho = random_state(3, 5, True)
    with pytest.raises(ValueError, match="clip floor"):
        draw(-rho)
    with pytest.raises(ValueError, match="square"):
        draw(rho[:, :4])
    if chart != "disk":
        with pytest.raises(ValueError, match="dimension"):
            draw(rho[:4, :4])


@settings(max_examples=100, deadline=None)
@given(husimi_cases(), st.integers(0, 2**32 - 1))
def test_grid_writer_matches_per_cell_writers(case, seed):
    chart, dim, new, old = case
    grid = new(random_state(seed, dim, False))
    data = grid_csv_bytes(grid)
    assert data == oracle_grid_csv_bytes(grid) == oracle_cli_csv(grid) == oracle_scenario_csv(grid)
    if chart in ("sphere", "plane"):
        # coordinates and weights are byte-identical to the old chart's CSV
        before = oracle_cli_csv(old(random_state(seed, dim, False))).decode().splitlines()
        after = data.decode().splitlines()
        assert [line.rsplit(",", 1)[0] for line in after] == [line.rsplit(",", 1)[0] for line in before]


# NaN with a payload and with the sign bit set, the smallest subnormals,
# signed zeros and infinities: each has its own bit pattern, and the writer
# must give every one of them the text repr gives it
SPECIAL_FLOATS = [
    0.0, -0.0, np.inf, -np.inf, np.nan,
    *np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64).tolist(),
    5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 0.1, 1.0, -3.5, 1e300,
]
grid_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def grid_arrays(draw, shape, repeated_rows=False):
    """A 1D or 2D array of `shape` as float64, float32, int64 or a list, and
    for 2D optionally non-contiguous (a transposed or strided view)."""
    n_rows = shape[0]
    if repeated_rows:
        # one value per row, as every chart's weights have
        pool = draw(st.lists(grid_floats, min_size=n_rows, max_size=n_rows))
        flat = [pool[i // shape[1]] for i in range(int(np.prod(shape)))]
    else:
        # few distinct values, so rows repeat them, or all distinct
        pool = draw(st.lists(grid_floats, min_size=1, max_size=3))
        flat = [draw(st.one_of(st.sampled_from(pool), grid_floats)) for _ in range(int(np.prod(shape)))]
    arr = np.array(flat, dtype=np.float64).reshape(shape)
    kind = draw(st.sampled_from(["float64", "float32", "int64", "list", "transposed", "strided"]))
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "float32":
            return arr.astype(np.float32)
        if kind == "int64":
            return np.nan_to_num(arr, nan=0.0, posinf=0.0, neginf=0.0).clip(-2**53, 2**53).astype(np.int64)
    if kind == "list":
        return arr.tolist()
    if kind == "transposed" and arr.ndim == 2:
        return np.ascontiguousarray(arr.T).T
    if kind == "strided":
        wide = np.zeros((2 * arr.shape[0],) + arr.shape[1:])[::2]
        wide[...] = arr
        return wide
    return arr


@st.composite
def writer_grids(draw):
    """HusimiGrids of shapes 1x1, 1xn, nx1 and up to 9x9 with special
    floats in every column."""
    n_a, n_b = draw(st.sampled_from([(1, 1), (1, 5), (5, 1), None])) or (draw(node_counts), draw(node_counts))
    axis_a = draw(grid_arrays((n_a,)))
    axis_b = draw(grid_arrays((n_b,)))
    weights = draw(grid_arrays((n_a, n_b), repeated_rows=draw(st.booleans())))
    values = draw(grid_arrays((n_a, n_b)))
    return HusimiGrid("test", (axis_a, axis_b), weights, values, 1.0)


@settings(max_examples=400, deadline=None)
@given(writer_grids())
def test_grid_writer_matches_oracle(grid):
    assert grid_csv_bytes(grid) == oracle_grid_csv_bytes(grid)


def test_grid_writer_holds_one_row_of_value_texts():
    """On a 300 x 300 chart the writer peaks at about 2.1 times the text it
    writes: the row texts and their join. Formatting the values of the whole
    grid at once peaks at about 3.1 times."""
    grid = husimi_sphere(random_state(5, 21, False), 10, 300, 300)
    data, peak = traced_peak(lambda: grid_csv_bytes(grid))
    assert data.count(b"\n") == 1 + 300 * 300
    assert peak < 2.5 * len(data)


# ---------------------------------------------------------------------------
# the Hermiticity defect through the sparse difference A - A^dagger
# ---------------------------------------------------------------------------


def oracle_hermiticity_defect(mat) -> float:
    """max-norm of A - A^dagger through the sparse difference."""
    d = mat - mat.conj().T
    return float(np.max(np.abs(d.data))) if d.nnz else 0.0


@st.composite
def defect_operators(draw):
    """A random sparse operator of one of four kinds. 'hermitian': B + B^H,
    a symmetric pattern and a defect of 0. 'perturbed': the same pattern
    with entries moved off Hermiticity. 'nan': a Hermitian matrix with one
    entry NaN. 'general': a random pattern, symmetric only by chance."""
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["hermitian", "perturbed", "nan", "general"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 0.6))

    def random_sparse():
        b = sparse.random(n, n, density=density, random_state=rng, format="csr")
        return b.astype(complex) * np.exp(1j * rng.uniform(-np.pi, np.pi))

    if kind == "general":
        mat = random_sparse()
    else:
        b = random_sparse()
        mat = (b + b.conj().T).tocsr()
        if kind == "perturbed" and mat.nnz:
            mat.data *= 1.0 + 10.0 ** rng.uniform(-16, -1, mat.nnz) * rng.choice([-1, 1, 1j], mat.nnz)
        if kind == "nan" and mat.nnz:
            mat.data[rng.integers(mat.nnz)] = np.nan
    return SparseOperator(mat)


@settings(max_examples=300, deadline=None)
@given(defect_operators())
def test_hermiticity_defect_matches_sparse_difference(op):
    """The defect, compared in place on a symmetric pattern and through the
    sparse difference otherwise, equals the sparse difference's bit for bit,
    NaN included."""
    got, want = op.hermiticity_defect(), oracle_hermiticity_defect(op.mat)
    assert got == want or (np.isnan(got) and np.isnan(want))


def test_hermiticity_defect_allocates_less_than_two_matrices():
    """On the so5 N = 60 six-bond Hamiltonian (6.9 MiB of entries) the sparse
    difference peaked at 35 MiB traced; the in-place comparison holds one
    transposed copy and one real array of the entries."""
    config = builtin_scenario("so5_quench", N=60, phi=2.0, form="six_bond")
    _, H, _, _ = build_system(config.values["system"])
    tracemalloc.start()
    try:
        defect = H.hermiticity_defect()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert defect == oracle_hermiticity_defect(H.mat)
    assert peak < 2 * H.mat.data.nbytes


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
    if np.pi - abs(out) < ORACLE_FLUX_DEDUP_TOL:
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


def oracle_elementary_cycles(adj, non_tree):
    """The per-edge breadth-first searches `plaquette_fluxes` ran for every
    non-tree edge before triangles came from one sparse product, returned
    as `lattice._elementary_cycles` returns its cycles: (flat, lengths)."""
    indptr, indices = adj.indptr.tolist(), adj.indices.tolist()

    def shortest_path_avoiding(src, dst):
        prev = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in indices[indptr[u]:indptr[u + 1]]:
                if u == src and w == dst:
                    continue
                if w not in prev:
                    prev[w] = u
                    if w == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    queue.append(w)
        raise AssertionError("a non-tree edge always closes a cycle")

    paths = [shortest_path_avoiding(i, j) for i, j in non_tree.tolist()]
    lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    return np.fromiter(chain.from_iterable(paths), dtype=np.int64), lengths


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
    return SparseOperator(sparse.csr_matrix(H)), weights


def phase_ring_operator(seed, n_rings):
    """Disjoint rings of 17 to 24 bonds with bond phases from {0, pi, +-pi/2},
    written under a random diagonal gauge: the bond i -> j carries
    r exp(i(phase + theta_j - theta_i)). On rings this long the flux
    product's round-off puts a flux of pi on either side of the cut at +-pi."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(17, 25, size=n_rings)
    n = int(lengths.sum())
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)
    i = np.arange(n)
    j = first + (i - first + 1) % np.repeat(lengths, lengths)
    theta = rng.uniform(-np.pi, np.pi, n)
    phase = rng.choice([0.0, np.pi, np.pi / 2, -np.pi / 2], n)
    amp = rng.uniform(0.5, 2.0, n) * np.exp(1j * (phase + theta[j] - theta[i]))
    rows, cols = np.concatenate([j, i]), np.concatenate([i, j])
    H = sparse.csr_matrix((np.concatenate([amp, amp.conj()]), (rows, cols)), shape=(n, n))
    return SparseOperator(H)


phase_rings = st.builds(lambda seed, k: (phase_ring_operator(seed, k), None), st.integers(0, 2**32 - 1), st.integers(1, 12))


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
    assert degrees(graph).tolist() == [oracle_degree(edges, v) for v in range(H.dim)]
    assert connected_components(graph) == oracle_connected_components(H.dim, edges)

    rep = plaquette_fluxes(graph, weights)
    want = oracle_plaquette_fluxes(H.dim, edges, weights)
    cycle_count, _, elementary, class_values, independent = want
    assert rep.cycle_count == cycle_count
    assert same_bits(rep.elementary_fluxes, elementary)
    assert rep.class_values == class_values
    assert rep.independent_classes == independent


def oracle_edge_labels(graph, labels, model):
    """`lattice._edge_labels` as it marked each generator's edges by np.isin."""
    n = graph.n_vertices
    edge_keys = np.minimum(*graph.edges.T) * n + np.maximum(*graph.edges.T)
    covers = np.empty((graph.n_edges, len(labels)), dtype=bool)
    for k, lab in enumerate(labels):
        coo = model.generator(lab).mat.tocoo()
        off = coo.row != coo.col
        a, b = coo.row[off].astype(np.int64), coo.col[off]
        covers[:, k] = np.isin(edge_keys, np.minimum(a, b) * n + np.maximum(a, b))
    patterns, pattern_of_edge = group_rows(covers)
    names = [lattice._merge_labels([lab for lab, hit in zip(labels, row) if hit]) for row in patterns.tolist()]
    return list(map(names.__getitem__, pattern_of_edge.tolist()))


@settings(max_examples=200, deadline=None)
@given(hermitian_graphs(), st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_edge_labels_match_isin_oracle(case, seed, count):
    """Generators with entries on some edges, on pairs that are no edge
    (past the last edge key too) and on the diagonal label every edge as the
    np.isin marking did."""
    H, _ = case
    graph = build_fsl(H)
    if not graph.n_edges:
        return
    rng = np.random.default_rng(seed)
    n = H.dim
    generators = {}
    for k in range(count):
        mat = sparse.random(n, n, density=rng.uniform(0.0, 0.8), random_state=rng, format="csr")
        generators[f"g{k}+" if k % 2 else f"g{k}"] = SparseOperator(mat.astype(complex))
    labels = list(generators)
    model = SimpleNamespace(generator=generators.__getitem__, labels=labels, root_pairs=[])
    assert lattice._edge_labels(graph, labels, model) == oracle_edge_labels(graph, labels, model)


@settings(max_examples=100, deadline=None)
@given(hermitian_graphs(), st.data())
def test_every_zero_amplitude_edge_raises(case, data):
    """An amplitude of exactly 0 has no phase, so any such edge raises,
    whether or not an elementary cycle runs through it."""
    H, weights = case
    graph = build_fsl(H)
    if not graph.n_edges:
        return
    k = data.draw(st.integers(0, graph.n_edges - 1))
    graph.amplitudes[k] = data.draw(st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0)]))
    with pytest.raises(ValueError, match="zero-amplitude"):
        plaquette_fluxes(graph, weights)


@settings(max_examples=150, deadline=None)
@given(st.one_of(hermitian_graphs(), phase_rings), st.integers(0, 2**32 - 1))
# twelve rings on which one flux of pi came out as -pi + 1.3e-15 in one
# gauge and split its class in two
@example((phase_ring_operator(5, 12), None), 6)
def test_fluxes_are_gauge_invariant(case, seed):
    """A diagonal gauge D H D^dagger, D = diag(exp(i theta)), changes every
    amplitude's phase but no cycle's flux, and no flux class: a class near
    +-pi is reported as pi in every gauge."""
    H, weights = case
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, H.dim)
    D = sparse.diags(np.exp(1j * theta))
    gauged = SparseOperator((D @ H.mat @ D.conj()).tocsr())
    rep = plaquette_fluxes(build_fsl(H), weights)
    got = plaquette_fluxes(build_fsl(gauged), weights)
    assert got.cycle_count == rep.cycle_count
    assert np.max(np.abs(np.subtract(got.elementary_fluxes, rep.elementary_fluxes)), initial=0) < 1e-12
    assert len(got.class_values) == len(rep.class_values)
    assert np.max(np.abs(np.subtract(got.class_values, rep.class_values)), initial=0) < 1e-12
    assert got.independent_classes == rep.independent_classes
    assert all(abs(v) < np.pi - FLUX_DEDUP_TOL or v == np.pi for v in got.class_values + rep.class_values)


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
    assert same_bits(rep.elementary_fluxes, want[2])
    assert (rep.class_values, rep.independent_classes) == (want[3], want[4])


@st.composite
def cycle_graphs(draw):
    """Disjoint components with shuffled vertex numbers and bonds of random
    phase: square grids (triangle-free, so every cycle is searched edge by
    edge), complete and dense random graphs (several common neighbours per
    edge), and rings of three to nine bonds. Weights are 2D or absent."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs, n = [], 0
    for kind in draw(st.lists(st.sampled_from(["grid", "complete", "random", "ring"]), min_size=1, max_size=3)):
        if kind == "grid":
            rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
            grid = n + np.arange(rows * cols).reshape(rows, cols)
            pairs += zip(grid[:, :-1].ravel(), grid[:, 1:].ravel())
            pairs += zip(grid[:-1].ravel(), grid[1:].ravel())
            size = rows * cols
        elif kind == "complete":
            size = draw(st.integers(1, 7))
            pairs += [(n + p, n + q) for p in range(size) for q in range(p + 1, size)]
        elif kind == "ring":
            size = draw(st.integers(3, 9))
            pairs += [(n + p, n + (p + 1) % size) for p in range(size)]
        else:
            size = draw(st.integers(2, 10))
            p, q = np.nonzero(np.triu(rng.random((size, size)) < draw(st.floats(0.3, 1.0)), k=1))
            pairs += zip(n + p, n + q)
        n += size
    perm = rng.permutation(n)
    i, j = perm[np.array(pairs, dtype=np.int64).reshape(-1, 2)].T
    amp = rng.uniform(0.5, 2.0, len(i)) * np.exp(1j * rng.uniform(-np.pi, np.pi, len(i)))
    H = sparse.csr_matrix((np.concatenate([amp, amp.conj()]), (np.r_[j, i], np.r_[i, j])), shape=(n, n))
    weights = rng.normal(size=(n, 2)) if draw(st.booleans()) else None
    return SparseOperator(H), weights


def assert_cycles_match_per_edge_search(graph, weights):
    """The cycles `plaquette_fluxes` finds, and its report, against the
    same report with `oracle_elementary_cycles` in their place."""
    found = []
    elementary_cycles = lattice._elementary_cycles

    def spy(adj, non_tree):
        found.append((adj, non_tree, elementary_cycles(adj, non_tree)))
        return found[-1][2]

    with mock.patch.object(lattice, "_elementary_cycles", spy):
        rep = plaquette_fluxes(graph, weights)
    with mock.patch.object(lattice, "_elementary_cycles", oracle_elementary_cycles):
        want = plaquette_fluxes(graph, weights)
    [(adj, non_tree, (flat, lengths))] = found
    want_flat, want_lengths = oracle_elementary_cycles(adj, non_tree)
    assert flat.dtype == lengths.dtype == np.int64
    assert np.array_equal(lengths, want_lengths) and np.array_equal(flat, want_flat)
    assert rep.cycle_count == want.cycle_count
    assert same_bits(rep.elementary_fluxes, want.elementary_fluxes)
    assert (rep.class_values, rep.independent_classes) == (want.class_values, want.independent_classes)


@settings(max_examples=300, deadline=None)
@given(st.one_of(cycle_graphs(), hermitian_graphs()))
def test_elementary_cycles_match_per_edge_search(case):
    H, weights = case
    assert_cycles_match_per_edge_search(build_fsl(H), weights)


@pytest.mark.parametrize(
    "system",
    [
        {
            "algebra": {"name": "su3_schwinger", "params": {"N": 9}},
            "terms": [{"label": lab, "coeff": 1.0} for lab in ("I+", "I-", "U+", "U-")]
            + [{"label": "V+", "coeff": 1.0, "phase": 0.7}, {"label": "V-", "coeff": 1.0, "phase": -0.7}],
        },
        builtin_scenario("so5_quench", N=8, form="six_bond").payload["system"],
        builtin_scenario("so5_quench", N=6, form="roots", phi=float(np.pi)).payload["system"],
    ],
    ids=["su3_N9_phased", "so5_six_bond_N8", "so5_roots_N6"],
)
def test_catalog_lattice_cycles_match_per_edge_search(system):
    system = read_system(system, "system")
    basis, H, model, terms = build_system(system)
    wl = system_weights(system, basis, model)
    assert_cycles_match_per_edge_search(system_graph(H, model, terms), wl.coordinates_float)


# ---------------------------------------------------------------------------
# the Lanczos steps that rebuilt the basis for every attempted step size
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


def oracle_lanczos_attempt(mat, v, dt, m):
    """One exp(-i mat dt) v approximation in an m-dimensional Krylov space.

    Returns (result, error_estimate). Full reorthogonalization: the
    subspace is small and the catalog problems are stiff enough to drift.
    """
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
        if k + 1 == m:
            break  # w is the residual direction of the error estimate
        for kk in range(k + 1):  # full reorthogonalization, subspace is small
            w = w - np.vdot(V[kk], w) * V[kk]
        nb = np.linalg.norm(w)
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
        err = abs(np.linalg.norm(w) * u[m - 1]) * abs(dt)
    return result, err


def oracle_krylov_propagate(H, v, dt, m, tol):
    """Adaptive Lanczos exponential: substeps until the a-posteriori residual
    estimate stays below tol per step."""
    mat = H.mat
    remaining = float(dt)
    h = remaining
    guard = 0
    while remaining > 1e-15 * abs(dt):
        h = min(h, remaining)
        w, err = oracle_lanczos_attempt(mat, v, h, m)
        if err > tol:
            h *= 0.5
            guard += 1
            if guard > 60:
                raise NumericContractError(
                    "Krylov substepping failed to reach the local error target"
                )
            continue
        v = w
        remaining -= h
        if err < 0.1 * tol:
            h *= 1.5
    return v


# the basis size of every substep before bases grew until they covered the interval
FIXED_KRYLOV_DIM = 40


def oracle_krylov_evolve(H, psi0, times):
    """The snapshots of `evolve(..., method="krylov")` through the oracle,
    on bases of FIXED_KRYLOV_DIM rows as when it was the propagator."""
    snaps = np.empty((len(times), H.dim), dtype=complex)
    current = np.asarray(psi0, dtype=complex)
    t_prev = 0.0
    for k, t in enumerate(times):
        dt = t - t_prev
        if dt > 0:
            current = oracle_krylov_propagate(H, current, dt, FIXED_KRYLOV_DIM, KRYLOV_TOL)
        snaps[k] = current
        t_prev = t
    return snaps


def oracle_fixed_krylov_basis(mat, v, m):
    """The Lanczos basis of v in exactly min(m, dim) dimensions unless the
    recurrence breaks down, its rows in one preallocated (m, dim) block: the
    basis every substep built before `_krylov_basis` grew its rows on demand."""
    n = v.shape[0]
    m = min(m, n)
    V = np.empty((m, n), dtype=complex)
    alpha = np.zeros(m)
    beta = np.zeros(m)  # beta[k] couples V[k-1], V[k]
    V[0] = v
    for k in range(m):
        w = mat @ V[k]
        alpha[k] = zdotc(V[k], w).real
        w = zaxpy(V[k], w, a=-alpha[k])
        if k > 0:
            w = zaxpy(V[k - 1], w, a=-beta[k])
        nb = dznrm2(w)
        if k + 1 == m:
            res = nb
            break
        if nb < 1e-14:
            m, res = k + 1, 0.0
            break
        beta[k + 1] = nb
        np.divide(w.view(float), nb, out=V[k + 1].view(float))
    T = np.diag(alpha[:m]) + np.diag(beta[1:m], 1) + np.diag(beta[1:m], -1)
    evals, evecs = np.linalg.eigh(T)
    return V[:m], evals, evecs, res


def oracle_fixed_krylov_evolve(H, psi0, times):
    """Krylov evolution with one fixed basis of FIXED_KRYLOV_DIM rows per
    substep and the first-crossing step rule. Returns the snapshots and the
    number of bases built."""
    snaps = np.empty((len(times), H.dim), dtype=complex)
    current = np.asarray(psi0, dtype=complex)
    t_prev, bases = 0.0, 0
    for k, t in enumerate(times):
        remaining = t - t_prev
        while remaining > 1e-15 * (t - t_prev):
            basis = oracle_fixed_krylov_basis(H.mat, current, FIXED_KRYLOV_DIM)
            h, _ = _first_crossing(basis, remaining)
            current = _krylov_step(basis, h)[0] @ basis[0]
            remaining -= h
            bases += 1
        snaps[k] = current
        t_prev = t
    return snaps, bases


def random_start(rng, dim, localized):
    if localized:
        v = np.zeros(dim, dtype=complex)
        v[rng.integers(dim)] = 1.0
        return v
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def dense_propagate(H, psi0, times):
    """exp(-i H t) psi0 for every t of the grid through a dense `eigh`: the
    exact reference of the Krylov checks."""
    energies, vectors = scipy.linalg.eigh(H.toarray())
    return (np.exp(-1j * np.outer(times, energies)) * (vectors.conj().T @ psi0)) @ vectors.T


@st.composite
def stressed_hermitian(draw, min_dim=1):
    """A random sparse Hermitian matrix of one of four kinds, each a stress
    on the Lanczos recurrence. 'chain': a hopping chain with random phases
    plus sparse extra bonds. 'outliers': the same with two large diagonal
    entries, whose Ritz values converge within a few steps and then come
    back as ghosts once the basis loses orthogonality. 'clustered': diagonal
    entries from at most three values coupled by bonds of 1e-6 to 1e-3, so
    the recurrence nears a breakdown without reaching one. 'blocks':
    uncoupled chains, so a start inside one block breaks down early."""
    n = draw(st.integers(min_dim, 120))
    kind = draw(st.sampled_from(["chain", "outliers", "clustered", "blocks"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def chain(size):
        hops = rng.uniform(0.5, 2.0, size - 1) * np.exp(1j * rng.uniform(-np.pi, np.pi, size - 1))
        return sparse.diags(hops, 1, shape=(size, size))

    diag = rng.normal(size=n)
    if kind == "blocks":
        sizes = []
        while sum(sizes) < n:
            sizes.append(int(rng.integers(1, 41)))
        sizes[-1] -= sum(sizes) - n
        upper = sparse.block_diag([chain(size) for size in sizes])
    else:
        extra = sparse.random(n, n, density=draw(st.floats(0.0, 0.05)), random_state=rng, format="csr")
        upper = chain(n) + extra.astype(complex)
    if kind == "outliers":
        where = rng.choice(n, min(n, 2), replace=False)
        diag[where] = rng.choice([-1.0, 1.0], where.size) * rng.uniform(20.0, 200.0, where.size)
    if kind == "clustered":
        upper = upper * 10.0 ** rng.uniform(-6, -3)
        diag = rng.choice(rng.normal(scale=3.0, size=rng.integers(1, 4)), n)
    upper = sparse.triu(upper, k=1)
    return SparseOperator((upper + upper.conj().T + sparse.diags(diag)).tocsr())


def lanczos_error_bound(basis, h):
    """The bound res * integral_0^h |u_m(s)| ds on the error of one Lanczos
    step of size h, u_m(s) the last entry of exp(-i T s) e_1 (the error
    representation of Saad, SIAM J. Numer. Anal. 29, 1992). `_krylov_step`
    estimates it by its end point, |res u_m(h)| h, which is no bound: on
    clustered spectra u_m oscillates, and one step's error has reached four
    times that estimate."""
    _, evals, evecs, res = basis
    s = np.linspace(0.0, h, 257)
    last = (evecs[-1] * evecs[0].conj()) @ np.exp(-1j * np.outer(evals, s))
    return res * trapezoid(np.abs(last), s)


# round-off of one step, h * eps * ||H|| with ||H|| <= a few hundred here
STEP_ROUNDOFF = 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(hermitian_graphs().map(lambda case: case[0]), stressed_hermitian()),
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
    st.floats(1e-3, 5.0),
    st.booleans(),
)
def test_lanczos_step_matches_oracle(H, seed, m, dt, localized):
    """One accepted step on one basis against dense `eigh`: dt is halved
    until the error estimate is at most KRYLOV_TOL, which may land in a dip
    of the estimate outside the convergent range, and the step's error is
    then at most `lanczos_error_bound` plus round-off, a true bound at any
    step size. The rows of `_krylov_basis`, which may stop growing once it
    covers dt, are the first rows of `oracle_fixed_krylov_basis` bit for
    bit, and a basis that did not stop early is that basis. The MGS oracles,
    which rebuilt a reorthogonalized basis of as many rows for the step,
    meet the same bound at the same step size. A start on one vertex of a
    graph with several components stops at a happy breakdown."""
    v = random_start(np.random.default_rng(seed), H.dim, localized)
    basis = _krylov_basis(H.mat, v, m, dt)
    fixed = oracle_fixed_krylov_basis(H.mat, v, m)
    rows = len(basis[0])
    assert np.array_equal(np.array(basis[0]), fixed[0][:rows])
    if rows == len(fixed[0]):
        assert basis[3] == fixed[3]
        assert np.array_equal(basis[1], fixed[1]) and np.array_equal(basis[2], fixed[2])
    else:
        assert rows % _COVER_CHECK == 0 and _krylov_step(basis, dt)[1] <= KRYLOV_TOL
    for _ in range(61):
        u, err = _krylov_step(basis, dt)
        if not err > KRYLOV_TOL:
            break
        dt *= 0.5
    want = dense_propagate(H, v, [dt])[0]
    bound = lanczos_error_bound(basis, dt) + STEP_ROUNDOFF
    assert np.linalg.norm(u @ basis[0] - want) <= bound
    for oracle in (oracle_lanczos_attempt, oracle_lanczos_step):
        assert np.linalg.norm(oracle(H.mat, v, dt, rows)[0] - want) <= bound


@st.composite
def krylov_problems(draw):
    """A stressed Hermitian matrix larger than the fixed-size basis, a start
    vector, and a time grid whose spacings are long enough for the first
    step sizes to be rejected."""
    H = draw(stressed_hermitian(min_dim=FIXED_KRYLOV_DIM + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi0 = random_start(rng, H.dim, draw(st.booleans()))
    steps = draw(st.lists(st.floats(0.5, 6.0), min_size=1, max_size=4))
    start = draw(st.sampled_from([0.0, 0.3]))
    return H, psi0, start + np.cumsum(steps)


def counting_basis_builds(builds):
    """`_krylov_basis` that appends its row count to `builds` for every basis
    it builds."""
    build = dynamics._krylov_basis

    def counting(mat, v, m, remaining):
        basis = build(mat, v, m, remaining)
        builds.append(len(basis[0]))
        return basis

    return counting


@settings(max_examples=60, deadline=None)
@given(krylov_problems())
def test_krylov_evolution_matches_rebuilding_oracle(case):
    """Krylov evolution against dense `eigh`. Each accepted substep (one
    basis build) keeps its error estimate at most KRYLOV_TOL, and the
    propagator is unitary, so local errors add without growing: after s
    substeps the error is at most s * KRYLOV_TOL. The fixed-size bases meet
    the bound of their own count, and so does the MGS propagator that
    rebuilt a basis of as many rows for every step size. The stats count
    the rows built."""
    H, psi0, times = case
    builds = []
    with mock.patch.object(dynamics, "_krylov_basis", counting_basis_builds(builds)):
        result = evolve(H, psi0, times, method="krylov")
    want = dense_propagate(H, psi0, times)
    bound = len(builds) * KRYLOV_TOL
    assert np.max(np.linalg.norm(result.snapshots - want, axis=1)) <= bound
    assert (result.stats.bases, result.stats.matvecs) == (len(builds), sum(builds))
    fixed, fixed_bases = oracle_fixed_krylov_evolve(H, psi0, times)
    fixed_bound = fixed_bases * KRYLOV_TOL
    assert np.max(np.linalg.norm(fixed - want, axis=1)) <= fixed_bound
    assert np.max(np.linalg.norm(oracle_krylov_evolve(H, psi0, times) - want, axis=1)) <= fixed_bound


def spin_chain(S, J):
    """J (S+ + S-) on su2_spin S: the rotation 2 J Sx, an equidistant spectrum."""
    model = build_algebra("su2_spin", S=S)
    return model, linear_combination([model.generator("S+"), model.generator("S-")], [J, J])


def test_krylov_substeps_stop_at_the_first_crossing(monkeypatch):
    """A spin-60 chain (dim 121) over t = 1, 2, 3, one basis per substep.
    Every accepted step size h keeps the error estimate at most KRYLOV_TOL
    on a geometric grid of ratio below 1.05 up to h, and h is the largest
    such step: unless h ends an interval, the basis holds KRYLOV_DIM rows
    and the estimate at h * STEP_GRID_RATIO is above the tolerance. A basis
    that ends an interval stopped growing at a multiple of _COVER_CHECK
    rows. The stats count the bases `_krylov_basis` built and their rows."""
    model, H = spin_chain(60, 1.0)
    psi0 = model.basis.vector((120,))
    times = np.array([1.0, 2.0, 3.0])
    bases = []
    build = dynamics._krylov_basis

    def keeping(mat, v, m, remaining):
        bases.append(build(mat, v, m, remaining))
        return bases[-1]

    monkeypatch.setattr(dynamics, "_krylov_basis", keeping)
    result = evolve(H, psi0, times, method="krylov")
    stats = result.stats
    assert stats.bases == len(bases) == len(stats.steps) > len(times)
    assert stats.matvecs == sum(len(basis[0]) for basis in bases)
    ends = np.cumsum(stats.steps)
    assert np.allclose(ends[-1], times[-1], rtol=0, atol=1e-12)
    for basis, h, end in zip(bases, stats.steps, ends):
        assert max(_krylov_step(basis, s)[1] for s in np.geomspace(h * 1e-6, h, 300)) <= KRYLOV_TOL
        if np.min(np.abs(end - times)) > 1e-12:
            assert len(basis[0]) == KRYLOV_DIM
            assert _krylov_step(basis, h * STEP_GRID_RATIO)[1] > KRYLOV_TOL
        else:
            assert len(basis[0]) % _COVER_CHECK == 0
    assert 0 < stats.max_estimate <= KRYLOV_TOL
    assert stats.norm_drift == np.max(np.abs(result.norms - 1.0))
    assert np.max(np.linalg.norm(result.snapshots - dense_propagate(H, psi0, times), axis=1)) <= stats.bases * KRYLOV_TOL
    dense = evolve(H, psi0, times).stats
    assert (dense.bases, dense.steps, dense.max_estimate) == (0, [], 0.0)


def test_large_bases_keep_the_fixed_size_footprint(monkeypatch):
    """A basis holds KRYLOV_DIM rows where they fit in KRYLOV_BYTES (the so5
    N = 60 sector, dim 39,711), as many as fit above FIXED_KRYLOV_DIM, and
    FIXED_KRYLOV_DIM on the so5 N = 132 sector (dim 400,995), where
    KRYLOV_DIM rows would take 640 MB. With no room at all, a spin-60 chain
    (dim 121) builds bases of FIXED_KRYLOV_DIM rows, all but the last full,
    and keeps the evolution's bound against dense `eigh`."""
    assert dynamics._basis_rows(39_711) == KRYLOV_DIM
    assert dynamics._basis_rows(dynamics.KRYLOV_BYTES // (16 * 60)) == 60
    assert dynamics._basis_rows(400_995) == FIXED_KRYLOV_DIM
    model, H = spin_chain(60, 1.0)
    psi0 = model.basis.vector((120,))
    builds = []
    monkeypatch.setattr(dynamics, "KRYLOV_BYTES", 0)
    monkeypatch.setattr(dynamics, "_krylov_basis", counting_basis_builds(builds))
    result = evolve(H, psi0, [3.0], method="krylov")
    assert len(builds) > 1 and builds[:-1] == [FIXED_KRYLOV_DIM] * (len(builds) - 1)
    assert builds[-1] <= FIXED_KRYLOV_DIM
    assert np.linalg.norm(result.snapshots[0] - dense_propagate(H, psi0, [3.0])[0]) <= len(builds) * KRYLOV_TOL


def test_first_crossing_ends_and_raises():
    """A happy breakdown takes what is left of the interval in one step;
    an estimate above the tolerance already at the smallest grid step
    raises, as the 61st halving did."""
    rotation = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    evals = np.array([1.0, 2.0])
    assert dynamics._first_crossing((None, evals, rotation, 0.0), 2.5) == (2.5, 0.0)
    with pytest.raises(NumericContractError, match="local error target"):
        dynamics._first_crossing((None, evals, rotation, 1.0), 2.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(20, 120), st.floats(0.1, 4 * np.pi))
@example(60, np.pi)
@example(60, 3.0)
def test_krylov_spin_rotation_matches_dense(two_s, t):
    """(S+ + S-)/2 = Sx turns m = -S into m = +S at t = pi. On this
    equidistant spectrum the end-point estimate of a long step swings and
    dips below the tolerance: a rule that halved a rejected step from the
    whole interval accepted one step of pi at S = 30 and returned P(m = +S)
    = 0 against 1 (an error of 0.86 at t = 3). Against dense `eigh`, within
    the evolution's bound of KRYLOV_TOL per basis built."""
    model, H = spin_chain(Fraction(two_s, 2), 0.5)
    psi0 = model.basis.vector((0,))
    result = evolve(H, psi0, [t], method="krylov")
    assert np.linalg.norm(result.snapshots[0] - dense_propagate(H, psi0, [t])[0]) <= result.stats.bases * KRYLOV_TOL


def test_su2_transport_scenario_under_krylov(tmp_path):
    """su2_transport at S = 30 on three times up to 1.1 pi, run with krylov
    and with dense_eig: every CSV column agrees within 2 S times the state
    bound, since a state error d moves <Sz> by at most 2 S d and a
    population or the fidelity by at most 2 d. The halving rule was off by
    0.58 here."""
    payload = builtin_scenario("su2_transport", S=30, num=3).to_dict()
    builds, tables = [], {}
    for method in ("krylov", "dense_eig"):
        payload["evolve"] = {"method": method}
        with mock.patch.object(dynamics, "_krylov_basis", counting_basis_builds(builds)):
            run_scenario(parse_config(payload), out_dir=tmp_path / method)
        tables[method] = np.loadtxt(tmp_path / method / "su2_transport.csv", delimiter=",", skiprows=1)
    assert builds
    assert np.max(np.abs(tables["krylov"] - tables["dense_eig"])) <= 2 * 30 * len(builds) * KRYLOV_TOL


def so5_corner_quench(N, phi):
    """so5_quench in its six-bond form from (N, 0, 0, 0) to t = 1 under
    krylov: the evolution, and the free-boson multinomial N! / prod n_j!
    prod |U_j0|^(2 n_j) of every Fock population, U = exp(-i h t) with h
    the 4 x 4 hopping matrix."""
    config = builtin_scenario("so5_quench", N=N, phi=phi, form="six_bond", method="krylov")
    basis, H, _, _ = build_system(config.values["system"])
    result = evolve(H, build_initial_state(config.values["initial_state"], basis), [1.0], method="krylov", store="populations")
    h = np.zeros((4, 4), dtype=complex)
    for bond in config.values["system"]["bilinears"]:
        c = bond["coeff"] * np.exp(1j * bond.get("phase", 0.0))
        h[bond["create"], bond["annihilate"]] += c
        h[bond["annihilate"], bond["create"]] += np.conj(c)
    p = np.abs(scipy.linalg.expm(-1j * h)[:, 0]) ** 2
    occ = basis.occ
    return result, np.exp(gammaln(N + 1) - gammaln(occ + 1).sum(axis=1) + occ @ np.log(p))


def test_so5_six_bond_krylov_matches_free_bosons():
    """The so5 corner quench at N = 60 and phi = 2 (dim 39,711): every Fock
    population against the free-boson multinomial at 1e-12. At m = 40 the
    halving rule accepted one step of 1 here, a population error of 0.89.
    Only the last basis stops growing before KRYLOV_DIM rows, where it
    covers the rest of the interval: a basis that stopped once the end-point
    estimate alone was within the tolerance stopped at 40 rows here, on a
    dip of the estimate, and its first crossing was a step of 0.17."""
    builds = []
    with mock.patch.object(dynamics, "_krylov_basis", counting_basis_builds(builds)):
        result, want = so5_corner_quench(60, 2.0)
    assert np.max(np.abs(result.populations[0] - want)) <= 1e-12
    assert builds[:-1] == [KRYLOV_DIM] * (len(builds) - 1)


def test_so5_six_bond_quench_at_phi_0_builds_one_basis():
    """At phi = 0 the hopping matrix has two eigenvalues, so the corner state
    evolves in an su(2) multiplet of N + 1 = 61 states and one basis covers
    t = 1. Without reorthogonalization the residual stays O(1) at row 61
    (17.6 here) and the error estimate falls below KRYLOV_TOL at row 67,
    so the basis stops at the first check from there, within one check
    interval of the first check past N + 1: at most 72 rows, where the
    fixed-size bases took 6 substeps and 240 products. Populations against
    the free-boson multinomial at 1e-12."""
    N = 60
    result, want = so5_corner_quench(N, 0.0)
    assert np.max(np.abs(result.populations[0] - want)) <= 1e-12
    assert result.stats.bases == 1
    first_check = _COVER_CHECK * math.ceil((N + 1) / _COVER_CHECK)
    assert result.stats.matvecs <= first_check + _COVER_CHECK


# ---------------------------------------------------------------------------
# the dense displacement unitary
# ---------------------------------------------------------------------------


def oracle_displacement_unitary(raising: SparseOperator, lowering: SparseOperator, beta) -> np.ndarray:
    """Dense unitary exp(beta * raising - conj(beta) * lowering)."""
    beta = complex(beta)
    gen = beta * raising.mat - np.conj(beta) * lowering.mat
    herm = 1j * gen.toarray()  # dense, so no small entry is dropped before the check
    defect = np.max(np.abs(herm - herm.conj().T), initial=0.0)
    if not within_hermitian_bound(defect, np.max(np.abs(herm), initial=0.0)):
        raise ValueError("raising/lowering pair is not mutually adjoint")
    evals, evecs = scipy.linalg.eigh(herm)
    return (evecs * np.exp(-1j * evals)) @ evecs.conj().T


DISPLACEMENT_MODELS = (
    ("su2_spin", {"S": 20}),
    ("hw", {"cutoff": 80}),
    ("e2", {"L": 61}),
    ("su11_single", {"cutoff": 120}),
    ("su3_schwinger", {"N": 20}),
)


@functools.cache
def displacement_model(which):
    name, params = DISPLACEMENT_MODELS[which]
    return build_algebra(name, **params)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(DISPLACEMENT_MODELS) - 1),
    st.integers(0, 2),
    st.floats(0.0, 1.0),
    st.floats(-np.pi, np.pi),
    st.integers(0, 2**32 - 1),
)
def test_displace_matches_dense_oracle(which, pair, radius, angle, seed):
    """`displace` against the dense unitary on catalog models, for random
    beta with |beta| <= 1 applied to random normalized states. A
    displacement is one Krylov evolution over unit time, so its error bound
    is the evolution's: s * KRYLOV_TOL after s accepted substeps."""
    model = displacement_model(which)
    rp = model.root_pairs[pair % len(model.root_pairs)]
    beta = radius * np.exp(1j * angle)
    psi = random_start(np.random.default_rng(seed), model.basis.dim, False)
    builds = []
    with warnings.catch_warnings(), mock.patch.object(dynamics, "_krylov_basis", counting_basis_builds(builds)):
        warnings.simplefilter("ignore", TruncationLeakageWarning)  # states reach the cutoff
        got = displace(model, model.labels[rp.raising], beta, psi)
    U = oracle_displacement_unitary(model.generators[rp.raising], model.generators[rp.lowering], beta)
    assert np.max(np.abs(got - U @ psi)) <= len(builds) * KRYLOV_TOL


def test_displace_spin_half_turn_matches_dense_oracle():
    """exp(pi/2 (S+ - S-)) turns m = -S into m = +S. At S = 30 the rule that
    halved a rejected step from the whole unit interval returned a state off
    by 1.0; against the dense unitary, within KRYLOV_TOL per basis built."""
    model = build_algebra("su2_spin", S=30)
    rp = next(rp for rp in model.root_pairs if model.labels[rp.raising] == "S+")
    psi = model.basis.vector((0,))
    builds = []
    with mock.patch.object(dynamics, "_krylov_basis", counting_basis_builds(builds)):
        got = displace(model, "S+", np.pi / 2, psi)
    U = oracle_displacement_unitary(model.generators[rp.raising], model.generators[rp.lowering], np.pi / 2)
    assert np.max(np.abs(got - U @ psi)) <= len(builds) * KRYLOV_TOL


# ---------------------------------------------------------------------------
# the per-state SU(3) coherent state
# ---------------------------------------------------------------------------


def oracle_su3_coherent_state(N, zeta, basis):
    zeta = np.asarray(zeta, dtype=complex)
    zeta = zeta / np.linalg.norm(zeta)
    out = np.zeros(basis.dim, dtype=complex)
    logN = gammaln(N + 1)
    for i, occ in enumerate(basis.states):
        na, nb, nc = occ
        log_mult = 0.5 * (logN - gammaln(na + 1) - gammaln(nb + 1) - gammaln(nc + 1))
        term = np.exp(log_mult)
        for z, p in zip(zeta, occ):
            if p:
                term = term * z**p
        out[i] = term
    return out / np.linalg.norm(out)


component = st.one_of(
    st.just(0j),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False, allow_subnormal=False),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    st.tuples(component, component, component).filter(lambda z: any(abs(c) > 1e-3 for c in z)),
)
def test_su3_coherent_state_matches_per_state_loop(N, zeta):
    basis = FockBasis([boson(N)] * 3, constraint=N)
    want = oracle_su3_coherent_state(N, zeta, basis)
    got = su3_coherent_state(N, zeta, basis)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# the JSON writers against json.dumps
# ---------------------------------------------------------------------------


def oracle_json_text(payload):
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def written(write, payload):
    """The text a writer gives, or the type of the exception it raises."""
    try:
        return write(payload)
    except Exception as exc:  # the type is what is compared
        return type(exc)


json_strings = st.text(st.sampled_from(list('ab%"\\\n\t\x00\x7fé€😀 {}[]:,')) | st.characters(), max_size=6)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.floats().map(np.float64),  # a float subclass, written as a float
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e308, 5e-324, 2**64 + 1, -(2**65), True, 1, False, 0]),
    json_strings,
)


@st.composite
def json_records(draw, children):
    """Dicts that share keys, each in its own insertion order; some drop a
    key, so the records are ragged."""
    keys = draw(st.lists(json_strings, max_size=4, unique=True))
    records = []
    for _ in range(draw(st.integers(0, 4))):
        own = draw(st.permutations(keys))
        if own and draw(st.booleans()):
            own = own[1:]
        records.append({key: draw(children) for key in own})
    return records


json_payloads = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_strings, children, max_size=4),
        # keys that are not str: sortable ones, and mixed types that are not
        st.dictionaries(st.integers(-3, 3) | st.booleans() | st.floats(), children, max_size=3),
        st.dictionaries(st.none() | st.sampled_from([-0.0, 0.0, float("nan"), float("inf")]), children, max_size=2),
        st.dictionaries(json_strings | st.integers(-2, 2) | st.none(), children, max_size=3),
        json_records(children),
    ),
    max_leaves=40,
)


def holds_itself(payload):
    payload["self"] = payload
    return payload


@settings(max_examples=300, deadline=None)
@given(json_payloads)
# record lists: vertex-like records with a nested weight, edge-like records
# with a label and a "%" in a key
@example({"n": 2, "vertices": [
    {"id": 0, "onsite": -0.0, "weight": [0.5, -1.5], "multiplicity": 1},
    {"id": 1, "onsite": 1e308, "weight": [float("nan"), 2.0], "multiplicity": 2},
]})
@example({"edges": [
    {"i": 0, "j": 1, "re": 1.0, "im": 0.0, "label": None, "%s": "%d"},
    {"i": 1, "j": 2, "re": 0.5, "im": -5e-324, "label": "V+\n\"é", "%s": ""},
]})
# a float subclass leaf, ragged nested lengths, an empty nested list
@example({
    "a": [{"x": 1.0}, {"x": np.float64(2.0)}],
    "b": [{"w": [1, 2]}, {"w": [3]}],
    "c": [{"w": []}, {"w": []}],
})
@example(holds_itself({"edges": [{"i": 0, "j": 1}]}))
@example([{1: "a"}, {True: "a"}, {1.0: "a"}, {0.0: "b"}, {-0.0: "b"}, {False: "b"}])
@example({"%s": "%d", "%": ["%%", "%(x)s"], "a\nb": {"\x00": "\n"}})
@example([[1, 2], [3], [], [[]], {}, ([],), [[{}]]])
@example({"v": [True, 1, 1.0, -0.0, 0.0, 2**64 + 1, float("nan"), float("inf"), -float("inf"), 1e308]})
def test_json_text_matches_json_dumps(payload):
    assert written(json_text, payload) == written(oracle_json_text, payload)


@settings(max_examples=150, deadline=None)
@given(
    json_payloads,
    st.sampled_from([Fraction(1, 3), np.int64(3), np.float32(0.5), np.bool_(True), {1, 2}, frozenset(), object()]),
    st.integers(0, 3),
)
def test_json_text_raises_like_json_dumps(payload, bad, where):
    """An unserialisable leaf or a dict key that is neither str, int, float,
    bool nor None raises the exception type json.dumps raises."""
    wrapped = [
        [payload, bad],
        {"a": payload, "b": [{"c": bad}]},
        [{"k": payload}, {"k": bad}],
        {(1, 2): payload, "a": bad} if where == 3 else {1: payload, "a": bad},
    ][where]
    got = written(json_text, wrapped)
    assert isinstance(got, type) and got is written(oracle_json_text, wrapped)


def oracle_graph_to_json_dict(fsl, weight_lattice=None) -> dict:
    """Export form: sorted vertex records with onsite energy, optional weight
    tuple and site multiplicity, plus edge records with re/im amplitudes."""
    onsite = fsl.onsite.tolist()
    if weight_lattice is None:
        vertices = [{"id": v, "onsite": e} for v, e in enumerate(onsite)]
    else:
        weights = weight_lattice.coordinates_float.tolist()
        mult = weight_lattice.multiplicity_array()[weight_lattice.site_index].tolist()
        vertices = [
            {"id": v, "onsite": e, "weight": w, "multiplicity": m}
            for v, (e, w, m) in enumerate(zip(onsite, weights, mult))
        ]
    re, im = fsl.amplitudes.real.tolist(), fsl.amplitudes.imag.tolist()
    edges = [
        {"i": i, "j": j, "re": r, "im": m, "label": lab}
        for (i, j), r, m, lab in zip(fsl.edges.tolist(), re, im, fsl.labels or [None] * fsl.n_edges)
    ]
    return {"vertices": vertices, "edges": edges}


def oracle_graph_json_text(fsl, weight_lattice=None, extra=None):
    return oracle_json_text({**oracle_graph_to_json_dict(fsl, weight_lattice), **(extra or {})})


def oracle_graph_to_adjacency_csv(fsl):
    """Spreadsheet-style adjacency listing: i, j, re, im, label per line."""
    amps = float_rows(np.stack((fsl.amplitudes.real, fsl.amplitudes.imag), axis=1))
    lines = ["i,j,re,im,label"] + [
        f"{i},{j},{re_im},{'' if lab is None else lab}"
        for (i, j), re_im, lab in zip(fsl.edges.tolist(), amps, fsl.labels or [None] * fsl.n_edges)
    ]
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, float("nan"), float("inf"), -float("inf"), 1.5]


@st.composite
def graph_exports(draw):
    """A graph of `hermitian_graphs()` whose onsite energies and amplitude
    parts are in places special or repeated floats, with or without edge
    labels (quotes, control and non-ASCII characters, None) and edges; no
    weights or a weight lattice of rank 0 to 3 whose float coordinates are
    in places special; and extra top-level values."""
    H, _ = draw(hermitian_graphs())
    graph = build_fsl(H)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def special(values):
        return np.where(rng.random(values.shape) < 0.3, rng.choice(SPECIAL_FLOATS, values.shape), values)

    m = 0 if draw(st.integers(0, 4)) == 0 else graph.n_edges
    amplitudes = np.empty(m, dtype=complex)
    amplitudes.real, amplitudes.imag = special(graph.amplitudes.real[:m]), special(graph.amplitudes.imag[:m])
    labels = None
    if draw(st.booleans()):
        pool = draw(st.lists(st.none() | json_strings, min_size=1, max_size=4))
        labels = [pool[k] for k in rng.integers(len(pool), size=m).tolist()]
    graph = FSLGraph(graph.n_vertices, special(graph.onsite), graph.edges[:m], amplitudes, labels)
    rank = draw(st.sampled_from([None, 0, 1, 2, 3]))
    wl = None
    if rank is not None:
        numerators = rng.integers(-4, 5, size=(graph.n_vertices, rank))
        den = draw(st.integers(1, 6))
        wl = weight_coordinates(numerators, den, special(numerators / den))
    extra = draw(
        st.dictionaries(st.sampled_from(["fluxes", "components", "%s\n"]), json_payloads, max_size=2).filter(
            lambda extra: isinstance(written(oracle_json_text, extra), str)
        )
    )
    return graph, wl, extra


@settings(max_examples=300, deadline=None)
@given(graph_exports())
def test_graph_json_text_and_csv_match_the_record_writers(case):
    graph, wl, extra = case
    assert graph_json_text(graph, wl, extra) == oracle_graph_json_text(graph, wl, extra)
    assert graph_to_adjacency_csv(graph) == oracle_graph_to_adjacency_csv(graph)


@pytest.mark.parametrize("N", [30, 90])
def test_graph_json_text_writes_the_su3_flux_exports(N):
    """The su3 flux export as `liefock lattice --fluxes` writes it: 496 and
    4186 vertices, labeled edges, rank-2 weights."""
    terms = [{"label": lab, "coeff": 1.0} for lab in ("I+", "I-", "U+", "U-")]
    terms += [{"label": "V+", "coeff": 1.0, "phase": 1.3}, {"label": "V-", "coeff": 1.0, "phase": -1.3}]
    system = {"algebra": {"name": "su3_schwinger", "params": {"N": N}}, "terms": terms}
    system = read_system(system, "system")
    basis, H, model, parsed = build_system(system)
    graph = system_graph(H, model, parsed)
    wl = system_weights(system, basis, model)
    rep = plaquette_fluxes(graph, wl.coordinates_float)
    extra = {
        "fluxes": {"cycle_count": rep.cycle_count, "class_values": rep.class_values, "independent_classes": 1},
        "components": [len(c) for c in connected_components(graph)],
    }
    text = graph_json_text(graph, wl, extra)
    payload = json.loads(text)
    assert len(payload["vertices"]) == (N + 1) * (N + 2) // 2 and len(payload["edges"]) == 3 * N * (N + 1) // 2
    assert {e["label"] for e in payload["edges"]} == {"I+", "U+", "V+"}
    assert text == oracle_graph_json_text(graph, wl, extra)


def test_records_text_refuses_columns_of_unequal_lengths():
    with pytest.raises(ValueError, match="unequal lengths"):
        records_text({"id": np.arange(3), "label": [None, "a"]})
    assert records_text({"id": np.arange(0), "label": []}) == "[]"


# ---------------------------------------------------------------------------
# the interior block through two fancy-index slices
# ---------------------------------------------------------------------------


def oracle_interior_entries(op, idx):
    """The stored entries of op's block over the basis indices `idx`, as the
    two fancy-index slices built the block and its row-major flat positions
    were read off it: (flat positions, data)."""
    block = op.mat[idx][:, idx]
    rows = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
    return rows * block.shape[1] + block.indices, block.data


def assert_reader_matches_slices(op, interior):
    entries, _ = _interior_and_labels([op], interior, None)
    flat, data = entries(op)
    idx = np.arange(op.dim) if interior is None else np.flatnonzero(interior)
    want_flat, want_data = oracle_interior_entries(op, idx)
    assert np.array_equal(flat, want_flat)
    assert data.dtype == want_data.dtype and np.array_equal(data, want_data)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 64),
    st.floats(0.0, 1.0),
    st.sampled_from(["random", "all", "none", None]),
    st.integers(0, 2**32 - 1),
)
@example(n=7, density=0.0, mask="random", seed=0)  # no stored entries
@example(n=1, density=1.0, mask="none", seed=0)
def test_interior_reader_matches_two_slices(n, density, mask, seed):
    """On random complex sparse operators and interior masks, all-False,
    all-True and None among them, the reader gives the sliced block's flat
    positions and values bit for bit."""
    rng = np.random.default_rng(seed)
    mat = sparse.random(n, n, density=density, random_state=rng, format="csr").astype(complex)
    mat.data *= np.exp(1j * rng.uniform(-np.pi, np.pi, mat.nnz))
    interior = {
        "random": rng.random(n) < rng.random(),
        "all": np.ones(n, bool),
        "none": np.zeros(n, bool),
        None: None,
    }[mask]
    assert_reader_matches_slices(SparseOperator(mat), interior)


@pytest.mark.parametrize("name,params", CATALOG_CASES)
def test_interior_reader_matches_two_slices_on_the_catalog(name, params):
    model = build_algebra(name, **params)
    for op in model.generators + list(model.casimirs.values()):
        assert_reader_matches_slices(op, model.interior())


# ---------------------------------------------------------------------------
# the closure span's support through np.union1d
# ---------------------------------------------------------------------------


def oracle_on_keys(entries, keys):
    """The block's entries at the sorted flat positions `keys` (zeros where it
    stores none), and the norm of the entries it stores elsewhere."""
    flat, data = entries
    pos = np.searchsorted(keys, flat)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == flat[hit]
    row = np.zeros(len(keys), dtype=complex)
    row[pos[hit]] = data[hit]
    return row, float(np.linalg.norm(data[~hit]))


class OracleSpan:
    """`algebra._Span` as it grew its support by np.union1d on every add."""

    def __init__(self, entries):
        self.entries = entries
        self.keys = np.empty(0, dtype=np.int64)
        self.q = np.empty((0, 0), dtype=complex)

    def try_add(self, op, scale, tol=CLOSURE_TOL) -> float:
        v = self.entries(op)
        norm_v = float(np.linalg.norm(v[1]))
        denom = max(norm_v, scale) or 1.0
        if norm_v / denom <= tol:  # r <= ||v||: nothing to project or add
            return norm_v / denom
        keys = np.union1d(self.keys, v[0])
        if len(keys) > len(self.keys):
            q = np.zeros((len(self.q), len(keys)), dtype=complex)
            q[:, np.searchsorted(keys, self.keys)] = self.q
            self.keys, self.q = keys, q
        r, _ = oracle_on_keys(v, self.keys)
        for _ in range(2):  # the second pass guards against cancellation
            r -= (self.q @ r.conj()).conj() @ self.q
        rn = float(np.linalg.norm(r))
        ratio = rn / denom
        if ratio > tol:
            self.q = np.vstack([self.q, r / rn])
        return ratio


# catalog cases small enough to list every flat position of the interior block
SPAN_CATALOG = [case for case in CATALOG_CASES if case[1]] + [("su2_spin", {}), ("so2n_fermion", {})]


@functools.cache
def span_pool(case):
    """A catalog case's generators, the brackets of its first generator
    pairs, and its interior mask."""
    name, params = SPAN_CATALOG[case]
    model = build_algebra(name, **params)
    pairs = list(combinations(model.generators, 2))[:12]
    return model.generators + [graded_commutator(a, b) for a, b in pairs], model.interior()


def ops_at(flat, values, idx, dim):
    """An operator of dimension `dim` with `values` at the interior block's
    row-major flat positions `flat`, the block being over the basis indices `idx`."""
    r, c = np.divmod(flat, len(idx))
    return SparseOperator(sparse.csr_matrix((values, (idx[r], idx[c])), shape=(dim, dim)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_span_grows_its_support_as_union1d_did(data):
    """Fed the same operators, `_Span` (positions by np.searchsorted, the
    support grown by a sorted merge) and `OracleSpan` (np.union1d) return
    the same ratios bit for bit and hold equal supports and bit-equal `q`
    after every add. The operators are catalog generators and brackets or
    random canonical CSR operators, with zero blocks, blocks wholly inside
    the support so far and blocks wholly outside it in between; the first
    add meets an empty support."""
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans(), label="catalog"):
        pool, interior = span_pool(data.draw(st.integers(0, len(SPAN_CATALOG) - 1), label="case"))
        dim = pool[0].dim
    else:
        dim = data.draw(st.integers(1, 16), label="dim")
        interior = data.draw(st.sampled_from([None, "random"]), label="mask")
        interior = None if interior is None else rng.random(dim) < rng.uniform(0.3, 1.0)
        pool = []
        for _ in range(6):
            mat = sparse.random(dim, dim, density=rng.uniform(0.05, 0.6), random_state=rng, format="csr")
            pool.append(SparseOperator(mat.astype(complex) * np.exp(1j * rng.uniform(-np.pi, np.pi))))
    idx = np.arange(dim) if interior is None else np.flatnonzero(interior)
    entries, _ = _interior_and_labels(pool, interior, None)
    got, want = _Span(entries), OracleSpan(entries)
    kinds = st.sampled_from(["pool", "zero", "inside", "outside"])
    for kind in data.draw(st.lists(kinds, min_size=1, max_size=10), label="kinds"):
        keys = want.keys
        outside = np.setdiff1d(np.arange(len(idx) ** 2), keys)
        if kind == "inside" and len(keys):
            flat = rng.choice(keys, size=rng.integers(1, len(keys) + 1), replace=False)
        elif kind == "outside" and len(outside):
            flat = rng.choice(outside, size=rng.integers(1, len(outside) + 1), replace=False)
        else:
            flat = None
        if kind == "zero":
            op = SparseOperator(sparse.csr_matrix((dim, dim), dtype=complex))
        elif flat is not None:
            op = ops_at(flat, rng.normal(size=len(flat)) + 1j * rng.normal(size=len(flat)), idx, dim)
        else:
            op = pool[rng.integers(len(pool))]
        scale = data.draw(st.sampled_from([0.0, 1.0, 1e3]), label="scale")
        tol = data.draw(st.sampled_from([CLOSURE_TOL, 0.3]), label="tol")
        assert same_bits(got.try_add(op, scale, tol), want.try_add(op, scale, tol))
        assert got.keys.dtype == want.keys.dtype and np.array_equal(got.keys, want.keys)
        assert got.q.shape == want.q.shape and got.q.tobytes() == want.q.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**62), 2**62) | st.integers(-3, 3), max_size=60))
def test_sorted_unique_matches_np_unique(values):
    flat = np.array(values, dtype=np.int64)
    got, want = _sorted_unique(flat), np.unique(flat)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the hand-stated catalog builders
# ---------------------------------------------------------------------------
#
# The catalog builders as they were before the Cartan generators and the
# roots were derived from the exact weights: each states its Cartan
# diagonals, its Fraction roots and every model field by hand.


def oracle_frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def oracle_root_of(modes, create, destroy):
    """Root of a quadratic mode operator: +1 per created mode, -1 per
    destroyed mode."""
    r = [Fraction(0)] * modes
    for c in create:
        r[c] += 1
    for d in destroy:
        r[d] -= 1
    return tuple(r)


def oracle_e2(L=21):
    """Shift algebra of a finite chain: position operator plus unit shifts.

    The chain truncates an infinite lattice at both ends, so identity checks
    exclude a window at both boundaries.
    """
    L = int(L)
    if L < 5:
        raise ValueError("chain length must be at least 5")
    basis = FockBasis([boson(L - 1)])
    offset = (L - 1) // 2
    sites = np.arange(L) - offset
    e0 = diagonal_op(sites.astype(float))
    rows = np.arange(1, L)
    cols = np.arange(0, L - 1)
    ep = SparseOperator(
        sparse.csr_matrix((np.ones(L - 1, dtype=complex), (rows, cols)), shape=(L, L))
    )
    em = ep.dagger()
    casimir = SparseOperator(ep.mat @ em.mat)
    return AlgebraModel(
        name="e2",
        params={"L": L},
        basis=basis,
        labels=["E0", "E+", "E-"],
        generators=[e0, ep, em],
        cartan=[0],
        root_pairs=[RootPair(1, 2, (oracle_frac(1),))],
        cartan_units=(1.0,),
        cartan_weights=(sites[:, None], 1),
        annihilators=[1],
        casimirs={"shift_product": casimir},
        truncated_modes=(),
        two_sided_modes=(0,),
    )


def oracle_hw(cutoff=20):
    """Single bosonic mode: ladder pair, number operator, identity."""
    basis = FockBasis([boson(int(cutoff))])
    a, adag = ladder_ops(basis, 0)
    n = number_op(basis, 0)
    one = identity(basis)
    return AlgebraModel(
        name="hw",
        params={"cutoff": int(cutoff)},
        basis=basis,
        labels=["a", "adag", "n", "I"],
        generators=[a, adag, n, one],
        cartan=[2],
        root_pairs=[RootPair(1, 0, (oracle_frac(1),))],
        cartan_units=(1.0,),
        cartan_weights=(basis.occ, 1),
        annihilators=[0],
        casimirs={"identity": one},
        truncated_modes=(0,),
    )


def oracle_su2_spin(S=1):
    """Spin-S angular momentum triple on a single spin mode."""
    spec = spin(S)
    basis = FockBasis([spec])
    sm, sp_ = ladder_ops(basis, 0)
    s = spec.spin_s
    two_m = 2 * np.arange(spec.levels) - spec.capacity
    sz = diagonal_op(two_m / 2)
    s2 = SparseOperator(sz.mat @ sz.mat + 0.5 * (sp_.mat @ sm.mat + sm.mat @ sp_.mat))
    return AlgebraModel(
        name="su2_spin",
        params={"S": s},
        basis=basis,
        labels=["Sz", "S+", "S-"],
        generators=[sz, sp_, sm],
        cartan=[0],
        root_pairs=[RootPair(1, 2, (oracle_frac(1),))],
        cartan_units=(1.0,),
        cartan_weights=(two_m[:, None], 2),
        annihilators=[1],
        casimirs={"S2": s2},
    )


def oracle_su2_schwinger(N=4):
    """Two-boson realization of the spin algebra on the fixed-N sector."""
    N = int(N)
    basis = FockBasis([boson(N), boson(N)], constraint=N)
    na = basis.occupations_of_mode(0)
    nb = basis.occupations_of_mode(1)
    two_sz = na - nb
    sz = diagonal_op(two_sz / 2)
    sp_ = oracle_transfer_op(basis, 0, 1)
    sm = sp_.dagger()
    ntot = diagonal_op((na + nb).astype(float))
    s2 = SparseOperator(sz.mat @ sz.mat + 0.5 * (sp_.mat @ sm.mat + sm.mat @ sp_.mat))
    return AlgebraModel(
        name="su2_schwinger",
        params={"N": N},
        basis=basis,
        labels=["Sz", "S+", "S-"],
        generators=[sz, sp_, sm],
        cartan=[0],
        root_pairs=[RootPair(1, 2, (oracle_frac(1),))],
        cartan_units=(1.0,),
        cartan_weights=(two_sz[:, None], 2),
        annihilators=[1],
        casimirs={"total_number": ntot, "S2": s2},
    )


def oracle_su3_schwinger(N=3):
    """Three-boson realization with two diagonal generators and three
    raising/lowering pairs; the fixed-N sector is a triangular lattice."""
    N = int(N)
    basis = FockBasis([boson(N)] * 3, constraint=N)
    na = basis.occupations_of_mode(0)
    nb = basis.occupations_of_mode(1)
    nc = basis.occupations_of_mode(2)
    two_h1 = na - nb
    two_h2 = na + nb - 2 * nc
    h1 = diagonal_op(two_h1 / 2)
    h2 = diagonal_op(two_h2 / 2 / np.sqrt(3.0))
    ip = oracle_transfer_op(basis, 0, 1)
    up = oracle_transfer_op(basis, 1, 2)
    vp = oracle_transfer_op(basis, 0, 2)
    gens = [h1, h2, ip, ip.dagger(), up, up.dagger(), vp, vp.dagger()]
    labels = ["H1", "H2", "I+", "I-", "U+", "U-", "V+", "V-"]
    ntot = diagonal_op((na + nb + nc).astype(float))
    pairs = ((ip, ip.dagger()), (up, up.dagger()), (vp, vp.dagger()))
    acc = sum(0.5 * (raising.mat @ lowering.mat + lowering.mat @ raising.mat) for raising, lowering in pairs)
    h2s = h2.mat @ h2.mat
    quad = SparseOperator(h1.mat @ h1.mat + h2s + acc)
    return AlgebraModel(
        name="su3_schwinger",
        params={"N": N},
        basis=basis,
        labels=labels,
        generators=gens,
        cartan=[0, 1],
        root_pairs=[
            RootPair(2, 3, (oracle_frac(1), oracle_frac(0))),
            RootPair(4, 5, (Fraction(-1, 2), Fraction(3, 2))),
            RootPair(6, 7, (Fraction(1, 2), Fraction(3, 2))),
        ],
        cartan_units=(1.0, 1.0 / np.sqrt(3.0)),
        cartan_weights=(np.stack([two_h1, two_h2], axis=1), 2),
        annihilators=[2, 4, 6],
        casimirs={"total_number": ntot, "quadratic": quad},
    )


def oracle_so5_quoted(N=2):
    """Four-boson, fixed-N representation with the commonly quoted ten-element
    generator list (two diagonal, four raising/lowering pairs). The quoted
    set is not closed under commutation; closure and site-count diagnostics
    report whatever they find."""
    N = int(N)
    basis = FockBasis([boson(N)] * 4, constraint=N)
    n_au = basis.occupations_of_mode(0)
    n_ad = basis.occupations_of_mode(1)
    n_bu = basis.occupations_of_mode(2)
    n_bd = basis.occupations_of_mode(3)
    two_h1 = n_au - n_ad
    two_h2 = n_bu - n_bd
    h1 = diagonal_op(two_h1 / 2)
    h2 = diagonal_op(two_h2 / 2)
    sa = oracle_transfer_op(basis, 0, 1)   # a-spin flip up
    sb = oracle_transfer_op(basis, 2, 3)   # b-spin flip up
    sab = oracle_transfer_op(basis, 0, 3)  # cross flip along (1/2, 1/2)
    sba = oracle_transfer_op(basis, 1, 2)  # cross flip along (-1/2, -1/2)
    gens = [h1, h2, sa, sa.dagger(), sb, sb.dagger(), sab, sab.dagger(), sba, sba.dagger()]
    labels = ["H1", "H2", "Sa+", "Sa-", "Sb+", "Sb-", "Sab+", "Sab-", "Sba+", "Sba-"]
    ntot = diagonal_op((n_au + n_ad + n_bu + n_bd).astype(float))
    return AlgebraModel(
        name="so5_quoted",
        params={"N": N},
        basis=basis,
        labels=labels,
        generators=gens,
        cartan=[0, 1],
        root_pairs=[
            RootPair(2, 3, (oracle_frac(1), oracle_frac(0))),
            RootPair(4, 5, (oracle_frac(0), oracle_frac(1))),
            RootPair(6, 7, (Fraction(1, 2), Fraction(1, 2))),
            RootPair(8, 9, (Fraction(-1, 2), Fraction(-1, 2))),
        ],
        cartan_units=(1.0, 1.0),
        cartan_weights=(np.stack([two_h1, two_h2], axis=1), 2),
        annihilators=[2, 4, 6, 8],
        casimirs={"total_number": ntot},
    )


def oracle_su11_chain(k0_diag, k0_weights, kp: SparseOperator, name, params, basis, truncated):
    km = kp.dagger()
    k1 = SparseOperator(0.5 * (kp.mat + km.mat))
    k2 = SparseOperator((kp.mat - km.mat) / 2j)
    casimir = SparseOperator(k0_diag.mat @ k0_diag.mat - k1.mat @ k1.mat - k2.mat @ k2.mat)
    return AlgebraModel(
        name=name,
        params=params,
        basis=basis,
        labels=["K0", "K+", "K-"],
        generators=[k0_diag, kp, km],
        cartan=[0],
        root_pairs=[RootPair(1, 2, (oracle_frac(1),))],
        cartan_units=(1.0,),
        cartan_weights=k0_weights,
        annihilators=[2],
        casimirs={"hyperbolic": casimir},
        truncated_modes=truncated,
    )


def oracle_su11_single(k=Fraction(1, 4), cutoff=40):
    """Squeezing representation on a single mode: K+ = (a^dag)^2 / 2.

    k = 1/4 works on the even chain (reference |0>), k = 3/4 on the odd
    chain (reference |1>); the operators themselves live on the full basis.
    """
    k = oracle_frac(k)
    if k not in (Fraction(1, 4), Fraction(3, 4)):
        raise ValueError("k must be 1/4 or 3/4 for the single-mode representation")
    basis = FockBasis([boson(int(cutoff))])
    a, adag = ladder_ops(basis, 0)
    n = np.arange(basis.dim)
    four_k0 = 2 * n + 1
    k0 = diagonal_op(four_k0 / 4)
    kp = SparseOperator(adag.mat @ adag.mat * 0.5)
    return oracle_su11_chain(
        k0, (four_k0[:, None], 4), kp, "su11_single", {"k": k, "cutoff": int(cutoff)}, basis, (0,)
    )


def oracle_su11_intensity(cutoff=40):
    """Intensity-dependent representation: K+ |n> = (n+1) |n+1>, k = 1/2."""
    basis = FockBasis([boson(int(cutoff))])
    n = np.arange(basis.dim)
    vals = (n[:-1] + 1).astype(complex)
    kp = SparseOperator(
        sparse.csr_matrix((vals, (n[1:], n[:-1])), shape=(basis.dim, basis.dim))
    )
    two_k0 = 2 * n + 1
    k0 = diagonal_op(two_k0 / 2)
    return oracle_su11_chain(
        k0, (two_k0[:, None], 2), kp, "su11_intensity", {"k": Fraction(1, 2), "cutoff": int(cutoff)}, basis, (0,)
    )


def oracle_su11_twomode(cutoff=20):
    """Two-mode squeezing representation: K+ = a^dag b^dag."""
    basis = FockBasis([boson(int(cutoff))] * 2)
    a, adag = ladder_ops(basis, 0)
    b, bdag = ladder_ops(basis, 1)
    kp = SparseOperator(adag.mat @ bdag.mat)
    na = basis.occupations_of_mode(0)
    nb = basis.occupations_of_mode(1)
    two_k0 = na + nb + 1
    k0 = diagonal_op(two_k0 / 2)
    model = oracle_su11_chain(
        k0, (two_k0[:, None], 2), kp, "su11_twomode", {"cutoff": int(cutoff)}, basis, (0, 1)
    )
    imbalance = diagonal_op((na - nb).astype(float))
    model.casimirs["imbalance"] = imbalance
    return model


def oracle_sp2n_boson(modes=2, cutoff=6):
    """Quadratic bosonic algebra: hoppings, pair creators/annihilators, and
    half-shifted number operators, N(2N+1) generators in total."""
    m = int(modes)
    basis = FockBasis([boson(int(cutoff))] * m)
    low = [ladder_ops(basis, i)[0] for i in range(m)]
    raise_ = [op.dagger() for op in low]
    two_d = 2 * basis.occ + 1
    gens = [diagonal_op(col / 2) for col in two_d.T]
    labels = [f"D{i}" for i in range(m)]
    root_pairs = []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            gens.append(SparseOperator(raise_[i].mat @ low[j].mat))
            labels.append(f"h{i}{j}")
    for i in range(m):
        for j in range(i, m):
            gens.append(SparseOperator(raise_[i].mat @ raise_[j].mat))
            labels.append(f"p{i}{j}+")
    for i in range(m):
        for j in range(i, m):
            gens.append(SparseOperator(low[i].mat @ low[j].mat))
            labels.append(f"p{i}{j}-")

    for i in range(m):
        for j in range(i + 1, m):
            root_pairs.append(
                RootPair(labels.index(f"h{i}{j}"), labels.index(f"h{j}{i}"), oracle_root_of(m, [i], [j]))
            )
    for i in range(m):
        for j in range(i, m):
            root_pairs.append(
                RootPair(labels.index(f"p{i}{j}+"), labels.index(f"p{i}{j}-"), oracle_root_of(m, [i, j], []))
            )
    annihilators = [labels.index(l) for l in labels if l.startswith("h")]
    annihilators += [labels.index(l) for l in labels if l.endswith("-") and l.startswith("p")]
    return AlgebraModel(
        name="sp2n_boson",
        params={"modes": m, "cutoff": int(cutoff)},
        basis=basis,
        labels=labels,
        generators=gens,
        cartan=list(range(m)),
        root_pairs=root_pairs,
        cartan_units=(1.0,) * m,
        cartan_weights=(two_d, 2),
        annihilators=annihilators,
        casimirs={},
        truncated_modes=tuple(range(m)),
    )


def oracle_so2n_fermion(modes=2):
    """Quadratic fermionic algebra on 2^N states: hoppings, pairings, and
    half-shifted number operators, N(2N-1) generators; all grades even."""
    m = int(modes)
    basis = FockBasis([fermion()] * m)
    low = [ladder_ops(basis, i)[0] for i in range(m)]
    raise_ = [op.dagger() for op in low]
    two_d = 2 * basis.occ - 1
    gens = [diagonal_op(col / 2) for col in two_d.T]
    labels = [f"D{i}" for i in range(m)]
    for i in range(m):
        for j in range(m):
            if i != j:
                gens.append(SparseOperator(raise_[i].mat @ low[j].mat))
                labels.append(f"h{i}{j}")
    pair_raisers = {}
    for i in range(m):
        for j in range(i + 1, m):
            op = SparseOperator(raise_[i].mat @ raise_[j].mat)
            pair_raisers[(i, j)] = op
            gens.append(op)
            labels.append(f"p{i}{j}+")
    for i in range(m):
        for j in range(i + 1, m):
            gens.append(pair_raisers[(i, j)].dagger())  # = c_j c_i, sign included
            labels.append(f"p{i}{j}-")

    root_pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            root_pairs.append(
                RootPair(labels.index(f"h{i}{j}"), labels.index(f"h{j}{i}"), oracle_root_of(m, [i], [j]))
            )
            root_pairs.append(
                RootPair(labels.index(f"p{i}{j}+"), labels.index(f"p{i}{j}-"), oracle_root_of(m, [i, j], []))
            )
    annihilators = [labels.index(l) for l in labels if l.startswith("h")]
    annihilators += [labels.index(l) for l in labels if l.endswith("-") and l.startswith("p")]
    return AlgebraModel(
        name="so2n_fermion",
        params={"modes": m},
        basis=basis,
        labels=labels,
        generators=gens,
        cartan=list(range(m)),
        root_pairs=root_pairs,
        cartan_units=(1.0,) * m,
        cartan_weights=(two_d, 2),
        annihilators=annihilators,
        casimirs={},
    )


def oracle_jc_super(cutoff=10):
    """Excitation-conserving boson-fermion superalgebra: two even number
    operators and an odd raising/lowering pair."""
    basis = FockBasis([boson(int(cutoff)), fermion()])
    a, adag = ladder_ops(basis, 0)
    c, cdag = ladder_ops(basis, 1)
    nb = number_op(basis, 0)
    nf = number_op(basis, 1)
    r = SparseOperator(adag.mat @ c.mat, grade=ODD)
    rd = r.dagger()
    ntot = diagonal_op((basis.occupations_of_mode(0) + basis.occupations_of_mode(1)).astype(float))
    return AlgebraModel(
        name="jc_super",
        params={"cutoff": int(cutoff)},
        basis=basis,
        labels=["n_b", "n_f", "bf+", "bf-"],
        generators=[nb, nf, r, rd],
        cartan=[0, 1],
        root_pairs=[RootPair(2, 3, (oracle_frac(1), oracle_frac(-1)))],
        cartan_units=(1.0, 1.0),
        cartan_weights=(basis.occ, 1),
        annihilators=[2],
        casimirs={"excitations": ntot},
        truncated_modes=(0,),
    )


oracle_catalog = {
    "e2": oracle_e2,
    "hw": oracle_hw,
    "su2_spin": oracle_su2_spin,
    "su2_schwinger": oracle_su2_schwinger,
    "su3_schwinger": oracle_su3_schwinger,
    "so5_quoted": oracle_so5_quoted,
    "su11_single": oracle_su11_single,
    "su11_intensity": oracle_su11_intensity,
    "su11_twomode": oracle_su11_twomode,
    "sp2n_boson": oracle_sp2n_boson,
    "so2n_fermion": oracle_so2n_fermion,
    "jc_super": oracle_jc_super,
}


def assert_same_operator_bytes(got, want, what):
    assert got.grade == want.grade and got.mat.shape == want.mat.shape, what
    for attr in ("data", "indices", "indptr"):
        g, w = getattr(got.mat, attr), getattr(want.mat, attr)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (what, attr)


def assert_same_basis(got, want):
    """Two bases with the same modes and constraint and equal occupation rows."""
    assert (got.modes, got.constraint) == (want.modes, want.constraint)
    assert np.array_equal(got.occ, want.occ)


def assert_same_model(got, want):
    """Every field of two algebra models equal bit for bit: operator bytes
    (signed zeros included), grades, roots as Fractions, unit bits."""
    assert (got.name, got.params, got.labels) == (want.name, want.params, want.labels)
    assert [type(v) for v in got.params.values()] == [type(v) for v in want.params.values()]
    assert_same_basis(got.basis, want.basis)
    assert len(got.generators) == len(want.generators)
    for label, g, w in zip(got.labels, got.generators, want.generators):
        assert_same_operator_bytes(g, w, label)
    assert got.cartan == want.cartan
    assert got.root_pairs == want.root_pairs
    for rp in got.root_pairs:
        assert all(type(r) is Fraction for r in rp.root)
    assert [float(u).hex() for u in got.cartan_units] == [float(u).hex() for u in want.cartan_units]
    assert [type(u) for u in got.cartan_units] == [type(u) for u in want.cartan_units]
    (num, den), (want_num, want_den) = got.cartan_weights, want.cartan_weights
    assert num.dtype == want_num.dtype and np.array_equal(num, want_num) and den == want_den
    assert got.annihilators == want.annihilators
    assert list(got.casimirs) == list(want.casimirs)
    for label in got.casimirs:
        assert_same_operator_bytes(got.casimirs[label], want.casimirs[label], label)
    assert (got.truncated_modes, got.two_sided_modes) == (want.truncated_modes, want.two_sided_modes)


ORACLE_CATALOG_CASES = CATALOG_CASES + [
    ("e2", {"L": 5}),
    ("hw", {"cutoff": 2}),
    ("su2_spin", {"S": Fraction(1, 2)}),
    ("su2_schwinger", {"N": 1}),
    ("su3_schwinger", {"N": 1}),
    ("su3_schwinger", {"N": 45}),
    ("so5_quoted", {"N": 1}),
    ("su11_single", {"cutoff": 2}),
    ("su11_single", {"k": Fraction(3, 4), "cutoff": 2}),
    ("su11_intensity", {"cutoff": 1}),
    ("su11_twomode", {"cutoff": 1}),
    ("sp2n_boson", {"modes": 1, "cutoff": 2}),
    ("sp2n_boson", {"modes": 3, "cutoff": 2}),
    ("so2n_fermion", {"modes": 1}),
    ("so2n_fermion", {"modes": 4}),
    ("jc_super", {"cutoff": 1}),
]


@pytest.mark.parametrize("name,params", ORACLE_CATALOG_CASES)
def test_catalog_matches_hand_stated_builders(name, params):
    assert_same_model(build_algebra(name, **params), oracle_catalog[name](**params))


# ---------------------------------------------------------------------------
# reference states through the dense null space
# ---------------------------------------------------------------------------


def oracle_reference_states(model: AlgebraModel) -> list:
    """Orthonormal basis of the joint kernel of the model's annihilator set.

    Kernel vectors with more than 1e-8 of their weight on the truncation
    boundary are artifacts of the cutoff and are discarded; an empty list
    is a legitimate result (the translationally invariant chain has no
    reference state).
    """
    if not model.annihilators:
        return []
    stacked = np.vstack([model.generators[i].toarray() for i in model.annihilators])
    null = scipy.linalg.null_space(stacked, rcond=1e-10)
    if null.size == 0:
        return []
    outside = ~model.interior()
    kept = [v for v in null.T if np.sum(np.abs(v[outside]) ** 2) < 1e-8]
    if not kept:
        return []
    q, _ = np.linalg.qr(np.stack(kept, axis=1))
    return [q[:, k] for k in range(q.shape[1])]


@pytest.mark.parametrize("name,params", CATALOG_CASES)
def test_reference_states_span_the_dense_kernel(name, params):
    """Equal counts, unit vectors in ascending basis order, and each span
    inside the other: ||B - A A^H B|| <= 1e-12 both ways, with no arccos."""
    model = build_algebra(name, **params)
    got, want = find_reference_states(model), oracle_reference_states(model)
    assert len(got) == len(want)
    if not got:
        return
    A, B = np.stack(got, axis=1), np.stack(want, axis=1)
    states = np.argmax(np.abs(A), axis=0)
    assert np.array_equal(A, np.eye(model.basis.dim, dtype=complex)[:, states])
    assert np.all(np.diff(states) > 0)
    assert np.linalg.norm(B - A @ (A.conj().T @ B)) <= 1e-12
    assert np.linalg.norm(A - B @ (B.conj().T @ A)) <= 1e-12


def test_an_annihilator_sending_two_states_onto_one_is_refused():
    # on su3 N = 2, I+ takes |0,1,1> and V+ takes |0,0,2> onto |1,0,1>
    model = build_algebra("su3_schwinger", N=2)
    summed = SparseOperator(model.generator("I+").mat + model.generator("V+").mat)
    target = model.basis.index_of((1, 0, 1))
    sources = [model.basis.index_of(s) for s in ((0, 1, 1), (0, 0, 2))]
    assert summed.mat[target].indices.tolist() == sorted(sources)
    bad = replace(model, labels=model.labels + ["I+ + V+"], generators=model.generators + [summed],
                  annihilators=[len(model.generators)])
    with pytest.raises(ValueError, match="sends two basis states onto one"):
        find_reference_states(bad)


@pytest.mark.parametrize("name,lowest", [
    ("su11_single", (0,)),
    ("su11_twomode", (0, 0)),
    ("jc_super", (0, 0)),
])
def test_the_default_reference_is_the_lowest_kernel_state(name, lowest):
    """Where the kernel holds several states, `displaced_state` displaces the
    first in basis order (the dense path took the first vector LAPACK gave)."""
    model = build_algebra(name)
    refs = find_reference_states(model)
    assert len(refs) > 1
    assert np.array_equal(refs[0], model.basis.vector(lowest))
    root = model.labels[model.root_pairs[0].raising]
    assert np.array_equal(
        displaced_state(model, {"root": root, "beta": 0.3}),
        displace(model, root, 0.3, model.basis.vector(lowest)),
    )


def traced_peak(call):
    """call()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_reference_states_at_su3_n90_stay_small():
    # the dense stack of the three annihilators alone was 3 * 4186^2 * 16 B, about 841 MB
    model = build_algebra("su3_schwinger", N=90)
    assert model.basis.dim == 4186
    refs, peak = traced_peak(lambda: find_reference_states(model))
    assert len(refs) == 1 and refs[0][model.basis.index_of((90, 0, 0))] == 1
    assert peak < 16 * 2**20
    psi, peak = traced_peak(lambda: displaced_state(model, {"root": "I+", "beta": 0.3}))
    assert abs(np.linalg.norm(psi) - 1) < 1e-12
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# the real reader through exact_number
# ---------------------------------------------------------------------------


def oracle_real_number(value, field) -> float:
    """real_number that read every value through exact_number, a float through
    a Fraction of its repr."""
    number = exact_number(value, field)
    return float(value) if isinstance(value, float) else float(number)


EXTREME_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, sys.float_info.max,
                  -sys.float_info.max, 0.1, 1 / 3, float("nan"), float("inf"), float("-inf")]
outside_reals = st.one_of(
    st.sampled_from(EXTREME_FLOATS),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from(EXTREME_FLOATS).map(np.float64),
    st.booleans(),
    st.integers(-2**1030, 2**1030),
    st.fractions(max_denominator=10**6).map(str),
    st.sampled_from(["0.5", "-0.0", "nan", "1e309", "x", ""]),
    st.none(),
)


def read_or_refusal(reader, value):
    try:
        return reader(value, "state.amplitudes")
    except ConfigError as exc:
        return (str(exc), exc.field)


@settings(max_examples=500, deadline=None)
@given(outside_reals)
def test_real_number_matches_exact_number_reader(value):
    """A finite float, np.float64 included, reads as itself without a
    Fraction; every value reads bit for bit as through exact_number, and
    NaN, infinities and bools are refused naming the field, as before."""
    got, want = read_or_refusal(real_number, value), read_or_refusal(oracle_real_number, value)
    if isinstance(want, tuple):
        assert got == want and want[1] == "state.amplitudes"
    else:
        assert type(got) is float and same_bits(np.float64(got), np.float64(want))
    if isinstance(value, bool) or (isinstance(value, float) and not math.isfinite(value)):
        assert isinstance(got, tuple)


# ---------------------------------------------------------------------------
# the config record: a payload and its read values, against the nine copied fields
# ---------------------------------------------------------------------------


@dataclass
class OracleScenarioConfig:
    """A config as given, which its hash covers, and `values`, the values
    `parse_config` read from it, which a run uses."""

    name: str
    system: dict
    initial_state: dict
    times: dict
    method: str = "dense_eig"
    store: str = "snapshots"
    observables: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    kind: str = "evolution"
    extra: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def to_dict(self) -> dict:
        out = {
            "version": CONFIG_VERSION,
            "name": self.name,
            "kind": self.kind,
            "system": self.system,
            "initial_state": self.initial_state,
            "times": self.times,
            "evolve": {"method": self.method, "store": self.store},
            "observables": self.observables,
            "outputs": self.outputs,
        }
        if self.extra:
            out["extra"] = self.extra
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"), default=_rational_str)

    def hash(self) -> str:
        return sha256_bytes(self.canonical_json().encode())


def oracle_config_dict(payload):
    """(to_dict(), hash()) of a config that parse_config accepts, through the
    ScenarioConfig that copied nine fields out of its payload, built as
    parse_config built it."""
    gallery = isinstance(payload, dict) and payload.get("kind") == "closure_gallery"
    values = _read(payload, GALLERY if gallery else CONFIG, "")
    given, ev = ({}, {}) if gallery else (payload, values.get("evolve", {}))
    config = OracleScenarioConfig(
        name=payload["name"],
        system=given.get("system", {}),
        initial_state=given.get("initial_state", {}),
        times=given.get("times", {}),
        method=ev.get("method", "dense_eig"),
        store=ev.get("store", "snapshots"),
        observables=given.get("observables", []),
        outputs=payload.get("outputs", {}),
        kind=values.get("kind", "evolution"),
        extra=payload.get("extra", {}),
    )
    config.values = values
    return config.to_dict(), config.hash()


small_reals = st.floats(0.1, 3.0)
# each built-in scenario with a few of its parameters drawn small
BUILTIN_DRAWS = {
    "su2_transport": {"S": st.sampled_from([1, 2, Fraction(7, 2), "7/2", "1/2"]), "J0": small_reals,
                      "num": st.integers(1, 5)},
    "su3_center_release": {"N": st.sampled_from([3, 6]), "phi": small_reals, "J": small_reals,
                           "t_snap": small_reals, "method": st.sampled_from(["krylov", "dense_eig"])},
    "so5_quench": {"N": st.sampled_from([4, 8]), "phi": small_reals, "J1": small_reals, "J2": small_reals,
                   "start": st.sampled_from(["corner", "center"]), "form": st.sampled_from(["six_bond", "roots"]),
                   "method": st.sampled_from(["krylov", "dense_eig"])},
    "ws_breathing": {"L": st.integers(3, 9), "omega": small_reals, "J": small_reals, "num": st.integers(1, 5)},
    "ws_bloch": {"L": st.integers(3, 9), "k0": small_reals, "width": small_reals, "num": st.integers(1, 5)},
    "squeeze_vac": {"cutoff": st.integers(2, 8), "omega": small_reals, "xi": small_reals, "num": st.integers(1, 5)},
    "jc_sectors": {"cutoff": st.integers(1, 4), "g": small_reals, "num": st.integers(1, 5)},
    "closure_gallery": {},
}
builtin_payloads = st.one_of(*(
    st.fixed_dictionaries({}, optional=draws).map(functools.partial(lambda name, over: builtin_scenario(name, **over).payload, name))
    for name, draws in BUILTIN_DRAWS.items()
))
SMALL_EVOLUTION = {
    "version": 1,
    "name": "small",
    "system": {"algebra": {"name": "su2_spin", "params": {"S": "1/2"}}, "terms": [{"label": "S+", "coeff": 1.0}]},
    "initial_state": {"fock": [0]},
    "times": {"start": 0.0, "stop": 1.0, "num": 3},
}
json_leaves = st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3)
json_values = st.recursive(json_leaves, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                           max_leaves=6)
# every optional section of a config absent, empty or filled
OPTIONAL_SECTIONS = {
    "evolve": st.fixed_dictionaries({}, optional={"method": st.sampled_from(["dense_eig", "krylov"]),
                                                  "store": st.sampled_from(["snapshots", "populations"])}),
    "observables": st.lists(st.sampled_from([{"name": "Sz", "generator": "Sz"}, {"name": "n0", "number_mode": 0}]), max_size=2),
    "outputs": st.fixed_dictionaries({}, optional={"csv": st.just("small.csv"), "graph_json": st.just("small.json"),
                                                   "site_populations": st.booleans()}),
    "extra": st.dictionaries(st.text(max_size=3), json_values, max_size=2),
}
section_payloads = st.fixed_dictionaries(
    {"version": st.sampled_from([1, 1.0, "1"])},
    optional={"kind": st.just("evolution"), **OPTIONAL_SECTIONS},
).map(lambda sections: {**SMALL_EVOLUTION, **sections})
# a closure gallery keeps none of the sections of an evolution, whatever they hold
gallery_payloads = st.fixed_dictionaries(
    {"version": st.just(1), "name": st.just("closure_gallery"), "kind": st.just("closure_gallery")},
    optional={**dict.fromkeys(("system", "initial_state", "times", "evolve", "observables"), json_values),
              "outputs": OPTIONAL_SECTIONS["outputs"], "extra": OPTIONAL_SECTIONS["extra"]},
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(builtin_payloads, section_payloads, gallery_payloads))
def test_config_record_writes_and_hashes_as_the_copied_fields(payload):
    """A config kept as its payload and read values writes every default
    and hashes as the record that copied nine fields out of the payload."""
    config = parse_config(payload)
    got, want = (config.to_dict(), config.hash()), oracle_config_dict(payload)
    assert got == want


def test_run_scenario_returns_the_manifest_it_writes(tmp_path):
    config = builtin_scenario("su2_transport", S=2, num=3)
    manifest = run_scenario(config, out_dir=tmp_path / "run")
    assert (tmp_path / "run" / "su2_transport_manifest.json").read_text() == json_text(manifest)
    assert manifest["config_hash"] == config.hash() and manifest["version"] == CONFIG_VERSION
    for rec in manifest["outputs"]:
        blob = (tmp_path / "run" / rec["path"]).read_bytes()
        assert (rec["sha256"], rec["bytes"]) == (sha256_bytes(blob), len(blob))
