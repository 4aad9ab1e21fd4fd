"""Unitary time evolution, spectra, and observable series.

Two propagators: a dense eigendecomposition, computed afresh by every call
(exact up to machine precision, dimension-capped at DENSE_LIMIT), and a
short-iterate Lanczos exponential for larger problems and for
`coherent.displace`. The Lanczos propagator builds one plain Lanczos basis
per substep, of at most KRYLOV_DIM rows, or of fewer but at least 40 where
those would not fit in KRYLOV_BYTES: it stops growing once it covers what
is left of the interval, so a start whose Krylov space is small (an
su(2) multiplet of N + 1 states under a two-level hopping matrix) takes one
basis of about that size. Each substep takes the largest step whose error
estimate stays within KRYLOV_TOL on a fine geometric grid of smaller steps
(the first crossing), so an estimate that dips back below the tolerance far
out, as it does on near-commensurate spectra, is never reached. Adapting
both the basis size and the step follows Niesen & Wright (ACM TOMS 38,
2012). With H real, a substep from a real state (a Fock state at t = 0)
builds a float64 basis, as its whole recurrence is real; only the projected
exponential is complex (Park & Light, J. Chem. Phys. 85, 1986). The caller
picks the method; DENSE_LIMIT is read here alone. Both
honor the unitarity contract | ||psi(t)|| - 1 | < 1e-10; a breach raises
NumericContractError instead of silently renormalizing. Every result
carries `EvolutionStats` (bases and matrix-vector products among them),
which no output writer reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy, zaxpy

from .errors import NumericContractError, ResourceGuardError
from .operators import SparseOperator

DENSE_LIMIT = 4096
UNITARITY_TOL = 1e-10
KRYLOV_DIM = 100  # the most rows one Lanczos basis holds
KRYLOV_BYTES = 2**26  # past its 40th row, a basis grows only while its rows fit in this
KRYLOV_TOL = 1e-10
STEP_GRID_RATIO = 1.05
_COVER_CHECK = 8  # rows between two checks whether a growing basis covers the interval


@dataclass
class EvolutionStats:
    """What one evolution did. Kept out of every written output, so the
    bytes of a run do not depend on it."""
    bases: int = 0                 # Krylov bases built, one per substep
    matvecs: int = 0               # products with H, one per basis row
    steps: list = field(default_factory=list)  # accepted Krylov step sizes
    max_estimate: float = 0.0      # largest accepted local error estimate
    norm_drift: float = 0.0        # max | ||psi(t)|| - 1 | over the grid


@dataclass
class EvolutionResult:
    times: np.ndarray
    snapshots: np.ndarray          # (n_times, dim) complex, or None
    populations: np.ndarray        # (n_times, dim) real, always available
    norms: np.ndarray
    method: str
    stats: EvolutionStats = field(default_factory=EvolutionStats)


def _check_dense_size(H: SparseOperator):
    """The one dense-size guard, shared by `spectrum` and dense evolution."""
    if H.dim > DENSE_LIMIT:
        raise ResourceGuardError(f"dimension {H.dim} exceeds the dense limit {DENSE_LIMIT}; use krylov")


def spectrum(H: SparseOperator) -> np.ndarray:
    """Ascending eigenvalues (degeneracies repeated) of a Hermitian operator."""
    H.check_hermitian()
    _check_dense_size(H)
    return np.sort(scipy.linalg.eigvalsh(H.toarray()))


def evolve(
    H: SparseOperator,
    psi0: np.ndarray,
    times,
    method="dense_eig",
    store="snapshots",
) -> EvolutionResult:
    """Propagate psi0 through exp(-i H t) on a strictly increasing time grid."""
    H.check_hermitian()
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (H.dim,):
        raise ValueError(f"state shape {psi0.shape} does not match dim {H.dim}")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a non-empty 1D array")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    if method not in ("dense_eig", "krylov"):
        raise ValueError(f"unknown method {method!r}")
    if store not in ("snapshots", "populations"):
        raise ValueError(f"unknown store mode {store!r}")

    stats = EvolutionStats()
    if method == "dense_eig":
        _check_dense_size(H)
        energies, vectors = scipy.linalg.eigh(H.toarray())
        c0 = vectors.conj().T @ psi0
        coeffs = np.exp(-1j * np.outer(times, energies)) * c0  # (n_times, dim)
        snaps = coeffs @ vectors.T
    else:
        snaps = _krylov_propagate(H, psi0, times, stats)

    norms = np.linalg.norm(snaps, axis=1)
    stats.norm_drift = float(np.max(np.abs(norms - 1.0)))
    if stats.norm_drift > UNITARITY_TOL:
        raise NumericContractError(f"unitarity breach: max | ||psi|| - 1 | = {stats.norm_drift:.3e}")
    populations = np.abs(snaps) ** 2
    kept = snaps if store == "snapshots" else None
    return EvolutionResult(times, kept, populations, norms, method, stats)


def _krylov_propagate(H: SparseOperator, v, times, stats):
    """The Lanczos exponential of v at every time of the grid, in accepted
    substeps, one basis each. A substep takes the largest step its basis
    allows (`_first_crossing`), up to what is left of its interval. When H
    has no imaginary part, a substep from a real state builds a real basis,
    on a float64 copy of H's entries that shares its index arrays."""
    mat, real = H.mat, None
    if not mat.data.imag.any():  # contiguous: scipy copies a strided .real view on every matvec
        real = type(mat)((np.ascontiguousarray(mat.data.real), mat.indices, mat.indptr), shape=mat.shape)
    m = _basis_rows(H.dim)
    snaps = np.empty((times.size, H.dim), dtype=complex)
    t_prev = 0.0
    for k, t in enumerate(times):
        dt = remaining = float(t - t_prev)
        while remaining > 1e-15 * abs(dt):
            if real is not None and not v.imag.any():
                v, h = _krylov_substep(real, v.real.copy(), m, remaining, stats)
            else:
                v, h = _krylov_substep(mat, v, m, remaining, stats)
            remaining -= h
        snaps[k], t_prev = v, t
    return snaps


def _basis_rows(dim):
    """The most rows a basis of vectors of size dim holds: KRYLOV_DIM where
    they fit in KRYLOV_BYTES, else as many as fit, but never fewer than 40,
    so a large sector keeps the footprint of 40-row bases."""
    return min(KRYLOV_DIM, max(40, KRYLOV_BYTES // (16 * dim)))


def _krylov_substep(mat, v, m, remaining, stats):
    """One accepted substep from v on a basis of at most m rows built here,
    so that it is freed before the next substep builds its own. Returns
    (state, h)."""
    basis = _krylov_basis(mat, v, m, remaining)
    h, err = _first_crossing(basis, remaining)
    stats.bases += 1
    stats.matvecs += len(basis[0])
    stats.steps.append(h)
    stats.max_estimate = max(stats.max_estimate, err)
    u, _ = _krylov_step(basis, h)
    rows = basis[0]
    if rows[0].dtype == complex:
        out = rows[0] * u[0]
        for row, c in zip(rows[1:], u[1:]):
            out = zaxpy(row, out, a=c)
        return out, h
    out = np.zeros(rows[0].size, dtype=complex)  # real rows go into its real and imaginary parts in place
    for row, c in zip(rows, u):
        daxpy(row, out.view(float), a=c.real, incy=2)
        daxpy(row, out.view(float), a=c.imag, offy=1, incy=2)
    return out, h


def _krylov_basis(mat, v, m, remaining):
    """The Krylov basis of v in at most m dimensions: (V, evals, evecs, res),
    the list of rows V of the three-term Lanczos recurrence, the
    eigendecomposition of the tridiagonal projection T and the residual norm
    res, 0 on a happy breakdown. It is checked every _COVER_CHECK rows and
    stops growing at the first check where it covers the interval: its
    error estimate stays within KRYLOV_TOL on the whole step grid of
    `_first_crossing` up to `remaining`, which then takes all of it in one
    step. Otherwise it holds min(m, dim) rows unless it breaks down. The
    end-point estimate alone would stop on one of its dips (see
    `_first_crossing`); it is only checked first, as it is cheap. No
    reorthogonalization: the approximation of exp(-i mat h) v stays
    accurate as the rows lose orthogonality (Druskin, Greenbaum &
    Knizhnerman, SISC 19, 1998); a drift would fail evolve's norm check.
    Each row is its own array, the matvec output updated in place through
    BLAS and divided in place, so memory grows with the rows built, not
    with m. The rows and their BLAS routines take v's dtype."""
    m = min(m, v.shape[0])
    dot, axpy, nrm2 = scipy.linalg.get_blas_funcs(("dotc", "axpy", "nrm2"), (v,))
    V, alpha, beta = [v], [], [0.0]  # beta[k] couples V[k-1], V[k]
    for k in range(m):
        w = mat @ V[k]
        alpha.append(dot(V[k], w).real)
        w = axpy(V[k], w, a=-alpha[k])
        if k > 0:
            w = axpy(V[k - 1], w, a=-beta[k])
        res = nrm2(w)  # w is the residual direction of the error estimate
        if k + 1 == m:
            break
        if res < 1e-14:
            res = 0.0
            break
        if (k + 1) % _COVER_CHECK == 0:
            basis = _projection(V, alpha, beta, res)
            # the end point, the last point of the grid, is cheap to check first
            if _krylov_step(basis, remaining)[1] <= KRYLOV_TOL:
                if np.all(_estimates(basis, remaining)[1] <= KRYLOV_TOL):
                    return basis
        beta.append(res)
        np.divide(w.view(float), res, out=w.view(float))  # componentwise, not a complex division
        V.append(w)
    return _projection(V, alpha, beta, res)


def _projection(V, alpha, beta, res):
    """(V, evals, evecs, res) with the eigendecomposition of the tridiagonal
    matrix of the Lanczos coefficients alpha and beta[1:]."""
    T = np.diag(alpha) + np.diag(beta[1:], 1) + np.diag(beta[1:], -1)
    evals, evecs = np.linalg.eigh(T)
    return V, evals, evecs, res


def _krylov_step(basis, h):
    """Coefficients u of exp(-i mat h) v on the basis rows, and the local
    error estimate |res u[-1]| h (0 after a happy breakdown)."""
    _, evals, evecs, res = basis
    u = evecs @ (np.exp(-1j * evals * h) * evecs[0].conj())
    return u, abs(res * u[-1]) * abs(h)


def _estimates(basis, remaining):
    """The step grid of `_first_crossing` up to remaining, and the error
    estimate |res u_m(s)| s of `_krylov_step` at each of its points s."""
    _, evals, evecs, res = basis
    low = min(remaining, 1e-3 / np.max(np.abs(evals)))
    points = int(np.ceil(np.log(remaining / low) / np.log(STEP_GRID_RATIO))) + 1
    grid = np.geomspace(low, remaining, points)
    last = np.exp(-1j * np.outer(grid, evals)) @ (evecs[-1] * evecs[0].conj())
    return grid, res * np.abs(last) * grid


def _first_crossing(basis, remaining):
    """The step size of one substep and its error estimate: the largest h <=
    remaining such that the estimate |res u_m(s)| s of `_krylov_step` is at
    most KRYLOV_TOL at every point s <= h of a geometric grid of ratio at
    most STEP_GRID_RATIO, from 1e-3 / max|evals| (where it is far below the
    tolerance) up to remaining (`_estimates`).

    The estimate is meaningful only while the expansion converges (Hochbruck
    & Lubich, SINUM 34, 1997): beyond that |u_m(s)| swings and dips, and on a
    near-commensurate spectrum (a revival) it can dip below the tolerance
    far from the convergent range, where the step is wrong by O(1). The first
    crossing never leaves the convergent range. A first grid point above the
    tolerance raises."""
    if basis[3] == 0.0:
        return remaining, 0.0  # happy breakdown: the projection is exact
    grid, est = _estimates(basis, remaining)
    bad = ~(est <= KRYLOV_TOL)
    first = int(np.argmax(bad)) if bad.any() else grid.size
    if first == 0:
        raise NumericContractError("Krylov substepping failed to reach the local error target")
    return float(grid[first - 1]), float(est[first - 1])


def expectation_series(result: EvolutionResult, op: SparseOperator):
    """<psi(t)| op |psi(t)> for every stored snapshot. Returns a real array
    when op is Hermitian, complex otherwise."""
    if result.snapshots is None:
        raise ValueError("expectation series requires stored snapshots")
    if op.dim != result.snapshots.shape[1]:
        raise ValueError("operator dimension does not match snapshots")
    out = np.array([np.vdot(s, op.apply(s)) for s in result.snapshots])
    if op.is_hermitian():
        return out.real
    return out


def fidelity_series(result: EvolutionResult, psi0) -> np.ndarray:
    if result.snapshots is None:
        raise ValueError("fidelity requires stored snapshots (populations-only run)")
    psi0 = np.asarray(psi0, dtype=complex)
    overlaps = result.snapshots @ psi0.conj()
    return np.abs(overlaps) ** 2
