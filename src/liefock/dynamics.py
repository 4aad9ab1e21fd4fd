"""Unitary time evolution, spectra, revival detection, and observable series.

Two propagators: a dense eigendecomposition, computed afresh by every call
(exact up to machine precision, dimension-capped at DENSE_LIMIT), and a
short-iterate Lanczos exponential for larger problems and for
`coherent.displace`. The Lanczos propagator builds one plain Lanczos basis
per substep and takes the largest step whose error estimate stays within
KRYLOV_TOL on a fine geometric grid of smaller steps (the first crossing),
so an estimate that dips back below the tolerance far out, as it does on
near-commensurate spectra, is never reached. The caller picks the method;
DENSE_LIMIT is read here alone. Both honor the unitarity contract
| ||psi(t)|| - 1 | < 1e-10; a breach raises NumericContractError instead of
silently renormalizing. Every result carries `EvolutionStats`, which no
output writer reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dznrm2, zaxpy, zdotc

from .errors import NumericContractError, ResourceGuardError
from .operators import SparseOperator

DENSE_LIMIT = 4096
UNITARITY_TOL = 1e-10
KRYLOV_DIM = 40
KRYLOV_TOL = 1e-10
STEP_GRID_RATIO = 1.05


@dataclass
class EvolutionStats:
    """What one evolution did. Kept out of every written output, so the
    bytes of a run do not depend on it."""
    bases: int = 0                 # Krylov bases built, one per substep
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


@dataclass
class RevivalReport:
    revival_times: list
    fidelities: list
    threshold: float


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

    stats = EvolutionStats()
    if method == "dense_eig":
        _check_dense_size(H)
        energies, vectors = scipy.linalg.eigh(H.toarray())
        c0 = vectors.conj().T @ psi0
        coeffs = np.exp(-1j * np.outer(times, energies)) * c0  # (n_times, dim)
        snaps = coeffs @ vectors.T
    elif method == "krylov":
        snaps = np.empty((times.size, H.dim), dtype=complex)
        current = psi0
        t_prev = 0.0
        for k, t in enumerate(times):
            dt = t - t_prev
            if dt > 0:
                current = _krylov_propagate(H, current, dt, stats)
            snaps[k] = current
            t_prev = t
    else:
        raise ValueError(f"unknown method {method!r}")

    norms = np.linalg.norm(snaps, axis=1)
    stats.norm_drift = float(np.max(np.abs(norms - 1.0)))
    if stats.norm_drift > UNITARITY_TOL:
        raise NumericContractError(f"unitarity breach: max | ||psi|| - 1 | = {stats.norm_drift:.3e}")
    populations = np.abs(snaps) ** 2
    if store == "populations":
        return EvolutionResult(times, None, populations, norms, method, stats)
    if store != "snapshots":
        raise ValueError(f"unknown store mode {store!r}")
    return EvolutionResult(times, snaps, populations, norms, method, stats)


def _krylov_propagate(H: SparseOperator, v, dt, stats):
    """Lanczos exponential over dt in accepted substeps, one basis each. A
    substep takes the largest step its basis allows (`_first_crossing`), up
    to what is left of dt."""
    remaining = float(dt)
    while remaining > 1e-15 * abs(dt):
        v, h = _krylov_substep(H.mat, v, remaining, stats)
        remaining -= h
    return v


def _krylov_substep(mat, v, remaining, stats):
    """One accepted substep from v on a basis built here, so that it is
    freed before the next substep builds its own. Returns (state, h)."""
    basis = _krylov_basis(mat, v, KRYLOV_DIM)
    h, err = _first_crossing(basis, remaining)
    stats.bases += 1
    stats.steps.append(h)
    stats.max_estimate = max(stats.max_estimate, err)
    u, _ = _krylov_step(basis, h)
    return u @ basis[0], h


def _krylov_basis(mat, v, m):
    """The Krylov basis of v in at most m dimensions: (V, evals, evecs, res),
    the rows V of the three-term Lanczos recurrence, the eigendecomposition
    of the tridiagonal projection T and the residual norm res, 0 on a happy
    breakdown. No reorthogonalization: the approximation of exp(-i mat h) v
    stays accurate as the rows lose orthogonality (Druskin, Greenbaum &
    Knizhnerman, SISC 19, 1998); a drift would fail evolve's norm check.
    The recurrence updates w in place through BLAS and writes w / beta
    straight into the next row."""
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
            res = nb  # w is the residual direction of the error estimate
            break
        if nb < 1e-14:
            m, res = k + 1, 0.0
            break
        beta[k + 1] = nb
        np.divide(w.view(float), nb, out=V[k + 1].view(float))  # componentwise, not a complex division
    T = np.diag(alpha[:m]) + np.diag(beta[1:m], 1) + np.diag(beta[1:m], -1)
    evals, evecs = np.linalg.eigh(T)
    return V[:m], evals, evecs, res


def _krylov_step(basis, h):
    """Coefficients u of exp(-i mat h) v on the basis rows, and the local
    error estimate |res u[-1]| h (0 after a happy breakdown)."""
    _, evals, evecs, res = basis
    u = evecs @ (np.exp(-1j * evals * h) * evecs[0].conj())
    return u, abs(res * u[-1]) * abs(h)


def _first_crossing(basis, remaining):
    """The step size of one substep and its error estimate: the largest h <=
    remaining such that the estimate |res u_m(s)| s of `_krylov_step` is at
    most KRYLOV_TOL at every point s <= h of a geometric grid of ratio at
    most STEP_GRID_RATIO, from 1e-3 / max|evals| (where it is far below the
    tolerance) up to remaining.

    The estimate is meaningful only while the expansion converges (Hochbruck
    & Lubich, SINUM 34, 1997): beyond that |u_m(s)| swings and dips, and on a
    near-commensurate spectrum (a revival) it can dip below the tolerance
    far from the convergent range, where the step is wrong by O(1). The first
    crossing never leaves the convergent range. A first grid point above the
    tolerance raises."""
    _, evals, evecs, res = basis
    if res == 0.0:
        return remaining, 0.0  # happy breakdown: the projection is exact
    low = min(remaining, 1e-3 / np.max(np.abs(evals)))
    points = int(np.ceil(np.log(remaining / low) / np.log(STEP_GRID_RATIO))) + 1
    grid = np.geomspace(low, remaining, points)
    last = np.exp(-1j * np.outer(grid, evals)) @ (evecs[-1] * evecs[0].conj())
    est = res * np.abs(last) * grid
    bad = ~(est <= KRYLOV_TOL)
    first = int(np.argmax(bad)) if bad.any() else points
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


def detect_revivals(
    result: EvolutionResult, psi0, threshold=0.99, refractory=None
) -> RevivalReport:
    """Local maxima of the return probability above `threshold`, separated by
    at least `refractory` (default: 5% of the scanned span). t = times[0] is
    the initial condition, not a revival."""
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
