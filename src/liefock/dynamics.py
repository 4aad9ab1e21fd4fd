"""Unitary time evolution, spectra, revival detection, and observable series.

Two propagators: a dense eigendecomposition, computed afresh by every call
(exact up to machine precision, dimension-capped at DENSE_LIMIT), and an
adaptive short-iterate Lanczos exponential for larger problems. Both honor
the unitarity contract | ||psi(t)|| - 1 | < 1e-10; a breach raises
NumericContractError instead of silently renormalizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericContractError, ResourceGuardError
from .operators import SparseOperator

DENSE_LIMIT = 4096
UNITARITY_TOL = 1e-10
KRYLOV_DIM = 30
KRYLOV_TOL = 1e-10


@dataclass
class EvolutionResult:
    times: np.ndarray
    snapshots: np.ndarray          # (n_times, dim) complex, or None
    populations: np.ndarray        # (n_times, dim) real, always available
    norms: np.ndarray
    method: str

    def snapshot(self, k) -> np.ndarray:
        if self.snapshots is None:
            raise ValueError("snapshots were not stored for this run")
        return self.snapshots[k]


@dataclass
class RevivalReport:
    revival_times: list
    fidelities: list
    threshold: float


def _check_hermitian(H: SparseOperator):
    if not H.is_hermitian():
        raise NumericContractError(
            f"operator is not Hermitian: defect {H.hermiticity_defect():.3e} "
            f"at scale {max(H.max_norm(), 1.0):.3e}"
        )


def spectrum(H: SparseOperator) -> np.ndarray:
    """Ascending eigenvalues (degeneracies repeated) of a Hermitian operator."""
    _check_hermitian(H)
    if H.dim > DENSE_LIMIT:
        raise ResourceGuardError(
            f"dimension {H.dim} exceeds the dense eigensolver limit {DENSE_LIMIT}"
        )
    return np.sort(scipy.linalg.eigvalsh(H.toarray()))


def evolve(
    H: SparseOperator,
    psi0: np.ndarray,
    times,
    method="dense_eig",
    store="snapshots",
    krylov_dim=KRYLOV_DIM,
    krylov_tol=KRYLOV_TOL,
) -> EvolutionResult:
    """Propagate psi0 through exp(-i H t) on a strictly increasing time grid."""
    _check_hermitian(H)
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

    if method == "dense_eig":
        if H.dim > DENSE_LIMIT:
            raise ResourceGuardError(
                f"dimension {H.dim} exceeds the dense limit {DENSE_LIMIT}; use krylov"
            )
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
                current = _krylov_propagate(H, current, dt, krylov_dim, krylov_tol)
            snaps[k] = current
            t_prev = t
    else:
        raise ValueError(f"unknown method {method!r}")

    norms = np.linalg.norm(snaps, axis=1)
    if np.max(np.abs(norms - 1.0)) > UNITARITY_TOL:
        raise NumericContractError(
            f"unitarity breach: max | ||psi|| - 1 | = {np.max(np.abs(norms - 1.0)):.3e}"
        )
    populations = np.abs(snaps) ** 2
    if store == "populations":
        return EvolutionResult(times, None, populations, norms, method)
    if store != "snapshots":
        raise ValueError(f"unknown store mode {store!r}")
    return EvolutionResult(times, snaps, populations, norms, method)


def _krylov_propagate(H: SparseOperator, v, dt, m, tol):
    """Adaptive Lanczos exponential: substeps until the a-posteriori residual
    estimate stays below tol per step."""
    mat = H.mat
    remaining = float(dt)
    h = remaining
    guard = 0
    while remaining > 1e-15 * abs(dt):
        h = min(h, remaining)
        w, err = _lanczos_step(mat, v, h, m)
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


def _lanczos_step(mat, v, dt, m):
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


def expectation_series(result: EvolutionResult, op: SparseOperator):
    """<psi(t)| op |psi(t)> for every stored snapshot. Returns a real array
    when op is Hermitian, complex otherwise."""
    if result.snapshots is None:
        raise ValueError("expectation series requires stored snapshots")
    if op.dim != result.snapshots.shape[1]:
        raise ValueError("operator dimension does not match snapshots")
    out = np.array([np.vdot(s, op.apply(s)) for s in result.snapshots])
    if op.hermitian:
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
