"""Closed-form solutions used as test oracles and exposed through the CLI.

These evaluate closed-form reference expressions only; nothing here touches the sparse
machinery, so disagreements between a formula and a numerical run surface as
test failures rather than silently propagating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import configure, lookup


# ---------------------------------------------------------------------------
# two-mode / spin precession
# ---------------------------------------------------------------------------


@dataclass
class BlochSample:
    t: np.ndarray
    omega: float
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    a: np.ndarray
    b: np.ndarray


def bloch(delta, J, S, t) -> BlochSample:
    """Expectations under H = delta*Sz + 2J*Sx from the top spin state, with
    the mode amplitudes of the equivalent two-boson realization seeded by a
    coherent state of amplitude sqrt(2S) in the first mode.

    Omega = sqrt(delta^2 + (2J)^2); all five series are exact.
    """
    S = float(Fraction(S))
    if S <= 0 or (Fraction(S) * 2).denominator != 1:
        raise ValueError("S must be a positive half-integer")
    t = np.asarray(t, dtype=float)
    om = np.hypot(delta, 2 * J)
    if om**2 == 0:
        raise ValueError("Omega^2 = delta^2 + 4 J^2 is 0 (or underflows), which the formulas divide by")
    cos, sin = np.cos(om * t), np.sin(om * t)
    sx = (2 * J * delta / om**2) * S * (1 - cos)
    sy = -(2 * J / om) * S * sin
    sz = S * (delta**2 + (2 * J) ** 2 * cos) / om**2
    half_c, half_s = np.cos(om * t / 2), np.sin(om * t / 2)
    a = np.sqrt(2 * S) * (half_c - 1j * (delta / om) * half_s)
    b = -1j * np.sqrt(2 * S) * (2 * J / om) * half_s
    return BlochSample(t, om, sx, sy, sz, a, b)


# ---------------------------------------------------------------------------
# squeezing dynamics
# ---------------------------------------------------------------------------


@dataclass
class SqueezeSample:
    t: np.ndarray
    omega_gap: complex      # sqrt(omega^2 - |xi|^2), real or imaginary
    stable: bool
    r: np.ndarray
    theta: np.ndarray
    chi: np.ndarray
    n_mean: np.ndarray
    var_n: np.ndarray


def _unwrapped_arctan_tan(x, ratio):
    """arctan(ratio * tan(x)) continued continuously across branch cuts."""
    branch = np.round(x / np.pi)
    return np.arctan(ratio * np.tan(x)) + branch * np.pi


def squeezing(omega, xi, t, theta0=None) -> SqueezeSample:
    """Squeeze parameters and boson statistics for evolution from vacuum under
    omega*n + (xi (a^dag)^2 + xi^* a^2)/2.

    The evolved state is exactly exp(i chi(t)) S(r e^{i theta})|0> in the
    convention of squeezed_vacuum_state; (r, theta) come from the closed
    Riccati solution lambda(t) = -i xi sin(Wt) / (W cos(Wt) + i omega sin(Wt))
    with W = sqrt(omega^2 - |xi|^2), through e^{i theta} tanh r = -lambda.
    Stable (omega > |xi|) solutions oscillate; otherwise the trigonometric
    functions continue analytically to hyperbolic growth. chi(t) is unwrapped
    continuously in t; theta is reported in (-pi, pi].
    """
    if omega < 0:
        raise ValueError("omega must be non-negative")
    xi = complex(xi)
    t = np.asarray(t, dtype=float)
    mod = abs(xi)
    if theta0 is not None:
        xi = mod * np.exp(1j * theta0) if mod else complex(np.exp(1j * theta0)) * 0
    gap_sq = omega**2 - mod**2
    stable = gap_sq > 0

    if mod == 0:
        zeros = np.zeros_like(t)
        return SqueezeSample(
            t, complex(np.sqrt(gap_sq)), True, zeros, zeros, zeros, zeros, zeros
        )

    if stable:
        om = np.sqrt(gap_sq)
        s, c = np.sin(om * t), np.cos(om * t)
        denom = om * c + 1j * omega * s
        lam = -1j * xi * s / denom
        sin_ratio_sq = (s / om) ** 2
        # continuous argument of denom, anchored at arg = 0 for t = 0
        phase_term = _unwrapped_arctan_tan(om * t, omega / om)
        gap = complex(om)
    elif gap_sq == 0:
        denom = 1.0 + 1j * omega * t
        lam = -1j * xi * t / denom
        sin_ratio_sq = t**2
        phase_term = np.arctan(omega * t)
        gap = 0.0 + 0.0j
    else:
        g = np.sqrt(-gap_sq)
        sh, ch = np.sinh(g * t), np.cosh(g * t)
        denom = -omega * sh + 1j * g * ch
        lam = xi * sh / denom
        sin_ratio_sq = (sh / g) ** 2
        # arg(denom) stays in (pi/2, pi); anchor at arg(i g) = pi/2
        phase_term = np.arctan2(g * ch, -omega * sh) - np.pi / 2
        gap = 1j * g

    mag = np.clip(np.abs(lam), 0.0, 1.0 - 1e-16)
    r = np.arctanh(mag)
    theta = np.angle(-lam)
    chi = omega * t / 2 - 0.5 * phase_term
    n_mean = mod**2 * sin_ratio_sq
    var_n = 2 * n_mean * (n_mean + 1)
    return SqueezeSample(t, gap, bool(stable), r, theta, chi, n_mean, var_n)


# ---------------------------------------------------------------------------
# four-mode two-Cartan model spectra and revivals
# ---------------------------------------------------------------------------


@dataclass
class So5Singles:
    closed_form: np.ndarray        # None when J1 != J2
    quoted_matrix: np.ndarray     # eigenvalues of the commonly quoted 4x4 matrix
    generator_form: np.ndarray     # eigenvalues of the root-combination form


def so5_quoted_matrix(J1, J2, phi) -> np.ndarray:
    e = J2 * np.exp(1j * phi)
    return np.array(
        [
            [0, J1, J1, e],
            [J1, 0, e, J1],
            [J1, np.conj(e), 0, J1],
            [np.conj(e), J1, J1, 0],
        ]
    )


def so5_generator_matrix(J1, J2, phi) -> np.ndarray:
    """Single-particle matrix of the root-combination Hamiltonian
    J1(Sa + Sb) + J2(e^{i phi} Sab + Sba) + h.c.: an alternating four-ring
    threaded by flux phi. Matches the closed-form spectrum at J1 = J2 and
    decouples into two two-level blocks at J2 = 0."""
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = J1
    h[2, 3] = J1
    h[0, 3] = J2 * np.exp(1j * phi)
    h[1, 2] = J2
    return h + h.conj().T


def so5_singles(J1, J2, phi) -> So5Singles:
    """The three candidate spectra side by side so disagreements stay visible.

    closed form: +-J sqrt(2 +- 2 cos(phi/2)) (J1 = J2 = J only).
    """
    closed = None
    if J1 == J2:
        J = J1
        closed = np.sort(
            [s * J * np.sqrt(2 + p * 2 * np.cos(phi / 2)) for s in (1, -1) for p in (1, -1)]
        )
    quoted = np.sort(np.linalg.eigvalsh(so5_quoted_matrix(J1, J2, phi)))
    generator = np.sort(np.linalg.eigvalsh(so5_generator_matrix(J1, J2, phi)))
    return So5Singles(closed, quoted, generator)


def so5_manybody(singles, N) -> np.ndarray:
    """Multiset { sum_i eps_i n_i : sum n_i = N } for 4 single-particle levels."""
    singles = np.asarray(singles, dtype=float)
    if singles.shape != (4,):
        raise ValueError("expected exactly four single-particle energies")
    if N < 0:
        raise ValueError("N must be non-negative")
    out = []
    for n1, n2, n3 in itertools.product(range(N + 1), repeat=3):
        n4 = N - n1 - n2 - n3
        if n4 < 0:
            continue
        out.append(n1 * singles[0] + n2 * singles[1] + n3 * singles[2] + n4 * singles[3])
    return np.sort(np.asarray(out))


def so5_revival(phi, J, max_denominator=64, tol=1e-10):
    """Revival period pi*m / (J cos(phi/4)) when cot(phi/4) is rational m/n
    (continued-fraction test up to the denominator cap); None otherwise."""
    if J <= 0:
        raise ValueError("J must be positive")
    quarter = phi / 4.0
    c = np.cos(quarter)
    s = np.sin(quarter)
    if abs(s) < 1e-15 or abs(c) < 1e-15:
        return None  # degenerate ring: one pair of levels collapses to zero
    cot = c / s
    frac = Fraction(cot).limit_denominator(max_denominator)
    if frac.numerator <= 0 or abs(float(frac) - cot) > tol:
        return None
    return float(np.pi * frac.numerator / (J * c))


# ---------------------------------------------------------------------------
# ladder-style closed forms
# ---------------------------------------------------------------------------


def wannier_stark_levels(omega, js) -> np.ndarray:
    """Tilted-chain ladder eps_j = omega * j."""
    return omega * np.asarray(js, dtype=float)


def band_energy(J, k) -> np.ndarray:
    """Untilted-chain dispersion eps(k) = 2 J cos k."""
    return 2 * J * np.cos(np.asarray(k, dtype=float))


def driven_oscillator_levels(delta, eta, ns) -> np.ndarray:
    """Displaced-oscillator ladder eps_n = delta*n - eta^2/delta."""
    if delta == 0:
        raise ValueError("delta = 0 makes the displaced-ladder formula singular")
    return delta * np.asarray(ns, dtype=float) - eta**2 / delta


def su2_chain_hopping(J0, N, j) -> np.ndarray:
    """Two-mode sector hopping J0 sqrt((j+1)(N-j)) between sites j and j+1."""
    j = np.asarray(j, dtype=float)
    inside = (j + 1) * (N - j)
    if np.any(inside < 0):
        raise ValueError("site index outside the chain")
    return J0 * np.sqrt(inside)


def spin_pcs_width(S, theta) -> np.ndarray:
    """Standard deviation sqrt(S/2) |sin theta| of the magnetic distribution
    of a spin coherent state."""
    S = float(Fraction(S))
    if S < 0:
        raise ValueError("S must be non-negative")
    return np.sqrt(S / 2.0) * np.abs(np.sin(np.asarray(theta, dtype=float)))


LADDER_KINDS = {
    "wannier_stark": wannier_stark_levels,
    "band": band_energy,
    "driven_oscillator": driven_oscillator_levels,
    "su2_hopping": su2_chain_hopping,
    "spin_pcs_width": spin_pcs_width,
}


def ladder_oracles(kind, **params):
    """Dispatcher used by the CLI (through `errors.configure`); see LADDER_KINDS."""
    return configure(lookup(LADDER_KINDS, kind, "oracle kind"), params, "oracle")
