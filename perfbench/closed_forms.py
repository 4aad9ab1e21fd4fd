"""Closed-form references for the benchmark's correctness checks.

Everything here uses numpy and scipy only, never liefock, so a defect in the
package cannot hide in its own reference. Conventions follow the package's
documented ones: spin level index 0 is m = -S, Glauber alpha = (x + i p)/sqrt2,
shift-chain site l carries J_l(2|beta|) e^{i l arg beta}, and the su(1,1)
chain state is (1-|z|^2)^k sum_m sqrt(Gamma(m+2k)/(m! Gamma(2k))) z^m.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.special import gammaln, jv


def glauber_amplitudes(alpha, cutoff):
    n = np.arange(cutoff + 1)
    return np.exp(-abs(alpha) ** 2 / 2 - 0.5 * gammaln(n + 1)) * complex(alpha) ** n


def shift_chain_amplitudes(beta, L):
    ls = np.arange(L) - (L - 1) // 2
    return jv(ls, 2 * abs(beta)) * np.exp(1j * ls * np.angle(beta))


def su11_chain_amplitudes(k, zeta, chain_len):
    k = float(k)
    m = np.arange(chain_len)
    mag = np.exp(0.5 * (gammaln(m + 2 * k) - gammaln(m + 1) - gammaln(2 * k)))
    return (1 - abs(zeta) ** 2) ** k * mag * complex(zeta) ** m


def sphere_husimi(S, theta0, phi0, theta, phi):
    """(2S+1)/(4 pi) ((1 + n.n0)/2)^(2S) for the spin coherent state at n0."""
    cos_angle = np.cos(theta) * np.cos(theta0) + np.sin(theta) * np.sin(theta0) * np.cos(phi - phi0)
    return (2 * S + 1) / (4 * np.pi) * ((1 + cos_angle) / 2) ** (2 * S)


def plane_husimi(alpha0, x, p):
    """exp(-|alpha - alpha0|^2)/pi with alpha = (x + i p)/sqrt2."""
    alpha = (np.asarray(x) + 1j * np.asarray(p)) / np.sqrt(2.0)
    return np.exp(-np.abs(alpha - alpha0) ** 2) / np.pi


def cylinder_husimi(beta0, radius, arc):
    """J_0(2|beta - beta0|)^2/pi (Graf's addition theorem) at beta = r e^{i arc}."""
    beta = np.asarray(radius) * np.exp(1j * np.asarray(arc))
    return jv(0, 2 * np.abs(beta - beta0)) ** 2 / np.pi


def disk_husimi(k, zeta0, zeta):
    """(2k-1)/pi [(1-|z|^2)(1-|z0|^2)/|1 - conj(z) z0|^2]^(2k)."""
    zeta = np.asarray(zeta)
    ratio = (1 - np.abs(zeta) ** 2) * (1 - abs(zeta0) ** 2) / np.abs(1 - np.conj(zeta) * zeta0) ** 2
    return (2 * k - 1) / np.pi * ratio ** (2 * k)


def so5_single_particle(J1, J2, phi):
    """The 4x4 hopping matrix of the six-bond so5_quench Hamiltonian: bond
    (i, j) with coefficient c e^{i phi} contributes c e^{i phi} a_i^+ a_j + h.c."""
    h = np.zeros((4, 4), dtype=complex)
    bonds = [(0, 1, J1), (2, 3, J1), (0, 2, J2 * np.exp(1j * phi)), (0, 3, J2), (1, 2, J2), (1, 3, J2)]
    for i, j, c in bonds:
        h[i, j] += c
        h[j, i] += np.conj(c)
    return h


def so5_site_populations(N, J1, J2, phi, t):
    """Weight-site populations after N bosons start in mode 0.

    Free bosons: the Fock population of n is the multinomial
    N!/prod n_j! prod |U_j0|^(2 n_j) with U = exp(-i h t). Sites are the
    weight pairs ((n0-n1)/2, (n2-n3)/2); returns {site: population}.
    """
    U = scipy.linalg.expm(-1j * t * so5_single_particle(J1, J2, phi))
    p = np.abs(U[:, 0]) ** 2
    n0, n1, n2 = np.meshgrid(*(np.arange(N + 1),) * 3, indexing="ij")
    n3 = N - n0 - n1 - n2
    keep = n3 >= 0
    occ = np.stack([n0[keep], n1[keep], n2[keep], n3[keep]])
    log_mult = gammaln(N + 1) - gammaln(occ + 1).sum(axis=0)
    pops = np.exp(log_mult) * np.prod(p[:, None] ** occ, axis=0)
    doubled, site_of_state = np.unique(
        np.stack([occ[0] - occ[1], occ[2] - occ[3]], axis=1), axis=0, return_inverse=True
    )
    totals = np.bincount(site_of_state.ravel(), weights=pops)
    return {
        (Fraction(int(a), 2), Fraction(int(b), 2)): pop for (a, b), pop in zip(doubled, totals)
    }
