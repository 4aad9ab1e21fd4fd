"""Displacement operators, closed-form coherent states, Husimi grids, and
uncertainty checks.

Displacements are computed as exact matrix exponentials of the anti-Hermitian
combination beta*E_raise - conj(beta)*E_lower via a Hermitian
eigendecomposition, with a leakage monitor for truncated bases. Closed-form
expansions use log-space binomials so they stay stable at large spin / large
cutoff.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.special import gammaln, jv

from .errors import TruncationLeakageWarning
from .fock import FockBasis, boson
from .operators import SparseOperator

LEAK_TOL = 1e-8


@dataclass(frozen=True)
class CoherentParams:
    """Tagged parameter bundle for closed-form coherent states.

    kind: one of 'displaced', 'spin', 'squeezed', 'su3', 'euclidean',
    'glauber'; `fields` carries the kind-specific entries.
    """

    kind: str
    fields: dict


# ---------------------------------------------------------------------------
# displacement
# ---------------------------------------------------------------------------


def displacement_unitary(raising: SparseOperator, lowering: SparseOperator, beta) -> np.ndarray:
    """Dense unitary exp(beta * raising - conj(beta) * lowering)."""
    beta = complex(beta)
    gen = beta * raising.mat - np.conj(beta) * lowering.mat
    herm = 1j * gen.toarray()
    defect = np.max(np.abs(herm - herm.conj().T)) if herm.size else 0.0
    if defect > 1e-12 * max(1.0, np.max(np.abs(herm))):
        raise ValueError("raising/lowering pair is not mutually adjoint")
    evals, evecs = scipy.linalg.eigh(herm)
    return (evecs * np.exp(-1j * evals)) @ evecs.conj().T


def displace(model, root_label, beta, state, leak_tol=LEAK_TOL, window=2) -> np.ndarray:
    """Apply the displacement of one root pair to a normalized state.

    `root_label` is the label of either member of the pair. Emits a
    TruncationLeakageWarning when the result puts more than `leak_tol`
    population within `window` states of a truncated basis boundary.
    """
    state = np.asarray(state, dtype=complex)
    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise ValueError("state must be normalized")
    pair = None
    for rp in model.root_pairs:
        if model.labels[rp.raising] == root_label or model.labels[rp.lowering] == root_label:
            pair = rp
            break
    if pair is None:
        raise ValueError(f"no root pair with label {root_label!r} in {model.name}")
    U = displacement_unitary(model.generators[pair.raising], model.generators[pair.lowering], beta)
    out = U @ state
    boundary = ~model.interior(window)
    leak = float(np.sum(np.abs(out[boundary]) ** 2)) if boundary.any() else 0.0
    if leak > leak_tol:
        warnings.warn(
            f"displacement leaked {leak:.3e} population into the outermost "
            f"{window} truncated levels",
            TruncationLeakageWarning,
        )
    return out


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def glauber_state(alpha, cutoff) -> np.ndarray:
    """exp(-|a|^2/2) a^n / sqrt(n!) on a cutoff basis."""
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


def spin_coherent_state(S, theta, phi) -> np.ndarray:
    """Binomial expansion over levels m = -S..S (index 0 is m = -S)."""
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
    ct, st = np.cos(theta / 2.0), np.sin(theta / 2.0)
    log_binom = gammaln(two_s + 1) - gammaln(S + m + 1) - gammaln(S - m + 1)
    amp = np.exp(0.5 * log_binom + (S + m) * np.log(ct) + (S - m) * np.log(st))
    out = amp * np.exp(-1j * (S - m) * phi)
    return out / np.linalg.norm(out)


def squeezed_vacuum_state(xi, cutoff, k=Fraction(1, 4)) -> np.ndarray:
    """Squeezed chain state on a single cutoff mode.

    k = 1/4: the even-chain closed form
    (1/sqrt(cosh r)) sum sqrt((2n)!)/(2^n n!) (-e^{i theta} tanh r)^n |2n>.
    k = 3/4 has no standard closed form; the squeeze unitary is applied
    numerically to |1>.
    """
    k = Fraction(k)
    xi = complex(xi)
    r, th = abs(xi), np.angle(xi)
    if k == Fraction(1, 4):
        out = np.zeros(cutoff + 1, dtype=complex)
        n_even = np.arange(0, cutoff + 1, 2)
        half = n_even // 2
        log_mag = 0.5 * gammaln(n_even + 1) - half * np.log(2.0) - gammaln(half + 1)
        amp = np.exp(log_mag) * (-np.exp(1j * th) * np.tanh(r)) ** half
        out[n_even] = amp / np.sqrt(np.cosh(r))
        return out
    if k == Fraction(3, 4):
        from .algebra import build_algebra

        model = build_algebra("su11_single", k=k, cutoff=cutoff)
        one = np.zeros(cutoff + 1, dtype=complex)
        one[1] = 1.0
        out = displace(model, "K+", squeeze_to_displacement(xi), one)
        out[0::2] = 0.0  # parity is exact; remove eigensolver dust
        return out / np.linalg.norm(out)
    raise ValueError("k must be 1/4 or 3/4")


def displacement_to_squeeze(beta) -> complex:
    """Squeeze parameter xi of the state exp(beta K+ - beta* K-)|0> with
    K+ = (a^dag)^2/2, in the convention of squeezed_vacuum_state."""
    return -complex(beta)


def squeeze_to_displacement(xi) -> complex:
    return -complex(xi)


def euclidean_coherent_state(beta, L, start=None) -> np.ndarray:
    """Shift-displaced site state on an L-site chain: amplitude on site
    start + l is J_l(2|beta|) e^{i l arg(beta)}."""
    beta = complex(beta)
    if start is None:
        start = (L - 1) // 2
    ls = np.arange(L) - start
    out = jv(ls, 2 * abs(beta)) * np.exp(1j * ls * np.angle(beta))
    return out.astype(complex)


def su3_coherent_state(N, zeta, basis: FockBasis = None) -> np.ndarray:
    """(zeta . adag)^N / sqrt(N!) |000> as multinomial amplitudes over the
    fixed-N three-mode sector. `zeta` is normalized if it is not already."""
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.shape != (3,):
        raise ValueError("zeta must have three components")
    norm = np.linalg.norm(zeta)
    if norm == 0:
        raise ValueError("zeta must be nonzero")
    zeta = zeta / norm
    if basis is None:
        basis = FockBasis([boson(N)] * 3, constraint=N)
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


def su3_angles_to_zeta(theta1, theta2, phi1, phi2):
    return np.array(
        [
            np.cos(theta1),
            np.exp(1j * phi1) * np.sin(theta1) * np.cos(theta2),
            np.exp(1j * phi2) * np.sin(theta1) * np.sin(theta2),
        ]
    )


def su11_pcs(k, zeta, chain_len) -> np.ndarray:
    """Chain-space PCS (1-|z|^2)^k sum_m sqrt(Gamma(m+2k)/(m! Gamma(2k))) z^m,
    over ladder index m = 0..chain_len-1."""
    k = float(k)
    z = complex(zeta)
    if abs(z) >= 1:
        raise ValueError("disk coordinate must satisfy |zeta| < 1")
    m = np.arange(chain_len)
    log_mag = 0.5 * (gammaln(m + 2 * k) - gammaln(m + 1) - gammaln(2 * k))
    amp = np.exp(log_mag) * z**m
    return (1 - abs(z) ** 2) ** k * amp


def closed_form_state(params: CoherentParams, basis: FockBasis = None) -> np.ndarray:
    """Dispatch on params.kind; see the individual constructors."""
    f = params.fields
    if params.kind == "spin":
        return spin_coherent_state(f["S"], f["theta"], f["phi"])
    if params.kind == "squeezed":
        return squeezed_vacuum_state(f["xi"], f["cutoff"], f.get("k", Fraction(1, 4)))
    if params.kind == "su3":
        if "zeta" in f:
            zeta = f["zeta"]
        else:
            zeta = su3_angles_to_zeta(f["theta1"], f["theta2"], f["phi1"], f["phi2"])
        return su3_coherent_state(f["N"], zeta, basis)
    if params.kind == "euclidean":
        return euclidean_coherent_state(f["beta"], f["L"], f.get("start"))
    if params.kind == "glauber":
        return glauber_state(f["alpha"], f["cutoff"])
    if params.kind == "displaced":
        from .algebra import build_algebra

        model = build_algebra(f["algebra"], **f.get("params", {}))
        refs = f.get("reference")
        if refs is None:
            from .algebra import find_reference_states

            candidates = find_reference_states(model)
            if not candidates:
                raise ValueError(f"{model.name} has no reference state to displace")
            refs = candidates[0]
        return displace(model, f["root"], f["beta"], refs)
    raise ValueError(f"unknown coherent kind {params.kind!r}")


# ---------------------------------------------------------------------------
# Husimi grids
# ---------------------------------------------------------------------------


@dataclass
class HusimiGrid:
    parametrization: str
    axes: tuple          # coordinate arrays, meaning depends on parametrization
    weights: np.ndarray  # quadrature weights including the invariant measure
    values: np.ndarray   # w * <coherent| rho |coherent>, clipped at -1e-12
    normalization: float  # the constant w

    def integral(self) -> float:
        return float(np.sum(self.weights * self.values))


def _overlap_sq(states, psi_or_rho):
    """states: (n_nodes, dim); returns <c|rho|c> for each node."""
    arr = np.asarray(psi_or_rho)
    if arr.ndim == 1:
        amps = states.conj() @ arr
        return np.abs(amps) ** 2
    if arr.ndim == 2:
        return np.real(np.einsum("ni,ij,nj->n", states.conj(), arr, states))
    raise ValueError("expected a state vector or a density matrix")


def _clip(values):
    values = np.real(values)
    if np.min(values, initial=0.0) < -1e-12:
        raise ValueError("Husimi values fell below the -1e-12 clip floor")
    return np.maximum(values, 0.0)


def husimi_plane(psi_or_rho, cutoff, x, p) -> HusimiGrid:
    """Glauber-basis Husimi on an (x, p) grid: w = 1/pi, alpha = (x+ip)/sqrt2.

    Weights carry the d^2 alpha measure (= dx dp / 2), so integral() -> 1
    for normalized states."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    values = np.empty((x.size, p.size))
    for ix, xv in enumerate(x):
        alphas = (xv + 1j * p) / np.sqrt(2.0)
        states = np.stack([glauber_state(a, cutoff) for a in alphas])
        values[ix] = _overlap_sq(states, psi_or_rho) / np.pi
    dx = x[1] - x[0] if x.size > 1 else 1.0
    dp = p[1] - p[0] if p.size > 1 else 1.0
    weights = np.full(values.shape, dx * dp / 2.0)
    return HusimiGrid("plane", (x, p), weights, _clip(values), 1.0 / np.pi)


def husimi_sphere(psi_or_rho, S, n_theta=200, n_phi=200) -> HusimiGrid:
    """Spin Husimi with w = (2S+1)/(4 pi); Gauss-Legendre nodes in cos(theta)
    and a uniform periodic grid in phi, so the normalization integral is
    exact for polynomial overlaps."""
    two_s = int(Fraction(S) * 2)
    norm = (two_s + 1) / (4 * np.pi)
    nodes, gl_w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(nodes)
    phi = np.linspace(0, 2 * np.pi, n_phi, endpoint=False)
    dphi = 2 * np.pi / n_phi
    values = np.empty((n_theta, n_phi))
    for it, th in enumerate(theta):
        states = np.stack([spin_coherent_state(Fraction(two_s, 2), th, ph) for ph in phi])
        values[it] = _overlap_sq(states, psi_or_rho) * norm
    weights = np.outer(gl_w, np.full(n_phi, dphi))
    return HusimiGrid("sphere", (theta, phi), weights, _clip(values), norm)


def husimi_cylinder(psi_or_rho, L, n_arc=201, n_rad=201, rad_max=None) -> HusimiGrid:
    """Shift-algebra Husimi over beta = r e^{i arc}: the arc coordinate winds
    around the cylinder, |beta| runs along it; w = 1/pi with measure r dr darc."""
    if rad_max is None:
        rad_max = L / 4.0
    arc = np.linspace(-np.pi, np.pi, n_arc, endpoint=False)
    rad = np.linspace(0, rad_max, n_rad)
    values = np.empty((n_rad, n_arc))
    for ir, r in enumerate(rad):
        states = np.stack([euclidean_coherent_state(r * np.exp(1j * u), L) for u in arc])
        values[ir] = _overlap_sq(states, psi_or_rho) / np.pi
    dr = rad[1] - rad[0] if n_rad > 1 else 1.0
    darc = 2 * np.pi / n_arc
    weights = np.outer(rad * dr, np.full(n_arc, darc))
    return HusimiGrid("cylinder", (arc, rad), weights, _clip(values), 1.0 / np.pi)


def husimi_disk(psi_or_rho_chain, k, n_rad=160, n_arg=160, chain_len=None) -> HusimiGrid:
    """Hyperbolic-disk Husimi over zeta = tanh(r) e^{i theta}, |zeta| < 1.

    Works in chain space (ladder index m), so callers project Fock-space
    states onto the relevant parity chain first. Weight w = (2k-1)/pi with
    the invariant measure (1-|zeta|^2)^{-2} d^2 zeta folded into the
    quadrature weights. The normalization integral converges for k > 1/2
    only. For k <= 1/2, where (2k-1)/pi would be zero or negative, the grid
    uses w = 1/pi instead (reported in `normalization`): its values are
    non-negative and usable for plotting, but its integral is not 1.
    """
    arr = np.asarray(psi_or_rho_chain)
    if chain_len is None:
        chain_len = arr.shape[0]
    k = float(k)
    # radial substitution s = |zeta|^2 = 1 - (1-u)^2 regularizes the
    # (1-s)^(2k-2) endpoint behavior for 1/2 < k < 1
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
            [su11_pcs(k, zm * np.exp(1j * th), chain_len) for th in theta]
        )
        values[ir] = _overlap_sq(states, psi_or_rho_chain) * w_const
    # d^2 zeta = (1/2) ds dtheta ; invariant measure divides by (1-s)^2
    radial = 0.5 * ds / (1 - s) ** 2
    weights = np.outer(radial, np.full(n_arg, dth))
    return HusimiGrid("disk", (theta, zmag), weights, _clip(values), w_const)


PHASE_SPACES = {
    "hw": "plane",
    "su2_spin": "sphere",
    "su2_schwinger": "sphere",
    "e2": "cylinder",
    "su11_single": "disk",
    "su11_intensity": "disk",
    "su11_twomode": "disk",
}


def husimi(state_or_rho, space, model, nodes=(101, 101), **kwargs) -> HusimiGrid:
    """Dispatch a Husimi evaluation for a catalog model, rejecting grids whose
    parametrization does not match the model's phase space."""
    expected = PHASE_SPACES.get(model.name)
    if expected is None:
        raise ValueError(f"no phase-space chart registered for {model.name!r}")
    if space != expected:
        raise ValueError(
            f"parametrization mismatch: {model.name} lives on the {expected}, not the {space}"
        )
    n1, n2 = nodes
    if space == "plane":
        half = float(kwargs.get("half_width", 6.0))
        xs = np.linspace(-half, half, n1)
        ps = np.linspace(-half, half, n2)
        return husimi_plane(state_or_rho, model.basis.modes[0].capacity, xs, ps)
    if space == "sphere":
        if model.name == "su2_spin":
            S = model.params["S"]
        else:
            S = Fraction(model.params["N"], 2)
        return husimi_sphere(state_or_rho, S, n_theta=n1, n_phi=n2)
    if space == "cylinder":
        return husimi_cylinder(state_or_rho, model.basis.dim, n_arc=n1, n_rad=n2,
                               rad_max=kwargs.get("rad_max"))
    k = model.params.get("k", Fraction(1, 2))
    return husimi_disk(state_or_rho, k, n_rad=n1, n_arg=n2,
                       chain_len=np.asarray(state_or_rho).shape[0])


# ---------------------------------------------------------------------------
# uncertainty and helpers
# ---------------------------------------------------------------------------


def uncertainty(state, A: SparseOperator, B: SparseOperator):
    """Both sides of the Robertson inequality: (dA*dB, |<[A,B]>|/2)."""
    state = np.asarray(state, dtype=complex)
    for op in (A, B):
        scale = max(op.max_norm(), 1.0)
        if op.hermiticity_defect() > 1e-12 * scale:
            raise ValueError("uncertainty requires Hermitian operators")
    ea = np.real(np.vdot(state, A.apply(state)))
    eb = np.real(np.vdot(state, B.apply(state)))
    ea2 = np.real(np.vdot(state, A.apply(A.apply(state))))
    eb2 = np.real(np.vdot(state, B.apply(B.apply(state))))
    var_a = max(ea2 - ea**2, 0.0)
    var_b = max(eb2 - eb**2, 0.0)
    comm = np.vdot(state, A.apply(B.apply(state))) - np.vdot(state, B.apply(A.apply(state)))
    return float(np.sqrt(var_a * var_b)), float(abs(comm) / 2.0)


def occupation_shell(x, p) -> float:
    """Paraboloid n(x, p) = p^2/2 + x^2/2 + 1/2 relating the plane to the
    number axis; illustrative helper with no accuracy contract."""
    return 0.5 * (np.asarray(p) ** 2 + np.asarray(x) ** 2 + 1.0)
