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
from scipy.special import gammaln, jv, xlogy

from .errors import TruncationLeakageWarning
from .fock import FockBasis, boson
from .operators import SparseOperator, within_hermitian_bound

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
    herm = 1j * gen.toarray()  # dense, so no small entry is dropped before the check
    defect = np.max(np.abs(herm - herm.conj().T), initial=0.0)
    if not within_hermitian_bound(defect, np.max(np.abs(herm), initial=0.0)):
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


def _glauber_radial(r, cutoff):
    """|<n|alpha>| at |alpha| = r (any shape) over n = 0..cutoff, and the
    orders n of the phases e^{i n arg(alpha)}."""
    n = np.arange(cutoff + 1)
    r = np.asarray(r, dtype=float)[..., None]
    return np.exp(-(r**2) / 2 + xlogy(n, r) - 0.5 * gammaln(n + 1)), n


def _spin_radial(two_s, theta):
    """|<m|theta, phi>| over m = -S..S (index 0 is m = -S) at polar angles
    `theta` (any shape), and the orders m - S of the phases e^{i (m-S) phi}."""
    j = np.arange(two_s + 1)  # S + m
    half = np.asarray(theta, dtype=float)[..., None] / 2.0
    log_binom = gammaln(two_s + 1) - gammaln(j + 1) - gammaln(two_s - j + 1)
    radial = np.exp(0.5 * log_binom + xlogy(j, np.cos(half)) + xlogy(two_s - j, np.sin(half)))
    return radial / np.linalg.norm(radial, axis=-1, keepdims=True), j - two_s


def _bessel_radial(r, L, start):
    """J_l(2r) on the sites start + l of an L-site chain at |beta| = r (any
    shape), and the orders l of the phases e^{i l arg(beta)}."""
    ls = np.arange(L) - start
    return jv(ls, 2 * np.asarray(r, dtype=float)[..., None]), ls


def _pcs_radial(k, r, chain_len):
    """(1-r^2)^k sqrt(Gamma(m+2k)/(m! Gamma(2k))) r^m over m = 0..chain_len-1
    at |zeta| = r (any shape), and the orders m of the phases e^{i m arg(zeta)}."""
    m = np.arange(chain_len)
    r = np.asarray(r, dtype=float)[..., None]
    log_mag = 0.5 * (gammaln(m + 2 * k) - gammaln(m + 1) - gammaln(2 * k)) + xlogy(m, r)
    return (1 - r**2) ** k * np.exp(log_mag), m


def _coherent(radial, orders, angle):
    """radial_n * exp(i orders_n angle): one state for a scalar angle, one
    state per entry (stacked on the last axis) for an array of angles."""
    return radial * np.exp(1j * np.multiply.outer(angle, orders))


def glauber_state(alpha, cutoff) -> np.ndarray:
    """exp(-|a|^2/2) a^n / sqrt(n!) on a cutoff basis."""
    alpha = complex(alpha)
    return _coherent(*_glauber_radial(abs(alpha), cutoff), np.angle(alpha))


def spin_coherent_state(S, theta, phi) -> np.ndarray:
    """Binomial expansion over levels m = -S..S (index 0 is m = -S); theta = 0
    is the pole state m = +S."""
    if not 0 <= theta <= np.pi:
        raise ValueError("theta must lie in [0, pi]")
    return _coherent(*_spin_radial(int(Fraction(S) * 2), theta), phi)


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
    return _coherent(*_bessel_radial(abs(beta), L, start), np.angle(beta))


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
    z = complex(zeta)
    if abs(z) >= 1:
        raise ValueError("disk coordinate must satisfy |zeta| < 1")
    return _coherent(*_pcs_radial(float(k), abs(z), chain_len), np.angle(z))


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
    axes: tuple          # coordinate arrays; axes[i] runs along values axis i
    weights: np.ndarray  # quadrature weights including the invariant measure
    values: np.ndarray   # w * <coherent| rho |coherent>, clipped at -1e-12
    normalization: float  # the constant w

    def integral(self) -> float:
        return float(np.sum(self.weights * self.values))


def _chart_values(psi_or_rho, rows, w):
    """w * <c|rho|c> over a grid, one row of coherent states c at a time.

    `rows` yields the states of each grid row as one (n_b, dim) array, so no
    array over all nodes is ever built. A pure state is the one-term case of
    rho = sum_k lam_k |v_k><v_k| (the eigenvectors of rho's Hermitian part),
    so both take the same path: <c|rho|c> = sum_k lam_k |<c|v_k>|^2.
    """
    arr = np.asarray(psi_or_rho)
    if arr.ndim == 1:
        lam, vecs = np.ones(1), arr[:, None]
    elif arr.ndim == 2:
        lam, vecs = np.linalg.eigh((arr + arr.conj().T) / 2)
    else:
        raise ValueError("expected a state vector or a density matrix")
    values = w * np.array([np.abs(states.conj() @ vecs) ** 2 @ lam for states in rows])
    if np.min(values, initial=0.0) < -1e-12:
        raise ValueError("Husimi values fell below the -1e-12 clip floor")
    return np.maximum(values, 0.0)


def husimi_plane(psi_or_rho, cutoff, x, p) -> HusimiGrid:
    """Glauber-basis Husimi on an (x, p) grid: w = 1/pi, alpha = (x+ip)/sqrt2.

    Weights carry the d^2 alpha measure (= dx dp / 2), so integral() -> 1
    for normalized states."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    alphas = (x[:, None] + 1j * p) / np.sqrt(2.0)
    # the radial profile differs per node here, not per row
    rows = (_coherent(*_glauber_radial(np.abs(row), cutoff), np.angle(row)) for row in alphas)
    values = _chart_values(psi_or_rho, rows, 1.0 / np.pi)
    dx = x[1] - x[0] if x.size > 1 else 1.0
    dp = p[1] - p[0] if p.size > 1 else 1.0
    weights = np.full(values.shape, dx * dp / 2.0)
    return HusimiGrid("plane", (x, p), weights, values, 1.0 / np.pi)


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
    radial, orders = _spin_radial(two_s, theta)
    phases = _coherent(1.0, orders, phi)
    values = _chart_values(psi_or_rho, (r * phases for r in radial), norm)
    weights = np.outer(gl_w, np.full(n_phi, dphi))
    return HusimiGrid("sphere", (theta, phi), weights, values, norm)


def husimi_cylinder(psi_or_rho, L, n_arc=201, n_rad=201, rad_max=None) -> HusimiGrid:
    """Shift-algebra Husimi over beta = r e^{i arc}: the arc coordinate winds
    around the cylinder, |beta| runs along it; w = 1/pi with measure r dr darc.
    Axes (rad, arc): rows run over |beta|."""
    if rad_max is None:
        rad_max = L / 4.0
    arc = np.linspace(-np.pi, np.pi, n_arc, endpoint=False)
    rad = np.linspace(0, rad_max, n_rad)
    radial, orders = _bessel_radial(rad, L, (L - 1) // 2)
    phases = _coherent(1.0, orders, arc)
    values = _chart_values(psi_or_rho, (r * phases for r in radial), 1.0 / np.pi)
    dr = rad[1] - rad[0] if n_rad > 1 else 1.0
    darc = 2 * np.pi / n_arc
    weights = np.outer(rad * dr, np.full(n_arc, darc))
    return HusimiGrid("cylinder", (rad, arc), weights, values, 1.0 / np.pi)


def husimi_disk(psi_or_rho_chain, k, n_rad=160, n_arg=160) -> HusimiGrid:
    """Hyperbolic-disk Husimi over zeta = tanh(r) e^{i theta}, |zeta| < 1.
    Axes (|zeta|, theta): rows run over |zeta|.

    Works in chain space (ladder index m), so callers project Fock-space
    states onto the relevant parity chain first. Weight w = (2k-1)/pi with
    the invariant measure (1-|zeta|^2)^{-2} d^2 zeta folded into the
    quadrature weights. The normalization integral converges for k > 1/2
    only. For k <= 1/2, where (2k-1)/pi would be zero or negative, the grid
    uses w = 1/pi instead (reported in `normalization`): its values are
    non-negative and usable for plotting, but its integral is not 1.
    """
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
    radial, orders = _pcs_radial(k, zmag, np.shape(psi_or_rho_chain)[0])
    phases = _coherent(1.0, orders, theta)
    values = _chart_values(psi_or_rho_chain, (r * phases for r in radial), w_const)
    # d^2 zeta = (1/2) ds dtheta ; invariant measure divides by (1-s)^2
    radial_w = 0.5 * ds / (1 - s) ** 2
    weights = np.outer(radial_w, np.full(n_arg, dth))
    return HusimiGrid("disk", (zmag, theta), weights, values, w_const)


SPACES = ("plane", "sphere", "cylinder", "disk")


def husimi_chart(psi_or_rho, space, nodes, params) -> HusimiGrid:
    """The Husimi chart of a state or density matrix on `space` (one of
    SPACES), with nodes[0] rows (axes[0]) and nodes[1] columns (axes[1]).
    The chart's dimension is the state's length; `params` and their
    defaults: sphere S = (dim-1)/2, plane half_width = 6, disk k = 1/4 (a
    string such as "3/4" is read as an exact rational). The cylinder's
    radius runs to dim/4."""
    n_a, n_b = (int(n) for n in nodes)
    dim = np.shape(psi_or_rho)[0]
    if space == "sphere":
        return husimi_sphere(psi_or_rho, params.get("S", Fraction(dim - 1, 2)), n_theta=n_a, n_phi=n_b)
    if space == "plane":
        half = float(params.get("half_width", 6.0))
        xs = np.linspace(-half, half, n_a)
        ps = np.linspace(-half, half, n_b)
        return husimi_plane(psi_or_rho, dim - 1, xs, ps)
    if space == "cylinder":
        return husimi_cylinder(psi_or_rho, dim, n_arc=n_b, n_rad=n_a)
    if space == "disk":
        k = Fraction(str(params.get("k", "1/4")))
        return husimi_disk(psi_or_rho, k, n_rad=n_a, n_arg=n_b)
    raise ValueError(f"unknown phase space {space!r}")


PHASE_SPACES = {
    "hw": "plane",
    "su2_spin": "sphere",
    "su2_schwinger": "sphere",
    "e2": "cylinder",
    "su11_single": "disk",
    "su11_intensity": "disk",
    "su11_twomode": "disk",
}


def husimi(state_or_rho, space, model, nodes=(101, 101), half_width=6.0) -> HusimiGrid:
    """husimi_chart for a catalog model, rejecting grids whose
    parametrization does not match the model's phase space. A plane chart
    spans [-half_width, half_width]^2; a disk chart takes k from the model's
    parameters (1/2 if it has none)."""
    expected = PHASE_SPACES.get(model.name)
    if expected is None:
        raise ValueError(f"no phase-space chart registered for {model.name!r}")
    if space != expected:
        raise ValueError(
            f"parametrization mismatch: {model.name} lives on the {expected}, not the {space}"
        )
    params = {"half_width": half_width, "k": model.params.get("k", Fraction(1, 2))}
    return husimi_chart(state_or_rho, space, nodes, params)


# ---------------------------------------------------------------------------
# uncertainty and helpers
# ---------------------------------------------------------------------------


def uncertainty(state, A: SparseOperator, B: SparseOperator):
    """Both sides of the Robertson inequality: (dA*dB, |<[A,B]>|/2)."""
    state = np.asarray(state, dtype=complex)
    if not (A.is_hermitian() and B.is_hermitian()):
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
