"""Displacement operators, closed-form coherent states, Husimi grids, and
uncertainty checks.

A displacement exp(beta*E_raise - conj(beta)*E_lower) is the Lanczos
`dynamics.evolve` of one state for unit time, with a leakage monitor for
truncated bases. Closed-form expansions use log-space binomials so they stay
stable at large spin / large cutoff. The constructors take plain arguments;
the `coherent` specs of scenarios and state files are read and dispatched by
`scenarios.COHERENT_KINDS`.

A Husimi chart is evaluated over its whole grid at once. On the sphere, the
cylinder and the disk the coherent state at node (i, j) factorises as
radial[i, n] e^{i order_n angle_j}, with consecutive integer orders, so its
overlaps with one vector are one matrix product over the grid, and a density
matrix is one quadratic form over the diagonals of its Hermitian part. On
the plane the overlaps are Horner's rule in conj(alpha), with the Gaussian
e^{-|alpha|^2/2} spread over the steps so that no partial sum overflows, and
a density matrix adds one eigenvector's chart at a time.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, jv, xlogy

from .algebra import build_algebra, find_reference_states
from .dynamics import evolve
from .errors import ConfigError, NumericContractError, TruncationLeakageWarning, exact_number
from .fock import DEFAULT_BOUNDARY_WINDOW, FockBasis
from .operators import SparseOperator

LEAK_TOL = 1e-8


# ---------------------------------------------------------------------------
# displacement
# ---------------------------------------------------------------------------


def displace(model, root_label, beta, state) -> np.ndarray:
    """Apply the displacement of one root pair to a normalized state.

    `root_label` is the label of either member of the pair. Emits a
    TruncationLeakageWarning when the result puts more than LEAK_TOL
    population outside the model's interior, that is within
    DEFAULT_BOUNDARY_WINDOW states of a truncated basis boundary. A pair
    that is not mutually adjoint fails evolve's Hermiticity check.
    """
    pair = model.root_pair(root_label)
    beta = complex(beta)
    gen = beta * model.generators[pair.raising].mat - np.conj(beta) * model.generators[pair.lowering].mat
    out = evolve(SparseOperator(1j * gen), state, [1.0], method="krylov").snapshots[0]
    boundary = ~model.interior()
    leak = float(np.sum(np.abs(out[boundary]) ** 2)) if boundary.any() else 0.0
    if leak > LEAK_TOL:
        warnings.warn(
            f"displacement leaked {leak:.3e} population into the outermost "
            f"{DEFAULT_BOUNDARY_WINDOW} truncated levels",
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
    """The state radial_n * exp(i orders_n angle) at one angle."""
    return radial * np.exp(1j * (angle * orders))


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
        model = build_algebra("su11_single", k=k, cutoff=cutoff)
        one = np.zeros(cutoff + 1, dtype=complex)
        one[1] = 1.0
        return displace(model, "K+", squeeze_to_displacement(xi), one)
    raise ValueError("k must be 1/4 or 3/4")


def squeeze_to_displacement(xi) -> complex:
    return -complex(xi)


def euclidean_coherent_state(beta, L, start=None) -> np.ndarray:
    """Shift-displaced site state on an L-site chain: amplitude on site
    start + l is J_l(2|beta|) e^{i l arg(beta)}."""
    beta = complex(beta)
    if start is None:
        start = (L - 1) // 2
    return _coherent(*_bessel_radial(abs(beta), L, start), np.angle(beta))


def su3_coherent_state(N, zeta, basis: FockBasis) -> np.ndarray:
    """(zeta . adag)^N / sqrt(N!) |000> as multinomial amplitudes over
    `basis`, the fixed-N sector of three boson modes. `zeta` is normalized if
    it is not already."""
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.shape != (3,):
        raise ValueError("zeta must have three components")
    norm = np.linalg.norm(zeta)
    if norm == 0:
        raise ValueError("zeta must be nonzero")
    zeta = zeta / norm
    log_fact = gammaln(basis.occ + 1)
    log_mult = 0.5 * (gammaln(N + 1) - log_fact[:, 0] - log_fact[:, 1] - log_fact[:, 2])
    out = np.exp(log_mult) * np.prod(zeta**basis.occ, axis=1)
    return out / np.linalg.norm(out)


def su3_angles_to_zeta(theta1, theta2, phi1, phi2):
    return np.array(
        [
            np.cos(theta1),
            np.exp(1j * phi1) * np.sin(theta1) * np.cos(theta2),
            np.exp(1j * phi2) * np.sin(theta1) * np.sin(theta2),
        ]
    )


def displaced_state(model, fields) -> np.ndarray:
    """The `displaced` coherent state of `fields` (root, beta and an optional
    reference) on the basis of `model`: without a reference, the first state
    `find_reference_states` gives (the lowest kernel state) is displaced."""
    refs = fields.get("reference")
    if refs is None:
        candidates = find_reference_states(model)
        if not candidates:
            raise ValueError(f"{model.name} has no reference state to displace: give one as 'reference'")
        refs = candidates[0]
    return displace(model, fields["root"], fields["beta"], refs)


# ---------------------------------------------------------------------------
# Husimi grids
# ---------------------------------------------------------------------------


@dataclass
class HusimiGrid:
    parametrization: str
    axes: tuple          # coordinate arrays; axes[i] runs along values axis i
    weights: np.ndarray  # quadrature weights including the invariant measure
    values: np.ndarray   # w * <coherent| rho |coherent>, clipped at 0 (raises below -1e-12)
    normalization: float  # the constant w

    def integral(self) -> float:
        return float(np.sum(self.weights * self.values))


def _chart_values(psi_or_rho, w, overlaps, quadratic_form=None):
    """w * <c|rho|c> over a grid, where `overlaps(v)` gives <c|v> at every
    node as one array, and `quadratic_form(h)`, where the chart has one,
    gives <c|h|c> at every node for a Hermitian matrix h.

    A pure state is |<c|psi>|^2. A density matrix charts its Hermitian part
    h: through `quadratic_form` where given, else as sum_k lam_k |<c|v_k>|^2
    over the eigenvectors of h, accumulated one term at a time so that no
    array over terms and nodes is built. A non-finite value raises
    NumericContractError; a value below -1e-12 raises ValueError.
    """
    arr = np.asarray(psi_or_rho)
    if arr.ndim == 1:
        values = np.abs(overlaps(arr)) ** 2
    elif arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        h = (arr + arr.conj().T) / 2
        if quadratic_form is not None:
            values = quadratic_form(h)
        else:
            lam, vecs = np.linalg.eigh(h)
            values = 0.0
            for lam_k, v in zip(lam, vecs.T):
                values = values + lam_k * np.abs(overlaps(v)) ** 2
    else:
        raise ValueError("expected a state vector or a square density matrix")
    values = w * values
    if not np.all(np.isfinite(values)):
        raise NumericContractError("Husimi chart has non-finite values")
    if np.min(values, initial=0.0) < -1e-12:
        raise ValueError("Husimi values fell below the -1e-12 clip floor")
    return np.maximum(values, 0.0)


def _factorised(radial, orders, angles):
    """The overlaps and the quadratic form of `_chart_values` for the states
    c(i, j)_n = radial[i, n] e^{i orders_n angles_j}, whose orders are
    consecutive integers. <c|v> is one matrix product
    (radial * v) @ e^{-i orders angles}. <c|h|c> is
    Re sum_d G[i, d] e^{i d angles_j} over the 2N-1 diagonals d of h, with
    G[i, d] = sum_n radial[i, n] radial[i, n+d] h[n, n+d]; since h is
    Hermitian, G[i, -d] = conj(G[i, d]), so only d >= 0 is built and the
    sum is two real matrix products."""
    n = radial.shape[-1]

    def overlaps(v):
        return (radial * v) @ np.exp(-1j * np.multiply.outer(orders, angles))

    def quadratic_form(h):
        if h.shape != (n, n):
            raise ValueError(f"a chart of dimension {n} needs a {n} x {n} density matrix, got {h.shape}")
        g = np.empty((radial.shape[0], n), dtype=complex)
        for d in range(n):
            g[:, d] = (radial[:, : n - d] * radial[:, d:]) @ np.diagonal(h, d)
        g[:, 1:] *= 2
        turns = np.multiply.outer(np.arange(n), angles)
        return g.real @ np.cos(turns) - g.imag @ np.sin(turns)

    return overlaps, quadratic_form


def _glauber_overlaps(alphas, v):
    """<alpha|v> = e^{-|alpha|^2/2} sum_n v_n conj(alpha)^n / sqrt(n!) at
    every alpha, by Horner's rule with the Gaussian folded into each step:
    with g = e^{-|alpha|^2/(2N)}, each step multiplies by g conj(alpha)/sqrt(n)
    and adds g^(N-n+1) v_(n-1), so no partial sum overflows at large |alpha|
    and large cutoff N."""
    top = len(v) - 1
    g = np.exp(-np.abs(alphas) ** 2 / (2 * max(top, 1)))
    step = g * alphas.conj()
    power = g ** (max(top, 1) - top)  # the whole Gaussian sits on v_0 when N = 0
    acc = power * complex(v[top])
    for n in range(top, 0, -1):
        acc *= step
        acc *= 1 / np.sqrt(n)
        power *= g
        acc += power * v[n - 1]
    return acc


def husimi_plane(psi_or_rho, cutoff, x, p) -> HusimiGrid:
    """Glauber-basis Husimi on an (x, p) grid: w = 1/pi, alpha = (x+ip)/sqrt2.

    Weights carry the d^2 alpha measure (= dx dp / 2), so integral() -> 1
    for normalized states."""
    if np.shape(psi_or_rho)[0] != cutoff + 1:
        raise ValueError(f"a cutoff-{cutoff} chart needs a state of length {cutoff + 1}")
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    alphas = (x[:, None] + 1j * p) / np.sqrt(2.0)
    values = _chart_values(psi_or_rho, 1.0 / np.pi, functools.partial(_glauber_overlaps, alphas))
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
    values = _chart_values(psi_or_rho, norm, *_factorised(*_spin_radial(two_s, theta), phi))
    weights = np.outer(gl_w, np.full(n_phi, dphi))
    return HusimiGrid("sphere", (theta, phi), weights, values, norm)


def husimi_cylinder(psi_or_rho, L, n_arc=201, n_rad=201) -> HusimiGrid:
    """Shift-algebra Husimi over beta = r e^{i arc}: the arc coordinate winds
    around the cylinder, |beta| runs along it from 0 to L/4; w = 1/pi with
    measure r dr darc. Axes (rad, arc): rows run over |beta|."""
    arc = np.linspace(-np.pi, np.pi, n_arc, endpoint=False)
    rad = np.linspace(0, L / 4.0, n_rad)
    values = _chart_values(psi_or_rho, 1.0 / np.pi, *_factorised(*_bessel_radial(rad, L, (L - 1) // 2), arc))
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
    only. For 0 < k <= 1/2, where (2k-1)/pi would be zero or negative, the
    grid uses w = 1/pi instead (reported in `normalization`): its values are
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
    kernel = _factorised(*_pcs_radial(k, zmag, np.shape(psi_or_rho_chain)[0]), theta)
    values = _chart_values(psi_or_rho_chain, w_const, *kernel)
    # d^2 zeta = (1/2) ds dtheta ; invariant measure divides by (1-s)^2
    radial_w = 0.5 * ds / (1 - s) ** 2
    weights = np.outer(radial_w, np.full(n_arg, dth))
    return HusimiGrid("disk", (zmag, theta), weights, values, w_const)


SPACES = ("plane", "sphere", "cylinder", "disk")


def chart_param(space, params, dim, path="params"):
    """The one parameter `husimi_chart` reads for `space` from `params`, for
    a state of length `dim`: the sphere's S (default (dim-1)/2; 2S+1 must
    equal dim), the plane's half_width (default 6; positive and finite) or
    the disk's k (default 1/4; positive), and None for the cylinder. A value
    that does not fit raises ConfigError naming `path`.key."""
    if space == "sphere":
        S = exact_number(params.get("S", Fraction(dim - 1, 2)), f"{path}.S")
        if 2 * S + 1 != dim:
            raise ConfigError(f"2S+1 must equal the state's length {dim}, got S = {S}", field=f"{path}.S")
        return S
    if space == "plane":
        half = exact_number(params.get("half_width", 6), f"{path}.half_width")
        if half <= 0:
            raise ConfigError(f"half_width must be a positive finite number, got {half}", field=f"{path}.half_width")
        return float(half)
    if space == "disk":
        k = exact_number(params.get("k", Fraction(1, 4)), f"{path}.k")
        if k <= 0:
            raise ConfigError(f"k must be positive, got {k}", field=f"{path}.k")
        return k
    if space == "cylinder":
        return None
    raise ValueError(f"unknown phase space {space!r}")


def husimi_chart(psi_or_rho, space, nodes, params) -> HusimiGrid:
    """The Husimi chart of a state or density matrix on `space` (one of
    SPACES), with nodes[0] rows (axes[0]) and nodes[1] columns (axes[1]).
    The chart's dimension is the state's length; `params` are read and
    checked by `chart_param`. The cylinder's radius runs to dim/4."""
    n_a, n_b = (int(n) for n in nodes)
    if n_a < 1 or n_b < 1:
        raise ValueError(f"node counts must be positive, got {n_a} and {n_b}")
    dim = np.shape(psi_or_rho)[0]
    value = chart_param(space, params, dim)
    if space == "sphere":
        return husimi_sphere(psi_or_rho, value, n_theta=n_a, n_phi=n_b)
    if space == "plane":
        return husimi_plane(psi_or_rho, dim - 1, np.linspace(-value, value, n_a), np.linspace(-value, value, n_b))
    if space == "cylinder":
        return husimi_cylinder(psi_or_rho, dim, n_arc=n_b, n_rad=n_a)
    return husimi_disk(psi_or_rho, value, n_rad=n_a, n_arg=n_b)


def husimi(state_or_rho, space, model, nodes=(101, 101), half_width=6.0) -> HusimiGrid:
    """husimi_chart for a catalog model, rejecting a model without a phase
    space (`AlgebraModel.phase_space` None) and a grid on any other space. A
    plane chart spans [-half_width, half_width]^2; a disk chart takes k from
    the model's parameters (1/2 if it has none)."""
    expected = model.phase_space
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
    A.check_hermitian()
    B.check_hermitian()
    ea = np.real(np.vdot(state, A.apply(state)))
    eb = np.real(np.vdot(state, B.apply(state)))
    ea2 = np.real(np.vdot(state, A.apply(A.apply(state))))
    eb2 = np.real(np.vdot(state, B.apply(B.apply(state))))
    var_a = max(ea2 - ea**2, 0.0)
    var_b = max(eb2 - eb**2, 0.0)
    comm = np.vdot(state, A.apply(B.apply(state))) - np.vdot(state, B.apply(A.apply(state)))
    return float(np.sqrt(var_a * var_b)), float(abs(comm) / 2.0)
