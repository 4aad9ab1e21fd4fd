from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jv

from liefock import boson, build_algebra, enumerate_basis, evolve, ladder_ops, number_op
from liefock.coherent import (
    CoherentParams,
    closed_form_state,
    displace,
    displacement_to_squeeze,
    displacement_unitary,
    euclidean_coherent_state,
    glauber_state,
    husimi,
    husimi_disk,
    husimi_plane,
    husimi_sphere,
    occupation_shell,
    spin_coherent_state,
    squeezed_vacuum_state,
    su11_pcs,
    su3_coherent_state,
    uncertainty,
)
from liefock.errors import TruncationLeakageWarning
from liefock.operators import SparseOperator


def phase_aligned_distance(u, v):
    """Vector distance after quotienting a global phase."""
    overlap = np.vdot(u, v)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return np.linalg.norm(v - phase * u)


def test_zero_displacement_is_identity():
    model = build_algebra("su2_spin", S=4)
    state = model.basis.vector((8,))
    out = displace(model, "S+", 0.0, state)
    assert np.allclose(out, state)


def test_e2_displacement_bessel_amplitudes():
    L = 201
    model = build_algebra("e2", L=L)
    center = model.basis.vector(((L - 1) // 2,))
    beta = 1.5 * np.exp(0.8j)
    out = displace(model, "E+", beta, center)
    ls = np.arange(-12, 13)
    expected = jv(ls, 2 * abs(beta)) * np.exp(1j * ls * np.angle(beta))
    assert np.max(np.abs(out[(L - 1) // 2 + ls] - expected)) < 1e-12


def test_hw_displacement_gaussian_amplitudes():
    cutoff = 60
    model = build_algebra("hw", cutoff=cutoff)
    vac = model.basis.vector((0,))
    alpha = 0.9 - 0.4j
    out = displace(model, "adag", alpha, vac)
    assert np.max(np.abs(out - glauber_state(alpha, cutoff))) < 1e-12


def test_spin_closed_form_poles():
    state = spin_coherent_state(3, 0.0, 1.1)
    assert state[-1] == pytest.approx(1.0)  # m = +S at theta = 0
    state = spin_coherent_state(3, np.pi, 0.3)
    assert abs(state[0]) == pytest.approx(1.0)


def test_squeezed_vacuum_ground_population():
    state = squeezed_vacuum_state(0.5, cutoff=80)
    assert abs(state[0]) ** 2 == pytest.approx(1 / np.cosh(0.5), abs=1e-12)
    assert abs(state[0]) ** 2 == pytest.approx(0.886819, abs=5e-7)
    # only even levels occupied
    assert np.max(np.abs(state[1::2])) == 0.0


def test_su3_corner_state():
    basis = enumerate_basis([boson(4)] * 3, constraint=4)
    state = su3_coherent_state(4, (1.0, 0.0, 0.0), basis)
    assert abs(state[basis.index_of((4, 0, 0))]) == pytest.approx(1.0)


def test_displace_matches_spin_closed_form():
    S = 9
    model = build_algebra("su2_spin", S=S)
    top = model.basis.vector((2 * S,))
    for theta, phi in [(0.7, 0.3), (1.9, 4.0), (2.6, 5.5)]:
        varsigma = -(theta / 2) * np.exp(1j * phi)
        via_displacement = displace(model, "S+", varsigma, top)
        closed = spin_coherent_state(S, theta, phi)
        assert phase_aligned_distance(via_displacement, closed) < 1e-10
        # this parametrization needs no phase quotient at all
        assert np.linalg.norm(via_displacement - closed) < 1e-10


def test_displace_matches_squeezed_closed_form():
    cutoff = 120
    model = build_algebra("su11_single", cutoff=cutoff)
    vac = model.basis.vector((0,))
    for beta in (0.4, -0.3 + 0.5j, 0.9j):
        out = displace(model, "K+", beta, vac)
        closed = squeezed_vacuum_state(displacement_to_squeeze(beta), cutoff)
        assert phase_aligned_distance(out, closed) < 1e-8
        assert np.linalg.norm(out - closed) < 1e-8  # exact convention match


def test_displace_matches_euclidean_closed_form():
    L = 121
    model = build_algebra("e2", L=L)
    center = model.basis.vector(((L - 1) // 2,))
    beta = 2.0 * np.exp(0.3j)
    out = displace(model, "E+", beta, center)
    closed = euclidean_coherent_state(beta, L)
    assert phase_aligned_distance(out, closed) < 1e-8


def test_displace_matches_glauber_closed_form():
    cutoff = 70
    model = build_algebra("hw", cutoff=cutoff)
    vac = model.basis.vector((0,))
    alpha = 1.1 + 0.7j
    out = displace(model, "adag", alpha, vac)
    assert phase_aligned_distance(out, glauber_state(alpha, cutoff)) < 1e-8


def test_spin_pcs_width_formula():
    S = 50
    m = np.arange(-S, S + 1)
    for theta in (0.0, 0.4, np.pi / 2, 2.2):
        state = spin_coherent_state(S, theta, 0.9)
        p = np.abs(state) ** 2
        mean = np.sum(m * p)
        width = np.sqrt(np.sum((m - mean) ** 2 * p))
        assert width == pytest.approx(np.sqrt(S / 2) * abs(np.sin(theta)), abs=1e-8)


def test_su11_expectations_match_hyperbolic_formulas():
    cutoff = 400
    model = build_algebra("su11_single", cutoff=cutoff)
    vac = model.basis.vector((0,))
    k0, kp, km = model.generators
    k = 0.25
    for beta in (0.5, 0.8 * np.exp(0.9j)):
        out = displace(model, "K+", beta, vac)
        r, phase = abs(beta), np.angle(beta)
        e_k0 = np.real(np.vdot(out, k0.apply(out)))
        e_km = np.vdot(out, km.apply(out))
        assert e_k0 == pytest.approx(k * np.cosh(2 * r), abs=1e-6)
        assert e_km.real == pytest.approx(k * np.sinh(2 * r) * np.cos(phase), abs=1e-6)
        assert e_km.imag == pytest.approx(k * np.sinh(2 * r) * np.sin(phase), abs=1e-6)


def test_quadratic_generators_complete_two_circuits_per_rotation():
    # under omega*n the pair expectation <a^2> returns after pi/omega while
    # the linear amplitude <a> needs the full 2 pi/omega
    cutoff, omega = 50, 1.0
    basis = enumerate_basis([boson(cutoff)])
    a, adag = ladder_ops(basis, 0)
    H = SparseOperator(omega * number_op(basis, 0).mat, hermitian=True)
    psi0 = glauber_state(1.2, cutoff)
    times = np.array([np.pi / omega, 2 * np.pi / omega])
    res = evolve(H, psi0, times)
    a_t = [np.vdot(s, a.apply(s)) for s in res.snapshots]
    a2_t = [np.vdot(s, (a @ a).apply(s)) for s in res.snapshots]
    a2_0 = np.vdot(psi0, (a @ a).apply(psi0))
    a_0 = np.vdot(psi0, a.apply(psi0))
    assert abs(a2_t[0] - a2_0) < 1e-10          # half rotation: quadratics back
    assert abs(a_t[0] + a_0) < 1e-10            # but the amplitude is inverted
    assert abs(a_t[1] - a_0) < 1e-10            # full rotation restores it


def test_displacement_composition_phase():
    cutoff = 80
    model = build_algebra("hw", cutoff=cutoff)
    raising, lowering = model.generator("adag"), model.generator("a")
    alpha, beta = 0.4 + 0.1j, -0.25 + 0.3j
    Da = displacement_unitary(raising, lowering, alpha)
    Db = displacement_unitary(raising, lowering, beta)
    Dab = displacement_unitary(raising, lowering, alpha + beta)
    lhs = Da @ Db
    rhs = np.exp(1j * np.imag(alpha * np.conj(beta))) * Dab
    block = slice(0, 30)  # interior columns: far from the cutoff boundary
    assert np.max(np.abs(lhs[block, block] - rhs[block, block])) < 1e-10


def test_shift_coherent_overcompleteness_identities():
    # The discrete overlap identity behind lattice reconstructions is exact:
    # sum_l J_{l+m}(x) J_{l+n}(x) = delta_mn.
    ls = np.arange(-220, 221)
    for x in (0.7, 4.0, 9.3):
        for m, n in [(0, 0), (1, 1), (0, 2), (1, 3), (2, 5)]:
            total = np.sum(jv(ls + m, x) * jv(ls + n, x))
            assert total == pytest.approx(1.0 if m == n else 0.0, abs=1e-12)

    # The radial-integral form int_0^R J_m(2r) J_n(2r) r dr, by contrast,
    # DIVERGES like cos((m-n) pi/2) R / (2 pi): regression-lock the recorded
    # discrepancy so the formal identity is never silently trusted.
    R = 200.0
    r = np.linspace(0, R, 400001)
    val00 = np.trapezoid(jv(0, 2 * r) ** 2 * r, r)
    assert val00 == pytest.approx(R / (2 * np.pi), rel=0.02)
    assert abs(val00 - 0.5) > 10  # nowhere near the formal value 1/2
    val02 = np.trapezoid(jv(0, 2 * r) * jv(2, 2 * r) * r, r)
    assert val02 == pytest.approx(-R / (2 * np.pi), rel=0.02)
    # opposite-parity orders have no secular term and stay bounded
    val01 = np.trapezoid(jv(0, 2 * r) * jv(1, 2 * r) * r, r)
    assert abs(val01) < 0.5


def test_husimi_plane_vacuum_and_overlap():
    cutoff = 40
    vac = glauber_state(0.0, cutoff)
    xs = np.linspace(-5, 5, 81)
    grid = husimi_plane(vac, cutoff, xs, xs)
    center = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert grid.values[center] == pytest.approx(1 / np.pi, abs=1e-10)
    assert grid.integral() == pytest.approx(1.0, abs=1e-6)

    alpha0 = 0.8 + 0.5j
    state = glauber_state(alpha0, cutoff)
    grid = husimi_plane(state, cutoff, xs, xs)
    ix, ip = 55, 48
    alpha = (xs[ix] + 1j * xs[ip]) / np.sqrt(2)
    assert grid.values[ix, ip] == pytest.approx(
        np.exp(-abs(alpha - alpha0) ** 2) / np.pi, abs=1e-9
    )


def test_husimi_sphere_normalization():
    S = 50
    rng = np.random.default_rng(12)
    amp = rng.normal(size=2 * S + 1) + 1j * rng.normal(size=2 * S + 1)
    state = amp / np.linalg.norm(amp)
    grid = husimi_sphere(state, S, n_theta=200, n_phi=200)
    assert grid.integral() == pytest.approx(1.0, abs=1e-6)
    assert grid.normalization == pytest.approx((2 * S + 1) / (4 * np.pi))


def test_husimi_disk_normalization_k1():
    # k = 1 chain (two-mode realization with unit imbalance)
    k = 1.0
    for state_descr in ("reference", "excited", "pcs"):
        if state_descr == "reference":
            chain = np.zeros(60, dtype=complex)
            chain[0] = 1.0
        elif state_descr == "excited":
            chain = np.zeros(60, dtype=complex)
            chain[3] = 1.0
        else:
            chain = su11_pcs(k, 0.45 * np.exp(0.7j), 60)
        grid = husimi_disk(chain, k, n_rad=220, n_arg=64)
        assert grid.integral() == pytest.approx(1.0, abs=1e-6)


def test_husimi_disk_normalization_k_three_quarters():
    chain = np.zeros(70, dtype=complex)
    chain[0] = 1.0
    grid = husimi_disk(chain, 0.75, n_rad=260, n_arg=48)
    assert grid.integral() == pytest.approx(1.0, abs=1e-4)


def test_husimi_disk_weight_below_half_is_positive():
    # (2k-1)/pi is <= 0 for k <= 1/2; the chart uses 1/pi there instead
    chain = su11_pcs(0.25, 0.3 * np.exp(0.4j), 40)
    grid = husimi_disk(chain, Fraction(1, 4), n_rad=40, n_arg=24)
    assert grid.normalization == pytest.approx(1 / np.pi)
    assert np.all(np.isfinite(grid.values)) and np.all(grid.values >= 0)
    assert np.max(grid.values) > 0.1
    # above 1/2 the weight is unchanged
    assert husimi_disk(chain, 0.75, n_rad=8, n_arg=8).normalization == (2 * 0.75 - 1) / np.pi


@pytest.mark.parametrize(
    "name,kwargs", [("su11_single", {"cutoff": 30}), ("su11_intensity", {"cutoff": 30})]
)
def test_husimi_dispatch_disk_at_low_k(name, kwargs):
    # su11_single has k = 1/4, su11_intensity k = 1/2
    model = build_algebra(name, **kwargs)
    chain = np.zeros(20, dtype=complex)
    chain[1] = 1.0
    grid = husimi(chain, "disk", model, nodes=(30, 24))
    assert np.all(np.isfinite(grid.values)) and np.all(grid.values >= 0)
    assert np.max(grid.values) > 0


def test_uncertainty_pole_saturation():
    S = 7
    model = build_algebra("su2_spin", S=S)
    sz, sp, sm = model.generators
    sx = SparseOperator(0.5 * (sp.mat + sm.mat), hermitian=True)
    sy = SparseOperator((sp.mat - sm.mat) / 2j, hermitian=True)
    pole = model.basis.vector((2 * S,))
    product, bound = uncertainty(pole, sx, sy)
    assert product == pytest.approx(S / 2, abs=1e-10)
    assert bound == pytest.approx(S / 2, abs=1e-10)


def test_squeezed_quadrature_variances():
    cutoff, r = 120, 0.5
    state = squeezed_vacuum_state(r, cutoff)  # theta_s = 0
    basis = enumerate_basis([boson(cutoff)])
    a, adag = ladder_ops(basis, 0)
    x = SparseOperator((a.mat + adag.mat) / np.sqrt(2), hermitian=True)
    p = SparseOperator((a.mat - adag.mat) / (1j * np.sqrt(2)), hermitian=True)
    dx_dp, bound = uncertainty(state, x, p)
    var_x = uncertainty(state, x, x)[0]
    var_p = uncertainty(state, p, p)[0]
    assert var_x == pytest.approx(0.5 * (np.cosh(2 * r) - np.sinh(2 * r)), abs=1e-10)
    assert var_p == pytest.approx(0.5 * (np.cosh(2 * r) + np.sinh(2 * r)), abs=1e-10)
    assert dx_dp >= bound - 1e-12
    assert bound == pytest.approx(0.5, abs=1e-10)


def test_fock_state_uncertainty_product():
    cutoff = 30
    basis = enumerate_basis([boson(cutoff)])
    a, adag = ladder_ops(basis, 0)
    x = SparseOperator((a.mat + adag.mat) / np.sqrt(2), hermitian=True)
    p = SparseOperator((a.mat - adag.mat) / (1j * np.sqrt(2)), hermitian=True)
    for n in (0, 1, 4):
        state = basis.vector((n,))
        product, bound = uncertainty(state, x, p)
        assert product == pytest.approx(n + 0.5, abs=1e-10)  # oracle: direct moments
        assert bound == pytest.approx(0.5, abs=1e-10)
    # saturation only at the vacuum
    assert uncertainty(basis.vector((0,)), x, p)[0] == pytest.approx(0.5, abs=1e-10)


def test_truncation_leakage_warning():
    model = build_algebra("hw", cutoff=8)
    vac = model.basis.vector((0,))
    with pytest.warns(TruncationLeakageWarning):
        displace(model, "adag", 2.5, vac)


def test_closed_form_dispatcher():
    basis = enumerate_basis([boson(3)] * 3, constraint=3)
    v1 = closed_form_state(CoherentParams("su3", {"N": 3, "zeta": (0, 1.0, 0)}), basis)
    assert abs(v1[basis.index_of((0, 3, 0))]) == pytest.approx(1.0)
    v2 = closed_form_state(CoherentParams("spin", {"S": 2, "theta": 0.0, "phi": 0.0}))
    assert v2[-1] == pytest.approx(1.0)
    v3 = closed_form_state(
        CoherentParams("squeezed", {"xi": 0.3, "cutoff": 40, "k": Fraction(3, 4)})
    )
    assert np.max(np.abs(v3[0::2])) == 0.0  # odd chain only, parity exact
    assert abs(v3[1]) > 0.9  # dominated by the reference level
    assert np.linalg.norm(v3) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError, match="unknown coherent kind"):
        closed_form_state(CoherentParams("nope", {}))


def test_occupation_shell():
    assert occupation_shell(0.0, 0.0) == pytest.approx(0.5)
    assert occupation_shell(1.0, 1.0) == pytest.approx(1.5)


def test_husimi_dispatcher_validates_phase_space():
    from liefock.coherent import PHASE_SPACES, SPACES, husimi

    model = build_algebra("su2_spin", S=3)
    state = model.basis.vector((6,))
    grid = husimi(state, "sphere", model, nodes=(40, 40))
    assert grid.parametrization == "sphere"
    with pytest.raises(ValueError, match="parametrization mismatch"):
        husimi(state, "plane", model)

    hw = build_algebra("hw", cutoff=12)
    grid = husimi(hw.basis.vector((0,)), "plane", hw, nodes=(31, 31))
    assert grid.values.max() == pytest.approx(1 / np.pi, abs=1e-8)

    e2 = build_algebra("e2", L=31)
    grid = husimi(e2.basis.vector((15,)), "cylinder", e2, nodes=(21, 21))
    assert grid.parametrization == "cylinder"
    # a site state winds around the cylinder: no dependence on the arc angle
    assert np.max(np.std(grid.values, axis=1)) < 1e-12

    grid = husimi(hw.basis.vector((0,)), "plane", hw, nodes=(5, 3), half_width=2.5)
    assert grid.axes[0].tolist() == [-2.5, -1.25, 0.0, 1.25, 2.5]
    assert grid.axes[1].tolist() == [-2.5, 0.0, 2.5]
    # every model's chart is one of the dispatcher's spaces
    assert set(PHASE_SPACES.values()) == set(SPACES)


def test_su3_angle_parametrization_normalized():
    from liefock.coherent import su3_angles_to_zeta

    zeta = su3_angles_to_zeta(0.7, 0.4, 1.1, 2.2)
    assert np.linalg.norm(zeta) == pytest.approx(1.0)
    basis = enumerate_basis([boson(5)] * 3, constraint=5)
    state = su3_coherent_state(5, zeta, basis)
    assert np.linalg.norm(state) == pytest.approx(1.0)


def test_displacement_unitary_checks_the_pair_is_mutually_adjoint():
    basis = enumerate_basis([boson(6)])
    lower, raising = ladder_ops(basis, 0)
    # within the bound: a defect of 1e-13 relative to the largest entry
    nearly = SparseOperator(lower.mat * (1 + 1e-13))
    U = displacement_unitary(raising, nearly, 0.3 + 0.2j)
    assert np.allclose(U.conj().T @ U, np.eye(basis.dim), atol=1e-10)
    # below max|A| = 1 the bound stays 1e-12: a defect of 2.4e-13 passes
    displacement_unitary(raising, SparseOperator(lower.mat * (1 + 1e-11)), 0.01)
    # outside it: the lowering partner is off by 1e-9 of the largest entry
    off = SparseOperator(lower.mat * (1 + 1e-9))
    with pytest.raises(ValueError, match="mutually adjoint"):
        displacement_unitary(raising, off, 0.3 + 0.2j)
    # not a pair at all: i * (0.3i R + 0.3i R) = -0.6 R
    with pytest.raises(ValueError, match="mutually adjoint"):
        displacement_unitary(raising, raising, 0.3j)
