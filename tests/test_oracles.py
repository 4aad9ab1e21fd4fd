import numpy as np
import pytest

from liefock.oracles import (
    band_energy,
    bloch,
    driven_oscillator_levels,
    ladder_oracles,
    so5_generator_matrix,
    so5_manybody,
    so5_quoted_matrix,
    so5_revival,
    so5_singles,
    spin_pcs_width,
    squeezing,
    su2_chain_hopping,
    wannier_stark_levels,
)
from test_seed_oracles import discrepancy, sphere_radius_sq, squeezed_quadrature_variances, su11_pcs_expectations


def test_bloch_initial_values():
    s = bloch(1.3, 0.7, 5, np.array([0.0]))
    assert s.sx[0] == pytest.approx(0.0)
    assert s.sy[0] == pytest.approx(0.0)
    assert s.sz[0] == pytest.approx(5.0)
    assert s.a[0] == pytest.approx(np.sqrt(10))
    assert s.b[0] == pytest.approx(0.0)


def test_bloch_resonant_inversion():
    J, S = 0.8, 4
    om = 2 * J  # delta = 0
    t_half = np.pi / om
    s = bloch(0.0, J, S, np.array([t_half]))
    assert s.sz[0] == pytest.approx(-S, abs=1e-12)


def test_bloch_radius_identity():
    t = np.linspace(0, 7, 113)
    s = bloch(0.9, 1.7, 3.5, t)
    assert np.max(np.abs(sphere_radius_sq(s) - 3.5**2)) < 1e-10


def test_bloch_validates_spin():
    with pytest.raises(ValueError):
        bloch(1.0, 1.0, 0.3, np.array([0.0]))


def test_squeezing_initial_and_peak():
    s = squeezing(2.0, 1.0, np.array([0.0]))
    assert s.r[0] == 0.0 and s.n_mean[0] == 0.0
    gap = np.sqrt(3.0)
    t = np.linspace(0, 2 * np.pi / gap, 4001)
    s = squeezing(2.0, 1.0, t)
    assert s.stable
    peak = np.max(s.n_mean)
    assert peak == pytest.approx(1 / 3, abs=1e-6)
    k = np.argmax(s.n_mean)
    assert gap * t[k] == pytest.approx(np.pi / 2, abs=1e-3)


def test_squeezing_variance_identity():
    t = np.linspace(0, 5, 301)
    s = squeezing(2.0, 1.0, t)
    assert np.allclose(s.var_n, 2 * s.n_mean * (s.n_mean + 1))
    assert np.min(s.n_mean) >= 0


def test_squeezing_unstable_growth():
    t = np.linspace(0, 4, 201)
    s = squeezing(1.0, 2.0, t)
    assert not s.stable
    assert np.all(np.diff(s.n_mean) > 0)  # monotone runaway
    assert s.n_mean[-1] > 100


def test_squeezing_marginal_case():
    t = np.linspace(0, 3, 50)
    s = squeezing(1.0, 1.0, t)
    assert np.allclose(s.n_mean, t**2, rtol=1e-12)


def test_squeezing_phase_continuity():
    gap = np.sqrt(3.0)
    t = np.linspace(0, 4 * np.pi / gap, 3000)
    s = squeezing(2.0, 1.0, t)
    assert np.max(np.abs(np.diff(s.chi))) < 0.05  # no branch jumps
    assert s.chi[0] == pytest.approx(0.0, abs=1e-6)
    dtheta = np.abs(np.diff(s.theta))
    assert np.median(dtheta) < 0.05  # theta wraps, but only at isolated points


def test_so5_closed_form_phi_pi():
    s = so5_singles(1.0, 1.0, np.pi)
    assert np.allclose(
        np.sort(s.closed_form), [-np.sqrt(2), -np.sqrt(2), np.sqrt(2), np.sqrt(2)]
    )


def test_so5_phi_zero_discrepancy_locked():
    s = so5_singles(1.0, 1.0, 0.0)
    assert np.allclose(np.sort(s.closed_form), [-2, 0, 0, 2], atol=1e-12)
    assert np.allclose(np.sort(s.quoted_matrix), [-1, -1, -1, 3], atol=1e-9)
    assert discrepancy(s) > 0.4  # the two quoted forms genuinely disagree


def test_so5_generator_form_decouples_at_j2_zero():
    s = so5_singles(1.5, 0.0, 0.7)
    assert np.allclose(np.sort(s.generator_form), [-1.5, -1.5, 1.5, 1.5], atol=1e-12)


def test_so5_generator_form_matches_closed_form_everywhere():
    for phi in (0.0, 0.3, np.pi / 2, np.pi, 2.5):
        s = so5_singles(1.0, 1.0, phi)
        assert np.allclose(np.sort(s.generator_form), np.sort(s.closed_form), atol=1e-12)


def test_so5_manybody_enumeration():
    singles = np.array([1.0, -1.0, 2.0, -2.0])
    wide = so5_manybody(singles, 1)
    assert np.allclose(wide, sorted(singles))
    two = so5_manybody(singles, 2)
    assert len(two) == 10  # compositions of N = 2 over 4 levels
    assert two[0] == -4.0 and two[-1] == 4.0


def test_so5_revival_values():
    assert so5_revival(np.pi, 1.0) == pytest.approx(np.pi * np.sqrt(2))
    # cot(phi/4) = 2 -> phi = 4*arctan(1/2), m = 2
    phi = 4 * np.arctan(0.5)
    t = so5_revival(phi, 1.0)
    assert t == pytest.approx(2 * np.pi / np.cos(phi / 4))
    # irrational cot -> no revival reported, not an error
    assert so5_revival(1.0, 1.0) is None
    assert so5_revival(0.0, 1.0) is None
    with pytest.raises(ValueError):
        so5_revival(np.pi, 0.0)


def test_wannier_stark_ladder_oracle():
    js = np.arange(-10, 11)
    assert np.allclose(wannier_stark_levels(1.0, js), js)
    assert np.allclose(ladder_oracles("wannier_stark", omega=2.0, js=[1, 2]), [2.0, 4.0])


def test_band_oracle():
    assert band_energy(1.0, 0.0) == pytest.approx(2.0)
    assert band_energy(1.0, np.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_driven_oscillator_oracle():
    vals = driven_oscillator_levels(1.0, 0.5, np.arange(3))
    assert np.allclose(vals, [-0.25, 0.75, 1.75])
    with pytest.raises(ValueError, match="singular"):
        driven_oscillator_levels(0.0, 0.5, [0])


def test_su2_hopping_oracle():
    assert su2_chain_hopping(1.0, 4, 1) == pytest.approx(np.sqrt(6))
    assert su2_chain_hopping(2.0, 4, 0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        su2_chain_hopping(1.0, 4, 7)


def test_spin_width_oracle():
    assert spin_pcs_width(50, 0.0) == 0.0
    assert spin_pcs_width(50, np.pi / 2) == pytest.approx(np.sqrt(25.0))


def test_unknown_ladder_kind():
    with pytest.raises(ValueError, match="unknown oracle kind"):
        ladder_oracles("nope")


def test_quadrature_variance_oracle():
    dx2, dp2 = squeezed_quadrature_variances(0.5, 0.0)
    assert dx2 == pytest.approx(0.5 * np.exp(-1.0))
    assert dp2 == pytest.approx(0.5 * np.exp(1.0))
    assert dx2 * dp2 == pytest.approx(0.25)


def test_su11_expectation_oracle_consistency():
    k0, k1, k2 = su11_pcs_expectations(0.25, 0.6, 1.1)
    # hyperboloid constraint K0^2 - K1^2 - K2^2 = k^2
    assert k0**2 - k1**2 - k2**2 == pytest.approx(0.25**2)


def test_so5_quoted_vs_generator_matrices_differ():
    hp = so5_quoted_matrix(1.0, 1.0, 0.9)
    hg = so5_generator_matrix(1.0, 1.0, 0.9)
    assert not np.allclose(hp, hg)
    assert np.allclose(hp, hp.conj().T)
    assert np.allclose(hg, hg.conj().T)
