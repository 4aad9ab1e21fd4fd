import numpy as np
import pytest
import scipy.sparse as sparse

from liefock import (
    FockBasis,
    SparseOperator,
    boson,
    build_algebra,
    evolve,
    expectation_series,
    fidelity_series,
    ladder_ops,
    number_op,
    spectrum,
)
from liefock.errors import NumericContractError, ResourceGuardError
from liefock.operators import diagonal_op, linear_combination
from liefock.oracles import bloch, so5_generator_matrix, so5_manybody, squeezing
from test_seed_oracles import detect_revivals, equidistant_gap, so5_full_matrix, sphere_radius_sq


def su2_chain_hamiltonian(S, J0=1.0):
    model = build_algebra("su2_spin", S=S)
    return model, linear_combination(
        [model.generator("S+"), model.generator("S-")], [J0, J0]
    )


def wannier_stark(L, omega=1.0, J=0.3):
    model = build_algebra("e2", L=L)
    H = linear_combination(
        [model.generator("E0"), model.generator("E+"), model.generator("E-")],
        [omega, -J, -J],
    )
    return model, H


def quadratic_boson_hamiltonian(h4, N):
    """Number-conserving many-body operator from a 4x4 single-particle matrix."""
    from liefock import transfer_op

    basis = FockBasis([boson(N)] * 4, constraint=N)
    acc = None
    for i in range(4):
        for j in range(4):
            if abs(h4[i, j]) < 1e-15:
                continue
            piece = transfer_op(basis, i, j).mat * h4[i, j]
            acc = piece if acc is None else acc + piece
    return basis, SparseOperator(acc)


def test_zero_hamiltonian_constant():
    basis = FockBasis([boson(4)])
    H = SparseOperator(sparse.csr_matrix((5, 5), dtype=complex))
    psi0 = basis.vector((2,))
    res = evolve(H, psi0, np.linspace(0, 3, 7))
    assert np.allclose(res.snapshots, psi0[None, :])
    assert np.allclose(res.norms, 1.0)


def test_su2_revival_and_transfer():
    S, J0 = 8, 1.0
    model, H = su2_chain_hamiltonian(S, J0)
    psi0 = model.basis.vector((2 * S,))
    times = np.array([np.pi / (2 * J0), np.pi / J0])
    res = evolve(H, psi0, times)
    # full transfer to the opposite edge at half the revival time
    assert res.populations[0, model.basis.index_of((0,))] > 1 - 1e-10
    assert fidelity_series(res, psi0)[1] > 1 - 1e-10


def test_two_mode_sector_spectrum():
    model = build_algebra("su2_schwinger", N=4)
    H = linear_combination([model.generator("S+"), model.generator("S-")], [1.0, 1.0])
    ev = spectrum(H)
    assert np.max(np.abs(ev - np.array([-4, -2, 0, 2, 4]))) < 1e-10


def test_two_mode_sector_transfer():
    # |N, 0> fully returns at pi/J0 and sits on |0, N> at half that time
    N, J0 = 12, 1.0
    model = build_algebra("su2_schwinger", N=N)
    H = linear_combination([model.generator("S+"), model.generator("S-")], [J0, J0])
    psi0 = model.basis.vector((N, 0))
    res = evolve(H, psi0, np.array([np.pi / (2 * J0), np.pi / J0]))
    assert res.populations[0, model.basis.index_of((0, N))] > 1 - 1e-10
    assert fidelity_series(res, psi0)[1] > 1 - 1e-10


def test_driven_oscillator_ladder():
    cutoff, delta, eta = 60, 1.0, 0.5
    model = build_algebra("hw", cutoff=cutoff)
    H = linear_combination(
        [model.generator("n"), model.generator("a"), model.generator("adag")],
        [delta, eta, eta],
    )
    ev = spectrum(H)
    ns = np.arange(21)
    assert np.max(np.abs(ev[:21] - (delta * ns - eta**2 / delta))) < 1e-8


def test_wannier_stark_ladder_interior():
    model, H = wannier_stark(41)
    ev = spectrum(H)
    central = ev[(ev > -10.5) & (ev < 10.5)]
    assert len(central) == 21
    assert np.max(np.abs(central - np.round(central))) < 1e-6


def test_wannier_stark_revivals_at_bloch_period():
    omega = 1.0
    model, H = wannier_stark(41, omega=omega)
    psi0 = model.basis.vector((20,))  # center site
    times = np.linspace(0, 3 * 2 * np.pi / omega, 601)
    res = evolve(H, psi0, times)
    rep = detect_revivals(res, psi0, threshold=0.999)
    period = 2 * np.pi / omega
    assert len(rep.revival_times) >= 3
    for k, t in enumerate(rep.revival_times[:3], start=1):
        assert t == pytest.approx(k * period, abs=times[1] - times[0])
        assert rep.fidelities[k - 1] > 1 - 1e-6


def test_su2_first_revival_detected():
    S, J0 = 6, 1.0
    model, H = su2_chain_hamiltonian(S, J0)
    psi0 = model.basis.vector((2 * S,))
    # grid step pi/200 puts the revival time exactly on a node
    times = np.linspace(0, 1.4 * np.pi, 281)
    res = evolve(H, psi0, times)
    rep = detect_revivals(res, psi0, threshold=0.99)
    assert rep.revival_times
    assert rep.revival_times[0] == pytest.approx(np.pi / J0, abs=times[1] - times[0])
    assert rep.fidelities[0] > 1 - 1e-8


def test_so5_generator_form_revival():
    # cot(phi/4) = 1 at phi = pi gives the commensurate alternating ring
    N, J = 3, 1.0
    h4 = so5_generator_matrix(J, J, np.pi)
    basis, H = quadratic_boson_hamiltonian(h4, N)
    psi0 = basis.vector((N, 0, 0, 0))
    t_rev = np.pi * np.sqrt(2)
    times = np.linspace(0, 1.2 * t_rev, 351)
    res = evolve(H, psi0, times)
    rep = detect_revivals(res, psi0, threshold=0.99)
    assert rep.revival_times
    assert min(abs(t - t_rev) for t in rep.revival_times) < times[1] - times[0]
    # exact-time check, not grid-limited
    exact = evolve(H, psi0, np.array([t_rev]))
    assert fidelity_series(exact, psi0)[0] > 1 - 1e-9


def test_so5_revival_formula_at_second_rational_point():
    # cot(phi/4) = 2 -> T = 2 pi / cos(phi/4); check against dense evolution
    from liefock.oracles import so5_revival

    phi = 4 * np.arctan(0.5)
    t_rev = so5_revival(phi, 1.0)
    assert t_rev == pytest.approx(2 * np.pi / np.cos(phi / 4))
    N = 2
    h4 = so5_generator_matrix(1.0, 1.0, phi)
    basis, H = quadratic_boson_hamiltonian(h4, N)
    psi0 = basis.vector((N, 0, 0, 0))
    res = evolve(H, psi0, np.array([t_rev / 2, t_rev]))
    fid = fidelity_series(res, psi0)
    assert fid[1] > 1 - 1e-9      # revival exactly at the predicted period
    assert fid[0] < 1 - 1e-3      # and not a trivial constant


def test_populations_only_blocks_fidelity():
    basis = FockBasis([boson(3)])
    H = number_op(basis, 0)
    res = evolve(H, basis.vector((1,)), np.linspace(0, 1, 5), store="populations")
    assert res.snapshots is None
    with pytest.raises(ValueError, match="populations-only"):
        detect_revivals(res, basis.vector((1,)))


def test_commuting_observable_constant():
    model = build_algebra("su2_schwinger", N=6)
    H = linear_combination([model.generator("S+"), model.generator("S-")], [1.0, 1.0])
    psi0 = model.basis.vector((6, 0))
    res = evolve(H, psi0, np.linspace(0, 2, 21))
    series = expectation_series(res, model.casimirs["total_number"])
    assert np.max(np.abs(series - series[0])) < 1e-12


def test_bloch_oracle_spin_components():
    S, delta, J = 5, 1.0, 1.0
    model = build_algebra("su2_spin", S=S)
    sz, sp, sm = model.generators
    sx = SparseOperator(0.5 * (sp.mat + sm.mat))
    sy = SparseOperator((sp.mat - sm.mat) / 2j)
    H = linear_combination([sz, sx], [delta, 2 * J])
    psi0 = model.basis.vector((2 * S,))
    times = np.linspace(0, 3.0, 61)
    res = evolve(H, psi0, times)
    oracle = bloch(delta, J, S, times)
    assert np.max(np.abs(expectation_series(res, sx) - oracle.sx)) < 1e-9
    assert np.max(np.abs(expectation_series(res, sy) - oracle.sy)) < 1e-9
    assert np.max(np.abs(expectation_series(res, sz) - oracle.sz)) < 1e-9
    assert np.max(np.abs(sphere_radius_sq(oracle) - S**2)) < 1e-9


def test_bloch_oracle_mode_amplitudes():
    # the mode expectations demand a coherent seed: alpha = sqrt(2S) in mode a
    S, delta, J = 2.0, 0.8, 0.6
    alpha = np.sqrt(2 * S)
    cutoff = 24
    basis = FockBasis([boson(cutoff), boson(cutoff)])
    a, adag = ladder_ops(basis, 0)
    b, bdag = ladder_ops(basis, 1)
    na, nb = number_op(basis, 0), number_op(basis, 1)
    H = linear_combination([na, nb, SparseOperator(adag.mat @ b.mat), SparseOperator(bdag.mat @ a.mat)],
                           [delta / 2, -delta / 2, J, J])
    from liefock.coherent import glauber_state

    psi0 = np.kron(glauber_state(alpha, cutoff), glauber_state(0.0, cutoff))
    times = np.linspace(0, 2.5, 26)
    res = evolve(H, psi0, times)
    oracle = bloch(delta, J, S, times)
    a_num = np.array([np.vdot(s, a.apply(s)) for s in res.snapshots])
    b_num = np.array([np.vdot(s, b.apply(s)) for s in res.snapshots])
    assert np.max(np.abs(a_num - oracle.a)) < 1e-7
    assert np.max(np.abs(b_num - oracle.b)) < 1e-7


def test_su11_mean_occupation_matches_formula():
    cutoff, omega, xi = 120, 2.0, 1.0
    basis = FockBasis([boson(cutoff)])
    a, adag = ladder_ops(basis, 0)
    H = SparseOperator(
        omega * number_op(basis, 0).mat
        + 0.5 * (xi * adag.mat @ adag.mat + np.conj(xi) * a.mat @ a.mat),
    )
    gap = np.sqrt(omega**2 - abs(xi) ** 2)
    times = np.linspace(0, 3 * np.pi / gap, 91)
    psi0 = basis.vector((0,))
    res = evolve(H, psi0, times)
    n_series = expectation_series(res, number_op(basis, 0))
    oracle = squeezing(omega, xi, times)
    assert np.max(np.abs(n_series - oracle.n_mean)) < 1e-6
    var_series = expectation_series(
        res, SparseOperator(number_op(basis, 0).mat @ number_op(basis, 0).mat)
    ) - n_series**2
    assert np.max(np.abs(var_series - oracle.var_n)) < 1e-5


def test_squeezing_oracle_reconstructs_full_state():
    # the oracle's (r, theta, chi) rebuild the evolved vector exactly,
    # global phase included, in all three regimes
    from liefock.coherent import squeezed_vacuum_state

    cases = [
        ("stable", 2.0, 1.0 * np.exp(0.9j), 5.2, 240, 1e-10),
        ("unstable", 1.0, 2.0 * np.exp(0.4j), 0.9, 600, 1e-7),
        ("marginal", 1.0, 1.0, 2.0, 400, 1e-9),
    ]
    for name, omega, xi, tmax, cutoff, tol in cases:
        basis = FockBasis([boson(cutoff)])
        a, adag = ladder_ops(basis, 0)
        H = SparseOperator(
            omega * number_op(basis, 0).mat
            + 0.5 * (xi * adag.mat @ adag.mat + np.conj(xi) * a.mat @ a.mat),
        )
        times = np.linspace(1e-4, tmax, 31)
        res = evolve(H, basis.vector((0,)), times)
        sol = squeezing(omega, xi, times)
        for k in range(times.size):
            target = np.exp(1j * sol.chi[k]) * squeezed_vacuum_state(
                sol.r[k] * np.exp(1j * sol.theta[k]), cutoff
            )
            assert np.linalg.norm(res.snapshots[k] - target) < tol, (name, times[k])


def test_energy_conservation():
    model, H = wannier_stark(31)
    psi0 = model.basis.vector((15,))
    res = evolve(H, psi0, np.linspace(0, 10, 51))
    e = expectation_series(res, H)
    scale = max(abs(e[0]), 1.0)
    assert np.max(np.abs(e - e[0])) < 1e-9 * scale


def test_dense_vs_krylov_agreement():
    model, H = wannier_stark(81)
    psi0 = model.basis.vector((40,))
    times = np.linspace(0.0, 6.0, 13)
    dense = evolve(H, psi0, times, method="dense_eig")
    kry = evolve(H, psi0, times, method="krylov")
    err = np.linalg.norm(dense.snapshots - kry.snapshots, axis=1)
    assert np.max(err) < 1e-8


def test_krylov_on_larger_grid_matches_dense():
    cutoff = 300
    basis = FockBasis([boson(cutoff)])
    a, adag = ladder_ops(basis, 0)
    H = SparseOperator(
        number_op(basis, 0).mat + 0.4 * (a.mat + adag.mat)
    )
    psi0 = basis.vector((3,))
    times = np.linspace(0.5, 4.0, 8)
    kry = evolve(H, psi0, times, method="krylov")
    assert np.max(np.abs(kry.norms - 1)) < 1e-10
    dense = evolve(H, psi0, times, method="dense_eig")
    assert np.max(np.linalg.norm(dense.snapshots - kry.snapshots, axis=1)) < 1e-8


def test_revival_refractory_separation():
    # a fast Rabi-like oscillation peaks every pi; a generous refractory
    # window must thin the accepted revivals to at least that separation
    model, H = su2_chain_hamiltonian(3, 1.0)
    psi0 = model.basis.vector((6,))
    times = np.linspace(0, 12 * np.pi, 2401)
    res = evolve(H, psi0, times)
    refractory = 2.5 * np.pi
    rep = detect_revivals(res, psi0, threshold=0.9, refractory=refractory)
    assert len(rep.revival_times) >= 2
    gaps = np.diff(rep.revival_times)
    assert np.all(gaps >= refractory - 1e-9)


def test_equidistant_spectrum_implies_revival():
    # random diagonal with integer-multiple gaps
    rng = np.random.default_rng(9)
    levels = np.sort(rng.choice(np.arange(0, 40), size=12, replace=False)).astype(float)
    g = 0.37
    H = diagonal_op(levels * g)
    base = equidistant_gap(spectrum(H))
    assert base is not None and base == pytest.approx(g, rel=1e-9)
    amp = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi0 = amp / np.linalg.norm(amp)
    t_rev = 2 * np.pi / base
    res = evolve(H, psi0, np.array([t_rev]))
    assert fidelity_series(res, psi0)[0] > 1 - 1e-6


def test_so5_quadratic_sum_rule():
    for N in (1, 2, 3):
        for phi in (0.0, np.pi, 1.1):
            # build from the six-bond combination directly
            h4 = so5_full_matrix(1.0, 1.0, phi)
            basis, H = quadratic_boson_hamiltonian(h4, N)
            many = spectrum(H)
            singles = np.linalg.eigvalsh(h4)
            oracle = so5_manybody(singles, N)
            assert np.max(np.abs(many - oracle)) < 1e-9


def test_expectation_series_of_hermitian_product_is_real():
    # adag @ a is Hermitian by the numeric rule, although it is a product
    basis = FockBasis([boson(8)])
    a, adag = ladder_ops(basis, 0)
    n = number_op(basis, 0)
    H = SparseOperator(n.mat + 0.3 * (a.mat + adag.mat))
    res = evolve(H, basis.vector((0,)), np.linspace(0.0, 1.0, 5))
    series = expectation_series(res, SparseOperator(adag.mat @ a.mat))
    assert series.dtype == np.float64
    assert np.max(np.abs(series - expectation_series(res, n))) < 1e-12
    assert np.iscomplexobj(expectation_series(res, a))


def test_validation_errors():
    basis = FockBasis([boson(3)])
    a, _ = ladder_ops(basis, 0)
    with pytest.raises(NumericContractError, match="operator is not Hermitian"):
        evolve(a, basis.vector((0,)), np.array([1.0]))
    H = number_op(basis, 0)
    with pytest.raises(ValueError, match="normalized"):
        evolve(H, 2 * basis.vector((0,)), np.array([1.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        evolve(H, basis.vector((0,)), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ResourceGuardError):
        big = diagonal_op(np.arange(5000, dtype=float))
        v = np.zeros(5000)
        v[0] = 1.0
        evolve(big, v, np.array([1.0]), method="dense_eig")
    with pytest.raises(ResourceGuardError):
        spectrum(diagonal_op(np.arange(5000, dtype=float)))


@pytest.mark.parametrize("option,message", [
    ({"store": "bogus"}, "unknown store mode 'bogus'"),
    ({"method": "bogus"}, "unknown method 'bogus'"),
])
def test_unknown_store_or_method_is_refused_before_propagating(option, message):
    # above the dense guard: checked after propagating, it would raise ResourceGuardError
    H = diagonal_op(np.arange(4097, dtype=float))
    v = np.zeros(4097)
    v[0] = 1.0
    with pytest.raises(ValueError, match=message):
        evolve(H, v, np.array([1.0]), **{"method": "dense_eig", **option})
