"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the measured values. Tolerances are pinned here, not configurable."""

import numpy as np
from scipy.special import jv

from liefock import (
    FockBasis,
    SparseOperator,
    boson,
    build_algebra,
    build_fsl,
    evolve,
    fidelity_series,
    ladder_ops,
    lie_closure,
    lmg_seed,
    number_op,
    plaquette_fluxes,
    rabi_seed,
    spectrum,
    transfer_op,
)
from liefock.coherent import (
    displace,
    husimi_sphere,
    spin_coherent_state,
    squeezed_vacuum_state,
    uncertainty,
)
from liefock.lattice import system_graph
from liefock.operators import linear_combination
from liefock.oracles import so5_generator_matrix, so5_manybody, so5_singles
from test_seed_oracles import degrees, discrepancy, oracle_displacement_unitary, so5_full_matrix


def labeled_graph(model, terms):
    H = linear_combination([model.generator(lab) for lab, _ in terms], [c for _, c in terms])
    return system_graph(H, model, terms)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def quadratic_hamiltonian(h4, N):
    basis = FockBasis([boson(N)] * 4, constraint=N)
    acc = None
    for i in range(4):
        for j in range(4):
            if abs(h4[i, j]) < 1e-15:
                continue
            piece = transfer_op(basis, i, j).mat * h4[i, j]
            acc = piece if acc is None else acc + piece
    return basis, SparseOperator(acc)


def test_criterion_01_su2_revival_and_transfer():
    S, J0 = 50, 1.0
    model = build_algebra("su2_spin", S=S)
    H = linear_combination([model.generator("S+"), model.generator("S-")], [J0, J0])
    psi0 = model.basis.vector((2 * S,))
    res = evolve(H, psi0, np.array([np.pi / (2 * J0), np.pi / J0]))
    transfer = res.populations[0, model.basis.index_of((0,))]
    revival = fidelity_series(res, psi0)[1]
    ok = revival >= 1 - 1e-8 and transfer >= 1 - 1e-8
    report(
        1,
        ok,
        f"S=50 edge state: revival fidelity {revival:.12f} (>= 1-1e-8), "
        f"opposite-edge population {transfer:.12f} (>= 1-1e-8)",
    )


def test_criterion_02_su2_sector_spectrum():
    J0 = 1.0
    model = build_algebra("su2_schwinger", N=4)
    H = linear_combination([model.generator("S+"), model.generator("S-")], [J0, J0])
    ev = spectrum(H)
    target = J0 * np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
    dev = float(np.max(np.abs(ev - target)))
    ok = dev < 1e-10
    report(2, ok, f"N=4 two-mode spectrum deviation {dev:.2e} (< 1e-10)")


def test_criterion_03_e2_bessel_displacement():
    L = 401
    model = build_algebra("e2", L=L)
    center = (L - 1) // 2
    beta = 3.0 * np.exp(0.37j)
    out = displace(model, "E+", beta, model.basis.vector((center,)))
    ls = np.arange(-20, 21)
    expected = jv(ls, 2 * abs(beta)) * np.exp(1j * ls * np.angle(beta))
    dev = float(np.max(np.abs(out[center + ls] - expected)))
    ok = dev < 1e-10
    report(3, ok, f"401-site shift displacement vs Bessel amplitudes: {dev:.2e} (< 1e-10)")


def test_criterion_04_wannier_stark():
    L, omega, J = 81, 1.0, 0.3
    model = build_algebra("e2", L=L)
    H = linear_combination(
        [model.generator("E0"), model.generator("E+"), model.generator("E-")],
        [omega, -J, -J],
    )
    ev = spectrum(H)
    central = ev[(ev > -20.5) & (ev < 20.5)]
    ladder_dev = float(np.max(np.abs(central - np.arange(-20.0, 21.0))))
    psi0 = model.basis.vector(((L - 1) // 2,))
    res = evolve(H, psi0, np.array([2 * np.pi / omega]))
    revival = fidelity_series(res, psi0)[0]
    ok = len(central) == 41 and ladder_dev < 1e-8 and revival >= 1 - 1e-6
    report(
        4,
        ok,
        f"L=81 tilted chain: {len(central)} central levels, ladder deviation "
        f"{ladder_dev:.2e} (< 1e-8), Bloch-period revival {revival:.9f} (>= 1-1e-6)",
    )


def test_criterion_05_driven_oscillator_ladder():
    cutoff, delta, eta = 120, 1.0, 0.5
    model = build_algebra("hw", cutoff=cutoff)
    H = linear_combination(
        [model.generator("n"), model.generator("a"), model.generator("adag")],
        [delta, eta, eta],
    )
    ev = spectrum(H)
    ns = np.arange(41)
    dev = float(np.max(np.abs(ev[:41] - (delta * ns - eta**2 / delta))))
    ok = dev < 1e-8
    report(5, ok, f"driven oscillator levels n - 0.25 for n <= 40: deviation {dev:.2e} (< 1e-8)")


def test_criterion_06_su3_lattice_flux_and_mirror():
    N, J = 30, 1.0
    model = build_algebra("su3_schwinger", N=N)

    # lattice shape
    terms0 = [("I+", J), ("I-", J), ("U+", J), ("U-", J), ("V+", J), ("V-", J)]
    graph = labeled_graph(model, terms0)
    degree = degrees(graph)
    interior = [v for v, s in enumerate(model.basis.states) if all(o > 0 for o in s)]
    shape_ok = graph.n_vertices == 496 and all(degree[v] == 6 for v in interior)

    # staggered flux classes at phi = pi/3
    phi = np.pi / 3
    terms_phi = [
        ("I+", J), ("I-", J), ("U+", J), ("U-", J),
        ("V+", J * np.exp(1j * phi)), ("V-", J * np.exp(-1j * phi)),
    ]
    graph_phi = labeled_graph(model, terms_phi)
    wl = model.weight_lattice()
    rep = plaquette_fluxes(graph_phi, wl.coordinates_float)
    classes = sorted(rep.class_values)
    flux_ok = (
        len(classes) == 2
        and abs(classes[0] + phi) < 1e-9
        and abs(classes[1] - phi) < 1e-9
    )

    # mirror symmetry of the phi = 0 snapshot at t = 0.3/J
    H0 = linear_combination([model.generator(l) for l, _ in terms0], [c for _, c in terms0])
    psi0 = model.basis.vector((10, 10, 10))
    res = evolve(H0, psi0, np.array([0.3 / J]))
    P = res.populations[0]
    perm = np.array([model.basis.index_of((s[2], s[1], s[0])) for s in model.basis.states])
    tv = 0.5 * float(np.sum(np.abs(P - P[perm])))
    mirror_ok = tv < 1e-9

    ok = shape_ok and flux_ok and mirror_ok
    report(
        6,
        ok,
        f"N=30 lattice: 496 vertices / interior degree 6 ({shape_ok}), flux classes "
        f"{[round(c, 6) for c in classes]} = +-pi/3 ({flux_ok}), mirror TV {tv:.2e} (< 1e-9)",
    )


def test_criterion_07_so5_spectra_and_revival():
    # (a) many-body spectrum of the six-bond Hamiltonian equals the multiset
    #     of its own single-particle combinations, N <= 3
    worst = 0.0
    for N in (1, 2, 3):
        for phi in (0.0, np.pi, np.pi / 2):
            h4 = so5_full_matrix(1.0, 1.0, phi)
            basis, H = quadratic_hamiltonian(h4, N)
            many = spectrum(H)
            combos = so5_manybody(np.linalg.eigvalsh(h4), N)
            worst = max(worst, float(np.max(np.abs(many - combos))))
    multiset_ok = worst < 1e-9

    # (b) commensurate revival of the generator-combination form at phi = pi
    N = 6
    h4 = so5_generator_matrix(1.0, 1.0, np.pi)
    basis, H = quadratic_hamiltonian(h4, N)
    psi0 = basis.vector((N, 0, 0, 0))
    t_rev = np.pi * np.sqrt(2)
    res = evolve(H, psi0, np.array([t_rev]))
    revival = fidelity_series(res, psi0)[0]
    revival_ok = revival >= 1 - 1e-6

    # (c) the phi = 0 disagreement between the closed form and the quoted
    #     matrix is real and stays on record
    s = so5_singles(1.0, 1.0, 0.0)
    gap = discrepancy(s)
    disagreement_ok = gap > 0.1

    ok = multiset_ok and revival_ok and disagreement_ok
    report(
        7,
        ok,
        f"quadratic sum rule deviation {worst:.2e} (< 1e-9); revival at pi*sqrt(2) "
        f"fidelity {revival:.9f} (>= 1-1e-6, N=6); phi=0 closed-vs-matrix "
        f"discrepancy {gap:.3f} (asserted > 0)",
    )


def test_criterion_08_su11_occupation_and_ground_population():
    cutoff, omega, xi = 400, 2.0, 1.0
    basis = FockBasis([boson(cutoff)])
    a, adag = ladder_ops(basis, 0)
    n_op = number_op(basis, 0)
    H = SparseOperator(
        omega * n_op.mat + 0.5 * (xi * adag.mat @ adag.mat + np.conj(xi) * a.mat @ a.mat),
    )
    gap = np.sqrt(omega**2 - abs(xi) ** 2)
    times = np.linspace(1e-3, 3 * np.pi / gap, 120)
    psi0 = basis.vector((0,))
    res = evolve(H, psi0, times)
    n_series = np.array([np.real(np.vdot(s, n_op.apply(s))) for s in res.snapshots])
    predicted = abs(xi) ** 2 / gap**2 * np.sin(gap * times) ** 2
    n_dev = float(np.max(np.abs(n_series - predicted)))

    n2 = SparseOperator(n_op.mat @ n_op.mat)
    var_series = np.array(
        [np.real(np.vdot(s, n2.apply(s))) for s in res.snapshots]
    ) - n_series**2
    var_dev = float(np.max(np.abs(var_series - 2 * n_series * (n_series + 1))))

    r = 0.5
    p0 = abs(squeezed_vacuum_state(r, cutoff)[0]) ** 2
    p0_dev = abs(p0 - 1 / np.cosh(r))

    ok = n_dev < 1e-6 and var_dev < 1e-5 and p0_dev < 1e-10
    report(
        8,
        ok,
        f"<n>(t) deviation {n_dev:.2e} (< 1e-6), Var(n) identity deviation "
        f"{var_dev:.2e} (< 1e-5), squeezed-vacuum p(0) deviation {p0_dev:.2e} (< 1e-10)",
    )


def test_criterion_09_closure_gallery():
    results = {}

    hw = build_algebra("hw", cutoff=24)
    a, adag, n, one = hw.generators
    rep = lie_closure([a, adag, one], cap=64, interior=hw.interior(), labels=["a", "adag", "I"])
    results["ladder_triple"] = (rep.closed, rep.dimension, rep.max_residual)

    su2 = build_algebra("su2_spin", S=4)
    rep = lie_closure(su2.generators, cap=64, labels=list(su2.labels))
    results["su2"] = (rep.closed, rep.dimension, rep.max_residual)

    su3 = build_algebra("su3_schwinger", N=3)
    rep = lie_closure(su3.generators, cap=64, labels=list(su3.labels))
    results["su3"] = (rep.closed, rep.dimension, rep.max_residual)

    sp4 = build_algebra("sp2n_boson", modes=2, cutoff=6)
    rep = lie_closure(sp4.generators, cap=64, interior=sp4.interior(), labels=list(sp4.labels))
    results["sp4"] = (rep.closed, rep.dimension, rep.max_residual)

    jc = build_algebra("jc_super", cutoff=10)
    rep = lie_closure(jc.generators, cap=64, interior=jc.interior(), labels=list(jc.labels))
    results["jc_super"] = (rep.closed, rep.dimension, rep.max_residual)

    ops, labels, mask = rabi_seed(cutoff=12)
    rep = lie_closure(ops, cap=64, interior=mask, labels=labels)
    results["rabi"] = (rep.closed, rep.dimension, None)

    ops, labels, mask = lmg_seed(S=8)
    rep = lie_closure(ops, cap=64, labels=labels)
    results["lmg"] = (rep.closed, rep.dimension, None)

    expected_closed = {"ladder_triple": 3, "su2": 3, "su3": 8, "sp4": 10, "jc_super": 4}
    ok = True
    for name, dim in expected_closed.items():
        closed, found, residual = results[name]
        ok = ok and closed and found == dim and residual < 1e-10
    for name in ("rabi", "lmg"):
        closed, found, _ = results[name]
        ok = ok and not closed and found > 64

    summary = ", ".join(
        f"{name}={'closed@' + str(d) if c else 'exceeded@' + str(d)}"
        for name, (c, d, _) in results.items()
    )
    report(9, ok, summary + " (caps 64, residuals < 1e-10 for closed cases)")


def test_criterion_10_coherent_state_suite():
    # spin-PCS lattice width across a theta grid, S = 50
    S = 50
    m = np.arange(-S, S + 1)
    width_dev = 0.0
    for theta in np.linspace(0.0, np.pi, 9):
        p = np.abs(spin_coherent_state(S, theta, 0.7)) ** 2
        mean = np.sum(m * p)
        width = np.sqrt(np.sum((m - mean) ** 2 * p))
        width_dev = max(width_dev, abs(width - np.sqrt(S / 2) * abs(np.sin(theta))))
    width_ok = width_dev < 1e-8

    # Robertson saturation at the pole
    model = build_algebra("su2_spin", S=S)
    sz, sp, sm = model.generators
    sx = SparseOperator(0.5 * (sp.mat + sm.mat))
    sy = SparseOperator((sp.mat - sm.mat) / 2j)
    product, bound = uncertainty(model.basis.vector((2 * S,)), sx, sy)
    saturation_dev = abs(product - bound) + abs(product - S / 2)
    saturation_ok = saturation_dev < 1e-10

    # sphere-Husimi normalization
    rng = np.random.default_rng(42)
    amp = rng.normal(size=2 * S + 1) + 1j * rng.normal(size=2 * S + 1)
    state = amp / np.linalg.norm(amp)
    integral = husimi_sphere(state, S, n_theta=200, n_phi=200).integral()
    husimi_ok = abs(integral - 1.0) < 1e-6

    # displacement composition phase on the plane
    hw = build_algebra("hw", cutoff=80)
    raising, lowering = hw.generator("adag"), hw.generator("a")
    alpha, beta = 0.4 + 0.1j, -0.25 + 0.3j
    lhs = oracle_displacement_unitary(raising, lowering, alpha) @ oracle_displacement_unitary(
        raising, lowering, beta
    )
    rhs = np.exp(1j * np.imag(alpha * np.conj(beta))) * oracle_displacement_unitary(
        raising, lowering, alpha + beta
    )
    block = slice(0, 30)
    comp_dev = float(np.max(np.abs(lhs[block, block] - rhs[block, block])))
    comp_ok = comp_dev < 1e-10

    # hyperbolic generator expectations on squeezed states, cutoff 400
    su11 = build_algebra("su11_single", cutoff=400)
    vac = su11.basis.vector((0,))
    k = 0.25
    kexp_dev = 0.0
    for b in (0.5, 0.8 * np.exp(0.9j)):
        out = displace(su11, "K+", b, vac)
        r, th = abs(b), np.angle(b)
        e0 = np.real(np.vdot(out, su11.generator("K0").apply(out)))
        em = np.vdot(out, su11.generator("K-").apply(out))
        kexp_dev = max(
            kexp_dev,
            abs(e0 - k * np.cosh(2 * r)),
            abs(em.real - k * np.sinh(2 * r) * np.cos(th)),
            abs(em.imag - k * np.sinh(2 * r) * np.sin(th)),
        )
    kexp_ok = kexp_dev < 1e-6

    ok = width_ok and saturation_ok and husimi_ok and comp_ok and kexp_ok
    report(
        10,
        ok,
        f"spin width dev {width_dev:.2e} (< 1e-8); pole saturation dev {saturation_dev:.2e} "
        f"(< 1e-10); sphere-Husimi integral {integral:.8f} (1 +- 1e-6); composition phase "
        f"dev {comp_dev:.2e} (< 1e-10); hyperbolic expectations dev {kexp_dev:.2e} (< 1e-6)",
    )
