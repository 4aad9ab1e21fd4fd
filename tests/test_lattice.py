import json
from fractions import Fraction

import numpy as np
import pytest

from liefock import (
    FockBasis,
    SparseOperator,
    boson,
    build_algebra,
    build_fsl,
    connected_components,
    fermion,
    ladder_ops,
    plaquette_fluxes,
    weight_coordinates,
)
from liefock.algebra import CATALOG
from liefock.errors import NumericContractError
from liefock.lattice import FSLGraph, graph_json_text, graph_to_adjacency_csv, system_graph
from liefock.operators import linear_combination, number_op
from test_seed_oracles import degrees, multiplicities


def su3_hamiltonian(N, phi, J=1.0):
    model = build_algebra("su3_schwinger", N=N)
    terms = [
        ("I+", J), ("I-", J), ("U+", J), ("U-", J),
        ("V+", J * np.exp(1j * phi)), ("V-", J * np.exp(-1j * phi)),
    ]
    H = linear_combination([model.generator(lab) for lab, _ in terms], [c for _, c in terms])
    return model, system_graph(H, model, terms)


def test_two_mode_chain_amplitudes():
    model = build_algebra("su2_schwinger", N=4)
    J0 = 1.0
    H = linear_combination([model.generator("S+"), model.generator("S-")], [J0, J0])
    graph = build_fsl(H)
    assert graph.n_vertices == 5
    assert [(i, j) for i, j in graph.edges.tolist()] == [(0, 1), (1, 2), (2, 3), (3, 4)]
    first = graph.amplitudes[0]
    assert abs(first) == pytest.approx(2 * J0)  # sqrt(1 * 4)
    hops = [abs(a) for a in graph.amplitudes]
    assert hops == [
        pytest.approx(v) for v in (2.0, np.sqrt(6), np.sqrt(6), 2.0)
    ]


def test_diagonal_hamiltonian_has_no_edges():
    basis = FockBasis([boson(5)])
    H = number_op(basis, 0)
    graph = build_fsl(H)
    assert graph.n_edges == 0
    assert np.allclose(graph.onsite, np.arange(6.0))


def test_non_hermitian_rejected():
    basis = FockBasis([boson(4)])
    a, _ = ladder_ops(basis, 0)
    with pytest.raises(NumericContractError, match="operator is not Hermitian"):
        build_fsl(a)


def test_jc_graph_components():
    model = build_algebra("jc_super", cutoff=6)
    H = linear_combination(
        [model.generator(l) for l in ("n_b", "n_f", "bf+", "bf-")],
        [1.0, 1.0, 0.2, 0.2],
    )
    graph = build_fsl(H)
    comps = connected_components(graph)
    sizes = sorted(len(c) for c in comps)
    # excitation sectors pair |n, 1> with |n+1, 0>; the vacuum is isolated and
    # the truncation strands the topmost |cutoff, 1> as a second singleton
    assert sizes == [1, 1] + [2] * 6
    singletons = sorted(c[0] for c in comps if len(c) == 1)
    assert singletons == [
        model.basis.index_of((0, 0)),
        model.basis.index_of((6, 1)),
    ]


def test_su11_hopping_graph_two_chains():
    model = build_algebra("su11_single", cutoff=20)
    H = linear_combination([model.generator("K+"), model.generator("K-")], [1.0, 1.0])
    graph = build_fsl(H)
    comps = connected_components(graph)
    assert len(comps) == 2
    assert comps[0] == list(range(0, 21, 2))
    assert comps[1] == list(range(1, 21, 2))


def test_two_mode_unconstrained_sectors():
    basis = FockBasis([boson(6), boson(6)])
    from liefock import transfer_op

    hop = transfer_op(basis, 0, 1)
    H = SparseOperator(hop.mat + hop.mat.conj().T)
    graph = build_fsl(H)
    comps = connected_components(graph)
    by_total = {}
    for comp in comps:
        totals = {sum(basis.state_at(v)) for v in comp}
        assert len(totals) == 1  # components never mix sectors
        by_total[totals.pop()] = len(comp)
    for N in range(7):
        assert by_total[N] == N + 1


def test_edgeless_graph_components():
    basis = FockBasis([boson(3)])
    graph = build_fsl(number_op(basis, 0))
    comps = connected_components(graph)
    assert comps == [[0], [1], [2], [3]]


def test_weight_coordinates_su2():
    model = build_algebra("su2_schwinger", N=4)
    wl = model.weight_lattice()
    coords = [c[0] for c in wl.coordinates]
    assert coords == [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]
    assert multiplicities(wl) == [1] * 5


def test_weight_coordinates_su3_triangle():
    model, graph = su3_hamiltonian(1, 0.0)
    wl = model.weight_lattice()
    assert len(wl.sites) == 3
    assert multiplicities(wl) == [1, 1, 1]
    assert graph.n_edges == 3  # triangle


def test_weight_multiplicities_so5():
    model = build_algebra("so5_quoted", N=2)
    wl = model.weight_lattice()
    assert len(wl.sites) == 9
    mult = dict(zip([tuple(c) for c, _ in wl.sites], multiplicities(wl)))
    assert mult[(Fraction(0), Fraction(0))] == 2
    assert sum(multiplicities(wl)) == model.basis.dim == 10


def test_su3_lattice_shape():
    N = 6
    model, graph = su3_hamiltonian(N, 0.0)
    assert graph.n_vertices == (N + 1) * (N + 2) // 2
    degree = degrees(graph)
    corners = [model.basis.index_of(s) for s in ((N, 0, 0), (0, N, 0), (0, 0, N))]
    for c in corners:
        assert degree[c] == 2
    interior = [
        v
        for v, s in enumerate(model.basis.states)
        if all(occ > 0 for occ in s)
    ]
    assert interior and all(degree[v] == 6 for v in interior)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_root_labeled_edges_translate_by_root(name):
    # both members of every root pair as terms: each edge is named by the
    # raising label of one pair and joins two states that pair's root apart
    model = build_algebra(name)
    terms = [(model.labels[i], 1.0) for p in model.root_pairs for i in (p.raising, p.lowering)]
    H = linear_combination([model.generator(lab) for lab, _ in terms], [c for _, c in terms])
    graph = system_graph(H, model, terms)
    coordinates = model.weight_lattice().coordinates
    roots = {model.labels[p.raising]: p.root for p in model.root_pairs}
    assert roots and graph.n_edges  # every catalog entry has root pairs
    for (i, j), label in zip(graph.edges.tolist(), graph.labels):
        assert label in roots
        alpha = roots[label]
        delta = tuple(b - a for a, b in zip(coordinates[i], coordinates[j]))
        neg = tuple(-d for d in delta)
        assert delta == alpha or neg == alpha


def test_su3_fluxes_zero_without_phase():
    _, graph = su3_hamiltonian(3, 0.0)
    rep = plaquette_fluxes(graph)
    assert rep.cycle_count == graph.n_edges - graph.n_vertices + 1
    assert np.max(np.abs(rep.elementary_fluxes)) < 1e-12
    assert rep.class_values == []
    assert rep.independent_classes == 0


def brute_force_triangle_fluxes(model, graph, wl):
    """Direct product around every CCW triangle, no cycle-basis machinery."""
    adj = {v: {} for v in range(graph.n_vertices)}
    for (i, j), amp in zip(graph.edges.tolist(), graph.amplitudes):
        adj[i][j] = amp           # H[i, j]
        adj[j][i] = np.conj(amp)  # H[j, i]
    out = []
    for i in range(graph.n_vertices):
        for j in adj[i]:
            for k in adj[j]:
                if k in adj[i] and i < j < k:
                    pts = wl.coordinates_float[[i, j, k]]
                    area = 0.5 * (
                        (pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
                        - (pts[2, 0] - pts[0, 0]) * (pts[1, 1] - pts[0, 1])
                    )
                    cyc = (i, j, k) if area > 0 else (i, k, j)
                    prod = (
                        adj[cyc[0]][cyc[2]] * adj[cyc[2]][cyc[1]] * adj[cyc[1]][cyc[0]]
                    )
                    # product of H[b, a] along a->b steps equals conj below;
                    # use the same orientation convention as the library
                    prod = (
                        adj[cyc[1]][cyc[0]] * adj[cyc[2]][cyc[1]] * adj[cyc[0]][cyc[2]]
                    )
                    out.append(np.angle(prod))
    return out


def test_su3_staggered_fluxes_match_brute_force():
    phi = np.pi / 3
    model, graph = su3_hamiltonian(3, phi)
    wl = model.weight_lattice()
    rep = plaquette_fluxes(graph, wl.coordinates_float)
    oracle = brute_force_triangle_fluxes(model, graph, wl)
    assert sorted(round(v, 9) for v in set(np.round(oracle, 9))) == [
        pytest.approx(-phi),
        pytest.approx(phi),
    ]
    assert rep.class_values == [pytest.approx(-phi), pytest.approx(phi)]
    assert rep.independent_classes == 1
    # staggering: both orientations occur, with the triangular-patch counts
    N = 3
    ups = sum(1 for v in oracle if v > 0)
    downs = sum(1 for v in oracle if v < 0)
    assert {ups, downs} == {N * (N + 1) // 2, N * (N - 1) // 2}


def so5_full_hamiltonian(N, phi, J1=1.0, J2=1.0):
    from liefock import transfer_op

    basis = FockBasis([boson(N)] * 4, constraint=N)
    bonds = [
        (0, 1, J1), (2, 3, J1),
        (0, 2, J2 * np.exp(1j * phi)), (0, 3, J2), (1, 2, J2), (1, 3, J2),
    ]
    acc = None
    for i, j, c in bonds:
        piece = transfer_op(basis, i, j).mat * c
        piece = piece + piece.conj().T
        acc = piece if acc is None else acc + piece
    H = SparseOperator(acc)
    model = build_algebra("so5_quoted", N=N)
    return model, basis, H


def test_so5_single_flux_class():
    phi = 1.3
    model, basis, H = so5_full_hamiltonian(2, phi)
    graph = build_fsl(H)
    wl = model.weight_lattice()
    rep = plaquette_fluxes(graph, wl.coordinates_float)
    assert rep.independent_classes == 1
    mags = {round(abs(v), 9) for v in rep.class_values}
    assert mags == {round(phi, 9)}


def test_gauge_invariance_of_fluxes_and_moduli():
    phi = 0.77
    model, graph = su3_hamiltonian(3, phi)
    wl = model.weight_lattice()
    rep = plaquette_fluxes(graph, wl.coordinates_float)

    rng = np.random.default_rng(5)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, graph.n_vertices))
    terms = [
        ("I+", 1.0), ("I-", 1.0), ("U+", 1.0), ("U-", 1.0),
        ("V+", np.exp(1j * phi)), ("V-", np.exp(-1j * phi)),
    ]
    H = linear_combination([model.generator(l) for l, _ in terms], [c for _, c in terms])
    gauged = SparseOperator(
        (np.diag(phases) @ H.toarray() @ np.diag(phases.conj()))
    )
    graph2 = build_fsl(gauged)
    rep2 = plaquette_fluxes(graph2, wl.coordinates_float)

    assert np.allclose(sorted(rep.elementary_fluxes), sorted(rep2.elementary_fluxes), atol=1e-10)
    assert np.allclose(
        sorted(abs(a) for a in graph.amplitudes),
        sorted(abs(a) for a in graph2.amplitudes),
    )
    assert np.allclose(graph.onsite, graph2.onsite)
    assert rep2.independent_classes == rep.independent_classes


def test_cycle_count_formula():
    for N in (2, 3, 4):
        _, graph = su3_hamiltonian(N, 0.3)
        comps = connected_components(graph)
        rep = plaquette_fluxes(graph)
        assert rep.cycle_count == graph.n_edges - graph.n_vertices + len(comps)


def test_graph_export_round_trip():
    model, graph = su3_hamiltonian(2, 0.5)
    wl = model.weight_lattice()
    payload = json.loads(graph_json_text(graph, wl))
    assert [v["id"] for v in payload["vertices"]] == list(range(graph.n_vertices))
    assert all({"i", "j", "re", "im", "label"} <= set(e) for e in payload["edges"])
    csv_text = graph_to_adjacency_csv(graph)
    assert csv_text.splitlines()[0] == "i,j,re,im,label"
    assert len(csv_text.splitlines()) == graph.n_edges + 1


def test_flux_weights_need_one_row_per_vertex():
    _, graph = su3_hamiltonian(2, 0.5)
    wl = build_algebra("su3_schwinger", N=3).weight_lattice()
    with pytest.raises(ValueError, match="10 rows for a graph of 6 vertices"):
        plaquette_fluxes(graph, wl.coordinates_float)


def test_zero_amplitude_cycle_edge_rejected():
    graph = FSLGraph(
        3,
        np.zeros(3),
        np.array([(0, 1), (0, 2), (1, 2)]),
        np.array([1.0 + 0j, 0.0 + 0j, 1.0 + 0j]),
    )
    with pytest.raises(ValueError, match="zero-amplitude"):
        plaquette_fluxes(graph)


def test_zero_amplitude_bridge_rejected():
    """A triangle and a bridge to vertex 3: no cycle runs through the
    zero-amplitude bridge, and it still has no phase."""
    graph = FSLGraph(
        4,
        np.zeros(4),
        np.array([(0, 1), (0, 2), (1, 2), (2, 3)]),
        np.array([1.0 + 0j, 1.0 + 0j, 1.0 + 0j, 0.0 + 0j]),
    )
    with pytest.raises(ValueError, match="zero-amplitude"):
        plaquette_fluxes(graph)


def test_exact_weights_beyond_a_double_are_refused():
    from liefock.errors import ResourceGuardError
    from liefock.scenarios import system_weights

    with pytest.raises(ResourceGuardError):
        weight_coordinates(np.ones((3, 1)), 2**60)
    with pytest.raises(ResourceGuardError):
        weight_coordinates([[2**53 + 1], [0]], 1)
    basis = FockBasis([boson(4)] * 2, constraint=4)
    with pytest.raises(ResourceGuardError):
        system_weights({"weights": [[Fraction(1, 9007199254740993), Fraction(0)]]}, basis, None)
    wl = system_weights({"weights": [[Fraction(1, 2), Fraction(-1, 3)]]}, basis, None)
    assert wl.denominator == 6 and wl.site_keys()[0] == (Fraction(-4, 3),)


def test_weight_grid_places_sites_by_exact_coordinates():
    from liefock.scenarios import _weight_grid

    wl = weight_coordinates([[0, 0], [1, 0], [0, 1], [1, 0], [-1, 1]], 2)
    table = _weight_grid(np.array([0.5, 0.1, 0.2, 0.15, 0.05]), wl)
    # rows: second coordinate descending; columns: first ascending
    assert table.tolist() == [[0.05, 0.2, 0.0], [0.0, 0.5, 0.25]]
