"""Fock-state lattice graphs: extraction from Hermitian operators, weight
coordinates from diagonal generators, connected components, and gauge-
invariant plaquette fluxes via spanning-tree cycle bases.

Vertices are basis states with real onsite energies; an edge exists wherever
the corresponding off-diagonal matrix element exceeds a tolerance, storing
the amplitude H[i, j] for i < j (the reverse direction is its conjugate).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import NumericContractError, ResourceGuardError
from .operators import SparseOperator

FLUX_DEDUP_TOL = 1e-9


@dataclass(frozen=True)
class Edge:
    i: int
    j: int
    amplitude: complex
    label: str = None


@dataclass
class FSLGraph:
    n_vertices: int
    onsite: np.ndarray
    edges: list
    basis: object = None
    weights: np.ndarray = None  # optional per-vertex float weight coordinates

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self):
        """dict vertex -> {neighbor: amplitude from vertex's row}."""
        adj = {v: {} for v in range(self.n_vertices)}
        for e in self.edges:
            adj[e.i][e.j] = e.amplitude          # H[i, j]
            adj[e.j][e.i] = np.conj(e.amplitude)  # H[j, i]
        return adj

    def degree(self, v) -> int:
        return sum(1 for e in self.edges if e.i == v or e.j == v)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices, dtype=int)
        for e in self.edges:
            deg[e.i] += 1
            deg[e.j] += 1
        return deg


@dataclass
class WeightLattice:
    """Exact weights of every vertex, merged into lattice sites.

    Vertex v has coordinates `numerators[v] / denominator`, one common
    positive denominator for all entries. `site_numerators` lists the
    distinct rows in ascending order, which is ascending order of the
    rational tuples, and `site_index[v]` is the site of vertex v. Fractions
    are only built on request (`coordinates`, `sites`, `site_keys`).
    """

    numerators: np.ndarray     # (n_vertices, rank) int64
    denominator: int
    coordinates_float: np.ndarray
    site_numerators: np.ndarray  # (n_sites, rank) int64, ascending rows
    site_index: np.ndarray     # (n_vertices,) site of each vertex

    @classmethod
    def from_numerators(cls, numerators, denominator, coordinates_float=None):
        """Group vertices by their exact weight. Without explicit floats the
        float coordinates are numerators / denominator, correctly rounded
        like float(Fraction) since both fit in a double exactly."""
        numerators = np.asarray(numerators, dtype=np.int64)
        check_exact(int(np.max(np.abs(numerators), initial=0)), denominator)
        if coordinates_float is None:
            coordinates_float = numerators / denominator
        sites, index = np.unique(numerators, axis=0, return_inverse=True)
        return cls(numerators, int(denominator), coordinates_float, sites, index.ravel())

    def _fractions(self, rows):
        den = self.denominator
        return [tuple(Fraction(n, den) for n in row) for row in rows.tolist()]

    @property
    def coordinates(self) -> list:
        """Per-vertex tuples of exact rationals."""
        return self._fractions(self.numerators)

    def site_keys(self) -> list:
        """Exact rational coordinates of each site, in site order."""
        return self._fractions(self.site_numerators)

    def site_members(self) -> list:
        """Ascending vertex indices of each site, in site order."""
        order = np.argsort(self.site_index, kind="stable")
        return np.split(order, np.cumsum(self.multiplicity_array())[:-1])

    def multiplicity_array(self) -> np.ndarray:
        return np.bincount(self.site_index, minlength=len(self.site_numerators))

    @property
    def sites(self) -> list:
        """(coordinate tuple, member vertex list) per site."""
        return [
            (key, members.tolist())
            for key, members in zip(self.site_keys(), self.site_members())
        ]

    @property
    def multiplicities(self):
        return self.multiplicity_array().tolist()

    def site_of_vertex(self):
        return dict(enumerate(self.site_index.tolist()))


@dataclass
class FluxReport:
    cycle_count: int
    fluxes: list               # per fundamental cycle, in (-pi, pi]
    elementary_fluxes: list    # shortest cycle through each non-tree edge
    class_values: list         # distinct nonzero elementary fluxes (signed)
    independent_classes: int   # distinct values after identifying v ~ -v


def build_fsl(H: SparseOperator, basis=None, tol=None) -> FSLGraph:
    """Vertex per basis state, edge wherever |H_nm| > tol for n != m.

    Raises NumericContractError if H is not Hermitian at 1e-12 relative.
    """
    scale = max(H.max_norm(), 1.0)
    if H.hermiticity_defect() > 1e-12 * scale:
        raise NumericContractError(
            f"Hamiltonian is not Hermitian: defect {H.hermiticity_defect():.3e} "
            f"exceeds 1e-12 * {scale:.3e}"
        )
    if tol is None:
        tol = 1e-12 * H.max_norm()
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    onsite = H.diagonal().real.copy()
    coo = H.mat.tocoo()
    keep = (coo.row < coo.col) & (np.abs(coo.data) > tol)
    rows, cols, amps = coo.row[keep], coo.col[keep], coo.data[keep]
    order = np.lexsort((cols, rows))
    edges = [
        Edge(i, j, a)
        for i, j, a in zip(rows[order].tolist(), cols[order].tolist(), amps[order].tolist())
    ]
    return FSLGraph(H.dim, onsite, edges, basis=basis)


def labeled_fsl(model, terms, tol=None) -> FSLGraph:
    """Graph of a linear combination of algebra generators, with each edge
    labeled by the generator that produced it (merged labels on collision).

    `terms` is a list of (label, coefficient) with complex coefficients;
    the assembled operator must come out Hermitian.
    """
    from .operators import linear_combination

    labels = [lab for lab, _ in terms]
    ops = [model.generator(lab) for lab in labels]
    H = linear_combination(ops, [c for _, c in terms])
    graph = build_fsl(H, basis=model.basis, tol=tol)
    if not graph.edges:
        return graph
    n = graph.n_vertices
    ends = np.array([(e.i, e.j) for e in graph.edges], dtype=np.int64)
    edge_keys = ends[:, 0] * n + ends[:, 1]
    # covers[e, k]: term k has an entry on edge e (in either direction)
    covers = np.empty((len(edge_keys), len(ops)), dtype=bool)
    for k, op in enumerate(ops):
        coo = op.mat.tocoo()
        lo, hi = np.minimum(coo.row, coo.col), np.maximum(coo.row, coo.col)
        covers[:, k] = np.isin(edge_keys, (lo * n + hi)[lo != hi])
    patterns, pattern_of_edge = np.unique(covers, axis=0, return_inverse=True)
    names = [
        _merge_labels([lab for lab, hit in zip(labels, row) if hit]) for row in patterns
    ]
    graph.edges = [
        Edge(e.i, e.j, e.amplitude, names[p])
        for e, p in zip(graph.edges, pattern_of_edge.ravel().tolist())
    ]
    return graph


def _merge_labels(labels):
    """One edge label from the labels of the terms covering it, in term
    order: repeats collapse, a raise/lower pair keeps one name, and
    distinct generators are joined with '|'. None when no term covers it."""
    merged = None
    for lab in labels:
        if merged is None or merged == lab:
            merged = lab
        elif _conjugate_labels(merged, lab):
            merged = min(merged, lab)  # one name per raise/lower pair
        elif lab not in merged.split("|"):
            merged = merged + "|" + lab
    return merged


def _conjugate_labels(a: str, b: str) -> bool:
    """True when two labels name the two members of one raise/lower pair
    under the catalog's trailing +/- convention."""
    swap = {"+": "-", "-": "+"}
    return len(a) == len(b) and a[:-1] == b[:-1] and swap.get(a[-1]) == b[-1]


EXACT_LIMIT = 2**53  # integers up to this are exact in a double


def check_exact(largest, denominator):
    """Exact weights are integers that a double holds exactly, so that
    numerators / denominator is correctly rounded and no int64 product
    overflows. `largest` bounds the absolute numerators (Python ints)."""
    if denominator > EXACT_LIMIT or largest > EXACT_LIMIT:
        raise ResourceGuardError(
            "exact weights need numerators and a common denominator of at most "
            f"2^53; got denominator {denominator}, numerators up to {largest}"
        )


def _rationalize(values, max_den=1 << 20, tol=1e-9):
    """Exact rationals recovered from floats, as (int64 numerators, common
    denominator). Only the distinct values are rationalised."""
    distinct, index = np.unique(np.asarray(values, dtype=float), return_inverse=True)
    fracs = []
    for x in distinct.tolist():
        fr = Fraction(x).limit_denominator(max_den)
        if abs(float(fr) - x) > tol:
            raise ValueError(
                f"diagonal entry {x} is not rational within {tol}; "
                "supply operators with exact rational diagonals"
            )
        fracs.append(fr)
    den = lcm(*(fr.denominator for fr in fracs))
    nums = [fr.numerator * (den // fr.denominator) for fr in fracs]
    check_exact(max(map(abs, nums)), den)
    return np.array(nums, dtype=np.int64)[index.ravel()], den


def _common_denominator(columns):
    """Stack exact columns given as (numerators, denominator) pairs over
    their least common denominator: ((n, k) int64 numerators, denominator)."""
    den = lcm(*(d for _, d in columns))
    scaled = []
    for num, d in columns:
        check_exact(int(np.max(np.abs(num), initial=0)) * (den // d), den)
        scaled.append(num * (den // d))
    return np.stack(scaled, axis=-1), den


def cartan_weights(cartan_ops) -> WeightLattice:
    """Per-vertex tuples of Cartan eigenvalues, merged into distinct lattice
    sites with multiplicity. Merging is exact: the eigenvalues come from
    `rational_diagonal` when present, else are recovered from the floats."""
    if not cartan_ops:
        raise ValueError("weight coordinates need at least one Cartan operator")
    exact_columns = []
    float_columns = []
    for op in cartan_ops:
        if not op.is_diagonal():
            raise ValueError("weight coordinates require diagonal operators")
        diag = op.diagonal().real
        float_columns.append(diag)
        if op.rational_diagonal is not None:
            exact_columns.append(op.rational_diagonal)
        else:
            exact_columns.append(_rationalize(diag))
    numerators, den = _common_denominator(exact_columns)
    return WeightLattice.from_numerators(numerators, den, np.stack(float_columns, axis=-1))


def weight_coordinates(fsl: FSLGraph, cartan_ops) -> WeightLattice:
    """`cartan_weights` of the Cartan operators, checked against the graph's
    vertex count; the float coordinates are attached to the graph."""
    for op in cartan_ops:
        if op.dim != fsl.n_vertices:
            raise ValueError("Cartan operator dimension does not match the graph")
    wl = cartan_weights(cartan_ops)
    fsl.weights = wl.coordinates_float
    return wl


def connected_components(fsl: FSLGraph) -> list:
    """Vertex sets connected through edges, ordered by smallest member."""
    parent = list(range(fsl.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in fsl.edges:
        ri, rj = find(e.i), find(e.j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for v in range(fsl.n_vertices):
        groups.setdefault(find(v), []).append(v)
    return [sorted(groups[r]) for r in sorted(groups)]


def _wrap_phase(x):
    # report phases in (-pi, pi]
    out = (x + np.pi) % (2 * np.pi) - np.pi
    if out <= -np.pi + 1e-15:
        out = np.pi
    return float(out)


def _cycle_flux(cycle, adj):
    """arg of the product of amplitudes around the closed vertex sequence."""
    prod = 1.0 + 0.0j
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        amp = adj[b][a]  # transition a -> b carries H[b, a]
        if amp == 0:
            raise ValueError("zero-amplitude edge encountered in a cycle")
        prod *= amp
    return _wrap_phase(np.angle(prod))


def _signed_area(cycle, weights):
    pts = weights[list(cycle)]
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _orient(cycle, weights):
    """Canonical orientation: counterclockwise in 2D weight coordinates when
    available and non-degenerate, else lowest-vertex-first ascending."""
    if weights is not None and weights.shape[1] == 2:
        area = _signed_area(cycle, weights)
        if abs(area) > 1e-12:
            return cycle if area > 0 else cycle[::-1]
    k = cycle.index(min(cycle))
    rot = cycle[k:] + cycle[:k]
    return rot if rot[1] <= rot[-1] else [rot[0]] + rot[1:][::-1]


def plaquette_fluxes(fsl: FSLGraph, weights=None) -> FluxReport:
    """Fluxes of a fundamental cycle basis plus the shortest ("elementary")
    cycle through every non-tree edge.

    Cycles are canonically oriented (counterclockwise when 2D weight
    coordinates are attached), so signed flux values are reproducible.
    `independent_classes` counts distinct nonzero elementary flux values
    after identifying a value with its traversal reverse (v ~ -v).
    """
    if weights is None:
        weights = fsl.weights
    adj = fsl.adjacency()
    components = connected_components(fsl)

    parent = {}
    depth = {}
    tree_edges = set()
    for comp in components:
        root = comp[0]
        parent[root] = None
        depth[root] = 0
        queue = deque([root])
        seen = {root}
        while queue:
            u = queue.popleft()
            for w in sorted(adj[u]):
                if w not in seen:
                    seen.add(w)
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    tree_edges.add((min(u, w), max(u, w)))
                    queue.append(w)

    non_tree = [e for e in fsl.edges if (e.i, e.j) not in tree_edges]
    cycle_count = fsl.n_edges - fsl.n_vertices + len(components)
    assert len(non_tree) == cycle_count

    fluxes = []
    for e in non_tree:
        u, v = e.i, e.j
        pu, pv = [u], [v]
        a, b = u, v
        while depth[a] > depth[b]:
            a = parent[a]
            pu.append(a)
        while depth[b] > depth[a]:
            b = parent[b]
            pv.append(b)
        while a != b:
            a = parent[a]
            b = parent[b]
            pu.append(a)
            pv.append(b)
        cycle = pu + pv[:-1][::-1]  # u .. lca .. v, closed by edge (v, u)
        fluxes.append(_cycle_flux(_orient(cycle, weights), adj))

    elementary = []
    for e in non_tree:
        path = _shortest_path_avoiding(adj, e.i, e.j)
        if path is None:
            elementary.append(_cycle_flux(_orient([e.i, e.j], weights), adj))
            continue
        elementary.append(_cycle_flux(_orient(path, weights), adj))

    nonzero = [f for f in elementary if abs(f) > FLUX_DEDUP_TOL]
    class_values = []
    for f in sorted(nonzero):
        if not any(abs(f - g) < FLUX_DEDUP_TOL for g in class_values):
            class_values.append(f)
    unsigned = []
    for f in class_values:
        if not any(abs(abs(f) - g) < FLUX_DEDUP_TOL for g in unsigned):
            unsigned.append(abs(f))
    return FluxReport(cycle_count, fluxes, elementary, class_values, len(unsigned))


def _shortest_path_avoiding(adj, src, dst):
    """BFS shortest path src -> dst avoiding the direct edge (src, dst)."""
    prev = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in sorted(adj[u]):
            if u == src and w == dst:
                continue
            if w not in prev:
                prev[w] = u
                if w == dst:
                    node, path = dst, []
                    while node is not None:
                        path.append(node)
                        node = prev[node]
                    return path[::-1]
                queue.append(w)
    return None


def graph_to_json_dict(fsl: FSLGraph, weight_lattice: WeightLattice = None) -> dict:
    """Export form: sorted vertex records with onsite energy, optional weight
    tuple and site multiplicity, plus edge records with re/im amplitudes."""
    onsite = fsl.onsite.tolist()
    if weight_lattice is None:
        vertices = [{"id": v, "onsite": e} for v, e in enumerate(onsite)]
    else:
        weights = weight_lattice.coordinates_float.tolist()
        mult = weight_lattice.multiplicity_array()[weight_lattice.site_index].tolist()
        vertices = [
            {"id": v, "onsite": e, "weight": w, "multiplicity": m}
            for v, (e, w, m) in enumerate(zip(onsite, weights, mult))
        ]
    edges = [
        {
            "i": e.i,
            "j": e.j,
            "re": float(e.amplitude.real),
            "im": float(e.amplitude.imag),
            "label": e.label,
        }
        for e in fsl.edges
    ]
    return {"vertices": vertices, "edges": edges}


def graph_to_adjacency_csv(fsl: FSLGraph) -> str:
    """Spreadsheet-style adjacency listing: i, j, re, im, label per line."""
    lines = ["i,j,re,im,label"]
    for e in fsl.edges:
        lab = e.label if e.label is not None else ""
        lines.append(f"{e.i},{e.j},{e.amplitude.real!r},{e.amplitude.imag!r},{lab}")
    return "\n".join(lines) + "\n"
