"""Fock-state lattice graphs: extraction from Hermitian operators, exact
weight coordinates merged into lattice sites, connected components, and
gauge-invariant plaquette fluxes of the shortest cycle through each non-tree
edge of a breadth-first spanning forest.

Vertices are basis states with real onsite energies. A graph keeps its edges
as arrays: `edges[k] = (i, j)` with i < j, lexsorted, wherever |H[i, j]|
exceeds a tolerance, and `amplitudes[k] = H[i, j]` (the reverse direction
carries the conjugate); the edges of an algebra's terms are labeled by the
raising label of each term's root pair. Components and breadth-first spanning
trees come from `scipy.sparse.csgraph` on the symmetric CSR adjacency.
A graph carries bonds only: site coordinates are a separate `WeightLattice`,
passed to the functions that use them. `weight_coordinates` is its one
constructor; it takes exact integer numerators over a common denominator,
whatever their source (an algebra's Cartan weights, a spec's `weights` rows
or the occupations; `scenarios.system_weights` picks). `linear_weights` gives
them for rational linear forms of the occupations: a spec's `weights` rows and
the Cartan rows of the Schwinger-boson algebras. Equal weight rows,
like equal label patterns of edges, are grouped by `group_rows`: one
lexsort and a comparison of neighbouring rows.

The shortest cycle through a non-tree edge (i, j) is a triangle whenever i
and j have a common neighbour; the smallest one, which a breadth-first
search from i reaches j through first, comes for all edges at once from one
entrywise product of sparse adjacency rows. Only edges without a common
neighbour are searched one at a time: none on the su3 lattice or the
six-bond so5 lattice, every one on the square so5 lattice of the root form.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm

import numpy as np
import scipy.sparse as sparse  # loads sparse.csgraph on first use

from .errors import ResourceGuardError
from .operators import SparseOperator
from .output import float_texts, records_text

FLUX_DEDUP_TOL = 1e-9


@dataclass
class FSLGraph:
    n_vertices: int
    onsite: np.ndarray
    edges: np.ndarray          # (n_edges, 2) int64, i < j, lexsorted
    amplitudes: np.ndarray     # (n_edges,) complex H[i, j]
    labels: list = None        # None, or the generator label of each edge

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def csr(self) -> sparse.csr_matrix:
        """Symmetric adjacency with sorted column indices."""
        i, j = self.edges.T
        shape = (self.n_vertices, self.n_vertices)
        adj = sparse.csr_matrix((np.ones(2 * self.n_edges), (np.r_[i, j], np.r_[j, i])), shape=shape)
        adj.sort_indices()
        return adj


@dataclass
class WeightLattice:
    """Exact weights of every vertex, merged into lattice sites.

    Vertex v has coordinates `numerators[v] / denominator`, one common
    positive denominator for all entries. `site_numerators` lists the
    distinct rows in ascending order, which is ascending order of the
    rational tuples, and `site_index[v]` is the site of vertex v. Fractions
    are only built on request (`coordinates`, `sites`, `site_keys`).
    Build one with `weight_coordinates`.
    """

    numerators: np.ndarray     # (n_vertices, rank) int64
    denominator: int
    coordinates_float: np.ndarray
    site_numerators: np.ndarray  # (n_sites, rank) int64, ascending rows
    site_index: np.ndarray     # (n_vertices,) site of each vertex

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

    def multiplicity_array(self) -> np.ndarray:
        return np.bincount(self.site_index, minlength=len(self.site_numerators))

    @property
    def sites(self) -> list:
        """(coordinate tuple, member vertex list) per site."""
        order = np.argsort(self.site_index, kind="stable").tolist()
        ends = np.cumsum(self.multiplicity_array()).tolist()
        return [(key, order[start:end]) for key, start, end in zip(self.site_keys(), [0] + ends[:-1], ends)]

    def site_sums(self, values) -> np.ndarray:
        """`values[..., v]` summed over the members v of each site, one entry per site along the
        last axis. Each sum is numpy's pairwise sum over the site's ascending members, which the
        written bytes depend on: the sites with m members are summed as the contiguous rows of
        `values[..., members]`, their (n_sites_m, m) members cut from one stable argsort."""
        values = np.asarray(values)
        counts = self.multiplicity_array()
        order = np.argsort(self.site_index, kind="stable")
        starts = np.cumsum(counts) - counts
        out = np.empty(values.shape[:-1] + counts.shape, dtype=values.dtype)
        for m in np.unique(counts).tolist():
            ids = np.flatnonzero(counts == m)
            out[..., ids] = values[..., order[starts[ids, None] + np.arange(m)]].sum(axis=-1)
        return out


@dataclass
class FluxReport:
    cycle_count: int           # independent cycles: edges - vertices + components
    elementary_fluxes: list    # shortest cycle through each non-tree edge, in (-pi, pi]
    class_values: list         # distinct nonzero elementary fluxes (signed)
    independent_classes: int   # distinct values after identifying v ~ -v


def build_fsl(H: SparseOperator, tol=None) -> FSLGraph:
    """Vertex per basis state, edge wherever |H_nm| > tol for n != m.

    Raises NumericContractError if H is not Hermitian at 1e-12 relative.
    """
    H.check_hermitian()
    if tol is None:
        tol = 1e-12 * H.max_norm()
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    onsite = H.diagonal().real.copy()
    coo = H.mat.tocoo()
    keep = (coo.row < coo.col) & (np.abs(coo.data) > tol)
    rows, cols = coo.row[keep].astype(np.int64), coo.col[keep].astype(np.int64)
    order = np.lexsort((cols, rows))
    edges = np.stack((rows[order], cols[order]), axis=1)
    return FSLGraph(H.dim, onsite, edges, coo.data[keep][order])


def system_graph(H, model, terms, tol=None) -> FSLGraph:
    """The graph of a system as `scenarios.build_system` returns it. When the
    system names an algebra (`terms` given), each edge is labeled by its bond,
    the raising label of the root pair of the term that produced it."""
    graph = build_fsl(H, tol=tol)
    if terms is not None and graph.n_edges:
        graph.labels = _edge_labels(graph, [lab for lab, _ in terms], model)
    return graph


def _pair_keys(n, a, b):
    """Keys min * n + max of vertex pairs; for a graph's edges these ascend."""
    return np.minimum(a, b) * n + np.maximum(a, b)


def _edge_labels(graph, labels, model):
    """Per edge, the bond name of each term with an entry on it, joined in
    term order (`_merge_labels`). A term that is a member of one of the
    model's root pairs is named by the pair's raising label, so a bond and
    its conjugate carry one name; any other term by its own label."""
    n = graph.n_vertices
    edge_keys = _pair_keys(n, *graph.edges.T)
    # covers[e, k]: generator k has an entry on edge e (in either direction), found by
    # its key's position in the ascending edge keys; no edge has a diagonal key i * n + i
    covers = np.zeros((graph.n_edges, len(labels)), dtype=bool)
    for k, lab in enumerate(labels):
        coo = model.generator(lab).mat.tocoo()
        keys = _pair_keys(n, coo.row.astype(np.int64), coo.col)
        pos = np.minimum(np.searchsorted(edge_keys, keys), graph.n_edges - 1)
        covers[pos[edge_keys[pos] == keys], k] = True
    raising = {model.labels[i]: model.labels[rp.raising] for rp in model.root_pairs for i in (rp.raising, rp.lowering)}
    bonds = [raising.get(lab, lab) for lab in labels]
    patterns, pattern_of_edge = group_rows(covers)
    names = [_merge_labels([bond for bond, hit in zip(bonds, row) if hit]) for row in patterns.tolist()]
    return list(map(names.__getitem__, pattern_of_edge.tolist()))


def _merge_labels(labels):
    """One edge label: the distinct labels in their order, joined with '|';
    None when no term covers the edge."""
    return "|".join(dict.fromkeys(labels)) or None


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


def linear_weights(basis, rows) -> tuple:
    """Exact weights of the basis states under rational linear forms of the
    occupations, one row of Fractions per coordinate and one entry per mode:
    (numerators (dim, rank) int64, denominator), the rows scaled to integers
    over their common denominator."""
    den = lcm(*(f.denominator for row in rows for f in row))
    coeffs = [[int(f * den) for f in row] for row in rows]
    check_exact(max((sum(abs(c) * m.capacity for c, m in zip(row, basis.modes)) for row in coeffs), default=0), den)
    return basis.occ @ np.array(coeffs, dtype=np.int64).reshape(len(rows), len(basis.modes)).T, den


def weight_coordinates(numerators, denominator, coordinates_float=None) -> WeightLattice:
    """Vertices with exact weights numerators / denominator, grouped into
    lattice sites. Without explicit floats the float coordinates are
    numerators / denominator, correctly rounded like float(Fraction) since
    both fit in a double exactly."""
    numerators = np.asarray(numerators, dtype=np.int64)
    check_exact(int(np.max(np.abs(numerators), initial=0)), denominator)
    if coordinates_float is None:
        coordinates_float = numerators / denominator
    sites, index = group_rows(numerators)
    return WeightLattice(numerators, int(denominator), coordinates_float, sites, index)


def group_rows(rows):
    """The distinct rows of a 2D array in ascending lexicographic order (the
    first column leads) and the index of each row among them, as
    `np.unique(rows, axis=0, return_inverse=True)` gives them, from one
    lexsort and a comparison of neighbours."""
    rows = np.asarray(rows)
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    index = np.empty(len(rows), dtype=np.int64)
    index[order] = np.cumsum(starts) - 1
    return ordered[starts], index


def connected_components(fsl: FSLGraph) -> list:
    """Vertex sets connected through edges, ordered by smallest member."""
    _, labels = sparse.csgraph.connected_components(fsl.csr(), directed=False)
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    return sorted(m.tolist() for m in members)


def _bfs_forest(adj, roots):
    """Breadth-first spanning forest: the parent of every vertex (roots are
    their own parents), each tree grown from its root with neighbours taken
    in ascending order. One search from an extra vertex whose neighbours
    are the roots grows the same trees as one search per root."""
    n = adj.shape[0]
    indptr = np.append(adj.indptr, adj.indptr[-1] + len(roots))
    indices = np.append(adj.indices, roots)
    forest = sparse.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n + 1, n + 1))
    _, pred = sparse.csgraph.breadth_first_order(forest, n, directed=True, return_predecessors=True)
    return np.where(pred[:n] == n, np.arange(n), pred[:n]).astype(np.int64)


def _orient(cycles, weights):
    """Canonical orientation of each row of vertices: counterclockwise in 2D
    weight coordinates when available and non-degenerate, else
    lowest-vertex-first towards the lower of its two neighbours."""
    length = cycles.shape[1]
    area = np.zeros(len(cycles))
    if weights is not None and weights.shape[1] == 2:
        x, y = weights[cycles, 0], weights[cycles, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)
    steps = np.arange(length)
    first = np.argmin(cycles, axis=1)
    rot = np.take_along_axis(cycles, (first[:, None] + steps) % length, axis=1)
    rot = np.where((rot[:, 1] > rot[:, -1])[:, None], rot[:, -steps], rot)
    by_area = np.where((area > 0)[:, None], cycles, cycles[:, ::-1])
    return np.where((np.abs(area) > 1e-12)[:, None], by_area, rot)


def _cycle_fluxes(fsl, flat, lengths, weights):
    """arg of the product of amplitudes around each oriented cycle, in
    (-pi, pi], with a value within FLUX_DEDUP_TOL of +-pi reported as pi:
    the product's round-off puts a flux of pi on either side of the cut.
    Cycle k is the next `lengths[k]` vertices of `flat`. Cycles are taken
    one length at a time, never padded."""
    n = fsl.n_vertices
    edge_keys = _pair_keys(n, *fsl.edges.T)
    starts = np.cumsum(lengths) - lengths
    out = np.empty(len(lengths))
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        a = _orient(flat[starts[rows, None] + np.arange(length)], weights)
        b = np.roll(a, -1, axis=1)
        amp = fsl.amplitudes[np.searchsorted(edge_keys, _pair_keys(n, a, b))]
        # the step a -> b carries H[b, a]: the stored H[i, j] when b < a,
        # else its conjugate
        re, im = amp.real, np.where(b > a, -amp.imag, amp.imag)
        # Python's complex product written out: numpy's vectorised complex
        # multiply can differ from it in the last bit
        pr, pi = np.ones(len(rows)), np.zeros(len(rows))
        for s in range(length):
            pr, pi = pr * re[:, s] - pi * im[:, s], pr * im[:, s] + pi * re[:, s]
        out[rows] = np.arctan2(pi, pr)
    out = (out + np.pi) % (2 * np.pi) - np.pi
    return np.where(np.pi - np.abs(out) < FLUX_DEDUP_TOL, np.pi, out)


def plaquette_fluxes(fsl: FSLGraph, weights=None) -> FluxReport:
    """Fluxes of the shortest ("elementary") cycle through every non-tree
    edge of a breadth-first spanning forest.

    The cycle through a non-tree edge (i, j) is the path from i to j that a
    breadth-first search avoiding the edge finds, neighbours in ascending
    order: the triangle through the smallest common neighbour of i and j
    when there is one, found for all edges by one sparse product, else a
    search of its own (`_elementary_cycles`). Cycles are canonically
    oriented (counterclockwise in `weights`, one row of float coordinates
    per vertex, when they are 2D), so signed flux values are reproducible.
    `independent_classes` counts distinct nonzero elementary flux values
    after identifying a value with its traversal reverse (v ~ -v). Raises
    ValueError on an edge whose amplitude is exactly 0, as its phase is
    undefined.
    """
    n = fsl.n_vertices
    if weights is not None and len(weights) != n:
        raise ValueError(f"weights have {len(weights)} rows for a graph of {n} vertices")
    zero = fsl.edges[fsl.amplitudes == 0]
    if len(zero):
        raise ValueError(f"zero-amplitude edge {tuple(zero[0].tolist())} has no phase")
    adj = fsl.csr()
    _, labels = sparse.csgraph.connected_components(adj, directed=False)
    roots = np.sort(np.unique(labels, return_index=True)[1])  # smallest member of each
    parent = _bfs_forest(adj, roots)

    child = np.flatnonzero(parent != np.arange(n))
    tree = np.searchsorted(_pair_keys(n, *fsl.edges.T), _pair_keys(n, child, parent[child]))
    non_tree = np.delete(fsl.edges, tree, axis=0)  # a tree edge is an edge, so its key is found
    cycle_count = fsl.n_edges - n + len(roots)
    assert len(non_tree) == cycle_count

    flat, lengths = _elementary_cycles(adj, non_tree)
    elementary = _cycle_fluxes(fsl, flat, lengths, weights)

    class_values, independent = _flux_classes(elementary)
    return FluxReport(cycle_count, elementary.tolist(), class_values, independent)


def _flux_classes(values):
    """Distinct nonzero values, ascending, each class starting FLUX_DEDUP_TOL
    or more above the last; and their number after identifying v ~ -v.
    Fluxes near +-pi are already pi (`_cycle_fluxes`), so the smallest and
    largest values are FLUX_DEDUP_TOL or more apart on the circle, and this
    scan merges by circular distance."""
    nonzero = np.sort(values[np.abs(values) > FLUX_DEDUP_TOL])
    class_values = []
    k = 0
    while k < len(nonzero):
        class_values.append(float(nonzero[k]))
        k += int(np.searchsorted(nonzero[k:] - nonzero[k], FLUX_DEDUP_TOL))
    unsigned = []
    for f in class_values:
        if not any(abs(abs(f) - g) < FLUX_DEDUP_TOL for g in unsigned):
            unsigned.append(abs(f))
    return class_values, len(unsigned)


def _elementary_cycles(adj, non_tree):
    """The shortest cycle through each non-tree edge (i, j): the path from i
    to j that a breadth-first search avoiding the edge itself finds, taking
    neighbours in ascending order. Cycle k is the next `lengths[k]` vertices
    of `flat`.

    The first level of the search is done for all edges at once. When i and
    j have a common neighbour, the search reaches j first through the
    smallest one, k, so the cycle is the triangle [i, k, j]; k is the
    smallest column of row (i, j) of the product adj[i] * adj[j], taken
    entry by entry. Only edges without a common neighbour are searched one
    at a time."""
    i, j = non_tree.T
    common = adj[i].multiply(adj[j]).tocsr()
    triangle = np.diff(common.indptr) > 0
    k = np.minimum.reduceat(common.indices, common.indptr[:-1][triangle]) if triangle.any() else i[:0]
    rest = non_tree[~triangle].tolist()
    if rest:
        indptr, indices = adj.indptr.tolist(), adj.indices.tolist()
    paths = [_shortest_path_avoiding(indptr, indices, a, b) for a, b in rest]
    lengths = np.full(len(non_tree), 3, dtype=np.int64)
    lengths[~triangle] = list(map(len, paths))
    searched = np.repeat(~triangle, lengths)
    flat = np.empty(len(searched), dtype=np.int64)
    flat[searched] = np.fromiter(chain.from_iterable(paths), dtype=np.int64)
    flat[~searched] = np.stack((i[triangle], k, j[triangle]), axis=1).ravel()
    return flat, lengths


def _shortest_path_avoiding(indptr, indices, src, dst):
    """BFS shortest path src -> dst avoiding the direct edge (src, dst), on
    CSR lists with ascending neighbours."""
    prev = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in indices[indptr[u]:indptr[u + 1]]:
            if u == src and w == dst:
                continue
            if w not in prev:
                prev[w] = u
                if w == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(prev[path[-1]])
                    return path[::-1]
                queue.append(w)
    raise AssertionError("a non-tree edge always closes a cycle")


def _edge_columns(fsl: FSLGraph) -> dict:
    i, j = fsl.edges.T
    labels = fsl.labels or [None] * fsl.n_edges
    return {"i": i, "j": j, "re": fsl.amplitudes.real, "im": fsl.amplitudes.imag, "label": labels}


def graph_json_text(fsl: FSLGraph, weight_lattice: WeightLattice = None, extra=None) -> str:
    """The export text, `output.json_text` of {"vertices": [...], "edges":
    [...], **extra}: vertex records with id, onsite energy and, given a
    weight lattice, the float weight and site multiplicity; edge records with
    i, j, re/im amplitude and label. The records are written column by
    column from the graph's arrays (`output.records_text`)."""
    vertices = {"id": np.arange(fsl.n_vertices), "onsite": fsl.onsite}
    if weight_lattice is not None:
        vertices["weight"] = weight_lattice.coordinates_float
        vertices["multiplicity"] = weight_lattice.multiplicity_array()[weight_lattice.site_index]
    texts = {"vertices": records_text(vertices), "edges": records_text(_edge_columns(fsl))}
    for key, value in (extra or {}).items():
        texts[key] = json.dumps(value, indent=1, sort_keys=True).replace("\n", "\n ")
    return "{\n " + ",\n ".join(json.dumps(key) + ": " + texts[key] for key in sorted(texts)) + "\n}\n"


def graph_to_adjacency_csv(fsl: FSLGraph) -> str:
    """Spreadsheet-style adjacency listing: i, j, re, im, label per line."""
    columns = _edge_columns(fsl)
    cells = [columns["i"].tolist(), columns["j"].tolist(), float_texts(columns["re"]), float_texts(columns["im"])]
    cells.append(["" if lab is None else lab for lab in columns["label"]])
    return "\n".join(["i,j,re,im,label", *map("%s,%s,%s,%s,%s".__mod__, zip(*cells))]) + "\n"
