"""Catalog of operator algebras in concrete boson/fermion/spin representations,
plus numerical structure-constant extraction, (super-)closure detection,
Casimir verification, and exact reference states.

Every catalog entry realizes its generators over an explicit FockBasis and
classifies them into mutually commuting diagonal (Cartan) generators and
raising/lowering pairs carrying a root vector. A builder states only the
exact Cartan weights of the basis states (`cartan_weights`, integer
numerators over one denominator, in per-Cartan eigenvalue units;
`cartan_units` holds the possibly irrational unit, e.g. 1/sqrt(3)) and its
off-diagonal generators. Everything else is read off the weights (`_model`):
each Cartan generator is its column of weights as a diagonal, and each root
is the exact weight step along the stored entries of its raising generator,
so a raising generator with no entries on the basis is refused. The
operators carry no exact values.

Representations on truncated bases break the algebraic identities in the
outermost cutoff levels; identity checks therefore run on an interior block
that excludes DEFAULT_BOUNDARY_WINDOW (2) boundary states. Each check reads a
block P A P through one reader, which takes its stored entries and their flat
positions straight off the operator's CSR arrays: norms are taken over them,
and the closure span and structure-constant fit are rows of one array over the
flat positions, so the checks scale with the non-zeros, not with dim^2. The
reference states are read off the stored entries too, with no dense copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import numpy as np
import scipy.sparse as sparse

from .errors import DegenerateGeneratorsError, configure, lookup
from .fock import DEFAULT_BOUNDARY_WINDOW, FERMION, FockBasis, boson, fermion, spin
from .lattice import WeightLattice, weight_coordinates
from .operators import (
    ODD,
    SparseOperator,
    diagonal_op,
    graded_commutator,
    identity,
    ladder_ops,
    number_op,
    transfer_op,
)

@dataclass(frozen=True)
class RootPair:
    """Indices (into the generator list) of a raising/lowering pair and the
    root vector of the raising generator, in Cartan-eigenvalue units."""

    raising: int
    lowering: int
    root: tuple


@dataclass
class AlgebraModel:
    name: str
    params: dict
    basis: FockBasis
    labels: list
    generators: list
    cartan: list
    root_pairs: list
    cartan_units: tuple
    cartan_weights: tuple      # (numerators (dim, rank) int64, denominator), in cartan_units
    annihilators: list = field(default_factory=list)
    casimirs: dict = field(default_factory=dict)
    truncated_modes: tuple = ()
    two_sided_modes: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.generators)

    def generator(self, label) -> SparseOperator:
        return self.generators[self.labels.index(label)]

    def root_pair(self, label) -> RootPair:
        """The root pair with `label` as either member; ValueError if none has."""
        for rp in self.root_pairs:
            if label in (self.labels[rp.raising], self.labels[rp.lowering]):
                return rp
        raise ValueError(f"no root pair with label {label!r} in {self.name}")

    def interior(self) -> np.ndarray:
        """Mask of basis states DEFAULT_BOUNDARY_WINDOW or more from a truncation boundary."""
        return self.basis.interior_mask(self.truncated_modes, self.two_sided_modes)

    def cartan_ops(self):
        return [self.generators[i] for i in self.cartan]

    def weight_lattice(self) -> WeightLattice:
        """Exact Cartan weights of the basis states; the float coordinates
        are the Cartan generators' diagonals."""
        floats = np.stack([op.diagonal().real for op in self.cartan_ops()], axis=-1)
        return weight_coordinates(*self.cartan_weights, floats)


@dataclass
class StructureConstants:
    """Raw bracket coefficients c with [X_a, X_b} = sum_c coeffs[a,b,c] X_c.

    `f` rescales to the convention [X_a, X_b] = i f_ab^c X_c. `residuals`
    holds the per-pair relative norm of the part of the bracket outside the
    generator span; `closed` is true when the largest residual is at most
    `CLOSURE_TOL` (1e-10), the threshold `lie_closure` uses.
    """

    labels: list
    coeffs: np.ndarray
    residuals: np.ndarray
    closed: bool

    @property
    def f(self) -> np.ndarray:
        return self.coeffs / 1j

    def coefficient(self, a, b, c) -> complex:
        ia, ib, ic = (self.labels.index(x) for x in (a, b, c))
        return complex(self.coeffs[ia, ib, ic])


@dataclass
class ClosureReport:
    """`max_residual` is the largest r / max(||[X_i, X_j}||, ||X_i|| ||X_j||)
    over the brackets that were not added, r being the norm of a bracket's
    part outside the orthonormal span it was tested against, all on the
    interior block. Every pair is bracketed once, and the span only grows, so
    each such ratio bounds that bracket's residual against the final span;
    a bracket is added exactly when its ratio exceeds `tol`, so
    `closed=True` implies `max_residual <= tol`. NaN when `closed` is False
    (the span exceeded `cap`). No structure constants are fitted, so
    `lie_closure` never raises `DegenerateGeneratorsError`; for coefficients
    call `extract_structure_constants`, which keeps its conditioning checks.
    """

    iterations: list
    closed: bool
    dimension: int
    cap: int
    added_labels: list
    max_residual: float


# ---------------------------------------------------------------------------
# closure and structure constants
# ---------------------------------------------------------------------------

CLOSURE_TOL = 1e-10


def _norm(entries) -> float:
    """Frobenius norm of an interior block, from its `entries` (flat, data)."""
    return float(np.linalg.norm(entries[1]))


def _find(keys, flat):
    """Positions of `flat` in the sorted `keys`, and which of them hold it."""
    pos = np.searchsorted(keys, flat)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == flat[hit]
    return pos, hit


def _sorted_unique(flat):
    """np.unique(flat) by one sort and a mask of repeats; numpy 2.4's hashes."""
    flat = np.sort(flat)
    keep = np.ones(len(flat), dtype=bool)
    keep[1:] = flat[1:] != flat[:-1]
    return flat[keep]


def _on_keys(entries, keys):
    """The block's entries at the sorted flat positions `keys` (zeros where it
    stores none), and the norm of the entries it stores elsewhere."""
    flat, data = entries
    pos, hit = _find(keys, flat)
    row = np.zeros(len(keys), dtype=complex)
    row[pos[hit]] = data[hit]
    return row, float(np.linalg.norm(data[~hit]))


def _interior_and_labels(ops, interior, labels):
    """The interior reader and the labels (g0, g1, ... when none are given).
    `entries(op)` gives (flat, data) of the stored entries of op's block P A P
    (all of A when `interior` is None), in storage order: their row-major
    positions in the block, through one map from basis index to interior
    position (-1 outside), and their values."""
    mask = np.ones(ops[0].dim, bool) if interior is None else np.asarray(interior, bool)
    n = int(np.count_nonzero(mask))
    where = np.full(len(mask), -1)
    where[mask] = np.arange(n)

    def entries(op):
        rows, cols = np.repeat(where, np.diff(op.mat.indptr)), where[op.mat.indices]
        keep = (rows >= 0) & (cols >= 0)
        return rows[keep] * n + cols[keep], op.mat.data[keep]

    return entries, labels if labels is not None else [f"g{i}" for i in range(len(ops))]


class _Span:
    """Orthonormal span of operators under the interior trace inner product.

    The span is one dense (n_span, n_keys) complex array `q`: row k holds
    the k-th orthonormal direction at the sorted row-major flat positions
    `keys` of the interior block, the union of the supports seen so far.
    A block's positions are found in `keys` by one np.searchsorted; the
    support grows by a sorted merge of the positions outside it, and the
    wider pattern is one scatter into a wider array. Each of the two
    projection passes (classical Gram-Schmidt twice) is two GEMVs.
    """

    def __init__(self, entries):
        self.entries = entries
        self.keys = np.empty(0, dtype=np.int64)
        self.q = np.empty((0, 0), dtype=complex)

    def try_add(self, op, scale, tol=CLOSURE_TOL) -> float:
        """Add the part of `op`'s interior block outside the span when its
        norm r exceeds tol * max(||v||, scale). Returns the ratio it tested,
        r / max(||v||, scale); the direction was added iff that exceeds tol."""
        v = self.entries(op)
        norm_v = _norm(v)
        denom = max(norm_v, scale) or 1.0
        if norm_v / denom <= tol:  # r <= ||v||: nothing to project or add
            return norm_v / denom
        flat, data = v
        pos, hit = _find(self.keys, flat)
        if not hit.all():  # grow the support by the positions outside it
            keys = _sorted_unique(np.concatenate([self.keys, flat[~hit]]))
            q = np.zeros((len(self.q), len(keys)), dtype=complex)
            q[:, np.searchsorted(keys, self.keys)] = self.q
            self.keys, self.q = keys, q
            pos = np.searchsorted(keys, flat)
        r = np.zeros(len(self.keys), dtype=complex)
        r[pos] = data  # every stored entry is now on the support
        for _ in range(2):  # the second pass guards against cancellation
            r -= (self.q @ r.conj()).conj() @ self.q
        rn = float(np.linalg.norm(r))
        ratio = rn / denom
        if ratio > tol:
            self.q = np.vstack([self.q, r / rn])
        return ratio

    def __len__(self):
        return len(self.q)


def lie_closure(
    seed,
    cap,
    interior=None,
    labels=None,
    tol=CLOSURE_TOL,
) -> ClosureReport:
    """Repeatedly bracket pairs, adding independent directions until a
    fixed point or until the span exceeds `cap`. Each pair is bracketed
    once: a round brackets only the pairs with a member that joined in the
    previous round, since an older pair was tested against a smaller span
    and the span only grows.

    Pairs are bracketed by `graded_commutator`, so two odd operators give
    their anticommutator, labelled {a,b}. `interior` is a boolean mask
    restricting the inner product to truncation-safe states.
    """
    seed = list(seed)
    if cap < len(seed):
        raise ValueError(f"cap {cap} is smaller than the seed size {len(seed)}")
    entries, labels = _interior_and_labels(seed, interior, labels)

    span = _Span(entries)
    ops, names, norms = [], [], []
    for op, lab in zip(seed, labels):
        norm = _norm(entries(op))
        if span.try_add(op, scale=norm, tol=tol) > tol:
            ops.append(op)
            names.append(lab)
            norms.append(norm)
    added = []
    dims = [len(span)]
    worst = 0.0
    start = 0  # ops[start:] joined in the previous round (the seed: all)

    while True:
        k = len(ops)
        for i in range(k):
            for j in range(max(i + 1, start), k):
                br = graded_commutator(ops[i], ops[j])
                ratio = span.try_add(br, scale=norms[i] * norms[j], tol=tol)
                if ratio > tol:
                    both_odd = ops[i].grade == ODD and ops[j].grade == ODD
                    ops.append(br)
                    names.append(("{%s,%s}" if both_odd else "[%s,%s]") % (names[i], names[j]))
                    norms.append(_norm(entries(br)))
                    added.append(names[-1])
                    if len(span) > cap:
                        dims.append(len(span))
                        return ClosureReport(dims, False, len(span), cap, added, np.nan)
                else:
                    worst = max(worst, ratio)
        dims.append(len(span))
        if len(span) == k:
            return ClosureReport(dims, True, len(span), cap, added, worst)
        start = k


def extract_structure_constants(gens, interior=None, labels=None) -> StructureConstants:
    """Least-squares projection of every pairwise `graded_commutator` onto the
    generator span under the interior trace inner product."""
    gens = list(gens)
    if len(gens) < 2:
        raise ValueError("need at least two generators")
    entries, labels = _interior_and_labels(gens, interior, labels)

    n = len(gens)
    blocks = [entries(g) for g in gens]
    keys = _sorted_unique(np.concatenate([flat for flat, _ in blocks]))
    rows = np.array([_on_keys(x, keys)[0] for x in blocks])
    gram = rows.conj() @ rows.T
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] <= 0 or sv[0] / sv[-1] > 1e12:
        _, _, vh = np.linalg.svd(gram)
        weights = np.abs(vh[-1])
        suspects = [labels[i] for i in np.where(weights > 0.3)[0]]
        raise DegenerateGeneratorsError(suspects or labels)
    gram_pinv = np.linalg.pinv(gram, rcond=1e-12)

    coeffs = np.zeros((n, n, n), dtype=complex)
    residuals = np.zeros((n, n))
    norms = np.linalg.norm(rows, axis=1)
    for a in range(n):
        for b in range(a + 1, n):
            v = entries(graded_commutator(gens[a], gens[b]))
            nv = _norm(v)
            if nv <= 1e-13 * norms[a] * norms[b]:
                continue
            # one bracket at a time; entries off the generators' pattern are left over
            v, outside = _on_keys(v, keys)
            lam = gram_pinv @ (rows.conj() @ v)
            # the explicit difference keeps the 1e-10 relative residual
            # resolvable; ||v||^2 - c^H G^-1 c would have to resolve 1e-20
            inside = np.linalg.norm(v - lam @ rows)
            coeffs[a, b] = lam
            residuals[a, b] = np.hypot(inside, outside) / nv
            both_odd = gens[a].grade == ODD and gens[b].grade == ODD
            sign = 1.0 if both_odd else -1.0
            coeffs[b, a] = sign * lam
            residuals[b, a] = residuals[a, b]
    return StructureConstants(
        labels, coeffs, residuals, bool(np.max(residuals) <= CLOSURE_TOL)
    )


def verify_casimir(op: SparseOperator, model: AlgebraModel) -> float:
    """max over generators of ||[op, X]|| / (||op|| ||X||) on the interior block."""
    entries, _ = _interior_and_labels(model.generators, model.interior(), model.labels)
    op_norm = _norm(entries(op))
    worst = 0.0
    for g in model.generators:
        g_norm = _norm(entries(g))
        if op_norm == 0 or g_norm == 0:
            continue
        comm = graded_commutator(op, g)
        worst = max(worst, _norm(entries(comm)) / (op_norm * g_norm))
    return float(worst)


def find_reference_states(model: AlgebraModel) -> list:
    """The interior basis states in the annihilators' joint kernel, as unit
    vectors in ascending basis order. No annihilator may send two states onto
    one (ValueError: a row with two stored entries), so the stored columns are
    independent and the kernel is spanned by the states with none. An empty
    list is legitimate (the translationally invariant chain has none)."""
    if not model.annihilators:
        return []
    stacked = sparse.vstack([model.generators[i].mat for i in model.annihilators], format="csr")
    if np.any(np.diff(stacked.indptr) > 1):
        raise ValueError(f"an annihilator of {model.name} sends two basis states onto one")
    free = model.interior() & (np.bincount(stacked.indices, minlength=model.basis.dim) == 0)
    return [np.eye(1, len(free), v, dtype=complex)[0] for v in np.flatnonzero(free)]


def verify_model(model: AlgebraModel) -> dict:
    """Self-check report: Cartan diagonality/commutativity, root eigen-relations,
    closure of the generator set (capped at 4 * dim + 8), and Casimir residuals."""
    interior = model.interior()
    entries, _ = _interior_and_labels(model.generators, interior, model.labels)
    scale = max((_norm(entries(g)) for g in model.generators), default=1.0)

    cartan = model.cartan_ops()
    cartan_ok = all(h.is_diagonal() for h in cartan)
    for i, hi in enumerate(cartan):
        for hj in cartan[i + 1 :]:
            if _norm(entries(graded_commutator(hi, hj))) > 1e-12 * scale**2:
                cartan_ok = False

    root_ok = True
    root_worst = 0.0
    for pair in model.root_pairs:
        e = model.generators[pair.raising]
        enorm = _norm(entries(e))
        # the root in physical (float) Cartan eigenvalues is unit * root
        for h, unit, r in zip(cartan, model.cartan_units, pair.root):
            diff = SparseOperator(graded_commutator(h, e).mat - unit * float(r) * e.mat)
            rel = _norm(entries(diff)) / max(enorm, 1e-300)
            root_worst = max(root_worst, rel)
            if rel > 1e-10 * max(1.0, _norm(entries(h))):
                root_ok = False

    report = lie_closure(
        model.generators,
        cap=4 * model.dim + 8,
        interior=interior,
        labels=list(model.labels),
    )
    return {
        "cartan_ok": bool(cartan_ok),
        "root_eigen_ok": bool(root_ok),
        "root_worst_rel": float(root_worst),
        "closure": {
            "dim": report.dimension,
            "closed": report.closed,
            "residual": None if not report.closed else report.max_residual,
        },
        "casimirs": [{"label": k, "residual": verify_casimir(op, model)} for k, op in model.casimirs.items()],
    }


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _root(op, num, den, label) -> tuple:
    """Root of a raising generator: the exact weight step along its stored
    entries, which must all make the same step."""
    coo = op.mat.tocoo()
    steps = num[coo.row] - num[coo.col]
    if not len(steps):
        raise ValueError(f"raising generator {label} has no entries on this basis, so it has no root")
    if np.any(steps != steps[0]):
        raise ValueError(f"raising generator {label} does not move every state by one root")
    return tuple(Fraction(int(d), den) for d in steps[0])


def _model(name, params, basis, weights, generators, pairs, annihilators, scale=None, **fields) -> AlgebraModel:
    """The model of a catalog builder, from what the builder states itself.

    `generators` maps each label, in generator order, to its operator, or to
    None for a Cartan generator: the k-th None becomes the diagonal
    num[:, k] / den / scale[k] of the exact weights `weights` = (num, den),
    with the unit 1 / scale[k] (scale defaults to all ones). Each
    (raising, lowering) label pair of `pairs` gets its root from the
    raising generator's entries. `annihilators` are labels; `fields` are the
    remaining AlgebraModel fields (casimirs, truncated_modes, two_sided_modes).
    """
    num, den = weights
    scale = scale or (1.0,) * num.shape[1]
    labels = list(generators)
    gens = list(generators.values())
    cartan = [i for i, op in enumerate(gens) if op is None]
    for k, i in enumerate(cartan):
        gens[i] = diagonal_op(num[:, k] / den / scale[k])
    return AlgebraModel(
        name=name,
        params=params,
        basis=basis,
        labels=labels,
        generators=gens,
        cartan=cartan,
        root_pairs=[
            RootPair(labels.index(up), labels.index(down), _root(generators[up], num, den, up))
            for up, down in pairs
        ],
        cartan_units=tuple(1.0 / s for s in scale),
        cartan_weights=weights,
        annihilators=[labels.index(label) for label in annihilators],
        **fields,
    )


def _quadratic_casimir(model) -> SparseOperator:
    """sum_k H_k^2 + sum over root pairs of (E F + F E) / 2."""
    squares = sum(h.mat @ h.mat for h in model.cartan_ops())
    gens = model.generators
    pairs = ((gens[rp.raising].mat, gens[rp.lowering].mat) for rp in model.root_pairs)
    return SparseOperator(squares + sum(0.5 * (e @ f + f @ e) for e, f in pairs))


def _e2(L=21):
    """Shift algebra of a finite chain: position operator plus unit shifts.

    The chain truncates an infinite lattice at both ends, so identity checks
    exclude a window at both boundaries.
    """
    if L < 5:
        raise ValueError("chain length must be at least 5")
    basis = FockBasis([boson(L - 1)])
    offset = (L - 1) // 2
    sites = np.arange(L) - offset
    ep = SparseOperator(sparse.eye(L, k=-1, dtype=complex, format="csr"))
    em = ep.dagger()
    return _model(
        "e2",
        {"L": L},
        basis,
        (sites[:, None], 1),
        {"E0": None, "E+": ep, "E-": em},
        pairs=[("E+", "E-")],
        annihilators=["E+"],
        casimirs={"shift_product": SparseOperator(ep.mat @ em.mat)},
        two_sided_modes=(0,),
    )


def _hw(cutoff=20):
    """Single bosonic mode: ladder pair, number operator, identity."""
    basis = FockBasis([boson(cutoff)])
    a, adag = ladder_ops(basis, 0)
    one = identity(basis)
    return _model(
        "hw",
        {"cutoff": cutoff},
        basis,
        (basis.occ, 1),
        {"a": a, "adag": adag, "n": None, "I": one},
        pairs=[("adag", "a")],
        annihilators=["a"],
        casimirs={"identity": one},
        truncated_modes=(0,),
    )


def _su2_spin(S=1):
    """Spin-S angular momentum triple on a single spin mode."""
    spec = spin(S)
    basis = FockBasis([spec])
    sm, sp_ = ladder_ops(basis, 0)
    two_m = 2 * np.arange(spec.levels) - spec.capacity
    model = _model(
        "su2_spin",
        {"S": spec.spin_s},
        basis,
        (two_m[:, None], 2),
        {"Sz": None, "S+": sp_, "S-": sm},
        pairs=[("S+", "S-")],
        annihilators=["S+"],
    )
    model.casimirs["S2"] = _quadratic_casimir(model)
    return model


def _su2_schwinger(N=4):
    """Two-boson realization of the spin algebra on the fixed-N sector."""
    basis = FockBasis([boson(N), boson(N)], constraint=N)
    na, nb = basis.occ.T
    sp_ = transfer_op(basis, 0, 1)
    model = _model(
        "su2_schwinger",
        {"N": N},
        basis,
        ((na - nb)[:, None], 2),
        {"Sz": None, "S+": sp_, "S-": sp_.dagger()},
        pairs=[("S+", "S-")],
        annihilators=["S+"],
        casimirs={"total_number": diagonal_op((na + nb).astype(float))},
    )
    model.casimirs["S2"] = _quadratic_casimir(model)
    return model


def _su3_schwinger(N=3):
    """Three-boson realization with two diagonal generators and three
    raising/lowering pairs; the fixed-N sector is a triangular lattice.
    H2 is (na + nb - 2 nc) / (2 sqrt(3)), so its unit is 1/sqrt(3)."""
    basis = FockBasis([boson(N)] * 3, constraint=N)
    na, nb, nc = basis.occ.T
    ip = transfer_op(basis, 0, 1)
    up = transfer_op(basis, 1, 2)
    vp = transfer_op(basis, 0, 2)
    model = _model(
        "su3_schwinger",
        {"N": N},
        basis,
        (np.stack([na - nb, na + nb - 2 * nc], axis=1), 2),
        {"H1": None, "H2": None, "I+": ip, "I-": ip.dagger(),
         "U+": up, "U-": up.dagger(), "V+": vp, "V-": vp.dagger()},
        pairs=[("I+", "I-"), ("U+", "U-"), ("V+", "V-")],
        annihilators=["I+", "U+", "V+"],
        scale=(1.0, np.sqrt(3.0)),
        casimirs={"total_number": diagonal_op((na + nb + nc).astype(float))},
    )
    model.casimirs["quadratic"] = _quadratic_casimir(model)
    return model


def _so5_quoted(N=2):
    """Four-boson, fixed-N representation with the commonly quoted ten-element
    generator list (two diagonal, four raising/lowering pairs). The quoted
    set is not closed under commutation; closure and site-count diagnostics
    report whatever they find."""
    basis = FockBasis([boson(N)] * 4, constraint=N)
    n_au, n_ad, n_bu, n_bd = basis.occ.T
    sa = transfer_op(basis, 0, 1)   # a-spin flip up
    sb = transfer_op(basis, 2, 3)   # b-spin flip up
    sab = transfer_op(basis, 0, 3)  # cross flip along (1/2, 1/2)
    sba = transfer_op(basis, 1, 2)  # cross flip along (-1/2, -1/2)
    return _model(
        "so5_quoted",
        {"N": N},
        basis,
        (np.stack([n_au - n_ad, n_bu - n_bd], axis=1), 2),
        {"H1": None, "H2": None, "Sa+": sa, "Sa-": sa.dagger(), "Sb+": sb, "Sb-": sb.dagger(),
         "Sab+": sab, "Sab-": sab.dagger(), "Sba+": sba, "Sba-": sba.dagger()},
        pairs=[("Sa+", "Sa-"), ("Sb+", "Sb-"), ("Sab+", "Sab-"), ("Sba+", "Sba-")],
        annihilators=["Sa+", "Sb+", "Sab+", "Sba+"],
        casimirs={"total_number": diagonal_op((n_au + n_ad + n_bu + n_bd).astype(float))},
    )


def _su11_chain(name, params, basis, weights, kp: SparseOperator):
    """su(1,1) from its raising generator K+ and the exact weights of K0;
    every mode is truncated."""
    km = kp.dagger()
    k1 = SparseOperator(0.5 * (kp.mat + km.mat))
    k2 = SparseOperator((kp.mat - km.mat) / 2j)
    model = _model(
        name,
        params,
        basis,
        weights,
        {"K0": None, "K+": kp, "K-": km},
        pairs=[("K+", "K-")],
        annihilators=["K-"],
        truncated_modes=tuple(range(len(basis.modes))),
    )
    k0 = model.generators[0]
    model.casimirs["hyperbolic"] = SparseOperator(k0.mat @ k0.mat - k1.mat @ k1.mat - k2.mat @ k2.mat)
    return model


def _su11_single(k=Fraction(1, 4), cutoff=40):
    """Squeezing representation on a single mode: K+ = (a^dag)^2 / 2.

    k = 1/4 works on the even chain (reference |0>), k = 3/4 on the odd
    chain (reference |1>); the operators themselves live on the full basis.
    """
    k = Fraction(k)
    if k not in (Fraction(1, 4), Fraction(3, 4)):
        raise ValueError("k must be 1/4 or 3/4 for the single-mode representation")
    basis = FockBasis([boson(cutoff)])
    adag = ladder_ops(basis, 0)[1]
    four_k0 = 2 * np.arange(basis.dim) + 1
    kp = SparseOperator(adag.mat @ adag.mat * 0.5)
    return _su11_chain("su11_single", {"k": k, "cutoff": cutoff}, basis, (four_k0[:, None], 4), kp)


def _su11_intensity(cutoff=40):
    """Intensity-dependent representation: K+ |n> = (n+1) |n+1>, k = 1/2."""
    basis = FockBasis([boson(cutoff)])
    n = np.arange(basis.dim)
    kp = SparseOperator(sparse.diags(n[1:].astype(complex), -1, format="csr"))
    params = {"k": Fraction(1, 2), "cutoff": cutoff}
    return _su11_chain("su11_intensity", params, basis, ((2 * n + 1)[:, None], 2), kp)


def _su11_twomode(cutoff=20):
    """Two-mode squeezing representation: K+ = a^dag b^dag."""
    basis = FockBasis([boson(cutoff)] * 2)
    adag = ladder_ops(basis, 0)[1]
    bdag = ladder_ops(basis, 1)[1]
    kp = SparseOperator(adag.mat @ bdag.mat)
    na, nb = basis.occ.T
    model = _su11_chain("su11_twomode", {"cutoff": cutoff}, basis, ((na + nb + 1)[:, None], 2), kp)
    model.casimirs["imbalance"] = diagonal_op((na - nb).astype(float))
    return model


def _quadratic_modes(name, params, basis, **fields):
    """Quadratic algebra of the modes of `basis`: half-shifted number
    operators D_i (Cartan), hoppings h_ij = c_i^dag c_j (i != j), pair
    raisers p_ij+ = c_i^dag c_j^dag and lowerers p_ij-, for i <= j on boson
    modes and i < j on fermion modes. Bosons list the hopping pairs before
    the pair pairs; fermions list each (i, j) hopping pair beside its pair
    pair."""
    m = len(basis.modes)
    fermion_modes = any(spec.kind == FERMION for spec in basis.modes)
    low = [ladder_ops(basis, i)[0] for i in range(m)]
    raise_ = [op.dagger() for op in low]
    gens = {f"D{i}": None for i in range(m)}
    for i, j in permutations(range(m), 2):
        gens[f"h{i}{j}"] = SparseOperator(raise_[i].mat @ low[j].mat)
    ij = [(i, j) for i in range(m) for j in range(i + fermion_modes, m)]
    for i, j in ij:
        gens[f"p{i}{j}+"] = SparseOperator(raise_[i].mat @ raise_[j].mat)
    for i, j in ij:
        if fermion_modes:
            gens[f"p{i}{j}-"] = gens[f"p{i}{j}+"].dagger()  # = c_j c_i, sign included
        else:
            gens[f"p{i}{j}-"] = SparseOperator(low[i].mat @ low[j].mat)
    hops = [(f"h{i}{j}", f"h{j}{i}") for i in range(m) for j in range(i + 1, m)]
    pairs = [(f"p{i}{j}+", f"p{i}{j}-") for i, j in ij]
    return _model(
        name,
        params,
        basis,
        (2 * basis.occ + (-1 if fermion_modes else 1), 2),
        gens,
        pairs=[p for two in zip(hops, pairs) for p in two] if fermion_modes else hops + pairs,
        annihilators=[label for label in gens if label[0] == "h"] + [label for label in gens if label[-1] == "-"],
        **fields,
    )


def _sp2n_boson(modes=2, cutoff=6):
    """Quadratic bosonic algebra: hoppings, pair creators/annihilators, and
    half-shifted number operators, N(2N+1) generators in total."""
    basis = FockBasis([boson(cutoff)] * modes)
    params = {"modes": modes, "cutoff": cutoff}
    return _quadratic_modes("sp2n_boson", params, basis, truncated_modes=tuple(range(modes)))


def _so2n_fermion(modes=2):
    """Quadratic fermionic algebra on 2^N states: hoppings, pairings, and
    half-shifted number operators, N(2N-1) generators; all grades even."""
    return _quadratic_modes("so2n_fermion", {"modes": modes}, FockBasis([fermion()] * modes))


def _jc_super(cutoff=10):
    """Excitation-conserving boson-fermion superalgebra: two even number
    operators and an odd raising/lowering pair."""
    basis = FockBasis([boson(cutoff), fermion()])
    adag = ladder_ops(basis, 0)[1]
    c = ladder_ops(basis, 1)[0]
    r = SparseOperator(adag.mat @ c.mat, grade=ODD)
    ntot = diagonal_op(basis.occ.sum(axis=1).astype(float))
    return _model(
        "jc_super",
        {"cutoff": cutoff},
        basis,
        (basis.occ, 1),
        {"n_b": None, "n_f": None, "bf+": r, "bf-": r.dagger()},
        pairs=[("bf+", "bf-")],
        annihilators=["bf+"],
        casimirs={"excitations": ntot},
        truncated_modes=(0,),
    )


CATALOG = {
    "e2": _e2,
    "hw": _hw,
    "su2_spin": _su2_spin,
    "su2_schwinger": _su2_schwinger,
    "su3_schwinger": _su3_schwinger,
    "so5_quoted": _so5_quoted,
    "su11_single": _su11_single,
    "su11_intensity": _su11_intensity,
    "su11_twomode": _su11_twomode,
    "sp2n_boson": _sp2n_boson,
    "so2n_fermion": _so2n_fermion,
    "jc_super": _jc_super,
}


def build_algebra(name, **params) -> AlgebraModel:
    """Instantiate a catalog algebra over its matching Fock basis; `params`
    are passed to its builder by `errors.configure`."""
    return configure(lookup(CATALOG, name, "algebra"), params, "algebra")


# ---------------------------------------------------------------------------
# non-closing seeds used by the closure gallery
# ---------------------------------------------------------------------------


def rabi_seed(cutoff=12):
    """Number operator, inversion, rotating and counter-rotating couplings of
    a driven two-level system on a truncated boson times spin-1/2 register.
    Returns (ops, labels, interior_mask)."""
    basis = FockBasis([boson(int(cutoff)), spin(Fraction(1, 2))])
    a, adag = ladder_ops(basis, 0)
    sm, sp_ = ladder_ops(basis, 1)
    sz = diagonal_op((2.0 * basis.occupations_of_mode(1) - 1.0).astype(float))
    rot = SparseOperator(a.mat @ sp_.mat + adag.mat @ sm.mat)
    counter = SparseOperator(a.mat @ sm.mat + adag.mat @ sp_.mat)
    n = number_op(basis, 0)
    mask = basis.interior_mask(truncated_modes=(0,))
    return [n, sz, rot, counter], ["n", "sz", "g+", "g-"], mask


def lmg_seed(S=8):
    """Inversion plus squared transverse spin; the quadratic term prevents
    closure. Returns (ops, labels, interior_mask=None)."""
    model = _su2_spin(S)
    sz, sp_, sm = model.generators
    sx = SparseOperator(0.5 * (sp_.mat + sm.mat))
    sx2 = SparseOperator(sx.mat @ sx.mat / float(S))
    return [sz, sx2], ["Sz", "Sx2/S"], None
