"""Catalog of operator algebras in concrete boson/fermion/spin representations,
plus numerical structure-constant extraction, (super-)closure detection,
Casimir verification, and reference-state search.

Every catalog entry realizes its generators over an explicit FockBasis and
classifies them into mutually commuting diagonal (Cartan) generators and
raising/lowering pairs carrying a root vector. Root vectors are stored as
exact rationals in per-Cartan eigenvalue units (`cartan_units` holds the
possibly irrational unit, e.g. 1/sqrt(3)).

Representations on truncated bases break the algebraic identities in the
outermost cutoff levels; identity checks therefore run on an interior block
that excludes a configurable window (default 2) of boundary states. The
blocks P A P stay sparse: norms are taken over their stored entries, and the
closure span and structure-constant fit hold blocks as rows of one array over
their stored flat positions, so the checks scale with the operators' non-zeros
rather than with the square of the basis dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from .errors import DegenerateGeneratorsError
from .fock import FockBasis, boson, fermion, spin
from .operators import (
    EVEN,
    ODD,
    SparseOperator,
    diagonal_op,
    graded_commutator,
    identity,
    ladder_ops,
    number_op,
    transfer_op,
)

DEFAULT_BOUNDARY_WINDOW = 2


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
    graded: bool = False
    annihilators: list = field(default_factory=list)
    casimirs: dict = field(default_factory=dict)
    truncated_modes: tuple = ()
    two_sided_modes: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.generators)

    def generator(self, label) -> SparseOperator:
        return self.generators[self.labels.index(label)]

    def interior(self, window=DEFAULT_BOUNDARY_WINDOW) -> np.ndarray:
        """Mask of basis states unaffected by basis truncation."""
        return self.basis.interior_mask(
            window=window,
            truncated_modes=self.truncated_modes,
            two_sided_modes=self.two_sided_modes,
        )

    def cartan_ops(self):
        return [self.generators[i] for i in self.cartan]

    def root_float(self, pair: RootPair) -> np.ndarray:
        """Root vector in physical (float) Cartan eigenvalues."""
        return np.array(
            [u * float(r) for u, r in zip(self.cartan_units, pair.root)]
        )


@dataclass
class StructureConstants:
    """Raw bracket coefficients c with [X_a, X_b} = sum_c coeffs[a,b,c] X_c.

    `f` rescales to the convention [X_a, X_b] = i f_ab^c X_c. `residuals`
    holds the per-pair relative norm of the part of the bracket outside the
    generator span; `closed` is true when the largest residual is below 1e-10.
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
    over the brackets of the final round, r being the norm of a bracket's part
    outside the orthonormal span, all on the interior block. That round adds
    nothing, so `closed=True` implies `max_residual <= tol`; NaN when `closed`
    is False (the span exceeded `cap`). No structure constants are fitted, so
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


def _norm(block) -> float:
    """Frobenius norm of a sparse block, from its stored entries."""
    return float(np.linalg.norm(block.data))


def _flat_keys(block) -> np.ndarray:
    """Row-major flat positions of the stored entries of a CSR block."""
    rows = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
    return rows * block.shape[1] + block.indices


def _on_keys(block, keys):
    """The block's entries at the sorted flat positions `keys` (zeros where it
    stores none), and the norm of the entries it stores elsewhere."""
    flat = _flat_keys(block)
    pos = np.searchsorted(keys, flat)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == flat[hit]
    row = np.zeros(len(keys), dtype=complex)
    row[pos[hit]] = block.data[hit]
    return row, float(np.linalg.norm(block.data[~hit]))


def _interior_and_labels(ops, interior, labels):
    """Interior basis indices (all of them when `interior` is None) and the
    labels, g0, g1, ... when none are given."""
    idx = np.arange(ops[0].dim) if interior is None else np.flatnonzero(np.asarray(interior, bool))
    return idx, labels if labels is not None else [f"g{i}" for i in range(len(ops))]


def _bracket(a, b, graded):
    """[a, b}: the graded bracket when `graded`, else the plain commutator."""
    if graded:
        return graded_commutator(a, b)
    return SparseOperator(a.mat @ b.mat - b.mat @ a.mat, grade=a.grade ^ b.grade)


class _Span:
    """Orthonormal span of operators under the interior trace inner product.

    The span is one dense (n_span, n_keys) complex array `q`: row k holds
    the k-th orthonormal direction at the sorted row-major flat positions
    `keys` of the interior block, the union of the supports seen so far.
    A growing pattern is one scatter into a wider array, and each of the two
    projection passes (classical Gram-Schmidt twice) is two GEMVs.
    """

    def __init__(self, interior_idx):
        self.idx = interior_idx
        self.keys = np.empty(0, dtype=np.int64)
        self.q = np.empty((0, 0), dtype=complex)

    def try_add(self, op, scale, tol=CLOSURE_TOL) -> float:
        """Add the part of `op`'s interior block outside the span when its
        norm r exceeds tol * max(||v||, scale). Returns the ratio it tested,
        r / max(||v||, scale); the direction was added iff that exceeds tol."""
        v = op.block(self.idx)
        norm_v = _norm(v)
        denom = max(norm_v, scale) or 1.0
        if norm_v / denom <= tol:  # r <= ||v||: nothing to project or add
            return norm_v / denom
        keys = np.union1d(self.keys, _flat_keys(v))
        if len(keys) > len(self.keys):
            q = np.zeros((len(self.q), len(keys)), dtype=complex)
            q[:, np.searchsorted(keys, self.keys)] = self.q
            self.keys, self.q = keys, q
        r, _ = _on_keys(v, self.keys)
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
    graded=False,
    interior=None,
    labels=None,
    tol=CLOSURE_TOL,
) -> ClosureReport:
    """Repeatedly bracket all pairs, adding independent directions until a
    fixed point or until the span exceeds `cap`.

    When `graded`, odd-odd pairs use the anticommutator. `interior` is a
    boolean mask restricting the inner product to truncation-safe states.
    """
    seed = list(seed)
    if cap < len(seed):
        raise ValueError(f"cap {cap} is smaller than the seed size {len(seed)}")
    idx, labels = _interior_and_labels(seed, interior, labels)

    span = _Span(idx)
    ops, names, norms = [], [], []
    for op, lab in zip(seed, labels):
        norm = _norm(op.block(idx))
        if span.try_add(op, scale=norm, tol=tol) > tol:
            ops.append(op)
            names.append(lab)
            norms.append(norm)
    added = []
    dims = [len(span)]

    while True:
        worst = 0.0
        k = len(ops)
        for i in range(k):
            for j in range(i + 1, k):
                br = _bracket(ops[i], ops[j], graded)
                ratio = span.try_add(br, scale=norms[i] * norms[j], tol=tol)
                if ratio > tol:
                    both_odd = graded and ops[i].grade == ODD and ops[j].grade == ODD
                    ops.append(br)
                    names.append(("{%s,%s}" if both_odd else "[%s,%s]") % (names[i], names[j]))
                    norms.append(_norm(br.block(idx)))
                    added.append(names[-1])
                    if len(span) > cap:
                        dims.append(len(span))
                        return ClosureReport(dims, False, len(span), cap, added, np.nan)
                worst = max(worst, ratio)
        dims.append(len(span))
        if len(span) == k:
            return ClosureReport(dims, True, len(span), cap, added, worst)


def extract_structure_constants(
    gens, graded=False, interior=None, labels=None
) -> StructureConstants:
    """Least-squares projection of every pairwise (graded) bracket onto the
    generator span under the interior trace inner product."""
    gens = list(gens)
    if len(gens) < 2:
        raise ValueError("need at least two generators")
    idx, labels = _interior_and_labels(gens, interior, labels)

    n = len(gens)
    blocks = [g.block(idx) for g in gens]
    keys = np.unique(np.concatenate([_flat_keys(x) for x in blocks]))
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
            v = _bracket(gens[a], gens[b], graded).block(idx)
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
            both_odd = graded and gens[a].grade == ODD and gens[b].grade == ODD
            sign = 1.0 if both_odd else -1.0
            coeffs[b, a] = sign * lam
            residuals[b, a] = residuals[a, b]
    return StructureConstants(
        labels, coeffs, residuals, bool(np.max(residuals) < 1e-10)
    )


def verify_casimir(op: SparseOperator, model: AlgebraModel, window=DEFAULT_BOUNDARY_WINDOW) -> float:
    """max over generators of ||[op, X]|| / (||op|| ||X||) on the interior block."""
    idx = np.where(model.interior(window))[0]
    op_norm = _norm(op.block(idx))
    worst = 0.0
    for g in model.generators:
        g_norm = _norm(g.block(idx))
        if op_norm == 0 or g_norm == 0:
            continue
        comm = graded_commutator(op, g)
        worst = max(worst, _norm(comm.block(idx)) / (op_norm * g_norm))
    return float(worst)


def find_reference_states(
    model: AlgebraModel, window=DEFAULT_BOUNDARY_WINDOW, boundary_tol=1e-8
) -> list:
    """Orthonormal basis of the joint kernel of the model's annihilator set.

    Kernel vectors supported on the truncation boundary are artifacts of the
    cutoff and are discarded; an empty list is a legitimate result (the
    translationally invariant chain has no reference state).
    """
    if not model.annihilators:
        return []
    stacked = np.vstack([model.generators[i].toarray() for i in model.annihilators])
    null = scipy.linalg.null_space(stacked, rcond=1e-10)
    if null.size == 0:
        return []
    outside = ~model.interior(window)
    kept = []
    for k in range(null.shape[1]):
        v = null[:, k]
        if np.sum(np.abs(v[outside]) ** 2) < boundary_tol:
            kept.append(v)
    if not kept:
        return []
    q, _ = np.linalg.qr(np.stack(kept, axis=1))
    return [q[:, k] for k in range(q.shape[1])]


def verify_model(model: AlgebraModel, window=DEFAULT_BOUNDARY_WINDOW, closure_cap=None) -> dict:
    """Self-check report: Cartan diagonality/commutativity, root eigen-relations,
    closure of the generator set, and Casimir residuals."""
    idx = np.where(model.interior(window))[0]
    scale = max((_norm(g.block(idx)) for g in model.generators), default=1.0)

    cartan_ok = True
    for ci in model.cartan:
        if not model.generators[ci].is_diagonal():
            cartan_ok = False
    for i, ci in enumerate(model.cartan):
        for cj in model.cartan[i + 1 :]:
            comm = graded_commutator(model.generators[ci], model.generators[cj])
            if _norm(comm.block(idx)) > 1e-12 * scale**2:
                cartan_ok = False

    root_ok = True
    root_worst = 0.0
    for pair in model.root_pairs:
        e = model.generators[pair.raising]
        alpha = model.root_float(pair)
        enorm = _norm(e.block(idx))
        for a, ci in enumerate(model.cartan):
            comm = graded_commutator(model.generators[ci], e)
            diff = SparseOperator(comm.mat - alpha[a] * e.mat)
            rel = _norm(diff.block(idx)) / max(enorm, 1e-300)
            root_worst = max(root_worst, rel)
            if rel > 1e-10 * max(1.0, _norm(model.generators[ci].block(idx))):
                root_ok = False

    cap = closure_cap if closure_cap is not None else 4 * model.dim + 8
    report = lie_closure(
        model.generators,
        cap=cap,
        graded=model.graded,
        interior=model.interior(window),
        labels=list(model.labels),
    )
    casimirs = {
        label: verify_casimir(op, model, window) for label, op in model.casimirs.items()
    }
    return {
        "cartan_ok": bool(cartan_ok),
        "root_eigen_ok": bool(root_ok),
        "root_worst_rel": float(root_worst),
        "closure": {
            "dim": report.dimension,
            "closed": report.closed,
            "residual": None if not report.closed else report.max_residual,
        },
        "casimirs": [{"label": k, "residual": v} for k, v in casimirs.items()],
    }


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _root_of(modes, create, destroy):
    """Root of a quadratic mode operator: +1 per created mode, -1 per
    destroyed mode."""
    r = [Fraction(0)] * modes
    for c in create:
        r[c] += 1
    for d in destroy:
        r[d] -= 1
    return tuple(r)


def _e2(L=21):
    """Shift algebra of a finite chain: position operator plus unit shifts.

    The chain truncates an infinite lattice at both ends, so identity checks
    exclude a window at both boundaries.
    """
    L = int(L)
    if L < 5:
        raise ValueError("chain length must be at least 5")
    basis = FockBasis([boson(L - 1)])
    offset = (L - 1) // 2
    sites = np.arange(L) - offset
    e0 = diagonal_op(sites.astype(float), hermitian=True, rational=(sites, 1))
    rows = np.arange(1, L)
    cols = np.arange(0, L - 1)
    ep = SparseOperator(
        sparse.csr_matrix((np.ones(L - 1, dtype=complex), (rows, cols)), shape=(L, L))
    )
    em = ep.dagger()
    casimir = SparseOperator(ep.mat @ em.mat, hermitian=True)
    return AlgebraModel(
        name="e2",
        params={"L": L},
        basis=basis,
        labels=["E0", "E+", "E-"],
        generators=[e0, ep, em],
        cartan=[0],
        root_pairs=[RootPair(1, 2, (_frac(1),))],
        cartan_units=(1.0,),
        annihilators=[1],
        casimirs={"shift_product": casimir},
        truncated_modes=(),
        two_sided_modes=(0,),
    )


def _hw(cutoff=20):
    """Single bosonic mode: ladder pair, number operator, identity."""
    basis = FockBasis([boson(int(cutoff))])
    a, adag = ladder_ops(basis, 0)
    n = number_op(basis, 0)
    one = identity(basis)
    return AlgebraModel(
        name="hw",
        params={"cutoff": int(cutoff)},
        basis=basis,
        labels=["a", "adag", "n", "I"],
        generators=[a, adag, n, one],
        cartan=[2],
        root_pairs=[RootPair(1, 0, (_frac(1),))],
        cartan_units=(1.0,),
        annihilators=[0],
        casimirs={"identity": one},
        truncated_modes=(0,),
    )


def _su2_spin(S=1):
    """Spin-S angular momentum triple on a single spin mode."""
    spec = spin(S)
    basis = FockBasis([spec])
    sm, sp_ = ladder_ops(basis, 0)
    s = spec.spin_s
    two_m = 2 * np.arange(spec.levels) - spec.capacity
    sz = diagonal_op(two_m / 2, hermitian=True, rational=(two_m, 2))
    s2 = SparseOperator(
        sz.mat @ sz.mat + 0.5 * (sp_.mat @ sm.mat + sm.mat @ sp_.mat), hermitian=True
    )
    return AlgebraModel(
        name="su2_spin",
        params={"S": s},
        basis=basis,
        labels=["Sz", "S+", "S-"],
        generators=[sz, sp_, sm],
        cartan=[0],
        root_pairs=[RootPair(1, 2, (_frac(1),))],
        cartan_units=(1.0,),
        annihilators=[1],
        casimirs={"S2": s2},
    )


def _su2_schwinger(N=4):
    """Two-boson realization of the spin algebra on the fixed-N sector."""
    N = int(N)
    basis = FockBasis([boson(N), boson(N)], constraint=N)
    na = basis.occupations_of_mode(0)
    nb = basis.occupations_of_mode(1)
    two_sz = na - nb
    sz = diagonal_op(two_sz / 2, hermitian=True, rational=(two_sz, 2))
    sp_ = transfer_op(basis, 0, 1)
    sm = sp_.dagger()
    ntot = diagonal_op((na + nb).astype(float), hermitian=True, rational=(na + nb, 1))
    s2 = SparseOperator(
        sz.mat @ sz.mat + 0.5 * (sp_.mat @ sm.mat + sm.mat @ sp_.mat), hermitian=True
    )
    return AlgebraModel(
        name="su2_schwinger",
        params={"N": N},
        basis=basis,
        labels=["Sz", "S+", "S-"],
        generators=[sz, sp_, sm],
        cartan=[0],
        root_pairs=[RootPair(1, 2, (_frac(1),))],
        cartan_units=(1.0,),
        annihilators=[1],
        casimirs={"total_number": ntot, "S2": s2},
    )


def _su3_schwinger(N=3):
    """Three-boson realization with two diagonal generators and three
    raising/lowering pairs; the fixed-N sector is a triangular lattice."""
    N = int(N)
    basis = FockBasis([boson(N)] * 3, constraint=N)
    na = basis.occupations_of_mode(0)
    nb = basis.occupations_of_mode(1)
    nc = basis.occupations_of_mode(2)
    two_h1 = na - nb
    two_h2 = na + nb - 2 * nc
    h1 = diagonal_op(two_h1 / 2, hermitian=True, rational=(two_h1, 2))
    h2 = diagonal_op(two_h2 / 2 / np.sqrt(3.0), hermitian=True, rational=(two_h2, 2))
    ip = transfer_op(basis, 0, 1)
    up = transfer_op(basis, 1, 2)
    vp = transfer_op(basis, 0, 2)
    gens = [h1, h2, ip, ip.dagger(), up, up.dagger(), vp, vp.dagger()]
    labels = ["H1", "H2", "I+", "I-", "U+", "U-", "V+", "V-"]
    ntot = diagonal_op((na + nb + nc).astype(float), hermitian=True)
    quad = None
    acc = h1.mat @ h1.mat * 0
    for raising, lowering in ((ip, ip.dagger()), (up, up.dagger()), (vp, vp.dagger())):
        acc = acc + 0.5 * (raising.mat @ lowering.mat + lowering.mat @ raising.mat)
    h2s = h2.mat @ h2.mat
    quad = SparseOperator(h1.mat @ h1.mat + h2s + acc, hermitian=True)
    return AlgebraModel(
        name="su3_schwinger",
        params={"N": N},
        basis=basis,
        labels=labels,
        generators=gens,
        cartan=[0, 1],
        root_pairs=[
            RootPair(2, 3, (_frac(1), _frac(0))),
            RootPair(4, 5, (Fraction(-1, 2), Fraction(3, 2))),
            RootPair(6, 7, (Fraction(1, 2), Fraction(3, 2))),
        ],
        cartan_units=(1.0, 1.0 / np.sqrt(3.0)),
        annihilators=[2, 4, 6],
        casimirs={"total_number": ntot, "quadratic": quad},
    )


def _so5_quoted(N=2):
    """Four-boson, fixed-N representation with the commonly quoted ten-element
    generator list (two diagonal, four raising/lowering pairs). The quoted
    set is not closed under commutation; closure and site-count diagnostics
    report whatever they find."""
    N = int(N)
    basis = FockBasis([boson(N)] * 4, constraint=N)
    n_au = basis.occupations_of_mode(0)
    n_ad = basis.occupations_of_mode(1)
    n_bu = basis.occupations_of_mode(2)
    n_bd = basis.occupations_of_mode(3)
    two_h1 = n_au - n_ad
    two_h2 = n_bu - n_bd
    h1 = diagonal_op(two_h1 / 2, hermitian=True, rational=(two_h1, 2))
    h2 = diagonal_op(two_h2 / 2, hermitian=True, rational=(two_h2, 2))
    sa = transfer_op(basis, 0, 1)   # a-spin flip up
    sb = transfer_op(basis, 2, 3)   # b-spin flip up
    sab = transfer_op(basis, 0, 3)  # cross flip along (1/2, 1/2)
    sba = transfer_op(basis, 1, 2)  # cross flip along (-1/2, -1/2)
    gens = [h1, h2, sa, sa.dagger(), sb, sb.dagger(), sab, sab.dagger(), sba, sba.dagger()]
    labels = ["H1", "H2", "Sa+", "Sa-", "Sb+", "Sb-", "Sab+", "Sab-", "Sba+", "Sba-"]
    ntot = diagonal_op((n_au + n_ad + n_bu + n_bd).astype(float), hermitian=True)
    return AlgebraModel(
        name="so5_quoted",
        params={"N": N},
        basis=basis,
        labels=labels,
        generators=gens,
        cartan=[0, 1],
        root_pairs=[
            RootPair(2, 3, (_frac(1), _frac(0))),
            RootPair(4, 5, (_frac(0), _frac(1))),
            RootPair(6, 7, (Fraction(1, 2), Fraction(1, 2))),
            RootPair(8, 9, (Fraction(-1, 2), Fraction(-1, 2))),
        ],
        cartan_units=(1.0, 1.0),
        annihilators=[2, 4, 6, 8],
        casimirs={"total_number": ntot},
    )


def _su11_chain(k0_diag, kp: SparseOperator, name, params, basis, truncated):
    km = kp.dagger()
    k1 = SparseOperator(0.5 * (kp.mat + km.mat), hermitian=True)
    k2 = SparseOperator((kp.mat - km.mat) / 2j, hermitian=True)
    casimir = SparseOperator(
        k0_diag.mat @ k0_diag.mat - k1.mat @ k1.mat - k2.mat @ k2.mat, hermitian=True
    )
    return AlgebraModel(
        name=name,
        params=params,
        basis=basis,
        labels=["K0", "K+", "K-"],
        generators=[k0_diag, kp, km],
        cartan=[0],
        root_pairs=[RootPair(1, 2, (_frac(1),))],
        cartan_units=(1.0,),
        annihilators=[2],
        casimirs={"hyperbolic": casimir},
        truncated_modes=truncated,
    )


def _su11_single(k=Fraction(1, 4), cutoff=40):
    """Squeezing representation on a single mode: K+ = (a^dag)^2 / 2.

    k = 1/4 works on the even chain (reference |0>), k = 3/4 on the odd
    chain (reference |1>); the operators themselves live on the full basis.
    """
    k = _frac(k)
    if k not in (Fraction(1, 4), Fraction(3, 4)):
        raise ValueError("k must be 1/4 or 3/4 for the single-mode representation")
    basis = FockBasis([boson(int(cutoff))])
    a, adag = ladder_ops(basis, 0)
    n = np.arange(basis.dim)
    four_k0 = 2 * n + 1
    k0 = diagonal_op(four_k0 / 4, hermitian=True, rational=(four_k0, 4))
    kp = SparseOperator(adag.mat @ adag.mat * 0.5)
    return _su11_chain(
        k0, kp, "su11_single", {"k": k, "cutoff": int(cutoff)}, basis, (0,)
    )


def _su11_intensity(cutoff=40):
    """Intensity-dependent representation: K+ |n> = (n+1) |n+1>, k = 1/2."""
    basis = FockBasis([boson(int(cutoff))])
    n = np.arange(basis.dim)
    vals = (n[:-1] + 1).astype(complex)
    kp = SparseOperator(
        sparse.csr_matrix((vals, (n[1:], n[:-1])), shape=(basis.dim, basis.dim))
    )
    two_k0 = 2 * n + 1
    k0 = diagonal_op(two_k0 / 2, hermitian=True, rational=(two_k0, 2))
    return _su11_chain(
        k0, kp, "su11_intensity", {"k": Fraction(1, 2), "cutoff": int(cutoff)}, basis, (0,)
    )


def _su11_twomode(cutoff=20):
    """Two-mode squeezing representation: K+ = a^dag b^dag."""
    basis = FockBasis([boson(int(cutoff))] * 2)
    a, adag = ladder_ops(basis, 0)
    b, bdag = ladder_ops(basis, 1)
    kp = SparseOperator(adag.mat @ bdag.mat)
    na = basis.occupations_of_mode(0)
    nb = basis.occupations_of_mode(1)
    two_k0 = na + nb + 1
    k0 = diagonal_op(two_k0 / 2, hermitian=True, rational=(two_k0, 2))
    model = _su11_chain(
        k0, kp, "su11_twomode", {"cutoff": int(cutoff)}, basis, (0, 1)
    )
    imbalance = diagonal_op((na - nb).astype(float), hermitian=True)
    model.casimirs["imbalance"] = imbalance
    return model


def _sp2n_boson(modes=2, cutoff=6):
    """Quadratic bosonic algebra: hoppings, pair creators/annihilators, and
    half-shifted number operators, N(2N+1) generators in total."""
    m = int(modes)
    basis = FockBasis([boson(int(cutoff))] * m)
    low = [ladder_ops(basis, i)[0] for i in range(m)]
    raise_ = [op.dagger() for op in low]
    gens, labels = [], []
    cartan_idx = []
    for i in range(m):
        occ = basis.occupations_of_mode(i)
        two_d = 2 * occ + 1
        gens.append(diagonal_op(two_d / 2, hermitian=True, rational=(two_d, 2)))
        labels.append(f"D{i}")
        cartan_idx.append(i)
    root_pairs = []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            gens.append(SparseOperator(raise_[i].mat @ low[j].mat))
            labels.append(f"h{i}{j}")
    for i in range(m):
        for j in range(i, m):
            gens.append(SparseOperator(raise_[i].mat @ raise_[j].mat))
            labels.append(f"p{i}{j}+")
    for i in range(m):
        for j in range(i, m):
            gens.append(SparseOperator(low[i].mat @ low[j].mat))
            labels.append(f"p{i}{j}-")

    for i in range(m):
        for j in range(i + 1, m):
            root_pairs.append(
                RootPair(labels.index(f"h{i}{j}"), labels.index(f"h{j}{i}"), _root_of(m, [i], [j]))
            )
    for i in range(m):
        for j in range(i, m):
            root_pairs.append(
                RootPair(labels.index(f"p{i}{j}+"), labels.index(f"p{i}{j}-"), _root_of(m, [i, j], []))
            )
    annihilators = [labels.index(l) for l in labels if l.startswith("h")]
    annihilators += [labels.index(l) for l in labels if l.endswith("-") and l.startswith("p")]
    return AlgebraModel(
        name="sp2n_boson",
        params={"modes": m, "cutoff": int(cutoff)},
        basis=basis,
        labels=labels,
        generators=gens,
        cartan=cartan_idx,
        root_pairs=root_pairs,
        cartan_units=(1.0,) * m,
        annihilators=annihilators,
        casimirs={},
        truncated_modes=tuple(range(m)),
    )


def _so2n_fermion(modes=2):
    """Quadratic fermionic algebra on 2^N states: hoppings, pairings, and
    half-shifted number operators, N(2N-1) generators; all grades even."""
    m = int(modes)
    basis = FockBasis([fermion()] * m)
    low = [ladder_ops(basis, i)[0] for i in range(m)]
    raise_ = [op.dagger() for op in low]
    gens, labels, cartan_idx = [], [], []
    for i in range(m):
        occ = basis.occupations_of_mode(i)
        two_d = 2 * occ - 1
        gens.append(diagonal_op(two_d / 2, hermitian=True, rational=(two_d, 2)))
        labels.append(f"D{i}")
        cartan_idx.append(i)
    for i in range(m):
        for j in range(m):
            if i != j:
                gens.append(SparseOperator(raise_[i].mat @ low[j].mat))
                labels.append(f"h{i}{j}")
    pair_raisers = {}
    for i in range(m):
        for j in range(i + 1, m):
            op = SparseOperator(raise_[i].mat @ raise_[j].mat)
            pair_raisers[(i, j)] = op
            gens.append(op)
            labels.append(f"p{i}{j}+")
    for i in range(m):
        for j in range(i + 1, m):
            gens.append(pair_raisers[(i, j)].dagger())  # = c_j c_i, sign included
            labels.append(f"p{i}{j}-")

    root_pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            root_pairs.append(
                RootPair(labels.index(f"h{i}{j}"), labels.index(f"h{j}{i}"), _root_of(m, [i], [j]))
            )
            root_pairs.append(
                RootPair(labels.index(f"p{i}{j}+"), labels.index(f"p{i}{j}-"), _root_of(m, [i, j], []))
            )
    annihilators = [labels.index(l) for l in labels if l.startswith("h")]
    annihilators += [labels.index(l) for l in labels if l.endswith("-") and l.startswith("p")]
    return AlgebraModel(
        name="so2n_fermion",
        params={"modes": m},
        basis=basis,
        labels=labels,
        generators=gens,
        cartan=cartan_idx,
        root_pairs=root_pairs,
        cartan_units=(1.0,) * m,
        annihilators=annihilators,
        casimirs={},
    )


def _jc_super(cutoff=10):
    """Excitation-conserving boson-fermion superalgebra: two even number
    operators and an odd raising/lowering pair."""
    basis = FockBasis([boson(int(cutoff)), fermion()])
    a, adag = ladder_ops(basis, 0)
    c, cdag = ladder_ops(basis, 1)
    nb = number_op(basis, 0)
    nf = number_op(basis, 1)
    r = SparseOperator(adag.mat @ c.mat, grade=ODD)
    rd = r.dagger()
    ntot = diagonal_op(
        (basis.occupations_of_mode(0) + basis.occupations_of_mode(1)).astype(float),
        hermitian=True,
    )
    return AlgebraModel(
        name="jc_super",
        params={"cutoff": int(cutoff)},
        basis=basis,
        labels=["n_b", "n_f", "bf+", "bf-"],
        generators=[nb, nf, r, rd],
        cartan=[0, 1],
        root_pairs=[RootPair(2, 3, (_frac(1), _frac(-1)))],
        cartan_units=(1.0, 1.0),
        graded=True,
        annihilators=[2],
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
    """Instantiate a catalog algebra over its matching Fock basis."""
    try:
        builder = CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown algebra {name!r}; available: {', '.join(sorted(CATALOG))}"
        ) from None
    return builder(**params)


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
    sz = diagonal_op(
        (2.0 * basis.occupations_of_mode(1) - 1.0).astype(float), hermitian=True
    )
    rot = SparseOperator(a.mat @ sp_.mat + adag.mat @ sm.mat, hermitian=True)
    counter = SparseOperator(a.mat @ sm.mat + adag.mat @ sp_.mat, hermitian=True)
    n = number_op(basis, 0)
    mask = basis.interior_mask(window=2, truncated_modes=(0,))
    return [n, sz, rot, counter], ["n", "sz", "g+", "g-"], mask


def lmg_seed(S=8):
    """Inversion plus squared transverse spin; the quadratic term prevents
    closure. Returns (ops, labels, interior_mask=None)."""
    model = _su2_spin(S)
    sz, sp_, sm = model.generators
    sx = SparseOperator(0.5 * (sp_.mat + sm.mat), hermitian=True)
    sx2 = SparseOperator(sx.mat @ sx.mat / float(S), hermitian=True)
    return [sz, sx2], ["Sz", "Sx2/S"], None
