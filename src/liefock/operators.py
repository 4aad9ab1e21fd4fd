"""Sparse complex operators over a Fock basis.

Thin wrapper around scipy CSR matrices. An operator carries its matrix and
its fermion-parity grade, nothing else. Exact Cartan weights belong to the
algebra model (`AlgebraModel.cartan_weights`), not to its operators.
Hermiticity is always computed from the matrix by the one numeric rule
(`within_hermitian_bound`), and the bracket of two operators
(`graded_commutator`) is the commutator or, for two odd operators, the
anticommutator. Also constructors for ladder and number operators and for
boson bilinears sum_k c_k a_i^dagger a_j (`bilinear_op`, read off the key
shifts of the basis in one CSR construction; `transfer_op` is its one-entry
case). Entries below a relative drop tolerance are eliminated after every
product so chained commutators do not accumulate numerical fill-in.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse

from .errors import NumericContractError
from .fock import BOSON, FERMION, FockBasis

EVEN = 0
ODD = 1

DROP_TOL = 1e-14


def within_hermitian_bound(defect, scale) -> bool:
    """The one numeric Hermiticity rule: max|A - A^dagger| <= 1e-12 * max(max|A|, 1).
    A NaN defect or scale fails it."""
    return defect <= 1e-12 * max(scale, 1.0)


def _drop_small(mat: sparse.csr_matrix) -> sparse.csr_matrix:
    mat = mat.tocsr()
    mat.eliminate_zeros()
    if mat.nnz:
        cut = DROP_TOL * np.max(np.abs(mat.data))
        if cut > 0:
            mat.data[np.abs(mat.data) < cut] = 0
            mat.eliminate_zeros()
    mat.sort_indices()
    return mat


class SparseOperator:
    """Complex sparse matrix with an even/odd grade."""

    __slots__ = ("mat", "grade")

    def __init__(self, mat, grade=EVEN):
        if not sparse.issparse(mat):
            mat = sparse.csr_matrix(np.asarray(mat, dtype=complex))
        self.mat = _drop_small(mat.astype(complex))
        if self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError("operators must be square")
        if grade not in (EVEN, ODD):
            raise ValueError("grade must be EVEN (0) or ODD (1)")
        self.grade = grade

    # -- basic structure -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def nnz(self) -> int:
        return self.mat.nnz

    def dagger(self) -> "SparseOperator":
        return SparseOperator(self.mat.conj().T.tocsr(), grade=self.grade)

    def toarray(self) -> np.ndarray:
        return self.mat.toarray()

    def diagonal(self) -> np.ndarray:
        return self.mat.diagonal()

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.mat.data))) if self.mat.nnz else 0.0

    def hermiticity_defect(self) -> float:
        """max-norm of A - A^dagger. When A^T has A's sparsity pattern, the
        stored entries are compared in place, with no sparse difference."""
        mat = self.mat
        t = mat.T.tocsr()
        t.sort_indices()
        if np.array_equal(t.indptr, mat.indptr) and np.array_equal(t.indices, mat.indices):
            d = np.conjugate(t.data, out=t.data)
            d = np.subtract(mat.data, d, out=d)
        else:
            d = (mat - t.conj()).data
        return float(np.max(np.abs(d))) if d.size else 0.0

    def is_hermitian(self) -> bool:
        """`within_hermitian_bound` of max|A - A^dagger| and max|A|."""
        return within_hermitian_bound(self.hermiticity_defect(), self.max_norm())

    def check_hermitian(self):
        """Raise NumericContractError unless `is_hermitian()`."""
        if not self.is_hermitian():
            raise NumericContractError(
                f"operator is not Hermitian: defect {self.hermiticity_defect():.3e} "
                f"exceeds 1e-12 * {max(self.max_norm(), 1.0):.3e}"
            )

    def is_diagonal(self) -> bool:
        """No off-diagonal entry above 1e-12 * max(max|A|, 1)."""
        off = self.mat - sparse.diags(self.mat.diagonal())
        if off.nnz == 0:
            return True
        return float(np.max(np.abs(off.data))) <= 1e-12 * max(self.max_norm(), 1.0)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Exact sparse matrix-vector product."""
        vec = np.asarray(vec)
        if vec.shape[0] != self.dim:
            raise ValueError(
                f"vector length {vec.shape[0]} does not match operator dim {self.dim}"
            )
        return self.mat @ vec

    def __repr__(self):
        g = "odd" if self.grade == ODD else "even"
        return f"SparseOperator(dim={self.dim}, nnz={self.nnz}, grade={g})"


# -- constructors ----------------------------------------------------------


def identity(dim_or_basis) -> SparseOperator:
    dim = dim_or_basis.dim if isinstance(dim_or_basis, FockBasis) else int(dim_or_basis)
    return SparseOperator(sparse.identity(dim, dtype=complex, format="csr"))


def diagonal_op(values) -> SparseOperator:
    values = np.asarray(values, dtype=complex)
    return SparseOperator(sparse.diags(values, format="csr"))


def ladder_ops(basis: FockBasis, mode: int, jw_order=None):
    """(lower, raise) pair for one mode of an unconstrained basis.

    Bosons: <n-1|a|n> = sqrt(n). Fermions: Jordan-Wigner signs over the
    declared ordering, which defaults to the basis mode-list order: the sign
    is the parity of the occupations of the fermion modes preceding `mode`.
    Spin: <S,m-1|S-|S,m> = sqrt(S(S+1) - m(m-1)). The raising operator is the
    exact structural conjugate transpose of the lowering one.
    """
    if basis.constraint is not None:
        raise ValueError(
            "single-mode ladder operators change the conserved total; "
            "build bilinears with bilinear_op on a constrained basis"
        )
    if not 0 <= mode < len(basis.modes):
        raise ValueError(f"mode index {mode} out of range")
    spec = basis.modes[mode]

    cols = np.flatnonzero(basis.occ[:, mode])
    n = basis.occ[cols, mode]
    unit = np.eye(len(basis.modes), dtype=np.int64)
    rows = basis.indices_of_keys(basis.keys[cols] - basis.key_of(unit[mode]))
    if spec.kind == BOSON:
        amp = np.sqrt(n)
    elif spec.kind == FERMION:
        fermion_modes = [i for i, m in enumerate(basis.modes) if m.kind == FERMION]
        if jw_order is None:
            order = fermion_modes
        else:
            order = list(jw_order)
            if sorted(order) != fermion_modes:
                raise ValueError(
                    "Jordan-Wigner ordering must list every fermion mode exactly once; "
                    f"got {order}, fermion modes are {fermion_modes}"
                )
        preceding = order[: order.index(mode)]
        parity = basis.occ[np.ix_(cols, preceding)].sum(axis=1) % 2
        amp = np.where(parity, -1.0, 1.0)
    else:  # spin: level n corresponds to m = n - S
        s = float(spec.spin_s)
        m = n - s
        amp = np.sqrt(s * (s + 1) - m * (m - 1))

    lower_mat = sparse.csr_matrix(
        (amp.astype(complex), (rows, cols)), shape=(basis.dim, basis.dim)
    )
    grade = ODD if spec.kind == FERMION else EVEN
    lower = SparseOperator(lower_mat, grade=grade)
    return lower, lower.dagger()


def number_op(basis: FockBasis, mode: int) -> SparseOperator:
    """Occupation-number operator of one mode (diagonal)."""
    return diagonal_op(basis.occupations_of_mode(mode).astype(float))


def bilinear_op(basis: FockBasis, entries) -> SparseOperator:
    """sum_k c_k a_{i_k}^dagger a_{j_k} of ordered (i, j, c) entries in one CSR
    construction, valid on constrained sectors. An off-diagonal entry needs
    boson modes and moves column s, by the key shift key_of(e_i - e_j), to the
    state keyed keys[s] + shift with sqrt((n_i + 1) n_j), so no intermediate
    state leaves the sector; a diagonal entry takes n_i of any mode kind. A
    row's columns run by descending shift, and each value is its contributions
    summed in entry order from complex zero; a single entry keeps its values."""
    unit = np.eye(len(basis.modes), dtype=np.int64)
    shifts = [int(basis.key_of(unit[i] - unit[j])) for i, j, _ in entries]
    slots = sorted(set(shifts), reverse=True)
    cols = np.full((len(slots), basis.dim), -1, dtype=np.int64)
    vals = np.zeros(cols.shape, dtype=complex)
    for (i, j, c), shift in zip(entries, shifts):
        n_i, n_j = basis.occ[:, i], basis.occ[:, j]
        if i == j:
            rows = src = np.flatnonzero(n_i)
            amp = n_i[src]
        elif {basis.modes[i].kind, basis.modes[j].kind} != {BOSON}:
            raise ValueError("off-diagonal bilinears are defined for boson modes")
        else:
            src = np.flatnonzero((n_j > 0) & (n_i < basis.modes[i].capacity))
            rows = basis.indices_of_keys(basis.keys[src] + shift)
            amp = np.sqrt((n_i[src] + 1) * n_j[src])
        slot = slots.index(shift)
        cols[slot, rows] = src
        value = amp.astype(complex) * c
        vals[slot, rows] = value if len(entries) == 1 else vals[slot, rows] + value
    stored = (cols >= 0).T
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(stored, axis=1))))
    return SparseOperator(sparse.csr_matrix((vals.T[stored], cols.T[stored], indptr), shape=(basis.dim,) * 2))


def transfer_op(basis: FockBasis, to_mode: int, from_mode: int) -> SparseOperator:
    """Bilinear a_to^dagger a_from: the one-entry `bilinear_op`."""
    return bilinear_op(basis, [(to_mode, from_mode, 1.0)])


def graded_commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """The superalgebra bracket [a, b}: the commutator, or the anticommutator
    when both grades are ODD. The result grade is the XOR of the input grades.
    This is the only bracket; to commute two odd matrices, wrap them as EVEN.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.grade == ODD and b.grade == ODD:
        mat = a.mat @ b.mat + b.mat @ a.mat
    else:
        mat = a.mat @ b.mat - b.mat @ a.mat
    return SparseOperator(mat, grade=a.grade ^ b.grade)


def linear_combination(ops, coeffs) -> SparseOperator:
    """sum_k coeffs[k] * ops[k], with the grade of ops[0]."""
    if len(ops) != len(coeffs) or not ops:
        raise ValueError("need equally many operators and coefficients, at least one")
    acc = ops[0].mat * complex(coeffs[0])
    for op, c in zip(ops[1:], coeffs[1:]):
        acc = acc + op.mat * complex(c)
    return SparseOperator(acc, grade=ops[0].grade)
