"""Sparse complex operators over a Fock basis.

Thin wrapper around scipy CSR matrices. An operator carries its matrix and
its fermion-parity grade, nothing else. Exact Cartan weights belong to the
algebra model (`AlgebraModel.cartan_weights`), not to its operators.
Hermiticity is always computed from the matrix by the one numeric rule
(`within_hermitian_bound`), and the bracket of two operators
(`graded_commutator`) is the commutator or, for two odd operators, the
anticommutator. Also constructors for ladder, number, and bilinear transfer
operators. Entries below a relative drop tolerance are eliminated after
every product so chained commutators do not accumulate numerical fill-in.
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
            "build bilinears with transfer_op on a constrained basis"
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


def transfer_op(basis: FockBasis, to_mode: int, from_mode: int) -> SparseOperator:
    """Bosonic bilinear a_to^dagger a_from, valid on constrained sectors.

    Built directly from matrix elements sqrt((n_to + 1) n_from) so that no
    intermediate state ever leaves the sector.
    """
    for m in (to_mode, from_mode):
        if basis.modes[m].kind != BOSON:
            raise ValueError("transfer_op is defined for boson modes")
    if to_mode == from_mode:
        return number_op(basis, to_mode)
    n_to, n_from = basis.occ[:, to_mode], basis.occ[:, from_mode]
    cols = np.flatnonzero((n_from > 0) & (n_to < basis.modes[to_mode].capacity))
    unit = np.eye(len(basis.modes), dtype=np.int64)
    shift = basis.key_of(unit[to_mode] - unit[from_mode])
    rows = basis.indices_of_keys(basis.keys[cols] + shift)
    found = rows >= 0
    rows, cols = rows[found], cols[found]
    vals = np.sqrt((n_to[cols] + 1) * n_from[cols])
    mat = sparse.csr_matrix(
        (vals.astype(complex), (rows, cols)), shape=(basis.dim, basis.dim)
    )
    return SparseOperator(mat)


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
