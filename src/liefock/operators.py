"""Sparse complex operators over a Fock basis.

Thin wrapper around scipy CSR matrices carrying a hermiticity flag and a
fermion-parity grade, plus constructors for ladder, number, and bilinear
transfer operators and the graded commutator. Entries below a relative drop
tolerance are eliminated after every product so chained commutators do not
accumulate numerical fill-in.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sparse

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
    """Complex sparse matrix with hermiticity flag and even/odd grade.

    `rational_diagonal` (optional) carries exact diagonal eigenvalues for
    operators used as lattice coordinates, as a pair (int64 numerator
    array, common positive int denominator); it is preserved by nothing
    except explicit construction.
    """

    __slots__ = ("mat", "hermitian", "grade", "rational_diagonal")

    def __init__(self, mat, hermitian=False, grade=EVEN, rational_diagonal=None):
        if not sparse.issparse(mat):
            mat = sparse.csr_matrix(np.asarray(mat, dtype=complex))
        self.mat = _drop_small(mat.astype(complex))
        if self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError("operators must be square")
        self.hermitian = bool(hermitian)
        if grade not in (EVEN, ODD):
            raise ValueError("grade must be EVEN (0) or ODD (1)")
        self.grade = grade
        if rational_diagonal is not None:
            num, den = rational_diagonal
            rational_diagonal = (np.asarray(num, dtype=np.int64), int(den))
            if rational_diagonal[0].shape != (self.mat.shape[0],) or rational_diagonal[1] < 1:
                raise ValueError(
                    "rational_diagonal needs one numerator per basis state "
                    "and a positive denominator"
                )
        self.rational_diagonal = rational_diagonal

    # -- basic structure -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def nnz(self) -> int:
        return self.mat.nnz

    def dagger(self) -> "SparseOperator":
        return SparseOperator(
            self.mat.conj().T.tocsr(), hermitian=self.hermitian, grade=self.grade
        )

    def toarray(self) -> np.ndarray:
        return self.mat.toarray()

    def diagonal(self) -> np.ndarray:
        return self.mat.diagonal()

    def block(self, indices) -> sparse.csr_matrix:
        """Sparse sub-block over the given basis indices (rows and columns)."""
        indices = np.asarray(indices)
        return self.mat[indices][:, indices]

    def restricted(self, indices) -> np.ndarray:
        """Dense sub-block over the given basis indices (rows and columns)."""
        return self.block(indices).toarray()

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.mat.data))) if self.mat.nnz else 0.0

    def fro_norm(self) -> float:
        return float(np.linalg.norm(self.mat.data)) if self.mat.nnz else 0.0

    def hermiticity_defect(self) -> float:
        """max-norm of A - A^dagger."""
        d = self.mat - self.mat.conj().T
        return float(np.max(np.abs(d.data))) if d.nnz else 0.0

    def is_hermitian(self) -> bool:
        """`within_hermitian_bound` of max|A - A^dagger| and max|A|. The
        `hermitian` flag only records what the constructor was told."""
        return within_hermitian_bound(self.hermiticity_defect(), self.max_norm())

    def is_diagonal(self, rel_tol=1e-12) -> bool:
        off = self.mat - sparse.diags(self.mat.diagonal())
        if off.nnz == 0:
            return True
        return float(np.max(np.abs(off.data))) <= rel_tol * max(self.max_norm(), 1.0)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        return SparseOperator(
            self.mat + other.mat,
            hermitian=self.hermitian and other.hermitian,
            grade=self.grade if self.grade == other.grade else EVEN,
        )

    def __sub__(self, other):
        return SparseOperator(
            self.mat - other.mat,
            hermitian=self.hermitian and other.hermitian,
            grade=self.grade if self.grade == other.grade else EVEN,
        )

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return SparseOperator(
            self.mat * scalar,
            hermitian=self.hermitian and scalar.imag == 0.0,
            grade=self.grade,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __matmul__(self, other):
        return SparseOperator(
            self.mat @ other.mat, hermitian=False, grade=self.grade ^ other.grade
        )

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Exact sparse matrix-vector product."""
        vec = np.asarray(vec)
        if vec.shape[0] != self.dim:
            raise ValueError(
                f"vector length {vec.shape[0]} does not match operator dim {self.dim}"
            )
        return self.mat @ vec

    def expectation(self, vec: np.ndarray) -> complex:
        return complex(np.vdot(vec, self.apply(vec)))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """Triplet-list form with entries sorted by (row, col)."""
        coo = self.mat.tocoo()
        order = np.lexsort((coo.col, coo.row))
        entries = [
            [int(coo.row[k]), int(coo.col[k]), float(coo.data[k].real), float(coo.data[k].imag)]
            for k in order
        ]
        return json.dumps(
            {
                "dim": self.dim,
                "hermitian": self.hermitian,
                "grade": "odd" if self.grade == ODD else "even",
                "entries": entries,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SparseOperator":
        payload = json.loads(text)
        dim = int(payload["dim"])
        entries = payload["entries"]
        rows = [e[0] for e in entries]
        cols = [e[1] for e in entries]
        vals = [complex(e[2], e[3]) for e in entries]
        mat = sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        return cls(
            mat,
            hermitian=bool(payload.get("hermitian", False)),
            grade=ODD if payload.get("grade") == "odd" else EVEN,
        )

    def __repr__(self):
        g = "odd" if self.grade == ODD else "even"
        return f"SparseOperator(dim={self.dim}, nnz={self.nnz}, hermitian={self.hermitian}, grade={g})"


# -- constructors ----------------------------------------------------------


def identity(dim_or_basis) -> SparseOperator:
    dim = dim_or_basis.dim if isinstance(dim_or_basis, FockBasis) else int(dim_or_basis)
    return SparseOperator(sparse.identity(dim, dtype=complex, format="csr"), hermitian=True)


def zero(dim_or_basis) -> SparseOperator:
    dim = dim_or_basis.dim if isinstance(dim_or_basis, FockBasis) else int(dim_or_basis)
    return SparseOperator(sparse.csr_matrix((dim, dim), dtype=complex), hermitian=True)


def diagonal_op(values, hermitian=None, rational=None) -> SparseOperator:
    """Diagonal operator; `rational` optionally gives its exact diagonal as
    a pair (integer numerators, common positive denominator)."""
    values = np.asarray(values, dtype=complex)
    if hermitian is None:
        hermitian = bool(np.max(np.abs(values.imag), initial=0.0) == 0.0)
    return SparseOperator(
        sparse.diags(values, format="csr"), hermitian=hermitian, rational_diagonal=rational
    )


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
    lower = SparseOperator(lower_mat, hermitian=False, grade=grade)
    return lower, lower.dagger()


def number_op(basis: FockBasis, mode: int) -> SparseOperator:
    """Occupation-number operator of one mode (diagonal, exact)."""
    occ = basis.occupations_of_mode(mode)
    return diagonal_op(occ.astype(float), hermitian=True, rational=(occ, 1))


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
    return SparseOperator(mat, hermitian=False, grade=EVEN)


def graded_commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """[a, b] for any pair except odd-odd, where it is the anticommutator.

    The result grade is the XOR of the input grades.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.grade == ODD and b.grade == ODD:
        mat = a.mat @ b.mat + b.mat @ a.mat
    else:
        mat = a.mat @ b.mat - b.mat @ a.mat
    return SparseOperator(mat, hermitian=False, grade=a.grade ^ b.grade)


def frobenius_inner(a, b) -> complex:
    """trace(a^dagger b) of two operators, or of two sparse blocks of one shape."""
    a = a.mat if isinstance(a, SparseOperator) else a
    b = b.mat if isinstance(b, SparseOperator) else b
    return complex(a.conj().multiply(b).sum())


def linear_combination(ops, coeffs) -> SparseOperator:
    """sum_k coeffs[k] * ops[k]; hermiticity is re-checked numerically."""
    if len(ops) != len(coeffs) or not ops:
        raise ValueError("need equally many operators and coefficients, at least one")
    acc = ops[0].mat * complex(coeffs[0])
    for op, c in zip(ops[1:], coeffs[1:]):
        acc = acc + op.mat * complex(c)
    out = SparseOperator(acc, hermitian=False, grade=ops[0].grade)
    out.hermitian = out.is_hermitian()
    return out
