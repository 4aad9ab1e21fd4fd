import numpy as np
import pytest
import scipy.sparse as sparse

from liefock import (
    FockBasis,
    SparseOperator,
    boson,
    fermion,
    graded_commutator,
    identity,
    ladder_ops,
    number_op,
    spin,
    transfer_op,
)
from liefock.operators import EVEN, ODD


def dense_fermion_ops(n_modes):
    """Independent Jordan-Wigner construction via Kronecker strings."""
    I2 = np.eye(2)
    Z = np.diag([1.0, -1.0])
    # occupation basis per mode is (0, 1); lowering hits |1> -> |0|
    U = np.array([[0.0, 1.0], [0.0, 0.0]])
    ops = []
    for i in range(n_modes):
        factors = []
        for j in range(n_modes):
            if j < i:
                factors.append(Z)
            elif j == i:
                factors.append(U)
            else:
                factors.append(I2)
        mat = factors[0]
        for f in factors[1:]:
            mat = np.kron(mat, f)
        ops.append(mat)
    return ops


def test_boson_ladder_normalization():
    basis = FockBasis([boson(5)])
    a, adag = ladder_ops(basis, 0)
    dense = a.toarray()
    assert dense[0, 1] == pytest.approx(1.0)        # <0|a|1>
    assert dense[1, 2] == pytest.approx(np.sqrt(2))  # <1|a|2>
    assert np.allclose(adag.toarray(), dense.conj().T)


def test_raise_is_structural_dagger():
    basis = FockBasis([boson(4), spin(1)])
    for mode in (0, 1):
        low, high = ladder_ops(basis, mode)
        assert (high.mat != low.mat.conj().T.tocsr()).nnz == 0


def test_fermion_jordan_wigner_signs():
    basis = FockBasis([fermion(), fermion()])
    c1, _ = ladder_ops(basis, 0)
    c2, _ = ladder_ops(basis, 1)
    # c2 acting on |1,1> picks up the sign of the occupied earlier mode
    out = c2.apply(basis.vector((1, 1)))
    assert out[basis.index_of((1, 0))] == pytest.approx(-1.0)
    # oracle: independent Kronecker-string construction, all modes
    for n_modes in (2, 3):
        b = FockBasis([fermion()] * n_modes)
        oracle = dense_fermion_ops(n_modes)
        # the Kronecker ordering enumerates mode 0 as the MOST significant
        # qubit; our basis orders occupation tuples the same way
        for m in range(n_modes):
            low, _ = ladder_ops(b, m)
            assert np.allclose(low.toarray(), oracle[m])


def test_fermion_jw_custom_order_validation():
    basis = FockBasis([fermion(), fermion(), boson(2)])
    ladder_ops(basis, 0, jw_order=[1, 0])
    with pytest.raises(ValueError, match="Jordan-Wigner"):
        ladder_ops(basis, 0, jw_order=[0])
    with pytest.raises(ValueError, match="Jordan-Wigner"):
        ladder_ops(basis, 0, jw_order=[0, 0])


def test_spin_ladder_matrix_elements():
    basis = FockBasis([spin(1)])
    low, high = ladder_ops(basis, 0)
    dense = low.toarray()
    # <S, m-1 | S- | S, m> = sqrt(S(S+1) - m(m-1)), S = 1
    assert dense[0, 1] == pytest.approx(np.sqrt(2))   # m = 0
    assert dense[1, 2] == pytest.approx(np.sqrt(2))   # m = 1


def test_ladder_on_constrained_basis_rejected():
    basis = FockBasis([boson(3), boson(3)], constraint=3)
    with pytest.raises(ValueError, match="bilinear"):
        ladder_ops(basis, 0)


def test_canonical_commutators():
    basis = FockBasis([boson(10)])
    a, adag = ladder_ops(basis, 0)
    comm = graded_commutator(a, adag).toarray()
    assert np.allclose(comm[:10, :10], np.eye(10))  # exact away from the cutoff row

    fb = FockBasis([fermion()])
    c, cdag = ladder_ops(fb, 0)
    anti = graded_commutator(c, cdag)
    assert c.grade == ODD and anti.grade == EVEN
    assert np.allclose(anti.toarray(), np.eye(2))

    sb = FockBasis([spin(2)])
    sm, sp = ladder_ops(sb, 0)
    sz = np.diag(np.arange(-2.0, 3.0))
    assert np.allclose(graded_commutator(sp, sm).toarray(), 2 * sz)


def test_number_shift_identity():
    basis = FockBasis([boson(10)])
    a, _ = ladder_ops(basis, 0)
    n = number_op(basis, 0)
    comm = graded_commutator(n, a)
    assert np.allclose(comm.toarray(), -a.toarray())


def test_apply_examples():
    basis = FockBasis([boson(4), boson(4)])
    v = basis.vector((2, 2))
    assert np.allclose(identity(basis).apply(v), v)

    n0 = number_op(basis, 0)
    state = basis.vector((3, 1))
    assert np.allclose(n0.apply(state), 3 * state)

    a, adag = ladder_ops(basis, 0)
    b, bdag = ladder_ops(basis, 1)
    hop = SparseOperator(adag.mat @ b.mat + bdag.mat @ a.mat)
    out = hop.apply(v)
    nonzero = np.flatnonzero(np.abs(out) > 1e-14)
    assert len(nonzero) == 2
    # oracle: dense product
    dense = hop.toarray() @ v
    assert np.allclose(out, dense)
    assert sorted(np.round(np.abs(out[nonzero]), 12)) == [
        pytest.approx(np.sqrt(6)),
        pytest.approx(np.sqrt(6)),
    ]


def test_apply_length_mismatch():
    basis = FockBasis([boson(3)])
    with pytest.raises(ValueError):
        number_op(basis, 0).apply(np.zeros(7))


def test_transfer_op_matches_ladder_product():
    uncon = FockBasis([boson(6), boson(6)])
    a, adag = ladder_ops(uncon, 0)
    b, _ = ladder_ops(uncon, 1)
    product = SparseOperator(adag.mat @ b.mat).toarray()
    direct = transfer_op(uncon, 0, 1).toarray()
    assert np.allclose(product, direct)


def test_dagger_of_product_and_antisymmetry():
    rng = np.random.default_rng(7)
    dim = 24
    mats = []
    for _ in range(2):
        dense = sparse.random(dim, dim, density=0.15, random_state=rng.integers(1 << 31))
        mats.append(SparseOperator(dense.tocsr() + 1j * sparse.random(
            dim, dim, density=0.15, random_state=rng.integers(1 << 31)).tocsr()))
    A, B = mats
    lhs = SparseOperator(A.mat @ B.mat).dagger().toarray()
    rhs = SparseOperator(B.dagger().mat @ A.dagger().mat).toarray()
    assert np.allclose(lhs, rhs)
    assert np.allclose(
        graded_commutator(A, B).toarray(), -graded_commutator(B, A).toarray()
    )


def test_jacobi_identity_random():
    rng = np.random.default_rng(11)
    dim = 16
    ops = []
    for _ in range(3):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ops.append(SparseOperator(sparse.csr_matrix(m)))
    A, B, C = ops

    def comm(x, y):
        return graded_commutator(x, y)

    total = (
        comm(comm(A, B), C).toarray()
        + comm(comm(B, C), A).toarray()
        + comm(comm(C, A), B).toarray()
    )
    scale = max(np.abs(o.toarray()).max() for o in ops) ** 3
    assert np.max(np.abs(total)) < 1e-12 * scale


def test_hermitian_flag_contract():
    # Hermiticity is computed from the matrix by the one 1e-12-relative rule,
    # whatever built the operator
    basis = FockBasis([boson(6)])
    a, adag = ladder_ops(basis, 0)
    n = number_op(basis, 0)
    assert n.is_hermitian() and n.hermiticity_defect() <= 1e-12 * n.max_norm()
    assert SparseOperator(adag.mat @ a.mat).is_hermitian()
    assert SparseOperator(a.mat + adag.mat).is_hermitian()
    assert not a.is_hermitian() and not SparseOperator(1j * (a.mat + adag.mat)).is_hermitian()
    assert SparseOperator(n.mat + 1e-13 * a.mat).is_hermitian()
    assert not SparseOperator(n.mat + 1e-9 * a.mat).is_hermitian()


def test_drop_tolerance_strips_noise():
    dim = 8
    m = np.eye(dim, dtype=complex)
    m[0, 1] = 1e-20  # far below the relative drop tolerance
    op = SparseOperator(m)
    assert op.nnz == dim


def test_grade_validation_and_dimension_mismatch():
    with pytest.raises(ValueError):
        SparseOperator(np.eye(2), grade=2)
    with pytest.raises(ValueError):
        graded_commutator(SparseOperator(np.eye(2)), SparseOperator(np.eye(3)))
