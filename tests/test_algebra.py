import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefock import (
    FockBasis,
    SparseOperator,
    build_algebra,
    extract_structure_constants,
    fermion,
    find_reference_states,
    graded_commutator,
    ladder_ops,
    lie_closure,
    lmg_seed,
    rabi_seed,
    verify_casimir,
    verify_model,
)
from liefock.algebra import CATALOG, CLOSURE_TOL, _root
from liefock.errors import DegenerateGeneratorsError
from liefock.operators import EVEN, ODD, linear_combination
from test_seed_oracles import CATALOG_CASES, fro_norm, restricted


# --- symbolic oracle for commutators of number-conserving boson bilinears ---
# [a_i^dag a_j, a_k^dag a_l] = delta_jk a_i^dag a_l - delta_li a_k^dag a_j


def bilinear_commutator(ij, kl):
    (i, j), (k, l) = ij, kl
    out = {}
    if j == k:
        out[(i, l)] = out.get((i, l), 0) + 1
    if l == i:
        out[(k, j)] = out.get((k, j), 0) - 1
    return {key: v for key, v in out.items() if v}


def test_su2_schwinger_shape_and_root():
    model = build_algebra("su2_schwinger", N=4)
    assert model.dim == 3
    assert model.basis.dim == 5
    (pair,) = model.root_pairs
    assert model.labels[pair.raising] == "S+"
    assert pair.root == (Fraction(1),)
    # defining eigen-relation [Sz, S+] = +1 * S+
    sz, sp = model.generator("Sz"), model.generator("S+")
    comm = graded_commutator(sz, sp)
    assert np.allclose(comm.toarray(), sp.toarray())


def test_e2_shift_commutator_vanishes_on_interior():
    model = build_algebra("e2", L=21)
    ep, em = model.generator("E+"), model.generator("E-")
    comm = graded_commutator(em, ep)
    idx = np.where(model.interior())[0]
    assert np.allclose(restricted(comm, idx), 0.0)
    # and is NOT zero on the full truncated block (boundary defect)
    assert comm.max_norm() > 0.5


def test_hw_number_shift_exact():
    model = build_algebra("hw", cutoff=10)
    n, a = model.generator("n"), model.generator("a")
    comm = graded_commutator(n, a)
    assert np.allclose(comm.toarray(), -a.toarray())


def test_structure_constants_su2_cartesian():
    # Hermitian triple: [Sx, Sy] = i Sz means f_xy^z = 1 in the i*f convention
    model = build_algebra("su2_spin", S=2)
    sz, sp, sm = model.generators
    sx = SparseOperator(0.5 * (sp.mat + sm.mat))
    sy = SparseOperator((sp.mat - sm.mat) / 2j)
    sc = extract_structure_constants([sx, sy, sz], labels=["Sx", "Sy", "Sz"])
    assert sc.closed
    assert sc.coefficient("Sx", "Sy", "Sz") == pytest.approx(1j)
    assert sc.f[0, 1, 2] == pytest.approx(1.0)
    # graded antisymmetry of the raw coefficients for even pairs
    assert np.allclose(sc.coeffs[0, 1], -sc.coeffs[1, 0])


def test_su3_root_coefficient_matches_symbolic_oracle():
    # oracle on mode indices: I+ = (0,1), U+ = (1,2), V+ = (0,2)
    assert bilinear_commutator((0, 1), (1, 2)) == {(0, 2): 1}
    model = build_algebra("su3_schwinger", N=4)
    sc = extract_structure_constants(model.generators, labels=list(model.labels))
    assert sc.closed
    assert sc.coefficient("I+", "U+", "V+") == pytest.approx(1.0, abs=1e-12)
    assert np.max(sc.residuals) < 1e-12


def test_su3_roots_sum_exactly():
    model = build_algebra("su3_schwinger", N=2)
    r_i, r_u, r_v = (p.root for p in model.root_pairs)
    assert tuple(a + b for a, b in zip(r_i, r_u)) == r_v  # exact rationals


def test_degenerate_generator_set_rejected():
    model = build_algebra("su2_spin", S=1)
    sz, sp, sm = model.generators
    dup = SparseOperator(sz.mat * (1 + 1e-15))
    with pytest.raises(DegenerateGeneratorsError):
        extract_structure_constants([sz, dup, sp], labels=["Sz", "Sz_copy", "S+"])


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("e2", {"L": 15}),
        ("hw", {"cutoff": 14}),
        ("su2_spin", {"S": 3}),
        ("su2_schwinger", {"N": 5}),
        ("su3_schwinger", {"N": 3}),
        ("su11_single", {"cutoff": 16}),
        ("su11_intensity", {"cutoff": 16}),
        ("su11_twomode", {"cutoff": 7}),
        ("sp2n_boson", {"modes": 2, "cutoff": 6}),
        ("so2n_fermion", {"modes": 2}),
        ("jc_super", {"cutoff": 8}),
    ],
)
def test_catalog_closes_at_seed_dimension(name, kwargs):
    model = build_algebra(name, **kwargs)
    report = lie_closure(
        model.generators,
        cap=4 * model.dim + 8,
        interior=model.interior(),
        labels=list(model.labels),
    )
    assert report.closed
    assert report.dimension == model.dim
    assert report.max_residual < 1e-10
    assert report.iterations == sorted(report.iterations)


def test_so5_quoted_set_does_not_close_at_ten():
    # the quoted ten generators generate five more directions; the tool
    # reports the closure it finds (15) rather than asserting the name
    model = build_algebra("so5_quoted", N=2)
    report = lie_closure(
        model.generators, cap=40, interior=model.interior(), labels=list(model.labels)
    )
    assert report.closed
    assert report.dimension == 15
    assert report.max_residual < 1e-10


# (raising, lowering, root) of every root pair, in root-pair order, written
# out by hand; sp2n_boson and so2n_fermion at 2 and at 3 modes
CATALOG_ROOTS = {
    "e2": [("E+", "E-", ("1",))],
    "hw": [("adag", "a", ("1",))],
    "su2_spin": [("S+", "S-", ("1",))],
    "su2_schwinger": [("S+", "S-", ("1",))],
    "su3_schwinger": [("I+", "I-", ("1", "0")), ("U+", "U-", ("-1/2", "3/2")), ("V+", "V-", ("1/2", "3/2"))],
    "so5_quoted": [
        ("Sa+", "Sa-", ("1", "0")),
        ("Sb+", "Sb-", ("0", "1")),
        ("Sab+", "Sab-", ("1/2", "1/2")),
        ("Sba+", "Sba-", ("-1/2", "-1/2")),
    ],
    "su11_single": [("K+", "K-", ("1",))],
    "su11_intensity": [("K+", "K-", ("1",))],
    "su11_twomode": [("K+", "K-", ("1",))],
    ("sp2n_boson", 2): [
        ("h01", "h10", ("1", "-1")),
        ("p00+", "p00-", ("2", "0")),
        ("p01+", "p01-", ("1", "1")),
        ("p11+", "p11-", ("0", "2")),
    ],
    ("sp2n_boson", 3): [
        ("h01", "h10", ("1", "-1", "0")),
        ("h02", "h20", ("1", "0", "-1")),
        ("h12", "h21", ("0", "1", "-1")),
        ("p00+", "p00-", ("2", "0", "0")),
        ("p01+", "p01-", ("1", "1", "0")),
        ("p02+", "p02-", ("1", "0", "1")),
        ("p11+", "p11-", ("0", "2", "0")),
        ("p12+", "p12-", ("0", "1", "1")),
        ("p22+", "p22-", ("0", "0", "2")),
    ],
    ("so2n_fermion", 2): [("h01", "h10", ("1", "-1")), ("p01+", "p01-", ("1", "1"))],
    ("so2n_fermion", 3): [
        ("h01", "h10", ("1", "-1", "0")),
        ("p01+", "p01-", ("1", "1", "0")),
        ("h02", "h20", ("1", "0", "-1")),
        ("p02+", "p02-", ("1", "0", "1")),
        ("h12", "h21", ("0", "1", "-1")),
        ("p12+", "p12-", ("0", "1", "1")),
    ],
    "jc_super": [("bf+", "bf-", ("1", "-1"))],
}


@pytest.mark.parametrize("name,params", CATALOG_CASES)
def test_cartan_weights_agree_with_generators_and_roots(name, params):
    model = build_algebra(name, **params)
    key = (name, params.get("modes", 2)) if name in ("sp2n_boson", "so2n_fermion") else name
    roots = [(model.labels[rp.raising], model.labels[rp.lowering], rp.root) for rp in model.root_pairs]
    assert roots == [(up, down, tuple(map(Fraction, root))) for up, down, root in CATALOG_ROOTS[key]]
    num, den = model.cartan_weights
    assert num.shape == (model.basis.dim, len(model.cartan)) and num.dtype == np.int64
    # the exact weights times the unit are the Cartan generators' diagonals
    for k, (op, unit) in enumerate(zip(model.cartan_ops(), model.cartan_units)):
        diag, scaled = op.diagonal(), num[:, k] / den * unit
        assert not np.any(diag.imag)
        if unit == 1.0:
            assert np.array_equal(diag.real, scaled)
        else:
            np.testing.assert_array_max_ulp(diag.real, scaled, maxulp=1)
    # each stored entry of a raising generator moves the weight by its root
    for pair in model.root_pairs:
        coo = model.generators[pair.raising].mat.tocoo()
        steps = np.unique(num[coo.row] - num[coo.col], axis=0)
        assert coo.nnz and [tuple(Fraction(int(d), den) for d in step) for step in steps] == [pair.root]


def test_so5_site_count_disagrees_with_quadratic_formula():
    # both counts are reported, neither hardcoded as truth: for N = 2 the
    # sector has 10 states on 9 distinct weight sites, while N^2/2 + N + 1 = 5
    model = build_algebra("so5_quoted", N=2)
    wl = model.weight_lattice()
    claimed = 2**2 // 2 + 2 + 1
    assert model.basis.dim == 10
    assert len(wl.sites) == 9
    assert len(wl.sites) != claimed and model.basis.dim != claimed


def test_sp2n_dimension_formula_and_independence():
    for m, cutoff in ((2, 6), (3, 4)):
        model = build_algebra("sp2n_boson", modes=m, cutoff=cutoff)
        expected = m * (2 * m + 1)
        assert model.dim == expected
        # brute-force independence: rank of the flattened generator family
        idx = np.where(model.interior())[0]
        stack = np.stack([restricted(g, idx).ravel() for g in model.generators])
        assert np.linalg.matrix_rank(stack, tol=1e-8) == expected
        report = lie_closure(
            model.generators, cap=expected + 10, interior=model.interior()
        )
        assert report.closed and report.dimension == expected


def test_so2n_dimension_formula():
    for m in (2, 3):
        model = build_algebra("so2n_fermion", modes=m)
        expected = m * (2 * m - 1)
        assert model.dim == expected
        report = lie_closure(model.generators, cap=expected + 10)
        assert report.closed and report.dimension == expected


def test_jc_super_graded_closure_and_odd_bracket():
    model = build_algebra("jc_super", cutoff=10)
    report = lie_closure(
        model.generators, cap=20, interior=model.interior(), labels=list(model.labels)
    )
    assert report.closed and report.dimension == 4
    # odd-odd bracket lies in the span of the two number operators
    sc = extract_structure_constants(
        model.generators, interior=model.interior(), labels=list(model.labels)
    )
    anti = sc.coeffs[2, 3]  # {bf+, bf-}
    assert sc.residuals[2, 3] < 1e-12
    assert anti[0] == pytest.approx(1.0, abs=1e-12)  # n_b coefficient
    assert anti[1] == pytest.approx(1.0, abs=1e-12)  # n_f coefficient
    assert abs(anti[2]) < 1e-12 and abs(anti[3]) < 1e-12
    # graded symmetry: odd-odd coefficients are symmetric under swap
    assert np.allclose(sc.coeffs[3, 2], sc.coeffs[2, 3])


@pytest.mark.parametrize(
    "grade,label,diag,swap_sign",
    [(ODD, "{c,cdag}", [1, 1], 1), (EVEN, "[c,cdag]", [1, -1], -1)],
)
def test_grade_picks_the_bracket(grade, label, diag, swap_sign):
    # one fermion mode: as odd operators c, c^dag close through {c, c^dag} = 1,
    # the same matrices wrapped as even close through [c, c^dag] = 1 - 2n
    c, cdag = (
        SparseOperator(op.mat, grade=grade) for op in ladder_ops(FockBasis([fermion()]), 0)
    )
    report = lie_closure([c, cdag], cap=4, labels=["c", "cdag"])
    assert report.closed and report.dimension == 3 and report.added_labels == [label]
    bracket = graded_commutator(c, cdag)
    assert np.array_equal(bracket.toarray(), np.diag(diag).astype(complex))
    sc = extract_structure_constants([c, cdag, bracket], labels=["c", "cdag", label])
    assert sc.closed
    assert sc.coeffs[0, 1, 2] == pytest.approx(1.0, abs=1e-12)
    assert sc.coeffs[1, 0, 2] == pytest.approx(swap_sign, abs=1e-12)


def test_rabi_seed_exceeds_cap():
    ops, labels, mask = rabi_seed(cutoff=12)
    report = lie_closure(ops, cap=64, interior=mask, labels=labels)
    assert not report.closed
    assert report.dimension > 64


def test_lmg_seed_exceeds_cap():
    ops, labels, mask = lmg_seed(S=8)
    report = lie_closure(ops, cap=64, interior=mask, labels=labels)
    assert not report.closed
    assert report.dimension > 64


def test_nearly_dependent_seed_closes_within_tolerance():
    # S+ with a 6.1e-5 admixture of S-, and a scaled Sz, on the interior
    # [F, T, T]: the Gram matrix of the closed span has condition number
    # 1.3e10, so its least-squares fit leaves residuals near 1.5e-8. The
    # closure measures against an orthonormal span and keeps closed=True
    # within CLOSURE_TOL; it once reported closed=True at 1.28e-8.
    model = build_algebra("su2_spin", S=1)
    sz, sp, sm = model.generators
    seed = [linear_combination([sp, sm], [1.0, 6.1e-5]), linear_combination([sz], [0.0726])]
    report = lie_closure(seed, cap=20, interior=np.array([False, True, True]))
    assert report.closed and report.dimension == 3
    assert report.iterations == [2, 3, 3] and report.added_labels == ["[g0,g1]"]
    assert report.max_residual <= CLOSURE_TOL


def test_closure_brackets_each_pair_once(monkeypatch):
    # su3 from I+, U+ and V- closes in three rounds; a round brackets
    # only the pairs with a member from the previous round, so every pair
    # of the closed span is bracketed exactly once
    from liefock import algebra

    model = build_algebra("su3_schwinger", N=3)
    seed = [model.generator(lab) for lab in ("I+", "U+", "V-")]
    pairs = []
    bracket = algebra.graded_commutator

    def counting_bracket(a, b):
        pairs.append(frozenset((id(a), id(b))))
        return bracket(a, b)

    monkeypatch.setattr(algebra, "graded_commutator", counting_bracket)
    report = lie_closure(seed, cap=20)
    assert report.closed and report.iterations == [3, 6, 8, 8]
    assert len(pairs) == len(set(pairs)) == 8 * 7 // 2
    assert report.max_residual <= CLOSURE_TOL


def test_closure_residual_keeps_brackets_left_out_in_earlier_rounds():
    # su3 N=1 at tol 0.2: a bracket left out in an early round at ratio
    # 0.11 is not bracketed again, and the final round's brackets lie inside
    # to round-off; max_residual still reports the earlier ratio
    model = build_algebra("su3_schwinger", N=1)
    gen = dict(zip(model.labels, model.generators))
    seed = [
        linear_combination([gen["I-"], gen["V+"]], [2.0, -2.0]),
        linear_combination([gen["H2"], gen["I+"], gen["U-"], gen["V+"]], [-1.0, 2.0, -1.0, 1.0]),
    ]
    report = lie_closure(seed, cap=20, tol=0.2)
    assert report.closed and report.iterations == [2, 3, 5, 7, 8, 8]
    assert 0.1 < report.max_residual <= 0.2


def test_closure_residual_is_relative_to_the_larger_norm():
    # spin 1/2, seeds S+ and S- + Sz: [S+, S- + Sz] = 2 Sz - S+, whose part
    # outside the span has norm sqrt(4/3) against ||v|| = sqrt(3) and
    # ||S+|| ||S- + Sz|| = sqrt(3/2); the ratio 2/3 stays below tol = 0.9
    sz, sp, sm = build_algebra("su2_spin", S=Fraction(1, 2)).generators
    seed = [sp, linear_combination([sm, sz], [1.0, 1.0])]
    report = lie_closure(seed, cap=3, tol=0.9)
    assert report.closed and report.iterations == [2, 2]
    assert report.max_residual == pytest.approx(2 / 3, rel=1e-12)


def test_cap_smaller_than_seed_rejected():
    model = build_algebra("su2_spin", S=1)
    with pytest.raises(ValueError, match="cap"):
        lie_closure(model.generators, cap=2)


def test_casimir_residuals():
    su2 = build_algebra("su2_spin", S=3)
    assert verify_casimir(su2.casimirs["S2"], su2) < 1e-12

    su3 = build_algebra("su3_schwinger", N=4)
    assert verify_casimir(su3.casimirs["total_number"], su3) < 1e-12

    su11 = build_algebra("su11_single", cutoff=30)
    assert verify_casimir(su11.casimirs["hyperbolic"], su11) < 1e-10
    # a non-Casimir scores badly
    assert verify_casimir(su11.generator("K+"), su11) > 1e-3


def test_reference_states():
    su2 = build_algebra("su2_spin", S=3)
    refs = find_reference_states(su2)
    assert len(refs) == 1
    top = su2.basis.vector((6,))  # level 2S is m = +S
    assert abs(np.vdot(refs[0], top)) == pytest.approx(1.0)

    su11 = build_algebra("su11_single", cutoff=24)
    refs = find_reference_states(su11)
    span = np.stack([np.abs(r) for r in refs])
    assert len(refs) == 2
    populated = np.flatnonzero(span.sum(axis=0) > 1e-10)
    assert list(populated) == [0, 1]

    su3 = build_algebra("su3_schwinger", N=3)
    refs = find_reference_states(su3)
    assert len(refs) == 1
    corner = su3.basis.vector((3, 0, 0))
    assert abs(np.vdot(refs[0], corner)) == pytest.approx(1.0)

    so5 = build_algebra("so5_quoted", N=3)
    refs = find_reference_states(so5)
    assert len(refs) == 1
    corner = so5.basis.vector((3, 0, 0, 0))
    assert abs(np.vdot(refs[0], corner)) == pytest.approx(1.0)


def test_e2_has_no_reference_state():
    model = build_algebra("e2", L=21)
    assert find_reference_states(model) == []


def test_hw_reference_is_vacuum():
    model = build_algebra("hw", cutoff=12)
    refs = find_reference_states(model)
    assert len(refs) == 1
    assert abs(refs[0][0]) == pytest.approx(1.0)


def test_unknown_algebra_and_bad_k():
    with pytest.raises(ValueError, match="unknown algebra"):
        build_algebra("so7")
    with pytest.raises(ValueError, match="k must be"):
        build_algebra("su11_single", k=Fraction(1, 2), cutoff=10)


@pytest.mark.parametrize("name,params,label", [("su11_single", {"cutoff": 1}, "K+"), ("sp2n_boson", {"cutoff": 1}, "p00+")])
def test_raising_generator_without_entries_is_refused(name, params, label):
    # K+ = (a^dag)^2 / 2 and p00+ vanish on a mode of capacity 1: no root there
    with pytest.raises(ValueError, match=re.escape(f"raising generator {label} has no entries")):
        build_algebra(name, **params)


def test_root_is_refused_when_entries_make_different_steps():
    # |0> -> |1> moves the weight by 1, |1> -> |3> by 2: no single root
    num = np.array([[0], [1], [2], [3]])
    op = SparseOperator(np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]]))
    with pytest.raises(ValueError, match="X does not move every state by one root"):
        _root(op, num, 2, "X")
    assert _root(SparseOperator(np.eye(4, k=-1)), num, 2, "X") == (Fraction(1, 2),)


@pytest.mark.parametrize("value", [30, 30.0, "30", Fraction(30), np.int64(30)])
def test_whole_number_parameters_read_whole_values(value):
    model = build_algebra("hw", cutoff=value)
    assert model.params == {"cutoff": 30} and type(model.params["cutoff"]) is int
    assert model.basis.dim == 31


@pytest.mark.parametrize(
    "name,key,value",
    [
        ("su3_schwinger", "N", 2.5),
        ("su3_schwinger", "N", Fraction(7, 2)),
        ("su3_schwinger", "N", "7/2"),
        ("su3_schwinger", "N", True),
        ("hw", "cutoff", 6.9),
        ("e2", "L", "21.5"),
        ("so2n_fermion", "modes", False),
        ("sp2n_boson", "modes", "two"),
        ("jc_super", "cutoff", float("nan")),
        ("su11_twomode", "cutoff", None),
    ],
)
def test_whole_number_parameters_refuse_fractions_and_bools(name, key, value):
    with pytest.raises(ValueError, match=f"algebra parameter {key} must be a whole number"):
        build_algebra(name, **{key: value})


VERIFY_CASES = [
    ("e2", {"L": 15}),
    ("hw", {"cutoff": 12}),
    ("su2_spin", {"S": Fraction(5, 2)}),
    ("su2_schwinger", {"N": 4}),
    ("su3_schwinger", {"N": 3}),
    ("so5_quoted", {"N": 2}),
    ("su11_single", {"k": Fraction(3, 4), "cutoff": 14}),
    ("su11_intensity", {"cutoff": 14}),
    ("su11_twomode", {"cutoff": 6}),
    ("sp2n_boson", {"modes": 2, "cutoff": 5}),
    ("so2n_fermion", {"modes": 2}),
    ("jc_super", {"cutoff": 8}),
]


def test_verify_model_full_catalog():
    for name, kwargs in VERIFY_CASES:
        model = build_algebra(name, **kwargs)
        report = verify_model(model)
        assert report["cartan_ok"], name
        assert report["root_eigen_ok"], name
        assert report["closure"]["closed"], name
        for cas in report["casimirs"]:
            assert cas["residual"] < 1e-10, (name, cas)
        expected_dim = 15 if name == "so5_quoted" else model.dim
        assert report["closure"]["dim"] == expected_dim, name


def test_verify_model_flags_a_non_diagonal_cartan():
    model = build_algebra("su2_schwinger", N=4)
    model.cartan = [model.labels.index("S+")]
    assert not verify_model(model)["cartan_ok"]


def test_su11_intensity_matrix_elements():
    model = build_algebra("su11_intensity", cutoff=10)
    kp = model.generator("K+").toarray()
    for n in range(9):
        assert kp[n + 1, n] == pytest.approx(n + 1)


JACOBI_CASES = [
    ("e2", {"L": 9}),
    ("hw", {"cutoff": 8}),
    ("su2_spin", {"S": 2}),
    ("su2_schwinger", {"N": 3}),
    ("su3_schwinger", {"N": 2}),
    ("so5_quoted", {"N": 1}),
    ("su11_single", {"cutoff": 8}),
    ("su11_intensity", {"cutoff": 8}),
    ("su11_twomode", {"cutoff": 4}),
    ("sp2n_boson", {"modes": 2, "cutoff": 4}),
    ("so2n_fermion", {"modes": 2}),
]


@pytest.mark.parametrize("name,kwargs", JACOBI_CASES)
def test_jacobi_identity_on_catalog(name, kwargs):
    # a matrix identity, so it holds on the full truncated block
    model = build_algebra(name, **kwargs)
    gens = model.generators
    scale = max(max(fro_norm(g), 1.0) for g in gens) ** 3
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            for c in range(b + 1, len(gens)):
                total = (
                    graded_commutator(graded_commutator(gens[a], gens[b]), gens[c]).toarray()
                    + graded_commutator(graded_commutator(gens[b], gens[c]), gens[a]).toarray()
                    + graded_commutator(graded_commutator(gens[c], gens[a]), gens[b]).toarray()
                )
                assert np.max(np.abs(total)) < 1e-12 * scale


def test_catalog_root_pairs_are_structural_daggers():
    cases = JACOBI_CASES + [("jc_super", {"cutoff": 6})]
    for name, kwargs in cases:
        model = build_algebra(name, **kwargs)
        for pair in model.root_pairs:
            up = model.generators[pair.raising].mat
            down = model.generators[pair.lowering].mat
            assert (up - down.conj().T.tocsr()).nnz == 0, (name, pair)


# --- dense reference: the closure and structure-constant code that flattened
# whole dense interior blocks, kept to check the sparse-block path against ---


def _dense_bracket(a, b, graded):
    if graded:
        return graded_commutator(a, b)
    return SparseOperator(a.mat @ b.mat - b.mat @ a.mat, grade=a.grade ^ b.grade)


class _DenseSpan:
    def __init__(self, interior_idx):
        self.idx = interior_idx
        self.q = []

    def _vec(self, op):
        return restricted(op, self.idx).ravel()

    def residual(self, op):
        v = self._vec(op)
        r = v.copy()
        for q in self.q:
            r -= np.vdot(q, r) * q
        for q in self.q:
            r -= np.vdot(q, r) * q
        return v, r

    def try_add(self, op, scale, tol=1e-10):
        v, r = self.residual(op)
        norm_v = np.linalg.norm(v)
        if norm_v <= tol * scale:
            return False
        rn = np.linalg.norm(r)
        if rn > tol * max(norm_v, scale):
            self.q.append(r / rn)
            return True
        return False


def dense_lie_closure(seed, cap, graded=False, interior=None, labels=None, tol=1e-10):
    """(iterations, closed, added labels, operators of the span)."""
    seed = list(seed)
    mask = np.ones(seed[0].dim, dtype=bool) if interior is None else np.asarray(interior, bool)
    idx = np.where(mask)[0]
    if labels is None:
        labels = [f"g{i}" for i in range(len(seed))]
    span = _DenseSpan(idx)
    ops, names = [], []
    for op, lab in zip(seed, labels):
        if span.try_add(op, scale=np.linalg.norm(restricted(op, idx)), tol=tol):
            ops.append(op)
            names.append(lab)
    added, dims = [], [len(span.q)]
    norms = [np.linalg.norm(restricted(op, idx)) for op in ops]
    while True:
        grew = False
        k = len(ops)
        for i in range(k):
            for j in range(i + 1, k):
                br = _dense_bracket(ops[i], ops[j], graded)
                if span.try_add(br, scale=norms[i] * norms[j], tol=tol):
                    both_odd = graded and ops[i].grade == ODD and ops[j].grade == ODD
                    ops.append(br)
                    names.append(("{%s,%s}" if both_odd else "[%s,%s]") % (names[i], names[j]))
                    norms.append(np.linalg.norm(restricted(br, idx)))
                    added.append(names[-1])
                    grew = True
                    if len(span.q) > cap:
                        dims.append(len(span.q))
                        return dims, False, added, ops
        dims.append(len(span.q))
        if not grew:
            return dims, True, added, ops


def dense_structure_constants(gens, graded=False, interior=None):
    """(coeffs, residuals, condition number of the Gram matrix) by least
    squares on flattened dense blocks."""
    gens = list(gens)
    if len(gens) < 2:
        raise ValueError("need at least two generators")
    mask = np.ones(gens[0].dim, dtype=bool) if interior is None else np.asarray(interior, bool)
    idx = np.where(mask)[0]
    vecs = np.stack([restricted(g, idx).ravel() for g in gens])
    gram = vecs.conj() @ vecs.T
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] <= 0 or sv[0] / sv[-1] > 1e12:
        raise DegenerateGeneratorsError([])
    gram_pinv = np.linalg.pinv(gram, rcond=1e-12)
    n = len(gens)
    coeffs = np.zeros((n, n, n), dtype=complex)
    residuals = np.zeros((n, n))
    norms = np.linalg.norm(vecs, axis=1)
    for a in range(n):
        for b in range(a + 1, n):
            v = restricted(_dense_bracket(gens[a], gens[b], graded), idx).ravel()
            nv = np.linalg.norm(v)
            if nv <= 1e-13 * norms[a] * norms[b]:
                continue
            lam = gram_pinv @ (vecs.conj() @ v)
            coeffs[a, b] = lam
            residuals[a, b] = np.linalg.norm(v - vecs.T @ lam) / nv
            both_odd = graded and gens[a].grade == ODD and gens[b].grade == ODD
            coeffs[b, a] = (1.0 if both_odd else -1.0) * lam
            residuals[b, a] = residuals[a, b]
    return coeffs, residuals, sv[0] / sv[-1]


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, DegenerateGeneratorsError) as exc:
        return type(exc)


def sparse_and_dense(seed, cap, interior, labels):
    """Run the sparse-block closure next to the dense reference and assert
    that they agree: closure dims, added labels and closed flag. The dense
    reference brackets gradedly when the seed has an odd member. Returns the
    closure report, the sparse-block structure constants and the dense
    (coeffs, residuals, cond), of the closed span or, for an open closure,
    which stops at an arbitrary ill-conditioned span, of the seed; None when
    both refuse to form structure constants (fewer than two independent
    operators, or a degenerate set)."""
    graded = any(op.grade == ODD for op in seed)
    dims, closed, added, ops = dense_lie_closure(seed, cap, graded, interior, labels)
    report = _outcome(lie_closure, seed, cap, interior=interior, labels=labels)
    if isinstance(report, type):
        assert closed
        assert report is _outcome(dense_structure_constants, ops, graded, interior)
        return None
    assert report.iterations == dims
    assert report.added_labels == added
    assert report.closed == closed
    assert report.dimension == dims[-1]
    # the closed flag's promise: every bracket of the final round is inside
    # the span to within the tolerance
    assert not report.closed or report.max_residual <= CLOSURE_TOL
    gens = ops if closed else seed
    reference = _outcome(dense_structure_constants, gens, graded, interior)
    sc = _outcome(extract_structure_constants, gens, interior=interior)
    if isinstance(reference, type):
        assert sc is reference
        return None
    return report, sc, reference


def coeff_error(sc, coeffs):
    """Largest coefficient difference relative to the largest coefficient."""
    return np.max(np.abs(sc.coeffs - coeffs)) / max(1.0, float(np.max(np.abs(coeffs))))


@pytest.mark.parametrize("name,kwargs", VERIFY_CASES)
def test_sparse_blocks_match_dense_reference_on_catalog(name, kwargs):
    model = build_algebra(name, **kwargs)
    report, sc, (coeffs, residuals, _) = sparse_and_dense(
        model.generators, 4 * model.dim + 8, model.interior(), list(model.labels)
    )
    assert report.closed
    assert coeff_error(sc, coeffs) <= 1e-12
    assert np.max(sc.residuals) < 1e-10 and np.max(residuals) < 1e-10
    assert report.max_residual < 1e-10


@pytest.mark.parametrize("seed_fn", [rabi_seed, lmg_seed])
def test_sparse_blocks_match_dense_reference_on_open_seeds(seed_fn):
    ops, labels, mask = seed_fn()
    report, sc, (coeffs, residuals, _) = sparse_and_dense(ops, 64, mask, labels)
    assert not report.closed and report.dimension == 65
    assert coeff_error(sc, coeffs) <= 1e-12
    assert np.max(np.abs(sc.residuals - residuals)) < 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_sparse_blocks_match_dense_reference_on_random_spans(data):
    name, kwargs = data.draw(
        st.sampled_from([
            ("su2_spin", {"S": 1}),
            ("su2_spin", {"S": Fraction(5, 2)}),
            ("su3_schwinger", {"N": 2}),
            ("su3_schwinger", {"N": 3}),
        ])
    )
    model = build_algebra(name, **kwargs)
    dim = model.basis.dim
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
    if not mask.any():
        mask[0] = True
    coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    seed = [
        linear_combination(
            model.generators, data.draw(st.lists(coeff, min_size=model.dim, max_size=model.dim))
        )
        for _ in range(data.draw(st.integers(min_value=2, max_value=3)))
    ]
    result = sparse_and_dense(seed, 4 * model.dim + 8, mask, None)
    if result is None:
        return
    report, sc, (coeffs, residuals, cond) = result
    # least-squares coefficients and residuals carry round-off amplified by
    # the Gram condition number, which a random mask can make large
    amplified = 100 * np.finfo(float).eps * cond
    assert coeff_error(sc, coeffs) <= max(1e-12, amplified)
    assert np.max(np.abs(sc.residuals - residuals)) <= max(1e-10, amplified)


def test_verify_model_su3_large_sector_stays_sparse():
    # one dense interior block at N = 90 (dim 4186) is 280 MB of complex128
    model = build_algebra("su3_schwinger", N=90)
    assert model.basis.dim == 4186
    tracemalloc.start()
    try:
        report = verify_model(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["closure"]["closed"] and report["closure"]["dim"] == 8
    assert report["closure"]["residual"] < 1e-10
    assert peak < 64 * 2**20
