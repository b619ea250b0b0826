"""Operator brackets, the modified bracket equation, and double constructions."""

import random
from fractions import Fraction

import pytest

from liedouble import (
    IdentityReport,
    LinearMap,
    Matrix,
    Scalar,
    abelian_algebra,
    ad_cube_is_derivation,
    b_r,
    build_double,
    extremal_functional,
    get,
    is_classical_rmatrix,
    is_extremal,
    is_sandwich,
    mybe_solve,
    parse_element,
    r_bracket,
    recognize_r31,
    rmatrix_obstruction,
)
from liedouble.errors import AlgebraMismatch, ArityMismatch, JacobiViolation, NotADerivation


def _apply(g, m, x):
    return g.element(m.apply_vec(x.coords))


def test_r_bracket_definition():
    g = get("sl2")
    r = LinearMap.diagonal([1, 2, 3])
    rng = random.Random(5)
    for _ in range(10):
        x = g.element(tuple(Scalar.of(rng.randint(-2, 2)) for _ in range(3)))
        y = g.element(tuple(Scalar.of(rng.randint(-2, 2)) for _ in range(3)))
        assert r_bracket(g, r, x, y) == g.bracket(_apply(g, r, x), y) + g.bracket(
            x, _apply(g, r, y)
        )


def test_b_r_measures_failure_of_multiplicativity():
    g = get("sl2")
    r = LinearMap.diagonal([1, 2, 3])
    rng = random.Random(6)
    for _ in range(10):
        x = g.element(tuple(Scalar.of(rng.randint(-2, 2)) for _ in range(3)))
        y = g.element(tuple(Scalar.of(rng.randint(-2, 2)) for _ in range(3)))
        manual = g.bracket(_apply(g, r, x), _apply(g, r, y)) - _apply(
            g, r, r_bracket(g, r, x, y)
        )
        assert b_r(g, r, x, y) == manual


def test_inner_operator_is_classical_for_symbolic_element():
    g = get("sl2")
    z = parse_element(g, "z1*e1 + z2*e2 + z3*e3")
    report = is_classical_rmatrix(g, g.ad(z))
    assert report.status == "holds"
    assert report.conditions == ()


def test_modified_equation_unique_scalar_for_symbolic_element():
    g = get("sl2")
    z = parse_element(g, "z1*e1 + z2*e2 + z3*e3")
    solution = mybe_solve(g, g.ad(z))
    assert solution.status == "unique"
    z1, z2, z3 = (Scalar.variable(n) for n in ("z1", "z2", "z3"))
    assert solution.value == 4 * z1 * z2 + 4 * z3 * z3


def test_modified_equation_edge_statuses():
    g = get("sl2")
    assert mybe_solve(g, LinearMap.diagonal([1, 2, 3])).status == "none"
    ab = abelian_algebra(2)
    assert mybe_solve(ab, LinearMap.diagonal([1, 2])).status == "all"


def test_non_rmatrix_detected_with_witness():
    g = get("sl2")
    r = LinearMap.diagonal([1, 2, 3])
    report = is_classical_rmatrix(g, r)
    assert report.status == "fails"
    assert report.witness == (0, 1, 2)
    obstruction = rmatrix_obstruction(g, r)
    assert obstruction
    assert min(obstruction) == (0, 1, 2)
    assert not obstruction[0, 1, 2].is_zero()


def test_parametric_operator_gives_a_conditional_verdict():
    g = get("sl2")
    report = is_classical_rmatrix(g, LinearMap.diagonal([Scalar.variable("t"), 1, 1]))
    assert report.status == "conditional"
    assert [str(p) for p in report.conditions] == ["t^2 - 1"]
    assert report.roots == (frozenset({Fraction(-1), Fraction(1)}),)
    for t in (1, -1):
        assert is_classical_rmatrix(g, LinearMap.diagonal([t, 1, 1])).status == "holds"
    report = is_classical_rmatrix(g, LinearMap.diagonal([2, 1, 1]))
    assert report.status == "fails" and report.witness == (0, 1, 2)
    assert str(report.value) == "6*e3"


def test_map_operations_return_scalars():
    # map operations compute on native column entries; what they return
    # holds Scalars only, on rational and parametric input alike
    def scalars_only(m):
        return all(type(e) is Scalar for row in m.sparse_rows for e in row.values())

    for name in ("sl3", "r3lambda"):
        g = get(name)
        z = g.element({0: 1, 1: Fraction(1, 2), g.dim - 1: -3})
        a, b = g.ad(z), g.ad(g.basis_element(1))
        assert scalars_only(a.compose(b)) and scalars_only(a.commutator(b))
        assert not a.compose(b).is_zero() and not a.commutator(b).is_zero()
    sl3 = get("sl3")
    functional = extremal_functional(sl3, sl3.basis_element(1).scale(Scalar.of(3)))
    assert any(functional) and all(type(c) is Scalar for c in functional)


def test_obstruction_vanishes_for_inner_operator():
    g = get("sl2")
    obstruction = rmatrix_obstruction(g, g.ad(g.basis_element(0)))
    assert not obstruction


def test_double_from_inner_operator_both_kinds_agree():
    g = get("sl2")
    for text in ("e1", "e2", "e1 + e3"):
        z = parse_element(g, text)
        der = build_double(g, g.ad(z))
        rbr = build_double(g, g.ad(z), kind="rbracket")
        assert der.table == rbr.table


def test_double_of_nilpotent_inner_operator_is_solvable_rank_one_type():
    g = get("sl2")
    double = build_double(g, g.ad(g.basis_element(0)))
    assert double.bracket_lines() == ["[e1,e2] = -2*e1", "[e2,e3] = 2*e3"]
    assert recognize_r31(double)


def test_recognize_r31_on_catalog_entries():
    assert recognize_r31(get("r3lambda", {"lam": Fraction(1)}))
    assert not recognize_r31(get("r3lambda", {"lam": Fraction(2)}))
    assert not recognize_r31(get("n3"))
    with pytest.raises(ValueError):
        recognize_r31(get("r3lambda"))


def test_recognize_r31_needs_dimension_three():
    for name in ("r2", "n3+C", "r2+C2", "sl3"):
        assert not recognize_r31(get(name))
    assert not recognize_r31(abelian_algebra(2))


def test_build_double_rejects_non_derivation():
    g = get("n3")
    swap = LinearMap([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    with pytest.raises(NotADerivation):
        build_double(g, swap)


def test_build_double_reports_jacobi_violation_with_triple():
    g = get("ex44")
    d = LinearMap.diagonal([0, 1, 1, 2])
    with pytest.raises(JacobiViolation) as info:
        build_double(g, d)
    assert info.value.triple == (0, 1, 2)
    with pytest.raises(JacobiViolation) as info2:
        build_double(g, d, kind="rbracket")
    assert info2.value.triple == (0, 1, 2)


def test_zero_operator_gives_abelian_double():
    from liedouble import is_abelian

    g = get("sl2")
    double = build_double(g, LinearMap.zero(3))
    assert is_abelian(double)


def test_extremal_and_sandwich_classification():
    sl3 = get("sl3")
    root_vector = sl3.basis_element(1)
    diagonal = sl3.basis_element(6)
    assert is_extremal(sl3, root_vector)
    assert not is_sandwich(sl3, root_vector)
    assert not is_extremal(sl3, diagonal)
    n3 = get("n3")
    assert is_sandwich(n3, n3.basis_element(0))
    assert is_extremal(n3, n3.basis_element(0))


def test_extremal_functional_reproduces_double_bracket():
    sl3 = get("sl3")
    z = sl3.basis_element(1)
    functional = extremal_functional(sl3, z)
    assert functional is not None
    ad_z = sl3.ad(z)
    for j in range(sl3.dim):
        x = sl3.basis_element(j)
        twice = sl3.element(ad_z.apply_vec(ad_z.apply_vec(x.coords)))
        assert twice == z.scale(functional[j])


def test_extremal_functional_returns_none_otherwise():
    sl3 = get("sl3")
    assert extremal_functional(sl3, sl3.basis_element(6)) is None


def test_ad_cube_derivation_matches_extremal_elements():
    sp4 = get("sp4")
    for j in range(sp4.dim):
        z = sp4.basis_element(j)
        if is_extremal(sp4, z):
            assert ad_cube_is_derivation(sp4, z)


def test_map_of_the_wrong_size_is_a_typed_error():
    # one shared check: a non-matrix is ArityMismatch, a matrix of another
    # shape is AlgebraMismatch (still a ValueError for older callers)
    g = get("sl2")
    rect = Matrix([[1, 0], [0, 1], [0, 0]])
    for bad in (LinearMap.identity(2), LinearMap.identity(4), rect):
        for call in (is_classical_rmatrix, rmatrix_obstruction, mybe_solve, build_double):
            with pytest.raises(AlgebraMismatch):
                call(g, bad)
        with pytest.raises(ValueError):
            is_classical_rmatrix(g, bad)
    with pytest.raises(AlgebraMismatch):
        build_double(g, rect, kind="rbracket")
    x = g.basis_element(2)
    for call in (r_bracket, b_r):
        with pytest.raises(AlgebraMismatch):
            call(g, LinearMap.identity(2), x, x)
    for call in (is_classical_rmatrix, rmatrix_obstruction, mybe_solve, build_double):
        with pytest.raises(ArityMismatch):
            call(g, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_elements_of_another_algebra_are_typed_errors():
    # x and y are checked as eval_identity checks its elements: an element of
    # another algebra is AlgebraMismatch, a non-element is ArityMismatch
    g = get("sl2")
    r = LinearMap.identity(3)
    x = g.basis_element(0)
    foreign = (get("sl3").basis_element(7), get("n3").basis_element(0))
    for call in (r_bracket, b_r):
        for bad in foreign:
            with pytest.raises(AlgebraMismatch):
                call(g, r, bad, x)
            with pytest.raises(AlgebraMismatch):
                call(g, r, x, bad)
        for bad in ({0: Scalar.of(1)}, (1, 0, 0), None):
            with pytest.raises(ArityMismatch):
                call(g, r, bad, x)
            with pytest.raises(ArityMismatch):
                call(g, r, x, bad)
    y = g.basis_element(1)
    assert r_bracket(g, r, x, y) == g.bracket(x, y).scale(2)
    assert b_r(g, r, x, y) == -g.bracket(x, y)


def test_identity_and_rmatrix_reports_share_one_shape():
    from liedouble.identities import Report

    # one base holds the verdict fields; an R-matrix report is not an
    # identity report, so consumers can tell them apart with isinstance
    rep = is_classical_rmatrix(get("sl2"), Matrix.diagonal([0, 1, 2]))
    assert isinstance(rep, Report) and issubclass(IdentityReport, Report)
    assert not isinstance(rep, IdentityReport)
    assert rep.common_roots is None and rep.exceptional.is_empty()
    assert (rep.status, rep.witness) == ("fails", (0, 1, 2))
