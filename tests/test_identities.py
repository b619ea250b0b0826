"""Bracket identities, quantified checks, and structural audits."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, combinations_with_replacement, permutations, product
from operator import itemgetter

import pytest

from liedouble import (
    ALL_DERIVATIONS,
    ALL_ELEMENTS,
    ALL_INNER_DERIVATIONS,
    Element,
    Fixed,
    LieAlgebra,
    LinearMap,
    Scalar,
    abelian_algebra,
    ad_cube_is_derivation,
    canonical_identity,
    cbm_implies_id34_audit,
    check_quantified,
    derivation_space,
    direct_sum,
    eval_identity,
    get,
    id6_from_id3_audit,
    inner_derivations,
    implication_audit,
    metabelian_equivalences,
    nilpotent_witness_derivation,
    ExceptionalSet,
    parse_element,
    parse_scalar,
    quantifier_from_name,
    recognize_r31,
)
from liedouble import identities
from liedouble.errors import (
    AlgebraMismatch,
    ArityMismatch,
    IncompatibleQuantifier,
    LieDoubleError,
    NotNilpotent,
    UnknownIdentity,
    UnknownQuantifier,
)
from liedouble.identities import _X, _Support
from liedouble.linalg import _sadd


def _apply(g, m, x):
    return g.element(m.apply_vec(x.coords))


def _random_elements(g, rng, count):
    out = []
    for _ in range(count):
        coords = tuple(Scalar.of(rng.randint(-2, 2)) for _ in range(g.dim))
        out.append(g.element(coords))
    return out


def test_canonical_identity_aliases():
    assert canonical_identity("1") == "1"
    assert canonical_identity("id1") == "1"
    assert canonical_identity("Id1") == "1"
    assert canonical_identity("ID4") == "4"
    assert canonical_identity("id6") == "6"
    assert canonical_identity("std5") == "s5"
    assert canonical_identity("s5") == "s5"


def test_quantifier_from_name():
    assert quantifier_from_name("all-der") is ALL_DERIVATIONS
    assert quantifier_from_name("all-inner") is ALL_INNER_DERIVATIONS
    assert quantifier_from_name("all-elem") is ALL_ELEMENTS
    z = get("sl2").basis_element(0)
    q = quantifier_from_name("fixed", z)
    assert isinstance(q, Fixed)


def test_unknown_names_and_non_elements_raise_typed_errors():
    # LieDoubleErrors that are still ValueErrors (names) or TypeErrors (a
    # non-element operand), so callers catching those keep working
    for code in ("7", "id5", "", "s6", None):
        with pytest.raises(UnknownIdentity, match="unknown identity") as err:
            canonical_identity(code)
        assert isinstance(err.value, LieDoubleError) and isinstance(err.value, ValueError)
    with pytest.raises(UnknownQuantifier, match="unknown quantifier name 'all-maps'") as err:
        quantifier_from_name("all-maps")
    assert isinstance(err.value, ValueError)
    with pytest.raises(UnknownQuantifier, match="needs a payload"):
        quantifier_from_name("fixed")
    g = get("sl2")
    x = g.basis_element(0)
    for other in (5, None, "e1", {0: 1}, LinearMap.identity(3)):
        for call in (lambda: g.bracket(x, other), lambda: g.bracket(other, x), lambda: g.ad(other)):
            with pytest.raises(ArityMismatch, match="expects an element") as err:
                call()
            assert isinstance(err.value, LieDoubleError) and isinstance(err.value, TypeError)
    with pytest.raises(AlgebraMismatch):
        g.bracket(x, get("sl3").basis_element(0))
    with pytest.raises(AlgebraMismatch):
        g.ad(get("sl3").basis_element(0))
    assert g.bracket(x, g.basis_element(1)) == -g.bracket(g.basis_element(1), x)


def test_map_identity_formulas_on_explicit_inputs():
    g = get("sl2")
    d = g.ad(parse_element(g, "e1 + 2*e3"))
    x = parse_element(g, "e1 - e2")
    y = parse_element(g, "e2 + e3")
    w = parse_element(g, "e1 + e3")
    hom_jacobi = (
        g.bracket(_apply(g, d, x), g.bracket(y, w))
        + g.bracket(_apply(g, d, y), g.bracket(w, x))
        + g.bracket(_apply(g, d, w), g.bracket(x, y))
    )
    assert eval_identity(g, "2", d, x, y, w) == hom_jacobi
    assert eval_identity(g, "1", d, x, y, w) == _apply(g, d, hom_jacobi)


def test_element_identity_formulas_on_explicit_inputs():
    g = get("sl2")
    z = parse_element(g, "e1 + e2")
    x = parse_element(g, "e1 - e2")
    y = parse_element(g, "e2 + e3")
    w = parse_element(g, "e1 + e3")
    cyc = (
        g.bracket(z, g.bracket(g.bracket(z, x), g.bracket(y, w)))
        + g.bracket(z, g.bracket(g.bracket(z, y), g.bracket(w, x)))
        + g.bracket(z, g.bracket(g.bracket(z, w), g.bracket(x, y)))
    )
    assert eval_identity(g, "3", z, x, y, w) == cyc
    assert eval_identity(g, "4", z, x, y) == g.bracket(
        z, g.bracket(g.bracket(z, x), g.bracket(z, y))
    )


def test_every_identity_vanishes_on_abelian_algebra():
    g = abelian_algebra(3)
    e = g.basis_element
    d = LinearMap.diagonal([1, 2, 3])
    assert eval_identity(g, "1", d, e(0), e(1), e(2)).is_zero()
    assert eval_identity(g, "2", d, e(0), e(1), e(2)).is_zero()
    assert eval_identity(g, "3", e(0), e(0), e(1), e(2)).is_zero()
    assert eval_identity(g, "4", e(0), e(1), e(2)).is_zero()
    assert eval_identity(g, "6", e(0), e(1), e(1), e(2)).is_zero()
    assert eval_identity(g, "s5", e(0), e(1), e(2), e(0), e(1)).is_zero()


def test_quantifier_compatibility_is_enforced():
    g = get("sl2")
    with pytest.raises(IncompatibleQuantifier):
        check_quantified(g, "3", ALL_DERIVATIONS)
    with pytest.raises(IncompatibleQuantifier):
        check_quantified(g, "1", ALL_ELEMENTS)
    with pytest.raises(IncompatibleQuantifier):
        check_quantified(g, "6", ALL_INNER_DERIVATIONS)
    with pytest.raises(IncompatibleQuantifier):
        check_quantified(g, "s5", ALL_DERIVATIONS)
    # fixed payload must match the identity's slot type
    with pytest.raises(IncompatibleQuantifier):
        check_quantified(g, "1", Fixed(g.basis_element(0)))
    with pytest.raises(IncompatibleQuantifier):
        check_quantified(g, "4", Fixed(LinearMap.identity(3)))


def test_fixed_payload_must_belong_to_the_algebra():
    # the same checks as eval_identity: a map of the wrong size or an
    # element of another algebra is rejected, never swept
    g = get("sl2")
    with pytest.raises(AlgebraMismatch):
        check_quantified(g, "2", Fixed(LinearMap.identity(2)))
    with pytest.raises(AlgebraMismatch):
        check_quantified(g, "2", Fixed(LinearMap.identity(4)))
    with pytest.raises(AlgebraMismatch):
        check_quantified(g, "3", Fixed(get("sl3").basis_element(7)))
    with pytest.raises(AlgebraMismatch):
        check_quantified(g, "1", Fixed(LinearMap([[0, 1, 0], [0, 0, 1]])))
    x = g.basis_element(0)
    with pytest.raises(AlgebraMismatch):
        eval_identity(g, "2", LinearMap([[0, 1, 0], [0, 0, 1]]), x, x, x)
    # with D the identity, identity 2 is the Jacobi identity
    assert check_quantified(g, "2", Fixed(LinearMap.identity(3))).holds


def test_all_elements_verdict_matches_symbolic_evaluation():
    # the polarized sweep must agree with evaluating at fully symbolic
    # elements, which is the literal meaning of the quantifier
    for name, ident, arity in (
        ("r2", "3", 4),
        ("n3", "4", 3),
        ("sl2", "4", 3),
        ("ex44", "3", 4),
        ("g3", "4", 3),
    ):
        g = get(name)
        symbolic = []
        for k in range(arity):
            text = " + ".join(f"s{k}c{i}*{g.labels[i]}" for i in range(g.dim))
            symbolic.append(parse_element(g, text))
        value = eval_identity(g, ident, *symbolic)
        report = check_quantified(g, ident, ALL_ELEMENTS)
        assert (report.status == "holds") == value.is_zero(), name


def test_all_derivations_verdict_matches_symbolic_evaluation():
    from liedouble import derivation_space

    for name in ("r2", "n3"):
        g = get(name)
        space = derivation_space(g)
        coeffs = [Scalar.variable(f"c{k}") for k in range(space.dim)]
        entries = None
        for c, basis_map in zip(coeffs, space.basis):
            term = [[c * e for e in row] for row in basis_map.entries]
            if entries is None:
                entries = term
            else:
                entries = [
                    [a + b for a, b in zip(ra, rb)] for ra, rb in zip(entries, term)
                ]
        d = LinearMap(entries)
        symbolic = []
        for k in range(3):
            text = " + ".join(f"s{k}c{i}*{g.labels[i]}" for i in range(g.dim))
            symbolic.append(parse_element(g, text))
        value = eval_identity(g, "2", d, *symbolic)
        report = check_quantified(g, "2", ALL_DERIVATIONS)
        assert (report.status == "holds") == value.is_zero(), name


def test_fixed_element_quantifier_matches_cube_criterion():
    sl3 = get("sl3")
    nil = sl3.basis_element(1)  # nilpotent: highest root vector
    semi = sl3.basis_element(6)  # semisimple: diagonal element
    rep_nil = check_quantified(sl3, "4", Fixed(nil))
    rep_semi = check_quantified(sl3, "4", Fixed(semi))
    assert rep_nil.status == "holds"
    assert rep_semi.status == "fails"
    assert ad_cube_is_derivation(sl3, nil)
    assert not ad_cube_is_derivation(sl3, semi)


def test_conditional_report_for_parametric_family():
    g = get("glambda")
    report = check_quantified(g, "2", ALL_DERIVATIONS)
    assert report.status == "conditional"
    assert [str(c) for c in report.conditions] == ["lam - 1"]
    assert report.common_roots == frozenset({Fraction(1)})
    assert not report.holds


def test_conditional_specializations_settle_both_ways():
    g = get("glambda")
    holds = check_quantified(g.specialize({"lam": Fraction(1)}), "2", ALL_DERIVATIONS)
    fails = check_quantified(g.specialize({"lam": Fraction(3)}), "2", ALL_DERIVATIONS)
    assert holds.status == "holds" and holds.holds
    assert fails.status == "fails" and not fails.holds
    assert fails.witness is not None


def test_failing_report_witness_reproduces_value():
    g = get("ex413")
    report = check_quantified(g, "4", ALL_ELEMENTS)
    assert report.status == "fails"
    assert report.witness == (0, 0, 0, 1, 2)
    # diagonal polarization witness: z from the repeated block, then (x, y)
    e = g.basis_element
    assert report.value == eval_identity(g, "4", e(0), e(1), e(2))
    assert report.value == -e(7)


def test_public_values_stay_scalars():
    # sweeps compute on native numbers; every value the public surface
    # returns is a Scalar, on rational, simple and parametric algebras
    def scalars_only(*vecs):
        return all(type(c) is Scalar for vec in vecs for c in vec.values())

    for name, assignment in (("filiform", {"n": 8}), ("sl3", None), ("glambda", None)):
        g = get(name, assignment)
        n = g.dim
        m = LinearMap([[Fraction(i + 2 * j + 1, 2) for j in range(n)] for i in range(n)])
        for code in ("1", "2"):
            report = check_quantified(g, code, Fixed(m))
            assert report.status == "fails" and report.value.sparse()
            assert scalars_only(report.value.sparse())
        space = derivation_space(g)
        assert scalars_only(*(row for d in space.basis for row in d.sparse_rows))
        assert scalars_only(*g.table.values())
        e = g.basis_element
        x = g.element([Fraction(1, i + 1) for i in range(n)])
        assert m.apply_sparse(x.sparse()) and g.bracket(x, e(0)).sparse()
        assert scalars_only(g.bracket(x, e(0)).sparse(), g.bracket_sparse(x.sparse(), e(0).sparse()))
        for d in (m, *space.basis):
            assert scalars_only(d.apply_sparse(x.sparse()))
            assert scalars_only(eval_identity(g, "2", d, x, e(0), e(1)).sparse())
        assert scalars_only(eval_identity(g, "3", x, e(0), e(1), e(2)).sparse())


def test_five_slot_identity_alternates_in_last_four_slots():
    sl3 = get("sl3")
    e = sl3.basis_element
    args = [e(0), e(0), e(1), e(3), e(4)]
    base = eval_identity(sl3, "s5", *args)
    assert base == e(0).scale(Scalar.of(-3))
    # swapping two of the alternating slots flips the sign
    swapped = eval_identity(sl3, "s5", args[0], args[2], args[1], args[3], args[4])
    assert swapped == -base
    # a repeat inside the alternating block kills the value
    rep = eval_identity(sl3, "s5", args[0], args[2], args[2], args[3], args[4])
    assert rep.is_zero()


def test_five_slot_identity_statuses():
    # identically satisfied whenever dim <= 4 (five alternating arguments
    # in the last four slots force linear dependence)
    for name in ("r2", "n3", "sl2", "n4", "ex44", "g3"):
        assert check_quantified(get(name), "s5", ALL_ELEMENTS).status == "holds"
    assert check_quantified(get("ex413"), "s5", ALL_ELEMENTS).status == "holds"
    report = check_quantified(get("sl3"), "s5", ALL_ELEMENTS)
    assert report.status == "fails"
    assert report.witness == (0, 0, 1, 3, 4)


def test_fourth_identity_fails_on_simple_algebras_with_witness():
    report = check_quantified(get("g3"), "6", ALL_ELEMENTS)
    assert report.status == "fails"
    assert report.witness == (0, 0, 0, 1, 2)
    assert report.value == get("g3").basis_element(3).scale(Scalar.of(2))


def test_implication_audit_on_nilpotent_algebra():
    report = implication_audit(get("n3"))
    assert report.name == "implication-chain"
    assert report.facts == {
        "id2_all_der": True,
        "id1_all_der": True,
        "id2_all_inner": True,
        "id1_all_inner": True,
        "id3_all_elem": True,
        "id4_all_elem": True,
    }


def test_implication_audit_names_the_first_broken_link(monkeypatch):
    # identity 1 over inner derivations holds but identity 3 fails
    class Verdict:
        def __init__(self, holds):
            self.holds = holds

    monkeypatch.setattr(identities, "check_quantified",
                        lambda g, code, quant: Verdict(code in "12"))
    with pytest.raises(LieDoubleError) as err:
        implication_audit(get("n3"))
    assert str(err.value) == (
        "implication audit violated: id1_all_inner holds but id3_all_elem fails")


def test_scan_conditions_normalizes_each_distinct_numerator_once(monkeypatch):
    # equal numerators in other variable orders, and a multiple of one
    a, b = parse_scalar("t*s - 2*t"), parse_scalar("s*t - 2*t")
    t, t2 = parse_scalar("t"), parse_scalar("2*t")
    values = [((0,), {0: a, 1: t}), ((1,), {0: b, 2: t2}), ((2,), {1: a})]
    real = identities.poly_normalize
    every = ExceptionalSet(real(sparse[k].numerator_poly())
                           for _, sparse in values for k in sorted(sparse))
    calls = []
    monkeypatch.setattr(identities, "poly_normalize", lambda p: calls.append(p) or real(p))
    g = get("sl2")
    fields = identities._verdict(g, values)
    assert (fields["status"], fields.get("witness"), fields.get("value")) == (
        "conditional", None, None)
    assert [(str(p), p.vars) for p in fields["conditions"]] == [
        (str(p), p.vars) for p in every.polys]
    assert len(calls) == 3
    # a constant numerator still stops the scan at its own pair
    failing = values + [((3,), {0: parse_scalar("5")}), ((4,), {0: parse_scalar("1")})]
    fields = identities._verdict(g, failing)
    assert (fields["witness"], fields["value"]) == ((3,), Element(g, failing[3][1]))


def test_parameter_free_checks_refuse_an_undeclared_variable():
    # the table carries t although the algebra declares no parameter
    g = LieAlgebra(3, {(0, 1): {2: Scalar.variable("t")}})
    assert g.params == () and g.is_parametric()
    for check in (implication_audit, metabelian_equivalences, id6_from_id3_audit,
                  cbm_implies_id34_audit, nilpotent_witness_derivation, recognize_r31):
        with pytest.raises(ValueError):
            check(g)


def test_metabelian_equivalences_audit():
    rep = metabelian_equivalences(get("r2+r2"))
    assert rep.facts["metabelian"]
    assert rep.facts["square_bracket_zero"]
    assert rep.facts["id2_all_inner"]
    rep2 = metabelian_equivalences(get("sl2"))
    assert not rep2.facts["metabelian"]
    assert not rep2.facts["square_bracket_zero"]


def test_id6_follows_from_id3_audit():
    for name in ("n4", "ex44", "sl2"):
        facts = id6_from_id3_audit(get(name)).facts
        if facts["id3_all_elem"] == "holds":
            assert facts["id6_all_elem"] == "holds"


def test_cbm_audit_on_center_by_metabelian_algebra():
    facts = cbm_implies_id34_audit(get("n4")).facts
    assert facts["center_by_metabelian"]
    assert facts["id3_all_elem"] == "holds"
    assert facts["id4_all_elem"] == "holds"


def test_metabelian_equivalences_raise_when_the_verdicts_disagree(monkeypatch):
    # r2+r2 is metabelian; a wrong metabelian flag breaks the equivalence
    monkeypatch.setattr(identities, "is_metabelian", lambda g: False)
    with pytest.raises(LieDoubleError) as err:
        metabelian_equivalences(get("r2+r2"))
    assert str(err.value) == (
        "metabelian equivalence violated: {'metabelian': False, "
        "'square_bracket_zero': True, 'id2_all_inner': True}")


class _Status:
    """A report with only the fields the audits read."""

    def __init__(self, status):
        self.status = status
        self.holds = status == "holds"


def test_premise_audits_raise_when_a_forced_identity_fails(monkeypatch):
    # n4 satisfies both premises, so the identity that "fails" must raise
    monkeypatch.setattr(identities, "check_quantified",
                        lambda g, code, quant: _Status("fails" if code == "6" else "holds"))
    with pytest.raises(LieDoubleError) as err:
        id6_from_id3_audit(get("n4"))
    assert str(err.value) == (
        "identity 6 audit violated: {'id3_all_elem': 'holds', 'id6_all_elem': 'fails'}")
    monkeypatch.setattr(identities, "check_quantified",
                        lambda g, code, quant: _Status("fails" if code == "4" else "holds"))
    with pytest.raises(LieDoubleError) as err:
        cbm_implies_id34_audit(get("n4"))
    assert str(err.value) == (
        "center-by-metabelian audit violated: {'center_by_metabelian': True, "
        "'id3_all_elem': 'holds', 'id4_all_elem': 'fails'}")


def test_nilpotent_witness_derivation_properties():
    from liedouble import is_derivation

    g = get("n3")
    d = nilpotent_witness_derivation(g)
    assert not d.is_zero()
    ok, _ = is_derivation(g, d)
    assert ok
    assert check_quantified(g, "2", Fixed(d)).status == "holds"


def test_nilpotent_witness_requires_nilpotent_input():
    with pytest.raises(NotNilpotent):
        nilpotent_witness_derivation(get("sl2"))


def test_inner_quantifier_weaker_than_full_derivation_quantifier():
    rng = random.Random(11)
    for name in ("n3", "n4", "ex44", "r2+r2", "sl2"):
        g = get(name)
        full = check_quantified(g, "2", ALL_DERIVATIONS)
        inner = check_quantified(g, "2", ALL_INNER_DERIVATIONS)
        if full.status == "holds":
            assert inner.status == "holds"
        # spot-check the inner verdict directly with random inner maps
        if inner.status == "holds":
            for z in _random_elements(g, rng, 3):
                x, y, w = _random_elements(g, rng, 3)
                assert eval_identity(g, "2", g.ad(z), x, y, w).is_zero()


def _polarized(f, parts, weight):
    """``weight * sum over nonempty subsets S of parts of (-1)^(d-|S|) *
    f(sum of S)``: by inclusion-exclusion, the sum of the multilinear form
    behind the degree-d map f over all orderings of ``parts``."""
    d = len(parts)
    total = None
    for mask in range(1, 1 << d):
        chosen = [parts[k] for k in range(d) if mask >> k & 1]
        arg = chosen[0]
        for extra in chosen[1:]:
            arg = arg + extra
        v = f(arg)
        if (d - len(chosen)) % 2:
            v = v.scale(-1)
        total = v if total is None else total + v
    return total.scale(weight)


# identity: (position of the polarized slot in eval_identity's slots, its
# degree, the weight a sweep applies)
_POLARIZATION = {
    "1": (0, 2, 1),
    "2": (0, 1, 1),
    "3": (0, 2, Fraction(1, 2)),
    "4": (0, 3, Fraction(1, 6)),
    "6": (1, 2, Fraction(1, 2)),
    "s5": (0, 1, 1),
}


def test_reported_values_are_weighted_polarization_sums():
    # a failing sweep reports the weighted sum over all orderings of the
    # polarized slot, not eval_identity at the witness's basis elements
    from liedouble import derivation_space, inner_derivations

    g3 = get("g3")
    report = check_quantified(g3, "1", ALL_DERIVATIONS)
    d7, e = derivation_space(g3).basis[6], g3.basis_element
    assert report.witness == (6, 6, 0, 1, 2)
    assert report.value == eval_identity(g3, "1", d7, e(0), e(1), e(2)).scale(2)
    assert str(report.value) == "-2*e4"

    checked = 0
    for name in ("g3", "ex413", "sl3", "sp4"):
        g = get(name)
        e = g.basis_element
        for code, quant, space in (
            ("1", ALL_DERIVATIONS, derivation_space),
            ("2", ALL_DERIVATIONS, derivation_space),
            ("1", ALL_INNER_DERIVATIONS, inner_derivations),
            ("2", ALL_INNER_DERIVATIONS, inner_derivations),
            ("3", ALL_ELEMENTS, None),
            ("4", ALL_ELEMENTS, None),
            ("6", ALL_ELEMENTS, None),
            ("s5", ALL_ELEMENTS, None),
        ):
            report = check_quantified(g, code, quant)
            if report.status != "fails":
                continue
            pos, degree, weight = _POLARIZATION[code]
            w = report.witness
            pool = e if space is None else space(g).basis.__getitem__
            before = [e(i) for i in w[:pos]]
            after = [e(i) for i in w[pos + degree:]]
            parts = [pool(i) for i in w[pos:pos + degree]]
            value = _polarized(
                lambda v: eval_identity(g, code, *before, v, *after), parts, weight
            )
            assert value == report.value, (name, code, quant, w)
            checked += 1
    assert checked == 30


class _ScanAlgebra(LieAlgebra):
    """The same table, bracketed by a scan of the whole table: no pair index
    and no single-entry branch, so it shares no shortcut with the kernel."""

    __slots__ = ()

    def bracket_sparse(self, u, v):
        out = {}
        for (i, j), comps in self._table.items():
            ui, vj, uj, vi = u.get(i), v.get(j), u.get(j), v.get(i)
            coef = None
            if ui is not None and vj is not None:
                coef = ui * vj
            if uj is not None and vi is not None:
                coef = -uj * vi if coef is None else coef - uj * vi
            if coef:
                _sadd(out, comps, coef)
        return out


def _maps(g, quant):
    if quant is ALL_DERIVATIONS:
        return derivation_space(g).basis
    if quant is ALL_INNER_DERIVATIONS:
        return inner_derivations(g).basis
    return None


def _reference_stream(g, code, quant):
    """Every ``(key, printed value)`` a sweep of ``code`` under ``quant``
    yields, in order, from eval_identity on a scan-bracket twin of g: at a
    basis key, the weighted polarization sum over the repeated slot, and
    at a Fixed payload, the plain evaluation."""
    twin = _ScanAlgebra(g.dim, g.table, labels=g.labels, params=g.params, validate=False)
    e = twin.basis_element
    # the key lists the slots before the polarized one, its indices and the
    # alternating slots, in the order of eval_identity's slots
    before, degree, weight = _POLARIZATION[code]
    alt = identities._IDENTITIES[code].groups[-1][1]
    n = g.dim
    out = []
    if isinstance(quant, Fixed):
        payload = quant.payload
        if isinstance(payload, Element):
            payload = twin.element(payload.sparse())
        for t in combinations(range(n), alt):
            value = eval_identity(twin, code, payload, *(e(i) for i in t))
            out.append((t, str(value)))
        return [(key, value) for key, value in out if value != "0"]
    maps = _maps(g, quant)
    pool = e if maps is None else maps.__getitem__
    count = n if maps is None else len(maps)
    for head in product(*[range(n)] * before,
                        combinations_with_replacement(range(count), degree)):
        for t in combinations(range(n), alt):
            fixed = [e(i) for i in head[:before]]
            parts = [pool(i) for i in head[before]]
            value = _polarized(lambda v: eval_identity(twin, code, *fixed, v, *(e(i) for i in t)),
                               parts, weight)
            out.append((head[:before] + head[before] + t, str(value)))
    return [(key, value) for key, value in out if value != "0"]


def _sweep_stream(g, code, quant):
    payload = quant.payload if isinstance(quant, Fixed) else None
    if isinstance(payload, Element):
        payload = payload._sparse
    values = identities._sweep(g, identities._IDENTITIES[code], payload, _maps(g, quant))
    return [(key, str(Element(g, value))) for key, value in values]


def _fixed_quantifiers(g):
    """A Fixed map and a Fixed element with mixed rational entries."""
    n = g.dim
    m = LinearMap([[Fraction((2 * i + 3 * j) % 5 - 2, 1 + (i + j) % 3) for j in range(n)]
                   for i in range(n)])
    z = g.element([Fraction((i % 3) - 1, i + 1) or Fraction(1, 2) for i in range(n)])
    return Fixed(m), Fixed(z)


@pytest.mark.parametrize("name", ["n4", "ex413", "sl3", "filiform6", "glambda"])
def test_every_swept_value_matches_the_polarized_reference(name):
    # the whole stream of every sweep, not just its first failing tuple:
    # every key in order and every value as printed (parametric values
    # included), under each admitted quantifier
    g = get("filiform", {"n": 6}) if name == "filiform6" else get(name)
    fixed_map, fixed_elem = _fixed_quantifiers(g)
    admitted = {"map": (fixed_map, ALL_DERIVATIONS, ALL_INNER_DERIVATIONS),
                "z": (fixed_elem, ALL_ELEMENTS), None: (ALL_ELEMENTS,)}
    nonzero = 0
    for code, spec in identities._IDENTITIES.items():
        for quant in admitted[spec.argument]:
            got = _sweep_stream(g, code, quant)
            assert got == _reference_stream(g, code, quant), (name, code, quant)
            nonzero += sum(value != "0" for _, value in got)
    assert nonzero > 0


@pytest.mark.parametrize("name", ["sl3", "glambda"])
def test_a_dense_table_swept_with_supports_matches_the_polarized_reference(name, monkeypatch):
    # sl3's table is too full for the symbolic phase, which a sweep then
    # skips; run it anyway, as on the sparse glambda
    monkeypatch.setattr(identities, "_symbolic", lambda g: True)
    test_every_swept_value_matches_the_polarized_reference(name)


@pytest.mark.parametrize("first, second", [("filiform", "sl2"), ("sl2", "filiform")])
def test_rows_filled_past_a_zero_outer_step_match_the_reference(first, second):
    # an inner value depends on the rest of the head, not on its first
    # occurrence, so the one kept for a rest serves every head with that
    # rest.  Where the first occurrence lies in the other summand, the outer
    # bracket is zero on this summand's tuples: a head there must keep no
    # zero for the rest, or a later head of this summand reads it and the
    # terms of identity 1 no longer cancel.
    # The sl2 summand makes identity 2 fail over all (inner) derivations
    summand = {"filiform": get("filiform", {"n": 6}), "sl2": get("sl2")}
    g = direct_sum(summand[first], summand[second])
    assert identities._symbolic(g)
    fixed_map, fixed_elem = _fixed_quantifiers(g)
    admitted = {"map": (fixed_map, ALL_DERIVATIONS, ALL_INNER_DERIVATIONS),
                "z": (fixed_elem, ALL_ELEMENTS), None: (ALL_ELEMENTS,)}
    failing = 0
    for code, spec in identities._IDENTITIES.items():
        for quant in admitted[spec.argument]:
            ref = _reference_stream(g, code, quant)
            assert _sweep_stream(g, code, quant) == ref, (code, quant)
            rep = check_quantified(g, code, quant)
            assert rep.status == ("fails" if ref else "holds"), (code, quant)
            if ref:
                assert (rep.witness, str(rep.value)) == ref[0], (code, quant)
                failing += not isinstance(quant, Fixed)
    assert failing == 2


@lru_cache(maxsize=None)
def _pick(node):
    """Picks the head occurrences that ``node`` reads from an ordering: the
    key under which ``_ParentSupports`` keeps the node's supports."""
    deps = set()
    todo = [node]
    while todo:
        n = todo.pop()
        if n.h is not None:
            deps.add(n.h)
        todo.extend(n.kids)
    return itemgetter(*sorted(deps)) if deps else lambda occ: ()


# the symbolic phase as it was before one join per term gave the sweep its
# heads and its tuples, kept verbatim but for the memo key that ``_pick``
# gives: supports per head, with concrete occurrences, and a head list for
# 1, 3, 4 and 6 from one join with every head occurrence a variable
class _ParentSupports:
    """The symbolic phase of a sweep: index supports, read off ``g._pairs``.

    ``of(node, occ)`` maps each set of basis indices that can fill the
    alternating slots of ``node`` (a frozenset) to the coordinates where the
    node's value can be nonzero, at the head occurrences ``occ`` (pool
    indices).  A set whose value is zero for certain is absent.  The support
    of [S, T] is the union of the table pairs' components over a in S and b
    in T: it holds every nonzero coordinate, needs no arithmetic and sees no
    cancellation.  A head occurrence has its vector's keys, a map applied to
    an index set the union of those columns' keys.  A bracket walks the
    smaller side's supports through ``g._pairs`` into the other side's index
    by coordinate, so its cost follows the structurally nonzero partial
    brackets, not the number of tuples.  Nodes below a term are kept for the
    sweep, keyed by the occurrences they read; a whole term is computed once
    per ordering of each head (``term``).  An occurrence given as None is a
    variable: it, or the map it applies, takes every pool index i, as the
    pair (h, i) in the index set, which no alternating index meets.  A term
    reads each occurrence once, so a key holds one pair per variable, and
    ``heads`` reads the orderings off the keys of one join."""

    def __init__(self, g, pool):
        self.pairs, self.pool, self.memo = g._pairs, pool, {}
        self.alt = _Support((frozenset((i,)), (i,)) for i in range(g.dim))

    def of(self, node, occ) -> _Support:
        if node is _X:
            return self.alt
        key = (node, _pick(node)(occ))
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = self.term(node, occ)
        return got

    def term(self, node, occ) -> _Support:
        h = node.h
        if node.kind == "occ":
            if occ[h] is None:  # a variable: every pool index, as the pair (h, i)
                return _Support((frozenset(((h, i),)), v.keys()) for i, v in enumerate(self.pool))
            return _Support({frozenset(): self.pool[occ[h]].keys()})
        out = _Support()
        if node.kind == "map":
            kid = self.of(node.kids[0], occ)
            for m in range(len(self.pool)) if occ[h] is None else (occ[h],):
                var = frozenset(((h, m),)) if occ[h] is None else None
                cols = self.memo.get(("columns", m))
                if cols is None:
                    cols = self.memo["columns", m] = [c.keys() for c in self.pool[m]._column_view]
                for indices, s in kid.items():
                    image = set().union(*[cols[i] for i in s])
                    if image:
                        out[indices if var is None else indices | var] = image
            return out
        right = self.of(node.kids[1], occ)
        left = self.of(node.kids[0], occ) if right else None
        if not left:
            return out
        if len(left) > len(right):
            left, right = right, left
        index, pairs = right.by_coord(), self.pairs
        for key, s in left.items():
            for p in s:
                for q, hit in pairs[p].items():
                    for other in index.get(q, ()):
                        if key.isdisjoint(other):
                            both = key | other
                            got = out.get(both)
                            if got is None:
                                out[both] = set(hit[3])
                            else:
                                got.update(hit[3])
        return out

    def heads(self, spec):
        """The heads of ``spec`` whose walk can be nonempty, in product order,
        as ``_sweep`` takes them: per group, its key part and its pool
        indices, which are equal here.  These are the heads with an ordering
        whose rest has a nonempty inner support, since a term of 1, 3, 4 and
        6 reads the rest through the inner node only, and those where a later
        term (6's second) can be nonzero at some ordering.

        They come from one join per term, with every head occurrence a
        variable.  A key of the inner node, which reads every occurrence but
        the first, gives a live rest, and so an ordering for each first
        occurrence; a key of a later term gives an ordering.  An ordering's
        head sorts it within each group.  The joins follow the table's
        pairs, so a table with no live rest lists none in a few steps,
        whatever the pool's size; a failing sweep pays for the whole join
        before its first head."""
        sizes = [d for _, d in spec.groups[:-1]]
        cuts = list(zip(accumulate(sizes, initial=0), accumulate(sizes)))
        free = (None,) * cuts[-1][1]

        def orderings(term):  # each key's variables, by occurrence
            return {tuple([i for _, i in sorted(e for e in key if type(e) is tuple)])
                    for key in self.term(term, free)}

        def head(order):
            return sum([tuple(sorted(order[a:b])) for a, b in cuts], ())

        heads = set()
        # each live rest once, as the head of its ordering after a first -1
        for rest in {head((-1, *rest))[1:] for rest in orderings(spec.terms[0].kids[-1])}:
            part, others = rest[:sizes[0] - 1], rest[sizes[0] - 1:]
            heads.update([tuple(sorted((first, *part))) + others for first in range(len(self.pool))])
        for term in spec.terms[1:]:
            heads.update(map(head, orderings(term)))
        for h in sorted(heads):
            yield [(h[a:b],) * 2 for a, b in cuts]

    def tuples(self, nodes, orders, keep=False) -> set:
        """The index tuples (sorted) where some of ``nodes`` can be nonzero
        at some of the orderings ``orders``.  With ``keep`` the nodes are
        kept for the sweep too, as inner nodes, which later heads share."""
        get = self.of if keep else self.term
        return {tuple(sorted(key)) for occ in orders for node in nodes for key in get(node, occ)}


def _product_sweep(g, spec, payload, maps, lister=None):
    """The sweep of a table that takes the symbolic phase, on the supports
    of ``_ParentSupports``: every head in product order, each with its own
    supports, and a rest's row made at the head where it follows pool index
    0.  With ``lister``, a sweep of 1, 3, 4 or 6 without a payload takes
    the heads ``lister(supports, spec)`` gives instead, as the sweep did
    when it listed the heads of those alone.  The reference of the sweep."""
    assert identities._symbolic(g)
    b, f, inner_f, tail_f = g.bracket_sparse, spec.f, spec.inner, spec.tail
    keep = payload is None
    rows, tails, memo = {}, {}, {}
    basis = [{i: 1} for i in range(g.dim)]
    if payload is not None:
        pool = [payload]
        if spec.argument == "z":
            b = identities._with_images(b, payload, basis)
    else:
        pool = maps if spec.argument == "map" else basis
    sup = _ParentSupports(g, pool)
    linear = len(spec.terms) == 1
    choices = [[((), (0,) * d)] if payload is not None and kind in ("map", "z")
               else [(t, t) for t in combinations_with_replacement(range(len(pool)), d)]
               for kind, d in spec.groups[:-1]]
    heads = product(*choices)
    if lister is not None and keep and inner_f is not None:
        heads = lister(sup, spec)
    visits = 0
    weight = None if payload is not None or spec.weight == 1 else spec.weight
    orderings = permutations if payload is None else lambda t: (t,)
    for head in heads:
        head_key = sum([key for key, _ in head], ())
        orders = [sum(chosen, ()) for chosen in product(*[orderings(t) for _, t in head])]
        rests = [order[1:] for order in orders] if inner_f is not None else ()
        fresh = [rest for order, rest in dict(zip(orders, rests)).items() if order[0] == 0]
        for rest in fresh:
            rows[rest] = {}
        distinct = list(dict.fromkeys(orders))
        walk = sup.tuples(spec.terms[:1], distinct)
        if rests and not fresh:
            walk &= set().union(*[rows.get(rest, ()) for rest in rests])
        elif keep and fresh:
            filling = [order for order, rest in zip(orders, rests) if rest in fresh]
            walk |= sup.tuples(spec.terms[0].kids[-1:], filling, True)
        walk |= sup.tuples(spec.terms[1:], distinct)
        occs = [tuple([pool[i] for i in order]) for order in orders]
        head_rows = [(occ, rows.get(rest, {}), None if rest in fresh else False)
                     for occ, rest in zip(occs, rests)]
        for t in sorted(walk):
            visits += 1
            part = [basis[i] for i in t]
            if tail_f is not None:
                part = tails.get(t) or tail_f(b, *part)
                if not part:
                    continue
                if keep:
                    tails[t] = part
            out = {}
            if inner_f is None:
                for occ in occs:
                    _sadd(out, f(b, memo, *occ, *part))
            else:
                extra = () if linear else part
                for occ, row, absent in head_rows:
                    v = row.get(t, absent)
                    if v is None:
                        v = inner_f(b, memo, *occ[1:], *part) or False
                        if keep:
                            row[t] = v
                    if v or extra and extra[-1]:
                        _sadd(out, f(b, memo, *occ, v, *extra))
            if out:
                if weight is not None:
                    out = {k: c * weight for k, c in out.items()}
                yield head_key + t, out
        if keep:
            for rest in fresh:
                rows[rest] = {t: v for t, v in rows[rest].items() if v}
    return visits


# every entry a sweep takes: the identities, and the square bracket
# [[z, x], [z, y]] of metabelian_equivalences
_SPECS = {**identities._IDENTITIES, "square": identities._SQUARE_BRACKET}


def _run(sweep, g, code, quant):
    """The ``(key, printed value)`` stream of ``sweep`` and its visit count."""
    payload = quant.payload if isinstance(quant, Fixed) else None
    if isinstance(payload, Element):
        payload = payload._sparse
    values = sweep(g, _SPECS[code], payload, _maps(g, quant))
    stream = []
    while True:
        try:
            key, value = next(values)
        except StopIteration as stop:
            return stream, stop.value
        stream.append((key, str(Element(g, value))))


def _symbolic_quantifiers(g):
    """A Fixed map and a Fixed element with polynomial entries in s and t,
    which are neither basis labels nor catalog parameters.  The element is
    built from its coordinates, not parsed: parsing registers each basis
    label as a name, and every name a process meets widens its packed
    monomials for good, which the memory checks of ``test_shared_images``
    would read."""
    n = g.dim
    cells = [parse_scalar(c) for c in ("0", "s", "t + 1", "0", "s*t - 2", "0", "1/2")]
    m = LinearMap([[cells[(2 * i + 3 * j) % 7] for j in range(n)] for i in range(n)])
    z = g.element([cells[(1, 2, 4, 6)[k % 4]] for k in range(n)])
    return Fixed(m), Fixed(z)


def every_sweep(g, symbolic=True):
    """``(code, quantifier)`` for every sweep of ``g``: each entry of
    ``_SPECS`` under each admitted quantifier, with rational Fixed payloads
    and, when ``symbolic``, polynomial ones."""
    maps, zs = zip(_fixed_quantifiers(g), _symbolic_quantifiers(g)) if symbolic else (
        [[q] for q in _fixed_quantifiers(g)])
    admitted = {"map": (*maps, ALL_DERIVATIONS, ALL_INNER_DERIVATIONS),
                "z": (*zs, ALL_ELEMENTS), None: (ALL_ELEMENTS,)}
    return [(code, quant) for code, spec in _SPECS.items() for quant in admitted[spec.argument]]


def check_the_head_list_against_every_head(g):
    """Every sweep of ``g`` (``every_sweep``) yields the same stream, and so
    the same verdict, as the loop over every head on the earlier supports.
    Their visits differ: a head no longer fills the rows of its rests."""
    for code, quant in every_sweep(g):
        got, _ = _run(identities._sweep, g, code, quant)
        assert got == _run(_product_sweep, g, code, quant)[0], (code, quant)


@pytest.mark.parametrize("name", [*[f"filiform{n}" for n in range(3, 13)], "ex413", "glambda",
                                  "filiform6+sl2", "sl2+filiform6"])
def test_the_head_list_matches_the_loop_over_every_head(name):
    # a listed head runs as it did; a head left out had an empty walk.  The
    # direct sums fail identity 2, and have rows whose first head is dead
    summand = {"filiform6": get("filiform", {"n": 6}), "sl2": get("sl2")}
    if "+" in name:
        g = direct_sum(*[summand[part] for part in name.split("+")])
    elif name.startswith("filiform"):
        g = get("filiform", {"n": int(name[8:])})
    else:
        g = get(name)
    check_the_head_list_against_every_head(g)

