"""Structure constants, elements, linear maps, and classical invariants."""

import gc
import random
import sys
import weakref
from fractions import Fraction

import pytest

from liedouble import (
    LieAlgebra,
    LinearMap,
    Scalar,
    Subspace,
    center,
    derived_series,
    direct_sum,
    from_matrices,
    get,
    is_abelian,
    is_center_by_metabelian,
    is_metabelian,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    names,
    nilpotency_class,
    parse_element,
    second_derived,
    solvability_class,
)
from liedouble.errors import JacobiViolation, LieDoubleError, ParseError, ValueTooLarge
from liedouble.linalg import _view


def _dims(chain):
    return [sub.dim for sub in chain]


def test_constructor_validates_jacobi():
    # [e1,e2] = e3, [e1,e3] = e1, [e2,e3] = e2 violates the Jacobi identity
    with pytest.raises(JacobiViolation):
        LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}})


def test_bracket_is_antisymmetric_and_bilinear():
    g = get("sl2")
    x = parse_element(g, "e1 + 2*e2")
    y = parse_element(g, "e2 - e3")
    assert g.bracket(x, y) == -g.bracket(y, x)
    z = parse_element(g, "3*e1")
    lhs = g.bracket(x + z, y)
    rhs = g.bracket(x, y) + g.bracket(z, y)
    assert lhs == rhs


def test_parse_element_accepts_labels_and_coefficients():
    g = get("n3")
    x = parse_element(g, "e1 - 3/2*e3")
    assert x.coords == (Scalar.of(1), Scalar.of(0), Scalar.of(Fraction(-3, 2)))


def test_parse_element_symbolic_coefficients():
    g = get("sl2")
    z = parse_element(g, "z1*e1 + z2*e2 + z3*e3")
    assert z.coords[0] == Scalar.variable("z1")
    assert z.coords[2] == Scalar.variable("z3")


def test_parse_element_divides_by_a_denominator():
    g = get("sl2")
    assert str(parse_element(g, "e1/2")) == "1/2*e1"
    x = parse_element(g, "(e1 + e2)/lam")
    assert str(x) == "((1)/(lam))*e1 + ((1)/(lam))*e2"
    lam = Scalar.variable("lam")
    assert x.coords == (1 / lam, 1 / lam, Scalar.of(0))


def test_parse_element_unknown_label_without_new_names():
    g = get("n3")
    with pytest.raises(ParseError):
        parse_element(g, "e1 + nope*e2", allow_new_names=False)


def test_heisenberg_invariants():
    g = get("n3")
    assert _dims(lower_central_series(g)) == [1, 0]
    assert _dims(derived_series(g)) == [1, 0]
    assert nilpotency_class(g) == 2
    assert solvability_class(g) == 2
    assert center(g).dim == 1
    assert is_nilpotent(g) and is_solvable(g) and not is_abelian(g)


def test_simple_algebra_has_no_descending_chain():
    g = get("sl2")
    assert _dims(lower_central_series(g)) == [3]
    assert _dims(derived_series(g)) == [3]
    assert nilpotency_class(g) is None
    assert solvability_class(g) is None
    assert center(g).dim == 0
    assert not is_nilpotent(g) and not is_solvable(g)


def test_filiform_has_maximal_nilpotency_class():
    for n in (4, 6, 9):
        g = get("filiform", {"n": n})
        assert g.dim == n
        assert nilpotency_class(g) == n - 1


def test_solvable_non_nilpotent_example():
    g = get("r2")
    assert is_solvable(g) and not is_nilpotent(g)
    assert solvability_class(g) == 2
    assert is_metabelian(g)


def test_metabelian_and_center_by_metabelian_flags():
    assert is_metabelian(get("r2+r2"))
    assert is_metabelian(get("n3"))
    assert not is_metabelian(get("sl2"))
    assert is_center_by_metabelian(get("n3"))
    assert not is_center_by_metabelian(get("ex413"))


def test_each_series_is_cached_and_handed_out_fresh():
    # the cache keeps vectors, not Subspaces, so the algebra is still freed
    # by reference counting; a caller may change its list freely
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}})
        first, derived = lower_central_series(g), derived_series(g)
        first.clear()
        second = lower_central_series(g)
        assert _dims(second) == [2, 1, 0] and _dims(derived_series(g)) == _dims(derived) == [2, 0]
        assert second[0] is not lower_central_series(g)[0]
        ref = weakref.ref(g)
        del g, derived, second
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_second_derived_matches_derived_series():
    g = get("ex413")
    chain = derived_series(g)
    assert second_derived(g).dim == chain[1].dim
    assert _dims(chain) == [6, 2, 0]


def test_direct_sum_dims_labels_and_cross_brackets():
    g = direct_sum(get("r2"), get("n3"))
    assert g.dim == 5
    assert g.labels == ("e1", "e2", "e3", "e4", "e5")
    # cross-component brackets vanish
    for i in range(2):
        for j in range(2, 5):
            assert g.bracket(g.basis_element(i), g.basis_element(j)).is_zero()
    # each summand keeps its own structure
    assert not g.bracket(g.basis_element(0), g.basis_element(1)).is_zero()
    assert not g.bracket(g.basis_element(2), g.basis_element(3)).is_zero()


def test_direct_sum_invariants_combine():
    g = direct_sum(get("sl2"), get("n3"))
    assert center(g).dim == 1
    assert not is_solvable(g)


def test_linear_map_algebra():
    d = LinearMap.diagonal([0, 1, 2])
    i = LinearMap.identity(3)
    assert d.compose(i).entries == d.entries
    n = LinearMap([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert n.is_nilpotent()
    assert not d.is_nilpotent()
    c = d.commutator(n)
    # N lowers basis index by one, so [diag(0,1,2), N] acts as -N
    assert c.apply_vec((Scalar.of(0), Scalar.of(1), Scalar.of(0)))[0] == Scalar.of(-1)


def test_ad_map_matches_bracket():
    g = get("sl2")
    x = parse_element(g, "e1 - e2")
    ad_x = g.ad(x)
    for j in range(g.dim):
        y = g.basis_element(j)
        assert g.element(ad_x.apply_vec(y.coords)) == g.bracket(x, y)


def test_from_matrices_reconstructs_commutator_algebra():
    # e = E12, f = E21, h = E11 - E22 in 2x2 matrices
    e = [[0, 1], [0, 0]]
    f = [[0, 0], [1, 0]]
    h = [[1, 0], [0, -1]]
    g = from_matrices([e, h, f], labels=["e", "h", "f"])
    assert g.dim == 3
    # matches the standard table: [e,h] = -2e, [e,f] = h, [h,f] = -2f
    assert g.bracket_lines() == ["[e,h] = -2*e", "[e,f] = h", "[h,f] = -2*f"]
    assert not is_solvable(g)


def test_parametric_specialize_replaces_scalars():
    g = get("r3lambda")
    assert g.params == ("lam",)
    assert g.is_parametric()
    h = g.specialize({"lam": Fraction(2)})
    assert h.params == ()
    assert not h.is_parametric()
    # the specialized table carries the numeric coefficient
    assert any("2*" in line for line in h.bracket_lines())


def test_specialize_takes_exact_values_only():
    g = get("r3lambda")
    for bad in (0.1, "1/3"):
        with pytest.raises(TypeError, match="cannot build a Scalar from (float|str)"):
            g.specialize({"lam": bad})
    for value, text in ((2, "2"), (Fraction(1, 3), "1/3"), (Scalar.of(Fraction(-1, 2)), "-1/2")):
        assert g.specialize({"lam": value}).bracket_lines() == [
            "[e1,e2] = e2", f"[e1,e3] = {text}*e3"]


def test_bracket_lines_describe_nonzero_products_only():
    g = get("n3")
    assert g.bracket_lines() == ["[e1,e2] = e3"]


def _full_scan_bracket(g, u, v):
    """[u, v] by visiting every table pair in table order."""
    out = {}
    for (i, j), comps in g.table.items():
        ui, vj, uj, vi = u.get(i), v.get(j), u.get(j), v.get(i)
        coef = None
        if ui is not None and vj is not None:
            coef = ui * vj
        if uj is not None and vi is not None:
            coef = -uj * vi if coef is None else coef - uj * vi
        if coef is None or coef.is_zero():
            continue
        for k, c in comps.items():
            s = out.get(k)
            s = c * coef if s is None else s + c * coef
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _natives(v):
    """Each rational Scalar of ``v`` as an int, or a Fraction if not integral."""
    qs = {i: c.as_fraction() for i, c in v.items()}
    return {i: q.numerator if q.denominator == 1 else q for i, q in qs.items()}


def _bracket_algebras():
    out = []
    for name in names():
        sizes = range(3, 11) if name == "filiform" else [None]
        out += [get(name, {"n": n} if n else None) for n in sizes]
    # a table whose order is not sorted
    g = get("sl3")
    out.append(LieAlgebra(g.dim, dict(reversed(list(g.table.items()))), labels=g.labels))
    return out


def test_bracket_matches_a_full_table_scan():
    # the kernel visits only the table pairs its inputs touch; values,
    # key order and the variable order of printed scalars are those of a
    # scan of the whole table
    def shown(out):
        return [(k, str(c)) for k, c in out.items()]

    rng = random.Random(20141)
    one = Scalar.of(1)
    for g in _bracket_algebras():
        n = g.dim
        basis = [{i: one} for i in range(n)]
        inputs = list(basis)
        for density in (0.2, 0.5, 1.0):
            for _ in range(4):
                inputs.append({
                    i: Scalar.of(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)))
                    for i in range(n) if rng.random() < density
                })
        for u in inputs:
            for v in inputs:
                assert shown(g.bracket_sparse(u, v)) == shown(_full_scan_bracket(g, u, v)), g
                # native inputs (int, Fraction) give the same values in the
                # same key order as the Scalar-wrapped ones
                assert shown(g.bracket_sparse(_natives(u), _natives(v))) == shown(
                    g.bracket_sparse(u, v)), g
        for i in range(n):
            for j in range(n):
                assert list(g.bracket_sparse(basis[i], basis[j])) == list(
                    _full_scan_bracket(g, basis[i], basis[j])
                )
        if g.params:
            # parametric structure constants times symbolic coordinates
            w = {i: Scalar.variable(f"w{i}") for i in range(n)}
            for u in inputs[: n + 3]:
                assert shown(g.bracket_sparse(u, w)) == shown(_full_scan_bracket(g, u, w))
                assert shown(g.bracket_sparse(w, u)) == shown(_full_scan_bracket(g, w, u))
                assert shown(g.bracket_sparse(_natives(u), w)) == shown(g.bracket_sparse(u, w))


def test_bracket_of_symbolic_elements_matches_a_full_table_scan():
    def shown(out):
        return [(k, str(c)) for k, c in out.items()]

    for name in ("sl2", "sl3", "sp4"):
        g = get(name)
        e = g.labels  # z1*e1 + z2*e2 + z3*e3 in the algebra's own labels
        z = parse_element(g, f"z1*{e[0]} + z2*{e[1]} + z3*{e[2]}").sparse()
        y = parse_element(g, f"y1*{e[0]} + y2*{e[-1]} + 3*{e[1]}").sparse()
        others = [{i: Scalar.of(1)} for i in range(g.dim)] + [z, y]
        for v in others:
            assert shown(g.bracket_sparse(z, v)) == shown(_full_scan_bracket(g, z, v)), name
            assert shown(g.bracket_sparse(v, z)) == shown(_full_scan_bracket(g, v, z)), name
        zz = g.bracket_sparse(z, y)
        assert shown(g.bracket_sparse(zz, z)) == shown(_full_scan_bracket(g, zz, z))


def test_bracket_refuses_indices_outside_the_basis():
    g = get("sl2")
    for u, v in (({-1: 1}, {0: 1}), ({0: 1}, {-1: 1}), ({0: 1}, {5: 1}), ({5: 1}, {0: 1}),
                 ({0: 1, 3: 1}, {1: 1}), ({0: 1}, {1: 1, -1: 1}), ({0: 1, 1: 1}, {7: 0})):
        with pytest.raises(ValueError, match="index out of range for size 3"):
            g.bracket_sparse(u, v)
    assert g.bracket_sparse({0: 1}, {2: 1}) == {0: -2}
    assert g.bracket_sparse({2: 1}, {0: 1}) == {0: 2}
    assert g.bracket_sparse({0: 1, 1: 1}, {2: 1}) == {0: -2, 1: 2}


def test_element_from_a_dict_matches_the_dense_tuple():
    g = get("sl3")
    t = Scalar.variable("t")
    dense = [0] * g.dim
    dense[1], dense[5], dense[6] = 1, Fraction(-3, 2), t
    # unsorted keys and an explicit zero
    a, b = g.element(dense), g.element({6: t, 3: 0, 1: 1, 5: Fraction(-3, 2)})
    assert a == b and str(a) == str(b) and a.coords == b.coords
    assert list(a.sparse()) == list(b.sparse()) == [1, 5, 6]
    assert g.element({2: 0}).is_zero() and g.element({2: 0}) == g.zero_element()
    assert (a - b).sparse() == {} and list((b + b).sparse()) == [1, 5, 6]
    for bad in ({g.dim: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            g.element(bad)
    with pytest.raises(ValueError):
        g.element([1] * (g.dim + 1))


def test_subspace_basis_is_the_dense_view_of_its_vectors():
    zero = Scalar.of(0)
    for name in ("n4", "ex413", "sl2+C", "g4ab"):
        g = get(name)
        for sub in lower_central_series(g) + derived_series(g) + [center(g)]:
            assert len(sub.basis) == len(sub.vectors) == sub.dim
            for v, row in zip(sub.vectors, sub.basis):
                assert list(v) == sorted(v) and not any(c.is_zero() for c in v.values())
                assert row == tuple(v.get(i, zero) for i in range(g.dim))
    g = get("n3")
    one, two = Scalar.of(1), Scalar.of(2)
    sub = Subspace.span(g, [{1: two, 0: two}, {}, {0: one, 1: one}])
    assert sub.vectors == ({0: one, 1: one},) and sub.basis == ((one, one, zero),)
    assert sub.contains_vector({0: two, 1: two}) and sub.contains_vector({})
    assert not sub.contains_vector({2: one})
    assert center(g).contains(Subspace.span(g, [{2: two}]))


def _validate_every_pair(g):
    """The Jacobi check as it was written before each triple was evaluated
    once: every table pair against every third index, raising at the first
    nonzero Jacobiator."""
    n = g.dim
    for i in range(n):
        for j in range(i + 1, n):
            if not g.table.get((i, j)):
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                jac = g._jacobiator(i, j, k)
                if jac:
                    a, b, c = sorted((i, j, k))
                    coords = {t: Scalar.of(v) for t, v in jac.items()}
                    raise JacobiViolation(a, b, c, _view(coords, n), g.labels)


def _violation(check, g):
    try:
        check(g)
    except JacobiViolation as e:
        return str(e), e.triple, e.coords
    return None


def test_validation_matches_the_every_pair_loop():
    # skipping triples already reached raises the same violation, with the
    # same message and coordinates, and accepts the same tables
    rng = random.Random(1405)
    t = Scalar.variable("t")
    tables = _bracket_algebras()
    for _ in range(3000):
        n = rng.randint(3, 6)
        density = rng.choice((0.15, 0.3, 0.6))
        table = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    table[(i, j)] = {
                        k: rng.choice((1, -1, 2, Fraction(1, 2), t)) for k in range(n)
                        if rng.random() < 0.35
                    }
        tables.append(LieAlgebra(n, table, validate=False))
    failures = 0
    for g in tables:
        want = _violation(_validate_every_pair, g)
        assert _violation(LieAlgebra._validate, g) == want
        failures += want is not None
    assert 0 < failures < len(tables)


@pytest.mark.parametrize("name, triples", [("g2", 364), ("sp4", 116), ("sl3", 56)])
def test_validation_evaluates_each_triple_once(monkeypatch, name, triples):
    g = get(name)
    calls = []
    jacobiator = LieAlgebra._jacobiator

    def counted(self, i, j, k):
        calls.append(tuple(sorted((i, j, k))))
        return jacobiator(self, i, j, k)

    monkeypatch.setattr(LieAlgebra, "_jacobiator", counted)
    LieAlgebra(g.dim, g.table, labels=g.labels)
    assert len(calls) == len(set(calls)) == triples


def test_printing_a_huge_coordinate_raises_a_typed_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < 38_400:
        pytest.skip("this interpreter prints integers of any length")
    g = get("sl2")
    big = 10 ** 8192
    for x in (g.element({0: big, 1: 1}), g.element({1: 1, 2: Fraction(-1, big)})):
        with pytest.raises(ValueTooLarge) as info:
            str(x)
        assert isinstance(info.value, LieDoubleError)
        assert str(info.value) == f"value too large to print: over {limit} digits"
