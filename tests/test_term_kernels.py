"""The term-dict kernels against the Scalar arithmetic they replace.

``LieAlgebra.bracket_sparse`` and ``Matrix.apply_sparse`` sum polynomial
coordinates on packed term dicts, and ``poly_normalize`` divides integer
multivariate conditions by one gcd.  The references below are the code
these replaced, kept verbatim: every coordinate must come out with the same
type (Scalar or native number), text, terms and variable orders, which
decide how larger sums print.  hypothesis draws the inputs (derandomized,
so every run checks the same cases); without it the module is skipped.
"""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liedouble import Element, Poly, Scalar, get, loads, poly_normalize  # noqa: E402
from liedouble import lie_core  # noqa: E402
from liedouble.errors import ValueTooLarge  # noqa: E402
from liedouble.linalg import _sadd  # noqa: E402
from liedouble.scalars import (MAX_POLY_EXPONENT, _derivative, _finish, _mac,  # noqa: E402
                               _poly, _signed_content, _terms, poly_gcd_univariate)

ALGEBRAS = {name: get(name) for name in ("sl3", "sp4", "glambda", "g4ab", "r3lambda")}
NAMES = ("a", "b", "c", "d")
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def checks(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)


# -- the references ------------------------------------------------------


def _reference_bracket(g, u: dict, v: dict) -> dict:
    """The general path of ``bracket_sparse`` on Scalar arithmetic: a Scalar
    per product, and ``_sadd`` per table pair."""
    hits = {}
    for a in u:
        row = g._pairs[a]
        for b in v:
            hit = row.get(b)
            if hit is not None:
                hits[hit[0]] = hit
    out: dict = {}
    for pos in sorted(hits):
        _, i, j, comps = hits[pos]
        ui = u.get(i)
        vj = v.get(j)
        uj = u.get(j)
        vi = v.get(i)
        coef = None
        if ui is not None and vj is not None:
            coef = ui * vj
        if uj is not None and vi is not None:
            coef = -uj * vi if coef is None else coef - uj * vi
        if coef:
            _sadd(out, comps, coef)
    return out


def _reference_apply(m, v: dict) -> dict:
    """``Matrix.apply_sparse`` on Scalar arithmetic: ``_sadd`` per column."""
    out: dict = {}
    for b, vb in v.items():
        _sadd(out, m._column_view[b], vb)
    return out


def _reference_normalize(p: Poly) -> Poly:
    """``poly_normalize`` dividing every input by its signed rational
    content."""
    if p.is_zero():
        return _poly({}, p.vars)
    used = p.variables()
    if len(used) == 1:
        name = next(iter(used))
        g = poly_gcd_univariate(p, _derivative(p, name))
        if g.total_degree() > 0:
            p = p.exact_div(g)
    return p.scale(1 / _signed_content(p))


def _cells(vec: dict) -> list:
    """Key order, and for each coordinate its kind, text, terms in order
    and variable orders."""
    out = []
    for k, c in vec.items():
        if type(c) is Scalar:
            num, den = c.numerator_poly(), c.denominator_poly()
            out.append((k, "Scalar", str(c), list(num._t.items()), num.vars, den.vars))
        else:
            out.append((k, "native", str(c)))
    return out


def _poly_cells(p: Poly) -> tuple:
    return str(p), list(p._t.items()), p.vars


# -- the drawn inputs ------------------------------------------------------


@st.composite
def polys(draw, names, max_terms=3, exps=(0, 0, 1, 1, 2)):
    """A polynomial built through the public arithmetic; ``names`` in a
    drawn order, so variable orders differ between values."""
    names = draw(st.permutations(names))
    out = Poly.const(0)
    for _ in range(draw(st.integers(1, max_terms))):
        term = Poly.const(draw(RATIONALS.filter(bool)))
        for name in names:
            e = draw(st.sampled_from(exps))
            if e:
                term = term * Poly.variable(name) ** e
        out = out + term
    return out


@st.composite
def values(draw, names):
    """A nonzero coordinate: a native int or Fraction, a rational Scalar,
    or (most often) a polynomial Scalar in some of ``names``."""
    kind = draw(st.sampled_from(("int", "fraction", "rational", "poly", "poly", "poly")))
    if kind == "poly":
        subset = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names),
                               unique=True))
        value = Scalar.of(draw(polys(subset)))
        if value:
            return value
    q = draw(RATIONALS.filter(bool))
    if kind == "int":
        return q.numerator
    return Scalar.of(q) if kind == "rational" else q


@st.composite
def sparse(draw, dim, names, max_size=5):
    keys = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=max_size, unique=True))
    return {k: draw(values(names)) for k in sorted(keys)}


@st.composite
def bracket_inputs(draw):
    """An algebra and two sparse vectors in 1 to 4 variables.  The second
    vector is sometimes a multiple of the first plus a small vector, so
    that pair coefficients cancel to zero."""
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    g = ALGEBRAS[name]
    names = NAMES[:draw(st.integers(1, 4))]
    u = draw(sparse(g.dim, names))
    if draw(st.booleans()):
        v = draw(sparse(g.dim, names))
    else:
        scale = draw(values(names))
        v = {k: c * scale for k, c in u.items()}
        for k, c in draw(sparse(g.dim, names, max_size=2)).items():
            v[k] = v[k] + c if k in v else c
        v = {k: c for k, c in v.items() if c}
        if not v:
            v = {0: 1}
    return name, u, v


# -- bracket_sparse --------------------------------------------------------


@checks(70)
@given(bracket_inputs(), st.booleans())
def test_bracket_matches_the_scalar_path(inputs, swap):
    name, u, v = inputs
    g = ALGEBRAS[name]
    if swap:
        u, v = v, u
    assert _cells(g.bracket_sparse(u, v)) == _cells(_reference_bracket(g, u, v))


def _pair_to_a_constant(g, p: Poly, s: Poly, c: int):
    """u = p*e_i + (p*s - c)*e_j and v = e_i + s*e_j for the first table
    pair (i, j): the pair coefficient p*s - (p*s - c) is the constant c."""
    i, j = next(iter(g._table))
    u = {i: Scalar.of(p), j: Scalar.of(p * s - Poly.const(c))}
    v = {i: 1, j: Scalar.of(s)}
    return u, v


@checks(40)
@given(st.sampled_from(sorted(ALGEBRAS)), polys(NAMES[:2]), polys(NAMES[1:3]),
       st.integers(-2, 2))
def test_coefficients_that_cancel_to_a_constant_or_zero(name, p, s, c):
    g = ALGEBRAS[name]
    u, v = _pair_to_a_constant(g, p, s, c)
    u = {k: x for k, x in u.items() if x}
    v = {k: x for k, x in v.items() if x}
    if u and v:
        assert _cells(g.bracket_sparse(u, v)) == _cells(_reference_bracket(g, u, v))


def test_the_fused_path_runs_and_cancels():
    g = ALGEBRAS["sl3"]
    x, y = Poly.variable("x"), Poly.variable("y")
    u, v = _pair_to_a_constant(g, x + y, x - y, 3)
    hits = {pos: g._pairs[i][j] for pos, (i, j) in enumerate(g._table) if i in u and j in v}
    got = lie_core._bracket_terms(u, v, hits)
    assert got is not None
    assert _cells(got) == _cells(_reference_bracket(g, u, v))
    assert all(type(c) is Scalar and c.is_rational for c in got.values())
    # [u, u] = 0: every pair coefficient cancels
    z = {i: Scalar.variable(f"z{i}") for i in range(g.dim)}
    assert g.bracket_sparse(z, z) == {} == _reference_bracket(g, z, z)


@st.composite
def accumulations(draw):
    """Steps ``(comps, coef)`` of a sparse multiply-accumulate into the
    coordinates 0..2.  A step may cancel coordinate 0 down to a constant,
    so that a later polynomial term starts its variable order afresh."""
    names = NAMES[:draw(st.integers(1, 4))]
    steps, acc = [], {}
    for _ in range(draw(st.integers(1, 6))):
        if 0 in acc and type(acc[0]) is Scalar and draw(st.booleans()):
            comps, coef = {0: 1}, -acc[0] + draw(st.integers(0, 2))
            if not coef:
                continue
        else:
            keys = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
            comps = {k: draw(values(names)) for k in keys}
            coef = draw(values(names))
        steps.append((comps, coef))
        _sadd(acc, comps, coef)
    return steps


@checks(40)
@given(accumulations())
def test_accumulation_matches_sadd(steps):
    want, acc = {}, {}
    for comps, coef in steps:
        _sadd(want, comps, coef)
        t, order, scalar = _terms(coef)
        assert _mac(acc, comps, t, (order,), scalar)
    assert _cells(_finish(acc)) == _cells(want)


def test_a_sum_that_turns_constant_drops_its_order():
    x, y = Scalar.variable("x"), Scalar.variable("y")
    xy, yx = x + y, y + x  # the same terms, printed x + y and y + x
    steps = [({0: 1}, xy), ({0: 1}, 1 - xy), ({0: 1}, yx)]
    want, acc = {}, {}
    for comps, coef in steps:
        _sadd(want, comps, coef)
        t, order, scalar = _terms(coef)
        _mac(acc, comps, t, (order,), scalar)
    assert str(want[0]) == "y + x + 1"
    assert _cells(_finish(acc)) == _cells(want)


def test_exponents_at_the_cap_raise_on_both_paths():
    g = ALGEBRAS["sl3"]
    i, j = next(iter(g._table))
    big = Scalar.of(Poly.variable("x") ** MAX_POLY_EXPONENT)
    u, v = {i: big}, {j: Scalar.variable("x"), i: 1}
    for f in (g.bracket_sparse, lambda a, b: _reference_bracket(g, a, b)):
        with pytest.raises(ValueTooLarge):
            f(u, v)
    # below the cap a product is fine on both paths, above 2**13 through
    # the Scalar path alone
    for e in (2 ** 13 - 1, 2 ** 13, MAX_POLY_EXPONENT // 2):
        u = {i: Scalar.of(Poly.variable("x") ** e), j: 1}
        v = {j: Scalar.of(Poly.variable("x") ** e + Poly.variable("y")), i: 2}
        assert _cells(g.bracket_sparse(u, v)) == _cells(_reference_bracket(g, u, v))


def test_denominators_take_the_scalar_path():
    g = ALGEBRAS["glambda"]
    i, j = next(iter(g._table))
    x = Scalar.variable("x")
    u, v = {i: x / (x + 1), j: x}, {j: x * x, i: 3}
    assert _cells(g.bracket_sparse(u, v)) == _cells(_reference_bracket(g, u, v))


def test_a_fraction_in_the_table_falls_back_in_mid_sum():
    # the catalog cell 1/(t + 1) has no term dict: the kernel has summed
    # the pair [e1, e2] when it meets [e1, e3] and gives up, and the Scalar
    # path computes the whole bracket
    entry = {"name": "fr", "dim": 4, "params": ["t"],
             "brackets": [{"i": 1, "j": 2, "value": {"3": 1}},
                          {"i": 1, "j": 3, "value": {"4": "1/(t + 1)"}}]}
    g = loads(json.dumps([entry]))["fr"]
    x, y = Scalar.variable("x"), Scalar.variable("y")
    u, v = {0: x}, {1: y + 1, 2: y}
    assert lie_core._bracket_terms(u, v, {0: g._pairs[0][1], 1: g._pairs[0][2]}) is None
    got, want = g.bracket_sparse(u, v), _reference_bracket(g, u, v)
    assert _cells(got) == _cells(want)
    assert str(Element(g, got)) == str(Element(g, want)) == "(x*y + x)*e3 + ((x*y)/(t + 1))*e4"


# -- apply_sparse ----------------------------------------------------------


@checks(40)
@given(bracket_inputs())
def test_apply_matches_the_scalar_path(inputs):
    name, u, v = inputs
    g = ALGEBRAS[name]
    m = g.ad(Element(g, u))
    assert _cells(m.apply_sparse(v)) == _cells(_reference_apply(m, v))


# -- poly_normalize --------------------------------------------------------


@checks(80)
@given(st.integers(1, 4).flatmap(lambda n: polys(NAMES[:n], max_terms=5,
                                                  exps=(0, 0, 1, 2, 3))),
       st.integers(-12, 12).filter(bool), st.booleans())
def test_normalize_matches_the_content_division(p, k, integral):
    if integral:  # integer coefficients with a content of |k|
        den = 1
        for c in p._t.values():
            den = den * Fraction(c).denominator
        p = p.scale(den)
    p = p.scale(k)
    assert _poly_cells(poly_normalize(p)) == _poly_cells(_reference_normalize(p))
