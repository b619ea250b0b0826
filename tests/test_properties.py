"""Property and differential tests of the arithmetic under every verdict.

hypothesis draws the inputs (derandomized, so every run checks the same
cases); sympy is the reference for univariate gcd and rational roots.  Both
are optional test dependencies: without hypothesis the module is skipped,
without sympy only the differential tests are.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liedouble import (  # noqa: E402
    ALL_DERIVATIONS,
    ALL_ELEMENTS,
    ALL_INNER_DERIVATIONS,
    Element,
    LieAlgebra,
    Matrix,
    NullspaceResult,
    Poly,
    Scalar,
    SolveResult,
    Subspace,
    build_double,
    derivation_space,
    extremal_functional,
    from_matrices,
    get,
    nullspace,
    parse_scalar,
    poly_gcd_univariate,
    poly_normalize,
    rank,
    rational_roots,
    solve_affine,
    solve_columns,
)
from liedouble import identities  # noqa: E402
from test_identities import (  # noqa: E402
    _fixed_quantifiers,
    _reference_stream,
    _sweep_stream,
    check_the_head_list_against_every_head,
)

def checks(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)

RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def polys(draw, names=("x", "y"), max_terms=4, max_exp=3):
    """A sparse polynomial, built through the public arithmetic."""
    out = Poly.const(0)
    for _ in range(draw(st.integers(0, max_terms))):
        term = Poly.const(draw(RATIONALS))
        for name in names:
            exp = draw(st.integers(0, max_exp))
            if exp:
                term = term * Poly.variable(name) ** exp
        out = out + term
    return out


@st.composite
def univariate(draw, max_degree=5):
    """A nonzero polynomial in t, often with rational linear factors."""
    t = Poly.variable("t")
    p = Poly.const(draw(RATIONALS.filter(bool)))
    for _ in range(draw(st.integers(0, 3))):
        p = p * (t - Poly.const(draw(RATIONALS)))
    for _ in range(draw(st.integers(0, 2))):
        extra = polys(names=("t",), max_terms=3, max_exp=max_degree).filter(
            lambda q: not q.is_zero())
        p = p * draw(extra)
    return p


@st.composite
def scalars(draw):
    num = draw(polys())
    den = draw(polys().filter(lambda q: not q.is_zero()))
    return Scalar.of(num) / Scalar.of(den)


def _coeffs(p: Poly, name="t") -> list:
    """Coefficients of a univariate polynomial, constant term first."""
    out = [Fraction(0)] * (p.degree_in(name) + 1)
    for mono, c in p.terms.items():
        out[dict(mono).get(name, 0)] = Fraction(c)
    return out


# -- scalars ---------------------------------------------------------------


@checks(60)
@given(polys(names=("x", "y", "z")), polys(names=("x", "y", "z")))
def test_exact_division_undoes_multiplication(a, b):
    assume(not b.is_zero())
    assert (a * b).exact_div(b) == a


def _assert_native_coefficients(p: Poly):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (p, c)


@checks(60)
@given(polys(names=("x", "y", "z")), polys(names=("x", "y", "z")), RATIONALS, univariate())
def test_poly_coefficients_are_ints_or_non_integral_fractions(a, b, q, u):
    results = [a + b, a - b, a * b, -a, a.scale(q), poly_normalize(a), poly_normalize(u),
               poly_gcd_univariate(u, u * (Poly.variable("t") - Poly.const(q)))]
    if not b.is_zero():
        results += [(a * b).exact_div(b), (a * b).exact_div(b.scale(q) if q else b)]
    if q:
        results.append(a.exact_div(Poly.const(q)))
    for p in results:
        _assert_native_coefficients(p)
        if p.is_constant():
            assert type(p.constant_value()) is Fraction


@checks(40)
@given(scalars(), scalars(), RATIONALS)
def test_rational_scalars_keep_a_fraction_numerator(a, b, q):
    for s in (a + b, a - b, a * b, a - a, a * 0 + q, Scalar.of(Poly.const(q)), q + a - a,
              a / a if a else Scalar.of(q)):
        if s.is_rational:
            assert type(s._num) is Fraction
        else:
            for p in (s.numerator_poly(), s.denominator_poly()):
                _assert_native_coefficients(p)


@checks(60)
@given(scalars())
def test_printed_scalar_parses_back(s):
    assert parse_scalar(str(s)) == s


@checks(25)
@given(scalars(), scalars(), scalars())
def test_scalar_field_axioms(a, b, c):
    # truthiness is the zero test of every kind of Scalar
    assert [bool(s) for s in (a, b, c, a - a)] == [not s.is_zero() for s in (a, b, c, a - a)]
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    if not b.is_zero():
        assert (a / b) * b == a


@checks(40)
@given(univariate())
def test_rational_roots_verify_and_leave_no_rational_root(p):
    report = rational_roots(p)
    for r in report.roots:
        assert p.evaluate({"t": r}) == 0
    residual = report.residual
    if not residual.is_constant():
        assert rational_roots(residual).roots == frozenset()
        for r in report.roots:
            assert residual.evaluate({"t": r}) != 0


# -- elimination -------------------------------------------------------------


@st.composite
def matrices(draw, parametric=False):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    cells = st.integers(-3, 3)
    if parametric:
        t = Scalar.variable("t")
        cells = st.one_of(cells, cells.map(lambda k: k * t + 1))
    grid = [[draw(cells) for _ in range(cols)] for _ in range(rows)]
    # repeat a combination of rows now and then, so the rank drops
    if rows > 1 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        grid[-1] = [a + k * b for a, b in zip(grid[0], grid[1 % (rows - 1)])]
    return Matrix(grid)


def _check_nullspace(m: Matrix):
    ns = nullspace(m)
    assert rank(m).value + ns.dim == m.cols
    assert len(ns.vectors) == len(ns.basis)
    for sparse, dense in zip(ns.vectors, ns.basis):
        assert all(not e.is_zero() for e in sparse.values())
        assert list(sparse) == sorted(sparse)
        assert dense == tuple(sparse.get(j, Scalar.of(0)) for j in range(m.cols))
        for row in m.sparse_rows:
            total = Scalar.of(0)
            for j, a in row.items():
                total = total + a * dense[j]
            assert total.is_zero()


@checks(100)
@given(matrices())
def test_nullspace_is_annihilated_and_rank_nullity_holds(m):
    _check_nullspace(m)


@checks(25)
@given(matrices(parametric=True))
def test_parametric_nullspace_is_annihilated_and_rank_nullity_holds(m):
    _check_nullspace(m)


@checks(60)
@given(st.data())
def test_map_application_matches_the_dense_product(data):
    n = data.draw(st.integers(1, 5))
    t = Scalar.variable("t")
    cells = st.one_of(st.integers(-3, 3), RATIONALS, st.integers(-2, 2).map(lambda k: k * t - 1))
    grid = [[data.draw(cells) for _ in range(n)] for _ in range(n)]
    v = [Scalar.of(data.draw(cells)) for _ in range(n)]
    expected = []
    for row in grid:
        total = Scalar.of(0)
        for a, x in zip(row, v):
            total = total + a * x
        expected.append(total)
    assert Matrix(grid).apply_vec(v) == tuple(expected)


# -- elements ------------------------------------------------------------------

_ELEMENT_ALGEBRAS = ("r2", "n3", "sl2", "n4", "r2+r2", "gl2", "ex413", "sl3", "g2")


def _reference_bracket(g, x, y):
    """[x, y] on dense Fraction lists, summed over the whole table."""
    out = [Fraction(0)] * g.dim
    for (i, j), comps in g.table.items():
        coef = x[i] * y[j] - x[j] * y[i]
        for k, c in comps.items():
            out[k] += coef * c.as_fraction()
    return out


def _assert_matches(element, reference):
    assert element.coords == tuple(Scalar.of(v) for v in reference)
    assert list(element.sparse()) == [i for i, v in enumerate(reference) if v]


@checks(60)
@given(st.data())
def test_element_arithmetic_matches_a_dense_fraction_reference(data):
    g = get(data.draw(st.sampled_from(_ELEMENT_ALGEBRAS)))
    coords = st.lists(st.one_of(st.just(Fraction(0)), RATIONALS), min_size=g.dim, max_size=g.dim)
    x, y, c = data.draw(coords), data.draw(coords), data.draw(RATIONALS)
    ex, ey = g.element(x), g.element(y)
    _assert_matches(ex + ey, [a + b for a, b in zip(x, y)])
    _assert_matches(ex - ey, [a - b for a, b in zip(x, y)])
    _assert_matches(-ex, [-a for a in x])
    _assert_matches(ex.scale(c), [a * c for a in x])
    _assert_matches(g.bracket(ex, ey), _reference_bracket(g, x, y))


def _assert_no_float(value):
    """No float anywhere in a returned value: in containers, in an Element's
    storage and views, in a Matrix's rows, dense view and column view, and in
    the numerator and denominator of every Scalar."""
    assert not isinstance(value, float), value
    if isinstance(value, (tuple, list)):
        for v in value:
            _assert_no_float(v)
    elif isinstance(value, dict):
        _assert_no_float(list(value.values()))
    elif isinstance(value, Element):
        _assert_no_float([value._sparse, value.sparse(), value.coords])
    elif isinstance(value, Matrix):
        _assert_no_float([value.sparse_rows, value.entries, value._column_view])
    elif isinstance(value, NullspaceResult):
        _assert_no_float([value.vectors, value.basis])
    elif isinstance(value, SolveResult):
        _assert_no_float([value.particular, value.basis])
    elif isinstance(value, Scalar):
        _assert_no_float([value.numerator_poly(), value.denominator_poly()])
    elif isinstance(value, Poly):
        _assert_no_float(list(value.terms.values()))
    else:
        assert value is None or type(value) in (int, Fraction), value


_NO_FLOAT_ALGEBRAS = ("sl2", "n4", "ex413", "sl3", "r3lambda", "g4ab", "glambda")


@checks(60)
@given(st.data())
def test_returned_values_hold_no_float(data):
    g = get(data.draw(st.sampled_from(_NO_FLOAT_ALGEBRAS)))
    t = Scalar.variable("t")
    cells = st.one_of(st.integers(-3, 3), RATIONALS, st.integers(-2, 2).map(lambda k: k * t - 1))
    coords = st.lists(cells, min_size=g.dim, max_size=g.dim)
    x, y = g.element(data.draw(coords)), g.element(data.draw(coords))
    c = data.draw(st.one_of(st.integers(-3, 3), RATIONALS))
    a, b = g.ad(x), g.ad(y)
    results = [x + y, x - y, x.scale(c), g.bracket(x, y), a.apply(y), a.compose(b),
               a.commutator(b), extremal_functional(g, x)]
    # an extremal element scaled by a native number: the functional divides
    # by its pivot coordinate, which is stored as an int or a Fraction
    sl3 = get("sl3")
    results.append(extremal_functional(sl3, sl3.basis_element(1).scale(c or 1)))
    m = data.draw(st.one_of(matrices(), matrices(parametric=True)))
    rhs = [data.draw(cells) for _ in range(m.rows)]
    results += [nullspace(m), solve_affine(m, rhs)]
    _assert_no_float(results)


# the stored form: an int, a non-integral Fraction, or a Scalar that carries
# a variable; the cells below also give rational Scalars, integral
# Fractions, zeros of every kind and parametric cancellations
_T = Scalar.variable("t")
_STORED_CELLS = st.one_of(
    st.integers(-3, 3),
    RATIONALS,
    RATIONALS.map(Scalar.of),
    st.integers(-2, 2).map(lambda k: (_T + k) - _T),
    st.integers(-2, 2).map(lambda k: k * _T - 1),
    st.just(_T - _T),
)


def _assert_stored(*vectors):
    for v in vectors:
        for c in v.values():
            assert c and (type(c) is int or (type(c) is Fraction and c.denominator != 1)
                          or (type(c) is Scalar and c.variables())), (v, c)


def _assert_views(*vectors):
    for v in vectors:
        for c in v.values() if isinstance(v, dict) else v:
            assert type(c) is Scalar, (v, c)


def _assert_matrix(m):
    _assert_stored(*m._rows, *m._column_view)
    _assert_views(*m.sparse_rows, *m.entries, m.vec(), m.apply_vec([1] * m.cols))


def _assert_algebra(g):
    hits = [hit for row in g._pairs for hit in row.values()]
    assert all(comps is g._table[i, j] for _, i, j, comps in hits)
    _assert_stored(*g._table.values())
    _assert_views(*g.table.values())


@checks(60)
@given(st.data())
def test_values_are_stored_in_one_form_and_viewed_as_scalars(data):
    n = data.draw(st.integers(1, 4))
    grid = [[data.draw(_STORED_CELLS) for _ in range(n)] for _ in range(n)]
    c = data.draw(_STORED_CELLS)
    a = Matrix(grid)
    b = Matrix.sparse([dict(enumerate(row)) for row in reversed(grid)], n)
    maps = [a, b, Matrix.from_columns([dict(enumerate(row)) for row in grid], n),
            Matrix.from_flat(enumerate(sum(grid, [])), n), Matrix.diagonal(grid[0]),
            a + b, a - b, a - a, a.scale(c), a.compose(b), a.commutator(b)]
    for m in maps:
        _assert_matrix(m)
    # one row fewer than columns, so the nullspace is not zero
    wide = Matrix(grid[1:] or [[0]])
    rhs = [data.draw(_STORED_CELLS) for _ in range(wide.rows)]
    ns, solved = nullspace(wide), solve_affine(wide, rhs)
    _assert_stored(*ns._vectors)
    _assert_views(*ns.vectors, *ns.basis, *solved.basis, solved.particular or ())
    for column in solve_columns(wide, [rhs, [1] * wide.rows])[0]:
        _assert_views(column or ())

    # ad(e1) acts on the abelian ideal spanned by e2 and e3 by any matrix,
    # so every table below is a Lie algebra; [e2, e1] is given reversed
    k = [data.draw(_STORED_CELLS) for _ in range(5)]
    g = LieAlgebra(3, {(0, 1): {1: k[0], 2: k[1]}, (1, 0): {2: k[4]}, (0, 2): {1: k[2], 2: k[3]}},
                   params=("t",))
    h = g.specialize({"t": data.draw(RATIONALS)})
    x, y = g.element(k[:3]), g.element({0: k[3], 2: k[4]})
    doubles = [build_double(g, g.ad(x)), build_double(g, g.ad(y), kind="rbracket")]
    for algebra in (g, h, *doubles):
        _assert_algebra(algebra)
    for element in (x, y, x + y, x - y, x - x, x.scale(c), g.bracket(x, y)):
        _assert_stored(element._sparse)
        _assert_views(element.sparse(), element.coords)
    for m in (g.ad(x), *derivation_space(g).basis):
        _assert_matrix(m)
    span = Subspace.span(g, [x._sparse, dict(enumerate(k[:3])), {1: k[4]}, {}])
    _assert_stored(*span._vectors)
    _assert_views(*span.vectors, *span.basis)


# -- differential tests against sympy -----------------------------------------


def _sympy_poly(p: Poly, sympy):
    t = sympy.Symbol("t")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in _coeffs(p)]
    return sympy.Poly(list(reversed(coeffs)), t, domain="QQ")


@checks(30)
@given(univariate(), univariate())
def test_univariate_gcd_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    coeffs = _coeffs(poly_gcd_univariate(a, b))
    ref = _sympy_poly(a, sympy).gcd(_sympy_poly(b, sympy)).monic()
    assert [c / coeffs[-1] for c in coeffs] == [
        Fraction(int(c.p), int(c.q)) for c in reversed(ref.all_coeffs())
    ]


@checks(30)
@given(univariate())
def test_rational_roots_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    _, factors = _sympy_poly(p, sympy).factor_list()
    expected = set()
    for f, _ in factors:
        if f.degree() == 1:
            a, b = f.all_coeffs()
            root = -b / a
            expected.add(Fraction(int(root.p), int(root.q)))
    assert set(rational_roots(p).roots) == expected


@checks(60)
@given(st.data())
def test_rank_and_nullspace_match_sympy(data):
    sympy = pytest.importorskip("sympy")
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    cells = st.one_of(st.just(Fraction(0)), RATIONALS)
    grid = [[data.draw(cells) for _ in range(cols)] for _ in range(rows)]
    for kind in data.draw(st.lists(st.sampled_from(("zero", "duplicate", "scaled")), max_size=3)):
        row = data.draw(st.sampled_from(grid))
        if kind == "zero":
            row = [Fraction(0)] * cols
        elif kind == "scaled":
            row = [data.draw(RATIONALS) * q for q in row]
        grid.insert(data.draw(st.integers(0, len(grid))), list(row))

    def exact(values):
        return [sympy.Rational(q.numerator, q.denominator) for q in values]

    ref = sympy.Matrix([exact(row) for row in grid])
    ns = nullspace(Matrix(grid))
    assert rank(Matrix(grid)).value == ref.rank()
    assert ns.dim == len(ref.nullspace()) == cols - ref.rank()
    kernel = [exact(c.as_fraction() for c in v) for v in ns.basis]
    for v in kernel:
        assert ref * sympy.Matrix(v) == sympy.zeros(len(grid), 1)
    # independent, annihilated and as many as sympy's: the same kernel
    assert not kernel or sympy.Matrix(kernel).rank() == ns.dim


def _grlex(m, order):
    exps = dict(m)
    return (sum(exps.values()), tuple(exps.get(name, 0) for name in order))


def _max_based_exact_div(p: Poly, d: Poly) -> Poly:
    """The division the package ran before its heap division: a max over
    the whole remainder for every leading term, on Fraction coefficients."""
    order = tuple(sorted(p.variables() | d.variables()))
    dmono = max(d.terms, key=lambda m: _grlex(m, order))
    dcoef = Fraction(d.terms[dmono])
    rem = {m: Fraction(c) for m, c in p.terms.items()}
    out = {}
    while rem:
        lm = max(rem, key=lambda m: _grlex(m, order))
        q = dict(lm)
        for name, e in dmono:
            q[name] -= e
            assert q[name] >= 0, "inexact division"
        q = tuple(sorted((n, e) for n, e in q.items() if e))
        qc = rem[lm] / dcoef
        out[q] = out.get(q, Fraction(0)) + qc
        for m, c in d.terms.items():
            mm = dict(m)
            for name, e in q:
                mm[name] = mm.get(name, 0) + e
            mm = tuple(sorted(mm.items()))
            s = rem.get(mm, Fraction(0)) - c * qc
            if s:
                rem[mm] = s
            else:
                rem.pop(mm, None)
    return Poly({m: c for m, c in out.items() if c}, p.vars)


def _sympy_expr(p: Poly, sympy):
    total = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
        for name, e in mono:
            term *= sympy.Symbol(name) ** e
        total += term
    return total


@checks(60)
@given(polys(names=("x", "y", "z")), polys(names=("x", "y", "z"), max_terms=3))
def test_exact_division_matches_the_max_based_division(a, b):
    assume(not b.is_constant())
    quotient = (a * b).exact_div(b)
    reference = _max_based_exact_div(a * b, b)
    assert list(quotient.terms.items()) == list(reference.terms.items())
    assert str(quotient) == str(reference) and quotient.vars == reference.vars


@checks(30)
@given(polys(names=("x", "y", "z")), polys(names=("x", "y", "z"), max_terms=3))
def test_exact_division_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    assume(not b.is_zero())
    gens = sympy.symbols("x y z")
    q, r = sympy.div(_sympy_expr(a * b, sympy), _sympy_expr(b, sympy), *gens, domain="QQ")
    assert r == 0
    assert sympy.expand(q - _sympy_expr((a * b).exact_div(b), sympy)) == 0


# -- packed monomials against the tuple monomials they replaced ---------------

# Registered in this order on import, which is not alphabetical.  The packed
# ints then compare qz's field first, then qa's, then qm's, while graded lex
# over the sorted names compares qa, qm, qz: an order taken from the packed
# ints shows in the results.
_SCRAMBLED = ("qm", "qa", "qz")
for _name in _SCRAMBLED:
    Poly.variable(_name)


def _tuple_mul(p: Poly, q: Poly) -> Poly:
    """The multiply the package ran before packed monomials: each product
    monomial merged through a dict and sorted back into a tuple."""
    terms = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            exps = dict(m1)
            for name, e in m2:
                exps[name] = exps.get(name, 0) + e
            m = tuple(sorted(exps.items()))
            c = terms.get(m, 0) + c1 * c2
            if c:
                terms[m] = c.numerator if type(c) is Fraction and c.denominator == 1 else c
            else:
                del terms[m]
    return terms, p.vars + tuple(v for v in q.vars if v not in p.vars)


def _tuple_str(terms: dict, vars: tuple) -> str:
    """The printer of tuple monomials: graded lex over the print order."""
    if not terms:
        return "0"
    used = {name for m in terms for name, _ in m}
    order = tuple(v for v in vars if v in used) + tuple(sorted(used - set(vars)))

    def key(m):
        exps = dict(m)
        return (sum(exps.values()), tuple(exps.get(name, 0) for name in order))

    pieces = []
    for m in sorted(terms, key=key, reverse=True):
        c = Fraction(terms[m])
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in sorted(m, key=lambda p: order.index(p[0]))]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        pieces.append(("-" if c < 0 else "") + body if not pieces
                      else (" + " if c > 0 else " - ") + body)
    return "".join(pieces)


@st.composite
def scrambled_polys(draw, max_terms=4):
    """Polys in names first seen against their alphabetical order, built in
    a drawn order so that ``vars`` is often not alphabetical either."""
    names = draw(st.permutations(_SCRAMBLED))
    return draw(polys(names=tuple(names[:draw(st.integers(1, 3))]), max_terms=max_terms))


def _assert_same(p: Poly, terms: dict, vars: tuple):
    assert list(p.terms.items()) == list(terms.items())
    assert p.vars == vars
    assert str(p) == _tuple_str(terms, vars)


def test_scrambled_names_are_registered_against_their_print_order():
    from liedouble.scalars import _FIELDS

    assert _FIELDS["qm"] < _FIELDS["qa"] < _FIELDS["qz"]


@checks(80)
@given(scrambled_polys())
def test_poly_rebuilt_from_its_terms_is_unchanged(p):
    again = Poly(p.terms, p.vars)
    assert again == p and hash(again) == hash(p)
    _assert_same(again, p.terms, p.vars)


@checks(80)
@given(scrambled_polys(), scrambled_polys())
def test_product_matches_the_tuple_monomial_multiply(a, b):
    _assert_same(a * b, *_tuple_mul(a, b))


@checks(60)
@given(scrambled_polys(), scrambled_polys(max_terms=3))
def test_exact_quotient_matches_the_tuple_monomial_division(a, b):
    assume(not b.is_constant())
    terms, vars = _tuple_mul(a, b)
    reference = _max_based_exact_div(Poly(terms, vars), b)
    _assert_same((a * b).exact_div(b), reference.terms, reference.vars)


@checks(80)
@given(scrambled_polys(), RATIONALS, st.booleans())
def test_product_with_a_rational_side_matches_the_constant_poly_route(p, q, left):
    # Scalar._combine scales by a rational side; it used to multiply by it
    # as a constant Poly, which fixes the expected terms, order and text
    old = Poly.const(q) * p if left else p * Poly.const(q)
    s = Scalar.of(q) * Scalar.of(p) if left else Scalar.of(p) * Scalar.of(q)
    assert str(s) == str(Scalar.of(old))
    if not s.is_rational:
        new = s.numerator_poly()
        assert list(new.terms.items()) == list(old.terms.items()) and new.vars == old.vars


# -- the sweep against the polarized reference, on random nilpotent algebras

def _transitive(pattern):
    """``pattern`` closed under (i, j), (j, k) -> (i, k)."""
    pattern = set(pattern)
    while True:
        extra = {(i, l) for i, j in pattern for k, l in pattern if j == k} - pattern
        if not extra:
            return pattern
        pattern |= extra


# a sparse change of basis keeps tuples with a single nonzero cyclic bracket
_BASIS_CHANGE_CELLS = st.sampled_from((0,) * 12 + (1, -1, 2, Fraction(1, 2)))
_NONZERO_CELLS = st.sampled_from((1, -1, 2, Fraction(1, 2)))


@st.composite
def nilpotent_algebras(draw, max_dim=6):
    """A nilpotent Lie algebra of dimension at most ``max_dim``, built by
    ``from_matrices`` from the span of elementary matrices E_ij (i < j) over
    a pattern closed under (i, j), (j, k) -> (i, k), in a random basis of
    that span: the rows of L * U, with L unit lower triangular and U upper
    triangular with a nonzero diagonal.  The pattern grows from the pairs of
    a chain of three or four indices: three give a Heisenberg algebra, four
    the class-3 algebra of all strictly upper triangular 4x4 matrices."""
    size = draw(st.integers(4, 5))
    chain = sorted(draw(st.lists(st.integers(0, size - 1), min_size=3, max_size=4, unique=True)))
    pattern = _transitive(zip(chain, chain[1:]))
    limit = draw(st.integers(len(pattern), max_dim))
    for pair in draw(st.permutations([(i, j) for i in range(size) for j in range(i + 1, size)])):
        grown = _transitive(pattern | {pair})
        if len(grown) <= limit:
            pattern = grown
    pairs = sorted(pattern)
    k = len(pairs)
    lower = [[1 if a == b else draw(_BASIS_CHANGE_CELLS) if b < a else 0 for b in range(k)]
             for a in range(k)]
    upper = [[draw(_NONZERO_CELLS) if a == b else draw(_BASIS_CHANGE_CELLS) if b > a else 0
              for b in range(k)] for a in range(k)]
    change = Matrix(lower).compose(Matrix(upper)).entries
    mats = []
    for row in change:
        m = [[0] * size for _ in range(size)]
        for (i, j), c in zip(pairs, row):
            m[i][j] = c
        mats.append(m)
    return from_matrices(mats)


@checks(10)
@given(nilpotent_algebras())
def test_every_swept_value_matches_the_polarized_reference_on_random_algebras(g):
    # the whole stream of every sweep of every identity, under each admitted
    # quantifier, against eval_identity on a scan-bracket twin of g
    fixed_map, fixed_elem = _fixed_quantifiers(g)
    admitted = {"map": (fixed_map, ALL_DERIVATIONS, ALL_INNER_DERIVATIONS),
                "z": (fixed_elem, ALL_ELEMENTS), None: (ALL_ELEMENTS,)}
    for code, spec in identities._IDENTITIES.items():
        for quant in admitted[spec.argument]:
            assert _sweep_stream(g, code, quant) == _reference_stream(g, code, quant), (code, quant)


@checks(10)
@given(nilpotent_algebras())
def test_the_head_list_matches_the_loop_over_every_head_on_random_algebras(g):
    # with the symbolic phase forced, so that every example lists its heads
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_symbolic", lambda g: True)
        check_the_head_list_against_every_head(g)
