"""The arithmetic shortcuts give what the general routes give.

``Scalar`` adds, subtracts and multiplies two polynomials without a
denominator, and multiplies a polynomial by a native int, with one ``Poly``
operation; ``Poly.__sub__`` runs in one pass.  Each result must be the one
the general route builds, down to the variable order and the order of the
stored terms, since both reach printed output.
"""

import pytest

from liedouble import Poly, Scalar
from liedouble.scalars import _native

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

checks = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# variable orders of the two operands: equal, disjoint, overlapping, reversed
ORDERS = (
    (("x", "y"), ("x", "y")),
    (("x", "y"), ("z", "w")),
    (("x", "y"), ("y", "z")),
    (("x", "y"), ("y", "x")),
)
COEFFS = st.one_of(st.integers(-9, 9), st.fractions(-3, 3, max_denominator=5)).filter(bool)


@st.composite
def poly_over(draw, order, constant_ok=False):
    """A polynomial in the variables of ``order``, printing in that order,
    with int and Fraction coefficients; non-constant unless allowed."""
    terms = {}
    for _ in range(draw(st.integers(0 if constant_ok else 1, 4))):
        mono = tuple(sorted((name, e) for name in order if (e := draw(st.integers(0, 2)))))
        terms[mono] = _native(draw(COEFFS))
    if not constant_ok and all(not mono for mono in terms):
        terms[((order[0], 1),)] = _native(draw(COEFFS))
    return Poly(terms, order)


def _stored(p: Poly):
    return p.vars, [(m, type(c), c) for m, c in p._t.items()]


def _assert_same(got: Scalar, want: Scalar):
    assert str(got) == str(want)
    assert got._den is None and want._den is None
    assert type(got._num) is type(want._num)
    if type(want._num) is Poly:
        assert _stored(got._num) == _stored(want._num)
    else:
        assert got._num == want._num


@checks
@given(st.data())
def test_direct_scalar_paths_build_what_make_builds(data):
    oa, ob = data.draw(st.sampled_from(ORDERS))
    pa, pb = data.draw(poly_over(oa)), data.draw(poly_over(ob))
    k = data.draw(st.integers(-4, 4))
    a, b = Scalar(pa), Scalar(pb)
    one = Poly.const(1)
    for got, poly in ((a + b, pa + pb), (a - b, pa + -pb), (a * b, pa * pb),
                      (a * k, pa * Poly.const(k)), (k * a, pa * Poly.const(k))):
        _assert_same(got, Scalar._make(poly, one))


@checks
@given(st.data())
def test_one_pass_subtraction_is_the_sum_with_the_negation(data):
    oa, ob = data.draw(st.sampled_from(ORDERS))
    pa = data.draw(poly_over(oa, constant_ok=True))
    pb = data.draw(poly_over(ob, constant_ok=True))
    assert _stored(pa - pb) == _stored(pa + -pb)
    assert _stored(pa - pa) == _stored(pa + -pa)


def test_poly_with_a_scalar_goes_to_the_scalar():
    # Poly declines a non-Poly operand, so Python asks the Scalar
    x, t = Poly.variable("x"), Scalar.variable("t")
    assert str(x + t) == str(Scalar(x) + t) == "x + t"
    assert str(x - t) == "x - t"
    assert str(x * t) == str(t * x) == "t*x"  # Scalar.__rmul__ is __mul__
