"""Exact scalar arithmetic: rationals, sparse polynomials, rational functions."""

from fractions import Fraction

import pytest

from liedouble import (
    Poly,
    Scalar,
    parse_scalar,
    poly_normalize,
    rational_roots,
)
from liedouble.errors import DivisionByZero, NotUnivariate, ParseError


def test_rational_arithmetic_is_exact():
    a = Scalar.of(Fraction(1, 3))
    b = Scalar.of(Fraction(1, 6))
    assert a + b == Scalar.of(Fraction(1, 2))
    assert (a - b) * Scalar.of(6) == Scalar.of(1)
    assert a / b == Scalar.of(2)
    assert str(Scalar.of(Fraction(3, 2))) == "3/2"


def test_variable_arithmetic_and_printing():
    t = Scalar.variable("t")
    assert str(t + 1) == "t + 1"
    assert str(t * t) == "t^2"
    assert str(t / 2) == "1/2*t"
    assert str(-t) == "-t"
    assert t - t == Scalar.of(0)
    assert (t - t).is_zero()
    assert (t / t).is_one()


def test_mixed_int_and_fraction_operands():
    t = Scalar.variable("t")
    assert 2 * t == t + t
    assert t + Fraction(1, 2) == t + Scalar.of(Fraction(1, 2))
    assert (t * 4) / 2 == 2 * t


def test_division_by_zero_scalar_raises():
    t = Scalar.variable("t")
    with pytest.raises(DivisionByZero):
        t / Scalar.of(0)
    with pytest.raises(DivisionByZero):
        Scalar.of(1) / (t - t)


def test_substitute_full_assignment_yields_rational():
    t = Scalar.variable("t")
    u = Scalar.variable("u")
    s = t * t + u - 1
    value = s.substitute({"t": Fraction(2), "u": Fraction(3)})
    assert value == Scalar.of(6)
    assert value.is_rational


def test_rational_function_simplifies_common_factor():
    t = Scalar.variable("t")
    s = (t * t - 1) / (t - 1)
    # exact cancellation: (t^2 - 1)/(t - 1) == t + 1
    assert s == t + 1


def test_parse_scalar_round_trip():
    for text in ("0", "1", "-3/2", "t", "t^2 - 1", "2*a*b + 1/3"):
        s = parse_scalar(text)
        assert parse_scalar(str(s)) == s


def test_parse_scalar_rejects_garbage():
    for bad in ("", "1 +", "t^", "(1", "2**3", "1.5"):
        with pytest.raises(ParseError):
            parse_scalar(bad)


def test_parse_scalar_restricts_allowed_names():
    s = parse_scalar("lam + 1", allowed={"lam"})
    assert s == Scalar.variable("lam") + 1
    with pytest.raises(ParseError):
        parse_scalar("mu + 1", allowed={"lam"})


def test_variables_collects_names():
    t = Scalar.variable("t")
    u = Scalar.variable("u")
    assert (t * u + 1).variables() == frozenset({"t", "u"})
    assert Scalar.of(5).variables() == frozenset()


def test_poly_normalize_removes_content_and_sign():
    t = Scalar.variable("t")
    p = poly_normalize((2 * t * t - 2).numerator_poly())
    q = poly_normalize((t * t - 1).numerator_poly())
    assert p == q
    assert str(poly_normalize((-t).numerator_poly())) == "t"


def test_poly_normalize_univariate_square_free():
    t = Scalar.variable("t")
    cube = ((t - 1) * (t - 1) * (t - 1)).numerator_poly()
    assert str(poly_normalize(cube)) == "t - 1"


def test_rational_roots_finds_all_rational_zeros():
    t = Scalar.variable("t")
    report = rational_roots((t * t - 1).numerator_poly())
    assert report.roots == frozenset({Fraction(-1), Fraction(1)})


def test_rational_roots_reports_irrational_residual():
    t = Scalar.variable("t")
    report = rational_roots((t * t - 2).numerator_poly())
    assert report.roots == frozenset()
    assert not report.residual.is_constant()


def test_rational_roots_requires_univariate_input():
    u = Scalar.variable("u")
    v = Scalar.variable("v")
    with pytest.raises(NotUnivariate):
        rational_roots((u * v).numerator_poly())


def test_scalar_equality_normalizes_representation():
    t = Scalar.variable("t")
    assert t + 1 - 1 == t
    assert Scalar.of(Fraction(4, 2)) == Scalar.of(2)
    assert (2 * t) / 2 == t


def test_power_matches_repeated_multiplication():
    x, y = Scalar.variable("x"), Scalar.variable("y")
    bases = (x + 1, y * x - 2 * y + Fraction(1, 3), (x + y) / (x - 2 * y),
             Scalar.of(Fraction(-3, 7)))
    for base in bases:
        for n in range(-3, 10):
            slow = Scalar.of(1)
            for _ in range(abs(n)):
                slow = slow * base
            if n < 0:
                slow = 1 / slow
            fast = base ** n
            assert fast == slow and str(fast) == str(slow), (base, n)
    assert str(parse_scalar("(y + x)^3")) == str((y + x) * (y + x) * (y + x))


def test_exponent_is_bounded():
    # '^' takes at most 64; anything larger is a parse error raised before
    # any multiplication, however many digits it has
    x = Scalar.variable("x")
    assert parse_scalar("(x+1)^64") == (x + 1) ** 64
    assert parse_scalar("x^0064") == x ** 64
    assert parse_scalar("2^0") == Scalar.of(1)
    for text in ("(x+1)^65", "x^0065", "2^100", "x^" + "9" * 5000):
        with pytest.raises(ParseError):
            parse_scalar(text)


MAX_DIGITS = 600


def test_integer_literal_is_bounded():
    # an integer has at most 600 digits (the documented limit, below 640,
    # the smallest int-string limit Python accepts); a longer one is a parse
    # error raised before int(), so Python's own limit is never reached
    assert parse_scalar("1" * MAX_DIGITS) == Scalar.of(int("1" * MAX_DIGITS))
    assert parse_scalar("x + 0" + "0" * (MAX_DIGITS - 2) + "7") == Scalar.variable("x") + 7
    for text in ("1" * (MAX_DIGITS + 1), "1" * 5000, "x + " + "0" * (MAX_DIGITS + 1), "3/" + "7" * 5000):
        with pytest.raises(ParseError):
            parse_scalar(text)


def test_non_decimal_digit_is_a_parse_error():
    # superscript digits pass str.isdigit but not int(); they are rejected
    # by the tokenizer, while decimal digits of any script still parse
    for text in ("²", "x^²", "2³"):
        with pytest.raises(ParseError):
            parse_scalar(text)
    assert parse_scalar("١٢ + 1") == Scalar.of(13)
