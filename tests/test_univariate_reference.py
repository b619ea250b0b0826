"""Univariate gcd, square-free parts and rational roots against the dense
coefficient-list implementation they replaced.

The reference functions below are that implementation, kept verbatim in
behaviour: Euclid and deflation on lists of Fractions indexed by exponent.
The package computes on ``Poly`` alone; every result must match the
reference in its packed terms, coefficient types, variable order, printed
text and root set.
"""

import random
from fractions import Fraction

import pytest

from liedouble import Poly, poly_gcd_univariate, poly_normalize, rational_roots
from liedouble.errors import NotUnivariate
from liedouble.scalars import (
    RootReport,
    _MASK,
    _derivative,
    _divisors,
    _native,
    _poly,
    _rem,
    _shift,
    _signed_content,
    _univar,
)


def _coeff_list(p, name):
    out = [Fraction(0)] * (p.degree_in(name) + 1)
    s = _shift(name)
    for m, c in p._t.items():
        out[(m >> s) & _MASK] = Fraction(c)
    return out


def _from_coeff_list(coeffs, name):
    s = _shift(name)
    return _poly({exp << s: _native(c) for exp, c in enumerate(coeffs) if c}, (name,))


def _list_divmod(num, den):
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dd:
        return [Fraction(0)], num
    q = [Fraction(0)] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] / lead
        q[k - dd] = c
        if c:
            for i in range(dd + 1):
                num[k - dd + i] -= c * den[i]
    return q, _list_trim(num)


def _list_trim(c):
    c = list(c)
    while len(c) > 1 and not c[-1]:
        c.pop()
    return c


def _ref_gcd(a, b):
    names = a.variables() | b.variables()
    if len(names) > 1:
        raise NotUnivariate("gcd requires a common single variable")
    if a.is_zero():
        return _ref_normalize(b)
    if b.is_zero():
        return _ref_normalize(a)
    name = next(iter(names)) if names else None
    if name is None:
        return Poly.const(1)
    ca = _list_trim(_coeff_list(a, name))
    cb = _list_trim(_coeff_list(b, name))
    while len(cb) > 1 or cb[0]:
        ca, cb = cb, _list_divmod(ca, cb)[1]
    g = _from_coeff_list(ca, name)
    return g.scale(1 / _signed_content(g))


def _ref_normalize(p):
    if p.is_zero():
        return _poly({}, p.vars)
    used = p.variables()
    if len(used) == 1:
        name = next(iter(used))
        g = _ref_gcd(p, _derivative(p, name))
        if g.total_degree() > 0:
            p = p.exact_div(g)
    return p.scale(1 / _signed_content(p))


def _ref_rational_roots(p):
    name = _univar(p)
    if name is None:
        return RootReport(frozenset(), Poly.const(1))
    content = _signed_content(p)
    ints = [int(c / content) for c in _list_trim(_coeff_list(p, name))]
    roots = set()
    shift = 0
    while not ints[shift]:
        shift += 1
    if shift:
        roots.add(Fraction(0))
        ints = ints[shift:]
    work = [Fraction(v) for v in ints]
    if len(work) > 1:
        lead = abs(int(work[-1]))
        tail = abs(int(work[0]))
        candidates = set()
        for pnum in _divisors(tail):
            for qden in _divisors(lead):
                candidates.add(Fraction(pnum, qden))
                candidates.add(Fraction(-pnum, qden))
        for r in sorted(candidates):
            while len(work) > 1:
                quotient, rem = _list_divmod(work, [-r, 1])
                if rem[0]:
                    break
                roots.add(r)
                work = quotient
    residual = _from_coeff_list(work, name)
    return RootReport(frozenset(roots), residual.scale(1 / _signed_content(residual)))


def _check_remainders(a, b):
    """``_rem`` equals the reference long division at every step of the
    reference Euclid on ``a`` and ``b`` (checked before the gcd itself,
    which a wrong remainder can keep from terminating)."""
    name = next(iter(a.variables() | b.variables()), "t")
    ca, cb = _list_trim(_coeff_list(a, name)), _list_trim(_coeff_list(b, name))
    while len(cb) > 1 or cb[0]:
        rem = _list_divmod(ca, cb)[1]
        got = _rem(_from_coeff_list(ca, name), _from_coeff_list(cb, name))
        assert got == _from_coeff_list(rem, name), (ca, cb)
        ca, cb = cb, rem


def _form(p):
    """Everything a result carries: packed terms with coefficient types,
    variable order and printed text."""
    terms = sorted((m, type(c).__name__, c) for m, c in p._t.items())
    return terms, p.vars, str(p)


ROOTS = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), 3, 6)
COEFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 4), 7)
VARS = ((), ("t",), ("t",), ("s", "t"), ("t", "s"))


def _random_poly(rng):
    """A univariate polynomial in t, or a constant or zero: a rational
    constant times linear factors (roots at 0 and repeated roots are
    common) times at most one irreducible-looking extra factor."""
    kind = rng.random()
    if kind < 0.06:
        return Poly({}, rng.choice(VARS))
    t = Poly.variable("t")
    p = Poly.const(rng.choice(COEFS))
    if kind < 0.15:
        return _poly(p._t, rng.choice(VARS))
    for _ in range(rng.randint(0, 3)):
        p = p * (t - Poly.const(rng.choice(ROOTS)))
    if rng.random() < 0.4:
        extra = Poly.const(rng.choice(COEFS))
        for e in range(1, rng.randint(2, 4)):
            if rng.random() < 0.7:
                extra = extra + (t ** e).scale(rng.choice(COEFS))
        p = p * (t ** rng.randint(1, 3) + extra)
    if p.is_zero():
        return p
    return _poly(p._t, rng.choice(VARS[1:]) if p.variables() else rng.choice(VARS))


def test_univariate_gcd_normalize_and_roots_match_the_dense_list_reference():
    rng = random.Random(20141020)
    shared = 0
    for _ in range(300):
        f, g, h = (_random_poly(rng) for _ in range(3))
        a, b = f * g, f * h
        for x, y in ((a, b), (g, h), (f, b), (a, f)):
            _check_remainders(x, y)
            got, want = poly_gcd_univariate(x, y), _ref_gcd(x, y)
            assert _form(got) == _form(want), (x, y)
            shared += got.total_degree() > 0
        for p in (a, f, g):
            assert _form(poly_normalize(p)) == _form(_ref_normalize(p)), p
            if p.is_zero():
                continue
            got, want = rational_roots(p), _ref_rational_roots(p)
            assert got.roots == want.roots, p
            assert all(type(r) is Fraction for r in got.roots)
            assert _form(got.residual) == _form(want.residual), p
    assert shared > 300  # the inputs do share nontrivial factors


def test_degree_64_gcds_match_sympy():
    # Euclid over the rationals lets these remainders' coefficients grow;
    # the gcd is taken on primitive remainders, which must not change it
    sympy = pytest.importorskip("sympy")
    t, c = Poly.variable("t"), Poly.const
    a, b, common = (t + c(1)) ** 64 + c(3), (t + c(2)) ** 64 + c(5), t ** 2 - c(2)
    ts = sympy.Symbol("t")

    def to_sympy(p):
        coeffs = [sympy.Rational(q.numerator, q.denominator) for q in _coeff_list(p, "t")]
        return sympy.Poly(list(reversed(coeffs)), ts, domain="QQ")

    for x, y in ((a, b), (a * common, b * common), (b * common, a * c(3) * common)):
        got = poly_gcd_univariate(x, y)
        assert got.content() == 1 and got.leading()[1] > 0
        coeffs = _coeff_list(got, "t")
        ref = to_sympy(x).gcd(to_sympy(y)).monic()
        assert [q / coeffs[-1] for q in coeffs] == [
            Fraction(int(q.p), int(q.q)) for q in reversed(ref.all_coeffs())
        ]
