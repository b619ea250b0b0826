"""Exact scalar arithmetic for the whole package.

Three nested levels, all with decidable equality:

* rationals (``fractions.Fraction``),
* sparse multivariate polynomials over the rationals (:class:`Poly`),
  whose coefficients are ``int`` when integral and ``Fraction`` otherwise,
* fractions of polynomials (represented inside :class:`Scalar`).

A :class:`Scalar` always sits at the lowest level that can represent its
value: a constant polynomial collapses to a rational, a fraction with
constant denominator collapses to a polynomial.  Fractions are kept in a
normal form (see :meth:`Scalar._make`) so that printing is canonical and
equality can fall back to cross-multiplication.  Sums, differences and
products of Scalars without a denominator combine their numerators
directly; only genuine fractions go through that normal form.

There is deliberately no multivariate gcd: fractions with more than one
variable are reduced only by monomial and rational content.  Univariate
fractions are fully reduced, which is all the rest of the package needs.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import chain
from math import comb, gcd, lcm
from operator import add, mul, or_, sub

from .errors import (DenominatorVanishes, DivisionByZero, InexactDivision, NegativePower, NotAScalar,
                     NotRational, NotUnivariate, ParseError, ValueTooLarge, ZeroPolynomial)

# A monomial is one int.  Each variable name is interned in _FIELDS, in the
# order names are first seen, which gives it a _W-bit field holding its
# exponent; the top bit of every field is a guard that stays clear.  So a
# product of monomials is an int add, b divides a when a - b leaves every
# guard bit clear, and equality and hashing compare ints; 0 is the constant
# monomial.  An exponent above MAX_POLY_EXPONENT would reach a guard bit and
# raises ValueTooLarge instead.
#
# The registry order depends on what a process has seen, so no order that
# reaches a result comes from it.  Graded lex over the alphabetically sorted
# names picks the leading term (whose sign normalizes conditions) and the
# exact_div heap's pop order (the quotient's term order); printing sorts by
# graded lex over the print order.  _grlex_key decodes each monomial once.
_W = 16
MAX_POLY_EXPONENT = (1 << (_W - 1)) - 1
_MASK = (1 << _W) - 1
_FIELDS: dict = {}  # name -> bit offset of its field
_NAMES: list = []  # field number -> name
_GUARD = 0  # the guard bits of every registered field
_HIGH = 0  # the top three bits of every registered field (see _terms)
_TOO_LARGE = f"exponent above {MAX_POLY_EXPONENT} in a polynomial"
_new = object.__new__


def _shift(name: str) -> int:
    s = _FIELDS.get(name)
    if s is None:
        global _GUARD, _HIGH
        s = _FIELDS[name] = _W * len(_NAMES)
        _NAMES.append(name)
        _GUARD |= 1 << (s + _W - 1)
        _HIGH |= 7 << (s + _W - 3)
    return s


def _pack(mono: tuple) -> int:
    """The packed form of a ((name, exponent), ...) monomial."""
    m = 0
    for name, e in mono:
        if not 0 <= e <= MAX_POLY_EXPONENT:
            raise ValueTooLarge(_TOO_LARGE)
        m += e << _shift(name)
    return m


def _exps(m: int):
    """(name, exponent) for every variable of ``m``, in registry order."""
    i = 0
    while m:
        if m & _MASK:
            yield _NAMES[i], m & _MASK
        m >>= _W
        i += 1


def _unpack(m: int) -> tuple:
    """The ((name, exponent), ...) form of ``m``, sorted by name."""
    return tuple(sorted(_exps(m)))


def _grlex_key(order: tuple):
    """Sort key for graded lexicographic comparison w.r.t. a variable order
    that covers every variable of the monomials it is applied to."""
    shifts = [_FIELDS[name] for name in order]

    def key(m):
        exps = [(m >> s) & _MASK for s in shifts]
        return sum(exps), exps

    return key


def _mono_min(a: int, b: int) -> int:
    """Field-wise minimum: the gcd of two monomials."""
    ge = (((a | _GUARD) - b) & _GUARD) >> (_W - 1)  # 1 where a's exponent >= b's
    sel = ge * _MASK
    return (b & sel) | (a & ~sel)


def _merged_vars(a: tuple, b: tuple) -> tuple:
    """Left-first union of two variable orders: the order a sum, difference
    or product of polynomials with these orders prints in."""
    if a == b or not b:
        return a
    extra = [v for v in b if v not in a]
    return a + tuple(extra) if extra else a


def _cdiv(a, b):
    """a / b on coefficients, as an int when exact and a Fraction otherwise."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _native(Fraction(a, b))


def _power(base, n: int, one):
    """``base ** n`` for n >= 0 by repeated squaring, from the unit ``one``;
    the last square, which no factor would use, is skipped."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _addto(acc: dict, items, negate=False) -> None:
    """``acc += items`` (``-=`` with ``negate``) on a dict keyed by packed
    monomials, from (monomial, coefficient) pairs: each coefficient is
    stored in its native form (an int when integral) and a term that
    cancels is deleted.  The one add loop of Poly sums and differences and
    of the term-dict kernels (``_mac``)."""
    get = acc.get
    for m, c in items:
        s = get(m)
        if s is None:
            if negate:
                c = -c
        else:
            c = s - c if negate else s + c
            if not c:
                del acc[m]
                continue
        acc[m] = c if type(c) is int else _native(c)


def _terms(c):
    """(term dict, variable order, whether c is a Scalar) of a value for
    the term-dict kernels; a rational has a constant dict and no order.
    None for a fraction, a zero, any other type, and an exponent of 2**13
    or more, where a product of three values could overflow: those take
    Scalar arithmetic, which raises as before."""
    if type(c) is Scalar:
        if c._den is not None:
            return None
        c = c._num
        if type(c) is Poly:
            t = c._t
            return None if reduce(or_, t, 0) & _HIGH else (t, c.vars, True)
        return ({0: c}, (), True) if c else None
    if type(c) is not int and type(c) is not Fraction:
        return None
    return ({0: c}, (), False) if c else None


def _mac(acc: dict, comps: dict, coef: dict, cv: tuple, scalar: bool) -> bool:
    """``linalg._sadd(acc, comps, coef)`` on term dicts, for a nonzero
    ``coef`` with the variable orders ``cv`` of its factors, left first,
    that stands for a Scalar when ``scalar``.  ``acc`` maps each k to [its
    own term dict, its orders listed in the sequence Scalar arithmetic
    merges them, whether it is a Scalar]; a sum that turns constant drops
    its orders.  README, "Polynomial coordinates in the bracket kernel",
    has the rule.  False, with ``acc`` part done, when a ``c`` has no term
    dict (see ``_terms``)."""
    items = coef.items()
    for k, c in comps.items():
        if type(c) is Scalar:
            ct = _terms(c)
            if ct is None:
                return False
            prod = [(m1 + m2, c1 * c2) for m1, c1 in ct[0].items() for m2, c2 in items]
            tv, sc = (ct[1], *cv), True
        else:
            prod = items if c == 1 else [(m, c * x) for m, x in items]
            tv, sc = cv, scalar
        entry = acc.get(k)
        if entry is None:
            if prod is items:
                t = dict(coef)
            else:
                t = {}
                _addto(t, prod)
            acc[k] = [t, list(tv), sc]
            continue
        t = entry[0]
        _addto(t, prod)
        if not t:
            del acc[k]
            continue
        if len(t) == 1 and 0 in t:
            entry[1] = []
        else:
            entry[1] += tv
        if sc:
            entry[2] = True
    return True


def _finish(acc: dict) -> dict:
    """The sparse vector of a ``_mac`` accumulator, each list of orders
    merged once; where the merged order is the first one listed, that
    tuple itself, as merging keeps it."""
    out = {}
    for k, (t, orders, sc) in acc.items():
        if len(t) != 1 or 0 not in t:
            merged = dict.fromkeys(chain.from_iterable(orders))
            first = orders[0] if orders else ()
            out[k] = Scalar(_poly(t, first if len(first) == len(merged) else tuple(merged)))
        else:
            out[k] = Scalar(Fraction(t[0])) if sc else t[0]
    return out


def _poly(t: dict, vars: tuple) -> "Poly":
    """A Poly on a dict keyed by packed monomials."""
    p = _new(Poly)
    p._t = t
    p.vars = vars
    return p


class Poly:
    """Sparse polynomial over the rationals.

    ``terms`` maps monomials, as ((name, exponent), ...) tuples sorted by
    name, to nonzero coefficients: an ``int`` when the coefficient is
    integral and a ``Fraction`` otherwise, so fraction-free elimination runs
    on machine-friendly integers.  It is a view built on access; arithmetic
    runs on ``_t``, the same dict keyed by packed monomials.  ``vars``
    records a preferred variable order for printing; arithmetic merges the
    orders left-first so output stays stable within one computation.  An
    exponent above MAX_POLY_EXPONENT raises ValueTooLarge.
    """

    __slots__ = ("_t", "vars")

    def __init__(self, terms: dict, vars: tuple = ()):
        self._t = {_pack(m): c for m, c in terms.items()}
        self.vars = vars

    @property
    def terms(self) -> dict:
        return {_unpack(m): c for m, c in self._t.items()}

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(value) -> "Poly":
        value = _native(value)
        return _poly({0: value} if value else {}, ())

    @staticmethod
    def variable(name: str) -> "Poly":
        return _poly({1 << _shift(name): 1}, (name,))

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        t = self._t
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial, always as a Fraction."""
        if not self._t:
            return Fraction(0)
        c = self._t[0]
        return c if type(c) is Fraction else Fraction(c)

    def variables(self) -> frozenset:
        return frozenset(name for name, _ in _exps(reduce(or_, self._t, 0)))

    def total_degree(self) -> int:
        return max((sum(e for _, e in _exps(m)) for m in self._t), default=0)

    def degree_in(self, name: str) -> int:
        s = _FIELDS.get(name)
        if s is None:
            return 0
        return max(((m >> s) & _MASK for m in self._t), default=0)

    # -- arithmetic ---------------------------------------------------
    #
    # int op int stays an int; a result that involved a Fraction goes
    # through _native, which turns an integral Fraction back into an int.

    def __add__(self, other: "Poly") -> "Poly":
        if type(other) is not Poly:
            return NotImplemented
        terms = dict(self._t)
        _addto(terms, other._t.items())
        return _poly(terms, _merged_vars(self.vars, other.vars))

    def __sub__(self, other: "Poly") -> "Poly":
        if type(other) is not Poly:
            return NotImplemented
        terms = dict(self._t)
        _addto(terms, other._t.items(), True)
        return _poly(terms, _merged_vars(self.vars, other.vars))

    def __neg__(self) -> "Poly":
        return _poly({m: -c for m, c in self._t.items()}, self.vars)

    def __mul__(self, other: "Poly") -> "Poly":
        if type(other) is not Poly:
            return NotImplemented
        merged = _merged_vars(self.vars, other.vars)
        terms: dict = {}
        for m1, c1 in self._t.items():
            for m2, c2 in other._t.items():
                m = m1 + m2
                c = c1 * c2
                s = terms.get(m)
                if s is not None:
                    c = s + c
                    if not c:
                        del terms[m]
                        continue
                terms[m] = c if type(c) is int else _native(c)
        # a field that overflowed shows as its guard bit (a sum of two
        # exponents below the guard never carries into the next field)
        if reduce(or_, terms, 0) & _GUARD:
            raise ValueTooLarge(_TOO_LARGE)
        return _poly(terms, merged)

    def scale(self, c) -> "Poly":
        c = _native(c)
        if not c:
            return _poly({}, self.vars)
        terms = {}
        for m, k in self._t.items():
            k = k * c
            terms[m] = k if type(k) is int else _native(k)
        return _poly(terms, self.vars)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise NegativePower("negative polynomial power")
        return _power(self, n, Poly.const(1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    # -- leading data under the global (alphabetical grlex) order -----

    def leading(self):
        """(monomial, coefficient) largest in graded lex over the sorted
        variables."""
        if not self._t:
            raise ZeroPolynomial("zero polynomial has no leading term")
        m = max(self._t, key=_grlex_key(tuple(sorted(self.variables()))))
        return _unpack(m), self._t[m]

    def content(self) -> Fraction:
        """Positive rational content (gcd of coefficients); 0 for zero."""
        if not self._t:
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for c in self._t.values():
            num_gcd = gcd(num_gcd, c.numerator)
            den_lcm = lcm(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact polynomial division; the caller guarantees exactness.

        The remainder's monomials sit in a heap keyed by their negated
        grlex key, each key built once, so the leading term is a pop
        rather than a scan; a term that cancels stays in the heap and is
        skipped when it comes up (Johnson 1974; Monagan and Pearce 2007)."""
        if type(divisor) is not Poly:
            raise NotAScalar(f"cannot divide a Poly by {type(divisor).__name__}")
        if not divisor._t:
            raise DivisionByZero("polynomial division by zero")
        if divisor.is_constant():
            c = divisor._t[0]
            return _poly({m: _cdiv(k, c) for m, k in self._t.items()}, self.vars)
        if not self._t:
            return _poly({}, self.vars)
        shifts = [_FIELDS[n] for n in sorted(self.variables() | divisor.variables())]

        def entry(m):  # the negated grlex key, then the monomial itself
            e = [-((m >> s) & _MASK) for s in shifts]
            return (sum(e), *e, m)

        dmono = min(divisor._t, key=entry)
        dcoef = divisor._t[dmono]
        rest = [(m, c) for m, c in divisor._t.items() if m != dmono]
        rem = dict(self._t)
        heap = [entry(m) for m in rem]
        heapify(heap)
        guard = _GUARD
        out: dict = {}
        while heap:
            lm = heappop(heap)[-1]
            lc = rem.pop(lm, None)
            if lc is None:  # cancelled since it was pushed
                continue
            q = lm - dmono
            if q & guard:
                raise InexactDivision("inexact polynomial division")
            qc = out[q] = _cdiv(lc, dcoef)
            for m, c in rest:
                mm = m + q
                s = rem.get(mm)
                if s is None:
                    s = -c * qc
                    heappush(heap, entry(mm))
                else:
                    s = s - c * qc
                if s:
                    rem[mm] = s if type(s) is int else _native(s)
                else:
                    del rem[mm]
        return _poly(out, self.vars)

    # -- substitution and evaluation -----------------------------------

    def substitute(self, values: dict) -> "Scalar":
        """Replace variables by Scalars (or ints/Fractions); exact result."""
        out = _ZERO
        for m, c in self._t.items():
            term = Scalar.of(c)
            for name, exp in _unpack(m):
                if name in values:
                    v = Scalar.of(values[name])
                    for _ in range(exp):
                        term = term * v
                else:
                    term = term * Scalar.of(Poly.variable(name)) ** exp
            out = out + term
        return out

    def evaluate(self, values: dict) -> Fraction:
        """Evaluate with every variable assigned a rational value."""
        return self.substitute(values).as_fraction()

    # -- printing -------------------------------------------------------

    def _print_order(self) -> tuple:
        used = self.variables()
        order = tuple(v for v in self.vars if v in used)
        extras = tuple(sorted(used - set(order)))
        return order + extras

    def __str__(self) -> str:
        if not self._t:
            return "0"
        order = self._print_order()
        key = _grlex_key(order)
        pieces = []
        for (_, exps), m in sorted(((key(m), m) for m in self._t), reverse=True):
            c = self._t[m]
            factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(order, exps) if e]
            if not factors:
                body = _rat_str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_rat_str(abs(c))] + factors)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _rat_str(q: Fraction) -> str:
    """Decimal text of a rational.  A value with more digits than Python's
    int-string limit raises ValueTooLarge instead of a plain ValueError."""
    try:
        return str(q)
    except ValueError:
        raise ValueTooLarge(
            f"value too large to print: over {sys.get_int_max_str_digits()} digits"
        ) from None


# -- univariate helpers ------------------------------------------------


def _univar(p: Poly):
    """Name of the single variable of ``p``, or None for constants."""
    used = p.variables()
    if len(used) > 1:
        raise NotUnivariate(f"polynomial in {sorted(used)} is not univariate")
    return next(iter(used)) if used else None


def _rem(a: Poly, b: Poly) -> Poly:
    """The remainder of ``a`` by a nonzero ``b``, both in one variable, whose
    packed monomials sort by degree: ``max`` is the leading monomial."""
    bm = max(b._t)
    while a._t and (am := max(a._t)) >= bm:
        a = a - b * _poly({am - bm: _cdiv(a._t[am], b._t[bm])}, ())
    return a


def poly_gcd_univariate(a: Poly, b: Poly) -> Poly:
    """Monic-free gcd of two univariate polynomials (primitive, positive
    leading coefficient); both must use the same single variable."""
    names = a.variables() | b.variables()
    if len(names) > 1:
        raise NotUnivariate("gcd requires a common single variable")
    if a.is_zero():
        return poly_normalize(b)
    if b.is_zero():
        return poly_normalize(a)
    while b._t:  # primitive remainders keep the coefficients small
        r = _rem(a, b)
        a, b = b, r.scale(1 / _signed_content(r)) if r._t else r
    return _poly(a.scale(1 / _signed_content(a))._t, tuple(names))


def _signed_content(p: Poly) -> Fraction:
    """Rational content of a nonzero ``p`` with the sign of its leading
    coefficient: dividing by it gives the canonical primitive form."""
    c = p.content()
    return c if p.leading()[1] > 0 else -c


def poly_normalize(p: Poly) -> Poly:
    """Canonical representative of the zero set of ``p``.

    Rational content is removed and the leading coefficient made positive;
    univariate polynomials are additionally replaced by their square-free
    part.  Multivariate input keeps its square structure (no multivariate
    gcd in this package)."""
    t = p._t
    if not t:
        return _poly({}, p.vars)
    used = [name for name, _ in _exps(reduce(or_, t, 0))]
    if len(used) == 1:
        deriv = _derivative(p, used[0])
        g = poly_gcd_univariate(p, deriv)
        if g.total_degree() > 0:
            p = p.exact_div(g)
    else:
        # integer coefficients: one gcd, which stops at 1, and the sign of
        # the leading term; the same terms as dividing by _signed_content
        try:
            g = gcd(*t.values())
        except TypeError:  # a Fraction coefficient
            pass
        else:
            if t[max(t, key=_grlex_key(tuple(sorted(used))))] < 0:
                g = -g
            if g == 1:
                return _poly(dict(t), p.vars)
            return _poly({m: c // g for m, c in t.items()}, p.vars)
    return p.scale(1 / _signed_content(p))


def _derivative(p: Poly, name: str) -> Poly:
    s = _shift(name)
    terms = {}
    for m, c in p._t.items():
        e = (m >> s) & _MASK
        if e:
            terms[m - (1 << s)] = c * e if type(c) is int else _native(c * e)
    return _poly(terms, p.vars)


class RootReport:
    """Rational roots of a univariate polynomial plus the unexplained part."""

    __slots__ = ("roots", "residual")

    def __init__(self, roots: frozenset, residual: Poly):
        self.roots = roots
        self.residual = residual

    def __repr__(self):
        shown = sorted(self.roots)
        return f"RootReport(roots={shown}, residual={self.residual})"


def rational_roots(p: Poly) -> RootReport:
    """All rational roots of a nonzero univariate polynomial.

    Candidates come from the usual integer divisor bounds on the primitive
    integer form; every reported root is verified by exact evaluation and
    divided out.  The residual is the primitive root-free cofactor."""
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial has every root")
    name = _univar(p)
    if name is None:
        return RootReport(frozenset(), Poly.const(1))
    s = _FIELDS[name]
    # strip powers of the variable: x = 0
    low = min(p._t)
    roots = {Fraction(0)} if low else set()
    work = _poly({m - low: c for m, c in p._t.items()}, (name,))
    work = work.scale(1 / _signed_content(work))
    lead = abs(work._t[max(work._t)])
    tail = abs(work._t[0])
    candidates = set()
    for pnum in _divisors(tail):
        for qden in _divisors(lead):
            candidates.add(Fraction(pnum, qden))
            candidates.add(Fraction(-pnum, qden))
    t = Poly.variable(name)
    for r in sorted(candidates):
        while max(work._t) and not sum(c * r ** (m >> s) for m, c in work._t.items()):
            roots.add(r)
            work = work.exact_div(t - Poly.const(r))
    return RootReport(frozenset(roots), work.scale(1 / _signed_content(work)))


def _divisors(n: int) -> list:
    """The positive divisors of a positive integer."""
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


# -- Scalar --------------------------------------------------------------


class Scalar:
    """A rational, a polynomial, or a fraction of polynomials.

    Internals: ``_num`` is a Fraction when the value is rational and a
    Poly otherwise; ``_den`` is None unless the value is a genuine
    fraction, in which case it is a non-constant Poly in normal form
    (primitive, positive leading coefficient, no common monomial with the
    numerator, fully reduced when univariate)."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None):
        self._num = num
        self._den = den

    # -- construction and normalization -------------------------------

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(Fraction(value))
        if isinstance(value, Poly):
            if value.is_constant():
                return Scalar(value.constant_value())
            return Scalar(value)
        raise NotAScalar(f"cannot build a Scalar from {type(value).__name__}")

    @staticmethod
    def variable(name: str) -> "Scalar":
        return Scalar(Poly.variable(name))

    @staticmethod
    def _make(num: Poly, den: Poly) -> "Scalar":
        """Normalize a polynomial quotient into a canonical Scalar."""
        if den.is_zero():
            raise DivisionByZero("scalar division by zero")
        if num.is_zero():
            return _ZERO
        common = reduce(_mono_min, chain(num._t, den._t))
        if common:
            num = _poly({m - common: c for m, c in num._t.items()}, num.vars)
            den = _poly({m - common: c for m, c in den._t.items()}, den.vars)
        if not den.is_constant():
            names = num.variables() | den.variables()
            if len(names) == 1:
                g = poly_gcd_univariate(num, den)
                if g.total_degree() > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
        if den.is_constant():
            num = num.scale(1 / den.constant_value())
            if num.is_constant():
                return Scalar(num.constant_value())
            return Scalar(num)
        # make the denominator primitive with positive leading coefficient
        c = _signed_content(den)
        if c != 1:
            num = num.scale(1 / c)
            den = den.scale(1 / c)
        return Scalar(num, den)

    # -- kind and access ------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._den is None and isinstance(self._num, Fraction)

    @property
    def is_fraction(self) -> bool:
        return self._den is not None

    @property
    def kind(self) -> str:
        if self.is_rational:
            return "rational"
        return "polynomial" if self._den is None else "fraction"

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise NotRational(f"{self} is not a rational constant")
        return self._num

    def numerator_poly(self) -> Poly:
        if isinstance(self._num, Fraction):
            return Poly.const(self._num)
        return self._num

    def denominator_poly(self) -> Poly:
        return self._den if self._den is not None else Poly.const(1)

    def variables(self) -> frozenset:
        if self.is_rational:
            return frozenset()
        out = self._num.variables()
        if self._den is not None:
            out = out | self._den.variables()
        return out

    def is_zero(self) -> bool:
        return not self

    def is_one(self) -> bool:
        return self.is_rational and self._num == 1

    def __bool__(self) -> bool:
        # normalized: only a rational Scalar (a Fraction numerator) is zero
        num = self._num
        return type(num) is not Fraction or bool(num)

    # -- arithmetic -----------------------------------------------------

    def _combine(self, other, op):
        """``self op other`` for op in add, sub and mul.  When neither
        side has a denominator the numerators combine directly (a rational
        side scales the other, or joins it as a constant Poly), with the
        same left-first variable order the route through _make gives; a
        fraction goes through _make."""
        other = Scalar.of(other)
        a, c = self._num, other._num
        if self._den is None and other._den is None:
            if type(a) is Fraction:
                if type(c) is Fraction:
                    return Scalar(op(a, c))
                r = c.scale(a) if op is mul else op(Poly.const(a), c)
            elif type(c) is Fraction:
                r = a.scale(c) if op is mul else op(a, Poly.const(c))
            else:
                r = op(a, c)
            return _lift(r)
        a, b = self.numerator_poly(), self.denominator_poly()
        c, d = other.numerator_poly(), other.denominator_poly()
        if op is mul:
            return Scalar._make(a * c, b * d)
        return Scalar._make(op(a * d, c * b), b * d)

    # Two polynomials without a denominator, and a polynomial times a native
    # int, skip _combine's dispatch: the same Poly operation on the same
    # operands, so the result and its variable order are _combine's.

    def __add__(self, other):
        if type(other) is Scalar and self._den is None and other._den is None:
            a, c = self._num, other._num
            if type(a) is Poly and type(c) is Poly:
                return _lift(a + c)
        return self._combine(other, add)

    def __radd__(self, other):
        # other + self, in that order: the operand order of a sum fixes the
        # variable order its polynomial prints in
        return Scalar.of(other) + self

    def __sub__(self, other):
        if type(other) is Scalar and self._den is None and other._den is None:
            a, c = self._num, other._num
            if type(a) is Poly and type(c) is Poly:
                return _lift(a - c)
        return self._combine(other, sub)

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __mul__(self, other):
        a = self._num
        if type(a) is Poly and self._den is None:
            if type(other) is int:  # not bool
                return Scalar(a.scale(other)) if other else _ZERO
            if type(other) is Scalar and other._den is None and type(other._num) is Poly:
                return _lift(a * other._num)
        return self._combine(other, mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.of(other)
        if other.is_zero():
            raise DivisionByZero("scalar division by zero")
        if self.is_rational and other.is_rational:
            return Scalar(self._num / other._num)
        a, b = self.numerator_poly(), self.denominator_poly()
        c, d = other.numerator_poly(), other.denominator_poly()
        return Scalar._make(a * d, b * c)

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def __neg__(self):
        return Scalar(-self._num, self._den)

    def __pow__(self, n: int):
        if n < 0:
            return _ONE / self ** (-n)
        return _power(self, n, _ONE)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.is_rational and other.is_rational:
            return self._num == other._num
        # cross-multiply; Poly equality is decidable
        a, b = self.numerator_poly(), self.denominator_poly()
        c, d = other.numerator_poly(), other.denominator_poly()
        return a * d == c * b

    __hash__ = None  # equal fractions may have distinct multivariate forms

    # -- substitution -----------------------------------------------------

    def substitute(self, values: dict) -> "Scalar":
        """Replace named variables; raises DenominatorVanishes when the
        denominator collapses to zero under the assignment."""
        if self.is_rational:
            return self
        num = self._num.substitute(values)
        if self._den is None:
            return num
        den = self._den.substitute(values)
        if den.is_zero():
            raise DenominatorVanishes(
                f"denominator {self._den} vanishes under {values}"
            )
        return num / den

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_rational:
            return _rat_str(self._num)
        if self._den is None:
            return str(self._num)
        return f"({self._num})/({self._den})"

    def __repr__(self) -> str:
        return f"Scalar({self})"


_ZERO = Scalar(Fraction(0))
_ONE = Scalar(Fraction(1))


def _lift(r: Poly) -> Scalar:
    """The Scalar of a polynomial result: a rational when it is constant."""
    return Scalar(r.constant_value()) if r.is_constant() else Scalar(r)


def _native(c):
    """The stored form of a value, which every container of the package
    holds: an int, a Fraction when the value is a rational that is not an
    integer, or a Scalar that carries a variable.  Takes anything
    Scalar.of takes (an int, a Fraction, a Poly or a Scalar) and raises its
    TypeError on anything else, a float included."""
    if type(c) not in (Fraction, int, Scalar):
        c = Scalar.of(c)
    if type(c) is Scalar and c._den is None and type(c._num) is Fraction:
        c = c._num
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


# -- literal grammar -------------------------------------------------------
#
#   expr   := ['-'] term (('+' | '-') term)*
#   term   := factor (('*' | '/') factor)*
#   factor := primary ['^' integer]
#   primary:= integer | name | '(' expr ')'
#
# Whitespace is insignificant.  '*' is mandatory between factors.
# Parentheses nest at most MAX_DEPTH deep, '^' takes at most MAX_EXPONENT,
# and an integer has at most MAX_DIGITS decimal digits: fewer than 640, the
# smallest int-string limit Python can be set to, so int() never refuses one.
#
# Nested products and powers multiply sizes, so before each '*' and '^' the
# parser bounds the result from its operands' sizes (_size): t_a*t_b terms
# and b_a + b_b bits for a product, comb(t + e - 1, e) terms and e*b bits
# for a power.  A sum or difference with a denominator on either side
# cross-multiplies, so it gets the product's bound; sizes of polynomial sums
# only add.  A result of more than MAX_TERMS terms, or of more than MAX_BITS
# bits in all (terms times coefficient bits), is a parse error.

MAX_DEPTH = 100
MAX_EXPONENT = 64
MAX_DIGITS = 600
MAX_TERMS = 10_000
MAX_BITS = 1 << 18


def _size(value: Scalar) -> tuple:
    """Terms of a literal's value (numerator and denominator) and the bit
    length of its largest coefficient, numerator plus denominator."""
    coeffs = list(value.numerator_poly()._t.values())
    if value._den is not None:
        coeffs += value._den._t.values()
    bits = max((c.numerator.bit_length() + c.denominator.bit_length() for c in coeffs),
               default=0)
    return len(coeffs), bits


def _bound(terms: int, bits: int) -> None:
    if terms > MAX_TERMS or terms * bits > MAX_BITS:
        raise ParseError(
            f"literal too large: over {MAX_TERMS} terms or {MAX_BITS} coefficient bits"
        )


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.items = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdecimal():
                j = i
                while j < n and text[j].isdecimal():
                    j += 1
                self.items.append(("int", text[i:j]))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.items.append(("name", text[i:j]))
                i = j
            elif ch in "+-*/^()":
                self.items.append((ch, ch))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r} in {text!r}")
        self.items.append(("end", ""))

    def peek(self):
        return self.items[self.pos]

    def take(self, kind=None):
        tok = self.items[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind} but found {tok[1]!r} in {self.text!r}")
        self.pos += 1
        return tok


class _Parser:
    def __init__(self, text: str, allowed=None):
        self.toks = _Tokens(text)
        self.allowed = allowed
        self.seen: set = set()
        self.depth = 0

    def parse(self) -> Scalar:
        value = self._expr()
        self.toks.take("end")
        return value

    def _expr(self) -> Scalar:
        negate = False
        if self.toks.peek()[0] in ("+", "-"):
            negate = self.toks.take()[0] == "-"
        value = self._term()
        if negate:
            value = -value
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.take()[0]
            rhs = self._term()
            if value._den is not None or rhs._den is not None:
                (ta, ba), (tb, bb) = _size(value), _size(rhs)
                _bound(ta * tb, ba + bb)
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> Scalar:
        value = self._factor()
        while self.toks.peek()[0] in ("*", "/"):
            op = self.toks.take()[0]
            rhs = self._factor()
            if op == "*":
                (ta, ba), (tb, bb) = _size(value), _size(rhs)
                _bound(ta * tb, ba + bb)
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero in literal")
                value = value / rhs
        return value

    def _factor(self) -> Scalar:
        value = self._primary()
        if self.toks.peek()[0] == "^":
            self.toks.take()
            digits = self.toks.take("int")[1].lstrip("0")
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                raise ParseError(f"exponent above {MAX_EXPONENT} in literal")
            e = int(digits or 0)
            terms, bits = _size(value)
            _bound(comb(max(terms, 1) + e - 1, e), e * bits)
            value = value ** e
        return value

    def _primary(self) -> Scalar:
        kind, text = self.toks.take()
        if kind == "int":
            if len(text) > MAX_DIGITS:
                raise ParseError(f"integer of more than {MAX_DIGITS} digits in literal")
            return Scalar.of(int(text))
        if kind == "name":
            if self.allowed is not None and text not in self.allowed:
                raise ParseError(f"unknown name {text!r}")
            self.seen.add(text)
            return Scalar.variable(text)
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(
                    f"parentheses nested more than {MAX_DEPTH} deep in literal"
                )
            value = self._expr()
            self.toks.take(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {text!r} in {self.toks.text!r}")


def parse_scalar(text: str, allowed=None) -> Scalar:
    """Parse a scalar literal.

    ``allowed``, when given, restricts the variable names the literal may
    mention; None admits any name."""
    return parse_scalar_with_names(text, allowed)[0]


def parse_rational(text: str) -> Fraction:
    """Parse a parameter-free literal such as ``3`` or ``-1/2``."""
    return parse_scalar(text, allowed=frozenset()).as_fraction()


def parse_scalar_with_names(text: str, allowed=None):
    """Like :func:`parse_scalar` but also reports the names encountered."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty scalar literal")
    p = _Parser(text, allowed)
    value = p.parse()
    return value, frozenset(p.seen)
