"""Exact scalar arithmetic for the whole package.

Three nested levels, all with decidable equality:

* rationals (``fractions.Fraction``),
* sparse multivariate polynomials over the rationals (:class:`Poly`),
* fractions of polynomials (represented inside :class:`Scalar`).

A :class:`Scalar` always sits at the lowest level that can represent its
value: a constant polynomial collapses to a rational, a fraction with
constant denominator collapses to a polynomial.  Fractions are kept in a
normal form (see :meth:`Scalar._make`) so that printing is canonical and
equality can fall back to cross-multiplication.

There is deliberately no multivariate gcd: fractions with more than one
variable are reduced only by monomial and rational content.  Univariate
fractions are fully reduced, which is all the rest of the package needs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, NotUnivariate, ParseError

# A monomial is a tuple of (name, exponent) pairs, sorted by name, with
# every exponent >= 1.  The empty tuple is the constant monomial.
Monomial = tuple


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for name, exp in b:
        out[name] = out.get(name, 0) + exp
    return tuple(sorted(out.items()))


def _mono_div(a: Monomial, b: Monomial):
    """a / b, or None when b does not divide a."""
    if not b:
        return a
    out = dict(a)
    for name, exp in b:
        have = out.get(name, 0)
        if have < exp:
            return None
        if have == exp:
            del out[name]
        else:
            out[name] = have - exp
    return tuple(sorted(out.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(exp for _, exp in m)


def _grlex_key(m: Monomial, order: tuple):
    """Sort key for graded lexicographic comparison w.r.t. a variable order."""
    exps = dict(m)
    return (_mono_degree(m), tuple(exps.get(name, 0) for name in order))


class Poly:
    """Sparse polynomial over the rationals.

    ``terms`` maps monomials to nonzero Fraction coefficients.  ``vars``
    records a preferred variable order for printing; arithmetic merges the
    orders left-first so output stays stable within one computation.
    """

    __slots__ = ("terms", "vars")

    def __init__(self, terms: dict, vars: tuple = ()):
        self.terms = terms
        self.vars = vars

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(value) -> "Poly":
        value = Fraction(value)
        if value == 0:
            return Poly({}, ())
        return Poly({(): value}, ())

    @staticmethod
    def variable(name: str) -> "Poly":
        return Poly({((name, 1),): Fraction(1)}, (name,))

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or self.terms.keys() == {()}

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial."""
        if not self.terms:
            return Fraction(0)
        return self.terms[()]

    def variables(self) -> frozenset:
        return frozenset(name for m in self.terms for name, _ in m)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(_mono_degree(m) for m in self.terms)

    def degree_in(self, name: str) -> int:
        best = 0
        for m in self.terms:
            for n, e in m:
                if n == name and e > best:
                    best = e
        return best

    # -- arithmetic ---------------------------------------------------

    def _merged_vars(self, other: "Poly") -> tuple:
        if self.vars == other.vars:
            return self.vars
        extra = tuple(v for v in other.vars if v not in self.vars)
        return self.vars + extra

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            if s is None:
                terms[m] = c
            else:
                s = s + c
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return Poly(terms, self._merged_vars(other))

    def __sub__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            if s is None:
                terms[m] = -c
            else:
                s = s - c
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return Poly(terms, self._merged_vars(other))

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()}, self.vars)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly({}, self._merged_vars(other))
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                s = terms.get(m)
                if s is None:
                    terms[m] = c
                else:
                    s = s + c
                    if s:
                        terms[m] = s
                    else:
                        del terms[m]
        return Poly(terms, self._merged_vars(other))

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly({}, self.vars)
        return Poly({m: k * c for m, k in self.terms.items()}, self.vars)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- leading data under the global (alphabetical grlex) order -----

    def _global_order(self) -> tuple:
        return tuple(sorted(self.variables()))

    def leading(self, order: tuple = None):
        """(monomial, coefficient) largest in graded-lex w.r.t. ``order``."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        if order is None:
            order = self._global_order()
        m = max(self.terms, key=lambda mono: _grlex_key(mono, order))
        return m, self.terms[m]

    def content(self) -> Fraction:
        """Positive rational content (gcd of coefficients); 0 for zero."""
        if not self.terms:
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = _igcd(num_gcd, c.numerator)
            den_lcm = _ilcm(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    def monomial_content(self) -> Monomial:
        """Largest monomial dividing every term; () for zero or constants."""
        if not self.terms:
            return ()
        mins: dict = None
        for m in self.terms:
            exps = dict(m)
            if mins is None:
                mins = exps
            else:
                mins = {
                    n: min(e, exps[n]) for n, e in mins.items() if n in exps
                }
            if not mins:
                return ()
        return tuple(sorted(mins.items()))

    def divide_monomial(self, mono: Monomial) -> "Poly":
        if not mono:
            return self
        terms = {}
        for m, c in self.terms.items():
            q = _mono_div(m, mono)
            if q is None:
                raise ValueError("monomial does not divide every term")
            terms[q] = c
        return Poly(terms, self.vars)

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact polynomial division; the caller guarantees exactness."""
        if divisor.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if divisor.is_constant():
            return self.scale(1 / divisor.constant_value())
        if self.is_zero():
            return Poly({}, self.vars)
        order = tuple(sorted(self.variables() | divisor.variables()))
        dmono, dcoef = divisor.leading(order)
        rem = dict(self.terms)
        out: dict = {}
        while rem:
            lm = max(rem, key=lambda mono: _grlex_key(mono, order))
            q = _mono_div(lm, dmono)
            if q is None:
                raise ArithmeticError("inexact polynomial division")
            qc = rem[lm] / dcoef
            out[q] = out.get(q, Fraction(0)) + qc
            for m, c in divisor.terms.items():
                mm = _mono_mul(m, q)
                s = rem.get(mm, Fraction(0)) - c * qc
                if s:
                    rem[mm] = s
                else:
                    rem.pop(mm, None)
        return Poly({m: c for m, c in out.items() if c}, self.vars)

    # -- substitution and evaluation -----------------------------------

    def substitute(self, values: dict) -> "Scalar":
        """Replace variables by Scalars (or ints/Fractions); exact result."""
        out = _S_ZERO
        for m, c in self.terms.items():
            term = Scalar.of(c)
            for name, exp in m:
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
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for name, exp in m:
                v = v * Fraction(values[name]) ** exp
            total += v
        return total

    # -- printing -------------------------------------------------------

    def _print_order(self) -> tuple:
        used = self.variables()
        order = tuple(v for v in self.vars if v in used)
        extras = tuple(sorted(used - set(order)))
        return order + extras

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        order = self._print_order()
        monos = sorted(
            self.terms, key=lambda m: _grlex_key(m, order), reverse=True
        )
        pieces = []
        for m in monos:
            c = self.terms[m]
            factors = []
            for name, exp in sorted(m, key=lambda p: order.index(p[0])):
                factors.append(name if exp == 1 else f"{name}^{exp}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _igcd(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def _ilcm(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return abs(a * b) // _igcd(a, b)


# -- univariate helpers ------------------------------------------------


def _univar(p: Poly):
    """Name of the single variable of ``p``, or None for constants."""
    used = p.variables()
    if len(used) > 1:
        raise NotUnivariate(f"polynomial in {sorted(used)} is not univariate")
    return next(iter(used)) if used else None


def _coeff_list(p: Poly, name: str) -> list:
    """Dense coefficient list, index = exponent."""
    out = [Fraction(0)] * (p.degree_in(name) + 1)
    for m, c in p.terms.items():
        exp = dict(m).get(name, 0)
        out[exp] = c
    return out


def _from_coeff_list(coeffs: list, name: str) -> Poly:
    terms = {}
    for exp, c in enumerate(coeffs):
        if c:
            terms[((name, exp),) if exp else ()] = c
    return Poly(terms, (name,))


def _list_divmod(num: list, den: list):
    """Long division of dense coefficient lists, highest degree last."""
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
    while len(num) > 1 and not num[-1]:
        num.pop()
    return q, num


def _list_trim(c: list) -> list:
    c = list(c)
    while len(c) > 1 and not c[-1]:
        c.pop()
    return c


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
    name = next(iter(names)) if names else None
    if name is None:
        return Poly.const(1)
    ca = _list_trim(_coeff_list(a, name))
    cb = _list_trim(_coeff_list(b, name))
    while len(cb) > 1 or cb[0]:
        _, r = _list_divmod(ca, cb)
        ca, cb = cb, _list_trim(r)
        if len(cb) == 1 and not cb[0]:
            break
    g = _from_coeff_list(ca, name)
    c = g.content()
    if g.leading()[1] < 0:
        c = -c
    return g.scale(1 / c)


def poly_normalize(p: Poly) -> Poly:
    """Canonical representative of the zero set of ``p``.

    Rational content is removed and the leading coefficient made positive;
    univariate polynomials are additionally replaced by their square-free
    part.  Multivariate input keeps its square structure (no multivariate
    gcd in this package)."""
    if p.is_zero():
        return Poly({}, p.vars)
    used = p.variables()
    if len(used) == 1:
        name = next(iter(used))
        deriv = _derivative(p, name)
        g = poly_gcd_univariate(p, deriv)
        if g.total_degree() > 0:
            p = p.exact_div(g)
    c = p.content()
    if p.leading()[1] < 0:
        c = -c
    return p.scale(1 / c)


def _derivative(p: Poly, name: str) -> Poly:
    terms = {}
    for m, c in p.terms.items():
        exps = dict(m)
        e = exps.get(name, 0)
        if not e:
            continue
        if e == 1:
            del exps[name]
        else:
            exps[name] = e - 1
        mm = tuple(sorted(exps.items()))
        terms[mm] = terms.get(mm, Fraction(0)) + c * e
    return Poly({m: c for m, c in terms.items() if c}, p.vars)


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
    integer form; every reported root is verified by exact evaluation.  The
    residual is the primitive root-free cofactor."""
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    name = _univar(p)
    if name is None:
        return RootReport(frozenset(), Poly.const(1))
    coeffs = _list_trim(_coeff_list(p, name))
    den = 1
    for c in coeffs:
        den = _ilcm(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for v in ints:
        g = _igcd(g, v)
    ints = [v // g for v in ints]

    roots = set()
    # strip powers of the variable: x = 0
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
            while len(work) > 1 and _horner(work, r) == 0:
                roots.add(r)
                work = _deflate(work, r)
    residual = _from_coeff_list(work, name)
    c = residual.content()
    if not residual.is_zero() and residual.leading()[1] < 0:
        c = -c
    if c:
        residual = residual.scale(1 / c)
    return RootReport(frozenset(roots), residual)


def _divisors(n: int) -> list:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def _horner(coeffs: list, x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _deflate(coeffs: list, r: Fraction) -> list:
    """Divide by (x - r); exact by assumption."""
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    carry = coeffs[n]
    out[n - 1] = carry
    for k in range(n - 1, 0, -1):
        carry = coeffs[k] + r * carry
        out[k - 1] = carry
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
        raise TypeError(f"cannot build a Scalar from {type(value).__name__}")

    @staticmethod
    def variable(name: str) -> "Scalar":
        return Scalar(Poly.variable(name))

    @staticmethod
    def _make(num: Poly, den: Poly) -> "Scalar":
        """Normalize a polynomial quotient into a canonical Scalar."""
        if den.is_zero():
            raise DivisionByZero("scalar division by zero")
        if num.is_zero():
            return _S_ZERO
        common = _mono_gcd(num.monomial_content(), den.monomial_content())
        if common:
            num = num.divide_monomial(common)
            den = den.divide_monomial(common)
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
        c = den.content()
        if den.leading()[1] < 0:
            c = -c
        if c != 1:
            num = num.scale(1 / c)
            den = den.scale(1 / c)
        return Scalar(num, den)

    # -- kind and access ------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._den is None and isinstance(self._num, Fraction)

    @property
    def is_polynomial(self) -> bool:
        return self._den is None and isinstance(self._num, Poly)

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
            raise ValueError(f"{self} is not a rational constant")
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
        if self.is_rational:
            return self._num == 0
        return False  # normalized: polynomial/fraction kinds are nonzero

    def is_one(self) -> bool:
        return self.is_rational and self._num == 1

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = Scalar.of(other)
        if self.is_rational and other.is_rational:
            return Scalar(self._num + other._num)
        a, b = self.numerator_poly(), self.denominator_poly()
        c, d = other.numerator_poly(), other.denominator_poly()
        return Scalar._make(a * d + c * b, b * d)

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar.of(other)
        if self.is_rational and other.is_rational:
            return Scalar(self._num - other._num)
        a, b = self.numerator_poly(), self.denominator_poly()
        c, d = other.numerator_poly(), other.denominator_poly()
        return Scalar._make(a * d - c * b, b * d)

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __mul__(self, other):
        other = Scalar.of(other)
        if self.is_rational and other.is_rational:
            return Scalar(self._num * other._num)
        a, b = self.numerator_poly(), self.denominator_poly()
        c, d = other.numerator_poly(), other.denominator_poly()
        return Scalar._make(a * c, b * d)

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
        if self.is_rational:
            return Scalar(-self._num)
        if self._den is None:
            return Scalar(-self._num)
        return Scalar(-self._num, self._den)

    def __pow__(self, n: int):
        if n < 0:
            return _S_ONE / self ** (-n)
        out = _S_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

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
        from .errors import DenominatorVanishes

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
            return str(self._num)
        if self._den is None:
            return str(self._num)
        return f"({self._num})/({self._den})"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _mono_gcd(a: Monomial, b: Monomial) -> Monomial:
    if not a or not b:
        return ()
    db = dict(b)
    out = {}
    for name, exp in a:
        if name in db:
            out[name] = min(exp, db[name])
    return tuple(sorted(out.items()))


_S_ZERO = Scalar(Fraction(0))
_S_ONE = Scalar(Fraction(1))

ZERO = _S_ZERO
ONE = _S_ONE


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

MAX_DEPTH = 100
MAX_EXPONENT = 64
MAX_DIGITS = 600


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
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> Scalar:
        value = self._factor()
        while self.toks.peek()[0] in ("*", "/"):
            op = self.toks.take()[0]
            rhs = self._factor()
            if op == "*":
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
            value = value ** int(digits or 0)
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
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty scalar literal")
    return _Parser(text, allowed).parse()


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
