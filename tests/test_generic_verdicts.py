"""Generic verdicts and derivation bases hold off the exceptional set.

Each parametric family is specialized at rational points: a fixed grid,
plus the rational roots of every condition and exceptional polynomial in
each of its variables at every grid setting of the others.  Off the
exceptional set the specialized algebra must give the generic verdict, and
the generic derivation bases, substituted, must span the recomputed spaces
(compared by rank).  On it, the points where a verdict or a dimension
changes are data."""

from fractions import Fraction
from itertools import product

from liedouble import (
    ALL_DERIVATIONS,
    ALL_ELEMENTS,
    ALL_INNER_DERIVATIONS,
    Matrix,
    Scalar,
    check_quantified,
    derivation_space,
    get,
    inner_derivations,
    rank,
    rational_roots,
)
from liedouble.catalog import entry

FAMILIES = ("glambda", "g4ab", "g5alpha", "r3lambda", "g2alpha")
CHECKS = ((1, ALL_DERIVATIONS), (2, ALL_DERIVATIONS), (3, ALL_ELEMENTS), (4, ALL_ELEMENTS),
          (2, ALL_INNER_DERIVATIONS))
GRID = tuple(map(Fraction, range(-3, 4))) + (Fraction(1, 2), Fraction(-1, 2))

# On the exceptional set: (family, point, identity, quantifier, generic
# verdict there, specialized verdict) wherever the two differ -- nowhere on
# these points -- and (family, point, space, generic dimension, specialized
# dimension) wherever a derivation space changes dimension.
VERDICTS_ON_EXCEPTIONAL = []
DIMENSIONS_ON_EXCEPTIONAL = [
    ("glambda", "lam=-1", "ordinary", 12, 13),
    *(("g4ab", f"alpha={a},beta={b}", "inner", 4, 3)
      for a, b in sorted({(x, Fraction(0)) for x in GRID} | {(Fraction(0), x) for x in GRID})),
    ("g5alpha", "alpha=-1", "inner", 4, 3),
    ("r3lambda", "lam=0", "inner", 3, 2),
    ("r3lambda", "lam=1", "ordinary", 4, 6),
    ("g2alpha", "alpha=0", "inner", 4, 3),
]


def _vanishes(p, values) -> bool:
    return p.substitute(values).is_zero()


def _points(params, polys):
    points = {tuple(zip(params, pt)) for pt in product(GRID, repeat=len(params))}
    for p in polys:
        for v in sorted(p.variables()):
            others = [q for q in params if q != v]
            for pt in product(GRID, repeat=len(others)):
                rest = p.substitute(dict(zip(others, pt)))
                if rest.is_rational:
                    continue
                for r in rational_roots(rest.numerator_poly()).roots:
                    point = dict(zip(others, pt), **{v: r})
                    points.add(tuple((q, point[q]) for q in params))
    return sorted(points)


def _flat_at(m, values) -> dict:
    return {k: c.substitute(values) if type(c) is Scalar else c for k, c in m._flat().items()}


def _spans_agree(generic, special, values, n) -> bool:
    """The substituted generic basis is independent and spans ``special``."""
    subst = [_flat_at(m, values) for m in generic.basis]
    fresh = [m._flat() for m in special.basis]

    def r(vs):
        return rank(Matrix.sparse(vs, n * n)).value

    return r(subst) == len(subst) == len(fresh) == r(subst + fresh)


def test_generic_verdicts_hold_off_the_exceptional_set():
    differ, jumps = [], []
    for name in FAMILIES:
        g = get(name)
        spaces = (derivation_space(g), inner_derivations(g))
        reports = [check_quantified(g, code, q) for code, q in CHECKS]
        polys = {p for rep in reports for p in (*rep.conditions, *rep.exceptional)}
        polys.update(p for s in spaces for p in s.exceptional)
        excluded = {s.name: s.excluded for s in entry(name).params}
        for point in _points(g.params, polys):
            values = dict(point)
            if any(values[q] in excluded[q] for q in g.params):
                continue
            shown = ",".join(f"{q}={x}" for q, x in point)
            h = g.specialize(values)
            for space, fresh in zip(spaces, (derivation_space(h), inner_derivations(h))):
                if not any(_vanishes(p, values) for p in space.exceptional):
                    assert _spans_agree(space, fresh, values, g.dim), (name, shown, space.kind)
                elif fresh.dim != space.dim:
                    jumps.append((name, shown, space.kind, space.dim, fresh.dim))
            for (code, q), rep in zip(CHECKS, reports):
                want = rep.status
                if want == "conditional":
                    conds = rep.conditions
                    want = "holds" if all(_vanishes(p, values) for p in conds) else "fails"
                got = check_quantified(h, code, q).status
                if not any(_vanishes(p, values) for p in rep.exceptional):
                    assert got == want, (name, shown, code, q)
                elif got != want:
                    differ.append((name, shown, code, repr(q), want, got))
    assert differ == VERDICTS_ON_EXCEPTIONAL
    assert jumps == DIMENSIONS_ON_EXCEPTIONAL
