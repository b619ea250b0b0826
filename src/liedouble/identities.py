"""Bracket identities, quantified checks, and consistency audits.

The six identities handled here, written for a linear map D and elements
x, y, w, z of a fixed algebra:

  1   D([D(x),[y,w]] + [D(y),[w,x]] + [D(w),[x,y]]) = 0
  2   [D(x),[y,z]] + [D(y),[z,x]] + [D(z),[x,y]] = 0
  3   [z,[[z,x],[y,w]]] + [z,[[z,y],[w,x]]] + [z,[[z,w],[x,y]]] = 0
  4   [z,[[z,x],[z,y]]] = 0
  6   [z,[[w,x],[w,y]]] = [w,[[z,w],[x,y]]]
  s5  sum over permutations p of (1,2,3,4) of
      sign(p) * [x_p1,[x_p2,[x_p3,[x_p4, x0]]]] = 0

Each identity is described once, in ``_IDENTITIES``, which evaluation, the
quantified sweep and the quantifier check all read.  An entry may give a
tail part, which depends on the alternating tuple alone: for 1, 2 and 3 the
cyclic pairs (u, [v1, v2]) whose bracket is nonzero, for 6 its [x, y].  A
sweep computes it once per tuple and shares it with every head, and a tuple
whose tail part is empty is zero for every head.  An entry may also split
its evaluator into an inner part, which depends on every occurrence but the
first one and on the tuple, and an outer step; a sweep then computes each
inner value once per (occurrences, tuple) instead of once per ordering of
every head.  Identity 1's inner part is identity 2's sum, and its outer
step applies the other map; 3, 4 and 6 bracket with the first z.  A sweep
keeps both kinds of value keyed by the basis tuple itself.  After its first
head it visits only the tuples whose tail part, inner values or (for s5)
nested brackets out from x0 can be nonzero.

A quantified check sweeps basis tuples only.  Alternating slots are swept
over strictly increasing index tuples.  A repeated slot (the D in 1, the z
in 3 and 4, the w in 6) is polarized: it is swept over non-decreasing index
tuples, one symbol per occurrence, and the value is the identity's weight
times the sum over all orderings of those symbols.  The weight is 1/d! for
3, 4 and 6, so there a diagonal tuple gives the plain evaluation; identity
1 has weight 1, so at a diagonal pair of maps its value is twice the plain
one.  A Fixed argument is not polarized.  Witnesses are the
lexicographically first failing tuple.

One function, ``_verdict``, turns a stream of nonzero values into a
``Report``'s fields, for a sweep here and for the R-bracket's Jacobiator in
``rmatrix.is_classical_rmatrix``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product, repeat
from typing import Callable, NamedTuple

from .errors import (
    ArityMismatch,
    IncompatibleQuantifier,
    LieDoubleError,
    NotNilpotent,
    NotParameterFree,
    UnknownIdentity,
    UnknownQuantifier,
)
from .derivations import derivation_space, inner_derivations
from .lie_core import (
    Element,
    LieAlgebra,
    center,
    is_center_by_metabelian,
    is_metabelian,
    lower_central_series,
    nilpotency_class,
)
from .linalg import ExceptionalSet, Matrix, _check_map, _sadd
from .scalars import Scalar, poly_normalize, rational_roots

_UNSET = object()


# ---------------------------------------------------------------------------
# quantifiers

class Fixed:
    """A concrete map (identities 1, 2) or element (identities 3, 4)."""

    __slots__ = ("payload",)

    def __init__(self, payload):
        self.payload = payload

    def __repr__(self):
        return f"Fixed({self.payload!r})"


class _Sweep:
    __slots__ = ("name", "tag", "space")

    def __init__(self, name, tag, space=None):
        self.name = name
        self.tag = tag  # the CLI name, which _classify reports
        self.space = space  # builds the swept maps of an algebra, if any

    def __repr__(self):
        return self.name


ALL_DERIVATIONS = _Sweep("AllDerivations", "all-der", derivation_space)
ALL_INNER_DERIVATIONS = _Sweep("AllInnerDerivations", "all-inner", inner_derivations)
ALL_ELEMENTS = _Sweep("AllElements", "all-elem")

_BY_NAME = {q.tag: q for q in (ALL_DERIVATIONS, ALL_INNER_DERIVATIONS, ALL_ELEMENTS)}


def quantifier_from_name(name: str, payload=None):
    if name == "fixed":
        if payload is None:
            raise UnknownQuantifier("fixed quantifier needs a payload")
        return Fixed(payload)
    q = _BY_NAME.get(name)
    if q is None:
        raise UnknownQuantifier(f"unknown quantifier name {name!r}")
    return q


_ALIASES = {
    "1": "1", "2": "2", "3": "3", "4": "4", "6": "6",
    "id1": "1", "id2": "2", "id3": "3", "id4": "4", "id6": "6",
    "s5": "s5", "std5": "s5",
}


def canonical_identity(ident) -> str:
    key = str(ident).strip().lower()
    canon = _ALIASES.get(key)
    if canon is None:
        raise UnknownIdentity(f"unknown identity {ident!r}")
    return canon


# quantifier tags admitted by each kind of quantified argument
_ADMITTED = {"map": ("fixed-map", "all-der", "all-inner"), "z": ("fixed-elem", "all-elem"),
             None: ("all-elem",)}


# ---------------------------------------------------------------------------
# the identity table

# Each term below is a bracket [outer, inner] whose inner operand is itself
# a bracket.  The inner value is computed first, and a term whose inner
# value is zero is skipped before its outer operand is built; no bracket is
# taken with an empty argument.  _sadd into an empty dict copies the values
# as they are, so the sums and their print order do not change.
#
# Every evaluator takes the bracket and a memo after it; the memo lives for
# one sweep or one evaluation.  Memo keys are built from ids of operands
# that stay alive that long (maps, basis vectors, the payload, an element's
# storage), never of a value computed on the way.

def _scoped(memo, tag, owner) -> dict:
    """The part of ``memo`` under ``tag`` that serves ``owner``; the part
    that served the previous owner is freed.  A sweep meets each owner (a
    map, or the x0 of s5) in one run of heads."""
    held = memo.get(tag)
    if held is None or held[0] is not owner:
        held = memo[tag] = (owner, {})
    return held[1]


def _apply(memo, d, u) -> dict:
    """``d.apply_sparse(u)``, computed once per (map, vector)."""
    images = _scoped(memo, "apply", d)
    du = images.get(id(u))
    if du is None:
        du = images[id(u)] = d.apply_sparse(u)
    return du


def _with_images(b, z, basis):
    """``b`` with each [z, e_u] of a Fixed z computed once: identities 3 and
    4 take it with the same basis vector in many tuples.  A sweep over all
    elements keeps plain ``b``, whose brackets of two basis vectors are one
    table lookup each."""
    index = {id(v): i for i, v in enumerate(basis)}
    images = [None] * len(basis)

    def bracket(x, y):
        if x is z:
            i = index.get(id(y))
            if i is not None:
                zy = images[i]
                if zy is None:
                    zy = images[i] = b(x, y)
                return zy
        return b(x, y)

    return bracket


def _cyclic_pairs(b, x, y, w):
    """Tail part of 1, 2 and 3: the nonzero (u, [v1, v2]) of the cyclic
    terms (x, [y, w]), (y, [w, x]), (w, [x, y]), in that order."""
    pairs = []
    for u, v1, v2 in ((x, y, w), (y, w, x), (w, x, y)):
        inner = b(v1, v2)
        if inner:
            pairs.append((u, inner))
    return tuple(pairs)


def _e2(b, memo, d, *pairs):
    out: dict = {}
    for u, inner in pairs:
        du = _apply(memo, d, u)
        if du:
            _sadd(out, b(du, inner))
    return out


def _e3_inner(b, memo, z2, *pairs):
    """The nonzero [[z2, u], [v1, v2]] of the cyclic terms of 3."""
    terms = []
    for u, inner in pairs:
        zu = b(z2, u)
        term = b(zu, inner) if zu else None
        if term:
            terms.append(term)
    return tuple(terms)


def _e3(b, memo, z1, z2, terms):
    out: dict = {}
    for term in terms:
        _sadd(out, b(z1, term))
    return out


def _e4_inner(b, memo, z2, z3, x, y):
    """[[z2, x], [z3, y]]."""
    right = b(z3, y)
    if not right:
        return {}
    left = b(z2, x)
    return b(left, right) if left else {}


def _xy_pair(b, x, y):
    """Tail part of 6: x, y and the pair (None, [x, y]), or () when [x, y]
    is zero; it is never falsy, since [[w, x], [w, y]] does not vanish with
    [x, y]."""
    xy = b(x, y)
    return x, y, (None, xy) if xy else ()


def _e6_inner(b, memo, w1, w2, x, y, pair):
    """The parts of 6 that z does not enter, each None when zero:
    [[w1, x], [w2, y]] and [x, y].  When the first is zero they are the
    tuple's own ``pair``, shared by every (w1, w2)."""
    right = b(w2, y)
    left = b(w1, x) if right else None
    first = b(left, right) if left else None
    return (first, pair[1] if pair else None) if first else pair


def _e6(b, memo, z, w1, w2, parts):
    first, xy = parts
    out: dict = {}
    if first:
        _sadd(out, b(z, first))
    zw = b(z, w2) if xy else None
    nested = b(zw, xy) if zw else None
    if nested:
        _sadd(out, b(w1, nested), -1)
    return out


# the orderings of s5's four alternating slots, each with its sign
_SIGNED_ORDERS = tuple(
    (p, (-1) ** sum(p[i] > p[j] for i, j in combinations(range(4), 2)))
    for p in permutations(range(4))
)


def _e_s5(b, memo, x0, *xs):
    """The signed sum of [x_p1, [x_p2, [x_p3, [x_p4, x0]]]].  The nested
    prefixes [x_p2, [x_p3, [x_p4, x0]]] and their inner parts are kept for
    one x0, keyed by the ids of their x's."""
    out: dict = {}
    prefixes = _scoped(memo, "s5", x0)
    ids = [id(x) for x in xs]
    for order, sign in _SIGNED_ORDERS:
        v, key = x0, ()
        for i in reversed(order[1:]):
            key = (ids[i],) + key
            nested = prefixes.get(key, _UNSET)
            if nested is _UNSET:
                # a zero prefix is kept as None, not as a dict
                nested = prefixes[key] = b(xs[i], v) or None
            if nested is None:
                break
            v = nested
        else:
            _sadd(out, b(xs[order[0]], v), sign)
    return out


def _s5_support(b, memo, basis, x0):
    """The index tuples, in lexicographic order, that have a nonzero nested
    prefix [x_p2, [x_p3, [x_p4, x0]]] in some ordering; s5 is zero at x0 on
    every other tuple.  The walk goes out from x0 one bracket at a time,
    through ``_e_s5``'s prefix memo and under its keys, so each prefix is
    bracketed once.  Each prefix triple is extended by every fourth index."""
    prefixes = _scoped(memo, "s5", x0)
    chains = [((), (), x0)]  # (indices, memo key, nonzero prefix), outermost first
    for _ in range(3):
        longer = []
        for idx, key, v in chains:
            for i, x in enumerate(basis):
                if i in idx:
                    continue
                ikey = (id(x),) + key
                nested = prefixes.get(ikey, _UNSET)
                if nested is _UNSET:
                    nested = prefixes[ikey] = b(x, v) or None
                if nested is not None:
                    longer.append(((i,) + idx, ikey, nested))
        chains = longer
    triples = {tuple(sorted(idx)) for idx, _, _ in chains}
    return sorted({tuple(sorted(t + (i,))) for t in triples
                   for i in range(len(basis)) if i not in t})


class _Identity(NamedTuple):
    """Slot groups in witness order, the polarization weight, and the
    evaluator ``f(bracket, memo, *occurrences)`` on sparse vectors and maps.

    A group ``(kind, d)`` is the quantified argument repeated d times ("map"
    for the D of 1 and 2, "z" for the z of 3 and 4), a basis element
    repeated d times ("elem": z and w in 6, x0 in s5), or d alternating
    basis slots ("alt").  The last group is always alternating; the
    occurrences of the other groups form the head.

    With ``tail`` set, the alternating tuple enters only through its tail
    part ``tail(bracket, *tuple)``, a tuple that stands in for the tuple's
    slots: the cyclic pairs (u, [v1, v2]) of 1, 2 and 3 that are nonzero,
    and x, y and [x, y] for 6.  It does not depend on the head, so a sweep
    computes it once per tuple; a falsy tail part makes the value zero for
    every head.

    With ``inner`` set, the value at ``(first, *rest, *tail)``, where the
    head is ``(first, *rest)`` and tail is the tuple or its tail part, is
    ``f(bracket, memo, first, *rest, inner(bracket, memo, *rest, *tail))``.
    The inner value does not depend on ``first``, so a sweep computes it
    once per ``(rest, tuple)``: per map and tuple for 1, per z and tuple for
    3, per pair of z's (or w's) and tuple for 4 and 6.  A zero inner value
    is falsy, and ``f`` is linear in it, so zero adds nothing.

    With ``support`` set, ``support(bracket, memo, basis, *head)`` lists,
    in lexicographic order, the index tuples that can be nonzero at a head:
    the nested-prefix walk of s5."""

    groups: tuple
    weight: Fraction
    f: Callable
    inner: Callable = None
    tail: Callable = None
    support: Callable = None

    @property
    def argument(self):
        """Kind of the quantified argument: "map", "z", or None."""
        kind = self.groups[0][0]
        return kind if kind in ("map", "z") else None


_IDENTITIES = {
    "1": _Identity((("map", 2), ("alt", 3)), 1,
                   lambda b, memo, d1, d2, v: d1.apply_sparse(v), _e2, _cyclic_pairs),
    "2": _Identity((("map", 1), ("alt", 3)), 1, _e2, tail=_cyclic_pairs),
    "3": _Identity((("z", 2), ("alt", 3)), Fraction(1, 2), _e3, _e3_inner, _cyclic_pairs),
    "4": _Identity((("z", 3), ("alt", 2)), Fraction(1, 6),
                   lambda b, memo, z1, z2, z3, v: b(z1, v), _e4_inner),
    "6": _Identity((("elem", 1), ("elem", 2), ("alt", 2)), Fraction(1, 2), _e6, _e6_inner,
                   _xy_pair),
    "s5": _Identity((("elem", 1), ("alt", 4)), 1, _e_s5, support=_s5_support),
}

# [[z,x],[z,y]] polarized in z: it vanishes iff [[g,g],[g,g]] = 0
_SQUARE_BRACKET = _Identity((("elem", 2), ("alt", 2)), 1, _e4_inner)


# ---------------------------------------------------------------------------
# pointwise evaluation

def eval_identity(g: LieAlgebra, ident, *slots) -> Element:
    """Plain (unpolarized) evaluation at concrete slots.

    Slot orders: 1 and 2 take (D, x, y, w); 3 takes (z, x, y, w); 4 takes
    (z, x, y); 6 takes (z, w, x, y); s5 takes (x0, x1, x2, x3, x4)."""
    ident = canonical_identity(ident)
    spec = _IDENTITIES[ident]
    count = sum(d if kind == "alt" else 1 for kind, d in spec.groups)
    if len(slots) != count:
        raise ArityMismatch(f"identity {ident} takes {count} slots, got {len(slots)}")
    slot = iter(slots)
    who = f"identity {ident}"
    occurrences = []
    for kind, d in spec.groups:
        if kind == "alt":
            occurrences += [g._sparse_of(next(slot), who) for _ in range(d)]
        elif kind == "map":
            occurrences += [_check_map(next(slot), g.dim, who)] * d
        else:
            occurrences += [g._sparse_of(next(slot), who)] * d
    b, memo = g.bracket_sparse, {}
    k = len(occurrences) - spec.groups[-1][1]
    if spec.tail is not None:
        part = spec.tail(b, *occurrences[k:])
        if not part:  # the value is zero
            return Element(g, {})
        occurrences[k:] = part
    if spec.inner is not None:
        occurrences[k:] = [spec.inner(b, memo, *occurrences[1:])]
        if not occurrences[k]:  # f is linear in it: the value is zero
            return Element(g, {})
    return Element(g, spec.f(b, memo, *occurrences))


# ---------------------------------------------------------------------------
# quantified sweeps

def _classify(q):
    if isinstance(q, Fixed):
        if isinstance(q.payload, Matrix):
            return "fixed-map", q.payload
        if isinstance(q.payload, Element):
            return "fixed-elem", q.payload
        raise ArityMismatch("fixed quantifier payload must be a map or an element")
    if isinstance(q, _Sweep):
        return q.tag, None
    raise ArityMismatch(f"not a quantifier: {q!r}")


def _sweep(g, spec: _Identity, payload, maps):
    """Lazily yield ``(key, sparse value)`` for the basis tuples of ``spec``
    whose value is nonzero, in lexicographic key order, and return the
    number of (head, tuple) pairs visited.  A Fixed ``payload`` (a map, or
    an element's sparse vector) fills the argument's group and adds nothing
    to the key; otherwise the argument runs over ``maps`` or the basis.  The
    orderings are summed in ``permutations`` order, and the weight is
    applied last.

    The first head visits every tuple, lazily, so a failing sweep still
    stops at its first tuple; values shared across orderings and tuples are
    computed when a tuple first needs them.  Without a payload they are kept
    for the call, keyed by the tuple itself: the truthy tail parts, which
    the first head records, and one row of inner values per ``rest`` of the
    head (keyed by the pool indices of its occurrences), filled by the first
    head that needs it, with a zero kept as False.  When that head is done
    the row is complete and keeps only its nonzero values, so its keys are
    its live tuples.  A row being filled reads an absent tuple as not yet
    computed, a complete one as zero.  A later head visits, in lexicographic
    order, only the tuples that can be nonzero for it:

    - when all its rows are complete, the sorted union of their keys;
    - otherwise, with a tail part, the recorded tail parts;
    - otherwise, with a ``support``, the tuples it lists;
    - otherwise every tuple.

    A Fixed payload makes the head unique, so nothing would be read twice
    and nothing is kept.  The evaluators' memo also lives for the call; in
    it, 1 and 2 keep the images of basis vectors under the current map, and
    s5 the nested prefixes for the current x0 (at most n + n^2 + n^3), freed
    when the head moves on.  A Fixed z of 3 and 4 is bracketed with each
    basis vector once (``_with_images``).  With one basis vector on each
    side a bracket is a single table lookup (``LieAlgebra.bracket_sparse``).

    The sweep computes on stored values (basis vectors ``{i: 1}``, the
    maps' column views, ``g._pairs``, an element payload's own storage) and
    a Fraction weight, so yielded vectors mix ints, Fractions and Scalars;
    ``_verdict`` wraps the one it returns, a failure's value, in an
    ``Element``."""
    b, f, inner_f, tail_f = g.bracket_sparse, spec.f, spec.inner, spec.tail
    keep = payload is None
    n, alt = g.dim, spec.groups[-1][1]
    rows: dict = {}  # rest -> its row of inner values, by tuple
    tails = None  # tuple -> its truthy tail part, once the first head is done
    memo: dict = {}
    # basis vectors stay these dicts throughout: memo keys are their ids
    basis = [{i: 1} for i in range(n)]
    # the head's occurrences are drawn from one pool, by index.  Tuples are
    # built from lists, not generators: tuple() then allocates them at their
    # own size, so the freed ones are reused instead of piling up unused
    if payload is not None:
        pool = [payload]
        if spec.argument == "z":
            b = _with_images(b, payload, basis)
    else:
        pool = maps if spec.argument == "map" else basis
    # per head group: (key part, pool indices of its occurrences) per choice
    choices = []
    for kind, d in spec.groups[:-1]:
        if payload is not None and kind in ("map", "z"):
            choices.append([((), (0,) * d)])
        else:
            choices.append([(t, t) for t in combinations_with_replacement(range(len(pool)), d)])
    visits = 0
    weight = None if payload is not None or spec.weight == 1 else spec.weight
    # a Fixed payload fills its slots once; the other slots are polarized
    orderings = permutations if payload is None else lambda t: (t,)
    for head in product(*choices):
        head_key = sum([key for key, _ in head], ())
        orders = [sum(chosen, ()) for chosen in product(*[orderings(t) for _, t in head])]
        heads = [tuple([pool[i] for i in order]) for order in orders]
        rests = [order[1:] for order in orders] if inner_f is not None else []
        fresh = [rest for rest in dict.fromkeys(rests) if rest not in rows]
        for rest in fresh:
            rows[rest] = {}
        # each ordering with its row and what the row reads for an absent tuple
        head_rows = [(occ, rows[rest], None if rest in fresh else False)
                     for occ, rest in zip(heads, rests)]
        # (tuple, its tail part or basis vectors); a walk over complete rows
        # reads no part.  The first head has only fresh rows and no tails yet
        if rests and not fresh:
            walk = zip(sorted(set().union(*[row for _, row, _ in head_rows])), repeat(None))
        elif tails is not None:
            walk = tails.items()
        elif visits and spec.support is not None:
            walk = [(t, tuple([basis[i] for i in t])) for t in spec.support(b, memo, basis, *heads[0])]
        else:
            walk = zip(combinations(range(n), alt), combinations(basis, alt))
        # the tail parts this head computes: only the first head does
        parts = {} if tail_f is not None and tails is None else None
        for t, part in walk:
            visits += 1
            if parts is not None:
                part = tail_f(b, *part)
                if not part:  # the value is zero for every head
                    continue
                if keep:
                    parts[t] = part
            out: dict = {}
            if inner_f is None:
                for occ in heads:
                    _sadd(out, f(b, memo, *occ, *part))
            else:
                for occ, row, absent in head_rows:
                    v = row.get(t, absent)
                    if v is None:
                        v = inner_f(b, memo, *occ[1:], *part) or False
                        if keep:
                            row[t] = v
                    if v:
                        _sadd(out, f(b, memo, *occ, v))
            if out:
                if weight is not None:
                    out = {k: c * weight for k, c in out.items()}
                yield head_key + t, out
        if keep:
            if parts is not None:
                tails = parts
            for rest in fresh:
                rows[rest] = {t: v for t, v in rows[rest].items() if v}
    return visits


def _verdict(g, values) -> dict:
    """The report fields of a stream of ``(key, nonzero sparse value)``
    pairs: the one place a check's verdict is decided.

    A coordinate whose numerator is a nonzero constant, or that is a
    native (int or Fraction) nonzero, is nonzero for every parameter value:
    the first such pair fails, with its key as the witness and its value as
    an ``Element``.  Otherwise the check holds when no value was seen, and
    is conditional on the distinct normalized numerators, in ExceptionalSet
    order (degree, then text), with their rational root sets (None for a
    multivariate condition).  A raw numerator equal to one already seen
    normalizes to an equal poly, which the ExceptionalSet would drop: each
    is normalized only once."""
    seen = set()
    normalized = []
    for key, sparse in values:
        for coord in sorted(sparse):
            c = sparse[coord]
            num = c.numerator_poly() if isinstance(c, Scalar) else None
            if num is None or num.is_constant():
                return {"status": "fails", "witness": key, "value": Element(g, sparse)}
            if num not in seen:
                seen.add(num)
                normalized.append(poly_normalize(num))
    conditions = ExceptionalSet(normalized).polys
    if not conditions:
        return {"status": "holds"}
    roots = tuple(rational_roots(p).roots if len(p.variables()) == 1 else None
                  for p in conditions)
    return {"status": "conditional", "conditions": conditions, "roots": roots}


class Report:
    """Verdict shape shared by identity and R-matrix checks.

    status is "holds", "fails" or "conditional".  A failure carries the
    lexicographically first witness tuple and the nonzero value.  A
    conditional outcome carries normalized parameter conditions, their
    rational root sets (None for multivariate conditions) and, where
    computed, the intersection when every condition is univariate in the
    same variable.  ``exceptional`` holds the degenerations of the generic
    answer the verdict was computed on."""

    __slots__ = ("status", "witness", "value", "conditions", "roots",
                 "common_roots", "exceptional")

    def __init__(self, status, witness=None, value=None, conditions=(), roots=(),
                 common_roots=None, exceptional=None):
        self.status = status
        self.witness = witness
        self.value = value
        self.conditions = tuple(conditions)
        self.roots = tuple(roots)
        self.common_roots = common_roots
        self.exceptional = exceptional or ExceptionalSet()

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def __repr__(self):
        identity = getattr(self, "identity", None)
        subject = "" if identity is None else f"{identity}: "
        if self.status == "fails":
            verdict = f"fails at {self.witness}, value {self.value}"
        elif self.status == "conditional":
            verdict = f"conditional on {[str(p) for p in self.conditions]}"
        else:
            verdict = "holds"
        return f"{type(self).__name__}({subject}{verdict})"


class IdentityReport(Report):
    """Outcome of a quantified identity check.

    The witness lists map indices first, then basis indices in slot
    order."""

    __slots__ = ("identity", "quantifier")

    def __init__(self, identity, quantifier, status, **fields):
        super().__init__(status, **fields)
        self.identity = identity
        self.quantifier = quantifier


def check_quantified(g: LieAlgebra, ident, quantifier) -> IdentityReport:
    ident = canonical_identity(ident)
    spec = _IDENTITIES[ident]
    tag, payload = _classify(quantifier)
    if tag not in _ADMITTED[spec.argument]:
        raise IncompatibleQuantifier(
            f"identity {ident} does not admit quantifier {tag}"
        )
    if tag == "fixed-map":
        payload = _check_map(payload, g.dim, f"identity {ident}")
    elif tag == "fixed-elem":
        payload = g._sparse_of(payload, f"identity {ident}")
    maps, exceptional = None, ExceptionalSet()
    if payload is None and quantifier.space is not None:
        space = quantifier.space(g)
        maps, exceptional = space.basis, space.exceptional
    fields = _verdict(g, _sweep(g, spec, payload, maps))
    # conditions univariate in one variable share their roots
    if len(set().union(*[p.variables() for p in fields.get("conditions", ())])) == 1:
        fields["common_roots"] = frozenset.intersection(*fields["roots"])
    return IdentityReport(ident, quantifier, exceptional=exceptional, **fields)


# ---------------------------------------------------------------------------
# audits

class AuditReport:
    """Named bundle of facts; returned only when all consistency
    requirements were met (violations raise instead)."""

    __slots__ = ("name", "facts")

    def __init__(self, name, facts):
        self.name = name
        self.facts = dict(facts)

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.facts.items())
        return f"AuditReport({self.name}: {inner})"


def _require_plain(g):
    if g.is_parametric():
        raise NotParameterFree("audit requires a parameter-free algebra")


def _imply(facts, a, b):
    if facts[a] and not facts[b]:
        raise LieDoubleError(f"implication audit violated: {a} holds but {b} fails")


def implication_audit(g: LieAlgebra) -> AuditReport:
    """Check the one-way chain 2 -> 1 -> 3 -> 4 on a single algebra.

    Identity 2 for a family of derivations implies identity 1 for the same
    family; identity 1 over inner derivations implies identity 3 over
    elements, which implies identity 4.  A violation raises; the report
    carries the six verdicts."""
    _require_plain(g)
    facts = {
        "id2_all_der": check_quantified(g, "2", ALL_DERIVATIONS).holds,
        "id1_all_der": check_quantified(g, "1", ALL_DERIVATIONS).holds,
        "id2_all_inner": check_quantified(g, "2", ALL_INNER_DERIVATIONS).holds,
        "id1_all_inner": check_quantified(g, "1", ALL_INNER_DERIVATIONS).holds,
        "id3_all_elem": check_quantified(g, "3", ALL_ELEMENTS).holds,
        "id4_all_elem": check_quantified(g, "4", ALL_ELEMENTS).holds,
    }
    _imply(facts, "id2_all_der", "id1_all_der")
    _imply(facts, "id2_all_inner", "id1_all_inner")
    _imply(facts, "id2_all_der", "id2_all_inner")
    _imply(facts, "id1_all_der", "id1_all_inner")
    _imply(facts, "id1_all_inner", "id3_all_elem")
    _imply(facts, "id3_all_elem", "id4_all_elem")
    return AuditReport("implication-chain", facts)


def metabelian_equivalences(g: LieAlgebra) -> AuditReport:
    """[[g,g],[g,g]] = 0 is equivalent to the polarized vanishing of
    [[z,x],[z,y]] and to identity 2 over all inner derivations."""
    _require_plain(g)
    meta = is_metabelian(g)
    square_zero = next(_sweep(g, _SQUARE_BRACKET, None, None), None) is None
    inner2 = check_quantified(g, "2", ALL_INNER_DERIVATIONS).holds
    facts = {
        "metabelian": meta,
        "square_bracket_zero": square_zero,
        "id2_all_inner": inner2,
    }
    if not (meta == square_zero == inner2):
        raise LieDoubleError(f"metabelian equivalence violated: {facts}")
    return AuditReport("metabelian-equivalences", facts)


def nilpotent_witness_derivation(g: LieAlgebra) -> Matrix:
    """A nonzero derivation D with identity 2 at Fixed(D), for nilpotent g.

    Class at most 2: every derivation works, the first basis derivation is
    returned.  Class c >= 3: D = ad(w) for a basis vector w of the (c-2)-nd
    lower central term outside the center; all identity terms then land in
    the vanishing c-th term."""
    _require_plain(g)
    c = nilpotency_class(g)
    if c is None:
        raise NotNilpotent("witness derivation needs a nilpotent algebra")
    if c <= 2:
        for m in derivation_space(g).basis:
            if not m.is_zero():
                return m
        raise LieDoubleError("derivation space is unexpectedly trivial")
    chain = lower_central_series(g)
    zc = center(g)
    for vec in chain[c - 3]._vectors:
        if not zc.contains_vector(vec):
            return g.ad(Element(g, vec))
    raise LieDoubleError("lower central term is unexpectedly central")


def _premise_audit(g, name, what, facts, premise, codes) -> AuditReport:
    """Audit ``name``: when ``premise`` holds, identities ``codes`` must hold
    over all elements.  They are checked only then, and marked "skipped"
    otherwise; a failure raises, naming ``what``."""
    for code in codes:
        facts[f"id{code}_all_elem"] = (
            check_quantified(g, code, ALL_ELEMENTS).status if premise else "skipped"
        )
    if premise and any(facts[f"id{code}_all_elem"] != "holds" for code in codes):
        raise LieDoubleError(f"{what} audit violated: {facts}")
    return AuditReport(name, facts)


def id6_from_id3_audit(g: LieAlgebra) -> AuditReport:
    """When identity 3 holds over all elements, identity 6 must as well."""
    _require_plain(g)
    s3 = check_quantified(g, "3", ALL_ELEMENTS).status
    return _premise_audit(g, "id3-implies-id6", "identity 6", {"id3_all_elem": s3},
                          s3 == "holds", ("6",))


def cbm_implies_id34_audit(g: LieAlgebra) -> AuditReport:
    """Center-by-metabelian forces identities 3 and 4 over all elements."""
    _require_plain(g)
    cbm = is_center_by_metabelian(g)
    return _premise_audit(g, "cbm-implies-id3-id4", "center-by-metabelian",
                          {"center_by_metabelian": cbm}, cbm, ("3", "4"))
