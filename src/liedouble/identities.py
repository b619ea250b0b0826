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
quantified sweep and the quantifier check all read.  An entry lists the
bracket terms of the value, whose index supports a sweep reads before it
computes anything: it visits only the heads and tuples where some term can
be nonzero.  An entry may give a tail part, which depends on the
alternating tuple alone: for 1, 2 and 3 the cyclic pairs (u, [v1, v2])
whose bracket is nonzero, for 6 its [x, y].  A sweep computes it once per
tuple and shares it with every head, and a tuple whose tail part is empty
is zero for every head.  An entry may also split its evaluator into an
inner part, which depends on every occurrence but the first one and on the
tuple, and an outer step; a sweep then computes each inner value once per
(occurrences, tuple) instead of once per ordering of every head.  Identity
1's inner part is identity 2's sum, and its outer step applies the other
map; 3, 4 and 6 bracket with the first z.  A sweep keeps both kinds of
value keyed by the basis tuple itself.

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
from functools import partial
from itertools import accumulate, combinations, combinations_with_replacement, permutations, product
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


def _xy(b, x, y):
    """Tail part of 6: x, y and [x, y].  It is never falsy, since [[w, x],
    [w, y]] does not vanish with [x, y]."""
    return x, y, b(x, y)


def _e6_inner(b, memo, w1, w2, x, y, xy):
    """[[w1, x], [w2, y]], from 6's tail part."""
    return _e4_inner(b, memo, w1, w2, x, y)


def _e6(b, memo, z, w1, w2, first, x, y, xy):
    """[z, first] - [w1, [[z, w2], [x, y]]], where ``first`` is the inner
    part [[w1, x], [w2, y]], falsy when zero, and x, y, [x, y] the tail
    part."""
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


class _Node:
    """One node of a bracket term: a head occurrence ("occ", by its position
    ``h`` in the ordering), an alternating slot ("alt", only ``_X``), the map
    of occurrence ``h`` applied to its kid ("map"), or the bracket of its two
    kids ("bracket")."""

    __slots__ = ("kind", "h", "kids")

    def __init__(self, kind, h=None, *kids):
        self.kind, self.h = kind, h
        self.kids = tuple(_Node("occ", k) if type(k) is int else k for k in kids)


# an alternating slot; [u, v], where an int stands for that occurrence; and
# the map of occurrence h applied to u
_X = _Node("alt")
_br = partial(_Node, "bracket", None)
_D = partial(_Node, "map")


class _Identity(NamedTuple):
    """Slot groups in witness order, the polarization weight, the evaluator
    ``f(bracket, memo, *occurrences)`` on sparse vectors and maps, and the
    bracket terms of the value.

    A group ``(kind, d)`` is the quantified argument repeated d times ("map"
    for the D of 1 and 2, "z" for the z of 3 and 4), a basis element
    repeated d times ("elem": z and w in 6, x0 in s5), or d alternating
    basis slots ("alt").  The last group is always alternating; the
    occurrences of the other groups form the head.

    ``terms`` are bracket terms (``_Node`` trees), written with head
    occurrences by their position in an ordering.  The value is a linear
    combination of the terms, each taken at orderings of the head and
    permutations of the tuple, so it can be nonzero only where some term's
    index support is nonempty.

    With ``tail`` set, the alternating tuple enters only through its tail
    part ``tail(bracket, *tuple)``, a tuple that stands in for the tuple's
    slots: the cyclic pairs (u, [v1, v2]) of 1, 2 and 3 that are nonzero,
    and x, y and [x, y] for 6.  It does not depend on the head, so a sweep
    computes it once per tuple; a falsy tail part makes the value zero for
    every head.

    With ``inner`` set, the value at the head ``(first, *rest)`` and the
    tail part (or tuple) ``part`` is ``f(bracket, memo, first, *rest, v)``,
    where ``v = inner(bracket, memo, *rest, *part)`` is falsy when zero.
    ``v`` does not depend on ``first``, so a sweep computes it once per
    ``(rest, tuple)``: per map and tuple for 1, per z and tuple for 3, per
    pair of z's (or w's) and tuple for 4 and 6.  It is the value of the last
    operand of the first term.  That term is linear in it, and the only
    term of 1, 3 and 4, so there a zero ``v`` adds nothing.  6 has a second
    term, [w1, [[z, w2], [x, y]]], which ``v`` does not enter, so its ``f``
    also reads the tail part, ``f(bracket, memo, first, *rest, v, *part)``;
    that term vanishes with [x, y], the last entry of 6's tail part."""

    groups: tuple
    weight: Fraction
    f: Callable
    terms: tuple
    inner: Callable = None
    tail: Callable = None

    @property
    def argument(self):
        """Kind of the quantified argument: "map", "z", or None."""
        kind = self.groups[0][0]
        return kind if kind in ("map", "z") else None


# [[z2, x], [z3, y]]: the inner part of 4, and of 6 for (w1, w2)
_I4 = _br(_br(1, _X), _br(2, _X))

_IDENTITIES = {
    "1": _Identity((("map", 2), ("alt", 3)), 1,
                   lambda b, memo, d1, d2, v: d1.apply_sparse(v),
                   (_D(0, _br(_D(1, _X), _br(_X, _X))),), _e2, _cyclic_pairs),
    "2": _Identity((("map", 1), ("alt", 3)), 1, _e2, (_br(_D(0, _X), _br(_X, _X)),),
                   tail=_cyclic_pairs),
    "3": _Identity((("z", 2), ("alt", 3)), Fraction(1, 2), _e3,
                   (_br(0, _br(_br(1, _X), _br(_X, _X))),), _e3_inner, _cyclic_pairs),
    "4": _Identity((("z", 3), ("alt", 2)), Fraction(1, 6),
                   lambda b, memo, z1, z2, z3, v: b(z1, v), (_br(0, _I4),), _e4_inner),
    "6": _Identity((("elem", 1), ("elem", 2), ("alt", 2)), Fraction(1, 2), _e6,
                   (_br(0, _I4), _br(1, _br(_br(0, 2), _br(_X, _X)))),
                   _e6_inner, _xy),
    "s5": _Identity((("elem", 1), ("alt", 4)), 1, _e_s5,
                    (_br(_X, _br(_X, _br(_X, _br(_X, 0)))),)),
}

# [[z,x],[z,y]] polarized in z: it vanishes iff [[g,g],[g,g]] = 0
_SQUARE_BRACKET = _Identity((("elem", 2), ("alt", 2)), 1, _e4_inner,
                            (_br(_br(0, _X), _br(1, _X)),))


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
    head, part = occurrences[:k], occurrences[k:]
    if spec.tail is not None:
        part = spec.tail(b, *part)
        if not part:  # the value is zero
            return Element(g, {})
    if spec.inner is None:
        return Element(g, spec.f(b, memo, *head, *part))
    v = spec.inner(b, memo, *head[1:], *part)
    if len(spec.terms) > 1:  # 6: f reads the tail part too
        return Element(g, spec.f(b, memo, *head, v, *part))
    if not v:  # f is linear in it: the value is zero
        return Element(g, {})
    return Element(g, spec.f(b, memo, *head, v))


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


class _Support(dict):
    """Index sets (frozensets) -> coordinate supports, with the index by
    coordinate that a bracket with it reads, built once."""

    __slots__ = ("_by_coord",)

    def by_coord(self) -> dict:
        try:
            return self._by_coord
        except AttributeError:
            index: dict = {}
            for key, s in self.items():
                for q in s:
                    index.setdefault(q, []).append(key)
            self._by_coord = index
            return index


class _Supports:
    """The symbolic phase of a sweep: index supports, read off ``g._pairs``.

    ``of(node)`` maps each key of ``node`` (a frozenset) to the coordinates
    where the node's value can be nonzero.  A key holds the basis indices
    that fill the node's alternating slots and, for each head occurrence h
    that the node reads, the pair (h, i) of the pool index i it takes: an
    occurrence, or the map it applies, takes every pool index, and no
    alternating index meets a pair.  A key whose value is zero for certain
    is absent.  The support of [S, T] is the union of the table pairs'
    components over a in S and b in T: it holds every nonzero coordinate,
    needs no arithmetic and sees no cancellation.  A head occurrence has its
    vector's keys, a map applied to an index set the union of those columns'
    keys.  A bracket walks the smaller side's supports through ``g._pairs``
    into the other side's index by coordinate, so its cost follows the
    structurally nonzero partial brackets, not the number of tuples or
    heads.  Each node is joined once per sweep and kept for it.  A term
    reads each occurrence once, so a key holds one pair per occurrence, and
    ``walks`` reads an ordering off it."""

    def __init__(self, g, pool):
        self.pairs, self.pool, self.memo = g._pairs, pool, {}
        self.alt = _Support((frozenset((i,)), (i,)) for i in range(g.dim))

    def of(self, node) -> _Support:
        if node is _X:
            return self.alt
        got = self.memo.get(node)
        if got is None:
            got = self.memo[node] = self.term(node)
        return got

    def term(self, node) -> _Support:
        h = node.h
        if node.kind == "occ":
            return _Support((frozenset(((h, i),)), v.keys()) for i, v in enumerate(self.pool))
        out = _Support()
        if node.kind == "map":
            kid = self.of(node.kids[0])
            for m, d in enumerate(self.pool):
                var = frozenset(((h, m),))
                cols = [c.keys() for c in d._column_view]
                for indices, s in kid.items():
                    image = set().union(*[cols[i] for i in s])
                    if image:
                        out[indices | var] = image
            return out
        right = self.of(node.kids[1])
        left = self.of(node.kids[0]) if right else None
        if not left:
            return out
        if len(left) > len(right):
            left, right = right, left
        index, pairs = right.by_coord(), self.pairs
        for key, s in left.items():
            for p in s:
                for q, hit in pairs[p].items():
                    for other in index.get(q, ()):
                        if key.isdisjoint(other):
                            both = key | other
                            got = out.get(both)
                            if got is None:
                                out[both] = set(hit[3])
                            else:
                                got.update(hit[3])
        return out

    def walks(self, term) -> dict:
        """The orderings where ``term`` can be nonzero, each with the index
        tuples (sorted) where it can: a key's pairs, by occurrence, give the
        pool indices of the ordering, and its basis indices the tuple.  For
        the inner node of 1, 3, 4 and 6, which reads every occurrence but
        the first, an ordering is a rest."""
        got = self.memo.get(("walks", term))
        if got is None:
            got = self.memo["walks", term] = {}
            for key in self.of(term):
                order = tuple([i for _, i in sorted(e for e in key if type(e) is tuple)])
                got.setdefault(order, set()).add(tuple(sorted(e for e in key if type(e) is int)))
        return got

    def heads(self, spec):
        """The heads of ``spec`` whose walk can be nonempty, in product
        order, as ``_sweep`` takes them: per group, the pool indices of its
        occurrences.  These are the heads with an ordering where some term
        can be nonzero, and, for 1, 3, 4 and 6, the first head (0, *rest) of
        each live rest, which fills the rest's row.  An ordering's head
        sorts it within each group.  The walks follow the table's pairs, so
        a table with no live ordering lists none in a few steps, whatever
        the pool's size; a failing sweep pays for every term's join before
        its first head."""
        sizes = [d for _, d in spec.groups[:-1]]
        cuts = list(zip(accumulate(sizes, initial=0), accumulate(sizes)))

        def head(order):
            return sum([tuple(sorted(order[a:b])) for a, b in cuts], ())

        heads = {head(order) for term in spec.terms for order in self.walks(term)}
        if spec.inner is not None:
            heads.update([head((0, *rest)) for rest in self.walks(spec.terms[0].kids[-1])])
        return [[h[a:b] for a, b in cuts] for h in sorted(heads)]


def _symbolic(g) -> bool:
    """Whether sweeps of ``g`` run the symbolic phase: only when at most half
    of its basis pairs have a nonzero bracket.  A fuller table has nearly
    full supports, so the phase would skip almost nothing, and a failing
    sweep would pay for a whole head's supports before its first tuple.
    The README's note "Symbolic support before the numeric sweep" gives
    the measurements."""
    return 4 * len(g._table) <= g.dim * (g.dim - 1)


def _sweep(g, spec: _Identity, payload, maps):
    """Lazily yield ``(key, sparse value)`` for the basis tuples of ``spec``
    whose value is nonzero, in lexicographic key order, and return the
    number of (head, tuple) pairs visited.  A Fixed ``payload`` (a map, or
    an element's sparse vector) fills the argument's group and adds nothing
    to the key; otherwise the argument runs over ``maps`` or the basis.  The
    orderings are summed in ``permutations`` order, and the weight is
    applied last.

    On a table at most half full (``_symbolic``) a symbolic phase comes
    first: ``_Supports`` joins each term once, with every head occurrence a
    variable, and reads off it (``walks``) the orderings where the term can
    be nonzero, each with its tuples, from index supports alone.  That one
    join per term serves twice.  It lists the heads (``heads``), in product
    order: those with an ordering where some term can be nonzero, and the
    first head of each live rest, which fills its row; every other head
    would have an empty walk.  And it gives each head its walk: the tuples
    of its orderings, which the numeric walk visits in lexicographic order,
    skipping every other tuple, which is zero for certain.  So a failing
    sweep meets its first nonzero tuple as before, with no more bracket
    calls.  This holds for every entry and for a Fixed payload, a pool of
    one.  A fuller table skips the symbolic phase and takes every head:
    its first head visits every tuple, and a later head with complete rows
    the tuples they hold, with 6 also those whose kept [x, y] is nonzero;
    a later head without them visits every tuple with a truthy tail part
    (1, 2, 3 and 6), which the first head kept, or every tuple.

    Values shared across orderings and tuples are computed when a tuple
    first needs them.  Without a payload they are kept for the call, keyed by
    the tuple itself: the truthy tail parts, and one row of inner values per
    ``rest`` of the head (keyed by the pool indices of its occurrences).  A
    row is filled by the first head that has the rest, the one where it
    follows pool index 0, at every tuple where the inner value itself can
    be nonzero, whether or not this head's outer step can be; another head,
    with another ``first``, may need it there.  A zero is kept as False
    while the row fills.  When that head is done the row is complete and
    keeps only its nonzero values, so its keys are its live tuples, which
    see cancellation too: a head whose rows are all complete visits only
    those of its tuples that some row holds, and the tuples of 6's second
    term, which the rows do not enter.  A rest whose first head is not
    listed has an empty inner support, and counts as a complete empty row.

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
    tails: dict = {}  # tuple -> its truthy tail part
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
    sup = _Supports(g, pool) if _symbolic(g) else None
    linear = len(spec.terms) == 1
    # a head: per group, the pool indices of its occurrences
    if sup is not None:
        heads = sup.heads(spec)
        walks = [sup.walks(term) for term in spec.terms]
        inner = sup.walks(spec.terms[0].kids[-1]) if inner_f is not None else None
    else:
        heads = product(*[combinations_with_replacement(range(len(pool)), d) for _, d in spec.groups[:-1]])
    visits = 0
    weight = None if payload is not None or spec.weight == 1 else spec.weight
    # a Fixed payload fills its slots once; the other slots are polarized
    orderings = permutations if payload is None else lambda t: (t,)
    for head in heads:
        head_key = sum(head, ()) if keep else ()  # a Fixed payload adds nothing
        orders = [sum(chosen, ()) for chosen in product(*[orderings(t) for t in head])]
        # heads come in product order, so the first head whose orderings
        # have a rest is the one where it follows pool index 0
        rests = [order[1:] for order in orders] if inner_f is not None else ()
        fresh = [rest for order, rest in dict(zip(orders, rests)).items() if order[0] == 0]
        for rest in fresh:
            rows[rest] = {}
        # the tuples this head visits, each with its basis vectors or its
        # kept tail part
        if sup is None:
            if rests and not fresh:  # a complete row's keys are its live tuples
                walk = set().union(*[rows[rest] for rest in rests])
                if not linear:  # and 6's second term lives where [x, y] does
                    walk.update([t for t, part in tails.items() if part[-1]])
            elif tail_f is not None and visits:  # the first head kept every truthy one
                walk = tails.items()
            else:
                walk = zip(combinations(range(n), alt), combinations(basis, alt))
        else:
            walk = set().union(*[walks[0].get(order, ()) for order in orders])
            if rests and not fresh:
                walk &= set().union(*[rows.get(rest, ()) for rest in rests])
            elif keep and fresh:  # a fresh row fills where its inner value can be nonzero
                walk.update(*[inner.get(rest, ()) for rest in fresh])
            # later terms do not go through the rows
            walk.update(*[w.get(order, ()) for w in walks[1:] for order in orders])
        if isinstance(walk, set):
            if not walk:
                continue
            walk = [(t, [basis[i] for i in t]) for t in sorted(walk)]
        occs = [tuple([pool[i] for i in order]) for order in orders]
        # each ordering with its row and what the row reads for an absent
        # tuple: None (not yet computed) while it fills
        head_rows = [(occ, rows.get(rest, {}), None if rest in fresh else False)
                     for occ, rest in zip(occs, rests)]
        looked = bool(tails)  # a walk meets each tuple once: none kept yet
        for t, part in walk:
            visits += 1
            if tail_f is not None:
                got = tails.get(t) if looked else None
                if got is None:
                    got = tail_f(b, *part)
                    if not got:  # the value is zero for every head
                        continue
                    if keep:
                        tails[t] = got
                part = got
            out: dict = {}
            if inner_f is None:
                for occ in occs:
                    _sadd(out, f(b, memo, *occ, *part))
            else:
                extra = () if linear else part  # 6's f reads the tail part too
                for occ, row, absent in head_rows:
                    v = row.get(t, absent)
                    if v is None:
                        v = inner_f(b, memo, *occ[1:], *part) or False
                        if keep:
                            row[t] = v
                    if v or extra and extra[-1]:
                        _sadd(out, f(b, memo, *occ, v, *extra))
            if out:
                if weight is not None:
                    out = {k: c * weight for k, c in out.items()}
                yield head_key + t, out
        if keep:
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
