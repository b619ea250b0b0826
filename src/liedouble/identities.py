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
quantified sweep and the quantifier check all read.  An entry may split its
evaluator into an inner part, which depends only on the last map (or
element) and the alternating tuple, and an outer step; a sweep then
computes each inner value once per (map, tuple) pair instead of once per
ordering of every tuple of maps.  Identity 1 does: its inner part is
identity 2's sum, and the outer step applies the other map.

A quantified check sweeps basis tuples only.  Alternating slots are swept
over strictly increasing index tuples.  A repeated slot (the D in 1, the z
in 3 and 4, the w in 6) is polarized: it is swept over non-decreasing index
tuples, one symbol per occurrence, and the value is the identity's weight
times the sum over all orderings of those symbols.  The weight is 1/d! for
3, 4 and 6, so there a diagonal tuple gives the plain evaluation; identity
1 has weight 1, so at a diagonal pair of maps its value is twice the plain
one.  A Fixed argument is not polarized.  Witnesses are the
lexicographically first failing tuple.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import Callable, NamedTuple

from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    IncompatibleQuantifier,
    LieDoubleError,
    NotNilpotent,
)
from .derivations import derivation_space, inner_derivations
from .lie_core import (
    Element,
    LieAlgebra,
    center,
    is_metabelian,
    lower_central_series,
    nilpotency_class,
)
from .linalg import ExceptionalSet, Matrix, _check_map, _sadd
from .scalars import Scalar, poly_normalize, rational_roots

_ZERO = Scalar.of(0)
_ONE = Scalar.of(1)
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
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


ALL_DERIVATIONS = _Sweep("AllDerivations")
ALL_INNER_DERIVATIONS = _Sweep("AllInnerDerivations")
ALL_ELEMENTS = _Sweep("AllElements")

_BY_NAME = {
    "all-der": ALL_DERIVATIONS,
    "all-inner": ALL_INNER_DERIVATIONS,
    "all-elem": ALL_ELEMENTS,
}


def quantifier_from_name(name: str, payload=None):
    if name == "fixed":
        if payload is None:
            raise ValueError("fixed quantifier needs a payload")
        return Fixed(payload)
    q = _BY_NAME.get(name)
    if q is None:
        raise ValueError(f"unknown quantifier name {name!r}")
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
        raise ValueError(f"unknown identity {ident!r}")
    return canon


# quantifier tags admitted by each kind of quantified argument
_ADMITTED = {"map": ("fixed-map", "all-der", "all-inner"), "z": ("fixed-elem", "all-elem"),
             None: ("all-elem",)}


# ---------------------------------------------------------------------------
# the identity table

def _e2(b, d, x, y, w):
    out = b(d.apply_sparse(x), b(y, w))
    _sadd(out, b(d.apply_sparse(y), b(w, x)))
    _sadd(out, b(d.apply_sparse(w), b(x, y)))
    return out


def _e3(b, z1, z2, x, y, w):
    out = b(z1, b(b(z2, x), b(y, w)))
    _sadd(out, b(z1, b(b(z2, y), b(w, x))))
    _sadd(out, b(z1, b(b(z2, w), b(x, y))))
    return out


def _e6(b, z, w1, w2, x, y):
    out = b(z, b(b(w1, x), b(w2, y)))
    _sadd(out, b(w1, b(b(z, w2), b(x, y))), -1)
    return out


# the orderings of s5's four alternating slots, each with its sign
_SIGNED_ORDERS = tuple(
    (p, (-1) ** sum(p[i] > p[j] for i, j in combinations(range(4), 2)))
    for p in permutations(range(4))
)


def _e_s5(b, x0, *xs):
    out: dict = {}
    for order, sign in _SIGNED_ORDERS:
        v = x0
        for i in reversed(order):
            v = b(xs[i], v)
        _sadd(out, v, sign)
    return out


class _Identity(NamedTuple):
    """Slot groups in witness order, the polarization weight, and the
    evaluator ``f(bracket, *occurrences)`` on sparse vectors and maps.

    A group ``(kind, d)`` is the quantified argument repeated d times ("map"
    for the D of 1 and 2, "z" for the z of 3 and 4), a basis element
    repeated d times ("elem": z and w in 6, x0 in s5), or d alternating
    basis slots ("alt").  The last group is always alternating.

    With ``inner`` set, the value at ``(*head, last, *tail)``, where tail
    fills the last group, is ``f(bracket, *head, inner(bracket, last,
    *tail))``: the inner value depends only on ``last`` and the tuple, so
    a sweep computes it once per pair of them (identity 1's ``_e2``)."""

    groups: tuple
    weight: Fraction
    f: Callable
    inner: Callable = None

    @property
    def argument(self):
        """Kind of the quantified argument: "map", "z", or None."""
        kind = self.groups[0][0]
        return kind if kind in ("map", "z") else None


_IDENTITIES = {
    "1": _Identity((("map", 2), ("alt", 3)), 1, lambda b, d1, v: d1.apply_sparse(v), _e2),
    "2": _Identity((("map", 1), ("alt", 3)), 1, _e2),
    "3": _Identity((("z", 2), ("alt", 3)), Fraction(1, 2), _e3),
    "4": _Identity(
        (("z", 3), ("alt", 2)), Fraction(1, 6),
        lambda b, z1, z2, z3, x, y: b(z1, b(b(z2, x), b(z3, y))),
    ),
    "6": _Identity((("elem", 1), ("elem", 2), ("alt", 2)), Fraction(1, 2), _e6),
    "s5": _Identity((("elem", 1), ("alt", 4)), 1, _e_s5),
}

# [[z,x],[z,y]] polarized in z: it vanishes iff [[g,g],[g,g]] = 0
_SQUARE_BRACKET = _Identity(
    (("elem", 2), ("alt", 2)), 1,
    lambda b, z1, z2, x, y: b(b(z1, x), b(z2, y)),
)


def _elem(g, sparse: dict) -> Element:
    return Element(g, [sparse.get(i, _ZERO) for i in range(g.dim)])


# ---------------------------------------------------------------------------
# pointwise evaluation

def _prep_elem(g, e, who: str) -> dict:
    """Sparse coordinates of ``e`` when it is an element of g.  Anything
    else is ArityMismatch; an element of another algebra is AlgebraMismatch."""
    if not isinstance(e, Element):
        raise ArityMismatch(f"{who} expects an element, got {type(e).__name__}")
    if e.algebra is not g:
        raise AlgebraMismatch("element belongs to a different algebra")
    return e.sparse()


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
            occurrences += [_prep_elem(g, next(slot), who) for _ in range(d)]
        elif kind == "map":
            occurrences += [_check_map(next(slot), g.dim, who)] * d
        else:
            occurrences += [_prep_elem(g, next(slot), who)] * d
    b = g.bracket_sparse
    if spec.inner is not None:
        k = len(occurrences) - spec.groups[-1][1] - 1
        occurrences[k:] = [spec.inner(b, *occurrences[k:])]
    return _elem(g, spec.f(b, *occurrences))


# ---------------------------------------------------------------------------
# quantified sweeps

def _classify(q):
    if isinstance(q, Fixed):
        if isinstance(q.payload, Matrix):
            return "fixed-map", q.payload
        if isinstance(q.payload, Element):
            return "fixed-elem", q.payload
        raise ArityMismatch("fixed quantifier payload must be a map or an element")
    if q is ALL_DERIVATIONS:
        return "all-der", None
    if q is ALL_INNER_DERIVATIONS:
        return "all-inner", None
    if q is ALL_ELEMENTS:
        return "all-elem", None
    raise ArityMismatch(f"not a quantifier: {q!r}")


def _sweep(g, spec: _Identity, payload, maps):
    """Lazily yield ``(key, sparse value)`` for the basis tuples of ``spec``
    in lexicographic key order.  A Fixed ``payload`` (a map, or an element's
    sparse vector) fills the argument's group and adds nothing to the key;
    otherwise the argument runs over ``maps`` or the basis.  The orderings
    are summed in ``permutations`` order, and the weight is applied last.
    An entry's inner values are kept for this call only: one list per last
    head occurrence (a map, the payload or a basis vector, all alive for
    the whole call, so keyed by ``id``), indexed by the tuple's position."""
    b, f, inner_f = g.bracket_sparse, spec.f, spec.inner
    cache: dict = {}
    basis = [{i: _ONE} for i in range(g.dim)]
    # per group: (key part, orderings of its occurrences) for every choice
    choices = []
    for kind, d in spec.groups:
        if kind == "alt":
            group = [(t, (tuple(basis[i] for i in t),)) for t in combinations(range(g.dim), d)]
        elif payload is not None and kind in ("map", "z"):
            group = [((), ((payload,) * d,))]
        else:
            pool = maps if kind == "map" else basis
            group = [(t, tuple(permutations([pool[i] for i in t])))
                     for t in combinations_with_replacement(range(len(pool)), d)]
        choices.append(group)
    weight = None if payload is not None or spec.weight == 1 else Scalar.of(spec.weight)
    # the last group is the inner loop; the others are combined once per head
    *outer, inner = choices
    for head in product(*outer):
        head_key = sum([key for key, _ in head], ())
        heads = [sum(parts, ()) for parts in product(*[orders for _, orders in head])]
        for pos, (t, orders) in enumerate(inner):
            out: dict = {}
            for occ in heads:
                for tail in orders:
                    if inner_f is None:
                        _sadd(out, f(b, *occ, *tail))
                        continue
                    row = cache.get(id(occ[-1]))
                    if row is None:
                        row = cache[id(occ[-1])] = [_UNSET] * len(inner)
                    v = row[pos]
                    if v is _UNSET:
                        # a zero inner value is kept as None, not as a dict
                        v = row[pos] = inner_f(b, occ[-1], *tail) or None
                    if v is not None:  # f is linear in v: zero adds nothing
                        _sadd(out, f(b, *occ[:-1], v))
            if weight is not None:
                out = {k: c * weight for k, c in out.items()}
            yield head_key + t, out


def _scan_conditions(values):
    """Verdict data of a sweep over ``(key, sparse value)`` pairs.

    A coordinate whose numerator is a nonzero constant is nonzero for every
    parameter value: the first such pair is returned as ``(key, value, (),
    ())``.  Otherwise the result is ``(None, None, conditions, roots)``: the
    distinct normalized numerators, sorted by degree and then text, and
    their rational root sets (None for a multivariate condition)."""
    conditions = []
    for key, sparse in values:
        for coord in sorted(sparse):
            num = sparse[coord].numerator_poly()
            if num.is_constant():
                return key, sparse, (), ()
            p = poly_normalize(num)
            if all(p != q for q in conditions):
                conditions.append(p)
    conditions.sort(key=lambda p: (p.total_degree(), str(p)))
    roots = [
        rational_roots(p).roots if len(p.variables()) == 1 else None
        for p in conditions
    ]
    return None, None, tuple(conditions), tuple(roots)


class IdentityReport:
    """Outcome of a quantified identity check.

    status is "holds", "fails" or "conditional".  A failure carries the
    lexicographically first witness tuple (map indices first, then basis
    indices in slot order) and the nonzero value.  A conditional outcome
    carries normalized parameter conditions, their rational root sets
    (None for multivariate conditions) and the intersection when every
    condition is univariate in the same variable."""

    __slots__ = (
        "identity", "quantifier", "status", "witness", "value",
        "conditions", "roots", "common_roots", "exceptional",
    )

    def __init__(self, identity, quantifier, status, witness=None, value=None,
                 conditions=(), roots=(), common_roots=None, exceptional=None):
        self.identity = identity
        self.quantifier = quantifier
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
        if self.status == "fails":
            return (
                f"IdentityReport({self.identity}: fails at {self.witness},"
                f" value {self.value})"
            )
        if self.status == "conditional":
            return (
                f"IdentityReport({self.identity}: conditional on "
                f"{[str(p) for p in self.conditions]})"
            )
        return f"IdentityReport({self.identity}: holds)"


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
        payload = _prep_elem(g, payload, f"identity {ident}")
    exceptional = ExceptionalSet()
    maps = None
    if tag == "all-der":
        space = derivation_space(g)
        maps, exceptional = space.basis, space.exceptional
    elif tag == "all-inner":
        space = inner_derivations(g)
        maps, exceptional = space.basis, space.exceptional
    witness, value, conditions, roots = _scan_conditions(
        _sweep(g, spec, payload, maps)
    )
    if witness is not None:
        return IdentityReport(
            ident, quantifier, "fails",
            witness=witness, value=_elem(g, value), exceptional=exceptional,
        )
    if not conditions:
        return IdentityReport(ident, quantifier, "holds", exceptional=exceptional)
    common = None
    varsets = {p.variables() for p in conditions}
    if len(varsets) == 1 and len(next(iter(varsets))) == 1:
        common = frozenset.intersection(*roots)
    return IdentityReport(
        ident, quantifier, "conditional",
        conditions=conditions, roots=roots, common_roots=common,
        exceptional=exceptional,
    )


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
    if g.params:
        raise ValueError("audit requires a parameter-free algebra")


def _imply(facts, name, a, b):
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
    _imply(facts, "chain", "id2_all_der", "id1_all_der")
    _imply(facts, "chain", "id2_all_inner", "id1_all_inner")
    _imply(facts, "chain", "id2_all_der", "id2_all_inner")
    _imply(facts, "chain", "id1_all_der", "id1_all_inner")
    _imply(facts, "chain", "id1_all_inner", "id3_all_elem")
    _imply(facts, "chain", "id3_all_elem", "id4_all_elem")
    return AuditReport("implication-chain", facts)


def metabelian_equivalences(g: LieAlgebra) -> AuditReport:
    """[[g,g],[g,g]] = 0 is equivalent to the polarized vanishing of
    [[z,x],[z,y]] and to identity 2 over all inner derivations."""
    _require_plain(g)
    meta = is_metabelian(g)
    square_zero = not any(value for _, value in _sweep(g, _SQUARE_BRACKET, None, None))
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
    for vec in chain[c - 3].basis:
        if not zc.contains_vector(vec):
            return g.ad(Element(g, vec))
    raise LieDoubleError("lower central term is unexpectedly central")


def id6_from_id3_audit(g: LieAlgebra) -> AuditReport:
    """When identity 3 holds over all elements, identity 6 must as well."""
    _require_plain(g)
    s3 = check_quantified(g, "3", ALL_ELEMENTS).status
    facts = {"id3_all_elem": s3}
    if s3 == "holds":
        s6 = check_quantified(g, "6", ALL_ELEMENTS).status
        facts["id6_all_elem"] = s6
        if s6 != "holds":
            raise LieDoubleError(f"identity 6 audit violated: {facts}")
    else:
        facts["id6_all_elem"] = "skipped"
    return AuditReport("id3-implies-id6", facts)


def cbm_implies_id34_audit(g: LieAlgebra) -> AuditReport:
    """Center-by-metabelian forces identities 3 and 4 over all elements."""
    _require_plain(g)
    from .lie_core import is_center_by_metabelian

    cbm = is_center_by_metabelian(g)
    facts = {"center_by_metabelian": cbm}
    if cbm:
        s3 = check_quantified(g, "3", ALL_ELEMENTS).status
        s4 = check_quantified(g, "4", ALL_ELEMENTS).status
        facts["id3_all_elem"] = s3
        facts["id4_all_elem"] = s4
        if s3 != "holds" or s4 != "holds":
            raise LieDoubleError(f"center-by-metabelian audit violated: {facts}")
    else:
        facts["id3_all_elem"] = facts["id4_all_elem"] = "skipped"
    return AuditReport("cbm-implies-id3-id4", facts)
