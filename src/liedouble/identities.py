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

A quantified check sweeps basis tuples only.  Slots in which an identity is
multilinear and alternating are swept over strictly increasing index tuples;
slots of higher degree (the repeated z in 3 and 4, the repeated w in 6) are
polarized: the identity is split into one symbol per occurrence and the
symmetrized average over all orderings is required to vanish.  The average
uses weight 1/d! so that a diagonal tuple reproduces the plain evaluation.
Witnesses are reported as the lexicographically first failing tuple.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

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
from .linalg import ExceptionalSet, Matrix, _sadd
from .scalars import Scalar, poly_normalize, rational_roots

_ZERO = Scalar.of(0)
_ONE = Scalar.of(1)


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


# quantifier tags each identity admits
_COMPAT = {
    "1": ("fixed-map", "all-der", "all-inner"),
    "2": ("fixed-map", "all-der", "all-inner"),
    "3": ("fixed-elem", "all-elem"),
    "4": ("fixed-elem", "all-elem"),
    "6": ("all-elem",),
    "s5": ("all-elem",),
}

_SLOT_COUNT = {"1": 4, "2": 4, "3": 4, "4": 3, "6": 4, "s5": 5}


# ---------------------------------------------------------------------------
# sparse evaluation cores

def _scaled(v: dict, s: Scalar) -> dict:
    return {k: c * s for k, c in v.items()}


def _e2(g, d, xs, ys, ws):
    b = g.bracket_sparse
    out = b(d.apply_sparse(xs), b(ys, ws))
    _sadd(out, b(d.apply_sparse(ys), b(ws, xs)))
    _sadd(out, b(d.apply_sparse(ws), b(xs, ys)))
    return out


def _e1(g, outer, inner, xs, ys, ws):
    return outer.apply_sparse(_e2(g, inner, xs, ys, ws))


def _e3(g, z1, z2, xs, ys, ws):
    b = g.bracket_sparse
    out = b(z1, b(b(z2, xs), b(ys, ws)))
    _sadd(out, b(z1, b(b(z2, ys), b(ws, xs))))
    _sadd(out, b(z1, b(b(z2, ws), b(xs, ys))))
    return out


def _e4(g, z1, z2, z3, xs, ys):
    b = g.bracket_sparse
    return b(z1, b(b(z2, xs), b(z3, ys)))


def _e6(g, zs, w1, w2, xs, ys):
    b = g.bracket_sparse
    out = b(zs, b(b(w1, xs), b(w2, ys)))
    _sadd(out, b(w1, b(b(zs, w2), b(xs, ys))), -1)
    return out


def _perm_signs(n):
    out = []
    for perm in permutations(range(n)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        out.append((perm, -1 if inv % 2 else 1))
    return out


_S2 = _perm_signs(2)
_S3 = _perm_signs(3)
_S4 = _perm_signs(4)
_HALF = Scalar.of(Fraction(1, 2))
_SIXTH = Scalar.of(Fraction(1, 6))


def _e_s5(g, x0, x1, x2, x3, x4):
    b = g.bracket_sparse
    slots = (x1, x2, x3, x4)
    out: dict = {}
    for perm, sign in _S4:
        v = x0
        for idx in reversed(perm):
            v = b(slots[idx], v)
        _sadd(out, v, sign)
    return out


def _elem(g, sparse: dict) -> Element:
    return Element(g, [sparse.get(i, _ZERO) for i in range(g.dim)])


# ---------------------------------------------------------------------------
# pointwise evaluation

def _prep_elem(g, e, ident):
    if not isinstance(e, Element):
        raise ArityMismatch(f"identity {ident} expects an element, got {type(e).__name__}")
    if e.algebra is not g:
        raise AlgebraMismatch("element belongs to a different algebra")
    return e.sparse()


def _prep_map(g, m, ident):
    if not isinstance(m, Matrix):
        raise ArityMismatch(f"identity {ident} expects a linear map, got {type(m).__name__}")
    if m.rows != g.dim or m.cols != g.dim:
        raise AlgebraMismatch("map dimension does not match the algebra")
    return m


def eval_identity(g: LieAlgebra, ident, *slots) -> Element:
    """Plain (unpolarized) evaluation at concrete slots.

    Slot orders: 1 and 2 take (D, x, y, w); 3 takes (z, x, y, w); 4 takes
    (z, x, y); 6 takes (z, w, x, y); s5 takes (x0, x1, x2, x3, x4)."""
    ident = canonical_identity(ident)
    if len(slots) != _SLOT_COUNT[ident]:
        raise ArityMismatch(
            f"identity {ident} takes {_SLOT_COUNT[ident]} slots, got {len(slots)}"
        )
    if ident in ("1", "2"):
        d = _prep_map(g, slots[0], ident)
        xs, ys, ws = (_prep_elem(g, e, ident) for e in slots[1:])
        out = _e2(g, d, xs, ys, ws) if ident == "2" else _e1(g, d, d, xs, ys, ws)
    elif ident == "3":
        zs, xs, ys, ws = (_prep_elem(g, e, ident) for e in slots)
        out = _e3(g, zs, zs, xs, ys, ws)
    elif ident == "4":
        zs, xs, ys = (_prep_elem(g, e, ident) for e in slots)
        out = _e4(g, zs, zs, zs, xs, ys)
    elif ident == "6":
        zs, ws, xs, ys = (_prep_elem(g, e, ident) for e in slots)
        out = _e6(g, zs, ws, ws, xs, ys)
    else:
        parts = [_prep_elem(g, e, ident) for e in slots]
        out = _e_s5(g, *parts)
    return _elem(g, out)


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


def _sweep(g, ident, tag, payload, maps):
    n = g.dim
    basis = [{i: _ONE} for i in range(n)]
    if ident in ("1", "2"):
        if tag == "fixed-map":
            d = payload
            for t in combinations(range(n), 3):
                xs, ys, ws = (basis[i] for i in t)
                if ident == "2":
                    yield t, _e2(g, d, xs, ys, ws)
                else:
                    yield t, _e1(g, d, d, xs, ys, ws)
        elif ident == "2":
            for a, d in enumerate(maps):
                for t in combinations(range(n), 3):
                    xs, ys, ws = (basis[i] for i in t)
                    yield (a,) + t, _e2(g, d, xs, ys, ws)
        else:
            m = len(maps)
            for a in range(m):
                for b in range(a, m):
                    for t in combinations(range(n), 3):
                        xs, ys, ws = (basis[i] for i in t)
                        out = _e1(g, maps[a], maps[b], xs, ys, ws)
                        _sadd(out, _e1(g, maps[b], maps[a], xs, ys, ws))
                        yield (a, b) + t, out
    elif ident == "3":
        if tag == "fixed-elem":
            zs = payload.sparse()
            for t in combinations(range(n), 3):
                xs, ys, ws = (basis[i] for i in t)
                yield t, _e3(g, zs, zs, xs, ys, ws)
        else:
            for a, b in combinations_with_replacement(range(n), 2):
                for t in combinations(range(n), 3):
                    xs, ys, ws = (basis[i] for i in t)
                    out = _e3(g, basis[a], basis[b], xs, ys, ws)
                    _sadd(out, _e3(g, basis[b], basis[a], xs, ys, ws))
                    yield (a, b) + t, _scaled(out, _HALF)
    elif ident == "4":
        if tag == "fixed-elem":
            zs = payload.sparse()
            for t in combinations(range(n), 2):
                xs, ys = (basis[i] for i in t)
                yield t, _e4(g, zs, zs, zs, xs, ys)
        else:
            for zt in combinations_with_replacement(range(n), 3):
                for t in combinations(range(n), 2):
                    xs, ys = (basis[i] for i in t)
                    out: dict = {}
                    for perm, _sign in _S3:
                        z1, z2, z3 = (basis[zt[p]] for p in perm)
                        _sadd(out, _e4(g, z1, z2, z3, xs, ys))
                    yield zt + t, _scaled(out, _SIXTH)
    elif ident == "6":
        for zi in range(n):
            for a, b in combinations_with_replacement(range(n), 2):
                for t in combinations(range(n), 2):
                    xs, ys = (basis[i] for i in t)
                    out = _e6(g, basis[zi], basis[a], basis[b], xs, ys)
                    _sadd(out, _e6(g, basis[zi], basis[b], basis[a], xs, ys))
                    yield (zi, a, b) + t, _scaled(out, _HALF)
    else:  # s5
        for x0 in range(n):
            for t in combinations(range(n), 4):
                parts = [basis[i] for i in t]
                yield (x0,) + t, _e_s5(g, basis[x0], *parts)


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
    tag, payload = _classify(quantifier)
    if tag not in _COMPAT[ident]:
        raise IncompatibleQuantifier(
            f"identity {ident} does not admit quantifier {tag}"
        )
    if tag == "fixed-map":
        _prep_map(g, payload, ident)
    elif tag == "fixed-elem":
        _prep_elem(g, payload, ident)
    exceptional = ExceptionalSet()
    maps = None
    if tag == "all-der":
        space = derivation_space(g)
        maps, exceptional = space.basis, space.exceptional
    elif tag == "all-inner":
        space = inner_derivations(g)
        maps, exceptional = space.basis, space.exceptional
    witness, value, conditions, roots = _scan_conditions(
        _sweep(g, ident, tag, payload, maps)
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
    n = g.dim
    basis = [{i: _ONE} for i in range(n)]
    b = g.bracket_sparse
    square_zero = True
    for za, zb in combinations_with_replacement(range(n), 2):
        for i, j in combinations(range(n), 2):
            out = b(b(basis[za], basis[i]), b(basis[zb], basis[j]))
            _sadd(out, b(b(basis[zb], basis[i]), b(basis[za], basis[j])))
            if out:
                square_zero = False
                break
        if not square_zero:
            break
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
