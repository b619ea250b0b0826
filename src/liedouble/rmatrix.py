"""Triangular-operator machinery on a fixed Lie algebra.

For a linear operator R the deformed product [x,y]_R = [Rx,y] + [x,Ry] is
always bilinear and skew; it is a Lie bracket exactly when its Jacobiator
vanishes.  The obstruction B_R(x,y) = [Rx,Ry] - R([Rx,y]+[x,Ry]) controls
this, and the special case B_R + lambda*[,] = 0 is solved here as a linear
system in the single unknown lambda.  When the operator is a derivation D,
the deformed product coincides with D([x,y]) and the double algebra can be
built directly.
"""

from __future__ import annotations

from .errors import NotADerivation
from .lie_core import Element, LieAlgebra, derived_series
from .derivations import is_derivation
from .identities import _prep_elem, _scan_conditions
from .linalg import ExceptionalSet, Matrix, _check_map, _sadd, solve_affine
from .scalars import Scalar

_ZERO = Scalar.of(0)
_ONE = Scalar.of(1)


def _r_bracket_sparse(g: LieAlgebra, r: Matrix, u: dict, v: dict) -> dict:
    out = g.bracket_sparse(r.apply_sparse(u), v)
    _sadd(out, g.bracket_sparse(u, r.apply_sparse(v)))
    return out


def r_bracket(g: LieAlgebra, r: Matrix, x: Element, y: Element) -> Element:
    """[x,y]_R = [Rx,y] + [x,Ry]."""
    _check_map(r, g.dim, "r_bracket")
    out = _r_bracket_sparse(g, r, _prep_elem(g, x, "r_bracket"), _prep_elem(g, y, "r_bracket"))
    return Element(g, [out.get(i, _ZERO) for i in range(g.dim)])


def b_r(g: LieAlgebra, r: Matrix, x: Element, y: Element) -> Element:
    """B_R(x,y) = [Rx,Ry] - R([Rx,y] + [x,Ry])."""
    _check_map(r, g.dim, "b_r")
    out = _b_r_sparse(g, r, _prep_elem(g, x, "b_r"), _prep_elem(g, y, "b_r"))
    return Element(g, [out.get(i, _ZERO) for i in range(g.dim)])


def _b_r_sparse(g: LieAlgebra, r: Matrix, u: dict, v: dict) -> dict:
    out = g.bracket_sparse(r.apply_sparse(u), r.apply_sparse(v))
    _sadd(out, r.apply_sparse(_r_bracket_sparse(g, r, u, v)), -1)
    return out


class RBracketObstruction:
    """Jacobiator of [ , ]_R on strictly increasing basis triples.

    Only nonzero values are stored; the deformed product is a Lie bracket
    exactly when the map is empty."""

    __slots__ = ("algebra", "operator", "entries")

    def __init__(self, algebra, operator, entries):
        self.algebra = algebra
        self.operator = operator
        self.entries = entries

    def is_zero(self) -> bool:
        return not self.entries

    def value(self, i, j, k) -> Element:
        g = self.algebra
        hit = self.entries.get((i, j, k))
        return hit if hit is not None else g.zero_element()

    def witness(self):
        """Lexicographically least nonzero triple, or None."""
        return min(self.entries) if self.entries else None

    def __repr__(self):
        return f"RBracketObstruction(nonzero on {len(self.entries)} triples)"


def _jacobiator_triples(g: LieAlgebra, r: Matrix):
    """Yield (triple, sparse Jacobiator of [,]_R) in lexicographic order;
    zero values are skipped."""
    _check_map(r, g.dim, "the R-bracket")
    n = g.dim
    basis = [{i: _ONE} for i in range(n)]
    rb = [[_r_bracket_sparse(g, r, basis[i], basis[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                jac: dict = {}
                _sadd(jac, _r_bracket_sparse(g, r, rb[i][j], basis[k]))
                _sadd(jac, _r_bracket_sparse(g, r, rb[j][k], basis[i]))
                _sadd(jac, _r_bracket_sparse(g, r, {a: -c for a, c in rb[i][k].items()}, basis[j]))
                if jac:
                    yield (i, j, k), jac


def rmatrix_obstruction(g: LieAlgebra, r: Matrix) -> RBracketObstruction:
    entries = {
        t: Element(g, [jac.get(a, _ZERO) for a in range(g.dim)])
        for t, jac in _jacobiator_triples(g, r)
    }
    return RBracketObstruction(g, r, entries)


class RMatrixReport:
    """Verdict for "is [ , ]_R a Lie bracket": holds / fails / conditional."""

    __slots__ = ("status", "witness", "value", "conditions", "roots")

    def __init__(self, status, witness=None, value=None, conditions=(), roots=()):
        self.status = status
        self.witness = witness
        self.value = value
        self.conditions = tuple(conditions)
        self.roots = tuple(roots)

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def __repr__(self):
        if self.status == "fails":
            return f"RMatrixReport(fails at {self.witness}: {self.value})"
        if self.status == "conditional":
            return f"RMatrixReport(conditional on {[str(p) for p in self.conditions]})"
        return "RMatrixReport(holds)"


def is_classical_rmatrix(g: LieAlgebra, r: Matrix) -> RMatrixReport:
    """Decide whether [ , ]_R satisfies the Jacobi identity.

    Fails carries the first (lexicographic) basis triple with a nonzero
    constant evaluation; parametric-only failures become conditions."""
    key, value, conditions, roots = _scan_conditions(_jacobiator_triples(g, r))
    if key is not None:
        return RMatrixReport(
            "fails", key, Element(g, [value.get(a, _ZERO) for a in range(g.dim)])
        )
    if not conditions:
        return RMatrixReport("holds")
    return RMatrixReport("conditional", conditions=conditions, roots=roots)


class MYBESolution:
    """Classification of B_R(x,y) + lambda*[x,y] = 0 over all basis pairs."""

    __slots__ = ("status", "value", "exceptional")

    def __init__(self, status, value=None, exceptional=None):
        self.status = status  # "none" | "unique" | "all"
        self.value = value
        self.exceptional = exceptional or ExceptionalSet()

    def __repr__(self):
        if self.status == "unique":
            return f"MYBESolution(unique, lambda = {self.value})"
        return f"MYBESolution({self.status})"


def mybe_solve(g: LieAlgebra, r: Matrix) -> MYBESolution:
    _check_map(r, g.dim, "mybe_solve")
    n = g.dim
    basis = [{i: _ONE} for i in range(n)]
    rows = []
    rhs = []
    for i in range(n):
        for j in range(i + 1, n):
            br = _b_r_sparse(g, r, basis[i], basis[j])
            cij = g._c(i, j)
            for k in sorted(set(br) | set(cij)):
                rows.append([cij.get(k, _ZERO)])
                rhs.append(-br.get(k, _ZERO))
    if not rows:
        return MYBESolution("all")
    res = solve_affine(Matrix(rows), rhs)
    if res.status == "none":
        return MYBESolution("none", exceptional=res.exceptional)
    if res.status == "unique":
        return MYBESolution("unique", res.particular[0], res.exceptional)
    return MYBESolution("all", exceptional=res.exceptional)


def build_double(g: LieAlgebra, op: Matrix, kind: str = "derivation") -> LieAlgebra:
    """New algebra on the same basis with the deformed bracket.

    kind "derivation": requires op to be a derivation D and uses
    [x,y]_D = D([x,y]).  kind "rbracket": uses [x,y]_R = [Rx,y]+[x,Ry] for
    an arbitrary operator.  Jacobi failure of the new table raises with the
    witness triple."""
    if kind not in ("derivation", "rbracket"):
        raise ValueError(f"unknown double kind {kind!r}")
    _check_map(op, g.dim, "build_double")
    if kind == "derivation":
        ok, pair = is_derivation(g, op)
        if not ok:
            raise NotADerivation(pair)
        table = {
            pair: op.apply_sparse(comps) for pair, comps in g.table.items()
        }
    else:
        table = {}
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                table[(i, j)] = _r_bracket_sparse(g, op, {i: _ONE}, {j: _ONE})
    names = set(g.params)
    for comps in table.values():
        for c in comps.values():
            names |= c.variables()
    return LieAlgebra(
        g.dim, table, labels=g.labels, params=tuple(sorted(names))
    )


def ad_cube_is_derivation(g: LieAlgebra, z: Element) -> bool:
    m = g.ad(z)
    cube = m.compose(m).compose(m)
    ok, _ = is_derivation(g, cube)
    return ok


def is_sandwich(g: LieAlgebra, z: Element) -> bool:
    """ad(z)^2 = 0."""
    m = g.ad(z)
    return m.compose(m).is_zero()


def extremal_functional(g: LieAlgebra, z: Element):
    """Coordinates of the functional f with [z,[z,x]] = f(x) z, basis-wise;
    None when z is not extremal."""
    m = g.ad(z)
    sq = m.compose(m)
    zc = z.coords
    pivot = None
    for a, c in enumerate(zc):
        if not c.is_zero():
            pivot = a
            break
    values = []
    for col in sq.columns:
        v = [col.get(a, _ZERO) for a in range(g.dim)]
        if pivot is None:
            if any(not e.is_zero() for e in v):
                return None
            values.append(_ZERO)
            continue
        mu = v[pivot] / zc[pivot]
        for a in range(g.dim):
            if v[a] != zc[a] * mu:
                return None
        values.append(mu)
    return tuple(values)


def is_extremal(g: LieAlgebra, z: Element) -> bool:
    """Image of ad(z)^2 lies in the span of z."""
    return extremal_functional(g, z) is not None


def recognize_r31(g: LieAlgebra) -> bool:
    """Recognize the 3-dimensional solvable algebra with 2-dimensional
    abelian derived algebra acted on identically by some ad(x).

    That data pins the algebra up to isomorphism: pick a basis (b1, b2) of
    the derived algebra and extend by the solution x; then [x,b1]=b1,
    [x,b2]=b2 and [b1,b2]=0 is the full table."""
    if g.params:
        raise ValueError("requires a parameter-free algebra")
    if g.dim != 3:
        return False
    chain = derived_series(g)
    derived = chain[0]
    if derived.dim != 2:
        return False
    b1, b2 = derived.basis
    sb = [
        {i: c for i, c in enumerate(vec) if not c.is_zero()} for vec in (b1, b2)
    ]
    if g.bracket_sparse(sb[0], sb[1]):
        return False
    rows = []
    rhs = []
    for vec, sv in zip((b1, b2), sb):
        cols = [g.bracket_sparse({i: _ONE}, sv) for i in range(g.dim)]
        for a in range(g.dim):
            rows.append([cols[i].get(a, _ZERO) for i in range(g.dim)])
            rhs.append(vec[a])
    return solve_affine(Matrix(rows), rhs).status != "none"
