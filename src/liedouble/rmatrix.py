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

from .errors import NotADerivation, NotParameterFree, UnknownDoubleKind
from .lie_core import Element, LieAlgebra, _table_params, derived_series
from .derivations import is_derivation
from .identities import Report, _verdict
from .linalg import ExceptionalSet, Matrix, _check_map, _sadd, solve_affine
from .scalars import _ZERO, Scalar


def _r_pair(g: LieAlgebra, u: dict, ru: dict, v: dict, rv: dict) -> dict:
    """[u, v]_R from the images ``ru`` = R u and ``rv`` = R v, which callers
    that meet a vector more than once compute once and never mutate."""
    out = g.bracket_sparse(ru, v)
    _sadd(out, g.bracket_sparse(u, rv))
    return out


def _neg(v: dict) -> dict:
    return {a: -c for a, c in v.items()}


def r_bracket(g: LieAlgebra, r: Matrix, x: Element, y: Element) -> Element:
    """[x,y]_R = [Rx,y] + [x,Ry]."""
    _check_map(r, g.dim, "r_bracket")
    u, v = g._sparse_of(x, "r_bracket"), g._sparse_of(y, "r_bracket")
    return Element(g, _r_pair(g, u, r.apply_sparse(u), v, r.apply_sparse(v)))


def b_r(g: LieAlgebra, r: Matrix, x: Element, y: Element) -> Element:
    """B_R(x,y) = [Rx,Ry] - R([Rx,y] + [x,Ry])."""
    _check_map(r, g.dim, "b_r")
    u, v = g._sparse_of(x, "b_r"), g._sparse_of(y, "b_r")
    return Element(g, _b_r_sparse(g, r, u, r.apply_sparse(u), v, r.apply_sparse(v)))


def _b_r_sparse(g: LieAlgebra, r: Matrix, u: dict, ru: dict, v: dict, rv: dict) -> dict:
    """B_R(u, v) from the images ``ru`` = R u and ``rv`` = R v."""
    out = g.bracket_sparse(ru, rv)
    _sadd(out, r.apply_sparse(_r_pair(g, u, ru, v, rv)), -1)
    return out


def _basis_images(g: LieAlgebra, r: Matrix):
    """The native basis vectors e_k and their images R e_k."""
    basis = [{i: 1} for i in range(g.dim)]
    return basis, [r.apply_sparse(e) for e in basis]


def _r_table(g: LieAlgebra, basis: list, images: list) -> dict:
    """``{(i, j): [e_i, e_j]_R}`` for i < j, sparse, from ``_basis_images``:
    rational values are native numbers."""
    n = g.dim
    return {(i, j): _r_pair(g, basis[i], images[i], basis[j], images[j])
            for i in range(n) for j in range(i + 1, n)}


def _jacobiator_triples(g: LieAlgebra, r: Matrix):
    """Yield (triple, sparse Jacobiator of [,]_R) in lexicographic order;
    zero values are skipped.  R is applied once to each e_k and once to
    each [e_i, e_j]_R; the (i, k) term takes the negated image."""
    _check_map(r, g.dim, "the R-bracket")
    n = g.dim
    basis, images = _basis_images(g, r)
    rb = _r_table(g, basis, images)
    rrb = {pair: r.apply_sparse(v) for pair, v in rb.items()}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                jac: dict = {}
                _sadd(jac, _r_pair(g, rb[i, j], rrb[i, j], basis[k], images[k]))
                _sadd(jac, _r_pair(g, rb[j, k], rrb[j, k], basis[i], images[i]))
                _sadd(jac, _r_pair(g, _neg(rb[i, k]), _neg(rrb[i, k]), basis[j], images[j]))
                if jac:
                    yield (i, j, k), jac


def rmatrix_obstruction(g: LieAlgebra, r: Matrix) -> dict:
    """``{triple: Jacobiator of [,]_R}`` on the strictly increasing basis
    triples where it is nonzero; the deformed product is a Lie bracket
    exactly when the dict is empty."""
    return {t: Element(g, jac) for t, jac in _jacobiator_triples(g, r)}


class RMatrixReport(Report):
    """Verdict for "is [ , ]_R a Lie bracket": holds / fails / conditional."""

    __slots__ = ()


def is_classical_rmatrix(g: LieAlgebra, r: Matrix) -> RMatrixReport:
    """Decide whether [ , ]_R satisfies the Jacobi identity.

    Fails carries the first (lexicographic) basis triple with a nonzero
    constant evaluation; parametric-only failures become conditions."""
    return RMatrixReport(**_verdict(g, _jacobiator_triples(g, r)))


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
    basis, images = _basis_images(g, r)
    rows = []
    rhs = []
    for i in range(n):
        for j in range(i + 1, n):
            br = _b_r_sparse(g, r, basis[i], images[i], basis[j], images[j])
            cij = g._c(i, j)
            for k in sorted(set(br) | set(cij)):
                c = cij.get(k)
                rows.append({} if c is None else {0: c})
                rhs.append(-br.get(k, 0))
    if not rows:
        return MYBESolution("all")
    res = solve_affine(Matrix.sparse(rows, 1), rhs)
    if res.status == "unique":
        return MYBESolution("unique", res.particular[0], res.exceptional)
    # an "affine" solution set leaves lambda free: every scalar solves it
    return MYBESolution("none" if res.status == "none" else "all", exceptional=res.exceptional)


def build_double(g: LieAlgebra, op: Matrix, kind: str = "derivation") -> LieAlgebra:
    """New algebra on the same basis with the deformed bracket.

    kind "derivation": requires op to be a derivation D and uses
    [x,y]_D = D([x,y]).  kind "rbracket": uses [x,y]_R = [Rx,y]+[x,Ry] for
    an arbitrary operator.  Jacobi failure of the new table raises with the
    witness triple."""
    if kind not in ("derivation", "rbracket"):
        raise UnknownDoubleKind(f"unknown double kind {kind!r}")
    _check_map(op, g.dim, "build_double")
    if kind == "derivation":
        ok, pair = is_derivation(g, op)
        if not ok:
            raise NotADerivation(pair)
        table = {
            pair: op.apply_sparse(comps) for pair, comps in g._table.items()
        }
    else:
        table = _r_table(g, *_basis_images(g, op))
    return LieAlgebra(
        g.dim, table, labels=g.labels, params=_table_params(table, g.params)
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
    zs = z._sparse
    pivot = next(iter(zs), None)
    values = []
    for col in sq._column_view:
        # Scalar division: the coordinates may both be native numbers
        mu = _ZERO if pivot is None else Scalar.of(col.get(pivot, 0)) / zs[pivot]
        rest = dict(col)
        _sadd(rest, zs, -mu)
        if rest:
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
    if g.is_parametric():
        raise NotParameterFree("requires a parameter-free algebra")
    if g.dim != 3:
        return False
    chain = derived_series(g)
    derived = chain[0]
    if derived.dim != 2:
        return False
    # g is solvable, so its 2-dim derived algebra is nilpotent, hence abelian
    b1, b2 = derived._vectors
    rows = []
    rhs = []
    for vec in (b1, b2):
        cols = [g.bracket_sparse({i: 1}, vec) for i in range(g.dim)]
        rows += Matrix.from_columns(cols, g.dim)._rows
        rhs += [vec.get(j, 0) for j in range(g.dim)]
    return solve_affine(Matrix.sparse(rows, g.dim), rhs).status != "none"
