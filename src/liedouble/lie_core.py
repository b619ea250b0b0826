"""Lie algebras presented by structure constants.

A bracket table stores, for basis indices i < j only, the sparse coordinate
vector of [e_i, e_j]; the skew half is implicit.  Validation checks the
Jacobi identity on strictly increasing triples, which suffices in
characteristic zero by multilinearity and alternation.  All data is exact
(:class:`liedouble.scalars.Scalar`) and immutable after construction, so
algebra objects can be shared and cached freely.

Linear maps on an algebra's coordinate space (derivations, ``ad``
operators, r-matrices) are square :class:`liedouble.linalg.Matrix`
objects; ``LinearMap`` is another name for that class.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    AlgebraMismatch,
    JacobiViolation,
    NotClosed,
    NotIndependent,
    ParseError,
)
from .linalg import ExceptionalSet, Matrix, _eliminate, _sadd, nullspace, rank, solve_columns
from .scalars import Poly, Scalar, parse_scalar_with_names

_ZERO = Scalar.of(0)
_ONE = Scalar.of(1)


# -- sparse coordinate helpers ---------------------------------------------


def _sparse_of(coords) -> dict:
    return {i: Scalar.of(c) for i, c in enumerate(coords) if not Scalar.of(c).is_zero()}


def _dense(v: dict, dim: int) -> tuple:
    return tuple(v.get(i, _ZERO) for i in range(dim))


class Element:
    """Element of a fixed algebra, as a dense coordinate tuple."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = tuple(Scalar.of(c) for c in coords)
        if len(self.coords) != algebra.dim:
            raise ValueError("coordinate count does not match the dimension")

    def sparse(self) -> dict:
        return {i: c for i, c in enumerate(self.coords) if not c.is_zero()}

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Element":
        return Element(self.algebra, [-c for c in self.coords])

    def scale(self, c) -> "Element":
        c = Scalar.of(c)
        return Element(self.algebra, [a * c for a in self.coords])

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("elements live in different algebras")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and all(
            a == b for a, b in zip(self.coords, other.coords)
        )

    __hash__ = None

    def __str__(self) -> str:
        labels = self.algebra.labels
        pieces = []
        for i, c in enumerate(self.coords):
            if c.is_zero():
                continue
            if c.is_rational:
                q = c.as_fraction()
                body = labels[i] if abs(q) == 1 else f"{abs(q)}*{labels[i]}"
                if not pieces:
                    pieces.append(body if q > 0 else "-" + body)
                else:
                    pieces.append((" + " if q > 0 else " - ") + body)
            else:
                body = f"({c})*{labels[i]}"
                pieces.append(body if not pieces else " + " + body)
        return "".join(pieces) if pieces else "0"

    def __repr__(self) -> str:
        return f"Element({self})"


#: Square matrices act as linear maps on coordinate space.
LinearMap = Matrix


class LieAlgebra:
    """Finite-dimensional Lie algebra over the exact scalar field."""

    __slots__ = ("dim", "labels", "params", "table", "_pairs", "_cache")

    def __init__(self, dim, brackets, labels=None, params=(), validate=True):
        self._cache = {}
        self.dim = dim
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(dim))
        self.labels = tuple(labels)
        if len(self.labels) != dim or len(set(self.labels)) != dim:
            raise ValueError("need one distinct label per basis vector")
        self.params = tuple(params)
        if set(self.params) & set(self.labels):
            raise ValueError("parameter names collide with basis labels")

        table: dict = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index out of range: {(i, j)}")
            sign = 1
            if i == j:
                if any(not Scalar.of(c).is_zero() for c in comps.values()):
                    raise ValueError(f"[e{i + 1}, e{i + 1}] must vanish")
                continue
            if i > j:
                i, j, sign = j, i, -1
            entry = table.setdefault((i, j), {})
            for k, c in comps.items():
                if not (0 <= k < dim):
                    raise ValueError(f"bracket component out of range: {k}")
                c = Scalar.of(c) if sign == 1 else -Scalar.of(c)
                s = entry.get(k)
                s = c if s is None else s + c
                if s.is_zero():
                    entry.pop(k, None)
                else:
                    entry[k] = s
        self.table = {pair: comps for pair, comps in table.items() if comps}
        # _pairs[a][b]: (position in the table, i, j, [e_i, e_j]) for each
        # table pair {i, j} = {a, b}; the table is fixed from here on
        self._pairs = [{} for _ in range(dim)]
        for pos, ((i, j), comps) in enumerate(self.table.items()):
            self._pairs[i][j] = self._pairs[j][i] = (pos, i, j, comps)

        if validate:
            self._validate()

    # -- construction helpers -----------------------------------------

    def _validate(self):
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                cij = self.table.get((i, j))
                if not cij:
                    continue
                for k in range(n):
                    if k == i or k == j:
                        continue
                    jac = self._jacobiator(i, j, k)
                    if jac:
                        a, b, c = sorted((i, j, k))
                        raise JacobiViolation(
                            a, b, c, _dense(jac, n), self.labels
                        )

    def _jacobiator(self, i, j, k) -> dict:
        out: dict = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = self._c(a, b)
            if inner:
                _sadd(out, self.bracket_sparse(inner, {c: _ONE}), _ONE)
        return out

    def _c(self, i, j) -> dict:
        """Sparse coordinates of [e_i, e_j] for any index order."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        comps = self.table.get((j, i))
        if not comps:
            return {}
        return {k: -c for k, c in comps.items()}

    # -- basic operations ------------------------------------------------

    def bracket_sparse(self, u: dict, v: dict) -> dict:
        """[u, v] on sparse coordinate dicts.  Only the table pairs with one
        index in each support are visited, in table order, so the sum is
        accumulated in the same order as a scan of the whole table."""
        hits = {}
        for a in u:
            row = self._pairs[a]
            for b in v:
                hit = row.get(b)
                if hit is not None:
                    hits[hit[0]] = hit
        out: dict = {}
        for pos in sorted(hits):
            _, i, j, comps = hits[pos]
            ui = u.get(i)
            vj = v.get(j)
            uj = u.get(j)
            vi = v.get(i)
            coef = None
            if ui is not None and vj is not None:
                coef = ui * vj
            if uj is not None and vi is not None:
                coef = -uj * vi if coef is None else coef - uj * vi
            if not coef.is_zero():
                _sadd(out, comps, coef)
        return out

    def bracket(self, x: Element, y: Element) -> Element:
        if x.algebra is not self or y.algebra is not self:
            raise AlgebraMismatch("elements do not belong to this algebra")
        return Element(self, _dense(self.bracket_sparse(x.sparse(), y.sparse()), self.dim))

    def ad(self, z: Element) -> Matrix:
        """Left bracket operator x -> [z, x]."""
        if z.algebra is not self:
            raise AlgebraMismatch("element does not belong to this algebra")
        zs = z.sparse()
        cols = [self.bracket_sparse(zs, {j: _ONE}) for j in range(self.dim)]
        return Matrix.from_columns(cols, self.dim)

    def element(self, coords) -> Element:
        return Element(self, coords)

    def basis_element(self, i: int) -> Element:
        return Element(self, [_ONE if j == i else _ZERO for j in range(self.dim)])

    def zero_element(self) -> Element:
        return Element(self, [_ZERO] * self.dim)

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def label_index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise KeyError(f"no basis vector labeled {name!r}") from None

    def is_parametric(self) -> bool:
        return any(
            not c.is_rational for comps in self.table.values() for c in comps.values()
        )

    def scalar_variables(self) -> frozenset:
        out = frozenset()
        for comps in self.table.values():
            for c in comps.values():
                out = out | c.variables()
        return out

    # -- rebuilding -------------------------------------------------------

    def specialize(self, assignments: dict) -> "LieAlgebra":
        """Assign rational values to every declared parameter."""
        values = {}
        for name, v in assignments.items():
            if name not in self.params:
                raise ValueError(f"unknown parameter {name!r}")
            values[name] = Scalar.of(Fraction(v)) if not isinstance(v, Scalar) else v
        missing = [p for p in self.params if p not in values]
        if missing:
            raise ValueError(f"unassigned parameters: {missing}")
        brackets = {
            pair: {k: c.substitute(values) for k, c in comps.items()}
            for pair, comps in self.table.items()
        }
        leftover = sorted(
            {
                name
                for comps in brackets.values()
                for c in comps.values()
                for name in c.variables()
            }
        )
        return LieAlgebra(
            self.dim, brackets, labels=self.labels, params=tuple(leftover)
        )

    def bracket_lines(self):
        """Human-readable nonzero brackets in index order."""
        out = []
        for (i, j) in sorted(self.table):
            value = Element(self, _dense(self.table[(i, j)], self.dim))
            out.append(f"[{self.labels[i]},{self.labels[j]}] = {value}")
        return out

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, labels={self.labels}, params={self.params})"


# -- subspaces and series ---------------------------------------------------


class Subspace:
    """Subspace given by an echelonized basis of coordinate vectors."""

    __slots__ = ("algebra", "basis", "exceptional")

    def __init__(self, algebra, basis, exceptional=None):
        self.algebra = algebra
        self.basis = tuple(tuple(Scalar.of(c) for c in v) for v in basis)
        self.exceptional = exceptional or ExceptionalSet()

    @staticmethod
    def span(algebra, vectors, carry=None) -> "Subspace":
        vecs = [v.coords if isinstance(v, Element) else v for v in vectors]
        rows = [r for r in map(_sparse_of, vecs) if r]
        if not rows:
            return Subspace(algebra, (), carry)
        ech = _eliminate(rows, algebra.dim, algebra.dim)
        basis = [_normalize_row(ech.rows[r], pc, algebra.dim) for r, pc in ech.pivots]
        exc = ExceptionalSet(ech.exceptional)
        if carry is not None:
            exc = exc.union(carry)
        return Subspace(algebra, basis, exc)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vector(self, coords) -> bool:
        """Generic membership test via a rank comparison."""
        if not self.basis:
            return all(Scalar.of(c).is_zero() for c in coords)
        stacked = Matrix(list(self.basis) + [list(coords)])
        return rank(stacked).value == self.dim

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(v) for v in other.basis)

    def elements(self):
        return [Element(self.algebra, v) for v in self.basis]

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.algebra.dim})"


def _normalize_row(row, pc, dim):
    """Dense form of a sparse echelon row with pivot column ``pc``, divided
    by its leading entry's rational content with the sign fixed, for
    deterministic bases."""
    lead = Scalar.of(row[pc])
    if lead.is_rational:
        c = lead
    else:
        p = lead.numerator_poly()
        c = Scalar.of(p.content() if p.leading()[1] > 0 else -p.content())
    return tuple(Scalar.of(row[j]) / c if j in row else _ZERO for j in range(dim))


def lower_central_series(g: LieAlgebra):
    """Descending chain of ideals [g, [g, ...]] until zero or stabilization.

    Entry ``i`` (0-based) is the (i+1)-st term of the chain; the full algebra
    itself is not included."""
    vectors = [_dense(comps, g.dim) for comps in g.table.values()]
    current = Subspace.span(g, vectors)
    chain = [current]
    while current.dim:
        nxt_vecs = []
        for i in range(g.dim):
            ei = {i: _ONE}
            for b in current.basis:
                w = g.bracket_sparse(ei, _sparse_of(b))
                if w:
                    nxt_vecs.append(_dense(w, g.dim))
        nxt = Subspace.span(g, nxt_vecs, carry=current.exceptional)
        if nxt.dim == current.dim:
            break
        current = nxt
        chain.append(current)
    return chain


def derived_series(g: LieAlgebra):
    """Descending chain of derived ideals until zero or stabilization."""
    vectors = [_dense(comps, g.dim) for comps in g.table.values()]
    current = Subspace.span(g, vectors)
    chain = [current]
    while current.dim:
        nxt = _derived(g, current)
        if nxt.dim == current.dim:
            break
        current = nxt
        chain.append(current)
    return chain


def _derived(g: LieAlgebra, sub: Subspace) -> Subspace:
    """Span of the pairwise brackets of a subspace's basis."""
    basis = [_sparse_of(b) for b in sub.basis]
    vecs = []
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            w = g.bracket_sparse(basis[a], basis[b])
            if w:
                vecs.append(_dense(w, g.dim))
    return Subspace.span(g, vecs, carry=sub.exceptional)


def nilpotency_class(g: LieAlgebra):
    """Smallest c with the c-th lower central term zero; None otherwise."""
    chain = lower_central_series(g)
    return len(chain) if chain[-1].dim == 0 else None


def solvability_class(g: LieAlgebra):
    """Smallest d with the d-th derived term zero; None otherwise."""
    chain = derived_series(g)
    return len(chain) if chain[-1].dim == 0 else None


def center(g: LieAlgebra) -> Subspace:
    n = g.dim
    rows = []
    for j in range(n):
        cols = [g._c(i, j) for i in range(n)]
        for k in range(n):
            row = {i: c[k] for i, c in enumerate(cols) if k in c}
            if row:
                rows.append(row)
    ns = nullspace(Matrix.sparse(rows, n))
    return Subspace(g, ns.basis, ns.exceptional)


def is_abelian(g: LieAlgebra) -> bool:
    return not g.table


def is_nilpotent(g: LieAlgebra) -> bool:
    return nilpotency_class(g) is not None


def is_solvable(g: LieAlgebra) -> bool:
    return solvability_class(g) is not None


def is_metabelian(g: LieAlgebra) -> bool:
    """Second derived ideal vanishes."""
    sc = solvability_class(g)
    return sc is not None and sc <= 2


def second_derived(g: LieAlgebra) -> Subspace:
    chain = derived_series(g)
    if chain[0].dim == 0:
        return chain[0]
    if len(chain) >= 2:
        return chain[1]
    # derived series stabilized at the first term (perfect derived ideal)
    return _derived(g, chain[0])


def is_center_by_metabelian(g: LieAlgebra) -> bool:
    """Second derived ideal sits inside the center."""
    s = second_derived(g)
    if s.dim == 0:
        return True
    z = center(g)
    return z.contains(s)


# -- building algebras from other data --------------------------------------


class MatrixRealization:
    """Abstract algebra plus the matrices its basis came from."""

    __slots__ = ("algebra", "matrices")

    def __init__(self, algebra, matrices):
        self.algebra = algebra
        self.matrices = matrices


def from_matrices(mats, labels=None) -> MatrixRealization:
    """Lie algebra spanned by given square matrices under the commutator.

    The matrices must be linearly independent and their span closed under
    commutators; otherwise NotIndependent / NotClosed is raised."""
    mats = [m if isinstance(m, Matrix) else Matrix(m) for m in mats]
    if not mats:
        raise ValueError("need at least one matrix")
    size = mats[0].rows
    for m in mats:
        if m.rows != size or m.cols != size:
            raise ValueError("all matrices must be square of equal size")
    k = len(mats)
    flat = [m.vec() for m in mats]
    if rank(Matrix(flat)).value != k:
        raise NotIndependent("the given matrices are linearly dependent")
    basis_cols = Matrix(list(zip(*flat)))  # size^2 x k
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    rhs = [mats[i].commutator(mats[j]).vec() for i, j in pairs]
    sols, _ = solve_columns(basis_cols, rhs)
    brackets = {}
    for (i, j), sol in zip(pairs, sols):
        if sol is None:
            raise NotClosed(i, j)
        comps = {t: c for t, c in enumerate(sol) if not c.is_zero()}
        if comps:
            brackets[(i, j)] = comps
    names = frozenset()
    for comps in brackets.values():
        for c in comps.values():
            names = names | c.variables()
    algebra = LieAlgebra(
        k, brackets, labels=labels, params=tuple(sorted(names))
    )
    return MatrixRealization(algebra, tuple(mats))


class BilinearAlgebra:
    """Not-necessarily-associative product table on a coordinate space.

    ``table[(i, j)]`` holds the sparse coordinates of e_i * e_j for every
    ordered pair; missing pairs multiply to zero."""

    __slots__ = ("dim", "labels", "table")

    def __init__(self, dim, table, labels=None):
        self.dim = dim
        self.labels = tuple(labels) if labels else tuple(f"b{i+1}" for i in range(dim))
        clean = {}
        for (i, j), comps in table.items():
            entry = {k: Scalar.of(c) for k, c in comps.items() if not Scalar.of(c).is_zero()}
            if entry:
                clean[(i, j)] = entry
        self.table = clean

    def product_sparse(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for (i, j), comps in self.table.items():
            ui = u.get(i)
            vj = v.get(j)
            if ui is not None and vj is not None:
                _sadd(out, comps, ui * vj)
        return out


def _leibniz_matrix(n, product, pairs, weight=_ONE) -> Matrix:
    """Sparse Leibniz system weight*D(e_i e_j) = D(e_i) e_j + e_i D(e_j),
    one row per (pair, coordinate a) that is not identically zero.

    ``product(i, j)`` is the sparse coordinate dict of e_i e_j; the unknown
    D[a][b] sits at column a*n + b.  A Lie table is a bilinear table with
    both orders filled, so Lie algebras pass i < j pairs only."""
    c = [[product(i, j) for j in range(n)] for i in range(n)]
    # left[j][a]: the b with coordinate a in e_b e_j; right[i][a]: the b
    # with coordinate a in e_i e_b.  Other (pair, a, b) add nothing.
    left = [{} for _ in range(n)]
    right = [{} for _ in range(n)]
    for b in range(n):
        for j in range(n):
            for a in c[b][j]:
                left[j].setdefault(a, set()).add(b)
                right[b].setdefault(a, set()).add(j)
    none = frozenset()
    rows = []
    for i, j in pairs:
        cij, lj, ri = c[i][j], left[j], right[i]
        # every a has the D[a][k] terms of e_i e_j when that is nonzero
        for a in range(n) if cij else sorted(lj.keys() | ri.keys()):
            row = {}
            for k, coef in cij.items():
                row[a * n + k] = row.get(a * n + k, _ZERO) + coef * weight
            for b in sorted(lj.get(a, none) | ri.get(a, none)):
                c1 = c[b][j].get(a)
                if c1 is not None:
                    row[b * n + i] = row.get(b * n + i, _ZERO) - c1
                c2 = c[i][b].get(a)
                if c2 is not None:
                    row[b * n + j] = row.get(b * n + j, _ZERO) - c2
            row = {col: e for col, e in row.items() if not e.is_zero()}
            if row:
                rows.append(row)
    return Matrix.sparse(rows, n * n)


def derivations_of_bilinear(b: BilinearAlgebra):
    """Basis of the derivation algebra of a bilinear product.

    Solves the Leibniz constraints over all ordered basis pairs; returns a
    list of LinearMaps."""
    n = b.dim
    pairs = [(i, j) for i in range(n) for j in range(n)]
    ns = nullspace(_leibniz_matrix(n, lambda i, j: b.table.get((i, j), {}), pairs))
    return [Matrix.from_flat(enumerate(vec), n) for vec in ns.basis]


def direct_sum(g: LieAlgebra, h: LieAlgebra, label_prefix="e") -> LieAlgebra:
    """Direct sum with fresh labels ``e1..e(n+m)`` and merged parameters."""
    n = g.dim
    brackets = {}
    for (i, j), comps in g.table.items():
        brackets[(i, j)] = dict(comps)
    for (i, j), comps in h.table.items():
        brackets[(i + n, j + n)] = {k + n: c for k, c in comps.items()}
    params = list(g.params) + [p for p in h.params if p not in g.params]
    labels = tuple(f"{label_prefix}{t + 1}" for t in range(n + h.dim))
    return LieAlgebra(n + h.dim, brackets, labels=labels, params=tuple(params))


def abelian_algebra(dim: int, labels=None) -> LieAlgebra:
    return LieAlgebra(dim, {}, labels=labels)


# -- parsing elements --------------------------------------------------------


def parse_element(g: LieAlgebra, text: str, allow_new_names=True) -> Element:
    """Parse ``c1*e1 + c2*e2 + ...`` against the algebra's basis labels.

    Coefficients may be rationals or polynomials in the declared parameters;
    with ``allow_new_names`` further symbolic coefficient names are allowed
    and treated as fresh parameters."""
    allowed = None if allow_new_names else set(g.labels) | set(g.params)
    value, _ = parse_scalar_with_names(text, allowed)
    labelset = set(g.labels)
    if value.is_zero():
        return g.zero_element()
    num = value.numerator_poly()
    den = value.denominator_poly()
    if den.variables() & labelset:
        raise ParseError("basis labels cannot appear in a denominator")
    coords = {}
    for mono, coef in num.terms.items():
        hit = None
        rest = []
        for name, exp in mono:
            if name in labelset:
                if hit is not None or exp != 1:
                    raise ParseError(
                        "expression must be linear in the basis labels"
                    )
                hit = name
            else:
                rest.append((name, exp))
        if hit is None:
            raise ParseError(f"term without a basis label: {Poly({mono: coef})}")
        idx = g.label_index(hit)
        piece = Scalar.of(Poly({tuple(rest): coef}, num.vars))
        coords[idx] = coords.get(idx, _ZERO) + piece
    if not den.is_constant() or den.constant_value() != 1:
        dd = Scalar.of(den)
        coords = {i: c / dd for i, c in coords.items()}
    return Element(g, _dense(coords, g.dim))
