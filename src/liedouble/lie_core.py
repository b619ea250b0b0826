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
    ArityMismatch,
    BadAssignment,
    BadTable,
    JacobiViolation,
    NotClosed,
    NotIndependent,
    ParseError,
    ShapeMismatch,
    UnknownName,
)
from .linalg import (ExceptionalSet, Matrix, NullspaceResult, _check_indices, _eliminate,
                     _nonzero, _sadd, _view, nullspace, rank)
from .scalars import (Poly, Scalar, _addto, _finish, _mac, _native, _rat_str, _signed_content,
                      _terms, parse_scalar_with_names)


class Element:
    """Element of a fixed algebra, stored as its sparse coordinates.

    The constructor takes a dense coordinate sequence or a sparse
    ``{index: value}`` dict.  The stored vector ``_sparse`` holds nonzeros
    only, keys in index order, values in the stored form
    (``scalars._native``); the kernels read it directly.  ``sparse()`` (a
    fresh ``{index: Scalar}`` dict) and ``coords`` (the dense tuple) are
    Scalar views built on access."""

    __slots__ = ("algebra", "_sparse")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        if isinstance(coords, dict):
            if any(not 0 <= i < algebra.dim for i in coords):
                raise ShapeMismatch("coordinate index out of range")
            items = sorted(coords.items())
        else:
            items = list(enumerate(coords))
            if len(items) != algebra.dim:
                raise ShapeMismatch("coordinate count does not match the dimension")
        self._sparse = _nonzero(items)

    @property
    def coords(self) -> tuple:
        return _view(self._sparse, self.algebra.dim)

    def sparse(self) -> dict:
        return _view(self._sparse)

    def is_zero(self) -> bool:
        return not self._sparse

    def _with(self, acc: dict, v: dict, coef) -> "Element":
        """The element ``acc + coef * v``; ``acc`` is consumed."""
        _sadd(acc, v, coef)
        return Element(self.algebra, acc)

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return self._with(dict(self._sparse), other._sparse, 1)

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return self._with(dict(self._sparse), other._sparse, -1)

    def __neg__(self) -> "Element":
        return self._with({}, self._sparse, -1)

    def scale(self, c) -> "Element":
        return self._with({}, self._sparse, _native(c))

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("elements live in different algebras")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self._sparse == other._sparse

    __hash__ = None

    def __str__(self) -> str:
        labels = self.algebra.labels
        pieces = []
        for i, c in self._sparse.items():
            if type(c) is not Scalar:
                body = labels[i] if abs(c) == 1 else f"{_rat_str(abs(c))}*{labels[i]}"
                if not pieces:
                    pieces.append(body if c > 0 else "-" + body)
                else:
                    pieces.append((" + " if c > 0 else " - ") + body)
            else:
                body = f"({c})*{labels[i]}"
                pieces.append(body if not pieces else " + " + body)
        return "".join(pieces) if pieces else "0"

    def __repr__(self) -> str:
        return f"Element({self})"


#: Square matrices act as linear maps on coordinate space.
LinearMap = Matrix


def _bracket_terms(u: dict, v: dict, hits: dict):
    """``LieAlgebra.bracket_sparse`` on term dicts, over ``hits``, its
    table pairs by position: each pair's coefficient ``ui*vj - uj*vi`` is
    one term dict, added into the coordinates by ``scalars._mac``, and each
    coordinate becomes a Scalar once, at the end, with the type, terms and
    variable order of the Scalar path.  None, before anything is returned,
    when a value has no term dict (see ``scalars._terms``)."""
    U, V = {}, {}
    for side, conv in ((u, U), (v, V)):
        for a, c in side.items():
            conv[a] = t = _terms(c)
            if t is None:
                return None
    acc: dict = {}
    for pos in sorted(hits):
        _, i, j, comps = hits[pos]
        ui, vj, uj, vi = U.get(i), V.get(j), U.get(j), V.get(i)
        prods, cv, sc = [], (), False
        if ui is not None and vj is not None:
            prods = [(m1 + m2, c1 * c2) for m1, c1 in ui[0].items() for m2, c2 in vj[0].items()]
            cv, sc = (ui[1], vj[1]), ui[2] or vj[2]
        if uj is not None and vi is not None:
            prods += [(m1 + m2, -c1 * c2) for m1, c1 in uj[0].items() for m2, c2 in vi[0].items()]
            cv += (uj[1], vi[1])
            sc = sc or uj[2] or vi[2]
        coef: dict = {}
        _addto(coef, prods)
        if coef and not _mac(acc, comps, coef, () if len(coef) == 1 and 0 in coef else cv, sc):
            return None
    return _finish(acc)


class LieAlgebra:
    """Finite-dimensional Lie algebra over the exact scalar field.

    ``_table`` maps each pair i < j with a nonzero bracket to the sparse
    coordinates of [e_i, e_j], values in the stored form
    (``scalars._native``); ``table`` is its Scalar view, built on access."""

    __slots__ = ("dim", "labels", "params", "_table", "_pairs", "_cache", "__weakref__")

    def __init__(self, dim, brackets, labels=None, params=(), validate=True):
        self._cache = {}
        self.dim = dim
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(dim))
        self.labels = tuple(labels)
        if len(self.labels) != dim or len(set(self.labels)) != dim:
            raise BadTable("need one distinct label per basis vector")
        self.params = tuple(params)
        if set(self.params) & set(self.labels):
            raise BadTable("parameter names collide with basis labels")

        table: dict = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise BadTable(f"bracket index out of range: {(i, j)}")
            if i == j:
                if any(_native(c) for c in comps.values()):
                    raise BadTable(f"[e{i + 1}, e{i + 1}] must vanish")
                continue
            for k in comps:
                if not (0 <= k < dim):
                    raise BadTable(f"bracket component out of range: {k}")
            entry = table.setdefault((min(i, j), max(i, j)), {})
            _sadd(entry, _nonzero(comps.items()), 1 if i < j else -1)
        # a pair given in both orders is summed: store the sums
        self._table = {pair: _nonzero(comps.items()) for pair, comps in table.items() if comps}
        # _pairs[a][b]: (position in the table, i, j, [e_i, e_j]) for each
        # table pair {i, j} = {a, b}; the table is fixed from here on
        self._pairs = [{} for _ in range(dim)]
        for pos, ((i, j), comps) in enumerate(self._table.items()):
            self._pairs[i][j] = self._pairs[j][i] = (pos, i, j, comps)

        if validate:
            self._validate()

    @property
    def table(self) -> dict:
        return {pair: _view(comps) for pair, comps in self._table.items()}

    # -- construction helpers -----------------------------------------

    def _validate(self):
        """Evaluate the Jacobiator once on every triple that holds a table
        pair, reached from its first such pair in index order; the
        Jacobiator is alternating, so later pairs of the triple would only
        repeat it up to sign."""
        n = self.dim
        reached = set()
        for i, j in sorted(self._table):
            for k in range(n):
                triple = tuple(sorted((i, j, k)))
                if k == i or k == j or triple in reached:
                    continue
                reached.add(triple)
                jac = self._jacobiator(i, j, k)
                if jac:
                    raise JacobiViolation(*triple, _view(jac, n), self.labels)

    def _jacobiator(self, i, j, k) -> dict:
        """Jacobiator of e_i, e_j, e_k, computed on ``_pairs``."""
        out: dict = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            hit = self._pairs[a].get(b)
            if hit is not None:
                _sadd(out, self.bracket_sparse(hit[3], {c: 1}), 1 if a < b else -1)
        return out

    def _c(self, i, j) -> dict:
        """Sparse coordinates of [e_i, e_j] for any index order."""
        if i == j:
            return {}
        if i < j:
            return self._table.get((i, j), {})
        comps = self._table.get((j, i))
        if not comps:
            return {}
        return {k: -c for k, c in comps.items()}

    # -- basic operations ------------------------------------------------

    def bracket_sparse(self, u: dict, v: dict) -> dict:
        """[u, v] on sparse coordinate dicts.  Only the table pairs with one
        index in each support are visited, in table order, so the sum is
        accumulated in the same order as a scan of the whole table.  With
        one entry on each side (a sweep's basis vectors) at most one pair is
        visited: it is looked up, and its coefficient is the general path's.
        Otherwise, when the first value of either side is a Scalar, the sum
        is taken on term dicts (``_bracket_terms``), with the same result;
        values with a denominator fall back to Scalar arithmetic.  An index
        outside ``range(dim)`` is a ShapeMismatch."""
        if not u or not v:
            return {}
        n = self.dim
        if len(u) == 1 and len(v) == 1:
            (a, ua), = u.items()
            (c, vc), = v.items()
            # compared inline: a call to _check_indices costs more here
            if not (0 <= a < n and 0 <= c < n):
                raise ShapeMismatch(f"coordinate index out of range for size {n}")
            out = {}
            hit = self._pairs[a].get(c)
            if hit is not None:
                coef = ua * vc if a == hit[1] else -ua * vc
                if coef:
                    _sadd(out, hit[3], coef)
            return out
        _check_indices(u, n, "coordinate")
        _check_indices(v, n, "coordinate")
        hits = {}
        for a in u:
            row = self._pairs[a]
            for b in v:
                hit = row.get(b)
                if hit is not None:
                    hits[hit[0]] = hit
        if type(next(iter(u.values()))) is Scalar or type(next(iter(v.values()))) is Scalar:
            out = _bracket_terms(u, v, hits)
            if out is not None:
                return out
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
            if coef:
                _sadd(out, comps, coef)
        return out

    def _sparse_of(self, e, who: str) -> dict:
        """Sparse coordinates of ``e`` when it is an element of this algebra.
        Anything else is ArityMismatch; an element of another algebra is
        AlgebraMismatch."""
        if not isinstance(e, Element):
            raise ArityMismatch(f"{who} expects an element, got {type(e).__name__}")
        if e.algebra is not self:
            raise AlgebraMismatch("element belongs to a different algebra")
        return e._sparse

    def bracket(self, x: Element, y: Element) -> Element:
        return Element(self, self.bracket_sparse(self._sparse_of(x, "bracket"),
                                                 self._sparse_of(y, "bracket")))

    def ad(self, z: Element) -> Matrix:
        """Left bracket operator x -> [z, x]."""
        u = self._sparse_of(z, "ad")
        cols = [self.bracket_sparse(u, {j: 1}) for j in range(self.dim)]
        return Matrix.from_columns(cols, self.dim)

    def element(self, coords) -> Element:
        return Element(self, coords)

    def basis_element(self, i: int) -> Element:
        return Element(self, {i: 1})

    def zero_element(self) -> Element:
        return Element(self, {})

    def label_index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise UnknownName(name, "basis vector labeled") from None

    def is_parametric(self) -> bool:
        """True when the algebra declares a parameter or its table carries a
        variable; the parameter-free checks refuse exactly these algebras."""
        return bool(self.params) or any(
            type(c) is Scalar for comps in self._table.values() for c in comps.values()
        )

    # -- rebuilding -------------------------------------------------------

    def specialize(self, assignments: dict) -> "LieAlgebra":
        """Assign a value (an int, a Fraction or a Scalar) to every
        declared parameter."""
        values = {}
        for name, v in assignments.items():
            if name not in self.params:
                raise BadAssignment(f"unknown parameter {name!r}")
            values[name] = _native(v)
        missing = [p for p in self.params if p not in values]
        if missing:
            raise BadAssignment(f"unassigned parameters: {missing}")
        brackets = {
            pair: {k: c.substitute(values) if type(c) is Scalar else c for k, c in comps.items()}
            for pair, comps in self._table.items()
        }
        return LieAlgebra(
            self.dim, brackets, labels=self.labels, params=_table_params(brackets)
        )

    def bracket_lines(self):
        """Human-readable nonzero brackets in index order."""
        out = []
        for (i, j) in sorted(self._table):
            value = Element(self, self._table[(i, j)])
            out.append(f"[{self.labels[i]},{self.labels[j]}] = {value}")
        return out

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, labels={self.labels}, params={self.params})"


# -- subspaces and series ---------------------------------------------------


class Subspace(NullspaceResult):
    """Subspace given by an echelonized basis of sparse coordinate vectors.

    ``_vectors`` holds each basis vector sparse, in the stored form, with
    its nonzeros in index order; ``vectors`` and ``basis`` are its Scalar
    views (see ``NullspaceResult``)."""

    __slots__ = ("algebra",)

    def __init__(self, algebra, vectors, exceptional=None):
        super().__init__(vectors, algebra.dim, exceptional or ExceptionalSet())
        self.algebra = algebra

    @staticmethod
    def span(algebra, vectors, carry=None) -> "Subspace":
        """Echelonized span of sparse ``{index: value}`` vectors; ``carry``
        is added to the exceptional set."""
        rows = []
        for v in vectors:
            _check_indices(v, algebra.dim, "coordinate")
            row = _nonzero(v.items())
            if row:
                rows.append(row)
        ech = _eliminate(rows, algebra.dim, algebra.dim)
        basis = [_normalize_row(ech.rows[r], pc) for r, pc in ech.pivots]
        exc = ExceptionalSet(ech.exceptional)
        if carry is not None:
            exc = exc.union(carry)
        return Subspace(algebra, basis, exc)

    def contains_vector(self, v: dict) -> bool:
        """Generic membership test, via a rank comparison, of a sparse
        ``{index: value}`` vector."""
        stacked = Matrix.sparse([*self._vectors, v], self.algebra.dim)
        return rank(stacked).value == self.dim

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(v) for v in other._vectors)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.algebra.dim})"


def _normalize_row(row, pc):
    """Sparse echelon row with pivot column ``pc``, keys in index order,
    divided by the signed rational content of its leading entry's
    numerator, for deterministic bases."""
    p = row[pc]
    c = _signed_content(p.numerator_poly()) if type(p) is Scalar else Fraction(p)
    return {j: _native(row[j] / c) for j in sorted(row)}  # c is a Fraction


def _series(g: LieAlgebra, key, step):
    """The chain from [g, g] on, each term ``step(g, previous term)``, until
    zero or stabilization.  Built once: its vectors are cached on g under
    ``key``, and callers get fresh Subspaces, which refer back to g."""
    terms = g._cache.get(key)
    if terms is None:
        current = Subspace.span(g, g._table.values())
        chain = [current]
        while current.dim:
            nxt = step(g, current)
            if nxt.dim == current.dim:
                break
            current = nxt
            chain.append(current)
        terms = g._cache[key] = tuple((s._vectors, s.exceptional) for s in chain)
    return [Subspace(g, vectors, exc) for vectors, exc in terms]


def lower_central_series(g: LieAlgebra):
    """Descending chain of ideals [g, [g, ...]] until zero or stabilization.

    Entry ``i`` (0-based) is the (i+1)-st term of the chain; the full algebra
    itself is not included."""
    return _series(g, ("lower central",), lambda g, sub: Subspace.span(
        g, [g.bracket_sparse({i: 1}, b) for i in range(g.dim) for b in sub._vectors],
        carry=sub.exceptional))


def derived_series(g: LieAlgebra):
    """Descending chain of derived ideals until zero or stabilization."""
    return _series(g, ("derived",), _derived)


def _derived(g: LieAlgebra, sub: Subspace) -> Subspace:
    """Span of the pairwise brackets of a subspace's basis."""
    v = sub._vectors
    pairs = [g.bracket_sparse(v[a], v[b]) for a in range(len(v)) for b in range(a + 1, len(v))]
    return Subspace.span(g, pairs, carry=sub.exceptional)


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
        # rows k of the map x -> [x, e_j]: coordinate k of [e_i, e_j] at i
        ad_j = Matrix.from_columns([g._c(i, j) for i in range(n)], n)
        rows += [row for row in ad_j._rows if row]
    ns = nullspace(Matrix.sparse(rows, n))
    return Subspace(g, ns._vectors, ns.exceptional)


def is_abelian(g: LieAlgebra) -> bool:
    return not g._table


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
    if len(chain) >= 2:
        return chain[1]
    # the series stopped at its first term, which is zero or perfect
    return _derived(g, chain[0])


def is_center_by_metabelian(g: LieAlgebra) -> bool:
    """Second derived ideal sits inside the center."""
    s = second_derived(g)
    if s.dim == 0:
        return True
    z = center(g)
    return z.contains(s)


# -- building algebras from other data --------------------------------------


def _table_params(table: dict, names=()) -> tuple:
    """Sorted ``names`` and variables of a bracket table's values (Scalars
    or native numbers): the parameters of an algebra built on the table."""
    found = set(names)
    for comps in table.values():
        found.update(*(c.variables() for c in comps.values() if isinstance(c, Scalar)))
    return tuple(sorted(found))


def _unit_columns(flat):
    """Gauss-Jordan elimination of sparse rows: (units, reduced, transform).
    Row ``i`` of ``reduced``, the combination ``transform[i]`` (sparse
    ``{row: value}``) of the input rows, is one at column ``units[i]``, its
    last nonzero, and zero at every other unit column.  Each row, reduced
    by the rows before it, takes its last nonzero column as its unit.  So
    ``reduced`` is the one basis of the span with these properties, which
    ``nullspace`` returns too, with free columns for units; a nullspace
    basis is its own reduced form.  NotIndependent when some row reduces
    to zero."""
    reduced, transform, units = [], [], []
    for i, row in enumerate(flat):
        row, comb = dict(row), {i: 1}
        for u, prev, t in zip(units, reduced, transform):
            c = row.get(u)
            if c:
                _sadd(row, prev, -c)
                _sadd(comb, t, -c)
        if not row:
            raise NotIndependent("the given matrices are linearly dependent")
        u = max(row)
        p = row[u]
        if p != 1:
            p = Fraction(p) if type(p) is int else p  # no float quotient
            row = {j: v / p for j, v in row.items()}
            comb = {j: v / p for j, v in comb.items()}
        for prev, t in zip(reduced, transform):
            c = prev.get(u)
            if c:
                _sadd(prev, row, -c)
                _sadd(t, comb, -c)
        reduced.append(row)
        transform.append(comb)
        units.append(u)
    return units, reduced, transform


def from_matrices(mats, labels=None) -> LieAlgebra:
    """Lie algebra spanned by given square matrices under the commutator.

    The flattened matrices are eliminated once (``_unit_columns``).  The
    coordinates of a commutator are then read off the unit columns, through
    the transform, and the commutator is compared entry by entry with that
    combination of the matrices.  The matrices must be linearly independent
    and their span closed under commutators; otherwise NotIndependent /
    NotClosed is raised.  The table is not checked for Jacobi: the closure
    check is exact and every bracket is a commutator of matrices, for which
    Jacobi holds by associativity."""
    mats = [m if isinstance(m, Matrix) else Matrix(m) for m in mats]
    if not mats:
        raise ShapeMismatch("need at least one matrix")
    size = mats[0].rows
    for m in mats:
        if m.rows != size or m.cols != size:
            raise ShapeMismatch("all matrices must be square of equal size")
    k = len(mats)
    flat = [m._flat() for m in mats]
    units, _, transform = _unit_columns(flat)
    brackets = {}
    for i in range(k):
        for j in range(i + 1, k):
            c = mats[i]._flat_commutator(mats[j])
            coords = {}
            for u, comb in zip(units, transform):
                cu = c.get(u)
                if cu:
                    _sadd(coords, comb, cu)
            rest = {}
            for t, x in coords.items():
                _sadd(rest, flat[t], x)
            _sadd(rest, c, -1)
            if rest:
                raise NotClosed(i, j)
            brackets[(i, j)] = _nonzero((t, coords[t]) for t in sorted(coords))
    return LieAlgebra(k, brackets, labels=labels, params=_table_params(brackets), validate=False)


class BilinearAlgebra:
    """Not-necessarily-associative product table on a coordinate space.

    ``table[(i, j)]`` holds the sparse coordinates of e_i * e_j, in the
    stored form, for every ordered pair; missing pairs multiply to zero."""

    __slots__ = ("dim", "labels", "table")

    def __init__(self, dim, table, labels=None):
        self.dim = dim
        self.labels = tuple(labels) if labels else tuple(f"b{i+1}" for i in range(dim))
        clean = {pair: _nonzero(comps.items()) for pair, comps in table.items()}
        self.table = {pair: comps for pair, comps in clean.items() if comps}


def _leibniz_matrix(n, product, pairs, weight=1) -> Matrix:
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
                row[a * n + k] = row.get(a * n + k, 0) + coef * weight
            for b in sorted(lj.get(a, none) | ri.get(a, none)):
                c1 = c[b][j].get(a)
                if c1 is not None:
                    row[b * n + i] = row.get(b * n + i, 0) - c1
                c2 = c[i][b].get(a)
                if c2 is not None:
                    row[b * n + j] = row.get(b * n + j, 0) - c2
            if any(row.values()):
                rows.append(row)
    return Matrix.sparse(rows, n * n)


def derivations_of_bilinear(b: BilinearAlgebra):
    """Basis of the derivation algebra of a bilinear product.

    Solves the Leibniz constraints over all ordered basis pairs; returns a
    list of LinearMaps."""
    n = b.dim
    pairs = [(i, j) for i in range(n) for j in range(n)]
    ns = nullspace(_leibniz_matrix(n, lambda i, j: b.table.get((i, j), {}), pairs))
    return [Matrix.from_flat(vec.items(), n) for vec in ns._vectors]


def direct_sum(g: LieAlgebra, h: LieAlgebra) -> LieAlgebra:
    """Direct sum with fresh labels ``e1..e(n+m)`` and merged parameters."""
    n = g.dim
    brackets = {}
    for (i, j), comps in g._table.items():
        brackets[(i, j)] = dict(comps)
    for (i, j), comps in h._table.items():
        brackets[(i + n, j + n)] = {k + n: c for k, c in comps.items()}
    params = list(g.params) + [p for p in h.params if p not in g.params]
    return LieAlgebra(n + h.dim, brackets, params=tuple(params))


def abelian_algebra(dim: int) -> LieAlgebra:
    return LieAlgebra(dim, {})


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
        coords[idx] = coords.get(idx, 0) + piece
    if not den.is_constant() or den.constant_value() != 1:
        dd = Scalar.of(den)
        coords = {i: c / dd for i, c in coords.items()}
    return Element(g, coords)
