"""Derivation spaces, computed exactly from the Leibniz constraints or, for
a semisimple algebra, from ad(g); characteristic nilpotency from Der(g)
acting on g.

A linear map D is a derivation when D[x,y] = [Dx,y] + [x,Dy] on all basis
pairs.  More generally, for a rational weight t, the weighted variant asks
t*D[x,y] = [Dx,y] + [x,Dy]; weight 1 recovers the ordinary notion.  The
constraint system is linear in the n^2 matrix entries and is solved by exact
elimination, so parametric structure constants yield parametric derivation
matrices together with the exceptional parameter values of the elimination.

At weight 1, a parameter-free algebra whose Killing form has full rank is
semisimple (Cartan's criterion), and every derivation of a semisimple
algebra in characteristic 0 is inner (Humphreys, Introduction to Lie
Algebras and Representation Theory, 1972, Thm 5.1 and Thm 5.3).  Its
space is read off the ad(e_i), certified by that rank over the rationals,
in the Leibniz path's basis: one at each free column and zero at the
others, where the free columns, the last nonzero columns of the space's
vectors, depend on the space alone.
"""

from __future__ import annotations

import weakref

from .errors import NotParameterFree
from .lie_core import LieAlgebra, Subspace, _leibniz_matrix, _unit_columns
from .linalg import ExceptionalSet, Matrix, _check_map, _eliminate, _sadd, nullspace, rank
from .scalars import Scalar, _native


class DerivationSpace:
    """Basis of (weighted) derivations of a fixed algebra.

    kind is "ordinary", "generalized" (weight other than 1) or "inner".
    The algebra caches its spaces, so a space refers back to it weakly: a
    strong reference would make a cycle that only the cyclic collector
    frees.  ``algebra`` is None once nothing else holds the algebra."""

    __slots__ = ("_algebra", "basis", "exceptional", "weight", "kind")

    def __init__(self, algebra, basis, exceptional=None, weight=1, kind="ordinary"):
        self._algebra = weakref.ref(algebra)
        self.basis = tuple(basis)
        self.exceptional = exceptional or ExceptionalSet()
        self.weight = Scalar.of(weight)
        self.kind = kind

    @property
    def algebra(self) -> LieAlgebra:
        return self._algebra()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __iter__(self):
        return iter(self.basis)

    def __repr__(self):
        return f"DerivationSpace(dim={self.dim}, kind={self.kind}, weight={self.weight})"


def derivation_space(g: LieAlgebra, weight=1) -> DerivationSpace:
    """All weighted derivations; weight 1 gives the usual derivation algebra.

    The basis is the nullspace basis of the Leibniz system or, for a
    parameter-free semisimple algebra at weight 1, the same basis read off
    the inner derivations (see the module docstring).  Results are cached
    on the algebra object."""
    weight = Scalar.of(weight)
    key = ("derivations", str(weight))
    hit = g._cache.get(key)
    if hit is not None:
        return hit
    kind = "ordinary" if weight == 1 else "generalized"
    maps = _semisimple_derivations(g) if kind == "ordinary" else None
    exceptional = None
    if maps is None:
        n = g.dim
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        ns = nullspace(_leibniz_matrix(n, g._c, pairs, _native(weight)))
        maps = [Matrix.from_flat(vec.items(), n) for vec in ns._vectors]
        exceptional = ns.exceptional
    out = DerivationSpace(g, maps, exceptional, weight, kind)
    g._cache[key] = out
    return out


def _semisimple_derivations(g: LieAlgebra):
    """The ad(e_i) reduced to the Leibniz path's basis when a parameter-free
    g has a Killing form of full rank, else None.  A basis vector that no
    bracket reaches shows [g, g] != g in one scan of the table.  The units
    of ``_unit_columns`` are the last nonzero columns of the span: the free
    columns of that basis."""
    n = g.dim
    if len(set().union(*g._table.values())) < n or g.is_parametric():
        return None
    # c_ib^a at a of [e_i, e_b]; hits[(b, a)] lists the (i, c_ib^a)
    brackets = [(i, b, g._c(i, b)) for i in range(n) for b in g._pairs[i]]
    ad = [{} for _ in range(n)]
    hits = {}
    for i, b, comps in brackets:
        for a, x in comps.items():
            ad[i][a * n + b] = x
            hits.setdefault((b, a), []).append((i, x))
    # Killing form tr(ad e_i ad e_j) = sum over a, b of c_ib^a c_ja^b
    killing = [{} for _ in range(n)]
    for i, b, comps in brackets:
        row = killing[i]
        for a, x in comps.items():
            for j, y in hits.get((a, b), ()):
                row[j] = row.get(j, 0) + x * y
    if rank(Matrix.sparse(killing, n)).value < n:
        return None
    units, reduced, _ = _unit_columns(ad)
    return [Matrix.from_flat(sorted(reduced[r].items()), n)
            for r in sorted(range(n), key=units.__getitem__)]


def generalized_derivation_space(g: LieAlgebra, t) -> DerivationSpace:
    """Maps with t*D[x,y] = [Dx,y] + [x,Dy] on all pairs; t = 1 is ordinary."""
    return derivation_space(g, weight=t)


def inner_derivations(g: LieAlgebra) -> DerivationSpace:
    """Span of the left bracket operators ad(e_i), echelonized."""
    key = ("inner",)
    hit = g._cache.get(key)
    if hit is not None:
        return hit
    n = g.dim
    rows = [g.ad(g.basis_element(i))._flat() for i in range(n)]
    ech = _eliminate(rows, n * n, n * n)
    maps = [Matrix.from_flat(ech.rows[r].items(), n) for r, _ in ech.pivots]
    out = DerivationSpace(g, maps, ExceptionalSet(ech.exceptional), kind="inner")
    g._cache[key] = out
    return out


def is_derivation(g: LieAlgebra, m: Matrix, weight=1):
    """Exact symbolic check; returns (ok, witness_pair_or_None).

    The witness is the first basis pair (i, j), 0-based, where the Leibniz
    rule fails identically."""
    _check_map(m, g.dim, "is_derivation")
    weight = _native(weight)
    cols = m._column_view
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            diff: dict = {}
            _sadd(diff, m.apply_sparse(g._c(i, j)), weight)
            _sadd(diff, g.bracket_sparse(cols[i], {j: 1}), -1)
            _sadd(diff, g.bracket_sparse({i: 1}, cols[j]), -1)
            if diff:
                return False, (i, j)
    return True, None


def is_characteristically_nilpotent(g: LieAlgebra) -> bool:
    """True when the derivation algebra Der(g) is nilpotent.

    Computes the series g, Der(g)g, Der(g)(Der(g)g), ... of Dixmier and
    Lister (Proc. AMS 8, 1957), each term the span of the images of the one
    before under the derivation basis, until it is 0 or stops falling (it
    only falls: D'(Dx) = [D', D]x + D(D'x) lies in Der(g)g).  At 0, every
    product of that many derivations vanishes, so Der(g) is nilpotent
    (Engel); if dim g >= 2 and Der(g) is nilpotent, the series reaches 0
    (Leger and Togo, Duke Math. J. 26, 1959).  For dim g = 1, Der(g) = gl1
    is abelian, so the answer is True although the series stalls at g;
    dimension 0 gives True.  A parametric algebra raises NotParameterFree."""
    if g.is_parametric():
        raise NotParameterFree("requires a parameter-free algebra")
    if g.dim == 1:
        return True
    maps, vectors = derivation_space(g).basis, [{i: 1} for i in range(g.dim)]
    while vectors:
        term = Subspace.span(g, [m.apply_sparse(v) for m in maps for v in vectors])._vectors
        if len(term) == len(vectors):
            return False
        vectors = term
    return True
