"""Derivation spaces, computed exactly from the Leibniz constraints.

A linear map D is a derivation when D[x,y] = [Dx,y] + [x,Dy] on all basis
pairs.  More generally, for a rational weight t, the weighted variant asks
t*D[x,y] = [Dx,y] + [x,Dy]; weight 1 recovers the ordinary notion.  The
constraint system is linear in the n^2 matrix entries and is solved by exact
elimination, so parametric structure constants yield parametric derivation
matrices together with the exceptional parameter values of the elimination.
"""

from __future__ import annotations

import weakref

from .lie_core import LieAlgebra, _leibniz_matrix, from_matrices, is_nilpotent
from .linalg import ExceptionalSet, Matrix, _check_map, _eliminate, _sadd, nullspace
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

    Results are cached on the algebra object."""
    weight = Scalar.of(weight)
    key = ("derivations", str(weight))
    hit = g._cache.get(key)
    if hit is not None:
        return hit
    kind = "ordinary" if weight == 1 else "generalized"
    n = g.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ns = nullspace(_leibniz_matrix(n, g._c, pairs, _native(weight)))
    maps = [Matrix.from_flat(vec.items(), n) for vec in ns._vectors]
    out = DerivationSpace(g, maps, ns.exceptional, weight, kind)
    g._cache[key] = out
    return out


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


def derivation_lie_structure(space: DerivationSpace, labels=None) -> LieAlgebra:
    """Lie algebra the derivation basis spans under the commutator."""
    if space.dim == 0:
        return LieAlgebra(0, {}, labels=())
    if labels is None:
        labels = tuple(f"D{t + 1}" for t in range(space.dim))
    return from_matrices(space.basis, labels=labels).algebra


def is_characteristically_nilpotent(g: LieAlgebra) -> bool:
    """True when the derivation algebra is nilpotent as a Lie algebra.

    Only meaningful for parameter-free algebras; parametric input is
    rejected rather than answered generically."""
    if g.is_parametric():
        raise ValueError("requires a parameter-free algebra")
    return is_nilpotent(derivation_lie_structure(derivation_space(g)))
