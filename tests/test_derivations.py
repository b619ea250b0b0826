"""Derivation spaces, generalized derivations, and related invariants."""

from fractions import Fraction

import pytest

from liedouble import (
    LinearMap,
    Matrix,
    abelian_algebra,
    derivation_lie_structure,
    derivation_space,
    generalized_derivation_space,
    get,
    inner_derivations,
    is_characteristically_nilpotent,
    is_derivation,
    names,
    quaternion_algebra,
    rational_roots,
    Scalar,
)
from liedouble.errors import AlgebraMismatch, ArityMismatch


def test_derivations_of_abelian_algebra_fill_all_maps():
    g = abelian_algebra(4)
    assert derivation_space(g).dim == 16
    assert inner_derivations(g).dim == 0


def test_heisenberg_derivation_dimension():
    g = get("n3")
    space = derivation_space(g)
    assert space.dim == 6
    assert inner_derivations(g).dim == 2
    for d in space.basis:
        ok, witness = is_derivation(g, d)
        assert ok and witness is None


def test_simple_algebra_derivations_are_inner():
    g = get("sl2")
    assert derivation_space(g).dim == 3
    assert inner_derivations(g).dim == 3


def test_inner_derivation_is_always_a_derivation():
    for name in ("r2", "n4", "ex44", "ex413"):
        g = get(name)
        z = g.basis_element(0)
        ok, _ = is_derivation(g, g.ad(z))
        assert ok


def test_non_derivation_yields_witness_pair():
    g = get("n3")
    # swapping e1 and e3 does not respect [e1,e2] = e3
    m = LinearMap([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    ok, witness = is_derivation(g, m)
    assert not ok
    assert witness is not None
    i, j = witness
    assert 0 <= i < j < g.dim


def test_parametric_family_dimension_and_jumps():
    g = get("glambda")
    space = derivation_space(g)
    assert space.dim == 12
    jump_points = set()
    for p in space.exceptional:
        jump_points |= set(rational_roots(p).roots)
    assert Fraction(-1) in jump_points
    assert derivation_space(g.specialize({"lam": Fraction(-1)})).dim == 13
    assert derivation_space(g.specialize({"lam": Fraction(0)})).dim == 12
    assert derivation_space(g.specialize({"lam": Fraction(2)})).dim == 12


def test_generalized_derivation_dimensions_depend_on_parameter():
    g1 = get("glambda", {"lam": Fraction(1)})
    g2 = get("glambda", {"lam": Fraction(2)})
    assert generalized_derivation_space(g1, 3).dim == 12
    assert generalized_derivation_space(g2, 3).dim == 11
    # ordinary derivations sit inside every generalized space at t = 1
    assert generalized_derivation_space(g1, 1).dim == derivation_space(g1).dim


def test_generalized_derivation_defining_equation():
    g = get("glambda", {"lam": Fraction(2)})
    t = Fraction(3)
    space = generalized_derivation_space(g, t)
    for d in space.basis:
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                x, y = g.basis_element(i), g.basis_element(j)
                lhs = g.bracket(x, y).scale(t).algebra.element(
                    d.apply_vec(g.bracket(x, y).scale(t).coords)
                )
                rhs = g.bracket(g.element(d.apply_vec(x.coords)), y) + g.bracket(
                    x, g.element(d.apply_vec(y.coords))
                )
                assert lhs == rhs


def test_derivation_lie_structure_closes_under_commutator():
    g = get("n3")
    space = derivation_space(g)
    der = derivation_lie_structure(space)
    assert der.dim == space.dim
    # spot-check: the structure constants reproduce an actual commutator
    d0, d1 = space.basis[0], space.basis[1]
    comm = d0.compose(d1).entries
    anti = d1.compose(d0).entries
    direct = [
        [a - b for a, b in zip(row_a, row_b)] for row_a, row_b in zip(comm, anti)
    ]
    coords = der.bracket(der.basis_element(0), der.basis_element(1)).coords
    rebuilt = None
    for k, c in enumerate(coords):
        term = [[c * e for e in row] for row in space.basis[k].entries]
        if rebuilt is None:
            rebuilt = term
        else:
            rebuilt = [
                [a + b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(rebuilt, term)
            ]
    assert rebuilt == direct


def test_characteristically_nilpotent_detection():
    assert is_characteristically_nilpotent(get("ex413"))
    assert not is_characteristically_nilpotent(get("n3"))
    assert not is_characteristically_nilpotent(get("filiform", {"n": 6}))


def test_derivation_space_of_parametric_family_has_exceptional_locus():
    space = derivation_space(get("r3lambda"))
    assert space.dim == 4
    assert [str(p) for p in space.exceptional] == ["lam - 1"]
    assert derivation_space(get("r3lambda", {"lam": Fraction(1)})).dim == 6


def test_is_derivation_rejects_a_map_of_the_wrong_size():
    g = get("sl2")
    for bad in (LinearMap.identity(2), Matrix([[1, 0], [0, 1], [0, 0]])):
        with pytest.raises(AlgebraMismatch):
            is_derivation(g, bad)
    with pytest.raises(ArityMismatch):
        is_derivation(g, "not a map")
    assert is_derivation(g, g.ad(g.basis_element(0)))[0]


def _full_scan_leibniz_rows(n, product, pairs, weight):
    """The Leibniz rows built by visiting every (pair, a, b)."""
    c = [[product(i, j) for j in range(n)] for i in range(n)]
    rows = []
    for i, j in pairs:
        for a in range(n):
            row = {}
            for k, coef in c[i][j].items():
                row[a * n + k] = row.get(a * n + k, Scalar.of(0)) + coef * weight
            for b in range(n):
                c1 = c[b][j].get(a)
                if c1 is not None:
                    row[b * n + i] = row.get(b * n + i, Scalar.of(0)) - c1
                c2 = c[i][b].get(a)
                if c2 is not None:
                    row[b * n + j] = row.get(b * n + j, Scalar.of(0)) - c2
            row = {col: e for col, e in row.items() if not e.is_zero()}
            if row:
                rows.append(row)
    return rows


def test_leibniz_rows_match_a_full_scan():
    # the builder visits only the b that carry structure constants; every
    # row, its entries' printed values and its key order stay those of the
    # full scan, on every catalog algebra and at several weights
    from liedouble.lie_core import _leibniz_matrix

    algebras = [abelian_algebra(20)]
    for name in names():
        sizes = range(3, 11) if name == "filiform" else [None]
        algebras += [get(name, {"n": n} if n else None) for n in sizes]
    def shown(rows):
        return [[(k, str(e)) for k, e in r.items()] for r in rows]

    weights = [Scalar.of(1), Scalar.of(2), Scalar.of(0), Scalar.variable("t")]
    for g in algebras:
        n = g.dim
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for w in weights:
            got = _leibniz_matrix(n, g._c, pairs, w).sparse_rows
            assert shown(got) == shown(_full_scan_leibniz_rows(n, g._c, pairs, w)), (g, w)
    # a bilinear table: all ordered pairs
    q = quaternion_algebra()
    pairs = [(i, j) for i in range(4) for j in range(4)]
    prod = lambda i, j: q.table.get((i, j), {})
    got = _leibniz_matrix(4, prod, pairs).sparse_rows
    assert shown(got) == shown(_full_scan_leibniz_rows(4, prod, pairs, Scalar.of(1)))
