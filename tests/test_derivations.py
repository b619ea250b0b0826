"""Derivation spaces, generalized derivations, and related invariants."""

import gc
import weakref
from fractions import Fraction

import pytest

from liedouble import (
    LieAlgebra,
    LinearMap,
    Matrix,
    abelian_algebra,
    derivation_space,
    direct_sum,
    from_matrices,
    generalized_derivation_space,
    get,
    inner_derivations,
    is_characteristically_nilpotent,
    is_derivation,
    is_nilpotent,
    names,
    quaternion_algebra,
    rational_roots,
    Scalar,
)
from liedouble import derivations
from liedouble.errors import AlgebraMismatch, ArityMismatch
from liedouble.lie_core import _leibniz_matrix
from liedouble.linalg import nullspace


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
    der = from_matrices(space.basis)
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


def test_zero_algebra_is_characteristically_nilpotent():
    # its derivation algebra is the zero algebra, which is nilpotent
    assert is_characteristically_nilpotent(LieAlgebra(0, {}, labels=()))


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


def test_empty_leibniz_system_gives_sparse_unit_maps():
    # an abelian algebra has no Leibniz equations: the nullspace is every
    # unit vector, kept sparse, and each map has a single nonzero entry
    space = derivation_space(abelian_algebra(40))
    assert space.dim == 1600
    assert all(len(m.sparse_rows[k // 40]) == 1 and m.sparse_rows[k // 40][k % 40] == 1
               for k, m in enumerate(space.basis))


def test_algebra_with_cached_spaces_is_freed_by_reference_counting():
    # the algebra caches its spaces and a space refers back to it weakly,
    # so no cycle waits for the collector
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = get("glambda").specialize({"lam": Fraction(2)})
        spaces = (derivation_space(g), generalized_derivation_space(g, 2), inner_derivations(g))
        assert all(space.algebra is g for space in spaces)
        assert derivation_space(g) is spaces[0]
        ref = weakref.ref(g)
        del g
        assert ref() is None
        assert all(space.algebra is None for space in spaces)
    finally:
        if enabled:
            gc.enable()


def _unit(n, i, j):
    return [[int((a, b) == (i, j)) for b in range(n)] for a in range(n)]


def _h(n, i):
    """The diagonal matrix E_ii - E_(i+1)(i+1)."""
    return [[int(a == b == i) - int(a == b == i + 1) for b in range(n)] for a in range(n)]


def _sl(n):
    return from_matrices([_unit(n, i, j) for i in range(n) for j in range(n) if i != j]
                         + [_h(n, i) for i in range(n - 1)])


def _sl2_on_the_plane():
    """sl2 acting on Q^2: the 3x3 matrices [[A, v], [0, 0]], A traceless.
    Every basis vector is a bracket, but the Killing form is degenerate and
    Der has dimension 6: the inner maps and the scaling of the plane."""
    return from_matrices([_unit(3, 0, 1), _unit(3, 1, 0), _h(3, 0), _unit(3, 0, 2),
                          _unit(3, 1, 2)])


def _fresh(g):
    """The same table in a new algebra, with nothing cached."""
    return LieAlgebra(g.dim, g._table, labels=g.labels)


# semisimple algebras, whose derivations are read off ad(g), and algebras
# that the Leibniz system must answer
SEMISIMPLE = {
    **{name: lambda name=name: get(name) for name in ("sl2", "sl3", "sp4", "g2")},
    **{f"sl{n}-from-matrices": lambda n=n: _sl(n) for n in range(2, 7)},
    "sl2-rational-basis": lambda: from_matrices([
        [[1, Fraction(1, 2)], [3, -1]], [[0, Fraction(2, 3)], [1, 0]],
        [[Fraction(1, 2), 0], [-1, Fraction(-1, 2)]]]),
    "sl2+sl3": lambda: direct_sum(get("sl2"), get("sl3")),
}
NOT_SEMISIMPLE = {
    **{name: lambda name=name: get(name) for name in names()
       if name not in SEMISIMPLE and name != "filiform" and not get(name).is_parametric()},
    "filiform10": lambda: get("filiform", {"n": 10}),
    "sl2-on-the-plane": _sl2_on_the_plane,
}


def _leibniz_basis(g):
    """The basis of the Leibniz path, rebuilt here as the reference."""
    n = g.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [Matrix.from_flat(v.items(), n)
            for v in nullspace(_leibniz_matrix(n, g._c, pairs))._vectors]


def _stored(maps):
    """Every stored row of every map: keys in order, values and their types."""
    return [[[(k, type(v), v) for k, v in row.items()] for row in m._rows] for m in maps]


@pytest.mark.parametrize("name, build", [*SEMISIMPLE.items(), *NOT_SEMISIMPLE.items()],
                         ids=[*SEMISIMPLE, *NOT_SEMISIMPLE])
def test_derivations_match_the_leibniz_nullspace(name, build, monkeypatch):
    # the semisimple path must return the Leibniz path's basis exactly, and
    # only a full-rank Killing form may take it
    g = _fresh(build())
    expected = _stored(_leibniz_basis(g))
    reached = []

    def leibniz(*args, **kwargs):
        if name in SEMISIMPLE:
            raise AssertionError("a semisimple algebra reached the Leibniz system")
        reached.append(args)
        return _leibniz_matrix(*args, **kwargs)

    monkeypatch.setattr(derivations, "_leibniz_matrix", leibniz)
    space = derivation_space(g)
    assert _stored(space.basis) == expected
    assert space.exceptional.is_empty() and space.kind == "ordinary"
    assert len(reached) == (name not in SEMISIMPLE)
    if name in SEMISIMPLE:
        assert space.dim == g.dim


def test_a_degenerate_killing_form_keeps_the_outer_derivation():
    g = _sl2_on_the_plane()
    assert derivation_space(g).dim == 6 and inner_derivations(g).dim == 5


def _der_is_nilpotent(g):
    """The reference: Der(g) built as a structure-constant Lie algebra from
    the commutators of its basis, and its lower central series; the zero
    space is the zero algebra, which is nilpotent."""
    space = derivation_space(g)
    return space.dim == 0 or is_nilpotent(from_matrices(space.basis))


# every parameter-free catalog entry, the smallest dimensions, filiform and
# glambda at several values
CHARACTERISTIC = {
    **{name: lambda name=name: get(name) for name in names()
       if name != "filiform" and not get(name).is_parametric()},
    "dim0": lambda: LieAlgebra(0, {}, labels=()),
    "dim1": lambda: abelian_algebra(1),
    "abelian2": lambda: abelian_algebra(2),
    **{f"filiform{n}": lambda n=n: get("filiform", {"n": n}) for n in range(3, 13)},
    **{f"glambda{lam}": lambda lam=lam: get("glambda", {"lam": Fraction(lam)})
       for lam in (0, 1, 2, -1, 3)},
}


@pytest.mark.parametrize("build", CHARACTERISTIC.values(), ids=CHARACTERISTIC)
def test_characteristic_nilpotency_matches_the_derivation_algebra(build):
    g = build()
    assert is_characteristically_nilpotent(g) == _der_is_nilpotent(g)


def test_characteristic_nilpotency_builds_no_lie_algebra(monkeypatch):
    # Der(g) acts on g: no structure constants of Der(g), no Jacobi check
    algebras = [get("ex413"), get("filiform", {"n": 8})]
    for g in algebras:
        derivation_space(g)

    def refuse(*args, **kwargs):
        raise AssertionError("a Lie algebra was built")

    monkeypatch.setattr(LieAlgebra, "__init__", refuse)
    assert [is_characteristically_nilpotent(g) for g in algebras] == [True, False]


def test_characteristic_nilpotency_matches_on_random_nilpotent_algebras():
    pytest.importorskip("hypothesis")
    from hypothesis import given
    from test_properties import checks, nilpotent_algebras

    @checks(20)
    @given(nilpotent_algebras())
    def check(g):
        assert is_characteristically_nilpotent(g) == _der_is_nilpotent(g)

    check()
