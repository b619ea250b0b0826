"""``from_matrices`` against the linear solve it replaces.

``from_matrices`` reads each commutator's coordinates off the unit columns
of one Gauss-Jordan elimination of the flattened basis, and then compares
the commutator with that combination entry by entry.  The reference here is
the solve of every commutator over the flattened basis, as a column system.
"""

import random
from fractions import Fraction

import pytest

from liedouble import (
    Matrix,
    Scalar,
    catalog,
    derivation_space,
    from_matrices,
    get,
    solve_columns,
)
from liedouble.errors import NotClosed


def _unit(n, i, j):
    return Matrix.sparse([{j: 1} if a == i else {} for a in range(n)], n)


def _solved_table(mats):
    """{(i, j): coordinate tuple} of every commutator, i < j, solved over
    the flattened matrices; None for a commutator outside their span."""
    n = mats[0].rows
    flat = [{k: e for k, e in enumerate(m.vec()) if not e.is_zero()} for m in mats]
    pairs = [(i, j) for i in range(len(mats)) for j in range(i + 1, len(mats))]
    rhs = [mats[i].commutator(mats[j]).vec() for i, j in pairs]
    sols, _ = solve_columns(Matrix.from_columns(flat, n * n), rhs)
    return dict(zip(pairs, sols))


def _table_tuples(g):
    zero = Scalar.of(0)
    return {(i, j): tuple(g.table.get((i, j), {}).get(k, zero) for k in range(g.dim))
            for i in range(g.dim) for j in range(i + 1, g.dim)}


def test_a_commutator_that_vanishes_at_every_unit_column_is_not_closed():
    # [E12, E23] = E13 is zero at the unit columns (1 and 5) of E12 and E23,
    # so its coordinates read as zero; only the entry-by-entry check sees it
    e12, e23 = _unit(3, 0, 1), _unit(3, 1, 2)
    assert _solved_table([e12, e23])[(0, 1)] is None
    with pytest.raises(NotClosed) as info:
        from_matrices([e12, e23])
    assert info.value.pair == (0, 1)


def test_a_basis_not_in_reduced_form_gives_the_solved_table():
    # sl2 as {e + h, h, f}: the elimination needs a transform that is not
    # the identity
    e, h, f = Matrix([[0, 1], [0, 0]]), Matrix([[1, 0], [0, -1]]), Matrix([[0, 0], [1, 0]])
    mats = [e + h, h, f]
    g = from_matrices(mats)
    assert _table_tuples(g) == _solved_table(mats)
    # [e + h, f] = h - 2f and [h, f] = -2f
    assert g.table[(0, 2)] == {1: Scalar.of(1), 2: Scalar.of(-2)}
    assert g.table[(1, 2)] == {2: Scalar.of(-2)}


def _gl(n):
    return [_unit(n, i, j) for i in range(n) for j in range(n)]


def _sl(n):
    diag = [_unit(n, i, i) - _unit(n, i + 1, i + 1) for i in range(n - 1)]
    return [_unit(n, i, j) for i in range(n) for j in range(n) if i != j] + diag


def _so(n):
    return [_unit(n, i, j) - _unit(n, j, i) for i in range(n) for j in range(i + 1, n)]


def _upper(n):
    return [_unit(n, i, j) for i in range(n) for j in range(i, n)]


@pytest.mark.parametrize("name, basis", [
    ("gl2", _gl(2)), ("gl3", _gl(3)), ("sl3", _sl(3)), ("so4", _so(4)), ("upper3", _upper(3)),
])
def test_changed_bases_give_the_solved_table(name, basis):
    # random changes of basis with integer and rational entries: each new
    # matrix is a nonzero multiple of one old matrix plus multiples of the
    # old matrices after it, in a shuffled order, so the new basis is
    # independent and, in general, far from reduced form
    rng = random.Random(f"from-matrices-{name}")
    cells = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))
    for _ in range(3):
        order = list(range(len(basis)))
        rng.shuffle(order)
        mats = []
        for pos, t in enumerate(order):
            m = basis[t].scale(rng.choice(cells))
            for later in order[pos + 1:]:
                if rng.random() < 0.4:
                    m = m + basis[later].scale(rng.choice(cells))
            mats.append(m)
        g = from_matrices(mats)
        assert _table_tuples(g) == _solved_table(mats)


def _parametric_families():
    return [name for name in catalog.names() if name != "filiform" and get(name).is_parametric()]


@pytest.mark.parametrize("weight", [1, Fraction(1, 2)], ids=["1", "1/2"])
@pytest.mark.parametrize("name", _parametric_families())
def test_parametric_derivation_algebras_have_the_solved_values(name, weight):
    # the commutators' coordinates read off the unit columns print in
    # lower terms than the solve's, but are the same rational functions;
    # weighted derivations need not close, and then the first pair the
    # solve finds outside the span is refused
    space = derivation_space(get(name), weight)
    solved = _solved_table(list(space.basis))
    outside = [pair for pair, col in solved.items() if col is None]
    if outside:
        with pytest.raises(NotClosed) as info:
            from_matrices(space.basis)
        assert info.value.pair == outside[0]
        return
    h = from_matrices(space.basis)
    for pair, got in _table_tuples(h).items():
        assert all((a - b).is_zero() for a, b in zip(got, solved[pair])), pair


@pytest.mark.parametrize("name", ["gl2", "sl3", "sp4", "g2"])
def test_catalog_matrix_algebras_satisfy_jacobi(name):
    # from_matrices skips the Jacobi check: a closed span of matrices
    # satisfies it by associativity.  _validate raises on any failing triple
    get(name)._validate()


@pytest.mark.parametrize("name", _parametric_families())
def test_parametric_derivation_algebras_satisfy_jacobi(name):
    # Der of each family as a span of matrices; all but r3lambda's have
    # structure constants that carry the parameter
    from_matrices(derivation_space(get(name)).basis)._validate()
