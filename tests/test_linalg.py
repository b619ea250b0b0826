"""Fraction-free exact linear algebra and exceptional-set bookkeeping."""

import hashlib
import random
from fractions import Fraction
from unittest import mock

import pytest

from liedouble import (
    ExceptionalSet,
    LieAlgebra,
    LinearMap,
    Matrix,
    Poly,
    Scalar,
    build_double,
    derivation_space,
    derived_series,
    generalized_derivation_space,
    get,
    inner_derivations,
    lower_central_series,
    nullspace,
    parse_scalar,
    poly_normalize,
    rank,
    solve_affine,
    solve_columns,
)
from liedouble import catalog, linalg
from liedouble.lie_core import Subspace, _leibniz_matrix
from liedouble.linalg import (_eliminate, _int_bareiss, _nonzero, _poly_bareiss, _sadd,
                              _view)
from liedouble.scalars import _native

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # optional test dependency; the property test skips
    given = None


def _col(*values):
    return tuple(Scalar.of(v) for v in values)


def test_rank_of_singular_integer_matrix():
    m = Matrix([[1, 2], [2, 4]])
    assert rank(m).value == 1
    assert rank(Matrix([[1, 2], [3, 4]])).value == 2
    assert rank(Matrix([[0, 0], [0, 0]])).value == 0


def test_nullspace_of_rank_one_matrix():
    result = nullspace(Matrix([[1, 2], [2, 4]]))
    assert result.dim == 1
    (vec,) = result.basis
    # kernel of [[1,2],[2,4]] is spanned by (-2, 1)
    assert vec == (Scalar.of(-2), Scalar.of(1))


def test_nullspace_of_invertible_matrix_is_trivial():
    result = nullspace(Matrix([[2, 1], [1, 1]]))
    assert result.dim == 0
    assert result.basis == ()


def test_solve_columns_exact_rational_solution():
    m = Matrix([[2, 1], [1, 3]])
    solutions, exceptional = solve_columns(m, [_col(1, 0), _col(0, 1)])
    # the two solution columns form the inverse of m (det = 5)
    a, b = solutions
    assert a == (Scalar.of(Fraction(3, 5)), Scalar.of(Fraction(-1, 5)))
    assert b == (Scalar.of(Fraction(-1, 5)), Scalar.of(Fraction(2, 5)))
    assert list(exceptional) == []


def test_elimination_is_exact_on_ill_conditioned_input():
    # Hilbert-like matrix: floating point would lose the exact kernel/rank here.
    n = 6
    m = Matrix(
        [[Scalar.of(Fraction(1, i + j + 1)) for j in range(n)] for i in range(n)]
    )
    assert rank(m).value == n
    assert nullspace(m).dim == 0


def test_parametric_rank_records_exceptional_polynomials():
    t = Scalar.variable("t")
    m = Matrix([[t, Scalar.of(1)], [Scalar.of(1), t]])
    result = rank(m)
    assert result.value == 2
    # generic rank 2 degrades exactly where t^2 - 1 vanishes
    polys = list(result.exceptional)
    assert polys, "expected a nonempty exceptional set"
    assert result.exceptional.vanishes_at({"t": Fraction(1)})
    assert result.exceptional.vanishes_at({"t": Fraction(-1)})
    assert not result.exceptional.vanishes_at({"t": Fraction(2)})


def test_rational_function_rows_record_their_cleared_denominators():
    # a row with a rational-function entry is multiplied through by its
    # denominators before elimination; each one joins the exceptional set
    q = parse_scalar
    m = Matrix([[q("1/(a - b)"), 1], [1, q("a - b")]])
    ns = nullspace(m)
    assert ns.dim == 1
    assert not m.apply_sparse(ns.vectors[0])
    assert poly_normalize(q("a - b").numerator_poly()) in ns.exceptional.polys
    res = solve_affine(Matrix([[q("1/(a - 1)"), 0], [0, 1]]), (1, 2))
    assert res.status == "unique"
    assert res.particular == (q("a - 1"), Scalar.of(2))
    assert [str(p) for p in res.exceptional] == ["a - 1"]


def test_exceptional_set_deduplicates_and_drops_constants():
    t = Scalar.variable("t")
    p = (t - 1).numerator_poly()
    q = (t - 1).numerator_poly()  # identical condition listed twice
    c = Scalar.of(5).numerator_poly()  # nonzero constant carries no condition
    es = ExceptionalSet([p, q, c])
    assert [str(x) for x in es] == ["t - 1"]


def test_exceptional_set_orders_by_degree_then_text():
    t = Scalar.variable("t")
    u = Scalar.variable("u")
    quadratic = (t * t - 1).numerator_poly()
    linear_t = (t - 2).numerator_poly()
    linear_u = (u + 3).numerator_poly()
    es = ExceptionalSet([quadratic, linear_u, linear_t])
    degrees_then_text = [str(x) for x in es]
    assert degrees_then_text == ["t - 2", "u + 3", "t^2 - 1"]


def test_exceptional_set_vanishes_at_any_member():
    t = Scalar.variable("t")
    u = Scalar.variable("u")
    es = ExceptionalSet([(t - 1).numerator_poly(), (u + 1).numerator_poly()])
    assert es.vanishes_at({"t": Fraction(1), "u": Fraction(7)})
    assert es.vanishes_at({"t": Fraction(9), "u": Fraction(-1)})
    assert not es.vanishes_at({"t": Fraction(9), "u": Fraction(7)})


# -- differential tests against a plain Fraction Gauss-Jordan ---------------


def _rref(rows, npivot):
    """Reduced row echelon form over Fraction, pivots in the first
    ``npivot`` columns only; returns (rows, pivot columns)."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(npivot):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def _ref_nullspace(a, pivots, ncols):
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for k, pc in enumerate(pivots):
            vec[pc] = -a[k][f]
        out.append(tuple(Scalar.of(v) for v in vec))
    return tuple(out)


def _ref_solve(rows, rhs, ncols):
    """(solution with free coordinates zero, or None; homogeneous basis)."""
    a, pivots = _rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
    if any(a[k][ncols] for k in range(len(pivots), len(a))):
        return None, ()
    x = [Fraction(0)] * ncols
    for k, pc in enumerate(pivots):
        x[pc] = a[k][ncols]
    return tuple(Scalar.of(v) for v in x), _ref_nullspace(a, pivots, ncols)


def _random_matrix(rng):
    """Sparse rational rows with zero rows and dependent rows mixed in."""
    m, n = rng.randint(1, 9), rng.randint(1, 9)
    values = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]
    rows = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.15:
            rows.append([Fraction(0)] * n)
        elif kind < 0.4 and rows:
            u, v = rng.choice(rows), rng.choice(rows)
            c, d = rng.choice(values), rng.choice(values)
            rows.append([c * x + d * y for x, y in zip(u, v)])
        else:
            rows.append([Fraction(rng.choice(values)) if rng.random() < 0.3
                         else Fraction(0) for _ in range(n)])
    return rows, n


def _as_matrix(rows, n, sparse):
    if not sparse:
        return Matrix(rows)
    return Matrix.sparse(
        [{j: Scalar.of(x) for j, x in enumerate(row) if x} for row in rows], n)


def test_elimination_matches_fraction_gauss_jordan():
    rng = random.Random(20141103)
    for trial in range(300):
        rows, n = _random_matrix(rng)
        m = _as_matrix(rows, n, sparse=trial % 2 == 1)
        a, pivots = _rref(rows, n)
        assert rank(m).value == len(pivots)
        assert nullspace(m).basis == _ref_nullspace(a, pivots, n)

        # right-hand sides: consistent ones (images of m) and random ones
        image = [sum((x * rng.randint(-2, 2) for x in row), Fraction(0)) for row in rows]
        noise = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in rows]
        for rhs in (image, noise):
            particular, basis = _ref_solve(rows, rhs, n)
            result = solve_affine(m, [Scalar.of(b) for b in rhs])
            if particular is None:
                assert result.status == "none" and result.particular is None
            else:
                assert result.status == ("unique" if not basis else "affine")
                assert result.particular == particular
                assert result.basis == basis
            assert result.exceptional.is_empty()
        solutions, exceptional = solve_columns(
            m, [[Scalar.of(b) for b in rhs] for rhs in (image, noise)])
        assert solutions == [_ref_solve(rows, rhs, n)[0] for rhs in (image, noise)]
        assert exceptional.is_empty()


def test_native_values_reach_the_kernels_and_leave_as_scalars():
    # ints and Fractions given to Matrix.sparse and Subspace.span are
    # stored as the other builders store them; a zero Scalar is dropped
    m = Matrix.sparse([{0: 1, 1: 2}], 2)
    assert nullspace(m).basis == (_col(-2, 1),) and rank(m).value == 1
    assert not m.is_parametric()
    assert m.sparse_rows == ({0: Scalar.of(1), 1: Scalar.of(2)},)
    assert all(type(e) is Scalar for e in m.sparse_rows[0].values())
    (row,) = Matrix.sparse([{0: Fraction(2)}], 1).entries
    assert row == (Scalar.of(2),) and type(row[0]) is Scalar
    assert Matrix.sparse([{0: Scalar.of(0)}], 1).is_zero()
    span = Subspace.span(get("sl2"), [{0: 1}])
    assert span.dim == 1 and span.vectors == ({0: Scalar.of(1)},)
    assert type(span.vectors[0][0]) is Scalar


def test_right_hand_sides_of_another_length_are_refused():
    m = Matrix([[1], [2]])
    for rhs in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="right-hand side length"):
            solve_affine(m, rhs)
        with pytest.raises(ValueError, match="right-hand side length"):
            solve_columns(m, [[1, 2], rhs])


def test_sparse_matrix_has_the_dense_view():
    m = Matrix.sparse([{2: Scalar.of(3)}, {}], 3)
    assert (m.rows, m.cols) == (2, 3)
    assert m.entries == Matrix([[0, 0, 3], [0, 0, 0]]).entries
    assert not m.is_parametric()


def _nonzeros(space):
    return [
        {(a + 1, b + 1): str(e) for a, row in enumerate(d.entries)
         for b, e in enumerate(row) if not e.is_zero()}
        for d in space.basis
    ]


def test_inner_derivation_bases_are_pinned():
    # the echelon rows of the ad(e_i) system are handed to users unchanged
    assert _nonzeros(inner_derivations(get("sl3"))) == [
        {(1, 1): "2", (2, 2): "1", (3, 3): "-1", (4, 4): "-2", (5, 5): "-1", (6, 6): "1"},
        {(1, 2): "-2", (5, 4): "2", (6, 7): "-2", (6, 8): "4", (8, 3): "-2"},
        {(1, 6): "-2", (2, 7): "2", (2, 8): "2", (3, 4): "2", (7, 5): "-2", (8, 5): "-2"},
        {(1, 7): "4", (1, 8): "-2", (2, 3): "-2", (6, 5): "2", (7, 4): "-2"},
        {(2, 1): "-4", (3, 7): "4", (3, 8): "-8", (4, 5): "4", (8, 6): "4"},
        {(2, 2): "-6", (3, 3): "-6", (5, 5): "6", (6, 6): "6"},
        {(3, 2): "-6", (4, 7): "-12", (4, 8): "6", (5, 6): "6", (7, 1): "6"},
        {(4, 3): "6", (5, 7): "-6", (5, 8): "-6", (6, 1): "-6", (7, 2): "6", (8, 2): "6"},
    ]
    assert _nonzeros(inner_derivations(get("filiform", {"n": 8}))) == [
        {(3, 1): "-1"},
        {(3, 2): "-1", (4, 3): "-1", (5, 4): "-1", (6, 5): "-1", (7, 6): "-1", (8, 7): "-1"},
        {(4, 1): "1"},
        {(5, 1): "-1"},
        {(6, 1): "1"},
        {(7, 1): "-1"},
        {(8, 1): "1"},
    ]


def test_parametric_exceptional_set_prints_unchanged():
    # the variable order of printed polynomials follows the order of the
    # polynomial elimination's operations
    space = generalized_derivation_space(get("g4ab"), Scalar.variable("t"))
    texts = [str(p) for p in space.exceptional]
    assert space.dim == 4
    assert texts[:4] == [
        "t^2*alpha^2 - t*alpha^2 - t*alpha + alpha",
        "t^3*alpha^2*beta - t^2*alpha^2*beta - t^2*alpha^2 - t^2*alpha*beta"
        " + t*alpha^2 + t*alpha*beta + t*alpha - alpha",
        "t^4*alpha*beta - t^3*alpha*beta - t^3*alpha - t^3*beta + t^2*alpha"
        " + t^2*beta + t^2 - t",
        "t^5*alpha*beta^2 - t^4*alpha*beta^2 - t^4*alpha*beta - t^4*beta^2"
        " + t^3*alpha*beta + t^3*beta^2 + t^3*beta - t^2*beta",
    ]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert (len(texts), digest) == (7, "d193e33eb630138df742a5f76127189d9940ed60d944d4a333a895f1908b8330")


# -- matrix operations against dense Fraction arithmetic ---------------------


def _dense_random(rng, rows, cols, nilpotent=False):
    """Random rational matrix with some zero rows and columns; with
    ``nilpotent``, a strictly triangular one conjugated by a permutation."""
    values = [Fraction(v, d) for v in range(-3, 4) for d in (1, 2, 3)]
    zero_rows = {i for i in range(rows) if rng.random() < 0.2}
    zero_cols = {j for j in range(cols) if rng.random() < 0.2}
    a = [[rng.choice(values) if i not in zero_rows and j not in zero_cols
          and rng.random() < 0.6 else Fraction(0) for j in range(cols)]
         for i in range(rows)]
    if nilpotent:
        perm = list(range(rows))
        rng.shuffle(perm)
        a = [[a[i][j] if i < j else Fraction(0) for j in range(cols)] for i in range(rows)]
        a = [[a[perm[i]][perm[j]] for j in range(cols)] for i in range(rows)]
    return a


def _ref_mul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(len(a))]


def _ref_nilpotent(a):
    p = a
    for _ in range(len(a)):
        if all(x == 0 for row in p for x in row):
            return True
        p = _ref_mul(p, a)
    return all(x == 0 for row in p for x in row)


def _fractions(m):
    assert all(len(row) == m.cols for row in m.entries)
    return [[e.as_fraction() for e in row] for row in m.entries]


def test_matrix_operations_match_dense_fraction_arithmetic():
    assert LinearMap is Matrix
    rng = random.Random(20260101)
    for trial in range(200):
        n = rng.randint(0, 6)
        a = _dense_random(rng, n, n, nilpotent=trial % 3 == 0)
        b = _dense_random(rng, n, n)
        ma, mb = Matrix(a), Matrix(b)
        assert ma.dim == n
        assert _fractions(ma.compose(mb)) == _ref_mul(a, b)
        ab, ba = _ref_mul(a, b), _ref_mul(b, a)
        assert _fractions(ma.commutator(mb)) == [
            [x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]
        assert _fractions(ma + mb) == [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]
        assert _fractions(ma - mb) == [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert _fractions(ma.scale(c)) == [[x * c for x in r] for r in a]
        assert (ma == mb) == (a == b)
        assert ma == Matrix(a) and ma - ma == Matrix.zero(n)
        assert (ma - ma).is_zero() and ma.is_zero() == all(x == 0 for r in a for x in r)
        v = [rng.choice((Fraction(0), Fraction(1), Fraction(-2, 3))) for _ in range(n)]
        assert [e.as_fraction() for e in ma.apply_vec(v)] == [
            sum((a[i][j] * v[j] for j in range(n)), Fraction(0)) for i in range(n)]
        assert ma.is_nilpotent() == _ref_nilpotent(a)
        if trial % 3 == 0:
            assert ma.is_nilpotent()
        cols = [{i: Scalar.of(a[i][j]) for i in range(n) if a[i][j]} for j in range(n)]
        assert Matrix.from_columns(cols, n) == ma
        assert ma.vec() == tuple(Scalar.of(x) for row in a for x in row)

        # rectangular products and sums
        r, k = rng.randint(1, 4), rng.randint(1, 4)
        p, q = _dense_random(rng, r, n), _dense_random(rng, n, k)
        assert _fractions(Matrix(p).compose(Matrix(q))) == _ref_mul(p, q)
        p2 = _dense_random(rng, r, n)
        assert _fractions(Matrix(p) + Matrix(p2)) == [
            [x + y for x, y in zip(s, t)] for s, t in zip(p, p2)]


def test_matrix_builders_refuse_indices_outside_the_shape():
    # zero values too: an index is checked before the value is
    builds = (
        lambda: Matrix.from_columns([{-1: 5}, {}], 2),
        lambda: Matrix.from_columns([{7: 1}], 2),
        lambda: Matrix.from_flat([(-1, 5)], 2),
        lambda: Matrix.from_flat([(4, 5)], 2),
        lambda: Matrix.from_flat([(0, 5)], 0),
        lambda: Matrix.sparse([{3: 1}], 2),
        lambda: Matrix.sparse([{-1: 1}], 2),
        lambda: Matrix.sparse([{2: 0}], 2),
    )
    for build in builds:
        with pytest.raises(ValueError, match="index out of range"):
            build()
    assert Matrix.from_columns([{1: 5}, {}], 2) == Matrix([[0, 0], [5, 0]])
    assert Matrix.from_flat([(3, 5)], 2) == Matrix([[0, 0], [0, 5]])
    assert Matrix.sparse([{1: 1}], 2) == Matrix([[0, 1]])
    # user vectors: Subspace.span checks them, and contains_vector passes
    # them through Matrix.sparse
    g = get("sl2")
    span = Subspace.span(g, [{0: 1}])
    assert span.contains_vector({0: 2}) and not span.contains_vector({2: 1})
    for v in ({3: 1}, {-1: 1}, {5: 0}):
        with pytest.raises(ValueError, match="index out of range"):
            span.contains_vector(v)
        with pytest.raises(ValueError, match="index out of range"):
            Subspace.span(g, [{0: 1}, v])


def test_map_application_refuses_vectors_outside_the_shape():
    m = Matrix.identity(3)
    for coords in ([1, 2], [1, 2, 3, 4], []):
        with pytest.raises(ValueError, match="vector length"):
            m.apply_vec(coords)
    for v in ({5: 1}, {-1: 1}, {3: 0}):
        with pytest.raises(ValueError, match="index out of range"):
            m.apply_sparse(v)
    assert m.apply_vec([1, 2, 3]) == tuple(map(Scalar.of, (1, 2, 3)))
    assert m.apply_sparse({2: 1}) == {2: 1}
    # a non-square map reads vectors of its column count
    wide = Matrix([[1, 2, 3]])
    assert wide.apply_vec([1, 1, 1]) == (Scalar.of(6),)
    with pytest.raises(ValueError, match="vector length"):
        wide.apply_vec([1])


def test_compose_refuses_shapes_that_do_not_chain():
    wide, tall = Matrix([[1, 2, 3]]), Matrix([[1], [1]])
    for left, right in ((wide, tall), (tall, tall), (wide, wide), (Matrix.identity(3), tall)):
        with pytest.raises(ValueError, match="shapes do not chain"):
            left.compose(right)
    # shapes that chain: 1x3 times 3x1, and 2x1 times 1x3
    assert wide.compose(Matrix([[1], [1], [1]])) == Matrix([[6]])
    assert tall.compose(wide) == Matrix([[1, 2, 3], [1, 2, 3]])
    with pytest.raises(ValueError, match="shapes do not chain"):
        wide.commutator(tall)


def test_map_builders_are_sparse():
    assert Matrix.identity(3) == Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert Matrix.diagonal([2, 0, -1]).sparse_rows == ({0: Scalar.of(2)}, {}, {2: Scalar.of(-1)})
    assert Matrix.zero(2).sparse_rows == ({}, {})
    flat = [Scalar.of(x) for x in (0, 1, 0, 0, 0, 2, 3, 0, 0)]
    assert Matrix.from_flat(enumerate(flat), 3) == Matrix([[0, 1, 0], [0, 0, 2], [3, 0, 0]])
    assert Matrix([[1, 2]]) != Matrix([[1], [2]])


def test_sadd_multiplies_every_coefficient_but_one_and_minus_one():
    # only the int 1 and -1 skip the multiplication; a zero coefficient
    # leaves the accumulator alone; native and Scalar values mix, and a
    # result with any Scalar operand is a Scalar
    one, two = Scalar.of(1), Scalar.of(2)
    empty = {}
    _sadd(empty, {0: one}, 2)
    assert empty == {0: 2}
    _sadd(empty, {0: one}, 0)
    assert empty == {0: 2}
    coefs = ((1, 3), (-1, 1), (2, 4), (-2, None), (Fraction(1, 2), Fraction(5, 2)),
             (two, 4), (Scalar.of(-2), None), (0, 2), (Fraction(0), 2), (Scalar.of(0), 2))
    for coef, want in coefs:
        for base, unit in ((2, 1), (Fraction(2), one), (two, 1), (two, one)):
            acc = {0: base}
            _sadd(acc, {0: unit}, coef)
            assert acc == ({} if want is None else {0: want}), (coef, base, unit)
            if acc and coef:
                scalar_in = Scalar in (type(base), type(unit), type(coef))
                assert (type(acc[0]) is Scalar) == scalar_in, (coef, base, unit)


def _dense_poly_bareiss(rows, npivot, last=None):
    """The parametric Bareiss loop on dense Poly rows, before zero cells
    were skipped: every cell update runs the Poly arithmetic.  A ``last``
    list, one entry per row and swapped along with the rows, receives the
    column of the last step that rewrote each row."""
    m, n = len(rows), len(rows[0])
    exceptional, pivots = [], []
    prev = Poly.const(1)
    r = 0
    for c in range(npivot):
        p = next((i for i in range(r, m) if not rows[i][c].is_zero() and rows[i][c].is_constant()), -1)
        if p < 0:
            p = next((i for i in range(r, m) if not rows[i][c].is_zero()), -1)
        if p < 0:
            continue
        rows[p], rows[r] = rows[r], rows[p]
        if last is not None:
            last[p], last[r] = last[r], last[p]
        rowr = rows[r]
        piv = rowr[c]
        trivial = prev.is_constant() and prev.constant_value() == 1
        for i in range(r + 1, m):
            rowi = rows[i]
            f = rowi[c]
            if not f.is_zero():
                for j in range(c + 1, n):
                    upd = piv * rowi[j] - f * rowr[j]
                    rowi[j] = upd if trivial else upd.exact_div(prev)
                rowi[c] = Poly.const(0)
            elif not (trivial and piv.is_constant() and piv.constant_value() == 1):
                for j in range(c + 1, n):
                    upd = piv * rowi[j]
                    rowi[j] = upd if trivial else upd.exact_div(prev)
            else:
                continue
            if last is not None:
                last[i] = c
        prev = piv
        pivots.append((r, c))
        if not piv.is_constant():
            exceptional.append(poly_normalize(piv))
        r += 1
        if r == m:
            break
    return pivots, exceptional


def test_poly_bareiss_skips_zero_cells_without_changing_any_cell():
    # mostly zero cells, zeros carrying variable orders of their own, and
    # entries whose variable orders differ: every cell must print and
    # carry its variables as the dense loop leaves them.  A sparse row
    # stands for a dense one exactly: its absent cells are zeros of the
    # row's zero order, and every other zero is stored.
    entries = [parse_scalar(text).numerator_poly() for text in (
        "t + 1", "s - 2*t", "3", "-1", "t*s", "2*s^2 - t", "t/2 + s", "s + t", "-4", "t^2 - 1")]
    zeros = [Poly({}, v) for v in ((), ("t",), ("s", "t"), ("t", "s"))]
    rng = random.Random(20141021)
    for _ in range(150):
        m, n = rng.randint(2, 7), rng.randint(2, 8)
        density = rng.choice((0.1, 0.2, 0.35))
        rows = [[rng.choice(entries) if rng.random() < density else rng.choice(zeros)
                 for _ in range(n)] for _ in range(m)]
        zero = [rng.choice(zeros).vars for _ in range(m)]
        npivot = rng.randint(1, n)
        got = [{j: p for j, p in enumerate(row) if p._t or p.vars != z}
               for row, z in zip(rows, zero)]
        want, last = [list(row) for row in rows], [-1] * m
        pivots, exceptional = _poly_bareiss(got, zero, npivot)
        ref_pivots, ref_exceptional = _dense_poly_bareiss(want, npivot, last)
        assert pivots == ref_pivots
        assert [(str(p), p.vars) for p in exceptional] == [
            (str(p), p.vars) for p in ref_exceptional]
        for row, z, ref, dead in zip(got, zero, want, last):
            for j, q in enumerate(ref):
                p = row.get(j, Poly({}, z))
                if j <= dead:  # no later step reads it, and it is zero
                    assert p == q and not q._t
                else:
                    assert (str(p), p.vars) == (str(q), q.vars)


def test_lazy_poly_bareiss_matches_the_dense_loop_on_tall_systems():
    # up to 12 rows, so that a row skips many steps before it is read
    # again; entries of 1 make unit steps, and three variables with zeros
    # of differing orders check the variable order each lifted cell and
    # each row's zero rebuild from the skipped pivots
    entries = [parse_scalar(text).numerator_poly() for text in (
        "1", "1", "-1", "2", "t", "u - 1", "s + t", "t*u + 1", "2*s - u", "u + s + t")]
    zeros = [Poly({}, v) for v in ((), ("u",), ("s", "t"), ("u", "t", "s"), ("t", "u"))]
    rng = random.Random(20141024)
    unit_steps = 0
    for _ in range(120):
        m, n = rng.randint(6, 12), rng.randint(3, 9)
        density = rng.choice((0.1, 0.2, 0.3))
        rows = [[rng.choice(entries) if rng.random() < density else rng.choice(zeros)
                 for _ in range(n)] for _ in range(m)]
        zero = [rng.choice(zeros).vars for _ in range(m)]
        npivot = rng.randint(1, n)
        got = [{j: p for j, p in enumerate(row) if p._t or p.vars != z}
               for row, z in zip(rows, zero)]
        want, last = [list(row) for row in rows], [-1] * m
        pivots, exceptional = _poly_bareiss(got, zero, npivot)
        ref_pivots, ref_exceptional = _dense_poly_bareiss(want, npivot, last)
        assert pivots == ref_pivots
        assert [(str(p), p.vars) for p in exceptional] == [
            (str(p), p.vars) for p in ref_exceptional]
        for row, z, ref, dead in zip(got, zero, want, last):
            for j, q in enumerate(ref):
                if j > dead:
                    p = row.get(j, Poly({}, z))
                    assert (str(p), p.vars) == (str(q), q.vars)
        values = ["1"] + [str(want[r][c]) for r, c in pivots]
        unit_steps += sum(a == b == "1" for a, b in zip(values, values[1:]))
    assert unit_steps > 30


def test_parametric_derivation_spaces_divide_once_per_lifted_cell(monkeypatch):
    # the dense chain rescaled every untouched row at every pivot: 1,746
    # and 1,833 exact divisions
    calls = []
    exact_div = Poly.exact_div

    def counted(self, divisor):
        calls.append(divisor)
        return exact_div(self, divisor)

    monkeypatch.setattr(Poly, "exact_div", counted)
    g = get("glambda")
    g = LieAlgebra(g.dim, g.table, labels=g.labels, params=g.params)  # no cached spaces
    for space in (lambda: generalized_derivation_space(g, Scalar.variable("t")),
                  lambda: derivation_space(g)):
        calls.clear()
        space()
        assert len(calls) <= 400


def _dense_eliminate(rows, ncols, npivot):
    """The parametric branch of ``_eliminate`` on dense Poly rows, before
    rows were eliminated sparse: (rows, pivots, exceptional)."""
    exceptional, work = [], []
    for sparse in rows:
        row = _view(sparse, ncols)
        dens = []
        for e in row:
            if e.is_fraction:
                d = e.denominator_poly()
                if d not in dens:
                    dens.append(d)
        new_row = []
        for e in row:
            p = e.numerator_poly()
            for d in dens:
                if not (e.is_fraction and e.denominator_poly() == d):
                    p = p * d
            new_row.append(p)
        work.append(new_row)
        for d in dens:
            exceptional.append(poly_normalize(d))
    pivots, piv_exc = _dense_poly_bareiss(work, npivot)
    exceptional.extend(piv_exc)
    out = [{j: Scalar.of(p) for j, p in enumerate(row) if not p.is_zero()} for row in work]
    return out, pivots, exceptional


def _printed(rows, pivots, exceptional):
    """Text and variable orders of every echelon entry, in row order."""
    def cell(e):
        return str(e), e.numerator_poly().vars, e.denominator_poly().vars
    return ([[(j, *cell(e)) for j, e in row.items()] for row in rows], pivots,
            [(str(p), p.vars) for p in exceptional])


def _same_as_dense(rows, ncols, npivot):
    want = _printed(*_dense_eliminate(rows, ncols, npivot))
    ech = _eliminate([dict(row) for row in rows], ncols, npivot, sparsest=True)
    assert not ech.integral
    assert _printed(ech.rows, ech.pivots, ech.exceptional) == want


def test_sparse_parametric_elimination_matches_the_dense_rows():
    # keys out of column order and several denominators per row: the order
    # in which a row's denominators are cleared fixes how it prints
    values = [_native(parse_scalar(text)) for text in (
        "s", "t + 1", "1/(s - t)", "t^2/(s + 1)", "3/(t + 2)", "(s + t)/(s - t)", "2",
        "-1/2", "s*t/(t - 2)", "1/(s + 1)", "t - s", "5/(s*t + 1)")]
    rng = random.Random(20141022)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        density = rng.choice((0.2, 0.4, 0.7))
        rows = []
        for _ in range(m):
            items = [(j, rng.choice(values)) for j in range(n) if rng.random() < density]
            rng.shuffle(items)
            rows.append(dict(items))
        rows[rng.randrange(m)][rng.randrange(n)] = values[1]  # parametric
        _same_as_dense(rows, n, rng.randint(1, n))


@pytest.mark.parametrize("name", ["glambda", "g4ab", "g5alpha", "r3lambda", "g2alpha"])
def test_sparse_parametric_leibniz_elimination_matches_the_dense_rows(name):
    g = get(name)
    n = g.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for weight in (1, -1, Scalar.variable("t")):
        rows = _leibniz_matrix(n, g._c, pairs, _native(weight))._rows
        _same_as_dense(rows, n * n, n * n)


# -- pivot rules of the integer Bareiss -------------------------------------


def _dense_int_bareiss(rows, npivot):
    """The integer Bareiss loop before the column index: the pivot of a
    column is the first row below the pivots that holds it, and every
    remaining row is scanned for it."""
    m = len(rows)
    level = [1] * m
    pivots = []
    prev = 1
    r = 0

    def lift(i):
        if level[i] != prev:
            rows[i] = {j: v * prev // level[i] for j, v in rows[i].items()}
            level[i] = prev
        return rows[i]

    for c in range(npivot):
        if r == m:
            break
        p = next((i for i in range(r, m) if c in rows[i]), -1)
        if p < 0:
            continue
        if p != r:
            rows[p], rows[r] = rows[r], rows[p]
            level[p], level[r] = level[r], level[p]
        rowr = lift(r)
        piv = rowr[c]
        for i in range(r + 1, m):
            if c not in rows[i]:
                continue
            rowi = lift(i)
            f = rowi[c]
            new = {j: piv * v for j, v in rowi.items() if j != c}
            for j, v in rowr.items():
                if j != c:
                    new[j] = new.get(j, 0) - f * v
            rows[i] = {j: v // prev for j, v in new.items() if v}
            level[i] = piv
        prev = piv
        pivots.append((r, c))
        r += 1
    for i in range(r, m):
        lift(i)
    return pivots


def _first_row_rule(fn, *args):
    """``fn(*args)`` with every integer elimination run by the dense loop."""
    with mock.patch.object(linalg, "_int_bareiss",
                           lambda rows, npivot, sparsest=False: _dense_int_bareiss(rows, npivot)):
        return fn(*args)


def _answers(m, rhs_columns):
    """All that nullspace, rank, solve_affine and solve_columns return."""
    ns = nullspace(m)
    solved = [solve_affine(m, b) for b in rhs_columns]
    columns, exceptional = solve_columns(m, rhs_columns)
    return (
        [[(j, str(e)) for j, e in v.items()] for v in ns.vectors],
        [(s.status, s.particular, s.basis, s.exceptional.polys) for s in solved],
        rank(m).value, columns, exceptional.polys, ns.exceptional.polys,
    )


def test_first_row_rule_keeps_the_rows_of_the_dense_loop():
    # Subspace.span and inner_derivations read the echelon rows themselves
    rng = random.Random(20261018)
    for _ in range(400):
        m, n = rng.randint(1, 9), rng.randint(1, 8)
        density = rng.choice((0.15, 0.3, 0.6))
        rows = [{j: rng.choice((1, -1, 2, -3, 5, 6)) for j in range(n) if rng.random() < density}
                for _ in range(m)]
        if m > 2:
            rows[-1] = dict(rows[0])  # a duplicate row
        npivot = rng.randint(1, n)
        got, want = [dict(row) for row in rows], [dict(row) for row in rows]
        assert _int_bareiss(got, npivot) == _dense_int_bareiss(want, npivot)
        assert got == want


def test_sparsest_row_pivots_match_the_first_row_rule_on_leibniz_systems():
    algebras = [get(name) for name in catalog.names() if name != "filiform"]
    algebras += [get("filiform", {"n": n}) for n in (5, 8, 12)]
    rng = random.Random(14)
    checked = inconsistent = 0
    for g in algebras:
        if g.is_parametric():
            continue
        n = g.dim
        m = _leibniz_matrix(n, g._c, [(i, j) for i in range(n) for j in range(i + 1, n)])
        image = m.apply_vec([Fraction(rng.randint(-2, 2)) for _ in range(m.cols)])
        noise = [Scalar.of(rng.randint(-1, 1)) for _ in range(m.rows)]
        answers = _answers(m, [image, noise])
        assert answers == _first_row_rule(_answers, m, [image, noise])
        assert answers[1][0][0] != "none"
        checked += 1
        inconsistent += answers[1][1][0] == "none"
    assert checked == 19 and inconsistent > 0


def _derivation_double(n):
    """The D-double of filiform(n): the bracket D[x, y], with D the
    combination of Der(g)'s basis whose k-th coefficient is
    ((k mod 5) - 2) / (3 + k mod 4)."""
    g = get("filiform", {"n": n})
    d = LinearMap.zero(n)
    for k, m in enumerate(derivation_space(g).basis):
        d = d + m.scale(Fraction(k % 5 - 2, 3 + k % 4))
    return build_double(g, d)


def _leibniz_system(g):
    n = g.dim
    return _leibniz_matrix(n, g._c, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_sparsest_row_pivots_match_the_first_row_rule_on_derivation_doubles():
    rng = random.Random(29)
    for n in range(7, 13):
        m = _leibniz_system(_derivation_double(n))
        image = m.apply_vec([Fraction(rng.randint(-2, 2)) for _ in range(m.cols)])
        noise = [Scalar.of(rng.randint(-1, 1)) for _ in range(m.rows)]
        answers = _answers(m, [image, noise])
        assert answers == _first_row_rule(_answers, m, [image, noise])
        assert answers[1][0][0] != "none"


@pytest.mark.parametrize("n, bits, dim", [(12, 64, 25), (16, 128, 31)])
def test_row_space_elimination_keeps_entries_small_on_derivation_doubles(n, bits, dim):
    # the Bareiss chain reached 694 bits at n = 12 and 1,388 at n = 16
    h = _derivation_double(n)
    m = _leibniz_system(h)
    ech = _eliminate(m._rows, m.cols, m.cols, sparsest=True)
    assert max(abs(v).bit_length() for row in ech.rows for v in row.values()) <= bits
    assert derivation_space(h).dim == dim


# -- the one-pass integral back-substitution ------------------------------


def _per_column_back_substitute(ech, source):
    """The integral back-substitution before the one reverse pass: one walk
    over the pivot rows per free column (set to one) or right-hand side."""
    free_col, rhs_col = (source, None) if source < ech.npivot else (None, source)
    x = {} if free_col is None else {free_col: 1}
    for r, pc in reversed(ech.pivots):
        row = ech.rows[r]
        total = row.get(rhs_col, 0)
        for j, a in row.items():
            v = x.get(j)
            if v is not None:
                total -= a * v
        if total:
            x[pc] = Fraction(total, row[pc])
    return {j: _native(x[j]) for j in sorted(x)}


def _stored(vectors):
    """Coordinates, stored types and values of sparse vectors, in order."""
    return [[(j, type(v).__name__, v) for j, v in x.items()] for x in vectors]


def _per_column_answers(m, rhs_columns):
    """nullspace vectors, solve_affine results and solve_columns solutions,
    each right-hand side and free column back-substituted on its own."""
    ech = _eliminate(m._rows, m.cols, m.cols, sparsest=True)
    free = [c for c in range(m.cols) if c not in {pc for _, pc in ech.pivots}]
    vectors = [_per_column_back_substitute(ech, f) for f in free]
    affine = []
    for col in rhs_columns:
        rows = linalg._augment(m, [_nonzero(enumerate(col))])
        ech = _eliminate(rows, m.cols + 1, m.cols, sparsest=True)
        if linalg._residuals(ech, m.cols):
            affine.append(("none", None, ()))
            continue
        free = linalg._free_columns(ech)
        basis = tuple(_view(_per_column_back_substitute(ech, f), m.cols) for f in free)
        particular = _view(_per_column_back_substitute(ech, m.cols), m.cols)
        affine.append(("affine" if free else "unique", particular, basis))
    return _stored(vectors), affine, [a[1] for a in affine]


def _one_pass_answers(m, rhs_columns):
    solved = [solve_affine(m, col) for col in rhs_columns]
    return (_stored(nullspace(m)._vectors),
            [(s.status, s.particular, s.basis) for s in solved],
            solve_columns(m, rhs_columns)[0])


def _sparse_system(rng):
    """Sparse integer or rational rows with zero, duplicate and combined
    rows mixed in; right-hand sides: the image of an integer vector, a
    random column and, when some row depends on others, the image moved
    off the column space at that row."""
    m, n = rng.randint(1, 12), rng.randint(1, 12)
    values = ((1, -1, 2, -3, 5, 6) if rng.random() < 0.5
              else (1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)))
    density = rng.choice((0.15, 0.3, 0.6))
    rows, dependent = [], []
    for i in range(m):
        kind = rng.random()
        if rows and kind < 0.3:
            u, v = rng.choice(rows), rng.choice(rows)
            c, d = (1, 0) if kind < 0.1 else (rng.choice(values), rng.choice(values))
            rows.append({j: c * u.get(j, 0) + d * v.get(j, 0) for j in u.keys() | v.keys()})
            dependent.append(i)
        elif kind < 0.4:
            rows.append({})
            dependent.append(i)
        else:
            rows.append({j: rng.choice(values) for j in range(n) if rng.random() < density})
    x = [rng.randint(-2, 2) for _ in range(n)]
    image = [sum((a * x[j] for j, a in row.items()), 0) for row in rows]
    rhs = [image, [rng.choice((0, 0) + values) for _ in rows]]
    if dependent:
        i = rng.choice(dependent)
        rhs.append([b + (k == i) for k, b in enumerate(image)])
    m = Matrix.sparse(rows, n)
    return m, [[Scalar.of(b) for b in col] for col in rhs]


def test_one_pass_back_substitution_matches_the_per_column_loop():
    rng = random.Random(28)
    inconsistent = 0
    for _ in range(250):
        m, rhs = _sparse_system(rng)
        want = _per_column_answers(m, rhs)
        assert _one_pass_answers(m, rhs) == want
        inconsistent += sum(a[0] == "none" for a in want[1])
        # every source of one echelon at once, right-hand sides and free
        # columns interleaved
        aug = linalg._augment(m, [_nonzero(enumerate(col)) for col in rhs])
        ech = _eliminate(aug, m.cols + len(rhs), m.cols, sparsest=True)
        sources = linalg._free_columns(ech) + [
            c for c in range(m.cols, m.cols + len(rhs)) if not linalg._residuals(ech, c)]
        rng.shuffle(sources)
        assert _stored(linalg._back_substitute(ech, sources)) == _stored(
            [_per_column_back_substitute(ech, s) for s in sources])
    assert inconsistent > 50


def test_one_pass_back_substitution_matches_the_per_column_loop_on_leibniz_systems():
    algebras = [get(name) for name in catalog.names() if name != "filiform"]
    algebras += [get("filiform", {"n": n}) for n in (5, 8, 12)]
    rng = random.Random(2828)
    checked = vectors = 0
    for g in algebras:
        if g.is_parametric():
            continue
        n = g.dim
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for weight in (1, Fraction(1, 2)):
            m = _leibniz_matrix(n, g._c, pairs, weight)
            image = m.apply_vec([Fraction(rng.randint(-2, 2)) for _ in range(m.cols)])
            noise = [Scalar.of(rng.randint(-1, 1)) for _ in range(m.rows)]
            want = _per_column_answers(m, [image, noise])
            assert _one_pass_answers(m, [image, noise]) == want
            assert want[1][0][0] != "none"
            checked += 1
            vectors += len(want[0])
    assert checked == 38 and vectors == 266


# -- the one pass on Scalar rows keeps the sums of a walk per source -------


def _per_source_scalar_back_substitute(ech, source):
    """The Scalar back-substitution before the one reverse pass: one walk
    over the pivot rows per free column (set to one) or right-hand side,
    each row summed over the coordinates solved so far, in the order they
    were found."""
    npivot = ech.npivot
    x = {source: 1} if source < npivot else {}
    for r, pc in reversed(ech.pivots):
        row = ech.rows[r]
        total = 0 if source < npivot else row.get(source, 0)
        for j, v in x.items():
            a = row.get(j)
            if a is not None:
                total = total - a * v
        total = total / row[pc]
        if total:
            x[pc] = total
    return {j: _native(x[j]) for j in sorted(x)}


def _printed_values(vectors):
    """Each coordinate's stored type, text and, for a Scalar, the variable
    orders of its numerator and denominator, which decide how it prints
    inside larger sums."""
    def cell(v):
        if type(v) is not Scalar:
            return type(v).__name__, str(v)
        return "Scalar", str(v), v.numerator_poly().vars, v.denominator_poly().vars
    return [[(j, *cell(v)) for j, v in x.items()] for x in vectors]


def _check_one_pass_against_walks(m, rhs_columns, rng):
    """Eliminate ``m`` with the right-hand sides appended, and compare the
    one pass with a walk per source over the free columns and consistent
    right-hand sides, shuffled into one list; returns the number of values
    compared."""
    aug = linalg._augment(m, [_nonzero(enumerate(col)) for col in rhs_columns])
    ech = _eliminate(aug, m.cols + len(rhs_columns), m.cols, sparsest=True)
    assert not ech.integral
    sources = linalg._free_columns(ech) + [
        c for c in range(m.cols, m.cols + len(rhs_columns)) if not linalg._residuals(ech, c)]
    rng.shuffle(sources)
    got = _printed_values(linalg._back_substitute(ech, sources))
    assert got == _printed_values([_per_source_scalar_back_substitute(ech, s) for s in sources])
    return sum(map(len, got))


_CELLS = ("t", "u", "-u", "2*t", "1/(t + 2)", "t*u - 3", "(t - 1)/(u + 1)", "u/(t*u + 1)",
          "t^2 - u", "3", "-1/2")


def _two_variable_system(rng):
    """Sparse rows of cells in t and u, fractions among them, and at times
    a combination of two of them; right-hand sides: the image of an
    integer vector and a random column."""
    m, n = rng.randint(1, 4), rng.randint(1, 5)
    rows = [{}]
    while not any(v.variables() for row in rows for v in row.values()):
        rows = [{j: parse_scalar(rng.choice(_CELLS)) for j in range(n) if rng.random() < 0.5}
                for _ in range(m)]
    if rng.random() < 0.3:
        u, v = rng.choice(rows), rng.choice(rows)
        rows.append({j: u.get(j, 0) - parse_scalar("t") * v.get(j, 0) for j in u.keys() | v.keys()})
    m = Matrix.sparse(rows, n)
    x = [rng.randint(-2, 2) for _ in range(n)]
    image = m.apply_vec([Fraction(b) for b in x])
    noise = [parse_scalar(rng.choice(("0",) + _CELLS)) for _ in range(m.rows)]
    return m, [image, noise]


def test_one_pass_keeps_the_printed_sums_of_a_walk_per_source():
    rng = random.Random(30)
    compared = 0
    weights = [("glambda", "t"), ("glambda", "t^2 + 1"),
               ("g4ab", "1"), ("g4ab", "1/2"), ("g4ab", "t")]
    for name, weight in weights:
        g = get(name)
        n = g.dim
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = _leibniz_matrix(n, g._c, pairs, _native(parse_scalar(weight)))
        # the image of a vector with three nonzeros: a consistent right-hand
        # side whose elimination stays small
        x = [0] * m.cols
        for j in rng.sample(range(m.cols), 3):
            x[j] = Fraction(rng.choice((-2, -1, 1, 2)))
        compared += _check_one_pass_against_walks(m, [m.apply_vec(x)], rng)
    for _ in range(200):
        m, rhs = _two_variable_system(rng)
        compared += _check_one_pass_against_walks(m, rhs, rng)
    assert compared > 900


def _echelon_text(vectors):
    return "\n".join(" ".join(f"{j}:{e}" for j, e in v.items()) for v in vectors)


@pytest.mark.parametrize("name, assignments, digests", [
    ("g2", None, ("256c289ec152cb05259deb8c17f78f25d67ebff216bfb84c7a610b6bcb8a27b0",
                  "9af4035b9960559c2636d093247a6eee32f563ce2e3358003398aba16507817c")),
    ("sp4", None, ("02a5fe30a71c83ff9e0bd5ac37c145d60851cedccee71c2a0f4980d937b164c4",
                   "2c50755166df73513f52f58d44232915f4714561dd39a83cfd31a2b0cef4854c")),
    ("filiform", {"n": 8}, ("fc53793e72120ae69aa80a69f80c63e53b69a0a36d94646927b374ed588f75ec",
                            "9d3be6205d3964d08bd18bcde4c2327013a7ed36b776782c4ef5f6691888c262")),
])
def test_span_and_inner_derivations_keep_their_echelon_rows(name, assignments, digests):
    # both hand the pivot rows themselves to users, so they keep the
    # first-row pivot rule; the digests pin the rows of the dense loop
    g = get(name, assignments)
    n = g.dim
    u = {k: Scalar.of(k + 1) for k in range(n)}
    w = {k: Scalar.of((-1) ** k * (k % 3 + 1)) for k in range(n)}
    vectors = [g.bracket_sparse(x, {i: 1}) for x in (u, w) for i in range(n)]
    spans = [Subspace.span(g, vectors), *lower_central_series(g), *derived_series(g)]
    span_text = "\n--\n".join(_echelon_text(s.vectors) for s in spans)
    inner = [{k: e for k, e in enumerate(e for row in d.entries for e in row) if not e.is_zero()}
             for d in inner_derivations(g).basis]
    assert (hashlib.sha256(span_text.encode()).hexdigest(),
            hashlib.sha256(_echelon_text(inner).encode()).hexdigest()) == digests


if given is None:
    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_sparsest_row_pivots_match_the_first_row_rule():
        pass
else:
    @st.composite
    def _systems(draw):
        """Integer or rational rows with zero rows, duplicates and scaled
        copies mixed in; right-hand sides: the image of an integer vector, a
        random column and, when some row depends on earlier ones, one that
        is inconsistent on it."""
        ncols = draw(st.integers(1, 7))
        cell = (st.integers(-3, 3) if draw(st.booleans())
                else st.fractions(-3, 3, max_denominator=4))
        rows, dependent = [], []
        for i in range(draw(st.integers(1, 9))):
            kind = draw(st.sampled_from(
                ("fresh", "fresh", "fresh", "zero", "duplicate", "scaled")))
            if kind == "fresh" or (kind != "zero" and not rows):
                rows.append([draw(cell) if draw(st.booleans()) else 0 for _ in range(ncols)])
                continue
            if kind == "zero":
                rows.append([0] * ncols)
            else:
                k = 1 if kind == "duplicate" else draw(
                    st.sampled_from((2, -1, -3, Fraction(1, 2))))
                rows.append([k * x for x in draw(st.sampled_from(rows))])
            dependent.append(i)
        x = [draw(st.integers(-2, 2)) for _ in range(ncols)]
        image = [sum((a * b for a, b in zip(row, x)), 0) for row in rows]
        rhs = [image, [draw(cell) for _ in rows]]
        if dependent:
            i = draw(st.sampled_from(dependent))
            rhs.append([b + (i == k) for k, b in enumerate(image)])
        return rows, rhs

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_systems())
    def test_sparsest_row_pivots_match_the_first_row_rule(system):
        rows, rhs = system
        m = Matrix(rows)
        rhs = [[Scalar.of(b) for b in col] for col in rhs]
        answers = _answers(m, rhs)
        assert answers == _first_row_rule(_answers, m, rhs)
        if len(rhs) == 3:
            assert answers[1][2][0] == "none" and answers[3][2] is None



if given is None:
    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_forced_zero_rows_keep_the_answers_of_the_first_row_rule():
        pass
else:
    @st.composite
    def _forced_zero_systems(draw):
        """Rows that force columns to zero, shuffled among fresh rows: a
        chain whose first row is a singleton and whose every other row
        holds the column forced before it (a cascade), duplicate and
        scaled copies of chain rows, and a row that holds only forced
        columns.  Right-hand sides: the image of an integer vector, a random
        column, and the image of a vector zero on the forced columns made
        nonzero on that last row, which the forced zeros leave as
        ``0 = b``."""
        ncols = draw(st.integers(1, 7))
        cell = (st.integers(-3, 3) if draw(st.booleans())
                else st.fractions(-3, 3, max_denominator=4))
        nonzero = cell.filter(bool)
        chain = draw(st.permutations(range(ncols)))[:draw(st.integers(1, ncols))]
        rows = []
        for k, c in enumerate(chain):
            row = [0] * ncols
            row[c] = draw(nonzero)
            if k and draw(st.booleans()):
                row[chain[k - 1]] = draw(nonzero)
            rows.append(row)
        for _ in range(draw(st.integers(0, 3))):
            scale = draw(st.sampled_from((1, 1, 2, -1, Fraction(1, 2))))
            rows.append([scale * a for a in draw(st.sampled_from(rows))])
        trapped = len(rows)
        rows.append([draw(nonzero) if c == chain[-1] or (c in chain and draw(st.booleans()))
                     else 0 for c in range(ncols)])
        for _ in range(draw(st.integers(0, 5))):
            rows.append([draw(cell) if draw(st.booleans()) else 0 for _ in range(ncols)])
        order = draw(st.permutations(range(len(rows))))
        rows = [rows[i] for i in order]
        x = [draw(st.integers(-2, 2)) for _ in range(ncols)]
        image = [sum((a * b for a, b in zip(row, x)), 0) for row in rows]
        x = [0 if c in chain else b for c, b in enumerate(x)]
        off = [sum((a * b for a, b in zip(row, x)), 0) for row in rows]
        off[order.index(trapped)] += draw(nonzero)
        return rows, [image, [draw(cell) for _ in rows], off]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_forced_zero_systems())
    def test_forced_zero_rows_keep_the_answers_of_the_first_row_rule(system):
        rows, rhs = system
        m = Matrix(rows)
        rhs = [[Scalar.of(b) for b in col] for col in rhs]
        answers = _answers(m, rhs)
        assert answers == _first_row_rule(_answers, m, rhs)
        assert answers[1][2][0] == "none" and answers[3][2] is None
