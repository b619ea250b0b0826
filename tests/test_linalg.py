"""Fraction-free exact linear algebra and exceptional-set bookkeeping."""

import hashlib
import random
from fractions import Fraction

from liedouble import (
    ExceptionalSet,
    Matrix,
    Scalar,
    generalized_derivation_space,
    get,
    inner_derivations,
    nullspace,
    rank,
    solve_affine,
    solve_columns,
)


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
