"""Exact sparse linear algebra over the scalar field.

:class:`Matrix` is the one matrix type of the package.  It is stored as
sparse rows (``{column: value}``, nonzeros only) and serves both as the
coefficient matrix of a linear system and, when square, as a linear map
(derivations, ``ad`` operators, r-matrices), with composition, commutators
and sums computed on the sparse rows and columns.
Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): every update
step is

    a'[i][j] = (pivot * a[i][j] - a[i][c] * row_c[j]) / previous_pivot

with an exact division, which keeps integer systems integral and controls
coefficient growth on polynomial systems.  Pivot selection prefers
parameter-free entries; every pivot that does involve parameters is recorded
(normalized) in an :class:`ExceptionalSet`.  Generic answers (rank, nullspace
bases, solutions) are then valid at every parameter specialization that
avoids the roots of the recorded polynomials.

Every value a Matrix, a LieAlgebra, an Element or a nullspace result
stores is in one form, ``scalars._native``: an int, a Fraction, or a Scalar
that carries a variable.  Their builders convert what they are given and
drop zeros; their public accessors return Scalar views (``linalg._view``).

Systems stay sparse throughout.  A parameter-free row is scaled once to
``{column: int}``.  Callers that read only the row space (``nullspace``,
``rank``, ``solve_affine``, ``solve_columns``) first drop the columns that
singleton rows force to zero, then take the sparsest pivot row and divide
each updated row by its content in place of the Bareiss divisor, so no
entry grows with the pivots before it.  ``Subspace.span`` and
``inner_derivations`` read the echelon rows and keep those of dense
Bareiss.  One reverse pass over the pivot rows solves for every free
column and right-hand side; polynomial rows sum in solve order, which
fixes how they print.  A parametric row has its denominators cleared to
``{column: Poly}``.  A step that eliminates from it runs the operation
order of dense Bareiss, which fixes how its polynomials print; a step
that leaves it untouched is not applied, and the row is lifted to the
current pivot, in one exact division per cell, when it is next read.
Each lifted cell is the polynomial of the dense chain, with the variable
order of that chain: the newest skipped pivot's order, then its own.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub, truediv

from .errors import AlgebraMismatch, ArityMismatch, ShapeMismatch
from .scalars import (_ZERO, Poly, Scalar, _finish, _mac, _merged_vars, _native, _poly, _terms,
                      poly_normalize)


def _view(v: dict, n=None):
    """The Scalar view of a stored sparse vector, which public accessors
    return: ``{index: Scalar}``, or with ``n`` the dense tuple of length
    ``n``, whose absent coordinates are all the one ``_ZERO``."""
    if n is None:
        return {k: Scalar.of(c) for k, c in v.items()}
    return tuple(Scalar.of(v[j]) if j in v else _ZERO for j in range(n))


class ExceptionalSet:
    """Normalized polynomials whose roots the generic answer may miss."""

    __slots__ = ("polys",)

    def __init__(self, polys=()):
        # drop constants; dedupe through a dict, which keeps the first of
        # equal polynomials (their variable orders, and so their text, may
        # differ); then a deterministic order
        seen = dict.fromkeys(p for p in polys if not p.is_constant())
        self.polys = tuple(sorted(seen, key=lambda q: (q.total_degree(), str(q))))

    def is_empty(self) -> bool:
        return not self.polys

    def union(self, other: "ExceptionalSet") -> "ExceptionalSet":
        return ExceptionalSet(self.polys + other.polys)

    def vanishes_at(self, values: dict) -> bool:
        """True when the assignment is exceptional (some member vanishes)."""
        for p in self.polys:
            v = p.substitute(values)
            if v.is_zero():
                return True
        return False

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return f"ExceptionalSet({[str(p) for p in self.polys]})"


def _sadd(acc: dict, v: dict, coef=1) -> None:
    """``acc += coef * v`` on sparse vectors, dropping entries that cancel.

    Values and ``coef`` may be Scalars or native numbers (int, Fraction),
    mixed: a native operand of a Scalar goes to the Scalar's method, so any
    sum or product with a Scalar in it is a Scalar.  A result may be a
    rational Scalar or an integral Fraction until a builder stores it.
    Exactly the int 1 and -1 add or subtract ``v`` with no multiplication;
    every other ``coef`` multiplies, and a zero ``coef`` leaves ``acc``
    unchanged.  Zeros are tested by truthiness (``Scalar.__bool__`` is
    ``not is_zero()``)."""
    if not coef:
        return
    if type(coef) is int and (coef == 1 or coef == -1):
        for k, c in v.items():
            s = acc.get(k)
            if s is None:
                s = c if coef == 1 else -c
            else:
                s = s + c if coef == 1 else s - c
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
        return
    for k, c in v.items():
        s = acc.get(k)
        s = c * coef if s is None else s + c * coef
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def _nonzero(items) -> dict:
    """``{key: value}`` from (key, value) pairs, each value in the stored
    form (``scalars._native``) and zeros dropped: what every builder of a
    Matrix, LieAlgebra, Element or Subspace keeps."""
    out = {}
    for k, c in items:
        c = _native(c)
        if c:
            out[k] = c
    return out


def _check_indices(keys, n: int, what: str) -> None:
    """ShapeMismatch unless every key is in ``range(n)``.  A loop, which on
    the few keys of a sparse row beats ``min`` and ``max``."""
    for k in keys:
        if not 0 <= k < n:
            raise ShapeMismatch(f"{what} index out of range for size {n}")


class Matrix:
    """Immutable matrix, stored as sparse rows.

    ``_rows[i]`` maps column -> nonzero value in the stored form (int,
    Fraction, or a Scalar that carries a variable); every builder converts
    what it is given through ``scalars._native``.  ``sparse_rows`` (one
    ``{column: Scalar}`` dict per row), ``entries`` (dense row tuples),
    ``vec()`` and ``apply_vec`` are Scalar views built on access.  A square
    matrix is also a linear map on coordinate space (``lie_core.LinearMap``
    is this class): ``entries[a][b]`` is the coefficient of basis vector
    ``a`` in the image of basis vector ``b``.  Map operations read one
    cached transpose, ``_column_view`` (``{row: value}`` per column)."""

    __slots__ = ("rows", "cols", "_rows", "_columns")

    def __init__(self, entries):
        dense = [tuple(row) for row in entries]
        cols = len(dense[0]) if dense else 0
        if any(len(row) != cols for row in dense):
            raise ShapeMismatch("ragged matrix rows")
        self.rows, self.cols, self._columns = len(dense), cols, None
        self._rows = tuple(_nonzero(enumerate(row)) for row in dense)

    # -- builders ---------------------------------------------------------

    @staticmethod
    def sparse(rows, cols) -> "Matrix":
        """Matrix from sparse ``{column: value}`` rows."""
        for row in rows:
            _check_indices(row, cols, "column")
        m = Matrix.__new__(Matrix)
        m.rows, m.cols, m._columns = len(rows), cols, None
        m._rows = tuple(_nonzero(row.items()) for row in rows)
        return m

    @staticmethod
    def from_columns(cols, dim) -> "Matrix":
        """``dim``-row matrix from sparse ``{row: value}`` columns."""
        rows = [{} for _ in range(dim)]
        for b, col in enumerate(cols):
            _check_indices(col, dim, "row")
            for a, e in col.items():
                rows[a][b] = e
        return Matrix.sparse(rows, len(cols))

    @staticmethod
    def from_flat(items, dim) -> "Matrix":
        """Square matrix from ``(a * dim + b, value)`` pairs of its row-major
        flattening."""
        rows = [{} for _ in range(dim)]
        for k, e in items:
            _check_indices((k,), dim * dim, "flat")
            a, b = divmod(k, dim)
            rows[a][b] = e
        return Matrix.sparse(rows, dim)

    @staticmethod
    def zero(dim) -> "Matrix":
        return Matrix.sparse([{} for _ in range(dim)], dim)

    @staticmethod
    def identity(dim) -> "Matrix":
        return Matrix.sparse([{a: 1} for a in range(dim)], dim)

    @staticmethod
    def diagonal(values) -> "Matrix":
        values = list(values)
        n = len(values)
        return Matrix.from_flat(((a * n + a, v) for a, v in enumerate(values)), n)

    # -- views --------------------------------------------------------------

    @property
    def sparse_rows(self) -> tuple:
        return tuple(_view(row) for row in self._rows)

    @property
    def entries(self) -> tuple:
        return tuple(_view(row, self.cols) for row in self._rows)

    @property
    def _column_view(self):
        if self._columns is None:
            cols = [{} for _ in range(self.cols)]
            for i, row in enumerate(self._rows):
                for j, e in row.items():
                    cols[j][i] = e
            self._columns = tuple(cols)
        return self._columns

    @property
    def dim(self) -> int:
        """Size of a square matrix."""
        if self.rows != self.cols:
            raise ShapeMismatch(f"a {self.rows}x{self.cols} matrix is not square")
        return self.rows

    def vec(self) -> tuple:
        """Row-major flattening, used to treat maps as vectors."""
        return tuple(e for row in self._rows for e in _view(row, self.cols))

    def _flat(self) -> dict:
        """Sparse row-major flattening ``{a * cols + b: value}``."""
        return {
            a * self.cols + b: e for a, row in enumerate(self._rows) for b, e in row.items()
        }

    def is_parametric(self) -> bool:
        return any(type(e) is Scalar for row in self._rows for e in row.values())

    # -- linear-map operations ------------------------------------------------

    def apply_sparse(self, v: dict) -> dict:
        """Image of a sparse vector, computed on the column view: a value is
        a Scalar when the input or a column entry it meets is one.  When the
        first value of ``v`` is a Scalar, the sum is taken on term dicts
        (``scalars._mac``), with the same result; a native vector, such as
        a basis vector, mostly copies or scales the columns, which Scalar
        arithmetic does as fast."""
        _check_indices(v, self.cols, "vector")
        cols = self._column_view
        if v and type(next(iter(v.values()))) is Scalar:
            acc: dict = {}
            for b, vb in v.items():
                t = _terms(vb)
                if t is None or not _mac(acc, cols[b], t[0], (t[1],), t[2]):
                    break
            else:
                return _finish(acc)
        out: dict = {}
        for b, vb in v.items():
            _sadd(out, cols[b], vb)
        return out

    def apply_vec(self, coords) -> tuple:
        if len(coords) != self.cols:
            raise ShapeMismatch("vector length does not match column count")
        return _view(self.apply_sparse(_nonzero(enumerate(coords))), self.rows)

    def apply(self, x):
        """Image of an algebra element."""
        return x.algebra.element(self.apply_sparse(x._sparse))

    def compose(self, other: "Matrix") -> "Matrix":
        """Matrix product self @ other (apply other first), each entry
        summed from zero over ascending inner indices, the order of the
        dense product (it fixes how rational-function entries print)."""
        if self.cols != other.rows:
            raise ShapeMismatch("matrix shapes do not chain")
        mine = self._column_view
        cols = []
        for col in other._column_view:
            acc = {}
            for k, y in col.items():
                for a, x in mine[k].items():
                    acc[a] = acc.get(a, 0) + x * y
            cols.append(acc)
        return Matrix.from_columns(cols, self.rows)

    def commutator(self, other: "Matrix") -> "Matrix":
        return self.compose(other) - other.compose(self)

    def _flat_commutator(self, other: "Matrix") -> dict:
        """``self.commutator(other)._flat()`` of square matrices of one
        size, summed in one flat dict: each entry takes ``compose``'s
        products in its order, ascending inner index, those of
        ``self @ other`` added from zero, then those of ``other @ self``
        subtracted."""
        n = self.cols
        acc: dict = {}
        for left, right, op in ((self, other, add), (other, self, sub)):
            mine = left._column_view
            for b, col in enumerate(right._column_view):
                for k, y in col.items():
                    for a, x in mine[k].items():
                        key = a * n + b
                        acc[key] = op(acc.get(key, 0), x * y)
        return _nonzero(acc.items())

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix shapes differ")
        return Matrix.sparse([
            {j: op(ra.get(j, 0), rb.get(j, 0)) for j in sorted(ra.keys() | rb.keys())}
            for ra, rb in zip(self._rows, other._rows)
        ], self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub)

    def scale(self, c) -> "Matrix":
        c = _native(c)
        return Matrix.sparse([{j: e * c for j, e in row.items()} for row in self._rows], self.cols)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def is_nilpotent(self) -> bool:
        """True when some power (at most the dimension) vanishes."""
        p = self
        k = 1
        while True:
            if p.is_zero():
                return True
            if k >= self.dim:
                return False
            p = p.compose(p)
            k *= 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._rows == other._rows

    __hash__ = None

    def __repr__(self):
        body = "; ".join(
            " ".join(str(e) for e in row) for row in self.entries
        )
        return f"Matrix[{self.rows}x{self.cols}]({body})"


def _check_map(m, n: int, who: str) -> Matrix:
    """``m`` itself when it is an n x n Matrix.  Anything else is
    ArityMismatch; a matrix of another shape is AlgebraMismatch."""
    if not isinstance(m, Matrix):
        raise ArityMismatch(f"{who} expects a linear map, got {type(m).__name__}")
    if m.rows != n or m.cols != n:
        raise AlgebraMismatch("map dimension does not match the algebra")
    return m


# -- elimination core -----------------------------------------------------


class _Echelon:
    """Result of fraction-free elimination on (possibly augmented) rows.

    Rows are sparse: ``{column: int}`` when ``integral`` (parameter-free
    input, scaled to integers), ``{column: Scalar}`` otherwise."""

    __slots__ = ("rows", "pivots", "exceptional", "npivot", "integral")

    def __init__(self, rows, pivots, exceptional, npivot, integral):
        self.rows = rows                # list[dict]
        self.pivots = pivots            # list[(row, col)], col < npivot
        self.exceptional = exceptional  # list[Poly], normalized
        self.npivot = npivot
        self.integral = integral


def _drop_forced_zeros(rows, npivot, holds):
    """The singleton-row presolve of LP solvers (Andersen & Andersen,
    Math. Programming 71, 1995), in place on ``{column: int}`` rows.

    A row whose only entry is a column c < npivot forces x_c = 0: c is
    deleted from every other row, found through the column index ``holds``
    (left as just the singleton), and rows that become such singletons
    cascade.  A duplicate singleton is left empty, and a row left with
    only augmented entries is a ``0 = b`` residual.  Each deletion
    subtracts a multiple of the singleton, so the row space is unchanged."""
    stack = [i for i, row in enumerate(rows) if len(row) == 1 and min(row) < npivot]
    while stack:
        i = stack.pop()
        if len(rows[i]) != 1:  # emptied since: a duplicate singleton
            continue
        (c,) = rows[i]
        for k in holds[c]:
            if k != i:
                row = rows[k]
                del row[c]
                if len(row) == 1 and min(row) < npivot:
                    stack.append(k)
        holds[c] = [i]


def _int_bareiss(rows, npivot, sparsest=False):
    """In-place Bareiss over ``{column: int}`` rows; returns pivot positions.

    Columns are taken in order.  A column's pivot is, of the rows below the
    pivots found so far that hold it, the first, or with ``sparsest`` the
    one with fewest nonzeros (ties to the first).  Those rows are found
    through a column -> rows index local to the call.  Pivot rows end in
    pivot order, in front of the remaining rows.

    The first-row rule gives the pivots, row swaps and values of dense
    Bareiss.  Dense Bareiss also rescales, by pivot / previous pivot, every
    row that a step leaves untouched; here such a row keeps the pivot it
    was last brought to (``level``) and is brought up to date only when
    next touched, which the exact divisions make equal to the chain of
    dense steps.  ``Subspace.span`` and ``inner_derivations`` hand these
    pivot rows to users.

    ``sparsest`` is for the callers that read only the row space
    (``nullspace``, ``rank``, ``solve_affine`` and ``solve_columns``): the
    pivot columns, the solution for each setting of the free columns and
    which augmented columns keep nonzero residuals.  It first drops forced
    zeros (``_drop_forced_zeros``), so a forced column's pivot is its
    singleton row with nothing left to eliminate.  It then takes the
    sparsest row, which on the sparse Leibniz systems cuts fill-in, and
    divides each update ``piv * row_i - f * row_r`` by its content, not by
    the Bareiss chain: rows stay primitive, and ``level`` and ``prev`` at
    1.  A row's zero pattern does not depend on its scale, so the content
    changes no pivot choice; the pivot rows differ from dense Bareiss's,
    but not their row space."""
    m = len(rows)
    level = [1] * m
    at = list(range(m))   # at[k]: the input row now at position k
    pos = list(range(m))  # pos[i]: the position of input row i
    # column -> rows that held it; a row may since have lost it, so each
    # candidate is checked again
    holds = [[] for _ in range(npivot)]
    for i, row in enumerate(rows):
        for j in row:
            if j < npivot:
                holds[j].append(i)
    if sparsest:
        _drop_forced_zeros(rows, npivot, holds)
    key = (lambda i: (len(rows[i]), pos[i])) if sparsest else pos.__getitem__
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
        cands = {i for i in holds[c] if pos[i] >= r and c in rows[i]}
        holds[c] = None
        if not cands:
            continue
        p = min(cands, key=key)
        cands.remove(p)
        q = at[r]
        at[r], at[pos[p]] = p, q
        pos[p], pos[q] = r, pos[p]
        rowr = lift(p)
        piv = rowr[c]
        for i in cands:
            rowi = rows[i]
            f = rowi[c]
            for j in rowr.keys() - rowi.keys():
                if j < npivot:
                    holds[j].append(i)
            new = {j: piv * v for j, v in rowi.items()}
            for j, v in rowr.items():
                new[j] = new.get(j, 0) - f * v
            if sparsest:
                # divided by its content the row stays primitive, and
                # level and prev stay at 1
                d = gcd(*new.values()) or 1
            else:
                # Bareiss divides piv * lifted - lifted[c] * rowr by prev,
                # with lifted = rowi * prev / level[i]; piv * rowi - f * rowr
                # over level[i] is the same exact quotient.
                d, level[i] = level[i], piv
            # column c cancels
            rows[i] = {j: v // d for j, v in new.items() if v}
        if not sparsest:
            prev = piv
        pivots.append((r, c))
        r += 1
    for k in range(r, m):
        lift(at[k])
    rows[:] = [rows[i] for i in at]
    return pivots


def _is_one(p: Poly) -> bool:
    return p.is_constant() and p.constant_value() == 1


def _poly_bareiss(rows, zero, npivot):
    """In-place Bareiss over sparse ``{column: Poly}`` rows; returns
    (pivots, exceptional).  A column's pivot is the first row below the
    pivots with a nonzero constant entry there, else the first nonzero.

    An absent cell of row ``i`` is the zero Poly of variable order
    ``zero[i]``; a zero's order reaches printed results through the sums
    and products it enters.  A step runs dense Bareiss's Poly arithmetic on
    the stored cells of each row that holds the pivot column, an absent
    cell read as that zero, and stores a result unless it is the row's new
    zero.  Cells at or left of the pivot column are never read again and
    are dropped.

    Dense Bareiss also rescales, by pivot / previous pivot, every row that
    a step leaves untouched; a unit step (pivot and previous pivot both 1)
    rescales nothing.  Here such a row keeps its stored cells and the
    number of non-unit steps it was last brought through (``level``), and
    is brought up to date (``lift``) only when next read: before a pivot
    is chosen for a column it holds, and, for the rows below the pivots,
    when the loop ends.  The exact divisions telescope, so each lifted
    cell is ``(pivot * a).exact_div(base)``, ``base`` the pivot it was last
    brought to: the polynomial the chain of dense steps gives.  Its
    variable order is the chain's too.  In that chain a non-unit step
    leaves every cell and zero of the rows below the pivots with an order
    that begins with its pivot's, and the next non-unit pivot is such a
    cell, so the left-first union of the skipped pivots' orders, newest
    first, is the newest one's: the product puts it first, and a zero
    merges it in.

    ``_int_bareiss`` stays apart: one loop for both would branch on the
    field in the pivot rule, in ``//`` versus ``exact_div`` and in the
    variable orders of cells and zeros."""
    m = len(rows)
    exceptional, pivots = [], []
    bases = [Poly.const(1)]  # 1, then the pivot of each non-unit step
    level = [0] * m          # level[i]: the base row i was last brought to
    r = 0

    def lift(i):
        if level[i] == len(bases) - 1:
            return
        base, top = bases[level[i]], bases[-1]
        z = _merged_vars(top.vars, zero[i])
        cells = {}
        for j, a in rows[i].items():
            if a._t:
                a = top * a
                cells[j] = a if _is_one(base) else a.exact_div(base)
            else:
                v = _merged_vars(top.vars, a.vars)
                if v != z:
                    cells[j] = _poly({}, v)
        rows[i], zero[i], level[i] = cells, z, len(bases) - 1

    for c in range(npivot):
        if r == m:
            break
        held = [i for i in range(r, m) if c in rows[i] and rows[i][c]._t]
        if not held:
            continue
        for i in held:
            lift(i)
        p = next((i for i in held if rows[i][c].is_constant()), held[0])
        rows[p], rows[r] = rows[r], rows[p]
        zero[p], zero[r] = zero[r], zero[p]
        level[p], level[r] = level[r], level[p]
        rowr, zr = rows[r], _poly({}, zero[r])
        piv, prev = rowr[c], bases[-1]
        trivial = _is_one(prev)
        if not (trivial and _is_one(piv)):
            bases.append(piv)
        for i in held:
            if i == p:
                continue
            i = p if i == r else i  # the row that was at r is now at p
            rowi, zi = rows[i], _poly({}, zero[i])
            f = rowi[c]
            cells = {j: piv * rowi.get(j, zi) - f * rowr.get(j, zr)
                     for j in rowi.keys() | rowr.keys() if j > c}
            z = (piv * zi - f * zr).vars
            if not trivial:
                cells = {j: v.exact_div(prev) for j, v in cells.items()}
            rows[i] = {j: v for j, v in cells.items() if v._t or v.vars != z}
            zero[i], level[i] = z, len(bases) - 1
        pivots.append((r, c))
        if not piv.is_constant():
            exceptional.append(poly_normalize(piv))
        r += 1
    for i in range(r, m):
        lift(i)
    return pivots, exceptional


def _eliminate(rows, ncols, npivot, sparsest=False) -> _Echelon:
    """Eliminate stored sparse ``{column: value}`` rows of width ``ncols``; only
    the first ``npivot`` columns may carry pivots (remaining columns ride
    along as augmented data).

    ``sparsest`` gives parameter-free input the row-space elimination of
    ``_int_bareiss``: forced zeros dropped, the sparsest candidate row as
    pivot and primitive rows.  It is for callers that read only the pivot
    columns, back-substituted values and whether residuals are present,
    all fixed by the row space: ``nullspace``, ``rank``, ``solve_affine``
    and ``solve_columns``.  ``Subspace.span`` and ``inner_derivations``
    return the pivot rows themselves, so they keep the first-row rule and
    the rows of dense Bareiss.  The polynomial path ignores ``sparsest``:
    its pivot choice decides the exceptional set.  It reads each row in
    column order, which fixes the order of the row's cleared denominators
    and so how its polynomials print."""
    if not any(type(e) is Scalar for row in rows for e in row.values()):
        work = []
        for row in rows:
            den = lcm(*(e.denominator for e in row.values()))
            work.append({j: e.numerator * (den // e.denominator) for j, e in row.items()})
        return _Echelon(work, _int_bareiss(work, npivot, sparsest), [], npivot, True)

    # clear denominators row by row; each cleared denominator is a
    # degeneration locus of the input itself, so record it.  The row's zero
    # order is what multiplying by them gives a zero cell.
    exceptional, work, zero = [], [], []
    for stored in rows:
        row = [(j, Scalar.of(stored[j])) for j in sorted(stored)]
        dens = []
        for _, e in row:
            if e.is_fraction and e._den not in dens:
                dens.append(e._den)
        cleared = {}
        for j, e in row:
            p = e.numerator_poly()
            for d in dens:
                if e._den != d:  # None for a cell that is not a fraction
                    p = p * d
            cleared[j] = p
        z = ()
        for d in dens:
            z = _merged_vars(z, d.vars)
            exceptional.append(poly_normalize(d))
        work.append(cleared)
        zero.append(z)

    pivots, piv_exc = _poly_bareiss(work, zero, npivot)
    exceptional.extend(piv_exc)
    out = [{j: Scalar.of(row[j]) for j in sorted(row) if row[j]._t} for row in work]
    return _Echelon(out, pivots, exceptional, npivot, False)


def _back_substitute(ech: _Echelon, sources):
    """Solve the echelon system once per source column: a free column,
    set to one with every other free column zero, or an augmented column,
    taken as right-hand side with every free column zero.

    Returns one solution per source: its nonzero coordinates among the
    first ``npivot`` columns, in the stored form and in column order.
    One reverse pass over the pivot rows solves every source: each solved
    pivot column keeps its sparse values over the sources.  The order of a
    Poly sum fixes the variable order it prints in, so Scalar rows are read
    as a walk for one source reads them: its own column, then the solved
    columns in solve order (descending).  Their cells have no denominator,
    so 0 + a and -a are the walk's a and 0 - a."""
    npivot = ech.npivot
    where = {s: t for t, s in enumerate(sources)}
    if ech.integral:
        div, walk = Fraction, None
    else:
        div, walk = truediv, lambda ja: (ja[0] not in where, -ja[0])
    solved = {}  # pivot column -> {source position: value}
    out = [{s: 1} if s < npivot else {} for s in sources]
    for r, pc in reversed(ech.pivots):
        row = ech.rows[r]
        acc = {}
        for j, a in row.items() if walk is None else sorted(row.items(), key=walk):
            t = where.get(j)
            if t is not None:
                # a free source stands at one on the left, a right-hand side on the right
                acc[t] = acc.get(t, 0) + (a if j >= npivot else -a)
            elif j in solved:
                for t, v in solved[j].items():
                    acc[t] = acc.get(t, 0) - a * v
        piv = row[pc]
        solved[pc] = values = {t: _native(div(c, piv)) for t, c in acc.items() if c}
        for t, v in values.items():
            out[t][pc] = v
    return [{j: x[j] for j in sorted(x)} for x in out]


def _free_columns(ech: _Echelon):
    pivot_cols = {c for _, c in ech.pivots}
    return [c for c in range(ech.npivot) if c not in pivot_cols]


def _residuals(ech: _Echelon, col):
    """Nonzero entries of augmented column ``col`` below the pivot rows."""
    return [row[col] for row in ech.rows[len(ech.pivots):] if col in row]


def _conditions(resid):
    """Normalized numerators of the residuals that involve parameters."""
    polys = [v.numerator_poly() for v in resid if isinstance(v, Scalar)]
    return [poly_normalize(p) for p in polys if not p.is_constant()]


class NullspaceResult:
    """Nullspace basis with the exceptional set of the elimination.

    ``_vectors`` holds each basis vector sparse, in the stored form, with
    its nonzeros in column order.  ``vectors`` (``{column: Scalar}``) and
    ``basis`` (dense tuples) are Scalar views built on access.
    ``lie_core.Subspace`` shares this shape and these views."""

    __slots__ = ("_vectors", "cols", "exceptional")

    def __init__(self, vectors, cols, exceptional):
        self._vectors = tuple(vectors)
        self.cols = cols
        self.exceptional = exceptional

    @property
    def vectors(self) -> tuple:
        return tuple(_view(v) for v in self._vectors)

    @property
    def basis(self) -> tuple:
        return tuple(_view(v, self.cols) for v in self._vectors)

    @property
    def dim(self):
        return len(self._vectors)


def nullspace(m: Matrix) -> NullspaceResult:
    """Basis of the right nullspace, generic in any parameters: one vector
    per free column, one there and zero at every other free column.  That
    column is the vector's last nonzero, since a pivot row holds no column
    left of its pivot."""
    ech = _eliminate(m._rows, m.cols, m.cols, sparsest=True)
    vectors = _back_substitute(ech, _free_columns(ech))
    return NullspaceResult(vectors, m.cols, ExceptionalSet(ech.exceptional))


class RankResult:
    __slots__ = ("value", "exceptional")

    def __init__(self, value, exceptional):
        self.value = value
        self.exceptional = exceptional


def rank(m: Matrix) -> RankResult:
    """Generic rank with the parameter degenerations that could lower it."""
    ech = _eliminate(m._rows, m.cols, m.cols, sparsest=True)
    return RankResult(len(ech.pivots), ExceptionalSet(ech.exceptional))


class SolveResult:
    """Solution set of ``m x = rhs``: none, unique, or an affine family."""

    __slots__ = ("status", "particular", "basis", "exceptional")

    def __init__(self, status, particular, basis, exceptional):
        self.status = status  # "none" | "unique" | "affine"
        self.particular = particular
        self.basis = basis
        self.exceptional = exceptional


def _augment(m: Matrix, rhs_columns):
    """Stored rows of ``m`` with the right-hand sides, stored sparse
    ``{row: value}`` columns, appended as columns."""
    rows = [dict(row) for row in m._rows]
    for t, col in enumerate(rhs_columns):
        for i, b in col.items():
            rows[i][m.cols + t] = b
    return rows


def solve_affine(m: Matrix, rhs) -> SolveResult:
    """Solve a linear system exactly, reporting the full solution set."""
    if len(rhs) != m.rows:
        raise ShapeMismatch("right-hand side length does not match row count")
    ech = _eliminate(_augment(m, [_nonzero(enumerate(rhs))]), m.cols + 1, m.cols, sparsest=True)
    exceptional = list(ech.exceptional)
    resid = _residuals(ech, m.cols)
    if resid:
        exceptional.extend(_conditions(resid))
        return SolveResult("none", None, (), ExceptionalSet(exceptional))
    free = _free_columns(ech)
    particular, *basis = (_view(x, m.cols) for x in _back_substitute(ech, [m.cols, *free]))
    status = "unique" if not free else "affine"
    return SolveResult(status, particular, tuple(basis), ExceptionalSet(exceptional))


def solve_columns(m: Matrix, rhs_columns):
    """Solve ``m x = b`` for many right-hand sides with one elimination.

    Returns (solutions, exceptional) where each solution is a coordinate
    tuple or None when that column is inconsistent.  Free coordinates are
    set to zero."""
    if any(len(col) != m.rows for col in rhs_columns):
        raise ShapeMismatch("right-hand side length does not match row count")
    ncols, k = m.cols, len(rhs_columns)
    rows = _augment(m, [_nonzero(enumerate(col)) for col in rhs_columns])
    ech = _eliminate(rows, ncols + k, ncols, sparsest=True)
    exceptional, consistent = list(ech.exceptional), []
    for c in range(ncols, ncols + k):
        resid = _residuals(ech, c)
        if resid:
            exceptional.extend(_conditions(resid[:1]))
        else:
            consistent.append(c)
    sols = dict(zip(consistent, _back_substitute(ech, consistent)))
    out = [_view(sols[c], ncols) if c in sols else None for c in range(ncols, ncols + k)]
    return out, ExceptionalSet(exceptional)
