"""Built-in algebra catalog, JSON catalog files, and the verdict table.

Parametric entries materialize symbolically by default; passing parameter
assignments specializes and revalidates.  Materialized algebras are cached
per assignment so repeated lookups share one object (and its derivation
caches).  Catalog files are JSON lists of entries with 1-based bracket
indices i < j and canonical scalar literals; save followed by load is the
identity on the stored data.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from importlib import resources

from .errors import (
    BadAssignment,
    DuplicateName,
    ExcludedParameterValue,
    LieDoubleError,
    ParseError,
    UnknownName,
)
from .identities import ALL_DERIVATIONS, ALL_ELEMENTS, check_quantified
from .lie_core import (
    BilinearAlgebra,
    LieAlgebra,
    abelian_algebra,
    derivations_of_bilinear,
    direct_sum,
    from_matrices,
)
from .scalars import MAX_DIGITS, Scalar, parse_rational, parse_scalar

# The largest dimension a catalog file's ``dim`` or filiform's ``n`` may ask
# for: validating a table visits each bracket pair once per basis vector,
# so building filiform(n) costs time quadratic in n.
MAX_DIM = 1000

_ALPHA = Scalar.variable("alpha")
_BETA = Scalar.variable("beta")
_LAM = Scalar.variable("lam")


class ParamSpec:
    """Declared parameter: scalar (rational value) or size (integer).

    special lists values where the generic verdicts change; they are data
    for table regeneration, not restrictions."""

    __slots__ = ("name", "kind", "special", "excluded")

    def __init__(self, name, kind="scalar", special=(), excluded=()):
        self.name = name
        self.kind = kind
        self.special = tuple(Fraction(v) for v in special)
        self.excluded = tuple(Fraction(v) for v in excluded)

    def __repr__(self):
        return f"ParamSpec({self.name}, {self.kind})"


class CatalogEntry:
    __slots__ = ("name", "dim", "params", "note", "build")

    def __init__(self, name, dim, params, note, build):
        self.name = name
        self.dim = dim  # None when it depends on a size parameter
        self.params = tuple(params)
        self.note = note
        self.build = build

    def __repr__(self):
        return f"CatalogEntry({self.name})"


# ---------------------------------------------------------------------------
# matrix realizations

def _elementary(n, i, j):
    return [[1 if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)]


def _build_gl2() -> LieAlgebra:
    mats = [_elementary(2, a, b) for a in range(2) for b in range(2)]
    return from_matrices(mats, labels=("E11", "E12", "E21", "E22"))


def _build_sl3() -> LieAlgebra:
    pos = [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]
    mats = [_elementary(3, a, b) for a, b in pos]
    mats += [[[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, -1]]]
    labels = ("E12", "E13", "E23", "E21", "E31", "E32", "H1", "H2")
    return from_matrices(mats, labels=labels)


def _sp4_block(a=None, b=None, c=None):
    m = [[0] * 4 for _ in range(4)]
    if a is not None:
        for i in range(2):
            for j in range(2):
                m[i][j] = a[i][j]
                m[2 + i][2 + j] = -a[j][i]
    if b is not None:
        for i in range(2):
            for j in range(2):
                m[i][2 + j] = b[i][j]
    if c is not None:
        for i in range(2):
            for j in range(2):
                m[2 + i][j] = c[i][j]
    return m


def _build_sp4() -> LieAlgebra:
    sym = [_elementary(2, 0, 0), [[0, 1], [1, 0]], _elementary(2, 1, 1)]
    mats = [_sp4_block(a=_elementary(2, i, j)) for i in range(2) for j in range(2)]
    mats += [_sp4_block(b=s) for s in sym]
    mats += [_sp4_block(c=s) for s in sym]
    labels = ("A11", "A12", "A21", "A22", "B11", "B12", "B22", "C11", "C12", "C22")
    return from_matrices(mats, labels=labels)


# ---------------------------------------------------------------------------
# composition algebras (not Lie): quaternions and octonions by doubling

_QLABELS = ("u", "i", "j", "k")


def _quat_mul(a: int, b: int):
    """Product of quaternion units as (index, sign)."""
    if a == 0:
        return b, 1
    if b == 0:
        return a, 1
    if a == b:
        return 0, -1
    # cyclic i -> j -> k
    cyc = {(1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1)}
    hit = cyc.get((a, b))
    if hit is not None:
        return hit
    c, s = cyc[(b, a)]
    return c, -s


def quaternion_algebra() -> BilinearAlgebra:
    table = {}
    for a in range(4):
        for b in range(4):
            c, s = _quat_mul(a, b)
            table[(a, b)] = {c: s}
    return BilinearAlgebra(4, table, labels=_QLABELS)


def octonion_algebra() -> BilinearAlgebra:
    """Split octonions: doubling of the quaternions where pairs (a,b)
    multiply as (a,b)(c,d) = (ac + conj(d) b, da + b conj(c)), so l*l = 1.

    The derivation algebra is 14-dimensional either way, but the split
    form keeps rational nilpotent elements reachable by basis search."""

    def conj_sign(u):
        return 1 if u == 0 else -1

    table = {}
    for p in range(8):
        for q in range(8):
            u = p if p < 4 else p - 4
            v = q if q < 4 else q - 4
            if p < 4 and q < 4:
                c, s = _quat_mul(u, v)
                table[(p, q)] = {c: s}
            elif p < 4:
                c, s = _quat_mul(v, u)  # d * a
                table[(p, q)] = {c + 4: s}
            elif q < 4:
                c, s = _quat_mul(u, v)  # b * conj(c)
                table[(p, q)] = {c + 4: s * conj_sign(v)}
            else:
                c, s = _quat_mul(v, u)  # conj(d) * b
                table[(p, q)] = {c: s * conj_sign(v)}
    labels = ("u", "i", "j", "k", "l", "il", "jl", "kl")
    return BilinearAlgebra(8, table, labels=labels)


def _build_g2() -> LieAlgebra:
    maps = derivations_of_bilinear(octonion_algebra())
    labels = tuple(f"D{i + 1}" for i in range(len(maps)))
    return from_matrices(maps, labels=labels)


# ---------------------------------------------------------------------------
# structure-constant entries

def _build_filiform(n: int) -> LieAlgebra:
    if n < 3:
        raise ExcludedParameterValue("filiform needs n >= 3")
    if n > MAX_DIM:
        raise ExcludedParameterValue(f"filiform needs n <= {MAX_DIM}")
    # no Jacobi check: each term [x, [y, w]] of the Jacobiator of three
    # distinct basis vectors vanishes.  Only brackets with e1 are nonzero, so
    # [y, w] is zero unless e1 is y or w, and then it is a multiple of some
    # ek with k > 1; x is then not e1, and [x, ek] is zero
    return LieAlgebra(n, {(0, j): {j + 1: 1} for j in range(1, n - 1)}, validate=False)


def _build_glambda() -> LieAlgebra:
    table = {
        (0, 1): {3: 1}, (0, 2): {5: 1}, (0, 3): {4: 1}, (0, 4): {6: 1},
        (1, 2): {4: _LAM}, (1, 3): {5: 1}, (1, 5): {6: 1},
        (2, 3): {6: 1 - _LAM},
    }
    labels = tuple(f"x{i}" for i in range(1, 8))
    return LieAlgebra(7, table, labels=labels, params=("lam",))


def _build_ex413() -> LieAlgebra:
    table = {
        (0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}, (0, 4): {5: 1},
        (0, 5): {6: 1}, (0, 6): {7: 1},
        (1, 2): {4: 1, 5: 1}, (1, 3): {5: 1, 6: 1}, (1, 4): {6: 2, 7: 1},
        (1, 5): {7: 3}, (2, 3): {6: -1}, (2, 4): {7: -1},
    }
    labels = tuple(f"x{i}" for i in range(1, 9))
    return LieAlgebra(8, table, labels=labels)


def _entries():
    out = []

    def add(name, dim, build, params=(), note=""):
        out.append(CatalogEntry(name, dim, params, note, build))

    add("r2", 2, lambda: LieAlgebra(2, {(0, 1): {1: 1}}),
        note="solvable nonabelian of dimension 2")
    add("n3", 3, lambda: LieAlgebra(3, {(0, 1): {2: 1}}),
        note="Heisenberg algebra")
    add("r3lambda", 3,
        lambda: LieAlgebra(3, {(0, 1): {1: 1}, (0, 2): {2: _LAM}}, params=("lam",)),
        params=(ParamSpec("lam"),),
        note="solvable family, ad(e1) = diag(1, lam) on the complement")
    add("sl2", 3,
        lambda: LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}),
        note="simple, rank 1")
    add("n3+C", 4, lambda: direct_sum(LieAlgebra(3, {(0, 1): {2: 1}}), abelian_algebra(1)),
        note="Heisenberg plus a central line")
    add("n4", 4, lambda: LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}}),
        note="filiform of dimension 4")
    add("r2+C2", 4, lambda: direct_sum(LieAlgebra(2, {(0, 1): {1: 1}}), abelian_algebra(2)))
    add("r2+r2", 4, lambda: LieAlgebra(4, {(0, 1): {1: 1}, (2, 3): {3: 1}}))
    add("sl2+C", 4,
        lambda: direct_sum(
            LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}),
            abelian_algebra(1),
        ))
    add("g1", 4,
        lambda: LieAlgebra(4, {(0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1}}),
        note="ad(e1) acts as the identity")
    add("g2alpha", 4,
        lambda: LieAlgebra(
            4,
            {(0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {2: 1, 3: _ALPHA}},
            params=("alpha",),
        ),
        params=(ParamSpec("alpha"),))
    add("g3", 4,
        lambda: LieAlgebra(
            4, {(0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 2}, (1, 2): {3: 1}}
        ))
    add("g4ab", 4,
        lambda: LieAlgebra(
            4,
            {(0, 1): {1: 1}, (0, 2): {1: 1, 2: _ALPHA}, (0, 3): {2: 1, 3: _BETA}},
            params=("alpha", "beta"),
        ),
        params=(ParamSpec("alpha"), ParamSpec("beta")))
    add("g5alpha", 4,
        lambda: LieAlgebra(
            4,
            {
                (0, 1): {1: 1},
                (0, 2): {1: 1, 2: _ALPHA},
                (0, 3): {3: _ALPHA + 1},
                (1, 2): {3: 1},
            },
            params=("alpha",),
        ),
        params=(ParamSpec("alpha", special=(0, -1)),))
    add("gl2", 4, _build_gl2, note="all 2x2 matrices under the commutator")
    add("filiform", None, _build_filiform,
        params=(ParamSpec("n", kind="size"),),
        note="[e1, ei] = e(i+1); needs integer size n >= 3")
    add("ex44", 4,
        lambda: LieAlgebra(
            4, {(0, 1): {1: 1}, (0, 2): {1: 1}, (0, 3): {3: 1}, (1, 2): {3: 1}}
        ),
        note="solvable; diag(0, t, t, 2t) is a derivation for every t")
    add("ex413", 8, _build_ex413,
        note="nilpotent of maximal class in dimension 8")
    add("glambda", 7, _build_glambda,
        params=(ParamSpec("lam", special=(1,)),),
        note="7-dimensional nilpotent family")
    add("sl3", 8, _build_sl3, note="3x3 traceless matrices")
    add("sp4", 10, _build_sp4, note="4x4 symplectic matrices")
    add("g2", 14, _build_g2, note="derivation algebra of the split octonions")
    return {e.name: e for e in out}


_REGISTRY = _entries()
_ALIASES = {"g5": "g5alpha", "g4": "g4ab"}
_MATERIALIZED: dict = {}


def names():
    return list(_REGISTRY)


def entry(name: str) -> CatalogEntry:
    canon = _ALIASES.get(name, name)
    hit = _REGISTRY.get(canon)
    if hit is None:
        raise UnknownName(name)
    return hit


def get(name: str, assignments=None) -> LieAlgebra:
    """Materialize a catalog entry; assignments map parameter names to
    exact values or their literals (rationals for scalar parameters, an
    integral value for a size).

    Scalar assignments must cover all declared parameters or be absent;
    absent means the symbolic family."""
    ent = entry(name)
    given = dict(assignments or {})
    sizes = {}
    scalars = {}
    for spec in ent.params:
        if spec.name not in given:
            if spec.kind == "size":
                raise BadAssignment(f"catalog entry {ent.name} needs integer {spec.name}")
            continue
        # an int or Fraction is taken as it is, held to a literal's digit limit
        val = given.pop(spec.name)
        if type(val) not in (int, Fraction):
            val = parse_rational(str(val))
        elif max(abs(val.numerator), val.denominator) < 10 ** MAX_DIGITS:
            val = Fraction(val)
        else:
            raise ParseError(f"integer of more than {MAX_DIGITS} digits in literal")
        if spec.kind == "size":
            if val.denominator != 1:
                raise ExcludedParameterValue(f"{spec.name} must be an integer")
            sizes[spec.name] = val.numerator
        elif val in spec.excluded:
            raise ExcludedParameterValue(f"{ent.name}: {spec.name} = {val}")
        else:
            scalars[spec.name] = val
    if given:
        extra = ", ".join(sorted(given))
        raise BadAssignment(f"catalog entry {ent.name} has no parameter {extra}")
    declared = [s.name for s in ent.params if s.kind == "scalar"]
    if scalars and sorted(scalars) != sorted(declared):
        raise BadAssignment(
            f"catalog entry {ent.name} needs all of: {', '.join(declared)}"
        )
    key = (
        ent.name,
        tuple(sorted(sizes.items())),
        tuple(sorted(scalars.items())),
    )
    hit = _MATERIALIZED.get(key)
    if hit is not None:
        return hit
    base_key = (*key[:2], ())
    g = _MATERIALIZED.get(base_key)
    if g is None:
        g = _MATERIALIZED[base_key] = ent.build(**sizes)
    if scalars:
        g = g.specialize(scalars)
    _MATERIALIZED[key] = g
    return g


def check_no_builtin_collision(extra_names):
    for nm in extra_names:
        if nm in _REGISTRY or nm in _ALIASES:
            raise DuplicateName(nm)


# ---------------------------------------------------------------------------
# JSON catalog files

def _json(text: str):
    """The JSON document in ``text``; invalid JSON is a ``ParseError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno)
    except ValueError:  # json's int() refused a literal past the int-string limit
        raise ParseError(
            f"invalid JSON: integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _read_text(path) -> str:
    """The text of the UTF-8 file at ``path``, or a ParseError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from None


def loads(text: str) -> dict:
    doc = _json(text)
    if not isinstance(doc, list):
        raise ParseError("catalog file must be a JSON list of entries")
    out = {}
    for pos, raw in enumerate(doc):
        name, g = _entry_from_json(raw, pos)
        if name in out:
            raise DuplicateName(name)
        out[name] = g
    return out


def load_file(path) -> dict:
    return loads(_read_text(path))


def _entry_from_json(raw, pos):
    ctx = f"entry {pos + 1}"
    if not isinstance(raw, dict):
        raise ParseError(f"{ctx}: expected an object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError(f"{ctx}: missing or empty name")
    ctx = f"entry {name!r}"
    dim = raw.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ParseError(f"{ctx}: dim must be a nonnegative integer")
    if dim > MAX_DIM:
        raise ParseError(f"{ctx}: dim must be at most {MAX_DIM}")
    params = raw.get("params", [])
    if not isinstance(params, list) or any(
        not isinstance(p, str) or not p.isidentifier() for p in params
    ):
        raise ParseError(f"{ctx}: params must be a list of identifiers")
    if len(set(params)) != len(params):
        raise ParseError(f"{ctx}: duplicate parameter names")
    labels = raw.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != dim
            or any(not isinstance(l, str) or not l for l in labels)
            or len(set(labels)) != len(labels)
        ):
            raise ParseError(f"{ctx}: labels must be {dim} distinct nonempty strings")
        labels = tuple(labels)
    brackets = raw.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError(f"{ctx}: brackets must be a list")
    table = {}
    for braw in brackets:
        if not isinstance(braw, dict):
            raise ParseError(f"{ctx}: each bracket must be an object")
        i, j = braw.get("i"), braw.get("j")
        if not (type(i) is int and type(j) is int) or not (1 <= i < j <= dim):
            raise ParseError(f"{ctx}: bracket needs 1 <= i < j <= dim, got ({i},{j})")
        if (i - 1, j - 1) in table:
            raise ParseError(f"{ctx}: duplicate bracket ({i},{j})")
        value = braw.get("value")
        if not isinstance(value, dict) or not value:
            raise ParseError(f"{ctx}: bracket ({i},{j}) needs a nonempty value map")
        comps = {}
        for kraw, lit in value.items():
            try:
                k = int(kraw)
            except (TypeError, ValueError):
                k = 0
            if not (1 <= k <= dim):
                raise ParseError(f"{ctx}: bad coordinate index {kraw!r} in ({i},{j})")
            if type(lit) not in (int, str):
                raise ParseError(f"{ctx}: coefficient for {kraw} must be exact")
            try:
                comps[k - 1] = parse_scalar(str(lit), allowed=frozenset(params))
            except ParseError as e:
                raise ParseError(f"{ctx}: ({i},{j}) -> {kraw}: {e}")
        table[(i - 1, j - 1)] = comps
    return name, LieAlgebra(dim, table, labels=labels, params=tuple(params))


def _bracket_doc(g) -> list:
    """The nonzero brackets of g in index order, as 1-based ``{"i", "j",
    "value"}`` records; ``value`` maps each component to its printed
    coefficient.  Catalog files and the CLI's JSON share this shape."""
    table = g.table
    return [
        {"i": i + 1, "j": j + 1,
         "value": {str(k + 1): str(c) for k, c in sorted(table[(i, j)].items())}}
        for i, j in sorted(table)
    ]


def dumps(entries) -> str:
    doc = []
    for name, g in entries.items():
        item = {"name": name, "dim": g.dim}
        default_labels = tuple(f"e{k + 1}" for k in range(g.dim))
        if g.labels != default_labels:
            item["labels"] = list(g.labels)
        if g.params:
            item["params"] = list(g.params)
        item["brackets"] = _bracket_doc(g)
        doc.append(item)
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def save_file(path, entries) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(entries))


def shipped_example() -> dict:
    """The catalog file bundled with the package."""
    text = resources.files("liedouble").joinpath("data/n3.json").read_text("utf-8")
    return loads(text)


# ---------------------------------------------------------------------------
# the dimension <= 4 verdict table

class Table1Row:
    __slots__ = ("name", "note", "marks")

    def __init__(self, name, note, marks):
        self.name = name
        self.note = note
        self.marks = dict(marks)

    def __repr__(self):
        m = self.marks
        return f"Table1Row({self.name}: {m['1']}{m['2']}{m['3']}{m['4']})"


# (entry, note, special): a special row evaluates the entry's special
# parameter values; every other row uses the symbolic parameters
_TABLE1_LAYOUT = (
    ("r2", "", False),
    ("n3", "", False),
    ("r3lambda", "lam generic", False),
    ("sl2", "", False),
    ("n3+C", "", False),
    ("n4", "", False),
    ("r2+C2", "", False),
    ("r2+r2", "", False),
    ("sl2+C", "", False),
    ("g1", "", False),
    ("g2alpha", "alpha generic", False),
    ("g3", "", False),
    ("g4ab", "alpha,beta generic", False),
    ("g5alpha", "alpha != 0,-1", False),
    ("g5alpha", "alpha = 0,-1", True),
)


def _marks(g) -> dict:
    checks = (("1", ALL_DERIVATIONS), ("2", ALL_DERIVATIONS), ("3", ALL_ELEMENTS), ("4", ALL_ELEMENTS))
    return {
        code: "✓" if check_quantified(g, code, quant).status == "holds" else "-"
        for code, quant in checks
    }


def table1():
    """Recompute the verdict table for the shipped families of dimension
    at most 4; generic rows use the symbolic parameters, the special row
    evaluates each listed special value and requires agreement."""
    rows = []
    for key, note, special in _TABLE1_LAYOUT:
        if special:
            spec = entry(key).params[0]
            marksets = [
                _marks(get(key, {spec.name: v})) for v in spec.special
            ]
            for other in marksets[1:]:
                if other != marksets[0]:
                    raise LieDoubleError(
                        f"special values of {key} disagree: {marksets}"
                    )
            rows.append(Table1Row(key, note, marksets[0]))
        else:
            rows.append(Table1Row(key, note, _marks(get(key))))
    return rows
