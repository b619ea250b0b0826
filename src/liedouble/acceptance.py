"""Twelve-point verification suite with frozen reference values.

Each criterion function returns a CriterionResult recording one line per
checked fact.  Everything is exact rational or polynomial arithmetic;
tolerances never appear.  run_all() evaluates all twelve in order and is
what the ``check-paper`` command prints.

Criterion 8 is expected to fail: the constant it asserts for the first
basis triple disagrees with what the stated bracket table produces, and
the suite reports that honestly instead of adjusting either side.  See
the README section on the verification suite for the analysis.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .catalog import get, loads, dumps, names, table1
from .derivations import (
    derivation_space,
    generalized_derivation_space,
    is_characteristically_nilpotent,
    is_derivation,
)
from .identities import (
    ALL_DERIVATIONS,
    ALL_ELEMENTS,
    Fixed,
    check_quantified,
    cbm_implies_id34_audit,
    eval_identity,
    id6_from_id3_audit,
    implication_audit,
    metabelian_equivalences,
    nilpotent_witness_derivation,
)
from .lie_core import (
    Element,
    LinearMap,
    is_abelian,
    is_center_by_metabelian,
    is_nilpotent,
    nilpotency_class,
    parse_element,
    solvability_class,
)
from .rmatrix import (
    ad_cube_is_derivation,
    build_double,
    is_classical_rmatrix,
    is_extremal,
    mybe_solve,
    recognize_r31,
)
from .scalars import Scalar, rational_roots

SEED = 20260818


class CriterionResult:
    """Pass/fail verdict for one numbered criterion, with fact lines."""

    __slots__ = ("number", "title", "ok", "lines")

    def __init__(self, number: int, title: str):
        self.number = number
        self.title = title
        self.ok = True
        self.lines: list = []

    def check(self, flag, text: str) -> bool:
        flag = bool(flag)
        self.ok = self.ok and flag
        self.lines.append(("pass: " if flag else "FAIL: ") + text)
        return flag

    def note(self, text: str) -> None:
        self.lines.append("note: " + text)

    def __repr__(self):
        word = "pass" if self.ok else "FAIL"
        return f"CriterionResult({self.number} {word}: {self.title})"


# ---------------------------------------------------------------------------
# 1. the dimension <= 4 verdict table

# Frozen transcription; columns are identities 1, 2, 3, 4 in order.
TABLE1_GOLDEN = (
    ("r2", "", "yyyy"),
    ("n3", "", "yyyy"),
    ("r3lambda", "lam generic", "yyyy"),
    ("sl2", "", "y-yy"),
    ("n3+C", "", "yyyy"),
    ("n4", "", "yyyy"),
    ("r2+C2", "", "yyyy"),
    ("r2+r2", "", "yyyy"),
    ("sl2+C", "", "y-yy"),
    ("g1", "", "yyyy"),
    ("g2alpha", "alpha generic", "yyyy"),
    ("g3", "", "----"),
    ("g4ab", "alpha,beta generic", "yyyy"),
    ("g5alpha", "alpha != 0,-1", "----"),
    ("g5alpha", "alpha = 0,-1", "--yy"),
)


def _compact_marks(marks: dict) -> str:
    return "".join("y" if marks[c] == "✓" else "-" for c in "1234")


def criterion_1() -> CriterionResult:
    r = CriterionResult(1, "verdict table for the families of dimension at most 4")
    rows = table1()
    r.check(len(rows) == len(TABLE1_GOLDEN), f"{len(rows)} rows produced")
    for row, (name, note, want) in zip(rows, TABLE1_GOLDEN):
        got = _compact_marks(row.marks)
        label = f"{name} [{note}]" if note else name
        r.check(
            row.name == name and row.note == note and got == want,
            f"{label}: marks {got}, expected {want}",
        )
    return r


# ---------------------------------------------------------------------------
# 2..4 the rank-one simple algebra and its doubles

def _sl2_symbolic_z():
    sl2 = get("sl2")
    return sl2, parse_element(sl2, "z1*e1 + z2*e2 + z3*e3")


def criterion_2() -> CriterionResult:
    r = CriterionResult(2, "ad(z) passes the bracket-obstruction check for symbolic z")
    sl2, z = _sl2_symbolic_z()
    rep = is_classical_rmatrix(sl2, sl2.ad(z))
    r.check(rep.status == "holds", f"verdict {rep.status!r} for z with free coordinates")
    r.check(not rep.conditions, f"{len(rep.conditions)} residual conditions")
    return r


def criterion_3() -> CriterionResult:
    r = CriterionResult(3, "unique modified Yang-Baxter scalar for ad(z)")
    sl2, z = _sl2_symbolic_z()
    sol = mybe_solve(sl2, sl2.ad(z))
    r.check(sol.status == "unique", f"solution status {sol.status!r}")
    z1, z2, z3 = (Scalar.variable(n) for n in ("z1", "z2", "z3"))
    want = 4 * z1 * z2 + 4 * z3 * z3
    r.check(sol.value == want, f"scalar {sol.value} equals 4*z1*z2 + 4*z3^2")
    return r


def criterion_4() -> CriterionResult:
    r = CriterionResult(4, "doubles under ad(z) collapse to the recognized 3-dim type")
    sl2 = get("sl2")
    for text in ("e1", "e2", "e1 + e3"):
        z = parse_element(sl2, text)
        op = sl2.ad(z)
        dd = build_double(sl2, op)
        rr = build_double(sl2, op, kind="rbracket")
        r.check(dd._table == rr._table, f"z = {text}: both double brackets agree")
        r.check(recognize_r31(dd), f"z = {text}: double recognized")
    zero = build_double(sl2, sl2.ad(sl2.zero_element()))
    r.check(is_abelian(zero), "z = 0: double is abelian")
    return r


# ---------------------------------------------------------------------------
# 5..6 the seven-dimensional nilpotent family

def criterion_5() -> CriterionResult:
    r = CriterionResult(5, "seven-dimensional family: conditions and derivation dims")
    fam = get("glambda")
    for code in ("1", "2"):
        rep = check_quantified(fam, code, ALL_DERIVATIONS)
        conds = [str(p) for p in rep.conditions]
        r.check(
            rep.status == "conditional" and conds == ["lam - 1"],
            f"identity {code} over all derivations: {rep.status}, conditions {conds}",
        )
    space = derivation_space(fam)
    r.check(space.dim == 12, f"generic derivation dimension {space.dim}")
    exc_roots = set()
    for p in space.exceptional:
        exc_roots |= rational_roots(p).roots
    r.check(
        Fraction(-1) in exc_roots,
        f"-1 among the rational roots of the exceptional set {sorted(map(str, exc_roots))}",
    )
    for lam, want in ((-1, 13), (0, 12), (2, 12)):
        d = derivation_space(get("glambda", {"lam": lam})).dim
        r.check(d == want, f"lam = {lam}: derivation dimension {d}, expected {want}")
    return r


def criterion_6() -> CriterionResult:
    r = CriterionResult(6, "weight-3 derivation dimensions of the family")
    for lam, want in ((1, 12), (2, 11)):
        g = get("glambda", {"lam": lam})
        d = generalized_derivation_space(g, 3).dim
        r.check(d == want, f"lam = {lam}: weight-3 dimension {d}, expected {want}")
    return r


# ---------------------------------------------------------------------------
# 7..8 the two fixed counterexamples

def criterion_7() -> CriterionResult:
    r = CriterionResult(7, "dimension-8 maximal-class algebra: cube identity fails")
    g = get("ex413")
    rep = check_quantified(g, "4", ALL_ELEMENTS)
    r.check(rep.status == "fails", f"identity 4 over all elements: {rep.status}")
    r.check(rep.witness == (0, 0, 0, 1, 2), f"witness {rep.witness} is (x1; x2, x3)")
    want = g.basis_element(7).scale(-1)
    r.check(rep.value == want, f"witness value {rep.value} equals -x8")
    c = nilpotency_class(g)
    d = solvability_class(g)
    r.check(c == 7, f"nilpotency class {c}")
    r.check(d == 3, f"solvability class {d}")
    r.check(not is_center_by_metabelian(g), "second derived subalgebra is not central")
    r.check(is_characteristically_nilpotent(g), "every derivation is nilpotent")
    return r


def criterion_8() -> CriterionResult:
    r = CriterionResult(8, "outer diagonal derivations of the dim-4 metabelian algebra")
    g = get("ex44")
    d = LinearMap.diagonal([0, 1, 1, 2])
    e1, e2, e3 = (g.basis_element(i) for i in (0, 1, 2))
    value = eval_identity(g, "2", d, e1, e2, e3)
    want = g.basis_element(3).scale(-2)
    ok = r.check(
        value == want,
        f"identity 2 at (e1,e2,e3) under diag(0,1,1,2): value {value}, required -2*e4",
    )
    if not ok:
        r.note(
            "the stated brackets yield -1*e4 here; the -2 constant cannot be"
            " reproduced from them (see README, verification suite notes)"
        )
    lam = Scalar.variable("lam")
    dsym = LinearMap.diagonal([0, lam, lam, lam + lam])
    for code in ("2", "1"):
        rep = check_quantified(g, code, Fixed(dsym))
        conds = [str(p) for p in rep.conditions]
        r.check(
            rep.status == "conditional"
            and conds == ["lam"]
            and rep.common_roots == frozenset({Fraction(0)}),
            f"identity {code} under diag(0,lam,lam,2*lam) holds exactly at lam = 0",
        )
    return r


# ---------------------------------------------------------------------------
# 9..10 sweeps and spot checks

def criterion_9() -> CriterionResult:
    r = CriterionResult(9, "graded filiform algebras satisfy identity 2")
    for n in range(3, 10):
        rep = check_quantified(get("filiform", {"n": n}), "2", ALL_DERIVATIONS)
        r.check(rep.holds, f"n = {n}: identity 2 over all derivations {rep.status}")
    return r


def _nilpotent_search(g) -> Element | None:
    """First nonzero z with nilpotent ad(z): basis vectors, then pair sums."""
    cands = [g.basis_element(i) for i in range(g.dim)]
    for z in cands:
        if g.ad(z).is_nilpotent():
            return z
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            z = cands[i] + cands[j]
            if g.ad(z).is_nilpotent():
                return z
    return None


def criterion_10() -> CriterionResult:
    r = CriterionResult(10, "higher-rank simple algebras reject ad(z) as an R-matrix")
    for name, label, witness in (("sl3", "E13", (0, 3, 4)), ("sp4", "B11", (0, 2, 7))):
        g = get(name)
        rep = is_classical_rmatrix(g, g.ad(g.basis_element(g.label_index(label))))
        r.check(
            rep.status == "fails" and rep.witness == witness,
            f"{name} at {label}: {rep.status}, witness {rep.witness}",
        )
    g2 = get("g2")
    z = _nilpotent_search(g2)
    found = r.check(z is not None and not z.is_zero(), "g2: nilpotent element found by basis search")
    if found:
        rep = is_classical_rmatrix(g2, g2.ad(z))
        r.check(
            rep.status == "fails",
            f"g2 at {z}: {rep.status}, witness {rep.witness}",
        )
    return r


# ---------------------------------------------------------------------------
# 11. randomized property suites (fixed seed, exact arithmetic)

# Criterion 11's values for the parametric entries; an entry may appear
# more than once in the pool.  Every other entry joins the pool as it is.
_POOL_VALUES = {
    "r3lambda": ({"lam": 2},),
    "g2alpha": ({"alpha": 1},),
    "g4ab": ({"alpha": 2, "beta": 3},),
    "g5alpha": ({"alpha": 3}, {"alpha": 0}),
    "filiform": ({"n": 5},),
    "glambda": ({"lam": 1}, {"lam": 3}),
}


def _plain_pool() -> list:
    """Parameter-free materializations of every catalog entry, in catalog
    order, each labeled with the values it assigns, as in ``g4ab(2,3)``."""
    return [
        (name + (f"({','.join(map(str, values.values()))})" if values else ""), get(name, values))
        for name in names()
        for values in _POOL_VALUES.get(name, (None,))
    ]


def _random_element(rng, g) -> Element:
    return g.element([Fraction(rng.randint(-2, 2)) for _ in range(g.dim)])


def _random_derivation(rng, g) -> LinearMap:
    space = derivation_space(g)
    out = LinearMap.zero(g.dim)
    for m in space.basis:
        c = rng.randint(-2, 2)
        if c:
            out = out + m.scale(c)
    return out


def _double_bracket(g, d):
    return lambda a, b: d.apply(g.bracket(a, b))


def _transfer_suite(r, rng, pool) -> None:
    """Jacobi failure of the doubled bracket equals the identity-1 value.

    Three exact forms are compared: the bracket-first cyclic sum, the
    right side it collapses to, and the six-term expansion (which equals
    the nest-first cyclic sum, hence the negative of the other two)."""
    small = [(n, g) for n, g in pool if g.dim <= 7]
    bad = 0
    for _ in range(200):
        name, g = small[rng.randrange(len(small))]
        d = _random_derivation(rng, g)
        x, y, w = (_random_element(rng, g) for _ in range(3))
        bd = _double_bracket(g, d)
        br = g.bracket
        jac = bd(bd(x, y), w) + bd(bd(y, w), x) + bd(bd(w, x), y)
        if jac != eval_identity(g, "1", d, x, y, w):
            bad += 1
            continue
        dx, dy, dw = d.apply(x), d.apply(y), d.apply(w)
        collapsed = -d.apply(br(br(y, w), dx) + br(br(w, x), dy) + br(br(x, y), dw))
        if jac != collapsed:
            bad += 1
            continue
        dd = d.compose(d)
        expanded = (
            br(x, br(dy, dw)) + br(y, br(dw, dx)) + br(w, br(dx, dy))
            + br(dd.apply(y), br(x, w))
            + br(dd.apply(w), br(y, x))
            + br(dd.apply(x), br(w, y))
        )
        nest_first = bd(x, bd(y, w)) + bd(y, bd(w, x)) + bd(w, bd(x, y))
        if expanded != nest_first or expanded != -jac:
            bad += 1
    r.check(bad == 0, f"double-bracket transfer: 200 samples, {bad} violations")


def _mybe_suite(r, rng, pool) -> None:
    """Any solvable modified equation forces a vanishing obstruction."""
    solved = checked = 0
    for name, g in pool:
        for _ in range(3):
            z = _random_element(rng, g)
            op = g.ad(z)
            sol = mybe_solve(g, op)
            checked += 1
            if sol.status in ("unique", "all"):
                solved += 1
                if not is_classical_rmatrix(g, op).holds:
                    r.check(False, f"{name}: solvable equation but nonzero obstruction")
                    return
    r.check(True, f"solution implies R-matrix: {checked} samples, {solved} solvable")


def _chain_and_metabelian_suite(r, pool) -> None:
    audited = []
    meta = 0
    for name, g in pool:
        if g.dim <= 8:
            implication_audit(g)
            audited.append(name)
        meta += bool(metabelian_equivalences(g).facts["metabelian"])
    r.check(bool(audited), f"identity chain audited on {len(audited)} algebras")
    r.check(bool(pool), f"metabelian equivalences on {len(pool)} algebras ({meta} metabelian)")


def _extremal_and_cube_suite(r, rng, pool) -> None:
    extremal_seen = agree = total = 0
    for name, g in pool:
        zs = [_random_element(rng, g) for _ in range(2)]
        zs.extend(g.basis_element(i) for i in (0, g.dim - 1))
        for z in zs:
            total += 1
            cube = ad_cube_is_derivation(g, z)
            holds4 = check_quantified(g, "4", Fixed(z)).holds
            if cube != holds4:
                r.check(False, f"{name}: cube-derivation and identity 4 disagree at z = {z}")
                return
            agree += 1
            if is_extremal(g, z):
                extremal_seen += 1
                ad3 = g.ad(z).compose(g.ad(z)).compose(g.ad(z))
                if not (ad3.is_zero() and holds4):
                    r.check(False, f"{name}: extremal z = {z} without vanishing cube")
                    return
    r.check(True, f"cube lemma equivalence on {agree}/{total} samples")
    r.check(extremal_seen > 0, f"extremal elements hit {extremal_seen} times, each passing")


def _id6_and_cbm_suite(r, pool) -> None:
    done = 0
    for name, g in pool:
        if g.dim <= 8:
            id6_from_id3_audit(g)
            cbm_implies_id34_audit(g)
            done += 1
    r.check(done > 0, f"identity-6 and central-square audits on {done} algebras")
    missing = [
        name
        for name, g in pool
        if g.dim <= 7 and is_nilpotent(g) and not is_center_by_metabelian(g)
    ]
    r.check(not missing, f"nilpotent dim <= 7 entries all center-by-metabelian {missing}")


def _witness_suite(r, pool) -> None:
    nil = [(name, g) for name, g in pool if is_nilpotent(g) and not is_abelian(g)]
    for name, g in nil:
        d = nilpotent_witness_derivation(g)
        ok, pair = is_derivation(g, d)
        if d.is_zero() or not ok or not check_quantified(g, "2", Fixed(d)).holds:
            r.check(False, f"{name}: witness derivation invalid")
            return
    r.check(bool(nil), f"witness derivations found for {len(nil)} nilpotent algebras")


def criterion_11() -> CriterionResult:
    r = CriterionResult(11, "randomized property suites, zero violations allowed")
    rng = random.Random(SEED)
    pool = _plain_pool()
    _transfer_suite(r, rng, pool)
    _mybe_suite(r, rng, pool)
    _chain_and_metabelian_suite(r, pool)
    _extremal_and_cube_suite(r, rng, pool)
    _id6_and_cbm_suite(r, pool)
    _witness_suite(r, pool)
    return r


# ---------------------------------------------------------------------------
# 12. external catalog pathway

def criterion_12() -> CriterionResult:
    r = CriterionResult(12, "catalog file round-trip reproduces family verdicts")
    fam = get("glambda")
    loaded = loads(dumps({"glambda7": fam}))["glambda7"]
    r.check(loaded.params == ("lam",), f"round-trip kept parameters {loaded.params}")
    for lam, want in ((1, "holds"), (3, "fails")):
        g = loaded.specialize({"lam": lam})
        got = tuple(
            check_quantified(g, code, ALL_DERIVATIONS).status for code in ("1", "2")
        )
        r.check(
            got == (want, want),
            f"lam = {lam}: identities 1, 2 over all derivations {got}, expected {want}",
        )
    return r


# ---------------------------------------------------------------------------

CRITERIA = tuple(globals()[f"criterion_{n}"] for n in range(1, 13))


def run_all() -> list:
    return [fn() for fn in CRITERIA]
