"""Query lists of the four workloads, generated from a seed.

A query is a JSON-able *spec*: the operation and its inputs.  The fixed part
of each list takes no seed; the seeded part draws random rational elements,
derivation combinations and parameter values from ``random.Random`` seeded by
``"<workload>:<seed>"``, so one seed always gives the same list.  Seeded
values come from fixed-size pools (nonzero coefficients, small numerators,
denominators 7, 11 and 13) so that every seed costs about the same and no
seeded parameter value is a root of an exceptional polynomial of the catalog
families, whose leading coefficients are 1 or 2.

Why each workload exists, and which layer it stresses, is written next to it
below and in ``BENCHMARK.json``.
"""

import random

WORKLOADS = ("sweep", "derivations", "parametric", "cli")
SIZES = ("full", "small")

_COEFFS = ("-3", "-2", "-1", "1", "2", "3", "-1/2", "1/2", "3/2", "-2/3", "1/3")
_PARAM_DENS = (7, 11, 13)


def _coeff(rng):
    return rng.choice(_COEFFS)


def _param_value(rng):
    den = rng.choice(_PARAM_DENS)
    num = rng.randrange(1, 4 * den)
    while num % den == 0:
        num = rng.randrange(1, 4 * den)
    return f"{rng.choice((-1, 1)) * num}/{den}"


def _filiform(n):
    return f"filiform({n})"


def _ident(algebra, code, quant):
    return {"op": "identity", "algebra": algebra, "code": code, "quant": quant}


# -- sweep ------------------------------------------------------------------
# Sweeps that run to completion: the bracket kernel and the polarized sweep do
# almost all the work; the derivation spaces they need are a small share.

def _sweep(rng, size, dims):
    # identity 1 over all derivations grows fastest (1.4 s at n = 10, 10 s at
    # n = 14), so it runs on the smallest n only, to keep a pass near 5 s
    big = (10, 11) if size == "full" else (6,)
    inner1 = (10, 11, 12) if size == "full" else (6,)
    inner2 = (10, 11, 12, 13, 14) if size == "full" else (6, 7)
    elem = (8, 9) if size == "full" else (6,)
    out = [_ident(_filiform(big[0]), "1", "all-der")]
    for n in big:
        out.append(_ident(_filiform(n), "2", "all-der"))
    for n in inner2:
        if n in inner1:
            out.append(_ident(_filiform(n), "1", "all-inner"))
        out.append(_ident(_filiform(n), "2", "all-inner"))
    for n in elem:
        codes = ("3", "4", "6", "s5") if n == elem[0] else ("3", "s5")
        for code in codes:
            out.append(_ident(_filiform(n), code, "all-elem"))
    for code in ("3", "4", "6", "s5"):
        out.append(_ident("n4", code, "all-elem"))
    out.append(_ident("ex413", "s5", "all-elem"))
    # seeded: fixed derivations (combinations of the derivation basis) and
    # fixed elements; the sweeps over all of them above must imply these
    for n in big:
        alg = _filiform(n)
        for code in ("1", "2"):
            coeffs = [_coeff(rng) for _ in range(dims[alg])]
            out.append({"op": "identity-fixed-map", "algebra": alg, "code": code,
                        "coeffs": coeffs, "seeded": True})
    for n in elem:
        alg = _filiform(n)
        for code in ("3", "4"):
            coords = [_coeff(rng) for _ in range(n)]
            out.append({"op": "identity-fixed-elem", "algebra": alg, "code": code,
                        "coords": coords, "seeded": True})
    return out


# -- derivations --------------------------------------------------------------
# Leibniz systems and structure: exact elimination, back-substitution and map
# inflation dominate; the identity sweeps here exit at the first tuple.

def _derivations(rng, size, dims):
    if size == "full":
        spaces = ("sl3", "sp4", "g2", _filiform(16))
        general = ("sl3", "sp4")
        abelian = ("abelian(20)",)
        doubles = ("n4", "n3+C", _filiform(7), _filiform(8), _filiform(9), _filiform(10))
        failing = ("sl3", "sp4", "g2")
    else:
        spaces = ("sl3", _filiform(8))
        general = ("sl3",)
        abelian = ("abelian(6)",)
        doubles = ("n4",)
        failing = ("sl3",)
    out = []
    for alg in spaces:
        out.append({"op": "derivation-space", "algebra": alg})
        out.append({"op": "inner-derivations", "algebra": alg})
    for alg in general:
        out.append({"op": "generalized-space", "algebra": alg, "weight": "1/2"})
    for alg in abelian:
        out.append({"op": "derivation-space", "algebra": alg})
    for alg in ("ex413", _filiform(10) if size == "full" else _filiform(6)):
        out.append({"op": "char-nilpotent", "algebra": alg})
    for alg in failing:
        for code in ("1", "2"):
            out.append(_ident(alg, code, "all-der"))
    for alg in doubles:
        coeffs = [_coeff(rng) for _ in range(dims[alg])]
        out.append({"op": "double-derivations", "algebra": alg, "coeffs": coeffs,
                    "seeded": True})
    return out


# -- parametric ---------------------------------------------------------------
# The same layers over polynomial and fraction scalars: polynomial Bareiss,
# exact division, condition normalization and rational roots.

_FAMILIES = {
    "glambda": ("lam",),
    "g5alpha": ("alpha",),
    "g4ab": ("alpha", "beta"),
    "r3lambda": ("lam",),
    "g2alpha": ("alpha",),
}


def _parametric(rng, size, dims):
    families = tuple(_FAMILIES) if size == "full" else ("r3lambda", "g5alpha")
    out = []
    for fam in families:
        for code in ("1", "2"):
            out.append(_ident(fam, code, "all-der"))
        for code in ("3", "4"):
            out.append(_ident(fam, code, "all-elem"))
        out.append(_ident(fam, "2", "all-inner"))
        out.append({"op": "generalized-space", "algebra": fam, "weight": "t"})
    for alg in (("sl2", "sl3") if size == "full" else ("sl2",)):
        out.append({"op": "mybe-symbolic", "algebra": alg})
        out.append({"op": "classical-symbolic", "algebra": alg})
        for code in ("3", "4"):
            out.append({"op": "identity-symbolic-z", "algebra": alg, "code": code})
    if size == "full":
        out.append({"op": "mybe-symbolic", "algebra": "sp4"})
        for code in ("3", "4"):
            out.append({"op": "identity-symbolic-z", "algebra": "sp4", "code": code})
    # seeded: one rational point per family, checked against the generic
    # verdicts above.  Identities 2 and 3 only: the rational sweeps of 1 and 4
    # on glambda would otherwise outnumber the polynomial and fraction
    # operations this workload exists for (sp4 above adds to those).
    for fam in families:
        values = {p: _param_value(rng) for p in _FAMILIES[fam]}
        for code, quant in (("2", "all-der"), ("3", "all-elem")):
            out.append({"op": "identity-specialized", "algebra": fam, "values": values,
                        "code": code, "quant": quant, "seeded": True})
    return out


# -- cli ----------------------------------------------------------------------
# Whole commands in fresh processes: interpreter start, import, catalog builds,
# output formatting and check-paper's warm in-process caches.  Takes no seed.

_D = "perfbench/data"


def _cli(rng, size, dims):
    cmds = [
        ["catalog-list"],
        ["catalog-list", "--format", "json"],
        ["catalog-list", "--format", "csv"],
        ["show", "ex413"],
        ["show", "glambda", "--format", "json"],
        ["show", "g4ab", "--param", "alpha=2", "--param", "beta=-1/3", "--format", "csv"],
        ["show", "tri", "--catalog", f"{_D}/catalog.json", "--format", "json"],
        ["invariants", "sl3"],
        ["invariants", "glambda", "--format", "json"],
        ["invariants", "filiform", "--param", "n=9", "--format", "csv"],
        ["invariants", "ex413"],
        ["derivations", "sl3"],
        ["derivations", "glambda", "--format", "json"],
        ["derivations", "n4", "--general", "2", "--format", "csv"],
        ["derivations", "ex413", "--general", "1/2"],
        ["derivations", "tri", "--catalog", f"{_D}/catalog.json", "--format", "csv"],
        ["derivations", "filiform", "--param", "n=10"],
        ["identity", "glambda", "--id", "2", "--quantifier", "all-der"],
        ["identity", "ex413", "--id", "4", "--format", "json"],
        ["identity", "sl3", "--id", "1", "--format", "csv"],
        ["identity", "sl2", "--id", "4", "--z", "e1 + 2*e2"],
        ["identity", "r3lambda", "--id", "1", "--quantifier", "all-inner", "--format", "json"],
        ["identity", "n4", "--id", "2", "--map", f"{_D}/n4_derivation.json"],
        ["identity", "glambda", "--id", "3", "--param", "lam=2", "--format", "csv"],
        ["identity", "filiform", "--param", "n=8", "--id", "s5", "--format", "json"],
        ["identity", "glambda", "--id", "4", "--param", "lam=5", "--format", "json"],
        ["identity", "tri", "--catalog", f"{_D}/catalog.json", "--id", "1"],
        ["rmatrix", "sl2", "--z", "e1", "--build-double"],
        ["rmatrix", "sl2", "--z", "z1*e1 + z2*e2 + z3*e3", "--format", "json"],
        ["rmatrix", "n4", "--matrix", f"{_D}/n4_derivation.json", "--build-double",
         "--format", "csv"],
        ["table1"],
        ["table1", "--format", "json"],
        ["table1", "--format", "csv"],
        ["check-paper"],
    ]
    if size == "small":
        cmds = [c for c in cmds if c[0] in ("catalog-list", "show", "identity")][:8]
    return [{"op": "cli", "argv": argv} for argv in cmds]


_BUILDERS = {
    "sweep": _sweep,
    "derivations": _derivations,
    "parametric": _parametric,
    "cli": _cli,
}


def queries(workload, seed, size, dims):
    """The query specs of one workload, each with a unique ``qid``.

    ``dims`` maps algebra names to derivation-space dimensions recorded in the
    expected results; seeded derivation combinations need one coefficient per
    basis map."""
    rng = random.Random(f"{workload}:{seed}")
    specs = _BUILDERS[workload](rng, size, dims)
    seen = {}
    for spec in specs:
        base = _qid(spec)
        count = seen.get(base, 0)
        seen[base] = count + 1
        spec["qid"] = base if count == 0 and not spec.get("seeded") else f"{base}#{count}"
    return specs


def _qid(spec):
    if spec["op"] == "cli":
        return "cli " + " ".join(spec["argv"])
    parts = [spec["op"], spec["algebra"]]
    for key in ("code", "quant", "weight"):
        if key in spec:
            parts.append(str(spec[key]))
    return " ".join(parts)


def algebra_names(specs):
    """Algebras a library workload materializes during set-up, in order."""
    out = []
    for spec in specs:
        name = spec.get("algebra")
        if name is not None and name not in out:
            out.append(name)
    return out
