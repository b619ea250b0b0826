"""Library queries: how each spec runs, how its result is summarized, and the
exact properties that check a seeded result.

Imported only by worker processes, after ``src`` is on ``sys.path``.
"""

from fractions import Fraction

import liedouble as ld

_QUANT = {
    "all-der": ld.ALL_DERIVATIONS,
    "all-inner": ld.ALL_INNER_DERIVATIONS,
    "all-elem": ld.ALL_ELEMENTS,
}


def materialize(name):
    """Build a named algebra: ``filiform(n)``, ``abelian(n)`` or a catalog
    entry (parametric entries stay symbolic)."""
    if name.endswith(")"):
        base, _, arg = name[:-1].partition("(")
        n = int(arg)
        if base == "abelian":
            return ld.abelian_algebra(n)
        return ld.get(base, {"n": n})
    return ld.get(name)


def _combination(space, coeffs):
    out = ld.LinearMap.zero(space.algebra.dim)
    for m, c in zip(space.basis, coeffs):
        out = out + m.scale(Fraction(c))
    return out


def _symbolic_element(g):
    return g.element([ld.Scalar.variable(f"z{i + 1}") for i in range(g.dim)])


# -- running --------------------------------------------------------------------

def run(spec, algebras):
    """The timed part of one query: returns its result object."""
    op = spec["op"]
    g = algebras[spec["algebra"]]
    if op == "identity":
        return ld.check_quantified(g, spec["code"], _QUANT[spec["quant"]])
    if op == "identity-fixed-map":
        d = _combination(ld.derivation_space(g), spec["coeffs"])
        return d, ld.check_quantified(g, spec["code"], ld.Fixed(d))
    if op == "identity-fixed-elem":
        z = g.element([Fraction(c) for c in spec["coords"]])
        return z, ld.check_quantified(g, spec["code"], ld.Fixed(z))
    if op == "identity-symbolic-z":
        return ld.check_quantified(g, spec["code"], ld.Fixed(_symbolic_element(g)))
    if op == "identity-specialized":
        values = {k: Fraction(v) for k, v in spec["values"].items()}
        h = g.specialize(values)
        return ld.check_quantified(h, spec["code"], _QUANT[spec["quant"]])
    if op == "derivation-space":
        return ld.derivation_space(g)
    if op == "inner-derivations":
        return ld.inner_derivations(g)
    if op == "generalized-space":
        w = spec["weight"]
        weight = ld.Scalar.variable(w) if w.isalpha() else Fraction(w)
        return ld.generalized_derivation_space(g, weight)
    if op == "char-nilpotent":
        return ld.is_characteristically_nilpotent(g)
    if op == "double-derivations":
        d = _combination(ld.derivation_space(g), spec["coeffs"])
        h = ld.build_double(g, d)
        return h, ld.derivation_space(h)
    if op == "mybe-symbolic":
        return ld.mybe_solve(g, g.ad(_symbolic_element(g)))
    if op == "classical-symbolic":
        return ld.is_classical_rmatrix(g, g.ad(_symbolic_element(g)))
    raise ValueError(f"unknown query op {op!r}")


# -- summaries of fixed queries --------------------------------------------------

def _strs(polys):
    return [str(p) for p in polys]


def _roots(roots):
    return None if roots is None else [str(r) for r in sorted(roots)]


def summarize(spec, result):
    """What is recorded for a fixed query and compared on every run."""
    if isinstance(result, ld.IdentityReport):
        return {
            "status": result.status,
            "witness": list(result.witness) if result.witness is not None else None,
            "value": str(result.value) if result.value is not None else None,
            "conditions": _strs(result.conditions),
            "roots": [_roots(r) for r in result.roots],
            "common_roots": _roots(result.common_roots),
            "exceptional": _strs(result.exceptional),
        }
    if isinstance(result, ld.DerivationSpace):
        return {"dim": result.dim, "kind": result.kind,
                "exceptional": _strs(result.exceptional)}
    if isinstance(result, ld.MYBESolution):
        return {"status": result.status,
                "value": str(result.value) if result.value is not None else None,
                "exceptional": _strs(result.exceptional)}
    if isinstance(result, ld.RMatrixReport):
        return {
            "status": result.status,
            "witness": list(result.witness) if result.witness is not None else None,
            "value": str(result.value) if result.value is not None else None,
            "conditions": _strs(result.conditions),
            "roots": [_roots(r) for r in result.roots],
        }
    if isinstance(result, bool):
        return {"value": result}
    raise TypeError(f"no summary for {type(result).__name__}")


# -- exact properties -------------------------------------------------------------

def _polarized(f, parts, scale):
    """``scale * sum over subsets S of (-1)^(d-|S|) f(sum of S)``: the
    symmetrized multilinear value a polarized sweep reports for the repeated
    slot filled by ``parts`` (d of them)."""
    d = len(parts)
    total = None
    for mask in range(1, 1 << d):
        chosen = [parts[k] for k in range(d) if mask >> k & 1]
        arg = chosen[0]
        for extra in chosen[1:]:
            arg = arg + extra
        v = f(arg)
        if (d - len(chosen)) % 2:
            v = v.scale(-1)
        total = v if total is None else total + v
    return total.scale(scale)


def witness_value(g, rep, quant):
    """Re-evaluate a failing report's witness through ``eval_identity``."""
    code = rep.identity
    w = list(rep.witness)
    e = g.basis_element
    if quant in ("all-der", "all-inner"):
        space = ld.derivation_space(g) if quant == "all-der" else ld.inner_derivations(g)
        if code == "2":
            return ld.eval_identity(g, "2", space.basis[w[0]], *map(e, w[1:]))
        xs = [e(i) for i in w[2:]]
        maps = [space.basis[w[0]], space.basis[w[1]]]
        return _polarized(lambda d: ld.eval_identity(g, "1", d, *xs), maps, 1)
    if code == "3":
        xs = [e(i) for i in w[2:]]
        return _polarized(lambda z: ld.eval_identity(g, "3", z, *xs),
                          [e(w[0]), e(w[1])], Fraction(1, 2))
    if code == "4":
        xs = [e(i) for i in w[3:]]
        return _polarized(lambda z: ld.eval_identity(g, "4", z, *xs),
                          [e(i) for i in w[:3]], Fraction(1, 6))
    if code == "6":
        z, xs = e(w[0]), [e(i) for i in w[3:]]
        return _polarized(lambda v: ld.eval_identity(g, "6", z, v, *xs),
                          [e(w[1]), e(w[2])], Fraction(1, 2))
    return ld.eval_identity(g, "s5", *map(e, w))


def check_witness(g, rep, quant):
    if rep.status != "fails":
        return []
    got = witness_value(g, rep, quant)
    if got.coords != rep.value.coords:
        return [f"witness {rep.witness} re-evaluates to {got}, report says {rep.value}"]
    return []


def check_space(g, space):
    bad = []
    for k, m in enumerate(space.basis):
        ok, pair = ld.is_derivation(g, m, space.weight)
        if not ok:
            bad.append(f"basis map {k} is not a derivation (pair {pair})")
    return bad


def _prediction(generic, values):
    """Status the generic report predicts at a rational point, or None when
    the point is exceptional."""
    if generic.exceptional.vanishes_at(values):
        return None
    if generic.status != "conditional":
        return generic.status
    vanish = all(p.substitute(values).is_zero() for p in generic.conditions)
    return "holds" if vanish else "fails"


def check(spec, result, algebras, generic):
    """Exact property checks on a seeded query.

    ``generic`` maps (algebra, code, quant) to the report of the matching
    fixed query in the same pass."""
    op = spec["op"]
    g = algebras[spec["algebra"]]
    if op in ("identity-fixed-map", "identity-fixed-elem"):
        payload, rep = result
        out = []
        quant = "all-elem"
        if op == "identity-fixed-map":
            quant = "all-der"
            ok, pair = ld.is_derivation(g, payload)
            if not ok:
                out.append(f"seeded map is not a derivation (pair {pair})")
        over_all = generic.get((spec["algebra"], spec["code"], quant))
        if over_all is not None and over_all.status == "holds" and rep.status != "holds":
            out.append(f"{quant} holds but the fixed argument gives {rep.status}")
        if rep.status == "fails":
            got = ld.eval_identity(g, spec["code"], payload,
                                   *(g.basis_element(i) for i in rep.witness))
            if got.coords != rep.value.coords:
                out.append(f"witness {rep.witness} re-evaluates to {got}")
        return out
    if op == "identity-specialized":
        point = {k: Fraction(v) for k, v in spec["values"].items()}
        base = generic.get((spec["algebra"], spec["code"], spec["quant"]))
        if base is None:
            return ["no generic verdict to compare with"]
        want = _prediction(base, {k: ld.Scalar.of(v) for k, v in point.items()})
        h = g.specialize(point)
        out = check_witness(h, result, spec["quant"])
        if want is not None and result.status != want:
            out.append(f"generic verdict predicts {want}, specialization gives {result.status}")
        return out
    if op == "double-derivations":
        h, space = result  # build_double itself rejects a map that is no derivation
        return check_space(h, space)
    raise ValueError(f"no property check for op {op!r}")


def properties(spec, result, algebras):
    """Properties checked on fixed queries too, beyond the recorded summary."""
    op = spec["op"]
    g = algebras[spec["algebra"]]
    if op == "identity":
        return check_witness(g, result, spec["quant"])
    if op in ("derivation-space", "inner-derivations", "generalized-space"):
        return check_space(g, result)
    return []
