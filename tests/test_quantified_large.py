"""Quantified sweeps at benchmark sizes, and the laziness of failing sweeps.

The golden records pin status, witness, value, conditions and roots of
identities 1 and 2 over all derivations of filiform(10) and over all inner
derivations of filiform(12).  To re-record after an intended change of
verdicts:

    PYTHONPATH=src python tests/test_quantified_large.py > tests/data/quantified_golden_large.json

``--count`` prints the bracket_sparse calls of the g2 laziness test.
"""

import json
import os
import sys
from itertools import combinations, permutations
from math import comb, prod

from liedouble import (
    ALL_DERIVATIONS,
    ALL_ELEMENTS,
    ALL_INNER_DERIVATIONS,
    LieAlgebra,
    check_quantified,
    derivation_space,
    eval_identity,
    get,
    identities,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "quantified_golden_large.json")

_SWEEPS = (
    (10, "1", "all-der", ALL_DERIVATIONS),
    (10, "2", "all-der", ALL_DERIVATIONS),
    (12, "1", "all-inner", ALL_INNER_DERIVATIONS),
    (12, "2", "all-inner", ALL_INNER_DERIVATIONS),
)

# bracket_sparse calls of identity 1 over all derivations of g2, up to and
# including its first failing tuple, as counted before the sweep reused
# identity 1's inner value; the sweep must never make more.
G2_ID1_BRACKET_CALLS = 36

# bracket_sparse calls of two sweeps of filiform(10) that run to completion.
# Before each alternating tuple's cyclic brackets were shared by every head,
# identity 2 over all derivations made 7,205 calls and identity 3 over all
# elements 4,296.
FILIFORM10_BRACKET_CALLS = (("2", ALL_DERIVATIONS, 800), ("3", ALL_ELEMENTS, 1100))

# bracket_sparse calls of failing checks over all elements, up to and
# including the first failing tuple, which lies in the first head; no walk of
# the later heads' live tuples may run before the first head is done.
FIRST_HEAD_BRACKET_CALLS = (("g2", "s5", 58), ("g2", "6", 82), ("sl3", "s5", 75),
                            ("sl3", "6", 246))

# two sweeps of filiform(10) that hold.  Before the sweep yielded nonzero
# values only, identity 1 over all derivations yielded 22,800 zero pairs and
# identity 3 over all elements 6,600.
FILIFORM10_HOLDING = (("1", ALL_DERIVATIONS), ("3", ALL_ELEMENTS))


def verdicts() -> dict:
    out = {}
    for n, code, qname, quant in _SWEEPS:
        rep = check_quantified(get("filiform", {"n": n}), code, quant)
        out[f"filiform{n} {code} {qname}"] = {
            "status": rep.status,
            "witness": None if rep.witness is None else list(rep.witness),
            "value": None if rep.value is None else str(rep.value),
            "conditions": [str(p) for p in rep.conditions],
            "roots": [
                None if rs is None else [str(r) for r in sorted(rs)]
                for rs in rep.roots
            ],
        }
    return out


def test_large_sweeps_match_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = verdicts()
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key


class _Counting(LieAlgebra):
    """A Lie algebra that counts its bracket_sparse calls."""

    calls = 0

    def bracket_sparse(self, u, v):
        self.calls += 1
        return super().bracket_sparse(u, v)


def _counted(g, code, quant):
    h = _Counting(g.dim, g.table, labels=g.labels, params=g.params)
    h.calls = 0
    rep = check_quantified(h, code, quant)
    return rep, h.calls


def _g2_id1_calls():
    return _counted(get("g2"), "1", ALL_DERIVATIONS)


def test_failing_sweep_stops_at_its_first_tuple():
    rep, calls = _g2_id1_calls()
    ref = check_quantified(get("g2"), "1", ALL_DERIVATIONS)
    assert rep.status == ref.status == "fails"
    assert rep.witness == ref.witness
    assert str(rep.value) == str(ref.value)
    assert calls <= G2_ID1_BRACKET_CALLS


def test_complete_sweeps_share_each_tuples_brackets():
    g = get("filiform", {"n": 10})
    for code, quant, bound in FILIFORM10_BRACKET_CALLS:
        rep, calls = _counted(g, code, quant)
        assert rep.status == check_quantified(g, code, quant).status == "holds", code
        assert calls <= bound, (code, calls)


def test_failing_checks_stop_in_their_first_head():
    for name, code, bound in FIRST_HEAD_BRACKET_CALLS:
        rep, calls = _counted(get(name), code, ALL_ELEMENTS)
        ref = check_quantified(get(name), code, ALL_ELEMENTS)
        assert rep.status == ref.status == "fails", (name, code)
        assert rep.witness == ref.witness and rep.witness[0] == 0, (name, code)
        assert calls <= bound, (name, code, calls)


def _live(g, code, maps):
    """The tuples that can be nonzero at some head, from the brackets
    alone: for 1 a nonzero value of identity 2 at some map, for 2 a nonzero
    cyclic bracket, for 3, 4 and 6 a nonzero inner part at some z's or w's,
    and for s5 a nonzero [x_p2, [x_p3, [x_p4, x0]]] at some x0."""
    b, n = g.bracket_sparse, g.dim
    e = [{i: 1} for i in range(n)]

    def cyclic(t):
        x, y, w = (e[i] for i in t)
        return ((x, y, w), (y, w, x), (w, x, y))

    def live(t):
        if code == "1":
            return any(eval_identity(g, "2", d, *[g.basis_element(i) for i in t]).sparse()
                       for d in maps)
        if code == "2":
            return any(b(v1, v2) for _, v1, v2 in cyclic(t))
        if code == "3":
            return any(b(b(z, u), b(v1, v2)) for z in e for u, v1, v2 in cyclic(t))
        x, y = (e[i] for i in t[:2])
        if code == "4":
            return any(b(b(z2, x), b(z3, y)) for z2 in e for z3 in e)
        if code == "6":
            return b(x, y) or any(b(b(w1, x), b(w2, y)) for w1 in e for w2 in e)
        return any(b(e[p2], b(e[p3], b(e[p4], x0)))
                   for x0 in e for p2, p3, p4 in permutations(t, 3))

    alt = identities._IDENTITIES[code].groups[-1][1]
    return [t for t in combinations(range(n), alt) if live(t)]


def _visits(g, spec, maps):
    """The (head, tuple) pairs a whole sweep visits: its return value."""
    values = identities._sweep(g, spec, None, maps if spec.argument == "map" else None)
    try:
        while True:
            next(values)
    except StopIteration as stop:
        return stop.value


def test_later_heads_visit_only_live_tuples():
    # a head visits only the tuples that can be nonzero for it, and a head
    # that fills an inner row also the tuples where the row's inner value
    # can be nonzero.  On filiform(10) no (head, tuple) pair is live.  gl2's
    # table is nearly full: s5's one tuple is live there, at every head
    for g in (get("filiform", {"n": 10}), get("ex413"), get("gl2")):
        maps = derivation_space(g).basis
        for code, spec in identities._IDENTITIES.items():
            pool = len(maps) if spec.argument == "map" else g.dim
            degree = sum(d for _, d in spec.groups[:-1])
            heads = prod(comb(pool + d - 1, d) for _, d in spec.groups[:-1])
            rows = pool ** (degree - 1) if spec.inner else 0
            tuples = list(combinations(range(g.dim), spec.groups[-1][1]))
            live = _live(g, code, maps)
            visits = _visits(g, spec, maps)
            assert visits <= heads * len(live) + rows * len(live), (code, visits)
            assert visits < heads * len(tuples) or live == tuples, code


# the (head, tuple) pairs each sweep visits over all derivations or all
# elements, in _IDENTITIES order.  gl2 and sp4 are more than half full, so
# their sweeps take no symbolic phase: a later head walks its complete rows
# (1, 3, 4 and 6, where 6 adds the kept tuples whose [x, y] is nonzero) or
# the nonzero tail parts that the first head kept (2).  On sp4 the latter
# skips 36 (head, tuple) pairs of 2 and of 3.  gl2's 6 visited 240 pairs
# while its later heads walked every kept tail part
SWEEP_VISITS = {
    ("filiform", 10): {"1": 0, "2": 0, "3": 0, "4": 0, "6": 0, "s5": 0},
    ("filiform", 16): {"1": 0, "2": 0, "3": 0, "4": 0, "6": 0, "s5": 0},
    ("ex413", None): {"1": 4, "2": 3, "3": 3, "4": 9, "6": 11, "s5": 0},
    ("gl2", None): {"1": 26, "2": 16, "3": 34, "4": 93, "6": 213, "s5": 4},
    ("sp4", None): {"2": 1164, "3": 4313},
}


def test_each_sweep_visits_exactly_its_pinned_pairs():
    for (name, n), pinned in SWEEP_VISITS.items():
        g = get(name, None if n is None else {"n": n})
        maps = derivation_space(g).basis
        visits = {code: _visits(g, identities._IDENTITIES[code], maps) for code in pinned}
        assert visits == pinned, name


# sweeps over all elements of filiform(60) whose every term has an empty
# index support at every head: they hold without a bracket
EMPTY_SUPPORT_CODES = ("3", "4", "6", "s5")


def test_sweeps_with_empty_supports_take_no_bracket():
    g = get("filiform", {"n": 60})
    for code in EMPTY_SUPPORT_CODES:
        rep, calls = _counted(g, code, ALL_ELEMENTS)
        assert rep.status == "holds" and calls == 0, (code, calls)


def test_sweeps_without_a_live_head_enter_none(monkeypatch):
    # identity 4 over all elements of filiform(60) has 37,820 heads and 6
    # over those of filiform(45) 46,575, none of them live: the sweep lists
    # no head, so it enters none
    listed = []
    heads = identities._Supports.heads

    def counted(self, *args):
        got = heads(self, *args)
        listed.append(len(got))
        return got

    monkeypatch.setattr(identities._Supports, "heads", counted)
    for n, code in ((60, "4"), (45, "6")):
        del listed[:]
        rep = check_quantified(get("filiform", {"n": n}), code, ALL_ELEMENTS)
        assert rep.status == "holds" and listed == [0], (code, listed)


def _stream(g, code, quant):
    maps = derivation_space(g).basis if quant is ALL_DERIVATIONS else None
    return list(identities._sweep(g, identities._IDENTITIES[code], None, maps))


def test_a_sweep_yields_only_nonzero_values():
    g = get("filiform", {"n": 10})
    for code, quant in FILIFORM10_HOLDING:
        assert _stream(g, code, quant) == [], code
    # identity 1 fails over all derivations of sl3: 602 of its 2,016 tuples
    # are nonzero
    values = _stream(get("sl3"), "1", ALL_DERIVATIONS)
    assert values and all(value for _, value in values)


if __name__ == "__main__":
    if sys.argv[1:] == ["--count"]:
        print(_g2_id1_calls()[1])
        sys.exit(0)
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(verdicts().items())]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
