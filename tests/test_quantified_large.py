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
from collections import Counter

from liedouble import (
    ALL_DERIVATIONS,
    ALL_ELEMENTS,
    ALL_INNER_DERIVATIONS,
    LieAlgebra,
    check_quantified,
    derivation_space,
    direct_sum,
    get,
    inner_derivations,
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


def _visits(g, spec, maps):
    """The (head, tuple) pairs a whole sweep visits: its return value."""
    values = identities._sweep(g, spec, None, maps if spec.argument == "map" else None)
    try:
        while True:
            next(values)
    except StopIteration as stop:
        return stop.value


def _computed(g, spec, maps):
    """How often a whole sweep computes each tail part and each inner value,
    by the ids of the arguments it passes: the tuple's basis vectors, or
    the rest's maps or vectors and the tuple's kept tail part."""
    counts = Counter()

    def counted(fn, skip):
        def wrapped(*args):
            counts[fn, tuple(map(id, args[skip:]))] += 1
            return fn(*args)
        return wrapped

    # tail(bracket, *tuple) and inner(bracket, memo, *rest, *part)
    spec = spec._replace(tail=spec.tail and counted(spec.tail, 1),
                         inner=spec.inner and counted(spec.inner, 2))
    _visits(g, spec, maps)
    return counts


# the tail parts and inner values that the sweeps of each algebra compute
# in all, over all derivations, all inner derivations and all elements.  On
# the sparse ex413 and filiform(6) + sl2 an ordering computes an inner value
# only at the tuples where its first term can be nonzero: 27 and 59 values
# if it computed one at every tuple of its head's walk
COMPUTED = {"ex413": 23, "gl2": 262, "sp4": 13125, "filiform6+sl2": 47}


def test_each_shared_value_is_computed_at_most_once_per_sweep():
    # a tuple's tail part, and a (rest, tuple) pair's inner value, are kept
    # for the call where a head first needs them, zeros included, so no
    # later head computes them again.  gl2 and sp4 take no symbolic phase;
    # ex413 and the sum do, and the sum fails identity 2
    for name, pinned in COMPUTED.items():
        g = direct_sum(get("filiform", {"n": 6}), get("sl2")) if "+" in name else get(name)
        spaces = derivation_space(g).basis, inner_derivations(g).basis
        total = 0
        for code, spec in identities._IDENTITIES.items():
            for maps in spaces if spec.argument == "map" else spaces[:1]:
                counts = _computed(g, spec, maps)
                assert max(counts.values(), default=1) == 1, (name, code)
                total += len(counts)
        assert total == pinned, name


# the (head, tuple) pairs each sweep visits over all derivations or all
# elements, in _IDENTITIES order.  On ex413 a head visits the tuples of its
# orderings only.  gl2 and sp4 are more than half full, so their sweeps take
# no symbolic phase: every head visits every tuple, and reads the tail parts
# and inner values kept where an earlier head computed them.  When the first
# head of each live rest filled the rest's row, and a later head walked only
# complete rows or the truthy tail parts the first head kept, ex413's 1, 3,
# 4 and 6 visited 4, 3, 9 and 11 pairs, gl2's 26, 34, 93 and 213 and sp4's 2
# and 3 1,164 and 4,313
SWEEP_VISITS = {
    ("filiform", 10): {"1": 0, "2": 0, "3": 0, "4": 0, "6": 0, "s5": 0},
    ("filiform", 16): {"1": 0, "2": 0, "3": 0, "4": 0, "6": 0, "s5": 0},
    ("ex413", None): {"1": 1, "2": 3, "3": 1, "4": 3, "6": 5, "s5": 0},
    ("gl2", None): {"1": 40, "2": 16, "3": 40, "4": 120, "6": 240, "s5": 4},
    ("sp4", None): {"2": 1200, "3": 6600},
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
