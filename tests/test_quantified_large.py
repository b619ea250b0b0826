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

from liedouble import (
    ALL_DERIVATIONS,
    ALL_INNER_DERIVATIONS,
    LieAlgebra,
    check_quantified,
    get,
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


def _g2_id1_calls():
    g = get("g2")
    h = _Counting(g.dim, g.table, labels=g.labels, params=g.params)
    h.calls = 0
    rep = check_quantified(h, "1", ALL_DERIVATIONS)
    return rep, h.calls


def test_failing_sweep_stops_at_its_first_tuple():
    rep, calls = _g2_id1_calls()
    ref = check_quantified(get("g2"), "1", ALL_DERIVATIONS)
    assert rep.status == ref.status == "fails"
    assert rep.witness == ref.witness
    assert str(rep.value) == str(ref.value)
    assert calls <= G2_ID1_BRACKET_CALLS


if __name__ == "__main__":
    if sys.argv[1:] == ["--count"]:
        print(_g2_id1_calls()[1])
        sys.exit(0)
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(verdicts().items())]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
