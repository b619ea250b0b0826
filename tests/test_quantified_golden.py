"""Quantified verdicts of every catalog entry against a recorded golden file.

Each record holds the status, witness, value, conditions and rational
roots of one sweep: every catalog entry (filiform at n = 7), every
identity, and every sweep quantifier the identity admits.  To re-record
after an intended change of verdicts:

    PYTHONPATH=src python tests/test_quantified_golden.py > tests/data/quantified_golden.json
"""

import json
import os
import sys

from liedouble import (
    ALL_DERIVATIONS,
    ALL_ELEMENTS,
    ALL_INNER_DERIVATIONS,
    check_quantified,
    get,
    names,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "quantified_golden.json")

_SWEEPS = (
    ("1", "all-der", ALL_DERIVATIONS),
    ("1", "all-inner", ALL_INNER_DERIVATIONS),
    ("2", "all-der", ALL_DERIVATIONS),
    ("2", "all-inner", ALL_INNER_DERIVATIONS),
    ("3", "all-elem", ALL_ELEMENTS),
    ("4", "all-elem", ALL_ELEMENTS),
    ("6", "all-elem", ALL_ELEMENTS),
    ("s5", "all-elem", ALL_ELEMENTS),
)


def verdicts() -> dict:
    out = {}
    for name in names():
        g = get(name, {"n": 7} if name == "filiform" else None)
        for code, qname, quant in _SWEEPS:
            rep = check_quantified(g, code, quant)
            out[f"{name} {code} {qname}"] = {
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


def test_quantified_verdicts_match_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = verdicts()
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key


if __name__ == "__main__":
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(verdicts().items())]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
