"""Every CLI view against recorded digests of its exit code, stdout and stderr.

Each command below runs in all three formats; the golden file maps
``"<argv> --format <fmt>"`` to the sha256 of ``[exit code, stdout, stderr]``
as JSON.  Commands run in a scratch directory holding the data files they
name, so paths in the output do not depend on where the tests live.  The
set covers ``show``, ``invariants`` and ``derivations`` of every catalog
entry (filiform at n = 5), identities on a representative subset,
``rmatrix`` variants, external catalogs and the exit-2 cases.  To
re-record after an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.json
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from liedouble import dumps, get, names
from liedouble.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")

FORMATS = ("text", "json", "csv")

_ELEMENT_NAMES = ("r2", "n3", "r3lambda", "sl2", "g3", "g5alpha", "filiform")
_MAP_NAMES = _ELEMENT_NAMES + ("n4", "glambda")
_Z_SP4 = ("z1*A11 + z2*A12 + z3*A21 + z4*A22 + z5*B11 + z6*B12 + z7*B22 + z8*C11"
          " + z9*C12 + z10*C22")
_Z_SL3 = "z1*E12 + z2*E13 + z3*E23 + z4*E21 + z5*E31 + z6*E32 + z7*H1 + z8*H2"


def _files() -> dict:
    return {
        "extra.json": dumps({"ext": get("n4"), "fam": get("glambda")}),
        "clash.json": dumps({"sl2": get("n4")}),
        "op3.json": json.dumps([[0, 0, 0], [0, 1, 0], [0, 0, 2]]),
        "sym3.json": json.dumps([["t", 0, 0], [0, "t", 0], [0, 0, "2*t"]]),
        "label3.json": json.dumps([["e1", 0, 0], [0, 0, 0], [0, 0, 0]]),
        "short.json": json.dumps([[1]]),
    }


def _sized(name):
    return ("--param", "n=5") if name == "filiform" else ()


def cases() -> list:
    out = [("catalog-list",), ("--catalog", "extra.json", "catalog-list"), ("table1",)]
    for name in names():
        for command in ("show", "invariants", "derivations"):
            out.append((command, name) + _sized(name))
    out += [
        ("show", "glambda", "--param", "lam=2"),
        ("show", "fam", "--catalog", "extra.json"),
        ("show", "fam", "--catalog", "extra.json", "--param", "lam=-2/4"),
        ("invariants", "ext", "--catalog", "extra.json"),
        ("invariants", "g5alpha", "--param", "alpha=-1"),
        ("derivations", "n3", "--general", "2"),
        ("derivations", "r3lambda", "--general", "0"),
        ("derivations", "g4ab", "--general", "-1"),
    ]
    for name in _MAP_NAMES:
        for code in ("1", "2"):
            for quant in ("all-der", "all-inner"):
                out.append(("identity", name, "--id", code, "--quantifier", quant)
                           + _sized(name))
    for name in _ELEMENT_NAMES:
        for code in ("3", "4", "6", "s5"):
            out.append(("identity", name, "--id", code) + _sized(name))
    out += [
        ("identity", "n3", "--id", "id1"),
        ("identity", "sl2", "--id", "std5"),
        ("identity", "sl2", "--id", "4", "--z", "e1"),
        ("identity", "sl2", "--id", "3", "--z", "x*e1+e2"),
        ("identity", "g3", "--id", "3", "--z", "e1+e4", "--quantifier", "fixed"),
        ("identity", "n3", "--id", "2", "--map", "op3.json"),
        ("identity", "sl2", "--id", "1", "--map", "sym3.json"),
        ("rmatrix", "sl2", "--z", "e1"),
        ("rmatrix", "sl2", "--z", "e1", "--build-double"),
        ("rmatrix", "sl2", "--z", "x*e1+e2", "--build-double"),
        ("rmatrix", "n3", "--z", "e1", "--build-double"),
        ("rmatrix", "r3lambda", "--z", "e1", "--build-double"),
        ("rmatrix", "g4ab", "--z", "e2"),
        ("rmatrix", "ex44", "--z", "e1", "--build-double"),
        ("rmatrix", "sl2", "--matrix", "op3.json"),
        ("rmatrix", "sl2", "--matrix", "op3.json", "--build-double"),
        ("rmatrix", "n3", "--matrix", "sym3.json", "--build-double"),
        # a generic z in every coordinate: multivariate conditions, whose
        # printed term order follows the variable orders of the brackets
        ("identity", "sp4", "--id", "3", "--z", _Z_SP4),
        ("identity", "sp4", "--id", "4", "--z", _Z_SP4),
        ("rmatrix", "sl3", "--z", _Z_SL3),
        # exit 2
        ("rmatrix", "n3", "--matrix", "label3.json", "--build-double"),
        ("rmatrix", "sl2"),
        ("rmatrix", "sl2", "--z", "e1", "--matrix", "op3.json"),
        ("rmatrix", "sl3", "--matrix", "op3.json"),
        ("rmatrix", "sl2", "--matrix", "short.json"),
        ("rmatrix", "sl2", "--matrix", "missing.json"),
        ("show", "nope"),
        ("show", "filiform"),
        ("show", "glambda", "--param", "lam=1/0"),
        ("show", "glambda", "--param", "lam=t"),
        ("show", "glambda", "--param", "mu=1"),
        ("--param", "lam", "show", "glambda"),
        ("derivations", "n3", "--general", "t"),
        ("identity", "sl2"),
        ("identity", "sl2", "--id", "9"),
        ("identity", "sl2", "--id", "3", "--quantifier", "all-der"),
        ("identity", "sl2", "--id", "4", "--quantifier", "fixed"),
        ("identity", "sl2", "--id", "1", "--quantifier", "fixed"),
        ("identity", "sl2", "--id", "4", "--quantifier", "all-elem", "--z", "e1"),
        ("identity", "sl2", "--id", "4", "--z", "e1", "--map", "op3.json"),
        ("identity", "sl2", "--id", "4", "--z", "e9"),
        ("identity", "sl2", "--id", "4", "--z", "(x+1)^100000"),
        ("--catalog", "clash.json", "catalog-list"),
        ("--catalog", "extra.json", "--catalog", "extra.json", "catalog-list"),
        ("--catalog", "missing.json", "catalog-list"),
        ("bogus-command",),
        (),
    ]
    return out


def run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digests() -> dict:
    found = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for fname, text in _files().items():
            with open(os.path.join(tmp, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(tmp)
        try:
            for argv in cases():
                for fmt in FORMATS:
                    full = argv + ("--format", fmt)
                    blob = json.dumps(run(full), ensure_ascii=False).encode("utf-8")
                    found[" ".join(full)] = hashlib.sha256(blob).hexdigest()
        finally:
            os.chdir(here)
    return found


def test_cli_output_matches_golden_digests():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = digests()
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, changed[:10]


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
