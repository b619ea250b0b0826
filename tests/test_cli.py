"""Command-line interface: formats, exit codes, and byte determinism."""

import json
import os
import random
import sys

import pytest

from liedouble import (
    Subspace,
    catalog,
    derived_series,
    dumps,
    get,
    is_characteristically_nilpotent,
    lower_central_series,
)
from liedouble.cli import main


HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_TABLE = os.path.join(HERE, "data", "table1_golden.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv_matches_golden_file(capsys):
    code, out, err = run(capsys, "table1", "--format", "csv")
    assert code == 0 and err == ""
    with open(GOLDEN_TABLE, "r", encoding="utf-8", newline="") as handle:
        assert out == handle.read()


def test_output_is_byte_deterministic(capsys):
    first = run(capsys, "show", "ex413", "--format", "json")
    second = run(capsys, "show", "ex413", "--format", "json")
    assert first == second
    t1 = run(capsys, "table1", "--format", "json")
    t2 = run(capsys, "table1", "--format", "json")
    assert t1 == t2


def test_json_reports_carry_schema_marker(capsys):
    for argv in (
        ("show", "n3"),
        ("invariants", "sl2"),
        ("catalog-list",),
        ("identity", "sl2", "--id", "1", "--quantifier", "all-der"),
    ):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        doc = json.loads(out)
        assert doc["schema"] == 1


def test_global_flags_accepted_before_or_after_command(capsys):
    after = run(capsys, "identity", "glambda", "--id", "2",
                "--quantifier", "all-der", "--param", "lam=1", "--format", "json")
    before = run(capsys, "--param", "lam=1", "--format", "json",
                 "identity", "glambda", "--id", "2", "--quantifier", "all-der")
    assert after == before
    assert after[0] == 0
    assert json.loads(after[1])["status"] == "holds"


def test_identity_defaults_to_natural_quantifier(capsys):
    code, out, _ = run(capsys, "identity", "sl2", "--id", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["quantifier"] == "all-elem"
    code2, out2, _ = run(capsys, "identity", "sl2", "--id", "1", "--format", "json")
    assert json.loads(out2)["quantifier"] == "all-der"


def test_failing_verdict_still_exits_zero(capsys):
    code, out, _ = run(capsys, "identity", "g3", "--id", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "fails"


def test_identity_with_fixed_element_payload(capsys):
    code, out, _ = run(capsys, "identity", "sl2", "--id", "4", "--z", "e1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["quantifier"] == "fixed"
    assert doc["status"] == "holds"


def test_rmatrix_command_with_element(capsys):
    code, out, _ = run(capsys, "rmatrix", "sl2", "--z", "e1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["classical"]["status"] == "holds"
    assert doc["mybe"]["status"] == "unique"
    assert doc["r31"] is True


def test_rmatrix_requires_exactly_one_operator_source(capsys):
    code, _, err = run(capsys, "rmatrix", "sl2")
    assert code == 2 and err.rstrip().endswith("needs exactly one of --z EXPR or --matrix FILE")
    code2, _, err2 = run(capsys, "rmatrix", "sl2", "--z", "e1",
                         "--matrix", "whatever.json")
    assert code2 == 2 and "exactly one" in err2


def test_rmatrix_matrix_file(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps([[0, 0, 0], [0, 1, 0], [0, 0, 2]]), encoding="utf-8")
    code, out, _ = run(capsys, "rmatrix", "sl2", "--matrix", str(path),
                       "--format", "json")
    assert code == 0
    json.loads(out)


def test_fixed_map_conditions_keep_their_print_order(tmp_path, capsys):
    # a rational column entry added to a rational-function value keeps the
    # operand order of an all-Scalar sum, and so the printed variable order
    path = tmp_path / "m.json"
    path.write_text(json.dumps([["a", "(a*b + b)/(b - a)", "2"],
                                ["-1", "a", "b/(a + 1)"],
                                ["3", "a", "1"]]), encoding="utf-8")
    code, out, err = run(capsys, "identity", "sl2", "--id", "2", "--map", str(path))
    assert (code, err) == (0, "")
    assert "  conditions: 6*a - b + 6; a - 1\n" in out


def test_unknown_name_is_a_validation_error(capsys):
    code, out, err = run(capsys, "show", "nope")
    assert code == 2
    assert out == ""
    assert err == "error: no catalog entry named 'nope'\n"


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "identity", "sl2")[0] == 2  # missing --id
    assert run(capsys, "bogus-command")[0] == 2
    assert run(capsys)[0] == 2  # no command at all
    assert run(capsys, "table1", "--format", "yaml")[0] == 2
    assert run(capsys, "identity", "sl2", "--id", "9")[0] == 2


def test_incompatible_quantifier_is_a_validation_error(capsys):
    code, _, err = run(capsys, "identity", "sl2", "--id", "3",
                       "--quantifier", "all-der")
    assert code == 2
    assert err.startswith("error:")


def test_unknown_identity_and_quantifier_messages(capsys):
    assert run(capsys, "identity", "sl2", "--id", "7") == (2, "", "error: unknown identity '7'\n")
    code, out, err = run(capsys, "identity", "sl2", "--id", "3", "--quantifier", "fixed")
    assert code == 2 and out == "" and err.startswith("error:")


def test_param_must_be_name_value(capsys):
    code, _, err = run(capsys, "--param", "lam", "show", "glambda")
    assert code == 2
    assert "usage error" in err


def test_repeated_param_is_a_usage_error(capsys):
    # the last value used to win silently, and a --param before the command
    # name was dropped when the command had one of its own
    for argv in (
        ("show", "glambda", "--param", "lam=1", "--param", "lam=2"),
        ("--param", "lam=1", "show", "glambda", "--param", "lam=1"),
        ("show", "g4ab", "--param", "alpha=2", "--param", "beta=1", "--param", "alpha=3"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        name = argv[argv.index("--param") + 1].partition("=")[0]
        assert err == f"usage error: --param {name} is given more than once\n", argv
    # before and after the command name, the assignments add up
    both = run(capsys, "show", "g4ab", "--param", "alpha=2", "--param", "beta=1")
    assert both[0] == 0
    assert run(capsys, "--param", "alpha=2", "show", "g4ab", "--param", "beta=1") == both


def test_bad_parameter_values_are_validation_errors(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(dumps({"tri": get("glambda")}), encoding="utf-8")
    for argv in (
        ("show", "glambda", "--param", "lam=1/0"),
        ("show", "glambda", "--param", "lam=t"),
        ("show", "tri", "--catalog", str(path), "--param", "lam=1/0"),
        ("derivations", "n3", "--general", "1/0"),
        ("derivations", "n3", "--general", "t"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and "Traceback" not in err, argv
    specialized = run(capsys, "show", "tri", "--catalog", str(path),
                      "--param", "lam=-2/4", "--format", "json")
    assert specialized[0] == 0
    assert json.loads(specialized[1])["params"] == []


def test_missing_required_scalar_parameter_is_fine_for_families(capsys):
    # families stay symbolic when no assignment is given
    code, out, _ = run(capsys, "show", "glambda", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == ["lam"]


def test_external_catalog_file(tmp_path, capsys):
    path = tmp_path / "extra.json"
    path.write_text(dumps({"mine": get("n4")}), encoding="utf-8")
    code, out, _ = run(capsys, "--catalog", str(path), "show", "mine",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["dim"] == 4
    listed = run(capsys, "--catalog", str(path), "catalog-list", "--format", "json")
    names = [row["name"] for row in json.loads(listed[1])["entries"]]
    assert "mine" in names


def test_external_catalog_rejects_builtin_collision(tmp_path, capsys):
    path = tmp_path / "clash.json"
    path.write_text(dumps({"sl2": get("n4")}), encoding="utf-8")
    code, _, err = run(capsys, "--catalog", str(path), "catalog-list")
    assert code == 2
    assert err.startswith("error:")


def test_invariants_builds_each_series_once(capsys, monkeypatch):
    # ex413 has nilpotency class 7 and solvability class 3, so its lower
    # central and derived series take 7 and 3 spans; the command spans
    # each once, plus the series of characteristic nilpotency
    calls = []
    span = Subspace.span

    def counted(*args, **kwargs):
        calls.append(args)
        return span(*args, **kwargs)

    def spans(call):
        calls.clear()
        call()
        return len(calls)

    monkeypatch.setattr(Subspace, "span", staticmethod(counted))
    monkeypatch.setattr(catalog, "_MATERIALIZED", {})
    build = catalog.entry("ex413").build
    lower = spans(lambda: lower_central_series(build()))
    derived = spans(lambda: derived_series(build()))
    characteristic = spans(lambda: is_characteristically_nilpotent(build()))
    assert (lower, derived) == (7, 3)
    total = spans(lambda: run(capsys, "invariants", "ex413", "--format", "csv"))
    assert total == lower + derived + characteristic


def test_invariants_text_format(capsys):
    code, out, _ = run(capsys, "invariants", "ex413")
    assert code == 0
    assert "nilpotent: yes" in out
    assert "characteristically nilpotent: yes" in out


def test_derivations_command_reports_dimension(capsys):
    code, out, _ = run(capsys, "derivations", "n3", "--format", "json")
    assert code == 0
    assert json.loads(out)["dim"] == 6


def test_check_paper_reports_known_failure_but_exits_zero(capsys):
    code, out, _ = run(capsys, "check-paper")
    assert code == 0
    assert "overall: FAIL" in out
    assert out.count("criterion") >= 12


def test_deeply_nested_literals_exit_two(tmp_path, capsys):
    # a literal nested past the parser's depth limit is a parse error, not
    # a RecursionError; the limit itself still parses
    deep = "(" * 250 + "1" + ")" * 250
    path = tmp_path / "deep.json"
    path.write_text(json.dumps([[deep, 0, 0], [0, 0, 0], [0, 0, 0]]), encoding="utf-8")
    catalog = tmp_path / "deep_catalog.json"
    catalog.write_text(json.dumps([{"name": "deep", "dim": 3, "brackets": [
        {"i": 1, "j": 2, "value": {"3": deep}}]}]), encoding="utf-8")
    for argv in (
        ("show", "deep", "--catalog", str(catalog)),
        ("identity", "sl2", "--id", "4", "--z", f"{deep}*e1"),
        ("show", "glambda", "--param", f"lam={deep}"),
        ("identity", "n3", "--id", "2", "--map", str(path)),
        ("rmatrix", "n3", "--matrix", str(path)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and "Traceback" not in err, argv
    limit = "(" * 100 + "1" + ")" * 100
    assert run(capsys, "show", "glambda", "--param", f"lam={limit}")[0] == 0
    over = "(" * 101 + "1" + ")" * 101
    assert run(capsys, "show", "glambda", "--param", f"lam={over}")[0] == 2


def test_large_exponent_exits_two(capsys):
    # an exponent past the parser's limit is a parse error, raised before
    # the power is computed
    code, out, err = run(capsys, "identity", "sl2", "--id", "4", "--z", "(x+1)^100000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exponent" in err and "Traceback" not in err
    code, out, _ = run(capsys, "identity", "sl2", "--id", "4", "--z", "(x+1)^64*e1")
    assert code == 0 and out


def test_nested_power_past_the_polynomial_exponent_limit_exits_two(capsys):
    # every "^" is within the parser's limit, but nested powers multiply:
    # x^(64^3) is past the exponent a polynomial can hold, a typed error
    for z in ("(((x^64)^64)^64)*e1", "((((((x^64)^64)^64)^64)^64)^64)*e1"):
        code, out, err = run(capsys, "identity", "sl2", "--id", "4", "--z", z)
        assert code == 2 and out == "", z
        assert err == "error: exponent above 32767 in a polynomial\n", z
    code, out, _ = run(capsys, "identity", "sl2", "--id", "4", "--z", "((x^64)^64)*e1")
    assert code == 0 and out


def test_long_integer_literal_exits_two(capsys):
    # an integer literal past the parser's digit limit is a parse error,
    # not Python's int-string ValueError
    code, out, err = run(capsys, "identity", "sl2", "--id", "4", "--z", "1" * 5000 + "*e1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "digits" in err and "Traceback" not in err
    code, out, _ = run(capsys, "identity", "sl2", "--id", "4", "--z", "1" * 600 + "*e1")
    assert code == 0 and out


def test_null_matrix_cell_is_rejected(tmp_path, capsys):
    path = tmp_path / "null.json"
    path.write_text(json.dumps([[None, 0, 0], [0, 0, 0], [0, 0, 0]]), encoding="utf-8")
    for argv in (
        ("identity", "n3", "--id", "2", "--map", str(path)),
        ("rmatrix", "n3", "--matrix", str(path)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:"), argv


def test_matrix_cells_naming_a_basis_label_are_rejected(tmp_path, capsys):
    # the same contract on every algebra and command, checked before any
    # verdict is computed
    for n in (3, 4):
        grid = [[0] * n for _ in range(n)]
        grid[0][0] = "e1"
        (tmp_path / f"label{n}.json").write_text(json.dumps(grid), encoding="utf-8")
    for argv in (
        ("rmatrix", "n3", "--matrix", str(tmp_path / "label3.json")),
        ("rmatrix", "n4", "--matrix", str(tmp_path / "label4.json")),
        ("identity", "n3", "--id", "2", "--map", str(tmp_path / "label3.json")),
    ):
        assert run(capsys, *argv) == (
            2, "", "error: parameter names collide with basis labels\n"), argv


def test_value_too_large_to_print_exits_two(capsys):
    # a value past the interpreter's int-string limit is a typed error, so
    # the command exits 2 with a one-line message
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < 38_400:
        pytest.skip("this interpreter prints integers of any length")
    code, out, err = run(capsys, "identity", "sl3", "--id", "3", "--quantifier", "fixed",
                         "--z", "9" * 600 + "^64*e1")
    assert (code, out) == (2, "")
    assert err.startswith("error: value too large to print") and "Traceback" not in err


def test_huge_element_coordinate_exits_two(capsys, tmp_path):
    # a failing value whose rational coordinate is past the int-string
    # limit prints through the same typed error as any other huge value
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < 38_400:
        pytest.skip("this interpreter prints integers of any length")
    big = "(((10^64)^64)^2)"
    path = tmp_path / "big.json"
    path.write_text(json.dumps([[big, "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]))
    for argv in (("identity", "ex413", "--id", "3", "--z", f"{big}*x1 + x2"),
                 ("identity", "sl2", "--id", "2", "--map", str(path))):
        for fmt in ("text", "json", "csv"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, out) == (2, "")
            assert err == f"error: value too large to print: over {limit} digits\n"


_FUZZ_NAMES = ("r2", "n3", "sl2", "r3lambda", "n4", "g4ab", "g5alpha", "glambda",
               "filiform", "nope", "", "sl2+C")
_FUZZ_VALUES = {
    "--param": ("lam=1", "lam=-2/3", "lam=1/0", "lam=t", "alpha=0", "alpha=-1", "beta=2",
                "n=4", "n=2", "n=x", "mu=1", "=", "lam"),
    "--z": ("e1", "e2+x*e3", "2*e1-e3/3", "t/(t-1)*e1", "1/0*e1", "(", "e9", "x^65*e1",
            "9" * 700 + "*e1", "((((e1", "e1*e2", "0", "", "E11+E22"),
    "--general": ("2", "0", "-1/2", "1/0", "t", "", "9" * 700),
}
_FUZZ_COMMANDS = {
    "catalog-list": (),
    "show": (),
    "invariants": (),
    "derivations": ("--general",),
    "identity": ("--id", "--quantifier", "--z", "--map"),
    "rmatrix": ("--z", "--matrix", "--build-double"),
}
_FUZZ_COMMON = ("--format", "--param", "--catalog")
_FUZZ_IDS = ("1", "2", "3", "4", "6", "s5", "id1", "std5", "7", "")
_FUZZ_QUANTIFIERS = ("all-der", "all-inner", "all-elem", "fixed", "some")


def _fuzz_argv(rng, files):
    """Mostly well-formed argv with hostile values; now and then a flag the
    command does not take, a missing name, or an unknown command."""
    command = rng.choice(list(_FUZZ_COMMANDS) + ["bogus"])
    argv = [command]
    if (command != "catalog-list") == (rng.random() < 0.95):
        argv.append(rng.choice(_FUZZ_NAMES))
    own = _FUZZ_COMMANDS.get(command, ())
    for _ in range(rng.randrange(5)):
        if rng.random() < 0.05:
            flag = rng.choice(_FUZZ_COMMON + ("--general", "--id", "--map", "--build-double"))
        else:
            flag = rng.choice(own * 3 + _FUZZ_COMMON)
        argv.append(flag)
        if flag == "--format":
            argv.append(rng.choice(("text", "json", "csv", "csv", "yaml")))
        elif flag == "--id":
            argv.append(rng.choice(_FUZZ_IDS))
        elif flag == "--quantifier":
            argv.append(rng.choice(_FUZZ_QUANTIFIERS))
        elif flag in ("--catalog", "--map", "--matrix"):
            argv.append(rng.choice(files))
        elif flag != "--build-double":
            argv.append(rng.choice(_FUZZ_VALUES[flag]))
    if command == "identity" and "--id" not in argv and rng.random() < 0.9:
        argv += ["--id", rng.choice(_FUZZ_IDS)]
    if "filiform" in argv and rng.random() < 0.7:
        argv += ["--param", f"n={rng.choice((3, 4, 5))}"]
    return argv


def test_seeded_fuzz_exits_zero_or_two_without_traceback(tmp_path, capsys):
    files = {
        "good.json": [[0, 0, 0], [0, 1, 0], [0, 0, 2]],
        "sym.json": [["t", 0, 0], [0, "t", 0], [0, 0, "2*t"]],
        "ragged.json": [[1, 2], [3]],
        "nulls.json": [[None]],
        "text.json": "not a matrix",
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    (tmp_path / "broken.json").write_text("{", encoding="utf-8")
    (tmp_path / "catalog.json").write_text(dumps({"mine": get("n4")}), encoding="utf-8")
    paths = [str(p) for p in sorted(tmp_path.iterdir())] + [str(tmp_path / "missing.json")]
    rng = random.Random(20141)
    codes = set()
    for _ in range(300):
        argv = _fuzz_argv(rng, paths)
        code, out, err = run(capsys, *argv)
        assert code in (0, 2), argv
        assert "Traceback" not in err, argv
        assert (out == "") == (code == 2), argv
        codes.add(code)
    assert codes == {0, 2}
