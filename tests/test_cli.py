"""Command-line interface: formats, exit codes, and byte determinism."""

import json
import os

import pytest

from liedouble import dumps, get
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


def test_param_must_be_name_value(capsys):
    code, _, err = run(capsys, "--param", "lam", "show", "glambda")
    assert code == 2
    assert "usage error" in err


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
