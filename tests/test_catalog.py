"""Built-in algebra catalog, parameter handling, and JSON serialization."""

import json
from fractions import Fraction

import pytest

from liedouble import (
    ALL_DERIVATIONS,
    center,
    check_no_builtin_collision,
    check_quantified,
    derivations_of_bilinear,
    dumps,
    entry,
    get,
    is_nilpotent,
    load_file,
    loads,
    names,
    nilpotency_class,
    octonion_algebra,
    quaternion_algebra,
    save_file,
    shipped_example,
    table1,
)
from liedouble.errors import DuplicateName, UnknownName


EXPECTED_NAMES = [
    "r2",
    "n3",
    "r3lambda",
    "sl2",
    "n3+C",
    "n4",
    "r2+C2",
    "r2+r2",
    "sl2+C",
    "g1",
    "g2alpha",
    "g3",
    "g4ab",
    "g5alpha",
    "gl2",
    "filiform",
    "ex44",
    "ex413",
    "glambda",
    "sl3",
    "sp4",
    "g2",
]


def test_names_lists_all_builtins_in_stable_order():
    assert names() == EXPECTED_NAMES


def test_unknown_name_raises_descriptive_error():
    with pytest.raises(UnknownName) as info:
        get("nope")
    assert "no catalog entry named 'nope'" in str(info.value)


def test_entry_metadata():
    e = entry("ex413")
    assert e.name == "ex413"
    assert e.dim == 8
    assert e.note == "nilpotent of maximal class in dimension 8"
    f = entry("filiform")
    assert f.dim is None  # depends on the size parameter
    assert [p.name for p in f.params] == ["n"]


def test_get_without_assignment_yields_symbolic_family():
    g = get("glambda")
    assert g.params == ("lam",)
    assert g.is_parametric()


def test_scalar_parameters_are_all_or_nothing():
    with pytest.raises(ValueError):
        get("g4ab", {"alpha": Fraction(1)})
    g = get("g4ab", {"alpha": Fraction(1), "beta": Fraction(2)})
    assert g.params == ()


def test_unknown_parameter_rejected():
    with pytest.raises(ValueError):
        get("glambda", {"lam": Fraction(1), "bogus": Fraction(0)})


def test_size_parameter_requires_integer():
    with pytest.raises(ValueError):
        get("filiform", {"n": Fraction(5, 2)})
    assert get("filiform", {"n": 5}).dim == 5


def test_filiform_tables_satisfy_jacobi():
    # the catalog builds filiform(n) without the Jacobi check, since only
    # brackets with e1 are nonzero; _validate raises on any failing triple
    for n in [*range(3, 41), 200]:
        get("filiform", {"n": n})._validate()


def test_materialized_algebras_are_cached():
    assert get("sl2") is get("sl2")
    assert get("filiform", {"n": 6}) is get("filiform", {"n": 6})
    assert get("glambda", {"lam": Fraction(1)}) is get("glambda", {"lam": Fraction(1)})


def test_specific_structure_constants():
    g = get("glambda", {"lam": Fraction(1)})
    x2, x3, x4 = g.basis_element(1), g.basis_element(2), g.basis_element(3)
    # at this parameter value the (x3, x4) product collapses
    assert g.bracket(x3, x4).is_zero()
    assert g.bracket(x2, x3) == g.basis_element(4)


def test_trivially_extended_algebra_matches_reductive_one():
    # gl2 is sl2 plus a central line, so every identity verdict coincides
    gl2 = get("gl2")
    sl2c = get("sl2+C")
    assert gl2.dim == sl2c.dim == 4
    for ident in ("1", "2"):
        a = check_quantified(gl2, ident, ALL_DERIVATIONS).status
        b = check_quantified(sl2c, ident, ALL_DERIVATIONS).status
        assert a == b


def test_simple_and_classical_algebra_dimensions():
    assert get("sl3").dim == 8
    assert get("sp4").dim == 10
    g2 = get("g2")
    assert g2.dim == 14
    assert center(g2).dim == 0
    assert not is_nilpotent(g2)


def test_octonion_and_quaternion_derivation_algebras():
    assert quaternion_algebra().dim == 4
    assert octonion_algebra().dim == 8
    assert len(derivations_of_bilinear(quaternion_algebra())) == 3
    assert len(derivations_of_bilinear(octonion_algebra())) == 14


def test_eight_dimensional_example_is_maximal_class():
    g = get("ex413")
    assert g.dim == 8
    assert nilpotency_class(g) == 7


def test_serialization_round_trip_plain():
    g = get("n3")
    back = loads(dumps({"mine": g}))
    assert set(back) == {"mine"}
    assert back["mine"].bracket_lines() == g.bracket_lines()
    assert back["mine"].labels == g.labels


def test_serialization_round_trip_parametric():
    fam = get("glambda")
    back = loads(dumps({"fam": fam}))["fam"]
    assert back.params == ("lam",)
    assert back.labels == fam.labels
    assert back.bracket_lines() == fam.bracket_lines()
    spec = back.specialize({"lam": Fraction(1)})
    assert spec.bracket(spec.basis_element(2), spec.basis_element(3)).is_zero()


def test_save_and_load_file(tmp_path):
    path = tmp_path / "algebras.json"
    save_file(path, {"a": get("r2"), "b": get("n4")})
    back = load_file(path)
    assert set(back) == {"a", "b"}
    assert back["b"].dim == 4
    # the file itself is plain JSON
    with open(path, "r", encoding="utf-8") as handle:
        json.load(handle)


def test_serialized_form_is_deterministic():
    payload = {"a": get("r2"), "b": get("glambda")}
    assert dumps(payload) == dumps(payload)


def test_shipped_example_file_loads():
    example = shipped_example()
    assert set(example) == {"n3"}
    assert example["n3"].bracket_lines() == get("n3").bracket_lines()


def test_collision_with_builtin_names_is_rejected():
    with pytest.raises(DuplicateName):
        check_no_builtin_collision(["sl2"])
    check_no_builtin_collision(["custom1", "custom2"])


def test_table_of_verdicts_shape():
    rows = table1()
    assert len(rows) == 15
    assert [r.name for r in rows[:4]] == ["r2", "n3", "r3lambda", "sl2"]
    sl2_row = rows[3]
    assert sl2_row.marks == {"1": "✓", "2": "-", "3": "✓", "4": "✓"}
    last = rows[-1]
    assert last.name == "g5alpha"
    assert last.note == "alpha = 0,-1"
    assert last.marks == {"1": "-", "2": "-", "3": "✓", "4": "✓"}


def test_package_exports_every_public_name_once():
    import types

    import liedouble

    exported = liedouble.__all__
    assert len(exported) == len(set(exported)) == 103
    for name in exported:
        assert not isinstance(getattr(liedouble, name), types.ModuleType), name
    assert {"get", "check_quantified", "IdentityReport", "RMatrixReport", "LieDoubleError",
            "ParseError", "LinearMap"} <= set(exported)
    assert "Report" not in exported and "ValueTooLarge" not in exported
