"""Every input guard, pinned by exception type and message.

A guard that the command line can reach is also run through ``main``: it
must exit 2, print nothing on stdout, and print ``error: <message>`` on
stderr.
"""

import errno
import json
import os
import sys
from fractions import Fraction

import pytest

from liedouble import (
    LieAlgebra,
    Matrix,
    Poly,
    Scalar,
    build_double,
    check_quantified,
    from_matrices,
    get,
    id6_from_id3_audit,
    is_characteristically_nilpotent,
    load_file,
    loads,
    parse_element,
    parse_scalar,
    poly_gcd_univariate,
    rational_roots,
    recognize_r31,
    solve_affine,
    solve_columns,
)
from liedouble.catalog import MAX_DIM
from liedouble.cli import _load_external, _materialize, build_parser, main
from liedouble.errors import (
    AlgebraMismatch,
    ArityMismatch,
    BadAssignment,
    BadTable,
    DivisionByZero,
    DuplicateName,
    ExcludedParameterValue,
    InexactDivision,
    NegativePower,
    NotAScalar,
    NotClosed,
    NotIndependent,
    NotParameterFree,
    NotRational,
    NotUnivariate,
    OptionConflict,
    ParseError,
    ShapeMismatch,
    UnknownDoubleKind,
    UnknownName,
    UnreadableFile,
    ValueTooLarge,
    ZeroPolynomial,
)
from liedouble.identities import Fixed, eval_identity
from liedouble.scalars import (
    MAX_BITS,
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_POLY_EXPONENT,
    MAX_TERMS,
)


def _entry(**fields):
    doc = {"name": "x", "dim": 3, "brackets": [{"i": 1, "j": 2, "value": {"3": 1}}]}
    doc.update(fields)
    return doc


def _bracket(**fields):
    bracket = {"i": 1, "j": 2, "value": {"3": 1}}
    bracket.update(fields)
    return [_entry(brackets=[bracket])]


def _text(doc):
    return doc if isinstance(doc, str) else json.dumps(doc)


_LIMIT = sys.get_int_max_str_digits()

# (id, file contents, exception type, message)
CATALOG_FILES = [
    ("invalid-json", "[", ParseError, "line 1: invalid JSON: Expecting value"),
    # json's int() refuses an integer past the int-string limit, when one is set
    *[("huge-integer", '[{"name": "x", "dim": ' + "9" * (_LIMIT + 1) + "}]", ParseError,
       f"invalid JSON: integer of more than {_LIMIT} digits")] * bool(_LIMIT),
    ("not-a-list", {"name": "x"}, ParseError, "catalog file must be a JSON list of entries"),
    ("entry-not-an-object", [3], ParseError, "entry 1: expected an object"),
    ("entry-without-name", [{"dim": 1}], ParseError, "entry 1: missing or empty name"),
    ("dim-bool", [_entry(dim=True)], ParseError, "entry 'x': dim must be a nonnegative integer"),
    ("dim-negative", [_entry(dim=-1)], ParseError,
     "entry 'x': dim must be a nonnegative integer"),
    ("dim-over-the-cap", [_entry(dim=MAX_DIM + 1)], ParseError,
     f"entry 'x': dim must be at most {MAX_DIM}"),
    ("params-not-identifiers", [_entry(params=["a b"])], ParseError,
     "entry 'x': params must be a list of identifiers"),
    ("params-duplicate", [_entry(params=["a", "a"])], ParseError,
     "entry 'x': duplicate parameter names"),
    ("labels-too-few", [_entry(labels=["a", "b"])], ParseError,
     "entry 'x': labels must be 3 distinct nonempty strings"),
    ("params-collide-with-labels", [_entry(params=["e1"])], BadTable,
     "parameter names collide with basis labels"),
    ("brackets-not-a-list", [_entry(brackets={})], ParseError,
     "entry 'x': brackets must be a list"),
    ("bracket-not-an-object", [_entry(brackets=[1])], ParseError,
     "entry 'x': each bracket must be an object"),
    ("bracket-i-bool", _bracket(i=True), ParseError,
     "entry 'x': bracket needs 1 <= i < j <= dim, got (True,2)"),
    ("bracket-j-bool", _bracket(i=0, j=True), ParseError,
     "entry 'x': bracket needs 1 <= i < j <= dim, got (0,True)"),
    ("bracket-j-out-of-range", _bracket(j=4), ParseError,
     "entry 'x': bracket needs 1 <= i < j <= dim, got (1,4)"),
    ("bracket-duplicate", [_entry(brackets=[{"i": 1, "j": 2, "value": {"3": 1}}] * 2)],
     ParseError, "entry 'x': duplicate bracket (1,2)"),
    ("value-empty", _bracket(value={}), ParseError,
     "entry 'x': bracket (1,2) needs a nonempty value map"),
    ("value-bad-index", _bracket(value={"x": 1}), ParseError,
     "entry 'x': bad coordinate index 'x' in (1,2)"),
    ("value-float", _bracket(value={"3": 1.5}), ParseError,
     "entry 'x': coefficient for 3 must be exact"),
    ("value-bool", _bracket(value={"3": True}), ParseError,
     "entry 'x': coefficient for 3 must be exact"),
    ("value-null", _bracket(value={"3": None}), ParseError,
     "entry 'x': coefficient for 3 must be exact"),
    ("value-int-over-digit-limit", _bracket(value={"3": 10 ** 700}), ParseError,
     "entry 'x': (1,2) -> 3: integer of more than 600 digits in literal"),
    ("value-string-over-digit-limit", _bracket(value={"3": str(10 ** 700)}), ParseError,
     "entry 'x': (1,2) -> 3: integer of more than 600 digits in literal"),
    ("value-unknown-name", _bracket(value={"3": "q"}), ParseError,
     "entry 'x': (1,2) -> 3: unknown name 'q'"),
    ("entry-duplicate", [_entry(), _entry()], DuplicateName, "x"),
]


@pytest.mark.parametrize("doc, exc, message", [c[1:] for c in CATALOG_FILES],
                         ids=[c[0] for c in CATALOG_FILES])
def test_catalog_file_guards(doc, exc, message, tmp_path, capsys):
    text = _text(doc)
    with pytest.raises(exc) as info:
        loads(text)
    assert type(info.value) is exc and info.value.args[0] == message
    path = tmp_path / "cat.json"
    path.write_text(text, encoding="utf-8")
    assert main(["--catalog", str(path), "catalog-list"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_integer_cells_load_as_their_string_cells():
    ints = loads(json.dumps(_bracket(value={"3": -12})))["x"]
    strings = loads(json.dumps(_bracket(value={"3": "-12"})))["x"]
    assert ints._table == strings._table == {(0, 1): {2: -12}}
    assert type(ints._table[(0, 1)][2]) is int


X, Y = Poly.variable("x"), Poly.variable("y")
_TOO_DEEP = "(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1)
_TOO_LARGE = f"literal too large: over {MAX_TERMS} terms or {MAX_BITS} coefficient bits"

E12, E21, E13 = ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
                 [[0, 0, 1], [0, 0, 0], [0, 0, 0]])

# (id, size value, exception type, message): filiform's n takes the literal
# syntax of a scalar value, and must be integral
_SIZES = [
    ("not-integral", "7/2", ExcludedParameterValue, "n must be an integer"),
    ("with-a-decimal-point", "3.5", ParseError, "unexpected character '.' in '3.5'"),
    ("with-a-digit-separator", "5_0", ParseError, "expected end but found '_0' in '5_0'"),
    ("over-digit-limit", "9" * 700, ParseError,
     f"integer of more than {MAX_DIGITS} digits in literal"),
]

# (id, call, exception type, message)
LIBRARY = [
    ("labels-too-few", lambda: LieAlgebra(2, {}, labels=("a",)), BadTable,
     "need one distinct label per basis vector"),
    ("labels-repeated", lambda: LieAlgebra(2, {}, labels=("a", "a")), BadTable,
     "need one distinct label per basis vector"),
    ("params-collide-with-labels", lambda: LieAlgebra(2, {}, params=("e2",)), BadTable,
     "parameter names collide with basis labels"),
    ("bracket-index-out-of-range", lambda: LieAlgebra(2, {(0, 2): {0: 1}}), BadTable,
     "bracket index out of range: (0, 2)"),
    ("bracket-of-a-vector-with-itself", lambda: LieAlgebra(2, {(1, 1): {0: 1}}), BadTable,
     "[e2, e2] must vanish"),
    ("bracket-component-out-of-range", lambda: LieAlgebra(2, {(0, 1): {2: 1}}), BadTable,
     "bracket component out of range: 2"),
    ("element-index-out-of-range", lambda: get("n3").element({3: 1}), ShapeMismatch,
     "coordinate index out of range"),
    ("element-coordinate-count", lambda: get("n3").element((1, 2)), ShapeMismatch,
     "coordinate count does not match the dimension"),
    ("bracket-of-basis-index-out-of-range", lambda: get("n3").bracket_sparse({3: 1}, {0: 1}),
     ShapeMismatch, "coordinate index out of range for size 3"),
    ("bracket-index-out-of-range-in-a-sum",
     lambda: get("n3").bracket_sparse({0: 1, 3: 1}, {1: 1}), ShapeMismatch,
     "coordinate index out of range for size 3"),
    ("specialize-unknown-parameter", lambda: get("glambda").specialize({"mu": 1}),
     BadAssignment, "unknown parameter 'mu'"),
    ("specialize-unassigned-parameter", lambda: get("g4ab").specialize({"alpha": 1}),
     BadAssignment, "unassigned parameters: ['beta']"),
    ("label-index-unknown", lambda: get("n3").label_index("x"), UnknownName,
     "no basis vector labeled 'x'"),
    ("from-matrices-none", lambda: from_matrices([]), ShapeMismatch, "need at least one matrix"),
    ("from-matrices-unequal-sizes", lambda: from_matrices([[[0, 1], [0, 0]], E12]),
     ShapeMismatch, "all matrices must be square of equal size"),
    ("from-matrices-dependent", lambda: from_matrices([E12, E13, [[0, 2, 2]] + E12[1:]]),
     NotIndependent, "the given matrices are linearly dependent"),
    ("from-matrices-not-closed", lambda: from_matrices([E12, E21]), NotClosed,
     "commutator of generators 1 and 2 lies outside the span"),
    ("solve-affine-rhs-length", lambda: solve_affine(Matrix(E12), (1, 2)), ShapeMismatch,
     "right-hand side length does not match row count"),
    ("solve-columns-rhs-length", lambda: solve_columns(Matrix(E12), [(1, 2, 3), (1, 2)]),
     ShapeMismatch, "right-hand side length does not match row count"),
    ("element-label-in-denominator", lambda: parse_element(get("n3"), "1/e1"), ParseError,
     "basis labels cannot appear in a denominator"),
    ("element-product-of-labels", lambda: parse_element(get("n3"), "e1*e2"), ParseError,
     "expression must be linear in the basis labels"),
    ("element-power-of-a-label", lambda: parse_element(get("n3"), "e1^2"), ParseError,
     "expression must be linear in the basis labels"),
    ("eval-identity-arity", lambda: eval_identity(get("n3"), 4, {0: 1}), ArityMismatch,
     "identity 4 takes 3 slots, got 1"),
    ("fixed-payload-neither-map-nor-element",
     lambda: check_quantified(get("n3"), 3, Fixed("e1")), ArityMismatch,
     "fixed quantifier payload must be a map or an element"),
    ("not-a-quantifier", lambda: check_quantified(get("n3"), 3, "all-elem"), ArityMismatch,
     "not a quantifier: 'all-elem'"),
    ("matrix-ragged", lambda: Matrix([[1, 2], [3]]), ShapeMismatch, "ragged matrix rows"),
    ("matrix-not-square", lambda: Matrix([[1, 2, 3]]).dim, ShapeMismatch,
     "a 1x3 matrix is not square"),
    ("matrix-vector-length", lambda: Matrix([[1, 2, 3]]).apply_vec((1, 2)), ShapeMismatch,
     "vector length does not match column count"),
    ("matrix-shapes-do-not-chain", lambda: Matrix([[1, 2, 3]]).compose(Matrix([[1], [1]])),
     ShapeMismatch, "matrix shapes do not chain"),
    ("matrix-shapes-differ", lambda: Matrix([[1]]) + Matrix([[1, 2]]), ShapeMismatch,
     "matrix shapes differ"),
    ("filiform-too-small", lambda: get("filiform", {"n": "2"}), ExcludedParameterValue,
     "filiform needs n >= 3"),
    ("filiform-over-the-cap", lambda: get("filiform", {"n": MAX_DIM + 1}),
     ExcludedParameterValue, f"filiform needs n <= {MAX_DIM}"),
    *[(f"size-{what}", lambda raw=raw: get("filiform", {"n": raw}), exc, message)
      for what, raw, exc, message in _SIZES],
    ("get-size-missing", lambda: get("filiform"), BadAssignment,
     "catalog entry filiform needs integer n"),
    ("get-unknown-parameter", lambda: get("filiform", {"n": 5, "m": 1}), BadAssignment,
     "catalog entry filiform has no parameter m"),
    ("get-partial-assignment", lambda: get("g4ab", {"alpha": 1}), BadAssignment,
     "catalog entry g4ab needs all of: alpha, beta"),
    # an int or Fraction value is held to the digit limit of its literal,
    # also past the int-string limit, where it has no string to parse
    ("get-int-over-digit-limit", lambda: get("glambda", {"lam": 10 ** MAX_DIGITS}), ParseError,
     f"integer of more than {MAX_DIGITS} digits in literal"),
    ("get-fraction-over-digit-limit",
     lambda: get("glambda", {"lam": Fraction(1, 10 ** MAX_DIGITS)}), ParseError,
     f"integer of more than {MAX_DIGITS} digits in literal"),
    ("get-int-past-the-int-string-limit", lambda: get("glambda", {"lam": 10 ** 5000}),
     ParseError, f"integer of more than {MAX_DIGITS} digits in literal"),
    ("get-size-past-the-int-string-limit", lambda: get("filiform", {"n": 10 ** 5000}),
     ParseError, f"integer of more than {MAX_DIGITS} digits in literal"),
    ("external-entry-unknown-parameter",
     lambda: _materialize("x", {"q": "1"}, loads(json.dumps([_entry()]))), BadAssignment,
     "x has no parameter q"),
    ("double-unknown-kind", lambda: build_double(get("n3"), Matrix(E12), kind="twisted"),
     UnknownDoubleKind, "unknown double kind 'twisted'"),
    ("element-sum-across-algebras", lambda: get("n3").basis_element(0) + get("sl2").basis_element(0),
     AlgebraMismatch, "elements live in different algebras"),
    ("element-difference-across-algebras",
     lambda: get("n3").basis_element(0) - get("sl2").basis_element(0), AlgebraMismatch,
     "elements live in different algebras"),
    ("poly-negative-power", lambda: X ** -1, NegativePower, "negative polynomial power"),
    ("poly-zero-leading-term", lambda: Poly.const(0).leading(), ZeroPolynomial,
     "zero polynomial has no leading term"),
    ("poly-division-by-zero", lambda: X.exact_div(Poly.const(0)), DivisionByZero,
     "polynomial division by zero"),
    ("poly-inexact-division", lambda: (X + Poly.const(1)).exact_div(X), InexactDivision,
     "inexact polynomial division"),
    # Poly arithmetic takes Polys only: a plain number is a TypeError
    ("poly-plus-int", lambda: X + 1, TypeError,
     "unsupported operand type(s) for +: 'Poly' and 'int'"),
    ("poly-minus-int", lambda: X - 1, TypeError,
     "unsupported operand type(s) for -: 'Poly' and 'int'"),
    ("poly-times-int", lambda: X * 2, TypeError,
     "unsupported operand type(s) for *: 'Poly' and 'int'"),
    ("poly-exact-div-by-int", lambda: X.exact_div(2), NotAScalar,
     "cannot divide a Poly by int"),
    # one row per limit of a literal, each one past its bound
    ("literal-nested-too-deep", lambda: parse_scalar(_TOO_DEEP), ParseError,
     f"parentheses nested more than {MAX_DEPTH} deep in literal"),
    ("literal-exponent-over-the-cap", lambda: parse_scalar(f"(x+1)^{MAX_EXPONENT + 1}"),
     ParseError, f"exponent above {MAX_EXPONENT} in literal"),
    ("literal-integer-over-digit-limit", lambda: parse_scalar("9" * (MAX_DIGITS + 1)),
     ParseError, f"integer of more than {MAX_DIGITS} digits in literal"),
    ("poly-exponent-over-the-cap", lambda: parse_scalar("((x^64)^64)^64"), ValueTooLarge,
     f"exponent above {MAX_POLY_EXPONENT} in a polynomial"),
    # each '*' and '^' of a literal is bounded from its operands' sizes
    ("literal-power-of-a-power", lambda: parse_scalar("((x+1)^64)^32"), ParseError,
     _TOO_LARGE),
    ("literal-power-in-three-variables", lambda: parse_scalar("((x+y+1)^16)^8"), ParseError,
     _TOO_LARGE),
    ("literal-nested-integer-powers", lambda: parse_scalar("(((2^64)^64)^64)^64"),
     ParseError, _TOO_LARGE),
    ("literal-product-of-powers", lambda: parse_scalar("(a+b+c+d)^14*(a+b+c+d)^14"),
     ParseError, _TOO_LARGE),
    # a sum or difference with a denominator gets the bound of a product
    ("literal-sum-of-fractions", lambda: parse_scalar("1/(x+1)^32 + 1/(y+1)^32 + 1/(w+1)^32"),
     ParseError, _TOO_LARGE),
    ("literal-difference-of-fractions",
     lambda: parse_scalar("1/(x+1)^16 - 1/(y+1)^16 - 1/(w+1)^16 - 1/(v+1)^16"),
     ParseError, _TOO_LARGE),
    ("gcd-of-two-variables", lambda: poly_gcd_univariate(X, Y), NotUnivariate,
     "gcd requires a common single variable"),
    ("roots-of-zero", lambda: rational_roots(Poly.const(0)), ZeroPolynomial,
     "zero polynomial has every root"),
    ("scalar-variable-as-fraction", lambda: Scalar.variable("t").as_fraction(), NotRational,
     "t is not a rational constant"),
    ("scalar-of-a-float", lambda: Scalar.of(0.5), NotAScalar,
     "cannot build a Scalar from float"),
    ("characteristically-nilpotent-family",
     lambda: is_characteristically_nilpotent(get("glambda")), NotParameterFree,
     "requires a parameter-free algebra"),
    ("audit-of-a-family", lambda: id6_from_id3_audit(get("glambda")), NotParameterFree,
     "audit requires a parameter-free algebra"),
    ("r31-recognition-of-a-family", lambda: recognize_r31(get("r3lambda")), NotParameterFree,
     "requires a parameter-free algebra"),
]


@pytest.mark.parametrize("call, exc, message", [c[1:] for c in LIBRARY],
                         ids=[c[0] for c in LIBRARY])
def test_library_guards(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and info.value.args[0] == message


# within the literal limits, and more digits than int-to-string allows
_HUGE_LAMBDA = f"lam={'9' * MAX_DIGITS}^{_LIMIT // MAX_DIGITS + 1}"

# (id, argv, external catalog or None, message); LIBRARY pins the type of
# each raise
CLI = [
    ("filiform-too-small", ["show", "filiform", "--param", "n=2"], None,
     "filiform needs n >= 3"),
    ("filiform-over-the-cap", ["show", "filiform", "--param", f"n={MAX_DIM + 1}"], None,
     f"filiform needs n <= {MAX_DIM}"),
    *[(f"size-{what}", ["show", "filiform", "--param", f"n={raw}"], None, message)
      for what, raw, _, message in _SIZES],
    ("external-entry-unknown-parameter", ["--param", "q=1", "show", "x"], [_entry()],
     "x has no parameter q"),
    ("element-label-in-denominator", ["identity", "n3", "--id", "3", "--z", "1/e1"], None,
     "basis labels cannot appear in a denominator"),
    ("element-product-of-labels", ["rmatrix", "n3", "--z", "e1*e2"], None,
     "expression must be linear in the basis labels"),
    ("literal-nested-too-deep", ["show", "glambda", "--param", f"lam={_TOO_DEEP}"], None,
     f"parentheses nested more than {MAX_DEPTH} deep in literal"),
    ("literal-exponent-over-the-cap",
     ["identity", "sl2", "--id", "4", "--z", f"(x+1)^{MAX_EXPONENT + 1}*e1"], None,
     f"exponent above {MAX_EXPONENT} in literal"),
    ("literal-integer-over-digit-limit",
     ["show", "glambda", "--param", "lam=" + "9" * (MAX_DIGITS + 1)], None,
     f"integer of more than {MAX_DIGITS} digits in literal"),
    ("poly-exponent-over-the-cap", ["identity", "sl2", "--id", "4", "--z", "((x^64)^64)^64*e1"],
     None, f"exponent above {MAX_POLY_EXPONENT} in a polynomial"),
    ("literal-power-of-a-power", ["identity", "sl2", "--id", "4", "--z", "((x+1)^64)^32*e1"],
     None, _TOO_LARGE),
    ("literal-nested-integer-powers",
     ["show", "glambda", "--param", "lam=(((2^64)^64)^64)^64"], None, _TOO_LARGE),
    ("literal-sum-of-fractions",
     ["identity", "sl2", "--id", "4", "--z", "e1/(x+1)^32 + e1/(y+1)^32 + e1/(w+1)^32"],
     None, _TOO_LARGE),
    # a catalog parameter within the literal limits that is too large to print
    *[(f"catalog-parameter-too-large-to-print-{cmd[0]}",
       [*cmd, "--param", _HUGE_LAMBDA], None, f"value too large to print: over {_LIMIT} digits")
      for cmd in (["show", "glambda"], ["identity", "glambda", "--id", "2"])] * bool(_LIMIT),
]


@pytest.mark.parametrize("argv, catalog, message", [c[1:] for c in CLI],
                         ids=[c[0] for c in CLI])
def test_cli_guards(argv, catalog, message, tmp_path, capsys):
    if catalog is not None:
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(catalog), encoding="utf-8")
        argv = ["--catalog", str(path), *argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


# (id, argv, file contents or None, exception type, message): checks of the
# command line's own options and of the file that --map, --matrix or
# --catalog names, which FILE stands for in argv and message.  Contents are
# rows to write as JSON, the file's bytes, DIRECTORY for a directory, or
# None for no file
DIRECTORY = object()

OPTIONS = [
    ("identity-z-and-map", ["identity", "n3", "--id", "2", "--z", "e1", "--map", "FILE"], None,
     OptionConflict, "--z and --map are mutually exclusive"),
    ("identity-sweep-with-a-payload", ["identity", "n3", "--id", "3", "--quantifier", "all-elem",
                                       "--z", "e1"], None,
     OptionConflict, "--quantifier all-elem does not take --z or --map"),
    ("identity-fixed-without-map", ["identity", "n3", "--id", "2", "--quantifier", "fixed"], None,
     OptionConflict, "identity 2 with fixed quantifier needs --map FILE"),
    ("identity-fixed-without-z", ["identity", "n3", "--id", "3", "--quantifier", "fixed"], None,
     OptionConflict, "identity 3 with fixed quantifier needs --z EXPR"),
    ("rmatrix-without-an-operator", ["rmatrix", "n3"], None,
     OptionConflict, "rmatrix needs exactly one of --z EXPR or --matrix FILE"),
    ("map-file-not-square", ["identity", "n3", "--id", "2", "--map", "FILE"], [[0, 1], [1, 0]],
     ShapeMismatch, "FILE: expected a 3x3 JSON array of rows"),
    ("matrix-file-inexact-entry", ["rmatrix", "n3", "--matrix", "FILE"],
     [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]], ParseError, "FILE: entries must be exact (int or string)"),
    ("map-file-invalid-json", ["identity", "n3", "--id", "2", "--map", "FILE"], b"[[0, 1, 0],\n [0 0",
     ParseError, "FILE: line 2: invalid JSON: Expecting ',' delimiter"),
    *[("map-file-huge-integer", ["identity", "n3", "--id", "2", "--map", "FILE"],
       ("[[" + "9" * (_LIMIT + 1) + ", 0, 0], [0, 0, 0], [0, 0, 0]]").encode(), ParseError,
       f"FILE: invalid JSON: integer of more than {_LIMIT} digits")] * bool(_LIMIT),
    ("map-file-not-utf8", ["identity", "n3", "--id", "2", "--map", "FILE"], b"\xff\xfe",
     ParseError, "FILE: not UTF-8 text (invalid start byte)"),
    ("matrix-file-not-utf8", ["rmatrix", "n3", "--matrix", "FILE"], b"\xff\xfe",
     ParseError, "FILE: not UTF-8 text (invalid start byte)"),
    ("catalog-file-not-utf8", ["--catalog", "FILE", "catalog-list"], b"\xff\xfe",
     ParseError, "FILE: not UTF-8 text (invalid start byte)"),
    *[(f"{name}-file-{what}", argv, rows, UnreadableFile, f"[Errno {code}] {os.strerror(code)}: 'FILE'")
      for name, argv in (("map", ["identity", "n3", "--id", "2", "--map", "FILE"]),
                         ("matrix", ["rmatrix", "n3", "--matrix", "FILE"]),
                         ("catalog", ["--catalog", "FILE", "catalog-list"]))
      for what, rows, code in (("missing", None, errno.ENOENT), ("a-directory", DIRECTORY, errno.EISDIR))],
]


@pytest.mark.parametrize("argv, rows, exc, message", [c[1:] for c in OPTIONS],
                         ids=[c[0] for c in OPTIONS])
def test_option_guards(argv, rows, exc, message, tmp_path, capsys):
    path = tmp_path / "map.json"
    if rows is DIRECTORY:
        path.mkdir()
    elif isinstance(rows, bytes):
        path.write_bytes(rows)
    elif rows is not None:
        path.write_text(json.dumps(rows), encoding="utf-8")
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    message = message.replace("FILE:", f"{path}:").replace("'FILE'", repr(str(path)))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    args = build_parser().parse_args(argv)
    with pytest.raises(exc) as info:
        args.run(args, {}, _load_external(args.catalog + args.sub_catalog))
    assert type(info.value) is exc and info.value.args[0] == message


def test_an_unreadable_file_is_an_os_error_too(tmp_path):
    # as a ShapeMismatch is a ValueError: a caller that catches OSError
    # around a read keeps working
    with pytest.raises(OSError) as info:
        load_file(tmp_path / "missing.json")
    assert type(info.value) is UnreadableFile


def test_an_exact_assignment_within_the_digit_limit_is_taken_as_it_is():
    big = 10 ** MAX_DIGITS - 1
    assert get("glambda", {"lam": big}) is get("glambda", {"lam": str(big)})
    with pytest.raises(ExcludedParameterValue, match=f"filiform needs n <= {MAX_DIM}"):
        get("filiform", {"n": big})


def test_an_unprinted_catalog_parameter_may_be_too_large_to_print(capsys):
    # invariants prints nothing of the parameter, so it needs no string of it
    assert main(["invariants", "glambda", "--param", _HUGE_LAMBDA]) == 0
    out, err = capsys.readouterr()
    assert out and err == ""


def test_a_size_takes_the_literal_syntax_of_a_scalar_value(capsys):
    assert get("filiform", {"n": "10/2"}) is get("filiform", {"n": 5})
    assert main(["show", "filiform", "--param", "n=10/2"]) == 0
    halved = capsys.readouterr()
    assert main(["show", "filiform", "--param", "n=5"]) == 0
    assert capsys.readouterr() == halved
    assert halved.out.startswith("filiform: dimension 5\n") and halved.err == ""
