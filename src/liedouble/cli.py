"""Command-line front end.

Every command builds one JSON document and renders it in the format
picked by ``--format`` (text, json, or csv).  The text lines and CSV rows
are read from that document; only the bracket tables of ``show`` and
``rmatrix --build-double`` are printed by the library's element printer.
Re-running a command is deterministic byte for byte.  JSON documents carry
``"schema": 1``.

Exit status: 0 when the computation completed (verdicts live in the
output, so a failing identity still exits 0), 2 for usage, parse, or
validation problems.

``--param NAME=VALUE`` assigns catalog parameters (repeatable);
``--catalog PATH`` merges external catalog files after checking for name
collisions (repeatable).  Both may appear before or after the command.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .catalog import (ParamSpec, _bracket_doc, _json, _read_text, check_no_builtin_collision, entry, get,
                      load_file, names, table1)
from .derivations import derivation_space, generalized_derivation_space, is_characteristically_nilpotent
from .errors import BadAssignment, DuplicateName, LieDoubleError, OptionConflict, ParseError, ShapeMismatch
from .identities import _BY_NAME, _IDENTITIES, Fixed, canonical_identity, check_quantified, quantifier_from_name
from .lie_core import (
    LieAlgebra,
    center,
    derived_series,
    is_abelian,
    is_center_by_metabelian,
    is_metabelian,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    nilpotency_class,
    parse_element,
    solvability_class,
)
from .linalg import Matrix
from .rmatrix import build_double, is_classical_rmatrix, mybe_solve, recognize_r31
from .scalars import Scalar, parse_rational, parse_scalar


class _Usage(Exception):
    """Raised for option errors so main() can exit with status 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


_FORMATS = ("text", "json", "csv")
_QUANTIFIER_NAMES = (*_BY_NAME, "fixed")


def _add_common(p, where: str) -> None:
    """The options every command takes.  The repeatable ones collect into
    ``where + "param"`` and ``where + "catalog"``: a subcommand's parser
    replaces a list of the main parser's under the same name."""
    sup = argparse.SUPPRESS
    p.add_argument("--format", choices=_FORMATS, default=sup,
                   help="output format (default text)")
    p.add_argument("--param", action="append", metavar="NAME=VALUE", default=sup,
                   dest=where + "param", help="assign a catalog parameter; repeatable")
    p.add_argument("--catalog", action="append", metavar="PATH", default=sup,
                   dest=where + "catalog", help="merge an external catalog file; repeatable")


def build_parser() -> _Parser:
    p = _Parser(prog="liedouble", description="Exact checks on structure-constant Lie algebras.")
    p.set_defaults(format="text", param=[], catalog=[], sub_param=[], sub_catalog=[])
    _add_common(p, "")
    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, run, help):
        q = sub.add_parser(name, help=help)
        q.set_defaults(run=run)
        return q

    command("catalog-list", _cmd_catalog_list, "list catalog entries")

    q = command("show", _cmd_show, "print an algebra's brackets")
    q.add_argument("name")

    q = command("invariants", _cmd_invariants, "series, classes, center, derivation dimension")
    q.add_argument("name")

    q = command("derivations", _cmd_derivations, "basis of the (weighted) derivation algebra")
    q.add_argument("name")
    q.add_argument("--general", metavar="T", default=None,
                   help="weight t of the rule t*D[x,y] = [Dx,y] + [x,Dy]")

    q = command("identity", _cmd_identity, "check one of the bracket identities")
    q.add_argument("name")
    q.add_argument("--id", dest="ident", required=True, metavar="CODE",
                   help="1, 2, 3, 4, 6 or s5")
    q.add_argument("--quantifier", choices=_QUANTIFIER_NAMES, default=None)
    q.add_argument("--z", default=None, metavar="EXPR",
                   help="element for a fixed-element check (identities 3, 4)")
    q.add_argument("--map", dest="map_file", default=None, metavar="FILE",
                   help="JSON matrix for a fixed-map check (identities 1, 2)")

    q = command("rmatrix", _cmd_rmatrix, "R-matrix verdict, modified equation, double")
    q.add_argument("name")
    q.add_argument("--z", default=None, metavar="EXPR", help="use R = ad(z)")
    q.add_argument("--matrix", default=None, metavar="FILE", help="use an explicit matrix R")
    q.add_argument("--build-double", dest="build_double", action="store_true",
                   help="also print the doubled bracket table")

    command("table1", _cmd_table1, "regenerate the verdict table for dim <= 4")

    command("check-paper", _cmd_check_paper, "run the full verification suite")

    for q in sub.choices.values():
        _add_common(q, "sub_")
    return p


# ---------------------------------------------------------------------------
# shared plumbing

def _parse_params(pairs) -> dict:
    out = {}
    for raw in pairs:
        name, sep, value = raw.partition("=")
        if not sep or not name or not value:
            raise _Usage(f"--param needs NAME=VALUE, got {raw!r}")
        if name in out:
            raise _Usage(f"--param {name} is given more than once")
        out[name] = value
    return out


def _load_external(paths) -> dict:
    merged: dict = {}
    for path in paths:
        found = load_file(path)
        check_no_builtin_collision(found)
        for name, g in found.items():
            if name in merged:
                raise DuplicateName(name)
            merged[name] = g
    return merged


def _materialize(name: str, params: dict, external: dict) -> LieAlgebra:
    if name in external:
        g = external[name]
        if params:
            unknown = sorted(set(params) - set(g.params))
            if unknown:
                raise BadAssignment(f"{name} has no parameter {', '.join(unknown)}")
            g = g.specialize({k: parse_rational(v) for k, v in params.items()})
        return g
    return get(name, params or None)


def _read_matrix(path: str, g: LieAlgebra) -> Matrix:
    """The square JSON matrix in ``path`` as an operator on g.  A cell may
    not mention a basis label of g: the operator's variables become
    parameters of any double built from it."""
    text = _read_text(path)
    try:
        raw = _json(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None
    dim = g.dim
    if not isinstance(raw, list) or len(raw) != dim or any(
        not isinstance(row, list) or len(row) != dim for row in raw
    ):
        raise ShapeMismatch(f"{path}: expected a {dim}x{dim} JSON array of rows")

    def cell(value):
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ParseError(f"{path}: entries must be exact (int or string)")
        value = parse_scalar(str(value))
        if value.variables() & set(g.labels):
            raise ParseError("parameter names collide with basis labels")
        return value

    return Matrix([[cell(value) for value in row] for row in raw])


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _table(header, rows, right=()) -> list:
    """Text lines of an aligned table; columns listed in ``right`` are
    right-aligned, and the last column is left unpadded."""
    widths = [max(len(r[c]) for r in [header, *rows]) for c in range(len(header) - 1)]
    out = []
    for r in [header, *rows]:
        cells = [f"{r[c]:>{w}}" if c in right else f"{r[c]:<{w}}" for c, w in enumerate(widths)]
        out.append("  ".join(cells + [r[-1]]))
    return out


def _yesno(flag) -> str:
    return "yes" if flag else "no"


def _strs(values) -> list:
    return [str(v) for v in values]


def _report_doc(rep) -> dict:
    """Shared serializer for identity and R-matrix reports."""
    def sorted_strs(values):
        return None if values is None else _strs(sorted(values))

    return {
        "status": rep.status,
        "witness": None if rep.witness is None else list(rep.witness),
        "value": None if rep.value is None else str(rep.value),
        "conditions": _strs(rep.conditions),
        "roots": [sorted_strs(rs) for rs in rep.roots],
        "common_roots": sorted_strs(rep.common_roots),
        "exceptional": _strs(rep.exceptional),
    }


def _report_view(title, d) -> tuple:
    """Text lines and ``(key, value)`` CSV rows of a serialized report."""
    text = [f"{title}: {d['status']}"]
    if d["witness"] is not None:
        text.append(f"  witness: {tuple(d['witness'])}")
    if d["value"] is not None:
        text.append(f"  value: {d['value']}")
    if d["conditions"]:
        text.append("  conditions: " + "; ".join(d["conditions"]))
        shown = ["{" + ", ".join(rs) + "}" if rs is not None else "-" for rs in d["roots"]]
        text.append("  rational roots: " + "; ".join(shown))
    if d["common_roots"] is not None:
        text.append("  common roots: {" + ", ".join(d["common_roots"]) + "}")
    if d["exceptional"]:
        text.append("  exceptional: " + "; ".join(d["exceptional"]))
    rows = [
        ("status", d["status"]),
        ("witness", "" if d["witness"] is None else " ".join(map(str, d["witness"]))),
        ("value", d["value"] or ""),
        ("conditions", "; ".join(d["conditions"])),
        ("common_roots", "" if d["common_roots"] is None else " ".join(d["common_roots"])),
        ("exceptional", "; ".join(d["exceptional"])),
    ]
    return text, rows


# ---------------------------------------------------------------------------
# commands; each builds its JSON document and reads the text lines and CSV
# rows from it; main() adds the schema and command keys

def _cmd_catalog_list(args, params, external):
    found = [(e.name, e.dim, e.params, e.note) for e in map(entry, names())]
    found += [
        (name, g.dim, [ParamSpec(p) for p in g.params], "external")
        for name, g in external.items()
    ]
    doc = {"entries": [
        {
            "name": name,
            "dim": dim,
            "params": [
                {"name": s.name, "kind": s.kind, "special": _strs(s.special),
                 "excluded": _strs(s.excluded)}
                for s in specs
            ],
            "note": note,
        }
        for name, dim, specs, note in found
    ]}
    cells = [
        (
            e["name"],
            str(e["dim"]) if e["dim"] is not None else e["params"][0]["name"],
            ",".join(s["name"] for s in e["params"]),
            e["note"],
        )
        for e in doc["entries"]
    ]
    header = ("name", "dim", "params", "note")
    return doc, _table(header, cells, right=(1,)), [header] + cells


def _cmd_show(args, params, external):
    g = _materialize(args.name, params, external)
    doc = {
        "name": args.name,
        "dim": g.dim,
        "params": list(g.params),
        "labels": list(g.labels),
        "brackets": _bracket_doc(g),
    }
    text = [f"{args.name}: dimension {doc['dim']}"]
    if doc["params"]:
        text.append("parameters: " + ", ".join(doc["params"]))
    text.extend(g.bracket_lines() or ["all brackets vanish"])
    rows = [("i", "j", "k", "coefficient")]
    for b in doc["brackets"]:
        rows.extend((b["i"], b["j"], k, c) for k, c in b["value"].items())
    return doc, text, rows


def _cmd_invariants(args, params, external):
    g = _materialize(args.name, params, external)
    space = derivation_space(g)

    def dash(show):
        return lambda value: "-" if value is None else show(value)

    def spaced(values):
        return " ".join(map(str, values))

    def joined(sep):
        return lambda values: sep.join(values) or "-"

    # (JSON key, text label, value, text form), values in computing order
    rows = (
        ("dim", "dim", g.dim, str),
        ("params", "params", list(g.params), joined(", ")),
        ("lower_central_dims", "lower central dims", [s.dim for s in lower_central_series(g)], spaced),
        ("derived_dims", "derived dims", [s.dim for s in derived_series(g)], spaced),
        ("nilpotency_class", "nilpotency class", nilpotency_class(g), dash(str)),
        ("solvability_class", "solvability class", solvability_class(g), dash(str)),
        ("center_dim", "center dim", center(g).dim, str),
        ("abelian", "abelian", is_abelian(g), _yesno),
        ("nilpotent", "nilpotent", is_nilpotent(g), _yesno),
        ("solvable", "solvable", is_solvable(g), _yesno),
        ("metabelian", "metabelian", is_metabelian(g), _yesno),
        ("center_by_metabelian", "center-by-metabelian", is_center_by_metabelian(g), _yesno),
        ("characteristically_nilpotent", "characteristically nilpotent",
         None if g.is_parametric() else is_characteristically_nilpotent(g), dash(_yesno)),
        ("derivation_dim", "dim Der", space.dim, str),
        ("derivation_exceptional", "Der exceptional", _strs(space.exceptional), joined("; ")),
    )
    doc = {"name": args.name, **{key: value for key, _, value, _ in rows}}
    pairs = [(label, show(value)) for _, label, value, show in rows]
    text = [f"{args.name}: invariants"] + [f"  {k}: {v}" for k, v in pairs]
    return doc, text, [("key", "value"), *pairs]


def _cmd_derivations(args, params, external):
    g = _materialize(args.name, params, external)
    if args.general is None:
        space = derivation_space(g)
    else:
        space = generalized_derivation_space(g, parse_rational(args.general))
    doc = {
        "name": args.name,
        "weight": str(space.weight),
        "dim": space.dim,
        "exceptional": _strs(space.exceptional),
        # stored cells only: a dense Scalar view would print every zero
        "basis": [[[str(Scalar.of(row[j])) if j in row else "0" for j in range(m.cols)]
                   for row in m._rows] for m in space.basis],
    }
    text = [f"{args.name}: derivation space of weight {doc['weight']}, dimension {doc['dim']}"]
    if doc["exceptional"]:
        text.append("exceptional: " + "; ".join(doc["exceptional"]))
    rows = [("map", "row", "col", "value")]
    for t, m in enumerate(doc["basis"], 1):
        text.append(f"D{t}:")
        for a, row in enumerate(m, 1):
            text.append("  " + " ".join(row))
            rows.extend((t, a, b, e) for b, e in enumerate(row, 1) if e != "0")
    return doc, text, rows


def _identity_quantifier(args, g, code):
    qname = args.quantifier
    if args.z is not None and args.map_file is not None:
        raise OptionConflict("--z and --map are mutually exclusive")
    has_payload = args.z is not None or args.map_file is not None
    takes_map = _IDENTITIES[code].argument == "map"
    if qname is None:
        qname = "fixed" if has_payload else "all-der" if takes_map else "all-elem"
    if qname != "fixed":
        if has_payload:
            raise OptionConflict(f"--quantifier {qname} does not take --z or --map")
        return qname, quantifier_from_name(qname)
    if takes_map:
        if args.map_file is None:
            raise OptionConflict(f"identity {code} with fixed quantifier needs --map FILE")
        payload = _read_matrix(args.map_file, g)
    else:
        if args.z is None:
            raise OptionConflict(f"identity {code} with fixed quantifier needs --z EXPR")
        payload = parse_element(g, args.z)
    return "fixed", Fixed(payload)


_QUANTIFIER_TEXT = {"all-der": "over all derivations", "all-inner": "over all inner derivations",
                    "all-elem": "over all elements", "fixed": "at the fixed argument"}


def _cmd_identity(args, params, external):
    code = canonical_identity(args.ident)
    g = _materialize(args.name, params, external)
    qname, quant = _identity_quantifier(args, g, code)
    doc = {"name": args.name, "identity": code, "quantifier": qname}
    doc.update(_report_doc(check_quantified(g, code, quant)))
    text, rows = _report_view(f"identity {code} {_QUANTIFIER_TEXT[qname]} on {args.name}", doc)
    return doc, text, [("key", "value"), ("identity", code), ("quantifier", qname), *rows]


_MYBE_TEXT = {"unique": "unique scalar", "all": "every scalar", "none": "no scalar"}


def _cmd_rmatrix(args, params, external):
    g = _materialize(args.name, params, external)
    if (args.z is None) == (args.matrix is None):
        raise OptionConflict("rmatrix needs exactly one of --z EXPR or --matrix FILE")
    if args.z is not None:
        op = g.ad(parse_element(g, args.z))
        source = f"ad({args.z})"
    else:
        op = _read_matrix(args.matrix, g)
        source = args.matrix
    rep = is_classical_rmatrix(g, op)
    sol = mybe_solve(g, op)
    doc = {
        "name": args.name,
        "operator": source,
        "classical": _report_doc(rep),
        "mybe": {
            "status": sol.status,
            "value": None if sol.value is None else str(sol.value),
            "exceptional": _strs(sol.exceptional),
        },
        "r31": None,
        "double": None,
    }
    if rep.status == "holds" and (args.build_double or g.dim == 3):
        # a holding verdict means the R-bracket Jacobiator is zero, so the
        # double's Jacobi check passes
        double = build_double(g, op, kind="rbracket")
        if g.dim == 3 and not double.params:
            doc["r31"] = recognize_r31(double)
        if args.build_double:
            doc["double"] = {
                "dim": double.dim,
                "params": list(double.params),
                "brackets": _bracket_doc(double),
            }

    text, rows = _report_view(f"R-matrix check for {source} on {args.name}", doc["classical"])
    mybe = doc["mybe"]
    line = f"modified equation: {_MYBE_TEXT[mybe['status']]}"
    if mybe["value"] is not None:
        line += f", lambda = {mybe['value']}"
    text.append(line)
    if mybe["exceptional"]:
        text.append("  exceptional: " + "; ".join(mybe["exceptional"]))
    r31 = "" if doc["r31"] is None else _yesno(doc["r31"])
    if r31:
        text.append(f"double recognized as the 3-dim solvable type: {r31}")
    if doc["double"] is not None:
        text.append("double bracket table:")
        text.extend("  " + ln for ln in (double.bracket_lines() or ["all brackets vanish"]))
    rows += [("mybe_status", mybe["status"]), ("mybe_value", mybe["value"] or ""), ("r31", r31)]
    return doc, text, [("key", "value"), *rows]


def _cmd_table1(args, params, external):
    doc = {"rows": [{"name": r.name, "note": r.note, "marks": dict(r.marks)} for r in table1()]}
    cells = [(r["name"], r["note"], *(r["marks"][c] for c in "1234")) for r in doc["rows"]]
    text = _table(("algebra", "case", "1 2 3 4"), [(a, b, " ".join(m)) for a, b, *m in cells])
    return doc, text, [("name", "note", "id1", "id2", "id3", "id4"), *cells]


def _cmd_check_paper(args, params, external):
    from . import acceptance  # imported here: no other command needs it

    results = acceptance.run_all()
    doc = {
        "ok": all(r.ok for r in results),
        "criteria": [
            {"number": r.number, "title": r.title, "ok": r.ok, "facts": list(r.lines)}
            for r in results
        ],
    }
    text, rows = [], [("number", "status", "title")]
    for c in doc["criteria"]:
        status = "pass" if c["ok"] else "FAIL"
        text.append(f"criterion {c['number']:2d} [{status}] {c['title']}")
        text.extend("    " + ln for ln in c["facts"])
        rows.append((c["number"], status, c["title"]))
    text.append(f"overall: {'pass' if doc['ok'] else 'FAIL'}")
    return doc, text, rows


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise _Usage("a command is required (see --help)")
        params = _parse_params(args.param + args.sub_param)
        external = _load_external(args.catalog + args.sub_catalog)
        body, text, rows = args.run(args, params, external)
    except _Usage as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (LieDoubleError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.format == "json":
        doc = {"schema": 1, "command": args.command, **body}
        sys.stdout.write(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")
    elif args.format == "csv":
        sys.stdout.write(_csv_text(rows))
    else:
        sys.stdout.write("\n".join(text) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
