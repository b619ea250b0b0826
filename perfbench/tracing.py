"""Spans and counters around the library's public boundary functions.

Wrappers are installed from the benchmark's side, without touching the
library: modules bind names by value (``from .linalg import nullspace``), so a
wrapper replaces every reference to the original function in every
``liedouble`` module namespace, class and module-level tuple or list.

Boundary functions get one span per call: name, start, end, parent span and
query id, kept in memory and written out at the end.  Hot callees
(``bracket_sparse``, ``poly_normalize``, ``rational_roots``) are aggregated per
(parent, function) as count, total and self time.  ``Scalar`` arithmetic and
``Poly`` multiply/exact division are only counted, per (parent, function) and
by operand kind; their time stays in the self time of the layer that called
them, which keeps the traced run within a small multiple of the untraced one.
"""

import json
import sys
import time

_perf = time.perf_counter

# (module, attribute) of boundary functions: one span per call
SPANNED = (
    ("identities", "check_quantified"),
    ("linalg", "nullspace"),
    ("linalg", "rank"),
    ("linalg", "solve_affine"),
    ("linalg", "solve_columns"),
    ("derivations", "derivation_space"),
    ("derivations", "generalized_derivation_space"),
    ("derivations", "inner_derivations"),
    ("derivations", "is_characteristically_nilpotent"),
    ("rmatrix", "mybe_solve"),
    ("rmatrix", "is_classical_rmatrix"),
    ("rmatrix", "build_double"),
    ("catalog", "get"),
    ("catalog", "loads"),
    ("catalog", "table1"),
    ("cli", "main"),
) + tuple(("acceptance", f"criterion_{n}") for n in range(1, 13))

# hot callees, aggregated per (parent, function) with count and time
AGGREGATED = (
    ("scalars", "poly_normalize"),
    ("scalars", "rational_roots"),
)
AGGREGATED_METHODS = (("lie_core", "LieAlgebra", "bracket_sparse"),)

_SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__")
_KIND_RANK = {"rational": 0, "polynomial": 1, "fraction": 2}
_LINALG = ("nullspace", "rank", "solve_affine", "solve_columns")
_IDENTITY_KEYS = ("derivations.derivation_space", "catalog.get")


class Tracer:
    """Collects spans, per-(parent, function) aggregates and counters."""

    def __init__(self):
        self.on = False
        self.qid = None
        self.spans = []            # [name, start, end, parent, qid, self_s]
        self.agg = {}              # (parent, name) -> [calls, total_s, self_s]
        self.counts = {}           # (parent, name) -> calls
        self.counters = {}         # name -> number
        self.stack = [["<root>", 0.0, -1]]   # [name, child_s, span index]
        self._seen = {n: {} for n in _IDENTITY_KEYS}
        self._restore = []

    # -- recording -------------------------------------------------------------

    def bump(self, name, by=1):
        self.counters[name] = self.counters.get(name, 0) + by

    def span(self, name, fn, on_call=None, on_return=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if on_call is not None:
                # counting the input is tracer work: keep it out of the
                # caller's self time
                t = _perf()
                on_call(args)
                stack[-1][1] += _perf() - t
            index = len(spans)
            spans.append(None)
            frame = [name, 0.0, index]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                parent = stack[-1]
                parent[1] += end - start
                spans[index] = [name, start, end, parent[2], self.qid,
                                end - start - frame[1]]
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def aggregated(self, name, fn):
        agg, stack = self.agg, self.stack

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            frame = [name, 0.0, stack[-1][2]]
            stack.append(frame)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _perf() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += dur
                key = (parent[0], name)
                slot = agg.get(key)
                if slot is None:
                    agg[key] = [1, dur, dur - frame[1]]
                else:
                    slot[0] += 1
                    slot[1] += dur
                    slot[2] += dur - frame[1]

        return wrapper

    def counted(self, name, fn):
        counts, stack = self.counts, self.stack

        def wrapper(*args, **kwargs):
            if self.on:
                key = (stack[-1][0], name)
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def scalar_op(self, fn, scalar_cls):
        counts, stack = self.counts, self.stack

        def wrapper(a, *rest):
            if self.on:
                kind = a.kind
                if rest and isinstance(rest[0], scalar_cls):
                    other = rest[0].kind
                    if _KIND_RANK[other] > _KIND_RANK[kind]:
                        kind = other
                key = (stack[-1][0], "scalars.ops." + kind)
                counts[key] = counts.get(key, 0) + 1
            return fn(a, *rest)

        return wrapper

    def query(self, qid, fn):
        """Run one query as a root span."""
        self.qid = qid
        return self.span("query", fn)()

    # -- installing ------------------------------------------------------------

    def install(self, package="liedouble"):
        mods = {name[len(package) + 1:]: mod for name, mod in sys.modules.items()
                if name.startswith(package + ".") and mod is not None}
        mods[""] = sys.modules[package]
        for modname, attr in SPANNED:
            fn = getattr(mods.get(modname), attr, None)
            if fn is not None:
                name = f"{modname}.{attr}"
                self._replace(mods, fn, self.span(name, fn, *self._hooks(modname, attr, name)))
        for modname, attr in AGGREGATED:
            fn = getattr(mods.get(modname), attr, None)
            if fn is not None:
                self._replace(mods, fn, self.aggregated(f"{modname}.{attr}", fn))
        for modname, clsname, attr in AGGREGATED_METHODS:
            cls = getattr(mods.get(modname), clsname, None)
            if cls is not None and attr in vars(cls):
                self._setattr(cls, attr, self.aggregated(f"{modname}.{attr}", vars(cls)[attr]))
        scalars = mods["scalars"]
        for attr in _SCALAR_OPS:
            if attr in vars(scalars.Scalar):
                self._setattr(scalars.Scalar, attr,
                              self.scalar_op(vars(scalars.Scalar)[attr], scalars.Scalar))
        for attr, label in (("__mul__", "mul"), ("exact_div", "exact_div")):
            if attr in vars(scalars.Poly):
                self._setattr(scalars.Poly, attr,
                              self.counted(f"scalars.Poly.{label}", vars(scalars.Poly)[attr]))

    def uninstall(self):
        for holder, attr, old in reversed(self._restore):
            if isinstance(holder, list):
                holder[attr] = old
            else:
                setattr(holder, attr, old)
        self._restore = []

    def _setattr(self, holder, attr, value):
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def _replace(self, mods, fn, wrapper):
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._setattr(mod, attr, wrapper)
                elif isinstance(value, tuple) and any(v is fn for v in value):
                    self._setattr(mod, attr, tuple(wrapper if v is fn else v for v in value))
                elif isinstance(value, list) and any(v is fn for v in value):
                    for i, v in enumerate(value):
                        if v is fn:
                            self._restore.append((value, i, v))
                            value[i] = wrapper

    def _hooks(self, modname, attr, name):
        """Counters taken at a boundary: (before call, after return)."""
        if modname == "linalg" and attr in _LINALG:
            def on_call(args):
                m = args[0]
                self.bump("linalg.input_rows", m.rows)
                self.bump("linalg.input_cols", m.cols)
                self.bump("linalg.input_nnz", sum(
                    1 for row in m.entries for e in row if not e.is_zero()))
                if m.is_parametric():
                    self.bump("linalg.poly_inputs")
            return on_call, None
        if name in _IDENTITY_KEYS:
            seen = self._seen[name]

            def on_return(result):
                # a cache hit hands back the very object an earlier call built
                if id(result) in seen:
                    self.bump(name + ".hits")
                else:
                    seen[id(result)] = result
            return None, on_return
        if name == "identities.check_quantified":
            return None, lambda rep: self.bump(f"{name}.status.{rep.status}")
        return None, None

    # -- results ---------------------------------------------------------------

    def functions(self):
        """name -> [calls, total_s, self_s], over spans and aggregates."""
        out = {}
        for span in self.spans:
            if span is None:
                continue
            slot = out.setdefault(span[0], [0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += span[2] - span[1]
            slot[2] += span[5]
        for (_, name), (calls, total, self_s) in self.agg.items():
            slot = out.setdefault(name, [0, 0.0, 0.0])
            slot[0] += calls
            slot[1] += total
            slot[2] += self_s
        return out

    def dump(self):
        """Everything collected, as JSON-able data."""
        return {
            "spans": self.spans,
            "agg": [[p, n, *v] for (p, n), v in self.agg.items()],
            "counts": [[p, n, v] for (p, n), v in self.counts.items()],
            "counters": self.counters,
        }


def merge(dumps):
    """Merge the dumps of several traced processes into one Tracer."""
    t = Tracer()
    for d in dumps:
        base = len(t.spans)
        for name, start, end, parent, qid, self_s in d["spans"]:
            t.spans.append([name, start, end, parent + base if parent >= 0 else -1, qid, self_s])
        for p, n, calls, total, self_s in d["agg"]:
            slot = t.agg.setdefault((p, n), [0, 0.0, 0.0])
            slot[0] += calls
            slot[1] += total
            slot[2] += self_s
        for p, n, calls in d["counts"]:
            t.counts[(p, n)] = t.counts.get((p, n), 0) + calls
        for k, v in d["counters"].items():
            t.bump(k, v)
    return t


def write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
