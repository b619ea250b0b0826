"""One pass of one workload, in a fresh process.

Started by ``run.py`` once per pass, so no pass reuses a catalog or
derivation cache filled by another.  Prints one JSON object on stdout:
set-up time, per-query latencies, wall time, peak memory and the outcome of
the correctness checks, which run after the timed region.

  python3 perfbench/worker.py --workload sweep --seed 1 --t0 <monotonic>
      [--size small] [--trace] [--setup-only] [--light-checks] [--expected DIR]
      [--spans-dir DIR]
  python3 perfbench/worker.py --kernels
  python3 perfbench/worker.py --record --workload sweep   # rewrite expectations
"""

import argparse
import collections
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, SRC)

import workloads  # noqa: E402

_perf = time.perf_counter
COMMAND_TIMEOUT_S = 120


def _peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def _load_expected(directory, workload):
    path = os.path.join(directory, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_command(argv, traced=None):
    """Run one CLI command in a fresh interpreter; returns (exit code, stdout)."""
    if traced is None:
        cmd = [sys.executable, "-m", "liedouble", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), traced, *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=COMMAND_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout


def digest(code, out):
    return {"exit": code, "bytes": len(out), "sha256": hashlib.sha256(out).hexdigest()}


# -- the cli workload ---------------------------------------------------------------

def cli_pass(args, specs, expected):
    if args.setup_only:
        t = _perf()
        run_command(["catalog-list"])
        return {"setup_s": _perf() - t}
    latencies, outcomes, dumps = [], [], []
    for k, spec in enumerate(specs):
        span_file = None
        if args.trace:
            span_file = os.path.join(args.spans_dir, f"cmd{k}.json")
        t = _perf()
        code, out = run_command(spec["argv"], span_file)
        latencies.append([spec["qid"], _perf() - t])
        outcomes.append(digest(code, out))
        if span_file:
            with open(span_file, encoding="utf-8") as fh:
                dump = json.load(fh)
            for span in dump["spans"]:
                span[4] = spec["qid"]
            dumps.append(dump)
            os.remove(span_file)
    result = {
        "setup_s": latencies[0][1],
        "wall_s": sum(lat for _, lat in latencies),
        "latencies": latencies,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    errors = []
    for spec, got in zip(specs, outcomes):
        want = expected["queries"].get(spec["qid"])
        if want != got:
            errors.append(f"{spec['qid']}: expected {want}, got {got}")
    result.update(attempted=len(specs), failed=len(errors), errors=errors)
    if args.trace:
        import tracing
        result["trace"] = tracing.merge(dumps).dump()
    return result


# -- library workloads ---------------------------------------------------------------

def library_pass(args, specs, expected):
    import queries

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.on = True
    algebras = {name: queries.materialize(name) for name in workloads.algebra_names(specs)}
    ready = time.monotonic()
    result = {"setup_s": ready - args.t0}
    if args.setup_only:
        return result

    latencies, results, raised = [], [], {}
    start = _perf()
    for spec in specs:
        t = _perf()
        try:
            if tracer is None:
                out = queries.run(spec, algebras)
            else:
                out = tracer.query(spec["qid"], lambda: queries.run(spec, algebras))
        except Exception as exc:  # a failed query is counted, not fatal
            out = None
            raised[spec["qid"]] = f"{type(exc).__name__}: {exc}"
        latencies.append([spec["qid"], _perf() - t])
        results.append(out)
    result["wall_s"] = _perf() - start
    result["latencies"] = latencies
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.on = False
        result["trace"] = tracer.dump()
        tracer.uninstall()

    errors = check(specs, results, raised, algebras, expected, args.light_checks)
    result.update(attempted=len(specs), failed=len({e[0] for e in errors}),
                  errors=[f"{qid}: {msg}" for qid, msg in errors])
    return result


def check(specs, results, raised, algebras, expected, light=False):
    """(qid, message) for every mismatch; run after the timed region.

    ``light`` skips the property checks of fixed queries (every basis map a
    derivation, every witness re-evaluated): a later pass of the same run
    repeats the inputs of the first, which checked them."""
    import queries

    generic = {}
    for spec, out in zip(specs, results):
        if spec["op"] == "identity" and out is not None:
            generic[(spec["algebra"], spec["code"], spec["quant"])] = out
    errors = []
    for spec, out in zip(specs, results):
        qid = spec["qid"]
        if qid in raised:
            errors.append((qid, raised[qid]))
            continue
        try:
            if spec.get("seeded"):
                msgs = queries.check(spec, out, algebras, generic)
            else:
                want = expected["queries"].get(qid)
                got = queries.summarize(spec, out)
                msgs = [] if want == got else [f"expected {want}, got {got}"]
                if not light:
                    msgs += queries.properties(spec, out, algebras)
        except Exception as exc:  # a check that cannot run is a mismatch
            msgs = [f"check raised {type(exc).__name__}: {exc}"]
        errors.extend((qid, m) for m in msgs)
    return errors


# -- recording expectations -------------------------------------------------------

def record(workload):
    """Expected results of every fixed query at the current commit."""
    doc = {"workload": workload, "queries": {}}
    if workload == "cli":
        # the small list is a subset of the full one
        for spec in workloads.queries(workload, 0, "full", {}):
            doc["queries"][spec["qid"]] = digest(*run_command(spec["argv"]))
        return doc
    import liedouble as ld
    import queries

    dims = {}
    for size in workloads.SIZES:
        specs = workloads.queries(workload, 0, size, collections.defaultdict(int))
        algebras = {name: queries.materialize(name) for name in workloads.algebra_names(specs)}
        for spec in specs:
            if "coeffs" in spec:
                dims[spec["algebra"]] = ld.derivation_space(algebras[spec["algebra"]]).dim
            elif not spec.get("seeded"):
                out = queries.run(spec, algebras)
                doc["queries"][spec["qid"]] = queries.summarize(spec, out)
    doc["derivation_dims"] = dict(sorted(dims.items()))
    return doc


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full")
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--light-checks", action="store_true")
    p.add_argument("--expected", default=os.path.join(HERE, "expected"))
    p.add_argument("--spans-dir", default=None)
    p.add_argument("--kernels", action="store_true")
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.monotonic()
    if args.kernels:
        import kernels
        out = {"kernels": {k: list(v) for k, v in kernels.run().items()}}
    elif args.record:
        out = record(args.workload)
        path = os.path.join(args.expected, f"{args.workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    else:
        expected = _load_expected(args.expected, args.workload)
        specs = workloads.queries(args.workload, args.seed, args.size,
                                  expected.get("derivation_dims", {}))
        if args.workload == "cli":
            out = cli_pass(args, specs, expected)
        else:
            out = library_pass(args, specs, expected)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
