"""The benchmark of the exact engine: one workload, one seed, one JSON result.

  python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0
  python3 perfbench/run.py --workload all --seed 1      # table of every workload

A closed loop with one client: each pass of the workload's query list runs in
a fresh worker process (``worker.py``), one query at a time, and the next pass
starts after the previous one ends.  No threads, no pools.  A run makes as many
passes as fit in ``--seconds`` at the nominal pass time of the workload (fewer
if the machine is much slower), and extra set-up-only processes bring the
set-up samples to ``MIN_SETUPS``.  Times are scaled to a reference speed (see
``Probe``).

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
medians over the run's passes.  With ``--trace 1`` one untraced pass is
followed by one traced pass and by the layer kernels; the last line carries
the per-layer metrics, and every span is written to ``.perfbench/``.
Lines before the last one are a readable report, with ``error_rate``, the
tail percentile and the sample counts.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_SETUPS = 5
# Seconds one pass takes on a 2-core 2.1 GHz Xeon with Python 3.11.  A run
# makes round(seconds / this) passes, fixed in advance: a pass count that
# followed the clock would change which queries the tail percentile lands on.
NOMINAL_PASS_S = {"sweep": 5.5, "derivations": 7.5, "parametric": 6.0, "cli": 12.0}
TIMEOUT_S = 170
_MODULES = ("lie_core", "identities", "linalg", "derivations", "scalars", "rmatrix",
            "catalog", "acceptance", "cli", "query")
# Seconds the speed probe takes at the reference speed (one core of the 2-core
# 2.1 GHz Xeon the benchmark was written on, when it ran fast).  The scale of
# every reported time follows from it.
REFERENCE_PROBE_S = 0.017


class BenchError(Exception):
    pass


class Probe:
    """How fast the machine is right now.

    On a machine shared with other tenants the same pass can take 1.9 times
    longer from one minute to the next, which no number of repetitions
    averages away.  Before and after every worker process, while nothing else
    of the benchmark runs, ``probe.py`` times a fixed memory-bound loop (no
    library code).  Every time a worker reports is multiplied by
    REFERENCE_PROBE_S over the mean of the two probe times, giving seconds at
    the reference speed; the report prints the unscaled wall time too."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.last = None

    def seconds(self):
        """Probe now; the result also serves as the next worker's 'before'."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("speed probe ended")
        self.last = float(line)
        return self.last

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=30)


def _scaled(probe, workload, seed, size, **kwargs):
    """Run a worker and scale its times to the reference speed."""
    before = probe.last if probe.last is not None else probe.seconds()
    out = _worker(workload, seed, size, **kwargs)
    factor = REFERENCE_PROBE_S / ((before + probe.seconds()) / 2)
    out["factor"] = factor
    out["raw_wall_s"] = out.get("wall_s")
    out["setup_s"] *= factor
    if "wall_s" in out:
        out["wall_s"] *= factor
        out["latencies"] = [[qid, lat * factor] for qid, lat in out["latencies"]]
    return out


def _worker(workload, seed, size, trace=False, setup_only=False, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, *extra]
    if trace:
        cmd += ["--trace", "--spans-dir", OUT]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=TIMEOUT_S, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): "
                         f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def tail(values, planned):
    """(value, percentile, samples): the latency at the highest percentile
    with at least ten samples beyond it in a run of ``planned`` samples, or
    the maximum when that percentile would lie below the median (20 samples
    or fewer, as in the self-test).  A run that a slow machine cut short keeps
    the planned percentile, so that its tail is the same statistic."""
    ordered = sorted(values)
    n = len(ordered)
    if planned <= 20:
        return ordered[-1], 100.0, n
    share = (planned - 10) / planned
    return ordered[max(0, math.ceil(share * n) - 1)], math.floor(1000 * share) / 10, n


def measure(workload, seed, seconds, size, probe, extra=()):
    """Untraced passes: (metrics, report lines, attempted, failed, errors)."""
    count = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    passes = []
    start = time.monotonic()
    for k in range(count):
        elapsed = time.monotonic() - start
        if k and elapsed + elapsed / k > 1.25 * seconds:
            break  # a much slower machine: keep the run near its length
        light = ("--light-checks",) if k else ()
        passes.append(_scaled(probe, workload, seed, size, extra=extra + light))
    setups = [p["setup_s"] for p in passes]
    factors = [p["factor"] for p in passes]
    while len(setups) < MIN_SETUPS:
        one = _scaled(probe, workload, seed, size, setup_only=True, extra=extra)
        setups.append(one["setup_s"])
        factors.append(one["factor"])
    latencies = [lat for p in passes for _, lat in p["latencies"]]
    by_query = {}
    for p in passes:
        for qid, lat in p["latencies"]:
            by_query.setdefault(qid, []).append(lat)
    # the median query: each query's median over the passes first, so that
    # noise in one pass cannot swap two neighbouring queries
    p50 = statistics.median(statistics.median(v) for v in by_query.values())
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    tail_s, pct, n = tail(latencies, count * len(passes[0]["latencies"]))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "query_p50_ms": (1e3 * p50, "ms"),
        "query_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    report = [
        f"workload {workload}: seed {seed}, size {size}, {len(passes)} passes, "
        f"{len(setups)} set-ups, {n} query samples",
        *(f"  {k:<14} {v:.6g} {u}" for k, (v, u) in metrics.items()),
        f"  {'error_rate':<14} {failed / attempted:.6g} ({failed} of {attempted} queries)",
        f"  query_tail_ms is p{pct:g} of {n} samples",
        f"  times are at the reference speed; speed factors {min(factors):.3f}.."
        f"{max(factors):.3f}, unscaled wall_s "
        f"{statistics.median(p['raw_wall_s'] for p in passes):.6g} s",
    ]
    return metrics, report, attempted, failed, errors


def layer_metrics(dump):
    """Per-layer metrics from one traced pass."""
    import tracing

    t = tracing.merge([dump])
    funcs = t.functions()
    out = {}

    def fn(name, *stats):
        calls, total, self_s = funcs.get(name, (0, 0.0, 0.0))
        vals = {"calls": (calls, "count"), "total_s": (total, "s"), "self_s": (self_s, "s")}
        for s in stats:
            out[f"{name}.{s}"] = vals[s]

    fn("lie_core.bracket_sparse", "calls", "self_s")
    fn("identities.check_quantified", "calls", "self_s")
    cq = funcs.get("identities.check_quantified", (0,))[0]
    under = t.agg.get(("identities.check_quantified", "lie_core.bracket_sparse"), (0,))[0]
    out["identities.check_quantified.bracket_calls_per_call"] = (
        under / cq if cq else 0.0, "count")
    for status in ("holds", "fails", "conditional"):
        key = f"identities.check_quantified.status.{status}"
        out[key] = (t.counters.get(key, 0), "count")
    for name in ("nullspace", "rank", "solve_affine", "solve_columns"):
        fn(f"linalg.{name}", "calls", "self_s")
    for key in ("input_rows", "input_cols", "input_nnz", "poly_inputs"):
        out[f"linalg.{key}"] = (t.counters.get(f"linalg.{key}", 0), "count")
    for name in ("derivation_space", "generalized_derivation_space", "inner_derivations",
                 "is_characteristically_nilpotent"):
        fn(f"derivations.{name}", "calls", "total_s", "self_s")
    for name in ("derivations.derivation_space", "catalog.get"):
        calls = funcs.get(name, (0,))[0]
        hits = t.counters.get(name + ".hits", 0)
        out[f"{name}.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    ops = {}
    for (_, name), calls in t.counts.items():
        ops[name] = ops.get(name, 0) + calls
    for kind in ("rational", "polynomial", "fraction"):
        out[f"scalars.ops.{kind}"] = (ops.get(f"scalars.ops.{kind}", 0), "count")
    for name in ("mul", "exact_div"):
        out[f"scalars.Poly.{name}.calls"] = (ops.get(f"scalars.Poly.{name}", 0), "count")
    for name in ("poly_normalize", "rational_roots"):
        fn(f"scalars.{name}", "calls", "self_s")
    for name in ("mybe_solve", "is_classical_rmatrix", "build_double"):
        fn(f"rmatrix.{name}", "calls", "self_s")
    for name in ("get", "loads", "table1"):
        fn(f"catalog.{name}", "calls", "total_s")
    for n in range(1, 13):
        fn(f"acceptance.criterion_{n}", "total_s")
    fn("cli.main", "self_s")
    # self time by module, as a share of the traced query time; "query" is
    # the time outside every wrapped function
    total = sum(s[2] - s[1] for s in t.spans if s and s[3] < 0)
    shares = dict.fromkeys(_MODULES, 0.0)
    for name, (_, _, self_s) in funcs.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + self_s
    for module, self_s in shares.items():
        out[f"share.{module}"] = (self_s / total if total else 0.0, "ratio")
    return out, t


def traced(workload, seed, size, probe, extra=()):
    """One untraced pass, one traced pass, then the kernels."""
    os.makedirs(OUT, exist_ok=True)
    plain = _scaled(probe, workload, seed, size, extra=extra)
    spanned = _scaled(probe, workload, seed, size, trace=True, extra=extra)
    metrics, t = layer_metrics(spanned.pop("trace"))
    overhead = spanned["wall_s"] / plain["wall_s"] - 1.0
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    kernels = _kernels()
    metrics.update({k: tuple(v) for k, v in kernels.items()})
    path = os.path.join(OUT, f"spans-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "columns":
                   ["name", "start", "end", "parent", "qid", "self_s"], **t.dump()}, fh)
    attempted = plain["attempted"] + spanned["attempted"]
    failed = plain["failed"] + spanned["failed"]
    errors = plain["errors"] + spanned["errors"]
    report = [f"workload {workload}: traced pass {spanned['wall_s']:.3f} s, untraced "
              f"{plain['wall_s']:.3f} s, spans in {os.path.relpath(path, ROOT)}"]
    report += [f"  {k:<58} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    return metrics, report, attempted, failed, errors


def _kernels():
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--kernels"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"kernels failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])["kernels"]


def result_line(metrics, attempted, failed):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def declared(section):
    """Metric names BENCHMARK.json lists under ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def check_checkout():
    if not os.path.isfile(os.path.join(ROOT, "src", "liedouble", "__init__.py")):
        raise BenchError("src/liedouble not found: run from a checkout of the repository")
    for w in workloads.WORKLOADS:
        if not os.path.isfile(os.path.join(HERE, "expected", f"{w}.json")):
            raise BenchError(f"perfbench/expected/{w}.json is missing")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="small runs each workload at its smallest size (self-test)")
    p.add_argument("--expected", default=None,
                   help="directory of expected results (default perfbench/expected)")
    args = p.parse_args(argv)
    try:
        check_checkout()
        extra = ("--expected", args.expected) if args.expected else ()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        wanted = declared("per_layer" if args.trace else "end_to_end")
        totals = [{}, 0, 0]
        probe = Probe()
        try:
            for name in names:
                if args.trace:
                    metrics, report, attempted, failed, errors = traced(
                        name, args.seed, args.size, probe, extra)
                else:
                    metrics, report, attempted, failed, errors = measure(
                        name, args.seed, args.seconds, args.size, probe, extra)
                print("\n".join(report))
                for e in errors[:20]:
                    print(f"  MISMATCH {e}")
                missing = [m for m in wanted if m not in metrics]
                if missing:
                    raise BenchError(f"metrics not measured: {missing}")
                prefix = f"{name}." if args.workload == "all" else ""
                totals[0].update({prefix + m: metrics[m] for m in wanted})
                totals[1] += attempted
                totals[2] += failed
        finally:
            probe.close()
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(result_line(*totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
