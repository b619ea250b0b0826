"""Self-test of the benchmark, at each workload's smallest size.

  python3 perfbench/selftest.py

Checks that
  * every metric named in BENCHMARK.json is printed with its unit, untraced
    (end-to-end) and traced (per-layer), and no failure is reported;
  * a deliberately corrupted expected value is counted as a failure;
  * one seed always generates the same queries, and another seed does not.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")

sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _run(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--size", "small", "--seconds", "1",
           *args]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _expect_metrics(result, declared, what):
    got = result["metrics"]
    for m in declared:
        entry = got.get(m["name"])
        assert entry is not None, f"{what}: metric {m['name']} missing"
        assert entry["unit"] == m["unit"], f"{what}: {m['name']} has unit {entry['unit']}"
        assert isinstance(entry["value"], (int, float)), f"{what}: {m['name']} not a number"
    assert set(got) == {m["name"] for m in declared}, f"{what}: extra metrics {set(got)}"


def check_metrics(bench):
    for w in workloads.WORKLOADS:
        plain = _run("--workload", w, "--seed", "1", "--trace", "0")
        _expect_metrics(plain, bench["end_to_end"], f"{w} untraced")
        assert plain["correct"] and plain["failed"] == 0, f"{w}: {plain}"
        traced = _run("--workload", w, "--seed", "1", "--trace", "1")
        _expect_metrics(traced, bench["per_layer"], f"{w} traced")
        assert traced["correct"], f"{w} traced: failures"
        print(f"ok   {w}: every metric printed with its unit, no failures")


def check_corruption():
    for w in workloads.WORKLOADS:
        target = os.path.join(SCRATCH, w)
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(os.path.join(HERE, "expected"), target)
        path = os.path.join(target, f"{w}.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        small = {s["qid"] for s in workloads.queries(w, 1, "small",
                                                     doc.get("derivation_dims", {}))}
        qid = sorted(q for q in doc["queries"] if q in small)[0]
        entry = doc["queries"][qid]
        key = "sha256" if "sha256" in entry else sorted(entry)[0]
        entry[key] = "corrupted"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        result = _run("--workload", w, "--seed", "1", "--trace", "0", "--expected", target)
        assert result["failed"] >= 1 and not result["correct"], \
            f"{w}: corrupting {qid} went unnoticed"
        print(f"ok   {w}: corrupted expectation for {qid!r} counted as a failure")
    shutil.rmtree(SCRATCH, ignore_errors=True)


def check_seeds():
    def listing(w, seed):
        code = ("import json, sys; sys.path.insert(0, %r); import workloads; "
                "d = json.load(open(%r)).get('derivation_dims', {}); "
                "print(json.dumps(workloads.queries(%r, %d, 'full', d)))"
                % (HERE, os.path.join(HERE, "expected", f"{w}.json"), w, seed))
        return subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True, check=True).stdout
    for w in workloads.WORKLOADS:
        first, again, other = listing(w, 7), listing(w, 7), listing(w, 8)
        assert first == again, f"{w}: seed 7 gave two different query lists"
        if w != "cli":
            assert first != other, f"{w}: seeds 7 and 8 gave the same query list"
        print(f"ok   {w}: one seed, one query list")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_seeds()
    check_corruption()
    check_metrics(bench)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
