"""Shape of the ``BENCH_*.json`` performance records at the repository root.

Each record compares a change with its parent commit over alternated runs
of the benchmark: it names both, the command it ran, and per workload the
failed and attempted counts and, for every end-to-end metric of
``BENCHMARK.json``, each side's median, quartiles and runs.
"""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _end_to_end():
    return [m["name"] for m in _load(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]]


RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_names_its_commits_command_and_every_metric(path):
    record = _load(path)
    assert isinstance(record["change"], str) and record["change"]
    assert isinstance(record["parent"], str) and record["parent"]
    assert isinstance(record["method"]["command"], str) and record["method"]["command"]
    workloads = record["workloads"]
    assert workloads
    for name, w in workloads.items():
        for count in ("failed", "attempted"):
            for side in SIDES:
                assert isinstance(w[count][side], int), (name, count, side)
        for metric in _end_to_end():
            for side in SIDES:
                stats = w[metric][side]
                runs = stats["runs"]
                assert runs and all(isinstance(v, (int, float)) for v in runs), (name, metric)
                assert stats["q1"] <= stats["median"] <= stats["q3"], (name, metric, side)
                assert min(runs) <= stats["median"] <= max(runs), (name, metric, side)
