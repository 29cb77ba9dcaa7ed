"""Smoke test of the benchmark itself: every workload at a tiny size.

    PYTHONPATH=src python3 -m pytest perfbench

It checks that each run reports every metric BENCHMARK.json names, with its
unit, and that an op replayed from its logged parameters has the same
outcome. It does not gate on wall-clock time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def outcome(w, params):
    try:
        return w.check(params, w.op(w.prepare(params)))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_run_reports_every_metric_with_its_unit(name, trace):
    failures = []
    record = run.run(name, seed=0, seconds=0.05, trace=trace, on_failure=failures.append,
                     setup_launches=1)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["guard_problems"]
    assert result["attempted"] >= 1
    assert result["failed"] == len(failures) <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    json.dumps(result, allow_nan=False)
    assert set(record["run"]) >= {"vada_version", "git_sha", "python", "numpy", "nproc", "seed"}
    if trace and name == "verify":
        # the check, config and cli spans account for the op's wall time
        assert record["details"]["coverage"]["cli_main"] > 0.9
        assert record["details"]["coverage"]["children"] > 0.9


@pytest.mark.parametrize("name", WORKLOADS)
def test_logged_params_replay_the_same_outcome(name):
    w = workloads.WORKLOADS[name](0)
    stream = w.params()
    for _ in range(4):
        params = next(stream)
        logged = json.loads(json.dumps(params, allow_nan=False))
        assert outcome(w, logged) == outcome(w, params)


def test_same_seed_and_seconds_give_the_same_ops_and_failures():
    def failed_ops(name):
        failures = []
        record = run.run(name, seed=3, seconds=0.1, trace=False, on_failure=failures.append,
                         setup_launches=1)
        return record["result"]["attempted"], [(f["op"], f["reason"]) for f in failures]

    for name in ("allocate", "simulate"):
        assert failed_ops(name) == failed_ops(name)


def test_each_pass_gets_the_same_inputs():
    for name in WORKLOADS:
        w = workloads.WORKLOADS[name](7)
        a, b = w.params(), w.params()
        assert [next(a) for _ in range(5)] == [next(b) for _ in range(5)]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
