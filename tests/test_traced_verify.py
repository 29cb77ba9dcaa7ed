"""A traced benchmark run of `vada verify` keeps working.

The benchmark's tracer (perfbench/tracer.py) wraps names that vada.verify
and the library modules resolve, with probes written for single fibers and
single allocations. A check that sent a batch through one of those names
would make every traced verify op fail, which perfbench's own smoke test
does not assert against; a check that no longer resolved through the name
the tracer wraps would leave its metric reading 0.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import tracer  # noqa: E402


def test_the_tracer_resolves_every_name_it_probes():
    # install looks each name up with vars(module)[name]: a missing one is a KeyError
    tracer.install(tracer.Tracer())


def test_traced_verify_ops_all_succeed():
    failures = []
    record = run.run("verify", seed=0, seconds=0.05, trace=True, on_failure=failures.append,
                     setup_launches=1)
    assert record["result"]["failed"] == 0, failures
    assert record["result"]["attempted"] >= 1


def test_traced_verify_reads_every_check_and_the_rk4_error():
    # a check that no longer resolves through the name the tracer wraps reads 0
    record = run.run("verify", seed=0, seconds=0.05, trace=True, on_failure=lambda failure: None,
                     setup_launches=1)
    metrics = record["result"]["metrics"]
    names = [f"verify.{check}.s" for check in tracer.VERIFY_CHECKS]
    names.append("dynamics.simulate.max_abs_err")
    assert {name: metrics[name]["value"] for name in names if not metrics[name]["value"] > 0} == {}
