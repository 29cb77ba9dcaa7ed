"""A traced benchmark run of `vada verify` keeps working.

The benchmark's tracer (perfbench/tracer.py) wraps names that vada.verify
and the library modules resolve, with probes written for single fibers and
single allocations. A check that sent a batch through one of those names
would make every traced verify op fail, which perfbench's own smoke test
does not assert against.
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
