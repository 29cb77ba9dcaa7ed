"""vada benchmark: four closed-loop workloads, checked outputs, per-layer tracing.

    python3 perfbench/run.py --workload {verify,fiber,allocate,simulate} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; vada is imported from its `src/`.
One client on one thread runs ops back to back, each op starting after the
previous one ends. A run holds --seconds times a nominal number of ops per
second of the workload, so the same seed and --seconds always give the
same ops and the same failures. An untraced run measures its ops in four
worker processes, one after another; a traced run measures in this process.
With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end metrics; with --trace 1 they are the per-layer metrics of a
traced run. The full record of a run (metadata, tail percentile and sample
count, spans) and the replay log of its failed ops go to perfbench/out/.
See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters launched per run to time `import vada.cli`.
SETUP_LAUNCHES = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "success_frac": "frac",
    "peak_rss_mb": "MiB",
}


def setup_seconds(launches: int) -> float:
    """Median time, over fresh interpreters, of the statement `import vada.cli`,
    at reference speed.

    Each interpreter times its own import, then the host-speed kernel, and
    prints both: a parent blocked in wait() wakes late on some hosts, which
    would add its wake-up delay.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys, time; t0 = time.perf_counter(); import vada.cli; "
        "t1 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); import hostspeed; "
        "print(t1 - t0, hostspeed.kernel_seconds())"
    )
    times = []
    for _ in range(launches):
        done = subprocess.run([sys.executable, "-c", code, str(HERE)], env=env, cwd=ROOT,
                              check=True, capture_output=True, text=True, timeout=60)
        seconds, kernel = map(float, done.stdout.split())
        times.append(seconds * hostspeed.REFERENCE_S / kernel)
    return statistics.median(times)


# A traced op runs twice, the second time with the probes on, and makes one
# pass: a traced run holds this share of the op executions of an untraced one.
TRACED_SHARE = 0.4

# Wall seconds after which the timed loops stop early, so that a run on a
# host many times slower than usual still ends within three minutes;
# `details.truncated` then reads true.
HARD_STOP_S = 120.0

# Fresh processes, run one after another, over which an untraced run splits
# its ops. A process keeps the speed its memory layout and string hashes give
# it for its whole life, some percent above or below the next one's; pooling
# the ops of several processes averages that out, and their fixed hash seeds
# make it repeat from run to run.
WORKERS = 4


def op_count(workload, seconds: float, traced: bool) -> int:
    """Distinct ops in a run: a function of the workload and --seconds alone,
    so that the same seed always gives the same ops, whatever the host's speed."""
    n = seconds * workload.op_rate
    if traced:
        n *= workload.passes * TRACED_SHARE
    return max(1, round(n))


class Measurement:
    """Per-op best time at reference speed and outcome over the passes of a run.

    The buffers are sized by the op count and written in full up front, so
    the harness's memory does not grow as the ops run.
    """

    def __init__(self, capacity: int):
        self.best = array("d", [math.inf]) * capacity
        self.ok = bytearray(b"\x01") * capacity
        self.ops = capacity
        self.truncated = False
        self.kernel_s: list[float] = []  # the host-speed kernel's times
        self.peak_rss_mb = 0.0
        self.untraced = 0.0  # raw seconds of the untraced and traced runs of a traced pass
        self.traced = 0.0

    def seconds(self):
        """(best seconds of every op, best seconds of each successful op)."""
        import numpy as np

        best = np.frombuffer(self.best, count=self.ops)
        return best, best[np.frombuffer(self.ok, dtype=np.uint8, count=self.ops) == 1]


def _timed(workload, prepared):
    t0 = perf_counter()
    try:
        out, error = workload.op(prepared), None
    except Exception as exc:  # a raising op is a failed op, logged for replay
        out, error = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, error


def measure(workload, seed: int, lo: int, hi: int, on_failure, tracer=None,
            hard_stop_s: float = HARD_STOP_S) -> Measurement:
    """Run ops lo..hi-1 of the workload back to back and time each op alone.

    The first pass runs the ops; each later pass reruns them, so that an
    op's best time avoids a burst of interrupts. Each time is scaled to
    reference speed by the mean of the host-speed factors taken before and
    after it. With a tracer there is one pass, and each op runs and is
    checked again with the probes enabled right after its untraced run.
    Input preparation and checks stay outside the timed spans. Each failed
    op is passed to on_failure once, with what it needs for replay.
    """
    passes = 1 if tracer is not None else workload.passes
    m = Measurement(hi - lo)
    speed = hostspeed.HostSpeed()
    hard_stop = perf_counter() + hard_stop_s
    for p in range(passes):
        for k, params in enumerate(itertools.islice(workload.params(), lo, lo + m.ops)):
            if perf_counter() >= hard_stop:
                m.truncated = True
                if p == 0:
                    m.ops = k
                break
            prepared = workload.prepare(params)
            before = speed.factor()
            elapsed, out, error = _timed(workload, prepared)
            factor = 0.5 * (before + speed.factor())
            if error is None:
                error = workload.check(params, out)
            if tracer is not None:
                tracer.start_op(lo + k)
                tracer.enable()
                try:
                    traced, out, traced_error = _timed(workload, workload.prepare(params))
                    if traced_error is None:
                        traced_error = workload.check(params, out)
                finally:
                    tracer.disable()
                m.untraced += elapsed
                m.traced += traced
                if traced_error != error:
                    error = f"traced rerun differs: {traced_error}"
            m.best[k] = min(m.best[k], elapsed * factor)
            if error is not None and m.ok[k]:
                m.ok[k] = 0
                on_failure({"workload": workload.name, "seed": seed, "op": lo + k, "pass": p,
                            "reason": error, "params": params})
        if m.truncated:
            break
    m.kernel_s = speed.samples
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def measure_slice(name: str, seed: int, seconds: float, worker: int) -> dict:
    """measure() of the ops of one worker process, as a JSON-ready dict.

    Per-op times and outcomes go as base64 of their bytes: parsing them as
    JSON lists would grow the parent, whose peak RSS the next worker starts at.
    """
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    n = op_count(workload, seconds, False)
    lo, hi = n * worker // WORKERS, n * (worker + 1) // WORKERS
    failures: list[dict] = []
    m = measure(workload, seed, lo, hi, failures.append, hard_stop_s=HARD_STOP_S / WORKERS)
    return {"best": base64.b64encode(m.best[: m.ops].tobytes()).decode(),
            "ok": base64.b64encode(m.ok[: m.ops]).decode(), "failures": failures,
            "truncated": m.truncated, "kernel_s": m.kernel_s, "peak_rss_mb": m.peak_rss_mb}


def measure_in_workers(name: str, seed: int, seconds: float, on_failure) -> Measurement:
    """measure() the run's ops split over WORKERS fresh processes, pooled.

    Each worker is waited for before the next starts. On Linux a process's
    peak RSS starts at that of the process that started it, so the caller
    runs this before it imports vada and numpy, while it is still small.
    """
    m = Measurement(0)
    for j in range(WORKERS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", repr(seconds), "--worker", str(j)],
            env=dict(os.environ, PYTHONHASHSEED=str(j + 1)), cwd=ROOT,
            capture_output=True, text=True, timeout=HARD_STOP_S / WORKERS + 30,
        )
        if done.returncode != 0:
            raise RuntimeError(f"worker {j} exited {done.returncode}:\n{done.stderr}")
        part = json.loads(done.stdout.splitlines()[-1])
        m.best.frombytes(base64.b64decode(part["best"]))
        ok = base64.b64decode(part["ok"])
        m.ok.extend(ok)
        m.ops += len(ok)
        m.truncated |= part["truncated"]
        m.kernel_s += part["kernel_s"]
        m.peak_rss_mb = max(m.peak_rss_mb, part["peak_rss_mb"])
        for failure in part["failures"]:
            on_failure(failure)
    return m


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the library sources, which identifies the code measured
    also where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "vada").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_metadata(workload, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    import vada

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "vada_version": vada.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload_params": {
            **workload.settings,
            "passes": workload.passes,
            "ops": op_count(workload, seconds, trace),
            "tail_percentile": workload.tail_percentile,
        },
    }


def end_to_end(workload, m: Measurement, setup_s: float) -> tuple[dict, dict]:
    import numpy as np

    best, ok = m.seconds()
    q = workload.tail_percentile
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(ok) / float(best.sum()),
        "op_s.p50": float(np.percentile(ok, 50.0)) if len(ok) else 0.0,
        "op_s.tail": float(np.percentile(ok, q)) if len(ok) else 0.0,
        "success_frac": len(ok) / m.ops,
        "peak_rss_mb": m.peak_rss_mb,
    }
    details = {
        "successful_ops": len(ok),
        "failed_frac": 1.0 - len(ok) / m.ops,
        "tail_percentile": q,
        "ops_beyond_tail": int(np.sum(ok > values["op_s.tail"])),
        "host_kernel_s": {"reference": hostspeed.REFERENCE_S, "median": statistics.median(
            m.kernel_s), "min": min(m.kernel_s), "max": max(m.kernel_s)},
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, details


def run(name: str, seed: int, seconds: float, trace: bool, on_failure,
        setup_launches: int = SETUP_LAUNCHES) -> dict:
    """One benchmark run; returns the full record, whose "result" is the
    line printed last."""
    failures: dict[str, int] = {}

    def count_failure(failure: dict) -> None:
        key = ":".join(failure["reason"].split(":")[:2])  # values follow a second colon
        failures[key] = failures.get(key, 0) + 1
        on_failure(failure)

    if not trace:
        m = measure_in_workers(name, seed, seconds, count_failure)

    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    record = {"run": run_metadata(workload, seed, seconds, trace)}
    problems = workloads.run_guards(seed)
    record["guard_problems"] = problems

    if not trace:
        metrics, details = end_to_end(workload, m, setup_seconds(setup_launches))
    else:
        t = tracing.Tracer()
        tracing.install(t)
        m = measure(workload, seed, 0, op_count(workload, seconds, True), count_failure, tracer=t)
        metrics = tracing.layer_metrics(t, m.ops, m.traced / m.untraced - 1.0)
        details = {"coverage": tracing.coverage(t, m.traced)}
        record["spans"] = t.spans

    record["details"] = {**details, "failure_counts": failures, "truncated": m.truncated}
    record["result"] = {
        "correct": not problems,
        "attempted": m.ops,
        "failed": m.ops - sum(m.ok[: m.ops]),
        "metrics": metrics,
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["verify", "fiber", "allocate", "simulate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--worker", type=int, choices=range(WORKERS),
                        help="measure only this worker process's share of the ops and print "
                        "it as JSON (how an untraced run starts its workers)")
    args = parser.parse_args(argv)
    if not (SRC / "vada" / "__init__.py").is_file():
        print(f"error: no vada sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    if args.worker is not None:
        print(json.dumps(measure_slice(args.workload, args.seed, args.seconds, args.worker)))
        return 0

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    log_path = stem.with_name(stem.name + "-failures.jsonl")
    with open(log_path, "w") as log:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     lambda failure: log.write(json.dumps(failure) + "\n"))
    stem.with_suffix(".json").write_text(json.dumps(record) + "\n")

    result = record["result"]
    print(json.dumps(record["run"]), file=sys.stderr)
    for problem in record["guard_problems"]:
        print(f"guard failed: {problem}", file=sys.stderr)
    if result["failed"]:
        print(
            f"{result['failed']} of {result['attempted']} ops failed "
            f"{record['details']['failure_counts']}; replay log: {log_path}",
            file=sys.stderr,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
