"""Per-layer tracing for the benchmark's traced runs.

The probes wrap vada's public functions in the namespace of the module that
calls them (`vada.cli`, `vada.verify`, `vada.dynamics`, `vada.dual_rotor`)
and the module attributes that the benchmark's own workloads call through.
Nothing inside the library is edited. Coarse calls get spans (name, start,
end, parent span, op id), kept in memory and written out when the run
ends. Hot calls get counts, and the two hot calls whose time is reported
(`aero.bet_numeric_thrust`, `dual_rotor.allocate`) get summed times.

The code is single-threaded and has no queues, so no wait time is defined.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from vada import antagonistic, cli, config, dual_rotor, dynamics, verify, vsa

import workloads
from workloads import FIBER_FAMILIES, roundtrip_error

VERIFY_CHECKS = (
    "check_bet_quadrature",
    "check_damping_and_hardening",
    "check_vsa_cocontraction",
    "check_vada_damping.zero_trim",
    "check_vada_damping.trim",
    "check_trim_damping_fd",
    "check_allocation_roundtrip",
    "check_impedance_rk4",
    "check_mode_decoupling",
    "check_isomorphism",
)

# (name, unit, better) of every per-layer metric, in reporting order.
LAYER_METRICS = (
    [
        ("cli.main.self_s", "s", "lower"),
        ("config.RunConfig.load.s", "s", "lower"),
    ]
    + [(f"verify.{c}.s", "s", "lower") for c in VERIFY_CHECKS]
    + [
        ("verify.report_to_json.s", "s", "lower"),
        ("aero.bet_numeric_thrust.s", "s", "lower"),
        ("aero.thrust.calls", "count", "lower"),
        ("aero.speed_sensitivity.calls_per_point", "count", "lower"),
    ]
    + [(f"antagonistic.trace_fiber.s_per_point.{f}", "s", "lower") for f in FIBER_FAMILIES]
    + [
        ("antagonistic.monotonicity_sweep.s_per_point", "s", "lower"),
        ("antagonistic.passive_promptness_relation.s_per_point", "s", "lower"),
        ("antagonistic.channel_evals_per_point", "count", "lower"),
        ("antagonistic.max_residual_ratio", "ratio", "lower"),
        ("dual_rotor.allocate.s.identical", "s", "lower"),
        ("dual_rotor.allocate.s.distinct", "s", "lower"),
        ("dual_rotor.allocate.infeasible_of_feasible", "count", "lower"),
        ("dual_rotor.allocate.feasible_requests", "count", "higher"),
        ("dual_rotor.allocate.max_roundtrip_err", "ratio", "lower"),
        ("dual_rotor.net_force.calls_per_step", "count", "lower"),
        ("dynamics.simulate.s_per_step", "s", "lower"),
        ("dynamics.InputSchedule.rejected", "count", "lower"),
        ("dynamics.simulate.max_abs_err", "m/s", "lower"),
        ("dynamics.analytic_response.calls", "count", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)


class Tracer:
    """Spans, counts, summed times and maxima recorded by the probes."""

    def __init__(self):
        self.spans: list[list] = []  # [span_id, parent_id, op_id, name, start, end]
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.maxima: defaultdict = defaultdict(float)
        self.op_id = None
        self._stack: list[int] = []
        self._family: dict = {}  # id(actuator) -> (actuator, family)
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  self.op_id, name, perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[5] = perf_counter()
            self._stack.pop()

    def start_op(self, op_id: int) -> None:
        """Label the spans that follow with op_id; family tags live for one op."""
        self.op_id = op_id
        self._family.clear()

    def note_max(self, name: str, value: float) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    def tag(self, act, family: str):
        self._family[id(act)] = (act, family)
        return act

    def family(self, act) -> str:
        return self._family.get(id(act), (None, "untagged"))[1]

    # -- wrappers -----------------------------------------------------------

    def spanned(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def timed(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += perf_counter() - t0
                self.counts[name] += 1
        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        """Register a probe; it takes effect between enable() and disable()."""
        self._patches.append((owner, attr, vars(owner)[attr], replacement))

    def enable(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def disable(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)


def _channel_counted(t: Tracer, law):
    return dataclasses.replace(
        law,
        output_fn=t.counted(law.output_fn, "antagonistic.channel_evals"),
        output_sensitivity_fn=t.counted(law.output_sensitivity_fn, "antagonistic.channel_evals"),
    )


def _bridge(t: Tracer, fn, family_of):
    """Wrap a bridge into the generic core: count the channel evaluations of
    the actuator it builds and tag the actuator with its family."""
    @functools.wraps(fn)
    def wrapper(source, *args, **kwargs):
        act = fn(source, *args, **kwargs)
        act = dataclasses.replace(
            act,
            channel_plus=_channel_counted(t, act.channel_plus),
            channel_minus=_channel_counted(t, act.channel_minus),
        )
        return t.tag(act, family_of(source))
    return wrapper


def _vsa_family(cfg) -> str:
    return cfg.law.kind.split("(")[0]


def _vada_family(dr) -> str:
    return "vada_identical" if dr.rotor_fwd == dr.rotor_bwd else "vada_distinct"


def _trace_fiber(t: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(act, start, u1_end, steps):
        family = t.family(act)
        with t.span(f"antagonistic.trace_fiber.{family}"):
            path = fn(act, start, u1_end, steps)
        t.counts[f"antagonistic.trace_fiber.points.{family}"] += len(path.points)
        tol = antagonistic.FIBER_TOLERANCE * max(1.0, abs(path.level))
        t.note_max("antagonistic.max_residual_ratio", max(path.residuals) / tol)
        return path
    return wrapper


def _per_point(t: Tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(act, path, *args):
        with t.span(name):
            result = fn(act, path, *args)
        t.counts[f"{name}.points"] += len(path.points)
        return result
    return wrapper


def _allocate(t: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(dr, trim, sigma_des):
        kind = "identical" if dr.rotor_fwd == dr.rotor_bwd else "distinct"
        name = f"dual_rotor.allocate.{kind}"
        t0 = perf_counter()
        result = fn(dr, trim, sigma_des)
        t.seconds[name] += perf_counter() - t0
        t.counts[name] += 1
        if not result.feasible:
            t.counts["dual_rotor.allocate.infeasible"] += 1
        else:
            request = {
                "k_thrust": [dr.rotor_fwd.k_thrust, dr.rotor_bwd.k_thrust],
                "k_inflow": [dr.rotor_fwd.k_inflow, dr.rotor_bwd.k_inflow],
                "nu_bar": trim.nu_bar,
                "force_level": trim.force_level,
                "sigma_des": sigma_des,
            }
            t.note_max("dual_rotor.allocate.max_roundtrip_err", roundtrip_error(request, result.speeds))
        return result
    return wrapper


def _simulate(t: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls_before = t.counts["dual_rotor.net_force"]
        with t.span("dynamics.simulate"):
            traj = fn(*args, **kwargs)
        t.counts["dynamics.simulate.steps"] += len(traj.times) - 1
        t.counts["dual_rotor.net_force.in_simulate"] += t.counts["dual_rotor.net_force"] - calls_before
        return traj
    return wrapper


def _input_schedule(t: Tracer, cls):
    @functools.wraps(cls, updated=())
    def wrapper(*args, **kwargs):
        try:
            return cls(*args, **kwargs)
        except ValueError:
            t.counts["dynamics.InputSchedule.rejected"] += 1
            raise
    return wrapper


def _check(t: Tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(rng, *args, **kwargs):
        label = name
        if name == "check_vada_damping":
            label += ".trim" if kwargs.get("trims") else ".zero_trim"
        with t.span(f"verify.{label}"):
            record = fn(rng, *args, **kwargs)
        if name == "check_impedance_rk4":
            t.note_max("dynamics.simulate.max_abs_err", record["worst"])
        return record
    return wrapper


def _noted(t: Tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args):
        value = fn(*args)
        t.note_max(name, value)
        return value
    return wrapper


def install(t: Tracer) -> None:
    """Register every probe with t."""
    # the simulate workload's own check, run outside the timed span
    t.patch(workloads, "max_abs_error",
            _noted(t, workloads.max_abs_error, "dynamics.simulate.max_abs_err"))
    t.patch(cli, "main", t.spanned(cli.main, "cli.main"))
    load = vars(config.RunConfig)["load"].__func__
    t.patch(config.RunConfig, "load", classmethod(t.spanned(load, "config.RunConfig.load")))
    t.patch(cli, "run_verify", t.spanned(cli.run_verify, "verify.run_verify"))
    t.patch(cli, "report_to_json", t.spanned(cli.report_to_json, "verify.report_to_json"))

    for name in {c.split(".")[0] for c in VERIFY_CHECKS}:
        t.patch(verify, name, _check(t, getattr(verify, name), name))
    t.patch(verify, "bet_numeric_thrust", t.timed(verify.bet_numeric_thrust, "aero.bet_numeric_thrust"))
    t.patch(verify, "thrust", t.counted(verify.thrust, "aero.thrust"))
    t.patch(verify, "analytic_response",
            t.counted(verify.analytic_response, "dynamics.analytic_response"))

    for owner in (verify, dual_rotor):
        t.patch(owner, "allocate", _allocate(t, owner.allocate))
        t.patch(owner, "as_antagonistic_at_trim", _bridge(t, owner.as_antagonistic_at_trim, _vada_family))
    for owner in (verify, vsa):
        t.patch(owner, "as_antagonistic", _bridge(t, owner.as_antagonistic, _vsa_family))
    for owner in (verify, dynamics):
        t.patch(owner, "simulate", _simulate(t, owner.simulate))

    t.patch(antagonistic, "trace_fiber", _trace_fiber(t, antagonistic.trace_fiber))
    for name in ("monotonicity_sweep", "passive_promptness_relation"):
        t.patch(antagonistic, name, _per_point(t, getattr(antagonistic, name), f"antagonistic.{name}"))

    t.patch(dual_rotor, "speed_sensitivity", t.counted(dual_rotor.speed_sensitivity, "aero.speed_sensitivity"))
    t.patch(dynamics, "net_force", t.counted(dynamics.net_force, "dual_rotor.net_force"))
    t.patch(dynamics, "InputSchedule", _input_schedule(t, dynamics.InputSchedule))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_seconds(t: Tracer) -> dict:
    """Summed duration of the spans of each name."""
    total = defaultdict(float)
    for _, _, _, name, start, end in t.spans:
        total[name] += end - start
    return total


def coverage(t: Tracer, op_seconds: float) -> dict:
    """How much of the ops' wall time the probes' spans account for.

    `cli_main` is the cli.main spans over op_seconds. `children` is what the
    config, run_verify and report_to_json spans cover of cli.main, and
    `checks` what the check spans cover of run_verify.
    """
    s = span_seconds(t)
    return {
        "cli_main": _ratio(s["cli.main"], op_seconds),
        "children": _ratio(
            s["config.RunConfig.load"] + s["verify.run_verify"] + s["verify.report_to_json"],
            s["cli.main"],
        ),
        "checks": _ratio(sum(s[f"verify.{c}"] for c in VERIFY_CHECKS), s["verify.run_verify"]),
    }


def layer_metrics(t: Tracer, ops: int, overhead_frac: float) -> dict:
    """Every metric of LAYER_METRICS; a layer the workload does not call reads 0."""
    s = span_seconds(t)
    c, sec, mx = t.counts, t.seconds, t.maxima
    main_ids = {rec[0] for rec in t.spans if rec[3] == "cli.main"}
    main_children = sum(end - start for _, parent, _, _, start, end in t.spans if parent in main_ids)
    fiber_points = {f: c[f"antagonistic.trace_fiber.points.{f}"] for f in FIBER_FAMILIES}
    vada_points = fiber_points["vada_identical"] + fiber_points["vada_distinct"]
    all_points = sum(v for k, v in c.items() if k.startswith("antagonistic.trace_fiber.points."))
    allocs = c["dual_rotor.allocate.identical"] + c["dual_rotor.allocate.distinct"]

    values = {
        "cli.main.self_s": _ratio(s["cli.main"] - main_children, ops),
        "config.RunConfig.load.s": _ratio(s["config.RunConfig.load"], ops),
        "verify.report_to_json.s": _ratio(s["verify.report_to_json"], ops),
        "aero.bet_numeric_thrust.s": _ratio(sec["aero.bet_numeric_thrust"], ops),
        "aero.thrust.calls": _ratio(c["aero.thrust"], ops),
        "aero.speed_sensitivity.calls_per_point": _ratio(c["aero.speed_sensitivity"], vada_points),
        "antagonistic.monotonicity_sweep.s_per_point": _ratio(
            s["antagonistic.monotonicity_sweep"], c["antagonistic.monotonicity_sweep.points"]),
        "antagonistic.passive_promptness_relation.s_per_point": _ratio(
            s["antagonistic.passive_promptness_relation"],
            c["antagonistic.passive_promptness_relation.points"]),
        "antagonistic.channel_evals_per_point": _ratio(c["antagonistic.channel_evals"], all_points),
        "antagonistic.max_residual_ratio": mx["antagonistic.max_residual_ratio"],
        "dual_rotor.allocate.s.identical": _ratio(
            sec["dual_rotor.allocate.identical"], c["dual_rotor.allocate.identical"]),
        "dual_rotor.allocate.s.distinct": _ratio(
            sec["dual_rotor.allocate.distinct"], c["dual_rotor.allocate.distinct"]),
        "dual_rotor.allocate.infeasible_of_feasible": c["dual_rotor.allocate.infeasible"],
        "dual_rotor.allocate.feasible_requests": allocs,
        "dual_rotor.allocate.max_roundtrip_err": mx["dual_rotor.allocate.max_roundtrip_err"],
        "dual_rotor.net_force.calls_per_step": _ratio(
            c["dual_rotor.net_force.in_simulate"], c["dynamics.simulate.steps"]),
        "dynamics.simulate.s_per_step": _ratio(s["dynamics.simulate"], c["dynamics.simulate.steps"]),
        "dynamics.InputSchedule.rejected": c["dynamics.InputSchedule.rejected"],
        "dynamics.simulate.max_abs_err": mx["dynamics.simulate.max_abs_err"],
        "dynamics.analytic_response.calls": _ratio(c["dynamics.analytic_response"], ops),
        "trace.overhead_frac": overhead_frac,
    }
    for check in VERIFY_CHECKS:
        values[f"verify.{check}.s"] = _ratio(s[f"verify.{check}"], ops)
    for family, points in fiber_points.items():
        values[f"antagonistic.trace_fiber.s_per_point.{family}"] = _ratio(
            s[f"antagonistic.trace_fiber.{family}"], points)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
