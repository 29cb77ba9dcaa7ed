"""The benchmark's four workloads and its once-per-run correctness guards.

Replaying one logged op:

    w = WORKLOADS[name](seed)
    w.check(params, w.op(w.prepare(params)))
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from vada import antagonistic as core
from vada import cli, dual_rotor, dynamics, vsa
from vada.aero import AffineThrustModel

HERE = Path(__file__).resolve().parent
VERIFY_CONFIG = HERE / "verify.json"
INJECT_CONFIG = HERE / "verify_inject.json"

# Per-op parameter draws are made in vectorized blocks of this size.
BLOCK = 1023


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """vada.cli.main in process, with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def force_at(k_thrust, k_inflow, v, nu):
    """Net force of a dual rotor, written out independently of the library:
    k_T1 v1^2 - k_D1 v1 nu - (k_T2 v2^2 + k_D2 v2 nu)."""
    return (
        k_thrust[0] * v[0] * v[0] - k_inflow[0] * v[0] * nu
        - (k_thrust[1] * v[1] * v[1] + k_inflow[1] * v[1] * nu)
    )


def damping_at(k_inflow, v):
    """Incremental damping of affine rotors: k_D1 v1 + k_D2 v2."""
    return k_inflow[0] * v[0] + k_inflow[1] * v[1]


def _models(params):
    fwd = AffineThrustModel(params["k_thrust"][0], params["k_inflow"][0])
    if params["identical"]:
        return fwd, fwd
    return fwd, AffineThrustModel(params["k_thrust"][1], params["k_inflow"][1])


class Workload:
    """A stream of ops drawn from a seed, and how to run and check one.

    `params` yields per-op parameter dicts; each call restarts the same
    stream. The dicts hold plain JSON values, so a failed op can be logged
    and replayed. `prepare` builds library inputs from one dict outside the
    timed span, `op` is the timed op, and `check` tests its output outside
    the timed span, returning None for a successful op and a one-line reason
    otherwise. A subclass also fixes how it is measured: `passes` over the
    same ops (an op's time is its best over the passes), `op_rate`, the
    distinct ops a run holds per second of --seconds, and `tail_percentile`,
    the percentile reported as op_s.tail.
    """

    name: str
    settings: dict
    passes: int
    op_rate: float
    tail_percentile: float

    def __init__(self, seed: int):
        self.seed = seed

    def params(self):
        raise NotImplementedError

    def prepare(self, params):
        return params

    def op(self, prepared):
        raise NotImplementedError

    def check(self, params, out) -> str | None:
        raise NotImplementedError


class Verify(Workload):
    """One op is `vada verify --config <cfg> --seed s` in process."""

    name = "verify"
    settings = {"config": VERIFY_CONFIG.name}
    passes, op_rate, tail_percentile = 1, 2.2, 75.0

    def params(self):
        i = 0
        while True:
            yield {"verify_seed": self.seed * 100_000 + i}
            i += 1

    def prepare(self, params):
        return ["verify", "--config", str(VERIFY_CONFIG), "--seed", str(params["verify_seed"])]

    def op(self, argv):
        return run_cli(argv)

    def check(self, params, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        try:
            report = strict_json(text)
        except ValueError as exc:
            return f"stdout is not strict JSON: {exc}"
        if report.get("all_passed") is not True:
            failed = [r["property"] for r in report["records"] if not r["passed"]]
            return f"all_passed is not true: {failed}"
        return None


FIBER_FAMILIES = ("quadratic", "exponential", "cubic", "vada_identical", "vada_distinct")
FIBER_POINTS = 200
# Lower end of both rotor speed boxes in the VADA families, rad/s.
VADA_SPEED_FLOOR = 1.0


class Fiber(Workload):
    """One op traces a fiber of FIBER_POINTS points, runs both monotonicity
    sweeps and the passive/promptness relation. Ops cycle through the five
    families in FIBER_FAMILIES."""

    name = "fiber"
    settings = {"points": FIBER_POINTS, "families": list(FIBER_FAMILIES)}
    passes, op_rate, tail_percentile = 4, 100.0, 99.0

    def params(self):
        rng = np.random.default_rng(self.seed)
        i = 0
        while True:
            family = FIBER_FAMILIES[i % len(FIBER_FAMILIES)]
            if family in ("quadratic", "exponential", "cubic"):
                p = {
                    "family": family,
                    "k": rng.uniform(0.2, 3.0),
                    "alpha": rng.uniform(0.3, 1.5),
                    "pulley_radius": rng.uniform(0.5, 2.0),
                    "start": [rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)],
                }
            else:
                identical = family == "vada_identical"
                k_thrust = rng.uniform(0.1, 2.0, 2)
                k_inflow = rng.uniform(0.1, 2.0, 2)
                if identical:
                    k_thrust[1], k_inflow[1] = k_thrust[0], k_inflow[0]
                    nu_bar = 0.0
                else:
                    # nonzero trim within 30 % of the monotone-regime bound
                    # 2 (k_T / k_D) v at the speed floor of either rotor
                    cap = 0.3 * VADA_SPEED_FLOOR * min(2.0 * k_thrust / k_inflow)
                    nu_bar = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0) * cap
                p = {
                    "family": family,
                    "identical": identical,
                    "k_thrust": k_thrust.tolist(),
                    "k_inflow": k_inflow.tolist(),
                    "nu_bar": float(nu_bar),
                    "start": [rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0)],
                }
            p["u1_end"] = p["start"][0] + rng.uniform(1.0, 3.0)
            yield {k: (float(v) if isinstance(v, np.floating) else v) for k, v in p.items()}
            i += 1

    def op(self, params):
        family = params["family"]
        if family.startswith("vada"):
            fwd, bwd = _models(params)
            box = ((VADA_SPEED_FLOOR, math.inf), (VADA_SPEED_FLOOR, math.inf))
            dr = dual_rotor.DualRotor(rotor_fwd=fwd, rotor_bwd=bwd, speed_box=box)
            act = dual_rotor.as_antagonistic_at_trim(dr, params["nu_bar"])
        else:
            if family == "exponential":
                law = vsa.TendonLaw.exponential(params["k"], params["alpha"])
            else:
                law = getattr(vsa.TendonLaw, family)(params["k"])
            cfg = vsa.VsaConfig(
                law=law, pulley_radius=params["pulley_radius"], state=tuple(params["start"])
            )
            act = vsa.as_antagonistic(cfg)
        path = core.trace_fiber(act, params["start"], params["u1_end"], FIBER_POINTS)
        passive = core.monotonicity_sweep(act, path, "passive")
        prompt = core.monotonicity_sweep(act, path, "promptness")
        relation = core.passive_promptness_relation(act, path)
        return act, path, passive, prompt, relation

    def check(self, params, out):
        act, path, passive, prompt, relation = out
        if len(path.points) != FIBER_POINTS or len(path.residuals) != FIBER_POINTS:
            return f"path has {len(path.points)} points, expected {FIBER_POINTS}"
        tol = core.FIBER_TOLERANCE * max(1.0, abs(path.level))
        worst = max(path.residuals)
        if not worst <= tol:
            return f"fiber residual {worst:.3e} exceeds {tol:.3e}"
        if not all(act.in_box(u) for u in path.points):
            return "fiber point outside the admissible box"
        if not (passive.is_strictly_increasing and prompt.is_strictly_increasing):
            return (
                f"sweep not strictly increasing: passive {passive.is_strictly_increasing}, "
                f"promptness {prompt.is_strictly_increasing}"
            )
        if len(relation.pairs) != FIBER_POINTS:
            return f"relation has {len(relation.pairs)} pairs, expected {FIBER_POINTS}"
        return None


ALLOC_ROUNDTRIP_TOL = 1e-9


class Allocate(Workload):
    """One op is one dual_rotor.allocate call on a request that is feasible
    by construction: force and damping are computed from an in-box speed
    pair. Every third op uses identical rotors, the others distinct ones.

    With half and half, the median op would fall in the gap between the
    fast identical-rotor times and the slower distinct-rotor times and jump
    between them from run to run; with one third it lies within the
    distinct-rotor times."""

    name = "allocate"
    settings = {"k_range": [0.05, 5.0], "v_range": [0.01, 50.0], "nu_bar_range": [-20.0, 20.0],
                "identical_every": 3}
    passes, op_rate, tail_percentile = 2, 16_000.0, 99.0

    def params(self):
        rng = np.random.default_rng(self.seed)
        while True:
            k_thrust = rng.uniform(0.05, 5.0, (BLOCK, 2))
            k_inflow = rng.uniform(0.05, 5.0, (BLOCK, 2))
            k_thrust[0::3, 1] = k_thrust[0::3, 0]
            k_inflow[0::3, 1] = k_inflow[0::3, 0]
            speeds = rng.uniform(0.01, 50.0, (BLOCK, 2))
            nu_bar = rng.uniform(-20.0, 20.0, BLOCK)
            for i, (kt, kd, v, nu) in enumerate(
                zip(k_thrust.tolist(), k_inflow.tolist(), speeds.tolist(), nu_bar.tolist())
            ):
                yield {
                    "identical": i % 3 == 0,
                    "k_thrust": kt,
                    "k_inflow": kd,
                    "speeds": v,
                    "nu_bar": nu,
                    "force_level": force_at(kt, kd, v, nu),
                    "sigma_des": damping_at(kd, v),
                }

    def prepare(self, params):
        fwd, bwd = _models(params)
        dr = dual_rotor.DualRotor(rotor_fwd=fwd, rotor_bwd=bwd)
        trim = dual_rotor.TrimPoint(nu_bar=params["nu_bar"], force_level=params["force_level"])
        return dr, trim, params["sigma_des"]

    def op(self, args):
        return dual_rotor.allocate(*args)

    def check(self, params, out):
        if not out.feasible:
            return f"feasible request reported infeasible: {out.reason}"
        v = out.speeds
        if not (v[0] > 0.0 and v[1] > 0.0):
            return f"speeds {v} outside the box"
        err = roundtrip_error(params, v)
        if not err <= ALLOC_ROUNDTRIP_TOL:
            return f"round-trip error {err:.3e} exceeds {ALLOC_ROUNDTRIP_TOL:.0e}"
        return None


def roundtrip_error(params, v) -> float:
    """Relative error of the force and damping achieved at speeds v."""
    f, s = params["force_level"], params["sigma_des"]
    err_f = abs(force_at(params["k_thrust"], params["k_inflow"], v, params["nu_bar"]) - f)
    err_s = abs(damping_at(params["k_inflow"], v) - s)
    return max(err_f / max(1.0, abs(f)), err_s / max(1.0, s))


SIM_T_END = 2.0
SIM_DT = 1e-4
SIM_TOL = 1e-8


class Simulate(Workload):
    """One op builds an InputSchedule of 1-4 segments and runs
    dynamics.simulate over SIM_T_END at step SIM_DT (20,000 RK4 steps).
    Segment counts are drawn as a random permutation of 1..4 for each block
    of four ops, so each count is uniform and exactly a quarter of ops."""

    name = "simulate"
    settings = {"t_end": SIM_T_END, "dt": SIM_DT, "segments": [1, 4]}
    # 320 ops at --seconds 25: whole blocks of four
    passes, op_rate, tail_percentile = 1, 12.8, 90.0

    def params(self):
        rng = np.random.default_rng(self.seed)
        while True:
            for segments in rng.permutation([1, 2, 3, 4]).tolist():
                yield {
                    "mass": rng.uniform(0.5, 2.0),
                    "identical": False,
                    "k_thrust": rng.uniform(0.5, 2.0, 2).tolist(),
                    "k_inflow": rng.uniform(0.5, 2.0, 2).tolist(),
                    "nu0": rng.uniform(-2.0, 2.0),
                    "speeds": rng.uniform(1.0, 5.0, (segments, 2)).tolist(),
                    "forces": rng.uniform(-1.0, 1.0, segments).tolist(),
                    "breakpoints": np.sort(rng.uniform(0.0, SIM_T_END, segments - 1)).tolist(),
                }

    def prepare(self, params):
        fwd, bwd = _models(params)
        body = dynamics.BodyConfig(
            mass=params["mass"], dual_rotor=dual_rotor.DualRotor(rotor_fwd=fwd, rotor_bwd=bwd)
        )
        return body, params

    def op(self, args):
        body, params = args
        schedule = dynamics.InputSchedule(
            speeds=[tuple(v) for v in params["speeds"]],
            forces=list(params["forces"]),
            breakpoints=list(params["breakpoints"]),
        )
        return body, dynamics.simulate(body, schedule, params["nu0"], SIM_T_END, SIM_DT)

    def check(self, params, out):
        err = max_abs_error(params, *out)
        if not err <= SIM_TOL:
            return f"max |nu - analytic| {err:.3e} exceeds {SIM_TOL:.0e}"
        return None


def max_abs_error(params, body, traj) -> float:
    """Largest gap between a simulated trajectory and the analytic_response
    solution chained segment by segment."""
    times = np.asarray(traj.times)
    nus = np.asarray(traj.nu)
    if times[0] != 0.0 or not math.isclose(times[-1], SIM_T_END, rel_tol=1e-12):
        return math.inf
    edges = [0.0, *params["breakpoints"], SIM_T_END]
    nu_a = params["nu0"]
    worst = 0.0
    for a, b, v, f_ext in zip(edges, edges[1:], params["speeds"], params["forces"]):
        # analytic_response(body, v, nu_a, f_ext, t - a), vectorized over the
        # samples of this segment; the segment end value comes from the library
        c_app = dynamics.apparent_damping(body, v)
        nu_inf = dynamics.equilibrium_velocity(body, v) + f_ext / c_app
        mask = (times >= a) & (times <= b)
        ref = nu_inf + (nu_a - nu_inf) * np.exp(-c_app * (times[mask] - a) / body.mass)
        if mask.any():
            worst = max(worst, float(np.max(np.abs(nus[mask] - ref))))
        nu_a = dynamics.analytic_response(body, v, nu_a, f_ext, b - a)
    return worst


WORKLOADS = {w.name: w for w in (Verify, Fiber, Allocate, Simulate)}


def run_guards(seed: int) -> list[str]:
    """Once-per-run correctness guards; returns the list of violations.

    The same verify seed must give a byte-identical report twice, and the
    constant-damping injection must make verify exit 1.
    """
    problems = []
    verify_seed = str(seed * 100_000)
    argv = ["verify", "--config", str(VERIFY_CONFIG), "--seed", verify_seed]
    first, second = run_cli(argv), run_cli(argv)
    if first[0] != 0:
        problems.append(f"verify --seed {verify_seed} exited {first[0]}")
    if first != second:
        problems.append(f"verify --seed {verify_seed} is not byte-identical across two runs")
    code, text = run_cli(["verify", "--config", str(INJECT_CONFIG), "--seed", verify_seed])
    if code != 1:
        problems.append(f"verify with inject_constant_damping exited {code}, expected 1")
    elif strict_json(text).get("all_passed") is not False:
        problems.append("verify with inject_constant_damping reported all_passed")
    return problems
