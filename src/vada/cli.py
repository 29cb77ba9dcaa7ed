"""Command-line front end.

    vada <scenario> --config <path> [--seed N] [--out <dir>]

Exit status: 0 on success, 1 on a domain-level negative result
(infeasible allocation, failed monotonicity verdict, failed property),
2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path

from . import antagonistic as core
from .aero import bet_numeric_thrust, derive_coefficients, thrust
from .config import (
    ConfigError,
    RunConfig,
    build_dual_rotor,
    build_rotor_geometry,
    build_schedule,
    build_vsa,
)
from .dual_rotor import TrimPoint, allocate, as_antagonistic_at_trim
from .dynamics import (
    BodyConfig,
    apparent_damping,
    equilibrium_velocity,
    mode_decomposition,
    simulate,
)
from .verify import report_to_json, run_verify
from .vsa import as_antagonistic

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _emit(record: dict, out_dir: Path | None, filename: str) -> None:
    text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if out_dir is not None:
        (out_dir / filename).write_text(text + "\n")


def run_derive_coeffs(cfg: RunConfig, out_dir: Path | None) -> int:
    geom = build_rotor_geometry(cfg.model)
    model = derive_coefficients(geom)
    v = cfg.params.get("sample_speed", 100.0)
    nu_in = cfg.params.get("sample_inflow", 1.0)
    closed = thrust(model, v, nu_in)
    residual = abs(bet_numeric_thrust(geom, v, nu_in) - closed) / max(1.0, abs(closed))
    _emit(
        {
            "k_thrust": model.k_thrust,
            "k_inflow": model.k_inflow,
            "sample_point": {"v": v, "nu_in": nu_in, "thrust": closed},
            "quadrature_residual": residual,
        },
        out_dir,
        "coefficients.json",
    )
    return EXIT_OK


def _build_actuator(cfg: RunConfig):
    if "vsa" in cfg.model:
        vsa_cfg = build_vsa(cfg.model)
        return as_antagonistic(vsa_cfg), tuple(cfg.params.get("start", vsa_cfg.state))
    dr = build_dual_rotor(cfg.model)
    nu_bar = cfg.params.get("nu_bar", 0.0)
    start = cfg.params.get("start")
    if start is None:
        raise ConfigError("params.start required for a dual-rotor fiber sweep")
    return as_antagonistic_at_trim(dr, nu_bar), tuple(start)


def run_fiber_sweep(cfg: RunConfig, out_dir: Path | None) -> int:
    act, start = _build_actuator(cfg)
    steps = int(cfg.params.get("steps", 50))
    points = max(1, steps)
    u1_end = cfg.params.get("u1_end", start[0] + 1.0)
    path = core.trace_fiber(act, start, u1_end, points)

    rows = []
    for (u1, u2), res in zip(path.points, path.residuals):
        rows.append(
            [u1, u2, res, core.passive_coefficient(act, (u1, u2)), core.promptness(act, (u1, u2))]
        )
    target = (out_dir / "fiber_sweep.csv") if out_dir is not None else None
    writer_target = open(target, "w", newline="") if target else sys.stdout
    try:
        writer = csv.writer(writer_target)
        writer.writerow(["u1", "u2", "task_residual", "passive_coeff", "promptness"])
        for row in rows:
            writer.writerow([repr(x) for x in row])
    finally:
        if target:
            writer_target.close()

    if len(rows) < 2:
        print("verdict: vacuous (single-point sweep)")
        return EXIT_OK
    passive_ok = core.monotonicity_sweep(act, path, "passive").is_strictly_increasing
    prompt_ok = core.monotonicity_sweep(act, path, "promptness").is_strictly_increasing
    print(f"verdict: passive_coeff strict increase: {'PASS' if passive_ok else 'FAIL'}")
    print(f"verdict: promptness strict increase: {'PASS' if prompt_ok else 'FAIL'}")
    return EXIT_OK if passive_ok and prompt_ok else EXIT_NEGATIVE


def run_allocate(cfg: RunConfig, out_dir: Path | None) -> int:
    dr = build_dual_rotor(cfg.model)
    params = cfg.params
    for key in ("force_level", "sigma_des"):
        if key not in params:
            raise ConfigError(f"params.{key} required for allocate")
    trim = TrimPoint(nu_bar=params.get("nu_bar", 0.0), force_level=params["force_level"])
    result = allocate(dr, trim, params["sigma_des"])
    common, differential = mode_decomposition(result.speeds)
    record = {
        "speeds": list(result.speeds),
        "achieved_force": result.achieved_force,
        "achieved_damping": result.achieved_damping,
        "feasible": result.feasible,
        "common_mode": common,
        "differential_mode": differential,
    }
    if not result.feasible:
        record["reason"] = result.reason
    _emit(record, out_dir, "allocation.json")
    return EXIT_OK if result.feasible else EXIT_NEGATIVE


def _fit_time_constant(times, nus, nu_inf):
    """Least-squares slope of ln|nu - nu_inf| against t; returns 1/|slope|."""
    ts, ys = [], []
    for t, x in zip(times, nus):
        gap = abs(x - nu_inf)
        if gap > 1e-12:
            ts.append(t)
            ys.append(math.log(gap))
    if len(ts) < 2:
        return None
    n = len(ts)
    mean_t = sum(ts) / n
    mean_y = sum(ys) / n
    num = sum((t - mean_t) * (y - mean_y) for t, y in zip(ts, ys))
    den = sum((t - mean_t) ** 2 for t in ts)
    if den == 0.0 or num == 0.0:
        return None
    return -den / num if num < 0 else None


def run_simulate(cfg: RunConfig, out_dir: Path | None) -> int:
    dr = build_dual_rotor(cfg.model)
    params = cfg.params
    for key in ("mass", "nu0", "t_end", "dt", "schedule"):
        if key not in params:
            raise ConfigError(f"params.{key} required for simulate")
    for key in ("mass", "nu0", "t_end", "dt"):
        if isinstance(params[key], bool) or not isinstance(params[key], (int, float)):
            raise ConfigError(f"params.{key} must be a number, got {params[key]!r}")
    schedule = build_schedule(params["schedule"])
    try:
        body = BodyConfig(mass=params["mass"], dual_rotor=dr)
        traj = simulate(body, schedule, params["nu0"], params["t_end"], params["dt"])
    except ValueError as exc:
        # every check on this path is on a configured value: mass, t_end,
        # dt, or speeds against the speed box
        raise ConfigError(f"params: {exc}") from exc
    if out_dir is not None:
        traj.to_csv(out_dir / "trajectory.csv")

    segments = []
    for a, b, v, f_ext in schedule.segments(params["t_end"]):
        c_app = apparent_damping(body, v)
        nu_eq = equilibrium_velocity(body, v)
        nu_inf = nu_eq + f_ext / c_app
        lo, hi = bisect_left(traj.times, a), bisect_right(traj.times, b)
        tau_fit = (
            _fit_time_constant(traj.times[lo:hi], traj.nu[lo:hi], nu_inf) if hi - lo > 2 else None
        )
        tau_model = body.mass / c_app
        segments.append(
            {
                "t_start": a,
                "t_end": b,
                "nu_eq": nu_eq,
                "c_app": c_app,
                "time_constant_model": tau_model,
                "time_constant_fit": tau_fit,
                "fit_relative_deviation": (
                    abs(tau_fit - tau_model) / tau_model if tau_fit is not None else None
                ),
            }
        )
    _emit({"segments": segments, "final_nu": traj.nu[-1]}, out_dir, "summary.json")
    return EXIT_OK


def run_verify_scenario(cfg: RunConfig, out_dir: Path | None, seed_override) -> int:
    seed = seed_override if seed_override is not None else cfg.params.get("seed", 0)
    inject = bool(cfg.params.get("inject_constant_damping", False))
    report = run_verify(seed=seed, inject_constant_damping=inject)
    text = report_to_json(report)
    print(text)
    if out_dir is not None:
        (out_dir / "verification_report.json").write_text(text + "\n")
    return EXIT_OK if report["all_passed"] else EXIT_NEGATIVE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vada",
        description="Antagonistic actuation numerics: thrust models, fiber sweeps, "
        "allocation, impedance simulation, and property verification.",
    )
    parser.add_argument(
        "scenario",
        choices=["derive-coeffs", "fiber-sweep", "allocate", "simulate", "verify"],
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the verification seed")
    parser.add_argument("--out", default=None, help="directory for output files")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    out_dir = None
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    try:
        cfg = RunConfig.load(args.config)
        if cfg.scenario != args.scenario:
            raise ConfigError(
                f"config declares scenario {cfg.scenario!r} but {args.scenario!r} was requested"
            )
        if args.scenario == "derive-coeffs":
            return run_derive_coeffs(cfg, out_dir)
        if args.scenario == "fiber-sweep":
            return run_fiber_sweep(cfg, out_dir)
        if args.scenario == "allocate":
            return run_allocate(cfg, out_dir)
        if args.scenario == "simulate":
            return run_simulate(cfg, out_dir)
        return run_verify_scenario(cfg, out_dir, args.seed)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, core.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
