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
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import antagonistic as core
from .aero import bet_numeric_thrust, derive_coefficients, thrust
from .config import (
    SCENARIOS,
    ConfigError,
    RunConfig,
    _integer,
    _number,
    build_dual_rotor,
    build_rotor_geometry,
    build_schedule,
    build_vsa,
)
from .dual_rotor import TrimPoint, allocate, as_antagonistic_at_trim
from .dynamics import BodyConfig, mode_decomposition, simulate
from .verify import report_to_json, run_verify
from .vsa import as_antagonistic

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

# The most samples one run may ask for (fiber-sweep steps, simulate t_end / dt),
# so that a config cannot demand more memory than a sweep or a trajectory needs.
MAX_SAMPLES = 1_000_000


def _emit(record: dict, out_dir: Path | None, filename: str) -> None:
    try:
        text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        # a record holds only numbers computed from the configured ones
        raise ConfigError(f"{filename}: the configured values leave the float range ({exc})") from exc
    print(text)
    if out_dir is not None:
        (out_dir / filename).write_text(text + "\n")


def run_derive_coeffs(cfg: RunConfig, out_dir: Path | None) -> int:
    geom = build_rotor_geometry(cfg.model)
    model = derive_coefficients(geom)
    v = _number(cfg.params, "sample_speed", "params", 100.0)
    if not v > 0.0:
        # the quadrature oracle needs a spinning rotor
        raise ConfigError(f"params.sample_speed must be positive, got {v}")
    nu_in = _number(cfg.params, "sample_inflow", "params", 1.0)
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
    params = cfg.params
    if "vsa" in cfg.model:
        vsa_cfg = build_vsa(cfg.model)
        act, start = as_antagonistic(vsa_cfg), params.get("start", vsa_cfg.state)
    else:
        dr = build_dual_rotor(cfg.model)
        if "start" not in params:
            raise ConfigError("params.start required for a dual-rotor fiber sweep")
        try:
            act = as_antagonistic_at_trim(dr, _number(params, "nu_bar", "params", 0.0))
        except ValueError as exc:
            # the configured trim leaves the monotone regime of the configured box
            raise ConfigError(f"params.nu_bar: {exc}") from exc
        start = params["start"]
    start = (_number(start, 0, "params.start"), _number(start, 1, "params.start"))
    if not act.in_box(start):
        raise ConfigError(f"params.start {start} outside admissible box {act.admissible_box}")
    return act, start


def run_fiber_sweep(cfg: RunConfig, out_dir: Path | None) -> int:
    act, start = _build_actuator(cfg)
    steps = _integer(cfg.params, "steps", 50, least=2)
    if steps > MAX_SAMPLES:
        raise ConfigError(f"params.steps must be at most {MAX_SAMPLES}, got {steps}")
    u1_end = _number(cfg.params, "u1_end", "params", start[0] + 1.0)
    try:
        core.fiber_grid(start[0], u1_end, steps)
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc
    try:
        path = core.trace_fiber(act, start, u1_end, steps)
    except OverflowError as exc:
        raise ConfigError(
            f"the configured values drive the sweep out of the float range ({exc})"
        ) from exc
    passive = core.monotonicity_sweep(act, path, "passive")
    prompt = core.monotonicity_sweep(act, path, "promptness")

    columns = (*path.points.T, path.residuals, passive.values, prompt.values)
    if not all(np.isfinite(c).all() for c in columns):
        raise ConfigError("the configured values drive the sweep out of the float range")
    rows = zip(*(c.tolist() for c in columns))
    target = (out_dir / "fiber_sweep.csv") if out_dir is not None else None
    writer_target = open(target, "w", newline="") if target else sys.stdout
    try:
        writer = csv.writer(writer_target)
        writer.writerow(["u1", "u2", "task_residual", "passive_coeff", "promptness"])
        writer.writerows([repr(x) for x in row] for row in rows)
    finally:
        if target:
            writer_target.close()

    # the verdicts go to stderr, so that stdout holds the CSV alone without --out
    for name, report in (("passive_coeff", passive), ("promptness", prompt)):
        verdict = "PASS" if report.is_strictly_increasing else "FAIL"
        print(f"verdict: {name} strict increase: {verdict}", file=sys.stderr)
    ok = passive.is_strictly_increasing and prompt.is_strictly_increasing
    return EXIT_OK if ok else EXIT_NEGATIVE


def run_allocate(cfg: RunConfig, out_dir: Path | None) -> int:
    dr = build_dual_rotor(cfg.model)
    params = cfg.params
    nu_bar = _number(params, "nu_bar", "params", 0.0)
    trim = TrimPoint(nu_bar=nu_bar, force_level=_number(params, "force_level", "params"))
    sigma_des = _number(params, "sigma_des", "params")
    try:
        result = allocate(dr, trim, sigma_des)
    except ValueError as exc:
        # allocate's checks are on sigma_des: positive, and no underflow
        raise ConfigError(f"params: {exc}") from exc
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


def _fit_time_constant(times: np.ndarray, nus: np.ndarray, nu_inf: float):
    """Least-squares slope of ln|nu - nu_inf| against t over the samples
    whose gap exceeds 1e-12; returns 1/|slope|, or None without a decay."""
    gap = np.abs(nus - nu_inf)
    keep = gap > 1e-12
    if np.count_nonzero(keep) < 2:
        return None
    t = times[keep]
    y = np.log(gap[keep])
    t_dev = t - t.mean()
    num = float(t_dev @ (y - y.mean()))
    den = float(t_dev @ t_dev)
    if den == 0.0 or num == 0.0:
        return None
    return -den / num if num < 0 else None


def run_simulate(cfg: RunConfig, out_dir: Path | None) -> int:
    dr = build_dual_rotor(cfg.model)
    params = cfg.params
    mass, nu0, t_end, dt = (_number(params, key, "params") for key in ("mass", "nu0", "t_end", "dt"))
    if "schedule" not in params:
        raise ConfigError("params.schedule required for simulate")
    schedule = build_schedule(params["schedule"])
    if dt > 0.0 and t_end / dt > MAX_SAMPLES:
        raise ConfigError(f"params: t_end / dt must be at most {MAX_SAMPLES}, got {t_end / dt}")
    try:
        body = BodyConfig(mass=mass, dual_rotor=dr)
        traj = simulate(body, schedule, nu0, t_end, dt)
    except ValueError as exc:
        # every check on this path is on a configured value: mass, t_end,
        # dt, or speeds against the speed box
        raise ConfigError(f"params: {exc}") from exc
    if not (np.isfinite(traj.nu).all() and np.isfinite(traj.force).all()):
        raise ConfigError("params: the configured values drive the trajectory out of the float range")
    if out_dir is not None:
        traj.to_csv(out_dir / "trajectory.csv")

    segments = []
    # the table's leading records are the integrated segments, in this order
    for (a, b, _, _), record in zip(schedule.segments(t_end), traj.segments):
        c_app = record.c_app
        nu_eq = record.f_act / c_app
        nu_inf = nu_eq + record.f_ext / c_app
        lo = np.searchsorted(traj.times, a, side="left")
        hi = np.searchsorted(traj.times, b, side="right")
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
    _emit({"segments": segments, "final_nu": float(traj.nu[-1])}, out_dir, "summary.json")
    return EXIT_OK


def run_verify_scenario(cfg: RunConfig, out_dir: Path | None) -> int:
    seed = _integer(cfg.params, "seed", 0, least=0)
    inject = cfg.params.get("inject_constant_damping", False)
    if not isinstance(inject, bool):
        raise ConfigError(f"params.inject_constant_damping must be true or false, got {inject!r}")
    report = run_verify(seed=seed, inject_constant_damping=inject)
    text = report_to_json(report)
    print(text)
    if out_dir is not None:
        (out_dir / "verification_report.json").write_text(text + "\n")
    return EXIT_OK if report["all_passed"] else EXIT_NEGATIVE


RUNNERS = {
    "derive-coeffs": run_derive_coeffs,
    "fiber-sweep": run_fiber_sweep,
    "allocate": run_allocate,
    "simulate": run_simulate,
    "verify": run_verify_scenario,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vada",
        description="Antagonistic actuation numerics: thrust models, fiber sweeps, "
        "allocation, impedance simulation, and property verification.",
    )
    parser.add_argument(
        "scenario",
        choices=SCENARIOS,
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the verification seed")
    parser.add_argument("--out", default=None, help="directory for output files")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        out_dir = None
        if args.out is not None:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
        cfg = RunConfig.load(args.config)
        if cfg.scenario != args.scenario:
            raise ConfigError(
                f"config declares scenario {cfg.scenario!r} but {args.scenario!r} was requested"
            )
        if args.seed is not None:
            cfg = replace(cfg, params={**cfg.params, "seed": args.seed})
        # a run checks its own outputs for non-finite numbers and reports
        # them in one line, so numpy's floating-point warnings only add noise
        with np.errstate(all="ignore"):
            return RUNNERS[args.scenario](cfg, out_dir)
    except (ConfigError, OSError) as exc:
        # OSError: an --out that cannot be a directory, or an output that
        # cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, core.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
