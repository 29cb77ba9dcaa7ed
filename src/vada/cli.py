"""Command-line front end.

    vada <scenario> --config <path> [--seed N] [--out <dir>]

Exit status: 0 on success, 1 on a domain-level negative result
(infeasible allocation, failed monotonicity verdict, failed property, a
fiber that cannot be continued), 2 on usage or configuration errors. Only
`main` maps an exception to a status: ConvergenceError to 1; ValueError,
ArithmeticError and OSError to 2.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import antagonistic as core
from .aero import bet_numeric_thrust, derive_coefficients, thrust
from .config import SCENARIOS, ConfigError, RunConfig, config_fault
from .dual_rotor import TrimPoint, allocate, as_antagonistic_at_trim
from .dynamics import BodyConfig, mode_decomposition, simulate
from .verify import report_to_json, run_verify
from .vsa import VsaConfig, as_antagonistic

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _emit(record: dict, out_dir: Path | None, filename: str) -> None:
    """Write the record's JSON under out_dir first, so that a failed write
    leaves stdout empty, then print it."""
    try:
        text = report_to_json(record)
    except ValueError as exc:
        # a record holds only numbers computed from the configured ones
        raise ConfigError(f"{filename}: the configured values leave the float range ({exc})") from exc
    if out_dir is not None:
        (out_dir / filename).write_text(text + "\n")
    print(text)


def _write_csv(out_dir: Path | None, filename: str, header: list[str], columns) -> None:
    """Write equal-length 1-D float arrays as CSV columns under a header row,
    each cell a plain float literal (repr of a Python float), to
    out_dir / filename, or to stdout without out_dir."""
    with (nullcontext(sys.stdout) if out_dir is None
          else open(out_dir / filename, "w", newline="")) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(x) for x in row] for row in zip(*(c.tolist() for c in columns)))


def run_derive_coeffs(cfg: RunConfig, out_dir: Path | None) -> int:
    geom, v, nu_in = cfg.system, cfg.values["sample_speed"], cfg.values["sample_inflow"]
    with config_fault("rotor_geometry"):
        model = derive_coefficients(geom)
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


def run_fiber_sweep(cfg: RunConfig, out_dir: Path | None) -> int:
    values = cfg.values
    if isinstance(cfg.system, VsaConfig):
        act = as_antagonistic(cfg.system)
    else:
        # the configured trim leaves the monotone regime of the configured box
        with config_fault("params.nu_bar"):
            act = as_antagonistic_at_trim(cfg.system, values["nu_bar"])
    # a bad start or grid is a config fault; a fiber leaving the box, a ConvergenceError
    with config_fault("params"):
        path = core.trace_fiber(act, values["start"], values["u1_end"], values["steps"])
    passive = core.monotonicity_sweep(act, path, "passive")
    prompt = core.monotonicity_sweep(act, path, "promptness")

    columns = (*path.points.T, path.residuals, passive.values, prompt.values)
    if not all(np.isfinite(c).all() for c in columns):
        raise ConfigError("the configured values drive the sweep out of the float range")
    header = ["u1", "u2", "task_residual", "passive_coeff", "promptness"]
    _write_csv(out_dir, "fiber_sweep.csv", header, columns)

    # the verdicts go to stderr, so that stdout holds the CSV alone without --out
    for name, report in (("passive_coeff", passive), ("promptness", prompt)):
        verdict = "PASS" if report.is_strictly_increasing else "FAIL"
        print(f"verdict: {name} strict increase: {verdict}", file=sys.stderr)
    ok = passive.is_strictly_increasing and prompt.is_strictly_increasing
    return EXIT_OK if ok else EXIT_NEGATIVE


def run_allocate(cfg: RunConfig, out_dir: Path | None) -> int:
    values = cfg.values
    trim = TrimPoint(nu_bar=values["nu_bar"], force_level=values["force_level"])
    # allocate's checks are on sigma_des: positive, and no underflow
    with config_fault("params"):
        result = allocate(cfg.system, trim, values["sigma_des"])
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


def run_simulate(cfg: RunConfig, out_dir: Path | None) -> int:
    mass, nu0, t_end, dt, schedule = (
        cfg.values[key] for key in ("mass", "nu0", "t_end", "dt", "schedule"))
    # every check on this path is on a configured value: mass, t_end, dt, or
    # speeds against the speed box
    with config_fault("params"):
        body = BodyConfig(mass=mass, dual_rotor=cfg.system)
        traj = simulate(body, schedule, nu0, t_end, dt)
    if not (np.isfinite(traj.nu).all() and np.isfinite(traj.force).all()):
        raise ConfigError("params: the configured values drive the trajectory out of the float range")
    if out_dir is not None:
        columns = (traj.times, traj.nu, traj.v1, traj.v2, traj.force, traj.f_ext)
        _write_csv(out_dir, "trajectory.csv", ["t", "nu", "v1", "v2", "F", "F_ext"], columns)

    segments = []
    # the table's leading records are the integrated segments, in this order
    for (a, b, _, _), rec in zip(schedule.segments(t_end), traj.segments):
        tau_model, tau_rk4 = mass / rec.c_app, rec.time_constant
        segments.append({
            "t_start": a, "t_end": b, "nu_eq": rec.f_act / rec.c_app, "c_app": rec.c_app,
            "time_constant_model": tau_model, "time_constant_rk4": tau_rk4,
            "rk4_relative_deviation": abs(tau_rk4 - tau_model) / tau_model,
            "steps": rec.steps, "h": rec.h, "r": rec.r, "shortened": rec.shortened,
        })
    _emit({"segments": segments, "final_nu": float(traj.nu[-1])}, out_dir, "summary.json")
    return EXIT_OK


def run_verify_scenario(cfg: RunConfig, out_dir: Path | None) -> int:
    report = run_verify(seed=cfg.values["seed"],
                        inject_constant_damping=cfg.values["inject_constant_damping"])
    _emit(report, out_dir, "verification_report.json")
    return EXIT_OK if report["all_passed"] else EXIT_NEGATIVE


RUNNERS = {
    "derive-coeffs": run_derive_coeffs,
    "fiber-sweep": run_fiber_sweep,
    "allocate": run_allocate,
    "simulate": run_simulate,
    "verify": run_verify_scenario,
}


# built once, at import: a build takes 0.15 ms (2-CPU Xeon), 3 % of an in-process verify run
_PARSER = argparse.ArgumentParser(
    prog="vada",
    description="Antagonistic actuation numerics: thrust models, fiber sweeps, "
    "allocation, impedance simulation, and property verification.",
)
_PARSER.add_argument("scenario", choices=SCENARIOS)
_PARSER.add_argument("--config", required=True, help="path to the JSON run configuration")
_PARSER.add_argument("--seed", type=int, default=None, help="override the verification seed")
_PARSER.add_argument("--out", default=None, help="directory for output files")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        # a run checks its own outputs for non-finite numbers and reports
        # them in one line, so numpy's floating-point warnings only add noise
        with np.errstate(all="ignore"):
            cfg = RunConfig.load(args.config)
            if cfg.scenario != args.scenario:
                raise ConfigError(
                    f"config declares scenario {cfg.scenario!r} but {args.scenario!r} was requested"
                )
            if args.seed is not None and cfg.scenario == "verify":
                cfg = replace(cfg, params={**cfg.params, "seed": args.seed})
            # made only for a run that loads, so a config fault leaves no directory
            out_dir = None
            if args.out is not None:
                out_dir = Path(args.out)
                out_dir.mkdir(parents=True, exist_ok=True)
            return RUNNERS[args.scenario](cfg, out_dir)
    except core.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ValueError, ArithmeticError, OSError) as exc:
        # OSError: an --out that cannot be a directory, or an output that
        # cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
