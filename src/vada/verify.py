"""Randomized verification suite for every analytic claim in the library.

Each property draws parameters from a seeded generator, evaluates the
claim at its stated tolerance, and contributes one record to a
deterministic report; failures are report content, never exceptions.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import antagonistic as core
from .aero import (
    AffineThrustModel,
    RotorGeometry,
    bet_numeric_thrust,
    derive_coefficients,
    hardening_rate,
    inflow_sensitivity,
    monotone_regime_bound,
    thrust,
)
from .antagonistic import ChannelLaw
from .dual_rotor import (
    DualRotor,
    TrimPoint,
    allocate,
    as_antagonistic_at_trim,
    damping_at_trim,
    net_force,
)
from .dynamics import (
    BodyConfig,
    InputSchedule,
    analytic_response,
    apparent_damping,
    equilibrium_velocity,
    simulate,
)
from .vsa import TendonLaw, VsaConfig, as_antagonistic

__all__ = ["run_verify", "report_to_json"]

FD_STEP = 1e-5
FD_RTOL = 1e-6


def _central_diff(fn, x, h=FD_STEP):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def _record(prop_id: str, draws: int, passed: bool, worst: float, note: str = "") -> dict:
    rec = {"property": prop_id, "draws": draws, "passed": bool(passed), "worst": float(worst)}
    if note:
        rec["note"] = note
    return rec


def _random_geometry(rng) -> RotorGeometry:
    return RotorGeometry(
        blade_count=int(rng.integers(1, 5)),
        radius=rng.uniform(0.05, 0.3),
        chord=rng.uniform(0.005, 0.05),
        pitch_angle=rng.uniform(0.05, 0.4),
        lift_slope=rng.uniform(3.0, 7.0),
        air_density=rng.uniform(0.9, 1.3),
    )


def _random_model(rng, low: float = 0.1, high: float = 2.0) -> AffineThrustModel:
    return AffineThrustModel(k_thrust=rng.uniform(low, high), k_inflow=rng.uniform(low, high))


def check_bet_quadrature(rng, draws: int = 1000) -> dict:
    worst = 0.0
    for _ in range(draws):
        geom = _random_geometry(rng)
        v = rng.uniform(10.0, 500.0)
        nu_in = rng.uniform(-5.0, 5.0)
        panels = int(rng.integers(2, 20))
        closed = thrust(derive_coefficients(geom), v, nu_in)
        numeric = bet_numeric_thrust(geom, v, nu_in, panels=panels)
        worst = max(worst, abs(numeric - closed) / max(1.0, abs(closed)))
    return _record("bet-quadrature-agreement", draws, worst <= 1e-12, worst)


def check_damping_and_hardening(rng, draws: int = 1000) -> dict:
    worst = 0.0
    signs_ok = True
    for _ in range(draws):
        model = _random_model(rng)
        v = rng.uniform(0.5, 50.0)
        nu_in = rng.uniform(-5.0, 5.0)
        lam = inflow_sensitivity(model, v, nu_in)
        if not (lam > 0.0 and hardening_rate(model, v, nu_in) > 0.0):
            signs_ok = False
        fd = -_central_diff(lambda x: thrust(model, v, x), nu_in)
        worst = max(worst, abs(lam - fd) / max(1e-30, abs(lam)))
    return _record("inflow-damping-and-hardening", draws, signs_ok and worst <= FD_RTOL, worst)


def _random_tendon_law(rng) -> TendonLaw:
    kind = rng.integers(0, 3)
    k = rng.uniform(0.2, 3.0)
    if kind == 0:
        return TendonLaw.quadratic(k)
    if kind == 1:
        return TendonLaw.exponential(k, rng.uniform(0.3, 1.5))
    return TendonLaw.cubic(k)


def check_vsa_cocontraction(rng, fibers_per_family: int = 20, points: int = 100) -> dict:
    """Co-contraction strictly raises stiffness and promptness (all families)."""
    families = [
        lambda: TendonLaw.quadratic(rng.uniform(0.2, 3.0)),
        lambda: TendonLaw.exponential(rng.uniform(0.2, 3.0), rng.uniform(0.3, 1.5)),
        lambda: TendonLaw.cubic(rng.uniform(0.2, 3.0)),
    ]
    worst = math.inf
    ok = True
    draws = 0
    for make_law in families:
        for _ in range(fibers_per_family):
            draws += 1
            cfg = VsaConfig(
                law=make_law(),
                pulley_radius=rng.uniform(0.5, 2.0),
                state=(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
            )
            act = as_antagonistic(cfg)
            start = cfg.state
            path = core.trace_fiber(act, start, start[0] + rng.uniform(1.0, 3.0), points)
            for which in ("passive", "promptness"):
                report = core.monotonicity_sweep(act, path, which)
                ok = ok and report.is_strictly_increasing
                worst = min(worst, report.min_increment)
            ok = ok and core.passive_promptness_relation(act, path).is_monotone
    return _record("vsa-cocontraction-monotonicity", draws, ok, worst)


def _random_dual_rotor(rng, symmetric: bool) -> DualRotor:
    fwd = _random_model(rng)
    bwd = fwd if symmetric else _random_model(rng)
    return DualRotor(rotor_fwd=fwd, rotor_bwd=bwd, speed_box=((1.0, math.inf), (1.0, math.inf)))


def _trace_vada_fiber(rng, dr: DualRotor, nu_bar: float, points: int):
    act = as_antagonistic_at_trim(dr, nu_bar)
    start = (rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0))
    path = core.trace_fiber(act, start, start[0] + rng.uniform(1.0, 3.0), points)
    return act, path


def check_vada_damping(rng, fibers: int = 20, points: int = 100, trims: int = 0) -> dict:
    """Prop 2 at zero trim (trims=0) or Prop 5 at random nonzero trims."""
    ok = True
    worst = math.inf
    draws = 0
    residual_ok = True
    for i in range(fibers):
        dr = _random_dual_rotor(rng, symmetric=(i % 2 == 0))
        if trims:
            cap = 0.3 * min(
                monotone_regime_bound(dr.rotor_fwd, 1.0),
                monotone_regime_bound(dr.rotor_bwd, 1.0),
            )
            nu_bars = [rng.uniform(-cap, cap) for _ in range(trims)]
        else:
            nu_bars = [0.0]
        for nu_bar in nu_bars:
            draws += 1
            act, path = _trace_vada_fiber(rng, dr, nu_bar, points)
            residual_ok = residual_ok and all(
                r <= core.FIBER_TOLERANCE * max(1.0, abs(path.level)) for r in path.residuals
            )
            report = core.monotonicity_sweep(act, path, "passive")
            ok = ok and report.is_strictly_increasing
            worst = min(worst, report.min_increment)
    prop_id = "vada-damping-at-trim" if trims else "vada-damping-zero-trim"
    return _record(prop_id, draws, ok and residual_ok, worst)


def check_constant_damping_injection(rng, fibers: int = 5, points: int = 50) -> dict:
    """Necessity of hardening: with lambda independent of rotor speed, the
    damping-increase claim must fail (the sweep sees zero increments)."""
    increased = False
    worst = -math.inf
    for _ in range(fibers):
        k_t = rng.uniform(0.5, 2.0)
        k_d = rng.uniform(0.5, 2.0)

        def channel() -> ChannelLaw:
            return ChannelLaw(
                output_fn=lambda v: k_t * v * v,
                output_sensitivity_fn=lambda v: 2.0 * k_t * v,
                passive_coeff_fn=lambda v: k_d,  # no v dependence: hardening violated
                passive_hardening_fn=lambda v: 0.0,
            )

        act = core.AntagonisticActuator(channel_plus=channel(), channel_minus=channel())
        start = (rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0))
        path = core.trace_fiber(act, start, start[0] + 2.0, points)
        report = core.monotonicity_sweep(act, path, "passive")
        increased = increased or report.is_strictly_increasing
        worst = max(worst, report.min_increment)
    return _record(
        "vada-damping-zero-trim[constant-damping-injected]",
        fibers,
        increased,
        worst,
        note="expected to fail: injected model has no aerodynamic hardening",
    )


def check_trim_damping_fd(rng, draws: int = 1000) -> dict:
    worst = 0.0
    for _ in range(draws):
        dr = _random_dual_rotor(rng, symmetric=bool(rng.integers(0, 2)))
        v = (rng.uniform(1.5, 20.0), rng.uniform(1.5, 20.0))
        nu_bar = rng.uniform(-3.0, 3.0)
        sigma = damping_at_trim(dr, v, nu_bar)
        fd = -_central_diff(lambda x: net_force(dr, v, x), nu_bar)
        worst = max(worst, abs(sigma - fd) / max(1e-30, abs(sigma)))
    return _record("trim-damping-fd-agreement", draws, worst <= FD_RTOL, worst)


def check_allocation_roundtrip(rng, draws: int = 1000) -> dict:
    """Round trip of requests made from in-box speeds, with k in [0.05, 5],
    v in [0.01, 50] and nu_bar in [-20, 20] on the default (0, inf) box:
    ranges wide enough to reach requests where picking the wrong root of
    the allocation quadratic shows."""
    worst = 0.0
    ok = True
    for _ in range(draws):
        symmetric = bool(rng.integers(0, 2))
        fwd = _random_model(rng, 0.05, 5.0)
        bwd = fwd if symmetric else _random_model(rng, 0.05, 5.0)
        dr = DualRotor(rotor_fwd=fwd, rotor_bwd=bwd)
        # feasible request: derive it from a valid speed pair
        v = (rng.uniform(0.01, 50.0), rng.uniform(0.01, 50.0))
        nu_bar = rng.uniform(-20.0, 20.0)
        trim = TrimPoint(nu_bar=nu_bar, force_level=net_force(dr, v, nu_bar))
        sigma_des = damping_at_trim(dr, v, nu_bar)
        result = allocate(dr, trim, sigma_des)
        if not result.feasible:
            ok = False
            continue
        err_f = abs(result.achieved_force - trim.force_level) / max(1.0, abs(trim.force_level))
        err_s = abs(result.achieved_damping - sigma_des) / max(1.0, sigma_des)
        worst = max(worst, err_f, err_s)
    return _record("allocation-roundtrip", draws, ok and worst <= 1e-9, worst)


def check_impedance_rk4(rng, draws: int = 20, dt: float = 1e-3) -> dict:
    worst = 0.0
    for _ in range(draws):
        mass = rng.uniform(0.5, 2.0)
        k_t = rng.uniform(0.5, 2.0)
        model = AffineThrustModel(k_thrust=k_t, k_inflow=1.0)
        body = BodyConfig(mass=mass, dual_rotor=DualRotor.identical(model))
        decay = rng.uniform(4.0, 8.0)          # c_app / m
        s = decay * mass                        # v1 + v2 (k_inflow = 1)
        d = rng.uniform(-0.5, 0.5) * s
        v = (0.5 * (s + d), 0.5 * (s - d))
        nu0 = rng.uniform(-2.0, 2.0)
        f_ext = rng.uniform(-1.0, 1.0)
        t_end = 5.0 / decay
        traj = simulate(body, InputSchedule.constant(v, f_ext), nu0, t_end, dt)
        err = max(
            abs(x - analytic_response(body, v, nu0, f_ext, t))
            for t, x in zip(traj.times, traj.nu)
        )
        worst = max(worst, err)
    return _record("impedance-rk4-vs-analytic", draws, worst <= 1e-8, worst)


def check_mode_decoupling(rng, draws: int = 200) -> dict:
    worst = 0.0
    ok = True
    for _ in range(draws):
        model = _random_model(rng)
        body = BodyConfig(mass=1.0, dual_rotor=DualRotor.identical(model))
        v = (rng.uniform(2.0, 10.0), rng.uniform(2.0, 10.0))
        delta = rng.uniform(0.1, min(2.0, 0.9 * min(v)))
        # co-contraction: damping grows, equilibrium velocity stays put
        co = (v[0] + delta, v[1] + delta)
        worst = max(worst, abs(equilibrium_velocity(body, co) - equilibrium_velocity(body, v)))
        ok = ok and apparent_damping(body, co) > apparent_damping(body, v)
        # differential step: damping stays put, equilibrium velocity moves
        diff = (v[0] + delta, v[1] - delta)
        worst = max(worst, abs(apparent_damping(body, diff) - apparent_damping(body, v)))
        ok = ok and equilibrium_velocity(body, diff) != equilibrium_velocity(body, v)
    return _record("mode-decoupling", draws, ok and worst <= 1e-12, worst)


def check_isomorphism(rng, draws: int = 200) -> dict:
    """VSA with R = 1, quadratic tendon k = k_D matches the zero-trim VADA
    passive coefficient at identical commands."""
    worst = 0.0
    for _ in range(draws):
        model = _random_model(rng)
        dr = DualRotor.identical(model)
        vada = as_antagonistic_at_trim(dr, 0.0)
        vsa = as_antagonistic(
            VsaConfig(law=TendonLaw.quadratic(model.k_inflow), pulley_radius=1.0, state=(1.0, 1.0))
        )
        u = (rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0))
        worst = max(
            worst,
            abs(core.passive_coefficient(vsa, u) - core.passive_coefficient(vada, u)),
        )
    return _record("vsa-vada-isomorphism", draws, worst <= 1e-12, worst)


def run_verify(seed: int = 0, inject_constant_damping: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    records = [
        check_bet_quadrature(rng),
        check_damping_and_hardening(rng),
        check_vsa_cocontraction(rng),
        check_vada_damping(rng, trims=0),
        check_vada_damping(rng, fibers=10, trims=1),
        check_trim_damping_fd(rng),
        check_allocation_roundtrip(rng),
        check_impedance_rk4(rng),
        check_mode_decoupling(rng),
        check_isomorphism(rng),
    ]
    if inject_constant_damping:
        records.append(check_constant_damping_injection(rng))
    passed = sum(1 for r in records if r["passed"])
    return {
        "seed": seed,
        "records": records,
        "summary": {"total": len(records), "passed": passed, "failed": len(records) - passed},
        "all_passed": passed == len(records),
    }


def report_to_json(report: dict) -> str:
    """Strict JSON: a non-finite number raises ValueError instead of
    being written as NaN or Infinity."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
