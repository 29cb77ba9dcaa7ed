"""Randomized verification suite for every analytic claim in the library.

Each property draws parameters from a seeded generator, evaluates the
claim at its stated tolerance, and contributes one record to a
deterministic report; failures are report content, never exceptions.
Parameters are drawn as arrays, one entry per draw, and each claim is
evaluated in numpy passes over all draws; only fibers, simulations and
the scalar allocator run once per draw.
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

# Lower end of both rotor speed boxes in the fiber and FD checks, rad/s.
_SPEED_FLOOR = 1.0
_FLOOR_BOX = ((_SPEED_FLOOR, math.inf), (_SPEED_FLOOR, math.inf))


def _central_diff(fn, x, h=FD_STEP):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def _record(prop_id: str, draws: int, passed: bool, worst: float, note: str = "") -> dict:
    rec = {"property": prop_id, "draws": draws, "passed": bool(passed), "worst": float(worst)}
    if note:
        rec["note"] = note
    return rec


def _relative_gap(a, b, floor):
    """|a - b| / max(floor, |b|), elementwise."""
    return np.abs(a - b) / np.maximum(floor, np.abs(b))


def _random_geometry(rng, n: int) -> RotorGeometry:
    """n blade geometries, one per entry of the array fields."""
    return RotorGeometry(
        blade_count=rng.integers(1, 5, n),
        radius=rng.uniform(0.05, 0.3, n),
        chord=rng.uniform(0.005, 0.05, n),
        pitch_angle=rng.uniform(0.05, 0.4, n),
        lift_slope=rng.uniform(3.0, 7.0, n),
        air_density=rng.uniform(0.9, 1.3, n),
    )


def _random_model(rng, n: int, low: float = 0.1, high: float = 2.0) -> AffineThrustModel:
    """n thrust models, one per entry of the array coefficients."""
    return AffineThrustModel(k_thrust=rng.uniform(low, high, n), k_inflow=rng.uniform(low, high, n))


def _random_rotor_pairs(rng, symmetric, low: float = 0.1, high: float = 2.0):
    """(k_thrust, k_inflow), each of shape (2, n): row 0 the forward rotor,
    row 1 the backward one, equal to row 0 where `symmetric` holds."""
    n = len(symmetric)
    k_thrust, k_inflow = rng.uniform(low, high, (2, 2, n))
    for k in (k_thrust, k_inflow):
        k[1, symmetric] = k[0, symmetric]
    return k_thrust, k_inflow


def _dual_rotor(k_thrust, k_inflow, symmetric: bool = False, **box) -> DualRotor:
    """The dual rotor of one pair's coefficients (or of whole rows of them);
    a symmetric pair shares one model, as DualRotor.identical does."""
    fwd = AffineThrustModel(k_thrust=k_thrust[0], k_inflow=k_inflow[0])
    bwd = fwd if symmetric else AffineThrustModel(k_thrust=k_thrust[1], k_inflow=k_inflow[1])
    return DualRotor(rotor_fwd=fwd, rotor_bwd=bwd, **box)


def check_bet_quadrature(rng, draws: int = 1000) -> dict:
    geom = _random_geometry(rng, draws)
    v = rng.uniform(10.0, 500.0, draws)
    nu_in = rng.uniform(-5.0, 5.0, draws)
    panels = rng.integers(2, 20, draws)
    closed = thrust(derive_coefficients(geom), v, nu_in)
    numeric = np.empty(draws)
    # one quadrature call per panel count, over every draw that uses it
    for count in sorted(set(panels.tolist())):
        pick = panels == count
        part = RotorGeometry(**{name: value[pick] for name, value in vars(geom).items()})
        numeric[pick] = bet_numeric_thrust(part, v[pick], nu_in[pick], panels=count)
    worst = _relative_gap(numeric, closed, 1.0).max()
    return _record("bet-quadrature-agreement", draws, worst <= 1e-12, worst)


def check_damping_and_hardening(rng, draws: int = 1000) -> dict:
    model = _random_model(rng, draws)
    v = rng.uniform(0.5, 50.0, draws)
    nu_in = rng.uniform(-5.0, 5.0, draws)
    lam = inflow_sensitivity(model, v, nu_in)
    signs_ok = bool((lam > 0.0).all() and (hardening_rate(model, v, nu_in) > 0.0).all())
    fd = -_central_diff(lambda x: thrust(model, v, x), nu_in)
    worst = _relative_gap(fd, lam, 1e-30).max()
    return _record("inflow-damping-and-hardening", draws, signs_ok and worst <= FD_RTOL, worst)


def check_vsa_cocontraction(rng, fibers_per_family: int = 20, points: int = 100) -> dict:
    """Co-contraction strictly raises stiffness and promptness (all families)."""
    n = fibers_per_family
    worst = math.inf
    ok = True
    for family in ("quadratic", "exponential", "cubic"):
        k = rng.uniform(0.2, 3.0, n).tolist()
        alpha = rng.uniform(0.3, 1.5, n).tolist()
        radius = rng.uniform(0.5, 2.0, n).tolist()
        states = rng.uniform(0.5, 2.0, (n, 2)).tolist()
        spans = rng.uniform(1.0, 3.0, n).tolist()
        for i in range(n):
            if family == "exponential":
                law = TendonLaw.exponential(k[i], alpha[i])
            else:
                law = getattr(TendonLaw, family)(k[i])
            cfg = VsaConfig(law=law, pulley_radius=radius[i], state=tuple(states[i]))
            act = as_antagonistic(cfg)
            start = cfg.state
            path = core.trace_fiber(act, start, start[0] + spans[i], points)
            for which in ("passive", "promptness"):
                report = core.monotonicity_sweep(act, path, which)
                ok = ok and report.is_strictly_increasing
                worst = min(worst, report.min_increment)
            ok = ok and core.passive_promptness_relation(act, path).is_monotone
    return _record("vsa-cocontraction-monotonicity", 3 * n, ok, worst)


def check_vada_damping(rng, fibers: int = 20, points: int = 100, trims: int = 0) -> dict:
    """Prop 2 at zero trim (trims=0) or Prop 5 at random nonzero trims.

    Even-numbered fibers use identical rotors. A nonzero trim is drawn
    within 30 % of the monotone-regime bound at the speed floor of either
    rotor."""
    symmetric = np.arange(fibers) % 2 == 0
    k_thrust, k_inflow = _random_rotor_pairs(rng, symmetric)
    per_fiber = max(trims, 1)
    if trims:
        batch = _dual_rotor(k_thrust, k_inflow)
        cap = 0.3 * np.minimum(
            monotone_regime_bound(batch.rotor_fwd, _SPEED_FLOOR),
            monotone_regime_bound(batch.rotor_bwd, _SPEED_FLOOR),
        )
        nu_bars = rng.uniform(-cap, cap, (per_fiber, fibers)).T
    else:
        nu_bars = np.zeros((fibers, 1))
    starts = rng.uniform(2.0, 4.0, (fibers, per_fiber, 2)).tolist()
    spans = rng.uniform(1.0, 3.0, (fibers, per_fiber)).tolist()
    ok = True
    worst = math.inf
    for i in range(fibers):
        dr = _dual_rotor(k_thrust[:, i].tolist(), k_inflow[:, i].tolist(), symmetric[i],
                         speed_box=_FLOOR_BOX)
        for nu_bar, start, span in zip(nu_bars[i].tolist(), starts[i], spans[i]):
            act = as_antagonistic_at_trim(dr, nu_bar)
            path = core.trace_fiber(act, start, start[0] + span, points)
            report = core.monotonicity_sweep(act, path, "passive")
            ok = ok and report.is_strictly_increasing
            worst = min(worst, report.min_increment)
    prop_id = "vada-damping-at-trim" if trims else "vada-damping-zero-trim"
    return _record(prop_id, fibers * per_fiber, ok, worst)


def check_constant_damping_injection(rng, fibers: int = 5, points: int = 50) -> dict:
    """Necessity of hardening: with lambda independent of rotor speed, the
    damping-increase claim must fail (the sweep sees zero increments)."""
    increased = False
    worst = -math.inf
    k_ts = rng.uniform(0.5, 2.0, fibers).tolist()
    k_ds = rng.uniform(0.5, 2.0, fibers).tolist()
    starts = rng.uniform(2.0, 4.0, (fibers, 2)).tolist()
    for k_t, k_d, start in zip(k_ts, k_ds, starts):

        def channel() -> ChannelLaw:
            return ChannelLaw(
                output_fn=lambda v: k_t * v * v,
                output_sensitivity_fn=lambda v: 2.0 * k_t * v,
                passive_coeff_fn=lambda v: k_d,  # no v dependence: hardening violated
                inverse_fn=lambda y: np.sqrt(y / k_t),
            )

        act = core.AntagonisticActuator(channel_plus=channel(), channel_minus=channel())
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
    symmetric = rng.integers(0, 2, draws).astype(bool)
    dr = _dual_rotor(*_random_rotor_pairs(rng, symmetric), speed_box=_FLOOR_BOX)
    v = rng.uniform(1.5, 20.0, (2, draws))
    nu_bar = rng.uniform(-3.0, 3.0, draws)
    sigma = damping_at_trim(dr, v, nu_bar)
    fd = -_central_diff(lambda x: net_force(dr, v, x), nu_bar)
    worst = _relative_gap(fd, sigma, 1e-30).max()
    return _record("trim-damping-fd-agreement", draws, worst <= FD_RTOL, worst)


def check_allocation_roundtrip(rng, draws: int = 1000) -> dict:
    """Round trip of requests made from in-box speeds, with k in [0.05, 5],
    v in [0.01, 50] and nu_bar in [-20, 20] on the default (0, inf) box:
    ranges wide enough to reach requests where picking the wrong root of
    the allocation quadratic shows. Requests are computed for all draws at
    once; allocate, the scalar library call under test, runs once a draw."""
    symmetric = rng.integers(0, 2, draws).astype(bool)
    k_thrust, k_inflow = _random_rotor_pairs(rng, symmetric, 0.05, 5.0)
    v = rng.uniform(0.01, 50.0, (2, draws))
    nu_bar = rng.uniform(-20.0, 20.0, draws)
    batch = _dual_rotor(k_thrust, k_inflow)
    force = net_force(batch, v, nu_bar)
    sigma = damping_at_trim(batch, v, nu_bar)

    achieved = np.empty((2, draws))
    feasible = np.empty(draws, dtype=bool)
    requests = zip(symmetric.tolist(), k_thrust.T.tolist(), k_inflow.T.tolist(),
                   nu_bar.tolist(), force.tolist(), sigma.tolist())
    for i, (sym, k_t, k_d, nu, f, sigma_des) in enumerate(requests):
        trim = TrimPoint(nu_bar=nu, force_level=f)
        result = allocate(_dual_rotor(k_t, k_d, sym), trim, sigma_des)
        feasible[i] = result.feasible
        achieved[:, i] = result.achieved_force, result.achieved_damping
    errors = np.maximum(
        _relative_gap(achieved[0], force, 1.0), _relative_gap(achieved[1], sigma, 1.0)
    )
    worst = errors[feasible].max(initial=0.0)
    return _record("allocation-roundtrip", draws, feasible.all() and worst <= 1e-9, worst)


def check_impedance_rk4(rng, draws: int = 20, dt: float = 1e-3) -> dict:
    mass = rng.uniform(0.5, 2.0, draws)
    k_t = rng.uniform(0.5, 2.0, draws)
    decay = rng.uniform(4.0, 8.0, draws)          # c_app / m
    s = decay * mass                               # v1 + v2 (k_inflow = 1)
    d = rng.uniform(-0.5, 0.5, draws) * s
    v1, v2 = 0.5 * (s + d), 0.5 * (s - d)
    nu0 = rng.uniform(-2.0, 2.0, draws)
    f_ext = rng.uniform(-1.0, 1.0, draws)
    t_end = 5.0 / decay
    worst = 0.0
    columns = (mass, k_t, v1, v2, nu0, f_ext, t_end)
    for m, k, s1, s2, x0, f, t1 in zip(*(c.tolist() for c in columns)):
        model = AffineThrustModel(k_thrust=k, k_inflow=1.0)
        body = BodyConfig(mass=m, dual_rotor=DualRotor.identical(model))
        traj = simulate(body, InputSchedule.constant((s1, s2), f), x0, t1, dt)
        exact = analytic_response(body, (s1, s2), x0, f, traj.times)
        worst = max(worst, float(np.abs(traj.nu - exact).max()))
    return _record("impedance-rk4-vs-analytic", draws, worst <= 1e-8, worst)


def check_mode_decoupling(rng, draws: int = 200) -> dict:
    body = BodyConfig(mass=1.0, dual_rotor=DualRotor.identical(_random_model(rng, draws)))
    v = rng.uniform(2.0, 10.0, (2, draws))
    delta = rng.uniform(0.1, np.minimum(2.0, 0.9 * v.min(axis=0)))
    # co-contraction: damping grows, equilibrium velocity stays put
    co = v + delta
    # differential step: damping stays put, equilibrium velocity moves
    diff = v + np.array([delta, -delta])
    damping, nu_eq = apparent_damping(body, v), equilibrium_velocity(body, v)
    worst = max(
        np.abs(equilibrium_velocity(body, co) - nu_eq).max(),
        np.abs(apparent_damping(body, diff) - damping).max(),
    )
    ok = (apparent_damping(body, co) > damping).all() and (
        equilibrium_velocity(body, diff) != nu_eq
    ).all()
    return _record("mode-decoupling", draws, ok and worst <= 1e-12, worst)


def check_isomorphism(rng, draws: int = 200) -> dict:
    """VSA with R = 1, quadratic tendon k = k_D matches the zero-trim VADA
    passive coefficient at identical commands."""
    model = _random_model(rng, draws)
    vada = as_antagonistic_at_trim(DualRotor.identical(model), 0.0)
    vsa = as_antagonistic(
        VsaConfig(law=TendonLaw.quadratic(model.k_inflow), pulley_radius=1.0, state=(1.0, 1.0))
    )
    u = rng.uniform(0.5, 20.0, (2, draws))
    worst = np.abs(core.passive_coefficient(vsa, u) - core.passive_coefficient(vada, u)).max()
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
