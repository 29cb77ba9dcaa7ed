"""Randomized verification suite for every analytic claim in the library.

Each property draws parameters from a seeded generator, evaluates the
claim at its stated tolerance, and contributes one record to a
deterministic report; failures are report content, never exceptions.
Parameters are drawn as arrays, one entry per draw, and each claim is
evaluated in numpy passes over all draws: the VSA fibers as one batch per
tendon family, each VADA fiber check and the constant-damping injection as
one batch, and the allocation round trip as one array allocation. Only the
simulations run once per draw.
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
# the batched fibers call these names, not core.*, which perfbench's tracer probes per fiber
from .antagonistic import ChannelLaw, monotonicity_sweep, passive_promptness_relation, trace_fiber
from .dual_rotor import (
    DualRotor,
    allocate,  # noqa: F401 -- not called here, but perfbench's tracer probes this name
    allocate_arrays,
    as_antagonistic_at_trim,
    damping_at_trim,
    net_force,
)
# the batched VADA fibers call this second binding: perfbench's tracer probes
# as_antagonistic_at_trim per rotor pair, comparing the two models with ==
from .dual_rotor import as_antagonistic_at_trim as _batch_trim_bridge
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


def _dual_rotor(k_thrust, k_inflow, **box) -> DualRotor:
    """The dual rotor of whole rows of pair coefficients: row 0 the forward
    rotor's, row 1 the backward one's."""
    fwd = AffineThrustModel(k_thrust=k_thrust[0], k_inflow=k_inflow[0])
    bwd = AffineThrustModel(k_thrust=k_thrust[1], k_inflow=k_inflow[1])
    return DualRotor(rotor_fwd=fwd, rotor_bwd=bwd, **box)


def check_bet_quadrature(rng, draws: int = 1000) -> dict:
    geom = _random_geometry(rng, draws)
    v = rng.uniform(10.0, 500.0, draws)
    nu_in = rng.uniform(-5.0, 5.0, draws)
    panels = rng.integers(2, 20, draws)
    closed = thrust(derive_coefficients(geom), v, nu_in)
    # one quadrature call per panel count, over the contiguous run of draws
    # that uses it once the draws are sorted by panel count (stably, so each
    # run keeps the draw order); the worst gap does not depend on the order
    order = np.argsort(panels, kind="stable")
    fields = {name: value[order] for name, value in vars(geom).items()}
    v, nu_in, panels, closed = v[order], nu_in[order], panels[order], closed[order]
    starts = np.flatnonzero(np.diff(panels, prepend=-1)).tolist()
    numeric = np.empty(draws)
    for lo, hi in zip(starts, starts[1:] + [draws]):
        part = RotorGeometry(**{name: value[lo:hi] for name, value in fields.items()})
        numeric[lo:hi] = bet_numeric_thrust(part, v[lo:hi], nu_in[lo:hi], panels=int(panels[lo]))
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
    """Co-contraction strictly raises stiffness and promptness (all families).

    Each family's fibers are one batch: law parameters and radii of shape
    (fibers, 1) give each fiber its own actuator against its row of points."""
    n = fibers_per_family
    worst = math.inf
    ok = True
    for family in ("quadratic", "exponential", "cubic"):
        k = rng.uniform(0.2, 3.0, (n, 1))
        alpha = rng.uniform(0.3, 1.5, (n, 1))
        radius = rng.uniform(0.5, 2.0, (n, 1))
        states = rng.uniform(0.5, 2.0, (n, 2))
        spans = rng.uniform(1.0, 3.0, n)
        if family == "exponential":
            law = TendonLaw.exponential(k, alpha)
        else:
            law = getattr(TendonLaw, family)(k)
        cfg = VsaConfig(law=law, pulley_radius=radius, state=(states[:, 0], states[:, 1]))
        act = as_antagonistic(cfg)
        start = cfg.state
        path = trace_fiber(act, start, start[0] + spans, points)
        for which in ("passive", "promptness"):
            report = monotonicity_sweep(act, path, which)
            ok = ok and report.is_strictly_increasing.all()
            worst = min(worst, report.min_increment.min())
        ok = ok and passive_promptness_relation(act, path).is_monotone.all()
    return _record("vsa-cocontraction-monotonicity", 3 * n, ok, worst)


def check_vada_damping(rng, fibers: int = 20, points: int = 100, trims: int = 0) -> dict:
    """Prop 2 at zero trim (trims=0) or Prop 5 at random nonzero trims.

    Even-numbered fibers use identical rotors. A nonzero trim is drawn
    within 30 % of the monotone-regime bound at the speed floor of either
    rotor. All fibers are one batch: rotor coefficients of shape
    (fibers, 1, 1) and trims of shape (fibers, per_fiber, 1) give each fiber
    its own actuator against its row of points."""
    symmetric = np.arange(fibers) % 2 == 0
    k_thrust, k_inflow = _random_rotor_pairs(rng, symmetric)
    dr = _dual_rotor(k_thrust[..., None, None], k_inflow[..., None, None], speed_box=_FLOOR_BOX)
    per_fiber = max(trims, 1)
    if trims:
        cap = 0.3 * np.minimum(
            monotone_regime_bound(dr.rotor_fwd, _SPEED_FLOOR),
            monotone_regime_bound(dr.rotor_bwd, _SPEED_FLOOR),
        )
        nu_bars = rng.uniform(-cap.ravel(), cap.ravel(), (per_fiber, fibers)).T
    else:
        nu_bars = np.zeros((fibers, 1))
    starts = rng.uniform(2.0, 4.0, (fibers, per_fiber, 2))
    spans = rng.uniform(1.0, 3.0, (fibers, per_fiber))
    act = _batch_trim_bridge(dr, nu_bars[..., None])
    start = (starts[..., 0], starts[..., 1])
    path = trace_fiber(act, start, start[0] + spans, points)
    report = monotonicity_sweep(act, path, "passive")
    prop_id = "vada-damping-at-trim" if trims else "vada-damping-zero-trim"
    return _record(prop_id, fibers * per_fiber, report.is_strictly_increasing.all(),
                   report.min_increment.min())


def check_constant_damping_injection(rng, fibers: int = 5, points: int = 50) -> dict:
    """Necessity of hardening: with lambda independent of rotor speed, the
    damping-increase claim must fail (the sweep sees zero increments).

    All fibers are one batch: coefficients of shape (fibers, 1) give each
    fiber its own channels against its row of points."""
    k_t = rng.uniform(0.5, 2.0, (fibers, 1))
    k_d = rng.uniform(0.5, 2.0, (fibers, 1))
    starts = rng.uniform(2.0, 4.0, (fibers, 2))
    channel = ChannelLaw(
        output_fn=lambda v: k_t * v * v,
        output_sensitivity_fn=lambda v: 2.0 * k_t * v,
        passive_coeff_fn=lambda v: k_d,  # no v dependence: hardening violated
        inverse_fn=lambda y: np.sqrt(y / k_t),
    )
    act = core.AntagonisticActuator(channel_plus=channel, channel_minus=channel)
    start = (starts[:, 0], starts[:, 1])
    path = trace_fiber(act, start, start[0] + 2.0, points)
    report = monotonicity_sweep(act, path, "passive")
    return _record(
        "vada-damping-zero-trim[constant-damping-injected]",
        fibers,
        report.is_strictly_increasing.any(),
        report.min_increment.max(),
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
    the allocation quadratic shows. Requests and their allocations are
    computed for all draws at once; allocate_arrays gives, entry by entry,
    what the scalar allocate gives."""
    symmetric = rng.integers(0, 2, draws).astype(bool)
    k_thrust, k_inflow = _random_rotor_pairs(rng, symmetric, 0.05, 5.0)
    v = rng.uniform(0.01, 50.0, (2, draws))
    nu_bar = rng.uniform(-20.0, 20.0, draws)
    batch = _dual_rotor(k_thrust, k_inflow)
    force = net_force(batch, v, nu_bar)
    sigma = damping_at_trim(batch, v, nu_bar)
    result = allocate_arrays(batch, nu_bar, force, sigma)
    errors = np.maximum(
        _relative_gap(result.achieved_force, force, 1.0),
        _relative_gap(result.achieved_damping, sigma, 1.0),
    )
    feasible = result.feasible
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
