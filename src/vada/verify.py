"""Randomized verification suite for every analytic claim in the library.

`run_verify` holds the one claim table: each row names a property id and
the check that backs it, in report order, and that order fixes every draw
from the seeded generator. A check draws its parameters, evaluates its
claim at its stated tolerance and returns its outcome (draws, passed,
worst); it names no property. A bounded check, one whose claim is a gap
at most a tolerance, returns through `_bounded`, which takes the worst of
its per-draw gaps; a monotonicity check returns through `_increasing`,
which takes the least of its fibers' least increments. A NaN gap or
increment fails its record, and `run_verify` writes a non-finite worst as
null and fails that record. Failures are report content, never
exceptions. Parameters are drawn as arrays, one entry per draw, and each
claim is evaluated in numpy passes over all draws: the quadrature as one
call with a panel count per draw, the VSA fibers as one batch per tendon
family, each VADA fiber check and the constant-damping injection as one
batch (through `_trace`, with rotor pairs from `_random_dual_rotor`), and
the allocation round trip as one array allocation. Only the simulations
run once per draw.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

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
from .antagonistic import monotonicity_sweep, passive_promptness_relation, trace_fiber
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


def _central_diff(fn, x):
    return (fn(x + FD_STEP) - fn(x - FD_STEP)) / (2.0 * FD_STEP)


def _outcome(draws: int, passed, worst) -> dict:
    """A check's outcome; its row of the claim table adds the property id."""
    return {"draws": draws, "passed": bool(passed), "worst": float(worst)}


def _bounded(gaps, tol, holds=True) -> dict:
    """A bounded check's outcome, one draw per entry of gaps: it passes if
    holds and the worst gap is at most tol. gaps.max() propagates a NaN, so
    a NaN gap fails the record."""
    worst = gaps.max()
    return _outcome(gaps.size, holds and worst <= tol, worst)


def _increasing(least, holds=True) -> dict:
    """A monotonicity check's outcome, one draw per entry of least (a fiber's
    least increment): it passes if holds and every least increment is above
    0. least.min() propagates a NaN, so a NaN increment fails the record."""
    worst = least.min()
    return _outcome(least.size, holds and worst > 0.0, worst)


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


def _random_model(rng, n: int) -> AffineThrustModel:
    """n thrust models, one per entry of the array coefficients."""
    return AffineThrustModel(k_thrust=rng.uniform(0.1, 2.0, n), k_inflow=rng.uniform(0.1, 2.0, n))


def _random_dual_rotor(rng, symmetric, low: float = 0.1, high: float = 2.0, **box) -> DualRotor:
    """A dual rotor with coefficients of the mask symmetric's shape, drawn as
    one (2, 2) + symmetric.shape block: (k_thrust, k_inflow), each by
    (forward, backward) rotor; the backward rotor's equal the forward's
    where symmetric holds."""
    k_thrust, k_inflow = rng.uniform(low, high, (2, 2) + symmetric.shape)
    for k in (k_thrust, k_inflow):
        k[1, symmetric] = k[0, symmetric]
    fwd = AffineThrustModel(k_thrust=k_thrust[0], k_inflow=k_inflow[0])
    bwd = AffineThrustModel(k_thrust=k_thrust[1], k_inflow=k_inflow[1])
    return DualRotor(rotor_fwd=fwd, rotor_bwd=bwd, **box)


def _trace(act, starts, spans, steps: int):
    """One batch of fibers through this module's trace_fiber: fiber i starts
    at row i of the (n, 2) starts and ends at u1 = starts[i, 0] + spans[i]."""
    return trace_fiber(act, (starts[:, 0], starts[:, 1]), starts[:, 0] + spans, steps)


def check_bet_quadrature(rng) -> dict:
    draws = 1000
    geom = _random_geometry(rng, draws)
    v = rng.uniform(10.0, 500.0, draws)
    nu_in = rng.uniform(-5.0, 5.0, draws)
    panels = rng.integers(2, 20, draws)
    closed = thrust(derive_coefficients(geom), v, nu_in)
    numeric = bet_numeric_thrust(geom, v, nu_in, panels=panels)
    return _bounded(_relative_gap(numeric, closed, 1.0), 1e-12)


def check_damping_and_hardening(rng) -> dict:
    draws = 1000
    model = _random_model(rng, draws)
    v = rng.uniform(0.5, 50.0, draws)
    nu_in = rng.uniform(-5.0, 5.0, draws)
    lam = inflow_sensitivity(model, v, nu_in)
    signs_ok = bool((lam > 0.0).all() and (hardening_rate(model, v, nu_in) > 0.0).all())
    fd = -_central_diff(lambda x: thrust(model, v, x), nu_in)
    return _bounded(_relative_gap(fd, lam, 1e-30), FD_RTOL, holds=signs_ok)


def check_vsa_cocontraction(rng) -> dict:
    """Co-contraction strictly raises stiffness and promptness (all families).

    Each family's fibers are one batch: law parameters and radii of shape
    (fibers, 1) give each fiber its own actuator on its row of 100 points."""
    n = 20  # fibers per family
    least, holds = [], True
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
        path = _trace(act, states, spans, 100)
        sweeps = [monotonicity_sweep(act, path, which) for which in ("passive", "promptness")]
        least.append(np.minimum(*(sweep.min_increment for sweep in sweeps)))
        # the relation runs only while every sweep so far has passed
        holds = holds and least[-1].min() > 0.0 and passive_promptness_relation(act, path).is_monotone.all()
    return _increasing(np.concatenate(least), holds)


def check_vada_damping(rng, fibers: int = 20, trims: bool = False) -> dict:
    """Prop 2 at zero trim, or with trims Prop 5 at random nonzero trims.

    Even-numbered fibers use identical rotors. A nonzero trim is drawn
    within 30 % of the monotone-regime bound at the speed floor of either
    rotor. All fibers are one batch: rotor coefficients and trims of shape
    (fibers, 1) give each fiber its own actuator against its row of 100
    points."""
    symmetric = np.arange(fibers)[:, None] % 2 == 0
    dr = _random_dual_rotor(rng, symmetric, speed_box=_FLOOR_BOX)
    nu_bars = np.zeros((fibers, 1))
    if trims:
        cap = 0.3 * np.minimum(*(monotone_regime_bound(r, _SPEED_FLOOR) for r in (dr.rotor_fwd, dr.rotor_bwd)))
        nu_bars = rng.uniform(-cap, cap)
    starts = rng.uniform(2.0, 4.0, (fibers, 2))
    spans = rng.uniform(1.0, 3.0, fibers)
    act = _batch_trim_bridge(dr, nu_bars)
    path = _trace(act, starts, spans, 100)
    return _increasing(monotonicity_sweep(act, path, "passive").min_increment)


def check_constant_damping_injection(rng) -> dict:
    """Necessity of hardening: the zero-trim VADA channel with a constant
    lambda must fail the damping-increase claim (zero increments).

    All fibers are one batch: coefficients of shape (fibers, 1) give each
    fiber its own channels against its row of 50 points."""
    fibers = 5
    k_t = rng.uniform(0.5, 2.0, (fibers, 1))
    k_d = rng.uniform(0.5, 2.0, (fibers, 1))
    starts = rng.uniform(2.0, 4.0, (fibers, 2))
    bridge = _batch_trim_bridge(DualRotor.identical(AffineThrustModel(k_thrust=k_t, k_inflow=k_d)))
    channel = replace(bridge.channel_plus, passive_coeff_fn=lambda v: k_d)  # no v dependence
    act = core.AntagonisticActuator(channel_plus=channel, channel_minus=channel)
    path = _trace(act, starts, 2.0, 50)
    report = monotonicity_sweep(act, path, "passive")
    return _outcome(fibers, report.is_strictly_increasing.any(), report.min_increment.max())


def check_trim_damping_fd(rng) -> dict:
    draws = 1000
    symmetric = rng.integers(0, 2, draws).astype(bool)
    dr = _random_dual_rotor(rng, symmetric, speed_box=_FLOOR_BOX)
    v = rng.uniform(1.5, 20.0, (2, draws))
    nu_bar = rng.uniform(-3.0, 3.0, draws)
    sigma = damping_at_trim(dr, v, nu_bar)
    fd = -_central_diff(lambda x: net_force(dr, v, x), nu_bar)
    return _bounded(_relative_gap(fd, sigma, 1e-30), FD_RTOL)


def check_allocation_roundtrip(rng) -> dict:
    """Round trip of requests made from in-box speeds, with k in [0.05, 5],
    v in [0.01, 50] and nu_bar in [-20, 20] on the default (0, inf) box:
    ranges wide enough to reach requests where picking the wrong root of
    the allocation quadratic shows. Requests and their allocations are
    computed for all draws at once; allocate_arrays gives, entry by entry,
    what the scalar allocate gives."""
    draws = 1000
    symmetric = rng.integers(0, 2, draws).astype(bool)
    batch = _random_dual_rotor(rng, symmetric, 0.05, 5.0)
    v = rng.uniform(0.01, 50.0, (2, draws))
    nu_bar = rng.uniform(-20.0, 20.0, draws)
    force = net_force(batch, v, nu_bar)
    sigma = damping_at_trim(batch, v, nu_bar)
    result = allocate_arrays(batch, nu_bar, force, sigma)
    errors = np.maximum(
        _relative_gap(result.achieved_force, force, 1.0),
        _relative_gap(result.achieved_damping, sigma, 1.0),
    )
    # errors are never negative, so an infeasible draw's 0.0 hides no feasible error
    return _bounded(np.where(result.feasible, errors, 0.0), 1e-9, holds=result.feasible.all())


def check_impedance_rk4(rng) -> dict:
    draws, dt = 20, 1e-3
    mass = rng.uniform(0.5, 2.0, draws)
    k_t = rng.uniform(0.5, 2.0, draws)
    decay = rng.uniform(4.0, 8.0, draws)          # c_app / m
    s = decay * mass                               # v1 + v2 (k_inflow = 1)
    d = rng.uniform(-0.5, 0.5, draws) * s
    v1, v2 = 0.5 * (s + d), 0.5 * (s - d)
    nu0 = rng.uniform(-2.0, 2.0, draws)
    f_ext = rng.uniform(-1.0, 1.0, draws)
    t_end = 5.0 / decay
    gaps = np.empty(draws)
    columns = (mass, k_t, v1, v2, nu0, f_ext, t_end)
    for i, (m, k, s1, s2, x0, f, t1) in enumerate(zip(*(c.tolist() for c in columns))):
        model = AffineThrustModel(k_thrust=k, k_inflow=1.0)
        body = BodyConfig(mass=m, dual_rotor=DualRotor.identical(model))
        traj = simulate(body, InputSchedule.constant((s1, s2), f), x0, t1, dt)
        exact = analytic_response(body, (s1, s2), x0, f, traj.times)
        gaps[i] = np.abs(traj.nu - exact).max()
    return _bounded(gaps, 1e-8)


def check_mode_decoupling(rng) -> dict:
    draws = 200
    body = BodyConfig(mass=1.0, dual_rotor=DualRotor.identical(_random_model(rng, draws)))
    v = rng.uniform(2.0, 10.0, (2, draws))
    delta = rng.uniform(0.1, np.minimum(2.0, 0.9 * v.min(axis=0)))
    # co-contraction: damping grows, equilibrium velocity stays put
    co = v + delta
    # differential step: damping stays put, equilibrium velocity moves
    diff = v + np.array([delta, -delta])
    damping, nu_eq = apparent_damping(body, v), equilibrium_velocity(body, v)
    gaps = np.maximum(np.abs(equilibrium_velocity(body, co) - nu_eq),
                      np.abs(apparent_damping(body, diff) - damping))
    ok = (apparent_damping(body, co) > damping).all()
    ok = ok and (equilibrium_velocity(body, diff) != nu_eq).all()
    return _bounded(gaps, 1e-12, holds=ok)


def check_isomorphism(rng) -> dict:
    """VSA with R = 1, quadratic tendon k = k_D matches the zero-trim VADA
    passive coefficient at identical commands."""
    draws = 200
    model = _random_model(rng, draws)
    vada = as_antagonistic_at_trim(DualRotor.identical(model), 0.0)
    vsa = as_antagonistic(
        VsaConfig(law=TendonLaw.quadratic(model.k_inflow), pulley_radius=1.0, state=(1.0, 1.0))
    )
    u = rng.uniform(0.5, 20.0, (2, draws))
    gaps = np.abs(core.passive_coefficient(vsa, u) - core.passive_coefficient(vada, u))
    return _bounded(gaps, 1e-12)


def run_verify(seed: int = 0, inject_constant_damping: bool = False) -> dict:
    """One record per row of the claim table, in row order. A row calls its
    check by its module name when it runs, so a wrapped check is the one run."""
    claims = [
        ("bet-quadrature-agreement", check_bet_quadrature),
        ("inflow-damping-and-hardening", check_damping_and_hardening),
        ("vsa-cocontraction-monotonicity", check_vsa_cocontraction),
        ("vada-damping-zero-trim", lambda rng: check_vada_damping(rng, trims=False)),
        ("vada-damping-at-trim", lambda rng: check_vada_damping(rng, fibers=10, trims=True)),
        ("trim-damping-fd-agreement", check_trim_damping_fd),
        ("allocation-roundtrip", check_allocation_roundtrip),
        ("impedance-rk4-vs-analytic", check_impedance_rk4),
        ("mode-decoupling", check_mode_decoupling),
        ("vsa-vada-isomorphism", check_isomorphism),
    ]
    if inject_constant_damping:
        # the negative control, drawn last: its record fails, and says why
        note = "expected to fail: injected model has no aerodynamic hardening"
        claims.append(("vada-damping-zero-trim[constant-damping-injected]",
                       lambda rng: {**check_constant_damping_injection(rng), "note": note}))
    rng = np.random.default_rng(seed)
    records = [{"property": prop_id, **check(rng)} for prop_id, check in claims]
    # strict JSON has no NaN or Infinity: a record whose worst is one writes null, and fails
    for record in (r for r in records if not math.isfinite(r["worst"])):
        record.update(passed=False, worst=None)
    passed = sum(1 for r in records if r["passed"])
    return {
        "seed": seed,
        "records": records,
        "summary": {"total": len(records), "passed": passed, "failed": len(records) - passed},
        "all_passed": passed == len(records),
    }


def report_to_json(report: dict) -> str:
    """Strict JSON, the one format of every CLI output file: a non-finite
    number raises ValueError instead of being written as NaN or Infinity."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
