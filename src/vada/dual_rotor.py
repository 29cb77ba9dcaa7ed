"""Dual-rotor variable aerodynamic damping actuator.

Two counter-facing rotors on a common translation axis see opposite
inflows (+nu on the forward rotor, -nu on the backward one). Net force,
trim-linearized damping, promptness, the bridge into the antagonistic
core, and the inverse (force, damping) -> speeds allocation live here.
The net force, the bridge's channels and the allocator's achieved force
all read aero's one thrust polynomial, and box checks are _array's.
net_force and damping_at_trim also take a pair of speed arrays, with
float or array rotor coefficients. as_antagonistic_at_trim takes array
rotor coefficients and an array trim, for a batch of fibers traced in one
pass. allocate takes one request in plain floats; allocate_arrays takes a
batch of requests as arrays and solves them in one numpy pass with the same
quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._array import everywhere, inside, require_inside
from .aero import (
    AffineThrustModel,
    inflow_sensitivity,
    monotone_regime_bound,
    speed_sensitivity,
    thrust_polynomial,
)
from .antagonistic import AntagonisticActuator, ChannelLaw

__all__ = [
    "DualRotor",
    "TrimPoint",
    "AllocationResult",
    "net_force",
    "damping_at_trim",
    "force_promptness",
    "as_antagonistic_at_trim",
    "allocate",
    "allocate_arrays",
]


@dataclass(frozen=True)
class DualRotor:
    rotor_fwd: AffineThrustModel   # contributes +T(v1, nu)
    rotor_bwd: AffineThrustModel   # contributes -T(v2, -nu)
    # per-rotor admissible open speed intervals, rad/s
    speed_box: tuple[tuple[float, float], tuple[float, float]] = (
        (0.0, math.inf),
        (0.0, math.inf),
    )

    def __post_init__(self):
        for lo, hi in self.speed_box:
            if lo < 0.0 or not hi > lo:
                raise ValueError(f"invalid speed box {self.speed_box}")

    @classmethod
    def identical(cls, model: AffineThrustModel, speed_box=None) -> "DualRotor":
        if speed_box is None:
            return cls(rotor_fwd=model, rotor_bwd=model)
        return cls(rotor_fwd=model, rotor_bwd=model, speed_box=speed_box)


@dataclass(frozen=True)
class TrimPoint:
    nu_bar: float       # air-relative trim velocity, m/s
    force_level: float  # commanded net force, N


# AllocationResult.reason of an infeasible request
_DIFFERENTIAL = "differential mode exceeds common mode"
_BOX = "speed box violation"


@dataclass(frozen=True)
class AllocationResult:
    speeds: tuple[float, float]
    achieved_force: float
    achieved_damping: float
    feasible: bool
    reason: str = ""


def net_force(dr: DualRotor, v: Sequence[float], nu: float) -> float:
    """F(v, nu) = T1(v1, nu) - T2(v2, -nu)."""
    require_inside(dr.speed_box, v, "speeds")
    return thrust_polynomial(dr.rotor_fwd, v[0], nu) - thrust_polynomial(dr.rotor_bwd, v[1], -nu)


def damping_at_trim(dr: DualRotor, v: Sequence[float], nu_bar: float = 0.0) -> float:
    """sigma_a(v; nu_bar) = lambda1(v1, nu_bar) + lambda2(v2, -nu_bar).

    For affine models this reduces to k_D1 v1 + k_D2 v2, independent of
    the trim inflow.
    """
    require_inside(dr.speed_box, v, "speeds")
    return inflow_sensitivity(dr.rotor_fwd, v[0], nu_bar) + inflow_sensitivity(
        dr.rotor_bwd, v[1], -nu_bar
    )


def force_promptness(dr: DualRotor, v: Sequence[float], nu_bar: float = 0.0) -> float:
    """Norm of the force task-map gradient at the trim."""
    require_inside(dr.speed_box, v, "speeds")
    return math.hypot(
        speed_sensitivity(dr.rotor_fwd, v[0], nu_bar),
        speed_sensitivity(dr.rotor_bwd, v[1], -nu_bar),
    )


def as_antagonistic_at_trim(
    dr: DualRotor, nu_bar: float | np.ndarray = 0.0
) -> AntagonisticActuator:
    """View the dual rotor at a fixed trim as a generic antagonistic actuator.

    Channel maps: h1(v) = T1(v, nu_bar), h2(v) = T2(v, -nu_bar), with the
    per-rotor inflow sensitivities as passive coefficients. Requires the
    whole speed box to sit in the monotone regime (dT/dv > 0), checked at
    the box lower bounds; a NaN trim is refused.

    Each inverse is the larger root of k_T v^2 - b v - y = 0 with
    b = k_D nu_in and D = b^2 + 4 k_T y: (b + sqrt(D)) / (2 k_T) for b >= 0
    and 2 y / (sqrt(D) - b) for b < 0, so neither form subtracts nearly
    equal numbers (Higham, Accuracy and Stability of Numerical Algorithms,
    1.8). A thrust with no root (D < 0) gives NaN.

    Batches: an array nu_bar and array rotor coefficients broadcast against
    the fiber grid S + (steps,) of trace_fiber (coefficients of shape
    (m, 1, 1) and nu_bar of shape (m, n, 1) give m rotor pairs at n trims
    each). The checks then hold at every entry, and a failing entry raises
    its own scalar message, the first in C order. Each inverse picks its form
    per entry, on the sign of that entry's inflow (-0.0 takes the first), so
    every entry equals the scalar inverse bit for bit; both forms are
    computed, which only trace_fiber's error state keeps quiet. A float
    nu_bar against array coefficients is checked as a float, against every
    entry of the bound on the side its sign loads.
    """
    # a float trim keeps the scalar check: the array one costs a VADA fiber op about 7 %
    if isinstance(nu_bar, np.ndarray):
        _require_monotone_trims(dr, nu_bar)
    else:
        _require_monotone_trim(dr, nu_bar)

    def channel(model: AffineThrustModel, inflow) -> ChannelLaw:
        k_t, b = model.k_thrust, model.k_inflow * inflow
        return ChannelLaw(
            output_fn=lambda v: thrust_polynomial(model, v, inflow),
            output_sensitivity_fn=lambda v: speed_sensitivity(model, v, inflow),
            passive_coeff_fn=lambda v: inflow_sensitivity(model, v, inflow),
            # a float inflow keeps the scalar forms: np.where costs a VADA fiber op about 4 %
            inverse_fn=(
                _inverse_per_entry(k_t, b, inflow >= 0.0) if isinstance(inflow, np.ndarray)
                else (lambda y: (b + np.sqrt(b * b + 4.0 * k_t * y)) / (2.0 * k_t))
                if inflow >= 0.0
                else (lambda y: 2.0 * y / (np.sqrt(b * b + 4.0 * k_t * y) - b))
            ),
        )

    return AntagonisticActuator(
        channel_plus=channel(dr.rotor_fwd, nu_bar),
        channel_minus=channel(dr.rotor_bwd, -nu_bar),
        admissible_box=dr.speed_box,
    )


def _inverse_per_entry(k_t, b, with_inflow):
    """The channel inverse of array coefficients or inflows: each entry takes
    the form its scalar inverse takes, (b + sqrt(D)) / (2 k_T) where
    with_inflow holds and 2 y / (sqrt(D) - b) elsewhere, from the same
    operations, so it equals that inverse bit for bit."""
    def inverse(y):
        root = np.sqrt(b * b + 4.0 * k_t * y)
        return np.where(with_inflow, (b + root) / (2.0 * k_t), 2.0 * y / (root - b))
    return inverse


def _require_monotone_trim(dr: DualRotor, nu_bar: float) -> None:
    """ValueError unless the float trim nu_bar is a number inside the
    monotone regime of its rotor's box floor (at every entry of the bound,
    for array coefficients). Only the bound on the side that nu_bar's sign
    loads is evaluated."""
    if math.isnan(nu_bar):
        raise ValueError(f"trim inflow must be a number, got {nu_bar}")
    (lo1, _), (lo2, _) = dr.speed_box
    if nu_bar > 0.0 and not everywhere(nu_bar < monotone_regime_bound(dr.rotor_fwd, lo1)):
        raise ValueError(
            f"trim inflow {nu_bar} violates the monotone regime on the forward rotor box"
        )
    if nu_bar < 0.0 and not everywhere(-nu_bar < monotone_regime_bound(dr.rotor_bwd, lo2)):
        raise ValueError(
            f"trim inflow {nu_bar} violates the monotone regime on the backward rotor box"
        )


def _require_monotone_trims(dr: DualRotor, nu_bar: np.ndarray) -> None:
    """_require_monotone_trim at every entry of an array trim against array
    (or float) rotor coefficients; the first failing entry raises its scalar
    message, from a scalar check of that entry alone."""
    (lo1, _), (lo2, _) = dr.speed_box
    fwd, bwd = dr.rotor_fwd, dr.rotor_bwd
    refused = (
        np.isnan(nu_bar)
        | (nu_bar > 0.0) & ~(nu_bar < monotone_regime_bound(fwd, lo1))
        | (nu_bar < 0.0) & ~(-nu_bar < monotone_regime_bound(bwd, lo2))
    )
    if refused.any():
        k = np.unravel_index(np.argmax(refused), refused.shape)

        def entry(x) -> float:
            return np.broadcast_to(x, refused.shape)[k].item()

        def model(m: AffineThrustModel) -> AffineThrustModel:
            return AffineThrustModel(k_thrust=entry(m.k_thrust), k_inflow=entry(m.k_inflow))

        _require_monotone_trim(DualRotor(model(fwd), model(bwd), dr.speed_box), entry(nu_bar))


def allocate(dr: DualRotor, trim: TrimPoint, sigma_des: float) -> AllocationResult:
    """Invert (net force, damping) -> rotor speeds at the trim.

    On the damping line k_D1 v1 + k_D2 v2 = sigma_des the inflow terms of
    the net force add up to -nu_bar sigma_des, so the request is
    k_T1 v1^2 - k_T2 v2^2 = F_bar + nu_bar sigma_des on that line: one
    quadratic a x^2 + b x + c = 0 in the speed x whose k_D is smaller (the
    other speed y comes off the line, dividing by the larger k_D). Its
    roots are c/q and q/a with q = -(b + sqrt(b^2 - 4ac))/2, which is free
    of cancellation since b > 0 (Higham, Accuracy and Stability of
    Numerical Algorithms, 1.8); identical rotors give a = 0 and the single
    root c/q. F rises strictly along the line inside the positive
    quadrant, so at most one root lies in the box. An infeasible request
    is reported with the unconstrained candidate, never clamped: the root
    c/q, or the vertex -b/(2a) when no real root exists.
    """
    if not sigma_des > 0.0:
        raise ValueError(f"requested damping must be positive, got {sigma_des}")
    fwd, bwd = dr.rotor_fwd, dr.rotor_bwd
    g = trim.force_level + trim.nu_bar * sigma_des
    # rx drives the solved speed x, ry the speed y read off the damping line
    swap = bwd.k_inflow < fwd.k_inflow
    rx, ry = (bwd, fwd) if swap else (fwd, bwd)
    if swap:
        g = -g
    a, b, c = _allocation_quadratic(rx, ry, g, sigma_des)
    disc = b * b - 4.0 * a * c
    # candidates in the order tried; c/q comes last, so it is what is left
    # when neither root is in the box
    if disc < 0.0:
        xs = (-b / (2.0 * a),)
    else:
        q = -0.5 * (b + math.sqrt(disc))
        if q == 0.0:
            # b > 0 makes q < 0 in exact arithmetic: only an underflow gives 0
            raise ValueError(f"requested damping {sigma_des} underflows the allocation quadratic")
        xs = (c / q,) if a == 0.0 else (q / a, c / q)

    for x in xs:
        y = (sigma_des - rx.k_inflow * x) / ry.k_inflow
        v1, v2 = (y, x) if swap else (x, y)
        feasible = inside(dr.speed_box, (v1, v2))
        if feasible:
            break

    if feasible:
        reason = ""
    elif min(v1, v2) <= 0:
        reason = _DIFFERENTIAL
    else:
        reason = _BOX
    nu = trim.nu_bar
    return AllocationResult(
        speeds=(v1, v2),
        achieved_force=thrust_polynomial(fwd, v1, nu) - thrust_polynomial(bwd, v2, -nu),
        achieved_damping=fwd.k_inflow * v1 + bwd.k_inflow * v2,
        feasible=feasible,
        reason=reason,
    )


def _allocation_quadratic(rx: AffineThrustModel, ry: AffineThrustModel, g, sigma_des):
    """(a, b, c) of the allocation quadratic a x^2 + b x + c = 0 in the speed
    of rotor rx, with ry's speed read off the damping line and g the force
    request F_bar + nu_bar sigma_des, signed for rx; floats or arrays alike."""
    a = rx.k_thrust * ry.k_inflow * ry.k_inflow - ry.k_thrust * rx.k_inflow * rx.k_inflow
    b = 2.0 * ry.k_thrust * rx.k_inflow * sigma_des
    c = -(ry.k_thrust * sigma_des * sigma_des + g * ry.k_inflow * ry.k_inflow)
    return a, b, c


def allocate_arrays(dr: DualRotor, nu_bar, force_level, sigma_des) -> AllocationResult:
    """allocate over a batch of requests in one numpy pass.

    dr holds array rotor coefficients and nu_bar, force_level and sigma_des
    are arrays, one entry per request, all of one shape. The result's fields
    are arrays of that shape (speeds a pair of them), and each entry is what
    allocate returns for that request: the same quadratic, and the root
    picked with np.where as allocate's loop picks it. A request that allocate
    refuses makes the batch raise allocate's error for the first such entry.
    """
    sigma_des = np.asarray(sigma_des, dtype=float)
    fwd, bwd = dr.rotor_fwd, dr.rotor_bwd
    g = force_level + nu_bar * sigma_des
    swap = bwd.k_inflow < fwd.k_inflow
    rx = AffineThrustModel(k_thrust=np.where(swap, bwd.k_thrust, fwd.k_thrust),
                           k_inflow=np.where(swap, bwd.k_inflow, fwd.k_inflow))
    ry = AffineThrustModel(k_thrust=np.where(swap, fwd.k_thrust, bwd.k_thrust),
                           k_inflow=np.where(swap, fwd.k_inflow, bwd.k_inflow))
    g = np.where(swap, -g, g)
    a, b, c = _allocation_quadratic(rx, ry, g, sigma_des)
    disc = b * b - 4.0 * a * c
    real = disc >= 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        q = -0.5 * (b + np.sqrt(disc))
        refused = ~(sigma_des > 0.0) | (real & (q == 0.0))
        if refused.any():
            i = np.unravel_index(np.argmax(refused), refused.shape)
            if not sigma_des[i] > 0.0:
                raise ValueError(f"requested damping must be positive, got {float(sigma_des[i])}")
            raise ValueError(
                f"requested damping {float(sigma_des[i])} underflows the allocation quadratic"
            )

        def speeds(x):
            y = (sigma_des - rx.k_inflow * x) / ry.k_inflow
            return np.where(swap, y, x), np.where(swap, x, y)

        # q/a first, where a real second root exists; else c/q, or the vertex
        upper = speeds(q / a)
        upper_in = real & (a != 0.0) & inside(dr.speed_box, upper)
        lower = speeds(np.where(real, c / q, -b / (2.0 * a)))
    v1, v2 = np.where(upper_in, upper[0], lower[0]), np.where(upper_in, upper[1], lower[1])
    feasible = inside(dr.speed_box, (v1, v2))
    smaller = np.where(v2 < v1, v2, v1)  # as min(v1, v2) picks, NaN included
    return AllocationResult(
        speeds=(v1, v2),
        achieved_force=thrust_polynomial(fwd, v1, nu_bar) - thrust_polynomial(bwd, v2, -nu_bar),
        achieved_damping=fwd.k_inflow * v1 + bwd.k_inflow * v2,
        feasible=feasible,
        reason=np.where(feasible, "", np.where(smaller <= 0, _DIFFERENTIAL, _BOX)),
    )
