"""Dual-rotor variable aerodynamic damping actuator.

Two counter-facing rotors on a common translation axis see opposite
inflows (+nu on the forward rotor, -nu on the backward one). Net force,
trim-linearized damping, promptness, the bridge into the antagonistic
core, and the inverse (force, damping) -> speeds allocation live here.
The net force, the bridge's channels and the allocator's achieved force
all read aero's one thrust polynomial, and box checks are _array's.
net_force and damping_at_trim also take a pair of speed arrays, with
float or array rotor coefficients; allocate is scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._array import inside, require_inside
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


def as_antagonistic_at_trim(dr: DualRotor, nu_bar: float = 0.0) -> AntagonisticActuator:
    """View the dual rotor at a fixed trim as a generic antagonistic actuator.

    Channel maps: h1(v) = T1(v, nu_bar), h2(v) = T2(v, -nu_bar), with the
    per-rotor inflow sensitivities as passive coefficients. Requires the
    whole speed box to sit in the monotone regime (dT/dv > 0), checked at
    the box lower bounds.

    Each inverse is the larger root of k_T v^2 - b v - y = 0 with
    b = k_D nu_in and D = b^2 + 4 k_T y: (b + sqrt(D)) / (2 k_T) for b >= 0
    and 2 y / (sqrt(D) - b) for b < 0, so neither form subtracts nearly
    equal numbers (Higham, Accuracy and Stability of Numerical Algorithms,
    1.8). A thrust with no root (D < 0) gives NaN.
    """
    (lo1, _), (lo2, _) = dr.speed_box
    if nu_bar > 0.0 and nu_bar >= monotone_regime_bound(dr.rotor_fwd, lo1):
        raise ValueError(
            f"trim inflow {nu_bar} violates the monotone regime on the forward rotor box"
        )
    if nu_bar < 0.0 and -nu_bar >= monotone_regime_bound(dr.rotor_bwd, lo2):
        raise ValueError(
            f"trim inflow {nu_bar} violates the monotone regime on the backward rotor box"
        )

    def channel(model: AffineThrustModel, inflow: float) -> ChannelLaw:
        k_t, b = model.k_thrust, model.k_inflow * inflow
        return ChannelLaw(
            output_fn=lambda v: thrust_polynomial(model, v, inflow),
            output_sensitivity_fn=lambda v: speed_sensitivity(model, v, inflow),
            passive_coeff_fn=lambda v: inflow_sensitivity(model, v, inflow),
            inverse_fn=(
                (lambda y: (b + np.sqrt(b * b + 4.0 * k_t * y)) / (2.0 * k_t))
                if inflow >= 0.0
                else (lambda y: 2.0 * y / (np.sqrt(b * b + 4.0 * k_t * y) - b))
            ),
        )

    return AntagonisticActuator(
        channel_plus=channel(dr.rotor_fwd, nu_bar),
        channel_minus=channel(dr.rotor_bwd, -nu_bar),
        admissible_box=dr.speed_box,
    )


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
    a = rx.k_thrust * ry.k_inflow * ry.k_inflow - ry.k_thrust * rx.k_inflow * rx.k_inflow
    b = 2.0 * ry.k_thrust * rx.k_inflow * sigma_des
    c = -(ry.k_thrust * sigma_des * sigma_des + g * ry.k_inflow * ry.k_inflow)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        xs = [-b / (2.0 * a)]
    else:
        q = -0.5 * (b + math.sqrt(disc))
        if q == 0.0:
            # b > 0 makes q < 0 in exact arithmetic: only an underflow gives 0
            raise ValueError(f"requested damping {sigma_des} underflows the allocation quadratic")
        xs = [c / q] if a == 0.0 else [c / q, q / a]

    # c/q comes last, so it is what is left when neither root is in the box
    for x in reversed(xs):
        y = (sigma_des - rx.k_inflow * x) / ry.k_inflow
        v1, v2 = (y, x) if swap else (x, y)
        feasible = inside(dr.speed_box, (v1, v2))
        if feasible:
            break

    if feasible:
        reason = ""
    elif min(v1, v2) <= 0:
        reason = "differential mode exceeds common mode"
    else:
        reason = "speed box violation"
    nu = trim.nu_bar
    return AllocationResult(
        speeds=(v1, v2),
        achieved_force=thrust_polynomial(fwd, v1, nu) - thrust_polynomial(bwd, v2, -nu),
        achieved_damping=fwd.k_inflow * v1 + bwd.k_inflow * v2,
        feasible=feasible,
        reason=reason,
    )
