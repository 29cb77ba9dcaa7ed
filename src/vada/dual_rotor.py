"""Dual-rotor variable aerodynamic damping actuator.

Two counter-facing rotors on a common translation axis see opposite
inflows (+nu on the forward rotor, -nu on the backward one). Net force,
trim-linearized damping, the bridge into the antagonistic core (force
promptness is the core's, read through it), and the inverse (force,
damping) -> speeds allocation live here. The net force and the damping
each have one unchecked body behind their box-checked public entries, and
the allocator's achieved force and damping are those bodies at the speeds
it returns. The net force and the bridge's channels read aero's one thrust
polynomial, the channels' inverses read aero's thrust_inverse, and box
checks are _array's.
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

from ._array import OPEN_BOX, everywhere, first_refused, inside, require_inside
from .aero import (
    AffineThrustModel,
    inflow_sensitivity,
    monotone_regime_bound,
    speed_sensitivity,
    thrust_inverse,
    thrust_polynomial,
)
from .antagonistic import AntagonisticActuator, ChannelLaw, promptness

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
    speed_box: tuple[tuple[float, float], tuple[float, float]] = OPEN_BOX

    def __post_init__(self):
        for lo, hi in self.speed_box:
            if lo < 0.0 or not hi > lo:
                raise ValueError(f"invalid speed box {self.speed_box}")

    @classmethod
    def identical(cls, model: AffineThrustModel, speed_box=OPEN_BOX) -> "DualRotor":
        return cls(rotor_fwd=model, rotor_bwd=model, speed_box=speed_box)


@dataclass(frozen=True)
class TrimPoint:
    nu_bar: float       # air-relative trim velocity, m/s
    force_level: float  # commanded net force, N


# AllocationResult.reason of an infeasible request
_DIFFERENTIAL = "differential mode exceeds common mode"
_BOX = "speed box violation"


# built positionally, and filled by item stores into __dict__: faster than the
# generated frozen __init__ (object.__setattr__ per field) or one dict.update
# of keywords. The parameters keep the field names, which dataclasses.replace
# passes by keyword.
@dataclass(frozen=True, init=False)
class AllocationResult:
    """allocate's floats or allocate_arrays' arrays. A scalar result has value
    equality and a hash; on a batch result `==` and `hash` raise on the array
    fields, so batches are compared field by field with np.array_equal."""

    speeds: tuple[float, float]
    achieved_force: float
    achieved_damping: float
    feasible: bool
    reason: str = ""

    def __init__(self, speeds, achieved_force, achieved_damping, feasible, reason=""):
        fields = self.__dict__
        fields["speeds"] = speeds
        fields["achieved_force"] = achieved_force
        fields["achieved_damping"] = achieved_damping
        fields["feasible"] = feasible
        fields["reason"] = reason


def net_force(dr: DualRotor, v: Sequence[float], nu: float) -> float:
    """F(v, nu) = T1(v1, nu) - T2(v2, -nu)."""
    require_inside(dr.speed_box, v, "speeds")
    return _net_force(dr, v[0], v[1], nu)


def _net_force(dr: DualRotor, v1, v2, nu):
    """net_force's body, unchecked; floats or arrays alike."""
    return thrust_polynomial(dr.rotor_fwd, v1, nu) - thrust_polynomial(dr.rotor_bwd, v2, -nu)


def damping_at_trim(dr: DualRotor, v: Sequence[float], nu_bar: float = 0.0) -> float:
    """sigma_a(v; nu_bar) = lambda1(v1, nu_bar) + lambda2(v2, -nu_bar).

    For affine models this reduces to k_D1 v1 + k_D2 v2, independent of
    the trim inflow.
    """
    require_inside(dr.speed_box, v, "speeds")
    return _damping(dr, v[0], v[1])


def _damping(dr: DualRotor, v1, v2):
    """damping_at_trim's body, unchecked: k_D1 v1 + k_D2 v2 at any trim;
    floats or arrays alike."""
    # aero's inflow_sensitivity (k_inflow * v) written out: two calls cost allocate 28 %
    return dr.rotor_fwd.k_inflow * v1 + dr.rotor_bwd.k_inflow * v2


def force_promptness(dr: DualRotor, v: Sequence[float], nu_bar: float = 0.0) -> float:
    """Norm of the force task-map gradient at the trim: the core's promptness
    through the trim bridge, which refuses a trim outside the monotone regime."""
    return promptness(as_antagonistic_at_trim(dr, nu_bar), v)


def as_antagonistic_at_trim(
    dr: DualRotor, nu_bar: float | np.ndarray = 0.0
) -> AntagonisticActuator:
    """View the dual rotor at a fixed trim as a generic antagonistic actuator.

    Channel maps: h1(v) = T1(v, nu_bar), h2(v) = T2(v, -nu_bar), with the
    per-rotor inflow sensitivities as passive coefficients: each channel
    binds aero's thrust_polynomial, speed_sensitivity, inflow_sensitivity
    and thrust_inverse at its rotor's trim inflow, as vsa's bridge binds
    its TendonLaw. Requires the whole speed box to sit in the monotone
    regime (dT/dv > 0), checked at the box lower bounds; a NaN trim is
    refused.

    Batches: an array nu_bar and array rotor coefficients broadcast against
    the fiber grid S + (steps,) of trace_fiber (coefficients of shape
    (m, 1, 1) and nu_bar of shape (m, n, 1) give m rotor pairs at n trims
    each). Floats and arrays take the one trim check, which holds at every
    entry; the first refused entry in C order raises the message of its own
    trim, so a float nu_bar against array coefficients reports the float.
    An array trim's inverse picks its form per entry, as thrust_inverse does.
    """
    _require_monotone_trim(dr, nu_bar)

    def channel(model: AffineThrustModel, inflow) -> ChannelLaw:
        return ChannelLaw(
            output_fn=lambda v: thrust_polynomial(model, v, inflow),
            output_sensitivity_fn=lambda v: speed_sensitivity(model, v, inflow),
            passive_coeff_fn=lambda v: inflow_sensitivity(model, v, inflow),
            inverse_fn=lambda y: thrust_inverse(model, y, inflow),
        )

    return AntagonisticActuator(
        channel_plus=channel(dr.rotor_fwd, nu_bar),
        channel_minus=channel(dr.rotor_bwd, -nu_bar),
        admissible_box=dr.speed_box,
    )


def _require_monotone_trim(dr: DualRotor, nu) -> None:
    """ValueError unless every entry of the trim nu is a number inside the
    monotone regime at the box floors: below the forward rotor's bound where
    positive, -nu below the backward rotor's where negative. The mask uses &
    and | alone, so a float stays in Python bools (~True is -2), and nu <
    bound refuses a NaN bound (k_T / k_D overflowing against a zero floor).
    An array's first refused entry in C order raises the message of its own
    trim."""
    (lo1, _), (lo2, _) = dr.speed_box
    fwd_bound = monotone_regime_bound(dr.rotor_fwd, lo1)
    bwd_bound = monotone_regime_bound(dr.rotor_bwd, lo2)
    allowed = (nu == nu) & ((nu <= 0.0) | (nu < fwd_bound)) & ((nu >= 0.0) | (-nu < bwd_bound))
    if everywhere(allowed):
        return
    nu = first_refused(allowed, nu)[1]
    if nu != nu:
        raise ValueError(f"trim inflow must be a number, got {nu}")
    side = "forward" if nu > 0.0 else "backward"
    raise ValueError(f"trim inflow {nu} violates the monotone regime on the {side} rotor box")


def _refuse_request(sigma_des) -> None:
    """The ValueError of a request that allocate refuses: a requested damping
    that is not positive, or else one that underflows the quadratic."""
    if not sigma_des > 0.0:
        raise ValueError(f"requested damping must be positive, got {sigma_des}")
    raise ValueError(f"requested damping {sigma_des} underflows the allocation quadratic")


def allocate(dr: DualRotor, trim: TrimPoint, sigma_des: float) -> AllocationResult:
    """Invert (net force, damping) -> rotor speeds at the trim.

    On the damping line k_D1 v1 + k_D2 v2 = sigma_des the inflow terms of
    the net force add up to -nu_bar sigma_des, so the request is
    k_T1 v1^2 - k_T2 v2^2 = F_bar + nu_bar sigma_des on that line: one
    quadratic a x^2 + b x + c = 0 in the speed x whose k_D is smaller (the
    other speed y comes off the line, dividing by the larger k_D). Its
    roots are c/q and q/a with q = -(b + sqrt(b^2 - 4ac))/2, which is free
    of cancellation since b > 0 (Higham, Accuracy and Stability of
    Numerical Algorithms, 1.8). q is negative, -inf or NaN, so unless a < 0
    q/a is at most 0, infinite or NaN, never in the open box, whose floors
    are at least 0: q/a is tried, before c/q, only where a < 0 (identical
    rotors give a = 0). F rises strictly along the line inside the positive
    quadrant, so at most one root lies in the box. An infeasible request is
    reported with the unconstrained candidate, never clamped: the root c/q,
    or the vertex -b/(2a) when no real root exists.
    A finite quadratic whose b^2 - 4ac overflows is scaled by a power of two
    first, which keeps its roots; one whose coefficients overflow (c = -inf
    at sigma_des 1e160 on unit rotors) is solved as it stands, infeasible.
    """
    if not sigma_des > 0.0:
        _refuse_request(sigma_des)
    fwd, bwd = dr.rotor_fwd, dr.rotor_bwd
    g = trim.force_level + trim.nu_bar * sigma_des
    # rx drives the solved speed x, ry the speed y read off the damping line
    swap = bwd.k_inflow < fwd.k_inflow
    rx, ry = (bwd, fwd) if swap else (fwd, bwd)
    if swap:
        g = -g
    a, b, c = _allocation_quadratic(rx, ry, g, sigma_des)
    disc = b * b - 4.0 * a * c
    if not disc < math.inf and all(map(math.isfinite, (a, b, c))):
        # b^2 or 4ac overflowed (-inf is right): 2^e, exact, brings all below 2^510
        e = 510 - math.frexp(max(abs(a), abs(b), abs(c)))[1]
        a, b, c = math.ldexp(a, e), math.ldexp(b, e), math.ldexp(c, e)
        disc = b * b - 4.0 * a * c
    # candidates in the order tried; c/q comes last, so it is what is left
    # when neither root is in the box; q/a only where a < 0, as it is never
    # in the box elsewhere
    if disc < 0.0:
        xs = (-b / (2.0 * a),)
    else:
        q = -0.5 * (b + math.sqrt(disc))
        if q == 0.0:
            # b > 0 makes q < 0 in exact arithmetic: only an underflow gives 0
            _refuse_request(sigma_des)
        xs = (q / a, c / q) if a < 0.0 else (c / q,)

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
    return _allocation(dr, trim.nu_bar, v1, v2, feasible, reason)


def _allocation(dr: DualRotor, nu_bar, v1, v2, feasible, reason) -> AllocationResult:
    """The result of allocating speeds (v1, v2) at trim inflow nu_bar, with
    the net force and damping they achieve; floats or arrays alike."""
    return AllocationResult((v1, v2), _net_force(dr, v1, v2, nu_bar), _damping(dr, v1, v2), feasible, reason)


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
    picked with np.where as allocate's loop picks it. A batch with requests
    that allocate refuses raises allocate's error for the first of them in C
    order, read off the batch's own arrays. `==` and `hash` raise on the
    result's arrays: compare batches field by field with np.array_equal.
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
    wide = ~(disc < np.inf)
    if wide.any():
        # allocate's scaling where it scales, and by 2^0 elsewhere
        big = np.maximum(np.maximum(abs(a), abs(b)), abs(c))
        e = np.where(wide & np.isfinite(big), 510 - np.frexp(big)[1], 0)
        a, b, c = np.ldexp(a, e), np.ldexp(b, e), np.ldexp(c, e)
        disc = b * b - 4.0 * a * c
    real = ~(disc < 0.0)  # a NaN discriminant takes the roots, as allocate does
    with np.errstate(invalid="ignore", divide="ignore"):
        q = -0.5 * (b + np.sqrt(disc))
        # q is 0 only where disc >= 0 and b underflows; NaN elsewhere passes
        allowed = (sigma_des > 0.0) & (q != 0.0)
        if not allowed.all():
            _refuse_request(first_refused(allowed, sigma_des)[1])

        def speeds(x):
            y = (sigma_des - rx.k_inflow * x) / ry.k_inflow
            return np.where(swap, y, x), np.where(swap, x, y)

        # q/a first, where a real second root exists and a < 0 (as in allocate,
        # q/a is never in the box elsewhere); else c/q, or the vertex
        upper = speeds(q / a)
        upper_in = real & (a < 0.0) & inside(dr.speed_box, upper)
        lower = speeds(np.where(real, c / q, -b / (2.0 * a)))
    v1, v2 = np.where(upper_in, upper[0], lower[0]), np.where(upper_in, upper[1], lower[1])
    feasible = inside(dr.speed_box, (v1, v2))
    smaller = np.where(v2 < v1, v2, v1)  # as min(v1, v2) picks, NaN included
    reason = np.where(feasible, "", np.where(smaller <= 0, _DIFFERENTIAL, _BOX))
    return _allocation(dr, nu_bar, v1, v2, feasible, reason)
