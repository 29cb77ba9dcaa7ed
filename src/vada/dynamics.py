"""Translational dynamics of the dual-rotor body in still air.

m nu_dot = F(v, nu) + F_ext, which the affine thrust model turns into the
first-order impedance form m nu_dot + c_app (nu - nu_eq) = F_ext. The
fixed-step RK4 simulator is checked against the exact exponential solution.

Under held inputs the dynamics are affine in nu, so one RK4 step of size h
is exactly nu - nu_inf -> R(z) (nu - nu_inf) with z = -h c_app / m and
R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, the stability function of classical
RK4. `simulate` evaluates that recurrence in closed form per input segment.
R is positive on the real axis, so the recurrence is stable exactly where
R(z) < 1, that is z > -2.7852... (Hairer & Wanner, Solving Ordinary
Differential Equations II, IV.2).

One float64 array of step indices k feeds both a + k h and R(z)^k, and the
power runs on an output slice filled with R(z) in place: a scalar base or an
integer exponent keeps numpy off its SIMD power loop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .dual_rotor import DualRotor, damping_at_trim, net_force

__all__ = [
    "BodyConfig",
    "InputSchedule",
    "SegmentRecord",
    "Trajectory",
    "apparent_damping",
    "active_force",
    "equilibrium_velocity",
    "simulate",
    "analytic_response",
    "mode_decomposition",
    "RK4_STABILITY_LIMIT",
]

# |z| below this (the negative root of R(z) = 1, -2.78529..., truncated) keeps an
# RK4 step stable.
RK4_STABILITY_LIMIT = 2.785


@dataclass(frozen=True)
class BodyConfig:
    mass: float
    dual_rotor: DualRotor

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")


@dataclass(frozen=True)
class InputSchedule:
    """Piecewise-constant rotor speeds and external force.

    `breakpoints` are the interior switching times; segment i covers
    [breakpoints[i-1], breakpoints[i]) with inputs speeds[i], forces[i].
    """

    speeds: list[tuple[float, float]]
    forces: list[float]
    breakpoints: list[float] = field(default_factory=list)

    def __post_init__(self):
        if len(self.speeds) != len(self.breakpoints) + 1 or len(self.forces) != len(self.speeds):
            raise ValueError("need len(speeds) == len(forces) == len(breakpoints) + 1")
        # written so that a NaN breakpoint fails them
        if any(not b > a for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError(f"breakpoints must be strictly increasing: {self.breakpoints}")
        if self.breakpoints and not self.breakpoints[0] > 0.0:
            raise ValueError("breakpoints must be positive times")

    @classmethod
    def constant(cls, speeds: Sequence[float], f_ext: float = 0.0) -> "InputSchedule":
        return cls(speeds=[tuple(speeds)], forces=[f_ext])

    def segments(self, t_end: float) -> Iterator[tuple[float, float, tuple[float, float], float]]:
        """Yield (a, b, speeds, f_ext) for each segment that starts before
        t_end, with the last one cut at t_end."""
        edges = [0.0] + [b for b in self.breakpoints if b < t_end] + [t_end]
        for i, (a, b) in enumerate(zip(edges, edges[1:])):
            yield a, b, self.speeds[i], self.forces[i]


@dataclass(frozen=True)
class SegmentRecord:
    """The inputs one run of consecutive samples reports, and how they were
    integrated.

    `samples` samples of the trajectory, in order, report speeds `speeds`,
    external force `f_ext`, apparent damping `c_app` and active force `f_act`.
    Over the segment, `steps` RK4 steps of size `h` were taken, each the
    recurrence factor `r` = R(z) with z = -h c_app / m; `shortened` tells
    whether h < dt (the steps were cut to end exactly at the segment's end).
    A segment of one step can hold no sample (its end sample opens the next
    segment), and a segment that starts exactly at the last sample holds it
    with 0 steps (h and z 0.0, r 1.0).
    """

    samples: int
    speeds: tuple[float, float]
    f_ext: float
    c_app: float
    f_act: float
    steps: int
    h: float
    z: float
    r: float
    shortened: bool


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One simulation's samples: `times` and `nu` are 1-D float64 arrays of
    the same length (one entry per sample time), dt is the nominal step and
    `segments` the SegmentRecord table, whose sample counts add up to that
    length.

    The input columns `v1`, `v2`, `f_ext` and the net force `force`
    (F_act - c_app nu) are float64 arrays of the same length too, built from
    the table on first access and then kept.
    """

    times: np.ndarray
    nu: np.ndarray
    dt: float
    segments: tuple[SegmentRecord, ...]

    def _held(self, values) -> np.ndarray:
        """One value per segment, repeated over that segment's samples."""
        return np.repeat(np.array(values, dtype=float), [s.samples for s in self.segments])

    @cached_property
    def v1(self) -> np.ndarray:
        return self._held([s.speeds[0] for s in self.segments])

    @cached_property
    def v2(self) -> np.ndarray:
        return self._held([s.speeds[1] for s in self.segments])

    @cached_property
    def f_ext(self) -> np.ndarray:
        return self._held([s.f_ext for s in self.segments])

    @cached_property
    def force(self) -> np.ndarray:
        f_act = self._held([s.f_act for s in self.segments])
        f_act -= self._held([s.c_app for s in self.segments]) * self.nu
        return f_act

    def to_csv(self, path) -> None:
        """Write the columns as plain float literals (repr of Python floats)."""
        columns = (self.times, self.nu, self.v1, self.v2, self.force, self.f_ext)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "nu", "v1", "v2", "F", "F_ext"])
            writer.writerows([repr(x) for x in row] for row in zip(*(c.tolist() for c in columns)))


def apparent_damping(body: BodyConfig, v: Sequence[float]) -> float:
    """Viscous coefficient multiplying nu; equals the trim damping for
    affine rotors (k_D1 v1 + k_D2 v2)."""
    return damping_at_trim(body.dual_rotor, v)


def active_force(body: BodyConfig, v: Sequence[float]) -> float:
    """Feedforward part of the net force, k_T1 v1^2 - k_T2 v2^2."""
    return net_force(body.dual_rotor, v, 0.0)


def equilibrium_velocity(body: BodyConfig, v: Sequence[float]) -> float:
    """Air-relative velocity at which the net force vanishes.

    General affine pair: (k_T1 v1^2 - k_T2 v2^2) / (k_D1 v1 + k_D2 v2);
    for identical rotors this reduces to (k_T / k_D)(v1 - v2).
    """
    return active_force(body, v) / apparent_damping(body, v)


def analytic_response(
    body: BodyConfig, v: Sequence[float], nu0: float, f_ext: float, t: float
) -> float:
    """Exact solution under constant inputs:
    nu_inf + (nu0 - nu_inf) exp(-c_app t / m); t may be an array of times.
    apparent_damping checks v against the speed box."""
    c_app = apparent_damping(body, v)
    nu_inf = equilibrium_velocity(body, v) + f_ext / c_app
    return nu_inf + (nu0 - nu_inf) * np.exp(-c_app * np.asarray(t) / body.mass)


def simulate(
    body: BodyConfig,
    schedule: InputSchedule,
    nu0: float,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Fixed-step RK4 on the velocity dynamics.

    Within each schedule segment the step is shortened so that no step
    straddles an input discontinuity; inputs are held at their
    left-breakpoint values inside a step. The k-th step of a segment
    starting from nu_a is nu_inf + (nu_a - nu_inf) R(z)^k, evaluated for
    all k at once. A step with R(z) >= 1 would make the recurrence diverge,
    so it is a ValueError naming the largest stable dt, as is a dt that is
    not positive and finite, or a non-finite nu0 or t_end. Each output sample
    reports the inputs in force at its time and F(v, nu) = F_act(v) - c_app(v) nu;
    a breakpoint at the last sample's time puts it in the next segment, whose
    speeds are checked against the box too.

    A first pass makes every check and fixes each segment's steps; then
    `times` and `nu` are allocated once and each segment's slice is filled in
    place from one float64 array of step indices k: times as a + k h, and
    the decay by filling the slice with R(z) and raising it to k in place.
    The input and force columns are left to the Trajectory to build from its
    segment table.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if not math.isfinite(nu0):
        raise ValueError(f"nu0 must be finite, got {nu0}")

    steps, fields = [], []  # per segment: how to fill it, and its record after `samples`
    for a, b, v, f_ext in schedule.segments(t_end):
        # both coefficient functions check v against the speed box
        c_app = apparent_damping(body, v)
        if not c_app > 0.0:
            # positive speeds and k_inflow give c_app > 0 unless it underflows
            raise ValueError(f"apparent damping at speeds {v} is {c_app}, not positive")
        f_act = active_force(body, v)
        nu_inf = (f_act + f_ext) / c_app
        n = max(1, math.ceil((b - a) / dt - 1e-12))
        h = (b - a) / n
        z = -h * c_app / body.mass
        r = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
        if not r < 1.0:
            raise ValueError(
                f"dt {dt} is outside the RK4 stability region at speeds {tuple(v)}: "
                f"R(z) = {r:.6g} >= 1 with z = {z:.6g}; the largest stable dt there is "
                f"{RK4_STABILITY_LIMIT * body.mass / c_app:.6g}"
            )
        steps.append((a, n, h, r, nu_inf))
        fields.append((v, f_ext, c_app, f_act, n, h, z, r, h < dt))

    size = 1 + sum(n for _, n, _, _, _ in steps)
    times, nu = np.empty(size), np.empty(size)
    times[0], nu[0] = 0.0, float(nu0)
    # float64, so that neither the product nor the power casts it
    k = np.arange(1.0, max(n for _, n, _, _, _ in steps) + 1)
    lo = 1
    for a, n, h, r, nu_inf in steps:
        # a + k * h and nu_inf + (nu_a - nu_inf) * r**k, filled in place
        t_k, nu_k = times[lo : lo + n], nu[lo : lo + n]
        np.multiply(k[:n], h, out=t_k)
        t_k += a
        # an array base: with a scalar one numpy runs its scalar power loop
        nu_k.fill(r)
        np.power(nu_k, k[:n], out=nu_k)
        nu_k *= float(nu[lo - 1]) - nu_inf
        nu_k += nu_inf
        lo += n

    # samples are sorted in time, so segment i holds the samples from the
    # first at or after breakpoint i-1 to the last before breakpoint i. A
    # segment of one step holds none (its end sample opens the next).
    edges = np.searchsorted(times, schedule.breakpoints, side="left").tolist()
    counts = [hi - lo for lo, hi in zip([0, *edges], [*edges, size])]
    table = [SegmentRecord(samples, *f) for samples, f in zip(counts, fields)]
    # a breakpoint at the last sample's time gives that sample to a segment
    # that was not integrated: check its speeds as the others were
    for i in range(len(fields), len(counts)):
        if counts[i]:
            v, f_ext = schedule.speeds[i], schedule.forces[i]
            f_act = active_force(body, v)
            c_app = apparent_damping(body, v)
            table.append(SegmentRecord(counts[i], v, f_ext, c_app, f_act, 0, 0.0, 0.0, 1.0, False))
    return Trajectory(times=times, nu=nu, dt=dt, segments=tuple(table))


def mode_decomposition(v: Sequence[float]) -> tuple[float, float]:
    """(common, differential) = (v1 + v2, v1 - v2); exactly invertible."""
    return v[0] + v[1], v[0] - v[1]
