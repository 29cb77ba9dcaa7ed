"""Translational dynamics of the dual-rotor body in still air.

m nu_dot = F(v, nu) + F_ext, which the affine thrust model turns into the
first-order impedance form m nu_dot + c_app (nu - nu_eq) = F_ext. The
fixed-step RK4 simulator is checked against the exact exponential solution.

Under held inputs the dynamics are affine in nu, so one RK4 step of size h
is exactly nu - nu_inf -> R(z) (nu - nu_inf) with z = -h c_app / m and
R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, the stability function of classical
RK4. `simulate` evaluates that recurrence in closed form per input segment,
k steps as nu_inf + (nu_a - nu_inf) exp(k ln R(z)) with ln R(z) taken from z.
R is positive on the real axis, so the recurrence is stable exactly where
R(z) < 1, that is z > -2.7852... (Hairer & Wanner, Solving Ordinary
Differential Equations II, IV.2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from ._array import everywhere, first_refused
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
_LN2 = math.log(2.0)


def _stability_increment(z: float) -> float:
    """R(z) - 1, the one place RK4's stability polynomial is written."""
    return z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def _stability_rate(z: float) -> float:
    """ln R(z), the RK4 recurrence's decay rate per step: log1p of R(z) - 1
    from z, as rounding R(z) itself would cost eps/|z| of it."""
    return math.log1p(_stability_increment(z))


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
        # the length, not the truth value, which an array of two or more refuses
        if len(self.breakpoints) and not self.breakpoints[0] > 0.0:
            raise ValueError("breakpoints must be positive times")
        # a NaN or infinite force would fill the trajectory with NaN
        if not all(map(math.isfinite, self.forces)):
            raise ValueError(f"forces must be finite: {self.forces}")

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

    @property
    def time_constant(self) -> float:
        """-h / ln R(z), the RK4 recurrence's own time constant (NaN for 0
        steps): m / c_app (1 + z^4/120 + ...), as ln R(z) = z - z^5/120 + ...."""
        return -self.h / _stability_rate(self.z) if self.steps else math.nan


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


def apparent_damping(body: BodyConfig, v: Sequence[float]) -> float:
    """Viscous coefficient multiplying nu; equals the trim damping for
    affine rotors (k_D1 v1 + k_D2 v2)."""
    return damping_at_trim(body.dual_rotor, v)


def active_force(body: BodyConfig, v: Sequence[float]) -> float:
    """Feedforward part of the net force, k_T1 v1^2 - k_T2 v2^2."""
    return net_force(body.dual_rotor, v, 0.0)


def _impedance(body: BodyConfig, v: Sequence[float]) -> tuple[float, float]:
    """(c_app, F_act) at speeds v, floats or arrays: both coefficient
    functions check v against the speed box, and a c_app that is not
    positive is a ValueError, an array's for its first refused entry."""
    c_app = apparent_damping(body, v)
    if not everywhere(c_app > 0.0):
        # positive speeds and k_inflow give c_app > 0 unless it underflows
        _, *v, c_app = first_refused(c_app > 0.0, *v, c_app)
        raise ValueError(f"apparent damping at speeds {tuple(v)} is {c_app}, not positive")
    return c_app, active_force(body, v)


def equilibrium_velocity(body: BodyConfig, v: Sequence[float]) -> float:
    """Air-relative velocity at which the net force vanishes.

    General affine pair: (k_T1 v1^2 - k_T2 v2^2) / (k_D1 v1 + k_D2 v2);
    for identical rotors this reduces to (k_T / k_D)(v1 - v2). A damping
    that underflows to 0 is a ValueError.
    """
    c_app, f_act = _impedance(body, v)
    return f_act / c_app


def analytic_response(
    body: BodyConfig, v: Sequence[float], nu0: float, f_ext: float, t: float
) -> float:
    """Exact solution under constant inputs, with x = -c_app t / m:
    nu0 + (nu0 - nu_inf) expm1(x) while exp(x) > 1/2, so that a large nu_inf
    does not cancel, and nu_inf + (nu0 - nu_inf) exp(x) after, chosen per
    entry; t may be an array of times.
    v is checked against the speed box, and a c_app that underflows to 0 is
    a ValueError, as in equilibrium_velocity and simulate."""
    c_app, f_act = _impedance(body, v)
    # equilibrium_velocity(body, v) + f_ext / c_app, from the one read
    nu_inf = f_act / c_app + f_ext / c_app
    x = -c_app * np.asarray(t) / body.mass
    # simulate's fill writes the same two forms, split at an index: a masked
    # helper shared with it made simulate's ops 25-60 % slower
    nu = np.where(x > -_LN2, nu0 + (nu0 - nu_inf) * np.expm1(x), nu_inf + (nu0 - nu_inf) * np.exp(x))
    return nu[()]


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
    all k at once. A step beyond the stability limit, where R(z) >= 1 would
    make the recurrence diverge, is a ValueError naming the largest stable
    dt. The decay reads ln R(z) from z, so a segment whose R(z) rounds to 1
    near z = 0 still moves nu by its net force. A z that underflows to 0,
    whose time constant -h / ln R(z) is 0 / 0, or to a subnormal, whose
    rounding would misreport that time constant, is a ValueError too, as is
    a c_app that underflows to 0, a dt that is not positive and finite, or a
    non-finite nu0 or t_end. Each output sample reports the inputs in force
    at its time and F(v, nu) = F_act(v) - c_app(v) nu;
    a breakpoint at the last sample's time puts it in the next segment, whose
    speeds and damping are checked as the others' are.

    A first pass makes every check and fixes each segment's steps; then
    `times` and `nu` are allocated once and each segment's slice is filled in
    place from one float64 array of step indices k: times as a + k h, and
    the decay as exp(k ln R(z)), or as expm1 from nu_a while R(z)^k > 1/2.
    Where ln R(z) < -1/2 the slice is filled with R(z) and raised to k.
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
        c_app, f_act = _impedance(body, v)
        nu_inf = (f_act + f_ext) / c_app
        n = max(1, math.ceil((b - a) / dt - 1e-12))
        h = (b - a) / n
        z = -h * c_app / body.mass
        if abs(z) < sys.float_info.min:
            # a subnormal z carries its rounding (up to 5e-324) into -h / ln R(z)
            underflow = "underflows to 0" if z == 0.0 else f"= {z:.6g} is subnormal"
            raise ValueError(f"the step {h:.6g} from t = {a:.6g} is too short to integrate at speeds "
                             f"{tuple(v)}: z = -h c_app / m {underflow}")
        r = 1.0 + _stability_increment(z)
        if not (r < 1.0 or z > -RK4_STABILITY_LIMIT):
            raise ValueError(
                f"dt {dt} is outside the RK4 stability region at speeds {tuple(v)}: "
                f"R(z) = {r:.6g} >= 1 with z = {z:.6g}; the largest stable dt there is "
                f"{RK4_STABILITY_LIMIT * body.mass / c_app:.6g}"
            )
        steps.append((a, n, h, r, _stability_rate(z), nu_inf))
        fields.append((v, f_ext, c_app, f_act, n, h, z, r, bool(h < dt)))

    size = 1 + sum(step[1] for step in steps)
    times, nu = np.empty(size), np.empty(size)
    times[0], nu[0] = 0.0, float(nu0)
    # float64, so that neither the products nor the power cast it
    k = np.arange(1.0, max(step[1] for step in steps) + 1)
    lo = 1
    for a, n, h, r, rate, nu_inf in steps:
        # a + k * h and nu_inf + (nu_a - nu_inf) R(z)^k, filled in place
        t_k, nu_k = times[lo : lo + n], nu[lo : lo + n]
        np.multiply(k[:n], h, out=t_k)
        t_k += a
        if rate < -0.5:
            # |z| above ~0.5: the power of the rounded R(z) errs by k eps/2,
            # less than exp's k |ln R(z)| eps. An array base: with a scalar
            # one numpy runs its scalar power loop
            nu_k.fill(r)
            np.power(nu_k, k[:n], out=nu_k)
            head, tail = nu_k[:0], nu_k
        else:
            # R(z)^k = exp(k ln R(z)). While it is above 1/2, nu is taken as
            # nu_a + (nu_a - nu_inf) expm1(k ln R(z)), which does not cancel
            # against a large nu_inf
            np.multiply(k[:n], rate, out=nu_k)
            j = min(n, int(_LN2 / -rate))
            head, tail = nu_k[:j], nu_k[j:]
            np.expm1(head, out=head)
            np.exp(tail, out=tail)
        nu_a = float(nu[lo - 1])
        nu_k *= nu_a - nu_inf
        head += nu_a
        tail += nu_inf
        lo += n

    # samples are sorted in time, so segment i holds the samples from the
    # first at or after breakpoint i-1 to the last before breakpoint i. A
    # segment of one step holds none (its end sample opens the next).
    edges = np.searchsorted(times, schedule.breakpoints, side="left").tolist()
    counts = [hi - lo for lo, hi in zip([0, *edges], [*edges, size])]
    table = [SegmentRecord(samples, *f) for samples, f in zip(counts, fields)]
    # a breakpoint at the last sample's time gives that sample to a segment
    # that was not integrated: read and check its speeds as the others were
    for i in range(len(fields), len(counts)):
        if counts[i]:
            v = schedule.speeds[i]
            table.append(SegmentRecord(counts[i], v, schedule.forces[i], *_impedance(body, v),
                                       0, 0.0, 0.0, 1.0, False))
    return Trajectory(times=times, nu=nu, dt=dt, segments=tuple(table))


def mode_decomposition(v: Sequence[float]) -> tuple[float, float]:
    """(common, differential) = (v1 + v2, v1 - v2); exactly invertible."""
    return v[0] + v[1], v[0] - v[1]
