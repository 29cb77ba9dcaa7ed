"""Translational dynamics of the dual-rotor body in still air.

m nu_dot = F(v, nu) + F_ext, which the affine thrust model turns into the
first-order impedance form m nu_dot + c_app (nu - nu_eq) = F_ext. The
fixed-step RK4 simulator is checked against the exact exponential solution.

Under held inputs the dynamics are affine in nu, so one RK4 step of size h
is exactly nu - nu_inf -> R(z) (nu - nu_inf) with z = -h c_app / m and
R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, the stability function of classical
RK4. `simulate` evaluates that recurrence in closed form per input segment.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .dual_rotor import DualRotor, damping_at_trim, net_force

__all__ = [
    "BodyConfig",
    "InputSchedule",
    "Trajectory",
    "apparent_damping",
    "active_force",
    "equilibrium_velocity",
    "simulate",
    "analytic_response",
    "mode_decomposition",
]


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
        if any(b <= a for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError(f"breakpoints must be strictly increasing: {self.breakpoints}")
        if self.breakpoints and self.breakpoints[0] <= 0.0:
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
class Trajectory:
    times: list[float]
    nu: list[float]
    v1: list[float]
    v2: list[float]
    force: list[float]
    f_ext: list[float]
    dt: float
    integrator: str = "rk4"

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "nu", "v1", "v2", "F", "F_ext"])
            for row in zip(self.times, self.nu, self.v1, self.v2, self.force, self.f_ext):
                writer.writerow([repr(x) for x in row])

    def to_record(self) -> dict:
        return {
            "dt": self.dt,
            "integrator": self.integrator,
            "samples": [
                {"t": t, "nu": n, "v1": a, "v2": b, "F": f, "F_ext": fe}
                for t, n, a, b, f, fe in zip(
                    self.times, self.nu, self.v1, self.v2, self.force, self.f_ext
                )
            ],
        }


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
    nu_inf + (nu0 - nu_inf) exp(-c_app t / m)."""
    body.dual_rotor.require_in_box(v)
    c_app = apparent_damping(body, v)
    nu_inf = equilibrium_velocity(body, v) + f_ext / c_app
    return nu_inf + (nu0 - nu_inf) * math.exp(-c_app * t / body.mass)


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
    all k at once. Each output sample reports the inputs in force at its
    time and F(v, nu) = F_act(v) - c_app(v) nu.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")

    times = [np.zeros(1)]
    nus = [np.array([float(nu0)])]
    nu = float(nu0)
    for a, b, v, f_ext in schedule.segments(t_end):
        # both coefficient functions check v against the speed box
        c_app = apparent_damping(body, v)
        nu_inf = (active_force(body, v) + f_ext) / c_app
        n = max(1, math.ceil((b - a) / dt - 1e-12))
        h = (b - a) / n
        z = -h * c_app / body.mass
        r = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
        k = np.arange(1, n + 1)
        times.append(a + k * h)
        nus.append(nu_inf + (nu - nu_inf) * r**k)
        nu = float(nus[-1][-1])
    t_col = np.concatenate(times)
    nu_col = np.concatenate(nus)

    # samples are sorted in time, so each segment's samples form one run
    index = np.searchsorted(np.asarray(schedule.breakpoints, dtype=float), t_col, side="right")
    runs, counts = np.unique(index, return_counts=True)
    v1s, v2s, f_exts, a_seg, c_seg = [], [], [], [], []
    for i, count in zip(runs.tolist(), counts.tolist()):
        v = schedule.speeds[i]
        v1s += [v[0]] * count
        v2s += [v[1]] * count
        f_exts += [schedule.forces[i]] * count
        a_seg.append(active_force(body, v))
        c_seg.append(apparent_damping(body, v))
    forces = np.repeat(a_seg, counts) - np.repeat(c_seg, counts) * nu_col
    return Trajectory(
        times=t_col.tolist(),
        nu=nu_col.tolist(),
        v1=v1s,
        v2=v2s,
        force=forces.tolist(),
        f_ext=f_exts,
        dt=dt,
    )


def mode_decomposition(v: Sequence[float]) -> tuple[float, float]:
    """(common, differential) = (v1 + v2, v1 - v2); exactly invertible."""
    return v[0] + v[1], v[0] - v[1]
