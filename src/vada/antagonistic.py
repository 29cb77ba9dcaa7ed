"""Generic two-channel antagonistic actuator with a scalar task map.

Both the tendon-driven VSA and the dual-rotor damping actuator reduce to
this structure: channel 1 adds h1(u1) to the task output, channel 2
subtracts h2(u2), and each channel carries a passive coefficient that
hardens with its command. A constant-output fiber is explicit,
u2 = h2^-1(h1(u1) - level), so it is traced by one call of the minus
channel's inverse over the whole grid of u1 values, then checked.

Array contract: a ChannelLaw callable is called with a float or with a 1-D
float array and returns a value of that shape, or a scalar that the core
broadcasts (a constant channel such as `lambda u: k` is valid). task_output,
passive_coefficient and promptness accept a pair of equal-shape arrays as
the command and then require every point to lie in the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._array import everywhere, inside, require_inside

__all__ = [
    "ChannelLaw",
    "AntagonisticActuator",
    "FiberPath",
    "SweepReport",
    "RelationReport",
    "ConvergenceError",
    "FIBER_TOLERANCE",
    "task_output",
    "passive_coefficient",
    "promptness",
    "fiber_tangent",
    "fiber_grid",
    "trace_fiber",
    "monotonicity_sweep",
    "passive_promptness_relation",
]

# Relative tolerance on |f(u) - level| for accepted fiber points.
FIBER_TOLERANCE = 1e-10


class ConvergenceError(RuntimeError):
    """A fiber point misses its target output by more than FIBER_TOLERANCE."""


@dataclass(frozen=True)
class ChannelLaw:
    """One channel's output map h, sensitivity g = h', passive coefficient p
    and the inverse h^-1 of its output map, all supplied analytically.

    inverse_fn(y) is the command u in the channel's increasing branch with
    h(u) = y. Where no such command exists it returns NaN or a value outside
    the admissible box (a tendon has no extension for a force y <= 0), which
    trace_fiber reports as the fiber leaving the box.
    """

    output_fn: Callable[[float], float]
    output_sensitivity_fn: Callable[[float], float]
    passive_coeff_fn: Callable[[float], float]
    inverse_fn: Callable[[float], float]


@dataclass(frozen=True)
class AntagonisticActuator:
    channel_plus: ChannelLaw
    channel_minus: ChannelLaw
    # per-channel open intervals (lower > 0, upper may be inf)
    admissible_box: tuple[tuple[float, float], tuple[float, float]] = (
        (0.0, math.inf),
        (0.0, math.inf),
    )

    def in_box(self, u: Sequence[float]) -> bool:
        """True if u, or every point of a pair of arrays u, lies in the box."""
        return everywhere(inside(self.admissible_box, u))


@dataclass(frozen=True, eq=False)
class FiberPath:
    """Discrete constant-output fiber, parameterized by increasing u1.

    trace_fiber returns `points` as an (n, 2) float array of (u1, u2) rows and
    `residuals` as a 1-D array of |f(u) - level|; the sweeps also accept a
    sequence of (u1, u2) pairs.
    """

    level: float
    points: np.ndarray
    residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass(frozen=True, eq=False)
class SweepReport:
    values: np.ndarray  # 1-D float array, one entry per path point
    is_strictly_increasing: bool
    min_increment: float | None


@dataclass(frozen=True, eq=False)
class RelationReport:
    pairs: np.ndarray  # (n, 2) float array of (passive, promptness) rows
    is_monotone: bool


def task_output(act: AntagonisticActuator, u: Sequence[float]) -> float:
    """f(u) = h1(u1) - h2(u2)."""
    require_inside(act.admissible_box, u, "command")
    return act.channel_plus.output_fn(u[0]) - act.channel_minus.output_fn(u[1])


def passive_coefficient(act: AntagonisticActuator, u: Sequence[float]) -> float:
    """p1(u1) + p2(u2): stiffness for a VSA, incremental damping for a VADA."""
    require_inside(act.admissible_box, u, "command")
    return _passive(act, u)


def _passive(act: AntagonisticActuator, u) -> float:
    return act.channel_plus.passive_coeff_fn(u[0]) + act.channel_minus.passive_coeff_fn(u[1])


def promptness(act: AntagonisticActuator, u: Sequence[float]) -> float:
    """Euclidean norm of the task-map gradient, sqrt(g1^2 + g2^2)."""
    require_inside(act.admissible_box, u, "command")
    return _promptness(act, u)


def _promptness(act: AntagonisticActuator, u) -> float:
    g1 = act.channel_plus.output_sensitivity_fn(u[0])
    g2 = act.channel_minus.output_sensitivity_fn(u[1])
    return np.hypot(g1, g2)


def fiber_tangent(act: AntagonisticActuator, u: Sequence[float]) -> float:
    """du2/du1 along the fiber: g1(u1)/g2(u2), positive on admissible points."""
    require_inside(act.admissible_box, u, "command")
    g2 = act.channel_minus.output_sensitivity_fn(u[1])
    if g2 <= 0.0:
        raise ValueError(f"channel sensitivity must be positive, got g2={g2} at u2={u[1]}")
    return act.channel_plus.output_sensitivity_fn(u[0]) / g2


def trace_fiber(
    act: AntagonisticActuator,
    start: Sequence[float],
    u1_end: float,
    steps: int,
) -> FiberPath:
    """Trace the constant-output fiber through `start` up to u1 = u1_end.

    Returns `steps` points at equally spaced u1 values, the first being the
    start itself. The fiber is explicit, u2 = h2^-1(h1(u1) - level), so all
    points come from one call of the minus channel's inverse on the grid of
    targets. A point whose residual exceeds FIBER_TOLERANCE is a
    ConvergenceError; a point that is NaN or outside the admissible box (no
    root, as the inverse contract reports it) is an error at the first such
    step, never a silently clipped result. A level or target outside the
    float range is an OverflowError.
    """
    # task_output checks the start against the box before anything else
    level = float(task_output(act, start))
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    u1 = fiber_grid(start[0], u1_end, steps)
    if not math.isfinite(level):
        raise OverflowError(f"fiber level at the start {tuple(start)} is {level}")
    target = _on_grid(act.channel_plus.output_fn(u1), u1.shape) - level
    tol = FIBER_TOLERANCE * max(1.0, abs(level))
    u2 = np.empty_like(u1)
    # a target with no root gives NaN (the root of a negative), by contract
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        u2[:] = act.channel_minus.inverse_fn(target)
        u2[0] = start[1]
        residual = np.abs(_on_grid(act.channel_minus.output_fn(u2), u1.shape) - target)

    # errors are reported at the first failing step, as a step-by-step trace would
    outside = ~inside(act.admissible_box, (u1, u2))
    failing = outside | ~(residual <= tol)
    if failing.any():
        # a target out of the float range has an infinite or NaN residual, so it
        # fails here; it is reported as such, before any step that left the box
        finite = np.isfinite(target)
        if not finite.all():
            i = int(np.argmin(finite))
            raise OverflowError(f"fiber target at u1={u1[i]} is {target[i]}")
        i = int(np.argmax(failing))
        if outside[i]:
            raise ValueError(f"fiber left the admissible box at step {i}: u=({u1[i]}, {u2[i]})")
        raise ConvergenceError(
            f"fiber point at u1={u1[i]} misses its target (residual {residual[i]:.3e})"
        )
    return FiberPath(level=level, points=np.column_stack((u1, u2)), residuals=residual)


def fiber_grid(u1_start: float, u1_end: float, steps: int) -> np.ndarray:
    """The u1 values trace_fiber solves at: `steps` equally spaced values
    from u1_start to u1_end. A grid that does not strictly increase is a
    ValueError: u1_end at or below u1_start, or a span of a few ulps, where
    rounding repeats values."""
    du1 = (u1_end - u1_start) / (steps - 1) if steps > 1 else 0.0
    u1 = float(u1_start) + np.arange(steps) * du1
    if not (u1[1:] > u1[:-1]).all():
        raise ValueError(
            f"u1_end ({u1_end}) must exceed start u1 ({u1_start}) by enough to give "
            f"{steps} distinct u1 values"
        )
    return u1


def _on_grid(values, shape) -> np.ndarray:
    """A channel result as an array of the grid's shape: an array as is, a
    scalar (from a constant channel) repeated."""
    return values if np.shape(values) == shape else np.full(shape, values, dtype=float)


def _grid(path: FiberPath) -> np.ndarray:
    """The path's points as a (2, n) array: the u1 values, then the u2 values."""
    return np.asarray(path.points, dtype=float).reshape(-1, 2).T


def monotonicity_sweep(act: AntagonisticActuator, path: FiberPath, which: str) -> SweepReport:
    """Evaluate passive coefficient or promptness along the path and check
    for strict pointwise increase (no epsilon: ties are failures)."""
    if which == "passive":
        fn = passive_coefficient
    elif which == "promptness":
        fn = promptness
    else:
        raise ValueError(f"which must be 'passive' or 'promptness', got {which!r}")
    u = _grid(path)
    values = _on_grid(fn(act, u), u[0].shape)
    if len(values) < 2:
        return SweepReport(values=values, is_strictly_increasing=True, min_increment=None)
    increments = values[1:] - values[:-1]
    return SweepReport(
        values=values,
        is_strictly_increasing=bool((increments > 0.0).all()),
        min_increment=float(increments.min()),
    )


def passive_promptness_relation(act: AntagonisticActuator, path: FiberPath) -> RelationReport:
    """Paired (passive, promptness) samples along the path.

    is_monotone is true when promptness is a strictly increasing function of
    the passive coefficient (discretely: same-sign nonzero increments),
    regardless of traversal direction.
    """
    if len(path.points) < 2:
        raise ValueError("relation needs a path with at least 2 points")
    u = _grid(path)
    require_inside(act.admissible_box, u, "command")
    passive = _on_grid(_passive(act, u), u[0].shape)
    prompt = _on_grid(_promptness(act, u), u[0].shape)
    ds, dr = passive[1:] - passive[:-1], prompt[1:] - prompt[:-1]
    if ((ds == 0.0) & (dr == 0.0)).any():
        raise ValueError("degenerate path: adjacent points coincide")
    return RelationReport(
        pairs=np.column_stack((passive, prompt)),
        is_monotone=bool((ds * dr > 0.0).all()),
    )
