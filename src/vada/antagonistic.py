"""Generic two-channel antagonistic actuator with a scalar task map.

Both the tendon-driven VSA and the dual-rotor damping actuator reduce to
this structure: channel 1 adds h1(u1) to the task output, channel 2
subtracts h2(u2), and each channel carries a passive coefficient that
hardens with its command. A constant-output fiber is explicit,
u2 = h2^-1(h1(u1) - level), so it is traced by one call of the minus
channel's inverse over the whole grid of u1 values, then checked.

Array contract: a ChannelLaw callable is called with a float or with a
float array and returns a value of that shape, or a scalar that the core
broadcasts (a constant channel such as `lambda u: k` is valid). task_output,
passive_coefficient and promptness accept a pair of equal-shape arrays as
the command and then require every point to lie in the box.

Batches of fibers: trace_fiber, the sweeps and the relation broadcast over
leading axes. A start that is a pair of arrays of shape S traces one fiber
per entry, with law parameters that broadcast against S + (steps,) (shape
S + (1,) gives each fiber its own law); points then have shape
S + (steps, 2), and every verdict and min_increment is an array of shape S,
one per fiber. One body of trace_fiber traces a batch and a single fiber:
a start of two floats keeps its level, verdicts and min_increment plain
floats and bools.

Trace once, sweep from the trace: trace_fiber checks every point of a fiber
against the box, so the path it returns holds its actuator and read-only
points, and the sweeps and the relation on that same actuator check no point
again. Each of its passive and promptness values is computed once, on first
use, and kept read-only for the other sweep and the relation. Any other path
(a sequence of pairs, one built by hand or by dataclasses.replace, a path
swept with another actuator) is checked once per sweep or relation call.
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

# Relative tolerance on |f(u) - level| for accepted fiber points, scaled at
# each point by max(1, |level|, |h1(u1)|): the largest output differenced there.
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
    sequence of (u1, u2) pairs. A batch of fibers of leading shape S has a
    level array of shape S, points of shape S + (n, 2) and residuals of
    shape S + (n,).

    A path from trace_fiber has read-only points, all already checked
    against the box of `traced_on`, the actuator it was traced on, and keeps
    in `_memo` each "passive" and "promptness" value array (read-only) that
    a sweep or the relation on that actuator computed, so each is computed
    once. Neither field is an argument: a path made by FiberPath(...) or by
    dataclasses.replace has `traced_on` None and an empty memo, so its
    points are checked whenever it is swept.
    """

    level: float | np.ndarray
    points: np.ndarray
    residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    traced_on: AntagonisticActuator | None = field(default=None, init=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)


@dataclass(frozen=True, eq=False)
class SweepReport:
    values: np.ndarray  # read-only S + (n,) float array, one entry per path point
    is_strictly_increasing: bool | np.ndarray  # per fiber
    min_increment: float | np.ndarray | None  # per fiber; None for one-point paths


@dataclass(frozen=True, eq=False)
class RelationReport:
    pairs: np.ndarray  # S + (n, 2) float array of (passive, promptness) rows
    is_monotone: bool | np.ndarray  # per fiber


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
    targets. A point whose residual exceeds FIBER_TOLERANCE, scaled by
    max(1, |level|, |h1(u1)|), is a ConvergenceError; a point that is NaN or
    outside the admissible box (no root, as the inverse contract reports it)
    is an error at the first such step, never a silently clipped result. A
    level or target outside the float range is an OverflowError.

    One body traces a single fiber or a batch. A start that is a pair of
    arrays of shape S traces one fiber per entry (u1_end is then a float or
    an array of shape S): each fiber's start, end and level are a column
    against its row of the grid, so every row is computed as that fiber's
    own trace computes it. A single fiber's start, end and level stay
    floats. A trace that fails raises the errors of its first failing fiber
    in this order: a start outside the box, too few steps, a grid that does
    not increase, a level out of the float range, its first failing point.
    """
    box = act.admissible_box
    if steps < 1:
        require_inside(box, _entries((start[0], start[1])), "command")
        raise ValueError(f"steps must be >= 1, got {steps}")
    plus, minus = act.channel_plus, act.channel_minus
    s1, s2, end = _column(start[0]), _column(start[1]), _column(u1_end)
    # a level out of the float range gives the start's own residual NaN or
    # inf, so its fiber fails; like a start outside the box, it is reported
    # below for the first fiber that fails. A target with no root gives NaN
    # (the root of a negative), by contract.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        level = _on_grid(plus.output_fn(s1) - minus.output_fn(s2), _shape(s1))
        u1 = s1 + np.arange(steps) * ((end - s1) / (steps - 1) if steps > 1 else 0.0)
        h1 = _on_grid(plus.output_fn(u1), u1.shape)
        target = h1 - level
        u2 = np.empty_like(u1)
        u2[:] = minus.inverse_fn(target)
        u2[..., 0] = start[1]
        residual = np.abs(_on_grid(minus.output_fn(u2), u1.shape) - target)
        outside = ~inside(box, (u1, u2))
        failing = outside | ~(residual <= FIBER_TOLERANCE * np.maximum(1.0, np.abs(level)))
    ok = inside(box, start) & (u1[..., 1:] > u1[..., :-1]).all(axis=-1)
    if failing.any():
        # the residual differences outputs as large as h1 and level, and an
        # exact inverse misses by their rounding alone: the bound is
        # FIBER_TOLERANCE times max(1, |level|, |h1(u1)|), so a point over
        # the level's part of it still passes within h1's
        failing &= outside | ~(residual <= FIBER_TOLERANCE * np.abs(h1))
        ok = ok & ~failing.any(axis=-1)
    level = level[..., 0] if isinstance(level, np.ndarray) and level.ndim else float(level)
    if not everywhere(ok):
        k = np.unravel_index(np.argmin(ok), np.shape(ok))
        s1_k, s2_k, end_k, level_k = _entries((start[0], start[1], u1_end, level), k)
        require_inside(box, (s1_k, s2_k), "command")
        fiber_grid(s1_k, end_k, steps)
        if not math.isfinite(level_k):
            raise OverflowError(f"fiber level at the start {(s1_k, s2_k)} is {level_k}")
        _raise_point_error(act, u1[k], u2[k], target[k], residual[k], failing[k])
    points = _columns(u1, u2)
    points.setflags(write=False)
    path = FiberPath(level=level, points=points, residuals=residual)
    object.__setattr__(path, "traced_on", act)
    return path


def _column(x):
    """A batch's array of shape S as an S + (1,) column against its rows of
    the grid; a single fiber's float as is."""
    return np.asarray(x, dtype=float)[..., None] if isinstance(x, np.ndarray) else x


def _entries(values: tuple, k=None) -> tuple:
    """Fiber k's entries of a start's coordinates, its end and its level,
    for an error message: floats from a batch's arrays (by default the first
    fiber's), a single fiber's values as given."""
    if not any(isinstance(x, np.ndarray) for x in values):
        return values
    shape = np.broadcast_shapes(*map(np.shape, values))
    k = (0,) * len(shape) if k is None else k
    return tuple(float(np.broadcast_to(x, shape)[k]) for x in values)


def _columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a and b side by side along a new last axis: an S + (n, 2) array."""
    out = np.empty(a.shape + (2,))
    out[..., 0] = a
    out[..., 1] = b
    return out


def _raise_point_error(act, u1, u2, target, residual, failing) -> None:
    """The error of one fiber's first failing step, as a step-by-step trace
    would report it."""
    # a target out of the float range has an infinite or NaN residual, so it
    # fails; it is reported as such, before any step that left the box
    finite = np.isfinite(target)
    if not finite.all():
        i = int(np.argmin(finite))
        raise OverflowError(f"fiber target at u1={u1[i]} is {target[i]}")
    i = int(np.argmax(failing))
    if not inside(act.admissible_box, (u1[i], u2[i])):
        raise ValueError(f"fiber left the admissible box at step {i}: u=({u1[i]}, {u2[i]})")
    raise ConvergenceError(
        f"fiber point at u1={u1[i]} misses its target (residual {residual[i]:.3e})"
    )


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
    return values if _shape(values) == shape else np.full(shape, values, dtype=float)


def _shape(x) -> tuple:
    """np.shape(x), without the array np.shape makes of a Python float."""
    return getattr(x, "shape", ())


def _grid(path: FiberPath) -> np.ndarray:
    """The path's points as a (2,) + S + (n,) array: the u1 values, then the
    u2 values, of each of the S fibers (S = () for one)."""
    points = np.asarray(path.points, dtype=float)
    return points.reshape(-1, 2).T if points.ndim < 3 else np.moveaxis(points, -1, 0)


_QUANTITIES = {"passive": _passive, "promptness": _promptness}


def _values(act: AntagonisticActuator, path: FiberPath, names: tuple, u: np.ndarray) -> list:
    """The values of each quantity in `names` ("passive", "promptness") at
    the path's points u (its _grid), each of shape S + (n,).

    A path that trace_fiber traced on this same act had every point checked
    there, and keeps each quantity in its memo once computed. Any other
    path's points are checked against the box here, once for all of
    `names`, and its values computed afresh. The values are read-only."""
    if path.traced_on is act:
        memo = path._memo
    else:
        require_inside(act.admissible_box, u, "command")
        memo = {}
    for name in names:
        if name not in memo:
            memo[name] = _on_grid(_QUANTITIES[name](act, u), u[0].shape)
            memo[name].setflags(write=False)
    return [memo[name] for name in names]


def _per_fiber(reduced, kind):
    """A reduction along the points: a plain `kind` (float or bool) for one
    fiber, the array of shape S for a batch."""
    return kind(reduced) if reduced.ndim == 0 else reduced


def monotonicity_sweep(act: AntagonisticActuator, path: FiberPath, which: str) -> SweepReport:
    """Evaluate passive coefficient or promptness along the path and check
    for strict pointwise increase (no epsilon: ties are failures), per fiber
    of a batch."""
    if which not in _QUANTITIES:
        raise ValueError(f"which must be 'passive' or 'promptness', got {which!r}")
    (values,) = _values(act, path, (which,), _grid(path))
    increments = values[..., 1:] - values[..., :-1]
    return SweepReport(
        values=values,
        is_strictly_increasing=_per_fiber((increments > 0.0).all(axis=-1), bool),
        min_increment=_per_fiber(increments.min(axis=-1), float) if increments.shape[-1] else None,
    )


def passive_promptness_relation(act: AntagonisticActuator, path: FiberPath) -> RelationReport:
    """Paired (passive, promptness) samples along the path.

    is_monotone is true when promptness is a strictly increasing function of
    the passive coefficient (discretely: same-sign nonzero increments),
    regardless of traversal direction; one verdict per fiber of a batch.
    """
    u = _grid(path)
    if u.shape[-1] < 2:
        raise ValueError("relation needs a path with at least 2 points")
    passive, prompt = _values(act, path, ("passive", "promptness"), u)
    ds, dr = passive[..., 1:] - passive[..., :-1], prompt[..., 1:] - prompt[..., :-1]
    if ((ds == 0.0) & (dr == 0.0)).any():
        raise ValueError("degenerate path: adjacent points coincide")
    return RelationReport(
        pairs=_columns(passive, prompt),
        is_monotone=_per_fiber((ds * dr > 0.0).all(axis=-1), bool),
    )
