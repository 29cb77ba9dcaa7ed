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

Sweeps take traced fibers: trace_fiber checks every point of a fiber
against the box, so the path it returns holds its actuator and read-only
points, and the sweeps and the relation take only a path that trace_fiber
traced on the same actuator; they check no point again. The path keeps the
trace's own contiguous u1 and u2 arrays, which the sweeps and the relation
evaluate on, and each of its passive and promptness values is computed
once, on first use, and kept read-only for the other sweep and the
relation. Any other path (a sequence of pairs, one built by hand or by
dataclasses.replace, a path swept with another actuator) is refused with a
ValueError: nothing checks that it is a fiber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._array import OPEN_BOX, everywhere, first_refused, inside, require_inside

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
    "trace_fiber",
    "monotonicity_sweep",
    "passive_promptness_relation",
]

# A fiber point passes at |f(u) - level| <= FIBER_TOLERANCE * max(1, |level|, |h1(u1)|):
# an exact inverse misses by the rounding of the largest output differenced there.
FIBER_TOLERANCE = 1e-10


class ConvergenceError(RuntimeError):
    """The fiber cannot be continued: a point misses its target or leaves the box."""


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
    admissible_box: tuple[tuple[float, float], tuple[float, float]] = OPEN_BOX

    def in_box(self, u: Sequence[float]) -> bool:
        """True if u, or every point of a pair of arrays u, lies in the box."""
        return everywhere(inside(self.admissible_box, u))


@dataclass(frozen=True, eq=False)
class FiberPath:
    """Discrete constant-output fiber, parameterized by increasing u1.

    trace_fiber returns `points` as an (n, 2) float array of (u1, u2) rows,
    n >= 2, and `residuals` as a 1-D array of |f(u) - level|. A batch of
    fibers of leading shape S has a level array of shape S, points of shape
    S + (n, 2) and residuals of shape S + (n,).

    A path from trace_fiber has read-only points, all already checked
    against the box of `traced_on`, the actuator it was traced on. Its
    `_memo` keeps the grid, the trace's own contiguous u1 and u2 arrays
    (read-only, the same values as the columns of `points`), on which the
    sweeps and the relation evaluate, and each "passive" and "promptness"
    value array (read-only) that a sweep or the relation on that actuator
    computed, so each is computed once. Neither field is an argument: a path
    made by FiberPath(...) or by dataclasses.replace has `traced_on` None,
    and the sweeps and the relation refuse it.
    """

    level: float | np.ndarray
    points: np.ndarray
    residuals: np.ndarray
    traced_on: AntagonisticActuator | None = field(default=None, init=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)


@dataclass(frozen=True, eq=False)
class SweepReport:
    values: np.ndarray  # read-only S + (n,) float array, one entry per path point
    is_strictly_increasing: bool | np.ndarray  # per fiber
    min_increment: float | np.ndarray  # per fiber


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
    targets. A residual over FIBER_TOLERANCE * max(1, |level|, |h1(u1)|), or a
    point that is NaN or outside the admissible box (no root, as the inverse
    contract reports it), is a ConvergenceError at the first such step: the
    fiber cannot be continued, and no point is silently clipped. A level or
    target outside the float range is an OverflowError.

    One body traces a single fiber or a batch. A start that is a pair of
    arrays of shape S traces one fiber per entry (u1_end is then a float or
    an array of shape S): each fiber's start, end and level are a column
    against its row of the grid, so every row is computed as that fiber's
    own trace computes it. A single fiber's start, end and level stay
    floats. A trace that fails raises the errors of its first failing fiber
    in this order: a start outside the box, a `steps` that is not a whole
    number of at least 2, a grid that does not increase, a level out of the
    float range, its first failing point.
    """
    box = act.admissible_box
    if not (2 <= steps < math.inf and math.floor(steps) == steps):
        require_inside(box, first_refused(False, start[0], start[1])[1:], "command")
        raise ValueError(f"steps must be a whole number of at least 2, got {steps}")
    plus, minus = act.channel_plus, act.channel_minus
    s1, s2, end = _column(start[0]), _column(start[1]), _column(u1_end)
    # a level out of the float range gives the start's own residual NaN or
    # inf, so its fiber fails; like a start outside the box, it is reported
    # below for the first fiber that fails. A target with no root gives NaN
    # (the root of a negative), by contract.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        level = _on_grid(plus.output_fn(s1) - minus.output_fn(s2), _shape(s1))
        u1 = s1 + np.arange(steps) * ((end - s1) / (steps - 1))
        h1 = _on_grid(plus.output_fn(u1), u1.shape)
        target = h1 - level
        u2 = np.empty_like(u1)
        u2[:] = minus.inverse_fn(target)
        u2[..., 0] = start[1]
        residual = np.abs(_on_grid(minus.output_fn(u2), u1.shape) - target)
        # step 0 is the start, so this also tests the start against the box
        in_box = inside(box, (u1, u2))
        bound = np.maximum(np.abs(h1), abs(level))
        np.maximum(bound, 1.0, out=bound)
        bound *= FIBER_TOLERANCE
        passing = in_box & (residual <= bound)
    # rounding repeats values on a span of a few ulps, and a non-finite end gives NaN
    increasing = (u1[..., 1:] > u1[..., :-1]).all(axis=-1)
    ok = increasing & passing.all(axis=-1)
    level = level[..., 0] if isinstance(level, np.ndarray) and level.ndim else float(level)
    if not everywhere(ok):
        k, s1_k, s2_k, end_k, level_k = first_refused(ok, start[0], start[1], u1_end, level)
        # the start's own floats: at an infinite end, step 0 of the grid is 0 * inf
        require_inside(box, (s1_k, s2_k), "command")
        if not increasing[k]:
            raise ValueError(f"u1_end ({end_k}) must exceed start u1 ({s1_k}) by enough to give "
                             f"{steps} distinct u1 values")
        if not math.isfinite(level_k):
            raise OverflowError(f"fiber level at the start {(s1_k, s2_k)} is {level_k}")
        _raise_point_error(u1[k], u2[k], target[k], residual[k], passing[k], in_box[k])
    points = _columns(u1, u2)
    for grid in (points, u1, u2):
        grid.setflags(write=False)
    path = FiberPath(level=level, points=points, residuals=residual)
    object.__setattr__(path, "traced_on", act)
    path._memo["grid"] = (u1, u2)
    return path


def _column(x):
    """A batch's array of shape S as an S + (1,) column against its rows of
    the grid; a single fiber's float as is."""
    return np.asarray(x, dtype=float)[..., None] if isinstance(x, np.ndarray) else x


def _columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a and b side by side along a new last axis: an S + (n, 2) array."""
    out = np.empty(a.shape + (2,))
    out[..., 0] = a
    out[..., 1] = b
    return out


def _raise_point_error(u1, u2, target, residual, passing, in_box) -> None:
    """The error of one fiber's first failing step, as a step-by-step trace
    would report it, read off that fiber's rows of the trace."""
    # a target out of the float range has an infinite or NaN residual, so it
    # fails; it is reported as such, before any step that left the box
    finite = np.isfinite(target)
    if not finite.all():
        i = int(np.argmin(finite))
        raise OverflowError(f"fiber target at u1={u1[i]} is {target[i]}")
    i = int(np.argmin(passing))
    if not in_box[i]:
        raise ConvergenceError(f"fiber left the admissible box at step {i}: u=({u1[i]}, {u2[i]})")
    raise ConvergenceError(
        f"fiber point at u1={u1[i]} misses its target (residual {residual[i]:.3e})")


def _on_grid(values, shape) -> np.ndarray:
    """A channel result as an array of the grid's shape: an array as is, a
    scalar (from a constant channel) repeated."""
    return values if _shape(values) == shape else np.full(shape, values, dtype=float)


def _shape(x) -> tuple:
    """np.shape(x), without the array np.shape makes of a Python float."""
    return getattr(x, "shape", ())


_QUANTITIES = {"passive": _passive, "promptness": _promptness}


def _values(act: AntagonisticActuator, path: FiberPath, names: tuple) -> list:
    """The values of each quantity in `names` ("passive", "promptness") at
    the points of a path that trace_fiber traced on this same act, each of
    shape S + (n,), computed on the trace's own grid once and kept read-only
    in the path's memo. Any other path is a ValueError."""
    if getattr(path, "traced_on", None) is not act:
        raise ValueError("sweep a path that trace_fiber traced on this actuator")
    memo = path._memo
    u = memo["grid"]
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
    of a batch.

    Two infinite values of one sign in a row give an inf - inf increment:
    NaN, with numpy's invalid-value RuntimeWarning left as it is, and a
    False verdict, since min propagates the NaN."""
    if which not in _QUANTITIES:
        raise ValueError(f"which must be 'passive' or 'promptness', got {which!r}")
    (values,) = _values(act, path, (which,))
    increments = values[..., 1:] - values[..., :-1]
    # min propagates NaN, so least > 0 is (increments > 0).all(axis=-1)
    least = increments.min(axis=-1)
    return SweepReport(values, _per_fiber(least > 0.0, bool), _per_fiber(least, float))


def passive_promptness_relation(act: AntagonisticActuator, path: FiberPath) -> RelationReport:
    """Paired (passive, promptness) samples along the path.

    is_monotone is true when promptness is a strictly increasing function of
    the passive coefficient (discretely: same-sign nonzero increments),
    regardless of traversal direction; one verdict per fiber of a batch.
    The signs agree where sign(ds) dr > 0: |sign(ds) dr| = |dr|, so unlike
    ds dr it neither overflows nor underflows to 0 on finite increments. The
    increments are formed as the sweeps form theirs, inf - inf warning
    included. A fiber that is not monotone and holds one pair at two adjacent
    steps is a ValueError naming the steps and the pair (of a batch, the first
    such step in C order).
    """
    passive, prompt = _values(act, path, ("passive", "promptness"))
    ds, dr = passive[..., 1:] - passive[..., :-1], prompt[..., 1:] - prompt[..., :-1]
    agree = np.sign(ds)
    agree *= dr  # in place: one temporary, as ds * dr was, on a batch of fibers
    # min propagates NaN, so this is (agree > 0).all(axis=-1) in one pass
    is_monotone = agree.min(axis=-1) > 0.0
    # sign(ds) dr is 0 at a degenerate step, so only a fiber that is not monotone holds one
    if not everywhere(is_monotone) and ((ds == 0.0) & (dr == 0.0)).any():
        k, s, r = first_refused((ds != 0.0) | (dr != 0.0), passive[..., :-1], prompt[..., :-1])
        raise ValueError(f"degenerate relation: steps {k[-1]} and {k[-1] + 1} share the "
                         f"(passive, promptness) pair ({s}, {r})")
    return RelationReport(pairs=_columns(passive, prompt), is_monotone=_per_fiber(is_monotone, bool))
