"""Checks that read the same on scalars and on numpy arrays.

Every formula in vada takes either floats or equal-shape float arrays; these
helpers turn an elementwise condition into the one bool that a validity check
needs, and hold the library's open box, its one raising box check and its
one batch refusal.

Float range: no formula checks that its result is finite. A float call in
Python float arithmetic returns inf or NaN silently (thrust at k_T 1e300,
v 1e10); a call that reaches a numpy ufunc (every array call, a float call
through np.exp) also raises numpy's RuntimeWarning. Under
np.errstate(all="ignore"), as the CLI runs, both give the same value.
"""

from __future__ import annotations

import math

import numpy as np


def everywhere(cond) -> bool:
    """A comparison's truth: for an array, whether it holds at every entry.

    A scalar skips numpy: np.all on a Python bool takes about 2.7 us against
    0.1 us (CPython 3.11, numpy 2.4, x86-64). The fiber and allocate
    workloads check scalars throughout, and a verify run still makes 269
    scalar checks (the simulations' rotor models, speeds and boxes, built
    per draw), which np.all would make some 0.75 ms of a 4.5 ms run.
    """
    return bool(cond.all()) if isinstance(cond, np.ndarray) else bool(cond)


# the default box of actuators and dual rotors: it holds every pair of
# positive finite numbers
OPEN_BOX = ((0.0, math.inf), (0.0, math.inf))


def inside(box, u):
    """Which points of u lie in the open box ((lo1, hi1), (lo2, hi2)).

    u is a pair (u1, u2) of floats or of equal-shape arrays; the result is a
    bool or a boolean array of that shape.
    """
    (lo1, hi1), (lo2, hi2) = box
    u1, u2 = u[0], u[1]
    return (lo1 < u1) & (u1 < hi1) & (lo2 < u2) & (u2 < hi2)


def require_inside(box, u, what: str) -> None:
    """ValueError, naming u as `what`, unless every point of u is in the open box."""
    if not everywhere(inside(box, u)):
        raise ValueError(f"{what} {tuple(u)} outside admissible box {box}")


def first_refused(allowed, *values) -> tuple:
    """The index of the first entry, in C order, where the mask allowed is
    False, then each of values at that entry as a Python number; allowed and
    values broadcast together, so a float is every entry's."""
    shape = np.broadcast_shapes(np.shape(allowed), *map(np.shape, values))
    k = np.unravel_index(np.argmin(np.broadcast_to(allowed, shape)), shape)
    return (k, *(np.broadcast_to(x, shape).item(*k) for x in values))
