"""Single-rotor thrust physics.

Blade-element derivation of the affine-inflow thrust model
T(v, nu_in) = k_T v^2 - k_D v nu_in, its derivatives, and a Simpson
quadrature of the elemental thrust used as an independent cross-check
of the closed form.

Every formula takes floats or numpy arrays (speeds, inflows and model or
geometry fields alike) and broadcasts them; the validity checks then hold
at every entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._array import everywhere, first_refused

__all__ = [
    "RotorGeometry",
    "AffineThrustModel",
    "derive_coefficients",
    "thrust",
    "thrust_polynomial",
    "thrust_inverse",
    "bet_numeric_thrust",
    "inflow_sensitivity",
    "hardening_rate",
    "speed_sensitivity",
    "monotone_regime_bound",
]


@dataclass(frozen=True)
class RotorGeometry:
    """Fixed-pitch propeller: N blades, radius, constant chord, linear lift."""

    blade_count: int        # N
    radius: float           # B, m
    chord: float            # c, m
    pitch_angle: float      # theta_0, rad, in (0, pi/2)
    lift_slope: float       # a, 1/rad
    air_density: float      # kg/m^3

    def __post_init__(self):
        count = self.blade_count
        if not everywhere((count > 0) & (np.floor(count) == count)):
            raise ValueError(f"blade_count must be a positive integer, got {count}")
        for name in ("radius", "chord", "pitch_angle", "lift_slope", "air_density"):
            value = getattr(self, name)
            if not everywhere(value > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {value}")
        if not everywhere(self.pitch_angle < math.pi / 2):
            raise ValueError(f"pitch_angle must lie in (0, pi/2), got {self.pitch_angle}")


@dataclass(frozen=True)
class AffineThrustModel:
    """Thrust T(v, nu_in) = k_thrust v^2 - k_inflow v nu_in."""

    k_thrust: float   # N s^2 / rad^2
    k_inflow: float   # N s^2 / (rad m)

    def __post_init__(self):
        if not everywhere(self.k_thrust > 0.0):
            raise ValueError(f"k_thrust must be strictly positive, got {self.k_thrust}")
        if not everywhere(self.k_inflow > 0.0):
            raise ValueError(f"k_inflow must be strictly positive, got {self.k_inflow}")


def derive_coefficients(geom: RotorGeometry) -> AffineThrustModel:
    """Reduce blade geometry to the (k_thrust, k_inflow) pair."""
    common = geom.blade_count * geom.air_density * geom.chord * geom.lift_slope
    k_thrust = common * geom.pitch_angle * geom.radius ** 3 / 6.0
    k_inflow = common * geom.radius ** 2 / 4.0
    return AffineThrustModel(k_thrust=k_thrust, k_inflow=k_inflow)


def _require_nonnegative(v) -> None:
    if not everywhere(v >= 0.0):
        raise ValueError(f"rotor speed must be nonnegative, got {v}")


def thrust(model: AffineThrustModel, v: float, nu_in: float) -> float:
    """Closed-form thrust at rotor speed v (rad/s) and axial inflow nu_in (m/s).

    No clamping: the value may be negative outside the validity regime;
    callers gate on monotone_regime_bound if they need monotone behavior.
    """
    _require_nonnegative(v)
    return thrust_polynomial(model, v, nu_in)


def thrust_polynomial(model: AffineThrustModel, v: float, nu_in: float) -> float:
    """k_thrust v^2 - k_inflow v nu_in at any real v, unchecked: thrust, the dual
    rotor's force and channels, and allocate's candidates all evaluate this."""
    return model.k_thrust * v * v - model.k_inflow * v * nu_in


def thrust_inverse(model: AffineThrustModel, y: float, nu_in: float) -> float:
    """The larger speed v at which thrust_polynomial gives y: the larger root
    of k_T v^2 - b v - y = 0 with b = k_inflow nu_in and D = b^2 + 4 k_T y,
    (b + sqrt(D)) / (2 k_T) where nu_in >= 0 (-0.0 included) and
    2 y / (sqrt(D) - b) elsewhere, so neither form subtracts nearly equal
    numbers (Higham, Accuracy and Stability of Numerical Algorithms, 1.8).
    A thrust with no root (D < 0) gives NaN.

    An array nu_in picks the form per entry, on the sign of that entry's
    inflow, from the same operations, so every entry equals the float-nu_in
    call bit for bit; both forms are computed, which only trace_fiber's
    error state keeps quiet.
    """
    b = model.k_inflow * nu_in
    root = np.sqrt(b * b + 4.0 * model.k_thrust * y)
    if isinstance(nu_in, np.ndarray):
        return np.where(nu_in >= 0.0, (b + root) / (2.0 * model.k_thrust), 2.0 * y / (root - b))
    # a float inflow computes its own form alone: np.where on it made a VADA
    # fiber op 4-7 % slower (medians of 40 interleaved rounds, two runs)
    return (b + root) / (2.0 * model.k_thrust) if nu_in >= 0.0 else 2.0 * y / (root - b)


def bet_numeric_thrust(geom: RotorGeometry, v: float, nu_in: float, panels: int = 8) -> float:
    """Composite-Simpson quadrature of the elemental thrust over the blade span.

    Integrand: 0.5 N rho c a (theta_0 v^2 b^2 - v b nu_in) db on b in [0, B].
    It is quadratic in b, so Simpson is exact for any panel count; this is
    the independent oracle for the closed form. The 2 panels + 1 nodes are
    evaluated in one array along a trailing axis, so array speeds, inflows
    and geometry fields give one quadrature per entry.

    `panels` is a whole number of at least 2, or an array of them with one
    count per entry, broadcast with the speeds, inflows and geometry fields.
    Every call takes one path: it computes h = B / (2 panels), the prefactor
    and theta_0 v^2 once over all entries, sorts the entries stably by panel
    count and runs one Simpson pass on each run of equal counts, each row a
    contiguous sum over its nodes; so every entry equals, bit for bit, the
    int-`panels` call at that entry's count, and a call of floats returns a
    numpy float. An array holding a refused count raises the line the int
    call raises for its first one.
    """
    if not everywhere(v > 0.0):
        raise ValueError(f"rotor speed must be strictly positive, got {v}")
    allowed = (2 <= panels) & (panels < math.inf) & (np.floor(panels) == panels)
    if not everywhere(allowed):
        count = first_refused(allowed, panels)[1]
        raise ValueError(f"need a whole number of at least 2 Simpson panels, got {count}")
    h = geom.radius / (2 * panels)
    prefactor = 0.5 * geom.blade_count * geom.air_density * geom.chord * geom.lift_slope
    pitch_vv = geom.pitch_angle * v * v
    entries = np.broadcast_arrays(panels, h, prefactor, pitch_vv, v, nu_in)
    order = np.argsort(entries[0], axis=None, kind="stable")
    panels, h, prefactor, pitch_vv, v, nu_in = (x.ravel()[order] for x in entries)
    starts = np.flatnonzero(np.diff(panels, prepend=-1)).tolist()
    result = np.empty(order.size)
    for lo, hi in zip(starts, starts[1:] + [order.size]):
        group = slice(lo, hi)
        result[order[group]] = _simpson(int(panels[lo]), h[group], prefactor[group],
                                        pitch_vv[group], v[group], nu_in[group])
    return result.reshape(entries[0].shape)[()]


def _simpson(panels: int, h, prefactor, pitch_vv, v, nu_in):
    """The Simpson sum at one panel count over equal-shape arrays, nodes
    b = k h on a trailing axis: 0.5 N rho c a (theta_0 v^2 b b - v b nu_in)
    times the weights, summed, times h / 3. The products keep one order,
    which fixes every entry's bits; in place, a pass allocates two grids."""

    def column(x):
        return x[..., None]

    n = 2 * panels  # subintervals, always even
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    b = column(h) * np.arange(n + 1)
    elemental = column(pitch_vv) * b
    elemental *= b
    b *= column(v)
    b *= column(nu_in)
    elemental -= b
    elemental *= column(prefactor)
    elemental *= weights
    return elemental.sum(axis=-1) * h / 3.0


def inflow_sensitivity(model: AffineThrustModel, v: float, nu_in: float = 0.0) -> float:
    """lambda = -dT/d(nu_in) = k_inflow v; inflow-independent for this model."""
    _require_nonnegative(v)
    return model.k_inflow * v


def hardening_rate(model: AffineThrustModel, v: float = 0.0, nu_in: float = 0.0) -> float:
    """d(lambda)/dv = k_inflow, a strictly positive constant (an array of
    v's shape when v is an array)."""
    return model.k_inflow + np.zeros_like(v) if np.ndim(v) else model.k_inflow


def speed_sensitivity(model: AffineThrustModel, v: float, nu_in: float) -> float:
    """dT/dv = 2 k_thrust v - k_inflow nu_in."""
    return 2.0 * model.k_thrust * v - model.k_inflow * nu_in


def monotone_regime_bound(model: AffineThrustModel, v: float) -> float:
    """Supremum of inflows at which dT/dv stays positive: 2 (k_T/k_D) v.

    A k_T/k_D that overflows gives inf, or NaN at v = 0, without numpy's
    warning: the trim check refuses such a bound."""
    _require_nonnegative(v)
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * model.k_thrust / model.k_inflow * v
