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

from ._array import everywhere

__all__ = [
    "RotorGeometry",
    "AffineThrustModel",
    "derive_coefficients",
    "thrust",
    "thrust_polynomial",
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


def bet_numeric_thrust(geom: RotorGeometry, v: float, nu_in: float, panels: int = 8) -> float:
    """Composite-Simpson quadrature of the elemental thrust over the blade span.

    Integrand: 0.5 N rho c a (theta_0 v^2 b^2 - v b nu_in) db on b in [0, B].
    It is quadratic in b, so Simpson is exact for any panel count; this is
    the independent oracle for the closed form. The 2 panels + 1 nodes are
    evaluated in one array along a trailing axis, so array speeds, inflows
    and geometry fields give one quadrature per entry.
    """
    if not everywhere(v > 0.0):
        raise ValueError(f"rotor speed must be strictly positive, got {v}")
    if panels < 2:
        raise ValueError(f"need at least 2 Simpson panels, got {panels}")

    def column(x):
        return np.asarray(x)[..., None]

    n = 2 * panels  # subintervals, always even
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = geom.radius / n
    b = column(h) * np.arange(n + 1)
    prefactor = 0.5 * geom.blade_count * geom.air_density * geom.chord * geom.lift_slope
    v, nu_in = column(v), column(nu_in)
    elemental = column(prefactor) * (column(geom.pitch_angle) * v * v * b * b - v * b * nu_in)
    return (elemental * weights).sum(axis=-1) * h / 3.0


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
    """Supremum of inflows at which dT/dv stays positive: 2 (k_T/k_D) v."""
    _require_nonnegative(v)
    return 2.0 * model.k_thrust / model.k_inflow * v
