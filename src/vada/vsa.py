"""Antagonistic variable-stiffness actuator: hardening tendons on a pulley.

Joint torque tau(x, theta) = R (r(x1 - R theta) - r(x2 + R theta)); the
deflection theta is a query parameter. Stiffness and promptness, at
theta = 0, are the generic core's passive coefficient and promptness read
through the as_antagonistic bridge, where the tendon formulas live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._array import everywhere
from .antagonistic import AntagonisticActuator, ChannelLaw, passive_coefficient, promptness

__all__ = [
    "TendonLaw",
    "VsaConfig",
    "joint_torque",
    "stiffness",
    "torque_promptness",
    "as_antagonistic",
]


@dataclass(frozen=True)
class TendonLaw:
    """Tendon force-extension law r(x) with r' > 0 and r'' > 0 for x > 0.

    r, its derivatives and its inverse take a float or an array; the
    constructors' parameters may be arrays too, one law per entry. The
    inverse r_inverse(t) is the extension x > 0 with r(x) = t; a force
    t <= 0 has none and gives NaN or x <= 0.
    """

    kind: str
    r: Callable[[float], float]
    r_prime: Callable[[float], float]
    r_double_prime: Callable[[float], float]
    r_inverse: Callable[[float], float]

    @classmethod
    def quadratic(cls, k: float) -> "TendonLaw":
        """r(x) = k x^2 / 2; linearly hardening, the canonical choice."""
        if not everywhere(k > 0.0):
            raise ValueError(f"k must be positive, got {k}")
        # sqrt(2 t / k) as sqrt(t) sqrt(2 / k): 2 t / k overflows for a small k
        # and a large t whose root is a float
        scale = math.sqrt(2.0) / np.sqrt(k)
        return cls(
            kind=f"quadratic(k={_label(k)})",
            r=lambda x: 0.5 * k * x * x,
            r_prime=lambda x: k * x,
            r_double_prime=lambda x: k,
            r_inverse=lambda t: np.sqrt(t) * scale,
        )

    @classmethod
    def exponential(cls, k: float, alpha: float) -> "TendonLaw":
        """r(x) = k (exp(alpha x) - 1), evaluated as k expm1(alpha x) so that
        it keeps full precision as alpha x -> 0, like its log1p inverse."""
        if not (everywhere(k > 0.0) and everywhere(alpha > 0.0)):
            raise ValueError(f"k and alpha must be positive, got k={k}, alpha={alpha}")
        return cls(
            kind=f"exponential(k={_label(k)}, alpha={_label(alpha)})",
            r=lambda x: k * np.expm1(alpha * x),
            r_prime=lambda x: k * alpha * np.exp(alpha * x),
            r_double_prime=lambda x: k * alpha * alpha * np.exp(alpha * x),
            r_inverse=lambda t: np.log1p(t / k) / alpha,
        )

    @classmethod
    def cubic(cls, k: float) -> "TendonLaw":
        """r(x) = k (x + x^3 / 3); r'' = 2 k x > 0 only for x > 0.

        x^3 is the product x * x * x, which rounds alike on a float and on an
        array entry; a power need not (numpy's vectorized pow and the C
        library's differ in the last bit for some x), and a batch of fibers
        must give each fiber's own trace bit for bit."""
        if not everywhere(k > 0.0):
            raise ValueError(f"k must be positive, got {k}")
        return cls(
            kind=f"cubic(k={_label(k)})",
            r=lambda x: k * (x + x * x * x / 3.0),
            r_prime=lambda x: k * (1.0 + x * x),
            r_double_prime=lambda x: 2.0 * k * x,
            r_inverse=lambda t: _cubic_root(3.0 * t / k),
        )


def _cubic_root(q):
    """The real root x of x^3 + 3x = q (Cardano): x = s - 1/s with
    s = cbrt(q/2 + sqrt(q^2/4 + 1)), written as q / (s^2 + 1 + s^-2) so that
    no difference of nearly equal numbers is formed as q -> 0 (s -> 1).
    The hypot keeps q^2 from overflowing."""
    s = np.cbrt(0.5 * q + np.hypot(0.5 * q, 1.0))
    s2 = s * s
    return q / (s2 + 1.0 + 1.0 / s2)


def _label(param) -> str:
    """A law parameter as it appears in TendonLaw.kind; arrays by their size
    alone, since printing every entry costs more than the law is used for."""
    return str(param) if np.ndim(param) == 0 else f"<{np.size(param)} values>"


@dataclass(frozen=True)
class VsaConfig:
    """One VSA, or a batch of them: the radius and the state may be arrays,
    like the law's parameters, one actuator per entry."""

    law: TendonLaw
    pulley_radius: float          # R, m
    state: tuple[float, float]    # tendon displacements (x1, x2), m

    def __post_init__(self):
        if not everywhere(self.pulley_radius > 0.0):
            raise ValueError(f"pulley_radius must be positive, got {self.pulley_radius}")
        if not (everywhere(self.state[0] > 0.0) and everywhere(self.state[1] > 0.0)):
            raise ValueError(f"tendon displacements must be positive, got {self.state}")


def joint_torque(cfg: VsaConfig, theta: float) -> float:
    """Net elastic torque at deflection theta; errors outside the
    admissibility window rather than extrapolating the tendon law."""
    R = cfg.pulley_radius
    x1, x2 = cfg.state
    e1, e2 = x1 - R * theta, x2 + R * theta
    if not (e1 > 0.0 and e2 > 0.0):
        raise ValueError(
            f"deflection {theta} leaves the admissible window: extensions ({e1}, {e2})"
        )
    return R * (cfg.law.r(e1) - cfg.law.r(e2))


def stiffness(cfg: VsaConfig) -> float:
    """sigma = R^2 (r'(x1) + r'(x2)), the passive stiffness at theta = 0: the
    core's passive coefficient at the state."""
    return passive_coefficient(as_antagonistic(cfg), cfg.state)


def torque_promptness(cfg: VsaConfig) -> float:
    """rho = R sqrt(r'(x1)^2 + r'(x2)^2), the fiber density at theta = 0: the
    core's promptness at the state."""
    return promptness(as_antagonistic(cfg), cfg.state)


def as_antagonistic(cfg: VsaConfig) -> AntagonisticActuator:
    """Bridge into the generic core: h_i = R r, g_i = R r', p_i = R^2 r',
    h_i^-1(y) = r^-1(y / R)."""
    R = cfg.pulley_radius
    law = cfg.law

    def channel() -> ChannelLaw:
        return ChannelLaw(
            output_fn=lambda x: R * law.r(x),
            output_sensitivity_fn=lambda x: R * law.r_prime(x),
            passive_coeff_fn=lambda x: R * R * law.r_prime(x),
            inverse_fn=lambda y: law.r_inverse(y / R),
        )

    return AntagonisticActuator(channel_plus=channel(), channel_minus=channel())
