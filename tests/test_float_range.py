"""The float-range contract: where a result leaves the float range, a float
call and an array call give the same value once numpy's warnings are off
(the array call, and a float call through a numpy ufunc, warn on it). Over
the float range's landmarks, every public formula gives the same bits or
the same exception type on floats and on one-entry arrays."""

import itertools
import math

import numpy as np
import pytest

from vada.aero import (
    AffineThrustModel,
    RotorGeometry,
    bet_numeric_thrust,
    hardening_rate,
    inflow_sensitivity,
    monotone_regime_bound,
    speed_sensitivity,
    thrust,
)
from vada.antagonistic import fiber_tangent
from vada.dual_rotor import (
    AllocationResult,
    DualRotor,
    TrimPoint,
    allocate,
    allocate_arrays,
    damping_at_trim,
    force_promptness,
    net_force,
)
from vada.dynamics import BodyConfig, analytic_response, equilibrium_velocity, mode_decomposition
from vada.vsa import TendonLaw, VsaConfig, as_antagonistic, joint_torque, stiffness, torque_promptness


def one_entry(x):
    return np.array([x])


def allocation(wrap):
    dr = DualRotor.identical(AffineThrustModel(wrap(1e300), wrap(1.0)))
    if wrap is float:
        return allocate(dr, TrimPoint(nu_bar=0.0, force_level=1e300), 1.0)
    return allocate_arrays(dr, wrap(0.0), wrap(1e300), wrap(1.0))


# each call takes a wrap, float or one_entry, for every number it passes
CALLS = {
    "thrust": lambda w: thrust(AffineThrustModel(w(1e300), w(1.0)), w(1e10), w(0.0)),
    "net_force": lambda w: net_force(
        DualRotor.identical(AffineThrustModel(w(1e300), w(1.0))), (w(1e10), w(1.0)), w(0.0)),
    "allocate": allocation,
    "exponential_stiffness": lambda w: stiffness(
        VsaConfig(TendonLaw.exponential(w(1.0), w(1.0)), w(1.0), (w(800.0), w(1.0)))),
}


def values(result) -> list:
    """A result's numbers (and an allocation's verdict and reason), each a
    Python scalar; a one-entry array gives its entry."""
    if isinstance(result, AllocationResult):
        fields = [*result.speeds, result.achieved_force, result.achieved_damping,
                  result.feasible, result.reason]
    else:
        fields = list(result) if isinstance(result, tuple) else [result]
    return [np.asarray(x).reshape(-1)[0].item() for x in fields]


@pytest.mark.parametrize("name", CALLS)
def test_float_and_array_calls_agree(name):
    with np.errstate(all="ignore"):
        scalar, batch = values(CALLS[name](float)), values(CALLS[name](one_entry))
    assert len(scalar) == len(batch)
    for a, b in zip(scalar, batch):
        assert a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))
    # the point leaves the float range: the array call meets it in a ufunc
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        CALLS[name](one_entry)


# the float range's landmarks: subnormal, tiny, ordinary, huge, near the
# largest float, signed zeros, negatives, infinities and NaN
GRID = [5e-324, 1e-300, 1e-10, 0.5, 1.0, 3.0, 1e10, 1e300, 1.7e308,
        0.0, -0.0, -1.0, -1e300, math.inf, -math.inf, math.nan]
# the first number of a triple takes five positive values: in most formulas
# it is a coefficient, which any other value only refuses
COEFFICIENTS = [5e-324, 1e-10, 1.0, 1e300, math.inf]


def rotor(w, k_thrust, k_inflow):
    return AffineThrustModel(w(k_thrust), w(k_inflow))


def vsa(w, law, k, x1, x2):
    return VsaConfig(law(w(k)), w(1.0), (w(x1), w(x2)))


def exponential(k):
    return TendonLaw.exponential(k, np.ones_like(k) if isinstance(k, np.ndarray) else 1.0)


def triple_allocation(w, k, force, nu):
    dr = DualRotor.identical(rotor(w, k, 1.0))
    if w is float:
        return allocate(dr, TrimPoint(nu_bar=nu, force_level=force), 1.0)
    return allocate_arrays(dr, w(nu), w(force), w(1.0))


# each public formula on a triple (coefficient, x, y) of numbers, each
# passed through a wrap, float or one_entry
FORMULAS = {
    "thrust": lambda w, k, v, nu: thrust(rotor(w, k, 1.0), w(v), w(nu)),
    "inflow_sensitivity": lambda w, k, v, nu: inflow_sensitivity(rotor(w, 1.0, k), w(v), w(nu)),
    "speed_sensitivity": lambda w, k, v, nu: speed_sensitivity(rotor(w, k, 1.0), w(v), w(nu)),
    "hardening_rate": lambda w, k, k_d, v: hardening_rate(rotor(w, k, k_d), w(v)),
    "monotone_regime_bound": lambda w, k, k_d, v: monotone_regime_bound(rotor(w, k, k_d), w(v)),
    "bet_numeric_thrust": lambda w, radius, v, nu: bet_numeric_thrust(
        RotorGeometry(2, w(radius), w(0.1), w(0.2), w(5.7), w(1.2)), w(v), w(nu)),
    # the array call takes its panel count per entry, and groups the entries by it
    "bet_numeric_thrust_panel_array": lambda w, radius, v, nu: bet_numeric_thrust(
        RotorGeometry(2, w(radius), w(0.1), w(0.2), w(5.7), w(1.2)), w(v), w(nu), panels=w(8)),
    "net_force": lambda w, k, v, nu: net_force(
        DualRotor.identical(rotor(w, k, 1.0)), (w(v), w(1.0)), w(nu)),
    "damping_at_trim": lambda w, k, v, nu: damping_at_trim(
        DualRotor.identical(rotor(w, 1.0, k)), (w(v), w(1.0)), w(nu)),
    # a box floor of 1 gives a trim bound of 2 k, so some trims pass
    "force_promptness": lambda w, k, v, nu: force_promptness(
        DualRotor.identical(rotor(w, k, 1.0), ((1.0, math.inf), (1.0, math.inf))),
        (w(v), w(3.0)), w(nu)),
    "fiber_tangent": lambda w, k, x1, x2: fiber_tangent(
        as_antagonistic(vsa(w, exponential, k, 1.0, 1.0)), (w(x1), w(x2))),
    "exponential_stiffness": lambda w, k, x1, x2: stiffness(vsa(w, exponential, k, x1, x2)),
    "cubic_torque_promptness": lambda w, k, x1, x2: torque_promptness(
        vsa(w, TendonLaw.cubic, k, x1, x2)),
    "quadratic_joint_torque": lambda w, k, x1, theta: joint_torque(
        vsa(w, TendonLaw.quadratic, k, x1, 3.0), w(theta)),
    "equilibrium_velocity": lambda w, k, v1, v2: equilibrium_velocity(
        BodyConfig(1.0, DualRotor.identical(rotor(w, k, 1.0))), (w(v1), w(v2))),
    # the coefficient on k_inflow: its damping underflows to 0 at small speeds
    "equilibrium_velocity_k_inflow": lambda w, k, v1, v2: equilibrium_velocity(
        BodyConfig(1.0, DualRotor.identical(rotor(w, 1.0, k))), (w(v1), w(v2))),
    "analytic_response": lambda w, nu0, f_ext, t: analytic_response(
        BodyConfig(1.0, DualRotor.identical(rotor(w, 1.0, 1.0))), (w(3.0), w(1.0)),
        w(nu0), w(f_ext), w(t)),
    "analytic_response_k_inflow": lambda w, k, v1, v2: analytic_response(
        BodyConfig(1.0, DualRotor.identical(rotor(w, 1.0, k))), (w(v1), w(v2)),
        w(0.5), w(1.0), w(2.0)),
    "mode_decomposition": lambda w, _, v1, v2: mode_decomposition((w(v1), w(v2))),
    "allocate": triple_allocation,
}


def bits(result) -> list:
    """values(result) with each float as its bits, so -0.0 differs from 0.0
    and every NaN is one NaN."""
    return [("nan" if math.isnan(x) else np.float64(x).tobytes()) if isinstance(x, float) else x
            for x in values(result)]


def outcome(formula, wrap, triple):
    try:
        return bits(formula(wrap, *triple))
    except Exception as error:  # the type is what is compared
        return type(error)


@pytest.mark.parametrize("name", FORMULAS)
def test_float_and_one_entry_array_agree_over_the_float_range(name):
    formula, disagree = FORMULAS[name], []
    with np.errstate(all="ignore"):
        for triple in itertools.product(COEFFICIENTS, GRID, GRID):
            scalar, batch = outcome(formula, float, triple), outcome(formula, one_entry, triple)
            if scalar != batch:
                disagree.append((triple, scalar, batch))
    assert disagree == []
