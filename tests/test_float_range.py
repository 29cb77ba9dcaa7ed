"""The float-range contract: where a result leaves the float range, a float
call and an array call give the same value once numpy's warnings are off
(the array call, and a float call through a numpy ufunc, warn on it)."""

import math

import numpy as np
import pytest

from vada.aero import AffineThrustModel, thrust
from vada.dual_rotor import AllocationResult, DualRotor, TrimPoint, allocate, allocate_arrays, net_force
from vada.vsa import TendonLaw, VsaConfig, stiffness


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
        fields = [result]
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
