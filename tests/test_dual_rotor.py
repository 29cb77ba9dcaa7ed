import math

import numpy as np
import pytest

from vada.aero import AffineThrustModel, monotone_regime_bound
from vada.antagonistic import (
    fiber_tangent,
    monotonicity_sweep,
    passive_coefficient,
    promptness,
    task_output,
    trace_fiber,
)
from vada.dual_rotor import (
    DualRotor,
    TrimPoint,
    allocate,
    as_antagonistic_at_trim,
    damping_at_trim,
    force_promptness,
    net_force,
)

FD_H = 1e-5

UNIT = AffineThrustModel(k_thrust=1.0, k_inflow=1.0)


def random_rotor(rng, symmetric=False):
    fwd = AffineThrustModel(k_thrust=rng.uniform(0.1, 2.0), k_inflow=rng.uniform(0.1, 2.0))
    bwd = fwd if symmetric else AffineThrustModel(
        k_thrust=rng.uniform(0.1, 2.0), k_inflow=rng.uniform(0.1, 2.0)
    )
    return DualRotor(rotor_fwd=fwd, rotor_bwd=bwd, speed_box=((1.0, math.inf), (1.0, math.inf)))


class TestNetForce:
    def test_symmetric_zero(self):
        dr = DualRotor.identical(UNIT)
        assert net_force(dr, (3.0, 3.0), 0.0) == 0.0

    def test_still_air(self):
        dr = DualRotor.identical(UNIT)
        assert net_force(dr, (2.0, 1.0), 0.0) == 3.0

    def test_with_inflow(self):
        # k_T (v1^2 - v2^2) - k_D (v1 + v2) nu
        dr = DualRotor.identical(UNIT)
        assert net_force(dr, (2.0, 1.0), 0.5) == 1.5

    def test_out_of_box(self):
        dr = DualRotor.identical(UNIT, speed_box=((1.0, 10.0), (1.0, 10.0)))
        with pytest.raises(ValueError):
            net_force(dr, (0.5, 2.0), 0.0)


class TestDampingAtTrim:
    def test_sum_of_speeds(self):
        dr = DualRotor.identical(UNIT)
        for nu_bar in (0.0, 3.0, -7.0):
            assert damping_at_trim(dr, (2.0, 3.0), nu_bar) == 5.0

    def test_symmetric(self):
        model = AffineThrustModel(k_thrust=1.0, k_inflow=0.4)
        dr = DualRotor.identical(model)
        assert damping_at_trim(dr, (6.0, 6.0)) == pytest.approx(2 * 0.4 * 6.0, rel=1e-15)

    def test_matches_force_fd(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            dr = random_rotor(rng, symmetric=bool(rng.integers(0, 2)))
            v = (rng.uniform(1.5, 20.0), rng.uniform(1.5, 20.0))
            nu_bar = rng.uniform(-3.0, 3.0)
            sigma = damping_at_trim(dr, v, nu_bar)
            fd = -(net_force(dr, v, nu_bar + FD_H) - net_force(dr, v, nu_bar - FD_H)) / (2 * FD_H)
            assert abs(sigma - fd) <= 1e-6 * max(1e-30, abs(sigma))
            assert sigma > 0.0


class TestForcePromptness:
    def test_pythagorean(self):
        dr = DualRotor.identical(AffineThrustModel(k_thrust=1.0, k_inflow=0.3))
        assert force_promptness(dr, (3.0, 4.0), 0.0) == pytest.approx(10.0, rel=1e-14)

    def test_symmetric(self):
        k_t = 0.6
        dr = DualRotor.identical(AffineThrustModel(k_thrust=k_t, k_inflow=1.0))
        c = 4.0
        assert force_promptness(dr, (c, c), 0.0) == pytest.approx(
            2 * k_t * c * math.sqrt(2), rel=1e-14
        )

    def test_matches_core_promptness(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            dr = random_rotor(rng)
            nu_bar = rng.uniform(-0.05, 0.05)
            act = as_antagonistic_at_trim(dr, nu_bar)
            v = (rng.uniform(2.0, 10.0), rng.uniform(2.0, 10.0))
            assert abs(force_promptness(dr, v, nu_bar) - promptness(act, v)) <= 1e-12


class TestAsAntagonisticAtTrim:
    def test_zero_trim_matches_direct(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            dr = random_rotor(rng)
            act = as_antagonistic_at_trim(dr, 0.0)
            v = (rng.uniform(2.0, 10.0), rng.uniform(2.0, 10.0))
            assert abs(task_output(act, v) - net_force(dr, v, 0.0)) <= 1e-12
            assert abs(passive_coefficient(act, v) - damping_at_trim(dr, v, 0.0)) <= 1e-12

    def test_fiber_tangent_is_speed_sensitivity_ratio(self):
        dr = DualRotor(
            rotor_fwd=AffineThrustModel(k_thrust=0.9, k_inflow=0.5),
            rotor_bwd=AffineThrustModel(k_thrust=1.1, k_inflow=0.7),
            speed_box=((1.0, math.inf), (1.0, math.inf)),
        )
        nu_bar = 0.2
        act = as_antagonistic_at_trim(dr, nu_bar)
        v = (4.0, 3.0)
        expected = (2 * 0.9 * v[0] - 0.5 * nu_bar) / (2 * 1.1 * v[1] + 0.7 * nu_bar)
        assert fiber_tangent(act, v) == pytest.approx(expected, rel=1e-14)

    def test_regime_violation_rejected(self):
        dr = DualRotor.identical(UNIT, speed_box=((1.0, math.inf), (1.0, math.inf)))
        # bound at the box floor is 2 (k_T / k_D) * 1 = 2
        with pytest.raises(ValueError, match="monotone"):
            as_antagonistic_at_trim(dr, 2.5)
        with pytest.raises(ValueError, match="monotone"):
            as_antagonistic_at_trim(dr, -2.5)

    def test_cocontraction_raises_damping_zero_trim(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            dr = random_rotor(rng, symmetric=bool(rng.integers(0, 2)))
            act = as_antagonistic_at_trim(dr, 0.0)
            start = (rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0))
            path = trace_fiber(act, start, start[0] + 2.0, 50)
            assert monotonicity_sweep(act, path, "passive").is_strictly_increasing

    def test_cocontraction_raises_damping_at_trim(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            dr = random_rotor(rng, symmetric=False)
            cap = 0.3 * min(
                monotone_regime_bound(dr.rotor_fwd, 1.0),
                monotone_regime_bound(dr.rotor_bwd, 1.0),
            )
            nu_bar = rng.uniform(-cap, cap)
            act = as_antagonistic_at_trim(dr, nu_bar)
            start = (rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0))
            path = trace_fiber(act, start, start[0] + 2.0, 50)
            assert monotonicity_sweep(act, path, "passive").is_strictly_increasing
            assert all(
                r <= 1e-10 * max(1.0, abs(path.level)) for r in path.residuals
            )


class TestAllocate:
    def test_hand_derived_instance(self):
        dr = DualRotor.identical(UNIT)
        result = allocate(dr, TrimPoint(nu_bar=0.0, force_level=3.0), sigma_des=4.0)
        assert result.feasible
        assert result.speeds == pytest.approx((2.375, 1.625), rel=1e-12)
        # forward check through the physics, not the solver
        assert net_force(dr, result.speeds, 0.0) == pytest.approx(3.0, rel=1e-12)
        assert damping_at_trim(dr, result.speeds) == pytest.approx(4.0, rel=1e-12)

    def test_zero_force_balances_speeds(self):
        k_d = 0.8
        dr = DualRotor.identical(AffineThrustModel(k_thrust=1.3, k_inflow=k_d))
        result = allocate(dr, TrimPoint(nu_bar=0.0, force_level=0.0), sigma_des=2.0)
        assert result.feasible
        assert result.speeds[0] == pytest.approx(result.speeds[1], rel=1e-12)
        assert result.speeds[0] == pytest.approx(2.0 / (2 * k_d), rel=1e-12)

    def test_infeasible_when_force_exceeds_common_mode(self):
        # sigma_des = 2 gives s = 2, so F = 5 > k_T s^2 = 4 is unreachable
        dr = DualRotor.identical(UNIT)
        result = allocate(dr, TrimPoint(nu_bar=0.0, force_level=5.0), sigma_des=2.0)
        assert not result.feasible
        assert result.speeds[1] <= 0.0  # the unconstrained candidate is reported

    def test_roundtrip_random_feasible(self):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            dr = random_rotor(rng, symmetric=bool(rng.integers(0, 2)))
            v = (rng.uniform(2.0, 15.0), rng.uniform(2.0, 15.0))
            nu_bar = rng.uniform(-1.0, 1.0)
            f_bar = net_force(dr, v, nu_bar)
            sigma_des = damping_at_trim(dr, v, nu_bar)
            result = allocate(dr, TrimPoint(nu_bar=nu_bar, force_level=f_bar), sigma_des)
            assert result.feasible
            assert abs(result.achieved_force - f_bar) <= 1e-9 * max(1.0, abs(f_bar))
            assert abs(result.achieved_damping - sigma_des) <= 1e-9 * max(1.0, sigma_des)

    def test_distinct_rotors_keep_the_in_box_root(self):
        # the other root of the quadratic has a negative forward speed
        dr = DualRotor(
            AffineThrustModel(k_thrust=0.59, k_inflow=0.074),
            AffineThrustModel(k_thrust=2.5, k_inflow=1.48),
        )
        v, nu_bar = (35.5, 0.52), -12.5
        trim = TrimPoint(nu_bar=nu_bar, force_level=net_force(dr, v, nu_bar))
        result = allocate(dr, trim, damping_at_trim(dr, v, nu_bar))
        assert result.feasible
        assert result.speeds == pytest.approx(v, rel=1e-12)

    def test_unreachable_force_reports_the_vertex(self):
        # on k_D1 v1 + k_D2 v2 = 1 the net force never drops below -1/3
        dr = DualRotor(
            AffineThrustModel(k_thrust=1.0, k_inflow=1.0),
            AffineThrustModel(k_thrust=1.0, k_inflow=2.0),
        )
        result = allocate(dr, TrimPoint(nu_bar=0.0, force_level=-1.0), sigma_des=1.0)
        assert not result.feasible
        assert result.reason == "differential mode exceeds common mode"
        assert result.speeds == pytest.approx((-1.0 / 3.0, 2.0 / 3.0), rel=1e-12)
        assert result.achieved_force == pytest.approx(-1.0 / 3.0, rel=1e-12)

    def test_nonpositive_damping_request_rejected(self):
        dr = DualRotor.identical(UNIT)
        with pytest.raises(ValueError):
            allocate(dr, TrimPoint(nu_bar=0.0, force_level=1.0), sigma_des=0.0)

    @pytest.mark.parametrize(
        "force, speeds, feasible",
        [(96.0, (10.0, 2.0), False), (120.0, (11.0, 1.0), False), (95.0, None, True)],
        ids=["at-upper-bound", "at-lower-bound", "inside"],
    )
    def test_speed_box_is_open(self, force, speeds, feasible):
        # on v1 + v2 = 12, F = v1^2 - v2^2 = 12 (v1 - v2) puts the speeds
        # exactly on the box's faces for F = 96 and F = 120
        dr = DualRotor.identical(UNIT, speed_box=((1.0, 10.0), (1.0, 10.0)))
        result = allocate(dr, TrimPoint(nu_bar=0.0, force_level=force), sigma_des=12.0)
        assert result.feasible is feasible
        if speeds is not None:
            assert result.speeds == speeds
            assert result.reason == "speed box violation"



class TestArraySpeeds:
    def test_force_and_damping_match_pointwise(self):
        rng = np.random.default_rng(43)
        n = 300
        k_thrust, k_inflow = rng.uniform(0.05, 5.0, (2, 2, n))
        box = ((1.0, math.inf), (1.0, math.inf))
        batch = DualRotor(
            rotor_fwd=AffineThrustModel(k_thrust[0], k_inflow[0]),
            rotor_bwd=AffineThrustModel(k_thrust[1], k_inflow[1]),
            speed_box=box,
        )
        v = rng.uniform(1.5, 50.0, (2, n))
        nu = rng.uniform(-20.0, 20.0, n)
        force, damping = net_force(batch, v, nu), damping_at_trim(batch, v, nu)
        for i in range(n):
            dr = DualRotor(
                rotor_fwd=AffineThrustModel(k_thrust[0, i], k_inflow[0, i]),
                rotor_bwd=AffineThrustModel(k_thrust[1, i], k_inflow[1, i]),
                speed_box=box,
            )
            assert force[i] == net_force(dr, v[:, i], nu[i])
            assert damping[i] == damping_at_trim(dr, v[:, i], nu[i])

    def test_one_speed_outside_the_box_rejects_the_array(self):
        dr = DualRotor.identical(AffineThrustModel(1.0, 1.0), speed_box=((1.0, 10.0), (1.0, 10.0)))
        with pytest.raises(ValueError):
            net_force(dr, np.array([[2.0, 3.0], [2.0, 11.0]]), 0.0)
