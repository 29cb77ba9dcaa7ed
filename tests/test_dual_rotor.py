import copy
import dataclasses
import inspect
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from vada.aero import AffineThrustModel, monotone_regime_bound, speed_sensitivity
from vada.antagonistic import (
    fiber_tangent,
    monotonicity_sweep,
    passive_coefficient,
    promptness,
    task_output,
    trace_fiber,
)
from vada import dual_rotor, verify
from vada._array import inside
from vada.dual_rotor import (
    AllocationResult,
    DualRotor,
    TrimPoint,
    allocate,
    allocate_arrays,
    as_antagonistic_at_trim,
    damping_at_trim,
    force_promptness,
    net_force,
)

FD_H = 1e-5

UNIT = AffineThrustModel(k_thrust=1.0, k_inflow=1.0)
# monotone-regime bound 2 at the box floor 1
UNIT_FLOOR_ONE = DualRotor.identical(UNIT, speed_box=((1.0, math.inf), (1.0, math.inf)))
# k_T / k_D overflows to inf against the default box floor 0: a NaN bound
NAN_BOUND = DualRotor.identical(AffineThrustModel(k_thrust=1e300, k_inflow=1e-300))
# the same overflow in numpy, as entry 0 of array coefficients
NAN_BOUND_ARRAYS = DualRotor.identical(
    AffineThrustModel(k_thrust=np.array([1e300, 1.0]), k_inflow=np.array([1e-300, 1.0])))
# (fwd, bwd, nu_bar, force_level, sigma_des) of a request made from the in-box
# speeds (2.7552725445327653, 1.0002293166833027e-09): its root in the box is q/a
BOX_FLOOR_REQUEST = (
    AffineThrustModel(1.369084675764101e-17, 0.6453154246899666),
    AffineThrustModel(1.1172961613108712, 0.8758553222625347),
    -0.00028240462166544497, 0.0005021210295731119, 1.7780198730878225,
)


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
            # the oracle: the gradient's two speed sensitivities, written out here
            gradient_norm = math.hypot(
                speed_sensitivity(dr.rotor_fwd, v[0], nu_bar),
                speed_sensitivity(dr.rotor_bwd, v[1], -nu_bar),
            )
            value = force_promptness(dr, v, nu_bar)
            assert value == promptness(act, v)
            assert abs(value - gradient_norm) <= math.ulp(gradient_norm)

    @pytest.mark.parametrize("nu_bar, side", [(2.5, "forward"), (-2.5, "backward")])
    def test_trim_outside_the_monotone_regime_raises_the_bridge_message(self, nu_bar, side):
        # bound at the box floor is 2 (k_T / k_D) * 1 = 2
        with pytest.raises(ValueError, match=f"trim inflow {nu_bar} violates the monotone "
                                             f"regime on the {side} rotor box"):
            force_promptness(UNIT_FLOOR_ONE, (3.0, 3.0), nu_bar)


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

    @pytest.mark.parametrize("nu_bar", [math.nan, np.array([0.1, math.nan, -0.1])],
                             ids=["float", "array-entry"])
    def test_nan_trim_refused(self, nu_bar):
        dr = DualRotor.identical(UNIT, speed_box=((1.0, math.inf), (1.0, math.inf)))
        with pytest.raises(ValueError, match="trim inflow must be a number, got nan"):
            as_antagonistic_at_trim(dr, nu_bar)

    @pytest.mark.parametrize(
        "dr, nu_bar, side",
        [
            (UNIT_FLOOR_ONE, 0.0, None),
            (UNIT_FLOOR_ONE, -0.0, None),
            (UNIT_FLOOR_ONE, np.array([[0.0, -0.0], [1.5, -1.5]]), None),
            (NAN_BOUND, 0.5, "forward"),
            (NAN_BOUND, -0.5, "backward"),
            (NAN_BOUND, 0.0, None),
            (NAN_BOUND_ARRAYS, 0.5, "forward"),
            (NAN_BOUND_ARRAYS, -0.5, "backward"),
            (NAN_BOUND_ARRAYS, 0.0, None),
        ],
        ids=["zero", "negative-zero", "array-with-zeros", "nan-bound-forward",
             "nan-bound-backward", "nan-bound-zero", "array-nan-bound-forward",
             "array-nan-bound-backward", "array-nan-bound-zero"],
    )
    def test_trim_check_at_zero_and_at_a_nan_bound(self, dr, nu_bar, side):
        if side is None:
            as_antagonistic_at_trim(dr, nu_bar)
            return
        with pytest.raises(ValueError) as info:
            as_antagonistic_at_trim(dr, nu_bar)
        assert str(info.value) == (
            f"trim inflow {nu_bar} violates the monotone regime on the {side} rotor box")

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
        # the achieved force and damping are net_force and damping_at_trim at
        # the returned speeds, bit for bit, from allocate and allocate_arrays
        rng = np.random.default_rng(53)
        requests = []
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
            assert result_bits(result.speeds, result.achieved_force, result.achieved_damping).tolist() \
                == result_bits(result.speeds, net_force(dr, result.speeds, nu_bar),
                               damping_at_trim(dr, result.speeds, nu_bar)).tolist()
            requests.append((dr.rotor_fwd, dr.rotor_bwd, nu_bar, f_bar, sigma_des))
        columns = list(zip(*requests))
        rotors = [AffineThrustModel(np.array([m.k_thrust for m in ms]), np.array([m.k_inflow for m in ms]))
                  for ms in columns[:2]]
        dr = DualRotor(*rotors, speed_box=((1.0, math.inf), (1.0, math.inf)))
        nu_bar, f_bar, sigma_des = map(np.array, columns[2:])
        batch = allocate_arrays(dr, nu_bar, f_bar, sigma_des)
        assert batch.feasible.all()
        assert np.array_equal(
            result_bits(batch.speeds, batch.achieved_force, batch.achieved_damping),
            result_bits(batch.speeds, net_force(dr, batch.speeds, nu_bar),
                        damping_at_trim(dr, batch.speeds, nu_bar)))

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

    def test_a_request_at_the_box_floor_takes_the_root_q_over_a(self):
        # k_T1 is 1e-17 and v2 is 4e-10 of v1: c/q, the root where F rises
        # along the damping line, rounds to a negative speed, and q/a is in the box
        fwd, bwd, nu_bar, force, sigma_des = BOX_FLOOR_REQUEST
        dr = DualRotor(fwd, bwd)
        made_from = (2.7552725445327653, 1.0002293166833027e-09)
        assert (net_force(dr, made_from, nu_bar), damping_at_trim(dr, made_from, nu_bar)) == (force, sigma_des)
        speeds = (2.7552725458903278, 2.5351744663883446e-16)
        result = allocate(dr, TrimPoint(nu_bar=nu_bar, force_level=force), sigma_des)
        assert (result.feasible, result.speeds) == (True, speeds)
        one = DualRotor(*(AffineThrustModel(np.array([m.k_thrust]), np.array([m.k_inflow])) for m in (fwd, bwd)))
        batch = allocate_arrays(one, np.array([nu_bar]), np.array([force]), np.array([sigma_des]))
        assert batch.feasible.tolist() == [True]
        assert (batch.speeds[0].tolist(), batch.speeds[1].tolist()) == ([speeds[0]], [speeds[1]])

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

    @pytest.mark.parametrize("k_thrust", [1e155, 1e300])
    def test_discriminant_overflow_is_scaled_away(self, k_thrust):
        # a = 0, b = 2 k_T and c = -1.5 k_T are finite, but b^2 is not
        dr = DualRotor.identical(AffineThrustModel(k_thrust, 1.0))
        result = allocate(dr, TrimPoint(nu_bar=0.0, force_level=0.5 * k_thrust), sigma_des=1.0)
        assert result.feasible
        assert result.speeds == (0.75, 0.25)
        assert result.achieved_force == pytest.approx(0.5 * k_thrust, rel=1e-15)

    def test_discriminant_overflow_of_distinct_rotors(self):
        # b^2 and -4ac both overflow to +inf
        dr = DualRotor(AffineThrustModel(1e300, 1.0), AffineThrustModel(2e300, 3.0))
        v = (1.2, 0.5)
        trim = TrimPoint(nu_bar=0.0, force_level=net_force(dr, v, 0.0))
        result = allocate(dr, trim, damping_at_trim(dr, v))
        assert result.feasible
        assert result.speeds == pytest.approx(v, rel=1e-12)

    def test_an_overflowing_coefficient_is_left_as_it_is(self):
        # c = -(k_T sigma^2 + F) is -inf: no scaling brings it back
        result = allocate(DualRotor.identical(UNIT), TrimPoint(nu_bar=0.0, force_level=1.0), 1e160)
        assert not result.feasible
        assert all(math.isnan(x) for x in result.speeds)


def exactly_feasible(fwd, bwd, nu_bar, force_level, sigma_des) -> bool:
    """Whether a request on the default box is feasible in exact arithmetic
    of its floats: F rises strictly along the damping line, from v1 = 0 to
    v2 = 0, so -k_T2 (sigma/k_D2)^2 < F_bar + nu_bar sigma < k_T1 (sigma/k_D1)^2."""
    sigma = Fraction(sigma_des)
    g = Fraction(force_level) + Fraction(nu_bar) * sigma
    return (-Fraction(bwd.k_thrust) * (sigma / Fraction(bwd.k_inflow)) ** 2 < g
            < Fraction(fwd.k_thrust) * (sigma / Fraction(fwd.k_inflow)) ** 2)


def oracle_corpus(seed, ratios, n=2000):
    """n requests on the default box, each as (fwd, bwd, nu_bar, force_level,
    sigma_des) floats: k_T and k_D in [0.1, 2], every third pair identical,
    nu_bar 0 or within +-0.05, made from speeds whose large one is in
    [0.5, 10] and whose other one is that times a ratio log-uniform in
    `ratios`, negative for half of them (outside the box)."""
    rng = np.random.default_rng(seed)
    corpus = []
    while len(corpus) < n:
        fwd = AffineThrustModel(*rng.uniform(0.1, 2.0, 2))
        bwd = fwd if len(corpus) % 3 == 0 else AffineThrustModel(*rng.uniform(0.1, 2.0, 2))
        nu_bar = rng.choice([0.0, rng.uniform(-0.05, 0.05)])
        large = rng.uniform(0.5, 10.0)
        small = large * 10.0 ** rng.uniform(*np.log10(ratios)) * rng.choice([1.0, -1.0])
        v1, v2 = (large, small) if rng.integers(2) else (small, large)
        force = (fwd.k_thrust * v1 * v1 - fwd.k_inflow * nu_bar * v1
                 - (bwd.k_thrust * v2 * v2 + bwd.k_inflow * nu_bar * v2))
        sigma_des = fwd.k_inflow * v1 + bwd.k_inflow * v2
        if sigma_des > 0.0:
            corpus.append((fwd, bwd, float(nu_bar), float(force), float(sigma_des)))
    return corpus


def assert_allocates_as_the_oracle(corpus):
    expected = [exactly_feasible(*request) for request in corpus]
    # the corpus holds both verdicts, so neither a constant nor the generating speeds pass it
    assert 0 < sum(expected) < len(expected)
    singles = [allocate(DualRotor(fwd, bwd), TrimPoint(nu_bar, force), sigma_des).feasible
               for fwd, bwd, nu_bar, force, sigma_des in corpus]
    assert singles == expected
    fwd, bwd, nu_bar, force, sigma_des = zip(*corpus)
    rotors = [AffineThrustModel(np.array([m.k_thrust for m in ms]), np.array([m.k_inflow for m in ms]))
              for ms in (fwd, bwd)]
    batch = allocate_arrays(DualRotor(*rotors), *map(np.array, (nu_bar, force, sigma_des)))
    assert batch.feasible.tolist() == expected


class TestAllocateFeasibilityOracle:
    """allocate's feasibility against exact rational arithmetic on the float
    request, entry by entry, for allocate and allocate_arrays."""

    def test_the_oracle_on_hand_derived_requests(self):
        # unit rotors at sigma 2: F within (-4, 4), the ends excluded
        for force, feasible in [(3.999, True), (4.0, False), (-4.0, False), (-3.999, True), (0.0, True)]:
            assert exactly_feasible(UNIT, UNIT, 0.0, force, 2.0) is feasible
        # nu_bar sigma moves the request: 4.5 - 0.25 * 2 = 4 is at the end
        assert not exactly_feasible(UNIT, UNIT, -0.25, 4.5, 2.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_speed_ratios_down_to_1e_6(self, seed):
        assert_allocates_as_the_oracle(oracle_corpus(seed, (1e-6, 1.0)))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_speed_ratios_from_1e_14_to_1e_6(self, seed):
        # the band between the passing one above and item 13's failing one below
        assert_allocates_as_the_oracle(oracle_corpus(seed, (1e-14, 1e-6)))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
    def test_speed_ratios_from_1e_18_to_1e_14(self):
        assert_allocates_as_the_oracle(oracle_corpus(2, (1e-18, 1e-14)))


class TestAllocationResult:
    """A frozen dataclass built positionally by a hand-written __init__ that fills
    the instance with item stores: value semantics, each field in its place."""

    def result(self, force=3.0):
        return allocate(DualRotor.identical(UNIT), TrimPoint(nu_bar=0.0, force_level=force), 4.0)

    def test_fields_are_frozen(self):
        result = self.result()
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.feasible = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.reason = "changed"
        assert result.feasible and result.reason == ""

    def test_equality_and_hash(self):
        result, again, other = self.result(), self.result(), self.result(force=2.0)
        assert result == again and hash(result) == hash(again)
        assert result != other
        assert repr(result).startswith("AllocationResult(speeds=(")

    def test_replace_and_asdict(self):
        result = self.result()
        changed = dataclasses.replace(result, feasible=False, reason="speed box violation")
        assert (changed.speeds, changed.feasible, changed.reason) == (
            result.speeds, False, "speed box violation")
        assert dataclasses.asdict(result) == {
            "speeds": result.speeds,
            "achieved_force": result.achieved_force,
            "achieved_damping": result.achieved_damping,
            "feasible": True,
            "reason": "",
        }

    @pytest.mark.parametrize(
        "round_trip", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"])
    def test_round_trips(self, round_trip):
        result = self.result()
        again = round_trip(result)
        assert type(again) is AllocationResult and again == result

    def test_the_allocators_fill_every_field_in_order(self):
        # built positionally: each field must hold what its name says
        dr = DualRotor.identical(UNIT)
        result = allocate(dr, TrimPoint(nu_bar=0.0, force_level=5.0), sigma_des=2.0)
        assert result.speeds == pytest.approx((2.25, -0.25), rel=1e-12)
        assert result.achieved_force == pytest.approx(2.25**2 - 0.25**2, rel=1e-12)
        assert result.achieved_damping == pytest.approx(2.0, rel=1e-12)
        assert (result.feasible, result.reason) == (False, "differential mode exceeds common mode")
        ones = DualRotor.identical(AffineThrustModel(np.ones(1), np.ones(1)))
        batch = allocate_arrays(ones, np.zeros(1), np.full(1, 5.0), np.full(1, 2.0))
        assert [x.tolist() for x in batch.speeds] == [[v] for v in result.speeds]
        for name in ("achieved_force", "achieved_damping", "feasible", "reason"):
            assert getattr(batch, name).tolist() == [getattr(result, name)]

    def test_init_matches_the_fields(self):
        # the hand-written __init__ must take every field, by its name and in its order
        params = inspect.signature(AllocationResult).parameters
        assert list(params) == [f.name for f in dataclasses.fields(AllocationResult)]
        assert [p.default for p in params.values()] == [inspect.Parameter.empty] * 4 + [""]

    def test_keyword_and_positional_construction_agree(self):
        result = self.result()
        names = [f.name for f in dataclasses.fields(AllocationResult)]
        assert list(vars(result)) == names
        values = [getattr(result, name) for name in names]
        by_keyword = AllocationResult(**dict(zip(names, values)))
        assert AllocationResult(*values) == by_keyword == result
        assert list(vars(by_keyword)) == names

    def test_a_missing_argument_raises(self):
        with pytest.raises(TypeError):
            AllocationResult((1.0, 2.0), 3.0, 4.0)
        with pytest.raises(TypeError):
            AllocationResult(speeds=(1.0, 2.0), achieved_force=3.0, feasible=True)

    def test_a_batch_result_compares_field_by_field(self):
        ones = DualRotor.identical(AffineThrustModel(np.ones(3), np.ones(3)))

        def batch():
            return allocate_arrays(ones, np.zeros(3), np.array([1.0, 3.0, 5.0]), np.full(3, 2.0))

        result, again = batch(), batch()
        with pytest.raises(ValueError):
            result == again
        with pytest.raises(TypeError):
            hash(result)
        for f in dataclasses.fields(AllocationResult):
            assert np.array_equal(getattr(result, f.name), getattr(again, f.name))


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


def allocate_each(dr, nu_bar, force, sigma_des):
    """The scalar allocate on every entry of a batch of requests, as arrays
    of (speeds, achieved force, achieved damping, feasible, reason)."""
    fwd, bwd = dr.rotor_fwd, dr.rotor_bwd
    columns = np.broadcast_arrays(fwd.k_thrust, fwd.k_inflow, bwd.k_thrust, bwd.k_inflow,
                                  nu_bar, force, sigma_des)
    results = [
        allocate(DualRotor(AffineThrustModel(kt1, kd1), AffineThrustModel(kt2, kd2),
                           speed_box=dr.speed_box),
                 TrimPoint(nu_bar=nu, force_level=f), s)
        for kt1, kd1, kt2, kd2, nu, f, s in zip(*(c.tolist() for c in columns))
    ]
    return [np.array([getattr(r, name) for r in results]) for name in
            ("speeds", "achieved_force", "achieved_damping", "feasible", "reason")]


def assert_allocates_as_each(dr, nu_bar, force, sigma_des):
    batch = allocate_arrays(dr, nu_bar, force, sigma_des)
    speeds, achieved_force, achieved_damping, feasible, reason = allocate_each(
        dr, nu_bar, force, sigma_des)
    assert np.array_equal(np.stack(batch.speeds, axis=-1), speeds)
    assert np.array_equal(batch.achieved_force, achieved_force)
    assert np.array_equal(batch.achieved_damping, achieved_damping)
    assert batch.feasible.dtype == bool and np.array_equal(batch.feasible, feasible)
    assert np.array_equal(batch.reason, reason)
    return batch


class TestAllocateArrays:
    def test_every_verify_draw_as_the_scalar_allocate(self, monkeypatch):
        batches = []
        original = verify.allocate_arrays

        def recorded(*args):
            batches.append(args)
            return original(*args)

        monkeypatch.setattr(verify, "allocate_arrays", recorded)
        for seed in range(50):
            verify.check_allocation_roundtrip(np.random.default_rng(seed))
        assert len(batches) == 50
        for args in batches:
            assert assert_allocates_as_each(*args).feasible.all()

    def test_identical_rotors_take_the_single_root(self):
        # a = 0: the hand-derived instance and requests from random speeds
        rng = np.random.default_rng(7)
        k_thrust, k_inflow = rng.uniform(0.05, 5.0, (2, 40))
        k_thrust[0], k_inflow[0] = 1.0, 1.0
        model = AffineThrustModel(k_thrust, k_inflow)
        dr = DualRotor.identical(model)
        v = rng.uniform(0.01, 50.0, (2, 40))
        v[:, 0] = 2.375, 1.625
        nu_bar = rng.uniform(-20.0, 20.0, 40)
        nu_bar[0] = 0.0
        batch = assert_allocates_as_each(
            dr, nu_bar, net_force(dr, v, nu_bar), damping_at_trim(dr, v, nu_bar))
        assert batch.feasible.all()
        assert (batch.speeds[0][0], batch.speeds[1][0]) == pytest.approx((2.375, 1.625), rel=1e-12)

    def test_no_real_root_reports_the_vertex(self):
        # the unreachable force of the scalar test, beside a reachable one
        dr = DualRotor(
            AffineThrustModel(k_thrust=np.ones(2), k_inflow=np.ones(2)),
            AffineThrustModel(k_thrust=np.ones(2), k_inflow=np.full(2, 2.0)),
        )
        batch = assert_allocates_as_each(dr, np.zeros(2), np.array([-1.0, 0.1]), np.ones(2))
        assert batch.feasible.tolist() == [False, True]
        assert batch.reason[0] == "differential mode exceeds common mode"
        assert (batch.speeds[0][0], batch.speeds[1][0]) == pytest.approx((-1 / 3, 2 / 3), rel=1e-12)

    def test_both_roots_outside_a_finite_box(self):
        rng = np.random.default_rng(11)
        k_thrust, k_inflow = rng.uniform(0.1, 2.0, (2, 2, 30))
        box = ((1.0, 10.0), (1.0, 10.0))
        dr = DualRotor(AffineThrustModel(k_thrust[0], k_inflow[0]),
                       AffineThrustModel(k_thrust[1], k_inflow[1]), speed_box=box)
        # requests made from speeds above the box: its one positive root is out
        v = rng.uniform(12.0, 30.0, (2, 30))
        nu_bar = rng.uniform(-1.0, 1.0, 30)
        unboxed = DualRotor(dr.rotor_fwd, dr.rotor_bwd)
        force, sigma = net_force(unboxed, v, nu_bar), damping_at_trim(unboxed, v, nu_bar)
        batch = assert_allocates_as_each(dr, nu_bar, force, sigma)
        assert not batch.feasible.any()
        assert set(batch.reason.tolist()) <= {"speed box violation", "differential mode exceeds common mode"}

    def test_discriminant_overflow_is_scaled_entry_by_entry(self):
        # the scalar tests' overflowing requests beside ordinary ones
        dr = DualRotor(
            AffineThrustModel(np.array([1e155, 1.0, 1e300, 1e300]), np.ones(4)),
            AffineThrustModel(np.array([1e155, 1.0, 1e300, 2e300]), np.array([1.0, 1.0, 1.0, 3.0])),
        )
        force = np.array([5e154, 0.5, 5e299, 1.44e300 - 0.5e300])
        sigma = np.array([1.0, 1.0, 1.0, 2.7])
        with np.errstate(over="ignore", invalid="ignore"):
            batch = assert_allocates_as_each(dr, np.zeros(4), force, sigma)
        assert batch.feasible.all()
        assert batch.speeds[0][:3].tolist() == [0.75] * 3
        assert batch.speeds[1][:3].tolist() == [0.25] * 3

    def test_coefficient_overflow_takes_the_roots_as_allocate_does(self):
        # trim (0, 1) and sigma_des 1e160 give c = -inf and a NaN discriminant on
        # identical and on distinct rotors: allocate reports the NaN root, infeasible
        dr = DualRotor(
            AffineThrustModel(np.ones(3), np.ones(3)),
            AffineThrustModel(np.array([1.0, 1.0, 3.0]), np.array([1.0, 2.0, 1.0])),
        )
        request = np.zeros(3), np.ones(3), np.full(3, 1e160)
        with np.errstate(over="ignore", invalid="ignore"):
            batch = allocate_arrays(dr, *request)
        speeds, force, damping, feasible, reason = allocate_each(dr, *request)
        assert np.isnan(speeds).all()
        assert np.array_equal(np.stack(batch.speeds, axis=-1), speeds, equal_nan=True)
        assert np.array_equal(batch.achieved_force, force, equal_nan=True)
        assert np.array_equal(batch.achieved_damping, damping, equal_nan=True)
        assert not (batch.feasible.any() or feasible.any())
        assert batch.reason.tolist() == reason.tolist() == ["speed box violation"] * 3

    @pytest.mark.parametrize("sigma_des", [5e-324, 0.0, -1.0, math.nan],
                             ids=["underflow", "zero", "negative", "nan"])
    def test_a_request_allocate_refuses_raises_its_error(self, sigma_des):
        # with k_D = 0.25, b = 2 k_T k_D sigma_des rounds to 0 at the smallest subnormal;
        # the later refused entry, -2.0, has a message of its own
        model = AffineThrustModel(1.0, 0.25)
        dr = DualRotor.identical(AffineThrustModel(np.ones(3), np.full(3, 0.25)))
        with pytest.raises(ValueError) as alone:
            allocate(DualRotor.identical(model), TrimPoint(nu_bar=0.0, force_level=0.0), sigma_des)
        with pytest.raises(ValueError) as batch:
            allocate_arrays(dr, np.zeros(3), np.zeros(3), np.array([1.0, sigma_des, -2.0]))
        assert str(batch.value) == str(alone.value)
        assert "-2.0" not in str(batch.value)


def reference_allocate(dr, trim, sigma_des):
    """allocate with its former candidate order, which tried q/a before c/q
    wherever a != 0, whatever a's sign; with the a and the discriminant it
    solved (after any 2^e scaling)."""
    fwd, bwd = dr.rotor_fwd, dr.rotor_bwd
    g = trim.force_level + trim.nu_bar * sigma_des
    swap = bwd.k_inflow < fwd.k_inflow
    rx, ry = (bwd, fwd) if swap else (fwd, bwd)
    a, b, c = dual_rotor._allocation_quadratic(rx, ry, -g if swap else g, sigma_des)
    disc = b * b - 4.0 * a * c
    if not disc < math.inf and all(map(math.isfinite, (a, b, c))):
        e = 510 - math.frexp(max(abs(a), abs(b), abs(c)))[1]
        a, b, c = math.ldexp(a, e), math.ldexp(b, e), math.ldexp(c, e)
        disc = b * b - 4.0 * a * c
    if disc < 0.0:
        xs = (-b / (2.0 * a),)
    else:
        q = -0.5 * (b + math.sqrt(disc))
        xs = (c / q,) if a == 0.0 else (q / a, c / q)
    for x in xs:
        y = (sigma_des - rx.k_inflow * x) / ry.k_inflow
        v1, v2 = (y, x) if swap else (x, y)
        feasible = inside(dr.speed_box, (v1, v2))
        if feasible:
            break
    reason = "" if feasible else (
        "differential mode exceeds common mode" if min(v1, v2) <= 0 else "speed box violation")
    return dual_rotor._allocation(dr, trim.nu_bar, v1, v2, feasible, reason), a, disc


def candidate_corpus(seed, n=600):
    """Requests as (fwd, bwd, nu_bar, force_level, sigma_des): every fourth
    pair of rotors identical (a = 0), the others distinct (a of either
    sign), half of them at a nonzero trim, made from speeds of which some
    are negative and with the force scaled by 1, 10 or -10 (infeasible
    requests and ones with no real root); then a NaN force, coefficients
    that overflow, quadratics scaled by 2^e and the box-floor request."""
    rng = np.random.default_rng(seed)
    corpus = []
    while len(corpus) < n:
        fwd = AffineThrustModel(*rng.uniform(0.05, 5.0, 2).tolist())
        bwd = fwd if len(corpus) % 4 == 0 else AffineThrustModel(*rng.uniform(0.05, 5.0, 2).tolist())
        nu_bar = float(rng.choice([0.0, rng.uniform(-20.0, 20.0)]))
        v1, v2 = rng.uniform(-5.0, 20.0, 2).tolist()
        force = (fwd.k_thrust * v1 * v1 - fwd.k_inflow * nu_bar * v1
                 - (bwd.k_thrust * v2 * v2 + bwd.k_inflow * nu_bar * v2))
        sigma_des = fwd.k_inflow * v1 + bwd.k_inflow * v2
        if sigma_des > 0.0:
            corpus.append((fwd, bwd, nu_bar, force * float(rng.choice([1.0, 10.0, -10.0])), sigma_des))
    big, distinct = AffineThrustModel(1e300, 1.0), AffineThrustModel(2e300, 3.0)
    return corpus + [
        (UNIT, UNIT, 0.0, math.nan, 2.0),
        (UNIT, AffineThrustModel(3.0, 2.0), 1.0, math.nan, 2.0),
        (UNIT, UNIT, 0.0, 1.0, 1e160),
        (UNIT, AffineThrustModel(1.0, 2.0), 0.0, 1.0, 1e160),
        (AffineThrustModel(1e155, 1.0), AffineThrustModel(1e155, 1.0), 0.0, 5e154, 1.0),
        (big, big, 0.0, 5e299, 1.0),
        (big, distinct, 0.0, 1.44e300 - 0.5e300, 2.7),
        BOX_FLOOR_REQUEST,
    ]


def result_bits(speeds, force, damping):
    """Each entry's two speeds, force and damping as the bits of their
    floats, so -0.0 and NaN compare as themselves."""
    return np.stack([*speeds, force, damping], axis=-1).view(np.uint64)


class TestCandidateOrder:
    """Trying q/a only where a < 0 leaves every result as it was when q/a was
    tried wherever a != 0: q < 0 and the box floors are >= 0, so q/a is never
    in the box where a > 0."""

    @pytest.mark.parametrize("box", [((0.0, math.inf), (0.0, math.inf)), ((1.0, 10.0), (1.0, 10.0))],
                             ids=["default", "finite"])
    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
    def test_a_seeded_corpus_allocates_as_the_reference_bit_for_bit(self, monkeypatch, box, zero):
        # zero is the a of identical rotors, -0.0 through a patched quadratic
        quadratic = dual_rotor._allocation_quadratic

        def with_zero(*args):
            a, b, c = quadratic(*args)
            return np.where(a == 0.0, zero, a) if isinstance(a, np.ndarray) else (
                zero if a == 0.0 else a), b, c

        monkeypatch.setattr(dual_rotor, "_allocation_quadratic", with_zero)
        corpus = candidate_corpus(31)
        rows, kinds = [], set()
        for fwd, bwd, nu_bar, force, sigma_des in corpus:
            dr, trim = DualRotor(fwd, bwd, speed_box=box), TrimPoint(nu_bar, force)
            result = allocate(dr, trim, sigma_des)
            expected, a, disc = reference_allocate(dr, trim, sigma_des)
            assert result_bits(result.speeds, result.achieved_force, result.achieved_damping).tolist() \
                == result_bits(expected.speeds, expected.achieved_force, expected.achieved_damping).tolist()
            assert (result.feasible, result.reason) == (expected.feasible, expected.reason)
            rows.append(expected)
            kinds.add(("vertex" if disc < 0.0 else "+" if a > 0.0 else "-" if a < 0.0 else repr(a),
                       result.feasible))
        assert kinds == {("+", True), ("+", False), ("-", True), ("-", False), (repr(zero), True),
                         (repr(zero), False), ("vertex", False)}
        rotors = [AffineThrustModel(np.array([m.k_thrust for m in ms]), np.array([m.k_inflow for m in ms]))
                  for ms in list(zip(*corpus))[:2]]
        with np.errstate(all="ignore"):
            batch = allocate_arrays(DualRotor(*rotors, speed_box=box),
                                    *(np.array(column) for column in list(zip(*corpus))[2:]))
        columns = [np.array([getattr(r, name) for r in rows]) for name in
                   ("speeds", "achieved_force", "achieved_damping", "feasible", "reason")]
        assert np.array_equal(result_bits(batch.speeds, batch.achieved_force, batch.achieved_damping),
                              result_bits(columns[0].T, *columns[1:3]))
        assert np.array_equal(batch.feasible, columns[3]) and np.array_equal(batch.reason, columns[4])

    @pytest.mark.parametrize("request_, sign, calls", [
        ((UNIT, UNIT, 0.0, 4.0, 5.0), 0.0, 1),
        ((UNIT, AffineThrustModel(1.0, 2.0), 0.0, 4.0, 5.0), 1.0, 1),
        # a = -1: the roots are x = 47, whose y is -21, and x = 3
        ((UNIT, AffineThrustModel(5.0, 2.0), 0.0, 4.0, 5.0), -1.0, 2),
        (BOX_FLOOR_REQUEST, -1.0, 1),
    ], ids=["identical", "a-positive", "a-negative", "box-floor"])
    def test_the_box_is_checked_once_per_candidate_tried(self, monkeypatch, request_, sign, calls):
        fwd, bwd, nu_bar, force, sigma_des = request_
        dr, trim = DualRotor(fwd, bwd), TrimPoint(nu_bar, force)
        expected, a, _ = reference_allocate(dr, trim, sigma_des)
        assert math.copysign(1.0, a) * (a != 0.0) == sign
        checks = []

        def counted(box, u):
            checks.append(u)
            return inside(box, u)

        monkeypatch.setattr(dual_rotor, "inside", counted)
        result = allocate(dr, trim, sigma_des)
        assert len(checks) == calls
        assert result == expected and expected.feasible


FLOOR_BOX = ((1.0, math.inf), (1.0, math.inf))
# the sign of each row's trims, as a factor: +, -, +0.0 and -0.0
TRIM_SIGNS = np.array([1.0, -1.0, 0.0, -0.0])
CHANNEL_FNS = ("output_fn", "output_sensitivity_fn", "passive_coeff_fn", "inverse_fn")


def trim_batch(symmetric, m=6, seed=29):
    """m rotor pairs with coefficients of shape (m, 1, 1), each at four trims
    (nu_bar of shape (m, 4)) signed as TRIM_SIGNS, within 90 % of the
    monotone-regime bound; and the scalar dual rotor of each pair. A
    symmetric pair shares one model, as DualRotor.identical does."""
    rng = np.random.default_rng(seed)
    k_thrust, k_inflow = rng.uniform(0.1, 2.0, (2, 2, m))

    def models(pick):
        fwd = AffineThrustModel(pick(k_thrust[0]), pick(k_inflow[0]))
        return (fwd, fwd) if symmetric else (fwd, AffineThrustModel(pick(k_thrust[1]), pick(k_inflow[1])))

    dr = DualRotor(*models(lambda k: k[:, None, None]), speed_box=FLOOR_BOX)
    cap = np.minimum(monotone_regime_bound(dr.rotor_fwd, 1.0), monotone_regime_bound(dr.rotor_bwd, 1.0))
    nu_bar = 0.9 * cap[:, :, 0] * rng.uniform(0.1, 1.0, (m, 4)) * TRIM_SIGNS
    singles = [DualRotor(*models(lambda k: k[i].item()), speed_box=FLOOR_BOX) for i in range(m)]
    return dr, nu_bar, singles


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("symmetric", [True, False], ids=["identical", "distinct"])
class TestTrimBridgeBatches:
    def test_every_channel_entry_equals_the_scalar_bridge(self, symmetric):
        dr, nu_bar, singles = trim_batch(symmetric)
        rng = np.random.default_rng(3)
        v = rng.uniform(1.5, 10.0, nu_bar.shape + (30,))
        # targets on both sides of zero: a thrust with no root is NaN in both
        y = rng.uniform(-20.0, 60.0, nu_bar.shape + (30,))
        batch = as_antagonistic_at_trim(dr, nu_bar[..., None])
        for i, single in enumerate(singles):
            for j, nu in enumerate(nu_bar[i].tolist()):
                alone = as_antagonistic_at_trim(single, nu)
                for side in ("channel_plus", "channel_minus"):
                    for name in CHANNEL_FNS:
                        x = y if name == "inverse_fn" else v
                        with np.errstate(invalid="ignore", divide="ignore"):
                            many = getattr(getattr(batch, side), name)(x)
                            one = getattr(getattr(alone, side), name)(x[i, j])
                        many = np.broadcast_to(many, x.shape)[i, j]
                        assert np.array_equal(many, one, equal_nan=True), (side, name, i, j)

    def test_fiber_batch_equals_its_single_traces_bit_for_bit(self, symmetric):
        dr, nu_bar, singles = trim_batch(symmetric)
        rng = np.random.default_rng(7)
        starts = rng.uniform(2.0, 4.0, nu_bar.shape + (2,))
        ends = starts[..., 0] + rng.uniform(1.0, 3.0, nu_bar.shape)
        act = as_antagonistic_at_trim(dr, nu_bar[..., None])
        path = trace_fiber(act, (starts[..., 0], starts[..., 1]), ends, 40)
        sweep = monotonicity_sweep(act, path, "passive")
        assert sweep.is_strictly_increasing.all()
        for i, single in enumerate(singles):
            for j, nu in enumerate(nu_bar[i].tolist()):
                alone = as_antagonistic_at_trim(single, nu)
                one = trace_fiber(alone, tuple(starts[i, j].tolist()), ends[i, j].item(), 40)
                assert one.level == path.level[i, j]
                assert np.array_equal(one.points, path.points[i, j])
                assert np.array_equal(one.residuals, path.residuals[i, j])
                report = monotonicity_sweep(alone, one, "passive")
                assert np.array_equal(report.values, sweep.values[i, j])
                assert report.is_strictly_increasing == sweep.is_strictly_increasing[i, j]
                assert report.min_increment == sweep.min_increment[i, j]

    @pytest.mark.parametrize(
        "first, later",
        [("forward", "forward"), ("backward", "backward"), ("backward", "forward"),
         ("nan", "forward"), ("forward", "nan")],
        ids=["forward", "backward", "backward-then-forward", "nan-then-forward",
             "forward-then-nan"],
    )
    def test_a_violating_entry_raises_its_scalar_message(self, symmetric, first, later):
        dr, nu_bar, singles = trim_batch(symmetric)

        def violating(kind, i, scale):
            if kind == "nan":
                return math.nan
            sign, rotor = (1.0, dr.rotor_fwd) if kind == "forward" else (-1.0, dr.rotor_bwd)
            return sign * scale * monotone_regime_bound(rotor, 1.0)[i, 0, 0]

        # entries (2, 1) and (4, 0) violate; (2, 1) comes first in C order
        nu_bar[2, 1], nu_bar[4, 0] = violating(first, 2, 1.5), violating(later, 4, 2.0)
        got = raised(lambda: as_antagonistic_at_trim(dr, nu_bar[..., None]))
        assert got == raised(lambda: as_antagonistic_at_trim(singles[2], nu_bar[2, 1].item()))
        assert got[0] is ValueError
        assert ("must be a number" if first == "nan" else f"on the {first} rotor") in got[1]

    def test_a_float_trim_is_checked_against_every_entry(self, symmetric):
        dr, _, singles = trim_batch(symmetric)
        bound = monotone_regime_bound(dr.rotor_bwd, 1.0)[:, 0, 0]
        nu = -0.5 * (bound.min() + bound.max())
        worst = int(np.argmin(bound))
        assert raised(lambda: as_antagonistic_at_trim(dr, nu)) == raised(
            lambda: as_antagonistic_at_trim(singles[worst], nu))

    def test_an_int_trim_beyond_64_bits_raises_its_scalar_message(self, symmetric):
        # numpy holds 10**30 as a Python int in an object array: reading the
        # refused entry with .item() raised AttributeError
        dr, _, singles = trim_batch(symmetric)
        got = raised(lambda: as_antagonistic_at_trim(dr, 10**30))
        assert got == raised(lambda: as_antagonistic_at_trim(singles[0], 10**30))
        assert got == (ValueError, f"trim inflow {10**30} violates the monotone regime on the forward rotor box")

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "backward"])
    def test_a_float_trim_names_the_side_it_loads(self, symmetric, sign):
        # array coefficients, a float trim that one entry's bound refuses
        dr, _, _ = trim_batch(symmetric)
        side, rotor = ("forward", dr.rotor_fwd) if sign > 0 else ("backward", dr.rotor_bwd)
        nu = sign * 1.01 * monotone_regime_bound(rotor, 1.0).min().item()
        with pytest.raises(ValueError) as info:
            as_antagonistic_at_trim(dr, nu)
        assert str(info.value) == f"trim inflow {nu} violates the monotone regime on the {side} rotor box"
