import dataclasses
import decimal
import json
import math
import tracemalloc
import warnings
from bisect import bisect_right

import numpy as np
import pytest

from vada import dynamics
from vada.aero import AffineThrustModel
from vada.dual_rotor import DualRotor, damping_at_trim, net_force
from vada.dynamics import (
    BodyConfig,
    InputSchedule,
    active_force,
    analytic_response,
    apparent_damping,
    equilibrium_velocity,
    RK4_STABILITY_LIMIT,
    SegmentRecord,
    mode_decomposition,
    simulate,
)

UNIT = AffineThrustModel(k_thrust=1.0, k_inflow=1.0)


def unit_body(mass=1.0, k_thrust=1.0, k_inflow=1.0):
    model = AffineThrustModel(k_thrust=k_thrust, k_inflow=k_inflow)
    return BodyConfig(mass=mass, dual_rotor=DualRotor.identical(model))


def stepwise_simulate(body, schedule, nu0, t_end, dt):
    """Reference RK4: four net_force stages per step, then every sample's
    inputs looked up by time and its force evaluated by net_force."""
    dr, m = body.dual_rotor, body.mass
    times, nus, nu = [0.0], [float(nu0)], float(nu0)
    for a, b, v, f_ext in schedule.segments(t_end):
        n = max(1, math.ceil((b - a) / dt - 1e-12))
        h = (b - a) / n
        for i in range(n):
            k1 = (net_force(dr, v, nu) + f_ext) / m
            k2 = (net_force(dr, v, nu + 0.5 * h * k1) + f_ext) / m
            k3 = (net_force(dr, v, nu + 0.5 * h * k2) + f_ext) / m
            k4 = (net_force(dr, v, nu + h * k3) + f_ext) / m
            nu = nu + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # a + k * h with k a Python int: simulate's float64 step
            # indices must give these times bit for bit
            times.append(a + (i + 1) * h)
            nus.append(nu)
    seg = [bisect_right(schedule.breakpoints, t) for t in times]
    v1 = [schedule.speeds[i][0] for i in seg]
    v2 = [schedule.speeds[i][1] for i in seg]
    f_ext = [schedule.forces[i] for i in seg]
    force = [net_force(dr, (a, b), x) for a, b, x in zip(v1, v2, nus)]
    return times, nus, v1, v2, force, f_ext


class TestImpedanceDecomposition:
    def test_apparent_damping_sum(self):
        assert apparent_damping(unit_body(), (2.0, 3.0)) == 5.0

    def test_apparent_damping_is_trim_damping(self):
        body = unit_body(k_inflow=0.7)
        v = (4.2, 1.1)
        assert abs(apparent_damping(body, v) - damping_at_trim(body.dual_rotor, v, 0.0)) <= 1e-12

    def test_damping_linear_in_common_mode(self):
        body = unit_body(k_inflow=0.7)
        assert apparent_damping(body, (4.0, 6.0)) == pytest.approx(
            2 * apparent_damping(body, (2.0, 3.0)), rel=1e-15
        )

    def test_active_force_values(self):
        body = unit_body()
        assert active_force(body, (2.0, 2.0)) == 0.0
        assert active_force(body, (2.0, 1.0)) == 3.0

    def test_active_force_is_still_air_net_force(self):
        body = unit_body(k_thrust=0.8, k_inflow=0.3)
        v = (5.5, 2.2)
        assert abs(active_force(body, v) - net_force(body.dual_rotor, v, 0.0)) <= 1e-12

    def test_active_force_identity(self):
        # F_act = c_app * nu_eq
        body = unit_body(k_thrust=1.7, k_inflow=0.4)
        v = (6.0, 2.5)
        assert abs(
            active_force(body, v) - apparent_damping(body, v) * equilibrium_velocity(body, v)
        ) <= 1e-12 * max(1.0, abs(active_force(body, v)))


class TestEquilibriumVelocity:
    def test_symmetric_zero(self):
        assert equilibrium_velocity(unit_body(), (3.0, 3.0)) == 0.0

    def test_direct_value(self):
        body = unit_body(k_thrust=2.0, k_inflow=1.0)
        assert equilibrium_velocity(body, (3.0, 1.0)) == pytest.approx(4.0, rel=1e-14)

    def test_net_force_vanishes_at_equilibrium(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            body = unit_body(
                k_thrust=rng.uniform(0.1, 2.0), k_inflow=rng.uniform(0.1, 2.0)
            )
            v = (rng.uniform(1.0, 20.0), rng.uniform(1.0, 20.0))
            nu_eq = equilibrium_velocity(body, v)
            f = net_force(body.dual_rotor, v, nu_eq)
            assert abs(f) <= 1e-12 * max(1.0, abs(active_force(body, v)))


class TestModeDecomposition:
    def test_direct(self):
        assert mode_decomposition((2.0, 1.0)) == (3.0, 1.0)

    def test_reconstruction_exact(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            v = (rng.uniform(0.1, 50.0), rng.uniform(0.1, 50.0))
            s, d = mode_decomposition(v)
            assert (0.5 * (s + d), 0.5 * (s - d)) == pytest.approx(v, rel=1e-15)

    def test_cocontraction_moves_common_mode_only(self):
        body = unit_body(k_thrust=1.4, k_inflow=0.6)
        v = (4.0, 2.0)
        stepped = (4.7, 2.7)
        assert mode_decomposition(stepped)[1] == mode_decomposition(v)[1]
        assert abs(equilibrium_velocity(body, stepped) - equilibrium_velocity(body, v)) <= 1e-12
        assert apparent_damping(body, stepped) > apparent_damping(body, v)

    def test_differential_step_leaves_damping(self):
        body = unit_body(k_thrust=1.4, k_inflow=0.6)
        v = (4.0, 2.0)
        stepped = (4.5, 1.5)
        assert mode_decomposition(stepped)[0] == mode_decomposition(v)[0]
        assert abs(apparent_damping(body, stepped) - apparent_damping(body, v)) <= 1e-12
        assert equilibrium_velocity(body, stepped) != equilibrium_velocity(body, v)


def exact_response(body, v, nu0, f_ext, t):
    """analytic_response from the floats c_app, F_act, f_ext, m, nu0 and t,
    each entry rounded once from decimal. expm1(x) is exp(x) - 1 at 40
    digits beyond x's own exponent: at a fixed 60 digits it rounds to 0
    near x = 1e-150."""
    D = decimal.Decimal
    c, f, m = D(float(apparent_damping(body, v))), D(float(active_force(body, v))), D(body.mass)
    out = []
    with decimal.localcontext(prec=60):
        nu_inf = (f + D(f_ext)) / c
        for time in t.tolist():
            x = -c * D(time) / m
            with decimal.localcontext(prec=40 + max(0, -x.adjusted())):
                expm1 = x.exp() - 1
            out.append(float(D(nu0) + (D(nu0) - nu_inf) * expm1))
    return np.array(out)


class TestAnalyticResponse:
    def test_initial_value(self):
        body = unit_body()
        assert analytic_response(body, (2.0, 1.0), 0.3, 0.0, 0.0) == pytest.approx(0.3, rel=1e-15)

    def test_settles_to_forced_equilibrium(self):
        body = unit_body()
        v = (2.0, 1.0)
        f_ext = 0.6
        nu_inf = equilibrium_velocity(body, v) + f_ext / apparent_damping(body, v)
        tau = body.mass / apparent_damping(body, v)
        assert analytic_response(body, v, 0.0, f_ext, 10 * tau) == pytest.approx(
            nu_inf, abs=1e-4
        )

    def test_time_constant(self):
        body = unit_body(mass=1.3)
        v = (3.0, 1.0)
        c_app = apparent_damping(body, v)
        nu_inf = equilibrium_velocity(body, v)
        nu0 = nu_inf + 2.0
        val = analytic_response(body, v, nu0, 0.0, body.mass / c_app)
        assert val - nu_inf == pytest.approx((nu0 - nu_inf) / math.e, rel=1e-12)


    def test_array_of_times_matches_pointwise(self):
        body = unit_body(mass=1.3)
        v = (3.0, 1.0)
        t = np.linspace(0.0, 2.0, 101)
        batch = analytic_response(body, v, 0.4, -0.2, t)
        pointwise = [analytic_response(body, v, 0.4, -0.2, x) for x in t.tolist()]
        # numpy's vectorised exp may round differently from a scalar call
        np.testing.assert_allclose(batch, pointwise, rtol=1e-15, atol=1e-16)

    def test_array_speeds_match_pointwise(self):
        body = unit_body(mass=0.8, k_thrust=0.6, k_inflow=1.4)
        v = np.random.default_rng(47).uniform(1.0, 5.0, (2, 50))
        for fn in (apparent_damping, active_force, equilibrium_velocity):
            assert fn(body, v).tolist() == [fn(body, u) for u in v.T.tolist()]
        batch = analytic_response(body, v, 0.4, -0.2, 0.7)
        pointwise = [analytic_response(body, u, 0.4, -0.2, 0.7) for u in v.T.tolist()]
        np.testing.assert_allclose(batch, pointwise, rtol=1e-15, atol=1e-16)

    def test_within_its_error_bound_of_the_decimal_solution(self):
        # c/m log-uniform from 1e-200 to 40 on distinct rotors, nu0 near
        # nu_inf and far from it, sorted times reaching past 30 time constants.
        # The error is at most C (1 + |x|) eps (|nu0| + |nu|) with C = 4 (the
        # worst of 2,700 draws read 1.96); the one exp form read 4.5e15
        eps = np.finfo(float).eps
        rng = np.random.default_rng(16)
        for i in range(300):
            k_thrust, k_inflow = rng.uniform(0.5, 2.0, (2, 2))
            fwd = AffineThrustModel(k_thrust=k_thrust[0], k_inflow=k_inflow[0])
            bwd = AffineThrustModel(k_thrust=k_thrust[1], k_inflow=k_inflow[1])
            body = BodyConfig(mass=rng.uniform(0.5, 2.0), dual_rotor=DualRotor(fwd, bwd))
            rate, ratio = 10 ** rng.uniform(-200.0, math.log10(40.0)), rng.uniform(0.5, 2.0)
            v1 = rate * body.mass / (k_inflow[0] + k_inflow[1] * ratio)
            v = (v1, v1 * ratio)
            c_app, f_act = apparent_damping(body, v), active_force(body, v)
            # of F_act's sign, so that the two quotients of nu_inf do not cancel
            f_ext = math.copysign(rng.uniform(0.0, 2.0), f_act)
            nu_inf = (f_act + f_ext) / c_app
            nu0 = nu_inf * (1.0 + rng.uniform(-1e-3, 1e-3)) if i % 2 else rng.uniform(-2.0, 2.0)
            tau = body.mass / c_app
            t = np.sort(np.concatenate([[0.0], rng.uniform(0.0, 1.0, 8),
                                        tau * 10 ** rng.uniform(-6.0, 1.5, 8)]))
            nu, want = analytic_response(body, v, nu0, f_ext, t), exact_response(body, v, nu0, f_ext, t)
            x = -c_app * t / body.mass
            assert np.all(np.abs(nu - want) <= 4.0 * (1.0 + np.abs(x)) * eps * (abs(nu0) + np.abs(want)))

    def test_damping_is_computed_once_with_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(28)
        calls = []

        def counted(*args):
            calls.append(None)
            return damping_at_trim(*args)

        t = np.linspace(0.0, 3.0, 31)
        for identical in [True, False] * 100:
            k_thrust, k_inflow = rng.uniform(0.1, 2.0, (2, 2))
            fwd = AffineThrustModel(k_thrust=k_thrust[0], k_inflow=k_inflow[0])
            bwd = fwd if identical else AffineThrustModel(k_thrust=k_thrust[1], k_inflow=k_inflow[1])
            body = BodyConfig(mass=rng.uniform(0.5, 2.0), dual_rotor=DualRotor(fwd, bwd))
            v = tuple(rng.uniform(0.5, 20.0, 2).tolist())
            nu0, f_ext = rng.uniform(-3.0, 3.0, 2).tolist()
            c_app = apparent_damping(body, v)
            nu_inf = equilibrium_velocity(body, v) + f_ext / apparent_damping(body, v)
            # expm1 from nu0 while exp(x) > 1/2, exp from nu_inf after
            x = -c_app * t / body.mass
            expected = np.where(x > -math.log(2.0), nu0 + (nu0 - nu_inf) * np.expm1(x),
                                nu_inf + (nu0 - nu_inf) * np.exp(x))
            monkeypatch.setattr(dynamics, "damping_at_trim", counted)
            calls.clear()
            result = analytic_response(body, v, nu0, f_ext, t)
            monkeypatch.undo()
            assert len(calls) == 1
            assert result.tobytes() == expected.tobytes()


@pytest.mark.parametrize("fn", [
    equilibrium_velocity,
    lambda body, v: analytic_response(body, v, 0.0, 0.0, 1.0),
], ids=["equilibrium_velocity", "analytic_response"])
def test_a_damping_that_underflows_is_refused_at_its_first_entry(fn):
    body = unit_body(k_inflow=1e-300)
    with pytest.raises(ValueError, match=r"speeds \(1e-100, 1e-100\) is 0.0, not positive$"):
        fn(body, (1e-100, 1e-100))
    v = np.array([[2.0, 1e-100, 1e-120], [1.0, 1e-100, 1e-120]])
    with pytest.raises(ValueError, match=r"speeds \(1e-100, 1e-100\) is 0.0, not positive$"):
        fn(body, v)


class TestSimulate:
    def test_equilibrium_is_fixed_point(self):
        body = unit_body()
        v = (2.0, 1.0)
        nu_eq = equilibrium_velocity(body, v)
        traj = simulate(body, InputSchedule.constant(v), nu_eq, 1.0, 1e-3)
        assert max(abs(x - nu_eq) for x in traj.nu) <= 1e-12

    def test_unit_step_response_value(self):
        # m = 1, c_app = 2, nu_eq = 1: nu(1) = 1 - exp(-2), frozen independently
        body = unit_body()
        v = (1.5, 0.5)
        assert apparent_damping(body, v) == 2.0
        assert equilibrium_velocity(body, v) == pytest.approx(1.0, rel=1e-15)
        traj = simulate(body, InputSchedule.constant(v), 0.0, 1.0, 1e-3)
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert traj.nu[-1] == pytest.approx(0.8646647167633873, abs=1e-10)

    def test_external_force_shifts_steady_state(self):
        body = unit_body()
        v = (2.0, 1.0)
        f_ext = 0.8
        nu_inf = equilibrium_velocity(body, v) + f_ext / apparent_damping(body, v)
        tau = body.mass / apparent_damping(body, v)
        traj = simulate(body, InputSchedule.constant(v, f_ext), 0.0, 12 * tau, 1e-3)
        assert traj.nu[-1] == pytest.approx(nu_inf, abs=1e-4)

    def test_matches_analytic_response(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            mass = rng.uniform(0.5, 2.0)
            body = unit_body(mass=mass, k_thrust=rng.uniform(0.5, 2.0))
            decay = rng.uniform(4.0, 8.0)
            s = decay * mass
            d = rng.uniform(-0.5, 0.5) * s
            v = (0.5 * (s + d), 0.5 * (s - d))
            nu0 = rng.uniform(-2.0, 2.0)
            f_ext = rng.uniform(-1.0, 1.0)
            traj = simulate(body, InputSchedule.constant(v, f_ext), nu0, 5.0 / decay, 1e-3)
            err = max(
                abs(x - analytic_response(body, v, nu0, f_ext, t))
                for t, x in zip(traj.times, traj.nu)
            )
            assert err <= 1e-8

    def test_fourth_order_convergence(self):
        body = unit_body()
        v = (4.0, 2.0)  # c_app = 6
        nu0, f_ext, t_end = -1.0, 0.5, 5.0 / 6.0

        def max_err(dt):
            traj = simulate(body, InputSchedule.constant(v, f_ext), nu0, t_end, dt)
            return max(
                abs(x - analytic_response(body, v, nu0, f_ext, t))
                for t, x in zip(traj.times, traj.nu)
            )

        ratio = max_err(1e-3) / max_err(5e-4)
        assert 12.0 <= ratio <= 20.0

    def test_contraction_toward_equilibrium(self):
        body = unit_body()
        v = (3.0, 1.0)
        nu_eq = equilibrium_velocity(body, v)
        traj = simulate(body, InputSchedule.constant(v), nu_eq + 2.5, 2.0, 1e-3)
        gaps = [abs(x - nu_eq) for x in traj.nu]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))

    def test_force_column_recomputes(self):
        body = unit_body()
        schedule = InputSchedule(
            speeds=[(2.0, 1.0), (3.0, 2.0)], forces=[0.0, 0.4], breakpoints=[0.35]
        )
        traj = simulate(body, schedule, 0.0, 1.0, 1e-2)
        for t, x, v1, v2, f in zip(traj.times, traj.nu, traj.v1, traj.v2, traj.force):
            assert abs(f - net_force(body.dual_rotor, (v1, v2), x)) <= 1e-12

    def test_breakpoint_alignment(self):
        # breakpoint not a multiple of dt: a sample must land exactly on it
        body = unit_body()
        schedule = InputSchedule(
            speeds=[(2.0, 1.0), (4.0, 3.0)], forces=[0.0, 0.0], breakpoints=[0.0333]
        )
        traj = simulate(body, schedule, 0.0, 0.1, 1e-2)
        assert any(abs(t - 0.0333) < 1e-15 for t in traj.times)

    def test_piecewise_schedule_segments_match_analytic(self):
        body = unit_body()
        schedule = InputSchedule(
            speeds=[(2.0, 1.0), (3.0, 2.0)], forces=[0.0, 0.0], breakpoints=[0.5]
        )
        traj = simulate(body, schedule, 0.0, 1.0, 1e-3)
        # first segment directly
        for t, x in zip(traj.times, traj.nu):
            if t <= 0.5:
                assert x == pytest.approx(
                    analytic_response(body, (2.0, 1.0), 0.0, 0.0, t), abs=1e-9
                )
        # second segment restarts from the state at the breakpoint
        idx = int(np.argmin(np.abs(traj.times - 0.5)))
        nu_break = traj.nu[idx]
        for t, x in zip(traj.times, traj.nu):
            if t >= 0.5:
                assert x == pytest.approx(
                    analytic_response(body, (3.0, 2.0), nu_break, 0.0, t - 0.5), abs=1e-9
                )

    def test_invalid_steps_rejected(self):
        body = unit_body()
        with pytest.raises(ValueError):
            simulate(body, InputSchedule.constant((2.0, 1.0)), 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            simulate(body, InputSchedule.constant((2.0, 1.0)), 0.0, -1.0, 1e-3)

    @pytest.mark.parametrize(
        "nu0, t_end, name",
        [(math.nan, 1.0, "nu0"), (math.inf, 1.0, "nu0"), (-math.inf, 1.0, "nu0"), (0.0, math.inf, "t_end")],
    )
    def test_non_finite_inputs_rejected(self, nu0, t_end, name):
        # a NaN or infinite nu0 filled the whole trajectory with it, and an
        # infinite t_end raised OverflowError from math.ceil
        with pytest.raises(ValueError, match=f"{name} must be finite, got -?(nan|inf)"):
            simulate(unit_body(), InputSchedule.constant((2.0, 1.0)), nu0, t_end, 1e-2)

    @pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -1e-3])
    def test_dt_must_be_positive_and_finite(self, dt):
        # an infinite dt made every segment one step of its full length, so a
        # heavy body returned a two-sample trajectory with no error
        with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
            simulate(unit_body(mass=100.0), InputSchedule.constant((2.0, 1.0)), 0.0, 1.0, dt)

    def test_step_outside_the_stability_region_is_an_error(self):
        # c_app = 2.5: the stable steps are those with h * 2.5 / m below 2.7853
        m = 1e-3
        body = unit_body(mass=m)
        schedule = InputSchedule.constant((1.5, 1.0))
        largest = RK4_STABILITY_LIMIT * m / 2.5
        with pytest.raises(ValueError, match="largest stable dt there is 0.001114"):
            simulate(body, schedule, 0.0, 0.05, 1e-2)
        # one step each, so that no step is shortened to fit t_end
        beyond = 2.786 * m / 2.5
        with pytest.raises(ValueError, match="stability region"):
            simulate(body, schedule, 0.0, beyond, beyond)
        # a step of the named size still contracts toward nu_eq = 0.5
        traj = simulate(body, schedule, 0.0, largest, largest)
        assert len(traj.nu) == 2 and abs(traj.nu[-1] - 0.5) < 0.5

    @pytest.mark.parametrize(
        "breakpoints, t_end",
        [([0.1, math.nextafter(0.1, 1.0)], 0.2), ([], 1e-300)],
        ids=["breakpoints-one-ulp-apart", "t_end-tiny"],
    )
    def test_a_segment_too_short_to_decay_holds_nu(self, breakpoints, t_end):
        # |z| ~ 1e-17 rounds R(z) to 1: a step that holds nu, which was
        # refused as outside the stability region (with R(z) = 1 >= 1)
        speeds = [(1.5, 1.5), (2.5, 0.5), (1.5, 1.5)][: len(breakpoints) + 1]
        schedule = InputSchedule(speeds=speeds, forces=[0.0] * len(speeds), breakpoints=breakpoints)
        traj = simulate(unit_body(), schedule, 0.25, t_end, 1e-3)
        short = traj.segments[len(breakpoints) // 2]
        assert (short.steps, short.r) == (1, 1.0)
        assert math.isclose(short.time_constant, 1.0 / short.c_app, rel_tol=1e-12)
        assert np.isfinite(traj.nu).all()

    def test_a_step_whose_z_underflows_to_zero_is_an_error(self):
        # h c_app / m = 5e-324 * 3 / 10 rounds to 0: -h / ln R(z) is 0 / 0
        with pytest.raises(ValueError, match="z = -h c_app / m underflows to 0"):
            simulate(unit_body(mass=10.0), InputSchedule.constant((1.5, 1.5)), 0.0, 5e-324, 1e-3)

    @pytest.mark.parametrize("mass", [1.0, 3.0 / 0.7], ids=["unit-mass", "mass-3/0.7"])
    def test_a_step_whose_z_is_subnormal_is_an_error(self, mass):
        # z = -h c_app / m rounds to a multiple of 5e-324: at mass 3/0.7 the
        # time constant -h / ln R(z) read 1.0 where m / c_app is 1.4286
        with pytest.raises(ValueError, match=r"z = -h c_app / m = -\d.*e-32\d is subnormal$"):
            simulate(unit_body(mass=mass), InputSchedule.constant((1.5, 1.5)), 0.0, 5e-324, 1e-3)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            InputSchedule(speeds=[(1.0, 1.0)], forces=[0.0], breakpoints=[0.5])
        with pytest.raises(ValueError):
            InputSchedule(
                speeds=[(1.0, 1.0), (2.0, 2.0)], forces=[0.0, 0.0], breakpoints=[-0.5]
            )

    @pytest.mark.parametrize("force", [math.nan, math.inf, -math.inf])
    def test_non_finite_force_rejected(self, force):
        # accepted, a NaN force gave an all-NaN nu; an infinite one did too, with a RuntimeWarning
        with pytest.raises(ValueError, match="forces must be finite"):
            InputSchedule.constant((2.0, 1.0), force)
        with pytest.raises(ValueError, match="forces must be finite"):
            InputSchedule(speeds=[(2.0, 1.0), (3.0, 2.0)], forces=[0.5, force], breakpoints=[0.5])

    def test_breakpoints_must_increase(self):
        speeds, forces = [(1.0, 1.0)] * 3, [0.0] * 3
        InputSchedule(speeds=speeds, forces=forces, breakpoints=[0.5, 1.5])
        for breakpoints in ([1.5, 0.5], [1.0, 1.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                InputSchedule(speeds=speeds, forces=forces, breakpoints=breakpoints)

    @pytest.mark.parametrize("breakpoints", [[], [0.3], [0.3, 0.6]], ids=["none", "one", "two"])
    def test_breakpoint_arrays_simulate_as_their_lists(self, breakpoints):
        # an array of two or more was refused by its truth value, an empty one too
        n = len(breakpoints) + 1
        speeds, forces = [(2.0, 1.0), (3.0, 2.0), (2.5, 1.5)][:n], [0.0, 0.4, -0.2][:n]
        runs = [simulate(unit_body(), InputSchedule(speeds=speeds, forces=forces, breakpoints=b),
                         0.1, 1.0, 0.01)
                for b in (breakpoints, np.array(breakpoints, dtype=float))]
        for name in ("times", "nu", "v1", "v2", "f_ext", "force"):
            assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name)), name
        assert runs[0].segments == runs[1].segments

    @pytest.mark.parametrize("breakpoints", [[0.5, math.nan], [math.nan, 0.5], [math.nan]])
    def test_nan_breakpoint_rejected(self, breakpoints):
        # a NaN compares false both ways: accepted, it dropped every segment after it
        n = len(breakpoints) + 1
        with pytest.raises(ValueError, match="breakpoints"):
            InputSchedule(speeds=[(1.0, 1.0)] * n, forces=[0.0] * n, breakpoints=breakpoints)

    def test_segments_clip_at_t_end(self):
        schedule = InputSchedule(
            speeds=[(2.0, 1.0), (3.0, 1.0), (4.0, 1.0)], forces=[0.1, 0.2, 0.3],
            breakpoints=[0.4, 2.0],
        )
        assert list(schedule.segments(1.0)) == [
            (0.0, 0.4, (2.0, 1.0), 0.1),
            (0.4, 1.0, (3.0, 1.0), 0.2),
        ]
        assert list(schedule.segments(0.4))[-1] == (0.0, 0.4, (2.0, 1.0), 0.1)

    def test_out_of_box_speeds_rejected(self):
        body = BodyConfig(mass=1.0, dual_rotor=DualRotor.identical(UNIT, ((1.0, 5.0), (1.0, 5.0))))
        schedule = InputSchedule(
            speeds=[(2.0, 2.0), (6.0, 2.0)], forces=[0.0, 0.0], breakpoints=[0.5]
        )
        with pytest.raises(ValueError, match="outside admissible box"):
            simulate(body, schedule, 0.0, 1.0, 1e-2)
        # a segment that starts after t_end is never simulated
        assert simulate(body, schedule, 0.0, 0.4, 1e-2).times[-1] == pytest.approx(0.4)

    def test_breakpoint_at_t_end_reports_the_next_inputs(self):
        # the last sample, at t = 1.0, is in force of the second segment
        body = unit_body()
        schedule = InputSchedule(
            speeds=[(2.0, 1.0), (3.0, 2.0)], forces=[0.0, 0.5], breakpoints=[1.0]
        )
        traj = simulate(body, schedule, 0.0, 1.0, 0.1)
        times, nus, v1, v2, force, f_ext = stepwise_simulate(body, schedule, 0.0, 1.0, 0.1)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.v1, v1) and np.array_equal(traj.v2, v2)
        assert np.array_equal(traj.f_ext, f_ext)
        np.testing.assert_allclose(traj.nu, nus, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(traj.force, force, rtol=1e-12, atol=1e-12)
        assert (traj.v1[-1], traj.v2[-1], traj.f_ext[-1]) == (3.0, 2.0, 0.5)
        assert traj.force[-1] == pytest.approx(0.2490001332501759, rel=1e-12)

    def test_breakpoint_at_t_end_checks_the_next_speeds(self):
        body = BodyConfig(
            mass=1.0, dual_rotor=DualRotor.identical(UNIT, ((0.5, 10.0), (0.5, 10.0)))
        )
        schedule = InputSchedule(
            speeds=[(2.0, 1.0), (30.0, 2.0)], forces=[0.0, 0.5], breakpoints=[1.0]
        )
        with pytest.raises(ValueError, match=r"speeds \(30.0, 2.0\) outside admissible box"):
            simulate(body, schedule, 0.0, 1.0, 0.1)
        # a breakpoint past the last sample is never reached
        assert simulate(body, schedule, 0.0, 0.95, 0.1).v1[-1] == 2.0

    def test_breakpoint_at_t_end_refuses_the_next_damping_underflow(self):
        # k_D 1e-300 at speeds 1e-100: c_app underflows to 0 in the last
        # sample's segment, which an integrated segment refuses as well
        body = unit_body(k_inflow=1e-300)
        schedule = InputSchedule(
            speeds=[(2.0, 1.0), (1e-100, 1e-100)], forces=[0.0, 0.0], breakpoints=[1.0]
        )
        message = r"apparent damping at speeds \(1e-100, 1e-100\) is 0.0, not positive"
        with pytest.raises(ValueError, match=message):
            simulate(body, schedule, 0.0, 1.0, 0.1)
        with pytest.raises(ValueError, match=message):
            simulate(body, schedule, 0.0, 1.1, 0.1)
        assert simulate(body, schedule, 0.0, 0.95, 0.1).segments[-1].c_app == 3e-300


class TestStepwiseOracle:
    """The closed-form recurrence against generic stepwise RK4."""

    @staticmethod
    def random_case(rng):
        segments = int(rng.integers(1, 5))
        t_end = rng.uniform(0.05, 0.5)
        dt = rng.uniform(2e-4, 2e-3)
        # off-grid breakpoints, some possibly past t_end
        breakpoints = np.sort(rng.uniform(0.0, 1.2 * t_end, segments - 1)).tolist()
        if segments >= 3 and rng.uniform() < 0.5:
            # a segment shorter than one step
            first = rng.uniform(0.1, 0.6) * t_end
            breakpoints[:2] = [first, first + 0.3 * dt]
            breakpoints[2:] = np.sort(rng.uniform(breakpoints[1], 1.2 * t_end, segments - 3)).tolist()
        if segments >= 2 and rng.uniform() < 0.3:
            # the last sample lands on a breakpoint, or just before it
            breakpoints[-1] = t_end
        fwd = AffineThrustModel(k_thrust=rng.uniform(0.5, 2.0), k_inflow=rng.uniform(0.5, 2.0))
        bwd = AffineThrustModel(k_thrust=rng.uniform(0.5, 2.0), k_inflow=rng.uniform(0.5, 2.0))
        body = BodyConfig(mass=rng.uniform(0.5, 2.0), dual_rotor=DualRotor(fwd, bwd))
        schedule = InputSchedule(
            speeds=[tuple(v) for v in rng.uniform(1.0, 5.0, (segments, 2)).tolist()],
            forces=rng.uniform(-1.0, 1.0, segments).tolist(),
            breakpoints=[float(b) for b in breakpoints],
        )
        return body, schedule, rng.uniform(-2.0, 2.0), t_end, dt

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_stepwise_rk4(self, seed):
        body, schedule, nu0, t_end, dt = self.random_case(np.random.default_rng(seed))
        traj = simulate(body, schedule, nu0, t_end, dt)
        times, nus, v1, v2, force, f_ext = stepwise_simulate(body, schedule, nu0, t_end, dt)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.v1, v1) and np.array_equal(traj.v2, v2)
        assert np.array_equal(traj.f_ext, f_ext)
        for got, want in ((traj.nu, nus), (traj.force, force)):
            assert len(got) == len(want)
            assert all(abs(x - y) <= 1e-12 * max(1.0, abs(y)) for x, y in zip(got, want))

    @pytest.mark.parametrize(
        "schedule",
        [InputSchedule.constant((s, s), 1.0) for s in (1e-4, 1e-6, 1e-9, 1e-12, 1e-15, 1e-200)]
        + [InputSchedule(speeds=[(1e-9, 1e-9), (1e-6, 1e-6), (1e-200, 1e-200), (1.5, 0.5)],
                         forces=[1.0, -1.0, 0.5, 0.2], breakpoints=[0.3, 0.55, 0.8])],
        ids=["speeds-1e-4", "speeds-1e-6", "speeds-1e-9", "speeds-1e-12", "speeds-1e-15",
             "speeds-1e-200", "four-segments"],
    )
    def test_small_damping_matches_stepwise_rk4(self, schedule):
        # nu_inf = 1 / c_app is large: the power of a rounded R(z) missed by
        # 1.1e-10 at speeds 1e-4, and held nu at 0.0 below 1e-15 while the
        # force drove it to 1.0
        traj = simulate(unit_body(), schedule, 0.0, 1.0, 1e-3)
        times, nus, *_ = stepwise_simulate(unit_body(), schedule, 0.0, 1.0, 1e-3)
        assert np.array_equal(traj.times, times)
        assert all(abs(x - y) <= 1e-12 * max(1.0, abs(y)) for x, y in zip(traj.nu, nus))
        if not schedule.breakpoints:
            # one segment: the exact solution, which cancelled as simulate did
            exact = analytic_response(unit_body(), schedule.speeds[0], 0.0, schedule.forces[0],
                                      traj.times)
            assert all(abs(x - y) <= 1e-12 * max(1.0, abs(y)) for x, y in zip(traj.nu, exact))

    def test_cases_cover_the_edge_segments(self):
        past_end = at_end = short = 0
        for seed in range(12):
            _, schedule, _, t_end, dt = self.random_case(np.random.default_rng(seed))
            edges = [0.0, *schedule.breakpoints]
            past_end += any(b > t_end for b in schedule.breakpoints)
            at_end += t_end in schedule.breakpoints
            short += any(0.0 < b - a < dt for a, b in zip(edges, edges[1:]) if b < t_end)
        assert past_end >= 2 and at_end >= 2 and short >= 2


class TestTrajectoryOutput:
    def test_columns_are_float_arrays_of_one_length(self):
        body = unit_body()
        schedule = InputSchedule(
            speeds=[(2.0, 1.0), (3.0, 2.0)], forces=[0.0, 0.4], breakpoints=[0.35]
        )
        traj = simulate(body, schedule, 0.0, 1.0, 1e-2)
        columns = (traj.times, traj.nu, traj.v1, traj.v2, traj.force, traj.f_ext)
        for column in columns:
            assert isinstance(column, np.ndarray) and column.dtype == np.float64
            assert column.shape == traj.times.shape == (101,)
        assert type(traj.dt) is float


class TestSegmentTable:
    SCHEDULE = InputSchedule(speeds=[(2.0, 1.0), (3.0, 2.0)], forces=[0.0, 0.4], breakpoints=[0.35])

    def test_fixed_diagnostics(self):
        traj = simulate(unit_body(), self.SCHEDULE, 0.0, 1.0, 1e-2)
        first, second = traj.segments
        # the sample at the breakpoint opens the second segment
        assert (first.samples, first.steps, second.samples, second.steps) == (35, 35, 66, 65)
        assert (first.speeds, first.f_ext, first.c_app, first.f_act) == ((2.0, 1.0), 0.0, 3.0, 3.0)
        assert (second.speeds, second.f_ext, second.c_app, second.f_act) == ((3.0, 2.0), 0.4, 5.0, 5.0)
        for record, z in ((first, -0.03), (second, -0.05)):
            assert record.h == pytest.approx(1e-2, rel=1e-14) and not record.shortened
            assert record.z == pytest.approx(z, rel=1e-14)
            assert record.r == pytest.approx(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24, rel=1e-15)
            assert record.r == pytest.approx(math.exp(z), rel=1e-8)

    def test_deterministic(self):
        runs = [simulate(unit_body(), self.SCHEDULE, 0.0, 1.0, 1e-2) for _ in range(2)]
        assert runs[0].segments == runs[1].segments
        assert all(isinstance(s, SegmentRecord) for s in runs[0].segments)

    def test_shortened_steps(self):
        schedule = InputSchedule(
            speeds=[(2.0, 1.0), (4.0, 3.0)], forces=[0.0, 0.0], breakpoints=[0.0333]
        )
        traj = simulate(unit_body(), schedule, 0.0, 0.1, 1e-2)
        first, second = traj.segments
        assert (first.steps, second.steps) == (4, 7)
        assert first.shortened and second.shortened
        assert first.h == pytest.approx(0.0333 / 4, rel=1e-14)
        assert second.h == pytest.approx((0.1 - 0.0333) / 7, rel=1e-14)

    def test_numpy_breakpoints_and_dt_give_records_that_serialize(self):
        # h < dt of numpy floats is a numpy.bool_, which json cannot write
        schedule = InputSchedule(
            speeds=[(2.0, 1.0), (4.0, 3.0)], forces=[0.0, 0.0], breakpoints=np.array([0.0333])
        )
        traj = simulate(unit_body(), schedule, 0.0, 0.1, np.float64(1e-2))
        assert [type(record.shortened) for record in traj.segments] == [bool, bool]
        json.dumps([dataclasses.asdict(record) for record in traj.segments])

    def test_sample_counts_cover_the_trajectory(self):
        for seed in range(12):
            body, schedule, nu0, t_end, dt = TestStepwiseOracle.random_case(np.random.default_rng(seed))
            traj = simulate(body, schedule, nu0, t_end, dt)
            assert sum(s.samples for s in traj.segments) == len(traj.times)
            assert 1 + sum(s.steps for s in traj.segments) == len(traj.times)

    def test_time_constant_exceeds_the_model_by_z4_over_120(self):
        # ln R(z) = z - z^5/120 + O(z^6), so -h / ln R(z) = (m / c_app)(1 + z^4/120 + ...);
        # below |z| = 1e-2, ln(r) in place of log1p would miss by up to eps/|z| relative
        rng = np.random.default_rng(41)
        for _ in range(300):
            mass, speeds = rng.uniform(0.5, 2.0), tuple(rng.uniform(1.0, 5.0, 2))
            body = unit_body(mass=mass, k_thrust=rng.uniform(0.5, 2.0), k_inflow=rng.uniform(0.5, 2.0))
            dt = 10 ** rng.uniform(-2.69, -1.31) * mass / apparent_damping(body, speeds)
            (record,) = simulate(body, InputSchedule.constant(speeds), 0.0, 7 * dt, dt).segments
            assert 2e-3 <= -record.z <= 5e-2
            tau_model = mass / record.c_app
            deviation = (record.time_constant - tau_model) / tau_model
            assert 0.9 <= deviation / (record.z**4 / 120) <= 1.1

    def test_time_constant_of_every_record(self):
        traj = simulate(unit_body(), self.SCHEDULE, 0.0, 1.0, 1e-2)
        for record in traj.segments:
            assert record.time_constant == pytest.approx(-record.h / math.log(record.r), rel=1e-12)
        # a segment holding the last sample with 0 steps has none
        schedule = InputSchedule(speeds=[(2.0, 1.0), (3.0, 2.0)], forces=[0.0, 0.5], breakpoints=[1.0])
        last = simulate(unit_body(), schedule, 0.0, 1.0, 0.1).segments[-1]
        assert last.steps == 0 and math.isnan(last.time_constant)

    def test_columns_are_built_once(self):
        traj = simulate(unit_body(), self.SCHEDULE, 0.0, 1.0, 1e-2)
        for name in ("v1", "v2", "f_ext", "force"):
            assert getattr(traj, name) is getattr(traj, name)


def test_long_decay_through_underflow_within_one_ulp():
    # z = -1.6, r = R(z) = 0.2704: r**k turns subnormal near k = 541 and
    # underflows to 0 near k = 569; nu_inf = 0, so nu is (nu0) r**k itself
    mass, c_app, steps = 1.0, 3.0, 20_000
    dt = 1.6 * mass / c_app
    schedule = InputSchedule.constant((2.0, 1.0), f_ext=-3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate(unit_body(mass=mass), schedule, 1.5, steps * dt, dt)
    (record,) = traj.segments
    assert record.steps >= steps and record.z == pytest.approx(-1.6, rel=1e-12)
    assert record.r == pytest.approx(0.2704, rel=1e-12)
    nu_inf, nu_a = (record.f_act + record.f_ext) / record.c_app, 1.5
    assert nu_inf == 0.0
    ks = [1, 2, 10, 100, 500, *range(530, 580), 1000, 19_999, record.steps]
    want = np.array([nu_inf + (nu_a - nu_inf) * record.r**k for k in ks])
    assert np.all(np.abs(traj.nu[ks] - want) <= np.spacing(np.abs(want)))
    tiny = np.finfo(float).tiny
    assert np.any((want > 0.0) & (want < tiny)) and np.any(want == 0.0)


def exact_decay(z, steps, nu_a, nu_inf):
    """nu_inf + (nu_a - nu_inf) R(z)^k for k = 1..steps, rounded once from
    50-digit decimal, with R(z) taken exactly from the float z; and ln R(z)."""
    with decimal.localcontext(prec=50):
        z, base = decimal.Decimal(z), decimal.Decimal(nu_inf)
        r = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        scale, power, out = decimal.Decimal(nu_a) - base, 1, []
        for _ in range(steps):
            power *= r
            out.append(float(base + scale * power))
        return np.array(out), float(r.ln())


@pytest.mark.parametrize("z", [-1e-6, -1e-4, -1e-2, -0.1, -0.3, -0.45])
def test_decay_within_its_error_bound_of_the_exact_power(z):
    # k ln R(z) carries a few eps relative, which exp turns into
    # k |ln R(z)| eps of R(z)^k; rounding R(z) itself cost k eps/2
    eps = np.finfo(float).eps
    for nu_a, f_ext in ((1.0, 2.5), (0.3, 2e6)):  # nu_inf = f_ext / 2: near nu_a, far above it
        traj = simulate(unit_body(), InputSchedule.constant((1.0, 1.0), f_ext), nu_a, 20_000 * -z / 2, -z / 2)
        (record,) = traj.segments
        nu_inf = (record.f_act + record.f_ext) / record.c_app
        assert record.steps >= 20_000 and record.z == pytest.approx(z, rel=1e-12)
        want, rate = exact_decay(record.z, record.steps, nu_a, nu_inf)
        k = np.arange(1.0, record.steps + 1)
        bound = (4.0 + 2.0 * k * abs(rate)) * eps * max(abs(nu_a), abs(nu_inf))
        assert np.all(np.abs(traj.nu[1:] - want) <= bound)
        if z == -1e-6 and nu_inf > 1e3:
            # the bound is sharp enough to refuse the power of the rounded R(z)
            assert np.any(np.abs(nu_inf + (nu_a - nu_inf) * record.r**k - want) > 100 * bound)


def test_simulate_allocates_only_its_samples():
    # times, nu and one step-index array: the input and force columns wait
    # until they are read
    body = BodyConfig(
        mass=1.2,
        dual_rotor=DualRotor(
            AffineThrustModel(k_thrust=1.1, k_inflow=0.9), AffineThrustModel(k_thrust=0.8, k_inflow=1.3)
        ),
    )
    schedule = InputSchedule(
        speeds=[(2.0, 1.0), (3.0, 2.5), (4.0, 1.5), (2.5, 3.0)],
        forces=[0.1, -0.2, 0.3, 0.0],
        breakpoints=[0.37, 0.9, 1.41],
    )
    tracemalloc.start()
    try:
        traj = simulate(body, schedule, 0.3, 2.0, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 20_001
    assert peak <= 3.5 * traj.times.nbytes
