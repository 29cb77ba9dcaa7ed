import csv
import math
import tracemalloc
import warnings
from bisect import bisect_right

import numpy as np
import pytest

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

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            InputSchedule(speeds=[(1.0, 1.0)], forces=[0.0], breakpoints=[0.5])
        with pytest.raises(ValueError):
            InputSchedule(
                speeds=[(1.0, 1.0), (2.0, 2.0)], forces=[0.0, 0.0], breakpoints=[-0.5]
            )

    def test_breakpoints_must_increase(self):
        speeds, forces = [(1.0, 1.0)] * 3, [0.0] * 3
        InputSchedule(speeds=speeds, forces=forces, breakpoints=[0.5, 1.5])
        for breakpoints in ([1.5, 0.5], [1.0, 1.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                InputSchedule(speeds=speeds, forces=forces, breakpoints=breakpoints)

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

    def test_csv_roundtrip(self, tmp_path):
        body = unit_body()
        traj = simulate(body, InputSchedule.constant((2.0, 1.0)), 0.0, 0.1, 1e-2)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(traj.times)
        for row, t, x, f in zip(rows, traj.times, traj.nu, traj.force):
            assert float(row["t"]) == t
            assert float(row["nu"]) == x
            assert float(row["F"]) == f


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

    def test_sample_counts_cover_the_trajectory(self):
        for seed in range(12):
            body, schedule, nu0, t_end, dt = TestStepwiseOracle.random_case(np.random.default_rng(seed))
            traj = simulate(body, schedule, nu0, t_end, dt)
            assert sum(s.samples for s in traj.segments) == len(traj.times)
            assert 1 + sum(s.steps for s in traj.segments) == len(traj.times)

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
