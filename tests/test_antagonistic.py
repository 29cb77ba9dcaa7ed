import dataclasses
import math
import warnings

import numpy as np
import pytest

from vada.aero import AffineThrustModel
from vada.antagonistic import (
    FIBER_TOLERANCE,
    AntagonisticActuator,
    ChannelLaw,
    ConvergenceError,
    FiberPath,
    RelationReport,
    SweepReport,
    fiber_tangent,
    monotonicity_sweep,
    passive_coefficient,
    passive_promptness_relation,
    promptness,
    task_output,
    trace_fiber,
)
from vada.dual_rotor import DualRotor, as_antagonistic_at_trim
from vada.vsa import TendonLaw, VsaConfig, as_antagonistic

FD_H = 1e-5
# what the sweeps and the relation say to a path trace_fiber did not trace on their actuator
UNTRACED = "sweep a path that trace_fiber traced on this actuator"


def quadratic_channel(k=1.0):
    """h = k u^2 / 2, p = k u: the canonical hardening channel."""
    return ChannelLaw(
        output_fn=lambda u: 0.5 * k * u * u,
        output_sensitivity_fn=lambda u: k * u,
        passive_coeff_fn=lambda u: k * u,
        inverse_fn=lambda y: np.sqrt(2.0 * y / k),
    )


def exponential_channel(k=1.0):
    return ChannelLaw(
        output_fn=lambda u: k * np.exp(u) - k,
        output_sensitivity_fn=lambda u: k * np.exp(u),
        passive_coeff_fn=lambda u: k * np.exp(u),
        inverse_fn=lambda y: np.log1p(y / k),
    )


def cubic_channel(k=1.0):
    return ChannelLaw(
        output_fn=lambda u: k * (u + u ** 3 / 3.0),
        output_sensitivity_fn=lambda u: k * (1.0 + u * u),
        passive_coeff_fn=lambda u: k * (1.0 + u * u),
        inverse_fn=TendonLaw.cubic(k).r_inverse,
    )


def constant_passive_channel(k=1.0):
    """Hardening violated: passive coefficient independent of the command."""
    return ChannelLaw(
        output_fn=lambda u: 0.5 * k * u * u,
        output_sensitivity_fn=lambda u: k * u,
        passive_coeff_fn=lambda u: k,
        inverse_fn=lambda y: np.sqrt(2.0 * y / k),
    )


def symmetric_actuator(make_channel=quadratic_channel, **kwargs):
    return AntagonisticActuator(
        channel_plus=make_channel(**kwargs), channel_minus=make_channel(**kwargs)
    )


CHANNEL_FAMILIES = [quadratic_channel, exponential_channel, cubic_channel]


class TestTaskOutput:
    def test_symmetric_zero(self):
        act = symmetric_actuator()
        assert task_output(act, (2.3, 2.3)) == 0.0

    def test_quadratic_example(self):
        act = symmetric_actuator()
        assert task_output(act, (3.0, 1.0)) == 4.0

    def test_swap_negates(self):
        act = symmetric_actuator(cubic_channel)
        assert task_output(act, (1.0, 2.5)) == -task_output(act, (2.5, 1.0))

    def test_out_of_box_rejected(self):
        act = AntagonisticActuator(
            channel_plus=quadratic_channel(),
            channel_minus=quadratic_channel(),
            admissible_box=((1.0, 5.0), (1.0, 5.0)),
        )
        with pytest.raises(ValueError):
            task_output(act, (0.5, 2.0))


class TestPassiveCoefficient:
    def test_linear_hardening_sum(self):
        act = symmetric_actuator()
        assert passive_coefficient(act, (2.0, 2.0)) == 4.0
        # same sum, different fiber point
        assert passive_coefficient(act, (1.0, 3.0)) == 4.0

    def test_positive_on_random_grid(self):
        rng = np.random.default_rng(3)
        for make in CHANNEL_FAMILIES:
            act = symmetric_actuator(make)
            for _ in range(50):
                u = rng.uniform(0.1, 5.0, size=2)
                assert passive_coefficient(act, u) > 0.0


class TestPromptness:
    def test_pythagorean_example(self):
        # g(u) = 2u from h = u^2
        act = symmetric_actuator(quadratic_channel, k=2.0)
        assert promptness(act, (3.0, 4.0)) == pytest.approx(10.0, rel=1e-15)

    def test_constant_gradient(self):
        g = 1.7
        const = ChannelLaw(
            output_fn=lambda u: g * u,
            output_sensitivity_fn=lambda u: g,
            passive_coeff_fn=lambda u: 1.0,
            inverse_fn=lambda y: y / g,
        )
        act = AntagonisticActuator(channel_plus=const, channel_minus=const)
        for u in [(0.5, 0.5), (1.0, 9.0), (4.2, 0.1)]:
            assert promptness(act, u) == pytest.approx(g * math.sqrt(2), rel=1e-15)

    def test_quadratic_thrust_form(self):
        k_t = 0.8
        chan = ChannelLaw(
            output_fn=lambda u: k_t * u * u,
            output_sensitivity_fn=lambda u: 2 * k_t * u,
            passive_coeff_fn=lambda u: u,
            inverse_fn=lambda y: np.sqrt(y / k_t),
        )
        act = AntagonisticActuator(channel_plus=chan, channel_minus=chan)
        u = (3.0, 7.0)
        assert promptness(act, u) == pytest.approx(
            2 * k_t * math.hypot(*u), rel=1e-14
        )


class TestFiberTangent:
    def test_symmetric_unity(self):
        act = symmetric_actuator(exponential_channel)
        assert fiber_tangent(act, (1.3, 1.3)) == pytest.approx(1.0, rel=1e-15)

    def test_quadratic_ratio(self):
        act = symmetric_actuator(quadratic_channel, k=2.0)
        assert fiber_tangent(act, (4.0, 2.0)) == pytest.approx(2.0, rel=1e-15)

    def test_directional_derivative_vanishes(self):
        act = symmetric_actuator(cubic_channel)
        u = (2.0, 1.5)
        t = fiber_tangent(act, u)
        f_plus = task_output(act, (u[0] + FD_H, u[1] + t * FD_H))
        f_minus = task_output(act, (u[0] - FD_H, u[1] - t * FD_H))
        assert abs((f_plus - f_minus) / (2 * FD_H)) < 1e-9

    def test_positive_on_random_grid(self):
        rng = np.random.default_rng(5)
        for make in CHANNEL_FAMILIES:
            act = symmetric_actuator(make)
            for _ in range(100):
                u = rng.uniform(0.1, 5.0, size=2)
                assert fiber_tangent(act, u) > 0.0

    def test_zero_sensitivity_refused(self):
        # h = u^3 / 3 - u has g = u^2 - 1, zero at u = 1
        flat_at_one = ChannelLaw(
            output_fn=lambda u: u * u * u / 3.0 - u,
            output_sensitivity_fn=lambda u: u * u - 1.0,
            passive_coeff_fn=lambda u: 1.0,
            inverse_fn=lambda y: math.nan,
        )
        act = AntagonisticActuator(channel_plus=quadratic_channel(), channel_minus=flat_at_one)
        with pytest.raises(ValueError) as info:
            fiber_tangent(act, (2.0, 1.0))
        assert str(info.value) == "channel sensitivity must be positive, got g2=0.0 at u2=1.0"


class TestTraceFiber:
    def test_symmetric_fiber_is_diagonal(self):
        act = symmetric_actuator()
        path = trace_fiber(act, (1.5, 1.5), 4.0, 20)
        for u1, u2 in path.points:
            assert u2 == pytest.approx(u1, abs=1e-9)

    def test_analytic_point(self):
        # h = u^2/2, level 4: at u1 = 5, u2 = sqrt(25 - 8) = sqrt(17)
        act = symmetric_actuator()
        path = trace_fiber(act, (3.0, 1.0), 5.0, 21)
        u1, u2 = path.points[-1]
        assert u1 == pytest.approx(5.0, abs=1e-14)
        assert u2 == pytest.approx(4.123105625617661, rel=1e-10)

    def test_residuals_within_tolerance(self):
        for make in CHANNEL_FAMILIES:
            act = symmetric_actuator(make)
            path = trace_fiber(act, (2.0, 0.7), 4.5, 50)
            bound = FIBER_TOLERANCE * max(1.0, abs(path.level))
            assert all(r <= bound for r in path.residuals)
            # recomputed consistency, not just the stored residual
            for u in path.points:
                assert abs(task_output(act, u) - path.level) <= bound

    def test_u1_strictly_increasing(self):
        act = symmetric_actuator(exponential_channel)
        path = trace_fiber(act, (0.5, 0.9), 2.5, 30)
        u1s = [u1 for u1, _ in path.points]
        assert all(b > a for a, b in zip(u1s, u1s[1:]))

    def test_box_violation_is_an_error(self):
        act = AntagonisticActuator(
            channel_plus=quadratic_channel(),
            channel_minus=quadratic_channel(),
            admissible_box=((0.0, math.inf), (0.0, 2.0)),
        )
        # the level-4 fiber needs u2 > 2 once u1 is large enough
        with pytest.raises(ConvergenceError, match="box"):
            trace_fiber(act, (3.0, 1.0), 10.0, 40)

    def test_bad_direction_rejected(self):
        act = symmetric_actuator()
        with pytest.raises(ValueError):
            trace_fiber(act, (3.0, 1.0), 2.0, 10)

    def test_grid_with_repeated_u1_values_rejected(self):
        # a span of one ulp cannot hold 50 distinct u1 values
        act = symmetric_actuator()
        with pytest.raises(ValueError, match="distinct u1 values"):
            trace_fiber(act, (1.0, 1.0), 1.0000000000000002, 50)
        assert len(trace_fiber(act, (1.0, 1.0), 1.0000000000000002, 2).points) == 2

    @pytest.mark.parametrize("call", [
        lambda act: trace_fiber(act, (2.0, 1.0), math.inf, 5),
    ], ids=["trace_fiber"])
    def test_infinite_end_is_a_grid_error(self, call):
        # the grid's first step is 0 * inf; numpy's warning on it must not
        # take the place of the grid's own error
        act = as_antagonistic(VsaConfig(law=TendonLaw.quadratic(1.0), pulley_radius=1.0,
                                        state=(2.0, 1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="distinct u1 values"):
                call(act)

    def test_level_outside_the_float_range_is_an_overflow(self):
        # both outputs overflow at the start: the level is inf - inf
        act = symmetric_actuator(exponential_channel)
        with pytest.raises(OverflowError, match="level"), np.errstate(over="ignore", invalid="ignore"):
            trace_fiber(act, (800.0, 800.0), 801.0, 5)

    def test_target_outside_the_float_range_is_an_overflow(self):
        # exp(u1) passes the largest float at u1 = 709.8, step 8 of this grid
        act = symmetric_actuator(exponential_channel)
        with pytest.raises(OverflowError, match="u1=710.0"), np.errstate(over="ignore"):
            trace_fiber(act, (702.0, 702.0), 712.0, 11)

    @pytest.mark.parametrize("steps", [2.5, True, 1, 1.0, 0, -3, math.nan, math.inf], ids=repr)
    def test_steps_that_is_not_a_whole_number_of_at_least_2_is_refused(self, steps):
        # 2.5 traced three points past u1_end, True a single point
        with pytest.raises(ValueError) as info:
            trace_fiber(symmetric_actuator(), (1.0, 1.0), 2.0, steps)
        assert str(info.value) == f"steps must be a whole number of at least 2, got {steps}"

    def test_a_whole_float_steps_traces_as_its_int(self):
        act = symmetric_actuator(exponential_channel)
        assert np.array_equal(trace_fiber(act, (1.0, 0.5), 2.0, 7.0).points,
                              trace_fiber(act, (1.0, 0.5), 2.0, 7).points)

    def test_start_is_kept_exactly(self):
        for make in CHANNEL_FAMILIES:
            path = trace_fiber(symmetric_actuator(make), (2.0, 0.7), 4.5, 50)
            assert tuple(path.points[0]) == (2.0, 0.7)


class TestMonotonicitySweep:
    def test_hardening_channels_increase(self):
        for make in CHANNEL_FAMILIES:
            act = symmetric_actuator(make)
            path = trace_fiber(act, (1.0, 0.8), 3.0, 40)
            for which in ("passive", "promptness"):
                report = monotonicity_sweep(act, path, which)
                assert report.is_strictly_increasing
                assert report.min_increment > 0.0

    def test_constant_passive_flagged(self):
        act = symmetric_actuator(constant_passive_channel)
        path = trace_fiber(act, (1.0, 0.8), 3.0, 20)
        report = monotonicity_sweep(act, path, "passive")
        # the constant channel's scalar result is broadcast to every point
        assert report.values.tolist() == [2.0] * 20
        assert not report.is_strictly_increasing
        assert report.min_increment == 0.0

    def test_unknown_quantity_rejected(self):
        act = symmetric_actuator()
        path = trace_fiber(act, (1.0, 1.0), 2.0, 5)
        with pytest.raises(ValueError):
            monotonicity_sweep(act, path, "stiffness")

    # passive values along traced fibers: NaN anywhere, ties of 0.0 and -0.0
    VALUE_ROWS = [
        [1.0, 2.0, 3.0, 4.0],
        [1.0, 2.0, math.nan, 4.0],
        [math.nan, 1.0, 2.0, 3.0],
        [1.0, 2.0, 3.0, math.nan],
        [0.0, -0.0, 1.0, 2.0],
        [-0.0, 0.0, 1.0, 2.0],
        [1.0, 1.0, 2.0, 3.0],
        [4.0, 3.0, 2.0, 1.0],
    ]

    @pytest.mark.parametrize("values", VALUE_ROWS + [VALUE_ROWS, [VALUE_ROWS[:4], VALUE_ROWS[4:]]],
                             ids=[f"row-{i}" for i in range(len(VALUE_ROWS))] + ["batch", "(2, 4) batch"])
    def test_verdict_is_every_increment_positive(self, values):
        act, path = valued_fibers(values)
        report = monotonicity_sweep(act, path, "passive")
        values = np.asarray(values)
        assert report.values.tobytes() == values.tobytes()
        increments = values[..., 1:] - values[..., :-1]
        expected = (increments > 0.0).all(axis=-1)
        if values.ndim == 1:
            assert type(report.is_strictly_increasing) is bool
            assert type(report.min_increment) is float
        assert np.array_equal(report.is_strictly_increasing, expected)
        assert np.array_equal(report.min_increment, increments.min(axis=-1), equal_nan=True)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_two_infinities_in_a_row_give_a_nan_increment(self, sign):
        act, path = valued_fibers([1.0, sign * math.inf, sign * math.inf, 2.0])
        with pytest.warns(RuntimeWarning, match="invalid value"):
            report = monotonicity_sweep(act, path, "passive")
        assert report.is_strictly_increasing is False
        assert math.isnan(report.min_increment)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_one_point_fiber_cannot_be_traced(self, shape):
        # a sweep needs an increment, so every fiber has two points at least
        start = (np.ones(shape), np.ones(shape)) if shape else (1.0, 1.0)
        with pytest.raises(ValueError) as info:
            trace_fiber(symmetric_actuator(), start, 2.0, 1)
        assert str(info.value) == "steps must be a whole number of at least 2, got 1"


def valued_fibers(passive, prompt=None):
    """A linear actuator (h(u) = u, the identity as its inverse, box
    (-1, inf)) and the fibers trace_fiber traces on it, one per row of
    `passive` (shape S + (n,)): fiber j runs from (j n, j n) in steps of 1,
    so its points are (j n + i, j n + i) and the passive coefficient there is
    passive[j, i], the promptness |prompt[j, i]| (both tables flattened; a
    single row is a single fiber). Without `prompt`, the actuator's own
    promptness, sqrt(2)."""
    passive = np.asarray(passive, dtype=float)
    shape, n = passive.shape[:-1], passive.shape[-1]
    table = passive.ravel()
    ones = dict(output_fn=lambda u: u, output_sensitivity_fn=lambda u: 1.0, inverse_fn=lambda y: y)
    plus = ChannelLaw(**ones, passive_coeff_fn=lambda u: table[u.astype(int)])
    # adding -0.0 keeps every value, -0.0 included
    minus = ChannelLaw(**ones, passive_coeff_fn=lambda u: -0.0)
    if prompt is not None:
        prompts = np.asarray(prompt, dtype=float).ravel()
        plus = dataclasses.replace(plus, output_sensitivity_fn=lambda u: prompts[u.astype(int)])
        # hypot(g, 0.0) is |g| exactly
        minus = dataclasses.replace(minus, output_sensitivity_fn=lambda u: 0.0)
    act = AntagonisticActuator(plus, minus, ((-1.0, math.inf), (-1.0, math.inf)))
    starts = (n * np.arange(table.size // n, dtype=float)).reshape(shape)
    start = (starts, starts.copy()) if shape else (0.0, 0.0)
    path = trace_fiber(act, start, start[0] + (n - 1), n)
    assert np.array_equal(path.points[..., 0], np.arange(table.size, dtype=float).reshape(passive.shape))
    return act, path


class TestPassivePromptnessRelation:
    def test_monotone_for_hardening(self):
        act = symmetric_actuator()
        path = trace_fiber(act, (2.0, 1.0), 5.0, 30)
        report = passive_promptness_relation(act, path)
        assert report.is_monotone
        assert len(report.pairs) == 30

    def test_order_free(self):
        # the same pairs in reverse order, on a fiber of their own
        act = symmetric_actuator()
        path = trace_fiber(act, (2.0, 1.0), 5.0, 30)
        pairs = passive_promptness_relation(act, path).pairs[::-1]
        reverse = passive_promptness_relation(*valued_fibers(pairs[:, 0], pairs[:, 1]))
        assert np.array_equal(reverse.pairs, pairs)
        assert reverse.is_monotone is True

    def test_degenerate_path_rejected(self):
        act, path = valued_fibers([1.0, 1.0], [2.0, 2.0])
        with pytest.raises(ValueError, match="degenerate"):
            passive_promptness_relation(act, path)

    @pytest.mark.parametrize("degenerate", [0, 1, 2])
    def test_one_degenerate_fiber_in_a_batch_raises(self, degenerate):
        # three fibers, each monotone; one repeats a pair
        values = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (3, 1))
        assert passive_promptness_relation(*valued_fibers(values, values)).is_monotone.all()
        values[degenerate, 2] = values[degenerate, 1]
        with pytest.raises(ValueError, match=r"degenerate relation: steps 1 and 2 share the "
                           r"\(passive, promptness\) pair \(2\.0, 2\.0\)$"):
            passive_promptness_relation(*valued_fibers(values, values))

    def test_distinct_points_with_one_pair_name_the_steps_and_the_pair(self):
        # linear channels of passive coefficient 1 each: the points (1, 1), (2, 2)
        # and (3, 3) are distinct, but every (passive, promptness) pair is (2, sqrt 2)
        linear = ChannelLaw(output_fn=lambda u: u, output_sensitivity_fn=lambda u: 1.0,
                            passive_coeff_fn=lambda u: 1.0, inverse_fn=lambda y: y)
        act = AntagonisticActuator(linear, linear)
        path = trace_fiber(act, (1.0, 1.0), 3.0, 3)
        assert path.points.tolist() == [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
        with pytest.raises(ValueError) as error:
            passive_promptness_relation(act, path)
        assert str(error.value) == ("degenerate relation: steps 0 and 1 share the "
                                    f"(passive, promptness) pair (2.0, {math.sqrt(2.0)})")

    def test_a_step_with_one_zero_increment_is_not_degenerate(self):
        # fiber 1's passive ties at one step while its promptness rises
        passive = np.array([[2.0, 4.0, 6.0, 8.0], [2.0, 4.0, 4.0, 6.5]])
        prompt = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
        report = passive_promptness_relation(*valued_fibers(passive, prompt))
        assert report.is_monotone.tolist() == [True, False]

    def test_huge_increments_give_a_verdict_under_warnings_as_errors(self):
        # increments near 1e300 on both quantities: their product overflows
        act = as_antagonistic(VsaConfig(law=TendonLaw.quadratic(1e300), pulley_radius=1.0,
                                        state=(1.0, 1.0)))
        path = trace_fiber(act, (1.0, 1.0), 5.0, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = passive_promptness_relation(act, path)
        assert report.is_monotone is True
        np.testing.assert_allclose(report.pairs[:, 0], [2e300, 6e300, 1e301], rtol=1e-15, atol=0.0)

    def test_tiny_increments_are_monotone(self):
        # increments near 1e-200 on both quantities: their product underflows to 0
        act = symmetric_actuator(k=1e-200)
        path = trace_fiber(act, (1.0, 1.0), 3.0, 3)
        report = passive_promptness_relation(act, path)
        increments = np.diff(report.pairs, axis=0)
        assert np.all((increments > 1e-200) & (increments < 3e-200))
        assert np.all(increments[:, 0] * increments[:, 1] == 0.0)
        assert report.is_monotone is True
        pairs = report.pairs[::-1]
        assert passive_promptness_relation(*valued_fibers(pairs[:, 0], pairs[:, 1])).is_monotone is True

    def test_two_infinities_in_a_row_are_not_monotone(self):
        act, path = valued_fibers([1.0, math.inf, math.inf, 2.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert passive_promptness_relation(act, path).is_monotone is False

    def test_one_box_check_and_the_checked_values(self, monkeypatch):
        # trace_fiber checked every point of its path against the box: both
        # sweeps and the relation on it check none again; a path of pairs is
        # refused without a box check
        from vada import antagonistic

        act = symmetric_actuator(exponential_channel)
        path = trace_fiber(act, (1.0, 0.5), 2.0, 20)
        pairs = FiberPath(level=path.level, points=path.points.tolist(), residuals=path.residuals)
        u = path.points.T
        expected = (passive_coefficient(act, u).tolist(), promptness(act, u).tolist())
        calls = []
        checked = antagonistic.require_inside
        monkeypatch.setattr(
            antagonistic, "require_inside", lambda *args: calls.append(args) or checked(*args)
        )
        for which in WHICH:
            monotonicity_sweep(act, path, which)
        report = passive_promptness_relation(act, path)
        assert calls == []
        assert (report.pairs[:, 0].tolist(), report.pairs[:, 1].tolist()) == expected
        with pytest.raises(ValueError, match=UNTRACED):
            passive_promptness_relation(act, pairs)
        assert calls == []

    def test_too_short_path_rejected(self):
        act = symmetric_actuator()
        with pytest.raises(ValueError, match=UNTRACED):
            passive_promptness_relation(act, FiberPath(level=0.0, points=[(1.0, 1.0)], residuals=[0.0]))

    def test_path_outside_the_box_rejected(self):
        # only trace_fiber checks a fiber against the box
        act = AntagonisticActuator(quadratic_channel(), quadratic_channel(), ((0.5, 3.0), (0.5, 3.0)))
        path = FiberPath(level=0.0, points=[(1.0, 1.0), (4.0, 1.0)], residuals=[0.0, 0.0])
        with pytest.raises(ValueError, match=UNTRACED):
            passive_promptness_relation(act, path)
        with pytest.raises(ConvergenceError, match="left the admissible box"):
            trace_fiber(act, (1.0, 1.0), 4.0, 2)


class TestGradientConsistency:
    def test_channel_derivatives_match_fd(self):
        rng = np.random.default_rng(13)
        for make in CHANNEL_FAMILIES:
            chan = make()
            for _ in range(100):
                u = rng.uniform(0.2, 4.0)
                fd_g = (chan.output_fn(u + FD_H) - chan.output_fn(u - FD_H)) / (2 * FD_H)
                g = chan.output_sensitivity_fn(u)
                assert abs(g - fd_g) <= 1e-6 * max(1.0, abs(g))
                # hardening: the passive coefficient rises with the command
                assert chan.passive_coeff_fn(u + FD_H) > chan.passive_coeff_fn(u - FD_H)


class TestIsomorphism:
    def test_vsa_and_thrust_channels_share_passive_coefficient(self):
        # VSA instance (R = 1, h = k u^2 / 2, p = k u) against the thrust
        # instance (h = k_T u^2, p = k_D u) with k = k_D
        rng = np.random.default_rng(17)
        k_d = 0.85
        vsa_chan = quadratic_channel(k=k_d)
        thrust_chan = ChannelLaw(
            output_fn=lambda u: 1.4 * u * u,
            output_sensitivity_fn=lambda u: 2.8 * u,
            passive_coeff_fn=lambda u: k_d * u,
            inverse_fn=lambda y: np.sqrt(y / 1.4),
        )
        vsa = AntagonisticActuator(channel_plus=vsa_chan, channel_minus=vsa_chan)
        vada = AntagonisticActuator(channel_plus=thrust_chan, channel_minus=thrust_chan)
        for _ in range(100):
            u = rng.uniform(0.2, 20.0, size=2)
            assert abs(passive_coefficient(vsa, u) - passive_coefficient(vada, u)) <= 1e-12


# x over [1e-10, 1e4]; the exponential law's alpha keeps exp(alpha x) in range
ROUND_TRIP_X = np.logspace(-10.0, 4.0, 281)
TENDON_LAWS = [
    TendonLaw.quadratic(0.7),
    TendonLaw.exponential(0.7, 0.05),
    TendonLaw.cubic(0.7),
]


def thrust_channel(nu_bar):
    """The forward rotor channel of a distinct pair at the trim nu_bar, and
    the lowest speed of its monotone regime (dT/dv > 0)."""
    fwd = AffineThrustModel(k_thrust=1.3, k_inflow=0.6)
    box = ((2.0, math.inf), (2.0, math.inf))
    dr = DualRotor(fwd, AffineThrustModel(k_thrust=0.9, k_inflow=1.1), speed_box=box)
    return as_antagonistic_at_trim(dr, nu_bar).channel_plus, max(0.0, 0.6 * nu_bar / 2.6)


class TestChannelInverses:
    @pytest.mark.parametrize("law", TENDON_LAWS, ids=lambda l: l.kind)
    def test_tendon_channel_round_trips(self, law):
        chan = as_antagonistic(VsaConfig(law=law, pulley_radius=1.3, state=(1.0, 1.0))).channel_plus
        x = ROUND_TRIP_X
        y = chan.output_fn(x)
        np.testing.assert_allclose(chan.inverse_fn(y), x, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(chan.output_fn(chan.inverse_fn(y)), y, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("nu_bar", [-2.0, 0.0, 2.0])
    def test_thrust_channel_round_trips(self, nu_bar):
        # from the speed where thrust crosses zero (2x the monotone bound) upward
        chan, bound = thrust_channel(nu_bar)
        x = 2.0 * bound + ROUND_TRIP_X
        y = chan.output_fn(x)
        np.testing.assert_allclose(chan.inverse_fn(y), x, rtol=1e-14, atol=0.0)
        # k_T v^2 - b v is exact to rounding of its terms, not of their difference
        b = 0.6 * nu_bar
        scale = 1.3 * x * x + abs(b) * x
        assert (np.abs(chan.output_fn(chan.inverse_fn(y)) - y) <= 1e-14 * scale).all()

    def test_thrust_inverse_keeps_precision_at_small_thrust_against_the_inflow(self):
        # b < 0: the textbook root (b + sqrt(b^2 + 4 k_T y)) / (2 k_T) cancels here
        chan, _ = thrust_channel(-2.0)
        y = np.array([1e-14, 1e-10, 1e-6])
        expected = y / 1.2  # v = y / |b| to first order, |b| = 1.2
        np.testing.assert_allclose(chan.inverse_fn(y), expected, rtol=1e-5)
        np.testing.assert_allclose(chan.output_fn(chan.inverse_fn(y)), y, rtol=1e-15)

    def test_force_without_a_root_leaves_the_box(self):
        for law in TENDON_LAWS:
            chan = as_antagonistic(VsaConfig(law=law, pulley_radius=1.0, state=(1.0, 1.0))).channel_plus
            with np.errstate(invalid="ignore"):
                u = chan.inverse_fn(np.array([-1.0, -0.0]))
            assert not (u > 0.0).any(), law.kind
        chan, _ = thrust_channel(2.0)
        with np.errstate(invalid="ignore"):
            assert np.isnan(chan.inverse_fn(-1.0))  # below the vertex of the parabola

    def test_channel_law_requires_an_inverse(self):
        with pytest.raises(TypeError, match="inverse_fn"):
            ChannelLaw(
                output_fn=lambda u: u,
                output_sensitivity_fn=lambda u: 1.0,
                passive_coeff_fn=lambda u: u,
            )


def sequential_trace_fiber(act, start, u1_end, steps):
    """The step-by-step predictor-corrector that trace_fiber replaced: an
    Euler step along the fiber tangent from the previous point, then Newton
    in u2 at each point in turn. Returns (points, residuals)."""
    level = task_output(act, start)
    tol = FIBER_TOLERANCE * max(1.0, abs(level))
    du1 = (u1_end - start[0]) / (steps - 1)
    points, residuals = [], []
    u1_prev, u2 = float(start[0]), float(start[1])
    for i in range(steps):
        u1 = start[0] + i * du1
        if i > 0:
            u2 = u2 + fiber_tangent(act, (u1_prev, u2)) * (u1 - u1_prev)
        target = act.channel_plus.output_fn(u1) - level
        for _ in range(50):
            residual = act.channel_minus.output_fn(u2) - target
            if abs(residual) <= tol:
                break
            u2 = u2 - residual / act.channel_minus.output_sensitivity_fn(u2)
        else:
            raise AssertionError(f"sequential corrector did not converge at u1={u1}")
        assert act.in_box((u1, u2))
        points.append((u1, float(u2)))
        residuals.append(abs(residual))
        u1_prev = u1
    return points, residuals


def fiber_workload_cases(seed, per_family=25):
    """(actuator, start, u1_end) over the benchmark's fiber ranges: tendon
    laws with k in [0.2, 3], alpha in [0.3, 1.5], R in [0.5, 2] and starts in
    [0.5, 2]^2; dual rotors with k in [0.1, 2] on a (1, inf) box, starts in
    [2, 4]^2, identical at zero trim and distinct at a trim within 30 % of
    the monotone-regime bound; spans of u1 in [1, 3]."""
    rng = np.random.default_rng(seed)
    box = ((1.0, math.inf), (1.0, math.inf))
    for _ in range(per_family):
        k, alpha, radius = rng.uniform(0.2, 3.0), rng.uniform(0.3, 1.5), rng.uniform(0.5, 2.0)
        for law in (TendonLaw.quadratic(k), TendonLaw.exponential(k, alpha), TendonLaw.cubic(k)):
            start = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            cfg = VsaConfig(law=law, pulley_radius=radius, state=start)
            yield law.kind, as_antagonistic(cfg), start, start[0] + rng.uniform(1.0, 3.0)
        k_thrust, k_inflow = rng.uniform(0.1, 2.0, 2), rng.uniform(0.1, 2.0, 2)
        model = AffineThrustModel(k_thrust[0], k_inflow[0])
        cap = 0.3 * min(2.0 * k_thrust / k_inflow)
        trims = [
            ("vada zero trim", DualRotor(model, model, speed_box=box), 0.0),
            ("vada at trim",
             DualRotor(model, AffineThrustModel(k_thrust[1], k_inflow[1]), speed_box=box),
             rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0) * cap),
        ]
        for name, dr, nu_bar in trims:
            start = (rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0))
            yield name, as_antagonistic_at_trim(dr, nu_bar), start, start[0] + rng.uniform(1.0, 3.0)


class TestBatchedFiberAgainstSequential:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_points_as_the_sequential_corrector(self, seed):
        for name, act, start, u1_end in fiber_workload_cases(seed):
            path = trace_fiber(act, start, u1_end, 200)
            points, _ = sequential_trace_fiber(act, start, u1_end, 200)
            bound = FIBER_TOLERANCE * max(1.0, abs(path.level))
            assert max(path.residuals) <= bound, name
            assert all(act.in_box(u) for u in path.points), name
            assert [u1 for u1, _ in path.points] == [u1 for u1, _ in points], name
            assert np.allclose([u2 for _, u2 in path.points], [u2 for _, u2 in points],
                               rtol=1e-9, atol=0.0), name

    @pytest.mark.parametrize("alpha, u1_end", [(3.0, 3.0), (1.5, 7.0)])
    def test_far_points_of_a_steep_exponential_fiber(self, alpha, u1_end):
        # the far points lie hundreds of Newton steps from the start's tangent
        # line, where a seeded corrector once gave up
        start = (2.0, 0.5)
        law = TendonLaw.exponential(1.0, alpha)
        act = as_antagonistic(VsaConfig(law=law, pulley_radius=1.0, state=start))
        path = trace_fiber(act, start, u1_end, 200)
        points, _ = sequential_trace_fiber(act, start, u1_end, 200)
        assert max(path.residuals) <= FIBER_TOLERANCE * max(1.0, abs(path.level))
        assert [u1 for u1, _ in path.points] == [u1 for u1, _ in points]
        assert np.allclose([u2 for _, u2 in path.points], [u2 for _, u2 in points],
                           rtol=1e-9, atol=0.0)

    def test_points_and_residuals_are_float_arrays(self):
        act = symmetric_actuator(exponential_channel)
        path = trace_fiber(act, (0.5, 0.9), 2.5, 30)
        assert isinstance(path.points, np.ndarray) and path.points.dtype == np.float64
        assert path.points.shape == (30, 2)
        assert isinstance(path.residuals, np.ndarray) and path.residuals.dtype == np.float64
        assert path.residuals.shape == (30,)
        assert type(path.level) is float

    def test_list_of_pairs_path_is_refused(self):
        act = symmetric_actuator(exponential_channel)
        path = trace_fiber(act, (0.5, 0.9), 2.5, 30)
        pairs = [tuple(u) for u in path.points.tolist()]
        for untraced in (pairs, FiberPath(level=path.level, points=pairs, residuals=path.residuals)):
            assert_refused(act, untraced)

    def test_box_violation_reported_at_the_first_step_outside(self):
        act = AntagonisticActuator(
            channel_plus=quadratic_channel(),
            channel_minus=quadratic_channel(),
            admissible_box=((0.0, math.inf), (0.0, 2.0)),
        )
        # level 4: u2 = sqrt(u1^2 - 8) passes 2 at u1 = sqrt(12) = 3.46, step 5 of 0.1
        with pytest.raises(ConvergenceError, match="box at step 5:"):
            trace_fiber(act, (3.0, 1.0), 3.9, 10)

    def test_missing_root_is_an_error(self):
        # h2 = atan is bounded by pi/2, below the late targets u1^2/2 - 1/2
        flat = ChannelLaw(
            output_fn=np.arctan,
            output_sensitivity_fn=lambda u: 1.0 / (1.0 + u * u),
            passive_coeff_fn=lambda u: u,
            inverse_fn=np.tan,
        )
        act = AntagonisticActuator(
            channel_plus=quadratic_channel(), channel_minus=flat,
            admissible_box=((0.0, math.inf), (-math.inf, math.inf)),
        )
        with pytest.raises((ConvergenceError, ValueError)), np.errstate(over="ignore"):
            trace_fiber(act, (1.0, 0.0), 2.5, 5)


class TestArrayCommands:
    @pytest.mark.parametrize("make", CHANNEL_FAMILIES)
    def test_array_commands_match_pointwise_calls(self, make):
        act = symmetric_actuator(make)
        u = np.random.default_rng(31).uniform(0.2, 4.0, (2, 50))
        points = list(zip(*u.tolist()))
        for fn in (task_output, passive_coefficient, promptness):
            batched = fn(act, u)
            pointwise = [fn(act, p) for p in points]
            # cubic powers may round differently in numpy; task_output cancels
            np.testing.assert_allclose(batched, pointwise, rtol=1e-14, atol=1e-12,
                                       err_msg=fn.__name__)

    def test_one_point_outside_the_box_rejects_the_array(self):
        act = AntagonisticActuator(
            channel_plus=quadratic_channel(),
            channel_minus=quadratic_channel(),
            admissible_box=((1.0, 5.0), (1.0, 5.0)),
        )
        u = np.array([[2.0, 3.0, 4.0], [2.0, 5.0, 3.0]])
        assert not act.in_box(u)
        with pytest.raises(ValueError):
            passive_coefficient(act, u)

    def test_sweep_of_a_hand_made_path_is_refused(self):
        act = AntagonisticActuator(
            channel_plus=quadratic_channel(),
            channel_minus=quadratic_channel(),
            admissible_box=((1.0, 5.0), (1.0, 5.0)),
        )
        path = FiberPath(level=0.0, points=[(2.0, 2.0), (6.0, 6.0)], residuals=[0.0, 0.0])
        with pytest.raises(ValueError, match=UNTRACED):
            monotonicity_sweep(act, path, "passive")


class TestToleranceScale:
    """The residual bound scales with the largest output differenced at each
    point, max(1, |level|, |h1(u1)|): a fixed bound of FIBER_TOLERANCE *
    max(1, |level|) refuses exact inverses of large outputs on rounding alone."""

    # (alpha, start, span) of exponential tendons with k = 1, R = 1
    LARGE_OUTPUTS = [(3.0, (2.0, 1.9), 4.0), (5.0, (1.0, 0.5), 8.0), (3.0, (1.0, 0.5), 4.0)]

    @staticmethod
    def exponential_tendons(alpha, start, miss=1.0):
        act = as_antagonistic(
            VsaConfig(law=TendonLaw.exponential(1.0, alpha), pulley_radius=1.0, state=start)
        )
        if miss == 1.0:
            return act
        exact = act.channel_minus.inverse_fn
        off = dataclasses.replace(act.channel_minus, inverse_fn=lambda y: exact(y) * miss)
        return dataclasses.replace(act, channel_minus=off)

    @pytest.mark.parametrize("alpha, start, span", LARGE_OUTPUTS)
    def test_exact_inverse_of_large_outputs_traces(self, alpha, start, span):
        act = self.exponential_tendons(alpha, start)
        path = trace_fiber(act, start, start[0] + span, 200)
        h1 = act.channel_plus.output_fn(path.points[:, 0])
        scale = np.maximum(max(1.0, abs(path.level)), np.abs(h1))
        assert (path.residuals <= FIBER_TOLERANCE * scale).all()
        # the level's scale alone would have refused these points
        assert path.residuals.max() > FIBER_TOLERANCE * max(1.0, abs(path.level))

    @pytest.mark.parametrize("alpha, start, span", LARGE_OUTPUTS)
    def test_an_inverse_off_by_one_part_in_1e8_still_misses(self, alpha, start, span):
        act = self.exponential_tendons(alpha, start, miss=1.0 + 1e-8)
        with pytest.raises(ConvergenceError, match="misses its target"):
            trace_fiber(act, start, start[0] + span, 200)

    @pytest.mark.parametrize("alpha, start, span", LARGE_OUTPUTS)
    def test_a_miss_on_both_scales_is_reported_at_its_own_step(self, alpha, start, span):
        # the exact trace has points that pass only on |h1|'s scale; an inverse
        # that misses from a later step k on is reported at k, not at the first
        # point that missed the level's bound alone
        act = self.exponential_tendons(alpha, start)
        path = trace_fiber(act, start, start[0] + span, 200)
        level_only = np.flatnonzero(path.residuals > FIBER_TOLERANCE * max(1.0, abs(path.level)))
        k = level_only[0] + 5
        assert k < 199
        h1 = act.channel_plus.output_fn(path.points[:, 0])
        target_k = h1[k] - path.level
        exact = act.channel_minus.inverse_fn
        late = dataclasses.replace(act.channel_minus,
                                   inverse_fn=lambda y: exact(y) * np.where(y >= target_k, 1.0 + 1e-8, 1.0))
        with pytest.raises(ConvergenceError, match=f"fiber point at u1={path.points[k, 0]} misses"):
            trace_fiber(dataclasses.replace(act, channel_minus=late), start, start[0] + span, 200)


WHICH = ("passive", "promptness")


def fiber_batch(family, m, seed):
    """A batched actuator of m fibers, each with its own law parameters
    (shape (m, 1)), its start arrays and ends, and the m single fibers as
    (actuator, start, u1_end) with plain-float parameters."""
    rng = np.random.default_rng(seed)
    k, alpha, radius = (rng.uniform(lo, hi, (m, 1)) for lo, hi in [(0.2, 3.0), (0.3, 1.5), (0.5, 2.0)])
    states = rng.uniform(0.5, 2.0, (m, 2))
    ends = states[:, 0] + rng.uniform(1.0, 3.0, m)

    def actuator(k, alpha, radius, state):
        if family == "constant":
            return symmetric_actuator(constant_passive_channel, k=k)
        if family == "exponential":
            law = TendonLaw.exponential(k, alpha)
        else:
            law = getattr(TendonLaw, family)(k)
        return as_antagonistic(VsaConfig(law=law, pulley_radius=radius, state=state))

    batch = actuator(k, alpha, radius, (states[:, 0], states[:, 1]))
    singles = [
        (actuator(k[i, 0].item(), alpha[i, 0].item(), radius[i, 0].item(), tuple(states[i].tolist())),
         tuple(states[i].tolist()), ends[i].item())
        for i in range(m)
    ]
    return batch, (states[:, 0], states[:, 1]), ends, singles


class TestBatchedFibers:
    @pytest.mark.parametrize("family", ["quadratic", "exponential", "cubic", "constant"])
    def test_batch_equals_its_single_fibers_bit_for_bit(self, family):
        m, steps = 16, 60
        batch, start, ends, singles = fiber_batch(family, m, seed=17)
        path = trace_fiber(batch, start, ends, steps)
        assert path.level.shape == (m,)
        assert path.points.shape == (m, steps, 2)
        assert path.residuals.shape == (m, steps)
        sweeps = [monotonicity_sweep(batch, path, which) for which in WHICH]
        relation = passive_promptness_relation(batch, path)
        for i, (act, s, end) in enumerate(singles):
            one = trace_fiber(act, s, end, steps)
            assert one.level == path.level[i]
            assert np.array_equal(one.points, path.points[i])
            assert np.array_equal(one.residuals, path.residuals[i])
            for which, sweep in zip(WHICH, sweeps):
                alone = monotonicity_sweep(act, one, which)
                assert np.array_equal(alone.values, sweep.values[i])
                assert alone.is_strictly_increasing == sweep.is_strictly_increasing[i]
                assert alone.min_increment == sweep.min_increment[i]
            alone = passive_promptness_relation(act, one)
            assert np.array_equal(alone.pairs, relation.pairs[i])
            assert alone.is_monotone == relation.is_monotone[i]

    def test_constant_channel_verdicts_fail_per_fiber(self):
        batch, start, ends, _ = fiber_batch("constant", 5, seed=3)
        report = monotonicity_sweep(batch, trace_fiber(batch, start, ends, 20), "passive")
        assert report.is_strictly_increasing.tolist() == [False] * 5
        assert report.min_increment.tolist() == [0.0] * 5

    def test_leading_axes_of_any_shape(self):
        rng = np.random.default_rng(5)
        k, alpha = rng.uniform(0.2, 3.0, (2, 3, 1)), rng.uniform(0.3, 1.5, (2, 3, 1))
        start = tuple(rng.uniform(0.5, 2.0, (2, 2, 3)))
        ends = start[0] + 2.0

        def act(shape):
            law = TendonLaw.exponential(k.reshape(shape), alpha.reshape(shape))
            return as_antagonistic(VsaConfig(law=law, pulley_radius=1.0, state=(1.0, 1.0)))

        grid = trace_fiber(act((2, 3, 1)), start, ends, 30)
        flat = trace_fiber(act((6, 1)), tuple(s.ravel() for s in start), ends.ravel(), 30)
        assert grid.level.shape == (2, 3)
        assert grid.points.shape == (2, 3, 30, 2)
        assert np.array_equal(grid.points.reshape(6, 30, 2), flat.points)
        traced_on = grid.traced_on
        report = monotonicity_sweep(traced_on, grid, "promptness")
        assert report.values.shape == (2, 3, 30)
        assert report.is_strictly_increasing.shape == report.min_increment.shape == (2, 3)
        assert passive_promptness_relation(traced_on, grid).pairs.shape == (2, 3, 30, 2)

    def test_single_fiber_keeps_plain_types(self):
        act = symmetric_actuator()
        path = trace_fiber(act, (1.0, 0.8), 3.0, 20)
        assert type(path.level) is float
        for which in WHICH:
            report = monotonicity_sweep(act, path, which)
            assert type(report.is_strictly_increasing) is bool
            assert type(report.min_increment) is float
        assert type(passive_promptness_relation(act, path).is_monotone) is bool

    def test_constant_channels_give_a_level_per_fiber(self):
        # both outputs are constants, so the level is one float for every
        # start: a batch still gets one level per fiber, a single fiber a float
        def constant(value):
            return ChannelLaw(
                output_fn=lambda u: value,
                output_sensitivity_fn=lambda u: 0.0,
                passive_coeff_fn=lambda u: 1.0,
                inverse_fn=lambda y: y,
            )

        act = AntagonisticActuator(constant(3.0), constant(1.0))
        start = (np.array([1.0, 2.0, 3.0]), np.ones(3))
        batch = trace_fiber(act, start, start[0] + 1.0, 5)
        assert batch.level.shape == (3,)
        assert batch.level.tolist() == [2.0] * 3
        one = trace_fiber(act, (1.0, 1.0), 2.0, 5)
        assert type(one.level) is float and one.level == 2.0
        assert np.array_equal(one.points, batch.points[0])

    def test_too_few_steps_from_outside_the_box_names_plain_floats(self):
        message = "command (-1.0, 0.5) outside admissible box ((0.0, inf), (0.0, inf))"
        starts = (np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        for start in [(-1.0, 0.5), starts]:
            with pytest.raises(ValueError) as info:
                trace_fiber(symmetric_actuator(), start, 2.0, 0)
            assert str(info.value) == message


def exponential_fibers(miss=1.0, box=((0.0, math.inf), (0.0, math.inf))):
    """Exponential channels h = expm1(u) whose minus inverse is scaled by
    `miss` (a float, or shape (m, 1) for one factor per fiber)."""
    law = TendonLaw.exponential(1.0, 1.0)
    plus = ChannelLaw(law.r, law.r_prime, law.r_prime, law.r_inverse)
    minus = dataclasses.replace(plus, inverse_fn=lambda y: law.r_inverse(y) * miss)
    return AntagonisticActuator(plus, minus, box)


GOOD_FIBER = ((1.0, 0.5), 1.5)

# (name, fiber k's start, its u1_end, box, whether its inverse misses, what it raises)
FAILING_FIBERS = [
    ("start-outside-box", (-0.5, 1.0), 1.0, None, False, "outside admissible box"),
    # u1 = 0 is on the open box's edge, and every later point is inside
    ("only-the-start-outside-box", (0.0, 1.0), 1.0, None, False,
     "command (0.0, 1.0) outside admissible box"),
    ("grid-does-not-increase", (1.0, 0.5), 0.5, None, False, "distinct u1 values"),
    # the grid's first step is 0 * inf or NaN, so the grid holds NaN
    ("infinite-end", (1.0, 0.5), math.inf, None, False, "u1_end (inf) must exceed"),
    ("nan-end", (1.0, 0.5), math.nan, None, False, "u1_end (nan) must exceed"),
    ("level-overflows", (800.0, 800.0), 801.0, None, False, "fiber level at the start"),
    ("leaves-the-box", (2.0, 2.5), 4.0, ((0.0, math.inf), (0.0, 3.0)), False,
     "left the admissible box at step 18"),
    ("target-overflows", (702.0, 702.0), 712.0, None, False, "fiber target at u1="),
    ("misses-its-target", (1.0, 0.5), 3.0, None, True, "misses its target"),
]


def raised(fn):
    with pytest.raises(Exception) as info, np.errstate(over="ignore", invalid="ignore"):
        fn()
    return type(info.value), str(info.value)


class TestBatchedFiberErrors:
    @pytest.mark.parametrize("start, end, box, misses, message", [f[1:] for f in FAILING_FIBERS],
                             ids=[f[0] for f in FAILING_FIBERS])
    def test_batch_raises_what_its_failing_fiber_raises(self, start, end, box, misses, message):
        box = box or ((0.0, math.inf), (0.0, math.inf))
        miss = 1.0 + 1e-8
        alone = raised(lambda: trace_fiber(exponential_fibers(miss if misses else 1.0, box),
                                           start, end, 50))
        fibers = [GOOD_FIBER, GOOD_FIBER, (start, end), GOOD_FIBER]
        starts = tuple(np.array([s[j] for s, _ in fibers]) for j in (0, 1))
        ends = np.array([e for _, e in fibers])
        factors = np.array([[miss if misses and i == 2 else 1.0] for i in range(4)])
        batch = exponential_fibers(factors, box)
        assert raised(lambda: trace_fiber(batch, starts, ends, 50)) == alone
        assert message in alone[1]

    def test_the_first_failing_fiber_is_reported_not_the_first_failing_check(self):
        # fiber 1 misses its target at the end of its trace; fiber 3's start is
        # outside the box, which a single trace checks first
        starts = (np.array([1.0, 1.0, 1.0, -0.5]), np.array([0.5, 0.5, 0.5, 1.0]))
        factors = np.array([[1.0], [1.0 + 1e-8], [1.0], [1.0]])
        got = raised(lambda: trace_fiber(exponential_fibers(factors), starts, 3.0, 50))
        alone = raised(lambda: trace_fiber(exponential_fibers(1.0 + 1e-8), (1.0, 0.5), 3.0, 50))
        assert got == alone and got[0] is ConvergenceError

    def test_too_few_steps(self):
        starts = (np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        assert raised(lambda: trace_fiber(exponential_fibers(), starts, 2.0, 0)) == raised(
            lambda: trace_fiber(exponential_fibers(), (1.0, 0.5), 2.0, 0))


def report_fields(report):
    # reports hold arrays and compare by identity, so compare their contents
    return {k: (v.tolist(), v.dtype) if isinstance(v, np.ndarray) else (v, type(v))
            for k, v in vars(report).items()}


def sweeps_and_relation(act, path, relation_first=False):
    """The fields of both sweeps and the relation of path, in the order
    given (the relation first fills a traced path's memo)."""
    if relation_first:
        relation = passive_promptness_relation(act, path)
    sweeps = [monotonicity_sweep(act, path, which) for which in WHICH]
    if not relation_first:
        relation = passive_promptness_relation(act, path)
    return [report_fields(r) for r in (*sweeps, relation)]


def expected_sweeps_and_relation(act, points):
    """sweeps_and_relation's fields, computed with the public formulas on the
    columns of points and numpy reductions along them."""
    u = np.moveaxis(points, -1, 0)
    values = [np.broadcast_to(fn(act, u), u[0].shape) for fn in (passive_coefficient, promptness)]
    per_fiber = np.generic.item if points.ndim == 2 else np.asarray
    reports = []
    for v in values:
        least = (v[..., 1:] - v[..., :-1]).min(axis=-1)
        reports.append(SweepReport(v, per_fiber(least > 0.0), per_fiber(least)))
    ds, dr = (v[..., 1:] - v[..., :-1] for v in values)
    reports.append(RelationReport(np.stack(values, axis=-1), per_fiber((np.sign(ds) * dr > 0.0).all(axis=-1))))
    return [report_fields(r) for r in reports]


def counting(channel, counts, side):
    """channel with each of its functions counting its calls in counts."""
    def counted(name):
        fn = getattr(channel, name)

        def call(u):
            counts[side, name] += 1
            return fn(u)
        return call
    return ChannelLaw(**{f.name: counted(f.name) for f in dataclasses.fields(ChannelLaw)})


def assert_refused(act, path):
    """Both sweeps and the relation refuse path on act with one line."""
    for which in WHICH:
        with pytest.raises(ValueError, match=f"^{UNTRACED}$"):
            monotonicity_sweep(act, path, which)
    with pytest.raises(ValueError, match=f"^{UNTRACED}$"):
        passive_promptness_relation(act, path)


class TestTracedPath:
    """A path from trace_fiber keeps its actuator, read-only points and the
    values its sweeps compute; the sweeps and the relation take no other
    path, and no other actuator."""

    @pytest.mark.parametrize("other", [
        lambda act: dataclasses.replace(act),
        lambda act: dataclasses.replace(act, admissible_box=((0.0, 1.5), (0.0, math.inf))),
        lambda act: symmetric_actuator(quadratic_channel),
    ], ids=["equal-copy", "narrower-box", "other-channels"])
    def test_another_actuator_is_refused(self, other):
        act = symmetric_actuator(exponential_channel)
        path = trace_fiber(act, (1.0, 0.5), 2.0, 20)
        sweeps_and_relation(act, path)
        assert_refused(other(act), path)
        sweeps_and_relation(act, path)

    def test_a_replaced_path_is_refused(self):
        act = symmetric_actuator(exponential_channel)
        path = trace_fiber(act, (1.0, 0.5), 2.0, 20)
        sweeps_and_relation(act, path)
        for copy in (dataclasses.replace(path), dataclasses.replace(path, points=path.points - 1.0)):
            assert copy.traced_on is None
            assert_refused(act, copy)

    def test_points_and_kept_values_are_read_only(self):
        act = symmetric_actuator(exponential_channel)
        path = trace_fiber(act, (1.0, 0.5), 2.0, 20)
        with pytest.raises(ValueError, match="read-only"):
            path.points[3, 1] = 5.0
        for which in WHICH:
            report = monotonicity_sweep(act, path, which)
            with pytest.raises(ValueError, match="read-only"):
                report.values[0] = 0.0
            assert monotonicity_sweep(act, path, which).values is report.values

    @pytest.mark.parametrize("relation_first", [False, True])
    def test_traced_path_sweeps_like_its_points(self, relation_first):
        # the five fiber-workload families, a constant channel and a (2, 3)
        # batch: the values are the public formulas' on the columns of the
        # points, bit for bit, and the verdicts are read off them
        cases = {name: (act, start, end) for name, act, start, end in fiber_workload_cases(3, 1)}
        assert len(cases) == 5
        batch, start, ends, _ = fiber_batch("constant", 4, seed=9)
        cases["constant batch"] = (batch, start, ends)
        rng = np.random.default_rng(5)
        law = TendonLaw.exponential(rng.uniform(0.2, 3.0, (2, 3, 1)), rng.uniform(0.3, 1.5, (2, 3, 1)))
        start = tuple(rng.uniform(0.5, 2.0, (2, 2, 3)))
        cases["(2, 3) batch"] = (as_antagonistic(VsaConfig(law=law, pulley_radius=1.0, state=(1.0, 1.0))),
                                 start, start[0] + 2.0)
        for name, (act, start, end) in cases.items():
            path = trace_fiber(act, start, end, 50)
            assert (sweeps_and_relation(act, path, relation_first)
                    == expected_sweeps_and_relation(act, path.points)), name

    def test_a_built_copy_is_refused(self):
        cases = [(name, act, start, end) for name, act, start, end in fiber_workload_cases(4, 4)]
        cases.append(("exp channel", symmetric_actuator(exponential_channel), (1.0, 0.5), 3.0))
        assert len({name.split("(")[0] for name, *_ in cases}) == 6
        for name, act, start, end in cases:
            path = trace_fiber(act, start, end, 200)
            copy = FiberPath(path.level, path.points.copy(), path.residuals)
            assert copy.traced_on is None
            assert_refused(act, copy)

    def test_each_channel_quantity_is_evaluated_once(self):
        from collections import Counter

        counts = Counter()
        act = AntagonisticActuator(counting(exponential_channel(), counts, "plus"),
                                   counting(cubic_channel(), counts, "minus"))
        path = trace_fiber(act, (1.0, 0.5), 2.0, 20)
        counts.clear()
        sweeps_and_relation(act, path)
        assert counts == Counter({(side, name): 1 for side in ("plus", "minus")
                                  for name in ("passive_coeff_fn", "output_sensitivity_fn")})
