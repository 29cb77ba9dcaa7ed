import math

import numpy as np
import pytest

from vada.antagonistic import (
    fiber_tangent,
    monotonicity_sweep,
    passive_coefficient,
    passive_promptness_relation,
    promptness,
    task_output,
    trace_fiber,
)
from vada.vsa import (
    TendonLaw,
    VsaConfig,
    as_antagonistic,
    joint_torque,
    stiffness,
    torque_promptness,
)

FD_H = 1e-5

ALL_LAWS = [
    TendonLaw.quadratic(1.0),
    TendonLaw.exponential(0.7, 0.9),
    TendonLaw.cubic(1.3),
]


def quad_cfg(state=(2.0, 2.0), R=1.0, k=1.0):
    return VsaConfig(law=TendonLaw.quadratic(k), pulley_radius=R, state=state)


class TestJointTorque:
    def test_symmetric_zero(self):
        assert joint_torque(quad_cfg((1.7, 1.7)), 0.0) == 0.0

    def test_quadratic_at_rest(self):
        # r = x^2/2: R (4 - 1) / 2
        assert joint_torque(quad_cfg((2.0, 1.0)), 0.0) == 1.5

    def test_quadratic_deflected(self):
        # x = (2, 2), theta = 0.5, R = 1: (1.5^2 - 2.5^2) / 2 = -2
        assert joint_torque(quad_cfg((2.0, 2.0)), 0.5) == -2.0

    def test_inadmissible_deflection(self):
        # the core's box check on the extensions (1 - 1.5, 1 + 1.5)
        with pytest.raises(ValueError, match=r"command \(-0\.5, 2\.5\) outside admissible box"):
            joint_torque(quad_cfg((1.0, 1.0)), 1.5)

    @pytest.mark.parametrize("family", ["quadratic", "exponential", "cubic"])
    def test_batch_config_gives_each_entry_its_own_torque(self, family):
        # array k, radius, state and deflection: one actuator per entry
        rng = np.random.default_rng(43)
        n = 200
        k, alpha, radius = rng.uniform(0.2, 3.0, n), rng.uniform(0.3, 1.5, n), rng.uniform(0.5, 2.0, n)
        x1, x2 = rng.uniform(1.0, 2.0, (2, n))
        theta = rng.uniform(-0.4, 0.4, n)

        def config(k, alpha, radius, state):
            law = (TendonLaw.exponential(k, alpha) if family == "exponential"
                   else getattr(TendonLaw, family)(k))
            return VsaConfig(law=law, pulley_radius=radius, state=state)

        batch = joint_torque(config(k, alpha, radius, (x1, x2)), theta)
        assert batch.shape == (n,)
        for i in range(n):
            one = config(k[i].item(), alpha[i].item(), radius[i].item(), (x1[i].item(), x2[i].item()))
            assert joint_torque(one, theta[i].item()) == batch[i]

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            VsaConfig(law=TendonLaw.quadratic(1.0), pulley_radius=1.0, state=(0.0, 1.0))
        with pytest.raises(ValueError):
            VsaConfig(law=TendonLaw.quadratic(1.0), pulley_radius=-1.0, state=(1.0, 1.0))


class TestStiffness:
    def test_quadratic_value(self):
        assert stiffness(quad_cfg((2.0, 2.0))) == 4.0

    def test_pulley_radius_squares(self):
        assert stiffness(quad_cfg((2.0, 2.0), R=2.0)) == 4 * stiffness(quad_cfg((2.0, 2.0)))

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.kind)
    def test_matches_negative_torque_derivative(self, law):
        rng = np.random.default_rng(23)
        for _ in range(100):
            cfg = VsaConfig(
                law=law,
                pulley_radius=rng.uniform(0.5, 2.0),
                state=(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
            )
            fd = -(joint_torque(cfg, FD_H) - joint_torque(cfg, -FD_H)) / (2 * FD_H)
            sigma = stiffness(cfg)
            assert sigma > 0.0
            assert abs(sigma - fd) <= 1e-6 * max(1.0, abs(sigma))


class TestTorquePromptness:
    def test_pythagorean_states(self):
        assert torque_promptness(quad_cfg((3.0, 4.0))) == pytest.approx(5.0, rel=1e-15)

    def test_symmetric_state(self):
        for law in (TendonLaw.exponential(1.0, 1.0), TendonLaw.cubic(1.3)):
            cfg = VsaConfig(law=law, pulley_radius=1.5, state=(0.8, 0.8))
            expected = 1.5 * law.r_prime(0.8) * math.sqrt(2)
            assert torque_promptness(cfg) == pytest.approx(expected, rel=1e-14), law.kind

    def test_swap_invariance(self):
        a = torque_promptness(quad_cfg((1.2, 3.4)))
        b = torque_promptness(quad_cfg((3.4, 1.2)))
        assert a == b


class TestAsAntagonistic:
    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.kind)
    def test_agrees_with_direct_quantities(self, law):
        rng = np.random.default_rng(29)
        for _ in range(100):
            cfg = VsaConfig(
                law=law,
                pulley_radius=rng.uniform(0.5, 2.0),
                state=(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
            )
            act = as_antagonistic(cfg)
            # stiffness and torque_promptness read the core, so the oracle is
            # the tendon formulas written out here
            R, (x1, x2) = cfg.pulley_radius, cfg.state
            sigma = R * R * (law.r_prime(x1) + law.r_prime(x2))
            rho = R * math.hypot(law.r_prime(x1), law.r_prime(x2))
            assert task_output(act, cfg.state) == joint_torque(cfg, 0.0)
            for value in (passive_coefficient(act, cfg.state), stiffness(cfg)):
                assert abs(value - sigma) <= 1e-12 * sigma
            for value in (promptness(act, cfg.state), torque_promptness(cfg)):
                assert abs(value - rho) <= 1e-12 * rho

    def test_fiber_tangent_is_tendon_slope_ratio(self):
        law = TendonLaw.cubic(0.9)
        cfg = VsaConfig(law=law, pulley_radius=1.4, state=(1.6, 0.7))
        act = as_antagonistic(cfg)
        expected = law.r_prime(1.6) / law.r_prime(0.7)
        assert fiber_tangent(act, cfg.state) == pytest.approx(expected, rel=1e-14)


class TestCoContraction:
    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.kind)
    def test_stiffness_and_promptness_increase(self, law):
        cfg = VsaConfig(law=law, pulley_radius=1.0, state=(1.0, 0.8))
        act = as_antagonistic(cfg)
        path = trace_fiber(act, cfg.state, 3.0, 60)
        assert monotonicity_sweep(act, path, "passive").is_strictly_increasing
        assert monotonicity_sweep(act, path, "promptness").is_strictly_increasing
        assert passive_promptness_relation(act, path).is_monotone

    def test_stiffness_increment_sign_matches_hardening(self):
        # discrete version of d(sigma) = R^2 (r''(x1) dx1 + r''(x2) dx2)
        law = TendonLaw.exponential(1.0, 0.8)
        cfg = VsaConfig(law=law, pulley_radius=1.2, state=(1.0, 1.3))
        act = as_antagonistic(cfg)
        path = trace_fiber(act, cfg.state, 2.5, 40)
        R2 = cfg.pulley_radius ** 2
        sigmas = [passive_coefficient(act, u) for u in path.points]
        for (x1a, x2a), (x1b, x2b), sa, sb in zip(
            path.points, path.points[1:], sigmas, sigmas[1:]
        ):
            predicted = R2 * (
                law.r_double_prime(x1a) * (x1b - x1a) + law.r_double_prime(x2a) * (x2b - x2a)
            )
            assert predicted > 0.0
            assert sb - sa > 0.0
            assert math.copysign(1.0, sb - sa) == math.copysign(1.0, predicted)


class TestArrayLaws:
    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.kind)
    def test_law_on_array_matches_pointwise(self, law):
        x = np.random.default_rng(37).uniform(0.2, 3.0, 100)
        for fn in (law.r, law.r_prime, law.r_double_prime):
            batch = np.broadcast_to(fn(x), x.shape)
            # numpy's exp and power may round differently from a scalar call
            np.testing.assert_allclose(batch, [fn(v) for v in x.tolist()], rtol=1e-14)

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.kind)
    def test_inverse_on_array_matches_pointwise(self, law):
        t = np.random.default_rng(41).uniform(0.01, 30.0, 100)
        np.testing.assert_allclose(law.r_inverse(t), [law.r_inverse(v) for v in t.tolist()],
                                   rtol=1e-14)

    def test_exponential_law_keeps_precision_near_zero(self):
        # k (exp(alpha x) - 1) keeps only about 4 digits at alpha x = 9e-13
        k, alpha, x = 0.7, 0.9, 1e-12
        law = TendonLaw.exponential(k, alpha)
        ax = alpha * x
        assert law.r(x) == pytest.approx(k * ax * (1.0 + ax / 2.0), rel=1e-15)
        assert law.r_inverse(law.r(x)) == pytest.approx(x, rel=1e-15)

    def test_array_parameters_give_one_law_per_entry(self):
        k = np.array([0.5, 1.0, 2.0])
        alpha = np.array([0.3, 0.9, 1.5])
        batch = TendonLaw.exponential(k, alpha)
        laws = [TendonLaw.exponential(a, b) for a, b in zip(k.tolist(), alpha.tolist())]
        expected = [law.r_prime(1.2) for law in laws]
        np.testing.assert_allclose(batch.r_prime(1.2), expected, rtol=1e-14)
        assert batch.kind == "exponential(k=<3 values>, alpha=<3 values>)"
        with pytest.raises(ValueError):
            TendonLaw.quadratic(np.array([1.0, -1.0]))
