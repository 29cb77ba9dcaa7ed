import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest

from vada.aero import (
    AffineThrustModel,
    RotorGeometry,
    bet_numeric_thrust,
    derive_coefficients,
    hardening_rate,
    inflow_sensitivity,
    monotone_regime_bound,
    speed_sensitivity,
    thrust,
    thrust_inverse,
)

FD_H = 1e-5


def sample_geometry():
    return RotorGeometry(
        blade_count=2,
        radius=0.1,
        chord=0.02,
        pitch_angle=0.2,
        lift_slope=2 * math.pi,
        air_density=1.225,
    )


def random_geometry(rng):
    return RotorGeometry(
        blade_count=int(rng.integers(1, 5)),
        radius=rng.uniform(0.05, 0.3),
        chord=rng.uniform(0.005, 0.05),
        pitch_angle=rng.uniform(0.05, 0.4),
        lift_slope=rng.uniform(3.0, 7.0),
        air_density=rng.uniform(0.9, 1.3),
    )


class TestDeriveCoefficients:
    def test_hand_computed_values(self):
        # frozen from direct arithmetic: (1/6)*2*1.225*0.02*2pi*0.2*0.1^3
        # and (1/4)*2*1.225*0.02*2pi*0.1^2
        model = derive_coefficients(sample_geometry())
        assert model.k_thrust == pytest.approx(1.0262536001726659e-05, rel=1e-14)
        assert model.k_inflow == pytest.approx(0.0007696902001294995, rel=1e-14)

    def test_radius_scaling(self):
        g = sample_geometry()
        doubled = RotorGeometry(
            blade_count=g.blade_count,
            radius=2 * g.radius,
            chord=g.chord,
            pitch_angle=g.pitch_angle,
            lift_slope=g.lift_slope,
            air_density=g.air_density,
        )
        m1, m2 = derive_coefficients(g), derive_coefficients(doubled)
        assert m2.k_thrust == pytest.approx(8 * m1.k_thrust, rel=1e-12)
        assert m2.k_inflow == pytest.approx(4 * m1.k_inflow, rel=1e-12)

    def test_pitch_only_enters_k_thrust(self):
        g = sample_geometry()
        halved = RotorGeometry(
            blade_count=g.blade_count,
            radius=g.radius,
            chord=g.chord,
            pitch_angle=g.pitch_angle / 2,
            lift_slope=g.lift_slope,
            air_density=g.air_density,
        )
        m1, m2 = derive_coefficients(g), derive_coefficients(halved)
        assert m2.k_thrust == pytest.approx(m1.k_thrust / 2, rel=1e-12)
        assert m2.k_inflow == m1.k_inflow

    @pytest.mark.parametrize("field", ["radius", "chord", "pitch_angle", "lift_slope", "air_density"])
    def test_nonpositive_field_rejected(self, field):
        kwargs = dict(
            blade_count=2, radius=0.1, chord=0.02, pitch_angle=0.2,
            lift_slope=6.0, air_density=1.225,
        )
        kwargs[field] = 0.0
        with pytest.raises(ValueError, match=field):
            RotorGeometry(**kwargs)

    def test_pitch_above_quarter_turn_rejected(self):
        with pytest.raises(ValueError):
            RotorGeometry(2, 0.1, 0.02, math.pi / 2, 6.0, 1.225)


class TestThrust:
    def test_zero_speed(self):
        model = AffineThrustModel(k_thrust=1.0, k_inflow=1.0)
        assert thrust(model, 0.0, 3.7) == 0.0

    def test_pure_quadratic(self):
        model = AffineThrustModel(k_thrust=1.0, k_inflow=1.0)
        assert thrust(model, 2.0, 0.0) == 4.0

    def test_with_inflow(self):
        model = AffineThrustModel(k_thrust=1.0, k_inflow=1.0)
        assert thrust(model, 2.0, 1.0) == 2.0

    def test_negative_speed_rejected(self):
        model = AffineThrustModel(k_thrust=1.0, k_inflow=1.0)
        with pytest.raises(ValueError):
            thrust(model, -1.0, 0.0)

    def test_nonpositive_coefficients_rejected(self):
        with pytest.raises(ValueError):
            AffineThrustModel(k_thrust=0.0, k_inflow=1.0)
        with pytest.raises(ValueError):
            AffineThrustModel(k_thrust=1.0, k_inflow=-0.5)


class TestQuadratureOracle:
    def test_matches_closed_form_any_panels(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            geom = random_geometry(rng)
            v = rng.uniform(10.0, 500.0)
            nu_in = rng.uniform(-5.0, 5.0)
            panels = int(rng.integers(2, 30))
            closed = thrust(derive_coefficients(geom), v, nu_in)
            numeric = bet_numeric_thrust(geom, v, nu_in, panels=panels)
            assert abs(numeric - closed) <= 1e-12 * max(1.0, abs(closed))

    def test_zero_inflow_gives_quadratic_term(self):
        geom = sample_geometry()
        model = derive_coefficients(geom)
        v = 150.0
        assert bet_numeric_thrust(geom, v, 0.0) == pytest.approx(model.k_thrust * v * v, rel=1e-13)

    def test_thrust_zero_at_balancing_inflow(self):
        # nu_in = (k_T / k_D) v is the root of the closed form in nu_in
        geom = sample_geometry()
        model = derive_coefficients(geom)
        v = 200.0
        nu_root = model.k_thrust / model.k_inflow * v
        assert abs(thrust(model, v, nu_root)) < 1e-14
        assert abs(bet_numeric_thrust(geom, v, nu_root)) < 1e-12

    def test_too_few_panels_rejected(self):
        with pytest.raises(ValueError):
            bet_numeric_thrust(sample_geometry(), 100.0, 0.0, panels=1)


class TestDerivatives:
    def test_inflow_sensitivity_values(self):
        model = AffineThrustModel(k_thrust=1.0, k_inflow=0.5)
        assert inflow_sensitivity(model, 0.0) == 0.0
        assert inflow_sensitivity(model, 4.0) == 2.0
        assert inflow_sensitivity(model, 4.0, 3.0) == inflow_sensitivity(model, 4.0, -3.0)

    def test_hardening_rate_constant(self):
        model = AffineThrustModel(k_thrust=1.0, k_inflow=0.25)
        for v, nu in [(0.1, 0.0), (5.0, 3.0), (100.0, -7.0)]:
            assert hardening_rate(model, v, nu) == 0.25

    def test_speed_sensitivity_boundary(self):
        model = AffineThrustModel(k_thrust=1.0, k_inflow=1.0)
        assert speed_sensitivity(model, 1.0, 2.0) == 0.0

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            model = AffineThrustModel(
                k_thrust=rng.uniform(0.1, 2.0), k_inflow=rng.uniform(0.1, 2.0)
            )
            v = rng.uniform(0.5, 50.0)
            nu = rng.uniform(-5.0, 5.0)

            lam = inflow_sensitivity(model, v, nu)
            fd_lam = -(thrust(model, v, nu + FD_H) - thrust(model, v, nu - FD_H)) / (2 * FD_H)
            assert abs(lam - fd_lam) <= 1e-6 * max(1e-30, abs(lam))

            dtdv = speed_sensitivity(model, v, nu)
            fd_dtdv = (thrust(model, v + FD_H, nu) - thrust(model, v - FD_H, nu)) / (2 * FD_H)
            assert abs(dtdv - fd_dtdv) <= 1e-6 * max(1.0, abs(dtdv))

            hr = hardening_rate(model, v, nu)
            fd_hr = (
                inflow_sensitivity(model, v + FD_H, nu) - inflow_sensitivity(model, v - FD_H, nu)
            ) / (2 * FD_H)
            assert abs(hr - fd_hr) <= 1e-9 * max(1.0, abs(hr))

            assert lam > 0.0
            assert hr > 0.0


class TestMonotoneRegime:
    def test_zero_speed(self):
        model = AffineThrustModel(k_thrust=1.0, k_inflow=1.0)
        assert monotone_regime_bound(model, 0.0) == 0.0

    def test_direct_value(self):
        model = AffineThrustModel(k_thrust=2.0, k_inflow=1.0)
        assert monotone_regime_bound(model, 3.0) == 12.0

    def test_sign_change_at_bound(self):
        model = AffineThrustModel(k_thrust=0.7, k_inflow=1.3)
        v = 5.0
        bound = monotone_regime_bound(model, v)
        eps = 1e-6
        assert speed_sensitivity(model, v, bound - eps) > 0.0
        assert speed_sensitivity(model, v, bound + eps) < 0.0


def exact_thrust_inverse(k_thrust, k_inflow, y, nu_in):
    """The larger root of k_T v^2 - k_D nu_in v - y to 60 digits, for the
    float inputs taken as exact. The form that does not cancel, as in the
    float: the textbook one cancels in decimal too when b < 0 and y is small."""
    with localcontext(Context(prec=60)):
        k_t, y = Decimal(k_thrust), Decimal(y)
        b = Decimal(k_inflow) * Decimal(nu_in)
        root = (b * b + 4 * k_t * y).sqrt()
        return (b + root) / (2 * k_t) if b >= 0 else 2 * y / (root - b)


def inverse_grid(n=4000, seed=37):
    """k_T, k_D log-uniform in [0.05, 5]; inflows of both signs, |nu_in|
    log-uniform in [1e-12, 1e2], with +0.0, -0.0 and -5e-324 (whose b
    underflows to -0.0 where k_D < 0.5) among them; y log-uniform in
    [1e-300, 1e300], where b^2 + 4 k_T y stays finite."""
    rng = np.random.default_rng(seed)
    k_thrust, k_inflow = 10.0 ** rng.uniform(np.log10(0.05), np.log10(5.0), (2, n))
    nu_in = 10.0 ** rng.uniform(-12.0, 2.0, n) * rng.choice([1.0, -1.0], n)
    nu_in[: 3 * 20] = np.repeat([0.0, -0.0, -5e-324], 20)
    y = 10.0 ** rng.uniform(-300.0, 300.0, n)
    return k_thrust, k_inflow, y, nu_in


class TestThrustInverse:
    def test_within_3_ulp_of_the_exact_root(self):
        k_thrust, k_inflow, y, nu_in = inverse_grid()
        b = k_inflow * nu_in
        assert ((nu_in < 0.0) & (b == 0.0) & np.signbit(b)).any()  # b underflowed to -0.0
        worst = 0.0
        for k_t, k_d, yi, nu in zip(*(x.tolist() for x in (k_thrust, k_inflow, y, nu_in))):
            exact = exact_thrust_inverse(k_t, k_d, yi, nu)
            v = thrust_inverse(AffineThrustModel(k_t, k_d), yi, nu)
            worst = max(worst, abs(Decimal(float(v)) - exact) / Decimal(math.ulp(float(exact))))
        assert worst <= 3

    def test_array_calls_equal_float_calls_bit_for_bit(self):
        k_thrust, k_inflow, y, nu_in = inverse_grid(n=500)
        models = AffineThrustModel(k_thrust, k_inflow)
        floats = [thrust_inverse(AffineThrustModel(k_t, k_d), yi, nu) for k_t, k_d, yi, nu
                  in zip(*(x.tolist() for x in (k_thrust, k_inflow, y, nu_in)))]
        expected = np.array(floats).view(np.uint64)
        # an array inflow computes both forms; the one not taken may divide by 0
        with np.errstate(divide="ignore", invalid="ignore"):
            batch = thrust_inverse(models, y, nu_in)
        assert np.array_equal(batch.view(np.uint64), expected)
        # a float inflow against arrays of y and coefficients, per entry too
        for nu in (-0.0, -1.5, 2.0):
            one = [thrust_inverse(AffineThrustModel(k_t, k_d), yi, nu) for k_t, k_d, yi
                   in zip(k_thrust.tolist(), k_inflow.tolist(), y.tolist())]
            assert np.array_equal(thrust_inverse(models, y, nu).view(np.uint64),
                                  np.array(one).view(np.uint64))

    def test_a_thrust_with_no_root_is_nan(self):
        model = AffineThrustModel(k_thrust=1.3, k_inflow=0.6)
        nu_in = np.array([2.0, -2.0, 0.0, -0.0])
        b = 0.6 * nu_in
        y = np.where(b == 0.0, -1.0, -1.5 * b * b / (4.0 * 1.3))  # D < 0
        with np.errstate(invalid="ignore"):
            assert np.isnan(thrust_inverse(model, y, nu_in)).all()
            for yi, nu in zip(y.tolist(), nu_in.tolist()):
                assert np.isnan(thrust_inverse(model, yi, nu))


class TestArrayInputs:
    """Every formula takes arrays (speeds, inflows, model or geometry
    fields) and gives what one scalar call per entry gives."""

    def draws(self, n=200):
        rng = np.random.default_rng(41)
        geoms = [random_geometry(rng) for _ in range(n)]
        v = rng.uniform(10.0, 500.0, n)
        nu = rng.uniform(-5.0, 5.0, n)
        return geoms, v, nu

    @staticmethod
    def stacked(geoms):
        return RotorGeometry(
            **{name: np.array([getattr(g, name) for g in geoms]) for name in vars(geoms[0])}
        )

    def test_derive_coefficients(self):
        geoms, _, _ = self.draws()
        batch = derive_coefficients(self.stacked(geoms))
        scalar = [derive_coefficients(g) for g in geoms]
        # numpy's power may round the cube of the radius differently
        np.testing.assert_allclose(batch.k_thrust, [m.k_thrust for m in scalar], rtol=1e-15)
        np.testing.assert_allclose(batch.k_inflow, [m.k_inflow for m in scalar], rtol=1e-15)

    def test_formulas_of_one_model(self):
        _, v, nu = self.draws()
        model = AffineThrustModel(k_thrust=0.7, k_inflow=1.3)
        for fn in (thrust, inflow_sensitivity, speed_sensitivity, hardening_rate):
            batch = fn(model, v, nu)
            assert batch.shape == v.shape
            assert batch.tolist() == [fn(model, x, y) for x, y in zip(v.tolist(), nu.tolist())]
        assert monotone_regime_bound(model, v).tolist() == [
            monotone_regime_bound(model, x) for x in v.tolist()
        ]

    def test_formulas_of_array_models(self):
        geoms, v, nu = self.draws()
        models = derive_coefficients(self.stacked(geoms))
        pairs = list(
            zip(models.k_thrust.tolist(), models.k_inflow.tolist(), v.tolist(), nu.tolist())
        )
        for fn in (thrust, inflow_sensitivity, speed_sensitivity, hardening_rate):
            assert fn(models, v, nu).tolist() == [
                fn(AffineThrustModel(k_t, k_d), x, y) for k_t, k_d, x, y in pairs
            ]

    @pytest.mark.parametrize("panels", [2, 8, 19])
    def test_bet_numeric_thrust(self, panels):
        geoms, v, nu = self.draws()
        batch = bet_numeric_thrust(self.stacked(geoms), v, nu, panels=panels)
        scalar = [bet_numeric_thrust(g, x, y, panels=panels) for g, x, y in zip(geoms, v, nu)]
        # the Simpson sum may run in another order for a batch
        np.testing.assert_allclose(batch, scalar, rtol=1e-14)

    def test_bet_numeric_thrust_panels_per_entry(self):
        # every count from 2 to 19, ten entries each, in shuffled order
        geoms, v, nu = self.draws(180)
        panels = np.random.default_rng(3).permutation(np.repeat(np.arange(2, 20), 10))
        speeds = v.reshape(3, 60)[:, None, :]  # a (3, 1, 60) grid against 60 panel counts
        cases = [
            (self.stacked(geoms), v, nu, panels),
            (sample_geometry(), v, nu, panels),
            (sample_geometry(), speeds, 1.5, panels[:60]),
        ]
        for geom, speed, inflow, counts in cases:
            batch = bet_numeric_thrust(geom, speed, inflow, panels=counts)
            shape = np.broadcast_shapes(np.shape(speed), np.shape(counts))
            assert batch.shape == shape
            for count in range(2, 20):
                at = np.broadcast_to(counts, shape) == count
                single = np.broadcast_to(bet_numeric_thrust(geom, speed, inflow, panels=count), shape)
                assert batch[at].tobytes() == single[at].tobytes()

    def test_bet_numeric_thrust_one_entry_of_panels_is_the_float_call(self):
        for count in (2, 8, 19):
            batch = bet_numeric_thrust(sample_geometry(), 100.0, 1.0, panels=np.array([count]))
            assert batch.shape == (1,)
            assert batch[0] == bet_numeric_thrust(sample_geometry(), 100.0, 1.0, panels=count)

    @pytest.mark.parametrize(
        "panels, refused",
        [([5, 1, 2.5], 1.0), ([3, 2.5, 1], 2.5), ([[4, 0], [-3, 6]], 0), ([2, 9, math.nan], math.nan),
         ([4, math.inf], math.inf)],
    )
    def test_bet_numeric_thrust_refuses_the_first_bad_count(self, panels, refused):
        # the array call raises the line of the int call at its first refused entry
        line = f"need a whole number of at least 2 Simpson panels, got {refused}"
        for counts in (np.array(panels), refused):
            with pytest.raises(ValueError) as error:
                bet_numeric_thrust(sample_geometry(), 100.0, 1.0, panels=counts)
            assert str(error.value) == line

    def test_bet_numeric_thrust_scalar_is_one_value(self):
        assert np.ndim(bet_numeric_thrust(sample_geometry(), 100.0, 1.0)) == 0

    def test_one_bad_entry_rejects_the_array(self):
        model = AffineThrustModel(k_thrust=1.0, k_inflow=1.0)
        with pytest.raises(ValueError):
            thrust(model, np.array([1.0, -1.0]), 0.0)
        with pytest.raises(ValueError):
            inflow_sensitivity(model, np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            bet_numeric_thrust(sample_geometry(), np.array([10.0, 0.0]), 0.0)
        with pytest.raises(ValueError):
            AffineThrustModel(k_thrust=np.array([1.0, 0.0]), k_inflow=1.0)
        geoms, _, _ = self.draws(3)
        fields = vars(self.stacked(geoms))
        with pytest.raises(ValueError, match="blade_count"):
            RotorGeometry(**dict(fields, blade_count=np.array([1, 2.5, 3])))
        with pytest.raises(ValueError, match="chord"):
            RotorGeometry(**dict(fields, chord=np.array([0.01, 0.0, 0.02])))
