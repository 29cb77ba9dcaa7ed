import csv
import json
import math

import numpy as np
import pytest

from vada import verify
from vada.cli import _fit_time_constant, main
from vada.config import ConfigError, RunConfig, build_dual_rotor, build_vsa


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


GEOMETRY = {
    "blade_count": 2,
    "radius": 0.1,
    "chord": 0.02,
    "pitch_angle": 0.2,
    "lift_slope": 6.283185307179586,
    "air_density": 1.225,
}


class TestConfig:
    def test_missing_field_names_field(self):
        with pytest.raises(ConfigError, match="radius"):
            build_dual_rotor({"rotor_geometry": {k: v for k, v in GEOMETRY.items() if k != "radius"}})

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            RunConfig(scenario="explode")

    def test_model_section_required(self):
        with pytest.raises(ConfigError):
            RunConfig(scenario="allocate", model={})

    def test_asymmetric_dual_rotor(self):
        dr = build_dual_rotor(
            {
                "dual_rotor": {
                    "fwd": {"k_thrust": 1.0, "k_inflow": 0.5},
                    "bwd": {"k_thrust": 0.8, "k_inflow": 0.6},
                    "speed_box": [[1.0, None], [1.0, 20.0]],
                }
            }
        )
        assert dr.rotor_fwd.k_inflow == 0.5
        assert dr.speed_box == ((1.0, math.inf), (1.0, 20.0))

    def test_vsa_law_kinds(self):
        for law in (
            {"kind": "quadratic", "k": 1.0},
            {"kind": "exponential", "k": 1.0, "alpha": 0.5},
            {"kind": "cubic", "k": 2.0},
        ):
            cfg = build_vsa({"vsa": {"law": law, "pulley_radius": 1.0, "state": [1.0, 1.0]}})
            assert cfg.law.r_prime(1.0) > 0.0

    def test_non_finite_literals_rejected(self, tmp_path):
        for literal in ("NaN", "Infinity", "-Infinity", "1e999", "-2e400", "9" * 400):
            path = tmp_path / "config.json"
            path.write_text('{"scenario": "verify", "params": {"seed": %s}}' % literal)
            with pytest.raises(ConfigError, match=literal):
                RunConfig.load(path)

    def test_bad_law_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            build_vsa({"vsa": {"law": {"kind": "linear", "k": 1.0}, "pulley_radius": 1.0, "state": [1, 1]}})


class TestDeriveCoeffs:
    def test_emits_derived_pair(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"scenario": "derive-coeffs", "model": {"rotor_geometry": GEOMETRY}}
        )
        code = main(["derive-coeffs", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        record = json.loads((tmp_path / "coefficients.json").read_text())
        assert record["k_thrust"] == pytest.approx(1.0262536001726659e-05, rel=1e-12)
        assert record["k_inflow"] == pytest.approx(0.0007696902001294995, rel=1e-12)
        assert record["quadrature_residual"] <= 1e-12

    def test_invalid_geometry_is_usage_error(self, tmp_path):
        bad = dict(GEOMETRY, pitch_angle=0.0)
        config = write_config(
            tmp_path, {"scenario": "derive-coeffs", "model": {"rotor_geometry": bad}}
        )
        assert main(["derive-coeffs", "--config", config]) == 2

    def test_missing_field_is_usage_error(self, tmp_path, capsys):
        partial = {k: v for k, v in GEOMETRY.items() if k != "chord"}
        config = write_config(
            tmp_path, {"scenario": "derive-coeffs", "model": {"rotor_geometry": partial}}
        )
        assert main(["derive-coeffs", "--config", config]) == 2
        assert "chord" in capsys.readouterr().err


class TestFiberSweep:
    def test_exponential_sweep_csv_holds_plain_floats(self, tmp_path):
        law = {"kind": "exponential", "k": 1.0, "alpha": 0.8}
        config = write_config(
            tmp_path, dict(vsa_sweep_config(law=law), params={"u1_end": 2.5, "steps": 30})
        )
        assert main(["fiber-sweep", "--config", config, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "fiber_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        # every cell is a float literal, never a numpy repr such as np.float64(...)
        assert all(float(value) > 0.0 for row in rows for value in row.values() if value != "0.0")

    def test_steep_exponential_sweep_succeeds(self, tmp_path):
        # slope 90 at the start: the far end of the default span is far off its tangent line
        law = {"kind": "exponential", "k": 1.0, "alpha": 3.0}
        config = write_config(tmp_path, vsa_sweep_config(law=law, state=[2.0, 0.5]))
        assert main(["fiber-sweep", "--config", config, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "fiber_sweep.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 50

    def test_integer_beyond_64_bits_is_read_as_a_float(self, tmp_path, capsys):
        # alpha * u2 as Python ints exceeds 64 bits, which np.exp cannot take;
        # as floats both tendon forces overflow, so the fiber level is inf - inf
        big = 2**53 + 1
        law = {"kind": "exponential", "k": 1.0, "alpha": big}
        config = write_config(
            tmp_path, dict(vsa_sweep_config(law=law), params={"start": [1.0, big], "steps": 20})
        )
        assert main(["fiber-sweep", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "float range" in err and err.count("\n") == 1

    def test_target_overflow_along_the_grid_exits_2(self, tmp_path, capsys):
        # exp(u1) passes the largest float at u1 = 709.8, inside this span
        law = {"kind": "exponential", "k": 1.0, "alpha": 1.0}
        config = write_config(tmp_path, dict(vsa_sweep_config(law=law), params={"u1_end": 1000.0}))
        assert main(["fiber-sweep", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "float range" in captured.err

    def test_grid_with_repeated_u1_values_exits_2(self, tmp_path, capsys):
        # 50 steps over a span of one ulp repeat u1 values
        config = write_config(
            tmp_path, dict(vsa_sweep_config(), params={"u1_end": 1.0000000000000002})
        )
        assert main(["fiber-sweep", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "distinct u1 values" in captured.err

    def test_stdout_is_the_csv_alone(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(vsa_sweep_config(), params={"steps": 20}))
        assert main(["fiber-sweep", "--config", config]) == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(captured.out.splitlines()))
        assert rows[0] == ["u1", "u2", "task_residual", "passive_coeff", "promptness"]
        assert len(rows) == 21 and all(len(row) == 5 for row in rows)
        assert [[float(x) for x in row] for row in rows[1:]]
        assert captured.err.splitlines() == [
            "verdict: passive_coeff strict increase: PASS",
            "verdict: promptness strict increase: PASS",
        ]

    def test_vsa_symmetric_fiber_is_diagonal(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "scenario": "fiber-sweep",
                "model": {
                    "vsa": {
                        "law": {"kind": "quadratic", "k": 1.0},
                        "pulley_radius": 1.0,
                        "state": [1.0, 1.0],
                    }
                },
                "params": {"u1_end": 3.0, "steps": 20},
            },
        )
        assert main(["fiber-sweep", "--config", config, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "fiber_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        for row in rows:
            assert float(row["u2"]) == pytest.approx(float(row["u1"]), abs=1e-9)

    def test_vada_sweep_passes(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "scenario": "fiber-sweep",
                "model": {"dual_rotor": {"k_thrust": 1.0, "k_inflow": 1.0}},
                "params": {"start": [2.0, 1.0], "u1_end": 5.0, "steps": 50},
            },
        )
        assert main(["fiber-sweep", "--config", config, "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("PASS") == 2
        with open(tmp_path / "fiber_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        passive = [float(r["passive_coeff"]) for r in rows]
        prompt = [float(r["promptness"]) for r in rows]
        assert all(b > a for a, b in zip(passive, passive[1:]))
        assert all(b > a for a, b in zip(prompt, prompt[1:]))

    @pytest.mark.parametrize("steps", [0, -5, 1, 2.5, "x"])
    def test_steps_must_be_an_integer_of_at_least_two(self, tmp_path, capsys, steps):
        config = write_config(
            tmp_path,
            {
                "scenario": "fiber-sweep",
                "model": {"dual_rotor": {"k_thrust": 1.0, "k_inflow": 1.0}},
                "params": {"start": [2.0, 1.0], "steps": steps},
            },
        )
        assert main(["fiber-sweep", "--config", config, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "fiber_sweep.csv").exists()

    def test_csv_roundtrips_to_exact_values(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "scenario": "fiber-sweep",
                "model": {"dual_rotor": {"k_thrust": 1.3, "k_inflow": 0.7}},
                "params": {"start": [2.0, 1.5], "u1_end": 4.0, "steps": 10},
            },
        )
        assert main(["fiber-sweep", "--config", config, "--out", str(tmp_path)]) == 0
        from vada.antagonistic import passive_coefficient, promptness
        from vada.dual_rotor import as_antagonistic_at_trim

        act = as_antagonistic_at_trim(build_dual_rotor({"dual_rotor": {"k_thrust": 1.3, "k_inflow": 0.7}}))
        with open(tmp_path / "fiber_sweep.csv") as fh:
            for row in csv.DictReader(fh):
                u = (float(row["u1"]), float(row["u2"]))
                assert float(row["passive_coeff"]) == passive_coefficient(act, u)
                assert float(row["promptness"]) == promptness(act, u)


class TestAllocate:
    def test_hand_instance(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "scenario": "allocate",
                "model": {"dual_rotor": {"k_thrust": 1.0, "k_inflow": 1.0}},
                "params": {"force_level": 3.0, "sigma_des": 4.0, "nu_bar": 0.0},
            },
        )
        assert main(["allocate", "--config", config]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["speeds"] == pytest.approx([2.375, 1.625], rel=1e-12)
        assert record["common_mode"] == pytest.approx(4.0, rel=1e-12)
        assert record["differential_mode"] == pytest.approx(0.75, rel=1e-12)
        assert record["feasible"]

    def test_zero_force(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "scenario": "allocate",
                "model": {"dual_rotor": {"k_thrust": 1.0, "k_inflow": 1.0}},
                "params": {"force_level": 0.0, "sigma_des": 3.0},
            },
        )
        assert main(["allocate", "--config", config]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["speeds"][0] == pytest.approx(record["speeds"][1], rel=1e-12)

    def test_infeasible_exit_code(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "scenario": "allocate",
                "model": {"dual_rotor": {"k_thrust": 1.0, "k_inflow": 1.0}},
                "params": {"force_level": 5.0, "sigma_des": 2.0},
            },
        )
        assert main(["allocate", "--config", config]) == 1
        record = json.loads(capsys.readouterr().out)
        assert not record["feasible"]
        assert "reason" in record

    def test_unreachable_force_reports_finite_speeds(self, tmp_path, capsys):
        # the net force on this damping line never drops below -1/3
        config = write_config(
            tmp_path,
            {
                "scenario": "allocate",
                "model": {
                    "dual_rotor": {
                        "fwd": {"k_thrust": 1.0, "k_inflow": 1.0},
                        "bwd": {"k_thrust": 1.0, "k_inflow": 2.0},
                    }
                },
                "params": {"force_level": -1.0, "sigma_des": 1.0, "nu_bar": 0.0},
            },
        )
        assert main(["allocate", "--config", config]) == 1
        record = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert not record["feasible"]
        assert record["reason"] == "differential mode exceeds common mode"
        assert record["speeds"] == pytest.approx([-1.0 / 3.0, 2.0 / 3.0], rel=1e-12)


def loop_fit_time_constant(times, nus, nu_inf):
    """Reference: the per-sample least-squares loop over Python floats."""
    pairs = [(t, math.log(abs(x - nu_inf))) for t, x in zip(times, nus) if abs(x - nu_inf) > 1e-12]
    if len(pairs) < 2:
        return None
    mean_t = sum(t for t, _ in pairs) / len(pairs)
    mean_y = sum(y for _, y in pairs) / len(pairs)
    num = sum((t - mean_t) * (y - mean_y) for t, y in pairs)
    den = sum((t - mean_t) ** 2 for t, _ in pairs)
    if den == 0.0 or num == 0.0:
        return None
    return -den / num if num < 0 else None


class TestFitTimeConstant:
    def test_matches_the_loop_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            tau, nu_inf = rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0)
            t = np.linspace(rng.uniform(0.0, 1.0), 3.0, int(rng.integers(3, 2000)))
            nu = nu_inf + rng.uniform(-2.0, 2.0) * np.exp(-t / tau)
            want = loop_fit_time_constant(t.tolist(), nu.tolist(), nu_inf)
            assert _fit_time_constant(t, nu, nu_inf) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "nus", [[0.5, 0.5, 0.5], [0.5, 0.6, 0.5], [0.6, 0.7, 0.8]], ids=["flat", "one-gap", "growing"]
    )
    def test_no_decay_gives_none(self, nus):
        times = [0.0, 0.1, 0.2]
        assert loop_fit_time_constant(times, nus, 0.5) is None
        assert _fit_time_constant(np.array(times), np.array(nus), 0.5) is None


class TestSimulate:
    def base_config(self, schedule, t_end=2.0):
        return {
            "scenario": "simulate",
            "model": {"dual_rotor": {"k_thrust": 1.0, "k_inflow": 1.0}},
            "params": {
                "mass": 1.0,
                "nu0": 0.0,
                "t_end": t_end,
                "dt": 1e-3,
                "schedule": schedule,
            },
        }

    def test_step_response_fit(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            self.base_config({"speeds": [[1.5, 0.5]], "forces": [0.0]}, t_end=2.5),
        )
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        seg = summary["segments"][0]
        assert seg["c_app"] == pytest.approx(2.0, rel=1e-12)
        assert seg["nu_eq"] == pytest.approx(1.0, rel=1e-12)
        assert seg["fit_relative_deviation"] <= 1e-4

    def test_flat_trajectory_at_equilibrium(self, tmp_path):
        cfg_data = self.base_config({"speeds": [[1.5, 0.5]], "forces": [0.0]})
        cfg_data["params"]["nu0"] = 1.0  # nu_eq for these speeds
        config = write_config(tmp_path, cfg_data)
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(abs(float(r["nu"]) - 1.0) <= 1e-12 for r in rows)

    def test_cocontraction_step_summary(self, tmp_path):
        schedule = {
            "speeds": [[1.5, 0.5], [2.5, 1.5]],
            "forces": [0.0, 0.0],
            "breakpoints": [1.0],
        }
        config = write_config(tmp_path, self.base_config(schedule))
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        first, second = summary["segments"]
        assert second["nu_eq"] == pytest.approx(first["nu_eq"], abs=1e-12)
        assert second["c_app"] > first["c_app"]

    def test_breakpoint_past_t_end_leaves_one_segment(self, tmp_path):
        schedule = {"speeds": [[1.5, 0.5], [2.5, 1.5]], "forces": [0.0, 0.0], "breakpoints": [2.0]}
        config = write_config(tmp_path, self.base_config(schedule, t_end=1.0))
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
        (seg,) = json.loads((tmp_path / "summary.json").read_text())["segments"]
        assert (seg["t_start"], seg["t_end"]) == (0.0, 1.0)
        assert seg["c_app"] == pytest.approx(2.0, rel=1e-12)

    def test_three_segments_summarised_in_order(self, tmp_path):
        schedule = {
            "speeds": [[1.5, 0.5], [2.5, 1.5], [3.5, 2.5]],
            "forces": [0.0, 0.0, 0.0],
            "breakpoints": [0.5, 1.2],
        }
        config = write_config(tmp_path, self.base_config(schedule))
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
        segments = json.loads((tmp_path / "summary.json").read_text())["segments"]
        assert [(s["t_start"], s["t_end"]) for s in segments] == [(0.0, 0.5), (0.5, 1.2), (1.2, 2.0)]
        assert all(s["fit_relative_deviation"] <= 1e-4 for s in segments)

    def test_step_outside_the_rk4_stability_region_exits_2(self, tmp_path, capsys):
        # c_app = 2.5 and mass 1e-3 give z = -25 at dt = 1e-2: R(z) = 1.4e4, and
        # the trajectory grew to -2.65e20 while the run exited 0
        cfg = self.base_config({"speeds": [[1.5, 1.0]], "forces": [0.0]}, t_end=0.05)
        cfg["params"].update(mass=1e-3, dt=1e-2)
        config = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "largest stable dt there is 0.001114" in captured.err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg: cfg["params"].update(nu0=math.nan),
            lambda cfg: cfg["params"].update(dt=math.inf),
            lambda cfg: cfg["model"]["dual_rotor"].update(k_thrust=math.inf),
            lambda cfg: cfg["params"]["schedule"].pop("forces"),
            lambda cfg: cfg["params"]["schedule"].update(breakpoints=[1.5, 0.5]),
            lambda cfg: cfg["params"]["schedule"].update(forces=["heavy", "light", "none"]),
            lambda cfg: cfg["params"]["schedule"]["speeds"].__setitem__(1, [2.5]),
            lambda cfg: cfg["params"].update(dt=0.0),
            lambda cfg: cfg["params"].update(mass="1.0"),
            lambda cfg: cfg["params"].update(nu0="nan"),
            lambda cfg: cfg["model"]["dual_rotor"].update(speed_box=[[1.0, 3.0], [0.0, None]]),
            lambda cfg: cfg["params"]["schedule"]["speeds"].__setitem__(0, ["1.5", 0.5]),
            lambda cfg: cfg["params"]["schedule"].update(forces=[0.0, "0.5", 0.0]),
            lambda cfg: cfg["params"]["schedule"].update(breakpoints=["0.5", 1.5]),
            lambda cfg: cfg["params"]["schedule"].update(forces=[0.0, True, 0.0]),
            lambda cfg: cfg["params"]["schedule"].update(speeds="fast"),
            lambda cfg: cfg["params"].update(schedule=[1.0]),
            lambda cfg: cfg["params"].update(schedule=5),
            lambda cfg: cfg["params"].update(dt=1e-7),
            lambda cfg: cfg["params"]["schedule"]["speeds"].__setitem__(1, [1e300, 1.5]),
            lambda cfg: cfg["model"]["dual_rotor"].update(k_inflow=5e-324, speed_box=[[0.0, None], [0.0, None]])
            or cfg["params"]["schedule"].update(speeds=[[1e-300, 1e-300]] * 3),
        ],
        ids=["nu0-nan", "dt-infinity", "k_thrust-infinity", "missing-forces",
             "decreasing-breakpoints", "non-numeric-force", "speed-not-a-pair",
             "dt-zero", "mass-string", "nu0-string", "speeds-outside-box",
             "speed-numeric-string", "force-numeric-string", "breakpoint-numeric-string",
             "force-bool", "speeds-string", "schedule-list", "schedule-number",
             "too-many-steps", "trajectory-overflows", "damping-underflows"],
    )
    def test_config_faults_exit_2_with_one_line(self, tmp_path, capsys, edit):
        schedule = {
            "speeds": [[1.5, 0.5], [2.5, 1.5], [3.5, 2.5]],
            "forces": [0.0, 0.0, 0.0],
            "breakpoints": [0.5, 1.5],
        }
        cfg = self.base_config(schedule)
        edit(cfg)
        config = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestVerify:
    def test_default_pass(self, tmp_path, capsys):
        config = write_config(tmp_path, {"scenario": "verify", "params": {"seed": 3}})
        assert main(["verify", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"]
        assert report["summary"]["failed"] == 0

    def test_deterministic_given_seed(self, tmp_path, capsys):
        config = write_config(tmp_path, {"scenario": "verify"})
        main(["verify", "--config", config, "--seed", "42"])
        first = capsys.readouterr().out
        main(["verify", "--config", config, "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second

    def test_injected_violation_fails(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"scenario": "verify", "params": {"seed": 3, "inject_constant_damping": True}},
        )
        assert main(["verify", "--config", config]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = [r for r in report["records"] if not r["passed"]]
        assert len(failed) == 1
        assert "injected" in failed[0]["property"]

    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {"scenario": "verify"})
        assert main(["verify", "--config", config, "--seed", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: params.seed") and captured.err.count("\n") == 1

    def test_seed_override_replaces_the_configured_seed(self, tmp_path, capsys):
        config = write_config(tmp_path, {"scenario": "verify", "params": {"seed": 3}})
        assert main(["verify", "--config", config, "--seed", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 4

    def test_non_finite_worst_is_never_printed(self, tmp_path, capsys, monkeypatch):
        def check_isomorphism(rng):
            return verify._record("vsa-vada-isomorphism", 1, True, math.nan)

        monkeypatch.setattr(verify, "check_isomorphism", check_isomorphism)
        config = write_config(tmp_path, {"scenario": "verify", "params": {"seed": 3}})
        assert main(["verify", "--config", config, "--out", str(tmp_path)]) != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "verification_report.json").exists()


UNIT_ROTOR = {"k_thrust": 1.0, "k_inflow": 1.0}


def allocate_config(dual_rotor=UNIT_ROTOR, **params):
    return {
        "scenario": "allocate",
        "model": {"dual_rotor": dual_rotor},
        "params": dict({"force_level": 3.0, "sigma_des": 4.0}, **params),
    }


def vsa_sweep_config(**edits):
    vsa = {"law": {"kind": "quadratic", "k": 1.0}, "pulley_radius": 1.0, "state": [1.0, 1.0]}
    return {"scenario": "fiber-sweep", "model": {"vsa": dict(vsa, **edits)}}


class TestConfigFaults:
    @pytest.mark.parametrize(
        "data",
        [
            allocate_config({"k_thrust": "1", "k_inflow": 1.0}),
            allocate_config({"k_thrust": 1.0, "k_inflow": True}),
            allocate_config(force_level="1"),
            allocate_config(sigma_des=None),
            allocate_config(sigma_des=0.0),
            allocate_config(nu_bar="0"),
            allocate_config(dict(UNIT_ROTOR, speed_box=[[0.0, "a"], [0.0, None]])),
            allocate_config(dict(UNIT_ROTOR, speed_box=[[0.0, None]])),
            allocate_config(dict(UNIT_ROTOR, speed_box=[[2.0, 1.0], [0.0, None]])),
            {"scenario": "fiber-sweep", "model": {"vsa": 5}},
            dict(vsa_sweep_config(), params=[50]),
            {"scenario": "derive-coeffs", "model": {"rotor_geometry": dict(GEOMETRY, blade_count="2")}},
            {"scenario": "derive-coeffs", "model": {"rotor_geometry": GEOMETRY},
             "params": {"sample_speed": "fast"}},
            {"scenario": "derive-coeffs", "model": {"rotor_geometry": GEOMETRY},
             "params": {"sample_speed": -3.0}},
            {"scenario": "derive-coeffs", "model": {"rotor_geometry": GEOMETRY},
             "params": {"sample_speed": 0.0}},
            vsa_sweep_config(law={"kind": "quadratic", "k": "1"}),
            vsa_sweep_config(law={"kind": "exponential", "k": 1.0, "alpha": [0.5]}),
            vsa_sweep_config(law="quadratic"),
            vsa_sweep_config(pulley_radius="1"),
            vsa_sweep_config(state=["a", 1.0]),
            vsa_sweep_config(state=[1.0]),
            dict(vsa_sweep_config(), params={"u1_end": "x"}),
            {"scenario": "fiber-sweep", "model": {"dual_rotor": UNIT_ROTOR},
             "params": {"start": ["a", 1.0]}},
            {"scenario": "fiber-sweep", "model": {"dual_rotor": UNIT_ROTOR},
             "params": {"start": [2.0, 1.0], "nu_bar": "x"}},
            {"scenario": "verify", "params": {"seed": "x"}},
            {"scenario": "verify", "params": {"seed": 1.5}},
            {"scenario": "verify", "params": {"inject_constant_damping": "no"}},
            {"scenario": "verify", "params": {"inject_constant_damping": 0}},
            {"scenario": "fiber-sweep",
             "model": {"dual_rotor": dict(UNIT_ROTOR, speed_box=[[1.0, None], [1.0, None]])},
             "params": {"start": [2.0, 2.0], "nu_bar": 5.0}},
            dict(vsa_sweep_config(), params={"start": [-1.0, 1.0]}),
            {"scenario": "fiber-sweep", "model": {"dual_rotor": UNIT_ROTOR},
             "params": {"start": [0.0, 1.0]}},
            dict(vsa_sweep_config(), params={"u1_end": 0.5}),
            dict(vsa_sweep_config(), params={"u1_end": 1.0}),
            dict(vsa_sweep_config(), params={"steps": 10**7}),
            vsa_sweep_config(law={"kind": [], "k": 1.0}),
            dict(vsa_sweep_config(pulley_radius=1e200, state=[2.0, 1.0]), params={"steps": 5}),
            allocate_config(sigma_des=5e-324),
            allocate_config(force_level=1e300, sigma_des=1e300),
        ],
        ids=["k_thrust-string", "k_inflow-bool", "force_level-string", "sigma_des-null",
             "sigma_des-zero", "nu_bar-string", "speed_box-string", "speed_box-one-pair",
             "speed_box-inverted", "vsa-number", "params-list", "blade_count-string",
             "sample_speed-string", "sample_speed-negative", "sample_speed-zero", "k-string", "alpha-list", "law-string",
             "pulley_radius-string", "state-string", "state-short", "u1_end-string",
             "start-string", "sweep-nu_bar-string", "seed-string", "seed-fraction",
             "inject-string", "inject-number", "sweep-nu_bar-outside-monotone-regime",
             "start-outside-box", "dual-rotor-start-outside-box", "u1_end-below-start",
             "u1_end-at-start", "steps-too-many", "law-kind-list", "sweep-overflows",
             "sigma_des-underflows", "allocation-overflows"],
    )
    def test_exit_2_with_one_line(self, tmp_path, capsys, data):
        config = write_config(tmp_path, data)
        assert main([data["scenario"], "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_config_must_be_an_object(self, tmp_path, capsys):
        assert main(["verify", "--config", write_config(tmp_path, 5)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{scenario:")
        assert main(["verify", "--config", str(bad)]) == 2

    def test_scenario_mismatch(self, tmp_path):
        config = write_config(tmp_path, {"scenario": "verify"})
        assert main(["allocate", "--config", config]) == 2


def assert_one_error_line(capsys, argv, names):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert names in captured.err


class TestPathFaults:
    def test_out_naming_an_existing_file(self, tmp_path, capsys):
        config = write_config(tmp_path, {"scenario": "verify"})
        (tmp_path / "taken").write_text("")
        out = str(tmp_path / "taken")
        assert_one_error_line(capsys, ["verify", "--config", config, "--out", out], out)

    def test_out_under_a_file(self, tmp_path, capsys):
        config = write_config(tmp_path, {"scenario": "verify"})
        (tmp_path / "taken").write_text("")
        out = str(tmp_path / "taken" / "sub")
        assert_one_error_line(capsys, ["verify", "--config", config, "--out", out], out)

    def test_config_naming_a_directory(self, tmp_path, capsys):
        assert_one_error_line(capsys, ["verify", "--config", str(tmp_path)], str(tmp_path))

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "latin1.json"
        config.write_bytes('{"scenario": "verify", "params": {"note": "\u00e9"}}'.encode("latin-1"))
        assert_one_error_line(capsys, ["verify", "--config", str(config)], str(config))
