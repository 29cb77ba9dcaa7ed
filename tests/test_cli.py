import csv
import json
import math

import pytest

from vada.cli import main
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
    def test_roundtrip_identity(self):
        cfg = RunConfig(
            scenario="allocate",
            model={"dual_rotor": {"k_thrust": 1.0, "k_inflow": 1.0}},
            params={"force_level": 3.0, "sigma_des": 4.0},
        )
        again = RunConfig.from_dict(json.loads(cfg.dumps()))
        assert again == cfg
        assert again.dumps() == cfg.dumps()

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
        out = capsys.readouterr().out
        assert "PASS" in out
        with open(tmp_path / "fiber_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        passive = [float(r["passive_coeff"]) for r in rows]
        prompt = [float(r["promptness"]) for r in rows]
        assert all(b > a for a, b in zip(passive, passive[1:]))
        assert all(b > a for a, b in zip(prompt, prompt[1:]))

    def test_zero_step_sweep_vacuous(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "scenario": "fiber-sweep",
                "model": {"dual_rotor": {"k_thrust": 1.0, "k_inflow": 1.0}},
                "params": {"start": [2.0, 1.0], "steps": 0},
            },
        )
        assert main(["fiber-sweep", "--config", config, "--out", str(tmp_path)]) == 0
        assert "vacuous" in capsys.readouterr().out
        with open(tmp_path / "fiber_sweep.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 1

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
        ],
        ids=["nu0-nan", "dt-infinity", "k_thrust-infinity", "missing-forces",
             "decreasing-breakpoints", "non-numeric-force", "speed-not-a-pair",
             "dt-zero", "mass-string", "nu0-string", "speeds-outside-box"],
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
