import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vada
from vada import cli, config, verify
from vada.cli import main
from vada.aero import derive_coefficients
from vada.config import ConfigError, RunConfig
from vada.dynamics import BodyConfig, simulate


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
            RunConfig.from_dict(dict(allocate_config(), model={"rotor_geometry": {
                k: v for k, v in GEOMETRY.items() if k != "radius"}}))

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            RunConfig(scenario="explode")

    def test_model_section_required(self):
        with pytest.raises(ConfigError):
            RunConfig(scenario="allocate", model={})

    def test_a_model_that_is_not_an_object_is_a_config_error(self):
        # it raised TypeError from `"dual_rotor" in 5`
        with pytest.raises(ConfigError, match="^model must be a JSON object, got 5$"):
            RunConfig(scenario="allocate", model=5)

    def test_a_null_model_section_is_refused_as_a_value(self):
        # it was refused as absent: "model section 'dual_rotor' (or 'rotor_geometry') required"
        with pytest.raises(ConfigError, match=r"^dual_rotor must be a JSON object, got None$"):
            RunConfig(scenario="allocate", model={"dual_rotor": None}, params=allocate_config()["params"])

    def test_asymmetric_dual_rotor(self):
        dr = RunConfig.from_dict(allocate_config({
            "fwd": {"k_thrust": 1.0, "k_inflow": 0.5},
            "bwd": {"k_thrust": 0.8, "k_inflow": 0.6},
            "speed_box": [[1.0, None], [1.0, 20.0]],
        })).system
        assert dr.rotor_fwd.k_inflow == 0.5
        assert dr.speed_box == ((1.0, math.inf), (1.0, 20.0))

    def test_vsa_law_kinds(self):
        for law in (
            {"kind": "quadratic", "k": 1.0},
            {"kind": "exponential", "k": 1.0, "alpha": 0.5},
            {"kind": "cubic", "k": 2.0},
        ):
            cfg = RunConfig.from_dict(vsa_sweep_config(law=law)).system
            assert cfg.law.r_prime(1.0) > 0.0

    def test_non_finite_literals_rejected(self, tmp_path):
        for literal in ("NaN", "Infinity", "-Infinity", "1e999", "-2e400", "9" * 400):
            path = tmp_path / "config.json"
            path.write_text('{"scenario": "verify", "params": {"seed": %s}}' % literal)
            with pytest.raises(ConfigError, match=literal):
                RunConfig.load(path)

    def test_bad_law_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            RunConfig.from_dict(vsa_sweep_config(law={"kind": "linear", "k": 1.0}))


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

    def test_stdout_and_out_file_are_the_same_bytes(self, tmp_path, capsysbinary):
        config = write_config(tmp_path, dict(vsa_sweep_config(), params={"steps": 20}))
        assert main(["fiber-sweep", "--config", config]) == 0
        printed = capsysbinary.readouterr().out
        assert main(["fiber-sweep", "--config", config, "--out", str(tmp_path)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert (tmp_path / "fiber_sweep.csv").read_bytes() == printed

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

    def test_fiber_that_leaves_the_box_exits_1(self, tmp_path, capsys):
        # the level-3 fiber u2 = sqrt(u1^2 - 3) stays inside, but its grid passes u1 = 3 at step 7
        box = dict(UNIT_ROTOR, speed_box=[[0.5, 3.0], [0.5, 3.0]])
        config = write_config(tmp_path, {
            "scenario": "fiber-sweep", "model": {"dual_rotor": box},
            "params": {"start": [2.0, 1.0], "u1_end": 5.0, "steps": 20},
        })
        out = tmp_path / "out"
        assert main(["fiber-sweep", "--config", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: fiber left the admissible box at step 7: "
                                "u=(3.1052631578947367, 2.5773356940411145)\n")
        assert list(out.iterdir()) == []

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

        dr = RunConfig.from_dict(allocate_config({"k_thrust": 1.3, "k_inflow": 0.7})).system
        act = as_antagonistic_at_trim(dr)
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

    def test_rotor_geometry_allocates_as_its_derived_dual_rotor(self, tmp_path, capsys):
        model = derive_coefficients(RunConfig.from_dict(geometry_config("derive-coeffs")).system)
        explicit = {"dual_rotor": {"k_thrust": model.k_thrust, "k_inflow": model.k_inflow}}
        outputs = []
        for name, section in (("geometry", {"rotor_geometry": GEOMETRY}), ("explicit", explicit)):
            data = {"scenario": "allocate", "model": section,
                    "params": {"force_level": 4.0, "sigma_des": 1.5, "nu_bar": 0.5}}
            out = tmp_path / name
            code = main(["allocate", "--config", write_config(tmp_path, data, f"{name}.json"),
                         "--out", str(out)])
            outputs.append((code, capsys.readouterr(), (out / "allocation.json").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0


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

    def test_trajectory_csv_parses_back_to_the_simulated_columns(self, tmp_path):
        config = write_config(tmp_path, SIMULATE_CONFIG)
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
        cfg = RunConfig.from_dict(SIMULATE_CONFIG)
        params = cfg.values
        body = BodyConfig(mass=params["mass"], dual_rotor=cfg.system)
        traj = simulate(body, params["schedule"], params["nu0"], params["t_end"], params["dt"])
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["t", "nu", "v1", "v2", "F", "F_ext"]
        columns = (traj.times, traj.nu, traj.v1, traj.v2, traj.force, traj.f_ext)
        assert len(rows) == len(traj.times) == 501
        for row, expected in zip(rows, zip(*columns)):
            assert [float(cell) for cell in row] == list(expected)

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
        assert seg["rk4_relative_deviation"] <= 1e-4
        # z = -2e-3: the deviation is RK4's own time-constant error, z^4/120
        assert seg["rk4_relative_deviation"] == pytest.approx(2e-3**4 / 120, rel=0.05)

    def test_flat_trajectory_at_equilibrium(self, tmp_path):
        cfg_data = self.base_config({"speeds": [[1.5, 0.5]], "forces": [0.0]})
        cfg_data["params"]["nu0"] = 1.0  # nu_eq for these speeds
        config = write_config(tmp_path, cfg_data)
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(abs(float(r["nu"]) - 1.0) <= 1e-12 for r in rows)
        # no decay to fit, but the recurrence has its time constant all the same
        (seg,) = json.loads((tmp_path / "summary.json").read_text())["segments"]
        assert seg["time_constant_rk4"] == pytest.approx(0.5, rel=1e-12)

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
        assert all(s["rk4_relative_deviation"] <= 1e-4 for s in segments)

    def test_summary_reports_how_each_segment_was_integrated(self, tmp_path):
        # the middle segment is 0.3 dt long: one shortened step
        schedule = {
            "speeds": [[1.5, 0.5], [2.5, 1.5], [3.5, 2.5]],
            "forces": [0.0, 0.0, 0.0],
            "breakpoints": [0.5, 0.5003],
        }
        cfg = self.base_config(schedule, t_end=1.0)
        config = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
        segments = json.loads((tmp_path / "summary.json").read_text())["segments"]
        middle = segments[1]
        assert (middle["steps"], middle["shortened"]) == (1, True)
        assert middle["h"] == pytest.approx(3e-4, rel=1e-9)
        z = -middle["h"] * middle["c_app"] / cfg["params"]["mass"]
        assert middle["r"] == pytest.approx(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24, rel=1e-15)
        # the fields are the trajectory's own segment table
        read = RunConfig.from_dict(cfg)
        traj = simulate(
            BodyConfig(mass=1.0, dual_rotor=read.system), read.values["schedule"], 0.0, 1.0, 1e-3,
        )
        for entry, record in zip(segments, traj.segments):
            assert (entry["steps"], entry["h"], entry["r"], entry["shortened"]) == (
                record.steps, record.h, record.r, record.shortened,
            )
        assert [s["steps"] for s in segments] == [500, 1, 500]

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

    def test_a_segment_too_short_to_decay_is_summarised(self, tmp_path, capsys):
        # R(z) rounds to 1 on the one-ulp segment: it exited 2 with "R(z) = 1 >= 1"
        schedule = {"speeds": [[1.5, 1.5]] * 3, "forces": [0.0] * 3,
                    "breakpoints": [0.1, math.nextafter(0.1, 1.0)]}
        config = write_config(tmp_path, self.base_config(schedule, t_end=0.2))
        assert main(["simulate", "--config", config]) == 0
        short = json.loads(capsys.readouterr().out)["segments"][1]
        assert (short["steps"], short["r"]) == (1, 1.0)
        assert short["rk4_relative_deviation"] < 1e-12

    def test_a_force_against_vanishing_damping_moves_nu(self, tmp_path, capsys):
        # c_app = 2e-200 rounds R(z) to 1: it printed "final_nu": 0.0 and exited 0
        cfg = self.base_config({"speeds": [[1e-200, 1e-200]], "forces": [1.0]}, t_end=1.0)
        cfg["params"]["dt"] = 0.1
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        assert abs(json.loads(capsys.readouterr().out)["final_nu"] - 1.0) <= 1e-12

    def test_a_step_whose_z_underflows_exits_2_with_one_line(self, tmp_path, capsys):
        cfg = self.base_config({"speeds": [[1.5, 1.5]], "forces": [0.0]}, t_end=5e-324)
        cfg["params"]["mass"] = 10.0
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: params: the step 4.94066e-324 from t = 0 is too short to integrate "
                                "at speeds (1.5, 1.5): z = -h c_app / m underflows to 0\n")

    def test_a_step_whose_z_is_subnormal_exits_2_with_one_line(self, tmp_path, capsys):
        # it exited 0 with time_constant_rk4 1.0 against time_constant_model 1.4286
        cfg = self.base_config({"speeds": [[1.5, 1.5]], "forces": [0.0]}, t_end=5e-324)
        cfg["params"]["mass"] = 3.0 / 0.7
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: params: the step 4.94066e-324 from t = 0 is too short to integrate "
                                "at speeds (1.5, 1.5): z = -h c_app / m = -4.94066e-324 is subnormal\n")

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

    @staticmethod
    def run_with_one_failed_record(tmp_path, capsys, seed):
        """Run verify with --out; return the one record that failed, after
        checking that the run exits 1 and prints what it writes."""
        config = write_config(tmp_path, {"scenario": "verify", "params": {"seed": seed}})
        assert main(["verify", "--config", config, "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert (tmp_path / "verification_report.json").read_text() == captured.out
        report = json.loads(captured.out)
        assert report["summary"] == {"total": 10, "passed": 9, "failed": 1} and not report["all_passed"]
        (failed,) = [r for r in report["records"] if not r["passed"]]
        return failed

    @pytest.mark.parametrize("worst", [math.nan, math.inf, -math.inf])
    def test_non_finite_worst_is_written_as_null_and_fails_its_record(self, tmp_path, capsys, monkeypatch,
                                                                      worst):
        monkeypatch.setattr(verify, "check_isomorphism", lambda rng: verify._outcome(1, True, worst))
        failed = self.run_with_one_failed_record(tmp_path, capsys, 3)
        assert failed == {"property": "vsa-vada-isomorphism", "draws": 1, "passed": False, "worst": None}

    def test_a_nan_from_the_rk4_oracle_fails_its_record_not_the_write(self, tmp_path, capsys, monkeypatch):
        # a NaN in the oracle's third response is no config fault: the run
        # reports it in the impedance record and exits 1
        original, calls = verify.analytic_response, []

        def analytic_response(*args):
            calls.append(None)
            nu = original(*args)
            return np.where(np.arange(nu.size) == 0, math.nan, nu) if len(calls) == 3 else nu

        monkeypatch.setattr(verify, "analytic_response", analytic_response)
        failed = self.run_with_one_failed_record(tmp_path, capsys, 0)
        assert failed == {"property": "impedance-rk4-vs-analytic", "draws": 20, "passed": False, "worst": None}


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


SIMULATE_CONFIG = {
    "scenario": "simulate",
    "model": {"dual_rotor": UNIT_ROTOR},
    "params": {
        "mass": 1.0,
        "nu0": 0.0,
        "t_end": 0.5,
        "dt": 1e-3,
        "schedule": {"speeds": [[1.5, 0.5], [2.5, 1.5]], "forces": [0.0, 0.2], "breakpoints": [0.2]},
    },
}


# the forward thrust k_T v1^2 = 1e320 overflows: the force is inf, then NaN from the second sample
OVERFLOWING_SIMULATE_CONFIG = dict(
    SIMULATE_CONFIG,
    model={"dual_rotor": {"fwd": {"k_thrust": 1e300, "k_inflow": 1e-12}, "bwd": UNIT_ROTOR}},
    params=dict(SIMULATE_CONFIG["params"], t_end=0.1, dt=0.01,
                schedule={"speeds": [[1e10, 1.0]], "forces": [0.0]}),
)


def geometry_config(scenario, **edits):
    """A run of `scenario` on identical rotors derived from GEOMETRY with `edits`."""
    params = {
        "derive-coeffs": {},
        "allocate": allocate_config()["params"],
        "simulate": SIMULATE_CONFIG["params"],
    }[scenario]
    return {"scenario": scenario, "model": {"rotor_geometry": dict(GEOMETRY, **edits)},
            "params": params}


# radius ** 3 overflows a float; a radius of 1e-160 or 1e-120 or a pitch of
# 5e-324 gives k_thrust 0.0, which the thrust model refuses
RADIUS_OVERFLOWS = ("error: rotor_geometry: the configured values leave the float range "
                    "(Numerical result out of range)")
K_THRUST_ZERO = "error: rotor_geometry: k_thrust must be strictly positive, got 0.0"
GEOMETRY_FAULTS = [
    pytest.param(geometry_config("derive-coeffs", radius=1e120), RADIUS_OVERFLOWS,
                 id="derive-coeffs-radius-overflows"),
    pytest.param(geometry_config("allocate", radius=1e120), RADIUS_OVERFLOWS,
                 id="allocate-radius-overflows"),
    pytest.param(geometry_config("simulate", radius=1e120), RADIUS_OVERFLOWS,
                 id="simulate-radius-overflows"),
    pytest.param(geometry_config("derive-coeffs", radius=1e-160), K_THRUST_ZERO,
                 id="radius-underflows-k_thrust"),
    pytest.param(geometry_config("simulate", radius=1e-120), K_THRUST_ZERO,
                 id="simulate-radius-underflows-k_thrust"),
    pytest.param(geometry_config("allocate", pitch_angle=5e-324), K_THRUST_ZERO,
                 id="pitch-underflows-k_thrust"),
]


def with_params(data, **params):
    return dict(data, params=dict(data.get("params", {}), **params))


DUAL_ROTOR_SWEEP = {"scenario": "fiber-sweep", "model": {"dual_rotor": UNIT_ROTOR},
                    "params": {"start": [2.0, 1.0]}}
# a valid config of each scenario and model kind, with the params keys it reads
PARAMS_BASES = {
    "derive-coeffs": (geometry_config("derive-coeffs"), ["sample_speed", "sample_inflow"]),
    "vsa-sweep": (vsa_sweep_config(), ["start", "steps", "u1_end"]),
    "dual-rotor-sweep": (DUAL_ROTOR_SWEEP, ["start", "steps", "u1_end", "nu_bar"]),
    "allocate": (allocate_config(), ["nu_bar", "force_level", "sigma_des"]),
    "simulate": (SIMULATE_CONFIG, ["mass", "nu0", "t_end", "dt", "schedule"]),
    "verify": ({"scenario": "verify"}, ["seed", "inject_constant_damping"]),
}
# the line of a value of the wrong JSON type, where it is not "must be a number"
TYPE_FAULT_LINES = {
    "start": "error: params.start: expected a pair [a, b] of numbers, got {!r}",
    "schedule": "error: params.schedule must be a JSON object, got {!r}",
    "inject_constant_damping": "error: params.inject_constant_damping must be true or false, got {!r}",
}


def without_param(data, key):
    return dict(data, params={k: v for k, v in data["params"].items() if k != key})


# a string and a boolean for each params key (a boolean is inject_constant_damping's type)
PARAMS_FAULTS = [
    pytest.param(
        with_params(data, **{key: value}),
        TYPE_FAULT_LINES.get(key, f"error: params.{key} must be a number, got {{!r}}").format(value),
        id=f"{name}-{key}-{'bool' if value is True else 'string'}")
    for name, (data, keys) in PARAMS_BASES.items() for key in keys
    for value in ("x", True) if (key, value) != ("inject_constant_damping", True)
] + [
    *(pytest.param(without_param(allocate_config(), key), f"error: params: missing field {key!r}",
                   id=f"allocate-without-{key}")
      for key in ("force_level", "sigma_des")),
    *(pytest.param(without_param(SIMULATE_CONFIG, key), f"error: params: missing field {key!r}",
                   id=f"simulate-without-{key}")
      for key in ("mass", "nu0", "t_end", "dt")),
    pytest.param(without_param(DUAL_ROTOR_SWEEP, "start"),
                 "error: params.start required for a dual-rotor fiber sweep",
                 id="dual-rotor-sweep-without-start"),
    pytest.param(without_param(SIMULATE_CONFIG, "schedule"), "error: params.schedule required for simulate",
                 id="simulate-without-schedule"),
    pytest.param(with_params(geometry_config("derive-coeffs"), sample_speed=0),
                 "error: params.sample_speed must be positive, got 0.0", id="sample_speed-zero"),
    pytest.param(with_params(geometry_config("derive-coeffs"), sample_speed=-3),
                 "error: params.sample_speed must be positive, got -3.0", id="sample_speed-negative"),
    pytest.param(with_params(vsa_sweep_config(), steps=1),
                 "error: params.steps must be an integer of at least 2, got 1", id="steps-one"),
    pytest.param(with_params(vsa_sweep_config(), steps=2.5),
                 "error: params.steps must be an integer of at least 2, got 2.5", id="steps-fraction"),
    pytest.param(with_params(DUAL_ROTOR_SWEEP, steps=10**7),
                 "error: params.steps must be at most 1000000, got 10000000", id="steps-above-the-cap"),
    pytest.param(with_params(SIMULATE_CONFIG, dt=1e-7),
                 "error: params: t_end / dt must be at most 1000000, got 5000000.0",
                 id="t_end-over-dt-above-the-cap"),
    pytest.param(with_params({"scenario": "verify"}, seed=-1),
                 "error: params.seed must be an integer of at least 0, got -1", id="seed-negative"),
    pytest.param(with_params({"scenario": "verify"}, inject_constant_damping=1),
                 "error: params.inject_constant_damping must be true or false, got 1", id="inject-number"),
]


LAW_KINDS = "['cubic', 'exponential', 'quadratic']"
NO_FLOAT = "the configured values leave the float range (Out of range float values are not JSON compliant: nan)"


class TestConfigFaults:
    @pytest.mark.parametrize(
        "data, line",
        [
            # the model sections
            pytest.param({"scenario": "derive-coeffs", "model": {"rotor_geometry": {
                k: v for k, v in GEOMETRY.items() if k != "chord"}}},
                "error: rotor_geometry: missing field 'chord'", id="rotor_geometry-missing"),
            pytest.param({"scenario": "derive-coeffs", "model": {"rotor_geometry": dict(GEOMETRY, blade_count="2")}},
                         "error: rotor_geometry.blade_count must be a number, got '2'", id="blade_count-string"),
            *GEOMETRY_FAULTS,
            pytest.param(allocate_config({"k_thrust": "1", "k_inflow": 1.0}),
                         "error: dual_rotor.k_thrust must be a number, got '1'", id="k_thrust-string"),
            pytest.param(allocate_config({"k_thrust": 1.0, "k_inflow": True}),
                         "error: dual_rotor.k_inflow must be a number, got True", id="k_inflow-bool"),
            pytest.param(allocate_config({"fwd": {"k_thrust": "1", "k_inflow": 1.0}, "bwd": UNIT_ROTOR}),
                         "error: dual_rotor.fwd.k_thrust must be a number, got '1'", id="fwd-k_thrust-string"),
            # a speed_box entry is named by its index, as schedule speeds are
            pytest.param(allocate_config(dict(UNIT_ROTOR, speed_box=[[0.0, "a"], [0.0, None]])),
                         "error: dual_rotor.speed_box.0.1 must be a number, got 'a'", id="speed_box-string"),
            pytest.param(allocate_config(dict(UNIT_ROTOR, speed_box=[[0.0, None], [0.0, "b"]])),
                         "error: dual_rotor.speed_box.1.1 must be a number, got 'b'",
                         id="speed_box-second-entry-string"),
            pytest.param(allocate_config(dict(UNIT_ROTOR, speed_box=[[0.0, None]])),
                         "error: dual_rotor.speed_box must be [[lo, hi], [lo, hi]], got [[0.0, None]]",
                         id="speed_box-one-pair"),
            # null is refused here as for every other key; it read as the default box
            pytest.param(allocate_config(dict(UNIT_ROTOR, speed_box=None)),
                         "error: dual_rotor.speed_box must be [[lo, hi], [lo, hi]], got None",
                         id="speed_box-null"),
            pytest.param(allocate_config(dict(UNIT_ROTOR, speed_box=[[2.0, 1.0], [0.0, None]])),
                         "error: dual_rotor: invalid speed box ((2.0, 1.0), (0.0, inf))", id="speed_box-inverted"),
            pytest.param({"scenario": "fiber-sweep", "model": {"vsa": 5}},
                         "error: vsa must be a JSON object, got 5", id="vsa-number"),
            pytest.param(vsa_sweep_config(law={"kind": "quadratic", "k": "1"}),
                         "error: vsa.law.k must be a number, got '1'", id="k-string"),
            pytest.param(vsa_sweep_config(law={"kind": "exponential", "k": 1.0, "alpha": [0.5]}),
                         "error: vsa.law.alpha must be a number, got [0.5]", id="alpha-list"),
            pytest.param(vsa_sweep_config(law={"k": 1.0}),
                         f"error: vsa.law.kind must be one of {LAW_KINDS}, got None", id="law-without-kind"),
            pytest.param(vsa_sweep_config(law={"kind": [], "k": 1.0}),
                         f"error: vsa.law.kind must be one of {LAW_KINDS}, got []", id="law-kind-list"),
            pytest.param(vsa_sweep_config(pulley_radius="1"),
                         "error: vsa.pulley_radius must be a number, got '1'", id="pulley_radius-string"),
            pytest.param(vsa_sweep_config(state=["a", 1.0]),
                         "error: vsa.state.0 must be a number, got 'a'", id="state-string"),
            pytest.param(vsa_sweep_config(state=[1.0]),
                         "error: vsa.state: expected a pair [a, b] of numbers, got [1.0]", id="state-short"),
            pytest.param(vsa_sweep_config(state=[1.0, 1.0, 99.0]),
                         "error: vsa.state: expected a pair [a, b] of numbers, got [1.0, 1.0, 99.0]",
                         id="state-long"),
            pytest.param(vsa_sweep_config(law={"kind": "exponential", "k": 1.0, "alpha": 0.0}),
                         "error: vsa: k and alpha must be positive, got k=1.0, alpha=0.0", id="alpha-zero"),
            pytest.param(vsa_sweep_config(law={"kind": "cubic", "k": 0.0}),
                         "error: vsa: k must be positive, got 0.0", id="cubic-k-zero"),
            pytest.param(dict(allocate_config(), model=vsa_sweep_config()["model"]),
                         "error: model section 'dual_rotor' or 'rotor_geometry' required for this scenario",
                         id="allocate-with-a-vsa-model"),
            pytest.param(dict(SIMULATE_CONFIG, model=vsa_sweep_config()["model"]),
                         "error: model section 'dual_rotor' or 'rotor_geometry' required for this scenario",
                         id="simulate-with-a-vsa-model"),
            pytest.param({"scenario": "derive-coeffs", "model": {"dual_rotor": UNIT_ROTOR}},
                         "error: model section 'rotor_geometry' required for this scenario",
                         id="derive-coeffs-with-a-dual-rotor-model"),
            # every object below "model" is read alike: not an object, then an
            # unknown key, then the first missing key in table order
            pytest.param(vsa_sweep_config(law="quadratic"),
                         "error: vsa.law must be a JSON object, got 'quadratic'", id="law-string"),
            pytest.param(vsa_sweep_config(law=None), "error: vsa.law must be a JSON object, got None",
                         id="law-null"),
            pytest.param(allocate_config({"fwd": 5, "bwd": UNIT_ROTOR}),
                         "error: dual_rotor.fwd must be a JSON object, got 5", id="fwd-number"),
            pytest.param(allocate_config({"fwd": UNIT_ROTOR, "bwd": [1.0, 1.0]}),
                         "error: dual_rotor.bwd must be a JSON object, got [1.0, 1.0]", id="bwd-list"),
            pytest.param(allocate_config({"fwd": UNIT_ROTOR}), "error: dual_rotor: missing field 'bwd'",
                         id="dual_rotor-without-bwd"),
            pytest.param(allocate_config({"bwd": UNIT_ROTOR, "speed_box": None}),
                         "error: dual_rotor: missing field 'fwd'", id="dual_rotor-without-fwd"),
            pytest.param({"scenario": "fiber-sweep", "model": {"vsa": {"pulley_radius": 1.0}}},
                         "error: vsa: missing field 'law'", id="vsa-without-law-and-state"),
            pytest.param({"scenario": "fiber-sweep", "model": {"vsa": {
                k: v for k, v in vsa_sweep_config()["model"]["vsa"].items() if k != "state"}}},
                "error: vsa: missing field 'state'", id="vsa-without-state"),
            pytest.param(with_params(SIMULATE_CONFIG, schedule={"speeds": [[1.5, 0.5]]}),
                         "error: params.schedule: missing field 'forces'", id="schedule-without-forces"),
            pytest.param(with_params(SIMULATE_CONFIG, schedule={}),
                         "error: params.schedule: missing field 'speeds'", id="schedule-empty"),
            # the top level
            pytest.param(dict(vsa_sweep_config(), params=[50]),
                         "error: params must be a JSON object, got [50]", id="params-list"),
            pytest.param({"model": {"dual_rotor": UNIT_ROTOR}, "params": {"force_level": 3.0, "sigma_des": 4.0}},
                         "error: config: missing field 'scenario'", id="no-scenario-key"),
            pytest.param({"scenario": "verify", "parameters": {"seed": 3}},
                         "error: config: unknown keys ['parameters']", id="unknown-top-level-key"),
            # params, as configured
            *PARAMS_FAULTS,
            pytest.param(allocate_config(force_level="1"),
                         "error: params.force_level must be a number, got '1'", id="force_level-string"),
            pytest.param(allocate_config(sigma_des=None),
                         "error: params.sigma_des must be a number, got None", id="sigma_des-null"),
            pytest.param(allocate_config(nu_bar="0"),
                         "error: params.nu_bar must be a number, got '0'", id="nu_bar-string"),
            pytest.param({"scenario": "derive-coeffs", "model": {"rotor_geometry": GEOMETRY},
                          "params": {"sample_speed": "fast"}},
                         "error: params.sample_speed must be a number, got 'fast'", id="sample_speed-string"),
            pytest.param({"scenario": "derive-coeffs", "model": {"rotor_geometry": GEOMETRY},
                          "params": {"sample_speed": -3.0}},
                         "error: params.sample_speed must be positive, got -3.0", id="sample_speed-float-negative"),
            pytest.param({"scenario": "derive-coeffs", "model": {"rotor_geometry": GEOMETRY},
                          "params": {"sample_speed": 0.0}},
                         "error: params.sample_speed must be positive, got 0.0", id="sample_speed-float-zero"),
            pytest.param({"scenario": "fiber-sweep", "model": {"dual_rotor": UNIT_ROTOR},
                          "params": {"start": ["a", 1.0]}},
                         "error: params.start.0 must be a number, got 'a'", id="start-string"),
            pytest.param({"scenario": "fiber-sweep", "model": {"dual_rotor": UNIT_ROTOR},
                          "params": {"start": [2.0, 2.0, "junk"]}},
                         "error: params.start: expected a pair [a, b] of numbers, got [2.0, 2.0, 'junk']",
                         id="start-long"),
            pytest.param({"scenario": "fiber-sweep", "model": {"dual_rotor": UNIT_ROTOR}},
                         "error: params.start required for a dual-rotor fiber sweep",
                         id="dual-rotor-sweep-without-params"),
            pytest.param(dict(vsa_sweep_config(), params={"steps": 10**7}),
                         "error: params.steps must be at most 1000000, got 10000000", id="steps-too-many"),
            pytest.param({"scenario": "verify", "params": {"seed": 1.5}},
                         "error: params.seed must be an integer of at least 0, got 1.5", id="seed-fraction"),
            pytest.param({"scenario": "verify", "params": {"inject_constant_damping": "no"}},
                         "error: params.inject_constant_damping must be true or false, got 'no'",
                         id="inject-string"),
            pytest.param({"scenario": "verify", "params": {"inject_constant_damping": 0}},
                         "error: params.inject_constant_damping must be true or false, got 0", id="inject-zero"),
            pytest.param(dict(SIMULATE_CONFIG, params=dict(SIMULATE_CONFIG["params"], schedule=dict(
                SIMULATE_CONFIG["params"]["schedule"], forces=["x", 0.2]))),
                "error: params.schedule.forces.0 must be a number, got 'x'", id="schedule-force-string"),
            # params, as the run's own checks refuse them
            pytest.param(allocate_config(sigma_des=0.0),
                         "error: params: requested damping must be positive, got 0.0", id="sigma_des-zero"),
            pytest.param({"scenario": "fiber-sweep",
                          "model": {"dual_rotor": dict(UNIT_ROTOR, speed_box=[[1.0, None], [1.0, None]])},
                          "params": {"start": [2.0, 2.0], "nu_bar": 5.0}},
                         "error: params.nu_bar: trim inflow 5.0 violates the monotone regime on the forward rotor box",
                         id="sweep-nu_bar-outside-monotone-regime"),
            pytest.param(dict(vsa_sweep_config(), params={"start": [-1.0, 1.0]}),
                         "error: params: command (-1.0, 1.0) outside admissible box ((0.0, inf), (0.0, inf))",
                         id="start-outside-box"),
            # trace_fiber's own check of the start, under the params key
            pytest.param({"scenario": "fiber-sweep", "model": {"dual_rotor": UNIT_ROTOR},
                          "params": {"start": [0.0, 1.0]}},
                         "error: params: command (0.0, 1.0) outside admissible box ((0.0, inf), (0.0, inf))",
                         id="dual-rotor-start-outside-box"),
            pytest.param(dict(vsa_sweep_config(), params={"u1_end": 0.5}),
                         "error: params: u1_end (0.5) must exceed start u1 (1.0) by enough to give 50 distinct "
                         "u1 values", id="u1_end-below-start"),
            pytest.param(dict(vsa_sweep_config(), params={"u1_end": 1.0}),
                         "error: params: u1_end (1.0) must exceed start u1 (1.0) by enough to give 50 distinct "
                         "u1 values", id="u1_end-at-start"),
            pytest.param(dict(SIMULATE_CONFIG, params=dict(SIMULATE_CONFIG["params"], mass=0.0)),
                         "error: params: mass must be positive, got 0.0", id="mass-zero"),
            # outputs that leave the float range
            pytest.param(dict(vsa_sweep_config(pulley_radius=1e200, state=[2.0, 1.0]), params={"steps": 5}),
                         "error: the configured values drive the sweep out of the float range",
                         id="sweep-overflows"),
            pytest.param(allocate_config(sigma_des=5e-324), f"error: allocation.json: {NO_FLOAT}",
                         id="sigma_des-underflows"),
            pytest.param(allocate_config(force_level=1e300, sigma_des=1e300), f"error: allocation.json: {NO_FLOAT}",
                         id="allocation-overflows"),
            pytest.param(OVERFLOWING_SIMULATE_CONFIG,
                         "error: params: the configured values drive the trajectory out of the float range",
                         id="trajectory-overflows"),
        ],
    )
    def test_a_fault_names_its_key_once(self, tmp_path, capsys, data, line):
        assert main([data.get("scenario", "allocate"), "--config", write_config(tmp_path, data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"

    @pytest.mark.parametrize("steps, got", [(1e300, "1e+300"), (1e7, "10000000.0")])
    def test_steps_above_the_cap_are_reported_as_configured(self, tmp_path, capsys, steps, got):
        # the value was converted to int first: 1e300 printed as a 301-digit integer
        data = with_params(vsa_sweep_config(), steps=steps)
        assert main(["fiber-sweep", "--config", write_config(tmp_path, data)]) == 2
        assert capsys.readouterr().err == f"error: params.steps must be at most 1000000, got {got}\n"

    def test_trajectory_out_of_the_float_range_writes_no_csv(self, tmp_path, capsys):
        config = write_config(tmp_path, OVERFLOWING_SIMULATE_CONFIG)
        out = tmp_path / "out"
        assert_one_error_line(capsys, ["simulate", "--config", config, "--out", str(out)],
                              "params: the configured values drive the trajectory out of the float range")
        assert list(out.iterdir()) == []

    def test_config_must_be_an_object(self, tmp_path, capsys):
        assert main(["verify", "--config", write_config(tmp_path, 5)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_a_top_level_list_is_refused_as_a_value(self, tmp_path, capsys):
        # it read "error: the config must be a JSON object, got [1]"
        assert main(["verify", "--config", write_config(tmp_path, [1])]) == 2
        assert capsys.readouterr().err == "error: config must be a JSON object, got [1]\n"


class TestUnknownKeys:
    """A key that the run does not read, such as a misspelled one, is refused."""

    def test_misspelled_keys_are_not_ignored(self, tmp_path, capsys):
        # spelled right, this request is infeasible and exits 1; misspelled,
        # it used to print speeds (2.375, 1.625), feasible, and exit 0
        box = [[1.0, 2.0], [1.0, 2.0]]
        # the model is read before params, so each misspelling is refused in turn
        for data, line in [
            (allocate_config(dict(UNIT_ROTOR, speedbox=box), nubar=5.0), "dual_rotor: unknown keys ['speedbox']"),
            (allocate_config(dict(UNIT_ROTOR, speed_box=box), nubar=5.0), "params: unknown keys ['nubar']"),
        ]:
            assert main(["allocate", "--config", write_config(tmp_path, data)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {line}\n"
        fixed = allocate_config(dict(UNIT_ROTOR, speed_box=box), nu_bar=5.0)
        assert main(["allocate", "--config", write_config(tmp_path, fixed)]) == 1

    @pytest.mark.parametrize(
        "data, line",
        [
            (dict(allocate_config(), extra=1), "config: unknown keys ['extra']"),
            (dict(allocate_config(), model={"dual_rotor": UNIT_ROTOR, "dual_rotr": {}}),
             "model: unknown keys ['dual_rotr']"),
            (allocate_config(dict(UNIT_ROTOR, speedbox=None)),
             "dual_rotor: unknown keys ['speedbox']"),
            # k_thrust beside fwd/bwd is not read
            (allocate_config({"fwd": UNIT_ROTOR, "bwd": UNIT_ROTOR, "k_thrust": 1.0}),
             "dual_rotor: unknown keys ['k_thrust']"),
            (allocate_config({"fwd": UNIT_ROTOR, "bwd": dict(UNIT_ROTOR, speed_box=None)}),
             "dual_rotor.bwd: unknown keys ['speed_box']"),
            (geometry_config("derive-coeffs", radius_m=0.1), "rotor_geometry: unknown keys ['radius_m']"),
            (vsa_sweep_config(radius=1.0), "vsa: unknown keys ['radius']"),
            (vsa_sweep_config(law={"kind": "quadratic", "k": 1.0, "alpha": 2.0}),
             "vsa.law: unknown keys ['alpha']"),
            (with_params(geometry_config("derive-coeffs"), speed=1.0), "params: unknown keys ['speed']"),
            (with_params(vsa_sweep_config(), step=5), "params: unknown keys ['step']"),
            # a trim inflow is read only for a dual rotor
            (with_params(vsa_sweep_config(), nu_bar=0.0), "params: unknown keys ['nu_bar']"),
            (with_params(SIMULATE_CONFIG, t_start=0.0), "params: unknown keys ['t_start']"),
            (with_params(SIMULATE_CONFIG, schedule=dict(SIMULATE_CONFIG["params"]["schedule"], b=[])),
             "params.schedule: unknown keys ['b']"),
            ({"scenario": "verify", "params": {"sead": 3, "inject": True}},
             "params: unknown keys ['inject', 'sead']"),
            ({"scenario": "verify", "model": {"dual_rotor": UNIT_ROTOR}},
             "model: unknown keys ['dual_rotor']"),
        ],
        ids=["top-level", "model", "dual_rotor", "dual_rotor-pair", "dual_rotor-bwd",
             "rotor_geometry", "vsa", "vsa-law", "derive-coeffs-params", "fiber-sweep-params",
             "vsa-sweep-nu_bar", "simulate-params", "schedule", "verify-params", "verify-model"],
    )
    def test_exit_2_naming_the_object(self, tmp_path, capsys, data, line):
        assert main([data["scenario"], "--config", write_config(tmp_path, data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {line}\n"

    def test_seed_override_is_ignored_by_a_scenario_that_reads_no_seed(self, tmp_path, capsys):
        config = write_config(tmp_path, allocate_config())
        assert main(["allocate", "--config", config, "--seed", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["feasible"] is True


class ReadRecorder(dict):
    """A mapping that adds each key looked up in it to `read`."""

    def __init__(self, data, read):
        super().__init__(data)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class TestParamsTable:
    """config._PARAMS is the one place that defines a scenario's params."""

    @pytest.mark.parametrize("name", PARAMS_BASES)
    def test_a_runner_reads_exactly_its_table_keys(self, tmp_path, name):
        data, keys = PARAMS_BASES[name]
        cfg = RunConfig.from_dict(data)
        (section,) = [k for k in ("rotor_geometry", "dual_rotor", "vsa") if k in cfg.model] or [None]
        _, table = config._PARAMS[cfg.scenario][section]
        read = set()
        # what the runner reads, of the typed values or of the params as given
        object.__setattr__(cfg, "params", ReadRecorder(cfg.params, read))
        object.__setattr__(cfg, "values", ReadRecorder(cfg.values, read))
        with np.errstate(all="ignore"):
            cli.RUNNERS[cfg.scenario](cfg, tmp_path)
        assert read == set(table)
        assert list(table) == keys

    def test_the_docstring_lists_every_key_under_its_scenario(self):
        schema = config.__doc__.split("Params, per scenario")[1].split("\n\n")[0]
        blocks = dict(re.findall(r"^  ([a-z-]+): +(.*(?:\n {4,}.*)*)", schema, re.M))
        assert list(blocks) == list(config._PARAMS)
        for scenario, tables in config._PARAMS.items():
            named = set(re.findall(r"\w+", blocks[scenario]))
            assert {key for _, table in tables.values() for key in table} <= named, scenario


MODEL_OBJECTS = {"rotor_geometry": config._ROTOR_GEOMETRY, "thrust_model": config._THRUST_MODEL,
                 "dual_rotor": config._DUAL_ROTOR, "dual_rotor-pair": config._DUAL_ROTOR_PAIR,
                 "derived-pair": config._DERIVED_PAIR, "vsa": config._VSA, "schedule": config._SCHEDULE}


def assert_refused_as_a_value_then_by_key(read, where, first):
    """read(section) refuses a value that is not an object, then an unknown
    key, then the missing key `first`, each as the object `where`."""
    for section, line in [([1.0], f"{where} must be a JSON object, got [1.0]"),
                          ({"zz": 1.0}, f"{where}: unknown keys ['zz']"),
                          ({}, f"{where}: missing field {first!r}")]:
        with pytest.raises(ConfigError) as info:
            read(section)
        assert str(info.value) == line


class TestModelTables:
    """Every JSON object but "model" is one table, read by config._read."""

    @pytest.mark.parametrize("name", MODEL_OBJECTS)
    def test_an_object_is_refused_as_a_value_then_by_key(self, name):
        read = MODEL_OBJECTS[name]
        assert_refused_as_a_value_then_by_key(lambda section: read(section, "where"), "where",
                                              next(iter(read.table)))

    def test_the_top_level_is_refused_as_a_value_then_by_key(self):
        assert_refused_as_a_value_then_by_key(RunConfig.from_dict, "config", "scenario")

    def test_the_docstring_lists_every_key_under_its_section(self):
        schema = config.__doc__.split("Model sections")[1].split("\n\n")[0]
        blocks = dict(re.findall(r"^  ([a-z_]+): +(.*(?:\n {4,}.*)*)", schema, re.M))
        assert list(blocks) == list(config._MODEL_SECTIONS)
        law = {"kind", *config._LAWS, *(key for _, table in config._LAWS.values() for key in table)}
        keys = {
            "rotor_geometry": set(config._ROTOR_GEOMETRY.table),
            "dual_rotor": {*config._DUAL_ROTOR.table, *config._DUAL_ROTOR_PAIR.table},
            "vsa": {*config._VSA.table, *law},
        }
        for section, block in blocks.items():
            # each key is quoted, so that a stale one fails too
            assert set(re.findall(r'"(\w+)"', block)) == keys[section], section


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [[], ["explode", "--config", "c.json"], ["verify"], ["verify", "--config", "c.json", "--seed", "x"]],
        ids=["no-arguments", "unknown-scenario", "missing-config", "seed-not-an-integer"],
    )
    def test_argument_errors_print_usage(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: vada ")

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: vada ")

    def test_missing_config_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{scenario:")
        assert main(["verify", "--config", str(bad)]) == 2

    def test_scenario_mismatch(self, tmp_path):
        config = write_config(tmp_path, {"scenario": "verify"})
        assert main(["allocate", "--config", config]) == 2


def test_readme_example_prints_what_the_readme_shows(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    config = re.search(r"Example:\n\n```json\n(.*?)```", readme, re.S).group(1)
    command, expected = re.search(r"```sh\n\$ PYTHONPATH=src python -m vada\.cli (.*?)\n(.*?)```",
                                  readme, re.S).groups()
    (tmp_path / "alloc.json").write_text(config)
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 0
    assert capsys.readouterr().out == expected


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

    @pytest.mark.parametrize(
        "data, argv, names",
        [({"scenario": "verify", "params": {"seed": "x"}}, [], "params.seed"),
         ({"scenario": "verify"}, ["--seed", "-1"], "params.seed"),
         (SIMULATE_CONFIG, [], "but 'verify' was requested")],
        ids=["config", "seed", "scenario"],
    )
    def test_a_config_fault_makes_no_out_directory(self, tmp_path, capsys, data, argv, names):
        config = write_config(tmp_path, data)
        out = str(tmp_path / "fresh" / "out")
        assert_one_error_line(capsys, ["verify", "--config", config, "--out", out, *argv], names)
        assert not (tmp_path / "fresh").exists()

    def test_a_config_fault_is_reported_before_an_out_fault(self, tmp_path, capsys):
        config = write_config(tmp_path, {"scenario": "verify", "params": {"seed": "x"}})
        (tmp_path / "taken").write_text("")
        out = str(tmp_path / "taken" / "sub")
        assert_one_error_line(capsys, ["verify", "--config", config, "--out", out], "params.seed")

    def test_config_naming_a_directory(self, tmp_path, capsys):
        assert_one_error_line(capsys, ["verify", "--config", str(tmp_path)], str(tmp_path))

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "latin1.json"
        config.write_bytes('{"scenario": "verify", "params": {"note": "\u00e9"}}'.encode("latin-1"))
        assert_one_error_line(capsys, ["verify", "--config", str(config)], str(config))

    def test_report_that_cannot_be_written(self, tmp_path, capsys):
        # the report was printed in full before the write failed
        config = write_config(tmp_path, {"scenario": "verify"})
        (tmp_path / "out" / "verification_report.json").mkdir(parents=True)
        out = str(tmp_path / "out")
        assert_one_error_line(capsys, ["verify", "--config", config, "--out", out], "verification_report.json")

    def test_summary_that_cannot_be_written(self, tmp_path, capsys):
        config = write_config(tmp_path, SIMULATE_CONFIG)
        (tmp_path / "out" / "summary.json").mkdir(parents=True)
        out = str(tmp_path / "out")
        assert_one_error_line(capsys, ["simulate", "--config", config, "--out", out], "summary.json")


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("data", [SIMULATE_CONFIG, {"scenario": "verify"}], ids=["simulate", "verify"])
def test_module_entry_point_in_a_fresh_interpreter(tmp_path, data):
    # the real `python -m vada.cli`, with every warning an error; verify runs
    # under two string hash seeds, and its report is the in-process one
    config = write_config(tmp_path, data)
    src = str(Path(vada.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-W", "error", "-m", "vada.cli", data["scenario"], "--config", config]
    stdouts = set()
    for hash_seed in ("0", "1") if data["scenario"] == "verify" else (None,):
        run_env = env if hash_seed is None else dict(env, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [*argv, "--out", str(tmp_path / "out")], capture_output=True, text=True, env=run_env, timeout=120
        )
        assert (done.returncode, done.stderr) == (0, "")
        # json.loads refuses trailing data, so this is exactly one document
        json.loads(done.stdout, parse_constant=_reject_constant)
        stdouts.add(done.stdout)
    if data["scenario"] == "verify":
        assert stdouts == {verify.report_to_json(verify.run_verify(0)) + "\n"}
