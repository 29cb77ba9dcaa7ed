"""Fuzz RunConfig -> CLI: whatever the config holds, a run ends cleanly.

Each example starts from a valid config of one scenario and replaces one to
three of its model fields, params or list items (or whole sections) with
numbers at the extremes, strings, booleans, null or lists. The property: the
exit code is 0, 1 or 2; nothing raises out of `main` (a traceback at the
command line); exit 2 prints exactly one `error:` line and nothing on
stdout; and on exit 0 or 1 a JSON scenario's stdout is strict JSON, and a
fiber sweep's stdout is its CSV alone (empty when it writes to --out).
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from vada.cli import main  # noqa: E402

EXTREMES = [
    0, 0.0, -0.0, 1, -1, 2, 0.5, 1e-12, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-300, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
    2**53 + 1, 2**63, -(2**63), 10**400, math.inf, -math.inf, math.nan,
]
NUMBERS = st.one_of(
    st.sampled_from(EXTREMES),
    st.integers(),
    st.floats(),
)
SCALARS = st.one_of(NUMBERS, st.text(max_size=4), st.booleans(), st.none())
VALUES = st.one_of(
    SCALARS,
    st.lists(NUMBERS, max_size=3),
    st.lists(st.lists(NUMBERS, max_size=3), max_size=3),
    st.lists(SCALARS, max_size=3),
)

UNIT_ROTOR = {"k_thrust": 1.0, "k_inflow": 1.0, "speed_box": [[0.5, None], [0.5, 20.0]]}
VSA = {"law": {"kind": "exponential", "k": 1.0, "alpha": 0.8}, "pulley_radius": 1.0,
       "state": [1.0, 1.0]}
VSA_QUADRATIC = dict(VSA, law={"kind": "quadratic", "k": 1.0})
VSA_CUBIC = dict(VSA, law={"kind": "cubic", "k": 1.3}, pulley_radius=0.5)
SCHEDULE = {"speeds": [[1.5, 1.0], [2.5, 1.5]], "forces": [0.0, 0.2], "breakpoints": [0.4]}
GEOMETRY = {"blade_count": 2, "radius": 0.1, "chord": 0.02, "pitch_angle": 0.2,
            "lift_slope": 6.283185307179586, "air_density": 1.225}
# the fiber through (2, 1) passes u1 = 3 at step 7 of 20: it leaves the box, exit 1
BOXED_ROTOR = dict(UNIT_ROTOR, speed_box=[[0.5, 3.0], [0.5, 3.0]])

BASES = {
    "derive-coeffs": [
        {"scenario": "derive-coeffs", "model": {"rotor_geometry": GEOMETRY},
         "params": {"sample_speed": 100.0, "sample_inflow": 1.0}},
    ],
    "allocate": [
        {"scenario": "allocate", "model": {"dual_rotor": UNIT_ROTOR},
         "params": {"force_level": 3.0, "sigma_des": 4.0, "nu_bar": 0.1}},
        {"scenario": "allocate", "model": {"rotor_geometry": GEOMETRY},
         "params": {"force_level": 0.05, "sigma_des": 0.1, "nu_bar": 0.1}},
    ],
    "simulate": [
        {"scenario": "simulate", "model": {"dual_rotor": UNIT_ROTOR},
         "params": {"mass": 1.0, "nu0": 0.0, "t_end": 1.0, "dt": 1e-2, "schedule": SCHEDULE}},
    ],
    "fiber-sweep": [
        {"scenario": "fiber-sweep", "model": {"vsa": VSA},
         "params": {"start": [1.0, 1.2], "u1_end": 2.5, "steps": 20}},
        {"scenario": "fiber-sweep", "model": {"vsa": VSA_QUADRATIC},
         "params": {"start": [1.5, 0.5], "u1_end": 3.0, "steps": 20}},
        {"scenario": "fiber-sweep", "model": {"vsa": VSA_CUBIC},
         "params": {"start": [0.5, 1.0], "u1_end": 2.0, "steps": 20}},
        {"scenario": "fiber-sweep", "model": {"dual_rotor": UNIT_ROTOR},
         "params": {"start": [2.0, 1.0], "u1_end": 5.0, "steps": 20, "nu_bar": 0.1}},
        {"scenario": "fiber-sweep", "model": {"dual_rotor": BOXED_ROTOR},
         "params": {"start": [2.0, 1.0], "u1_end": 5.0, "steps": 20}},
    ],
}


def paths(value, prefix=()):
    """The path of every dict key and list item in a config, nested ones included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield prefix + (key,)
        if isinstance(item, (dict, list)):
            yield from paths(item, prefix + (key,))


def replaced(config, path, value):
    config = copy.deepcopy(config)
    *parents, last = path
    target = config
    for key in parents:
        target = target[key]
    target[last] = value
    return config


@st.composite
def configs(draw, scenario):
    """A valid config of the scenario with up to three places replaced by
    fuzz values (a later replacement may land inside an earlier one)."""
    config = draw(st.sampled_from(BASES[scenario]))
    for _ in range(draw(st.integers(1, 3))):
        places = [p for p in paths(config) if p[0] != "scenario"]
        config = replaced(config, draw(st.sampled_from(places)), draw(VALUES))
    return config


def run_cli(config, with_out: bool):
    """(exit code, stdout, stderr) of `vada <scenario> --config <file>`."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        argv = [config["scenario"], "--config", str(path)]
        if with_out:
            argv += ["--out", str(Path(tmp) / "out")]
        # a warning would print at the command line: count it as a failure
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    def reject(literal):
        raise ValueError(f"non-finite literal {literal}")

    return json.loads(text, parse_constant=reject)


def sweep_csv(text, with_out):
    """A fiber sweep's stdout: empty with --out, else a header and float rows
    (a failed sweep prints its one error line on stderr and nothing here)."""
    rows = list(csv.reader(text.splitlines()))
    if with_out or not rows:
        assert rows == []
        return
    assert rows[0] == ["u1", "u2", "task_residual", "passive_coeff", "promptness"]
    assert all(len(row) == 5 and all(math.isfinite(float(x)) for x in row) for row in rows[1:])


def check_run(config, with_out, json_stdout):
    code, out, err = run_cli(config, with_out)
    assert code in (0, 1, 2), (code, out, err)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    elif json_stdout:
        strict_json(out)
    else:
        sweep_csv(out, with_out)


FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# configs that once ended wrongly, kept as fixed examples
def huge_rotor(base):
    """`base` on rotors derived from a geometry whose radius ** 3 overflows a float."""
    return dict(base, model={"rotor_geometry": dict(GEOMETRY, radius=1e120)})


@FUZZ
@given(config=configs("derive-coeffs"), with_out=st.booleans())
@example(config=huge_rotor(BASES["derive-coeffs"][0]), with_out=False)
def test_derive_coeffs_config_ends_cleanly(config, with_out):
    check_run(config, with_out, json_stdout=True)


@FUZZ
@given(config=configs("allocate"), with_out=st.booleans())
@example(config=huge_rotor(BASES["allocate"][0]), with_out=False)
def test_allocate_config_ends_cleanly(config, with_out):
    check_run(config, with_out, json_stdout=True)


UNSTABLE_STEP = {
    "scenario": "simulate", "model": {"dual_rotor": UNIT_ROTOR},
    "params": {"mass": 1e-3, "nu0": 0.0, "t_end": 0.05, "dt": 1e-2,
               "schedule": {"speeds": [[1.5, 1.0]], "forces": [0.0]}},
}
OVERFLOWING_LEVEL = {
    "scenario": "fiber-sweep",
    "model": {"vsa": dict(VSA, law={"kind": "exponential", "k": 1.0, "alpha": 2**53 + 1})},
    "params": {"start": [1.0, 2**53 + 1], "steps": 20},
}
REPEATED_GRID = {
    "scenario": "fiber-sweep", "model": {"vsa": VSA_QUADRATIC},
    "params": {"start": [1.0, 1.0], "u1_end": 1.0000000000000002},
}


@FUZZ
@given(config=configs("simulate"), with_out=st.booleans())
@example(config=UNSTABLE_STEP, with_out=False)
def test_simulate_config_ends_cleanly(config, with_out):
    check_run(config, with_out, json_stdout=True)


@FUZZ
@given(config=configs("fiber-sweep"), with_out=st.booleans())
@example(config=OVERFLOWING_LEVEL, with_out=False)
@example(config=REPEATED_GRID, with_out=True)
@example(config=huge_rotor(BASES["fiber-sweep"][-1]), with_out=False)
def test_fiber_sweep_config_ends_cleanly(config, with_out):
    check_run(config, with_out, json_stdout=False)
