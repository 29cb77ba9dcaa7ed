import ast
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from vada import antagonistic, verify
from vada.verify import report_to_json, run_verify

# (property id, draws) of every record, in report order
RECORDS = [
    ("bet-quadrature-agreement", 1000),
    ("inflow-damping-and-hardening", 1000),
    ("vsa-cocontraction-monotonicity", 60),
    ("vada-damping-zero-trim", 20),
    ("vada-damping-at-trim", 10),
    ("trim-damping-fd-agreement", 1000),
    ("allocation-roundtrip", 1000),
    ("impedance-rk4-vs-analytic", 20),
    ("mode-decoupling", 200),
    ("vsa-vada-isomorphism", 200),
]


def test_seeds_0_to_49_pass_and_repeat_byte_for_byte():
    for seed in range(50):
        text = report_to_json(run_verify(seed=seed))
        assert report_to_json(run_verify(seed=seed)) == text, seed
        report = json.loads(text)
        assert [(r["property"], r["draws"]) for r in report["records"]] == RECORDS, seed
        assert report["all_passed"], [r for r in report["records"] if not r["passed"]]


def test_injected_constant_damping_sees_exactly_zero_increments():
    record = verify.check_constant_damping_injection(np.random.default_rng(5))
    assert record["passed"] is False
    assert record["worst"] == 0.0


def nan_on_call(original, call):
    """original, but with entry 0 of its result made NaN on the given call (1-based)."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        result = np.array(original(*args, **kwargs), dtype=float)
        if len(calls) == call:
            result.reshape(-1)[0] = np.nan
        return result
    return wrapper


def test_a_nan_rk4_gap_fails_the_impedance_record(monkeypatch):
    # the third draw's oracle: a NaN that a running Python max would drop
    monkeypatch.setattr(verify, "analytic_response", nan_on_call(verify.analytic_response, 3))
    record = verify.check_impedance_rk4(np.random.default_rng(0))
    assert record["passed"] is False and np.isnan(record["worst"])


def test_a_nan_damping_gap_fails_the_mode_decoupling_record(monkeypatch):
    # apparent_damping's second call is at the differential step, whose
    # damping gap a Python max of the two gaps' maxima would drop
    monkeypatch.setattr(verify, "apparent_damping", nan_on_call(verify.apparent_damping, 2))
    record = verify.check_mode_decoupling(np.random.default_rng(0))
    assert record["passed"] is False and np.isnan(record["worst"])


def nan_in_sweep(original, call):
    """original, but on the given call (1-based) a sweep whose values are
    NaN at point 50 of fiber 3, so two of that fiber's increments are NaN."""
    calls = []

    def wrapper(act, path, which):
        calls.append(None)
        report = original(act, path, which)
        if len(calls) != call:
            return report
        values = report.values.copy()
        values[3, 50] = np.nan
        least = np.diff(values, axis=-1).min(axis=-1)
        return antagonistic.SweepReport(values, least > 0.0, least)
    return wrapper


@pytest.mark.parametrize(
    "check, call, draws",
    [
        # the first family's promptness sweep: a running Python min of the
        # sweeps' least increments would drop its NaN
        pytest.param(verify.check_vsa_cocontraction, 2, 60, id="vsa-cocontraction"),
        pytest.param(verify.check_vada_damping, 1, 20, id="vada-zero-trim"),
        pytest.param(lambda rng: verify.check_vada_damping(rng, fibers=10, trims=True), 1, 10,
                     id="vada-at-trim"),
    ],
)
def test_a_nan_increment_fails_the_monotone_record(monkeypatch, check, call, draws):
    monkeypatch.setattr(verify, "monotonicity_sweep", nan_in_sweep(verify.monotonicity_sweep, call))
    record = check(np.random.default_rng(0))
    assert record["draws"] == draws
    assert record["passed"] is False and np.isnan(record["worst"])


@pytest.mark.parametrize(
    "name, owners, least, most, inject",
    [
        pytest.param("thrust", [verify], 1, 3, False, id="thrust-3"),
        # the quadrature is one call, with a panel count per draw
        pytest.param("bet_numeric_thrust", [verify], 1, 1, False, id="bet_numeric_thrust-1"),
        pytest.param("analytic_response", [verify], 1, 20, False, id="analytic_response-20"),
        # the allocation round trip is one allocate_arrays call, not 1,000 allocates
        pytest.param("allocate", [verify], 0, 0, False, id="allocate-0"),
        pytest.param("allocate_arrays", [verify], 1, 1, False, id="allocate_arrays-1"),
        # one batched trace per VSA tendon family and one per VADA check, through
        # verify's own binding or the core's
        pytest.param("trace_fiber", [verify, antagonistic], 5, 5, False, id="trace_fiber-5"),
        # and one for all the fibers of the constant-damping injection
        pytest.param("trace_fiber", [verify, antagonistic], 6, 6, True, id="trace_fiber-injected-6"),
    ],
)
def test_checks_evaluate_draws_in_batches(monkeypatch, name, owners, least, most, inject):
    calls = []

    def counted(original):
        def wrapper(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)
        return wrapper

    for owner in owners:
        monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
    # the injection's record fails by design, every other record passes
    assert run_verify(seed=11, inject_constant_damping=inject)["all_passed"] is not inject
    assert least <= len(calls) <= most


ROOT = Path(__file__).resolve().parents[1]


def emitted_ids():
    return [r["property"] for r in run_verify(seed=2, inject_constant_damping=True)["records"]]


def test_the_claim_table_calls_every_check_once_and_the_vada_check_twice(monkeypatch):
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    names = [name for name in vars(verify) if name.startswith("check_")]
    for name in names:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    run_verify(seed=2, inject_constant_damping=True)
    assert calls == {name: 2 if name == "check_vada_damping" else 1 for name in names}


def test_property_ids_are_unique():
    ids = emitted_ids()
    assert len(set(ids)) == len(ids) == len(RECORDS) + 1


def test_each_property_id_is_written_once_in_the_claim_table():
    """A static scan of src/vada: each id's one string literal lies inside
    run_verify, so no check body names a property."""
    found = {}
    for path in sorted((ROOT / "src" / "vada").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.setdefault(node.value, []).append((path.name, node.lineno))
    table = next(node for node in ast.parse((ROOT / "src" / "vada" / "verify.py").read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "run_verify")
    for prop_id in emitted_ids():
        [(name, line)] = found[prop_id]
        assert name == "verify.py" and table.lineno <= line <= table.end_lineno, prop_id


def readme_claim_ids():
    """The property ids in the second column of the README's claim table."""
    section = (ROOT / "README.md").read_text().split("## Claims", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("|")]
    return [prop_id for row in rows[2:] for prop_id in re.findall(r"`([^`]+)`", row[2])]


def test_every_emitted_id_is_a_row_of_the_readme_claim_table():
    table = readme_claim_ids()
    assert len(set(table)) == len(table)
    assert sorted(emitted_ids()) == sorted(table)
