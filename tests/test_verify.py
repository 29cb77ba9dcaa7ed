import json

import numpy as np
import pytest

from vada import verify
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


@pytest.mark.parametrize(
    "name, most",
    [("thrust", 3), ("bet_numeric_thrust", 18), ("analytic_response", 20)],
)
def test_checks_evaluate_draws_in_batches(monkeypatch, name, most):
    calls = []
    original = getattr(verify, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, counted)
    assert run_verify(seed=11)["all_passed"]
    assert 1 <= len(calls) <= most
