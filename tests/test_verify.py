import json

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


@pytest.mark.parametrize(
    "name, owners, least, most, inject",
    [
        pytest.param("thrust", [verify], 1, 3, False, id="thrust-3"),
        pytest.param("bet_numeric_thrust", [verify], 1, 18, False, id="bet_numeric_thrust-18"),
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
