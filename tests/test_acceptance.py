"""Acceptance gate: every exit criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion; the same battery backs ``tailkit verify``.
"""

import hashlib

import pytest

from tailkit import acceptance

# sha256 of the battery CSV: exact results are the spec, byte for byte
BATTERY_CSV_SHA256 = "d3ac6cbb790ed0c71bf46f51e321843f80c00d6b0fa5a65a2993672d8ae0ec1b"

CRITERIA = [name for name, _, _ in acceptance._CHECKS]
CRITERIA.insert(11, "12_determinism")


@pytest.fixture(scope="module")
def results():
    out = acceptance.run_all()
    for r in out:
        print(r.line())
    return {r.name: r for r in out}


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(results, name):
    r = results[name]
    print(r.line())
    assert r.passed, f"{name}: {r.detail}"


def test_all_names_present(results):
    assert sorted(results) == sorted(CRITERIA)


def test_budgets_respected(results):
    for r in results.values():
        assert r.elapsed < r.budget, f"{r.name} exceeded its runtime budget"


def test_acceptance_csv_deterministic(results):
    ordered = [results[name] for name in CRITERIA]
    a = acceptance.acceptance_csv(ordered)
    b = acceptance.acceptance_csv(ordered)
    assert a == b
    assert a.startswith("probe,x_or_n,value,aux_json,precision_flag")


def test_acceptance_csv_matches_spec(results):
    ordered = [results[name] for name in CRITERIA]
    csv = acceptance.acceptance_csv(ordered)
    assert hashlib.sha256(csv.encode()).hexdigest() == BATTERY_CSV_SHA256
