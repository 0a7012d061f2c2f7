"""Acceptance gate: every exit criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion; the same battery backs ``tailkit verify``.
"""

import ast
import hashlib
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import BATTERY_CSV_1024_SHA256, BATTERY_CSV_SHA256, child_env
from hypothesis import given, settings
from hypothesis import strategies as st

from tailkit import acceptance, cli, notched, probes
from tailkit import convolution as conv
from tailkit import logperiodic as lp
from tailkit.numerics import DEFAULT_PRECISION

CRITERIA = sorted([name for name, _, _ in acceptance._CHECKS] + ["12_determinism"])


@pytest.fixture(scope="module")
def battery():
    """One battery run with cold log-periodic normalizers, and what it
    computed: the (N, precision) of each notched build, the log-periodic
    integrals, the float evaluators of check 02's oracle and their calls,
    and the segment moments of the point walks, by their arguments."""
    computed = {"builds": [], "integrals": 0, "float_evals": 0,
                "float_eval_calls": 0, "moments": Counter(), "dense": []}
    build, integrate, float_eval, moments = (
        notched.build_density, lp._integrate, acceptance._float_eval, conv._moments)

    def counting_build(n, precision_bits=DEFAULT_PRECISION):
        computed["builds"].append((n, precision_bits))
        nd = build(n, precision_bits)
        computed["dense"].append(nd.dense)
        return nd

    def counting_moments(*args):
        computed["moments"][args] += 1
        return moments(*args)

    def counting_integrate(*args):
        computed["integrals"] += 1
        return integrate(*args)

    def counting_float_eval(p):
        computed["float_evals"] += 1
        f = float_eval(p)

        def counting_f(x):
            computed["float_eval_calls"] += 1
            return f(x)

        return counting_f

    for cached in (lp.normalizers, lp.tail_normalizers, lp._chi_table):
        cached.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(notched, "build_density", counting_build)
        mp.setattr(lp, "_integrate", counting_integrate)
        mp.setattr(acceptance, "_float_eval", counting_float_eval)
        mp.setattr(conv, "_moments", counting_moments)
        out = acceptance.run_all()
    for r in out:
        print(r.line())
    return {r.name: r for r in out}, computed


@pytest.fixture(scope="module")
def results(battery):
    return battery[0]


def test_one_notched_build(battery):
    # every truncation a check reads is cut from the largest one
    assert battery[1]["builds"] == [(40, DEFAULT_PRECISION)]


def test_tail_normalizer_never_integrated(battery):
    # the coarse and a normalizer integrals and check 10's two tail
    # integrals; no check reads b, so its integral never runs
    assert battery[1]["integrals"] == 4


def test_one_float_evaluator(battery):
    # check 02's oracle evaluates the same f3 at all 20 points
    assert battery[1]["float_evals"] == 1


def test_each_oracle_piece_integrated_once(battery):
    # the 20 points cut the oracle's integral into 138 pieces; one Simpson
    # step of 5 integrand evaluations, each 2 evaluator calls, is exact on
    # each, so nothing is integrated twice
    assert battery[1]["float_eval_calls"] == 138 * 5 * 2


def test_segment_moments_computed_once(battery):
    # check 05's walks at c15, c25 and c35, and the walks of checks 06 and 07,
    # read the truncations of one build, which share its moment cache: each
    # of the 3*35 - 1 whole segments below c35/2 is computed once
    (dense,) = battery[1]["dense"]
    segments = set(zip(dense.breakpoints, dense.breakpoints[1:]))
    whole = [n for args, n in battery[1]["moments"].items() if args[:2] in segments]
    assert len(whole) == 104 and max(whole) == 1


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(results, name):
    r = results[name]
    print(r.line())
    assert r.passed, f"{name}: {r.detail}"


@pytest.mark.parametrize("name, argv, relabel", [
    ("06_i2_bound", ["notched", "i2_bound_check", "n_list=5,10,15", "--n", "16"], {}),
    ("09_logperiodic_scan", ["logperiodic", "almost_decrease_scan"],
     {"logperiodic_k<=8": "k<=8"}),
    ("11_blowup_series", ["mixture", "blowup"], {}),
])
def test_probe_writes_the_check_rows(results, name, argv, relabel, tmp_path):
    # the check and the probe command take their rows from one probe
    # function; only the scan's label differs
    out = tmp_path / "probe.csv"
    assert cli.main(["probe", *argv, "--out", str(out)]) == 0
    rows = [r._replace(x_or_n=relabel.get(r.x_or_n, r.x_or_n))
            for r in results[name].rows]
    assert out.read_text(encoding="utf-8") == probes.render_csv(rows)


def test_all_names_present(results):
    assert sorted(results) == sorted(CRITERIA)


def test_budgets_respected(results):
    for r in results.values():
        assert r.elapsed < r.budget, f"{r.name} exceeded its runtime budget"


def test_acceptance_csv_deterministic(results, tmp_path):
    # a fresh process, with cold caches and another hash seed, writes the
    # same bytes
    ordered = [results[name] for name in CRITERIA]
    csv = acceptance.acceptance_csv(ordered)
    assert csv.startswith("probe,x_or_n,value,aux_json,precision_flag")
    out = tmp_path / "battery.csv"
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    child = subprocess.run(
        [sys.executable, "-m", "tailkit.cli", "verify", "--out", str(out)],
        capture_output=True, cwd=tmp_path, env=child_env(PYTHONHASHSEED=seed))
    assert child.returncode == 0, child.stderr
    assert out.read_bytes() == csv.encode()


@pytest.mark.pin
def test_acceptance_csv_matches_spec(results):
    ordered = [results[name] for name in CRITERIA]
    csv = acceptance.acceptance_csv(ordered)
    assert hashlib.sha256(csv.encode()).hexdigest() == BATTERY_CSV_SHA256


@pytest.mark.pin
def test_acceptance_csv_matches_spec_at_1024_bits():
    # the battery's bytes at a second precision, which moves every snapped
    # value and so every exact figure that check 02's oracle is held to
    csv = acceptance.acceptance_csv(acceptance.run_all(1024))
    assert hashlib.sha256(csv.encode()).hexdigest() == BATTERY_CSV_1024_SHA256


# endpoints no nearer 0 than 1e-3 unless 0: a cubic term of a smaller x
# underflows, which is not the rule's error
_ENDS = st.floats(-1e3, 1e3).filter(lambda x: x == 0 or abs(x) >= 1e-3)


@given(st.lists(st.integers(-1000, 1000), min_size=4, max_size=4), _ENDS, _ENDS)
@settings(max_examples=200, deadline=None)
def test_simpson_exact_on_cubics(coeffs, a, b):
    # the oracle integrates each piece in one Simpson step, which is exact
    # on a polynomial of degree <= 3; checked against the closed form,
    # relative to the length times the sum of the terms' absolute values at
    # the endpoint farthest from 0, the scale of the rounding
    a, b = sorted((a, b))
    c0, c1, c2, c3 = coeffs
    got = acceptance._simpson(lambda x: ((c3 * x + c2) * x + c1) * x + c0, a, b)
    fa, fb = Fraction(a), Fraction(b)
    exact = sum(c * (fb ** (k + 1) - fa ** (k + 1)) / (k + 1)
                for k, c in enumerate(coeffs))
    r = max(abs(fa), abs(fb))
    scale = (fb - fa) * sum(abs(c) * r ** k for k, c in enumerate(coeffs))
    assert abs(Fraction(got) - exact) <= Fraction(1e-12) * scale


def test_oracle_sums_left_to_right():
    # the built-in sum of Python 3.12 and later is compensated and gives 1.0
    assert acceptance._sum_left([1e16, 1.0, -1e16]) == 0.0


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so a check written as one would
    # vanish from the battery and the probes without a trace
    package = Path(acceptance.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
