import math
import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

import tailkit
from tailkit import logperiodic as lp
from tailkit import notched
from tailkit.piecewise import PiecewisePoly, from_linear_knots

# Opt-in profile for reading a failure fast: `pytest --hypothesis-profile=
# triage` reports each failing property's first counterexample unshrunk.
# Shrinking a kernel fault repeats dense convolutions for minutes; the
# default profile, which Tier-1 uses, is unchanged.
settings.register_profile(
    "triage", phases=[p for p in Phase if p is not Phase.shrink])

# sha256 of the battery CSV: exact results are the spec, byte for byte
BATTERY_CSV_SHA256 = "d3ac6cbb790ed0c71bf46f51e321843f80c00d6b0fa5a65a2993672d8ae0ec1b"
# and of `verify --precision-bits 1024`'s CSV
BATTERY_CSV_1024_SHA256 = "55854e892b32cc5c7c74e7983db5e529eed28e0bcf4a52ad6b198947a82a2588"


def small_fractions(lo, hi, max_denominator):
    """Every fraction of denominator at most max_denominator in [lo, hi],
    simplest first (by denominator, then by |value|), so that shrinking
    still heads to small denominators near 0.

    It draws the values of ``st.fractions(lo, hi, max_denominator=...)``
    without that strategy's per-draw validation and filtering, which took
    most of the time of the properties that use it.  Meant for sets of a
    few thousand values at most: the set is built in full.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    values = {Fraction(num, den) for den in range(1, max_denominator + 1)
              for num in range(math.ceil(lo * den), math.floor(hi * den) + 1)}
    return st.sampled_from(sorted(values, key=lambda v: (v.denominator, abs(v), v)))


_BREAKS = small_fractions(-4, 8, max_denominator=6)
_LEVELS = small_fractions(0, 4, max_denominator=6)
_SIGNED = small_fractions(-4, 4, max_denominator=6)


@st.composite
def linear_operands(draw):
    """Piecewise-linear functions of each kind the dense sweep meets:
    continuous linear, piecewise constant (continuous when its levels
    agree), all zero, and discontinuous with signed coefficients."""
    xs = sorted(draw(st.lists(_BREAKS, min_size=2, max_size=5, unique=True)))
    n = len(xs) - 1
    kind = draw(st.sampled_from(["linear", "constant", "zero", "discontinuous"]))
    if kind == "linear":
        return from_linear_knots([(x, draw(_LEVELS)) for x in xs])
    if kind == "constant":
        levels = [draw(_LEVELS) for _ in range(n)]
        return PiecewisePoly(xs, [(c, 0) for c in levels])
    if kind == "zero":
        return PiecewisePoly(xs, [(0, 0)] * n)
    return PiecewisePoly(xs, [(draw(_SIGNED), draw(_SIGNED)) for _ in range(n)])


def child_env(**overrides):
    """os.environ with the imported tailkit's directory first on PYTHONPATH.

    Children may run outside the checkout, where a relative PYTHONPATH
    (e.g. ``src``) would not reach the package.
    """
    package_root = str(Path(tailkit.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": package_root + (os.pathsep + path if path else ""),
            **overrides}


@pytest.fixture(scope="session")
def nd3():
    return notched.build_density(3)


@pytest.fixture(scope="session")
def nd10():
    return notched.build_density(10)


@pytest.fixture(scope="session")
def lp_default():
    return lp.LogPeriodicParams()
