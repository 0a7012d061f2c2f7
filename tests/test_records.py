"""The record types: immutable, and the parameter set a usable cache key."""

from fractions import Fraction

import pytest

from tailkit import mixture as mx, notched, probes
from tailkit import logperiodic as lp
from tailkit.numerics import LogValue
from tailkit.piecewise import Knot, from_linear_knots


def _records():
    """(record, one of its fields) for each immutable record type."""
    nd = notched.build_density(1)
    schedule = mx.build_schedule(1)
    return {
        "LogValue": (LogValue(Fraction(3)), "log2mag"),
        "LogPeriodicParams": (lp.LogPeriodicParams(), "delta"),
        "Normalizers": (lp.normalizers(lp.LogPeriodicParams()), "a"),
        "Knot": (Knot(0, 1), "x"),
        "PiecewisePoly": (from_linear_knots([(0, 1), (1, 1)]), "factor"),
        "NotchedDensity": (nd, "dense"),
        "ScheduleEntry": (schedule.entries[0], "mass"),
        "BlowupSchedule": (schedule, "c"),
        "ProbeRow": (probes.notched_knot_scan(2), "value"),
        "Probe": (probes.PROBES[0], "rows"),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assignment_raises(name):
    record, field = RECORDS[name]
    before = getattr(record, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, before)
    assert getattr(record, field) is before and not hasattr(record, "extra")


def test_params_are_a_cache_key():
    # equal deltas, however given, are one key of the normalizer cache
    p, q = lp.LogPeriodicParams(Fraction(1, 4)), lp.LogPeriodicParams(Fraction("0.25"))
    assert p == q and hash(p) == hash(q) and {p: 1}[q] == 1
    assert lp.LogPeriodicParams() == p != lp.LogPeriodicParams(Fraction(1, 8))
