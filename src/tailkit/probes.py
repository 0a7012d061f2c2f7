"""Diagnostic probes: every ratio, scan and bound check the constructions
support, emitted as report rows.

Probes report evidence, never verdicts.  Scans over piecewise-linear
densities enumerate knots only (extrema of a piecewise-linear function sit
at knots); scans over the log-periodic density use a log-spaced grid
augmented with the anchor abscissas where the exponent modulation peaks.
Trend claims are encoded as two-point monotone-improvement checks, not
absolute tolerances.  The scans, the I2 bound and the blow-up return their
rows, which ``tailkit report`` and the acceptance battery both write.
"""

from __future__ import annotations

import json
import operator
from collections import namedtuple
from fractions import Fraction
from typing import Optional, Union

from tailkit import convolution as conv
from tailkit import logperiodic as lp
from tailkit import mixture as mx
from tailkit import notched
from tailkit.numerics import DEFAULT_PRECISION, LogValue, _snap_raw, log_nat
from tailkit.piecewise import PiecewisePoly, _fmt
from tailkit.render import decimal_str, int_str, value_str

Value = Union[Fraction, LogValue, int]

CSV_HEADER = "probe,x_or_n,value,aux_json,precision_flag"


def _csv_field(text: str) -> str:
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _aux_json_value(v) -> str:
    # ints are written as JSON numbers by int_str: json.dumps would refuse
    # the longest ones (schedule indices n_m) under Python's digit limit
    if isinstance(v, (Fraction, LogValue)):
        return json.dumps(value_str(v))
    if isinstance(v, int) and not isinstance(v, bool):
        return int_str(v)
    return json.dumps(v, sort_keys=True, separators=(",", ":"))


class ProbeRow(namedtuple("ProbeRow", "probe x_or_n value aux precision_flag")):
    """One CSV row: ``value`` is a Value, a rational or int written in
    decimal or a positive LogValue written as ``log2:<decimal>``, and
    ``aux`` a dict, empty by default."""

    __slots__ = ()

    def __new__(cls, probe: str, x_or_n: str, value: Value,
                aux: Optional[dict] = None, precision_flag: bool = False):
        return super().__new__(cls, probe, x_or_n, value,
                               {} if aux is None else aux, precision_flag)

    def csv(self) -> str:
        aux_json = "{" + ",".join(json.dumps(k) + ":" + _aux_json_value(v)
                                  for k, v in sorted(self.aux.items())) + "}"
        flag = "1" if self.precision_flag else "0"
        return ",".join([_csv_field(self.probe), _csv_field(self.x_or_n),
                         _csv_field(value_str(self.value)),
                         _csv_field(aux_json), flag])


def render_csv(rows: list[ProbeRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"


# ------------------------------ ratios ------------------------------

def long_tail_ratio(p: PiecewisePoly, x, t) -> Fraction:
    """f(x+t) / f(x): drifts to 1 for long-tailed densities."""
    x, t = Fraction(x), Fraction(t)
    denom = p.eval(x)
    if denom == 0:
        raise ValueError(f"density vanishes at x={_fmt(x)}")
    return p.eval(x + t) / denom


def subexp_ratio(p: PiecewisePoly, x) -> Fraction:
    """(f*f)(x) / (2 f(x)): drifts to 1 for subexponential densities."""
    x = Fraction(x)
    denom = p.eval(x)
    if denom == 0:
        raise ValueError(f"density vanishes at x={_fmt(x)}")
    return conv.self_conv_value(p, x) / (2 * denom)


def local_tail_ratio(p: PiecewisePoly, x, d) -> Fraction:
    """Window mass over (x, x+d] divided by d * f(x)."""
    x, d = Fraction(x), Fraction(d)
    denom = p.eval(x)
    if denom == 0:
        raise ValueError(f"density vanishes at x={_fmt(x)}")
    return p.interval_mass(x, d) / (d * denom)


# ------------------------------- scans -------------------------------

def _scan_row(probe: str, label: str, best: Value, low: str, high: str) -> ProbeRow:
    """A scan's row: its largest rise, and the low and high ends as witnesses."""
    return ProbeRow(probe, label, best, {"witness_x": low, "witness_y": high})


def almost_decrease_scan(p: PiecewisePoly, x0=0) -> ProbeRow:
    """sup of f(y)/f(x) over knot pairs x0 <= x <= y with f(x) > 0, with
    the maximizing pair.  Exact for piecewise-linear p (extrema at knots)."""
    x0 = Fraction(x0)
    lo, hi = p.support
    start = max(x0, lo)
    if start > hi:
        raise ValueError(f"scan start {_fmt(x0)} is beyond the support end {_fmt(hi)}")
    values = ((x, p.eval(x)) for x in [start] + [b for b in p.breakpoints if b > start])
    best, low, high = _max_rise(((x, v) for x, v in values if v > 0), operator.truediv)
    return _scan_row("almost_decrease_scan", f"x0={_fmt(x0)}", best,
                     decimal_str(low), decimal_str(high))


def _max_rise(points, rise=operator.sub) -> tuple[Fraction, object, object]:
    """Largest rise(f(y), f(x)) over ordered pairs x <= y.

    ``points`` yields (label, value) in scan order, and ``rise`` compares
    two values: the difference of log2 values, or the ratio of positive
    values.  Returns the rise and the labels of its low and high ends; a
    strictly lower value moves the running minimum and a strictly larger
    rise replaces the best, so ties keep the earliest labels.
    """
    best = min_value = None
    for label, value in points:
        if min_value is None or value < min_value:
            min_value, min_label = value, label
        r = rise(value, min_value)
        if best is None or r > best:
            best, low, high = r, min_label, label
    if best is None:
        raise ValueError("density vanishes on the whole scan range")
    return best, low, high


def notched_knot_scan(n_max: int,
                      precision_bits: int = DEFAULT_PRECISION) -> ProbeRow:
    """Symbolic knot scan of the notched construction out to block n_max.

    Works on log2 values, so n_max may exceed any dense limit.  The b->c
    rise inside each block realizes the ratio L_n, so the supremum over a
    horizon is L_{n_max}, attained at (b_{n_max}, c_{n_max}).
    """
    if n_max < 1:
        raise ValueError(f"empty scan range [1, {n_max}]")
    best, low, high = _max_rise(
        (f"{kind}{n}", notched.knot_logf(kind, n, precision_bits).log2mag)
        for n in range(1, n_max + 1) for kind in ("a", "b", "c"))
    return _scan_row("knot_scan", f"n<={n_max}", LogValue(best), low, high)


# grid points per period e^pi of the log-periodic scan
POINTS_PER_PERIOD = 8


def logperiodic_scan(p: lp.LogPeriodicParams, k_max: int,
                     label: str) -> list[ProbeRow]:
    """Grid scan of the log-periodic density up to the k_max-th anchor.

    Returns the row of the supremum ratio over ordered grid pairs, labelled
    ``label``, then one row per even/odd anchor pair recording both
    directed ratios (log2), since the growing direction at consecutive
    anchors is itself a finding: the later anchor holds the larger density,
    which witnesses the failure of almost decrease just as well as the
    reverse orientation would.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    grid = [_snap_raw(lp._anchor_raw(j, POINTS_PER_PERIOD), 64)
            for j in range(k_max * POINTS_PER_PERIOD + 1)]
    best, low, high = _max_rise((x, lp.density_log(x, p).log2mag)
                                for x in grid)
    rows = [_scan_row("almost_decrease_scan", label, LogValue(best),
                      decimal_str(low), decimal_str(high))]
    for k in range(0, k_max, 2):
        rise = (lp.density_log(lp.anchor(k + 1), p).log2mag
                - lp.density_log(lp.anchor(k), p).log2mag)
        rows.append(ProbeRow(
            probe="anchor_pair_ratio", x_or_n=f"k{k}", value=LogValue(rise),
            aux={"later_over_earlier_log2": decimal_str(rise),
                 "earlier_over_later_log2": decimal_str(-rise),
                 "growing_direction": "later" if rise > 0 else "earlier"}))
    return rows


# --------------------------- series & bounds ---------------------------

def knot_ratio_series(n_max: int,
                      precision_bits: int = DEFAULT_PRECISION) -> list[tuple[int, Fraction]]:
    """The exact in-artifact ratios f(c_n)/f(b_n) = L_n for n = 2..n_max."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    return [(n, log_nat(n, precision_bits)) for n in range(2, n_max + 1)]


def i2_bound_check(nd: notched.NotchedDensity, n: int) -> ProbeRow:
    """I2 at x = c_n against the sup-value-times-length bound.

    On the unnormalized construction the bound is exactly the power of two
    2**(-6*m*m + (n+1)**2 + 2) with m = m(n); the inequality is pure
    sup-times-length, hence valid at every finite n.  The row passes when
    both hold: I2 is within the bound, and the bound is that power of two.
    """
    nd.check_block(n)
    pb = nd.precision_bits
    x = notched.knot_position("c", n, pb)
    cut = conv._split_cut(n, x)  # I1, the other part of the split, is not read
    i2 = conv.conv_window_value(nd.dense, nd.dense, x, cut, x - cut)
    m = notched.m_of(n)
    bound = notched.knot_value("a", m, pb) ** 2 * notched.a_position(n + 1)
    exponent = -6 * m * m + (n + 1) ** 2 + 2
    return ProbeRow("i2_bound_check", str(n), i2, {
        "bound_log2": exponent,
        "passed": i2 <= bound and bound == Fraction(2) ** exponent})


def mixture_blowup_probe(schedule: mx.BlowupSchedule, f1: notched.NotchedDensity,
                         d) -> list[ProbeRow]:
    """One exact row (m=1) plus symbolic lower-bound rows (m >= 2), on the
    mixture of the notched f1 and the schedule's atoms.

    The exact row reports the cross-convolution window mass over
    d * f(b_{n_1}); the symbolic rows carry c * L(n_m)**(1/6), whose
    divergence is the desk-scale witness of the blow-up.
    """
    d = Fraction(d)
    if d <= 0:
        raise ValueError(f"window width must be positive, got {_fmt(d)}")
    first = schedule.entries[0]
    b1 = notched.knot_position("b", first.n_m, schedule.precision_bits)
    mix = mx.mixture_from_schedule(schedule, f1)
    f = f1.density()
    cross = conv.mixture_cross_mass(mix, b1, d)
    full = conv.mixture_local_conv(mix, b1, d)
    local_f = mix.q1 * f.interval_mass(b1, d)
    rows = [ProbeRow(
        probe="blowup_exact", x_or_n=f"m1_b{first.n_m}",
        value=cross / (d * f.eval(b1)),
        aux={"lower_bound": first.lower_bound,
             "conv_over_window_mass": full / local_f,
             "window": d})]
    for entry in schedule.entries[1:]:
        rows.append(ProbeRow(
            probe="blowup_lower_bound", x_or_n=f"m{entry.m}",
            value=entry.lower_bound,
            aux={"n_m": entry.n_m, "logf_b": entry.logf_b,
                 "mass": entry.mass}))
    return rows
