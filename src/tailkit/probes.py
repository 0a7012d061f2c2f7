"""Diagnostic probes: every ratio, scan and bound check the constructions
support, emitted as report rows.

A row holds a computed value and, in ``aux``, what it was computed from.
Three rows also hold the outcome of an exact comparison of values the
probe computed: ``i2_bound_check``'s ``passed`` (I2 within its bound, the
bound the stated power of two), ``split_integrals``' ``exact_partition``
(2 I1 + I2 equals the whole) and the ``subexp_trend`` row that
``subexp_ratio`` appends (the deviations from 1 fall along the points).
No row is checked against a tolerance; the acceptance battery gives the
verdicts.  Scans over piecewise-linear densities enumerate knots only
(extrema of a piecewise-linear function sit at knots), and refuse a curved
segment, whose extrema need not, and a jump in value, whose right limit no
knot value holds; scans over the log-periodic density use a
log-spaced grid augmented with the anchor abscissas where the exponent
modulation peaks.  The scans, the I2 bound and the blow-up return their
rows, which ``tailkit report`` and the acceptance battery both write.

The integrals that need the kernel and a construction together live here,
so that the kernel reads piecewise functions alone: ``split_integrals`` of
the notched self-convolution and, in ``mixture_blowup_probe``, the
mixture's window mass.

:data:`PROBES` is the catalogue behind ``tailkit probe`` and ``tailkit
report``: each probe's constructions, the options it reads, its parameters
and its row builder.  A row builder and its parameter parsers read from
``config`` exactly the options its probe declares, of the attributes ``n``,
``d``, ``m_max``, ``delta`` and ``precision_bits``, and the methods
``density()`` (the piecewise density the construction names),
``notched_density()`` and ``schedule()`` (the mixture's blow-up schedule),
the last two made once per run; ``cli.RunConfig`` is the one the CLI
passes, and it refuses any other option.  Only ``probe``, ``report`` and
``verify`` run this module.
"""

from __future__ import annotations

import json
import operator
from collections import namedtuple
from fractions import Fraction
from functools import partial
from typing import Optional, Union

from tailkit import convolution as conv
from tailkit import logperiodic as lp
from tailkit import mixture as mx
from tailkit import notched
from tailkit.errors import UsageError
from tailkit.numerics import (DEFAULT_PRECISION, DENSE_LIMIT, LogValue, _int_range,
                              _quoted, _rational, _snap_raw, log_nat)
from tailkit.piecewise import PiecewisePoly, _brief, _fmt
from tailkit.render import decimal_str, value_str

Value = Union[Fraction, LogValue, int]

CSV_HEADER = "probe,x_or_n,value,aux_json,precision_flag"


def _csv_field(text: str) -> str:
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _aux_json_value(v) -> str:
    # ints are written as JSON numbers by _fmt: json.dumps would refuse
    # the longest ones (schedule indices n_m) under Python's digit limit
    if isinstance(v, (Fraction, LogValue)):
        return json.dumps(value_str(v))
    if isinstance(v, int) and not isinstance(v, bool):
        return _fmt(v)
    return json.dumps(v, sort_keys=True, separators=(",", ":"))


class ProbeRow(namedtuple("ProbeRow", "probe x_or_n value aux")):
    """One CSV row: ``value`` is a Value, a rational or int written in
    decimal or a positive LogValue written as ``log2:<decimal>``, and
    ``aux`` a dict, empty by default.  The ``precision_flag`` column is
    written as a constant 0: no row has a precision verdict to give."""

    __slots__ = ()

    def __new__(cls, probe: str, x_or_n: str, value: Value,
                aux: Optional[dict] = None):
        return super().__new__(cls, probe, x_or_n, value,
                               {} if aux is None else aux)

    def csv(self) -> str:
        aux_json = "{" + ",".join(json.dumps(k) + ":" + _aux_json_value(v)
                                  for k, v in sorted(self.aux.items())) + "}"
        return ",".join([_csv_field(self.probe), _csv_field(self.x_or_n),
                         _csv_field(value_str(self.value)),
                         _csv_field(aux_json), "0"])


def render_csv(rows: list[ProbeRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"


# ------------------------------ ratios ------------------------------

def _stored(p: PiecewisePoly) -> PiecewisePoly:
    """p less a positive factor, which cancels in any ratio of p's values."""
    return p.scale(1 / p.factor) if p.factor > 0 else p


def _stored_at(p: PiecewisePoly, x: Fraction) -> tuple[PiecewisePoly, Fraction]:
    """p less a positive factor, and its value at x, which must be positive."""
    p = _stored(p)
    if (fx := p.eval(x)) <= 0:
        raise ValueError(f"density {'vanishes' if fx == 0 else 'is negative'} "
                         f"at x={_brief(x)}")
    return p, fx


def _nonnegative(ratio: Fraction, what: str) -> Fraction:
    """A ratio over a positive f(x); a negative one is a negative density."""
    if ratio < 0:
        raise ValueError(f"{what} is negative")
    return ratio


def long_tail_ratio(p: PiecewisePoly, x, t) -> Fraction:
    """f(x+t) / f(x): drifts to 1 for long-tailed densities."""
    x, t = Fraction(x), Fraction(t)
    p, fx = _stored_at(p, x)
    return _nonnegative(p.eval(x + t) / fx, f"density at x={_brief(x + t)}")


def subexp_ratio(p: PiecewisePoly, x) -> Fraction:
    """(f*f)(x) / (2 f(x)): drifts to 1 for subexponential densities."""
    x = Fraction(x)
    q, fx = _stored_at(p, x)  # of the factor dropped, one survives in (f*f)/(2f)
    return _nonnegative(conv.self_conv_value(q, x) / (2 * fx) * (p.factor / q.factor),
                        f"self-convolution at x={_brief(x)}")


def local_tail_ratio(p: PiecewisePoly, x, d) -> Fraction:
    """Window mass over (x, x+d] divided by d * f(x)."""
    x, d = Fraction(x), Fraction(d)
    p, fx = _stored_at(p, x)
    return _nonnegative(p.interval_mass(x, d) / (d * fx),
                        f"mass over ({_brief(x)}, {_brief(x + d)}]")


# ------------------------------- scans -------------------------------

def _scan_row(probe: str, label: str, best: Value, low: str, high: str) -> ProbeRow:
    """A scan's row: its largest rise, and the low and high ends as witnesses."""
    return ProbeRow(probe, label, best, {"witness_x": low, "witness_y": high})


def almost_decrease_scan(p: PiecewisePoly, x0=0) -> ProbeRow:
    """sup of f(y)/f(x) over knot pairs x0 <= x <= y with f(x) > 0, with
    the maximizing pair.  Exact for continuous piecewise-linear p (extrema
    at knots), so a segment of degree 2 or 3 on the scan range is refused,
    and so is a jump in value at a breakpoint on it: the knot value is the
    left limit, and a sup approached from the right has no knot to name.
    A knot where f <= 0 followed by one where f > 0 is refused as well: f
    tends to 0+ between them, so the sup is unbounded."""
    x0, p = Fraction(x0), _stored(p)
    lo, hi = p.support
    start = max(x0, lo)
    if start > hi:
        raise ValueError(f"scan start {_brief(x0)} is beyond the support end {_brief(hi)}")
    end = None
    for s_lo, s_hi, (c0, c1, c2, c3) in zip(p.breakpoints, p.breakpoints[1:], p.coeffs):
        if s_hi > start and (c2 or c3):
            raise ValueError(
                f"segment [{_brief(s_lo)}, {_brief(s_hi)}] has degree {3 if c3 else 2}; "
                "the knot scan is exact on piecewise-linear densities only")
        if end is not None and s_lo >= start and c0 != end:
            raise ValueError(
                f"the value jumps at {_brief(s_lo)}; "
                "the knot scan is exact on continuous densities only")
        u = s_hi - s_lo
        end = ((c3 * u + c2) * u + c1) * u + c0
    values = [(x, p.eval(x)) for x in [start] + [b for b in p.breakpoints if b > start]]
    zero = next((x for x, v in values if v <= 0), None)
    if zero is not None and any(v > 0 for x, v in values if x > zero):
        raise ValueError(
            f"f is not positive at {_brief(zero)} but is after it, "
            "so f(y)/f(x) is unbounded")
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


def split_integrals(f: PiecewisePoly, n: int, x) -> tuple[Fraction, Fraction]:
    """(I1, I2) with I1 over y in [0, a_m], I2 over [a_m, x - a_m], m = m(n).

    Requires x in (a_n, a_{n+1}] and x - a_m >= a_m, so the three-piece
    partition [0,a_m] + [a_m, x-a_m] + [x-a_m, x] is valid and
    2*I1 + I2 reassembles the full self-convolution at x exactly.
    """
    x = Fraction(x)
    cut = notched.split_cut(n, x)
    i1 = conv.conv_window_value(f, f, x, Fraction(0), cut)
    i2 = conv.conv_window_value(f, f, x, cut, x - cut)
    return i1, i2


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
    cut = notched.split_cut(n, x)  # I1, the other part of the split, is not read
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
    mixture of the notched f1 and the schedule's atoms, weighted 1/2 each.

    The exact row reports the cross-convolution window mass over
    d * f(b_{n_1}); the symbolic rows carry c * L(n_m)**(1/6), whose
    divergence is the desk-scale witness of the blow-up.
    """
    d = Fraction(d)
    first = schedule.entries[0]
    b1 = notched.knot_position("b", first.n_m, schedule.precision_bits)
    f = f1.density()
    cross = mx.mixture_cross_mass(schedule, f, b1, d)
    # both weights are 1/2: at x > 0 the mixture's self-convolution is
    # (f*f + 2 f*F2) / 4, the negative*negative term vanishing there
    full = (conv.self_conv_window_mass(f, b1, d) + 2 * cross) / 4
    local_f = f.interval_mass(b1, d) / 2
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


# ----------------------------- catalogue -----------------------------

PIECEWISE = ("notched", "file:<path>")


def _int(text: str, config) -> int:
    return int(text)


def _ints(text: str, config, each=int) -> list[int]:
    return [each(item) for item in text.split(",")]


def _int_list(key: str, lo: int, hi: int):
    """A parser of comma-separated integers, each in lo..hi."""
    each = _int_range(key, lo, hi)
    parse = partial(_ints, each=each)
    parse.bounds = f"each {each.bounds}"
    return parse


def _points(text: str, config, knots: bool = True) -> list[tuple[str, Fraction]]:
    """Abscissas, the parameter x: decimal strings or, if knots, knot labels
    like 'c10'.  A label the construction cannot place is refused with the
    reason."""
    points = []
    for label in (item.strip() for item in text.split(",")):
        if knots and label[:1] in notched.KNOT_KINDS and label[1:].isdigit():
            # the digit count first: int() refuses more than
            # sys.get_int_max_str_digits() digits, leading zeros included
            digits = label[1:].lstrip("0") or "0"
            try:
                if len(digits) > len(str(DENSE_LIMIT)) or (n := int(digits)) > DENSE_LIMIT:
                    raise ValueError(f"knots are placed for n <= {DENSE_LIMIT}")
                x = notched.knot_position(label[0], n, config.precision_bits)
            except ValueError as exc:
                raise UsageError(f"bad value for x: {_quoted(label)} ({exc})") from exc
            points.append((label, x))
        elif label:
            points.append((label, _rational(label)))
    if not points:
        raise ValueError("no points")
    return points


# Row builders: (row, config, args) -> rows, where row(x_or_n, value, aux)
# makes a row named after the probe and args holds the parsed parameters.

def _knot_ratio_series(row, config, args):
    return [row(str(n), lam) for n, lam in
            knot_ratio_series(args["n_max"], config.precision_bits)]


def _knot_scan(row, config, args):
    return [notched_knot_scan(args["n_max"], config.precision_bits)]


def _long_tail_ratio(row, config, args):
    f, t = config.density(), args["t"]
    return [row(label, long_tail_ratio(f, x, t), {"shift": t})
            for label, x in args["x"]]


def _subexp_ratio(row, config, args):
    f = config.density()
    rows = [row(label, subexp_ratio(f, x)) for label, x in args["x"]]
    if len(rows) > 1:
        devs = [abs(Fraction(1) - r.value) for r in rows]
        improving = all(a > b for a, b in zip(devs, devs[1:]))
        span = f"{rows[0].x_or_n}..{rows[-1].x_or_n}"
        rows.append(ProbeRow("subexp_trend", span, Fraction(int(improving)),
                             {"monotone_improvement": improving}))
    return rows


def _local_tail_ratio(row, config, args):
    f = config.density()
    return [row(label, local_tail_ratio(f, x, config.d), {"window": config.d})
            for label, x in args["x"]]


def _piecewise_scan(row, config, args):
    return [almost_decrease_scan(config.density(), args["x0"])]


def _logperiodic_scan(row, config, args):
    k_max = args["k_max"]
    return logperiodic_scan(lp.LogPeriodicParams(config.delta), k_max, f"k<={k_max}")


def _i2_bound_check(row, config, args):
    # each block once, in the order it first appears: the default
    # {half},{n} names block 1 twice at n = 1
    return [i2_bound_check(config.notched_density(), n)
            for n in dict.fromkeys(args["n_list"])]


def _split_integrals(row, config, args):
    nd = config.notched_density()
    nd.check_block(args["block"])
    rows = []
    for label, x in args["x"]:
        i1, i2 = split_integrals(nd.dense, args["block"], x)
        whole = conv.self_conv_value(nd.dense, x)
        rows.append(row(label, whole, {"i1": i1, "i2": i2,
                                       "exact_partition": 2 * i1 + i2 == whole}))
    return rows


def _chi(row, config, args):
    p = lp.LogPeriodicParams(config.delta)
    return [row(label, lp.chi(x, p)) for label, x in args["x"]]


def _karamata_ratio(row, config, args):
    p = lp.LogPeriodicParams(config.delta)
    return [row(label, lp.karamata_ratio(x, p)) for label, x in args["x"]]


def _middle_integral(row, config, args):
    p, h_exp = lp.LogPeriodicParams(config.delta), args["h_exp"]
    return [row(f"k{k}", lp.middle_mass_ratio(lp.anchor(k), p, h_exp),
                {"h_exp": h_exp})
            for k in dict.fromkeys(args["k_list"])]  # each anchor once, as first named


def _schedule(row, config, args):
    return [row(str(e.m), e.mass, {"n_m": e.n_m, "lower_bound": e.lower_bound})
            for e in config.schedule().entries]


def _blowup(row, config, args):
    return mixture_blowup_probe(config.schedule(),
                                notched.build_density(4, config.precision_bits), config.d)


# reads names the options the rows read: the notched density reads n and
# precision_bits, a knot label precision_bits and a default that names {n}
# or {half} n.  params maps each parameter to (parser, default); a default
# may name the option n as {n}, max(1, n // 2) as {half} and an earlier
# parameter as {its name}.  rows is the row builder.
Probe = namedtuple("Probe", "name constructions reads params rows")

_BUILT = ("n", "precision_bits")
_DELTA = ("delta",)

# `report <construction>` runs the probes that describe it, in this order.
# A name may appear once per construction (almost_decrease_scan reads the
# notched build, a file and the log-periodic density differently).
#
# Each count's range bounds the run to about 10 s on a 2-vCPU VM.  A step of
# n_max costs about precision_bits**2 (mpmath's logarithm turns to the AGM
# past 2,500 bits), so the range also caps n_max * precision_bits**2: at
# 6,144 bits knot_scan takes 1..455.  k_max and each anchor of k_list were
# measured at delta = 1/32, 1/4 and 3/8; a list names each anchor once.
PROBES = (
    Probe("knot_ratio_series", ("notched",), ("precision_bits",),
          {"n_max": (_int_range("n_max", 2, 150_000, 35), "40")}, _knot_ratio_series),
    Probe("knot_scan", ("notched",), ("precision_bits",),
          {"n_max": (_int_range("n_max", 1, 70_000, 34), "40")}, _knot_scan),
    Probe("long_tail_ratio", PIECEWISE, _BUILT,
          {"x": (_points, "c{n}"), "t": (_rational, "1")}, _long_tail_ratio),
    Probe("subexp_ratio", PIECEWISE, _BUILT, {"x": (_points, "c{n}")}, _subexp_ratio),
    Probe("local_tail_ratio", PIECEWISE, (*_BUILT, "d"), {"x": (_points, "c{n}")},
          _local_tail_ratio),
    Probe("almost_decrease_scan", ("notched",), _BUILT, {"x0": (_rational, "0")},
          _piecewise_scan),
    Probe("almost_decrease_scan", ("file:<path>",), (), {"x0": (_rational, "0")},
          _piecewise_scan),
    Probe("i2_bound_check", ("notched",), _BUILT, {"n_list": (_ints, "{half},{n}")},
          _i2_bound_check),
    Probe("split_integrals", ("notched",), _BUILT,
          {"block": (_int, "{n}"), "x": (_points, "c{block}")}, _split_integrals),
    Probe("chi", ("logperiodic",), _DELTA,
          {"x": (partial(_points, knots=False), "1")}, _chi),
    Probe("almost_decrease_scan", ("logperiodic",), _DELTA,
          {"k_max": (_int_range("k_max", 1, 2500), "8")}, _logperiodic_scan),
    Probe("karamata_ratio", ("logperiodic",), _DELTA,
          {"x": (partial(_points, knots=False), "100,10000")}, _karamata_ratio),
    Probe("middle_integral", ("logperiodic",), _DELTA,
          {"h_exp": (_rational, "3/10"), "k_list": (_int_list("k_list", 1, 60), "3,4,5,6")},
          _middle_integral),
    Probe("schedule", ("mixture",), ("m_max", "precision_bits"), {}, _schedule),
    Probe("blowup", ("mixture",), ("m_max", "precision_bits", "d"), {}, _blowup),
)


def _probe_help() -> str:
    lines = ["probes (constructions: parameter=default (range) [options read]; "
             "{n} is the option n, {half} is max(1, n // 2)):"]
    for p in PROBES:
        params = "".join(
            f" {k}={default}" + (f" ({parse.bounds})" if hasattr(parse, "bounds") else "")
            for k, (parse, default) in p.params.items())
        lines.append(f"  {p.name:<22}{', '.join(p.constructions)}:{params} "
                     f"[reads {', '.join(p.reads) or 'none'}]")
    return "\n".join(lines)


def _find_probe(name: str, construction: str) -> Probe:
    named = [p for p in PROBES if p.name == name]
    if not named:
        valid = ", ".join(dict.fromkeys(p.name for p in PROBES))
        raise UsageError(f"unknown probe {_quoted(name)}; valid probes: {valid}")
    for p in named:
        if construction in p.constructions:
            return p
    accepted = ", ".join(c for p in named for c in p.constructions)
    raise UsageError(f"probe {name} takes the construction {accepted}, "
                     f"not {_quoted(construction)}")
