import re
import time
from decimal import ROUND_HALF_UP, Context, Decimal, Inexact
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailkit import convolution as conv_mod
from tailkit import mixture as mx
from tailkit import notched
from tailkit import probes
from tailkit.numerics import LogValue, log2_snap, log_nat
from tailkit.piecewise import PiecewisePoly, from_linear_knots
from tailkit.render import decimal_str, value_str

UNIFORM = from_linear_knots([(0, 1), (1, 1)])


def _decimal_oracle(q: Fraction, sig: int) -> str:
    """decimal_str by the decimal module: the exact quotient when it has at
    most 80 significant digits and its positional text at most 80
    characters, else the quotient rounded half-up to sig digits, positional
    for decimal exponents -6..sig+6 and d.ddde<exponent> outside."""
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    num, den = Decimal(abs(q.numerator)), Decimal(q.denominator)
    exact = Context(prec=80)
    d = exact.divide(num, den).normalize(exact)
    if not exact.flags[Inexact] and len(f"{d:f}") <= 80:
        return sign + f"{d:f}"
    rounded = Context(prec=sig, rounding=ROUND_HALF_UP)
    d = rounded.divide(num, den).normalize(rounded)
    e = d.adjusted()
    if -6 <= e <= sig + 6:
        return sign + f"{d:f}"
    digits = "".join(map(str, d.as_tuple().digits))
    mantissa = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
    return f"{sign}{mantissa}e{e}"


def _bits_up_to(n: int):
    """Positive ints of up to n bits, spread over bit lengths."""
    return st.integers(0, n).flatmap(lambda bits: st.integers(1, 1 << bits))


class TestRatios:
    def test_long_tail_zero_shift(self, nd3):
        f = nd3.density()
        assert probes.long_tail_ratio(f, 10, 0) == 1

    def test_long_tail_chain_rule(self, nd10):
        f = nd10.dense
        x, t1, t2 = Fraction(100), Fraction(7, 3), Fraction(11, 5)
        joint = probes.long_tail_ratio(f, x, t1 + t2)
        chained = (probes.long_tail_ratio(f, x, t1)
                   * probes.long_tail_ratio(f, x + t1, t2))
        assert joint == chained

    def test_long_tail_zero_density(self):
        tri = from_linear_knots([(0, 0), (1, 1), (2, 0)])
        with pytest.raises(ValueError):
            probes.long_tail_ratio(tri, 2, -1)

    def test_subexp_uniform_apex(self):
        assert probes.subexp_ratio(UNIFORM, 1) == Fraction(1, 2)

    def test_local_tail_constant_density(self):
        assert probes.local_tail_ratio(UNIFORM, 0, Fraction(1, 2)) == 1

    def test_two_routes_agree(self, nd3):
        from tailkit import convolution as conv
        f = nd3.density()
        dense = conv.conv_linear_exact(f, f)
        for x in (Fraction(5), Fraction(99, 7), Fraction(30)):
            via_point = probes.subexp_ratio(f, x)
            via_dense = dense.eval(x) / (2 * f.eval(x))
            assert via_point == via_dense

    def test_long_tail_across_block_boundary(self, nd10):
        # x = a_4 is owned by the block-3 descent; the shift lands on the
        # block-4 notch slope, so the exact ratio is 1 + slope_41 / f0(a_4)
        f = nd10.dense
        a4 = notched.a_position(4)
        b4 = notched.knot_position("b", 4)
        slope = ((notched.knot_value("b", 4) - notched.knot_value("a", 4))
                 / (b4 - a4))
        got = probes.long_tail_ratio(f, a4, 1)
        assert got == 1 + slope / notched.knot_value("a", 4)
        assert abs(float(got) - 0.9999977686) < 1e-9

    def test_long_tail_on_descent(self, nd3):
        # ten units along the block-2 descent cost about 4.2% of the value
        got = probes.long_tail_ratio(nd3.dense, notched.knot_position("c", 2), 10)
        assert abs(float(got) - 0.95805) < 1e-4

    def test_local_tail_at_kink(self, nd10):
        # the window at the notch bottom straddles the kink; the deviation
        # is bounded by the (tiny) slope change across it
        r = probes.local_tail_ratio(nd10.dense, notched.knot_position("b", 9), 1)
        assert Fraction(999, 1000) < r < Fraction(1001, 1000)

    def test_self_conv_finite_deep_in_support(self):
        f = notched.build_density(25).dense
        value = conv_mod.self_conv_value(f, notched.knot_position("c", 25))
        assert value > 0


_POSITIVE = st.builds(Fraction, _bits_up_to(64), _bits_up_to(64))


class TestStoredRatios:
    """A positive factor cancels in f(x+t)/f(x) and in the window mass over
    d f(x), and one factor survives in (f*f)(x)/(2 f(x)), so each ratio
    probe reads the stored polynomial."""

    @given(n=st.sampled_from([2, 3, 4]), normalized=st.booleans(), k=_POSITIVE,
           at=st.fractions(0, 1), step=st.fractions(-1, 1),
           d=st.fractions(0, 64).filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_a_positive_scale(self, nd10, n, normalized, k, at, step, d):
        nd = nd10.truncate(n)
        p = nd.density() if normalized else nd.dense
        lo, hi = p.support
        x = lo + at * (hi - lo)
        t = step * ((hi - x) if step > 0 else (x - lo))  # x + t in the support
        q = p.scale(k)
        assert probes.long_tail_ratio(q, x, t) == probes.long_tail_ratio(p, x, t)
        assert probes.local_tail_ratio(q, x, d) == probes.local_tail_ratio(p, x, d)
        assert probes.subexp_ratio(q, x) == k * probes.subexp_ratio(p, x)

    @given(k=_POSITIVE, x=st.sampled_from([0, 2]))
    @settings(max_examples=20, deadline=None)
    def test_a_zero_value_is_refused(self, k, x):
        tri = from_linear_knots([(0, 0), (1, 1), (2, 0)]).scale(k)
        for ratio in (partial(probes.long_tail_ratio, t=0), probes.subexp_ratio,
                      partial(probes.local_tail_ratio, d=1)):
            with pytest.raises(ValueError, match=f"density vanishes at x={x}$"):
                ratio(tri, x)

    @pytest.mark.parametrize("k", [7, None], ids=["7", "1/mass"])
    def test_values_come_from_the_stored_polynomial(self, nd10, k, monkeypatch):
        p = nd10.density() if k is None else nd10.dense.scale(k)
        factors = []

        def recording(method):
            def read(f, *args):
                factors.append(f.factor)
                return method(f, *args)
            return read
        for name in ("eval", "interval_mass"):
            monkeypatch.setattr(PiecewisePoly, name,
                                recording(getattr(PiecewisePoly, name)))
        monkeypatch.setattr(conv_mod, "self_conv_value",
                            recording(conv_mod.self_conv_value))
        x = notched.knot_position("c", 9)
        probes.long_tail_ratio(p, x, 1)
        probes.local_tail_ratio(p, x, 1)
        probes.subexp_ratio(p, x)
        assert len(factors) >= 5 and set(factors) == {1}


class TestScans:
    def test_monotone_decreasing_sup_at_most_one(self):
        f = from_linear_knots([(0, 4), (1, 2), (3, 1), (7, Fraction(1, 2))])
        row = probes.almost_decrease_scan(f)
        assert row.value <= 1
        assert row.aux["witness_x"] == row.aux["witness_y"]

    def test_notched_dense_sup_is_lambda(self, nd10):
        row = probes.almost_decrease_scan(nd10.dense)
        assert (row.probe, row.x_or_n) == ("almost_decrease_scan", "x0=0")
        assert row.value == log_nat(10)
        assert row.aux == {
            "witness_x": decimal_str(notched.knot_position("b", 10)),
            "witness_y": decimal_str(notched.knot_position("c", 10))}

    def test_scan_start_inside(self, nd10):
        row = probes.almost_decrease_scan(nd10.dense, notched.a_position(9))
        assert row.value == log_nat(10)
        assert row.x_or_n == f"x0={decimal_str(notched.a_position(9))}"

    @pytest.mark.parametrize("k", [Fraction(1, 3), 7, None], ids=["1/3", "7", "1/mass"])
    def test_positive_scale_leaves_the_rows(self, nd10, k, monkeypatch):
        # f(y)/f(x) does not depend on a positive scale, so the scan reads
        # the stored coefficients: the normalized density's 1/mass drops out
        p = nd10.dense
        scaled = nd10.density() if k is None else p.scale(k)
        factors = []
        evaluate = PiecewisePoly.eval

        def recording(self, x):
            factors.append(self.factor)
            return evaluate(self, x)
        monkeypatch.setattr(PiecewisePoly, "eval", recording)
        for x0 in (0, notched.a_position(9)):
            row = probes.almost_decrease_scan(scaled, x0)
            assert factors and set(factors) == {1}
            factors.clear()
            assert row == probes.almost_decrease_scan(p, x0)

    def test_scan_empty_range(self, nd3):
        with pytest.raises(ValueError):
            probes.almost_decrease_scan(nd3.dense, notched.a_position(4) + 1)

    def test_scan_skips_zeros(self):
        # f tends to 0+ next to 0 and 2, so from 0 the sup is unbounded; from
        # 3 the trailing zero is skipped
        f = from_linear_knots([(0, 0), (1, 2), (2, 0), (3, 3), (4, 0)])
        with pytest.raises(ValueError, match=r"^f is not positive at 0 but is after it"):
            probes.almost_decrease_scan(f)
        row = probes.almost_decrease_scan(f, 3)
        assert (row.value, row.aux["witness_x"], row.aux["witness_y"]) == (1, "3", "3")
        with pytest.raises(ValueError, match="vanishes on the whole scan range"):
            probes.almost_decrease_scan(f, 4)

    @pytest.mark.parametrize("coeffs", [(0, 0, 1), (1, 0, 0, -1)],
                             ids=["quadratic", "cubic"])
    def test_scan_refuses_a_curved_segment_on_its_range(self, coeffs):
        f = PiecewisePoly([0, 1, 2, 3], [(1, 0), coeffs, (1, 0)])
        for x0 in (0, Fraction(3, 2)):
            with pytest.raises(ValueError, match=r"^segment \[1, 2\] has degree"):
                probes.almost_decrease_scan(f, x0)
        # u**2 ends at 1, where the last segment starts; 1 - u**3 ends at 0,
        # so a scan from 2 starts at a jump, and one from 5/2 is past it
        if len(coeffs) == 3:
            assert probes.almost_decrease_scan(f, 2).value == 1
        else:
            with pytest.raises(ValueError, match=r"^the value jumps at 2; "):
                probes.almost_decrease_scan(f, 2)
        assert probes.almost_decrease_scan(f, Fraction(5, 2)).value == 1

    @pytest.mark.parametrize("right", [5, Fraction(1, 2), 0])
    def test_scan_refuses_a_jump_in_value_on_its_range(self, right):
        # f jumps from 1 to `right` at 1: up, down, or to 0; the knot value
        # at 1 is the left limit, so the sup approached just right of 1 (5
        # there, or 2 / (1/2) for the drop) has no knot to name
        f = PiecewisePoly([0, 1, 2, 3], [(1, 0), (right, 1), (right + 1, 0)])
        for x0 in (0, 1):
            with pytest.raises(ValueError, match=r"^the value jumps at 1; "):
                probes.almost_decrease_scan(f, x0)
        # past the jump the segments meet, unflagged, and are scanned
        row = probes.almost_decrease_scan(f, Fraction(3, 2))
        assert row.aux == {"witness_x": "1.5", "witness_y": "2"}

    def test_knot_scan_matches_dense(self):
        row = probes.notched_knot_scan(40)
        assert (row.probe, row.x_or_n) == ("knot_scan", "n<=40")
        assert row.value.log2mag == log2_snap(log_nat(40), 256)
        assert row.aux == {"witness_x": "b40", "witness_y": "c40"}

    def test_knot_scan_beyond_dense_limit(self):
        row = probes.notched_knot_scan(500)
        assert row.value.log2mag == log2_snap(log_nat(500), 256)

    def test_logperiodic_scan_direction_recorded(self, lp_default):
        scan, *rows = probes.logperiodic_scan(lp_default, 4, "k<=4")
        assert (scan.probe, scan.x_or_n) == ("almost_decrease_scan", "k<=4")
        assert scan.value.log2mag > 10
        assert {r.probe for r in rows} == {"anchor_pair_ratio"}
        directions = [r.aux["growing_direction"] for r in rows]
        # x=0 dominates its pair (the density peaks there); from the first
        # genuine modulation trough on, the later anchor carries the larger
        # density
        assert directions[0] == "earlier"
        assert directions[1:] and all(d == "later" for d in directions[1:])


class TestSeries:
    def test_values(self):
        series = dict(probes.knot_ratio_series(9))
        assert abs(float(series[3]) - 1.3862943611) < 1e-9
        assert abs(float(series[9]) - 2.3025850930) < 1e-9

    def test_strictly_increasing(self):
        vals = [lam for _, lam in probes.knot_ratio_series(40)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            probes.knot_ratio_series(1)


class TestI2Bound:
    def test_small_blocks(self, nd10):
        for n in (5, 8):
            row = probes.i2_bound_check(nd10, n)
            assert (row.probe, row.x_or_n) == ("i2_bound_check", str(n))
            assert row.aux["passed"]
            m = notched.m_of(n)
            assert row.aux["bound_log2"] == -6 * m * m + (n + 1) ** 2 + 2

    def test_every_block_2_to_15(self):
        nd = notched.build_density(16)
        assert all(probes.i2_bound_check(nd, n).aux["passed"] for n in range(2, 16))

    def test_walks_i2_alone(self, nd10, monkeypatch):
        # one point walk per block, over [a_m, x - a_m]; I1 is not computed
        walks = []
        window = conv_mod.conv_window_value
        monkeypatch.setattr(conv_mod, "conv_window_value",
                            lambda *args: walks.append(args[3:]) or window(*args))
        rows = [probes.i2_bound_check(nd10, n) for n in (5, 8)]
        monkeypatch.undo()
        xs = [notched.knot_position("c", n) for n in (5, 8)]
        cuts = [notched.a_position(notched.m_of(n)) for n in (5, 8)]
        assert walks == [(cut, x - cut) for cut, x in zip(cuts, xs)]
        for n, x, row in zip((5, 8), xs, rows):
            assert row.value == probes.split_integrals(nd10.dense, n, x)[1]

    @pytest.mark.parametrize("n, x, message", [
        (10, notched.a_position(10), "is not inside block 10"),
        (2, notched.a_position(2) + 1, "violates x - a_m >= a_m for block 2"),
    ], ids=["outside-block", "degenerate-middle"])
    def test_rejects_what_split_integrals_rejects(self, nd10, n, x, message,
                                                   monkeypatch):
        monkeypatch.setattr(notched, "knot_position", lambda kind, n, pb: x)
        with pytest.raises(ValueError, match=re.escape(message)):
            probes.i2_bound_check(nd10, n)
        with pytest.raises(ValueError, match=re.escape(message)):
            probes.split_integrals(nd10.dense, n, x)


class TestShiftInsensitivity:
    def test_shift_by_a_m_keeps_value(self, nd10):
        # f(x - a_{m(n)}) tracks f(x) inside block n
        for n in (8, 10):
            x = notched.knot_position("c", n)
            shift = -notched.a_position(notched.m_of(n))
            r = probes.long_tail_ratio(nd10.dense, x, shift)
            assert Fraction(9, 10) < r < Fraction(11, 10)


class TestBlowupProbe:
    def test_rows_shape(self, nd3):
        sch = mx.build_schedule(3)
        rows = probes.mixture_blowup_probe(sch, nd3, 1)
        assert len(rows) == 3
        assert rows[0].probe == "blowup_exact"
        assert rows[0].value > 0
        assert [r.value for r in rows[1:]] == [e.lower_bound
                                               for e in sch.entries[1:]]

    def test_rejects_bad_window(self, nd3):
        with pytest.raises(ValueError, match="window width must be positive"):
            probes.mixture_blowup_probe(mx.build_schedule(1), nd3, 0)


class TestRendering:
    def test_decimal_exact_dyadic(self):
        assert decimal_str(Fraction(1, 4)) == "0.25"
        assert decimal_str(Fraction(-3, 8)) == "-0.375"
        assert decimal_str(Fraction(0)) == "0"
        assert decimal_str(Fraction(42)) == "42"

    def test_decimal_rounded_repeating(self):
        text = decimal_str(Fraction(1, 3))
        assert text.startswith("0.3333333333")
        assert len(text) <= 50

    def test_decimal_huge_magnitudes(self):
        assert decimal_str(Fraction(2) ** 600).endswith("e180")
        tiny = decimal_str(Fraction(1, 2) ** 600)
        assert tiny.endswith("e-181")
        # a dyadic whose exact expansion has far more digits than Python's
        # default int-to-str limit allows: rounded without converting it
        assert (decimal_str(Fraction(3, 2 ** 20001))
                == "3.7685820865481168777702025632004150905e-6021")
        assert decimal_str(Fraction(1 - 2 ** 20001, 2 ** 20001)) == "-1"

    def test_decimal_long_power_of_five_is_fast(self):
        # the exact branch needs fewer than 80 factors of 5, so the count
        # stops there; counting all 300,000 one division at a time took 60 s
        start = time.perf_counter()
        assert decimal_str(Fraction(1, 10 ** 300000)) == "1e-300000"
        assert time.perf_counter() - start < 5

    def test_decimal_deterministic(self):
        q = Fraction(355, 113)
        assert decimal_str(q) == decimal_str(q)

    def test_value_str_logvalue(self):
        assert value_str(LogValue(Fraction(-47))) == "log2:-47"
        assert value_str(LogValue(Fraction(3, 2))) == "log2:1.5"

    def test_csv_layout(self):
        rows = [probes.ProbeRow("demo", "x1", Fraction(1, 2),
                                {"note": "hi"}),
                probes.ProbeRow("demo", "x2", 10 ** 5000, {"n": 10 ** 5000})]
        text = probes.render_csv(rows)
        lines = text.splitlines()
        assert lines[0] == probes.CSV_HEADER
        assert lines[1].startswith('demo,x1,0.5,"{""note"":""hi""}",0')
        # ints longer than Python's default int-to-str limit, in full
        digits = "1" + "0" * 5000
        assert lines[2] == f'demo,x2,{digits},"{{""n"":{digits}}}",0'

    def test_csv_flag_column(self):
        # no row has a precision verdict: the column is a constant 0
        rows = [probes.ProbeRow("demo", "x", LogValue(Fraction(2))),
                probes.ProbeRow("demo", "y", Fraction(1, 3), {"k": 1})]
        assert [line.rsplit(",", 1)[1]
                for line in probes.render_csv(rows).splitlines()[1:]] == ["0", "0"]

    @given(st.fractions(max_denominator=10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_decimal_str_total(self, q):
        text = decimal_str(q)
        assert isinstance(text, str) and text
        if q == 0:
            assert text == "0"
        else:
            approx = Fraction(text.replace("e", "E").split("E")[0])
            assert (approx < 0) == (q < 0)

    @given(st.one_of(st.integers(0, 10 ** 6), _bits_up_to(13_000)),
           st.one_of(_bits_up_to(13_000),
                     st.builds(lambda a, b: 2 ** a * 5 ** b,
                               st.integers(0, 400), st.integers(0, 400))),
           st.booleans(), st.sampled_from([3, 4, 6, 8, 12, 40]))
    @settings(max_examples=300, deadline=None)
    def test_decimal_str_matches_decimal_oracle(self, num, den, negative, sig):
        q = Fraction(-num if negative else num, den)
        assert decimal_str(q, sig) == _decimal_oracle(q, sig)
