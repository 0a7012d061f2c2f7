import sys
from fractions import Fraction

import pytest
from conftest import linear_operands, small_fractions
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailkit.numerics import _rational
from tailkit.piecewise import (PiecewisePoly, _fmt, dump_text, from_linear_knots,
                               load_text)

TRIANGLE = from_linear_knots([(0, 0), (1, 1), (2, 0)])


def linear_knots(min_size=2, max_size=8):
    """Strategy: strictly increasing abscissas with nonnegative values."""
    xs = st.lists(small_fractions(0, 50, max_denominator=16),
                  min_size=min_size, max_size=max_size, unique=True)
    fs = small_fractions(0, 10, max_denominator=16)
    return xs.flatmap(
        lambda pts: st.tuples(
            st.just(sorted(pts)),
            st.lists(fs, min_size=len(pts), max_size=len(pts)))
    ).filter(lambda t: len(t[0]) >= min_size).map(lambda t: list(zip(*t)))


factors = st.fractions(min_value="1/64", max_value=64, max_denominator=64)
# integers of 1 to 6,000 digits, past Python's default limit of 4,300 on
# int-to-str conversion
long_ints = st.integers(1, 6000).flatmap(lambda k: st.integers(10 ** (k - 1), 10 ** k - 1))
unit = small_fractions(0, 1, max_denominator=64)
widths = small_fractions("1/16", 3, max_denominator=16)


class TestConstruction:
    def test_two_point_line(self):
        p = from_linear_knots([(0, 1), (2, Fraction(1, 4))])
        assert p.coeffs[0][1] == Fraction(-3, 8)
        assert p.eval(0) == 1 and p.eval(2) == Fraction(1, 4)

    def test_triangle(self):
        assert TRIANGLE.eval(Fraction(1, 2)) == Fraction(1, 2)
        assert TRIANGLE.eval(1) == 1

    def test_reproduces_knot_values_exactly(self):
        knots = [(Fraction(1, 3), Fraction(2, 7)), (Fraction(5, 3), Fraction(1)),
                 (Fraction(7, 3), Fraction(0))]
        p = from_linear_knots(knots)
        for x, f in knots:
            assert p.eval(x) == f

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            from_linear_knots([(1, 0), (0, 1)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            from_linear_knots([(0, 0), (0, 1)])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            from_linear_knots([(0, 0), (1, -1)])

    def test_rejects_single_knot(self):
        with pytest.raises(ValueError):
            from_linear_knots([(0, 1)])

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            PiecewisePoly((Fraction(0), Fraction(1)),
                          ((Fraction(1),) * 5,))


class TestEval:
    def test_right_continuous_ownership(self):
        # two segments, a jump at x=1: (0,1] owned by the left piece
        p = PiecewisePoly((Fraction(0), Fraction(1), Fraction(2)),
                          ((Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
                           (Fraction(5), Fraction(0), Fraction(0), Fraction(0))))
        assert p.eval(1) == 1
        assert p.eval(Fraction(101, 100)) == 5
        assert p.eval(0) == 1  # left support end owned by first segment

    def test_outside_support_raises(self):
        with pytest.raises(ValueError):
            TRIANGLE.eval(3)
        with pytest.raises(ValueError):
            TRIANGLE.eval(Fraction(-1, 10))

    def test_interior_breakpoint_continuity(self):
        for b in TRIANGLE.breakpoints[1:-1]:
            left = TRIANGLE.coeffs[0]
            eps_val = TRIANGLE.eval(b)
            u = b - TRIANGLE.breakpoints[0]
            assert eps_val == left[0] + left[1] * u


class TestIntegral:
    def test_triangle_total(self):
        assert TRIANGLE.integral(0, 2) == 1

    def test_trapezoid(self):
        p = from_linear_knots([(0, 1), (2, Fraction(1, 4))])
        assert p.integral(0, 2) == Fraction(5, 4)

    def test_reversed_bounds(self):
        with pytest.raises(ValueError):
            TRIANGLE.integral(2, 0)

    @given(linear_knots(), unit)
    @settings(max_examples=100, deadline=None)
    def test_additivity_exact(self, knots, frac):
        p = from_linear_knots(knots)
        lo, hi = p.support
        mid = lo + (hi - lo) * frac
        assert p.integral(lo, mid) + p.integral(mid, hi) == p.integral(lo, hi)

    @given(linear_knots(), widths, widths)
    @settings(max_examples=100, deadline=None)
    def test_interval_mass_chains(self, knots, d1, d2):
        p = from_linear_knots(knots)
        x = p.support[0]
        joint = p.interval_mass(x, d1 + d2)
        assert joint == p.interval_mass(x, d1) + p.interval_mass(x + d1, d2)

    def test_interval_mass_clamps(self):
        assert TRIANGLE.interval_mass(1, 100) == Fraction(1, 2)
        assert TRIANGLE.interval_mass(-50, 1) == 0
        with pytest.raises(ValueError):
            TRIANGLE.interval_mass(0, 0)

    def test_interval_mass_tracks_value_on_flat_stretch(self, nd3):
        # a unit window on the gentle mid-block slope carries ~ 1 * f(x)
        from tailkit import notched
        f = nd3.density()
        x = notched.knot_position("c", 2)
        mass = f.interval_mass(x, 1)
        assert abs(mass / f.eval(x) - 1) < Fraction(1, 100)


class TestNormalize:
    def test_triangle_unchanged(self):
        scaled, mass = TRIANGLE.normalize()
        assert mass == 1
        assert scaled.coeffs == TRIANGLE.coeffs

    def test_double_triangle(self):
        doubled = TRIANGLE.scale(2)
        scaled, mass = doubled.normalize()
        assert mass == 2
        assert scaled.coeffs == TRIANGLE.coeffs

    def test_zero_mass_rejected(self):
        flat = from_linear_knots([(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            flat.normalize()

    @given(linear_knots(), factors)
    @settings(max_examples=80, deadline=None)
    def test_normalized_mass_exactly_one(self, knots, s):
        p = from_linear_knots(knots).scale(s)
        if p.total_mass() == 0:
            return
        scaled, mass = p.normalize()
        assert scaled.total_mass() == 1
        assert mass == p.total_mass()


class TestHead:
    @given(linear_knots(), st.integers(min_value=1, max_value=7))
    @settings(max_examples=80, deadline=None)
    def test_head_is_the_build_of_the_first_knots(self, knots, k):
        p = from_linear_knots(knots)
        k = min(k, len(knots) - 1)
        assert p.head(k) == from_linear_knots(knots[:k + 1])

    @pytest.mark.parametrize("k", [0, 3])
    def test_rejects_outside_the_segments(self, k):
        with pytest.raises(ValueError):
            TRIANGLE.head(k)


class TestSerialization:
    def test_knot_round_trip(self, nd3):
        text = dump_text(nd3.dense)
        back = load_text(text)
        assert back == nd3.dense

    def test_seg_round_trip(self):
        p = PiecewisePoly(
            (Fraction(0), Fraction(1, 3), Fraction(2)),
            ((Fraction(1, 7), Fraction(2), Fraction(0), Fraction(1)),
             (Fraction(0), Fraction(-1, 2), Fraction(3), Fraction(0))))
        for q in (p, p.scale(Fraction(3, 7))):
            assert load_text(dump_text(q)) == q

    def test_comments_ignored(self):
        text = "# a comment\nknot 0 1\n# another\nknot 1 0\n"
        p = load_text(text)
        assert p.eval(Fraction(1, 2)) == Fraction(1, 2)

    def test_rejects_mixed(self):
        with pytest.raises(ValueError):
            load_text("knot 0 1\nseg 0 1 1 0 0 0\n")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_text("knot 0\n")

    @pytest.mark.parametrize("limit", [640, 4300, 0])
    def test_text_independent_of_int_digit_limit(self, limit):
        # a 5,000-digit numerator and a 5,001-digit denominator, past
        # Python's default limit of 4,300 digits on int-to-str conversion
        long_num, long_den = Fraction(-7 ** 5916, 3), Fraction(1, 3 ** 10480)
        p = PiecewisePoly((0, long_den, 2),
                          ((long_num, 1), (0, long_num, long_den, 0)))
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = dump_text(p)
            first_seg = f"seg 0 1/{3 ** 10480} {long_num} 1 0 0\n"
            sys.set_int_max_str_digits(limit)
            text = dump_text(p)
            back = load_text(text)
        finally:
            sys.set_int_max_str_digits(old)
        assert text == expected and back == p
        assert first_seg in text

    @given(long_ints, long_ints, st.booleans())
    @settings(max_examples=60, deadline=None)
    @example(7 ** 7100, 3 ** 10480, True)
    @example(10 ** 5999, 1, False)
    def test_long_rationals_read_back_whatever_the_digit_limit(self, num, den, negative):
        # the one writer and the one reader, of option values and file
        # values alike, at Python's default limit
        q = Fraction(-num if negative else num, den)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert _rational(_fmt(q)) == q
            p = load_text(f"knot {_fmt(q)} 1\nknot {_fmt(q + 1)} 0\n")
        finally:
            sys.set_int_max_str_digits(old)
        assert p.breakpoints == (q, q + 1)

    @given(linear_operands(), st.sampled_from([1, Fraction(1, 3), 0, -2]))
    @settings(max_examples=150, deadline=None)
    def test_loads_back_to_what_was_written(self, p, k):
        p = p.scale(k)
        assert load_text(dump_text(p)) == p

    @given(st.lists(small_fractions(-4, 8, max_denominator=4), min_size=2,
                    max_size=5, unique=True).map(sorted),
           st.lists(st.tuples(*[small_fractions(-4, 4, max_denominator=4)] * 2,
                              st.sampled_from([0, 0, 1]), st.sampled_from([0, 0, -1])),
                    min_size=4, max_size=4),
           st.sampled_from([1, Fraction(1, 3), 0, -2]))
    @settings(max_examples=150, deadline=None)
    # eval(13/2) is the left piece's 29/12, but a knot line there would
    # write the right piece's -9/2, which no knot file may hold
    @example([4, Fraction(13, 2), 11], [(Fraction(13, 4), Fraction(-1, 3), 0, 0),
                                         (Fraction(-9, 2), 10, 0, 0)], 1)
    # nowhere negative, but knot lines would close the jump at 1
    @example([0, 1, 2], [(1, 0, 0, 0), (2, 0, 0, 0)], 1)
    # continuous, linear and nowhere negative: knot lines
    @example([0, 1, 2], [(0, 1, 0, 0), (1, -1, 0, 0)], Fraction(1, 3))
    def test_any_cells_load_back(self, breaks, cells, factor):
        # whatever the values, the text loads, and to the function written;
        # the values alone pick the format, and no line records a flag
        p = PiecewisePoly(breaks, cells[:len(breaks) - 1], factor)
        text = dump_text(p)
        assert load_text(text) == p
        assert "# flags:" not in text

    @pytest.mark.parametrize("line", ["knot 0 1/0", "knot 0 one",
                                      "seg 0 1 1 0 0 2/0"])
    def test_bad_rational_names_the_line(self, line):
        with pytest.raises(ValueError, match="bad rational") as info:
            load_text(f"knot 5 1\n{line}\n")
        assert line in str(info.value)


class TestFactor:
    """value = factor * polynomial; normalize and scale touch only the factor."""

    def test_normalize_shares_coefficients(self):
        doubled = TRIANGLE.scale(2)
        scaled, mass = doubled.normalize()
        assert scaled.coeffs is TRIANGLE.coeffs
        assert (doubled.factor, scaled.factor, mass) == (2, 1, 2)

    def test_equality_compares_the_represented_function(self):
        doubled = TRIANGLE.scale(2)
        stored = PiecewisePoly(TRIANGLE.breakpoints,
                               tuple(tuple(2 * c for c in seg)
                                     for seg in TRIANGLE.coeffs))
        assert doubled == stored and hash(doubled) == hash(stored)
        assert doubled.scale(Fraction(1, 2)) == TRIANGLE
        assert doubled != TRIANGLE

    def test_dump_writes_materialized_values(self):
        assert dump_text(TRIANGLE.scale(Fraction(1, 3))) == dump_text(
            from_linear_knots([(0, 0), (1, Fraction(1, 3)), (2, 0)]))

    @given(linear_knots(), factors, unit)
    @settings(max_examples=80, deadline=None)
    def test_eval_and_integral_carry_the_factor(self, knots, s, frac):
        p = from_linear_knots(knots)
        lo, hi = p.support
        x = lo + (hi - lo) * frac
        scaled = p.scale(s)
        assert scaled.eval(x) == s * p.eval(x)
        assert scaled.integral(lo, x) == s * p.integral(lo, x)

    @given(linear_knots(), factors)
    @settings(max_examples=80, deadline=None)
    def test_scaled_knot_round_trip(self, knots, s):
        scaled = from_linear_knots(knots).scale(s)
        assert load_text(dump_text(scaled)) == scaled
