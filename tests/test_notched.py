"""Knot family and density construction checks.

Expected values were derived by hand from the knot formulas (positions,
2-power values, linear crossings) or pinned from independent oracles
(trapezoid sums, float quadrature); identities hold exactly in rational
arithmetic and are asserted at zero tolerance.
"""

import re
from fractions import Fraction

import pytest

from tailkit import notched
from tailkit.numerics import log2_snap, log_nat, root_snap


class TestMOf:
    @pytest.mark.parametrize("n,expected", [(1, 1), (5, 5), (12, 11), (24, 22)])
    def test_examples(self, n, expected):
        assert notched.m_of(n) == expected

    def test_exact_inequality_sweep(self):
        # sqrt(5/6)*n <= m < sqrt(5/6)*(n+1) + 1 via the squared forms
        for n in range(1, 10 ** 6 + 1):
            m = notched.m_of(n)
            assert 6 * m * m >= 5 * n * n
            assert 6 * (m - 1) * (m - 1) < 5 * (n + 1) * (n + 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            notched.m_of(0)


class TestKnots:
    def test_a_positions(self):
        assert notched.knot_position("a", 3) == 512
        assert notched.a_position(0) == 0

    def test_b1_value(self):
        b1 = notched.knot_position("b", 1)
        assert abs(float(b1) - 2.9609060278) < 1e-9

    def test_c2_value(self):
        c2 = notched.knot_position("c", 2)
        assert abs(float(c2) - 273.65559168650066) < 1e-9

    def test_knot_values_are_two_powers(self):
        for n in (1, 2, 5):
            expected = Fraction(2, 1 << (3 * n * n))
            assert notched.knot_value("a", n) == expected
            assert notched.knot_value("c", n) == expected

    def test_b_value_is_a_over_lambda_exactly(self):
        for n in (1, 2, 7):
            assert (notched.knot_value("b", n) * log_nat(n)
                    == notched.knot_value("a", n))

    def test_dense_limit_error_directs_to_logf(self):
        with pytest.raises(ValueError, match="knot_logf"):
            notched.knot_position("a", 65)
        assert notched.knot_logf("a", 65).log2mag == 1 - 3 * 65 * 65

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            notched.knot_position("z", 3)


class TestKnotLogf:
    def test_a4(self):
        lv = notched.knot_logf("a", 4)
        assert lv.log2mag == -47

    def test_c10(self):
        assert notched.knot_logf("c", 10).log2mag == -299

    def test_b9(self):
        lv = notched.knot_logf("b", 9)
        assert abs(float(lv.log2mag) - (-243.2032544727)) < 1e-9

    def test_d9_half_lambda(self):
        lv = notched.knot_logf("d", 9)
        assert abs(float(lv.log2mag) - (-242.6016272363)) < 1e-9

    def test_agrees_with_dense_eval(self, nd10):
        for n in (2, 5, 9):
            for kind in ("a", "b", "c"):
                x = notched.knot_position(kind, n)
                dense_log = log2_snap(nd10.dense.eval(x), 128)
                sym = notched.knot_logf(kind, n).log2mag
                assert abs(dense_log - sym) < Fraction(1, 1 << 100)


class TestBuild:
    def test_n1_knot_layout(self):
        nd = notched.build_density(1)
        assert len(nd.dense.coeffs) == 4
        approx = [0.0, 2.0, 2.9609060278, 9.4804530139, 16.0]
        for got, want in zip(nd.dense.breakpoints, approx):
            assert abs(float(got) - want) < 1e-9

    def test_segment_count_invariant(self):
        for n in (1, 2, 5, 8):
            nd = notched.build_density(n)
            assert len(nd.dense.coeffs) == 3 * n + 1

    def test_first_block_midpoint(self):
        nd = notched.build_density(1)
        assert nd.dense.eval(1) == Fraction(5, 8)

    def test_eval_at_a2(self, nd3):
        assert nd3.dense.eval(16) == Fraction(2, 16 ** 3)

    def test_b2_value(self, nd3):
        got = nd3.dense.eval(notched.knot_position("b", 2))
        assert abs(float(got) - 4.4445274737638546e-4) < 1e-15

    def test_mass_against_trapezoid_oracle(self, nd3):
        # independent trapezoid sum straight from the knot values
        pts = nd3.dense.breakpoints
        vals = [nd3.dense.eval(x) for x in pts]
        oracle = sum((f0 + f1) * (x1 - x0) / 2
                     for x0, x1, f0, f1 in zip(pts, pts[1:], vals, vals[1:]))
        assert nd3.mass == oracle
        assert abs(float(nd3.mass) - 4.5296) < 1e-2

    def test_mass_against_float_quadrature(self, nd3):
        total = 0.0
        pts = [float(x) for x in nd3.dense.breakpoints]
        for a, b in zip(pts, pts[1:]):
            n = 64
            h = (b - a) / n
            total += sum(
                (float(nd3.dense.eval(Fraction(a + i * h)))
                 + float(nd3.dense.eval(Fraction(a + (i + 1) * h)))) * h / 2
                for i in range(n))
        assert abs(total - float(nd3.mass)) < 1e-6 * total

    def test_normalized_mass_is_one(self, nd3):
        assert nd3.density().total_mass() == 1

    def test_omitted_tail_small(self, nd3):
        assert nd3.omitted_tail_bound() < Fraction(1, 1000) * nd3.mass

    def test_notch_identity_series(self, nd10):
        for n in range(2, 11):
            b = notched.knot_position("b", n)
            c = notched.knot_position("c", n)
            assert nd10.dense.eval(c) / nd10.dense.eval(b) == log_nat(n)

    def test_positive_piecewise_linear_over_the_dense_range(self):
        # the paper's positive piecewise linear function, on every block a
        # build can hold: the notch at block n deepens to exactly L_n
        f = notched.build_density(63).dense
        assert all(seg[2] == seg[3] == 0 for seg in f.coeffs)
        smallest = min(f.eval(x) for x in f.breakpoints)
        assert smallest > 0
        assert smallest == Fraction(1, 1 << 12287)  # f0(a_64) = 2 a_64**-3
        blocks = range(2, 64)
        ratios = [f.eval(notched.knot_position("c", n))
                  / f.eval(notched.knot_position("b", n)) for n in blocks]
        assert ratios == [log_nat(n) for n in blocks]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            notched.build_density(0)


class TestBlocks:
    """Each block of a build holds the knots the accessors give."""

    @pytest.mark.parametrize("n_top, bits", [(63, 256), (40, 2048)])
    def test_build_reads_the_accessors(self, n_top, bits):
        dense = notched.build_density(n_top, bits).dense
        for n in range(1, n_top + 1):
            # breakpoints 3n-1, 3n and 3n+1 are b_n, c_n and a_{n+1}
            for i, (kind, k) in enumerate([("b", n), ("c", n), ("a", n + 1)],
                                          start=3 * n - 1):
                x = notched.knot_position(kind, k, bits)
                assert dense.breakpoints[i] == x
                assert dense.eval(x) == notched.knot_value(kind, k, bits)
            if n >= 2:
                d, s = notched.threshold_knots(n, bits)
                assert dense.eval(d.x) == dense.eval(s.x) == d.f == s.f

    @pytest.mark.parametrize("kind, n, message", [
        ("d", 0, "n must be a positive integer, got 0"),
        ("s", 65, "exceeds the dense limit 64"),
        ("z", 65, "exceeds the dense limit 64"),
    ])
    def test_a_bad_index_is_refused_before_a_bad_kind(self, kind, n, message):
        for accessor in (notched.knot_position, notched.knot_value):
            with pytest.raises(ValueError, match=re.escape(message)):
                accessor(kind, n)


class TestTruncate:
    """Every truncation is a prefix of the N=40 build, cut out exactly."""

    @pytest.fixture(scope="class")
    def nd40(self):
        return notched.build_density(40)

    def test_every_truncation_equals_its_build(self, nd40):
        for n in range(1, 41):
            cut, built = nd40.truncate(n), notched.build_density(n)
            assert cut.truncation_n == built.truncation_n == n
            assert cut.mass == built.mass == cut.dense.total_mass()
            assert cut.dense == built.dense
            assert cut == built

    @pytest.mark.parametrize("n", [0, -1, 41, 3.0])
    def test_rejects_outside_the_build(self, nd40, n):
        with pytest.raises(ValueError):
            nd40.truncate(n)


class TestThresholds:
    def test_crossings_exact(self, nd3):
        d2, s2 = notched.threshold_knots(2)
        target = notched.knot_value("b", 2) * root_snap(log_nat(2), 2, 256)
        assert d2.f == target and s2.f == target
        assert nd3.dense.eval(d2.x) == d2.f
        assert nd3.dense.eval(s2.x) == s2.f

    def test_positions(self):
        d2, s2 = notched.threshold_knots(2)
        assert abs(float(d2.x) - 151.68193) < 1e-4
        assert abs(float(s2.x) - 284.60438) < 1e-4

    def test_ordering(self):
        # block 64 reads f0(a_65), past the dense limit, directly
        for n in (2, 3, 7, 64):
            d, s = notched.threshold_knots(n)
            b = notched.knot_position("b", n)
            c = notched.knot_position("c", n)
            a_next = notched.a_position(n + 1)
            assert b < d.x <= c <= s.x <= a_next

    def test_n1_unsupported(self):
        with pytest.raises(ValueError):
            notched.threshold_knots(1)
