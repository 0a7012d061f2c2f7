"""Snapped-constant and log-space scalar tests.

The logarithm oracle here is an integer-arithmetic atanh series, fully
independent of the mpmath-backed implementation: ln(q) is reduced by
powers of two into [1, 2) and the remainder summed as
2*atanh((r-1)/(r+1)) term by term in exact rationals.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath
from mpmath.libmp import finf, fnan, fninf, to_rational

from tailkit.errors import PrecisionFailure
from tailkit.numerics import (_GUARD, LogValue, _ln_raw, _snap_raw, exp2_snap, ln_snap,
                              log2_snap, log_nat, root_snap)


def _atanh_series(z: Fraction, bits: int) -> Fraction:
    total = Fraction(0)
    power = z
    z2 = z * z
    k = 0
    floor = Fraction(1, 1 << (bits + 8))
    while power > floor:
        total += power / (2 * k + 1)
        power *= z2
        k += 1
    return total


def ln_oracle(q: Fraction, bits: int) -> Fraction:
    """ln(q) for q > 0 via argument reduction plus the atanh series."""
    q = Fraction(q)
    assert q > 0
    shift = 0
    while q >= 2:
        q /= 2
        shift += 1
    while q < 1:
        q *= 2
        shift -= 1
    ln2 = 2 * _atanh_series(Fraction(1, 3), bits + 8)
    z = (q - 1) / (q + 1)
    return shift * ln2 + 2 * _atanh_series(z, bits + 8)


class TestLogNat:
    def test_ln2_against_series_oracle(self):
        lam = log_nat(1, 64)
        assert abs(lam - ln_oracle(Fraction(2), 96)) < Fraction(1, 1 << 63)
        assert abs(float(lam) - 0.6931471805599453) < 1e-15

    def test_ln3_against_series_oracle(self):
        lam = log_nat(2, 64)
        assert abs(lam - ln_oracle(Fraction(3), 96)) < Fraction(1, 1 << 63)
        assert abs(float(lam) - 1.0986122886681098) < 1e-15

    def test_precisions_agree(self):
        assert abs(log_nat(1, 32) - log_nat(1, 64)) <= Fraction(1, 1 << 32)

    def test_deterministic_and_cached(self):
        assert log_nat(7, 128) is log_nat(7, 128)
        assert log_nat(7, 128) == log_nat(7, 128)

    def test_monotone(self):
        values = [log_nat(n) for n in range(1, 200)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_rejects_bad_n(self, bad):
        with pytest.raises(ValueError):
            log_nat(bad)

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            log_nat(1, 16)

    def test_huge_argument(self):
        # ln(floor(e^16) + 1) should sit within 1e-7 of 16
        lam = log_nat(8886110)
        assert abs(lam - 16) < Fraction(1, 10 ** 6)

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=60, deadline=None)
    def test_error_bound_against_oracle(self, n):
        lam = log_nat(n, 64)
        assert abs(lam - ln_oracle(Fraction(n + 1), 96)) <= Fraction(1, 1 << 63)

    @pytest.mark.parametrize("bits", [256, 1024])
    def test_rounded_to_nearest_at_pinned_precisions(self, bits):
        # the snap from 512 guard bits in place of 64, and within half a unit
        # of that reference, which a truncating snap misses
        half_unit = Fraction(1, 1 << (bits + 1))
        for n in range(1, 65):
            raw = _ln_raw(Fraction(n + 1), bits + 512)
            assert log_nat(n, bits) == _snap_raw(raw, bits)
            assert abs(log_nat(n, bits) - Fraction(*to_rational(raw))) <= half_unit


class TestSnaps:
    def test_log2_exact_powers(self):
        assert log2_snap(Fraction(8)) == 3
        assert log2_snap(Fraction(1, 1024)) == -10

    def test_log2_matches_ln(self):
        q = Fraction(7, 3)
        expected = ln_oracle(q, 96) / ln_oracle(Fraction(2), 96)
        assert abs(log2_snap(q, 64) - expected) < Fraction(1, 1 << 62)

    def test_exp2_integer_exact(self):
        assert exp2_snap(Fraction(10)) == 1024
        assert exp2_snap(Fraction(-3)) == Fraction(1, 8)

    def test_exp2_log2_round_trip(self):
        q = Fraction(355, 113)
        back = exp2_snap(log2_snap(q, 128), 128)
        assert abs(back - q) < Fraction(1, 1 << 120)

    def test_root_exact_powers(self):
        assert root_snap(Fraction(4), 2) == 2
        assert root_snap(Fraction(27, 8), 3) == Fraction(3, 2)
        assert root_snap(Fraction(1), 6) == 1

    @given(st.fractions(min_value="1/1000", max_value=1000).filter(lambda q: q > 0),
           st.sampled_from([2, 3, 6]))
    @settings(max_examples=80, deadline=None)
    def test_root_snap_error(self, q, k):
        r = root_snap(q, k, 96)
        # |r^k - q| <= k * max(r, q)^(k-1) * 2^-96 within a safety factor
        scale = max(r, q, Fraction(1)) ** (k - 1)
        assert abs(r ** k - q) <= 4 * k * scale * Fraction(1, 1 << 96)

    def test_root_rejects_negative(self):
        with pytest.raises(ValueError):
            root_snap(Fraction(-1), 2)

    def test_ln_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ln_snap(Fraction(0))

    @pytest.mark.parametrize("value", [finf, fninf, fnan], ids=["inf", "-inf", "nan"])
    def test_snap_refuses_non_finite(self, value):
        # a silent 0 here would print as a valid constant
        with pytest.raises(PrecisionFailure):
            _snap_raw(value, 96)


def _positive_rationals(max_digits: int = 60):
    """Positive rationals whose terms run from one digit to max_digits."""
    terms = st.integers(1, max_digits).flatmap(
        lambda d: st.integers(1, 10 ** d))
    return st.builds(Fraction, terms, terms)


class TestLibmpTranslation:
    """The snaps run on libmp's raw tuples; they keep the bits of the mpmath
    expressions they replaced, evaluated here with mpf at the same working
    precision."""

    @given(_positive_rationals().filter(lambda q: q != 1), st.integers(32, 4096))
    @settings(max_examples=60, deadline=None)
    def test_ln_and_log2_keep_the_mpf_bits(self, q, bits):
        with mpmath.workprec(bits + _GUARD):
            ln = mpmath.log(mpmath.mpf(q.numerator)) - mpmath.log(mpmath.mpf(q.denominator))
            assert ln_snap(q, bits) == _snap_raw(ln._mpf_, bits)
            if q.numerator & (q.numerator - 1) or q.denominator & (q.denominator - 1):
                assert log2_snap(q, bits) == _snap_raw((ln / mpmath.ln2)._mpf_, bits)

    @given(st.fractions(-64, 64, max_denominator=10 ** 40), st.integers(32, 4096))
    @settings(max_examples=60, deadline=None)
    def test_exp2_keeps_the_mpf_bits(self, q, bits):
        i = q.numerator // q.denominator
        frac = q - i
        if frac == 0:
            want = Fraction(1)
        else:
            with mpmath.workprec(bits + _GUARD):
                f = mpmath.mpf(frac.numerator) / mpmath.mpf(frac.denominator)
                want = _snap_raw(mpmath.power(2, f)._mpf_, bits)
        assert exp2_snap(q, bits) == want * Fraction(2) ** i


class TestLogValue:
    def test_magnitude_only(self):
        # a LogValue is positive: it has no sign, and no zero
        assert LogValue._fields == ("log2mag",)
        assert LogValue(Fraction(-47)).log2mag == -47
        with pytest.raises(TypeError):
            LogValue(1, Fraction(0))
