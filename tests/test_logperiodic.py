"""Log-periodic density checks.

Point values are verified against evaluation at twice the working
precision; normalizers are cross-checked with mpmath's own quadrature
(tanh-sinh, panelled at the anchors) as an independent second algorithm.
The pinned normalizer constant below was computed once at the module's
QUAD_TOL (1e-8) and frozen.
"""

import re
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import fnone, fzero

from tailkit import logperiodic as lp
from tailkit.errors import PrecisionFailure
from tailkit.numerics import _snap_raw
from tailkit.piecewise import _fmt

# frozen from the adaptive-Simpson engine at tol 1e-8, alpha=1, delta=1/4;
# the mpmath.quad cross-check below re-derives it independently
PINNED_A = Fraction("0.1699929587")
PINNED_B = Fraction("2.0437349750")
# the default normalizers bit for bit, as computed with mpmath 1.3.0
PINNED_NORMALIZERS = dict(
    a=Fraction(13468229759855505416607311051, 79228162514264337593543950336),
    a_err=Fraction(6302902084097032685, 9903520314283042199192993792),
    b=Fraction(80960683367516753399878682219, 39614081257132168796771975168),
    b_err=Fraction(50657902001137504909, 2475880078570760549798248448),
    x_max=Fraction(1048576))
# exact values of the default parameters, as computed with mpmath 1.3.0
PINNED_KARAMATA = {
    100: Fraction(69180892456200168776121247201, 79228162514264337593543950336),
    10 ** 4: Fraction(9905961180240299948145119921, 9903520314283042199192993792),
    10 ** 28: Fraction(79228162545570758297432020283, 79228162514264337593543950336),
}
PINNED_CHI_ANCHOR2_512 = Fraction(
    "14904364977611639956956226305246538322761266410870409843944189112605113128556120"
    "83718183849241432115173952285391241637127803113663650449607338325828534889963/13"
    "40780792994259709957402499820584612747936582059239337772356144372176403007354697"
    "6801874298166903427690031858186486050853753882811946569946433649006084096")


def _mpf(raw) -> mpmath.mpf:
    return mpmath.mp.make_mpf(raw)


def _counting_chi(calls: Counter):
    """A stand-in for lp._chi_raw that counts calls per abscissa."""
    chi_raw = lp._chi_raw

    def factory(delta, wp=lp._WP):
        chi_of = chi_raw(delta, wp)

        def counting(x):
            calls[x] += 1
            return chi_of(x)
        return counting
    return factory


def _quad_oracle_inv_a(p, x_max: float) -> mpmath.mpf:
    with mpmath.workprec(160):
        delta = mpmath.mpf(p.delta.numerator) / p.delta.denominator

        def f(y):
            if y <= 0:
                return mpmath.mpf(1)
            e = mpmath.mpf(1) / 2 + delta * mpmath.cos(mpmath.log(y + 1))
            return mpmath.exp(-mpmath.exp(e * mpmath.log(y)))

        pts = [mpmath.mpf(0)]
        k = 1
        while True:
            a = mpmath.exp(k * mpmath.pi) - 1
            if a >= x_max:
                break
            pts.append(a)
            k += 1
        pts.append(mpmath.mpf(x_max))
        return mpmath.quad(f, pts)


class TestChi:
    def test_zero(self, lp_default):
        assert lp.chi(0, lp_default) == 0

    def test_one_is_one(self, lp_default):
        assert abs(lp.chi(1, lp_default) - 1) < Fraction(1, 1 << 90)

    def test_e_minus_one(self, lp_default):
        # (e-1) ** (1/2 + cos(1)/4): exponent ~ 0.6350755, value ~ 1.4102714
        x = Fraction(171828182845904523536, 10 ** 20)
        got = lp.chi(x, lp_default)
        assert abs(float(got) - 1.4102714366) < 1e-9

    def test_anchor_exponent_flips(self, lp_default):
        # cos(ln(x+1)) = -1 at the first anchor: exponent exactly 1/4
        x = lp.anchor(1)
        got = lp.chi(x, lp_default)
        with mpmath.workprec(200):
            want = (mpmath.exp(mpmath.pi) - 1) ** mpmath.mpf(0.25)
            assert abs(got - _snap_raw(want._mpf_, 96)) < Fraction(1, 1 << 80)

    def test_double_precision_agreement(self, lp_default):
        x = Fraction(12345, 7)
        lo = lp.chi(x, lp_default, 96)
        hi = lp.chi(x, lp_default, 192)
        assert abs(lo - hi) < Fraction(1, 1 << 94)

    def test_envelope(self, lp_default):
        # x**(1/2-delta) <= chi <= x**(1/2+delta) for x >= 1
        for k in range(20):
            x = Fraction(3, 2) ** k
            c = lp.chi(x, lp_default)
            lo = x ** Fraction(1, 4)
            hi = x ** Fraction(3, 4)
            tol = Fraction(1, 1 << 60)
            assert lo ** 4 <= (c + tol) ** 4 and (c - tol) ** 4 <= hi ** 4

    def test_rejects_negative(self, lp_default):
        with pytest.raises(ValueError):
            lp.chi(-1, lp_default)

    @pytest.mark.pin
    def test_anchor_two_at_512_bits_is_pinned(self, lp_default):
        # the precision self-consistency check's high-precision side
        assert lp.chi(lp.anchor(2), lp_default, 512) == PINNED_CHI_ANCHOR2_512


class TestAnchorGrid:
    """exp(k*pi/per) - 1 on libmp against the mpf formula as the reference:
    the scan grid of probes.logperiodic_scan (per = 8) and the anchors."""

    def test_grid_matches_the_mpf_formula(self):
        with mpmath.workprec(lp._WP):
            for j in range(97):
                want = mpmath.exp(mpmath.pi * j / 8) - 1
                assert lp._anchor_raw(j, 8) == want._mpf_
                assert _snap_raw(lp._anchor_raw(j, 8), 64) == _snap_raw(want._mpf_, 64)

    def test_every_eighth_point_is_an_anchor(self):
        for k in range(1, 13):
            assert lp._anchor_raw(8 * k, 8) == lp._anchor_raw(k)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            lp.LogPeriodicParams(delta=Fraction(3, 4))

    def test_delta_is_the_only_field(self):
        assert lp.LogPeriodicParams._fields == ("delta",)


def _clear_caches():
    """Forget every cached constant and chi table of the module."""
    for f in (lp.normalizers, lp.tail_normalizers, lp._chi_table):
        f.cache_clear()


def _fresh(p: lp.LogPeriodicParams):
    """All five constants of p computed afresh, and chi's calls per
    abscissa; the counting chi table is forgotten after."""
    calls = Counter()
    _clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "_chi_raw", _counting_chi(calls))
            norm = lp.normalizers(p)
            b, b_err = lp.tail_normalizers(p)
            return dict(norm._asdict(), b=b, b_err=b_err), calls
    finally:
        _clear_caches()


class TestNormalizers:
    @pytest.fixture(scope="class")
    def fresh(self, lp_default):
        return _fresh(lp_default)

    def test_pinned_constants(self, lp_default):
        b, _ = lp.tail_normalizers(lp_default)
        assert abs(lp.normalizers(lp_default).a - PINNED_A) < Fraction(1, 10 ** 9)
        assert abs(b - PINNED_B) < Fraction(1, 10 ** 9)

    @pytest.mark.pin
    def test_fresh_values_are_pinned_bit_for_bit(self, fresh):
        assert {k: fresh[0][k] for k in PINNED_NORMALIZERS} == PINNED_NORMALIZERS

    def test_normalizers_fields(self, lp_default):
        assert lp.Normalizers._fields == ("a", "a_err", "x_max", "log_a")

    def test_tail_integral_runs_only_in_tail_normalizers(self, lp_default, monkeypatch):
        # normalizers runs the coarse and a integrals, tail_normalizers b's
        integrals = []
        integrate = lp._integrate
        _clear_caches()
        monkeypatch.setattr(lp, "_integrate",
                            lambda *args: integrals.append(args) or integrate(*args))
        lp.normalizers(lp_default)
        assert len(integrals) == 2
        assert lp.tail_normalizers(lp_default) == (PINNED_NORMALIZERS["b"],
                                                   PINNED_NORMALIZERS["b_err"])
        lp.normalizers(lp_default)
        lp.tail_normalizers(lp_default)
        assert len(integrals) == 3

    def test_log_a_once_per_parameter_set(self, lp_default, monkeypatch):
        # normalizers takes log(a) with a, and density_log and
        # middle_mass_ratio read it there: one 192-bit log for all their
        # calls, bit for bit the one each call used to take
        logs_of_a = []
        mpf_log = lp.mpf_log
        a = lp._raw(PINNED_NORMALIZERS["a"])

        def counting(x, *args):
            if x == a:
                logs_of_a.append(args)
            return mpf_log(x, *args)

        _clear_caches()
        monkeypatch.setattr(lp, "mpf_log", counting)
        assert lp._raw(lp.normalizers(lp_default).a) == a
        for x in (1, 10, 100, 10 ** 4):
            lp.density_log(x, lp_default)
        lp.middle_mass_ratio(lp.anchor(3), lp_default, Fraction(3, 10))
        assert logs_of_a == [(lp._WP, lp._RND)]
        assert lp.normalizers(lp_default).log_a == mpf_log(a, lp._WP, lp._RND)

    @pytest.mark.parametrize("delta", [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)],
                             ids=str)
    def test_one_chi_per_abscissa(self, fresh, lp_default, delta):
        # every abscissa up to the b integral's cutoff (alpha = 1) is
        # computed once; above it the table does not reach, and at the
        # default delta 28 calls repeat an abscissa that the coarse and a
        # integrals share or an anchor that ends one panel and starts the next
        default = delta == lp_default.delta
        _, calls = fresh if default else _fresh(lp.LogPeriodicParams(delta))
        with mpmath.workprec(lp._WP):
            z0 = mpmath.log(10 / _mpf(lp._raw(lp.QUAD_TOL))) + 4
            assert max(n for y, n in calls.items() if _mpf(y) <= z0) == 1
        if default:
            assert sum(calls.values()) <= 1357

    def test_errors_reported(self, lp_default):
        _, b_err = lp.tail_normalizers(lp_default)
        assert 0 < lp.normalizers(lp_default).a_err < Fraction(1, 10 ** 8)
        assert 0 < b_err < Fraction(1, 10 ** 6)

    def test_against_mpmath_quad(self, lp_default):
        n = lp.normalizers(lp_default)
        oracle = _quad_oracle_inv_a(lp_default, float(n.x_max))
        inv_a = 1 / Fraction(n.a)
        assert abs(float(inv_a) - float(oracle)) < 1e-7 * float(oracle)

    def test_density_integrates_to_one(self, lp_default):
        n = lp.normalizers(lp_default)
        oracle = _quad_oracle_inv_a(lp_default, float(n.x_max))
        total = float(n.a) * float(oracle)
        assert abs(total - 1) < 1e-7

    def test_cached(self, lp_default):
        assert lp.normalizers(lp_default) is lp.normalizers(lp_default)
        assert lp.tail_normalizers(lp_default) is lp.tail_normalizers(lp_default)
        assert lp._chi_table(lp_default) is lp._chi_table(lp_default)

    def test_unreachable_cutoff_raises(self):
        # at delta = 9/20 the tail is bounded through exp(-y**(1/20)), a bound
        # that is finite only for cutoffs past 40**20, beyond the 2**64 limit
        p = lp.LogPeriodicParams(delta=Fraction(9, 20))
        with pytest.raises(PrecisionFailure, match="no cutoff reaches the tail target"):
            lp.normalizers(p)


class TestTails:
    """The integrated tail behind karamata_ratio."""

    def test_integrated_tail_at_zero_is_one(self, lp_default):
        b, _ = lp.tail_normalizers(lp_default)
        chi_of = lp._chi_raw(lp._raw(lp_default.delta))
        with mpmath.workprec(lp._WP):
            val, _, _ = lp._tail_integral(lp._raw(Fraction(0)), chi_of)
            assert abs(_mpf(lp._raw(b)) * _mpf(val) - 1) < mpmath.mpf(10) ** -6

    def test_integrated_tail_nonincreasing(self, lp_default):
        vals = []
        chi_of = lp._chi_raw(lp._raw(lp_default.delta))
        with mpmath.workprec(lp._WP):
            for k in range(0, 5):
                x = lp._raw(Fraction(10 ** k))
                val, _, chi_x = lp._tail_integral(x, chi_of)
                assert chi_x == chi_of(x)
                vals.append(_mpf(val))
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestKaramata:
    def test_improves_with_x(self, lp_default):
        r2 = lp.karamata_ratio(100, lp_default)
        r4 = lp.karamata_ratio(10 ** 4, lp_default)
        assert abs(r4 - 1) < abs(r2 - 1)
        assert abs(r4 - 1) < Fraction(1, 10)

    def test_pinned_values(self, lp_default):
        assert abs(float(lp.karamata_ratio(100, lp_default)) - 0.873186) < 1e-4
        assert abs(float(lp.karamata_ratio(10 ** 4, lp_default)) - 1.000246) < 1e-4

    @pytest.mark.pin
    @pytest.mark.parametrize("x", sorted(PINNED_KARAMATA))
    def test_exact_values_are_pinned(self, lp_default, x):
        assert lp.karamata_ratio(x, lp_default) == PINNED_KARAMATA[x]

    def test_depth_cap_raises(self, lp_default):
        # at x = 1e30 the panel [x, x + z] has z ~ chi(x) ~ 3e22; its leftmost
        # piece stops at the depth cap 6.9e6 wide, far above its budget, which
        # used to come back as a ratio of 539544
        with pytest.raises(PrecisionFailure, match="at depth 52"):
            lp.karamata_ratio(10 ** 30, lp_default)


class TestMiddleIntegral:
    def test_domain_check(self, lp_default):
        with pytest.raises(ValueError):
            lp.middle_mass_ratio(Fraction(2), lp_default, Fraction(9, 10))

    def test_h_exp_validation(self, lp_default):
        with pytest.raises(ValueError):
            lp.middle_mass_ratio(Fraction(100), lp_default, Fraction(2))

    def test_one_chi_per_abscissa(self, lp_default):
        # the integrand is symmetric about x/2 and its points are mirrored:
        # without a table chi ran 1,101 times at these 568 abscissas
        calls = Counter()
        lp.normalizers(lp_default)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "_chi_raw", _counting_chi(calls))
            ratio = lp.middle_mass_ratio(lp.anchor(4), lp_default, Fraction(3, 10))
        assert ratio.log2mag > 1000
        assert max(calls.values()) == 1
        assert len(calls) == 568

    def test_even_anchor_blows_up(self, lp_default):
        # at an even anchor chi(x) ~ x**(3/4) dwarfs the interior exponents
        ratio = lp.middle_mass_ratio(lp.anchor(4), lp_default, Fraction(3, 10))
        assert ratio.log2mag > 1000

    @pytest.mark.parametrize("integral", [fzero, fnone], ids=["zero", "negative"])
    def test_integral_that_is_not_positive_raises(self, lp_default, integral,
                                                   monkeypatch):
        # the integrand is positive, so such an integral is a failed
        # quadrature: it used to come back as a LogValue of sign 0, printed 0
        lp.normalizers(lp_default)
        monkeypatch.setattr(lp, "_integrate", lambda f, pts, tol: (integral, fzero))
        x = lp.anchor(4)
        with pytest.raises(PrecisionFailure,
                           match=f"middle integral at x={re.escape(_fmt(x))} is "
                                 "not positive"):
            lp.middle_mass_ratio(x, lp_default, Fraction(3, 10))
