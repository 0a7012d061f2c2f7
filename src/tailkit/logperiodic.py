"""Density with a log-periodically modulated power exponent.

The tail ``exp(-x - chi(x))``, with

    chi(x) = x ** (1/2 + delta * cos(ln(x+1))),   0 < delta < 1/2,

yields the density ``a * exp(-chi(x))`` after removing the exponential
factor.  The exponent oscillates between ``1/2 - delta`` and
``1/2 + delta`` once per e**pi factor in x, so the density swings over
astronomically many orders of magnitude: values are returned as
:class:`LogValue` and every quadrature is panelled at the anchor points
``exp(k*pi) - 1`` where the modulation peaks (naive uniform panels alias
the rebounds there and can silently miss percent-level mass).

All numerics run on libmp's raw mpf tuples at fixed precision: each step
calls the libmp function that mpmath's ``mpf`` operator would call (``4*fm``
is ``mpf_mul_int``, ``/6`` is ``mpf_div`` by ``from_int(6)``), at the same
precision with round-to-nearest, so every value keeps the bits of the
``mpf`` expression, without its per-operation dispatch and allocation.
libmp loads with this module (through ``numerics.libmp``, without the rest
of mpmath), which ``tailkit.cli`` runs only for the commands that use it.
Integrals carry the relative error budget ``QUAD_TOL`` and a certified
analytic tail bound, and raise :class:`PrecisionFailure` rather than
return a value that missed it, also when one piece stops at the depth cap
or the evaluation cap.
:func:`normalizers` (``a``, its error bound and log) and
:func:`tail_normalizers` (``b`` and its bound) are values computed once per
delta, on one chi table per delta that :func:`density_log` and
:func:`karamata_ratio` read too; only a caller that asks for ``b`` runs the
tail integral.  :func:`middle_mass_ratio` keeps its own table for one call:
its mirrored abscissas lie far above that table's reach.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, cmp_to_key
from typing import Callable, Optional

from tailkit.errors import PrecisionFailure
from tailkit.numerics import _RND, LogValue, _snap_raw, libmp
from tailkit.piecewise import _brief, _fmt

_lm = libmp()
fhalf, finf, fone, ftwo, fzero = _lm.fhalf, _lm.finf, _lm.fone, _lm.ftwo, _lm.fzero
from_int, from_str, to_str = _lm.from_int, _lm.from_str, _lm.to_str
mpf_abs, mpf_add, mpf_cmp, mpf_cos = _lm.mpf_abs, _lm.mpf_add, _lm.mpf_cmp, _lm.mpf_cos
mpf_div, mpf_exp, mpf_gt, mpf_le = _lm.mpf_div, _lm.mpf_exp, _lm.mpf_gt, _lm.mpf_le
mpf_ln2, mpf_log, mpf_lt, mpf_mul = _lm.mpf_ln2, _lm.mpf_log, _lm.mpf_lt, _lm.mpf_mul
mpf_mul_int, mpf_neg, mpf_pi, mpf_pos = _lm.mpf_mul_int, _lm.mpf_neg, _lm.mpf_pi, _lm.mpf_pos
mpf_pow, mpf_pow_int, mpf_rdiv_int = _lm.mpf_pow, _lm.mpf_pow_int, _lm.mpf_rdiv_int
mpf_sub = _lm.mpf_sub

_WP = 192          # working precision (bits) for all evaluation
_SNAP_BITS = 96    # precision of rationals snapped out of the floats
_MAX_DEPTH = 52
# integrand evaluations one integral may spend; the battery and the pinned
# reports need at most 1,886, and a piece that cannot converge (chi at small
# delta) would otherwise refine for minutes
_MAX_EVALS = 1 << 15
QUAD_TOL = Fraction(1, 10 ** 8)  # relative error budget of every integral

Raw = tuple        # libmp's raw mpf: (sign, mantissa, exponent, bitcount)


class LogPeriodicParams(namedtuple("LogPeriodicParams", "delta")):
    __slots__ = ()

    def __new__(cls, delta: Fraction = Fraction(1, 4)):
        delta = Fraction(delta)
        if not Fraction(0) < delta < Fraction(1, 2):
            raise ValueError(f"delta must lie in (0, 1/2), got {_brief(delta)}")
        return super().__new__(cls, delta)


def _raw(q: Fraction, wp: int = _WP) -> Raw:
    """``mpf(q.numerator) / q.denominator`` at wp bits."""
    num = mpf_pos(from_int(q.numerator), wp, _RND)
    return mpf_div(num, from_int(q.denominator), wp, _RND)


# QUAD_TOL; half of it, the budget of the a and every tail integral; log(10/QUAD_TOL)
_TOL = _raw(QUAD_TOL)
_HALF_TOL = mpf_div(_TOL, ftwo, _WP, _RND)
_LOG_TERM = mpf_log(mpf_rdiv_int(10, _TOL, _WP, _RND), _WP, _RND)


def _chi_raw(delta: Raw, wp: int = _WP) -> Callable[[Raw], Raw]:
    """chi(x) = x ** (1/2 + delta*cos(ln(x+1))) on raw x, at wp bits."""

    def chi_of(x: Raw) -> Raw:
        if x == fzero:
            return fzero
        cos = mpf_cos(mpf_log(mpf_add(x, fone, wp, _RND), wp, _RND), wp, _RND)
        exponent = mpf_add(fhalf, mpf_mul(delta, cos, wp, _RND), wp, _RND)
        return mpf_exp(mpf_mul(exponent, mpf_log(x, wp, _RND), wp, _RND), wp, _RND)
    return chi_of


def chi(x, p: LogPeriodicParams, precision_bits: int = _SNAP_BITS) -> Fraction:
    """x ** (1/2 + delta*cos(ln(x+1))) snapped to 2**-precision_bits."""
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"chi is defined on x >= 0, got {_brief(x)}")
    if x == 0:
        return Fraction(0)
    wp = max(_WP, precision_bits + 64)
    return _snap_raw(_chi_raw(_raw(p.delta, wp), wp)(_raw(x, wp)), precision_bits)


def _anchor_raw(k: int, per: int = 1) -> Raw:
    """exp(k*pi/per) - 1 at _WP bits: the bits of mpmath's
    ``exp(pi*k/per) - 1`` (the division by 1 is exact)."""
    k_pi = mpf_div(mpf_mul_int(mpf_pi(_WP, _RND), k, _WP, _RND), from_int(per), _WP, _RND)
    return mpf_sub(mpf_exp(k_pi, _WP, _RND), fone, _WP, _RND)


def anchor(k: int) -> Fraction:
    """exp(k*pi) - 1, snapped to 2**-_SNAP_BITS: the abscissa where
    cos(ln(x+1)) = (-1)**k exactly."""
    if k < 0:
        raise ValueError("anchor index must be nonnegative")
    if k == 0:
        return Fraction(0)
    return _snap_raw(_anchor_raw(k), _SNAP_BITS)


def _memo(chi_of: Callable[[Raw], Raw], upto: Optional[Raw] = None) -> Callable[[Raw], Raw]:
    """chi_of computing each abscissa (up to ``upto``, if given) only once."""
    table: dict = {}

    def chi_at(y: Raw) -> Raw:
        if upto is not None and mpf_gt(y, upto):
            return chi_of(y)
        if y not in table:
            table[y] = chi_of(y)
        return table[y]
    return chi_at


# --------------------------- quadrature core ---------------------------

def _integrate(f: Callable[[Raw], Raw], points, rel_tol: Raw):
    """Adaptive Simpson over fixed panels; returns (value, error_estimate).

    The relative tolerance is taken against the coarse total magnitude and
    split across panels in proportion to their coarse share, so panels that
    carry no mass are not refined.  A piece that reaches the depth cap, or
    the evaluation cap, above its share of the budget raises
    :class:`PrecisionFailure`.
    """
    wp, rnd = _WP, _RND
    six, fifteen = from_int(6), from_int(15)
    evals = 0

    def stalled(where, err, budget):
        return PrecisionFailure(f"quadrature stalled{where}: error estimate {to_str(err, 6)} "
                                f"exceeds budget {to_str(budget, 6)}")

    def simpson(fa, fm, fb, a, b):
        weighted = mpf_add(mpf_add(fa, mpf_mul_int(fm, 4, wp, rnd), wp, rnd), fb, wp, rnd)
        return mpf_div(mpf_mul(mpf_sub(b, a, wp, rnd), weighted, wp, rnd), six, wp, rnd)

    def adapt(a, fa, m, fm, b, fb, whole, budget, depth):
        nonlocal evals
        evals += 2
        lm = mpf_div(mpf_add(a, m, wp, rnd), ftwo, wp, rnd)
        rm = mpf_div(mpf_add(m, b, wp, rnd), ftwo, wp, rnd)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, a, m)
        right = simpson(fm, frm, fb, m, b)
        both = mpf_add(left, right, wp, rnd)
        gap = mpf_sub(both, whole, wp, rnd)
        err = mpf_div(mpf_abs(gap, wp, rnd), fifteen, wp, rnd)
        if mpf_le(err, budget):
            return mpf_add(both, mpf_div(gap, fifteen, wp, rnd), wp, rnd), err
        if depth >= _MAX_DEPTH:
            raise stalled(f" at depth {depth}, x = {to_str(a, 6)}, width "
                          f"{to_str(mpf_sub(b, a, wp, rnd), 6)}", err, budget)
        if evals >= _MAX_EVALS:
            raise stalled(f" after {evals} evaluations, x = {to_str(a, 6)}",
                          err, budget)
        half = mpf_div(budget, ftwo, wp, rnd)
        lv, le = adapt(a, fa, lm, flm, m, fm, left, half, depth + 1)
        rv, re = adapt(m, fm, rm, frm, b, fb, right, half, depth + 1)
        return mpf_add(lv, rv, wp, rnd), mpf_add(le, re, wp, rnd)

    panels = []
    for a, b in zip(points, points[1:]):
        if mpf_le(b, a):
            continue
        m = mpf_div(mpf_add(a, b, wp, rnd), ftwo, wp, rnd)
        fa, fm, fb = f(a), f(m), f(b)
        evals += 3
        panels.append((a, fa, m, fm, b, fb, simpson(fa, fm, fb, a, b)))
    if not panels:
        return fzero, fzero
    scale = wsum = fzero  # sums start from zero, as sum() does
    for p in panels:
        scale = mpf_add(scale, mpf_abs(p[6], wp, rnd), wp, rnd)
    if scale == fzero:
        scale = mpf_pow_int(ftwo, -_WP // 2, wp, rnd)
    abs_budget = mpf_mul(rel_tol, scale, wp, rnd)
    share = mpf_div(scale, from_int(8 * len(panels)), wp, rnd)
    weights = [mpf_add(mpf_abs(p[6], wp, rnd), share, wp, rnd) for p in panels]
    for w in weights:
        wsum = mpf_add(wsum, w, wp, rnd)
    total = err = fzero
    for (a, fa, m, fm, b, fb, whole), w in zip(panels, weights):
        budget = mpf_div(mpf_mul(abs_budget, w, wp, rnd), wsum, wp, rnd)
        v, e = adapt(a, fa, m, fm, b, fb, whole, budget, 0)
        total = mpf_add(total, v, wp, rnd)
        err = mpf_add(err, e, wp, rnd)
    if mpf_gt(err, mpf_mul_int(abs_budget, 4, wp, rnd)):
        raise stalled("", err, abs_budget)
    return total, err


def _anchor_points(lo: Raw, hi: Raw) -> list:
    pts, k = [lo], 1
    while mpf_lt(x := _anchor_raw(k), hi):
        if mpf_gt(x, lo):
            pts.append(x)
        k += 1
    return pts + [hi]


def _chi_tail_bound(T: Raw, delta: Raw) -> Raw:
    """Certified bound on integral_T^inf exp(-y**(1/2-delta)) dy."""
    wp, rnd = _WP, _RND
    c = mpf_sub(fhalf, delta, wp, rnd)
    u0 = mpf_pow(T, c, wp, rnd)
    inv_c = mpf_rdiv_int(1, c, wp, rnd)
    k = mpf_sub(inv_c, fone, wp, rnd)
    if mpf_le(u0, mpf_add(mpf_mul_int(k, 2, wp, rnd), ftwo, wp, rnd)):
        return finf
    head = mpf_mul(mpf_mul(inv_c, mpf_pow(u0, k, wp, rnd), wp, rnd),
                   mpf_exp(mpf_neg(u0, wp, rnd), wp, rnd), wp, rnd)
    return mpf_div(head, mpf_sub(fone, mpf_div(k, u0, wp, rnd), wp, rnd), wp, rnd)


def _tail(y: Raw, chi_y: Raw) -> Raw:
    """The tail exp(-y - chi(y)), given chi(y): the integrand of
    :func:`_tail_integral`, and so of ``b``."""
    return mpf_exp(mpf_sub(mpf_neg(y), chi_y, _WP, _RND), _WP, _RND)


def _reach(chi_x: Raw) -> Raw:
    """How far past x the tail integral from x runs, given chi(x):
    chi(x) + log(10/QUAD_TOL) + 4.  At x = 0 it bounds :func:`_chi_table`
    (0 + L rounds to L)."""
    return mpf_add(mpf_add(chi_x, _LOG_TERM, _WP, _RND), from_int(4), _WP, _RND)


@cache
def _chi_table(p: LogPeriodicParams) -> Callable[[Raw], Raw]:
    """chi of p, each abscissa up to ``_reach(0)`` computed once: as far as
    the b integral, which starts at 0 where chi vanishes, can reach.  The
    coarse, ``a`` and ``b`` integrands, :func:`density_log` and
    :func:`karamata_ratio` read it."""
    return _memo(_chi_raw(_raw(p.delta)), upto=_reach(fzero))


def _inverse_and_error(inv: Raw, err: Raw) -> tuple[Fraction, Fraction]:
    """1/inv and its error bound err/inv**2 plus one snap ulp, snapped."""
    wp, rnd = _WP, _RND
    rel = mpf_div(err, mpf_mul(inv, inv, wp, rnd), wp, rnd)
    ulp = mpf_pow_int(ftwo, -_SNAP_BITS, wp, rnd)
    return (_snap_raw(mpf_rdiv_int(1, inv, wp, rnd), _SNAP_BITS),
            _snap_raw(mpf_add(rel, ulp, wp, rnd), _SNAP_BITS))


class Normalizers(namedtuple("Normalizers", "a a_err x_max log_a")):
    """``a`` = 1 / integral of exp(-chi), its error bound ``a_err`` (quadrature
    estimate plus rigorous tail bound), the integral's cutoff ``x_max``, and
    ``log_a``, log(a) at the working precision as a raw mpf."""
    __slots__ = ()


@cache
def normalizers(p: LogPeriodicParams) -> Normalizers:
    """The density's normalizing constant, with its error bound and log.

    The cutoff for the chi-only integral doubles from 4096 until its
    certified analytic tail bound drops below QUAD_TOL/10 of a coarse value
    of the integral; past 2**64 it raises :class:`PrecisionFailure`.  The
    coarse and ``a`` integrals share a panel and :func:`_chi_table`.
    """
    wp, rnd = _WP, _RND
    delta = _raw(p.delta)
    chi_at = _chi_table(p)

    def chi_integrand(y):
        return mpf_exp(mpf_neg(chi_at(y), wp, rnd), wp, rnd)

    coarse, _ = _integrate(chi_integrand, _anchor_points(fzero, from_int(4096)),
                           mpf_pos(from_str("1e-3", wp, rnd), wp, rnd))
    x_max = from_int(4096)
    tail_target = mpf_div(mpf_mul(_TOL, coarse, wp, rnd), from_int(10), wp, rnd)
    while not mpf_lt(tail := _chi_tail_bound(x_max, delta), tail_target):
        x_max = mpf_mul_int(x_max, 2, wp, rnd)
        if mpf_gt(x_max, mpf_pow_int(ftwo, 64, wp, rnd)):
            raise PrecisionFailure("no cutoff reaches the tail target")
    inv_a, err_a = _integrate(chi_integrand, _anchor_points(fzero, x_max), _HALF_TOL)
    a, a_err = _inverse_and_error(inv_a, mpf_add(err_a, tail, wp, rnd))
    return Normalizers(a, a_err, _snap_raw(x_max, 8), mpf_log(_raw(a), wp, rnd))


@cache
def tail_normalizers(p: LogPeriodicParams) -> tuple[Fraction, Fraction]:
    """(b, b_err): 1 / integral of the tail exp(-y - chi(y)) over y >= 0,
    and its error bound, on the chi table that :func:`normalizers` reads."""
    inv_b, err_b, _ = _tail_integral(fzero, _chi_table(p))
    return _inverse_and_error(inv_b, err_b)


def density_log(x, p: LogPeriodicParams) -> LogValue:
    """log2 view of the density a * exp(-chi(x))."""
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"density is supported on x >= 0, got {_brief(x)}")
    log_a = normalizers(p).log_a
    chi_x = _chi_table(p)(_raw(x))
    log2_val = mpf_div(mpf_sub(log_a, chi_x, _WP, _RND), mpf_ln2(_WP, _RND), _WP, _RND)
    return LogValue(_snap_raw(log2_val, _SNAP_BITS))


def _tail_integral(x: Raw, chi_of: Callable[[Raw], Raw]):
    """(integral_x^inf exp(-y - chi(y)) dy, a quadrature error estimate plus
    a rigorous tail bound, chi(x)) for chi given as ``chi_of``.

    chi(x) sets the cutoff beyond which the analytic tail bound takes over."""
    wp, rnd = _WP, _RND
    chi_x = chi_of(x)
    end = mpf_add(x, _reach(chi_x), wp, rnd)
    val, err = _integrate(lambda y: _tail(y, chi_of(y)), _anchor_points(x, end),
                          _HALF_TOL)
    cut = mpf_exp(mpf_neg(end), wp, rnd)
    return val, mpf_add(err, cut, wp, rnd), chi_x


def karamata_ratio(x, p: LogPeriodicParams) -> Fraction:
    """Integrated tail over tail: the ratio that drifts to 1.

    Computed as integral_x^inf tail / tail(x); the b normalizer cancels, so
    no normalization error enters.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {_brief(x)}")
    xm = _raw(x)
    val, _, chi_x = _tail_integral(xm, _chi_table(p))
    return _snap_raw(mpf_div(val, _tail(xm, chi_x), _WP, _RND), _SNAP_BITS)


def middle_mass_ratio(x, p: LogPeriodicParams, h_exp) -> LogValue:
    """a * integral_{h}^{x-h} exp(chi(x) - chi(x-y) - chi(y)) dy, h = x**h_exp.

    Diverging values of this ratio along a subsequence witness failure of
    the self-convolution asymptotics.  The cut exponent is a caller choice;
    nothing here claims a canonical h.  An integral that is not positive
    raises :class:`PrecisionFailure`.
    """
    x = Fraction(x)
    h_exp = Fraction(h_exp)
    if not Fraction(0) < h_exp < 1:
        raise ValueError(f"h_exp must lie in (0, 1), got {_brief(h_exp)}")
    norm = normalizers(p)
    wp, rnd = _WP, _RND
    xm = _raw(x)
    h = mpf_pow(xm, _raw(h_exp), wp, rnd)
    if not mpf_gt(xm, mpf_mul_int(h, 2, wp, rnd)):
        raise ValueError(f"need x > 2 * x**h_exp (x={_brief(x)}, h={to_str(h, 6)})")
    # the integrand is symmetric about x/2 and its points are mirrored, so
    # most abscissas recur as x - y; the table ends with the call
    chi_at = _memo(_chi_raw(_raw(p.delta)))
    chi_x = chi_at(xm)

    def integrand(y):
        rest = mpf_sub(chi_x, chi_at(mpf_sub(xm, y, wp, rnd)), wp, rnd)
        return mpf_exp(mpf_sub(rest, chi_at(y), wp, rnd), wp, rnd)

    top = mpf_sub(xm, h, wp, rnd)
    anchors = _anchor_points(h, top)
    pts = sorted(set([h, top, mpf_div(xm, ftwo, wp, rnd)] + anchors
                     + [mpf_sub(xm, t, wp, rnd) for t in anchors]),
                 key=cmp_to_key(mpf_cmp))
    pts = [t for t in pts if mpf_le(h, t) and mpf_le(t, top)]
    val, _ = _integrate(integrand, pts, _TOL)
    if mpf_le(val, fzero):  # the integrand is positive: the quadrature failed
        raise PrecisionFailure(f"middle integral at x={_fmt(x)} is not positive "
                               f"({to_str(val, 6)})")
    log_sum = mpf_add(norm.log_a, mpf_log(val, wp, rnd), wp, rnd)
    return LogValue(_snap_raw(mpf_div(log_sum, mpf_ln2(wp, rnd), wp, rnd), _SNAP_BITS))
