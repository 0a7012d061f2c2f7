"""Density with a log-periodically modulated power exponent.

The tail ``exp(-alpha*x - chi(x))`` with

    chi(x) = x ** (1/2 + delta * cos(ln(x+1))),   0 < delta < 1/2,

yields the density ``a * exp(-chi(x))`` after removing the exponential
factor.  The exponent oscillates between ``1/2 - delta`` and
``1/2 + delta`` once per e**pi factor in x, so the density swings over
astronomically many orders of magnitude: values are returned as
:class:`LogValue` and every quadrature is panelled at the anchor points
``exp(k*pi) - 1`` where the modulation peaks (naive uniform panels alias
the rebounds there and can silently miss percent-level mass).

All numerics run in fixed-precision mpmath (deterministic software
floats); integrals carry an explicit error budget and a certified
analytic tail bound, and raise :class:`PrecisionFailure` instead of
returning a value that missed its budget.  mpmath is imported by the
functions that evaluate, so it loads on first use, not with this module.

The three integrals behind :func:`normalizers` (a coarse scale, ``1/a``
and ``1/b``) share their first anchor panel, so one table, kept for one
call, holds chi at every abscissa up to the ``b`` cutoff: each such chi is
computed once, at the same working precision, and the normalizers are
bit-for-bit those of three independent integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional

from tailkit.errors import PrecisionFailure
from tailkit.numerics import LogValue, _snap

if TYPE_CHECKING:
    from mpmath import mpf

_WP = 192          # working precision (bits) for all mpmath evaluation
_SNAP_BITS = 96    # precision of rationals snapped out of mpmath
_MAX_DEPTH = 52


@dataclass(frozen=True)
class LogPeriodicParams:
    alpha: Fraction = Fraction(1)
    delta: Fraction = Fraction(1, 4)
    quad_tol: Fraction = Fraction(1, 10 ** 8)
    x_max: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "quad_tol", Fraction(self.quad_tol))
        if self.x_max is not None:
            object.__setattr__(self, "x_max", Fraction(self.x_max))
            if self.x_max <= 0:
                raise ValueError("x_max must be positive")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not Fraction(0) < self.delta < Fraction(1, 2):
            raise ValueError(f"delta must lie in (0, 1/2), got {self.delta}")
        if not Fraction(0) < self.quad_tol <= Fraction(1, 10 ** 4):
            raise ValueError(f"quad_tol must lie in (0, 1e-4], got {self.quad_tol}")


def _to_mpf(q: Fraction) -> mpf:
    import mpmath
    return mpmath.mpf(q.numerator) / q.denominator


def _chi_mpf(x: mpf, delta: mpf) -> mpf:
    import mpmath
    if x == 0:
        return mpmath.mpf(0)
    exponent = mpmath.mpf(1) / 2 + delta * mpmath.cos(mpmath.log(x + 1))
    return mpmath.exp(exponent * mpmath.log(x))


def chi(x, p: LogPeriodicParams, precision_bits: int = _SNAP_BITS) -> Fraction:
    """x ** (1/2 + delta*cos(ln(x+1))) snapped to 2**-precision_bits."""
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"chi is defined on x >= 0, got {x}")
    if x == 0:
        return Fraction(0)
    import mpmath
    with mpmath.workprec(max(_WP, precision_bits + 64)):
        return _snap(_chi_mpf(_to_mpf(x), _to_mpf(p.delta)), precision_bits)


def anchor(k: int, precision_bits: int = _SNAP_BITS) -> Fraction:
    """exp(k*pi) - 1: the abscissa where cos(ln(x+1)) = (-1)**k exactly."""
    if k < 0:
        raise ValueError("anchor index must be nonnegative")
    if k == 0:
        return Fraction(0)
    import mpmath
    with mpmath.workprec(max(_WP, precision_bits + 64)):
        return _snap(mpmath.exp(k * mpmath.pi) - 1, precision_bits)


# --------------------------- quadrature core ---------------------------

def _simpson(fa, fm, fb, a, b):
    return (b - a) * (fa + 4 * fm + fb) / 6


def _adapt(f, a, fa, m, fm, b, fb, whole, budget, depth):
    lm = (a + m) / 2
    rm = (m + b) / 2
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    err = abs(left + right - whole) / 15
    if err <= budget or depth >= _MAX_DEPTH:
        return left + right + (left + right - whole) / 15, err
    lv, le = _adapt(f, a, fa, lm, flm, m, fm, left, budget / 2, depth + 1)
    rv, re = _adapt(f, m, fm, rm, frm, b, fb, right, budget / 2, depth + 1)
    return lv + rv, le + re


def _integrate(f: Callable[[mpf], mpf], points, rel_tol: mpf):
    """Adaptive Simpson over fixed panels; returns (value, error_estimate).

    The relative tolerance is taken against the coarse total magnitude and
    split across panels in proportion to their coarse share, so panels that
    carry no mass are not refined.
    """
    import mpmath
    from mpmath import mpf
    panels = []
    for a, b in zip(points, points[1:]):
        if b <= a:
            continue
        m = (a + b) / 2
        fa, fm, fb = f(a), f(m), f(b)
        panels.append((a, fa, m, fm, b, fb, _simpson(fa, fm, fb, a, b)))
    if not panels:
        return mpf(0), mpf(0)
    scale = sum(abs(p[6]) for p in panels)
    if scale == 0:
        scale = mpf(2) ** (-_WP // 2)
    abs_budget = rel_tol * scale
    weights = [abs(p[6]) + scale / (8 * len(panels)) for p in panels]
    wsum = sum(weights)
    total = mpf(0)
    err = mpf(0)
    for (a, fa, m, fm, b, fb, whole), w in zip(panels, weights):
        v, e = _adapt(f, a, fa, m, fm, b, fb, whole, abs_budget * w / wsum, 0)
        total += v
        err += e
    if err > 4 * abs_budget:
        raise PrecisionFailure(
            f"quadrature stalled: error estimate {mpmath.nstr(err)} exceeds "
            f"budget {mpmath.nstr(abs_budget)}", achieved=Fraction(str(err / scale)))
    return total, err


def _anchor_points(lo: mpf, hi: mpf) -> list:
    import mpmath
    pts = [lo]
    k = 1
    while True:
        x = mpmath.exp(k * mpmath.pi) - 1
        if x >= hi:
            break
        if x > lo:
            pts.append(x)
        k += 1
    pts.append(hi)
    return pts


def _chi_tail_bound(T: mpf, delta: mpf) -> mpf:
    """Certified bound on integral_T^inf exp(-y**(1/2-delta)) dy."""
    import mpmath
    from mpmath import mpf
    c = mpf(1) / 2 - delta
    u0 = T ** c
    k = 1 / c - 1
    if u0 <= 2 * k + 2:
        return mpf("inf")
    return (1 / c) * u0 ** k * mpmath.exp(-u0) / (1 - k / u0)


@dataclass(frozen=True)
class Normalizers:
    a: Fraction              # 1 / integral of exp(-chi)
    a_err: Fraction          # bound on |a - true a| (quadrature + tail)
    b: Fraction              # 1 / integral of the tail exp(-alpha*y - chi)
    b_err: Fraction
    x_max: Fraction          # upper cutoff used for the chi-only integral


_NORMALIZER_CACHE: dict = {}


def normalizers(p: LogPeriodicParams) -> Normalizers:
    """Both normalizing constants with certified total error bounds.

    The cutoff for the chi-only integral is grown until its analytic tail
    bound drops below quad_tol/10 of the integral.
    """
    try:
        return _NORMALIZER_CACHE[p]
    except KeyError:
        pass
    import mpmath
    from mpmath import mpf
    with mpmath.workprec(_WP):
        delta = _to_mpf(p.delta)
        alpha = _to_mpf(p.alpha)
        tol = _to_mpf(p.quad_tol)
        z0 = (mpmath.log(10 / (alpha * tol)) + 4) / alpha
        # chi for every abscissa the b integral can reach, each computed
        # once and read by all three integrands; the table ends with the call
        chi_table: dict = {}

        def chi_at(y):
            if y > z0:
                return _chi_mpf(y, delta)
            value = chi_table.get(y)
            if value is None:
                value = chi_table[y] = _chi_mpf(y, delta)
            return value

        def chi_integrand(y):
            return mpmath.exp(-chi_at(y))

        coarse, _ = _integrate(chi_integrand, _anchor_points(mpf(0), mpf(4096)),
                               mpf("1e-3"))
        if p.x_max is not None:
            x_max = _to_mpf(p.x_max)
            tail = _chi_tail_bound(x_max, delta)
            if not tail < tol * coarse:
                raise PrecisionFailure(
                    f"cutoff x_max={p.x_max} leaves a certified tail bound "
                    f"{mpmath.nstr(tail)} above the quadrature budget",
                    achieved=None if mpmath.isinf(tail)
                    else _snap(tail / coarse, _SNAP_BITS))
        else:
            x_max = mpf(4096)
            while True:
                tail = _chi_tail_bound(x_max, delta)
                if tail < tol * coarse / 10:
                    break
                x_max *= 2
                if x_max > mpf(2) ** 64:
                    raise PrecisionFailure("no cutoff reaches the tail target")
        inv_a, err_a = _integrate(chi_integrand, _anchor_points(mpf(0), x_max),
                                  tol / 2)
        err_a += tail

        def tail_integrand(y):
            return mpmath.exp(-alpha * y - chi_at(y))

        inv_b, err_b = _integrate(tail_integrand, _anchor_points(mpf(0), z0),
                                  tol / 2)
        b_tail = mpmath.exp(-alpha * z0) / alpha
        err_b += b_tail

        result = Normalizers(
            a=_snap(1 / inv_a, _SNAP_BITS),
            a_err=_snap(err_a / (inv_a * inv_a) + mpf(2) ** (-_SNAP_BITS), _SNAP_BITS) ,
            b=_snap(1 / inv_b, _SNAP_BITS),
            b_err=_snap(err_b / (inv_b * inv_b) + mpf(2) ** (-_SNAP_BITS), _SNAP_BITS),
            x_max=_snap(x_max, 8))
    return _NORMALIZER_CACHE.setdefault(p, result)


def density_log(x, p: LogPeriodicParams) -> LogValue:
    """log2 view of the density a * exp(-chi(x))."""
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"density is supported on x >= 0, got {x}")
    norm = normalizers(p)
    import mpmath
    with mpmath.workprec(_WP):
        log2_val = (mpmath.log(_to_mpf(norm.a))
                    - _chi_mpf(_to_mpf(x), _to_mpf(p.delta))) / mpmath.ln2
        return LogValue(1, _snap(log2_val, _SNAP_BITS))


def _tail_integral(x: mpf, p: LogPeriodicParams):
    """integral_x^inf exp(-alpha*y - chi(y)) dy with certified tail.

    Returns (value, error bound, chi(x)); chi(x) sets the cutoff.
    """
    import mpmath
    with mpmath.workprec(_WP):
        delta = _to_mpf(p.delta)
        alpha = _to_mpf(p.alpha)
        tol = _to_mpf(p.quad_tol)
        chi_x = _chi_mpf(x, delta)
        z = (chi_x + mpmath.log(10 / tol) + 4) / alpha

        def integrand(y):
            return mpmath.exp(-alpha * y - _chi_mpf(y, delta))

        pts = [t for t in _anchor_points(x, x + z)]
        val, err = _integrate(integrand, pts, tol / 2)
        err += mpmath.exp(-alpha * (x + z)) / alpha
        return val, err, chi_x


def karamata_ratio(x, p: LogPeriodicParams) -> Fraction:
    """Integrated tail over tail/alpha: the ratio that drifts to 1.

    Computed as alpha * integral_x^inf tail / tail(x); the b normalizer
    cancels, so no normalization error enters.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    import mpmath
    with mpmath.workprec(_WP):
        xm = _to_mpf(x)
        val, _, chi_x = _tail_integral(xm, p)
        tail_x = mpmath.exp(-_to_mpf(p.alpha) * xm - chi_x)
        return _snap(_to_mpf(p.alpha) * val / tail_x, _SNAP_BITS)


def middle_mass_ratio(x, p: LogPeriodicParams, h_exp) -> LogValue:
    """a * integral_{h}^{x-h} exp(chi(x) - chi(x-y) - chi(y)) dy, h = x**h_exp.

    Diverging values of this ratio along a subsequence witness failure of
    the self-convolution asymptotics.  The cut exponent is a caller choice;
    nothing here claims a canonical h.
    """
    x = Fraction(x)
    h_exp = Fraction(h_exp)
    if not Fraction(0) < h_exp < 1:
        raise ValueError(f"h_exp must lie in (0, 1), got {h_exp}")
    norm = normalizers(p)
    import mpmath
    with mpmath.workprec(_WP):
        xm = _to_mpf(x)
        delta = _to_mpf(p.delta)
        h = xm ** _to_mpf(h_exp)
        if not xm > 2 * h:
            raise ValueError(f"need x > 2 * x**h_exp (x={x}, h={mpmath.nstr(h)})")
        chi_x = _chi_mpf(xm, delta)

        def integrand(y):
            return mpmath.exp(chi_x - _chi_mpf(xm - y, delta) - _chi_mpf(y, delta))

        pts = sorted(set(
            [h, xm - h, xm / 2]
            + [t for t in _anchor_points(h, xm - h)]
            + [xm - t for t in _anchor_points(h, xm - h)]))
        pts = [t for t in pts if h <= t <= xm - h]
        val, _ = _integrate(integrand, pts, _to_mpf(p.quad_tol))
        if val <= 0:
            return LogValue(0)
        log2_val = (mpmath.log(_to_mpf(norm.a)) + mpmath.log(val)) / mpmath.ln2
        return LogValue(1, _snap(log2_val, _SNAP_BITS))
