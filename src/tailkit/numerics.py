"""Precision-controlled scalar arithmetic.

Two kinds of scalar live here:

* exact rationals (``fractions.Fraction``, aliased ``Real``) for every
  quantity that is rational by construction, and
* :class:`LogValue`, a signed base-2 log-magnitude scalar for quantities
  like ``2**(-3*n*n)`` at indices where a dense rational is impossible.

Transcendental constants are never used symbolically.  Each one is
"snapped": evaluated once at a requested precision, rounded to a dyadic
rational (or, for ``log_nat``, cached per ``(n, precision_bits)``), and
reused verbatim everywhere downstream.  Snapping trades transcendental
fidelity for exactness: identities that are structural in the constant
(for instance a ratio that equals ``log_nat(n)`` by construction) then
hold exactly in rational arithmetic.

All snap functions are deterministic: identical arguments give
bit-identical rationals, and results are cached with idempotent inserts,
so concurrent readers are safe.  mpmath is imported on the first snap
that needs it, so a caller that snaps nothing never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from mpmath import mpf

Real = Fraction

DEFAULT_PRECISION = 256
MIN_PRECISION = 32
_GUARD = 64

# Beyond this many bits of log2-magnitude a dense rational would not fit
# in memory; LogValue.to_rational refuses to materialize it.
_MATERIALIZE_LIMIT = 4_000_000


def _check_precision(precision_bits: int) -> None:
    if not isinstance(precision_bits, int) or precision_bits < MIN_PRECISION:
        raise ValueError(
            f"precision_bits must be an integer >= {MIN_PRECISION}, "
            f"got {precision_bits!r}")


def _snap(value: mpf, precision_bits: int) -> Fraction:
    """Round an mpf to the nearest multiple of 2**-precision_bits."""
    return _snap_raw(value._mpf_, precision_bits)


def _snap_raw(value: tuple, precision_bits: int) -> Fraction:
    """:func:`_snap` for libmp's raw mpf tuple."""
    from mpmath.libmp import to_fixed
    # int() guards against the gmpy backend handing back an mpz, which would
    # otherwise leak into Fraction internals
    fixed = int(to_fixed(value, precision_bits + 1))
    return Fraction((fixed + 1) >> 1, 1 << precision_bits)


@lru_cache(maxsize=None)
def ln_snap(q: Fraction, precision_bits: int = DEFAULT_PRECISION) -> Fraction:
    """Natural log of a positive rational, snapped to 2**-precision_bits."""
    _check_precision(precision_bits)
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"ln_snap requires a positive argument, got {q}")
    if q == 1:
        return Fraction(0)
    import mpmath
    with mpmath.workprec(precision_bits + _GUARD):
        v = mpmath.log(mpmath.mpf(q.numerator)) - mpmath.log(mpmath.mpf(q.denominator))
        return _snap(v, precision_bits)


@lru_cache(maxsize=None)
def log2_snap(q: Fraction, precision_bits: int = DEFAULT_PRECISION) -> Fraction:
    """Base-2 log of a positive rational; exact when q is a power of two."""
    _check_precision(precision_bits)
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"log2_snap requires a positive argument, got {q}")
    num, den = q.numerator, q.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return Fraction(num.bit_length() - den.bit_length())
    import mpmath
    with mpmath.workprec(precision_bits + _GUARD):
        v = (mpmath.log(mpmath.mpf(num)) - mpmath.log(mpmath.mpf(den))) / mpmath.ln2
        return _snap(v, precision_bits)


@lru_cache(maxsize=None)
def exp2_snap(q: Fraction, precision_bits: int = DEFAULT_PRECISION) -> Fraction:
    """2**q for rational q, correct to ~2**-precision_bits relative error.

    The integer part of q is applied as an exact power of two, so exact
    integer exponents round-trip exactly.
    """
    _check_precision(precision_bits)
    q = Fraction(q)
    i = math.floor(q)
    frac = q - i
    if abs(i) > _MATERIALIZE_LIMIT:
        raise ValueError(f"2**{i} is too large to materialize as a rational")
    if frac == 0:
        scaled = Fraction(1)
    else:
        import mpmath
        with mpmath.workprec(precision_bits + _GUARD):
            f = mpmath.mpf(frac.numerator) / mpmath.mpf(frac.denominator)
            scaled = _snap(mpmath.power(2, f), precision_bits)
    if i >= 0:
        return scaled * (1 << i)
    return scaled / (1 << (-i))


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for nonnegative integer n."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


@lru_cache(maxsize=None)
def root_snap(q: Fraction, k: int, precision_bits: int = DEFAULT_PRECISION) -> Fraction:
    """q**(1/k) snapped to a dyadic rational; exact for exact k-th powers."""
    _check_precision(precision_bits)
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"root index must be a positive integer, got {k!r}")
    q = Fraction(q)
    if q < 0:
        raise ValueError(f"root_snap requires a nonnegative argument, got {q}")
    shift = precision_bits + 16
    t = _iroot((q.numerator << (k * shift)) // q.denominator, k)
    return Fraction(t, 1 << shift)


_LOG_NAT_CACHE: dict = {}


def log_nat(n: int, precision_bits: int = DEFAULT_PRECISION) -> Fraction:
    """The snapped constant for ln(n+1).

    Computed once per (n, precision_bits) and reused for every downstream
    occurrence of ln(n+1), so in-artifact identities built from it hold
    exactly.  |result - ln(n+1)| <= 2**-precision_bits.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    _check_precision(precision_bits)
    key = (n, precision_bits)
    try:
        return _LOG_NAT_CACHE[key]
    except KeyError:
        return _LOG_NAT_CACHE.setdefault(key, ln_snap(Fraction(n + 1), precision_bits))


# ----------------------------- LogValue -----------------------------

@dataclass(frozen=True)
class LogValue:
    """A signed scalar stored as log2 of its absolute value.

    ``sign`` is -1, 0 or +1; ``log2mag`` is ignored (and kept at 0) when the
    sign is 0.  ``precision_loss`` marks values whose digits were partly
    destroyed by a near-cancelling opposite-sign addition; it propagates
    through every later operation.
    """

    sign: int
    log2mag: Fraction = Fraction(0)
    precision_loss: bool = False

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        object.__setattr__(self, "log2mag",
                           Fraction(0) if self.sign == 0 else Fraction(self.log2mag))

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(0)

    @staticmethod
    def pow2(exponent) -> "LogValue":
        """The exact value 2**exponent."""
        return LogValue(1, Fraction(exponent))

    @staticmethod
    def from_rational(q: Fraction,
                      precision_bits: int = DEFAULT_PRECISION) -> "LogValue":
        q = Fraction(q)
        if q == 0:
            return LogValue(0)
        sign = 1 if q > 0 else -1
        return LogValue(sign, log2_snap(abs(q), precision_bits))

    def to_rational(self, precision_bits: int = DEFAULT_PRECISION) -> Fraction:
        if self.sign == 0:
            return Fraction(0)
        return self.sign * exp2_snap(self.log2mag, precision_bits)

    def __str__(self):
        if self.sign == 0:
            return "zero"
        prefix = "" if self.sign > 0 else "-"
        return f"{prefix}2^({self.log2mag})"


def lv_mul(u: LogValue, v: LogValue) -> LogValue:
    """Exact product: signs multiply, log-magnitudes add."""
    if u.sign == 0 or v.sign == 0:
        return LogValue(0, precision_loss=u.precision_loss or v.precision_loss)
    return LogValue(u.sign * v.sign, u.log2mag + v.log2mag,
                    u.precision_loss or v.precision_loss)


@lru_cache(maxsize=None)
def _log2_one_plus_pow2(delta: Fraction, precision_bits: int) -> Fraction:
    """log2(1 + 2**delta) for delta <= 0, snapped."""
    if delta > 0:
        raise ValueError("delta must be <= 0")
    if delta == 0:
        return Fraction(1)
    if delta <= -(precision_bits + 2):
        return Fraction(0)
    t = exp2_snap(delta, precision_bits + 32)
    return log2_snap(1 + t, precision_bits)


@lru_cache(maxsize=None)
def _log2_one_minus_pow2(delta: Fraction, precision_bits: int) -> tuple[Fraction, bool]:
    """(log2(1 - 2**delta), cancellation flag) for delta < 0."""
    if delta >= 0:
        raise ValueError("delta must be < 0")
    if delta <= -(precision_bits + 2):
        return Fraction(0), False
    t = exp2_snap(delta, precision_bits + 32)
    rel = 1 - t
    lost = rel < Fraction(1, 1 << (precision_bits // 2))
    return log2_snap(rel, precision_bits), lost


def lv_add(u: LogValue, v: LogValue,
           precision_bits: int = DEFAULT_PRECISION) -> LogValue:
    """Sum via the factored form max * (1 + 2**(min-max)).

    The raw magnitudes are never materialized.  For same-sign inputs the
    result magnitude is >= the larger input magnitude.  Opposite-sign inputs
    whose relative difference falls below 2**(-precision_bits/2) return with
    ``precision_loss`` set instead of silently reporting cancelled digits.
    """
    _check_precision(precision_bits)
    flags = u.precision_loss or v.precision_loss
    if u.sign == 0:
        return LogValue(v.sign, v.log2mag, flags)
    if v.sign == 0:
        return LogValue(u.sign, u.log2mag, flags)
    hi, lo = (u, v) if u.log2mag >= v.log2mag else (v, u)
    delta = lo.log2mag - hi.log2mag
    if u.sign == v.sign:
        corr = _log2_one_plus_pow2(delta, precision_bits)
        return LogValue(u.sign, hi.log2mag + corr, flags)
    if delta == 0:
        return LogValue(0, precision_loss=flags)
    corr, lost = _log2_one_minus_pow2(delta, precision_bits)
    return LogValue(hi.sign, hi.log2mag + corr, flags or lost)


def lv_cmp(u: LogValue, v: LogValue) -> int:
    """Compare the represented real values: -1, 0 or +1."""
    if u.sign != v.sign:
        return -1 if u.sign < v.sign else 1
    if u.sign == 0:
        return 0
    if u.log2mag == v.log2mag:
        return 0
    bigger_mag = 1 if u.log2mag > v.log2mag else -1
    return bigger_mag * u.sign
