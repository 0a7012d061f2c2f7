"""Deterministic plain-text rendering of exact scalars.

CSV reports render rationals in decimal.  A rational whose expansion
terminates within the width budget is written exactly; anything else is
rounded half-up to a fixed number of significant digits.  Either way the
output is locale-free and byte-stable across runs, which is what report
consumers diff against.  Lossless round-tripping is the job of the
rational-string piecewise files, not of these reports.

Nothing here calls ``str`` on an integer that can be long: Python refuses
int-to-decimal conversions past ``sys.get_int_max_str_digits()``, and the
bytes of a report must not depend on that interpreter setting.  An int of
any size is written whole by ``piecewise._fmt``, the one exact writer.
"""

from __future__ import annotations

from fractions import Fraction
from math import log10

from tailkit.numerics import LogValue
from tailkit.piecewise import _fmt

SIG_DIGITS = 40
_EXACT_WIDTH = 80
_LOG10_2 = log10(2)


def _at_least(num: int, den: int, e: int) -> bool:
    """10**e <= num/den."""
    return den * 10 ** max(e, 0) <= num * 10 ** max(-e, 0)


def _floor_log10(num: int, den: int) -> int:
    """floor(log10(num/den)) for positive num, den."""
    e = int((num.bit_length() - den.bit_length()) * _LOG10_2)
    while not _at_least(num, den, e):
        e -= 1
    while _at_least(num, den, e + 1):
        e += 1
    return e


def _positional(digits: str, e: int) -> str:
    """0.digits * 10**(e+1) written out, without trailing fraction zeros;
    digits holds a nonzero digit."""
    if e < 0:
        digits, e = "0" * -e + digits, 0
    head, tail = digits[:e + 1].ljust(e + 1, "0"), digits[e + 1:].rstrip("0")
    return head + ("." + tail if tail else "")


def decimal_str(q, sig: int = SIG_DIGITS) -> str:
    """Decimal rendering of a rational: exact when it fits, else rounded."""
    q = Fraction(q)
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    num, den = abs(q.numerator), q.denominator

    # exact expansion when den = 2^a * 5^b and the result is short enough
    twos = (den & -den).bit_length() - 1
    d = den >> twos
    # the exact branch needs shift < _EXACT_WIDTH, so counting stops there:
    # one division per factor would make a long power of five quadratic
    fives = 0
    while fives < _EXACT_WIDTH and d % 5 == 0:
        d //= 5
        fives += 1
    shift = max(twos, fives)
    # the exact text is at least shift + 1 characters and at least as long
    # as its digit string, so both bounds are checked before any str()
    if d == 1 and shift < _EXACT_WIDTH:
        scaled = num * 10 ** shift // den
        if scaled < 10 ** _EXACT_WIDTH:
            digits = str(scaled)
            text = _positional(digits, len(digits) - 1 - shift)
            if len(text) <= _EXACT_WIDTH:
                return sign + text

    e = _floor_log10(num, den)
    shift = sig - 1 - e
    scaled = (2 * num * 10 ** max(shift, 0)
              // (den * 10 ** max(-shift, 0)) + 1) // 2
    digits = str(scaled)
    if len(digits) > sig:  # rounding carried into a new leading digit
        digits = digits[:sig]
        e += 1
    if -6 <= e <= sig + 6:
        return sign + _positional(digits, e)
    return f"{sign}{_positional(digits, 0)}e{e}"


def value_str(v) -> str:
    """Render a probe value: a LogValue as log2:<decimal>, anything else as
    a rational or int."""
    if isinstance(v, LogValue):
        return f"log2:{decimal_str(v.log2mag)}"
    if isinstance(v, int):
        return _fmt(v)
    return decimal_str(v)
