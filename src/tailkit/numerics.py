"""Precision-controlled scalar arithmetic.

Two kinds of scalar live here:

* exact rationals (``fractions.Fraction``) for every quantity that is
  rational by construction, and
* :class:`LogValue`, a positive scalar held as its base-2 log, for
  quantities like ``2**(-3*n*n)`` at indices where a dense rational is
  impossible.

Transcendental constants are never used symbolically.  Each one is
"snapped": evaluated once at a requested precision, rounded to a dyadic
rational, and reused verbatim everywhere downstream.  Snapping trades
transcendental fidelity for exactness: identities that are structural in
the constant (for instance a ratio that equals ``log_nat(n)`` by
construction) then hold exactly in rational arithmetic.

All snap functions are deterministic: identical arguments give
bit-identical rationals, and results are cached with idempotent inserts,
so concurrent readers are safe.  They run on libmp, mpmath's low-level
floating-point library, through :func:`libmp`: each step calls the libmp
function that mpmath's ``mpf`` operator would call, at the same precision
with round-to-nearest, so every value keeps the bits of the ``mpf``
expression.  libmp is loaded on the first snap that needs it, without the
rest of mpmath, so a caller that snaps nothing loads neither.
"""

from __future__ import annotations

import importlib.util
import math
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cache, lru_cache

from tailkit.errors import PrecisionFailure, UsageError

DEFAULT_PRECISION = 256
MIN_PRECISION = 32
_GUARD = 64

# Beyond this many bits of log2-magnitude a dense rational would not fit
# in memory; exp2_snap refuses to materialize it.
_MATERIALIZE_LIMIT = 4_000_000

# The notched construction's knots are materialized for indices up to this
# (see tailkit.notched).  It is defined here, beside the other limit on
# materializing, so that the CLI can state the range of its option n
# without loading the construction.
DENSE_LIMIT = 64


# Fraction("1e-3000000") alone computes 10**3000000, and an error message
# would then render its digits; every knot of the notched construction lies
# below 1e1234 (a_64 = 2**4096)
_MAX_EXPONENT = 10_000

# an error message quotes at most this many characters of the text it
# refuses, or of a value's text (piecewise._brief)
_QUOTE_CHARS = 40

_RND = "n"  # round to nearest, mpmath's default rounding


@cache
def libmp():
    """mpmath's libmp, the one way into it: the ``mpmath.libmp`` imported
    already, or else the package ``mpmath/libmp`` loaded once as
    ``tailkit._libmp``, without running ``mpmath/__init__.py`` (contexts,
    functions, calculus, matrices, plotting).  libmp imports only its own
    submodules and the standard library.  Reusing an imported
    ``mpmath.libmp`` keeps one libmp per process and adds no module to
    ``sys.modules`` when a layer loads there."""
    if "mpmath.libmp" in sys.modules:
        return sys.modules["mpmath.libmp"]
    (mpmath_dir,) = importlib.util.find_spec("mpmath").submodule_search_locations
    path = os.path.join(mpmath_dir, "libmp")
    spec = importlib.util.spec_from_file_location(
        "tailkit._libmp", os.path.join(path, "__init__.py"),
        submodule_search_locations=[path])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _cut(text: str) -> str:
    """``text`` for an error message; a text longer than _QUOTE_CHARS is cut
    to that many characters, an ellipsis and its length, so the message
    stays one short line."""
    if len(text) <= _QUOTE_CHARS:
        return text
    return f"{text[:_QUOTE_CHARS]}… ({len(text):,} characters)"


def _quoted(text: str) -> str:
    """``repr(text)`` for an error message, cut as :func:`_cut` cuts."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS] + '…'!r} ({len(text):,} characters)"


def _rational(text: str, config=None) -> Fraction:
    """A decimal or p/q rational: the one reader of options, parameters,
    config lines and piecewise file values.  A decimal exponent past
    +-_MAX_EXPONENT is refused before Fraction computes its power of ten;
    an integer or p/q past ``sys.get_int_max_str_digits()``, which Fraction
    refuses, is read through Decimal.  ``config``, the run's options, is
    what every probe parameter parser is given; a rational reads none of
    them."""
    exponent = text.lower().partition("e")[2]
    if exponent and abs(int(exponent)) > _MAX_EXPONENT:
        raise ValueError(f"exponent beyond +-{_MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ValueError:
        match = re.fullmatch(r"([-+]?[0-9]+)(?:/([0-9]+))?", text)
        if match is None:
            raise
        from decimal import Decimal
        num, den = match.groups()
        return Fraction(int(Decimal(num)), int(Decimal(den or 1)))


def _int_range(key: str, lo: int, hi: int, work_log2: int | None = None):
    """A parser of the integer key, refusing a value outside its ``bounds``:
    lo..hi and, given work_log2, key * precision_bits**2 <= 2**work_log2,
    for a count of steps whose cost grows with the bits of the run's
    ``config``.  It takes ``config`` as :func:`_rational` does."""
    def parse(text: str, config=None) -> int:
        top = hi if work_log2 is None else min(hi, (1 << work_log2) // config.precision_bits ** 2)
        if not lo <= (value := int(text)) <= top:
            at = "" if top == hi else f" at {config.precision_bits} bits"
            raise UsageError(f"bad value for {key}: {_quoted(text)} "
                             f"({key} takes {lo}..{top}{at})")
        return value
    parse.bounds = f"{lo}..{hi}" + ("" if work_log2 is None else
                                    f", {key}*precision_bits^2 <= 2^{work_log2}")
    return parse


def _check_precision(precision_bits: int) -> None:
    if not isinstance(precision_bits, int) or precision_bits < MIN_PRECISION:
        raise ValueError(
            f"precision_bits must be an integer >= {MIN_PRECISION}, "
            f"got {precision_bits!r}")


def _snap_raw(value: tuple, precision_bits: int) -> Fraction:
    """Round libmp's raw mpf tuple to the nearest multiple of
    2**-precision_bits.

    to_fixed would turn an infinity or NaN into 0; they raise
    :class:`PrecisionFailure` instead.
    """
    lm = libmp()
    if value in (lm.finf, lm.fninf, lm.fnan):
        raise PrecisionFailure(f"cannot snap {lm.to_str(value, 6)} to a rational")
    # int() guards against the gmpy backend handing back an mpz, which would
    # otherwise leak into Fraction internals
    fixed = int(lm.to_fixed(value, precision_bits + 1))
    return Fraction((fixed + 1) >> 1, 1 << precision_bits)


def _ln_raw(q: Fraction, wp: int) -> tuple:
    """``log(mpf(q.numerator)) - log(mpf(q.denominator))`` at wp bits."""
    lm = libmp()
    num, den = (lm.mpf_log(lm.mpf_pos(lm.from_int(v), wp, _RND), wp, _RND)
                for v in (q.numerator, q.denominator))
    return lm.mpf_sub(num, den, wp, _RND)


@lru_cache(maxsize=None)
def ln_snap(q: Fraction, precision_bits: int = DEFAULT_PRECISION) -> Fraction:
    """Natural log of a positive rational, snapped to 2**-precision_bits."""
    _check_precision(precision_bits)
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"ln_snap requires a positive argument, got {q}")
    if q == 1:
        return Fraction(0)
    return _snap_raw(_ln_raw(q, precision_bits + _GUARD), precision_bits)


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
    lm, wp = libmp(), precision_bits + _GUARD
    # ``ln(q) / mpmath.ln2``: the constant is taken at the working precision
    v = lm.mpf_div(_ln_raw(q, wp), lm.mpf_ln2(wp, _RND), wp, _RND)
    return _snap_raw(v, precision_bits)


@lru_cache(maxsize=None)
def exp2_snap(q: Fraction, precision_bits: int = DEFAULT_PRECISION) -> Fraction:
    """2**q for rational q, correct to ~2**-precision_bits relative error.

    The integer part of q is applied as an exact power of two, so exact
    integer exponents round-trip exactly.  No command calls it; it stays
    because ``perfbench/tracer.py`` reads its cache statistics.
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
        # ``mpmath.power(2, mpf(num) / mpf(den))``
        lm, wp = libmp(), precision_bits + _GUARD
        num = lm.mpf_pos(lm.from_int(frac.numerator), wp, _RND)
        den = lm.mpf_pos(lm.from_int(frac.denominator), wp, _RND)
        f = lm.mpf_div(num, den, wp, _RND)
        scaled = _snap_raw(lm.mpf_pow(lm.from_int(2), f, wp, _RND), precision_bits)
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


def log_nat(n: int, precision_bits: int = DEFAULT_PRECISION) -> Fraction:
    """The snapped constant for ln(n+1).

    ``ln_snap(n + 1)``: computed once per (n, precision_bits) by its cache
    and reused for every downstream occurrence of ln(n+1), so in-artifact
    identities built from it hold exactly.  The value is rounded to the
    nearest multiple of 2**-precision_bits, so |result - ln(n+1)| <=
    2**-(precision_bits + 1); the Tier-1 suite checks this for n <= 64 at
    256 and 1,024 bits.  For every other n the stated bound is
    |result - ln(n+1)| <= 2**-precision_bits.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    _check_precision(precision_bits)
    return ln_snap(Fraction(n + 1), precision_bits)


class LogValue(namedtuple("LogValue", "log2mag")):
    """A positive scalar stored as ``log2mag``, the rational log2 of its
    value."""

    __slots__ = ()
