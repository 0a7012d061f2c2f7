"""The notched piecewise-linear density and its knot family.

The construction places knots at ``a_n = 2**(n*n)`` and
``b_n = a_n + a_{m(n)} * L_n**2`` with ``L_n`` the snapped constant for
``ln(n+1)`` and ``m(n)`` the smallest integer at least ``sqrt(5/6)*n``.
Between knots the function is linear, anchored by

    f0(0) = 1,   f0(a_n) = f0(c_n) = 2 * a_n**-3,   f0(b_n) = f0(a_n) / L_n,

where ``c_n = (a_{n+1} + b_n) / 2``.  The value at ``c_n`` therefore sits a
factor ``L_n`` above the value at ``b_n``: an ever-deeper notch that grows
without bound, which is exactly the non-almost-decreasing behaviour the
probes measure.  Everything in sight is an exact rational once ``L_n`` is
snapped, so knot identities are checked at zero tolerance.

One builder, ``_block(n)``, makes block n's knots a_n, b_n and c_n, and
the a_{n+1} that closes the block, each a ``Knot(x, f0(x))``: it is the one
place those formulas are written and the one place the dense index is
checked.  The accessors `knot_position` and `knot_value` read it through one
kind dispatch, and `threshold_knots` and `build_density` read it directly.

Indices are materialized densely only up to ``DENSE_LIMIT`` = 64 (``a_65``
is a ~4300-bit integer, still exact but useless beyond tests).  Past the
limit, the symbolic accessors (`knot_logf`) serve log-scale views at
arbitrary ``n``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from tailkit.numerics import (DEFAULT_PRECISION, DENSE_LIMIT, LogValue, log2_snap,
                              log_nat, root_snap)
from tailkit.piecewise import Knot, PiecewisePoly, _brief, from_linear_knots

KNOT_KINDS = ("a", "b", "c", "d", "s")


def m_of(n: int) -> int:
    """Smallest positive integer k with 6*k*k >= 5*n*n.

    Exact-integer form of "smallest k >= sqrt(5/6)*n"; the tie 6k^2 = 5n^2
    is impossible, so the inequality form is unambiguous.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    five_nn = 5 * n * n
    k = math.isqrt(five_nn // 6)
    while 6 * k * k < five_nn:
        k += 1
    return max(k, 1)


def a_position(n: int) -> Fraction:
    """a_n = 2**(n*n); a_0 is taken as 0 (anchor of the first segment)."""
    if n == 0:
        return Fraction(0)
    return Fraction(1 << (n * n))


def split_cut(n: int, x: Fraction) -> Fraction:
    """a_{m(n)}, once x lies in (a_n, a_{n+1}] and x - a_m >= a_m."""
    if not a_position(n) < x <= a_position(n + 1):
        raise ValueError(f"x={_brief(x)} is not inside block {n}")
    cut = a_position(m_of(n))
    if x - cut < cut:
        raise ValueError(f"x={_brief(x)} violates x - a_m >= a_m for block {n}")
    return cut


def _check_dense(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > DENSE_LIMIT:
        raise ValueError(
            f"n={n} exceeds the dense limit {DENSE_LIMIT}; "
            "use knot_logf for symbolic log-scale access")


def _block(n: int, precision_bits: int) -> tuple[Knot, Knot, Knot, Knot]:
    """Block n's knots a_n, b_n and c_n and the a_{n+1} that closes it,
    each a Knot(x, f0(x)); a_{n+1} is made at n = DENSE_LIMIT too."""
    _check_dense(n)
    lam = log_nat(n, precision_bits)
    a, a_next = (Knot(a_position(k), Fraction(2, 1 << (3 * k * k))) for k in (n, n + 1))
    b = a.x + a_position(m_of(n)) * lam * lam
    return a, Knot(b, a.f / lam), Knot((a_next.x + b) / 2, a.f), a_next


def _knot(kind: str, n: int, precision_bits: int) -> Knot:
    """The knot of a kind in block n: the one kind dispatch behind
    `knot_position` and `knot_value`.  A bad n is refused before a bad kind."""
    if kind in ("d", "s"):
        return threshold_knots(n, precision_bits)[kind == "s"]
    block = _block(n, precision_bits)
    if kind not in ("a", "b", "c"):
        raise ValueError(f"unknown knot kind {kind!r} (expected one of {KNOT_KINDS})")
    return block[KNOT_KINDS.index(kind)]


def knot_position(kind: str, n: int, precision_bits: int = DEFAULT_PRECISION) -> Fraction:
    """Exact abscissa of a knot, for n within the dense limit."""
    return _knot(kind, n, precision_bits).x


def knot_value(kind: str, n: int, precision_bits: int = DEFAULT_PRECISION) -> Fraction:
    """Exact unnormalized value f0 at a knot, for n within the dense limit."""
    return _knot(kind, n, precision_bits).f


def knot_logf(kind: str, n: int,
              precision_bits: int = DEFAULT_PRECISION) -> LogValue:
    """log2 of f0 at a knot, valid at any n (no dense materialization).

    a/c knots give exactly 1 - 3*n*n; b knots subtract log2(L_n); d/s knots
    subtract half of it (their value is f0(b_n) * sqrt(L_n)).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    base = Fraction(1 - 3 * n * n)
    if kind in ("a", "c"):
        return LogValue(base)
    log2_lam = log2_snap(log_nat(n, precision_bits), precision_bits)
    if kind == "b":
        return LogValue(base - log2_lam)
    if kind in ("d", "s"):
        if n < 2:
            raise ValueError("threshold knots are undefined for n=1")
        return LogValue(base - log2_lam / 2)
    raise ValueError(f"unknown knot kind {kind!r} (expected one of {KNOT_KINDS})")


def threshold_knots(n: int,
                    precision_bits: int = DEFAULT_PRECISION) -> tuple[Knot, Knot]:
    """The crossings d_n in (b_n, c_n] and s_n in (c_n, a_{n+1}] where f0
    equals f0(b_n) * sqrt(L_n) (square root snapped, crossing exact).

    Undefined for n=1: L_1 < 1 puts the target on the wrong side of f0(b_1).
    """
    a, b, c, a_next = _block(n, precision_bits)
    if n < 2:
        raise ValueError(
            f"threshold knots need n >= 2 (L_1 = ln 2 < 1 flips the target), got {n!r}")
    target = b.f * root_snap(log_nat(n, precision_bits), 2, precision_bits)
    if not b.f < target < a.f:
        raise ValueError(f"threshold target out of range at n={n}")
    d_x = b.x + (target - b.f) * (c.x - b.x) / (a.f - b.f)
    s_x = c.x + (c.f - target) * (a_next.x - c.x) / (c.f - a_next.f)
    return Knot(d_x, target), Knot(s_x, target)


class NotchedDensity(namedtuple("NotchedDensity",
                                "truncation_n dense precision_bits prefix_masses")):
    """Dense truncation of the construction over [0, a_{N+1}].

    ``dense`` is the unnormalized f0 (3N+1 linear segments).
    ``prefix_masses[n-1]`` is its exact integral over [0, a_{n+1}], the mass
    of truncation n, so that ``truncate`` cuts every smaller truncation out
    of one build; ``mass`` is the last entry.  The normalized view is
    available on demand, in O(1): it shares ``dense``'s coefficients under
    the factor ``1/mass``.
    """

    __slots__ = ()

    @property
    def mass(self) -> Fraction:
        return self.prefix_masses[-1]

    def density(self) -> PiecewisePoly:
        return self.dense.scale(1 / self.mass)

    def truncate(self, n: int) -> "NotchedDensity":
        """The build at truncation n <= N: its first 3n+1 segments.

        Equal to ``build_density(n)`` with the same precision; it shares this
        build's values instead of computing them again.
        """
        if not isinstance(n, int) or not 1 <= n <= self.truncation_n:
            raise ValueError(f"truncation {n!r} is outside 1..{self.truncation_n}")
        return NotchedDensity(truncation_n=n, dense=self.dense.head(3 * n + 1),
                              precision_bits=self.precision_bits,
                              prefix_masses=self.prefix_masses[:n])

    def check_block(self, n: int) -> None:
        """Raise ValueError unless block n lies inside the truncation."""
        if not 1 <= n <= self.truncation_n:
            raise ValueError(f"block {n} is not materialized "
                             f"(N={self.truncation_n})")

    def omitted_tail_bound(self) -> Fraction:
        """Upper bound on the unnormalized mass dropped by truncation.

        The first omitted block integrates to at most f0(a_{N+1}) * a_{N+2},
        and later blocks shrink by more than a factor 2 each, so twice that
        bounds the whole tail.
        """
        n = self.truncation_n
        return 2 * _block(n, self.precision_bits)[3].f * a_position(n + 2)


def build_density(truncation_n: int,
                  precision_bits: int = DEFAULT_PRECISION) -> NotchedDensity:
    """Materialize the construction for n = 1..N over [0, a_{N+1}]."""
    n_top = truncation_n
    if not isinstance(n_top, int) or n_top < 1:
        raise ValueError(f"truncation index must be a positive integer, got {n_top!r}")
    if n_top + 1 > DENSE_LIMIT:
        raise ValueError(
            f"truncation index {n_top} needs knots beyond the dense limit {DENSE_LIMIT}")
    blocks = [_block(n, precision_bits) for n in range(1, n_top + 1)]
    a_1 = blocks[0][0]
    knots = [Knot(0, 1), a_1]
    # The trapezoid rule is exact on linear segments, and f0(a_n) = f0(c_n)
    # folds block n's first two trapezoids into one over [a_n, c_n].  After
    # block n the running mass is the mass of truncation n.
    mass = a_1.x * (1 + a_1.f) / 2
    prefix_masses = []
    for a, b, c, a_next in blocks:
        knots += [b, c, a_next]
        mass += ((c.x - a.x) * (a.f + b.f) + (a_next.x - c.x) * (c.f + a_next.f)) / 2
        prefix_masses.append(mass)
    return NotchedDensity(truncation_n=n_top, dense=from_linear_knots(knots),
                          precision_bits=precision_bits,
                          prefix_masses=tuple(prefix_masses))
