"""Piecewise polynomials on a bounded support, with exact calculus.

A :class:`PiecewisePoly` is a strictly increasing breakpoint sequence plus
one coefficient quadruple per segment, written in the local variable
``u = x - x_lo`` of that segment, and one exact ``factor``: the value is
``factor * polynomial``.  Degree is capped at 3: the only product this
package ever needs is the convolution of two linear pieces.

The factor keeps normalization free.  A density's ``1/mass`` usually has a
far longer denominator than its coefficients; dividing it into every
coefficient would drag that denominator through all later arithmetic, so
``normalize`` and ``scale`` change the factor alone, and evaluation and
integration apply it once per result.

Segment ownership is left-continuous: segment ``i`` owns ``(x_i, x_{i+1}]``
and the first segment additionally owns the left support end, so the value
at an interior breakpoint is the left segment's.  All operations are pure
and exact over ``Fraction``; instances are immutable.

Serialization streams: :func:`dump_cells` alone picks the format, knot
lines or segment lines, from the values it writes, and yields the text one
line at a time; the CLI writes each line as it is made.  ``tailkit
convolve`` hands it the dense sweep's cells as the sweep makes them
(``convolution.dense_sweep``).  It holds cells only while knot lines are
still possible, so an exact result of megabytes, cubic from its first
cell, is held neither as text nor as coefficients.  Every file it writes
loads back to the function written.  The inputs of
``convolve`` are checked before the output file is opened, so a rejected
input leaves an existing file as it was; a sweep cut short leaves a
partial file, as a cut-short write always could.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Sequence

from tailkit.numerics import _cut, _quoted, _rational


class Knot(namedtuple("Knot", "x f")):
    """A breakpoint together with the function value there."""

    __slots__ = ()

    def __new__(cls, x, f):
        return super().__new__(cls, Fraction(x), Fraction(f))


class PiecewisePoly:
    def __init__(self, breakpoints: Iterable, coeffs: Iterable,
                 factor: Fraction = Fraction(1)):
        breaks = tuple(Fraction(x) for x in breakpoints)
        if len(breaks) < 2:
            raise ValueError("need at least two breakpoints")
        for a, b in zip(breaks, breaks[1:]):
            if not a < b:
                raise ValueError(
                    f"breakpoints must strictly increase ({_brief(a)} !< {_brief(b)})")
        coeffs = tuple(
            tuple(Fraction(c) for c in seg) + (Fraction(0),) * (4 - len(seg))
            for seg in coeffs)
        if len(coeffs) != len(breaks) - 1:
            raise ValueError("segment count must be breakpoint count - 1")
        for seg in coeffs:
            if len(seg) != 4:
                raise ValueError("segments take at most 4 coefficients (degree <= 3)")
        # _moment_cache: segment moments and self-convolution window values
        # for the point walk; the copies below share it
        self.__dict__.update(breakpoints=breaks, coeffs=coeffs,
                             factor=Fraction(factor), _moment_cache={})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _replace(self, **fields) -> "PiecewisePoly":
        # a copy with the given fields changed, which must leave it valid;
        # it shares the rest, the breakpoints and coefficients too: O(1)
        out = object.__new__(PiecewisePoly)
        out.__dict__.update(self.__dict__, **fields)
        return out

    def head(self, segments: int) -> "PiecewisePoly":
        """The first ``segments`` segments, on the support they cover.

        A prefix of a validated polynomial is valid, so it shares this
        instance's values in O(segments).
        """
        if not 1 <= segments <= len(self.coeffs):
            raise ValueError(f"a prefix takes 1..{len(self.coeffs)} segments, "
                             f"got {segments}")
        return self._replace(breakpoints=self.breakpoints[:segments + 1],
                             coeffs=self.coeffs[:segments])

    def _times_factor(self, value: Fraction) -> Fraction:
        return value if self.factor == 1 else value * self.factor

    def scaled_coeffs(self) -> tuple[tuple[Fraction, ...], ...]:
        """Coefficients of the represented function, factor applied."""
        if self.factor == 1:
            return self.coeffs
        return tuple(tuple(c * self.factor for c in seg) for seg in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        if self.breakpoints != other.breakpoints:
            return False
        if self.factor == other.factor:
            return self.coeffs == other.coeffs
        return self.scaled_coeffs() == other.scaled_coeffs()

    def __hash__(self):
        return hash((self.breakpoints, self.scaled_coeffs()))

    # ------------------------------------------------------------------
    @property
    def support(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

    def _segment_of(self, x: Fraction) -> int:
        lo, hi = self.support
        if x < lo or x > hi:
            raise ValueError(f"{_brief(x)} is outside the support "
                             f"[{_brief(lo)}, {_brief(hi)}]")
        idx = bisect_left(self.breakpoints, x) - 1
        return max(idx, 0)

    def eval(self, x) -> Fraction:
        """Exact value at x; left-continuous at interior breakpoints."""
        x = Fraction(x)
        i = self._segment_of(x)
        u = x - self.breakpoints[i]
        c0, c1, c2, c3 = self.coeffs[i]
        return self._times_factor(((c3 * u + c2) * u + c1) * u + c0)

    def _segment_integral(self, i: int, u_lo: Fraction, u_hi: Fraction) -> Fraction:
        c0, c1, c2, c3 = self.coeffs[i]

        def anti(u: Fraction) -> Fraction:
            return (((c3 * u / 4 + Fraction(c2, 3)) * u + c1 / 2) * u + c0) * u

        return anti(u_hi) - anti(u_lo)

    def integral(self, lo, hi) -> Fraction:
        """Exact integral over [lo, hi]; additive in the bounds."""
        lo, hi = Fraction(lo), Fraction(hi)
        s_lo, s_hi = self.support
        if lo > hi:
            raise ValueError(f"reversed bounds: {_brief(lo)} > {_brief(hi)}")
        if lo < s_lo or hi > s_hi:
            raise ValueError(f"[{_brief(lo)}, {_brief(hi)}] exceeds the support "
                             f"[{_brief(s_lo)}, {_brief(s_hi)}]")
        total = Fraction(0)
        breaks = self.breakpoints
        i = max(bisect_left(breaks, lo) - 1, 0)
        while i < len(self.coeffs) and breaks[i] < hi:
            a = max(breaks[i], lo)
            b = min(breaks[i + 1], hi)
            if b > a:
                total += self._segment_integral(i, a - breaks[i], b - breaks[i])
            i += 1
        return self._times_factor(total)

    def interval_mass(self, x, d) -> Fraction:
        """Mass over (x, x+d] clamped to the support; 0 when disjoint."""
        x, d = Fraction(x), Fraction(d)
        if d <= 0:
            raise ValueError(f"window width must be positive, got {_brief(d)}")
        s_lo, s_hi = self.support
        lo = max(x, s_lo)
        hi = min(x + d, s_hi)
        if hi <= lo:
            return Fraction(0)
        return self.integral(lo, hi)

    # No command calls total_mass or normalize: perfbench/tracer.py wraps
    # both, and perfbench/workloads.py checks outputs with total_mass.
    def total_mass(self) -> Fraction:
        return self.integral(*self.support)

    def normalize(self) -> tuple["PiecewisePoly", Fraction]:
        """Scale to unit mass; returns (scaled function, original mass)."""
        mass = self.total_mass()
        if mass <= 0:
            raise ValueError(f"cannot normalize: total mass {mass} is not positive")
        return self._replace(factor=self.factor / mass), mass

    def scale(self, k) -> "PiecewisePoly":
        return self._replace(factor=self.factor * Fraction(k))


def from_linear_knots(knots: Iterable) -> PiecewisePoly:
    """Linear interpolation through knots, one degree-1 segment per gap.

    Evaluation at every knot abscissa reproduces the knot value exactly.
    """
    pts = [(Fraction(x), Fraction(f)) for x, f in knots]
    if len(pts) < 2:
        raise ValueError("need at least two knots")
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        if not x0 < x1:
            raise ValueError(
                f"knot abscissas must strictly increase ({_brief(x0)} !< {_brief(x1)})")
    for _, f in pts:
        if f < 0:
            raise ValueError(f"knot values must be nonnegative, got {_brief(f)}")
    breaks = tuple(x for x, _ in pts)
    coeffs = []
    for (x0, f0), (x1, f1) in zip(pts, pts[1:]):
        slope = (f1 - f0) / (x1 - x0)
        coeffs.append((f0, slope, Fraction(0), Fraction(0)))
    return PiecewisePoly(breaks, tuple(coeffs))


# --------------------------- serialization ---------------------------
#
# One knot or segment per line:
#   knot <x> <f>
#   seg <x_lo> <x_hi> <c0> <c1> <c2> <c3>
# Values are exact base-10 rational strings ("5", "-3/7"); lines starting
# with '#' are comments, the '# flags:' line of an older file among them:
# the values alone are the function, so load(dump(P)) reproduces P exactly.
# A value with an exponent is refused on load: the format never writes one,
# and a file value is otherwise read as any rational the CLI reads, by
# numerics._rational.
#
# The text must not depend on sys.get_int_max_str_digits(): str() and
# Fraction() refuse integers with more digits than that limit, so _fmt, the
# one exact writer, and numerics._rational, the one reader, send only those
# values through Decimal, which converts integers of any size.

def _fmt(q: Fraction) -> str:
    """The exact text of a rational or int, of any length."""
    try:
        return str(q)
    except ValueError:
        from decimal import Decimal
        num = str(Decimal(q.numerator))
        return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


def _brief(q: Fraction) -> str:
    """A rational or int for an error message: its exact text, cut as
    ``numerics._cut`` cuts."""
    return _cut(_fmt(q))


def dump_lines(p: PiecewisePoly) -> Iterator[str]:
    """Serialize the represented function, one newline-ended line at a
    time (see :func:`dump_cells`)."""
    return dump_cells(p.breakpoints, p.coeffs, p.factor)


def dump_cells(breaks: Sequence[Fraction], cells: Iterable,
               factor: Fraction) -> Iterator[str]:
    """Serialize the function ``factor * cells`` on ``breaks``, one
    newline-ended line at a time.

    ``cells`` yields one coefficient quadruple per segment, in order, and
    is read once; the factor is applied coefficient by coefficient.  A
    function whose cells are linear (or whose factor is 0), meet at every
    interior breakpoint and are nowhere negative is written as knot lines,
    any other as segment lines: the values tested are the values written.
    The cells are held only while knot lines are still possible; at the
    first cell that rules them out, the held cells are written as segment
    lines, and every later line is made from its cell as the cell arrives.
    """
    yield "# tailkit piecewise v1\n"
    one = factor == 1

    def scaled(c: Fraction) -> Fraction:
        return c if one else c * factor

    cells = iter(cells)
    # while knot lines are possible: the cells, and each one's value at its
    # left end, which its knot line writes for the cell before it too
    held, values = [], []
    for lo, hi, seg in zip(breaks, breaks[1:], cells):
        held.append(seg)
        c0, c1, c2, c3 = seg
        start = scaled(c0)
        if start < 0 or (values and start != end) or (factor and (c2 or c3)):
            break
        values.append(start)
        end = scaled(c0 + c1 * (hi - lo))
    else:
        if end >= 0:
            for x, f in zip(breaks, values + [end]):
                yield f"knot {_fmt(x)} {_fmt(f)}\n"
            return
    for lo, hi, seg in zip(breaks, breaks[1:], chain(held, cells)):
        yield " ".join(["seg", _fmt(lo), _fmt(hi)]
                       + [_fmt(scaled(c)) for c in seg]) + "\n"


def load_lines(lines: Sequence[str]) -> PiecewisePoly:
    """The function a piecewise text describes, read from its knot or seg
    lines alone; every ``#`` line is a comment, an older file's
    ``# flags:`` line too."""
    knots: list[list[Fraction]] = []
    segs: list[list[Fraction]] = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not ((parts[0] == "knot" and len(parts) == 3)
                or (parts[0] == "seg" and len(parts) == 7)):
            raise ValueError(f"unrecognized piecewise line: {_quoted(raw)}")
        values = []
        for v in parts[1:]:
            try:
                if "e" in v or "E" in v:
                    raise ValueError("it has an exponent")
                values.append(_rational(v))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational {_quoted(v)} in piecewise line "
                                 f"{_quoted(raw)}: {_cut(str(exc))}") from None
        if parts[0] == "knot":
            knots.append(values)
        else:
            segs.append(values)
    if knots and segs:
        raise ValueError("a piecewise file may not mix knot and seg lines")
    if knots:
        return from_linear_knots(knots)
    if not segs:
        raise ValueError("no knot or seg lines found")
    breaks = [segs[0][0]]
    coeffs = []
    for seg in segs:
        if seg[0] != breaks[-1]:
            raise ValueError("seg lines must be contiguous and ordered")
        breaks.append(seg[1])
        coeffs.append(tuple(seg[2:]))
    return PiecewisePoly(tuple(breaks), tuple(coeffs))


def dump_text(p: PiecewisePoly) -> str:
    return "".join(dump_lines(p))


def load_text(text: str) -> PiecewisePoly:
    return load_lines(text.splitlines())
