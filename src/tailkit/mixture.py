"""The two-sided mixture's blow-up schedule, which is the law of X2.

The mixture weighs the notched density f1 and the law of ``-X2`` by 1/2
each.  ``X2`` places mass ``c * L(n_m)**(-1/3)`` on an interval pinned
between the threshold knots of block ``n_m``, along the schedule
``n_m = floor(exp(m**4))``.  Each interval's mass is carried by a single
atom at the interval midpoint (any placement inside the interval preserves
the blow-up bound, and an atom keeps every convolution exact).  The
schedule's entries and its residual atom at RESIDUAL_VALUE are X2's atoms,
whose masses sum to 1 exactly.

Only the m=1 atom has a materializable position; for m >= 2 the block index
``n_m`` is astronomically large, so those entries are kept symbolically:
their masses and the diverging lower-bound series ``c * L(n_m)**(1/6)`` are
exact rationals built from snapped constants, while their positions (never
needed for the series) stay unmaterialized.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Optional

from tailkit.errors import PrecisionFailure
from tailkit.notched import knot_logf, knot_position, threshold_knots
from tailkit.numerics import _RND, DEFAULT_PRECISION, libmp, log_nat, root_snap
from tailkit.piecewise import PiecewisePoly, _brief, _fmt
from tailkit.render import decimal_str

RESIDUAL_FRACTION = Fraction(1, 20)
RESIDUAL_VALUE = Fraction(1)


# One atom of the schedule: m, its block n_m, mass, value (the position of
# the X2 atom when dense, else None), logf_b (the LogValue log2 f0 at
# b_{n_m}) and lower_bound (c * L(n_m)**(1/6)).
ScheduleEntry = namedtuple("ScheduleEntry", "m n_m mass value logf_b lower_bound")

BlowupSchedule = namedtuple("BlowupSchedule",
                            "m_max entries c residual_mass precision_bits")


def schedule_index(m: int, precision_bits: int = DEFAULT_PRECISION) -> int:
    """floor(exp(m**4)) with a certified floor.

    Precision is raised until the fractional part is provably farther from
    the integers than the evaluation error bound.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    lm = libmp()
    k = m ** 4
    wp = max(precision_bits, 3 * k // 2 + 192)
    for _ in range(8):
        # the libmp calls of mpmath's exp(k), floor(v), v - fl,
        # ldexp(1, mag(v) - wp + 4) and 1 - frac at wp bits
        v = lm.mpf_exp(lm.from_int(k), wp, _RND)
        fl = lm.mpf_floor(v, wp, _RND)
        frac = lm.mpf_sub(v, fl, wp, _RND)
        err = lm.mpf_shift(lm.fone, v[2] + v[3] - wp + 4)
        if lm.mpf_gt(frac, err) and lm.mpf_gt(lm.mpf_sub(lm.fone, frac, wp, _RND), err):
            return int(lm.to_int(fl))
        wp *= 2
    raise PrecisionFailure(f"could not certify floor(exp({k}))")


def build_schedule(m_max: int, precision_bits: int = DEFAULT_PRECISION) -> BlowupSchedule:
    """Atom masses c * L(n_m)**(-1/3) with c normalizing them to
    1 - RESIDUAL_FRACTION exactly; the residual parks the remaining mass at
    X2 = 1, where it only adds a benign shifted-density term."""
    if not isinstance(m_max, int) or m_max < 1:
        raise ValueError(f"m_max must be a positive integer, got {m_max!r}")
    indices = [schedule_index(m, precision_bits) for m in range(1, m_max + 1)]
    cbrt = [root_snap(log_nat(n, precision_bits), 3, precision_bits) for n in indices]
    inv_sum = sum(1 / u for u in cbrt)
    c = (1 - RESIDUAL_FRACTION) / inv_sum

    entries = []
    for m, n_m, u in zip(range(1, m_max + 1), indices, cbrt):
        if m == 1:
            d_knot, s_knot = threshold_knots(n_m, precision_bits)
            b = knot_position("b", n_m, precision_bits)
            value: Optional[Fraction] = (d_knot.x + s_knot.x) / 2 - b
        else:
            value = None
        entries.append(ScheduleEntry(
            m=m, n_m=n_m, mass=c / u, value=value,
            logf_b=knot_logf("b", n_m, precision_bits),
            lower_bound=c * root_snap(log_nat(n_m, precision_bits), 6,
                                      precision_bits)))
    residual_mass = 1 - sum(e.mass for e in entries)
    return BlowupSchedule(m_max=m_max, entries=tuple(entries), c=c,
                          residual_mass=residual_mass,
                          precision_bits=precision_bits)


def mixture_cross_mass(schedule: BlowupSchedule, f: PiecewisePoly, x, d) -> Fraction:
    """Window mass over (x, x+d] of f convolved with the law of -X2 (the
    blow-up numerator, without the mixture's weights): each atom shifts f's
    window by its value.  Entries whose value is None are beyond the dense
    support and contribute nothing."""
    x, d = Fraction(x), Fraction(d)
    if d <= 0:
        raise ValueError(f"window width must be positive, got {_brief(d)}")
    atoms = [(e.value, e.mass) for e in schedule.entries if e.value is not None]
    atoms.append((RESIDUAL_VALUE, schedule.residual_mass))
    return sum((p * f.interval_mass(x + v, d) for v, p in atoms), Fraction(0))


def schedule_csv_lines(schedule: BlowupSchedule) -> list[str]:
    lines = ["m,n_m,mass,log2_f_b,lower_bound"]
    for e in schedule.entries:
        lines.append(",".join([
            str(e.m), _fmt(e.n_m), decimal_str(e.mass),
            decimal_str(e.logf_b.log2mag), decimal_str(e.lower_bound)]))
    lines.append(f"residual,,{decimal_str(schedule.residual_mass)},,")
    return lines
