"""The two-sided mixture and its blow-up atom schedule.

The negative part of the mixture is the law of ``-X2`` where ``X2`` places
mass ``c * L(n_m)**(-1/3)`` on an interval pinned between the threshold
knots of block ``n_m``, along the schedule ``n_m = floor(exp(m**4))``.
Each interval's mass is carried by a single atom at the interval midpoint
(any placement inside the interval preserves the blow-up bound, and an atom
keeps every convolution exact).

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
from tailkit.notched import NotchedDensity, knot_logf, knot_position, threshold_knots
from tailkit.numerics import _RND, DEFAULT_PRECISION, libmp, log_nat, root_snap
from tailkit.piecewise import _brief, _fmt
from tailkit.render import decimal_str

RESIDUAL_FRACTION = Fraction(1, 20)
RESIDUAL_VALUE = Fraction(1)


class AtomList(namedtuple("AtomList", "atoms residual")):
    """Atoms of X2: (value, mass) pairs plus a residual atom.

    ``atoms`` holds (value, mass) pairs and ``residual`` one pair.  ``value``
    is None for atoms whose position is beyond any dense support (they still
    carry mass).  Masses and the residual sum to 1 exactly.
    """

    __slots__ = ()

    def __new__(cls, atoms: tuple, residual: tuple):
        total = residual[1]
        if residual[0] <= 0 or residual[1] < 0:
            raise ValueError("residual atom needs a positive value and mass >= 0")
        for v, p in atoms:
            if p <= 0:
                raise ValueError(f"atom masses must be positive, got {p}")
            if v is not None and v <= 0:
                raise ValueError(f"atom values must be positive, got {v}")
            total += p
        if total != 1:
            raise ValueError(f"atom masses plus residual must equal 1, got {total}")
        return super().__new__(cls, atoms, residual)


class MixtureSpec(namedtuple("MixtureSpec", "q1 q2 f1 f2")):
    """Weights and parts of the two-sided distribution.

    ``f1`` is the absolutely continuous positive part, a NotchedDensity;
    ``f2`` the discrete negative part, an AtomList of the positive values
    of X2.
    """

    __slots__ = ()

    def __new__(cls, q1: Fraction, q2: Fraction, f1: NotchedDensity, f2: AtomList):
        q1, q2 = Fraction(q1), Fraction(q2)
        if not (0 < q1 <= 1) or q1 + q2 != 1:
            raise ValueError("need q1 in (0, 1] with q1 + q2 = 1")
        return super().__new__(cls, q1, q2, f1, f2)


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


def atom_list(schedule: BlowupSchedule) -> AtomList:
    atoms = tuple((e.value, e.mass) for e in schedule.entries)
    return AtomList(atoms=atoms, residual=(RESIDUAL_VALUE, schedule.residual_mass))


def mixture_from_schedule(schedule: BlowupSchedule, f1: NotchedDensity) -> MixtureSpec:
    """The mixture with equal weights q1 = q2 = 1/2."""
    half = Fraction(1, 2)
    return MixtureSpec(q1=half, q2=half, f1=f1, f2=atom_list(schedule))


def mixture_cross_mass(mix: MixtureSpec, x, d) -> Fraction:
    """F1*F2 window mass alone (the blow-up numerator), without weights."""
    x, d = Fraction(x), Fraction(d)
    if d <= 0:
        raise ValueError(f"window width must be positive, got {_brief(d)}")
    f = mix.f1.density()
    cross = Fraction(0)
    for v, p in mix.f2.atoms:
        if v is not None:
            cross += p * f.interval_mass(x + v, d)
    v_res, p_res = mix.f2.residual
    if p_res:
        cross += p_res * f.interval_mass(x + v_res, d)
    return cross


def schedule_csv_lines(schedule: BlowupSchedule) -> list[str]:
    lines = ["m,n_m,mass,log2_f_b,lower_bound"]
    for e in schedule.entries:
        lines.append(",".join([
            str(e.m), _fmt(e.n_m), decimal_str(e.mass),
            decimal_str(e.logf_b.log2mag), decimal_str(e.lower_bound)]))
    lines.append(f"residual,,{decimal_str(schedule.residual_mass)},,")
    return lines
