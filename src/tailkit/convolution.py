"""Convolution engines over the exact kernel.

Three exact routes and one mixture route:

* ``conv_linear_exact``: full piecewise-cubic convolution of two
  piecewise-linear functions (the kernel's dense sweep).
* ``self_conv_value`` / ``conv_window_value``: single-abscissa values,
  optionally over a restricted y-window, without building the dense object.
* ``split_integrals``: the two-piece split of the self-convolution at
  ``a_{m(n)}``, whose parts reassemble the full integral exactly.
* ``mixture_local_conv``: the window mass of the two-sided mixture's
  self-convolution for positive abscissas, where the negative*negative
  term vanishes.

The kernel always sees the stored coefficients, never the factor of a
:class:`PiecewisePoly`: each entry point applies ``p.factor * q.factor``
once to its result, so a normalized density convolves at the cost of its
short-denominator coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from tailkit import kernel
from tailkit.mixture import MixtureSpec
from tailkit.notched import a_position, m_of
from tailkit.piecewise import PiecewisePoly


def _linear_table(p: PiecewisePoly):
    c0s, c1s = [], []
    for seg in p.coeffs:
        if seg[2] != 0 or seg[3] != 0:
            raise ValueError("convolution inputs must be piecewise linear")
        c0s.append(seg[0])
        c1s.append(seg[1])
    return list(p.breakpoints), c0s, c1s


def conv_linear_exact(p: PiecewisePoly, q: PiecewisePoly) -> PiecewisePoly:
    """Exact piecewise-cubic representation of the convolution p*q.

    Output breakpoints are all pairwise sums of input breakpoints,
    deduplicated with exact equality.
    """
    pb, pc0, pc1 = _linear_table(p)
    # the same lists tell the kernel that the operands are identical
    qb, qc0, qc1 = (pb, pc0, pc1) if q is p else _linear_table(q)
    breaks, coeffs = kernel.conv_dense(pb, pc0, pc1, qb, qc0, qc1)
    return PiecewisePoly(tuple(breaks), tuple(coeffs), continuous=True,
                         density=p.density and q.density,
                         factor=p.factor * q.factor)


def conv_window_value(p: PiecewisePoly, q: PiecewisePoly, x,
                      y_lo, y_hi) -> Fraction:
    """Integral of p(x-y) q(y) over [y_lo, y_hi], clipped to both supports.

    A window that the supports clip to nothing gives 0; a reversed one,
    y_lo > y_hi, is an error, as it is for ``PiecewisePoly.integral``.
    """
    x, y_lo, y_hi = Fraction(x), Fraction(y_lo), Fraction(y_hi)
    if y_lo > y_hi:
        raise ValueError(f"reversed bounds: {y_lo} > {y_hi}")
    pb, pc0, pc1 = _linear_table(p)
    # the same lists tell the kernel that the operands are identical
    qb, qc0, qc1 = (pb, pc0, pc1) if q is p else _linear_table(q)
    value = kernel.conv_point(pb, pc0, pc1, qb, qc0, qc1, x, y_lo, y_hi)
    return value * (p.factor * q.factor)


def self_conv_value(p: PiecewisePoly, x) -> Fraction:
    """(p*p)(x) at a single abscissa."""
    x = Fraction(x)
    lo, hi = p.support
    if not 2 * lo <= x <= 2 * hi:
        raise ValueError(f"{x} is outside the self-convolution support "
                         f"[{2 * lo}, {2 * hi}]")
    return conv_window_value(p, p, x, lo, hi)


def split_integrals(f: PiecewisePoly, n: int, x) -> tuple[Fraction, Fraction]:
    """(I1, I2) with I1 over y in [0, a_m], I2 over [a_m, x - a_m], m = m(n).

    Requires x in (a_n, a_{n+1}] and x - a_m >= a_m, so the three-piece
    partition [0,a_m] + [a_m, x-a_m] + [x-a_m, x] is valid and
    2*I1 + I2 reassembles the full self-convolution at x exactly.
    """
    x = Fraction(x)
    if not a_position(n) < x <= a_position(n + 1):
        raise ValueError(f"x={x} is not inside block {n}")
    cut = a_position(m_of(n))
    if x - cut < cut:
        raise ValueError(f"x={x} violates x - a_m >= a_m for block {n}")
    i1 = conv_window_value(f, f, x, Fraction(0), cut)
    i2 = conv_window_value(f, f, x, cut, x - cut)
    return i1, i2


def self_conv_window_mass(p: PiecewisePoly, x, d) -> Fraction:
    """Mass of p*p over (x, x+d] clamped to its support, exactly.

    p*p is one cubic between consecutive pairwise sums of p's breakpoints,
    so Simpson's rule is exact on each such piece of the window; its end
    and midpoint values come from point evaluation.  The cost grows with
    the number of pairwise sums inside the window, not with the whole
    dense convolution.
    """
    x, d = Fraction(x), Fraction(d)
    if d <= 0:
        raise ValueError(f"window width must be positive, got {d}")
    lo, hi = p.support
    w_lo, w_hi = max(x, 2 * lo), min(x + d, 2 * hi)
    if w_hi <= w_lo:
        return Fraction(0)
    breaks = p.breakpoints
    cuts = {s + t for i, s in enumerate(breaks) for t in breaks[i:]
            if w_lo < s + t < w_hi}
    grid = sorted(cuts | {w_lo, w_hi})

    def value(t):
        return conv_window_value(p, p, t, lo, hi)

    total = Fraction(0)
    left = value(grid[0])
    for u, v in zip(grid, grid[1:]):
        right = value(v)
        total += (v - u) * (left + 4 * value((u + v) / 2) + right)
        left = right
    return total / 6


def mixture_local_conv(mix: MixtureSpec, x, d) -> Fraction:
    """Window mass of the mixture's self-convolution over (x, x+d], x > 0.

    q1^2 * (f1*f1 mass) + 2 q1 q2 * sum of atom-shifted f1 masses.  Atoms
    whose position is beyond the dense support contribute nothing here (the
    shift pushes them past the truncation), as does the vanishing
    negative*negative term.
    """
    x, d = Fraction(x), Fraction(d)
    if x <= 0:
        raise ValueError("x must be positive: for x <= 0 the omitted "
                         "negative*negative term would contribute")
    if d <= 0:
        raise ValueError(f"window width must be positive, got {d}")
    self_mass = self_conv_window_mass(mix.f1.density(), x, d)
    return (mix.q1 ** 2 * self_mass
            + 2 * mix.q1 * mix.q2 * mixture_cross_mass(mix, x, d))


def mixture_cross_mass(mix: MixtureSpec, x, d) -> Fraction:
    """F1*F2 window mass alone (the blow-up numerator), without weights."""
    x, d = Fraction(x), Fraction(d)
    if d <= 0:
        raise ValueError(f"window width must be positive, got {d}")
    f = mix.f1.density()
    cross = Fraction(0)
    for v, p in mix.f2.atoms:
        if v is not None:
            cross += p * f.interval_mass(x + v, d)
    v_res, p_res = mix.f2.residual
    if p_res:
        cross += p_res * f.interval_mass(x + v_res, d)
    return cross
