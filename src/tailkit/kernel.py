"""Exact convolution kernel over rationals.

Two entry points, a dense sweep and a point evaluation, which are
independent exact routes to the same integral.

``conv_dense(P, Q)`` builds the full piecewise-cubic convolution of two
piecewise-linear functions.  Each operand is written in truncated powers,
``sum_i J_i (x - s_i)_+^0 + W_i (x - s_i)_+^1``, where ``J_i`` and ``W_i``
are its jumps in value and in slope at breakpoint ``s_i`` (support ends and
interior discontinuities included).  Since

    (x - s)_+^a / a!  *  (x - t)_+^b / b!  =  (x - s - t)_+^(a+b+1) / (a+b+1)!

every breakpoint pair adds ``J K (x-z)_+ + (J V + W K) (x-z)_+^2 / 2 +
W V (x-z)_+^3 / 6`` at ``z = s + t``.  One sweep over the sorted sums keeps
a running cubic in the local variable ``u = x - z``: at each sum it is
Taylor-shifted by the step from the previous sum and the new terms are
added.  That running cubic is the output cell's coefficients, so every
intermediate stays the size of an output coefficient; a cubic in global
``x`` would carry ``z**3``-sized terms that cancel only at the end.  The
work is O(pairs + cells).

``conv_point(P, Q, x, y_lo, y_hi)`` evaluates the windowed convolution
integral at one abscissa without building the dense object: the y-range is
cut at every Q breakpoint and every reflected P breakpoint, and each cell
integrates a product of two linears in closed form.  Its rationals travel
through the hot loop as plain ``(num, den)`` int pairs (den > 0,
gcd-reduced) to avoid per-operation Fraction overhead; Fractions appear only
at the API boundary.
"""

from fractions import Fraction
from math import gcd

_ZERO = (0, 1)


def _norm(n, d):
    if n == 0:
        return _ZERO
    g = gcd(n, d)
    if g > 1:
        return n // g, d // g
    return n, d


def _add(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        return _norm(an + bn, ad)
    return _norm(an * bd + bn * ad, ad * bd)


def _sub(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        return _norm(an - bn, ad)
    return _norm(an * bd - bn * ad, ad * bd)


def _mul(a, b):
    an, ad = a
    bn, bd = b
    if an == 0 or bn == 0:
        return _ZERO
    g1 = gcd(an, bd)
    g2 = gcd(bn, ad)
    return (an // g1) * (bn // g2), (ad // g2) * (bd // g1)


def _cmp(a, b):
    v = a[0] * b[1] - b[0] * a[1]
    return (v > 0) - (v < 0)


def _pairs(values):
    out = []
    for v in values:
        f = Fraction(v)
        out.append((f.numerator, f.denominator))
    return out


def _cell_value(alpha, p1, beta, q1, u, v):
    """Integral over y in [u, v] of (alpha - p1*y) * (beta + q1*y)."""
    u2 = _mul(u, u)
    v2 = _mul(v, v)
    d1 = _sub(v, u)
    d2 = _sub(v2, u2)
    d3 = _sub(_mul(v2, v), _mul(u2, u))
    total = _mul(_mul(alpha, beta), d1)
    lin = _sub(_mul(alpha, q1), _mul(p1, beta))
    total = _add(total, _mul(lin, (d2[0], d2[1] * 2)))
    pq = _mul(p1, q1)
    return _sub(total, _mul(pq, (d3[0], d3[1] * 3)))


def _owner(breaks, x):
    """Index of the segment (breaks[i], breaks[i+1]] owning x (x strictly
    inside the support and never equal to an interior cut by construction)."""
    lo, hi = 0, len(breaks) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _cmp(breaks[mid], x) < 0:
            lo = mid
        else:
            hi = mid
    return lo


def conv_point(p_breaks, p_c0, p_c1, q_breaks, q_c0, q_c1, x, y_lo, y_hi):
    """Exact value of the windowed convolution integral at x.

    Integrates P(x-y) * Q(y) over y in [y_lo, y_hi] clipped to the region
    where both factors are inside their supports.
    """
    sb = _pairs(p_breaks)
    tb = _pairs(q_breaks)
    pc0 = _pairs(p_c0)
    pc1 = _pairs(p_c1)
    qc0 = _pairs(q_c0)
    qc1 = _pairs(q_c1)
    xf = Fraction(x)
    xp = (xf.numerator, xf.denominator)
    lo = _pairs([y_lo])[0]
    hi = _pairs([y_hi])[0]

    key = lambda p: Fraction(p[0], p[1])
    wlo = max(lo, tb[0], _sub(xp, sb[-1]), key=key)
    whi = min(hi, tb[-1], _sub(xp, sb[0]), key=key)
    if _cmp(whi, wlo) <= 0:
        return Fraction(0)

    cuts = {wlo, whi}
    for t in tb:
        if _cmp(wlo, t) < 0 and _cmp(t, whi) < 0:
            cuts.add(t)
    for s in sb:
        y = _sub(xp, s)
        if _cmp(wlo, y) < 0 and _cmp(y, whi) < 0:
            cuts.add(y)
    grid = sorted(cuts, key=lambda p: Fraction(p[0], p[1]))

    total = _ZERO
    for u, v in zip(grid, grid[1:]):
        half_sum = _add(u, v)
        mid = _norm(half_sum[0], half_sum[1] * 2)
        j = _owner(tb, mid)
        i = _owner(sb, _sub(xp, mid))
        alpha = _add(pc0[i], _mul(pc1[i], _sub(xp, sb[i])))
        beta = _sub(qc0[j], _mul(qc1[j], tb[j]))
        total = _add(total, _cell_value(alpha, pc1[i], beta, qc1[j], u, v))
    return Fraction(total[0], total[1])


# ------------------------- dense convolution -------------------------

def _jumps(breaks, c0, c1):
    """(s_i, J_i, W_i) per breakpoint: the jumps in value and in slope.

    A piecewise-linear function that vanishes outside its support equals
    sum_i J_i (x - s_i)_+^0 + W_i (x - s_i)_+^1; both support ends count.
    """
    zero = Fraction(0)
    breaks = [Fraction(s) for s in breaks]
    right = [(Fraction(v), Fraction(w)) for v, w in zip(c0, c1)]
    left = [(zero, zero)] + [(v + w * (b - a), w)
                             for (v, w), a, b in zip(right, breaks, breaks[1:])]
    right.append((zero, zero))
    return [(s, rv - lv, rw - lw)
            for s, (rv, rw), (lv, lw) in zip(breaks, right, left)]


def conv_dense(p_breaks, p_c0, p_c1, q_breaks, q_c0, q_c1):
    """Full piecewise-cubic convolution of two piecewise-linear functions.

    Returns (breakpoints, coefficient quadruples): the breakpoints are every
    pairwise sum of input breakpoints, and each cell's coefficients are in
    its local variable x - breakpoint.
    """
    zero = Fraction(0)
    q_jumps = _jumps(q_breaks, q_c0, q_c1)
    terms = {}
    for s, j, w in _jumps(p_breaks, p_c0, p_c1):
        for t, k, v in q_jumps:
            # coefficients of (x-z)_+, (x-z)_+^2/2 and (x-z)_+^3/6, z = s+t;
            # a sum whose terms cancel still cuts the grid
            acc = terms.setdefault(s + t, [zero, zero, zero])
            acc[0] += j * k
            acc[1] += j * v + w * k
            acc[2] += w * v

    grid = sorted(terms)
    c0 = c1 = c2 = c3 = zero
    coeffs = []
    prev = grid[0]
    for z in grid[:-1]:
        # Taylor-shift the running cubic to u = x - z, then add z's terms
        h = z - prev
        c3h = c3 * h
        c0 += ((c3h + c2) * h + c1) * h
        c1 += (3 * c3h + 2 * c2) * h
        c2 += 3 * c3h
        first, second, third = terms[z]
        c1 += first
        c2 += second / 2
        c3 += third / 6
        coeffs.append((c0, c1, c2, c3))
        prev = z
    return grid, coeffs
