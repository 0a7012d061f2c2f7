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
W V (x-z)_+^3 / 6`` at ``z = s + t``.  A product with a zero jump factor
is skipped: a continuous density jumps in value only at its support ends,
so most pairs add slope terms alone.  Every pairwise sum still enters the
grid, also when all of its terms are zero.  When P and Q are the same
lists, the pairs ``(s, t)`` and ``(t, s)`` add the same terms, so only the
pairs with ``s`` at or before ``t`` are visited and those with ``s != t``
count twice.  One sweep over the sorted sums keeps a running cubic in the
local variable ``u = x - z``: at each sum it is Taylor-shifted by the step
from the previous sum and the new terms are added.  That running cubic is
the output cell's coefficients, so every intermediate stays the size of an
output coefficient; a cubic in global ``x`` would carry ``z**3``-sized
terms that cancel only at the end.  The work is O(pairs + cells).

``conv_point(P, Q, x, y_lo, y_hi)`` evaluates the windowed convolution
integral at one abscissa without building the dense object.  It walks the
y-range once, cut at every Q breakpoint and every reflected P breakpoint
``x - s``, and tracks the segment of each factor that owns the current cell.
A cell ``[u, v]`` is integrated from the factors' endpoint values,

    (v - u) * (2 A_u B_u + A_u B_v + A_v B_u + 2 A_v B_v) / 6,

where ``A`` and ``B`` are the owning segments' linears at the cell ends (at
a jump, the owning segment's own limit).  These are of the size of the
function values, where an antiderivative in ``y`` would difference cubes of
``y``.  The cell values are added in a balanced tree, so each addition
meets operands of like size.  When P and Q are the same lists and the
clipped window is symmetric about ``x/2``, so is the integrand: the walk
stops at ``x/2`` and the result is doubled.  Its rationals travel through
the hot loop as plain ``(num, den)`` int pairs (den > 0, gcd-reduced) to
avoid per-operation Fraction overhead; Fractions appear only at the API
boundary.
"""

from fractions import Fraction
from functools import cmp_to_key
from math import gcd

_ZERO = (0, 1)


def _add(a, b):
    """a + b, with gcds taken on denominator-sized numbers (Knuth 4.5.1)."""
    an, ad = a
    bn, bd = b
    g = gcd(ad, bd)
    s = ad // g
    n = an * (bd // g) + bn * s
    if n == 0:
        return _ZERO
    g2 = gcd(n, g)
    return n // g2, s * (bd // g2)


def _sub(a, b):
    return _add(a, (-b[0], b[1]))


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


_by_value = cmp_to_key(_cmp)


def _pairs(values):
    out = []
    for v in values:
        f = Fraction(v)
        out.append((f.numerator, f.denominator))
    return out


def _balanced_sum(values):
    """Sum of int pairs, added pairwise so that operands stay of like size."""
    while len(values) > 1:
        paired = [_add(a, b) for a, b in zip(values[::2], values[1::2])]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0]


def conv_point(p_breaks, p_c0, p_c1, q_breaks, q_c0, q_c1, x, y_lo, y_hi):
    """Exact value of the windowed convolution integral at x.

    Integrates P(x-y) * Q(y) over y in [y_lo, y_hi] clipped to the region
    where both factors are inside their supports.  Passing the same three
    lists for P and Q declares the operands identical.
    """
    same = p_breaks is q_breaks and p_c0 is q_c0 and p_c1 is q_c1
    sb, pc0, pc1 = _pairs(p_breaks), _pairs(p_c0), _pairs(p_c1)
    if same:
        tb, qc0, qc1 = sb, pc0, pc1
    else:
        tb, qc0, qc1 = _pairs(q_breaks), _pairs(q_c0), _pairs(q_c1)
    xp, lo, hi = _pairs([x, y_lo, y_hi])

    wlo = max(lo, tb[0], _sub(xp, sb[-1]), key=_by_value)
    whi = min(hi, tb[-1], _sub(xp, sb[0]), key=_by_value)
    if _cmp(whi, wlo) <= 0:
        return Fraction(0)
    # P(x-y) P(y) is symmetric about y = x/2: on a window symmetric about
    # x/2, integrate its lower half and double
    double = same and _add(wlo, whi) == xp
    if double:
        whi = _mul(xp, (1, 2))

    def p_at(i, y):
        return _add(pc0[i], _mul(pc1[i], _sub(_sub(xp, y), sb[i])))

    def q_at(j, y):
        return _add(qc0[j], _mul(qc1[j], _sub(y, tb[j])))

    # the cell [u, v] lies in Q's segment j, (tb[j], tb[j+1]), and in P's
    # segment i, which covers y in (x - sb[i+1], x - sb[i])
    j = 0
    while _cmp(tb[j + 1], wlo) <= 0:
        j += 1
    i = len(sb) - 2
    while _cmp(_sub(xp, sb[i]), wlo) <= 0:
        i -= 1
    u, a_u, b_u = wlo, p_at(i, wlo), q_at(j, wlo)
    cells = []
    while True:
        q_next = tb[j + 1]
        p_next = _sub(xp, sb[i])
        v = min(whi, q_next, p_next, key=_by_value)
        a_v, b_v = p_at(i, v), q_at(j, v)
        # h * (2 A_u B_u + A_u B_v + A_v B_u + 2 A_v B_v), the /6 comes last
        s = _add(_mul(a_u, _add(_add(b_u, b_u), b_v)),
                 _mul(a_v, _add(b_u, _add(b_v, b_v))))
        cells.append(_mul(_sub(v, u), s))
        if v == whi:
            break
        # past a breakpoint, the next cell starts from the next segment's
        # limit, which differs from this one's at a jump
        if v == q_next:
            j += 1
            b_v = q_at(j, v)
        if v == p_next:
            i -= 1
            a_v = p_at(i, v)
        u, a_u, b_u = v, a_v, b_v
    num, den = _balanced_sum(cells)
    return Fraction(2 * num if double else num, 6 * den)


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
    its local variable x - breakpoint.  Passing the same three lists for P
    and Q declares the operands identical.
    """
    zero = Fraction(0)
    same = p_breaks is q_breaks and p_c0 is q_c0 and p_c1 is q_c1
    p_jumps = _jumps(p_breaks, p_c0, p_c1)
    q_jumps = p_jumps if same else _jumps(q_breaks, q_c0, q_c1)
    terms = {}
    for a, (s, j, w) in enumerate(p_jumps):
        # identical operands: the pair (a, b), b > a, stands for (b, a) too
        start, j2, w2 = (a, j + j, w + w) if same else (0, j, w)
        for b in range(start, len(q_jumps)):
            t, k, v = q_jumps[b]
            jb, wb = (j, w) if b == a else (j2, w2)
            # coefficients of (x-z)_+, (x-z)_+^2/2 and (x-z)_+^3/6, z = s+t;
            # a sum whose terms are all zero still cuts the grid
            acc = terms.setdefault(s + t, [zero, zero, zero])
            if jb:
                if k:
                    acc[0] += jb * k
                if v:
                    acc[1] += jb * v
            if wb:
                if k:
                    acc[1] += wb * k
                if v:
                    acc[2] += wb * v

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
