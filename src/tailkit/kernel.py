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
stops at ``x/2`` and the result is doubled.

Both routes compute on ``fractions.Fraction``: inputs are converted once
at the boundary, and every intermediate is an exact, reduced rational.
"""

from fractions import Fraction


def _balanced_sum(values):
    """Sum added pairwise, so that operands stay of like size."""
    while len(values) > 1:
        paired = [a + b for a, b in zip(values[::2], values[1::2])]
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
    sb, pc0, pc1 = [[Fraction(v) for v in vs] for vs in (p_breaks, p_c0, p_c1)]
    if same:
        tb, qc0, qc1 = sb, pc0, pc1
    else:
        tb, qc0, qc1 = [[Fraction(v) for v in vs]
                        for vs in (q_breaks, q_c0, q_c1)]
    x, lo, hi = Fraction(x), Fraction(y_lo), Fraction(y_hi)

    wlo = max(lo, tb[0], x - sb[-1])
    whi = min(hi, tb[-1], x - sb[0])
    if whi <= wlo:
        return Fraction(0)
    # P(x-y) P(y) is symmetric about y = x/2: on a window symmetric about
    # x/2, integrate its lower half and double
    double = same and wlo + whi == x
    if double:
        whi = x / 2

    # the cell [u, v] lies in Q's segment j, (tb[j], tb[j+1]), and in P's
    # segment i, which covers y in (x - sb[i+1], r) with r = x - sb[i]; r is
    # the next cut, and P(x - y) = pc0[i] + pc1[i] * (r - y)
    j = 0
    while tb[j + 1] <= wlo:
        j += 1
    i = len(sb) - 2
    r = x - sb[i]
    while r <= wlo:
        i -= 1
        r = x - sb[i]
    u = wlo
    a_u = pc0[i] + pc1[i] * (r - u)
    b_u = qc0[j] + qc1[j] * (u - tb[j])
    cells = []
    while True:
        q_next = tb[j + 1]
        v = min(whi, q_next, r)
        a_v = pc0[i] + pc1[i] * (r - v)
        b_v = qc0[j] + qc1[j] * (v - tb[j])
        # h * (2 A_u B_u + A_u B_v + A_v B_u + 2 A_v B_v), the /6 comes last
        cells.append((v - u) * (a_u * (b_u + b_u + b_v)
                                + a_v * (b_u + b_v + b_v)))
        if v == whi:
            break
        # past a breakpoint, the next cell starts from the next segment's
        # limit, which differs from this one's at a jump
        if v == q_next:
            j += 1
            b_v = qc0[j] + qc1[j] * (v - tb[j])
        if v == r:
            i -= 1
            r = x - sb[i]
            a_v = pc0[i] + pc1[i] * (r - v)
        u, a_u, b_u = v, a_v, b_v
    total = _balanced_sum(cells)
    return (total + total if double else total) / 6


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
