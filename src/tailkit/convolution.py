"""Exact convolution of piecewise-linear functions over rationals.

Two independent exact routes to the same integral, and what is built on
them.  The kernel reads piecewise functions alone; integrals that need a
construction too, such as the notched split at ``a_{m(n)}``, are probes.

* ``conv_linear_exact``: the full piecewise-cubic p*q (the dense sweep).
  ``dense_sweep`` makes its cells one at a time, so that ``tailkit
  convolve`` writes each as it is made (``piecewise.dump_cells``).
* ``conv_window_value`` / ``self_conv_value``: a value at one abscissa,
  optionally over a y-window, without the dense object (the point walk).
* ``self_conv_window_mass``: the mass of p*p over a window, exact by
  Simpson's rule on each cubic piece, from point walks.

The sweep writes each operand in truncated powers, ``sum_i J_i (x -
s_i)_+^0 + W_i (x - s_i)_+^1`` (jumps in value and slope at ``s_i``,
support ends included).  As ``(x - s)_+^a / a! * (x - t)_+^b / b! = (x -
s - t)_+^(a+b+1) / (a+b+1)!``, each breakpoint pair adds ``J K (x-z)_+ +
(J V + W K) (x-z)_+^2 / 2 + W V (x-z)_+^3 / 6`` at ``z = s + t``.  A
continuous density jumps in value only at its support ends, so most pairs
add slope terms alone: zero products are skipped, but every sum enters the
grid.  Jumps are ``(n, e, k)`` triples (below), and a pair's term of
``u**i`` is ``(i, n, e, k)``: the /2 and /6 are ``e + 1`` and ``3k``.  For
``q is p`` each unordered pair is visited once.  One sweep over the sorted
sums Taylor-shifts a running cubic in ``u = x - z`` from sum to sum: it is
each cell's coefficients, in O(pairs + cells), where a cubic in ``x``
would carry ``z**3``-sized terms that cancel only at the end.

Both routes compute in integers, a rational as ``n / (2**e k)``, k odd:
equal odd parts add by a shift, where ``Fraction`` spends a gcd on every
operation.  The sweep's cubic has an exponent per coefficient and one odd
``q`` for all four, which takes an odd part only when it does not divide
``q``; no step between the notched density's dyadic knots has one.  Each
cell is reduced once as it is yielded.  The walk integrates by runs: a run
ends at a reflected breakpoint ``x - s`` of p, so on it p(x - y) is one
linear ``alpha - beta y`` and the run gives ``alpha M0 - beta M1``, with
``M0`` and ``M1`` q's masses and first moments over it.  A piece of q takes
them from the line's end values, each reduced once: the slope's long odd
part cancels there.  Unequal odd parts meet at their lcm, and sums are
added in balanced trees, so operands are of like size.  Nothing else is
reduced until the window value, one ``Fraction``.  A whole segment's
moments are cached on q and shared with the copies ``scale`` and ``head``
make; so is a self-convolution's value over its clipped window, which is
then walked once whichever copy asks.  A self-convolution on a window
symmetric about ``x/2`` stops there and doubles.  Both routes read stored
coefficients, never the factor, and apply ``p.factor * q.factor`` once,
and the window mass ``p.factor ** 2``: a normalized density convolves at
the cost of its short coefficients.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd

from tailkit.piecewise import PiecewisePoly, _brief


def _linear(p: PiecewisePoly):
    """p's breakpoints and its per-segment c0 and c1 lists."""
    c0s, c1s = [], []
    for seg in p.coeffs:
        if seg[2] != 0 or seg[3] != 0:
            raise ValueError("convolution inputs must be piecewise linear")
        c0s.append(seg[0])
        c1s.append(seg[1])
    return p.breakpoints, c0s, c1s


def _jumps(breaks, c0, c1):
    """(s_i, J_i, W_i) per breakpoint: the jumps in value and in slope,
    each as an (n, e, k) triple.

    A piecewise-linear function that vanishes outside its support equals
    sum_i J_i (x - s_i)_+^0 + W_i (x - s_i)_+^1; both support ends count.
    """
    zero = Fraction(0)
    right = list(zip(c0, c1))
    left = [(zero, zero)] + [(v + w * (b - a), w)
                             for (v, w), a, b in zip(right, breaks, breaks[1:])]
    right.append((zero, zero))
    return [(s, _dyadic(rv - lv), _dyadic(rw - lw))
            for s, (rv, rw), (lv, lw) in zip(breaks, right, left)]


def dense_sweep(p: PiecewisePoly, q: PiecewisePoly):
    """The dense sweep of p*q: checked and set up now, its cells to come.

    Returns ``(grid, cells, factor)``, the arguments of its
    ``PiecewisePoly`` and of ``piecewise.dump_cells``: the sorted pairwise
    sums of the breakpoints; an iterator that makes one coefficient
    quadruple per cell, in the cell's local variable ``x - z``, as the
    sweep reaches it; and ``p.factor * q.factor``.  An operand that is not
    piecewise linear is refused here, before any cell is made.
    """
    same = q is p
    p_linear = _linear(p)
    q_linear = p_linear if same else _linear(q)
    p_jumps = _jumps(*p_linear)
    q_jumps = p_jumps if same else _jumps(*q_linear)
    terms = {}
    for a, (s, (jn, je, jk), (wn, we, wk)) in enumerate(p_jumps):
        # identical operands: the pair (a, b), b > a, stands for (b, a) too
        start, j2, w2 = (a, jn + jn, wn + wn) if same else (0, jn, wn)
        for b in range(start, len(q_jumps)):
            t, (kn, ke, kk), (vn, ve, vk) = q_jumps[b]
            j, w = (jn, wn) if b == a else (j2, w2)
            # (i, n, e, k): n / (2**e k) u**i, u = x - z, z = s + t, with the
            # /2 and /6; a sum whose terms are all zero still cuts the grid
            acc = terms.setdefault(s + t, [])
            if j:
                if kn:
                    acc.append((1, j * kn, je + ke, jk * kk))
                if vn:
                    acc.append((2, j * vn, je + ve + 1, jk * vk))
            if w:
                if kn:
                    acc.append((2, w * kn, we + ke + 1, wk * kk))
                if vn:
                    acc.append((3, w * vn, we + ve + 1, 3 * wk * vk))
    grid = sorted(terms)
    return grid, _cells(grid, terms), p.factor * q.factor


def _twos(n: int) -> int:
    """The exponent of 2 in the nonzero integer n."""
    return (n & -n).bit_length() - 1


def _align(x, ax, y, ay):
    """x / 2**ax + y / 2**ay, as a numerator over the larger power."""
    if not y:
        return x, ax
    if not x:
        return y, ay
    if ax < ay:
        return (x << (ay - ax)) + y, ay
    return x + (y << (ax - ay)), ax


def _shift(n, a, m, e):
    """Taylor-shift the cubic with coefficients n[i] / 2**a[i], in place,
    by the dyadic step h = m / 2**e: c0 += ((c3 h + c2) h + c1) h, c1 +=
    (3 c3 h + 2 c2) h, c2 += 3 c3 h."""
    t, at = n[3] * m, a[3] + e
    s, as_ = _align(t, at, n[2], a[2])
    s, as_ = _align(s * m, as_ + e, n[1], a[1])
    n[0], a[0] = _align(n[0], a[0], s * m, as_ + e)
    r, ar = _align(3 * t, at, 2 * n[2], a[2])
    n[1], a[1] = _align(n[1], a[1], r * m, ar + e)
    n[2], a[2] = _align(n[2], a[2], 3 * t, at)


def _fraction(numerator: int, denominator: int) -> Fraction:
    """numerator/denominator, already in lowest terms with a positive
    denominator, as a Fraction made without the gcd that ``Fraction(n, d)``
    spends to find 1."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = numerator, denominator
    return value


def _dyadic(f: Fraction):
    """f as (n, e, k), f = n / (2**e * k) with k odd, by a bit count."""
    e = _twos(f.denominator)
    return f.numerator, e, f.denominator >> e


def _add(a, b, sign=1):
    """a + sign * b in (n, e, k) form, over the lcm of the odd parts."""
    (an, ae, ak), (bn, be, bk) = a, b
    if ak != bk and an and bn:
        g = gcd(ak, bk)
        an, bn, bk = an * (bk // g), bn * (ak // g), ak // g * bk
    n, e = _align(an, ae, sign * bn, be)
    return n, e, bk if bn else ak


def _mul(a, b):
    return a[0] * b[0], a[1] + b[1], a[2] * b[2]


def _balanced_sum(values):
    """Sum added pairwise, so that operands stay of like size."""
    while len(values) > 1:
        paired = [_add(a, b) for a, b in zip(values[::2], values[1::2])]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0]


def _moments(u, v, lo, c0, c1):
    """6 * (mass, first moment) over [u, v] of c0 + c1 (y - lo), in (n, e,
    k) form: 3 h s and h (u (s + b_u) + v (s + b_v)), with h = v - u, b_u
    and b_v the line's end values and s = b_u + b_v."""
    lo, c0, c1, u, v = map(_dyadic, (lo, c0, c1, u, v))
    ends = []
    for y in (u, v):  # each end value is reduced: the slope's odd part cancels
        n, e, k = _add(c0, _mul(c1, _add(y, lo, -1)))
        g = gcd(n, k)
        ends.append((n // g, e, k // g))
    (b_u, b_v), h = ends, _add(v, u, -1)
    s = _add(b_u, b_v)
    return (_mul(h, (3 * s[0], s[1], s[2])),
            _mul(h, _add(_mul(u, _add(s, b_u)), _mul(v, _add(s, b_v)))))


def _cells(grid, terms):
    """The sweep proper: one running cubic, shifted from sum to sum; each
    sum's terms are dropped from ``terms`` once they are added.
    Coefficient i is n[i] / (2**a[i] * q), q odd (see the module
    docstring); the running cubic keeps the form each cell is reduced to."""
    n, a, q = [0, 0, 0, 0], [0, 0, 0, 0], 1
    prev = grid[0]
    for z in grid[:-1]:
        h = z - prev
        if h:
            m, e, k = _dyadic(h)
            if k == 1:
                _shift(n, a, m, e)
            else:
                # in v = k u the step is the dyadic m / 2**e: scale c_i by
                # k**-i over q k**3, shift, and scale back by k**i
                k2 = k * k
                k3 = k2 * k
                q *= k3
                n[0] *= k3
                n[1] *= k2
                n[2] *= k
                _shift(n, a, m, e)
                n[1] *= k
                n[2] *= k2
                n[3] *= k3
        for i, num, e, r in terms.pop(z):
            s, rest = divmod(q, r)  # the term's scale over q
            if rest:  # q becomes lcm(q, r) = s r, with s = q / gcd(q, r)
                d = gcd(q, r)
                s = q // d
                n = [c * (r // d) for c in n]
                q = s * r
            n[i], a[i] = _align(n[i], a[i], num * s, e)
        # lowest terms: strip each numerator's twos against its exponent; q
        # drops the factor all four share, then each numerator its own with q
        for i, c in enumerate(n):
            if c:
                t = min(_twos(c), a[i])
                n[i], a[i] = c >> t, a[i] - t
            else:
                a[i] = 0
        g = [gcd(c, q) for c in n]
        common = gcd(*g)
        if common > 1:
            n = [c // common for c in n]
            q //= common
            g = [gi // common for gi in g]
        yield tuple(_fraction(c // gi, q // gi << ai) for c, gi, ai in zip(n, g, a))
        prev = z


def conv_linear_exact(p: PiecewisePoly, q: PiecewisePoly) -> PiecewisePoly:
    """Exact piecewise-cubic representation of the convolution p*q.

    Output breakpoints are all pairwise sums of input breakpoints,
    deduplicated with exact equality; each cell's coefficients are in its
    local variable x - breakpoint.
    """
    return PiecewisePoly(*dense_sweep(p, q))


def conv_window_value(p: PiecewisePoly, q: PiecewisePoly, x,
                      y_lo, y_hi) -> Fraction:
    """Integral of p(x-y) q(y) over [y_lo, y_hi], clipped to both supports.

    A window that the supports clip to nothing gives 0; a reversed one,
    y_lo > y_hi, is an error, as it is for ``PiecewisePoly.integral``.
    """
    x, y_lo, y_hi = Fraction(x), Fraction(y_lo), Fraction(y_hi)
    if y_lo > y_hi:
        raise ValueError(f"reversed bounds: {_brief(y_lo)} > {_brief(y_hi)}")
    same = q is p
    sb, pc0, pc1 = _linear(p)
    tb, qc0, qc1 = (sb, pc0, pc1) if same else _linear(q)

    wlo = max(y_lo, tb[0], x - sb[-1])
    whi = min(y_hi, tb[-1], x - sb[0])
    if whi <= wlo:
        return Fraction(0)
    # a self-convolution's value over the clipped window, before the
    # factor, is kept beside the segment moments: every copy sharing the
    # cache shares the coefficients on that window and its reflection
    cache, key = q._moment_cache, (x, wlo, whi)
    if same and key in cache:
        return cache[key] * (p.factor * q.factor)
    # p(x-y) p(y) is symmetric about y = x/2: on a window symmetric about
    # x/2, integrate its lower half and double
    double = same and wlo + whi == x
    if double:
        whi = x / 2

    # the run [u, v] lies in p's segment i, which covers y in
    # (x - sb[i+1], r), r = x - sb[i], where p(x - y) = pc0[i] + pc1[i] *
    # (r - y); the piece from u lies in q's segment j
    j = bisect_right(tb, wlo) - 1
    i = bisect_left(sb, x - wlo) - 1
    r = x - sb[i]
    u, runs = wlo, []
    while True:
        v = min(whi, r)
        ms = []
        while True:
            lo, hi = tb[j], tb[j + 1]
            end = min(v, hi)
            if u == lo and end == hi:
                if j not in cache:
                    cache[j] = _moments(lo, hi, lo, qc0[j], qc1[j])
                ms.append(cache[j])
            else:
                ms.append(_moments(u, end, lo, qc0[j], qc1[j]))
            if end == v:
                break
            j, u = j + 1, hi
        m0, m1 = map(_balanced_sum, zip(*ms))
        beta = _dyadic(pc1[i])
        alpha = _add(_dyadic(pc0[i]), _mul(beta, _dyadic(r)))
        runs.append(_add(_mul(alpha, m0), _mul(beta, m1), -1))
        if v == whi:
            break
        if v == tb[j + 1]:
            j += 1
        i -= 1
        u, r = v, x - sb[i]
    # total / 6, or total / 3 when doubled, as one Fraction reduced once
    n, e, k = _balanced_sum(runs)
    value = Fraction(n, 3 * k << (e + (not double)))
    if same:
        cache[key] = value
    return value * (p.factor * q.factor)


def self_conv_value(p: PiecewisePoly, x) -> Fraction:
    """(p*p)(x) at a single abscissa."""
    x = Fraction(x)
    lo, hi = p.support
    if not 2 * lo <= x <= 2 * hi:
        raise ValueError(f"{_brief(x)} is outside the self-convolution support "
                         f"[{_brief(2 * lo)}, {_brief(2 * hi)}]")
    return conv_window_value(p, p, x, lo, hi)


def self_conv_window_mass(p: PiecewisePoly, x, d) -> Fraction:
    """Mass of p*p over (x, x+d] clamped to its support, exactly.

    p*p is one cubic between consecutive pairwise sums of p's breakpoints,
    so Simpson's rule is exact on each such piece of the window.  Its end
    and midpoint values are walks of the stored coefficients, and the total
    takes ``p.factor ** 2`` once.  Two bisects per breakpoint find the sums
    inside the window: the cost grows with their number alone.
    """
    x, d = Fraction(x), Fraction(d)
    if d <= 0:
        raise ValueError(f"window width must be positive, got {_brief(d)}")
    lo, hi = p.support
    w_lo, w_hi = max(x, 2 * lo), min(x + d, 2 * hi)
    if w_hi <= w_lo:
        return Fraction(0)
    b, cuts = p.breakpoints, {w_lo, w_hi}
    for i, s in enumerate(b):  # the t >= s with w_lo < s + t < w_hi
        first, stop = bisect_right(b, w_lo - s, i), bisect_left(b, w_hi - s, i)
        cuts.update(s + t for t in b[first:stop])
    grid = sorted(cuts)
    stored = p.scale(1 / p.factor) if p.factor else p  # shares p's cache

    def value(t):
        return conv_window_value(stored, stored, t, lo, hi)

    total = Fraction(0)
    left = value(grid[0])
    for u, v in zip(grid, grid[1:]):
        right = value(v)
        total += (v - u) * (left + 4 * value((u + v) / 2) + right)
        left = right
    return total / 6 * p.factor ** 2
