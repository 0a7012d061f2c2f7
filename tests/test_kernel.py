"""Exact convolution properties.

The dense sweep and the single-point evaluator are two independent exact
routes to the same integral, so they must agree to the last bit.
"""

from fractions import Fraction
from math import gcd

import pytest
from conftest import linear_operands, small_fractions
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tailkit import convolution as conv
from tailkit.piecewise import (PiecewisePoly, dump_text, from_linear_knots,
                               load_text)

UNIFORM = from_linear_knots([(0, 1), (1, 1)])
TRIANGLE = from_linear_knots([(0, 0), (1, 1), (2, 0)])


KNOTS = small_fractions(0, 20, max_denominator=8)
VALUES = small_fractions(0, 4, max_denominator=8)
JUMP_KNOTS = small_fractions(-6, 12, max_denominator=8)
COEFFS = small_fractions(-4, 4, max_denominator=8)


def random_density(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    xs = draw(st.lists(KNOTS, min_size=n, max_size=n, unique=True))
    fs = [draw(VALUES) for _ in range(n)]
    if all(f == 0 for f in fs):
        fs[0] = Fraction(1)
    return from_linear_knots(list(zip(sorted(xs), fs)))


def random_jump_function(draw):
    """Seg-built piecewise linear with signed values and an interior jump."""
    n = draw(st.integers(min_value=2, max_value=5))
    xs = draw(st.lists(JUMP_KNOTS, min_size=n + 1, max_size=n + 1, unique=True))
    segs = [[draw(COEFFS), draw(COEFFS)] for _ in range(n)]
    xs.sort()
    k = draw(st.integers(min_value=1, max_value=n - 1))
    left_limit = segs[k - 1][0] + segs[k - 1][1] * (xs[k] - xs[k - 1])
    jump = draw(COEFFS.filter(lambda v: v != 0))
    segs[k][0] = left_limit + jump
    return PiecewisePoly(tuple(xs), tuple(map(tuple, segs)))


densities = st.composite(random_density)()
jump_functions = st.composite(random_jump_function)()
points = small_fractions(0, 40, max_denominator=32)
unit = small_fractions(0, 1, max_denominator=64)
factors = st.fractions(min_value="1/64", max_value=64, max_denominator=64)


def milne_oracle(p, q, x, y_lo, y_hi):
    """Integral of p(x-y) q(y) over [y_lo, y_hi], clipped, cell by cell.

    The cells are cut at q's breakpoints and p's reflected ones, so the
    integrand is one quadratic on each.  Milne's rule, the open Newton-Cotes
    rule on the three interior quarter points, is exact for cubics; it reads
    the integrand only through ``PiecewisePoly.eval`` inside a cell, so a
    jump at a cell end does not enter it.
    """
    lo = max(y_lo, q.support[0], x - p.support[1])
    hi = min(y_hi, q.support[1], x - p.support[0])
    if hi <= lo:
        return Fraction(0)
    cuts = {t for t in q.breakpoints if lo < t < hi}
    cuts.update(x - s for s in p.breakpoints if lo < x - s < hi)
    grid = sorted(cuts | {lo, hi})
    total = Fraction(0)
    for u, v in zip(grid, grid[1:]):
        f1, f2, f3 = (p.eval(x - y) * q.eval(y)
                      for y in (u + (v - u) * k / 4 for k in (1, 2, 3)))
        total += (v - u) * (2 * f1 - f2 + 2 * f3) / 3
    return total


class TestTextbookCases:
    def test_uniform_self_conv_is_triangle(self):
        got = conv.conv_linear_exact(UNIFORM, UNIFORM)
        assert list(got.breakpoints) == [0, 1, 2]
        for x in (Fraction(1, 2), 1, Fraction(3, 2), 2):
            assert got.eval(x) == TRIANGLE.eval(x)

    def test_symmetry_points(self):
        got = conv.conv_linear_exact(UNIFORM, UNIFORM)
        assert got.eval(Fraction(1, 2)) == Fraction(1, 2)
        assert got.eval(Fraction(3, 2)) == Fraction(1, 2)

    def test_self_conv_value_matches(self):
        assert conv.self_conv_value(UNIFORM, 1) == 1

    def test_rejects_nonlinear_input(self):
        cubic = PiecewisePoly((Fraction(0), Fraction(1)),
                              ((Fraction(0), Fraction(0), Fraction(0), Fraction(1)),))
        with pytest.raises(ValueError):
            conv.conv_linear_exact(cubic, cubic)
        # distinct operands: each one is checked, in either argument order
        for p, q in ((cubic, UNIFORM), (UNIFORM, cubic)):
            with pytest.raises(ValueError, match="piecewise linear"):
                conv.conv_linear_exact(p, q)
            with pytest.raises(ValueError, match="piecewise linear"):
                conv.conv_window_value(p, q, Fraction(1, 2), 0, 1)

    def test_out_of_domain_point(self):
        with pytest.raises(ValueError):
            conv.self_conv_value(UNIFORM, 3)

    @pytest.mark.parametrize("x, want", [(1, 1), (Fraction(1, 2), Fraction(1, 2))])
    @pytest.mark.parametrize("same", [True, False])
    def test_point_kernel_on_plain_ints_is_exact(self, x, want, same):
        # int breakpoints, coefficients and window, and an int x where it is
        # whole: neither the halving at x/2 nor the final /6 may give a float
        p = PiecewisePoly((0, 1), ((1, 0),))
        q = p if same else PiecewisePoly((0, 1), ((1, 0),))
        got = conv.conv_window_value(p, q, x, 0, 1)
        assert type(got) is Fraction and got == want


class TestProperties:
    @given(densities, densities)
    @settings(max_examples=40, deadline=None)
    def test_mass_conservation(self, p, q):
        got = conv.conv_linear_exact(p, q)
        assert got.total_mass() == p.total_mass() * q.total_mass()

    @given(densities, densities, points)
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, p, q, x):
        pq = conv.conv_linear_exact(p, q)
        qp = conv.conv_linear_exact(q, p)
        lo, hi = pq.support
        x = min(max(x, lo), hi)
        assert pq.eval(x) == qp.eval(x)

    @given(densities, points)
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_at_breakpoints_and_midpoints(self, p, x):
        got = conv.conv_linear_exact(p, p)
        for b in got.breakpoints:
            assert got.eval(b) >= 0
        lo, hi = got.support
        x = min(max(x, lo), hi)
        assert got.eval(x) >= 0

    @given(densities, points, st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_point_matches_dense(self, p, x, k):
        # the point route integrates up to x/2 and doubles; x/2 is drawn
        # anywhere and on a breakpoint of p
        dense = conv.conv_linear_exact(p, p)
        lo, hi = dense.support
        on_break = 2 * p.breakpoints[k % len(p.breakpoints)]
        for x in (min(max(x, lo), hi), on_break):
            assert conv.self_conv_value(p, x) == dense.eval(x)

    @given(jump_functions, jump_functions, unit)
    @settings(max_examples=60, deadline=None)
    def test_discontinuous_unequal_operands(self, p, q, fx):
        # interior value jumps: the dense sweep against point evaluation
        # at every output breakpoint and a drawn abscissa, and the masses
        assume(p != q)
        pq = conv.conv_linear_exact(p, q)
        lo, hi = pq.support
        for x in pq.breakpoints + (lo + (hi - lo) * fx,):
            assert pq.eval(x) == conv.conv_window_value(p, q, x, *q.support)
        assert pq.total_mass() == p.total_mass() * q.total_mass()

    @given(densities, points)
    @settings(max_examples=50, deadline=None)
    def test_continuity_at_internal_cells(self, p, x):
        dense = conv.conv_linear_exact(p, p)
        for i, b in enumerate(dense.breakpoints[1:-1], start=1):
            u = b - dense.breakpoints[i - 1]
            c0, c1, c2, c3 = dense.coeffs[i - 1]
            left_limit = ((c3 * u + c2) * u + c1) * u + c0
            assert left_limit == dense.coeffs[i][0]


# breakpoints in thirds and in fifths: the sweep's steps have odd
# denominators 3, 5 and 15, and the second operand jumps in value
THIRDS = PiecewisePoly([0, Fraction(1, 3), 1], [(0, 3), (1, Fraction(-3, 2))])
FIFTHS = PiecewisePoly([Fraction(-2, 5), Fraction(1, 5), 2],
                       [(Fraction(1, 5), 1), (Fraction(-3, 7), Fraction(2, 3))])


class TestLowestTerms:
    """The sweep reduces each cell once, as it yields it, and writes the
    Fractions' slots itself: every coefficient it yields must be in lowest
    terms with a positive denominator.  A comparison of values need not show
    an unreduced cell, which the writer would print as, say, ``2/4``."""

    @given(linear_operands(), linear_operands(), st.booleans())
    @settings(max_examples=80, deadline=None)
    @example(THIRDS, THIRDS, True)
    @example(THIRDS, FIFTHS, False)
    @example(FIFTHS, FIFTHS, True)
    def test_every_coefficient_is_in_lowest_terms(self, p, q, same):
        grid, cells, _ = conv.dense_sweep(p, p if same else q)
        cells = list(cells)
        assert len(cells) == len(grid) - 1
        for cell in cells:
            for c in cell:
                assert type(c) is Fraction
                assert c.denominator > 0
                assert gcd(c.numerator, c.denominator) == 1


class TestPointWindows:
    """The point route's half-window must double only symmetric windows of
    one operand, and read each cell from the segments that own it."""

    @given(jump_functions, unit, st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_self_conv_with_jumps(self, p, fx, k):
        # at a jump the cells on either side read different limits
        dense = conv.conv_linear_exact(p, p)
        lo, hi = dense.support
        on_break = 2 * p.breakpoints[k % len(p.breakpoints)]
        for x in (lo + (hi - lo) * fx, on_break):
            assert conv.self_conv_value(p, x) == dense.eval(x)

    @given(jump_functions, unit, unit)
    @settings(max_examples=60, deadline=None)
    def test_one_sided_windows_partition(self, p, fx, fc):
        # [lo, c] and [c, hi] are each clipped on one side only; their sum
        # is the full self-convolution
        dense = conv.conv_linear_exact(p, p)
        x = dense.support[0] + (dense.support[1] - dense.support[0]) * fx
        lo, hi = p.support
        c = lo + (hi - lo) * fc
        below = conv.conv_window_value(p, p, x, lo, c)
        above = conv.conv_window_value(p, p, x, c, hi)
        assert below + above == dense.eval(x)

    @given(jump_functions, unit, unit, unit)
    @settings(max_examples=60, deadline=None)
    def test_equal_but_distinct_operands(self, p, fx, f1, f2):
        # an equal copy takes the walk over the whole window
        twin = PiecewisePoly(p.breakpoints, p.coeffs)
        assert twin == p and twin is not p
        dense = conv.conv_linear_exact(p, p)
        x = dense.support[0] + (dense.support[1] - dense.support[0]) * fx
        lo, hi = p.support
        y_lo, y_hi = sorted((lo + (hi - lo) * f1, lo + (hi - lo) * f2))
        symmetric = tuple(sorted((y_lo, x - y_lo)))
        for window in ((lo, hi), (y_lo, y_hi), symmetric):
            assert (conv.conv_window_value(p, p, x, *window)
                    == conv.conv_window_value(p, twin, x, *window))
        assert conv.conv_window_value(p, twin, x, lo, hi) == dense.eval(x)


def dyadic_value():
    """m 2**-e / r with e up to 300 and r odd, and zero."""
    return st.one_of(st.just(Fraction(0)), st.builds(
        lambda m, e, r: Fraction(m, (2 * r + 1) << e),
        st.integers(-(1 << 40), 1 << 40), st.integers(0, 300),
        st.integers(0, 1 << 24)))


@st.composite
def dyadic_bulk(draw):
    """Breakpoints 2**(k*k) plus dyadic offsets below 1/4, with knot values
    or, with interior jumps, segment values and slopes from dyadic_value:
    odd parts meet powers of two of a few hundred bits."""
    ks = sorted(draw(st.lists(st.integers(0, 12), min_size=2, max_size=6,
                              unique=True)))
    xs = [(1 << k * k) + Fraction(draw(st.integers(-(1 << 20), 1 << 20)),
                                  1 << draw(st.integers(22, 200))) for k in ks]
    if draw(st.booleans()):
        return from_linear_knots([(x, abs(draw(dyadic_value()))) for x in xs])
    return PiecewisePoly(xs, [(draw(dyadic_value()), draw(dyadic_value()))
                              for _ in xs[1:]])


walk_operands = st.one_of(jump_functions, dyadic_bulk())


class TestRunWalk:
    """The point walk by runs against the cell-by-cell Milne oracle.

    Window ends are drawn anywhere, so they mostly cut a segment; a second
    call on the same operands reads the segment moments the first cached.
    The dyadic operands carry long powers of two beside odd denominators,
    so the walk's binary exponents must align.
    """

    @given(walk_operands, walk_operands, factors, unit, unit, unit)
    @settings(max_examples=80, deadline=None)
    def test_unequal_operands_with_jumps(self, p, q, s, fx, f1, f2):
        p = p.scale(s)
        lo, hi = p.support[0] + q.support[0], p.support[1] + q.support[1]
        x = lo + (hi - lo) * fx
        q_lo, q_hi = q.support
        y_lo, y_hi = sorted(q_lo - 1 + (q_hi - q_lo + 2) * f for f in (f1, f2))
        for window in ((y_lo, y_hi), q.support):
            assert (conv.conv_window_value(p, q, x, *window)
                    == milne_oracle(p, q, x, *window))

    @given(st.one_of(densities, jump_functions, dyadic_bulk()), unit, unit, unit)
    @settings(max_examples=80, deadline=None)
    def test_self_convolution(self, p, fx, f1, f2):
        # the symmetric window takes the halving at x/2
        lo, hi = p.support
        x = 2 * lo + 2 * (hi - lo) * fx
        y_lo, y_hi = sorted(lo + (hi - lo) * f for f in (f1, f2))
        symmetric = tuple(sorted((y_lo, x - y_lo)))
        windows = ((y_lo, y_hi), symmetric, p.support)
        wants = [milne_oracle(p, p, x, *window) for window in windows]
        assert [conv.conv_window_value(p, p, x, *window) for window in windows] == wants
        # box(hi - y) is one run over p's support, which caches every
        # segment's moments; an equal copy then walks each window unhalved,
        # reading them
        box = from_linear_knots([(0, 1), (hi - lo, 1)])
        assert (conv.conv_window_value(box, p, hi, lo, hi)
                == milne_oracle(box, p, hi, lo, hi))
        assert all(j in p._moment_cache for j in range(len(p.coeffs)))
        twin = PiecewisePoly(p.breakpoints, p.coeffs)
        assert [conv.conv_window_value(twin, p, x, *window) for window in windows] == wants

    @given(jump_functions, jump_functions, unit, unit,
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_head_reads_the_parent_cache(self, p, q, fx, f1, k):
        # q's prefix shares q's moments, cached by the walk over all of q
        lo, hi = p.support[0] + q.support[0], p.support[1] + q.support[1]
        x = lo + (hi - lo) * fx
        conv.conv_window_value(p, q, x, *q.support)
        head = q.head(min(k, len(q.coeffs)))
        assert head._moment_cache is q._moment_cache
        window = (head.support[0], head.support[0]
                  + (head.support[1] - head.support[0]) * f1)
        assert (conv.conv_window_value(p, head, x, *window)
                == milne_oracle(p, head, x, *window))


class TestSymmetricPairTable:
    """A self-convolution visits each unordered breakpoint pair once and
    skips zero products; an equal copy takes the full pair table."""

    @staticmethod
    def assert_same_as_twin(p):
        twin = load_text(dump_text(p))
        assert twin == p and twin is not p
        alone = conv.conv_linear_exact(p, p)
        paired = conv.conv_linear_exact(p, twin)
        assert alone.breakpoints == paired.breakpoints
        assert alone.coeffs == paired.coeffs
        assert alone.factor == paired.factor

    @given(densities)
    @settings(max_examples=60, deadline=None)
    def test_density_matches_twin(self, p):
        self.assert_same_as_twin(p)

    @given(jump_functions)
    @settings(max_examples=60, deadline=None)
    def test_jump_function_matches_twin(self, p):
        # interior value jumps make the J*K and J*V products nonzero
        self.assert_same_as_twin(p)

    def test_zero_term_sums_cut_the_grid(self):
        # the knot at 1/3 is collinear: no jump in value or slope there, so
        # every pair with it adds zero terms, and only those pairs give the
        # cuts at 1/3, 2/3 and 4/3
        p = from_linear_knots([(0, 1), (Fraction(1, 3), 1), (1, 1)])
        got = conv.conv_linear_exact(p, p)
        assert got.breakpoints == (0, Fraction(1, 3), Fraction(2, 3), 1,
                                   Fraction(4, 3), 2)
        for x in got.breakpoints:
            assert got.eval(x) == TRIANGLE.eval(x)
