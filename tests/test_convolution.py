import ast
import random
import re
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from conftest import linear_operands, small_fractions
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailkit import convolution as conv
from tailkit import cli, notched, probes
from tailkit import mixture as mx
from tailkit.piecewise import dump_cells, dump_text, from_linear_knots


KNOTS = small_fractions(0, 12, max_denominator=8)
VALUES = small_fractions(0, 4, max_denominator=8)


@st.composite
def small_densities(draw):
    """Piecewise-linear densities with small rational knots."""
    n = draw(st.integers(min_value=2, max_value=5))
    xs = draw(st.lists(KNOTS, min_size=n, max_size=n, unique=True))
    fs = [draw(VALUES) for _ in range(n)]
    if all(f == 0 for f in fs):
        fs[0] = Fraction(1)
    return from_linear_knots(list(zip(sorted(xs), fs)))


factors = st.fractions(min_value="1/64", max_value=64, max_denominator=64)
unit = small_fractions(0, 1, max_denominator=64)


class TestWindowValues:
    def test_window_partition_additive(self, nd3):
        f = nd3.dense
        x = notched.knot_position("c", 2)
        cut = Fraction(100)
        whole = conv.conv_window_value(f, f, x, Fraction(0), x)
        left = conv.conv_window_value(f, f, x, Fraction(0), cut)
        right = conv.conv_window_value(f, f, x, cut, x)
        assert left + right == whole

    def test_empty_window_is_zero(self, nd3):
        f = nd3.dense
        # a window pushed outside either support clips away; reversed bounds
        # are an error, as they are for PiecewisePoly.integral
        with pytest.raises(ValueError, match="reversed bounds"):
            conv.conv_window_value(f, f, Fraction(10), Fraction(9),
                                   Fraction(8))
        assert conv.conv_window_value(f, f, Fraction(10), Fraction(20),
                                      Fraction(30)) == 0

    def test_mirror_symmetry(self, nd3):
        # integral over [0, a] equals integral over [x-a, x] for p*p
        f = nd3.dense
        x = notched.knot_position("c", 2)
        a = Fraction(50)
        low = conv.conv_window_value(f, f, x, Fraction(0), a)
        high = conv.conv_window_value(f, f, x, x - a, x)
        assert low == high


class TestFactor:
    """The kernel sees stored coefficients; factors multiply the result."""

    @given(small_densities(), small_densities(), factors, factors)
    @settings(max_examples=40, deadline=None)
    def test_dense_carries_product_of_factors(self, p, q, s, t):
        plain = conv.conv_linear_exact(p, q)
        scaled = conv.conv_linear_exact(p.scale(s), q.scale(t))
        assert scaled.breakpoints == plain.breakpoints
        for x in plain.breakpoints:
            assert scaled.eval(x) == s * t * plain.eval(x)

    @given(small_densities(), small_densities(), factors, factors,
           unit, unit, unit)
    @settings(max_examples=60, deadline=None)
    def test_window_value_carries_product_of_factors(self, p, q, s, t,
                                                     fx, f_lo, f_hi):
        top = p.support[1] + q.support[1]
        x = top * fx
        y_lo, y_hi = sorted((q.support[1] * f_lo, q.support[1] * f_hi))
        plain = conv.conv_window_value(p, q, x, y_lo, y_hi)
        scaled = conv.conv_window_value(p.scale(s), q.scale(t), x, y_lo, y_hi)
        assert scaled == s * t * plain

    @given(small_densities(), small_densities(), factors, factors)
    @settings(max_examples=40, deadline=None)
    def test_mass_multiplies(self, p, q, s, t):
        p, q = p.scale(s), q.scale(t)
        assert (conv.conv_linear_exact(p, q).total_mass()
                == p.total_mass() * q.total_mass())


class TestStreamedSweep:
    @given(linear_operands(), linear_operands(), st.booleans(),
           st.sampled_from([1, Fraction(1, 3), 0, -2]))
    @settings(max_examples=150, deadline=None)
    def test_cells_match_the_held_result(self, p, q, same, k):
        # the streamed text, whose format the writer picks from the cells as
        # they come, is the held result's
        p = p.scale(k)
        q = p if same else q
        held = conv.conv_linear_exact(p, q)
        assert "".join(dump_cells(*conv.dense_sweep(p, q))) == dump_text(held)

    def test_each_seg_line_draws_one_cell(self):
        # the notched self-convolution is cubic from its first cell (f0 has
        # slope -3/8 on [0, 2]), so the writer holds no cell: its first seg
        # line comes after one cell is drawn, and each line after one more
        f = notched.build_density(4).dense
        grid, cells, factor = conv.dense_sweep(f, f)
        drawn = 0

        def counted():
            nonlocal drawn
            for cell in cells:
                drawn += 1
                yield cell

        lines = dump_cells(grid, counted(), factor)
        assert next(lines) == "# tailkit piecewise v1\n" and drawn == 0
        for expected in range(1, 6):
            assert next(lines).startswith("seg ") and drawn == expected


class TestMomentCache:
    def test_truncations_read_the_warm_cache(self):
        # a cut of the warm N=40 build and a cold fresh build walk to the
        # same value, at random windows and at c_n with the halving
        top = notched.build_density(40)
        f = top.dense
        box = from_linear_knots([(0, 1), (f.support[1], 1)])
        # box(x - y) is one run over all of f's support
        conv.conv_window_value(box, f, f.support[1], *f.support)
        assert len(f._moment_cache) == len(f.coeffs)
        rng = random.Random(17)

        def draw(end):
            return end * Fraction(rng.randrange((1 << 20) + 1), 1 << 20)

        for n in range(3, 41):
            cut = top.truncate(n).density()
            fresh = notched.build_density(n).density()
            assert cut._moment_cache is f._moment_cache
            assert not fresh._moment_cache
            hi = cut.support[1]
            calls = [(notched.knot_position("c", n), 0, hi),
                     (draw(2 * hi), *sorted((draw(hi), draw(hi))))]
            for x, y_lo, y_hi in calls:
                assert (conv.conv_window_value(cut, cut, x, y_lo, y_hi)
                        == conv.conv_window_value(fresh, fresh, x, y_lo, y_hi))

    def test_copies_read_each_others_window_values(self):
        # a self-convolution's value over a clipped window is kept in the
        # cache the copies share: a truncation and the full build read each
        # other's values, and each reads what a fresh build walks to, at
        # abscissas below and above the truncation's support end
        top, other = notched.build_density(12), notched.build_density(12)
        rng = random.Random(29)
        for n in range(2, 12):
            cut, fresh = top.truncate(n), notched.build_density(n)
            hi = cut.dense.support[1]
            for x in (hi * Fraction(rng.randrange(1, 1 << 20), 1 << 20),
                      hi + hi * Fraction(rng.randrange(1, 1 << 20), 1 << 20)):
                window = (max(Fraction(0), x - hi), min(x, hi))  # clipped
                # the full build's whole window at x is not the cut's above hi
                whole = conv.self_conv_value(top.dense, x)
                first, second = (top, cut) if n % 2 else (cut, top)
                values = [conv.conv_window_value(d.dense, d.dense, x, *window)
                          for d in (first, second)]
                assert (x, *window) in top.dense._moment_cache
                assert values[0] == values[1] == conv.conv_window_value(
                    fresh.dense, fresh.dense, x, *window)
                assert (conv.self_conv_value(cut.density(), x)
                        == conv.self_conv_value(fresh.density(), x))
                assert whole == conv.self_conv_value(other.dense, x)

    def test_report_walks_each_window_once(self, monkeypatch, capsys):
        # at c4 two windows are symmetric about c4/2, the whole support and
        # the I2 window [a_4, c4 - a_4]; the walk of each ends with a piece
        # cut at c4/2.  subexp_ratio and split_integrals read the whole
        # window, i2_bound_check and split_integrals the I2 window, and
        # each is walked once
        half = notched.knot_position("c", 4) / 2
        ends = []
        moments = conv._moments
        monkeypatch.setattr(conv, "_moments",
                            lambda u, v, *rest: ends.append(v) or moments(u, v, *rest))
        assert cli.main(["report", "notched", "--n", "4"]) == 0
        assert "\nsplit_integrals,c4," in capsys.readouterr().out
        assert ends.count(half) == 2


class TestSelfConvWindowMass:
    # operands with jumps, signed values or no mass, and factors of either
    # sign or 0: the walk reads the stored copy and applies factor**2 once
    @given(st.one_of(small_densities(), linear_operands()),
           small_fractions(-64, 64, max_denominator=8), unit,
           st.fractions(min_value="1/64", max_value=30, max_denominator=64))
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_interval_mass(self, p, s, fx, d):
        p = p.scale(s)
        lo, hi = p.support
        x = 2 * lo - 1 + (2 * (hi - lo) + 2) * fx
        assert (conv.self_conv_window_mass(p, x, d)
                == conv.conv_linear_exact(p, p).interval_mass(x, d))

    def test_matches_dense_on_notched(self, nd3):
        f = nd3.density()
        dense = conv.conv_linear_exact(f, f)
        for x, d in ((Fraction(30), Fraction(1)), (Fraction(7, 3), Fraction(50)),
                     (notched.knot_position("b", 2), Fraction(1, 3)),
                     (Fraction(-5), Fraction(6)), (2 * f.support[1], Fraction(1))):
            assert conv.self_conv_window_mass(f, x, d) == dense.interval_mass(x, d)

    def test_rejects_bad_window(self, nd3):
        with pytest.raises(ValueError):
            conv.self_conv_window_mass(nd3.dense, 1, 0)


class TestSplitIntegrals:
    def test_partition_identity(self, nd10):
        for label in ("b", "c"):
            x = notched.knot_position(label, 10)
            i1, i2 = probes.split_integrals(nd10.dense, 10, x)
            assert 2 * i1 + i2 == conv.self_conv_value(nd10.dense, x)

    @given(st.integers(min_value=1, max_value=10),
           st.fractions(min_value=0, max_value=1, max_denominator=2 ** 40))
    @settings(max_examples=40, deadline=None)
    def test_partition_identity_in_block(self, nd10, n, u):
        lo, hi = notched.a_position(n), notched.a_position(n + 1)
        x = lo + (hi - lo) * u
        assume(x > lo and x >= 2 * notched.a_position(notched.m_of(n)))
        i1, i2 = probes.split_integrals(nd10.dense, n, x)
        assert 2 * i1 + i2 == conv.self_conv_value(nd10.dense, x)

    def test_i1_tracks_local_value(self, nd10):
        x = notched.knot_position("c", 10)
        i1, _ = probes.split_integrals(nd10.dense, 10, x)
        cum = nd10.dense.integral(0, notched.a_position(notched.m_of(10)))
        ratio = i1 / (nd10.dense.eval(x) * cum)
        assert Fraction(9, 10) < ratio < Fraction(11, 10)

    def test_rejects_x_outside_block(self, nd10):
        with pytest.raises(ValueError):
            probes.split_integrals(nd10.dense, 10, notched.a_position(10))
        with pytest.raises(ValueError):
            probes.split_integrals(nd10.dense, 9, notched.knot_position("c", 10))

    def test_rejects_degenerate_middle(self, nd3):
        # x barely above a_n leaves x - a_m < a_m
        with pytest.raises(ValueError):
            probes.split_integrals(nd3.dense, 2, notched.a_position(2) + 1)


class TestMixtureConv:
    def test_cross_mass_reads_the_schedule(self):
        # f(y) = y on [0, 10]: the mass over (a, a+1] is a + 1/2.  The placed
        # atom at 3 reads (5, 6], the residual at 1 reads (3, 4], and the
        # entry with no position contributes nothing
        f = from_linear_knots([(0, 0), (10, 10)])
        entry = partial(mx.ScheduleEntry, n_m=2, logf_b=None, lower_bound=None)
        sch = mx.BlowupSchedule(
            m_max=2, entries=(entry(m=1, mass=Fraction(1, 2), value=Fraction(3)),
                              entry(m=2, mass=Fraction(1, 4), value=None)),
            c=None, residual_mass=Fraction(1, 4), precision_bits=256)
        expected = Fraction(1, 2) * Fraction(11, 2) + Fraction(1, 4) * Fraction(7, 2)
        assert mx.mixture_cross_mass(sch, f, 2, 1) == expected

    def test_single_atom_formula(self, nd3):
        # one placed atom and the residual, both at value 1: the cross mass
        # is f's window shifted by 1
        sch = mx.BlowupSchedule(
            m_max=1, entries=(mx.ScheduleEntry(
                m=1, n_m=2, mass=Fraction(1, 2), value=Fraction(1), logf_b=None,
                lower_bound=None),), c=None, residual_mass=Fraction(1, 2),
            precision_bits=256)
        f = nd3.density()
        x, d = Fraction(30), Fraction(1)
        assert mx.mixture_cross_mass(sch, f, x, d) == f.interval_mass(x + 1, d)

    def test_far_atoms_contribute_nothing(self, nd3):
        entry = partial(mx.ScheduleEntry, n_m=2, logf_b=None, lower_bound=None)
        schedule = partial(mx.BlowupSchedule, c=None, precision_bits=256)
        near = schedule(m_max=1, entries=(
            entry(m=1, mass=Fraction(1, 2), value=Fraction(1)),),
            residual_mass=Fraction(1, 2))
        far = schedule(m_max=2, entries=(
            entry(m=1, mass=Fraction(1, 2), value=Fraction(1)),
            entry(m=2, mass=Fraction(1, 4), value=None)),
            residual_mass=Fraction(1, 4))
        f = nd3.density()
        x, d = Fraction(30), Fraction(1)
        # the None entry drops out; only the residual mass difference shows
        assert (mx.mixture_cross_mass(near, f, x, d)
                - mx.mixture_cross_mass(far, f, x, d)
                == Fraction(1, 4) * f.interval_mass(x + 1, d))

    def test_built_schedule_reads_placed_entries_and_residual(self, nd3):
        # of build_schedule(2) only the m=1 entry is placed; the m=2 entry's
        # mass is not read, and the residual sits at RESIDUAL_VALUE
        sch = mx.build_schedule(2)
        first = sch.entries[0]
        f = nd3.density()
        x, d = Fraction(30), Fraction(1)
        assert mx.mixture_cross_mass(sch, f, x, d) == (
            first.mass * f.interval_mass(x + first.value, d)
            + sch.residual_mass * f.interval_mass(x + mx.RESIDUAL_VALUE, d))

    @pytest.mark.parametrize("d", [Fraction(1, 2), 1, 3])
    def test_blowup_row_is_the_weighted_window_mass(self, nd3, d):
        # with weights 1/2 and 1/2 the mixture's window mass at x > 0 is
        # (f*f + 2 f*F2) / 4 and its positive part's is f / 2
        sch = mx.build_schedule(3)
        row = probes.mixture_blowup_probe(sch, nd3, d)[0]
        f = nd3.density()
        b1 = notched.knot_position("b", sch.entries[0].n_m)
        cross = mx.mixture_cross_mass(sch, f, b1, d)
        full = (conv.conv_linear_exact(f, f).interval_mass(b1, d) + 2 * cross) / 4
        assert row.aux["conv_over_window_mass"] == full / (f.interval_mass(b1, d) / 2)
        assert row.value == cross / (d * f.eval(b1))

    def test_rejects_bad_window(self, nd3):
        with pytest.raises(ValueError, match="window width must be positive"):
            mx.mixture_cross_mass(mx.build_schedule(1), nd3.density(), 1, 0)


SRC = Path(conv.__file__).resolve().parent


def _tailkit_imports(module: str) -> list[tuple[str, bool]]:
    """Each tailkit module the source of tailkit.<module> imports, anywhere
    in the file, and whether the import sits at the module's top level."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "tailkit":
            names = [f"tailkit.{a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        found += [(name, node in tree.body) for name in names
                  if name.startswith("tailkit.")]
    return found


class TestLayering:
    def test_kernel_imports_piecewise_alone(self):
        # the kernel reads piecewise functions, never a construction; the
        # construction integrals live in probes, mixture and notched
        text = (SRC / "convolution.py").read_text()
        assert "TYPE_CHECKING" not in text
        assert _tailkit_imports("convolution") == [("tailkit.piecewise", True)]

    def test_mixture_does_not_run_the_kernel(self):
        assert "tailkit.convolution" not in {
            name for name, _ in _tailkit_imports("mixture")}

    def test_no_module_reads_a_private_kernel_name(self):
        hits = [f"{path.name}:{i}" for path in sorted(SRC.glob("*.py"))
                for i, line in enumerate(path.read_text().splitlines(), 1)
                if re.search(r"conv\._", line)]
        assert hits == []
