from fractions import Fraction

import mpmath
import pytest

from tailkit import mixture as mx
from tailkit import notched
from tailkit.numerics import log_nat, root_snap


class TestScheduleIndex:
    def test_m1(self):
        assert mx.schedule_index(1) == 2

    def test_m2(self):
        assert mx.schedule_index(2) == 8886110

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_against_mpmath_oracle(self, m):
        k = m ** 4
        with mpmath.workprec(2 * k + 256):
            oracle = int(mpmath.floor(mpmath.exp(k)))
        assert mx.schedule_index(m) == oracle

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            mx.schedule_index(0)


class TestBuildSchedule:
    def test_single_entry_masses(self):
        sch = mx.build_schedule(1)
        assert sch.entries[0].mass == Fraction(19, 20)
        assert sch.residual_mass == Fraction(1, 20)
        # c = 0.95 * cbrt(L_2) exactly, ~ 0.95 * 1.0318
        assert sch.c == Fraction(19, 20) * root_snap(log_nat(2), 3, 256)
        assert abs(float(sch.c) - 0.95 * 1.03183) < 1e-4

    def test_six_entries(self):
        sch = mx.build_schedule(6)
        inv_sum = sum(1 / root_snap(log_nat(e.n_m), 3, 256)
                      for e in sch.entries)
        assert abs(float(inv_sum) - 1.964) < 2e-3
        masses = [e.mass for e in sch.entries]
        assert all(a > b for a, b in zip(masses, masses[1:]))
        assert sum(masses) + sch.residual_mass == 1

    @pytest.mark.parametrize("m_max", [1, 2, 3])
    def test_masses_and_positions_are_positive(self, m_max):
        # the law of X2 needs no check of its own: every mass and every
        # placed position is positive, and the masses sum to 1 exactly
        sch = mx.build_schedule(m_max)
        masses = [e.mass for e in sch.entries] + [sch.residual_mass]
        assert all(p > 0 for p in masses) and sum(masses) == 1
        assert all(e.value > 0 for e in sch.entries if e.value is not None)
        assert mx.RESIDUAL_VALUE > 0

    def test_lower_bounds(self):
        sch = mx.build_schedule(6)
        lbs = [e.lower_bound for e in sch.entries]
        assert all(a < b for a, b in zip(lbs, lbs[1:]))
        assert lbs[0] == sch.c * root_snap(log_nat(2), 6, 256)
        # L(n_2) = ln(8886111) ~ 16: second bound ~ c * 16**(1/6) ~ c * 1.5874
        assert abs(float(lbs[1] / sch.c) - 1.5874) < 1e-3

    def test_first_atom_position(self):
        sch = mx.build_schedule(1)
        entry = sch.entries[0]
        d2, s2 = notched.threshold_knots(2)
        b2 = notched.knot_position("b", 2)
        assert entry.value == (d2.x + s2.x) / 2 - b2
        assert abs(float(entry.value) - 182.832) < 1e-3

    def test_symbolic_positions_are_none(self):
        sch = mx.build_schedule(3)
        assert sch.entries[0].value is not None
        assert all(e.value is None for e in sch.entries[1:])

    def test_logf_magnitudes(self):
        sch = mx.build_schedule(2)
        n2 = sch.entries[1].n_m
        assert sch.entries[1].logf_b.log2mag < Fraction(1 - 3 * n2 * n2 + 1)


class TestSerialization:
    def test_csv_shape(self):
        sch = mx.build_schedule(3)
        lines = mx.schedule_csv_lines(sch)
        assert lines[0] == "m,n_m,mass,log2_f_b,lower_bound"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("residual,")

    def test_csv_deterministic(self):
        a = mx.schedule_csv_lines(mx.build_schedule(4))
        b = mx.schedule_csv_lines(mx.build_schedule(4))
        assert a == b


class TestBlowupRow:
    def test_window_mass_beats_slackened_bound(self, nd3):
        # the m=1 row clears 0.9x its symbolic lower bound, and so does the
        # mixture's full window mass at b_{n_1} over f(b_{n_1}), with both
        # mixture weights at 1/2
        from tailkit import probes
        sch = mx.build_schedule(6)
        row = probes.mixture_blowup_probe(sch, nd3, 1)[0]
        bound = Fraction(9, 10) * row.aux["lower_bound"]
        assert row.value >= bound
        f, b = nd3.density(), notched.knot_position("b", sch.entries[0].n_m)
        full = row.aux["conv_over_window_mass"] * f.interval_mass(b, 1) / 2
        assert full / f.eval(b) >= bound
