import contextlib
import hashlib
import importlib.util
import io
import json
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import chain, zip_longest
from pathlib import Path

import pytest
from conftest import BATTERY_CSV_SHA256, child_env, linear_operands, small_fractions
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailkit import cli, probes
from tailkit.numerics import _rational
from tailkit.piecewise import PiecewisePoly, from_linear_knots, load_text

# sha256 of `tailkit convolve` on the notched knot files (`build notched
# n=N`, 256 bits): the dense convolution's exact output is the spec, byte
# for byte
NOTCHED4_CONV_SHA256 = "e2fbdaed6c581b0cc316323660267c9b15935bafc190cfe436871b56cb42ca91"
NOTCHED_CONV_SHA256 = {
    4: NOTCHED4_CONV_SHA256,
    6: "2c4d2d5d3d0a606e9d91edffbdf490f18dd0a77665281688808821abebdddd09",
    8: "5b1bd12e4705911cf59486ba72429ec3864ce826f32083802bb3ea21c915c237",
}


# sha256 of `tailkit report <construction>` at its defaults
REPORT_SHA256 = {
    "notched": "063e92b0d7c3a89f9c11388c49bcd20a905f25836fdcd2bfaa609ebda8f82046",
    "logperiodic": "6be5e26bc88d2d574b0af0f3c6548b3688bc0f830a90184690fb0ef4b99bf6b3",
    "mixture": "46d1dc88b48149d0b7a8e644a0c0d9aa684087133e6277402c546631bc5a7f84",
}
# sha256 of `tailkit probe mixture blowup m_max=3 d=1/2`: the blow-up row at
# a window other than the d = 1 that `report mixture` reads
BLOWUP_HALF_SHA256 = "35e4eb1541c73ce142e4dba127c6d100eda4eb7f4038fdc2f920c2064a6c5810"
# sha256 of `tailkit report logperiodic --delta <delta>` beyond the default
LOGPERIODIC_DELTA_SHA256 = {
    "1/8": "f7900046511dd0a3ab6e2c544de2f9cc27ddf3e0aa2e154da3d95e772b7a0f25",
    "3/8": "71f499afafee2a1327823dc5dc0605912f2f18ec9e1d80bcd43f07f1586e1fa6",
}
# sha256 of `tailkit build logperiodic --delta <delta>`'s meta: the only
# output that carries the tail normalizer b
LOGPERIODIC_META_SHA256 = {
    "1/8": "a3f89a5389361adfd24e7ed66ba9e871b8eab414045ed317adef6c84f6b58847",
    "1/4": "54ebb614b0e911d3ec6859b13f6eae877c84c03e1d21430dd1ab95bc1f112bbe",
    "3/8": "a6a71ee58ceb606d3d9d7a7d3003a73777687e5bdc5329232eb74a115c76541f",
}


def run_cli(*argv):
    return cli.main(list(argv))


class TestBuild:
    def test_notched_build(self, tmp_path):
        assert run_cli("build", "notched", "n=2", "--out", str(tmp_path)) == 0
        meta = (tmp_path / "notched.meta").read_text()
        assert "n = 2" in meta and "mass = " in meta
        knots = load_text((tmp_path / "notched.knots").read_text())
        assert len(knots.coeffs) == 7

    def test_idempotent_overwrite(self, tmp_path):
        run_cli("build", "notched", "n=2", "--out", str(tmp_path))
        first = (tmp_path / "notched.knots").read_bytes()
        run_cli("build", "notched", "n=2", "--out", str(tmp_path))
        assert (tmp_path / "notched.knots").read_bytes() == first

    def test_logperiodic_build(self, tmp_path):
        assert run_cli("build", "logperiodic", "--out", str(tmp_path)) == 0
        meta = (tmp_path / "logperiodic.meta").read_text()
        assert "a = 0.1699929587" in meta
        assert "a_err = " in meta and "b_err = " in meta

    @pytest.mark.pin
    @pytest.mark.parametrize("delta", sorted(LOGPERIODIC_META_SHA256))
    def test_logperiodic_meta_matches_spec(self, delta, tmp_path):
        assert run_cli("build", "logperiodic", "--delta", delta,
                       "--out", str(tmp_path)) == 0
        digest = hashlib.sha256((tmp_path / "logperiodic.meta").read_bytes()).hexdigest()
        assert digest == LOGPERIODIC_META_SHA256[delta]

    def test_mixture_build(self, tmp_path):
        assert run_cli("build", "mixture", "m_max=3", "--out", str(tmp_path)) == 0
        csv = (tmp_path / "mixture_schedule.csv").read_text().splitlines()
        assert csv[0] == "m,n_m,mass,log2_f_b,lower_bound"
        assert len(csv) == 5

    def test_unknown_construction(self, tmp_path, capsys):
        assert run_cli("build", "wavelet", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "notched, logperiodic, mixture" in err
        assert "file:" not in err  # build has no file construction

    def test_unreachable_quadrature_budget_is_exit_3(self, tmp_path, capsys):
        # near delta = 1/2 no cutoff up to 2**64 certifies the tail budget
        assert run_cli("build", "logperiodic", "--delta", "9/20",
                       "--out", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "precision failure: no cutoff reaches the tail target" in err


class TestConfig:
    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("construction = notched\nn = 2\n")
        assert run_cli("build", "--config", str(cfg), "--out", str(tmp_path)) == 0
        assert "n = 2" in (tmp_path / "notched.meta").read_text()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("construction = notched\nn = 2\n")
        assert run_cli("build", "--config", str(cfg), "--n", "3",
                       "--out", str(tmp_path)) == 0
        assert "n = 3" in (tmp_path / "notched.meta").read_text()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 12\n")
        assert run_cli("build", "--config", str(cfg)) == 2

    def test_missing_config_is_usage_error(self, tmp_path):
        assert run_cli("build", "--config", str(tmp_path / "nope.cfg")) == 2

    def test_key_the_command_does_not_read_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("precision_bits = 256\ndelta = 1/8\n")
        assert run_cli("verify", "--config", str(cfg)) == 2
        assert "run.cfg:2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, line", [
        (["convolve", "{knots}"], "precision_bits = 64"),
        (["build", "notched"], "d = 2"),
    ], ids=["convolve", "build"])
    def test_key_of_an_option_the_command_lacks_rejected(self, argv, line,
                                                         tmp_path, capsys):
        knots, cfg, out = tmp_path / "in.pw", tmp_path / "run.cfg", tmp_path / "o"
        knots.write_text("knot 0 0\nknot 1 1\nknot 2 0\n")
        cfg.write_text(f"# first\n{line}\n")
        argv = [a.format(knots=knots) for a in argv]
        assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 2
        key = line.split(" =")[0]
        assert (f"run.cfg:2: this command does not read {key!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_key_value_of_an_option_build_lacks_rejected(self, tmp_path, capsys):
        assert run_cli("build", "notched", "d=2", "--out", str(tmp_path / "o")) == 2
        assert "unknown parameter(s) d for build" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, config", [
        (["--alpha", "2"], ""),
        (["alpha=2"], ""),
        ([], "quad_tol = 1/10\n"),
    ], ids=["flag", "key-value", "config-line"])
    def test_logperiodic_constants_are_not_keys(self, argv, config, tmp_path):
        # alpha and quad_tol are constants of the logperiodic module
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text(config)
        try:
            code = run_cli("build", "logperiodic", *argv, "--config", str(cfg),
                           "--out", str(out))
        except SystemExit as done:  # argparse's exit on an unknown flag
            code = done.code
        assert code == 2 and not out.exists()

    def test_zero_denominator_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("construction = logperiodic\ndelta = 1/0\n")
        assert run_cli("build", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert "run.cfg:2" in capsys.readouterr().err


class RecordingConfig(cli.RunConfig):
    """A RunConfig that records the name of each option attribute read."""

    def __init__(self, **values):
        object.__setattr__(self, "read", set())
        super().__init__(**values)

    def __getattribute__(self, name):
        if name in cli.OPTIONS:
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


# a value for each option a run may not read
UNREAD_VALUES = {"n": "5", "m_max": "3", "precision_bits": "64", "delta": "1/8",
                 "d": "2"}
# each probe on each construction it describes
PROBE_RUNS = [(p, kind) for p in probes.PROBES for kind in p.constructions]
# (command, construction, probe or None, option): each option a command takes
# that its run on that construction does not read
UNREAD = [("build", kind, None, key) for kind, (read, _) in cli._BUILDS.items()
          for key in cli._options("build")[0]
          if key not in ("construction", "out", *read)] + [
    ("report", kind, None, key) for kind, read in cli._options("report")[1].items()
    for key in cli._options("report")[0] if key not in ("construction", "out", *read)] + [
    ("probe", kind, p.name, key) for p, kind in PROBE_RUNS
    for key in cli._options("probe")[0] if key not in ("construction", "out", *p.reads)]
# the options each construction's runs read, as a hand-kept table gave them
# before each probe declared its own; a build reads no window d
CONSTRUCTION_READS = {"notched": ("n", "precision_bits", "d"),
                      "logperiodic": ("delta",),
                      "mixture": ("m_max", "precision_bits", "d"),
                      "file:<path>": ("n", "precision_bits", "d")}
# (probe, construction, option): read by another probe of the construction,
# so each was accepted and changed nothing until each probe declared its reads
NEWLY_REFUSED = {
    ("knot_ratio_series", "notched", "n"), ("knot_ratio_series", "notched", "d"),
    ("knot_scan", "notched", "n"), ("knot_scan", "notched", "d"),
    ("long_tail_ratio", "notched", "d"), ("subexp_ratio", "notched", "d"),
    ("almost_decrease_scan", "notched", "d"), ("i2_bound_check", "notched", "d"),
    ("split_integrals", "notched", "d"), ("schedule", "mixture", "d"),
    ("long_tail_ratio", "file:<path>", "d"), ("subexp_ratio", "file:<path>", "d"),
    ("almost_decrease_scan", "file:<path>", "n"),
    ("almost_decrease_scan", "file:<path>", "precision_bits"),
    ("almost_decrease_scan", "file:<path>", "d")}


class TestConstructionReads:
    """Each probe's and each build's declared reads against the code: what
    its runs read, and the refusal of every other option."""

    @pytest.mark.parametrize("probe, kind", PROBE_RUNS,
                             ids=[f"{p.name}-{kind[:4]}" for p, kind in PROBE_RUNS])
    def test_a_probe_reads_exactly_its_declared_options(self, probe, kind, tmp_path):
        # at its defaults; a file is the notched build's knots, so that c{n}
        # lies in its support
        assert run_cli("build", "notched", "--out", str(tmp_path)) == 0
        name = kind.replace("<path>", str(tmp_path / "notched.knots"))
        config = RecordingConfig(construction=name, out=str(tmp_path / "o.csv"))
        assert cli._run_probes(config, [probe], probe.name) == 0
        assert config.read - {"construction", "out"} == set(probe.reads)

    @pytest.mark.parametrize("kind", sorted(cli._BUILDS))
    def test_a_build_reads_exactly_its_declared_options(self, kind, tmp_path):
        config = RecordingConfig(construction=kind, out=str(tmp_path))
        assert cli._cmd_build(config) == 0
        assert config.read - {"construction", "out"} == set(cli._BUILDS[kind][0])

    def test_a_construction_reads_the_union_of_its_runs(self):
        named = {k: v for k, v in CONSTRUCTION_READS.items() if k != "file:<path>"}
        assert cli._options("probe")[1] == CONSTRUCTION_READS
        assert cli._options("report")[1] == named
        assert cli._options("build")[1] == {
            kind: tuple(key for key in read if key != "d") for kind, read in named.items()}

    def test_count_of_refused_combinations(self):
        counts = {c: sum(u[0] == c for u in UNREAD) for c in ("build", "probe", "report")}
        assert counts == {"build": 7, "probe": 59, "report": 8}
        # a probe run refuses what its construction's other probes read
        assert {(p, kind, key) for _, kind, p, key in UNREAD
                if p and key in CONSTRUCTION_READS[kind]} == NEWLY_REFUSED

    @pytest.mark.parametrize("source", ["flag", "config", "key"])
    @pytest.mark.parametrize("command, kind, probe, key", UNREAD, ids=[
        "-".join(filter(None, u)).replace(":<path>", "") for u in UNREAD])
    def test_an_option_the_run_does_not_read_is_refused(
            self, command, kind, probe, key, source, tmp_path, capsys):
        tri, cfg, out = tmp_path / "tri.pw", tmp_path / "run.cfg", tmp_path / "out"
        tri.write_text("knot 0 0\nknot 1 1\nknot 2 0\n")
        value = UNREAD_VALUES[key]
        cfg.write_text(f"{key} = {value}\n")
        given = {"flag": [cli._flag(key), value], "config": ["--config", str(cfg)],
                 "key": [f"{key}={value}"]}[source]
        argv = [command, kind.replace("<path>", str(tri)), *filter(None, [probe])]
        assert run_cli(*argv, *given, "--out", str(out)) == 2
        run = f"probe {probe} on {kind}" if probe else f"the {kind} construction"
        assert capsys.readouterr().err == f"usage error: {run} does not read {key}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, line", [
        ("build", "--n N truncation index of the notched construction, 1..63; "
                  "read by notched"),
        ("probe", "--n N truncation index of the notched construction, 1..63; "
                  "read by notched, file:<path>"),
        ("report", "--d D window width; read by notched, mixture"),
        ("verify", "--precision-bits PRECISION_BITS bits of every snapped "
                   "constant, 32..6144 --out"),
    ])
    def test_help_names_the_constructions_that_read_each_option(
            self, command, line, capsys):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        text = " ".join(capsys.readouterr().out.split())
        assert line in text
        options, reads = cli._options(command)
        for key in options:
            readers = [c for c, read in reads.items() if key in read]
            if readers:
                assert f"{cli.OPTIONS[key].help}; read by {', '.join(readers)}" in text

    @pytest.mark.parametrize("command, takes", [
        ("build", "notched | logperiodic | mixture"),
        ("report", "notched | logperiodic | mixture"),
        ("probe", "notched | logperiodic | mixture | file:<path>"),
    ])
    def test_help_lists_the_constructions_the_command_takes(self, command, takes,
                                                            capsys):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        text = " ".join(capsys.readouterr().out.split())
        assert f"--construction CONSTRUCTION {takes} --n N" in text
        assert " | ".join(cli._options(command)[1]) == takes

    def test_probe_help_names_the_options_each_probe_reads(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("probe", "--help")
        listing = capsys.readouterr().out.splitlines()
        for p in probes.PROBES:
            line, = [x for x in listing
                     if x.startswith(f"  {p.name:<22}{', '.join(p.constructions)}:")]
            assert line.endswith(f" [reads {', '.join(p.reads) or 'none'}]")
        assert "  almost_decrease_scan  file:<path>: x0=0 [reads none]" in listing

    @pytest.mark.parametrize("source", ["flag", "key", "config"])
    @pytest.mark.parametrize("value", ["0", "25", "100000"])
    def test_m_max_outside_its_range_is_refused(self, value, source, tmp_path,
                                                capsys):
        # report mixture, which builds the schedule once, takes about 6.5 s
        # at 24 atoms
        out, cfg = tmp_path / "out", tmp_path / "run.cfg"
        cfg.write_text(f"m_max = {value}\n")
        given = {"flag": ["--m-max", value], "key": [f"m_max={value}"],
                 "config": ["--config", str(cfg)]}[source]
        assert run_cli("report", "mixture", *given, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"bad value for m_max: {value!r} (m_max takes 1..24)" in err
        assert err.count("\n") == 1 and not out.exists()

    # n_max * precision_bits**2 is at most 2**35 in knot_ratio_series and
    # 2**34 in knot_scan, whose steps cost about the square of the bits
    @pytest.mark.parametrize("probe, value, bits, bounds", [
        ("knot_ratio_series", "1", "256", "2..150000"),
        ("knot_ratio_series", "150001", "256", "2..150000"),
        ("knot_ratio_series", "911", "6144", "2..910 at 6144 bits"),
        ("knot_ratio_series", "131073", "512", "2..131072 at 512 bits"),
        ("knot_scan", "0", "256", "1..70000"),
        ("knot_scan", "70001", "256", "1..70000"),
        ("knot_scan", "9" * 40, "256", "1..70000"),
        ("knot_scan", "456", "6144", "1..455 at 6144 bits"),
        ("knot_scan", "1000", "6144", "1..455 at 6144 bits"),
        ("knot_scan", "16385", "1024", "1..16384 at 1024 bits"),
    ])
    def test_n_max_outside_its_range_is_refused(self, probe, value, bits, bounds,
                                                tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("probe", "notched", probe, f"n_max={value}",
                       "--precision-bits", bits, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: bad value for n_max: {value!r} (n_max takes {bounds})\n"
        assert not out.exists()

    @pytest.mark.parametrize("probe, key, value, bounds", [
        ("almost_decrease_scan", "k_max", "0", "1..2500"),
        ("almost_decrease_scan", "k_max", "2501", "1..2500"),
        ("almost_decrease_scan", "k_max", "20000", "1..2500"),
        ("middle_integral", "k_list", "0", "1..60"),
        ("middle_integral", "k_list", "61", "1..60"),
        ("middle_integral", "k_list", "4000", "1..60"),
    ])
    def test_anchor_counts_outside_their_range_are_refused(
            self, probe, key, value, bounds, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("probe", "logperiodic", probe, f"{key}=3,{value}"
                       if key == "k_list" else f"{key}={value}", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: bad value for {key}: {value!r} ({key} takes {bounds})\n"
        assert not out.exists()

    def test_middle_integral_computes_each_anchor_once(self, monkeypatch, capsys):
        # in the order each is first named, however long the list
        assert run_cli("probe", "logperiodic", "middle_integral", "k_list=4,3") == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        calls = []
        ratio = cli.lp.middle_mass_ratio
        monkeypatch.setattr(cli.lp, "middle_mass_ratio",
                            lambda x, *rest: calls.append(x) or ratio(x, *rest))
        assert run_cli("probe", "logperiodic", "middle_integral",
                       "k_list=" + ",".join(["4", "3"] * 2000)) == 0
        assert capsys.readouterr().out.splitlines()[1:] == rows
        assert calls == [cli.lp.anchor(4), cli.lp.anchor(3)]

    def test_counts_in_range_run(self, capsys):
        assert run_cli("probe", "mixture", "schedule", "--m-max", "1") == 0
        assert run_cli("probe", "notched", "knot_ratio_series", "n_max=2") == 0
        assert run_cli("probe", "notched", "knot_scan", "n_max=1") == 0
        assert run_cli("probe", "notched", "knot_scan", "n_max=3",
                       "--precision-bits", "6144") == 0
        assert run_cli("probe", "logperiodic", "almost_decrease_scan", "k_max=1") == 0
        assert len(capsys.readouterr().out.splitlines()) == 11

    def test_help_states_the_count_ranges(self, capsys):
        for command in ("build", "probe", "report"):
            with pytest.raises(SystemExit):
                run_cli(command, "--help")
            assert "schedule atoms, 1..24" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            run_cli("probe", "--help")
        listing = capsys.readouterr().out
        assert ("notched: n_max=40 (2..150000, n_max*precision_bits^2 <= 2^35)"
                in listing)
        assert "notched: n_max=40 (1..70000, n_max*precision_bits^2 <= 2^34)" in listing
        assert "logperiodic: k_max=8 (1..2500)" in listing
        assert "k_list=3,4,5,6 (each 1..60)" in listing

    @pytest.mark.parametrize("probe", ["chi", "karamata_ratio"])
    def test_logperiodic_abscissas_are_not_knot_labels(self, probe, tmp_path,
                                                       capsys):
        # a label such as c3 is a knot of the notched construction, whose
        # position reads precision_bits
        out = tmp_path / "out"
        assert run_cli("probe", "logperiodic", probe, "x=c3", "--out", str(out)) == 2
        assert capsys.readouterr().err == "usage error: bad value for x: 'c3'\n"
        assert not out.exists()

    @pytest.mark.parametrize("label, reason", [
        ("d1", "threshold knots need n >= 2"),
        ("s1", "threshold knots need n >= 2"),
        ("c0", "n must be a positive integer, got 0"),
        ("a65", "knots are placed for n <= 64)"),
        ("c" + "9" * 60, "knots are placed for n <= 64)"),
        # more digits than int() reads under Python's default limit
        ("c" + "1" * 4401, "knots are placed for n <= 64)"),
    ], ids=["d1", "s1", "c0", "a65", "c-long", "c-past-digit-limit"])
    def test_a_knot_label_that_cannot_be_placed_says_why(self, label, reason,
                                                         tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("probe", "notched", "long_tail_ratio", f"x=c2,{label}",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        quoted = (repr(label) if len(label) <= 40
                  else f"'{label[:40]}…' ({len(label):,} characters)")
        assert err.startswith(f"usage error: bad value for x: {quoted} ({reason}")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("argv, key, value", [
        (["build", "logperiodic", "--delta"], "delta", "1/" + "3" * 4400 + "x"),
        (["build", "notched", "--n"], "n", "9" * 4000),
        (["probe", "notched", "knot_scan"], "n_max", "n_max=" + "7" * 300),
        (["probe", "notched", "subexp_ratio"], "x", "x=" + "1" * 3000 + ".5.5"),
    ], ids=["rational", "int-range", "probe-int-range", "points"])
    def test_usage_error_quotes_a_bounded_prefix(self, argv, key, value, tmp_path,
                                                 capsys):
        # a fixed-length prefix and the text's length, not the whole text
        out = tmp_path / "out"
        assert run_cli(*argv, value, "--out", str(out)) == 2
        text = value.removeprefix(f"{key}=")
        assert capsys.readouterr().err.startswith(
            f"usage error: bad value for {key}: '{text[:40]}…' ({len(text):,} characters)")
        assert not out.exists()

    def test_a_knot_label_with_leading_zeros_names_its_knot(self, tmp_path):
        # the label's digits are counted before int() reads them, which
        # refuses more than sys.get_int_max_str_digits() of them
        out, ref = tmp_path / "out", tmp_path / "ref"
        label = "c" + "0" * 4400 + "1"
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert run_cli("probe", "notched", "long_tail_ratio", f"x={label}",
                           "--out", str(out)) == 0
        finally:
            sys.set_int_max_str_digits(old)
        assert run_cli("probe", "notched", "long_tail_ratio", "x=c1",
                       "--out", str(ref)) == 0
        (head, row), (ref_head, ref_row) = (
            f.read_text().splitlines() for f in (out, ref))
        # the same row but for the label, which is written as given
        assert head == ref_head and row.startswith(f"long_tail_ratio,{label},")
        assert row.removeprefix(f"long_tail_ratio,{label}") == \
            ref_row.removeprefix("long_tail_ratio,c1")

    @pytest.mark.parametrize("argv", [
        ["notched", "long_tail_ratio", "x=c64"],
        ["notched", "subexp_ratio", "x=c40"],
        ["notched", "split_integrals", "block=3", "x=c40"],
        ["notched", "local_tail_ratio", "x=b30"],
        ["file:{knots}", "subexp_ratio", "x=1e300"],
    ], ids=["long-tail-c64", "subexp-c40", "split-c40", "local-tail-b30", "file-1e300"])
    def test_a_refused_value_is_named_in_a_short_line(self, argv, tmp_path, capsys):
        # each value past the support or the block is hundreds of digits
        # long; the refusal names its first 40 characters and its length
        knots, out = tmp_path / "f.knots", tmp_path / "out"
        knots.write_text("knot 0 1\nknot 1 1\n")
        assert run_cli("probe", *[a.format(knots=knots) for a in argv],
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid request: ") and " characters)" in err
        assert all(len(line) <= 200 for line in err.splitlines())
        assert err.count("\n") == 1 and not out.exists()


class TestProbeCommand:
    def test_knot_ratio_series(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert run_cli("probe", "notched", "knot_ratio_series", "n_max=5",
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "probe,x_or_n,value,aux_json,precision_flag"
        assert len(lines) == 5  # n = 2..5

    def test_point_labels(self, tmp_path):
        out = tmp_path / "lt.csv"
        assert run_cli("probe", "notched", "long_tail_ratio", "x=c5,b5",
                       "n=6", "t=1", "--out", str(out)) == 0
        body = out.read_text().splitlines()
        assert body[1].startswith("long_tail_ratio,c5,")
        assert body[2].startswith("long_tail_ratio,b5,")

    # 1/33...3 with a 4,400-digit denominator, past Python's default limit
    # of 4,300 digits on int-to-str conversion, as each option and parameter
    # that reads a rational; {cfg} is a config file holding it as d
    LONG = "1/" + "3" * 4400

    @pytest.mark.parametrize("argv", [
        ["probe", "logperiodic", "chi", "x=1", "--delta", LONG],
        ["probe", "logperiodic", "karamata_ratio", "x=100", "--delta", LONG],
        ["probe", "notched", "long_tail_ratio", "x=c5", "n=6", f"t={LONG}"],
        ["probe", "notched", "almost_decrease_scan", "n=4", f"x0={LONG}"],
        ["probe", "notched", "local_tail_ratio", "x=c5", "n=6", "--d", LONG],
        ["probe", "notched", "local_tail_ratio", "x=c5", "n=6", "--config", "{cfg}"],
    ], ids=["delta-chi", "delta-karamata", "t", "x0", "d", "d-config"])
    def test_long_rationals_read_whatever_the_digit_limit(self, argv, tmp_path):
        cfg = tmp_path / "d.cfg"
        cfg.write_text(f"d = {self.LONG}\n")
        argv = [a.format(cfg=cfg) for a in argv]
        env = child_env()
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        outputs = []
        for limit in (["-X", "int_max_str_digits=640"], [],
                      ["-X", "int_max_str_digits=0"]):
            child = subprocess.run([sys.executable, *limit, "-m", "tailkit.cli", *argv],
                                   capture_output=True, env=env)
            assert child.returncode == 0, child.stderr
            outputs.append(child.stdout)
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2]

    def test_scan_start_past_the_digit_limit(self, capsys):
        # a start of 5,001 digits, below the support: the scan is the one
        # from 0, and the label renders the start whole, past the default
        # limit on int-to-str conversion
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            rows = [run_cli("probe", "notched", "almost_decrease_scan", f"x0={x0}")
                    for x0 in ("-1e5000", "0")]
        finally:
            sys.set_int_max_str_digits(old)
        far, zero = capsys.readouterr().out.splitlines()[1::2]
        assert rows == [0, 0]
        assert far == zero.replace("x0=0,", f"x0=-1{'0' * 5000},")

    def test_unknown_probe_lists_valid(self, capsys):
        assert run_cli("probe", "notched", "nope") == 2
        err = capsys.readouterr().err
        assert "knot_ratio_series" in err

    def test_probe_needs_two_names(self):
        assert run_cli("probe", "notched") == 2

    def test_typo_parameter_rejected(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert run_cli("probe", "notched", "knot_ratio_series", "n_mx=5",
                       "--out", str(out)) == 2
        assert "n_mx" in capsys.readouterr().err
        assert not out.exists()

    def test_unread_parameter_rejected(self, capsys):
        assert run_cli("probe", "notched", "subexp_ratio", "n=3",
                       "points=zz") == 2
        assert "points" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("probe", "notched", "local_tail_ratio", "--d", "1/0"),
        ("probe", "notched", "long_tail_ratio", "t=1/0"),
        ("build", "logperiodic", "--delta", "1/0"),
        # an empty point list, which would give a CSV of the header alone
        ("probe", "notched", "subexp_ratio", "x="),
        ("probe", "notched", "subexp_ratio", "x=,"),
    ])
    def test_zero_denominator_is_usage_error(self, argv, tmp_path, capsys):
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        # the error quotes the bad value
        assert "usage error" in err and repr(argv[-1].split("=")[-1]) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 11, 63])
    def test_report_notched_at_every_truncation(self, n, tmp_path, capsys):
        # i2_bound_check's blocks default to max(1, n // 2) and n, both
        # materialized at every n
        out = tmp_path / "report.csv"
        assert run_cli("report", "notched", "--n", str(n), "--out", str(out)) == 0, \
            capsys.readouterr().err
        half = max(1, n // 2)
        rows = [line for line in out.read_text().splitlines()
                if line.startswith("i2_bound_check,")]
        assert [row.split(",")[1] for row in rows] == (
            [str(n)] if half == n else [str(half), str(n)])

    @pytest.mark.parametrize("argv, blocks", [
        (["report", "notched", "--n", "1"], ["1"]),
        (["probe", "notched", "i2_bound_check", "n_list=5,5,10"], ["5", "10"]),
        (["probe", "notched", "i2_bound_check", "n_list=10,5,10,5"], ["10", "5"]),
    ], ids=["default-at-n1", "repeated-first", "repeated-interleaved"])
    def test_i2_bound_check_writes_each_block_once(self, argv, blocks, capsys):
        # a block named twice is computed and written once, where it first
        # appears: the rows of the blocks listed once each
        assert run_cli(*argv) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("i2_bound_check,")]
        assert [row.split(",")[1] for row in rows] == blocks
        n = argv[-1] if argv[-2] == "--n" else "10"
        assert run_cli("probe", "notched", "i2_bound_check",
                       "n_list=" + ",".join(blocks), "--n", n) == 0
        assert capsys.readouterr().out.splitlines()[1:] == rows

    @pytest.mark.parametrize("source", ["flag", "key", "config"])
    @pytest.mark.parametrize("n", ["0", "64", "-1", "100000"])
    def test_n_outside_the_dense_limit_is_refused_at_parse(self, n, source,
                                                           tmp_path, capsys):
        # the option's range is the build's: block n needs a_{n+1}, and
        # a_64 is the last knot the dense limit materializes
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = {n}\n")
        given = {"flag": ["--n", n], "key": [f"n={n}"],
                 "config": ["--config", str(cfg)]}[source]
        # knot_ratio_series never builds the density: the parse refuses n
        assert run_cli("probe", "notched", "knot_ratio_series", "n_max=2",
                       *given, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"bad value for n: {n!r} (n takes 1..63)" in err
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("source", ["flag", "key", "config"])
    @pytest.mark.parametrize("bits, code", [
        ("31", 2), ("32", 0), ("6144", 0), ("6145", 2), ("20000", 2)])
    def test_precision_bits_takes_its_stated_range(self, bits, code, source,
                                                   tmp_path, capsys):
        # the ceiling bounds the work: verify takes about 10 s at 6,144 bits
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"precision_bits = {bits}\n")
        given = {"flag": ["--precision-bits", bits],
                 "key": [f"precision_bits={bits}"],
                 "config": ["--config", str(cfg)]}[source]
        assert run_cli("probe", "notched", "knot_ratio_series", "n_max=2",
                       *given, "--out", str(out)) == code
        err = capsys.readouterr().err
        if code:
            assert (f"bad value for precision_bits: {bits!r} "
                    "(precision_bits takes 32..6144)") in err
            assert err.count("\n") == 1 and not out.exists()
        else:
            assert err == "" and out.read_text().count("\n") == 2

    def test_n_at_the_dense_limit_builds(self, tmp_path):
        from tailkit import notched
        assert notched.DENSE_LIMIT == 64
        assert run_cli("build", "notched", "--n", "63", "--out", str(tmp_path)) == 0
        assert "n = 63\n" in (tmp_path / "notched.meta").read_text()

    def test_help_states_the_range_of_n(self, capsys):
        for command in ("build", "probe", "report"):
            with pytest.raises(SystemExit):
                run_cli(command, "--help")
            assert "construction, 1..63" in capsys.readouterr().out

    def test_help_states_the_range_of_precision_bits(self, capsys):
        for command in ("build", "probe", "verify", "report"):
            with pytest.raises(SystemExit):
                run_cli(command, "--help")
            assert "snapped constant, 32..6144" in capsys.readouterr().out

    @pytest.mark.parametrize("command, reads", [
        ("build", "construction n m-max precision-bits delta out"),
        ("probe", "construction n m-max precision-bits delta d out"),
        ("convolve", "out"),
        ("verify", "precision-bits out"),
        ("report", "construction n m-max precision-bits delta d out"),
    ])
    def test_help_lists_the_options_the_command_reads(self, command, reads,
                                                       capsys):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        flags = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
        assert flags == [f"--{name}" for name in reads.split()] + ["--config"]

    def test_i2_bound_check_rejects_block_outside_truncation(self, capsys):
        assert run_cli("probe", "notched", "i2_bound_check", "n=10",
                       "n_list=5,12") == 2
        assert "block 12 is not materialized" in capsys.readouterr().err

    def test_crossing_of_the_last_block_is_outside_the_support(self, capsys):
        # at n=63 the support ends at a_64: d64, like c64, parses and lies
        # past it
        errors = []
        for x in ("c64", "d64"):
            assert run_cli("probe", "notched", "long_tail_ratio", f"x={x}",
                           "--n", "63") == 2
            errors.append(capsys.readouterr().err.partition(" is outside")[1:])
        assert errors[0] == errors[1] and errors[0][0]

    def test_split_integrals_rejects_block_outside_truncation(self, capsys):
        # the block is checked before its abscissa c6 is convolved
        assert run_cli("probe", "notched", "split_integrals", "block=6",
                       "n=5") == 2
        assert capsys.readouterr().err == (
            "invalid request: block 6 is not materialized (N=5)\n")

    @pytest.mark.parametrize("construction, probe, accepted", [
        ("file:{tri}", "split_integrals", "notched"),
        ("file:{tri}", "i2_bound_check", "notched"),
        ("file:{tri}", "knot_scan", "notched"),
        ("wavelet", "knot_ratio_series", "notched"),
        ("mixture", "chi", "logperiodic"),
        ("logperiodic", "long_tail_ratio", "notched, file:<path>"),
    ])
    def test_probe_on_a_construction_it_does_not_describe(
            self, construction, probe, accepted, tmp_path, capsys):
        tri = tmp_path / "tri.pw"
        from tailkit.piecewise import dump_text
        tri.write_text(dump_text(from_linear_knots([(0, 0), (1, 1), (2, 0)])))
        out = tmp_path / "out.csv"
        assert run_cli("probe", construction.format(tri=tri), probe, "n=2",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"probe {probe} takes the construction {accepted}," in err
        assert not out.exists()

    def test_help_lists_every_probe(self, capsys):
        with pytest.raises(SystemExit) as done:
            run_cli("probe", "--help")
        assert done.value.code == 0
        listing = capsys.readouterr().out
        for p in probes.PROBES:
            assert f"  {p.name} " in listing
        assert "logperiodic: k_max=8" in listing

    def test_parameters_checked_before_any_probe_runs(self, monkeypatch,
                                                      capsys):
        # n_list belongs to i2_bound_check, the seventh probe of the report
        ran = []
        monkeypatch.setattr(cli.probes, "knot_ratio_series",
                            lambda *args: ran.append(args) or [])
        assert run_cli("report", "notched", "n_list=5,x") == 2
        assert "bad value for n_list" in capsys.readouterr().err
        assert ran == []

    def test_karamata_past_the_depth_cap_is_exit_3(self, capsys):
        assert run_cli("probe", "logperiodic", "karamata_ratio", "x=1e28") == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "karamata_ratio,1e28,1.00000000039514258201118349500542628116,{},0")
        # this used to print 539544.149... with exit 0
        assert run_cli("probe", "logperiodic", "karamata_ratio", "x=1e30") == 3
        captured = capsys.readouterr()
        assert "quadrature stalled at depth 52" in captured.err
        assert "karamata_ratio" not in captured.out

    def test_quadrature_past_the_evaluation_cap_is_exit_3(self, monkeypatch,
                                                          capsys):
        monkeypatch.setattr(cli.lp, "_MAX_EVALS", 64)
        assert run_cli("probe", "logperiodic", "karamata_ratio", "x=100") == 3
        captured = capsys.readouterr()
        spent = re.search(r"quadrature stalled after (\d+) evaluations",
                          captured.err)
        assert spent and 64 <= int(spent.group(1)) < 70
        assert "karamata_ratio" not in captured.out

    def test_blowup_probe(self, tmp_path):
        out = tmp_path / "blowup.csv"
        assert run_cli("probe", "mixture", "blowup", "m_max=2", "d=1",
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("blowup_exact,")
        assert lines[2].startswith("blowup_lower_bound,")

    @pytest.mark.pin
    def test_blowup_at_half_window_matches_spec(self, tmp_path):
        out = tmp_path / "blowup.csv"
        assert run_cli("probe", "mixture", "blowup", "m_max=3", "d=1/2",
                       "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == BLOWUP_HALF_SHA256

    def test_file_construction(self, tmp_path):
        src = tmp_path / "tri.pw"
        from tailkit.piecewise import dump_text
        src.write_text(dump_text(from_linear_knots([(0, 0), (1, 1), (2, 0)])))
        out = tmp_path / "file.csv"
        assert run_cli("probe", f"file:{src}", "long_tail_ratio", "x=1/2",
                       "t=1/4", "--out", str(out)) == 0
        assert "long_tail_ratio,1/2," in out.read_text()

    @pytest.mark.parametrize("probe, x, refusal", [
        ("long_tail_ratio", "1", "density is negative at x=1"),
        ("local_tail_ratio", "1", "density is negative at x=1"),
        ("subexp_ratio", "1", "density is negative at x=1"),
        ("long_tail_ratio", "7/4", "density at x=11/4 is negative"),
        ("local_tail_ratio", "7/4", "mass over (7/4, 11/4] is negative"),
        ("subexp_ratio", "7/4", "self-convolution at x=7/4 is negative"),
    ])
    def test_ratio_probes_refuse_a_negative_function(self, probe, x, refusal,
                                                     tmp_path, capsys):
        # f is -1, 3, -3 on (0, 1], (1, 2], (2, 3]: f(1) < 0, and at 7/4,
        # where f = 3, f(11/4), the mass over (7/4, 11/4] and (f*f)(7/4)
        # are negative; each used to print a negative ratio with exit 0
        src = tmp_path / "neg.pw"
        src.write_text("seg 0 1 -1 0 0 0\nseg 1 2 3 0 0 0\nseg 2 3 -3 0 0 0\n")
        assert run_cli("probe", f"file:{src}", probe, f"x={x}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"invalid request: {refusal}"]

    @pytest.mark.parametrize("seg, degree", [("1 -3 3 0", 2), ("1 0 0 1", 3)],
                             ids=["quadratic", "cubic"])
    def test_scan_refuses_a_file_that_is_not_piecewise_linear(self, seg, degree,
                                                              tmp_path, capsys):
        # f = 1 - 3u + 3u^2 dips to 1/4 at u = 1/2 and is 1 at both knots:
        # a scan of the knot values alone read sup f(y)/f(x) = 1 there,
        # where long_tail_ratio x=1/2 t=1 reads 4
        src = tmp_path / "dip.pw"
        src.write_text(f"# flags: density\nseg 0 1 {seg}\nseg 1 2 1 0 0 0\n")
        assert run_cli("probe", f"file:{src}", "almost_decrease_scan") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"invalid request: segment [0, 1] has degree {degree}; "
            "the knot scan is exact on piecewise-linear densities only"]

    def test_scan_refuses_a_file_that_jumps_in_value(self, tmp_path, capsys):
        # f is 1 on [0, 1] and jumps to 5 at 1: the knot values are 1, 1
        # and 1, where long_tail_ratio x=1/2 t=1 reads 3 and the sup is 5,
        # approached just right of 1
        src = tmp_path / "jump.pw"
        src.write_text("# flags: density\nseg 0 1 1 0 0 0\nseg 1 2 5 -4 0 0\n")
        assert run_cli("probe", f"file:{src}", "almost_decrease_scan") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "invalid request: the value jumps at 1; "
            "the knot scan is exact on continuous densities only"]
        out = tmp_path / "ratio.csv"
        assert run_cli("probe", f"file:{src}", "long_tail_ratio", "x=1/2", "t=1",
                       "--out", str(out)) == 0
        assert "long_tail_ratio,1/2,3," in out.read_text()

    def test_file_that_is_not_utf8_names_it(self, tmp_path, capsys):
        src = tmp_path / "tri.pw"
        src.write_bytes(b"knot 0 0\nknot 1 \xff1\nknot 2 0\n")
        assert run_cli("probe", f"file:{src}", "long_tail_ratio", "x=1/2") == 2
        err = capsys.readouterr().err
        assert f"{src}: not UTF-8 text (invalid start byte at byte 16)" in err

    def test_middle_integral_that_is_not_positive_is_exit_3(self, monkeypatch,
                                                            capsys):
        cli.lp.normalizers(cli.lp.LogPeriodicParams())
        monkeypatch.setattr(cli.lp, "_integrate",
                            lambda f, pts, tol: (cli.lp.fzero, cli.lp.fzero))
        assert run_cli("probe", "logperiodic", "middle_integral", "k_list=4") == 3
        captured = capsys.readouterr()
        assert "middle integral at x=" in captured.err
        assert "middle_integral" not in captured.out


_UNIFORM = from_linear_knots([(0, 1), (1, 1)])


class TestConvolve:
    def test_self_convolution(self, tmp_path):
        from tailkit.piecewise import dump_text
        src = tmp_path / "unif.pw"
        src.write_text(dump_text(from_linear_knots([(0, 1), (1, 1)])))
        out = tmp_path / "conv.pw"
        assert run_cli("convolve", str(src), "--out", str(out)) == 0
        tri = load_text(out.read_text())
        assert tri.eval(1) == 1 and tri.eval(Fraction(1, 2)) == Fraction(1, 2)

    def test_build_then_convolve_matches_memory(self, tmp_path):
        from tailkit import convolution as conv
        from tailkit import notched
        assert run_cli("build", "notched", "n=2", "--out", str(tmp_path)) == 0
        out = tmp_path / "conv.pw"
        assert run_cli("convolve", str(tmp_path / "notched.knots"),
                       "--out", str(out)) == 0
        loaded = load_text(out.read_text())
        nd = notched.build_density(2)
        expected = conv.conv_linear_exact(nd.dense, nd.dense)
        for x in (Fraction(1), Fraction(20), Fraction(100, 3)):
            assert loaded.eval(x) == expected.eval(x)

    @pytest.mark.pin
    def test_notched_convolution_matches_spec(self, tmp_path):
        assert run_cli("build", "notched", "n=4", "--out", str(tmp_path)) == 0
        out = tmp_path / "conv.pw"
        assert run_cli("convolve", str(tmp_path / "notched.knots"),
                       "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == NOTCHED4_CONV_SHA256

    @pytest.mark.pin
    @pytest.mark.parametrize("n", [6, 8])
    def test_larger_notched_convolutions_match_spec(self, n, tmp_path):
        assert run_cli("build", "notched", f"n={n}", "--out", str(tmp_path)) == 0
        out = tmp_path / "conv.pw"
        assert run_cli("convolve", str(tmp_path / "notched.knots"),
                       "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == NOTCHED_CONV_SHA256[n]

    def test_round_trip_probe_equality(self, tmp_path):
        # build -> serialize -> load -> probe equals the in-memory probe
        from tailkit import notched, probes
        from tailkit.piecewise import dump_text
        nd = notched.build_density(2)
        src = tmp_path / "nd.pw"
        src.write_text(dump_text(nd.dense))
        loaded = load_text(src.read_text())
        x = notched.knot_position("c", 2)
        assert (probes.long_tail_ratio(loaded, x, 1)
                == probes.long_tail_ratio(nd.dense, x, 1))

    def test_too_many_files(self, tmp_path):
        assert run_cli("convolve", "a", "b", "c") == 2

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli("convolve", str(tmp_path / "ghost.pw")) == 4

    def test_bad_rational_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "f.pw"
        src.write_text("knot 0 1/0\nknot 1 0\n")
        assert run_cli("convolve", str(src), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "knot 0 1/0" in err and "Traceback" not in err

    def test_bytes_independent_of_int_digit_limit(self, tmp_path):
        # a 5,000-digit knot value: the output has values of twice that
        # length, past Python's default limit on int-to-str conversion
        from tailkit.piecewise import dump_text
        src = tmp_path / "long.pw"
        src.write_text(dump_text(from_linear_knots(
            [(0, 0), (Fraction(1, 3), Fraction(7 ** 5916, 3)), (1, 1)])))
        env = child_env()
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        outputs = []
        for limit in (["-X", "int_max_str_digits=640"], [],
                      ["-X", "int_max_str_digits=0"]):
            out = tmp_path / f"conv{len(outputs)}.pw"
            child = subprocess.run(
                [sys.executable, *limit, "-m", "tailkit.cli", "convolve",
                 str(src), "--out", str(out)], capture_output=True, env=env)
            assert child.returncode == 0, child.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2]

    def test_exponent_is_usage_error(self, tmp_path, capsys):
        # Fraction("1e<k>") builds 10**k; the format never writes an exponent
        src, out = tmp_path / "f.pw", tmp_path / "o.pw"
        src.write_text("knot 0 0\nknot 1e5 1\n")
        assert run_cli("convolve", str(src), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "1e5" in err and err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("argv, lines, names, value", [
        (["convolve", "{src}"], [f"knot {'7' * 5000} 1", "knot 0 1"],
         "strictly increase", "7" * 5000),
        (["convolve", "{src}"],
         [f"seg 0 {'7' * 5000} 1 0 0 0", f"seg {'7' * 5000} 1 1 0 0 0"],
         "strictly increase", "7" * 5000),
        (["convolve", "{src}"], ["knot 0 1", f"knot 1 -{'7' * 5000}"],
         "nonnegative", "-" + "7" * 5000),
        (["probe", "notched", "subexp_ratio", "x=1e5000"], [],
         "outside the support", "1" + "0" * 5000),
        (["build", "logperiodic", "--delta", "1e5000"], [],
         "delta must lie in (0, 1/2)", "1" + "0" * 5000),
        (["probe", "logperiodic", "chi", "x=-1e5000"], [],
         "chi is defined on x >= 0", "-1" + "0" * 5000),
    ], ids=["knots-unordered", "segs-unordered", "negative-value",
            "subexp-outside-support", "delta-out-of-range", "chi-negative-x"])
    def test_error_names_the_fault_past_the_digit_limit(self, argv, lines, names,
                                                         value, tmp_path, capsys):
        # the offending value, of 5,000 digits or more, is past the default
        # limit on int-to-str conversion, which must not replace the message;
        # the message names its first 40 characters and its length
        src, out = tmp_path / "f.pw", tmp_path / "o.pw"
        src.write_text("\n".join(lines) + "\n")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code = run_cli(*[a.format(src=src) for a in argv], "--out", str(out))
        finally:
            sys.set_int_max_str_digits(old)
        err = capsys.readouterr().err
        brief = f"{value[:40]}… ({len(value):,} characters)"
        assert code == 2 and names in err and brief in err
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("argv, key, value", [
        (["probe", "notched", "long_tail_ratio", "x=c3", "t=1e3000000"], "t", "1e3000000"),
        (["build", "logperiodic", "--delta", "1e-3000000"], "delta", "1e-3000000"),
    ], ids=["shift", "delta"])
    def test_huge_exponent_is_refused_at_once(self, argv, key, value, tmp_path):
        # Fraction("1e-3000000") alone takes over a second, and an error
        # message would render all 3,000,000 digits; a child that runs past
        # the timeout fails the test
        child = subprocess.run(
            [sys.executable, "-m", "tailkit.cli", *argv, "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=10, env=child_env())
        assert child.returncode == 2
        assert child.stderr == f"usage error: bad value for {key}: {value!r}\n"

    @pytest.mark.parametrize("argv, key", [
        (["probe", "notched", "subexp_ratio", "x=1e10001"], "x"),
        (["probe", "notched", "almost_decrease_scan", "x0=-2.5E-10001"], "x0"),
        (["probe", "notched", "local_tail_ratio", "--d", "1e+10_001"], "d"),
        (["report", "logperiodic", "delta=1e-10001"], "delta"),
    ], ids=["point", "rational", "d", "delta"])
    def test_exponent_past_the_bound_names_the_key(self, argv, key, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"bad value for {key}:" in err and not out.exists()

    def test_exponent_bound(self):
        for text in ("1e10000", "-2.5E-10000", "1e+10_000", " 3e0 ", "7/2"):
            assert _rational(text) == Fraction(text)
        for text in ("1e10001", "-2.5E-10001", "1e+10_001", "1e" + "9" * 5000, "1e"):
            with pytest.raises(ValueError):
                _rational(text)

    @pytest.fixture(scope="class")
    def knot_files(self, tmp_path_factory):
        """Notched knot files by N; the self-convolution at N=8 is 2.2 MB
        of text."""
        files = {}
        for n in (4, 8):
            work = tmp_path_factory.mktemp(f"notched{n}")
            assert run_cli("build", "notched", f"n={n}", "--out", str(work)) == 0
            files[n] = work / "notched.knots"
        return files

    def test_output_streams_below_its_size(self, knot_files, tmp_path):
        # the sweep makes each cell as the writer asks for its line, and the
        # writer takes the lines one at a time: the command holds neither
        # its text (2.2 MB) nor its cells (about 0.9 MB of Fractions) whole,
        # so its traced peak stays below a third of the file's size
        from tailkit import convolution, piecewise
        # the layers are lazy modules: run them before the trace starts
        assert convolution.dense_sweep and piecewise.dump_cells
        out = tmp_path / "conv.pw"
        tracemalloc.start()
        try:
            assert cli.main(["convolve", str(knot_files[8]), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size / 3, (peak, out.stat().st_size)

    @pytest.mark.parametrize("n", [4, 8])
    def test_stdout_and_file_write_the_same_bytes(self, n, knot_files, tmp_path,
                                                  capsysbinary):
        from tailkit import convolution as conv
        from tailkit.piecewise import dump_text
        knots, out = knot_files[n], tmp_path / "conv.pw"
        assert run_cli("convolve", str(knots), "--out", str(out)) == 0
        assert run_cli("convolve", str(knots)) == 0
        printed = capsysbinary.readouterr().out
        p = load_text(knots.read_text())
        expected = dump_text(conv.conv_linear_exact(p, p)).encode()
        assert printed == out.read_bytes() == expected
        if n == 4:
            assert hashlib.sha256(printed).hexdigest() == NOTCHED4_CONV_SHA256

    @given(linear_operands(), linear_operands(), st.booleans())
    @settings(max_examples=60, deadline=None)
    # p takes both signs, yet p*p is nowhere negative: knot lines
    @example(PiecewisePoly([0, 2, 3, 5], [(1, 0), (Fraction(-1, 6), 0), (1, 0)]),
             _UNIFORM, True)
    @example(_UNIFORM.scale(-2), _UNIFORM, False)  # below 0: seg lines
    @example(_UNIFORM.scale(-2), _UNIFORM, True)   # p*p above 0: knot lines
    # an older file's empty flags line is a comment; p*p is a knot file
    @example(load_text("# flags:\nseg 0 1 1 0 0 0"), _UNIFORM, True)
    def test_stream_writes_the_held_result(self, tmp_path_factory, p, q, same):
        # one file is a self-convolution, two a cross-convolution; a linear
        # result is written as knots only if nowhere negative
        from tailkit import convolution as conv
        from tailkit.piecewise import dump_text
        work = tmp_path_factory.mktemp("stream")
        files = [work / "p.pw"] if same else [work / "p.pw", work / "q.pw"]
        for path, f in zip(files, (p, q)):
            path.write_text(dump_text(f), encoding="utf-8")
        loaded = [load_text(path.read_text(encoding="utf-8")) for path in files]
        held = conv.conv_linear_exact(loaded[0], loaded[-1])
        out, printed = work / "conv.pw", io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert cli.main(["convolve", *map(str, files)]) == 0
        assert cli.main(["convolve", *map(str, files), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert printed.getvalue() == text == dump_text(held)
        # the file loads back to the held result
        assert load_text(text) == held

    @pytest.mark.pin
    def test_uniform_self_convolution_is_three_knots(self, tmp_path, capsys):
        # a continuous result of degree 1 is written as knots, on both paths
        src, out = tmp_path / "unif.pw", tmp_path / "conv.pw"
        src.write_text("knot 0 1\nknot 1 1\n", encoding="utf-8")
        assert run_cli("convolve", str(src)) == 0
        assert run_cli("convolve", str(src), "--out", str(out)) == 0
        expected = "# tailkit piecewise v1\nknot 0 0\nknot 1 1\nknot 2 0\n"
        assert capsys.readouterr().out == out.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("flags", ["", " continuous", " density",
                                       " continuous density"])
    @pytest.mark.parametrize("body", [
        "knot 0 1\nknot 1 1\n",
        "seg 0 1/3 0 3 0 0\nseg 1/3 1 1 -3/2 0 0\n",
        "seg 0 1 1 0 0 0\nseg 1 2 3 0 0 0\n",
    ], ids=["knots", "thirds", "jump"])
    def test_older_flags_line_is_a_comment(self, flags, body, tmp_path):
        # a file written with a flags line loads, and convolves, as the same
        # file without it; no file written has one
        old, new = tmp_path / "old.pw", tmp_path / "new.pw"
        old.write_text(f"# tailkit piecewise v1\n# flags:{flags}\n{body}")
        new.write_text(f"# tailkit piecewise v1\n{body}")
        assert load_text(old.read_text()) == load_text(new.read_text())
        for f in (old, new):
            assert run_cli("convolve", str(f), "--out", str(f) + ".conv") == 0
        written = (tmp_path / "old.pw.conv").read_text()
        assert written == (tmp_path / "new.pw.conv").read_text()
        assert "# flags:" not in written

    @pytest.mark.parametrize("text, code", [
        ("seg 0 1 1 0 1 0\nseg 1 2 1 0 0 0\n", 2),     # not linear
        ("knot 0 1\nknot 1\n", 2),                     # malformed
        ("knot 1 1\nknot 0 1\n", 2),                   # unordered
    ], ids=["nonlinear", "malformed", "unordered"])
    def test_rejected_input_leaves_the_output_file(self, text, code, tmp_path,
                                                   capsys):
        src, out = tmp_path / "in.pw", tmp_path / "conv.pw"
        src.write_text(text)
        out.write_bytes(b"an earlier result\n")
        assert run_cli("convolve", str(src), "--out", str(out)) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert out.read_bytes() == b"an earlier result\n"

    def test_tampered_file_rejected(self, tmp_path, capsys):
        # swapping knot lines breaks the strict-increase invariant on load
        from tailkit import notched
        from tailkit.piecewise import dump_text
        src = tmp_path / "bad.pw"
        lines = dump_text(notched.build_density(2).dense).splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        src.write_text("\n".join(lines) + "\n")
        assert run_cli("convolve", str(src), "--out", str(tmp_path / "o")) == 2
        assert "increase" in capsys.readouterr().err


# Piecewise text for the malformed-input fuzz.  Its exponent tokens are
# refused on load: Fraction("1e10000000") alone would take seconds.
_X = small_fractions(-4, 8, max_denominator=6)
_VALUE = small_fractions(-1, 8, max_denominator=6)
_C2 = st.sampled_from([0, 0, 0, 1])  # a nonzero c2 makes a segment nonlinear
_NOT_RATIONAL = st.sampled_from(["1/0", "0/0", "-1/0", "x", "nan", "inf",
                                 "1//2", "--1", "1.2.3", "/3", "½", "0x10"])
_FIELD = st.one_of(
    _X.map(str),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.decimals(min_value=-100, max_value=100, places=2).map("{:f}".format),
    _NOT_RATIONAL,
    st.builds("{}{}{}".format, st.sampled_from(["1", "-2", "0.5", "3/"]),
              st.sampled_from(["e", "E", "e-", "e+"]),
              st.integers(0, 10 ** 7)),
    st.text(alphabet="0123456789+-./_ ex", max_size=6))
_EXTRA_LINE = st.one_of(
    st.builds("knot {} {}".format, _X, _VALUE),
    st.builds("seg {} {} {} {} {} 0".format, _X, _X, _X, _X, _C2),
    st.builds("knot {} {}".format, _FIELD, _FIELD),
    st.lists(_FIELD, min_size=6, max_size=6).map(" ".join).map("seg {}".format),
    st.builds("{} {}".format,
              st.sampled_from(["knot", "seg", "KNOT", "knots", "#", "# flags:",
                               "# flags: continuous density"]),
              st.lists(_FIELD, max_size=8).map(" ".join)))


@st.composite
def piecewise_bytes(draw):
    """Knot or seg lines in order, then edited: lines of either kind or
    malformed ones inserted, a field replaced, two lines swapped, bytes that
    are not UTF-8 spliced in."""
    xs = sorted(draw(st.lists(_X, min_size=2, max_size=6, unique=True)))
    if draw(st.booleans()):
        lines = [f"knot {x} {draw(_VALUE)}" for x in xs]
    else:
        lines = [f"seg {a} {b} {draw(_X)} {draw(_X)} {draw(_C2)} 0"
                 for a, b in zip(xs, xs[1:])]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_EXTRA_LINE))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(" ")
        fields[draw(st.integers(1, len(fields) - 1))] = draw(
            st.one_of(_NOT_RATIONAL, _FIELD))
        lines[i] = " ".join(fields)
    if draw(st.booleans()):
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        lines[i], lines[j] = lines[j], lines[i]
    data = ("\n".join(lines) + "\n").encode()
    at = draw(st.integers(0, len(data)))
    splice = draw(st.sampled_from([b""] * 5 + [b"\xff", b"\xc3(", b"\x80"]))
    return data[:at] + splice + data[at:]


# a text of 100,000 characters where a refusal names the text it refuses;
# each case reads the piecewise file "{pw}" and the config file "{cfg}"
_LONG = "x" * 100_000
_LONG_TEXT_REFUSALS = {
    "unrecognized piecewise line": ("seg 0 1 " + "1" * 200_000, ["convolve", "{pw}"]),
    "bad rational": ("seg 0 1 1 0 0 " + "1" * 200_000 + "x", ["convolve", "{pw}"]),
    "config key": ("", ["convolve", "{pw}", "--config", "{cfg}"]),
    "construction": ("", ["build", _LONG]),
    "second construction": ("", ["build", "notched", _LONG]),
    "build parameter": ("", ["build", "notched", f"{_LONG}=1"]),
    "probe": ("", ["probe", "notched", _LONG]),
    "probe construction": ("", ["probe", _LONG, "knot_ratio_series"]),
    "probe parameter": ("", ["probe", "notched", "knot_ratio_series", f"{_LONG}=1"]),
}


@pytest.mark.parametrize("case", _LONG_TEXT_REFUSALS)
def test_refusal_cuts_a_long_text(case, tmp_path, capsys):
    # a usage error quotes the first 40 characters of a text and its length
    text, argv = _LONG_TEXT_REFUSALS[case]
    pw, cfg = tmp_path / "in.pw", tmp_path / "run.cfg"
    pw.write_text(text or "knot 0 1\nknot 1 1\n")
    cfg.write_text(f"{_LONG} = 1\n")
    assert run_cli(*(a.format(pw=pw, cfg=cfg) for a in argv)) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 300, err[:300]


class TestConvolveFuzz:
    @given(piecewise_bytes())
    @settings(max_examples=100, deadline=None)
    # its self-convolution takes -2 at 0: knot lines would not load back
    @example(b"seg -1 0 -1 0 0 0\nseg 0 1 1 0 0 0\n")
    def test_malformed_piecewise_text_ends_in_an_exit_code(
            self, tmp_path_factory, data):
        work = tmp_path_factory.mktemp("fuzz")
        src, out = work / "in.pw", work / "out.pw"
        src.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["convolve", str(src), "--out", str(out)])
        assert code in (0, 2, 4), err.getvalue()
        if code == 0:
            load_text(out.read_text())
        else:
            assert err.getvalue().count("\n") == 1 and not out.exists()

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path, capsys):
        src = tmp_path / "in.pw"
        src.write_bytes(b"knot 0 0\nknot 1 1\n\xff")
        assert run_cli("convolve", str(src), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err == (f"usage error: {src}: not UTF-8 text "
                       "(invalid start byte at byte 18)\n")


# Config-file text for the malformed-input fuzz: lines with keys that
# convolve reads, keys it does not read and unknown keys, values that are
# junk, out of range or past the digit limit, and lines that are not
# assignments.
_CONFIG_KEY = st.one_of(
    st.sampled_from(sorted(cli.OPTIONS)),
    st.sampled_from(["PRECISION_BITS", " out ", "alpha", "quad_tol", "x0", "",
                     "precision-bits", "config"]),
    st.text(max_size=8))
_CONFIG_VALUE = st.one_of(
    st.sampled_from(["256", "32", "31", "0", "-64", "2_56", "0x40", "1e5000",
                     "1e-10001", "9" * 40, "9" * 5000, "1/0", "3/2", "nan",
                     "inf", "", "notched", "file:nope"]),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.text(max_size=12))
_CONFIG_LINE = st.one_of(
    st.builds("{}{}{}".format, _CONFIG_KEY,
              st.sampled_from(["=", " = ", "==", "= ="]), _CONFIG_VALUE),
    st.sampled_from(["", "# comment", "#precision_bits = 8", "precision_bits"]),
    st.text(max_size=16))


class TestConfigFuzz:
    @given(st.lists(_CONFIG_LINE, max_size=5),
           st.sampled_from([b"", b"\xff", b"\xc3("]))
    @settings(max_examples=200, deadline=None)
    def test_malformed_config_ends_in_an_exit_code(
            self, tmp_path_factory, lines, splice):
        work = tmp_path_factory.getbasetemp() / "config-fuzz"
        knots, cfg, out = work / "in.pw", work / "run.cfg", work / "out.pw"
        if not knots.exists():
            work.mkdir()
            knots.write_text("knot 0 0\nknot 1 1\nknot 2 0\n")
        out.unlink(missing_ok=True)
        cfg.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass") + splice)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["convolve", str(knots), "--config", str(cfg),
                             "--out", str(out)])
        assert code in (0, 2, 3, 4), err.getvalue()
        if code == 0:
            assert load_text(out.read_text()).total_mass() == 1
        else:
            assert err.getvalue().count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("argv", [["convolve", "{knots}"], ["report", "notched"]])
    def test_bytes_that_are_not_utf8_name_the_file(self, argv, tmp_path, capsys):
        knots, cfg = tmp_path / "in.pw", tmp_path / "run.cfg"
        knots.write_text("knot 0 0\nknot 1 1\nknot 2 0\n")
        cfg.write_bytes(b"precision_bits = 256\n\xff\n")
        argv = [a.format(knots=knots) for a in argv]
        assert run_cli(*argv, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err == (f"usage error: {cfg}: not UTF-8 text "
                       "(invalid start byte at byte 21)\n")


# argv for the malformed-input fuzz: commands, constructions, probe names,
# flags known and unknown, key=value pairs and junk, in any order.  "@knots"
# stands for a knot file the test writes.  verify and logperiodic are left
# out, as a valid run of either takes about half a second; no drawn number
# exceeds 6, as a count such as n_max or k_max may ask for seconds of work
# within its range.
_ARGV_JUNK = st.one_of(
    st.sampled_from(["", "-", "--", "=", "1/0", "-1", "nan", "c", "file:",
                     "file:nope", "notch"]),
    st.text(alphabet="abcdnx-=:,./_ ", max_size=6))
_ARGV_KEYS = sorted({*cli.OPTIONS, *(k for p in probes.PROBES for k in p.params),
                     "N", "bogus", ""})
_ARGV_COMMAND = st.sampled_from(["build", "probe", "report", "convolve"])
_ARGV_CONSTRUCTION = st.sampled_from(["notched", "mixture", "file:@knots", "@knots"])
_ARGV_PROBE = st.sampled_from(sorted({p.name for p in probes.PROBES}))
_ARGV_TOKEN = st.one_of(
    _ARGV_COMMAND, _ARGV_CONSTRUCTION, _ARGV_PROBE,
    st.sampled_from([cli._flag(k) for k in cli.OPTIONS]
                    + ["--config", "-h", "--bogus", "--n-max", "--de", "-n"]),
    st.builds("{}={}".format, st.sampled_from(_ARGV_KEYS),
              st.one_of(st.integers(0, 6).map(str), _ARGV_JUNK)),
    _ARGV_JUNK)


@st.composite
def argv_tokens(draw):
    """A command, often a construction and a probe name, then any tokens:
    the leading names let a share of the draws run."""
    head = [draw(_ARGV_COMMAND)]
    head += draw(st.lists(_ARGV_CONSTRUCTION, max_size=1))
    head += draw(st.lists(_ARGV_PROBE, max_size=1))
    return head + draw(st.lists(_ARGV_TOKEN, max_size=4))


class TestArgvFuzz:
    @given(argv_tokens())
    @settings(max_examples=300, deadline=None)
    def test_any_argv_ends_in_an_exit_code(self, tmp_path_factory, tokens):
        work = tmp_path_factory.mktemp("argv")
        knots = work / "in.pw"
        knots.write_text("knot 0 0\nknot 1 1\nknot 2 0\n")
        argv = [t.replace("@knots", str(knots)) for t in tokens]
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            mp.chdir(work)  # where build and --out write
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: --help, or a usage error
                code = exc.code
        assert code in (0, 1, 2, 3, 4), (argv, out.getvalue())


class TestReportDeterminism:
    def test_mixture_report_bytes_stable_across_processes(self, tmp_path):
        cmd = [sys.executable, "-m", "tailkit.cli", "report", "mixture",
               "m_max=2"]
        # Distinct hash seeds make the two processes differ in hash order.
        a = subprocess.run(cmd, capture_output=True, cwd="/",
                           env=child_env(PYTHONHASHSEED="0"))
        b = subprocess.run(cmd, capture_output=True, cwd="/",
                           env=child_env(PYTHONHASHSEED="1"))
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout and a.stdout

    def test_blowup_bytes_independent_of_int_digit_limit(self):
        # n_m at m = 10 has 4,343 digits, past Python's default limit on
        # int-to-str conversion; the report must not depend on that limit
        cmd = ["-m", "tailkit.cli", "probe", "mixture", "blowup", "m_max=10"]
        env = child_env()
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        outputs = []
        for limit in (["-X", "int_max_str_digits=640"], [],
                      ["-X", "int_max_str_digits=0"]):
            child = subprocess.run([sys.executable, *limit, *cmd],
                                   capture_output=True, env=env)
            assert child.returncode == 0, child.stderr
            outputs.append(child.stdout)
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2]

    def test_report_rejects_typo_parameter(self, tmp_path, capsys):
        out = tmp_path / "mix.csv"
        assert run_cli("report", "mixture", "m_max=2", "n_mx=5",
                       "--out", str(out)) == 2
        assert "n_mx" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.pin
    @pytest.mark.parametrize("construction", sorted(REPORT_SHA256))
    def test_report_matches_spec(self, construction, tmp_path):
        out = tmp_path / "report.csv"
        assert run_cli("report", construction, "--out", str(out)) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == REPORT_SHA256[construction]

    @pytest.mark.pin
    @pytest.mark.parametrize("delta", sorted(LOGPERIODIC_DELTA_SHA256))
    def test_logperiodic_report_at_delta_matches_spec(self, delta, tmp_path):
        out = tmp_path / "report.csv"
        assert run_cli("report", "logperiodic", "--delta", delta,
                       "--out", str(out)) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == LOGPERIODIC_DELTA_SHA256[delta]

    def test_notched_report_builds_once(self, tmp_path, monkeypatch):
        builds = []
        build = cli.notched.build_density

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(cli.notched, "build_density", counting)
        assert run_cli("report", "notched", "--out",
                       str(tmp_path / "report.csv")) == 0
        assert len(builds) == 1

    def test_mixture_report_builds_the_schedule_once(self, tmp_path, monkeypatch):
        # the schedule and blowup probes read one schedule
        builds = []
        build = cli.mx.build_schedule

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(cli.mx, "build_schedule", counting)
        assert run_cli("report", "mixture", "--out",
                       str(tmp_path / "report.csv")) == 0
        assert builds == [(6, cli.DEFAULT_PRECISION)]

    def test_logperiodic_report(self, tmp_path):
        out = tmp_path / "lp.csv"
        assert run_cli("report", "logperiodic", "--out", str(out)) == 0
        text = out.read_text()
        assert "karamata_ratio" in text and "middle_integral" in text


class TestVerify:
    def test_verify_passes_and_is_deterministic(self, tmp_path, capsys):
        # bytes across processes: tests/test_acceptance.py
        out = tmp_path / "battery.csv"
        assert run_cli("verify", "--out", str(out)) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == BATTERY_CSV_SHA256
        stdout = capsys.readouterr().out
        assert "PASS 12_determinism" in stdout

    @pytest.mark.parametrize("argv", [
        ("verify", "--delta", "1/8"),
        ("verify", "--n", "3"),
        ("convolve", "f.pw", "--construction", "notched"),
        ("build", "notched", "--d", "2"),
    ])
    def test_option_the_command_does_not_read_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as done:
            run_cli(*argv)
        assert done.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_invalid_precision_is_usage_error(self, capsys):
        assert run_cli("verify", "--precision-bits", "0") == 2
        captured = capsys.readouterr()
        assert "precision_bits" in captured.err
        assert "FAIL" not in captured.out

    def test_verify_fails_at_reduced_precision(self, tmp_path, capsys):
        assert run_cli("verify", "--precision-bits", "64") == 1
        stdout = capsys.readouterr().out
        assert "FAIL 13_precision_self_consistency" in stdout


class TestImportStructure:
    """What a process loads.  The test session has loaded mpmath already, so
    each check runs in a child process."""

    # runs `tailkit.cli.main(argv)` when given arguments, then prints the
    # exit code, whether mpmath was loaded and whether tailkit loaded libmp
    # alone
    CHILD = ("import sys\n"
             "import tailkit.cli\n"
             "rc = tailkit.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
             "print(rc, 'mpmath' in sys.modules, 'tailkit._libmp' in sys.modules)\n")

    def run_child(self, *argv, code=CHILD):
        done = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True, cwd="/",
                              env=child_env())
        assert "Traceback" not in done.stderr, done.stderr
        return done.stdout.split()[-3:]

    @pytest.fixture()
    def knots(self, tmp_path):
        assert run_cli("build", "notched", "n=2", "--out", str(tmp_path)) == 0
        return str(tmp_path / "notched.knots")

    def test_import_does_not_load_mpmath(self):
        assert self.run_child() == ["0", "False", "False"]

    def test_convolve_does_not_load_mpmath(self, knots, tmp_path):
        out = tmp_path / "conv.pw"
        assert self.run_child("convolve", knots, "--out", str(out)) == [
            "0", "False", "False"]
        from tailkit import convolution as conv
        from tailkit.piecewise import dump_text
        p = load_text(Path(knots).read_text())
        assert out.read_text() == dump_text(conv.conv_linear_exact(p, p))

    @pytest.mark.parametrize("argv", [
        ["verify"],
        ["build", "notched", "n=8"],
        ["build", "mixture", "m_max=2"],
        ["report", "logperiodic"],
        ["probe", "notched", "long_tail_ratio"],
    ], ids=["verify", "build-notched", "build-mixture", "report-logperiodic", "probe"])
    def test_snaps_load_libmp_without_mpmath(self, argv, tmp_path):
        # every snap and quadrature runs on libmp alone; mpmath's package
        # (contexts, functions, calculus, matrices, plotting) is never run
        out = tmp_path / ("out" if argv[0] == "build" else "out.csv")
        assert self.run_child(*argv, "--out", str(out)) == ["0", "False", "True"]

    # the benchmark runner's process: its own imports, then mpmath.libmp
    # (machine_info reads its BACKEND) and tailkit.cli.  machine_info reads
    # __file__ of every tailkit module while it iterates over sys.modules, so
    # it runs each lazy layer there; a layer that added a module would end
    # the iteration with "dictionary changed size during iteration"
    RUNNER_CHILD = ("import sys\n"
                    f"sys.path.insert(0, {str(Path(__file__).parent.parent / 'perfbench')!r})\n"
                    "import run\n"
                    "import mpmath.libmp\n"
                    "import tailkit.cli\n"
                    "from tailkit import numerics\n"
                    "before = set(sys.modules)\n"
                    "run.machine_info()\n"
                    "print(numerics.libmp() is mpmath.libmp, 'tailkit._libmp' in sys.modules,\n"
                    "      sorted(set(sys.modules) - before) or '-')\n")

    def test_loader_reuses_an_imported_libmp(self):
        assert self.run_child(code=self.RUNNER_CHILD) == ["True", "False", "-"]

    def test_convolve_refuses_precision_bits(self, knots, tmp_path, capsys):
        # the sweep is exact at any precision: convolve has no such option
        out = tmp_path / "conv.pw"
        with pytest.raises(SystemExit) as done:
            run_cli("convolve", knots, "--precision-bits", "64", "--out", str(out))
        assert done.value.code == 2 and not out.exists()
        assert ("unrecognized arguments: --precision-bits 64"
                in capsys.readouterr().err)

    # what the child runs before it reads sys.modules; the last runs every
    # layer (tailkit.cli, imported first, would leave them to run lazily)
    @pytest.mark.parametrize("run", [
        "import tailkit.cli",
        "import tailkit.cli\nassert tailkit.cli.main(sys.argv[1:]) == 0",
        "import tailkit.acceptance, tailkit.cli",
    ], ids=["import", "convolve", "every-layer"])
    def test_no_process_loads_dataclasses(self, run, knots, tmp_path):
        # dataclasses imports inspect at its top and runs generated source
        # for each class: together 15 ms or more of every start-up
        code = ("import sys\n" + run + "\n"
                "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n")
        done = subprocess.run(
            [sys.executable, "-c", code, "convolve", knots,
             "--out", str(tmp_path / "conv.pw")],
            capture_output=True, text=True, cwd="/", env=child_env())
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    # each layer module, the name cli gives it and one public function
    LAYERS = {"acceptance": ("acceptance", "run_all"),
              "convolution": ("conv", "conv_linear_exact"),
              "logperiodic": ("lp", "normalizers"),
              "mixture": ("mx", "build_schedule"),
              "notched": ("notched", "build_density"),
              "piecewise": ("piecewise", "load_text"),
              "probes": ("probes", "render_csv"),
              "render": ("render", "decimal_str")}

    # runs `tailkit.cli.main(argv)` when given arguments, then prints the
    # exit code, the layers that ran (read from each module's own __dict__,
    # so that the check runs none) and the tracer's layers it left unwrapped
    RAN = """\
import json, sys
import tailkit.cli
layers, perfbench, *argv = sys.argv[1:]
rc = tailkit.cli.main(argv) if argv else 0
ran = sorted(name for name, (_, fn) in json.loads(layers).items()
             if fn in object.__getattribute__(sys.modules["tailkit." + name],
                                              "__dict__"))
sys.path.insert(0, perfbench)
import tracer
tracer.install(tracer.Tracer())
unwrapped = []
for modname, attr, *_ in tracer.LAYERS:
    owner = sys.modules[modname]
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0])
    if not hasattr(vars(owner)[name], "__wrapped__"):
        unwrapped.append(modname + "." + attr)
print(json.dumps([rc, ran, unwrapped]))
"""

    # `probes` imports every construction by `from tailkit import <layer>`;
    # a probe still runs only the layers it calls
    @pytest.mark.parametrize("argv, ran", [
        ([], []),
        (["convolve", "{knots}"], ["convolution", "piecewise"]),
        (["probe", "notched", "knot_ratio_series", "n_max=3"],
         ["piecewise", "probes", "render"]),
        (["build", "mixture", "m_max=2"],
         ["mixture", "notched", "piecewise", "render"]),
    ], ids=["import", "convolve", "probe", "build-mixture"])
    def test_a_command_runs_only_its_layers(self, argv, ran, knots, tmp_path):
        perfbench = Path(__file__).resolve().parent.parent / "perfbench"
        if argv:
            argv = [a.format(knots=knots) for a in argv] + [
                "--out", str(tmp_path / "out")]
        done = subprocess.run(
            [sys.executable, "-c", self.RAN, json.dumps(self.LAYERS),
             str(perfbench), *argv],
            capture_output=True, text=True, cwd="/", env=child_env())
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [0, ran, []]

    # the probe catalogue lives in probes.py, and only a probe command's
    # parser reads it: any other command leaves the module unexecuted, a
    # lazy module whose type is not yet types.ModuleType
    @pytest.mark.parametrize("argv, ran", [
        (["convolve", "{knots}"], "False"),
        (["build", "notched", "n=2"], "False"),
        (["probe", "notched", "knot_ratio_series", "n_max=3"], "True"),
    ], ids=["convolve", "build", "probe"])
    def test_only_a_probe_command_runs_the_catalogue(self, argv, ran, knots,
                                                    tmp_path):
        code = ("import sys, types, tailkit.cli\n"
                "rc = tailkit.cli.main(sys.argv[1:])\n"
                "print(rc, type(sys.modules['tailkit.probes']) is types.ModuleType)\n")
        argv = [a.format(knots=knots) for a in argv] + ["--out", str(tmp_path / "out")]
        done = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True, cwd="/", env=child_env())
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", ran]

    def test_the_battery_runs_every_layer_when_it_loads(self):
        # none is left to run in the middle of a check (see acceptance.py)
        code = ("import json, sys, tailkit.cli\n"
                "tailkit.cli.acceptance.run_all\n"
                "print(json.dumps(sorted(\n"
                "    name for name, (_, fn) in json.loads(sys.argv[1]).items()\n"
                "    if fn not in object.__getattribute__(\n"
                "        sys.modules['tailkit.' + name], '__dict__'))))\n")
        done = subprocess.run([sys.executable, "-c", code,
                               json.dumps(self.LAYERS)], capture_output=True,
                              text=True, cwd="/", env=child_env())
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == []

    @pytest.mark.parametrize("layer", sorted(LAYERS))
    def test_one_module_object_per_layer(self, layer):
        # a layer imported before tailkit.cli keeps its module object, so a
        # monkeypatch through cli's name reaches every other user of it
        code = (f"import sys, tailkit.{layer} as first, tailkit.cli as cli\n"
                f"import tailkit\n"
                f"print(cli.{self.LAYERS[layer][0]} is first "
                f"is sys.modules['tailkit.{layer}'] is tailkit.{layer})\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, cwd="/", env=child_env())
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True"

    def test_import_loads_every_layer_module(self):
        # perfbench/tracer.py wraps each layer it lists by reading the layer's
        # module from sys.modules right after `import tailkit.cli`.  cli puts
        # each layer there as a lazy module, which runs on the tracer's first
        # attribute read, so membership holds without running any layer.
        perfbench = Path(__file__).resolve().parent.parent / "perfbench"
        code = ("import sys\n"
                f"sys.path.insert(0, {str(perfbench)!r})\n"
                "import pkgutil, tailkit, tailkit.cli, tracer\n"
                "names = {m for m, *_ in tracer.LAYERS} | {'tailkit.' + m.name "
                "for m in pkgutil.iter_modules(tailkit.__path__)}\n"
                "print(sorted(n for n in names if n not in sys.modules))\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, cwd="/", env=child_env())
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_every_name_the_tracer_wraps_exists(self):
        # perfbench/tracer.py wraps its layers by name and reads the snap
        # functions' cache statistics; a snap that loses its cache would
        # break the traced benchmark run alone.  Every name that no longer
        # resolves is listed.  Loaded by path and only read, never installed
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        missing = []
        for modname, attr, *_ in tracer.LAYERS:
            owner = sys.modules[modname]
            *cls, name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
                found = isinstance(owner, type) and callable(vars(owner).get(name))
            else:
                found = callable(getattr(owner, name, None))
            if not found:
                missing.append(f"{modname}.{attr}")
        numerics = sys.modules["tailkit.numerics"]
        missing += [f"tailkit.numerics.{name}.cache_info" for name in tracer.SNAP_FUNCTIONS
                    if not callable(getattr(getattr(numerics, name, None), "cache_info", None))]
        assert missing == []


def readme_cli_lines():
    """The `tailkit ...` lines of README's CLI block, comments dropped."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line.split("#")[0])[1:]
            for line in block.splitlines() if line.startswith("tailkit ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # the verify example is pinned by TestVerify
    lines = [argv for argv in readme_cli_lines() if argv[0] != "verify"]
    assert len(lines) == 9
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert run_cli(*argv) == 0, (argv, capsys.readouterr().err)


def flag_orders(argv):
    """argv with its flags, each next to its value, before, between and
    after the positional arguments that follow the command name."""
    command, rest = argv[0], argv[1:]
    valued = {i + 1 for i, token in enumerate(rest) if token.startswith("--")}
    flags = [rest[i - 1:i + 1] for i in sorted(valued)]
    positional = [[token] for i, token in enumerate(rest)
                  if i not in valued and not token.startswith("--")]
    first, second = (positional, flags) if len(positional) > 1 else (flags, positional)
    between = [t for pair in zip_longest(first, second, fillvalue=[])
               for part in pair for t in part]
    return {"before": [command, *chain(*flags), *chain(*positional)],
            "between": [command, *between],
            "after": [command, *chain(*positional), *chain(*flags)]}


# the pinned commands, a probe with a flag among its parameters, and a
# notched report whose i2_bound_check blocks follow --n
PINNED_CLI_LINES = [
    ["report", "notched", "--out", "notched.csv"],
    ["report", "mixture", "--out", "mixture.csv"],
    ["report", "logperiodic", "--out", "logperiodic.csv"],
    ["report", "logperiodic", "--delta", "1/8", "--out", "lp_1_8.csv"],
    ["report", "logperiodic", "--delta", "3/8", "--out", "lp_3_8.csv"],
    ["build", "notched", "--n", "4", "--out", "n4"],
    ["convolve", "n4/notched.knots", "--out", "n4/conv.pw"],
    ["verify", "--out", "battery.csv"],
    ["probe", "notched", "knot_scan", "--precision-bits", "128", "n_max=5"],
    ["report", "notched", "n_list=2,5", "--n", "5", "--out", "n5.csv"],
]


def test_flags_anywhere(tmp_path, monkeypatch, capsys):
    # each line's flags before, between and after its positional arguments:
    # the same exit codes, standard output and files
    lines = readme_cli_lines() + PINNED_CLI_LINES
    assert flag_orders(["build", "notched", "n=3", "--out", "o"]) == {
        "before": ["build", "--out", "o", "notched", "n=3"],
        "between": ["build", "notched", "--out", "o", "n=3"],
        "after": ["build", "notched", "n=3", "--out", "o"]}
    outcomes = {}
    for order in ("before", "between", "after"):
        work = tmp_path / order
        work.mkdir()
        monkeypatch.chdir(work)
        runs = []
        for argv in lines:
            code = run_cli(*flag_orders(argv)[order])
            captured = capsys.readouterr()
            assert code == 0, (order, argv, captured.err)
            # verify prints the seconds each check and the suite took
            runs.append(re.sub(r"[\d.]+s\b", "_s", captured.out))
        files = {str(path.relative_to(work)): path.read_bytes()
                 for path in sorted(work.rglob("*")) if path.is_file()}
        outcomes[order] = runs, files
    assert outcomes["before"] == outcomes["between"] == outcomes["after"]
    files = outcomes["before"][1]
    for name, digest in [*REPORT_SHA256.items(),
                         *(("lp_" + d.replace("/", "_"), h)
                           for d, h in LOGPERIODIC_DELTA_SHA256.items())]:
        assert hashlib.sha256(files[f"{name}.csv"]).hexdigest() == digest, name
    assert hashlib.sha256(files["n4/conv.pw"]).hexdigest() == NOTCHED4_CONV_SHA256
    assert hashlib.sha256(files["battery.csv"]).hexdigest() == BATTERY_CSV_SHA256
