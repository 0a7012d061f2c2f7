"""Command-line front end: the reproducibility surface of the repository.

Subcommands: build, probe, convolve, verify, report.  All numeric options
parse from decimal strings, every output is deterministic byte-for-byte
given the same configuration, and exit codes are stable:

    0 success, 1 check failure, 2 usage, 3 precision failure, 4 I/O.

A flat ``key = value`` config file can seed any option; command-line flags
override file values.  Unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from tailkit import acceptance
from tailkit import convolution as conv
from tailkit import logperiodic as lp
from tailkit import mixture as mx
from tailkit import notched
from tailkit import probes
from tailkit.errors import PrecisionFailure, UsageError
from tailkit.numerics import DEFAULT_PRECISION, _check_precision
from tailkit.piecewise import PiecewisePoly, dump_text, load_text
from tailkit.probes import ProbeRow
from tailkit.render import decimal_str

CONSTRUCTIONS = ("notched", "logperiodic", "mixture")


def _rational(value, name: str = "value") -> Fraction:
    """Parse a rational option or parameter; malformed input is a usage error."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational for {name}: {value!r}") from exc


_CONFIG_KEYS = {
    "construction": str,
    "n": int,
    "m_max": int,
    "precision_bits": int,
    "alpha": _rational,
    "delta": _rational,
    "quad_tol": _rational,
    "x_max": _rational,
    "d": _rational,
    "out": str,
}


@dataclass
class RunConfig:
    construction: str = "notched"
    n: int = 10
    m_max: int = 6
    precision_bits: int = DEFAULT_PRECISION
    alpha: Fraction = Fraction(1)
    delta: Fraction = Fraction(1, 4)
    quad_tol: Fraction = Fraction(1, 10 ** 8)
    x_max: Optional[Fraction] = None
    d: Fraction = Fraction(1)
    out: Optional[str] = None
    params: dict = field(default_factory=dict)
    params_read: set = field(default_factory=set)
    _notched: Optional[notched.NotchedDensity] = field(default=None, repr=False,
                                                       compare=False)

    def param(self, key: str, default):
        """A key=value probe parameter, or the default; records the read."""
        self.params_read.add(key)
        return self.params.get(key, default)

    def reject_unread_params(self) -> None:
        unread = sorted(set(self.params) - self.params_read)
        if unread:
            raise UsageError(f"unknown parameter(s) {', '.join(unread)} "
                             "for this command")

    def lp_params(self) -> lp.LogPeriodicParams:
        return lp.LogPeriodicParams(alpha=self.alpha, delta=self.delta,
                                    quad_tol=self.quad_tol, x_max=self.x_max)

    def notched_density(self) -> notched.NotchedDensity:
        """The notched build at (n, precision_bits), made once per run."""
        if self._notched is None:
            self._notched = notched.build_density(self.n, self.precision_bits)
        return self._notched


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _parse_kv_pairs(pairs: list[str]) -> dict:
    out: dict = {}
    for item in pairs:
        if "=" not in item:
            raise UsageError(f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        out[key.strip().lower()] = value.strip()
    return out


def _apply(config: RunConfig, values: dict) -> None:
    for key, value in values.items():
        if key in ("n", "n_top"):
            config.n = int(value)
        elif key == "m_max":
            config.m_max = int(value)
        elif key == "precision_bits":
            config.precision_bits = int(value)
        elif key in ("alpha", "delta", "quad_tol", "x_max", "d"):
            setattr(config, key, _rational(value, key))
        elif key == "construction":
            config.construction = str(value)
        elif key == "out":
            config.out = str(value)
        else:
            config.params[key] = value


def _point(label: str, config: RunConfig) -> Fraction:
    """Parse an abscissa: a decimal string or a knot label like 'c10'."""
    label = label.strip()
    if label[:1] in notched.KNOT_KINDS and label[1:].isdigit():
        return notched.knot_position(label[0], int(label[1:]),
                                     config.precision_bits)
    return _rational(label, "point")


def _points(config: RunConfig, key: str, default: str) -> list[tuple[str, Fraction]]:
    raw = config.param(key, default)
    return [(item, _point(item, config)) for item in str(raw).split(",") if item]


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)


def _meta_text(pairs: list[tuple[str, str]]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs)


# ------------------------------ build ------------------------------

def _cmd_build(config: RunConfig) -> int:
    out_dir = Path(config.out or "tailkit-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    if config.construction == "notched":
        nd = config.notched_density()
        (out_dir / "notched.knots").write_text(dump_text(nd.dense))
        meta = _meta_text([
            ("construction", "notched"),
            ("n", str(nd.truncation_n)),
            ("precision_bits", str(nd.precision_bits)),
            ("mass", decimal_str(nd.mass)),
            ("dense_limit", str(notched.DENSE_LIMIT)),
            ("omitted_tail_bound", decimal_str(nd.omitted_tail_bound())),
        ])
        (out_dir / "notched.meta").write_text(meta)
    elif config.construction == "logperiodic":
        params = config.lp_params()
        norm = lp.normalizers(params)
        meta = _meta_text([
            ("construction", "logperiodic"),
            ("alpha", decimal_str(params.alpha)),
            ("delta", decimal_str(params.delta)),
            ("quad_tol", decimal_str(params.quad_tol)),
            ("x_max", decimal_str(norm.x_max)),
            ("a", decimal_str(norm.a)),
            ("a_err", decimal_str(norm.a_err)),
            ("b", decimal_str(norm.b)),
            ("b_err", decimal_str(norm.b_err)),
        ])
        (out_dir / "logperiodic.meta").write_text(meta)
    elif config.construction == "mixture":
        sch = mx.build_schedule(config.m_max, config.precision_bits)
        lines = mx.schedule_csv_lines(sch)
        (out_dir / "mixture_schedule.csv").write_text("\n".join(lines) + "\n")
        meta = _meta_text([
            ("construction", "mixture"),
            ("m_max", str(sch.m_max)),
            ("precision_bits", str(sch.precision_bits)),
            ("c", decimal_str(sch.c)),
            ("residual_mass", decimal_str(sch.residual_mass)),
        ])
        (out_dir / "mixture.meta").write_text(meta)
    else:
        raise UsageError(f"unknown construction {config.construction!r}; "
                         f"expected one of {CONSTRUCTIONS} or file:<path>")
    return 0


# ------------------------------ probes ------------------------------

def _load_construction_density(config: RunConfig) -> PiecewisePoly:
    name = config.construction
    if name.startswith("file:"):
        return load_text(Path(name[5:]).read_text())
    if name == "notched":
        return config.notched_density().density()
    raise UsageError(f"probe needs a piecewise construction, got {name!r}")


def _probe_rows(config: RunConfig, probe_name: str) -> list[ProbeRow]:
    pb = config.precision_bits
    name = config.construction

    if probe_name == "knot_ratio_series":
        n_max = int(config.param("n_max", 40))
        return [ProbeRow("knot_ratio_series", str(n), lam)
                for n, lam in probes.knot_ratio_series(n_max, pb)]

    if probe_name == "knot_scan":
        n_max = int(config.param("n_max", 40))
        scan = probes.notched_knot_scan(n_max, pb)
        return [ProbeRow("knot_scan", f"n<={n_max}", scan.sup_ratio,
                         {"witness_x": scan.witness_x,
                          "witness_y": scan.witness_y})]

    if probe_name == "long_tail_ratio":
        f = _load_construction_density(config)
        t = _rational(config.param("t", 1), "t")
        return [ProbeRow("long_tail_ratio", label,
                         probes.long_tail_ratio(f, x, t), {"shift": t})
                for label, x in _points(config, "x", f"c{config.n}")]

    if probe_name == "subexp_ratio":
        f = _load_construction_density(config)
        rows = []
        for label, x in _points(config, "x", f"c{config.n}"):
            rows.append(ProbeRow("subexp_ratio", label, probes.subexp_ratio(f, x)))
        if len(rows) > 1:
            devs = [abs(Fraction(1) - r.value) for r in rows]
            improving = all(a > b for a, b in zip(devs, devs[1:]))
            span = f"{rows[0].x_or_n}..{rows[-1].x_or_n}"
            rows.append(ProbeRow("subexp_trend", span,
                                 Fraction(int(improving)),
                                 {"monotone_improvement": improving}))
        return rows

    if probe_name == "local_tail_ratio":
        f = _load_construction_density(config)
        return [ProbeRow("local_tail_ratio", label,
                         probes.local_tail_ratio(f, x, config.d),
                         {"window": config.d})
                for label, x in _points(config, "x", f"c{config.n}")]

    if probe_name == "almost_decrease_scan":
        if name == "logperiodic":
            k_max = int(config.param("k_max", 8))
            scan, rows = probes.logperiodic_scan(config.lp_params(), k_max)
            return [ProbeRow("almost_decrease_scan", f"k<={k_max}",
                             scan.sup_ratio,
                             {"witness_x": scan.witness_x,
                              "witness_y": scan.witness_y})] + rows
        f = _load_construction_density(config)
        x0 = _rational(config.param("x0", 0), "x0")
        scan = probes.almost_decrease_scan(f, x0)
        return [ProbeRow("almost_decrease_scan", f"x0={x0}", scan.sup_ratio,
                         {"witness_x": scan.witness_x,
                          "witness_y": scan.witness_y})]

    if probe_name == "i2_bound_check":
        nd = config.notched_density()
        rows = []
        for item in str(config.param("n_list", "5,10")).split(","):
            n = int(item)
            chk = probes.i2_bound_check(nd, n)
            rows.append(ProbeRow("i2_bound_check", str(n), chk.i2,
                                 {"bound_log2": chk.bound_log2_closed_form,
                                  "passed": chk.passed}))
        return rows

    if probe_name == "split_integrals":
        nd = config.notched_density()
        n = int(config.param("block", config.n))
        rows = []
        for label, x in _points(config, "x", f"c{n}"):
            i1, i2 = conv.split_integrals(nd.dense, n, x)
            whole = conv.self_conv_value(nd.dense, x)
            rows.append(ProbeRow("split_integrals", label, whole,
                                 {"i1": i1, "i2": i2,
                                  "exact_partition": 2 * i1 + i2 == whole}))
        return rows

    if probe_name == "karamata_ratio":
        p = config.lp_params()
        return [ProbeRow("karamata_ratio", label, lp.karamata_ratio(x, p))
                for label, x in _points(config, "x", "100,10000")]

    if probe_name == "middle_integral":
        p = config.lp_params()
        h_exp = _rational(config.param("h_exp", Fraction(3, 10)), "h_exp")
        rows = []
        for item in str(config.param("k_list", "3,4,5,6")).split(","):
            x = lp.anchor(int(item))
            rows.append(ProbeRow("middle_integral", f"k{item}",
                                 lp.middle_mass_ratio(x, p, h_exp),
                                 {"h_exp": h_exp}))
        return rows

    if probe_name == "chi":
        p = config.lp_params()
        return [ProbeRow("chi", label, lp.chi(x, p))
                for label, x in _points(config, "x", "1")]

    if probe_name == "blowup":
        sch = mx.build_schedule(config.m_max, pb)
        mix = mx.mixture_from_schedule(sch, notched.build_density(4, pb))
        return probes.mixture_blowup_probe(mix, sch, config.d)

    if probe_name == "schedule":
        sch = mx.build_schedule(config.m_max, pb)
        return [ProbeRow("schedule", str(e.m), e.mass,
                         {"n_m": e.n_m, "lower_bound": e.lower_bound})
                for e in sch.entries]

    raise UsageError(
        f"unknown probe {probe_name!r}; valid probes: knot_ratio_series, "
        "knot_scan, long_tail_ratio, subexp_ratio, local_tail_ratio, "
        "almost_decrease_scan, i2_bound_check, split_integrals, "
        "karamata_ratio, middle_integral, chi, blowup, schedule")


def _cmd_probe(config: RunConfig, probe_name: str) -> int:
    rows = _probe_rows(config, probe_name)
    config.reject_unread_params()
    _write(config.out, probes.render_csv(rows))
    return 0


def _standard_report(config: RunConfig) -> list[ProbeRow]:
    name = config.construction
    rows: list[ProbeRow] = []
    if name == "notched":
        for probe_name in ("knot_ratio_series", "knot_scan", "long_tail_ratio",
                           "subexp_ratio", "local_tail_ratio",
                           "almost_decrease_scan", "i2_bound_check",
                           "split_integrals"):
            rows.extend(_probe_rows(config, probe_name))
    elif name == "logperiodic":
        for probe_name in ("chi", "almost_decrease_scan", "karamata_ratio",
                           "middle_integral"):
            rows.extend(_probe_rows(config, probe_name))
    elif name == "mixture":
        for probe_name in ("schedule", "blowup"):
            rows.extend(_probe_rows(config, probe_name))
    else:
        raise UsageError(f"unknown construction {name!r}")
    return rows


def _cmd_report(config: RunConfig) -> int:
    rows = _standard_report(config)
    config.reject_unread_params()
    _write(config.out, probes.render_csv(rows))
    return 0


def _cmd_convolve(config: RunConfig, files: list[str]) -> int:
    if not 1 <= len(files) <= 2:
        raise UsageError("convolve takes one piecewise file (self-convolution) "
                         "or two (cross-convolution)")
    first = load_text(Path(files[0]).read_text())
    second = load_text(Path(files[1]).read_text()) if len(files) == 2 else first
    result = conv.conv_linear_exact(first, second)
    _write(config.out, dump_text(result))
    return 0


def _cmd_verify(config: RunConfig) -> int:
    results = acceptance.run_all(config.precision_bits)
    for r in results:
        print(r.line())
    if config.out:
        _write(config.out, acceptance.acceptance_csv(results))
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


# ------------------------------- main -------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailkit",
        description="exact-arithmetic probes for heavy-tailed density "
                    "counterexamples")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--construction", default=None,
                       help="notched | logperiodic | mixture | file:<path>")
        p.add_argument("--n", type=int, default=None,
                       help="truncation index of the notched construction")
        p.add_argument("--m-max", type=int, default=None, dest="m_max",
                       help="number of blow-up schedule atoms")
        p.add_argument("--precision-bits", type=int, default=None,
                       dest="precision_bits")
        p.add_argument("--alpha", default=None)
        p.add_argument("--delta", default=None)
        p.add_argument("--quad-tol", default=None, dest="quad_tol")
        p.add_argument("--x-max", default=None, dest="x_max")
        p.add_argument("--d", default=None, help="window width")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--config", default=None, help="flat key = value file")

    p_build = sub.add_parser("build", help="materialize a construction")
    common(p_build)
    p_build.add_argument("positional", nargs="*",
                         help="construction name and key=value overrides")

    p_probe = sub.add_parser("probe", help="run one probe, emit CSV")
    common(p_probe)
    p_probe.add_argument("positional", nargs="*",
                         help="construction, probe name, key=value overrides")

    p_conv = sub.add_parser("convolve", help="convolve piecewise files")
    common(p_conv)
    p_conv.add_argument("files", nargs="*", help="one or two piecewise files")

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    common(p_verify)

    p_report = sub.add_parser("report", help="full probe battery as CSV")
    common(p_report)
    p_report.add_argument("positional", nargs="*",
                          help="construction and key=value overrides")
    return parser


def _config_from_args(args) -> tuple[RunConfig, list[str]]:
    config = RunConfig()
    if args.config:
        _apply(config, _parse_config_file(args.config))
    positional = list(getattr(args, "positional", []))
    names = [p for p in positional if "=" not in p]
    pairs = [p for p in positional if "=" in p]
    if len(names) > 2:
        raise UsageError(f"too many positional names: {names}")
    if names:
        config.construction = names[0]
    _apply(config, _parse_kv_pairs(pairs))
    for key in ("construction", "n", "m_max", "precision_bits", "alpha",
                "delta", "quad_tol", "x_max", "d", "out"):
        value = getattr(args, key, None)
        if value is not None:
            _apply(config, {key: value})
    return config, names


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config, names = _config_from_args(args)
    _check_precision(config.precision_bits)
    if args.command == "build":
        config.reject_unread_params()
        return _cmd_build(config)
    if args.command == "probe":
        if len(names) != 2:
            raise UsageError("probe needs a construction and a probe name, "
                             "e.g. 'tailkit probe notched knot_ratio_series'")
        return _cmd_probe(config, names[1])
    if args.command == "convolve":
        return _cmd_convolve(config, args.files)
    if args.command == "verify":
        return _cmd_verify(config)
    if args.command == "report":
        return _cmd_report(config)
    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        return run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PrecisionFailure as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
