"""Command-line front end: the reproducibility surface of the repository.

Subcommands: build, probe, convolve, verify, report.  All numeric options
parse from decimal strings, every output is deterministic byte-for-byte
given the same configuration, and exit codes are stable:

    0 success, 1 check failure, 2 usage, 3 precision failure, 4 I/O.

Two tables define the surface.  :data:`OPTIONS` gives each option's name,
default, parser and help; an option is set by a flag (its name with ``-``
for ``_``), a ``key = value`` line of a config file (``--config``) or a
``key=value`` argument, in rising precedence.
:data:`PROBES` gives each probe's constructions, parameters and row
builder.  Anything a command does not read is rejected before it runs.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from collections import namedtuple
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Iterable, Optional

from tailkit.errors import PrecisionFailure, UsageError
from tailkit.numerics import DEFAULT_PRECISION, DENSE_LIMIT, _check_precision


def _lazy(name: str):
    """The module ``tailkit.<name>``, registered now and run on first use.

    The layer is put in ``sys.modules`` (and on the package) as an
    ``importlib.util.LazyLoader`` module, so a command runs only the layers
    it touches.  A module imported already is returned as it is: each layer
    has one module object.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


acceptance = _lazy("acceptance")
conv = _lazy("convolution")
lp = _lazy("logperiodic")
mx = _lazy("mixture")
notched = _lazy("notched")
piecewise = _lazy("piecewise")
probes = _lazy("probes")
render = _lazy("render")

CONSTRUCTIONS = ("notched", "logperiodic", "mixture")
PIECEWISE = ("notched", "file:<path>")

# commands that take a construction read every option; the others read
# only the options marked every_command
_CONSTRUCTION_COMMANDS = ("build", "probe", "report")


# Fraction("1e-3000000") alone computes 10**3000000, and an error message
# would then render its digits; every knot of the notched construction lies
# below 1e1234 (a_64 = 2**4096)
_MAX_EXPONENT = 10_000


def _rational(text: str, config: Optional[RunConfig] = None) -> Fraction:
    """A decimal or p/q rational; a decimal exponent past +-_MAX_EXPONENT is
    refused before Fraction computes its power of ten."""
    exponent = text.lower().partition("e")[2]
    if exponent and abs(int(exponent)) > _MAX_EXPONENT:
        raise ValueError(f"exponent beyond +-{_MAX_EXPONENT}")
    return Fraction(text)


# the largest truncation the notched build makes: block n reaches a_{n+1},
# which must lie within the dense limit
_N_MAX = DENSE_LIMIT - 1


def _truncation(text: str) -> int:
    """The option n; a value outside 1.._N_MAX is refused, naming the range."""
    n = int(text)
    if not 1 <= n <= _N_MAX:
        raise UsageError(f"bad value for n: {text!r} (n takes 1..{_N_MAX})")
    return n


# option name -> default, parser, --help text, every_command
_Option = namedtuple("_Option", "default parse help every_command",
                     defaults=(None, False))

OPTIONS = {
    "construction": _Option("notched", str,
                            "notched | logperiodic | mixture | file:<path>"),
    "n": _Option(10, _truncation,
                 f"truncation index of the notched construction, 1..{_N_MAX}"),
    "m_max": _Option(6, int, "number of blow-up schedule atoms"),
    "precision_bits": _Option(DEFAULT_PRECISION, int, every_command=True),
    "delta": _Option(Fraction(1, 4), _rational),
    "d": _Option(Fraction(1), _rational, "window width"),
    "out": _Option(None, str, "output path", every_command=True),
}


class RunConfig:
    """One run's option values, each attribute named after its option, plus
    ``params``, the probe key=value parameters."""

    def __init__(self, params: Optional[dict] = None, **values):
        for name, option in OPTIONS.items():
            setattr(self, name, values.pop(name, option.default))
        if values:
            raise TypeError(f"unknown option(s) {', '.join(sorted(values))}")
        self.params = {} if params is None else params
        self._notched: Optional[notched.NotchedDensity] = None

    def lp_params(self) -> lp.LogPeriodicParams:
        return lp.LogPeriodicParams(delta=self.delta)

    def notched_density(self) -> notched.NotchedDensity:
        """The notched build at (n, precision_bits), made once per run."""
        if self._notched is None:
            self._notched = notched.build_density(self.n, self.precision_bits)
        return self._notched


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _command_options(command: str) -> list[str]:
    return [name for name, option in OPTIONS.items()
            if command in _CONSTRUCTION_COMMANDS or option.every_command]


def _parse(key: str, parse, text: str, *context):
    """parse(text, *context); malformed input is a usage error naming key,
    unless the parser raised a usage error of its own."""
    try:
        return parse(text, *context)
    except UsageError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad value for {key}: {text!r}") from exc


def _read(path: str) -> str:
    """A file's UTF-8 text; bytes that are not UTF-8 are a usage error
    naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from exc


def _parse_config_file(path: str, allowed: list[str]) -> dict:
    values: dict = {}
    try:
        text = _read(path)
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
        if key not in OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key not in allowed:
            raise UsageError(f"{path}:{lineno}: this command does not read {key!r}")
        try:
            values[key] = _parse(key, OPTIONS[key].parse, value.strip())
        except UsageError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return values


def _write(path: Optional[str], chunks: Iterable[str]) -> None:
    """Write the text chunks verbatim, in order, to the file at path (UTF-8,
    made with its directory) or, when path is None, to standard output.

    Every command computes its result before it calls this, so an error
    before the write leaves an existing file as it was; a chunk is written
    as soon as it is made, so a serializer that yields line by line never
    has its whole text in memory.
    """
    if path is None:
        sys.stdout.writelines(chunks)
        return
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(chunks)


def _meta_text(pairs: list[tuple[str, str]]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs)


# ------------------------------ build ------------------------------

def _cmd_build(config: RunConfig) -> int:
    if config.params:
        raise UsageError(f"unknown parameter(s) {', '.join(sorted(config.params))} "
                         "for build")
    # every value is computed before the directory is made, so a failed
    # build writes nothing; the knot file streams from its serializer
    if config.construction == "notched":
        nd = config.notched_density()
        meta = _meta_text([
            ("construction", "notched"),
            ("n", str(nd.truncation_n)),
            ("precision_bits", str(nd.precision_bits)),
            ("mass", render.decimal_str(nd.mass)),
            ("dense_limit", str(notched.DENSE_LIMIT)),
            ("omitted_tail_bound", render.decimal_str(nd.omitted_tail_bound())),
        ])
        files = {"notched.knots": piecewise.dump_lines(nd.dense),
                 "notched.meta": (meta,)}
    elif config.construction == "logperiodic":
        params = config.lp_params()
        norm = lp.normalizers(params)
        meta = _meta_text([
            ("construction", "logperiodic"),
            ("alpha", "1"),     # the tail rate, a constant of the construction
            ("delta", render.decimal_str(params.delta)),
            ("quad_tol", render.decimal_str(lp.QUAD_TOL)),
            ("x_max", render.decimal_str(norm.x_max)),
            ("a", render.decimal_str(norm.a)),
            ("a_err", render.decimal_str(norm.a_err)),
            ("b", render.decimal_str(norm.b)),
            ("b_err", render.decimal_str(norm.b_err)),
        ])
        files = {"logperiodic.meta": (meta,)}
    elif config.construction == "mixture":
        sch = mx.build_schedule(config.m_max, config.precision_bits)
        lines = mx.schedule_csv_lines(sch)
        meta = _meta_text([
            ("construction", "mixture"),
            ("m_max", str(sch.m_max)),
            ("precision_bits", str(sch.precision_bits)),
            ("c", render.decimal_str(sch.c)),
            ("residual_mass", render.decimal_str(sch.residual_mass)),
        ])
        files = {"mixture_schedule.csv": ("\n".join(lines) + "\n",),
                 "mixture.meta": (meta,)}
    else:
        raise UsageError(f"unknown construction {config.construction!r}; "
                         f"build takes one of {', '.join(CONSTRUCTIONS)}")
    out_dir = Path(config.out or "tailkit-out")
    for name, chunks in files.items():
        _write(str(out_dir / name), chunks)
    return 0


# ------------------------------ probes ------------------------------

def _int(text: str, config: RunConfig) -> int:
    return int(text)


def _ints(text: str, config: RunConfig) -> list[int]:
    return [int(item) for item in text.split(",")]


def _points(text: str, config: RunConfig) -> list[tuple[str, Fraction]]:
    """Abscissas: decimal strings or knot labels like 'c10'."""
    points = []
    for label in (item.strip() for item in text.split(",")):
        if label[:1] in notched.KNOT_KINDS and label[1:].isdigit():
            points.append((label, notched.knot_position(
                label[0], int(label[1:]), config.precision_bits)))
        elif label:
            points.append((label, _rational(label)))
    if not points:
        raise ValueError("no points")
    return points


def _density(config: RunConfig) -> piecewise.PiecewisePoly:
    name = config.construction
    if name.startswith("file:"):
        return piecewise.load_text(_read(name[5:]))
    return config.notched_density().density()


# Row builders: (row, config, args) -> rows, where row(x_or_n, value, aux)
# makes a row named after the probe and args holds the parsed parameters.

def _knot_ratio_series(row, config, args):
    return [row(str(n), lam) for n, lam in
            probes.knot_ratio_series(args["n_max"], config.precision_bits)]


def _knot_scan(row, config, args):
    return [probes.notched_knot_scan(args["n_max"], config.precision_bits)]


def _long_tail_ratio(row, config, args):
    f, t = _density(config), args["t"]
    return [row(label, probes.long_tail_ratio(f, x, t), {"shift": t})
            for label, x in args["x"]]


def _subexp_ratio(row, config, args):
    f = _density(config)
    rows = [row(label, probes.subexp_ratio(f, x)) for label, x in args["x"]]
    if len(rows) > 1:
        devs = [abs(Fraction(1) - r.value) for r in rows]
        improving = all(a > b for a, b in zip(devs, devs[1:]))
        span = f"{rows[0].x_or_n}..{rows[-1].x_or_n}"
        rows.append(probes.ProbeRow("subexp_trend", span,
                                    Fraction(int(improving)),
                                    {"monotone_improvement": improving}))
    return rows


def _local_tail_ratio(row, config, args):
    f = _density(config)
    return [row(label, probes.local_tail_ratio(f, x, config.d),
                {"window": config.d})
            for label, x in args["x"]]


def _piecewise_scan(row, config, args):
    return [probes.almost_decrease_scan(_density(config), args["x0"])]


def _logperiodic_scan(row, config, args):
    return probes.logperiodic_scan(config.lp_params(), args["k_max"], f"k<={args['k_max']}")


def _i2_bound_check(row, config, args):
    # each block once, in the order it first appears: the default
    # {half},{n} names block 1 twice at n = 1
    return [probes.i2_bound_check(config.notched_density(), n)
            for n in dict.fromkeys(args["n_list"])]


def _split_integrals(row, config, args):
    nd = config.notched_density()
    rows = []
    for label, x in args["x"]:
        i1, i2 = conv.split_integrals(nd.dense, args["block"], x)
        whole = conv.self_conv_value(nd.dense, x)
        rows.append(row(label, whole, {"i1": i1, "i2": i2,
                                       "exact_partition": 2 * i1 + i2 == whole}))
    return rows


def _chi(row, config, args):
    p = config.lp_params()
    return [row(label, lp.chi(x, p)) for label, x in args["x"]]


def _karamata_ratio(row, config, args):
    p = config.lp_params()
    return [row(label, lp.karamata_ratio(x, p)) for label, x in args["x"]]


def _middle_integral(row, config, args):
    p, h_exp = config.lp_params(), args["h_exp"]
    return [row(f"k{k}", lp.middle_mass_ratio(lp.anchor(k), p, h_exp),
                {"h_exp": h_exp})
            for k in args["k_list"]]


def _schedule(row, config, args):
    sch = mx.build_schedule(config.m_max, config.precision_bits)
    return [row(str(e.m), e.mass, {"n_m": e.n_m, "lower_bound": e.lower_bound})
            for e in sch.entries]


def _blowup(row, config, args):
    pb = config.precision_bits
    return probes.mixture_blowup_probe(mx.build_schedule(config.m_max, pb),
                                       notched.build_density(4, pb), config.d)


# params maps each parameter to (parser, default); a default may name the
# option n as {n}, max(1, n // 2) as {half} and an earlier parameter as
# {its name}.  rows is the row builder.
Probe = namedtuple("Probe", "name constructions params rows")


# `report <construction>` runs the probes that describe it, in this order.
# A name may appear once per construction (almost_decrease_scan reads a
# piecewise density and the log-periodic one differently).
PROBES = (
    Probe("knot_ratio_series", ("notched",), {"n_max": (_int, "40")},
          _knot_ratio_series),
    Probe("knot_scan", ("notched",), {"n_max": (_int, "40")}, _knot_scan),
    Probe("long_tail_ratio", PIECEWISE,
          {"x": (_points, "c{n}"), "t": (_rational, "1")}, _long_tail_ratio),
    Probe("subexp_ratio", PIECEWISE, {"x": (_points, "c{n}")}, _subexp_ratio),
    Probe("local_tail_ratio", PIECEWISE, {"x": (_points, "c{n}")},
          _local_tail_ratio),
    Probe("almost_decrease_scan", PIECEWISE, {"x0": (_rational, "0")},
          _piecewise_scan),
    Probe("i2_bound_check", ("notched",), {"n_list": (_ints, "{half},{n}")},
          _i2_bound_check),
    Probe("split_integrals", ("notched",),
          {"block": (_int, "{n}"), "x": (_points, "c{block}")}, _split_integrals),
    Probe("chi", ("logperiodic",), {"x": (_points, "1")}, _chi),
    Probe("almost_decrease_scan", ("logperiodic",), {"k_max": (_int, "8")},
          _logperiodic_scan),
    Probe("karamata_ratio", ("logperiodic",), {"x": (_points, "100,10000")},
          _karamata_ratio),
    Probe("middle_integral", ("logperiodic",),
          {"h_exp": (_rational, "3/10"), "k_list": (_ints, "3,4,5,6")},
          _middle_integral),
    Probe("schedule", ("mixture",), {}, _schedule),
    Probe("blowup", ("mixture",), {}, _blowup),
)


def _probe_help() -> str:
    lines = ["probes (constructions: parameter=default; {n} is the option n, "
             "{half} is max(1, n // 2)):"]
    for p in PROBES:
        params = "".join(f" {k}={default}" for k, (_, default) in p.params.items())
        lines.append(f"  {p.name:<22}{', '.join(p.constructions)}:{params}")
    return "\n".join(lines)


def _find_probe(name: str, construction: str) -> Probe:
    named = [p for p in PROBES if p.name == name]
    if not named:
        valid = ", ".join(dict.fromkeys(p.name for p in PROBES))
        raise UsageError(f"unknown probe {name!r}; valid probes: {valid}")
    kind = "file:<path>" if construction.startswith("file:") else construction
    for p in named:
        if kind in p.constructions:
            return p
    accepted = ", ".join(c for p in named for c in p.constructions)
    raise UsageError(f"probe {name} takes the construction {accepted}, "
                     f"not {construction!r}")


def _run_probes(config: RunConfig, selected: list[Probe], what: str) -> int:
    """Check every parameter of the selected probes, then run them."""
    known = {k for p in selected for k in p.params}
    unknown = sorted(set(config.params) - known)
    if unknown:
        raise UsageError(f"unknown parameter(s) {', '.join(unknown)} for {what}")
    parsed = []
    for p in selected:
        args: dict = {}
        for key, (parse, default) in p.params.items():
            text = (config.params[key] if key in config.params
                    else default.format(n=config.n, half=max(1, config.n // 2), **args))
            args[key] = _parse(key, parse, text, config)
        parsed.append((p, args))
    rows = [r for p, args in parsed
            for r in p.rows(partial(probes.ProbeRow, p.name), config, args)]
    _write(config.out, (probes.render_csv(rows),))
    return 0


def _cmd_probe(config: RunConfig, probe_name: str) -> int:
    probe = _find_probe(probe_name, config.construction)
    return _run_probes(config, [probe], f"probe {probe_name}")


def _cmd_report(config: RunConfig) -> int:
    name = config.construction
    if name not in CONSTRUCTIONS:
        raise UsageError(f"unknown construction {name!r}; "
                         f"report takes one of {', '.join(CONSTRUCTIONS)}")
    return _run_probes(config, [p for p in PROBES if name in p.constructions],
                       f"report {name}")


def _cmd_convolve(config: RunConfig, files: list[str]) -> int:
    if not 1 <= len(files) <= 2:
        raise UsageError("convolve takes one piecewise file (self-convolution) "
                         "or two (cross-convolution)")
    first = piecewise.load_text(_read(files[0]))
    second = piecewise.load_text(_read(files[1])) if len(files) == 2 else first
    result = conv.conv_linear_exact(first, second)
    _write(config.out, piecewise.dump_lines(result))
    return 0


def _cmd_verify(config: RunConfig) -> int:
    results = acceptance.run_all(config.precision_bits)
    for r in results:
        print(r.line())
    if config.out:
        _write(config.out, (acceptance.acceptance_csv(results),))
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


# ------------------------------- main -------------------------------

def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and each command's parser by its name."""
    parser = argparse.ArgumentParser(
        prog="tailkit",
        description="exact-arithmetic probes for heavy-tailed density "
                    "counterexamples")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, **kwargs):
        p = sub.add_parser(name, help=help, **kwargs)
        for key in _command_options(name):
            p.add_argument(_flag(key), dest=key, default=None,
                           help=OPTIONS[key].help)
        p.add_argument("--config", default=None, help="flat key = value file")
        return p

    command("build", "materialize a construction").add_argument(
        "positional", nargs="*", help="construction name and key=value overrides")
    command("probe", "run one probe, emit CSV", epilog=_probe_help(),
            formatter_class=argparse.RawDescriptionHelpFormatter).add_argument(
        "positional", nargs="*", help="construction, probe name, key=value overrides")
    command("convolve", "convolve piecewise files").add_argument(
        "files", nargs="*", help="one or two piecewise files")
    command("verify", "run the acceptance battery")
    command("report", "full probe battery as CSV").add_argument(
        "positional", nargs="*", help="construction and key=value overrides")
    return parser, sub.choices


def _config_from_args(args) -> tuple[RunConfig, list[str]]:
    """Config file, then positional arguments, then flags; later sources win."""
    allowed = _command_options(args.command)
    values = _parse_config_file(args.config, allowed) if args.config else {}
    positional = list(getattr(args, "positional", []))
    names = [p for p in positional if "=" not in p]
    if names:
        values["construction"] = names[0]
    params: dict = {}
    for item in positional:
        if "=" in item:
            key, _, text = item.partition("=")
            key, text = key.strip().lower(), text.strip()
            if key in OPTIONS:
                values[key] = _parse(key, OPTIONS[key].parse, text)
            else:
                params[key] = text
    for key in allowed:
        text = getattr(args, key)
        if text is not None:
            values[key] = _parse(key, OPTIONS[key].parse, text)
    return RunConfig(**values, params=params), names


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the command name by the top-level parser, the rest by the command's,
    # so that flags may come anywhere among the positional arguments:
    # argparse cannot intermix them on a parser with subcommands
    parser, commands = _build_parser()
    command = parser.parse_args(argv[:1]).command
    args = commands[command].parse_intermixed_args(argv[1:])
    args.command = command
    config, names = _config_from_args(args)
    _check_precision(config.precision_bits)
    if args.command == "probe":
        if len(names) != 2:
            raise UsageError("probe needs a construction and a probe name, "
                             "e.g. 'tailkit probe notched knot_ratio_series'")
        return _cmd_probe(config, names[1])
    if len(names) > 1:
        raise UsageError(f"{args.command} takes one construction name, got {names}")
    if args.command == "build":
        return _cmd_build(config)
    if args.command == "report":
        return _cmd_report(config)
    if args.command == "convolve":
        return _cmd_convolve(config, args.files)
    return _cmd_verify(config)


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
