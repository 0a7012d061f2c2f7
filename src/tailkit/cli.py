"""Command-line front end: the reproducibility surface of the repository.

Subcommands: build, probe, convolve, verify, report.  All numeric options
parse from decimal strings, every output is deterministic byte-for-byte
given the same configuration, and exit codes are stable:

    0 success, 1 check failure, 2 usage, 3 precision failure, 4 I/O.

Four tables define the surface.  :data:`OPTIONS` gives each option's
name, default, parser and help; an option is set by a flag (its name with
``-`` for ``_``), a ``key = value`` line of a config file (``--config``) or
a ``key=value`` argument, in rising precedence.  ``_COMMANDS`` gives each
command's help and positional arguments.  ``_BUILDS`` gives each
construction its build's reads and builder, and ``probes.PROBES`` each
probe's constructions, reads, parameters and row builder; a report reads
what its probes read.  A run refuses an option it does not read.
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
from tailkit.numerics import (DEFAULT_PRECISION, DENSE_LIMIT, MIN_PRECISION,
                              _cut, _int_range, _quoted, _rational)


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


# the largest truncation the notched build makes: block n reaches a_{n+1},
# which must lie within the dense limit
_N_MAX = DENSE_LIMIT - 1

# the most bits a run may snap its constants to: at 6,144 bits, on a 2-vCPU
# Xeon VM, `verify` takes 6.7-7.7 s (3.7 s at 4,096), `report notched
# --n 63` 5.6-6.0 s and `report mixture --m-max 24` 7.8-9.0 s, and the cost of
# each grows faster than the bits
_PRECISION_MAX = 6144


# option name -> default, parser, --help text (construction's is per command)
_Option = namedtuple("_Option", "default parse help")


def _ranged(default, parse, about: str) -> _Option:  # help ends with the bounds
    return _Option(default, parse, f"{about}, {parse.bounds}")


OPTIONS = {
    "construction": _Option("notched", str, None),
    "n": _ranged(10, _int_range("n", 1, _N_MAX),
                 "truncation index of the notched construction"),
    # `report mixture` takes 6.3-7.1 s at 24 atoms on that VM
    "m_max": _ranged(6, _int_range("m_max", 1, 24), "blow-up schedule atoms"),
    "precision_bits": _ranged(
        DEFAULT_PRECISION, _int_range("precision_bits", MIN_PRECISION, _PRECISION_MAX),
        "bits of every snapped constant"),
    "delta": _Option(Fraction(1, 4), _rational, "amplitude of the exponent, in (0, 1/2)"),
    "d": _Option(Fraction(1), _rational, "window width"),
    "out": _Option(None, str, "output path"),
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
        self._schedule: Optional[mx.BlowupSchedule] = None

    def notched_density(self) -> notched.NotchedDensity:
        """The notched build at (n, precision_bits), made once per run."""
        if self._notched is None:
            self._notched = notched.build_density(self.n, self.precision_bits)
        return self._notched

    def schedule(self) -> mx.BlowupSchedule:
        """The blow-up schedule at (m_max, precision_bits), made once per run."""
        if self._schedule is None:
            self._schedule = mx.build_schedule(self.m_max, self.precision_bits)
        return self._schedule

    def density(self) -> piecewise.PiecewisePoly:
        """The piecewise density the construction names: notched, or a file's."""
        if self.construction == "notched":
            return self.notched_density().density()
        return piecewise.load_text(_read(self.construction.removeprefix("file:")))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _parse(key: str, parse, text: str, *context):
    """parse(text, *context); malformed input is a usage error naming key,
    unless the parser raised a usage error of its own."""
    try:
        return parse(text, *context)
    except UsageError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad value for {key}: {_quoted(text)}") from exc


def _read(path: str) -> str:
    """A file's UTF-8 text; bytes that are not UTF-8 are a usage error
    naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from exc


def _parse_config_file(path: str, allowed: tuple[str, ...]) -> dict:
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
            raise UsageError(f"{path}:{lineno}: unknown config key {_quoted(key)}")
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

    Every command checks its input before it calls this, so a rejected
    input leaves an existing file as it was; a chunk is written as soon as
    it is made, so a serializer that yields line by line never has its
    whole text in memory.  ``convolve`` makes its result as it writes it,
    so a sweep cut short leaves a partial file.
    """
    if path is None:
        sys.stdout.writelines(chunks)
        return
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(chunks)


def _meta(**values) -> tuple[str]:
    """A .meta file as one chunk: a ``key = value`` line per value, in decimal."""
    return ("".join(f"{k} = {v if isinstance(v, str) else render.decimal_str(v)}\n"
                    for k, v in values.items()),)


# ------------------------------ build ------------------------------

def _build_notched(config: RunConfig) -> dict:
    nd = config.notched_density()
    return {"notched.knots": piecewise.dump_lines(nd.dense), "notched.meta": _meta(
        construction="notched", n=nd.truncation_n, precision_bits=nd.precision_bits,
        mass=nd.mass, dense_limit=notched.DENSE_LIMIT,
        omitted_tail_bound=nd.omitted_tail_bound())}


def _build_logperiodic(config: RunConfig) -> dict:
    p = lp.LogPeriodicParams(config.delta)
    norm, (b, b_err) = lp.normalizers(p), lp.tail_normalizers(p)
    # alpha, the tail rate, is a constant of the construction
    return {"logperiodic.meta": _meta(
        construction="logperiodic", alpha=1, delta=p.delta, quad_tol=lp.QUAD_TOL,
        x_max=norm.x_max, a=norm.a, a_err=norm.a_err, b=b, b_err=b_err)}


def _build_mixture(config: RunConfig) -> dict:
    sch = config.schedule()
    return {"mixture_schedule.csv": ("\n".join(mx.schedule_csv_lines(sch)) + "\n",),
            "mixture.meta": _meta(construction="mixture", m_max=sch.m_max,
                                  precision_bits=sch.precision_bits, c=sch.c,
                                  residual_mass=sch.residual_mass)}


# construction -> the options its build reads besides construction and out,
# and its builder; build and report take these, probe a piecewise file too
_BUILDS = {"notched": (("n", "precision_bits"), _build_notched),
           "logperiodic": (("delta",), _build_logperiodic),
           "mixture": (("m_max", "precision_bits"), _build_mixture)}


def _cmd_build(config: RunConfig) -> int:
    if config.params:
        raise UsageError(f"unknown parameter(s) {_cut(', '.join(sorted(config.params)))} "
                         "for build")
    # every value is computed before the directory is made, so a failed
    # build writes nothing; the knot file streams from its serializer
    for name, chunks in _BUILDS[config.construction][1](config).items():
        _write(str(Path(config.out or "tailkit-out") / name), chunks)
    return 0


# ------------------------------ probes ------------------------------

def _run_probes(config: RunConfig, selected: list[probes.Probe], what: str) -> int:
    """Check every parameter of the selected probes, then run them."""
    known = {k for p in selected for k in p.params}
    unknown = sorted(set(config.params) - known)
    if unknown:
        raise UsageError(f"unknown parameter(s) {_cut(', '.join(unknown))} for {what}")
    parsed = []
    for p in selected:
        args: dict = {}
        for key, (parse, default) in p.params.items():
            text = config.params.get(key, default)
            if key not in config.params and "{" in default:  # names n or a parameter
                text = default.format(n=config.n, half=max(1, config.n // 2), **args)
            args[key] = _parse(key, parse, text, config)
        parsed.append((p, args))
    rows = [r for p, args in parsed
            for r in p.rows(partial(probes.ProbeRow, p.name), config, args)]
    _write(config.out, (probes.render_csv(rows),))
    return 0


def _cmd_convolve(config: RunConfig, files: list[str]) -> int:
    if not 1 <= len(files) <= 2:
        raise UsageError("convolve takes one piecewise file (self-convolution) "
                         "or two (cross-convolution)")
    first = piecewise.load_text(_read(files[0]))
    second = piecewise.load_text(_read(files[1])) if len(files) == 2 else first
    # the sweep checks its operands before the file opens, then makes each
    # cell as the writer asks for it; the writer picks the format
    _write(config.out, piecewise.dump_cells(*conv.dense_sweep(first, second)))
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

# command -> its --help line, its positional arguments' name and help, and
# the options it reads, in the order of OPTIONS, or None if _options derives
# them: construction, out and every option a run of the command reads
_COMMANDS = {
    "build": ("materialize a construction",
              "positional", "construction name and key=value overrides", None),
    "probe": ("run one probe, emit CSV",
              "positional", "construction, probe name, key=value overrides", None),
    "convolve": ("convolve piecewise files",
                 "files", "one or two piecewise files", ("out",)),
    "verify": ("run the acceptance battery", None, None, ("precision_bits", "out")),
    "report": ("full probe battery as CSV",
               "positional", "construction and key=value overrides", None),
}


def _options(command: str) -> tuple[tuple[str, ...], dict[str, tuple[str, ...]]]:
    """The options the command takes and, if it takes a construction, each
    one it takes -> the options a run of it reads besides construction and
    out: its build's, or its probes' union, in the order of OPTIONS."""
    *_, options = _COMMANDS[command]
    if options:
        return options, {}
    if command == "build":
        reads = {c: read for c, (read, _) in _BUILDS.items()}
    else:  # probe and report, the commands that read the catalogue
        takes = [*_BUILDS, "file:<path>"] if command == "probe" else _BUILDS
        reads = {c: tuple(k for k in OPTIONS if any(
            c in p.constructions and k in p.reads for p in probes.PROBES)) for c in takes}
    return tuple(k for k in OPTIONS if k in ("construction", "out")
                 or any(k in read for read in reads.values())), reads


def _command_parser(argv: list[str]) -> tuple[str, argparse.ArgumentParser]:
    """The command argv names, read by the top-level parser, and its parser.

    Each command's parser is made bare for the top-level listing, and only
    the invoked one gets its arguments: the probe listing of ``probe
    --help`` reads the probe catalogue, which no other command runs.
    """
    parser = argparse.ArgumentParser(
        prog="tailkit",
        description="exact-arithmetic probes for heavy-tailed density "
                    "counterexamples")
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag names its option in full: `build --d` must not read as --delta
    for name, (text, *_) in _COMMANDS.items():
        sub.add_parser(name, help=text, allow_abbrev=False)
    command = parser.parse_args(argv[:1]).command
    p = sub.choices[command]
    _, dest, text, _ = _COMMANDS[command]
    options, reads = _options(command)
    for key in options:
        readers = ", ".join(c for c, read in reads.items() if key in read)
        p.add_argument(_flag(key), dest=key, default=None, help=" | ".join(reads)
                       if key == "construction" else OPTIONS[key].help
                       + (f"; read by {readers}" if readers else ""))
    p.add_argument("--config", default=None, help="flat key = value file")
    if dest:
        p.add_argument(dest, nargs="*", help=text)
    if command == "probe":
        p.epilog = probes._probe_help()
        p.formatter_class = argparse.RawDescriptionHelpFormatter
    return command, p


def _config_from_args(args) -> tuple[RunConfig, Optional[probes.Probe]]:
    """A run's options and probe; an option the run does not read is refused."""
    allowed, reads = _options(args.command)
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
            if key in allowed:  # else a parameter, which the command refuses
                values[key] = _parse(key, OPTIONS[key].parse, text)
            else:
                params[key] = text
    for key in allowed:
        text = getattr(args, key)
        if text is not None:
            values[key] = _parse(key, OPTIONS[key].parse, text)
    config, probe = RunConfig(**values, params=params), None
    if not reads:
        return config, probe
    name = config.construction
    kind = "file:<path>" if name.startswith("file:") else name
    read, run = reads.get(kind), f"the {kind} construction"
    if args.command == "probe":
        if len(names) != 2:
            raise UsageError("probe needs a construction and a probe name, "
                             "e.g. 'tailkit probe notched knot_ratio_series'")
        probe = probes._find_probe(names[1], kind)
        read, run = probe.reads, f"probe {probe.name} on {kind}"
    elif len(names) > 1:
        raise UsageError(f"{args.command} takes one construction name, "
                         f"got {_cut(str(names))}")
    elif read is None:
        raise UsageError(f"unknown construction {_quoted(name)}; "
                         f"{args.command} takes one of {', '.join(reads)}")
    unread = sorted(set(values) - {"construction", "out", *read})
    if unread:
        raise UsageError(f"{run} does not read {', '.join(unread)}")
    return config, probe


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the command name by the top-level parser, the rest by the command's,
    # so that flags may come anywhere among the positional arguments:
    # argparse cannot intermix them on a parser with subcommands
    command, parser = _command_parser(argv)
    args = parser.parse_intermixed_args(argv[1:])
    args.command = command
    config, probe = _config_from_args(args)
    if command == "build":
        return _cmd_build(config)
    if command == "probe":
        return _run_probes(config, [probe], f"probe {probe.name}")
    if command == "report":
        name = config.construction
        return _run_probes(config, [p for p in probes.PROBES if name in p.constructions],
                           f"report {name}")
    if command == "convolve":
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
