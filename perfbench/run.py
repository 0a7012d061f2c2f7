#!/usr/bin/env python3
"""tailkit benchmark: times fresh CLI processes and checks every output.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 60 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this
directory and nothing is installed.  A run makes:

* one untimed CLI spawn that writes the bytecode cache;
* passes over the workload's operations (one fresh CLI process each,
  closed loop, one client) until ``--seconds`` is used up, at least one;
* cold ``python -c "import tailkit.cli"`` spawns for ``setup_s``, five
  before the first pass and two after each pass;
* one ``reference.py`` spawn after each pass, a fixed amount of exact
  rational arithmetic that imports nothing from tailkit.

``--trace 0`` reports the end-to-end metrics.  ``wall_s`` is the wall time of
one pass and ``cpu_s`` its CPU time (user + system, from each child's own
rusage), each the run's total divided by the number of passes; ``setup_s``
is the median spawn and ``peak_rss_mb`` the largest per-child max RSS.  The
three times are in reference seconds: the measured seconds times
``REFERENCE_S`` over the reference's mean time in the same run (its wall
time for ``wall_s`` and ``setup_s``, its CPU time for ``cpu_s``).  The raw
seconds are printed above the result line.  ``--trace 1`` alternates plain
passes with passes under ``tracer.py`` and reports the per-layer figures, in
raw seconds, as medians over the traced passes, plus the tracing overhead.
The metric names and units are those of ``BENCHMARK.json``.

Why reference seconds: on a shared host the whole machine drifts between
speeds for minutes at a time.  On a 2-vCPU Xeon VM a verify pass took 10 to
15 s at different times, on both vCPUs alike, so a run of one minute cannot
average the drift away.  The reference slows with the
machine.  Over 30 verify operations made while the machine drifted, each
next to a reference run, the ratio's spread between quartiles was half the
raw time's (10% against 21%); in a calm stretch it was no better, and over
runs of four passes it was slightly better (CV 4.9% against 5.5%).  A
change to tailkit moves the ratio and leaves the reference as it is.  Set-up
time drifts with the machine too: in two sets of ten runs its median rose
22% in raw seconds and 4% in reference seconds.

``BENCHMARK.json`` lists ``verify`` and ``convolve``.  ``logperiodic`` runs
the same way by hand: two workloads at one minute fit the time allowed for
all of the benchmark's runs, three would have to be shorter and noisier.

Every output is checked outside the timed region.  An operation fails on a
non-zero exit, a traceback on stderr or a failed check; the failure rate is
printed as ``error_rate``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every operation succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path[:0] = [str(HERE), str(SRC)]
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verify", "convolve", "logperiodic")
SETUP_SPAWNS_FIRST = 5
SETUP_SPAWNS_PER_PASS = 2
# reference.py's wall time on a 2-vCPU Xeon VM in a calm stretch; it only
# sets the scale of the reported times, which read as seconds on that machine
REFERENCE_S = 2.0
# every child is killed at this point of the run, which must end within 180 s
RUN_DEADLINE_S = 165.0


@dataclass
class Child:
    wall: float
    cpu: float
    maxrss_kb: int
    exit_code: int
    stderr: str


@dataclass
class Pass:
    traced: bool
    walls: list = field(default_factory=list)    # per operation, in order
    cpus: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)


class Runner:
    """Spawns tailkit processes under ``work`` and keeps the run's tallies.

    Timed processes are spawned by ``launcher.py``, a small process of its
    own, so that their max RSS is not this process's.  Close the runner to
    stop the launcher.
    """

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.maxrss_kb = 0
        self._launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=work,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()

    def spawn(self, argv: list[str]) -> Child:
        """Run one process to its end; wall time covers spawn to reap."""
        err_path = self.work / "stderr.txt"
        request = {"argv": argv, "cwd": str(self.work), "stderr": str(err_path),
                   "timeout": self.deadline - time.monotonic()}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher ended unexpectedly")
        reply = json.loads(reply)
        return Child(reply["wall"], reply["cpu"], reply["maxrss_kb"],
                     reply["exit_code"], err_path.read_text(errors="replace"))

    def tailkit(self, args: list[str]) -> None:
        """Untimed CLI invocation that makes an input; it must succeed."""
        child = self.spawn([sys.executable, "-m", "tailkit.cli", *args])
        if child.exit_code != 0:
            raise RuntimeError(f"tailkit {' '.join(args)} exited "
                               f"{child.exit_code}: {child.stderr.strip()}")

    def operate(self, op: workloads.Operation, pass_: Pass) -> None:
        """One timed operation, then its output check."""
        op.output.unlink(missing_ok=True)
        if pass_.traced:
            spans_path = self.work / "spans.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                    "--", *op.args]
        else:
            argv = [sys.executable, "-m", "tailkit.cli", *op.args]
        child = self.spawn(argv)
        self.attempted += 1
        pass_.walls.append(child.wall)
        pass_.cpus.append(child.cpu)
        self.maxrss_kb = max(self.maxrss_kb, child.maxrss_kb)
        if child.exit_code != 0:
            reason = f"exit {child.exit_code}: {child.stderr.strip()[-300:]}"
        elif "Traceback (most recent call last)" in child.stderr:
            reason = "traceback on stderr"
        else:
            try:
                reason = op.check(op.output)
            except Exception:  # a check that crashes is a failed check
                reason = traceback.format_exc(limit=3)
        if reason is None and pass_.traced:
            doc = json.loads(spans_path.read_text())
            tracer.merge(pass_.figures, tracer.aggregate(doc["spans"]))
            tracer.merge(pass_.figures, doc["counters"])
        if reason is not None:
            self.failures.append(f"{op.label}: {reason}")


def machine_info() -> dict:
    """Where the figures were measured; tailkit.cli must be imported."""
    import importlib.machinery
    import mpmath.libmp

    compiled = sorted(
        name for name, mod in sys.modules.items()
        if name.startswith("tailkit.")
        and str(getattr(mod, "__file__", "")).endswith(
            tuple(importlib.machinery.EXTENSION_SUFFIXES)))
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.machine(),
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "kernel_backend": ("compiled: " + ", ".join(compiled)) if compiled
        else "pure-python",
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def measure_setup(runner: Runner, spawns: int, into: list) -> None:
    """Append the wall times of ``spawns`` cold imports of the CLI."""
    for _ in range(spawns):
        child = runner.spawn([sys.executable, "-c", "import tailkit.cli"])
        if child.exit_code != 0:
            raise RuntimeError(f"import tailkit.cli failed: {child.stderr}")
        into.append(child.wall)


def measure_reference(runner: Runner, into: list) -> None:
    """Append one run of the speed reference."""
    child = runner.spawn([sys.executable, str(HERE / "reference.py")])
    if child.exit_code != 0:
        raise RuntimeError(f"reference.py exited {child.exit_code}: "
                           f"{child.stderr.strip()}")
    into.append(child)


def run_passes(runner: Runner, ops: list, seconds: float, trace: bool,
               setup: list, refs: list) -> list[Pass]:
    """Closed loop over the operations until the next pass would overrun.

    Set-up and the reference are sampled between passes, so that they span
    the same stretch of machine time as the passes.
    """
    passes: list[Pass] = []
    t_start = time.monotonic()
    while True:
        t_iter = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            pass_ = Pass(traced)
            for op in ops:
                runner.operate(op, pass_)
            passes.append(pass_)
        measure_setup(runner, SETUP_SPAWNS_PER_PASS, setup)
        measure_reference(runner, refs)
        now = time.monotonic()
        if now - t_start + (now - t_iter) > seconds or runner.failures:
            return passes


def per_pass(passes: list[Pass], attr: str) -> float:
    """Seconds per pass: the total over ``passes`` divided by their number."""
    return statistics.fmean(sum(getattr(p, attr)) for p in passes)


def to_ref(refs: list[Child], attr: str) -> float:
    """Factor from measured seconds to reference seconds."""
    return REFERENCE_S / statistics.fmean(getattr(r, attr) for r in refs)


def end_to_end(passes: list[Pass], setup: list[float], refs: list[Child],
               runner: Runner) -> dict:
    return {
        "wall_s": per_pass(passes, "walls") * to_ref(refs, "wall"),
        "cpu_s": per_pass(passes, "cpus") * to_ref(refs, "cpu"),
        "setup_s": statistics.median(setup) * to_ref(refs, "wall"),
        "peak_rss_mb": runner.maxrss_kb / 1024,
    }


def per_layer(passes: list[Pass], names: list[str]) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = (per_pass(traced, "walls")
                            - per_pass(plain, "walls"))
        elif name == "trace.wall_s":
            values[name] = per_pass(traced, "walls")
        else:
            values[name] = statistics.median(p.figures.get(name, 0) for p in traced)
    return values


def layer_shares(passes: list[Pass]) -> list[tuple]:
    """(layer, self time / traced wall time, self time / command time).

    The command time is the span of ``cli.main``: the wall time without
    interpreter start, the package import and exit.  The import span lies
    outside it and gets no command share.
    """
    traced = [p for p in passes if p.traced]
    wall = per_pass(traced, "walls")
    command = statistics.median(p.figures["cli.main.total_s"] for p in traced)
    layers = {k[:-len(".self_s")] for p in traced for k in p.figures
              if k.endswith(".self_s")}
    shares = []
    for name in layers:
        self_s = statistics.median(p.figures.get(name + ".self_s", 0)
                                   for p in traced)
        shares.append((name, self_s / wall,
                       None if name == "import" else self_s / command))
    return sorted(shares, key=lambda s: -s[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tailkit" / "cli.py").is_file():
        print(f"error: no tailkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    import tailkit.cli  # noqa: F401  (the package the checks and the trace use)

    started = time.monotonic()
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    runner = Runner(work, started + RUN_DEADLINE_S)
    try:
        info = machine_info()
        runner.tailkit(["--help"])      # writes the bytecode cache, untimed
        setup: list[float] = []
        refs: list[Child] = []
        measure_setup(runner, SETUP_SPAWNS_FIRST, setup)
        ops = workloads.prepare(args.workload, work, random.Random(args.seed),
                                runner.tailkit)
        passes = run_passes(runner, ops, args.seconds, bool(args.trace), setup,
                            refs)
        info["loadavg_end"] = [round(v, 2) for v in os.getloadavg()]
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    print("machine: " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{len(ops)} operations each")
    for i, p in enumerate(passes, 1):
        kind = "traced" if p.traced else "plain"
        print(f"  pass {i} ({kind}): wall {sum(p.walls):.4f} s, "
              f"cpu {sum(p.cpus):.4f} s")
    for i, r in enumerate(refs, 1):
        print(f"  reference {i}: wall {r.wall:.4f} s, cpu {r.cpu:.4f} s")
    plain = [p for p in passes if not p.traced]
    print(f"raw seconds: wall {per_pass(plain, 'walls'):.6g} and cpu "
          f"{per_pass(plain, 'cpus'):.6g} per plain pass, setup "
          f"{statistics.median(setup):.6g}; reference wall "
          f"{statistics.fmean(r.wall for r in refs):.6g} and cpu "
          f"{statistics.fmean(r.cpu for r in refs):.6g}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    failed = len(runner.failures)

    if args.trace:
        values = per_layer(passes, [m["name"] for m in metrics_spec])
        print(f"  {'layer self time, share of':40s} {'wall':>7s} {'command':>8s}")
        shares = layer_shares(passes)
        for name, of_wall, of_command in shares:
            if of_wall >= 0.005:
                cmd = "" if of_command is None else f"{of_command:8.1%}"
                print(f"  {name:40s} {of_wall:7.1%} {cmd}")
        outside = 1 - sum(of_wall for _, of_wall, _ in shares)
        print(f"  {'(outside spans: process start, exit)':40s} {outside:7.1%}")
    else:
        values = end_to_end(passes, setup, refs, runner)
    metrics = {}
    for m in metrics_spec:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"error_rate = {failed / runner.attempted:.6g} ratio "
          f"({failed} of {runner.attempted} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
