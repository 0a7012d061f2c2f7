"""The benchmark's workloads: tailkit CLI invocations and their output checks.

Each workload is a list of operations, one fresh CLI process each, run in a
closed loop by one client.  Inputs that are not the measured work (the knot
files ``convolve`` reads) are made untimed in ``prepare``.  Every output is
checked after its process ends, outside the timed region; a check returns
``None`` when the output is correct and a reason otherwise.

Why these three:

* ``verify`` is the acceptance battery at the default 256 bits, the
  end-to-end target.  It is bound by point evaluation of the convolution
  (check 05 convolves the normalized N=35 density, coefficients up to
  13,054 bits) and reuses one operand for three calls, so a prepared-operand
  cache shows here.  Its input is the battery itself, which is the spec, so
  it does not depend on the seed.
* ``convolve`` self-convolves notched knot files for N = 4, 6, 8: the dense
  sweep plus serialization, the "write" use of the kernel beside
  ``verify``'s "read" use, without point evaluation, quadrature or repeated
  operands.  The seed draws the abscissas where the dense result is checked
  against point evaluation; it never changes the timed work.
* ``logperiodic`` reports the log-periodic construction at three fixed
  deltas, each a fresh normalizer computation.  It is mpmath quadrature
  with no kernel calls, so a kernel change should leave it unchanged.

The mixture layer is measured through ``verify``'s check 11 at the default
``m_max=6``.  ``tailkit probe mixture blowup m_max=10`` exits 2 today
("Exceeds the limit (4300 digits) for integer string conversion"); that
defect is left to a fix in the package, not hidden by the choice of
workloads.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

# sha256 of the outputs of the package these checks were written against;
# the battery CSV and the report CSVs are specified byte for byte.
VERIFY_CSV_SHA256 = "d3ac6cbb790ed0c71bf46f51e321843f80c00d6b0fa5a65a2993672d8ae0ec1b"
VERIFY_CHECKS = 13
LOGPERIODIC_CSV_SHA256 = {
    "1/8": "f7900046511dd0a3ab6e2c544de2f9cc27ddf3e0aa2e154da3d95e772b7a0f25",
    "1/4": "6be5e26bc88d2d574b0af0f3c6548b3688bc0f830a90184690fb0ef4b99bf6b3",
    "3/8": "71f499afafee2a1327823dc5dc0605912f2f18ec9e1d80bcd43f07f1586e1fa6",
}
CONVOLVE_N = (4, 6, 8)
CONVOLVE_CHECK_POINTS = 4


@dataclass
class Operation:
    label: str
    args: list[str]                           # tailkit CLI arguments
    output: Path                              # removed before each run
    check: Callable[[Path], Optional[str]]    # None when the output is right


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_verify(out: Path) -> Optional[str]:
    verdicts = [line.split(",")[2] for line in out.read_text().splitlines()
                if line.startswith("check_verdict,")]
    if len(verdicts) != VERIFY_CHECKS or set(verdicts) != {"1"}:
        return f"check_verdict rows {verdicts}, expected {VERIFY_CHECKS} x 1"
    if _sha256(out) != VERIFY_CSV_SHA256:
        return "battery CSV differs from the specified bytes"
    return None


def _check_bytes(expected: str, out: Path) -> Optional[str]:
    if _sha256(out) != expected:
        return "report CSV differs from the specified bytes"
    return None


def _check_self_convolution(knots, rng: random.Random, out: Path) -> Optional[str]:
    from tailkit.convolution import self_conv_value
    from tailkit.piecewise import load_text

    result = load_text(out.read_text())
    if result.total_mass() != knots.total_mass() ** 2:
        return "mass(p*p) != mass(p)**2"
    lo, hi = result.breakpoints[0], result.breakpoints[-1]
    for i in range(CONVOLVE_CHECK_POINTS):
        if i % 2:
            x = rng.choice(result.breakpoints)
        else:
            x = lo + (hi - lo) * Fraction(rng.randrange(1 << 30), 1 << 30)
        if result.eval(x) != self_conv_value(knots, x):
            return f"dense result differs from point evaluation at x={x}"
    return None


def prepare(name: str, work: Path, rng: random.Random,
            tailkit: Callable[[list[str]], None]) -> list[Operation]:
    """The operations of one pass of workload ``name``, writing under ``work``.

    ``tailkit`` runs an untimed CLI invocation that makes an input.
    """
    if name == "verify":
        out = work / "verify.csv"
        return [Operation("verify", ["verify", "--out", str(out)], out,
                          _check_verify)]
    if name == "convolve":
        from tailkit.piecewise import load_text

        ops = []
        for n in CONVOLVE_N:
            src = work / f"notched{n}"
            tailkit(["build", "notched", f"n={n}", "--out", str(src)])
            knots_path = src / "notched.knots"
            knots = load_text(knots_path.read_text())
            out = work / f"conv{n}.pw"
            ops.append(Operation(
                f"convolve N={n}",
                ["convolve", str(knots_path), "--out", str(out)], out,
                functools.partial(_check_self_convolution, knots, rng)))
        return ops
    if name == "logperiodic":
        ops = []
        for delta, digest in LOGPERIODIC_CSV_SHA256.items():
            out = work / f"logperiodic_{delta.replace('/', '_')}.csv"
            ops.append(Operation(
                f"logperiodic delta={delta}",
                ["report", "logperiodic", "--delta", delta, "--out", str(out)],
                out, functools.partial(_check_bytes, digest)))
        return ops
    raise ValueError(f"unknown workload {name!r}")
