"""A fixed amount of exact rational arithmetic: the benchmark's speed reference.

    python3 perfbench/reference.py

The benchmark runs this in a fresh process after each pass and divides the
pass's times by its times, so that the reported figures do not move with
the host's speed.  It does the kind of work tailkit's kernels do (Horner
evaluation of rational polynomials at rational points, with the gcd
reductions of ``Fraction``), and it imports nothing from tailkit, so that a
change to the package never changes it.  It exits 1 if its result is not
the one it always gives.
"""

import sys
from fractions import Fraction

POINTS = 1800
COEFFS = [Fraction(i * i + 1, 3 * i + 7) for i in range(1, 60)]
# the result modulo a Mersenne prime: (numerator, denominator)
MODULUS = 2**61 - 1
RESULT = (1133040730592328801, 2127919036581634163)


def work(points: int) -> Fraction:
    acc = Fraction(0)
    for r in range(points):
        x = Fraction(2 * r + 1, 97 + r)
        v = Fraction(0)
        for c in COEFFS:
            v = v * x + c
        acc += v / (r + 1)
    return acc


if __name__ == "__main__":
    acc = work(POINTS)
    sys.exit(0 if (acc.numerator % MODULUS, acc.denominator % MODULUS) == RESULT
             else 1)
