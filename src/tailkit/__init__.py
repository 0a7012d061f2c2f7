"""Exact-arithmetic toolkit for heavy-tailed density counterexamples.

Builds piecewise-linear and log-periodic densities with controlled
pathologies (non-almost-decreasing yet subexponential, long-tailed yet not
subexponential, and a two-sided mixture whose local self-convolution blows
up), then verifies every checkable identity and asymptotic trend about
them with exact rational arithmetic, snapped transcendental constants and
quadrature that carries a quadrature error estimate plus a rigorous tail
bound.
"""

__version__ = "0.1.0"
