"""Exact q-series engine and verification suite for colored Frobenius partitions.

The package computes, in exact rational arithmetic, the theta-quotient
generating function of N-colored generalized Frobenius partitions, the
partition-side series of the main identity, the cusp-form residual linking
them, and all supporting objects (quadratic Gauss sums, character constants,
eta quotients, Eisenstein expansions), each checked against independent
brute-force oracles in the test suite.  Import from the submodules
(cphi.verify, cphi.theta, ...); importing the package alone loads none of them.
"""

__version__ = "0.1.0"
