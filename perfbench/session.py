"""The library queries of the `session` workload, run inside one process.

Functions are looked up on their modules at call time, so a span recorder
installed after import sees every call.  Each query returns the content that
its golden digest covers: coefficients and the string form of exact values.
"""

from __future__ import annotations

import cphi.characters
import cphi.eisenstein
import cphi.eta_partition
import cphi.gauss_sums
import cphi.theta
import cphi.verify


def _float_str(x: float) -> str:
    """A float oracle value rounded so that its summation order does not show."""
    return f"{round(x, 6) + 0.0:.6f}"


def _strs(series) -> list:
    return [str(c) for c in series.coefficients()]


def _verify(level, n_max):
    report = cphi.verify.run_verification(level, n_max)
    return {
        "b": [str(c) for c in report.b_coeffs],
        "cphi": [str(c) for c in report.cphi_coeffs],
        "all_pass": report.all_passed,
    }


def _kolitsch(level, n_max):
    return cphi.verify.residual_series(level, n_max).is_zero()


def _b1(level):
    return str(cphi.verify.correction_series(level, 2).coefficient(1))


def _gauss(level, a, c):
    gs = cphi.gauss_sums
    dim = level - 1
    out = {"reduction": str(gs.gauss_sum_by_reduction(dim, a, c))}
    if level % c == 0:
        out["closed"] = str(gs.gauss_sum_closed(level, a, c))
    if c**dim <= gs.PHASE_GUARD:
        z = gs.gauss_sum_numeric(dim, a, c)
        out["numeric"] = [_float_str(z.real), _float_str(z.imag)]
    return out


def _bernoulli(level, k_max):
    return [str(cphi.characters.bernoulli_chi(k, level)) for k in range(k_max)]


def _theta_eisenstein(level, n_max):
    return _strs(cphi.eisenstein.theta_eisenstein_series(level, n_max))


def _eisenstein_factored(level, n_max):
    f = cphi.eisenstein.eisenstein_coefficient_factored
    return [str(f(level, n)) for n in range(1, n_max + 1)]


def _eta_quotient(level, d, n_max):
    return _strs(cphi.eta_partition.eta_quotient_series(level, d, n_max))


def _multi_partition(r, n_max):
    return _strs(cphi.eta_partition.multi_partition_series(r, n_max))


QUERIES = {
    "verify": _verify,
    "kolitsch": _kolitsch,
    "b1": _b1,
    "gauss": _gauss,
    "bernoulli": _bernoulli,
    "theta_eisenstein": _theta_eisenstein,
    "eisenstein_factored": _eisenstein_factored,
    "eta_quotient": _eta_quotient,
    "multi_partition": _multi_partition,
}
