"""Theorem-level verification: residual and b series, one table of checks, reports.

The correction b(n) is what the main identity
cphi_N(n) = sum_d (N/d) P(N n/d^2 - (N^2-d^2)/(24 d^2)) + b(n) defines it to
be, cphi minus the partition side: the difference of two independently
derived exact series (lattice counting vs. partition numbers), never the
Eisenstein decomposition.  The residual is the cusp form as the paper
defines it, C = (q;q)^N * sum b(n) q^n.  So the main identity holds by
construction and is not a check; C = 0 exactly when b = 0, as (q;q)^N is
invertible, so residual-vanishes decides b = 0 at N = 1, 5, 7, 11.

The checks are one ordered table, CHECKS, of small generator functions of
(level, nMax, ratio tolerance), each yielding its results, none when it does
not apply; each one can fail.  run_verification runs the table; the b1 and
kolitsch summary tables read the same check functions.

A report holds the coefficients and the check results; it builds the ratio
table cphi_N(n) / main(n) from its own coefficients, and only when it prints
JSON.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import validate_level
from .characters import context
from .eta_partition import main_term, partition_numbers
from .qseries import LEVELS_HELD, EtaChain, QSeries, euler_coefficients, held
from .theta import cphi_series

KOLITSCH_LEVELS = (5, 7, 11)
ZERO_RESIDUAL_LEVELS = (1, 5, 7, 11)
B1_TABLE = {13: 26, 17: 170, 19: 266, 23: 506}
# the eta-quotient series of the level-13 identity is normalized so that its
# first coefficient is 1; the correction series starts at b(1) = 26
CWY13_SCALE = 26


def sturm_bound(level: int) -> int:
    """ceil(k * [SL2(Z):Gamma_0(N)] / 12) with k = (N-1)/2, N squarefree."""
    index = 1
    for p in context(level)[1]:
        index *= p + 1
    k = (level - 1) // 2
    return -(-k * index // 12)


@lru_cache(maxsize=LEVELS_HELD)
def main_term_series(level: int, n_max: int) -> QSeries:
    """Partition side of the main identity as a series, continued by index."""
    validate_level(level)
    main = held(level, "main", list)
    if len(main) <= n_max:
        # every partition argument below is under N * n_max (d = 1): size the
        # table once instead of letting it double its way up
        partition_numbers(level * n_max)
        main.extend(main_term(level, n) for n in range(len(main), n_max + 1))
    return QSeries(0, main[: n_max + 1], n_max)


@lru_cache(maxsize=LEVELS_HELD)
def residual_series(level: int, n_max: int) -> QSeries:
    """C = (q;q)^N * sum b(n) q^n, exact through q**n_max.

    Since cphi = f_theta / (q;q)^N, this is f_theta - (q;q)^N * (partition side).
    The product is the level's held EtaChain, continued from its first
    missing coefficient.
    """
    b = correction_series(level, n_max).coefficients()
    residual = held(level, "residual", lambda: EtaChain(level)).extend(b)
    return QSeries(0, residual[: n_max + 1], n_max)


@lru_cache(maxsize=LEVELS_HELD)
def correction_series(level: int, n_max: int) -> QSeries:
    """b(n) series: cphi minus the partition side."""
    return cphi_series(level, n_max) - main_term_series(level, n_max)


@lru_cache(maxsize=LEVELS_HELD)
def eta13_series(n_max: int) -> QSeries:
    """q (q^13;q^13)_inf / (q;q)^2_inf through q**n_max, continued in level 13's store."""
    if n_max < 1:
        return QSeries.zero(n_max)
    numerator = [0] * n_max
    numerator[::13] = euler_coefficients((n_max - 1) // 13)
    series = held(13, "eta13", lambda: EtaChain(-2)).extend(numerator)
    return QSeries(1, series[:n_max], n_max)


def asymptotic_ratios(cphi_coeffs: list, main_coeffs: list):
    """Pairs (n, cphi_N(n) / main term) for n >= 1 from the two coefficient lists.

    Returns (ratios, skipped): points where the partition side vanishes are
    recorded rather than divided by.
    """
    ratios, skipped = [], []
    for n, (c, m) in enumerate(zip(cphi_coeffs[1:], main_coeffs[1:]), 1):
        if m == 0:
            skipped.append(n)
        else:
            ratios.append((n, Fraction(c, m)))
    return ratios, skipped


def decimal_str(value: Fraction, digits: int = 12) -> str:
    """Exact rational rendered to a fixed number of decimal digits, halves rounded up."""
    scaled, rem = divmod(abs(value.numerator) * 10**digits, value.denominator)
    scaled += 2 * rem >= value.denominator
    whole, frac = divmod(scaled, 10**digits)
    return f"{'-' if value < 0 else ''}{whole}.{str(frac).zfill(digits)}"


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class VerificationReport(NamedTuple):
    level: int
    n_max: int
    b_coeffs: list
    checks: list
    cphi_coeffs: list
    main_coeffs: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        ratios, _ = asymptotic_ratios(self.cphi_coeffs, self.main_coeffs)
        return {
            "N": self.level,
            "nMax": self.n_max,
            "checks": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "b": [str(c) for c in self.b_coeffs],
            "ratios": [[n, decimal_str(r)] for n, r in ratios],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_csv(self) -> str:
        rows = zip(self.cphi_coeffs, self.main_coeffs, self.b_coeffs)
        lines = ["n,cphi,mainSum,b"]
        lines += [f"{n}," + ",".join(map(str, row)) for n, row in enumerate(rows)]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"verification report: N={self.level}, nMax={self.n_max}"]
        for c in self.checks:
            lines.append(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        lines.append(f"  overall: {'PASS' if self.all_passed else 'FAIL'}")
        return "\n".join(lines)


# -- the checks: each yields its results for (level, nMax, ratio tolerance) --


def _residual(level, n_max, tol):
    residual = residual_series(level, n_max)
    c0, order = residual.coefficient(0), residual.order()
    yield CheckResult("residual-constant-term", c0 == 0, f"residual constant term = {c0}")
    if level in ZERO_RESIDUAL_LEVELS:
        yield CheckResult(
            "residual-vanishes",
            order is None,
            f"residual is the zero series through q^{n_max} (Sturm bound {sturm_bound(level)})"
            if order is None
            else f"residual has a nonzero coefficient at n={order}",
        )
    else:
        yield CheckResult(
            "residual-nonzero",
            order is not None,
            f"first nonzero residual coefficient at n={order}"
            if order is not None
            else f"residual unexpectedly vanishes through q^{n_max}",
        )


def _cwy13_eta_series(level, n_max, tol):
    if level != 13:
        return
    target = eta13_series(n_max).scale(CWY13_SCALE)
    diff = (correction_series(level, n_max) - target).order()
    yield CheckResult(
        "cwy13-eta-series",
        diff is None,
        f"b-series equals {CWY13_SCALE} * q(q^13;q^13)/(q;q)^2 exactly "
        f"through q^{n_max} (scale fixed by b(1))"
        if diff is None
        else f"first mismatch at n={diff}",
    )


def _b1_value(level, n_max, tol):
    # off B1_TABLE, b = 0 below N = 13 (residual-vanishes), and above N = 23 the
    # partition side vanishes at n = 1, so b(1) = cphi(1) (cphi1-square)
    if level not in B1_TABLE:
        return
    expected = B1_TABLE[level]
    got = correction_series(level, n_max).coefficient(1)
    yield CheckResult("b1-value", got == expected, f"b(1) = {got}, expected {expected}")


def _cphi1_square(level, n_max, tol):
    got = cphi_series(level, n_max).coefficient(1)
    yield CheckResult(
        "cphi1-square", got == level * level, f"cphi_{level}(1) = {got}, expected {level * level}"
    )


def _sturm_coverage(level, n_max, tol):
    bound = sturm_bound(level)
    relation = "covers" if n_max >= bound else "is below"
    yield CheckResult(
        "sturm-coverage", n_max >= bound, f"nMax={n_max} {relation} Sturm bound {bound}"
    )


def _nonvanishing_scan(level, n_max, tol):
    if level in ZERO_RESIDUAL_LEVELS:
        return
    b = correction_series(level, n_max)
    nonzero = [n for n in range(1, n_max + 1) if b.coefficient(n) != 0]
    top_half = [n for n in nonzero if n >= n_max // 2]
    if nonzero:
        gap = max(later - earlier for earlier, later in zip([0] + nonzero, nonzero))
    else:
        gap = n_max
    yield CheckResult(
        "nonvanishing-scan",
        bool(top_half),
        f"largest gap between nonzero b(n) is {gap}; "
        f"{len(top_half)} nonzero entries in [{n_max // 2}, {n_max}]",
    )


def _asymptotic(level, n_max, tol):
    # where b = 0 (residual-vanishes) r = 1 exactly, and with no nonzero main
    # term at nMax and nMax/4, or with nMax/4 = nMax (nMax = 1), there is no trend
    if level in ZERO_RESIDUAL_LEVELS:
        return
    cphi, main = cphi_series(level, n_max), main_term_series(level, n_max)
    quarter = -(-n_max // 4)
    if quarter == n_max or not (main.coefficient(n_max) and main.coefficient(quarter)):
        return
    devN, devQ = (
        abs(Fraction(cphi.coefficient(n), main.coefficient(n)) - 1) for n in (n_max, quarter)
    )
    yield CheckResult(
        "asymptotic-trend",
        devN < devQ or devN == 0,
        f"|r({n_max})-1| = {decimal_str(devN)} vs |r({quarter})-1| = {decimal_str(devQ)}",
    )
    if level == 13:
        tol = Fraction(str(tol))  # the float's shortest decimal: 0.1 is 1/10, 1e-10 stays nonzero
        yield CheckResult(
            "asymptotic-tolerance",
            devN < tol,
            f"|r({n_max})-1| = {decimal_str(devN)} < {float(tol)}",
        )


# in report order
CHECKS = (
    _residual,
    _cwy13_eta_series,
    _b1_value,
    _cphi1_square,
    _sturm_coverage,
    _nonvanishing_scan,
    _asymptotic,
)


def run_verification(
    level: int, n_max: int = 200, ratio_tolerance: float = 0.1
) -> VerificationReport:
    """Run every applicable named check for one level and assemble a report."""
    validate_level(level)
    if n_max < 1:
        raise ValueError("verification needs nMax >= 1")
    if not 0 < ratio_tolerance < float("inf"):
        raise ValueError(f"ratio tolerance must be positive and finite, got {ratio_tolerance}")
    report = VerificationReport(
        level=level,
        n_max=n_max,
        b_coeffs=correction_series(level, n_max).coefficients(),
        cphi_coeffs=cphi_series(level, n_max).coefficients(),
        main_coeffs=main_term_series(level, n_max).coefficients(),
        checks=[],
    )
    for check in CHECKS:
        report.checks.extend(check(level, n_max, ratio_tolerance))
    names = [c.name for c in report.checks]
    if len(names) != len(set(names)):
        raise RuntimeError("duplicate check names in report")
    return report


# -- the summary tables: rows, and one stderr line per failed check ----------


def b1_table():
    """Rows of `cphi table --which b1`: b(1) against B1_TABLE for each level."""
    rows, errors = [], []
    for level in sorted(B1_TABLE):
        (check,) = _b1_value(level, 2, None)
        got = correction_series(level, 2).coefficient(1)
        rows.append({"N": level, "b1": str(got), "expected": B1_TABLE[level],
                     "match": check.passed})
        if not check.passed:
            errors.append(f"N={level}: {check.detail}")
    return rows, errors


def kolitsch_table(n_max: int):
    """Rows of `cphi table --which kolitsch`: does the residual vanish at N = 5, 7, 11?

    Below the Sturm bound a zero residual proves nothing, so that is an error too.
    """
    rows, errors = [], []
    for level in KOLITSCH_LEVELS:
        _, vanishes = _residual(level, n_max, None)
        (coverage,) = _sturm_coverage(level, n_max, None)
        rows.append({"N": level, "nMax": n_max, "residual_zero": vanishes.passed})
        if not vanishes.passed:
            errors.append(f"N={level}: {vanishes.detail}")
        if not coverage.passed:
            errors.append(f"N={level}: nmax={n_max} is below sturm_bound({level}) = "
                          f"{sturm_bound(level)}")
    return rows, errors
