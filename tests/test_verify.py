import json
from fractions import Fraction

import pytest

import cphi.arith
import cphi.characters
import cphi.eta_partition
import cphi.qseries
import cphi.theta
import cphi.verify
from cphi.arith import divisors, is_squarefree
from cphi.characters import bernoulli_chi, context
from cphi.eta_partition import (
    eta_quotient_series,
    main_term,
    multi_partition_series,
    partition_count,
)
from cphi.qseries import QSeries
from cphi.theta import cphi_series, theta_series
from cphi.verify import (
    B1_TABLE,
    asymptotic_ratios,
    correction_series,
    decimal_str,
    eta13_series,
    main_term_series,
    residual_series,
    run_verification,
    sturm_bound,
)
from oracles import (
    correction_series_by_division,
    decimal_str_fraction,
    eta_power_miller,
    monomial,
    residual_by_partition_side,
)


def named_check(report, name):
    """The one check of the report with this name."""
    (result,) = [c for c in report.checks if c.name == name]
    return result


def test_sturm_bounds():
    assert sturm_bound(5) == 1
    assert sturm_bound(7) == 2
    assert sturm_bound(11) == 5
    assert sturm_bound(13) == 7
    assert sturm_bound(35) == 68


def test_residual_zero_for_kolitsch_levels():
    for level in (5, 7, 11):
        residual = residual_series(level, 200)
        assert residual.is_zero(), level
        assert residual.trunc == 200


def test_residual_constant_term_vanishes():
    for level in (5, 13, 35):
        assert residual_series(level, 30).coefficient(0) == 0


def test_residual_nonzero_for_13():
    assert not residual_series(13, 30).is_zero()


def test_kolitsch_spot_identities():
    assert cphi_series(5, 1).coefficient(1) == 25
    assert 25 == 5 * partition_count(4) + partition_count(Fraction(1, 5))
    assert cphi_series(7, 1).coefficient(1) == 49 == 7 * partition_count(5)
    assert cphi_series(11, 1).coefficient(1) == 121 == 11 * partition_count(6)


def test_b_coefficients_table():
    for level, expected in ((13, 26), (17, 170), (19, 266), (23, 506)):
        assert correction_series(level, 2).coefficient(1) == expected, level
    # N >= 29: b(1) = N^2
    assert correction_series(29, 2).coefficient(1) == 29 * 29
    assert correction_series(31, 2).coefficient(1) == 31 * 31


def test_cphi1_is_n_squared():
    for level in (5, 7, 11, 13, 17, 19, 23):
        assert cphi_series(level, 1).coefficient(1) == level * level


def test_correction_series_solves_main_identity():
    for level in (5, 7, 11, 13, 35):
        n_max = 200
        cphi = cphi_series(level, n_max)
        main = main_term_series(level, n_max)
        b = correction_series(level, n_max)
        assert cphi == main + b, level


def test_cwy13_series_identity():
    b = correction_series(13, 200)
    assert b == eta13_series(200).scale(26)


def test_eta13_series_expansion():
    s = eta13_series(12)
    # q (q^13;q^13)/(q;q)^2 = q * (two-colored partition series) here
    assert s.coefficients() == [0, 1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481, 752]
    assert eta13_series(0) == QSeries.zero(0)


def series_ratios(level, n_max):
    """asymptotic_ratios of the cphi and partition-side series, as `cphi ratios` reads them."""
    return asymptotic_ratios(cphi_series(level, n_max).coefficients(),
                             main_term_series(level, n_max).coefficients())


def test_asymptotic_ratios_level5_exactly_one():
    ratios, skipped = series_ratios(5, 120)
    assert skipped == []
    assert all(r == 1 for _, r in ratios)


def test_asymptotic_ratios_level13():
    ratios, _ = series_ratios(13, 200)
    by_n = dict(ratios)
    assert by_n[1] == Fraction(169, 143)
    assert abs(by_n[200] - 1) < Fraction(1, 10)
    assert abs(by_n[200] - 1) < abs(by_n[50] - 1)


def test_asymptotic_ratios_skip_zero_main():
    ratios, skipped = series_ratios(35, 10)
    assert 1 in skipped  # every partition argument is negative at n = 1
    assert all(m >= 1 for m, _ in ratios)


@pytest.mark.parametrize("level,n_max", [(1, 60), (5, 200), (7, 60), (11, 60), (35, 1), (35, 3),
                                         (13, 1), (17, 1), (23, 1)])
def test_asymptotic_trend_not_reported_where_it_cannot_fail(level, n_max):
    # b = 0 fixes r = 1 at N = 1, 5, 7, 11; at 35@1 and 35@3 the main term
    # vanishes at nMax/4, so there is no trend to compare; at nMax = 1 the
    # quarter point is nMax itself, and r(1) would be compared with itself
    report = run_verification(level, n_max)
    names = [c.name for c in report.checks]
    assert "asymptotic-trend" not in names
    assert "asymptotic-tolerance" not in names


def test_asymptotic_trend_can_fail(monkeypatch):
    level, n_max = 13, 200
    main = main_term_series(level, n_max)
    report = run_verification(level, n_max)
    assert named_check(report, "asymptotic-trend").passed
    # doubling cphi(nMax) puts r(nMax) at 2, farther from 1 than r(50)
    monkeypatch.setattr(cphi.verify, "cphi_series", lambda level, n_max: main + monomial(
        main.coefficient(n_max), n_max, n_max))
    trend, tolerance = cphi.verify._asymptotic(level, n_max, 0.1)
    assert not trend.passed and trend.name == "asymptotic-trend"
    assert not tolerance.passed


def test_decimal_rendering():
    assert decimal_str(Fraction(169, 143)) == "1.181818181818"
    assert decimal_str(Fraction(1)) == "1.000000000000"
    assert decimal_str(Fraction(-1, 3)) == "-0.333333333333"
    assert decimal_str(Fraction(1, 2), digits=3) == "0.500"
    assert decimal_str(Fraction(2, 3), digits=3) == "0.667"


def test_decimal_str_matches_fraction_oracle():
    grid = [(Fraction(num, den), digits) for num in range(-60, 61) for den in range(1, 61)
            for digits in range(16)]
    edges = [
        Fraction(1, 2 * 10**12), Fraction(-1, 2 * 10**12), Fraction(3, 2 * 10**12),
        Fraction(5, 2), Fraction(-7, 2),  # halves at digits = 0
        1 - Fraction(1, 10**13), -1 + Fraction(1, 10**13), 9 - Fraction(4, 10**13),
        Fraction(10**13 - 5, 10**13),  # a half just below the carry at 12 digits
        Fraction(-(10**13 - 4), 10**13), Fraction(0), Fraction(-3), 7,
    ]
    grid += [(value, digits) for value in edges for digits in (0, 1, 11, 12, 13)]
    for level, n_max in ((5, 1600), (13, 600), (35, 200)):
        ratios, _ = series_ratios(level, n_max)
        grid += [(r, 12) for _, r in ratios]
    for value, digits in grid:
        assert decimal_str(value, digits) == decimal_str_fraction(value, digits), (value, digits)


def test_report_structure_and_json_round_trip():
    report = run_verification(5, 60)
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))
    payload = json.loads(report.to_json())
    assert set(payload) == {"N", "nMax", "checks", "b", "ratios"}
    assert payload["N"] == 5
    assert payload["nMax"] == 60
    assert len(payload["b"]) == 61
    for entry in payload["checks"]:
        assert set(entry) == {"name", "pass", "detail"}
    assert all(len(pair) == 2 for pair in payload["ratios"])
    assert len(report.b_coeffs) == 61


def test_report_csv():
    report = run_verification(5, 10)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "n,cphi,mainSum,b"
    assert len(lines) == 12
    assert lines[1] == "0,1,1,0"
    assert lines[2] == "1,25,25,0"


def test_only_json_reports_build_the_ratio_table(monkeypatch):
    def unused(cphi_coeffs, main_coeffs):
        raise AssertionError("ratio table built for a report that does not print it")

    monkeypatch.setattr(cphi.verify, "asymptotic_ratios", unused)
    report = run_verification(13, 60)
    assert report.to_text().startswith("verification report: N=13, nMax=60")
    assert report.to_csv().startswith("n,cphi,mainSum,b\n")
    with pytest.raises(AssertionError, match="ratio table built"):
        report.to_json()


def test_report_levels_13_expectations():
    report = run_verification(13, 60)
    assert report.all_passed
    assert named_check(report, "b1-value").passed
    assert named_check(report, "cwy13-eta-series").passed
    assert named_check(report, "residual-nonzero").passed


def test_report_level1():
    report = run_verification(1, 30)
    assert report.all_passed
    assert named_check(report, "residual-vanishes").passed


def test_run_verification_rejects_bad_levels():
    with pytest.raises(ValueError):
        run_verification(15, 10)
    with pytest.raises(ValueError):
        run_verification(12, 10)


@pytest.mark.parametrize("level,n_max", [(5, 1600), (13, 600), (23, 200), (35, 200)])
def test_correction_series_matches_division_route(level, n_max):
    # b = cphi - main against the route it replaced, residual * (q;q)^-N
    b = correction_series(level, n_max)
    old = correction_series_by_division(level, n_max)
    assert b.trunc == old.trunc == n_max
    assert b.coefficients() == old.coefficients()


@pytest.mark.parametrize(
    "level,n_max",
    [(5, 1600), (13, 600), (23, 200), (35, 200)]
    + [(level, 200) for level in (1, 5, 7, 11, 13, 17, 19, 29, 31)]
    + [(level, 60) for level in (55, 65, 77)],
)
def test_cphi_and_residual_match_product_routes(level, n_max):
    # every valid level up to 35 at n = 200 and the composite 55, 65, 77: the
    # add-only passes against the products they replaced, with (q;q)^(+-N)
    # from Miller's recurrence, and the residual (q;q)^N * b against the
    # route it replaced, theta - (q;q)^N * main
    theta = theta_series(level, n_max)
    for got, old in (
        (cphi_series(level, n_max), theta * eta_power_miller(-level, n_max)),
        (residual_series(level, n_max), residual_by_partition_side(level, n_max)),
    ):
        assert got.trunc == old.trunc == n_max
        assert got.coefficients() == old.coefficients()
        assert all(type(c) is int for c in got.coeffs)


def clear_series_caches():
    for cached in (theta_series, main_term_series, residual_series, correction_series,
                   eta13_series):
        cached.cache_clear()
    cphi.qseries._STORES.clear()


def held_series(level: int, n_max: int) -> dict:
    """Every series the store holds for one level, through q**n_max, as lists."""
    series = {f.__name__: f(level, n_max).coefficients()
              for f in (theta_series, cphi_series, main_term_series, correction_series,
                        residual_series)}
    if level == 13:
        series["eta13_series"] = eta13_series(n_max).coefficients()
    return series


# increasing and decreasing prefixes; level 5 is on the DP, which recomputes
# theta, and 13, 35 and 77 cross widths of Miller's accumulator
LADDERS = {5: (40, 150, 90, 300), 13: (20, 100, 60, 250), 35: (20, 80, 50, 140),
           77: (20, 60, 40, 100)}


@pytest.mark.parametrize("level", sorted(LADDERS))
def test_extended_series_equal_fresh_ones(level):
    fresh = {}
    for n_max in LADDERS[level]:
        clear_series_caches()
        fresh[n_max] = held_series(level, n_max)
    clear_series_caches()
    for n_max in LADDERS[level]:  # distinct, so every call misses the lru caches
        assert held_series(level, n_max) == fresh[n_max], n_max
    clear_series_caches()


# every theta count and every eta stage a series can run
SERIES_WORK = ((cphi.theta, "coset_counts_dp"), (cphi.theta.MillerPowers, "counts"),
               (cphi.qseries, "cube_stage"), (cphi.qseries, "pentagonal_stage"),
               (cphi.eta_partition, "pentagonal_stage"))


def refuse(*args):
    raise LookupError(args)


def test_a_shorter_verify_crops_what_a_longer_one_computed(monkeypatch):
    clear_series_caches()
    longer = run_verification(35, 600)
    for module, name in SERIES_WORK:
        monkeypatch.setattr(module, name, refuse)
    shorter = run_verification(35, 300)
    assert shorter.all_passed and shorter.cphi_coeffs == longer.cphi_coeffs[:301]
    assert shorter.b_coeffs == longer.b_coeffs[:301]
    monkeypatch.undo()
    clear_series_caches()
    assert run_verification(35, 300) == shorter


def test_json_report_reads_its_own_coefficients(monkeypatch):
    # the ratio table comes from the report's cphi and main coefficients, so
    # printing it after the series caches are gone computes no series
    report = run_verification(35, 200)
    expected = report.to_json()
    clear_series_caches()
    for module, name in SERIES_WORK + ((cphi.verify, "main_term"),):
        monkeypatch.setattr(module, name, refuse)
    assert report.to_json() == expected
    monkeypatch.undo()
    clear_series_caches()


def test_main_term_reads_level_divisors_once(monkeypatch):
    # the divisors of N come from the cached context(N), never once per n
    context(35)
    calls = []

    def counting_divisors(n):
        calls.append(n)
        return divisors(n)

    for module in (cphi.arith, cphi.characters, cphi.eta_partition, cphi.verify):
        monkeypatch.setattr(module, "divisors", counting_divisors, raising=False)
    main_term_series.__wrapped__(35, 200)
    assert calls == []


def test_verify_computes_eta_power_minus_n_once(monkeypatch):
    # one verify divides theta by (q;q)^N once and multiplies b by (q;q)^N
    # once, each as one chain of stages: (q;q)^(+-N) itself is never built
    level, n_max = 13, 47
    chains, powers = [], []
    eta_power = cphi.qseries.eta_power

    class CountingChain(cphi.qseries.EtaChain):
        __slots__ = ()

        def __init__(self, k):
            chains.append(k)
            super().__init__(k)

    def counting_powers(k, trunc):
        powers.append(k)
        return eta_power(k, trunc)

    for module in (cphi.qseries, cphi.theta, cphi.verify, cphi.eta_partition):
        monkeypatch.setattr(module, "EtaChain", CountingChain, raising=False)
        monkeypatch.setattr(module, "eta_power", counting_powers, raising=False)
    clear_series_caches()
    run_verification(level, n_max)
    assert chains.count(-level) == 1
    assert chains.count(level) == 1
    assert level not in powers and -level not in powers


@pytest.mark.parametrize("level,n_max", [(5, 200), (13, 200), (35, 68)])
def test_verify_runs_no_series_product(monkeypatch, level, n_max):
    calls = []
    convolve = cphi.qseries._convolve

    def counting(a, b, out_len):
        calls.append(out_len)
        return convolve(a, b, out_len)

    monkeypatch.setattr(cphi.qseries, "_convolve", counting)
    clear_series_caches()
    run_verification(level, n_max)
    assert calls == []


def test_eta_factors_run_no_series_product(monkeypatch):
    # every (q^d;q^d)^k factor is a pentagonal pass, and bernoulli_chi runs its
    # recurrence on a cold table: none of them reaches the series product
    calls = []
    convolve = cphi.qseries._convolve

    def counting(a, b, out_len):
        calls.append(out_len)
        return convolve(a, b, out_len)

    monkeypatch.setattr(cphi.qseries, "_convolve", counting)
    monkeypatch.setattr(cphi.characters, "_BERNOULLI_TABLES", {})
    for level in (5, 13, 35):
        for d in divisors(level):
            eta_quotient_series(level, d, 120)
        bernoulli_chi((level - 1) // 2, level)
    multi_partition_series(13, 200)
    eta13_series.__wrapped__(200)
    assert calls == []


def test_residual_checks_fail_on_nonzero_residual(monkeypatch):
    monkeypatch.setattr(
        cphi.verify, "residual_series", lambda level, n_max: monomial(1, 3, n_max)
    )
    report = run_verification(5, 20)
    check = named_check(report, "residual-vanishes")
    assert not check.passed
    assert check.detail == "residual has a nonzero coefficient at n=3"
    assert not report.all_passed


def test_sturm_coverage_fail_wording():
    check = named_check(run_verification(35, 20), "sturm-coverage")
    assert not check.passed
    assert check.detail == "nMax=20 is below Sturm bound 68"
    assert named_check(run_verification(35, 68), "sturm-coverage").detail == (
        "nMax=68 covers Sturm bound 68"
    )


@pytest.mark.parametrize("level,bound", [(55, 162), (65, 224), (77, 304)])
def test_composite_level_passes_at_its_sturm_bound(level, bound):
    # the paper's new case: squarefree composite N, run as far as its Sturm bound
    assert sturm_bound(level) == bound
    report = run_verification(level, bound)
    assert named_check(report, "sturm-coverage").passed
    assert report.all_passed, [c.name for c in report.checks if not c.passed]


def valid_levels(upto):
    return [n for n in range(1, upto + 1) if n % 2 and n % 3 and is_squarefree(n)]


def test_main_term_at_one_vanishes_above_23():
    # at n = 1 the partition argument is (24N - N^2 + d^2) / (24 d^2); a proper
    # divisor d of N has d <= N/5 (N is prime to 6), which makes it negative for
    # N > 25, and at d = N it is 1/N, not an integer: so b(1) = cphi(1) there
    for level in valid_levels(1000):
        if level >= 25:
            assert main_term(level, 1) == 0, level


@pytest.mark.parametrize("level", valid_levels(35))
def test_b1_value_reported_only_at_table_levels(level):
    names = [c.name for c in run_verification(level, 2).checks]
    assert ("b1-value" in names) == (level in B1_TABLE)


def _plus(coeff, power):
    # the series function f with coeff * q^power added to its value
    return lambda f: lambda *key: f(*key) + monomial(coeff, power, key[-1])


def _replace(series):
    # the series function replaced by series(nMax), whatever its level
    return lambda f: lambda level, n_max: series(n_max)


def _double_top(f):
    return lambda level, n_max: f(level, n_max) + monomial(
        f(level, n_max).coefficient(n_max), n_max, n_max)


# one mutation per reported check: (level, nMax, name in cphi.verify, wrapper)
CHECK_MUTATIONS = {
    "residual-constant-term": (13, 60, "residual_series", _plus(1, 0)),
    "residual-vanishes": (5, 60, "residual_series", _plus(1, 3)),
    "residual-nonzero": (13, 60, "residual_series", _replace(QSeries.zero)),
    "cwy13-eta-series": (13, 60, "eta13_series", _plus(1, 5)),
    "b1-value": (17, 60, "correction_series", _plus(1, 1)),
    "cphi1-square": (5, 60, "cphi_series", _plus(1, 1)),
    "sturm-coverage": (13, 60, "sturm_bound", lambda f: lambda level: f(level) + 60),
    "nonvanishing-scan": (13, 60, "correction_series", _replace(lambda n: monomial(1, 1, n))),
    "asymptotic-trend": (13, 60, "cphi_series", _double_top),
    "asymptotic-tolerance": (13, 60, "cphi_series", _double_top),
}


@pytest.fixture
def fresh_series_caches():
    # a mutated series must not stay cached for later tests
    clear_series_caches()
    yield
    clear_series_caches()


@pytest.mark.parametrize("name", sorted(CHECK_MUTATIONS))
def test_every_check_can_fail(monkeypatch, fresh_series_caches, name):
    level, n_max, target, wrap = CHECK_MUTATIONS[name]
    assert named_check(run_verification(level, n_max), name).passed
    monkeypatch.setattr(cphi.verify, target, wrap(getattr(cphi.verify, target)))
    report = run_verification(level, n_max)
    assert not named_check(report, name).passed
    assert not report.all_passed
    assert report.to_text().endswith("  overall: FAIL")


def test_every_reported_check_has_a_mutation():
    names = {
        c.name
        for level, n_max in ((1, 30), (5, 60), (13, 60), (35, 68))
        for c in run_verification(level, n_max).checks
    }
    assert names == set(CHECK_MUTATIONS)
