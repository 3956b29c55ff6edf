from fractions import Fraction

import pytest

import cphi.qseries
from cphi import eta_partition
from cphi.arith import divisors
from cphi.eta_partition import (
    eta_cusp_constant,
    eta_quotient_series,
    main_term,
    multi_partition_series,
    partition_count,
    partition_numbers,
    scaled_partition_term,
)
from cphi.qseries import QSeries, eta_power
from cphi.radicals import QuarterRadical
from cphi.verify import main_term_series
from lemmas import cusp_vanishing_order
from oracles import (
    crop,
    eta_power_miller,
    eta_quotient_by_product,
    euler_product,
    multi_partition_sigma_route,
    partitions_brute,
    prefix_exponent,
    rescale,
    scaled_partition_term_fraction,
    u_operator,
)


def test_spec_prefix_exponents(monkeypatch):
    # the series starts at its prefix, or is zero through a shorter nMax
    assert eta_quotient_series(5, 5, 3).order() == 0
    assert eta_quotient_series(5, 1, 3).order() == 1
    assert eta_quotient_series(35, 5, 12).order() == 10
    assert eta_quotient_series(35, 5, 9).is_zero()
    assert eta_quotient_series(35, 1, 50) == QSeries(0, (), 50)
    for level, d, message in ((5, 2, "^d=2 does not divide N=5$"), (6, 1, "^N=6: must be coprime to 6$")):
        with pytest.raises(ValueError, match=message):
            eta_quotient_series(level, d, 3)
    # N coprime to 6 makes the prefix integral (N = dm: it is d(m^2 - 1)/24, and
    # 24 | m^2 - 1), so only a level that skips validation reaches the refusal
    monkeypatch.setattr(eta_partition, "validate_level", lambda level: None)
    with pytest.raises(ValueError, match=r"^\(N\^2-d\^2\)/\(24d\) is not an integer for N=2, d=1$"):
        eta_quotient_series(2, 1, 3)


def test_eta_quotient_small_cases():
    # d = N: (q;q)^N / (q^N;q^N), constant term 1
    s = eta_quotient_series(5, 5, 30)
    expected = crop(euler_product(30).pow(5) * rescale(euler_product(6).inverse(), 5), 30)
    assert s == expected
    assert s.coefficient(0) == 1
    # d = 1: prefix q, numerator (q^5;q^5)^5, denominator (q;q)
    s = eta_quotient_series(5, 1, 30)
    assert s.order() == 1
    expected = crop(rescale(euler_product(5).pow(5), 5) * euler_product(29).inverse(), 29).shift(1)
    assert s == expected


def test_eta_quotient_identity_at_d_equals_level():
    # (q;q)^N/(q^N;q^N) = (q;q)^N * sum P(m) q^(N m)
    for level in (5, 7):
        lhs = eta_quotient_series(level, level, 40)
        partition_side = QSeries(
            0,
            [partition_count(Fraction(n, level)) for n in range(41)],
            40,
        )
        rhs = crop(euler_product(40).pow(level) * partition_side, 40)
        assert lhs == rhs, level


@pytest.mark.parametrize("level", [1, 5, 7, 11, 13, 35, 55, 65, 77])
def test_eta_quotient_matches_product_route(level):
    # n_max = prefix - 1 is the zero series; below prefix + d - 1 some residue
    # classes mod d are empty
    for d in divisors(level):
        prefix = prefix_exponent(level, d)
        for n_max in [*range(max(prefix - 1, 0), prefix + d + 3), 300]:
            expected = eta_quotient_by_product(level, d, n_max)
            assert eta_quotient_series(level, d, n_max) == expected, (level, d, n_max)


def test_leading_power_equals_prefix():
    for level in (5, 7, 13, 35):
        for d in divisors(level):
            prefix = prefix_exponent(level, d)
            assert eta_quotient_series(level, d, prefix + 12).order() == prefix, (level, d)


def test_u_operator_on_eta_quotient_gives_partition_series():
    # U(N/d) | eta quotient = (q;q)^N sum_n P(N n/d^2 - (N^2-d^2)/(24 d^2)) q^n
    n_check = 100
    for level in (5, 7, 13):
        for d in divisors(level):
            m = level // d
            eta = eta_quotient_series(level, d, n_check * m)
            lhs = u_operator(eta, m)
            partition_side = QSeries(
                0,
                [
                    scaled_partition_term(level, d, n) // (level // d)
                    for n in range(n_check + 1)
                ],
                n_check,
            )
            rhs = crop(euler_product(n_check).pow(level) * partition_side, n_check)
            assert lhs == rhs, (level, d)


def test_vanishing_orders():
    assert cusp_vanishing_order(35, 5, 7) == 51
    assert cusp_vanishing_order(5, 1, 5) == 1
    for level in (5, 7, 11, 13, 35, 55, 77):
        for d in divisors(level):
            for c in divisors(level):
                order = cusp_vanishing_order(level, d, c)
                if c == d:
                    assert order == 0
                else:
                    assert order > 0
    with pytest.raises(ValueError):
        cusp_vanishing_order(5, 1, 3)


def test_eta_cusp_constants():
    assert eta_cusp_constant(5, 5) == QuarterRadical.one()
    assert eta_cusp_constant(5, 1) == QuarterRadical(Fraction(-1, 125), 0, 5)
    # nonzero at its own cusp 1/d (it vanishes at the others: test_vanishing_orders)
    for level in (5, 7, 35):
        for d in divisors(level):
            assert eta_cusp_constant(level, d) != QuarterRadical(0), (level, d)


def test_partition_convention():
    assert partition_count(4) == 5
    assert partition_count(Fraction(1, 5)) == 0
    assert partition_count(-3) == 0
    assert partition_count(Fraction(-10, 5)) == 0
    assert partition_count(6) == 11
    assert partition_count(Fraction(30, 5)) == 11


def test_partition_against_enumeration():
    for n in range(31):
        assert partition_count(n) == partitions_brute(n), n


def test_partition_table_grows_to_explicit_request(monkeypatch):
    monkeypatch.setattr(eta_partition, "_partition_table", [1])
    monkeypatch.setattr(cphi.qseries, "_STORES", {})  # no main term held yet
    # the verify chain at N=13: main_term_series sizes the table to 13 * nMax
    for n_max in (100, 200, 400, 600):
        main_term_series.__wrapped__(13, n_max)
        assert len(eta_partition._partition_table) == 13 * n_max + 1


def test_partition_lookups_rebuild_logarithmically(monkeypatch):
    # each extension continues the quotient stage where the table ended, so
    # every P(n) is computed once, and increasing lookups extend O(log n) times
    passes, stage = [], eta_partition.pentagonal_stage

    def recording_stage(src, out, stop, terms, quotient):
        passes.append((len(out), stop))
        stage(src, out, stop, terms, quotient)

    monkeypatch.setattr(eta_partition, "_partition_table", [1])
    monkeypatch.setattr(eta_partition, "pentagonal_stage", recording_stage)
    for n in range(1, 1601):
        assert partition_count(5 * n - 1) == eta_partition._partition_table[5 * n - 1]
    table = eta_partition._partition_table
    ends = [end for _, end in passes]
    assert [start for start, _ in passes] == [1] + ends[:-1]
    assert ends[-1] == len(table)
    assert len(passes) <= (5 * 1600).bit_length() + 1
    assert all(later >= 2 * earlier for earlier, later in zip(ends, ends[1:]))
    assert table == list(eta_power(-1, len(table) - 1).coeffs)
    assert table[:601] == list(eta_power_miller(-1, 600).coeffs)
    assert partition_numbers(30) == [partitions_brute(n) for n in range(31)]


def test_partition_table_extends_by_one_pentagonal_pass(monkeypatch):
    # the table stays on the add-only stage: one pentagonal stage per extension, no cube stage
    calls = []
    monkeypatch.setattr(eta_partition, "_partition_table", [1])
    monkeypatch.setattr(eta_partition, "pentagonal_stage", lambda *args: calls.append(
        "pentagonal_stage") or cphi.qseries.pentagonal_stage(*args))
    monkeypatch.setattr(cphi.qseries, "cube_stage", lambda *args: calls.append("cube_stage"))
    for n_max, extensions in ((100, 1), (60, 1), (100, 1), (450, 2), (2000, 3)):
        partition_numbers(n_max)
        assert calls == ["pentagonal_stage"] * extensions, n_max
    assert partition_numbers(2000) == list(eta_power_miller(-1, 2000).coeffs)


def test_scaled_partition_terms():
    assert scaled_partition_term(5, 1, 1) == 25
    assert scaled_partition_term(13, 13, 26) == 2  # P(2)
    assert scaled_partition_term(35, 5, 1) == 0  # non-integral argument
    assert main_term(13, 1) == 143


def test_scaled_partition_term_matches_fraction_formula():
    # small n make the argument negative for every d < N (n = 0 for N = 5,
    # d = 1 gives 5n - 1), and d > 1 makes it non-integral for most n
    for level in (1, 5, 7, 11, 13, 35):
        for d in divisors(level):
            for n in range(-2, 301):
                expected = scaled_partition_term_fraction(level, d, n)
                assert scaled_partition_term(level, d, n) == expected, (level, d, n)


def test_multi_partition_series():
    v1 = multi_partition_series(1, 20)
    assert v1.coefficients() == [partition_count(n) for n in range(21)]
    assert multi_partition_series(2, 2).coefficient(2) == 5
    v0 = multi_partition_series(0, 10)
    assert v0 == QSeries.one(10)


def test_multi_partition_trend_window():
    v13 = multi_partition_series(13, 400).coefficients()
    v12 = multi_partition_series(12, 400).coefficients()
    ratios = [Fraction(v13[n], v13[n - 1]) for n in range(100, 401)]
    assert all(r > 1 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert Fraction(v12[400], v13[400]) < Fraction(5, 100)


def test_multi_partition_ratio_ceiling_as_specified():
    # V_13(n)/V_13(n-1) stays above 6/5 on [100, 400] and first drops below
    # it at n = 601
    v13 = multi_partition_series(13, 601).coefficients()
    assert v13 == multi_partition_sigma_route(13, 601)
    ceiling = Fraction(6, 5)
    ratios = [Fraction(v13[n], v13[n - 1]) for n in range(100, 401)]
    assert all(r > ceiling for r in ratios)
    assert Fraction(v13[600], v13[599]) > ceiling > Fraction(v13[601], v13[600])
