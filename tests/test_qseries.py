import json
import random
from fractions import Fraction

import pytest

import cphi.qseries
from cphi.arith import divisors
from cphi.qseries import (
    LEVELS_HELD,
    EtaChain,
    QSeries,
    _convolve,
    cube_stage,
    cube_terms,
    eta_power,
    euler_coefficients,
    held,
    pentagonal_stage,
    pentagonal_terms,
    times_eta_power,
)
from cphi.theta import theta_series
from cphi.verify import main_term_series
from oracles import (
    convolve_schoolbook,
    crop,
    cube_pass,
    eta_pass,
    pentagonal_lists,
    eta_power_miller,
    euler_coefficients_product,
    euler_product,
    from_coefficients,
    from_json_dict,
    monomial,
    partitions_brute,
    rescale,
    times_eta_power_pentagonal,
    u_operator,
)


def random_series(rng, trunc, rational=False):
    coeffs = []
    for _ in range(trunc + 1):
        if rational and rng.random() < 0.3:
            coeffs.append(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        else:
            coeffs.append(rng.randint(-9, 9))
    return QSeries(0, coeffs, trunc)


def random_coefficients(rng, length, kind):
    """Signed ints of up to ~100 digits, Fractions, or a mix, with zero runs."""
    out = []
    for _ in range(length):
        r = rng.random()
        if r < 0.25:
            out.append(0)
        elif kind == "fraction" or (kind == "mixed" and r < 0.6):
            out.append(Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**6)))
        else:
            out.append(rng.randint(-10**rng.randint(0, 100), 10**rng.randint(0, 100)))
    zeros = [0] * rng.randint(0, 3)
    shape = rng.choice(("plain", "leading", "trailing", "both"))
    if shape in ("leading", "both"):
        out = zeros + out
    if shape in ("trailing", "both"):
        out = out + zeros
    return out


def test_convolve_matches_schoolbook_random():
    rng = random.Random(31)
    kinds = ("int", "fraction", "mixed")
    for trial in range(600):
        kind_a, kind_b = rng.choice(kinds), rng.choice(kinds)
        a = random_coefficients(rng, rng.randint(0, 14), kind_a)
        b = random_coefficients(rng, rng.randint(0, 14), kind_b)
        # shorter than both operands, in between, and past len a + len b - 1
        out_len = rng.randint(1, len(a) + len(b) + 3)
        assert _convolve(a, b, out_len) == convolve_schoolbook(a, b, out_len), trial


def test_convolve_edge_operands():
    big = 10**100 - 1
    cases = [
        ([0, 0, 0, 5], [1, 2], 3),  # a is all zero once truncated
        ([0, 0, 0], [-big, big], 4),  # an all-zero operand
        ([], [1, 2, 3], 2),  # an empty operand
        ([-1], [-1], 1),
        ([big, -big, 0, 0, big], [-big, 0, big], 12),  # out_len past the full length
        ([Fraction(1, 3), 0, Fraction(-2, 7)], [0, Fraction(5, 6)], 6),
        ([Fraction(4, 2), 6], [Fraction(3, 9), 1], 3),  # integral Fractions
        ([1, -1] * 40, [1] * 100, 60),  # both operands longer than out_len
    ]
    for a, b, out_len in cases:
        assert _convolve(a, b, out_len) == convolve_schoolbook(a, b, out_len), (a, b)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("j", range(2, 10))
def test_convolve_worst_case_lane(j, sign):
    # m = 2**j - 1 coefficients, all at +-max, give |c_{m-1}| = m * max**2, the
    # largest a product of these lengths and sizes can reach: every output
    # coefficient is a sum at the extreme magnitude, in both signs, for
    # operands of 3 to 511 terms
    top = 2**330 - 1
    m = 2**j - 1
    got = _convolve([top] * m, [sign * top] * m, 2 * m - 1)
    assert got[m - 1] == sign * m * top * top
    assert got == [sign * min(i + 1, 2 * m - 1 - i) * top * top for i in range(2 * m - 1)]


def test_convolve_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coefficient = st.one_of(
        st.integers(-(10**100), 10**100),
        st.fractions(max_denominator=10**6),
        st.just(0),
    )

    @hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @hypothesis.given(
        st.lists(coefficient, max_size=16),
        st.lists(coefficient, max_size=16),
        st.integers(1, 40),
    )
    def check(a, b, out_len):
        assert _convolve(a, b, out_len) == convolve_schoolbook(a, b, out_len)

    check()


@pytest.mark.parametrize("level, n_max", [(5, 1600), (13, 600), (35, 200)])
def test_workload_products_match_schoolbook(level, n_max):
    theta = theta_series(level, n_max)
    main = main_term_series(level, n_max)
    for x, y in ((theta, eta_power(-level, n_max)), (eta_power(level, n_max), main)):
        product = x * y
        assert product.trunc == n_max
        assert product.coefficients() == convolve_schoolbook(
            list(x.coeffs), list(y.coeffs), n_max + 1
        )


def test_telescoping_product():
    one_minus_q = from_coefficients([1, -1], trunc=10)
    geometric = QSeries(0, [1] * 11, 10)
    assert one_minus_q * geometric == QSeries.one(10)


def test_pow_square():
    s = from_coefficients([1, 1], trunc=2)
    assert s.pow(2) == from_coefficients([1, 2, 1], trunc=2)
    assert s.pow(0) == QSeries.one(2)


def test_euler_product_small():
    assert euler_product(7).coefficients() == [1, -1, -1, 0, 0, 1, 0, 1]
    assert euler_product(0) == QSeries.one(0)
    assert euler_product(15).coefficient(12) == -1


def test_euler_pentagonal_scan():
    coeffs = euler_coefficients(2000)
    assert all(c in (-1, 0, 1) for c in coeffs)
    # nonzero exactly at generalized pentagonal numbers
    pentagonal = set()
    k = 1
    while k * (3 * k - 1) // 2 <= 2000:
        pentagonal.add(k * (3 * k - 1) // 2)
        pentagonal.add(k * (3 * k + 1) // 2)
        k += 1
    pentagonal.add(0)
    assert {n for n, c in enumerate(coeffs) if c} == {
        n for n in pentagonal if n <= 2000
    }
    assert list(coeffs) == euler_coefficients_product(2000)


@pytest.mark.parametrize("k", [-35, -13, -5, -2, -1, 0, 1, 2, 5, 13, 35])
def test_eta_power_matches_pow_and_inverse(k):
    for n in (0, 1, 2, 24, 97, 300):
        base = QSeries(0, euler_coefficients_product(n), n)
        expected = base.pow(k) if k >= 0 else base.inverse().pow(-k)
        got = eta_power(k, n)
        assert got == expected == eta_power_miller(k, n)
        assert all(type(c) is int for c in got.coeffs)
    if k in (-13, -5, -1, 5, 13):
        assert eta_power(k, 2000) == eta_power_miller(k, 2000)


def test_times_eta_power_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coefficient = st.one_of(
        st.integers(-(10**30), 10**30), st.fractions(max_denominator=10**6), st.just(0)
    )

    @st.composite
    def series(draw):
        trunc = draw(st.integers(0, 60))
        valuation = draw(st.integers(0, min(3, trunc)))
        size = trunc - valuation + 1
        return QSeries(valuation, draw(st.lists(coefficient, min_size=size, max_size=size)), trunc)

    @hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @hypothesis.given(series(), st.integers(-6, 6))
    def check(s, k):
        assert times_eta_power(s, k) == crop(s * eta_power_miller(k, s.trunc), s.trunc)
        assert times_eta_power(times_eta_power(s, k), -k) == s

    check()


def residue_class_cases():
    """Series at nonzero valuation, trunc not a multiple of d, trunc + 1 < d, and zero."""
    rng = random.Random(11)
    for trunc, valuation in ((0, 0), (1, 0), (1, 1), (4, 2), (12, 0), (29, 3), (61, 7)):
        coeffs = [rng.randint(-9, 9) for _ in range(trunc - valuation + 1)]
        coeffs[0] = coeffs[0] or 1
        yield QSeries(valuation, coeffs, trunc)
    yield QSeries(0, [Fraction(1, 3), 0, 0, 0, 0, 0, Fraction(-5, 2)], 6)
    yield QSeries.zero(0)
    yield QSeries.zero(17)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 13])
def test_times_eta_power_residue_classes(d):
    # (q^d;q^d)^k as Miller's (q;q)^k with q -> q**d, and one series product
    # |k| <= 7: zero, one or two cube passes, each with 0, 1 or 2 pentagonal ones
    for s in residue_class_cases():
        for k in range(-7, 8):
            n = s.trunc
            expected = crop(s * rescale(eta_power_miller(k, n // d), d), n)
            got = times_eta_power(s, k, d)
            assert got.trunc == n and got == expected, (s, k, d)


def test_cube_terms_match_miller():
    # Jacobi's identity against Miller's recurrence for (q;q)**3, at every truncation
    cube = eta_power_miller(3, 2000).coeffs
    assert cube[0] == 1
    nonzero = [(j, a) for j, a in enumerate(cube) if j and a]
    for n in range(2001):
        assert cube_terms(n) == [(j, a) for j, a in nonzero if j <= n], n


@pytest.mark.parametrize("level,n", [(1, 300), (5, 300), (7, 200), (11, 200), (13, 200),
                                     (17, 120), (19, 120), (23, 100), (29, 80), (31, 80),
                                     (35, 80), (55, 40), (65, 40), (77, 40)])
def test_times_eta_power_matches_pentagonal_passes_on_theta(level, n):
    theta = theta_series(level, n)
    for d in divisors(level):
        for k in (-level, level):
            assert times_eta_power(theta, k, d) == times_eta_power_pentagonal(theta, k, d), (k, d)


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_times_eta_power_matches_pentagonal_passes_random(kind):
    rng = random.Random(f"eta-{kind}")
    for _ in range(40):
        valuation = rng.randint(0, 4)
        coeffs = random_coefficients(rng, rng.randint(1, 90), kind)
        coeffs[0] = coeffs[0] or 1
        s = QSeries(valuation, coeffs, valuation + len(coeffs) - 1)
        k, d = rng.randint(-14, 14), rng.choice((1, 2, 3, 5, 7, 13))
        assert times_eta_power(s, k, d) == times_eta_power_pentagonal(s, k, d), (s, k, d)


def test_pentagonal_terms_match_the_euler_product():
    for n in range(300):
        euler = euler_coefficients_product(n)
        assert pentagonal_terms(n) == [(j, a) for j, a in enumerate(euler) if j and a], n
        assert list(euler_coefficients(n)) == euler, n


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_stages_match_the_in_place_passes_from_any_start(kind):
    # a stage continued from any start equals the old in-place pass over the whole list
    rng = random.Random(f"stage-{kind}")
    for _ in range(30):
        part = random_coefficients(rng, rng.randint(1, 120), kind)
        n = len(part)
        pentagonal, cubes = pentagonal_terms(n - 1), cube_terms(n - 1)
        for quotient in (False, True):
            k = -1 if quotient else 1
            want_pentagonal, want_cube = list(part), list(part)
            eta_pass(want_pentagonal, *pentagonal_lists(n - 1), k)
            cube_pass(want_cube, cubes, k)
            for start in {0, 1, rng.randint(0, n), n}:
                for stage, terms, want in ((pentagonal_stage, pentagonal, want_pentagonal),
                                           (cube_stage, cubes, want_cube)):
                    got = []
                    stage(part, got, start, terms, quotient)
                    assert got == want[:start], (stage.__name__, quotient, start)
                    stage(part, got, n, terms, quotient)
                    assert got == want, (stage.__name__, quotient, start)


@pytest.mark.parametrize("k", [-14, -13, -3, -2, -1, 0, 1, 2, 4, 13])
def test_eta_chain_extends_to_what_one_pass_gives(k):
    rng = random.Random(f"chain-{k}")
    src = random_coefficients(rng, 200, "mixed")
    want = times_eta_power_pentagonal(QSeries(0, src, len(src) - 1), k).coefficients()
    chain = EtaChain(k)
    for stop in (0, 1, 40, 17, 120, 200, 90):
        got = chain.extend(src[:stop])
        assert len(got) >= stop and got[:stop] == want[:stop], stop


@pytest.mark.parametrize("k", [-13, -2, 1, 2, 5, 13])
def test_eta_chain_continues_a_zero_prefix(monkeypatch, k):
    # a zero source fills every stage with zeros and runs no stage; a longer
    # source that turns nonzero after the zeros continues from there
    rng = random.Random(f"zero-chain-{k}")
    src = [0] * 80 + random_coefficients(rng, 120, "mixed")
    want = times_eta_power_pentagonal(QSeries(0, src, len(src) - 1), k).coefficients()
    chain = EtaChain(k)
    with monkeypatch.context() as patch:
        patch.setattr(cphi.qseries, "cube_stage", None)
        patch.setattr(cphi.qseries, "pentagonal_stage", None)
        for stop in (30, 80, 50):
            assert chain.extend(src[:stop])[:stop] == [0] * stop
        assert all(len(stage) == 80 for stage in chain.stages)
    for stop in (81, 200, 150):
        got = chain.extend(src[:stop])
        assert len(got) >= stop and got[:stop] == want[:stop], stop


def test_held_keeps_one_state_per_kind_for_the_most_recent_levels(monkeypatch):
    # the session workload reads seven levels; the least recently used goes first
    assert LEVELS_HELD >= 7
    stores = {}
    monkeypatch.setattr(cphi.qseries, "_STORES", stores)
    levels = [1, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for level in levels:
        assert held(level, "kind", list) is held(level, "kind", dict)
    assert list(stores) == levels[-LEVELS_HELD:]
    held(levels[-LEVELS_HELD], "other", list)
    assert list(stores) == levels[1 - LEVELS_HELD:] + levels[-LEVELS_HELD:][:1]
    assert all(set(store) == {"kind"} for level, store in stores.items() if level != levels[-LEVELS_HELD])


@pytest.mark.parametrize("d", [1, 5])
@pytest.mark.parametrize("k", [-13, 13, -5, 4, -2, 1])
def test_times_eta_power_pass_counts(monkeypatch, k, d):
    # |k| // 3 cube stages and |k| mod 3 pentagonal stages per nonzero class
    calls = []
    for name in ("cube_stage", "pentagonal_stage"):
        original = getattr(cphi.qseries, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            _original(*args)

        monkeypatch.setattr(cphi.qseries, name, counting)
    # the class of exponents = 3 mod 5 is zero
    s = QSeries(0, [0 if n % 5 == 3 else n + 1 for n in range(41)], 40)
    nonzero_classes = 1 if d == 1 else 4
    got = times_eta_power(s, k, d)
    assert calls.count("cube_stage") == abs(k) // 3 * nonzero_classes
    assert calls.count("pentagonal_stage") == abs(k) % 3 * nonzero_classes
    assert got == times_eta_power_pentagonal(s, k, d)


def test_times_eta_power_rejects_nonpositive_d():
    for d in (0, -1):
        with pytest.raises(ValueError):
            times_eta_power(QSeries.one(5), 1, d)


def test_eta_power_rejects_negative_truncation():
    with pytest.raises(ValueError):
        eta_power(3, -1)


def test_inverse_gives_partition_numbers():
    inv = euler_product(8).inverse()
    expected = [partitions_brute(n) for n in range(8)]
    assert inv.coefficients()[:8] == expected
    assert inv.coefficients() == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_inverse_simple_cases():
    assert from_coefficients([1, -1], trunc=6).inverse() == QSeries(
        0, [1] * 7, 6
    )
    half = QSeries(0, [2, 0, 0, 0, 0], 4).inverse()
    assert half == QSeries(0, [Fraction(1, 2), 0, 0, 0, 0], 4)


def test_inverse_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        from_coefficients([0, 1], trunc=3).inverse()
    with pytest.raises(ValueError):
        monomial(1, 1, 5).inverse()


def test_inverse_of_random_unit_series():
    rng = random.Random(5)
    for _ in range(50):
        s = random_series(rng, 24, rational=True)
        if s.coefficient(0) == 0:
            s = s + QSeries.one(24)
        if s.coefficient(0) == 0:
            continue
        assert crop(s * s.inverse(), 24) == QSeries.one(24)


def test_ring_axioms_random():
    rng = random.Random(17)
    for _ in range(40):
        a = random_series(rng, 64, rational=True)
        b = random_series(rng, 64, rational=True)
        c = random_series(rng, 64)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_u_operator():
    s = from_coefficients([1, 1, 2, 3, 5], trunc=4)
    assert u_operator(s, 2) == from_coefficients([1, 2, 5], trunc=2)
    assert u_operator(s, 1) == s


def test_u_operator_composition():
    rng = random.Random(23)
    for m in range(1, 7):
        for k in range(1, 7):
            s = random_series(rng, 72)
            assert u_operator(u_operator(s, m), k) == u_operator(s, m * k)


def test_u_operator_accepts_shifted_series():
    s = monomial(3, 5, 20)
    u = u_operator(s, 5)
    assert u.coefficient(1) == 3
    assert u.trunc == 4


def test_truncation_tracking_through_mul():
    a = from_coefficients([1, 1, 1], trunc=2)
    b = monomial(1, 3, 8)  # q^3 known through q^8
    prod = a * b
    # guarantee: min(2 + 3, 8 + 0) = 5
    assert prod.trunc == 5
    assert prod.coefficient(5) == 1
    with pytest.raises(ValueError):
        prod.coefficient(6)


def test_rescale_and_shift():
    s = from_coefficients([1, 2], trunc=1)
    r = rescale(s, 3)
    assert r.trunc == 5
    assert r.coefficients() == [1, 0, 0, 2, 0, 0]
    sh = s.shift(2)
    assert sh.coefficients() == [0, 0, 1, 2]


def test_zero_series_canonical():
    z = QSeries(0, [0, 0, 0], 2)
    assert z.is_zero()
    assert z.coeffs == ()
    assert z == QSeries.zero(2)


def test_coefficient_beyond_trunc_raises():
    s = QSeries.one(4)
    with pytest.raises(ValueError):
        s.coefficient(5)


def test_json_round_trip():
    s = QSeries(1, [Fraction(1, 3), 2, Fraction(-7, 2)], 3)
    d = json.loads(json.dumps(s.to_json_dict()))
    assert d["coeffs"][0] == ["1", "3"]
    assert from_json_dict(d) == s
