"""Parameter validation, series coefficients, and handle reduction."""
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from moebius import (
    MonoidParams,
    ParseError,
    PreconditionError,
    ResourceGuardError,
    handle_reduce_monoid,
    monoid_params_of,
    params_from_json,
    series_coeff,
    validate_params,
)
from moebius.params import (
    format_rational,
    monomial_q,
    parse_rational,
    poly_trim,
)

from conftest import random_paramsets


def test_validate_basic_geometric():
    ps = validate_params([2], [1], [1], [1, -1])
    assert (ps.N, ps.M_deg, ps.K) == (0, 1, 1)
    assert ps.handle_coeffs == (Fraction(1),)


def test_validate_root_of_unity():
    ps = validate_params([1], [], [], [1, 0, 0, 0, 0, -1])
    assert ps.K == 5
    # handle rewrite is h^5 -> h^0
    assert ps.handle_coeffs == (0, 0, 0, 0, 1)


def test_validate_rejects_beta_degree():
    with pytest.raises(PreconditionError):
        validate_params([1], [0, 1], [], [1, -1])


def test_validate_rejects_bad_q0():
    with pytest.raises(PreconditionError):
        validate_params([1], [], [], [2, -1])


def test_validate_rejects_zero_alpha_by_default():
    with pytest.raises(PreconditionError):
        validate_params([], [1], [1], [1, -1])
    ps = validate_params([], [], [], [1, -1], allow_zero_alpha=True)
    assert ps.K == 1


def test_series_geometric():
    ps = validate_params([2], [1], [1], [1, -1])
    assert [series_coeff(ps, "alpha", k) for k in range(11)] == [2] * 11


def test_series_one_over_one_minus_t_cubed():
    ps = validate_params([1], [], [], [1, 0, 0, -1])
    got = [series_coeff(ps, "alpha", k) for k in range(7)]
    assert got == [1, 0, 0, 1, 0, 0, 1]


def test_series_k0_is_numerator_at_zero():
    ps = validate_params([5, 3], [2], [7], [1, -1, 4])
    assert series_coeff(ps, "alpha", 0) == 5
    assert series_coeff(ps, "beta", 0) == 2
    assert series_coeff(ps, "gamma", 0) == 7


def test_series_recurrence_beyond_K():
    rng = random.Random(11)
    for ps in random_paramsets(rng, 8, max_K=4):
        for kind in ("alpha", "beta", "gamma"):
            for k in range(ps.K, ps.K + 6):
                expected = sum(
                    (-1) ** (i + 1) * ps.handle_coeffs[i - 1] * series_coeff(ps, kind, k - i)
                    for i in range(1, ps.M_deg + 1)
                )
                assert series_coeff(ps, kind, k) == expected


def test_series_times_q_recovers_numerator():
    # independent check: q(T) * (computed series) == p(T) up to high order
    rng = random.Random(5)
    for ps in random_paramsets(rng, 6, max_K=3):
        for kind in ("alpha", "beta", "gamma"):
            p = ps.numerator(kind)
            upto = ps.K + 6
            for k in range(upto):
                conv = sum(
                    (ps.q[i] if i < len(ps.q) else 0) * series_coeff(ps, kind, k - i)
                    for i in range(0, min(k, len(ps.q) - 1) + 1)
                )
                want = p[k] if k < len(p) else Fraction(0)
                assert conv == want


def test_series_cache_independence():
    ps1 = validate_params([1, 2], [1], [1], [1, -1, -1])
    direct = series_coeff(ps1, "alpha", 10)
    ps2 = validate_params([1, 2], [1], [1], [1, -1, -1])
    for k in range(11):
        series_coeff(ps2, "alpha", k)
    assert series_coeff(ps2, "alpha", 10) == direct


def test_series_cache_thread_smoke():
    ps = validate_params([1, 1], [1], [1], [1, 0, -1])
    want = [series_coeff(validate_params([1, 1], [1], [1], [1, 0, -1]), "alpha", k) for k in range(40)]
    results = {}

    def worker(ks):
        for k in ks:
            results[k] = series_coeff(ps, "alpha", k)

    ks = list(range(40))
    threads = [threading.Thread(target=worker, args=(ks[i::4],)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert [results[k] for k in range(40)] == want


def test_series_guard_charges_the_terms_the_cache_lacks():
    ps = validate_params([1], [1], [1], [1, -1])
    with pytest.raises(ResourceGuardError, match="series terms to form is 100001, over"):
        series_coeff(ps, "alpha", 100_000)
    assert ps._cache["alpha"] == []  # refused before the first term
    assert series_coeff(ps, "alpha", 99_999) == 1
    assert series_coeff(ps, "alpha", 100_000) == 1  # one more term


def test_paramset_is_a_value():
    a = validate_params([1, 2], [1], [1], [1, -1, -1])
    b = validate_params([1, 2], [1], [1], [1, -1, -1])
    series_coeff(a, "alpha", 5)  # a filled cache takes no part in equality
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != validate_params([1, 2], [1], [1], [1, -1])
    with pytest.raises(AttributeError):
        a.K = 3


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=5))
def test_handle_reduce_properties(h, half_r, extra):
    r = 2 * half_r - 1
    K = r + extra
    mp = MonoidParams(K, r)
    out = handle_reduce_monoid(h, mp)
    assert 0 <= out < K
    assert out % r == h % r
    if h >= K - r:
        assert out >= K - r


def test_handle_reduce_examples():
    assert handle_reduce_monoid(5, MonoidParams(5, 5)) == 0
    assert handle_reduce_monoid(7, MonoidParams(4, 3)) == 1
    assert handle_reduce_monoid(2, MonoidParams(4, 3)) == 2
    with pytest.raises(PreconditionError):
        handle_reduce_monoid(-1, MonoidParams(4, 3))


def _handle_reduce_oracle(h: int, mp: MonoidParams) -> int:
    """Apply a^K = a^(K-r) one step at a time."""
    while h >= mp.K:
        h -= mp.r
    return h


def test_handle_reduce_matches_the_stepwise_oracle():
    for K in range(1, 41):
        for r in range(1, K + 1, 2):
            mp = MonoidParams(K, r)
            for h in range(4 * K + 5):
                assert handle_reduce_monoid(h, mp) == _handle_reduce_oracle(h, mp), (K, r, h)


def test_monoid_params_validation():
    with pytest.raises(PreconditionError):
        MonoidParams(4, 2)  # even r
    with pytest.raises(PreconditionError):
        MonoidParams(2, 3)  # K < r
    assert MonoidParams(3, 3).degenerate
    assert not MonoidParams(4, 3).degenerate


def test_monoid_params_of():
    ps = validate_params([1], [], [], [1, 0, 0, -1])
    mp = monoid_params_of(ps)
    assert (mp.K, mp.r) == (3, 3)
    with pytest.raises(PreconditionError):
        monoid_params_of(validate_params([1], [1], [1], [1, -1, -1]))


def test_monomial_q():
    assert monomial_q(1) == poly_trim([1, -1])
    assert monomial_q(3) == poly_trim([1, 0, 0, -1])


def test_parse_rational():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational("-4") == Fraction(-4)
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    with pytest.raises(ParseError):
        parse_rational("1.5")
    with pytest.raises(ParseError):
        parse_rational("1/0")


def test_format_rational_refuses_a_part_str_cannot_print():
    # str() raises ValueError past 4,300 digits; 2^14,000 has 4,215
    assert format_rational(Fraction(2**13_999, 3)) == f"{2**13_999}/3"
    assert format_rational(Fraction(-1, 2**13_999)) == f"-1/{2**13_999}"
    for x in (Fraction(2**14_000), Fraction(-(2**14_000)), Fraction(1, 2**14_000)):
        with pytest.raises(ResourceGuardError, match="printed rational is 14001, over"):
            format_rational(x)


def test_params_from_json():
    ps = params_from_json('{"p_alpha":["2"],"p_beta":["1"],"p_gamma":["1"],"q":["1","-1"]}')
    assert ps.K == 1 and series_coeff(ps, "alpha", 3) == 2
    with pytest.raises(ParseError):
        params_from_json('{"p_alpha":["2"]}')
    with pytest.raises(ParseError):
        params_from_json("not json")


@pytest.mark.parametrize("p_alpha", ['"12"', '"1"', '1', '[1]', '{"0": "1"}', 'null'])
def test_params_from_json_needs_arrays_of_strings(p_alpha):
    # a string is iterable, so "12" once read as the array ["1", "2"]
    text = f'{{"p_alpha":{p_alpha},"p_beta":[],"p_gamma":[],"q":["1","-1"]}}'
    with pytest.raises(ParseError, match="entries must be arrays of rational strings"):
        params_from_json(text)
