"""Counting formulas, with brute-force oracles for partitions and
finite-field factor counts."""
import itertools
from functools import lru_cache
from math import comb

import pytest
from fractions import Fraction

from moebius import repcount

from moebius import (
    CHAR0_ALG_CLOSED,
    RATIONALS,
    Family,
    PreconditionError,
    ResourceGuardError,
    checked_dims,
    count_simples,
    count_types,
    deligne_parameters,
    dim_left_cell,
    dims_table,
    m_of_k,
    n_irreducible_factors,
    partition_count,
    prime_field,
    s_value,
)
from moebius.families import admissible_lambdas, check_lambda


# ---------------------------------------------------------------------------
# partition numbers
# ---------------------------------------------------------------------------


def _partitions_into_parts(n: int, max_part: int) -> int:
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    return sum(_partitions_into_parts(n - k, k) for k in range(min(n, max_part), 0, -1))


def test_partition_count_against_enumeration():
    for n in range(21):
        assert partition_count(n) == _partitions_into_parts(n, n)


def test_partition_count_examples():
    assert partition_count(0) == 1
    assert partition_count(2) == 2
    assert partition_count(5) == 7


# ---------------------------------------------------------------------------
# N(k) over various fields
# ---------------------------------------------------------------------------


def _fp_poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _fp_poly_divmod(a, b, p):
    a = a[:]
    deg_b = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    quo = [0] * max(1, len(a) - deg_b)
    while len(a) - 1 >= deg_b and any(a):
        shift = len(a) - 1 - deg_b
        coef = a[-1] * inv_lead % p
        quo[shift] = coef
        for i, x in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * x) % p
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return quo, a


def _count_irreducible_factors_oracle(m: int, p: int) -> int:
    """Trial division of x^m - 1 by monic polynomials in degree order;
    a minimal-degree monic divisor is automatically irreducible."""
    poly = [(-1) % p] + [0] * (m - 1) + [1]
    factors = 0
    deg = 1
    while len(poly) - 1 > 0:
        if deg > (len(poly) - 1) // 2:
            factors += 1  # remainder is irreducible
            break
        for tail in itertools.product(range(p), repeat=deg):
            candidate = list(tail) + [1]
            while True:
                quo, rem = _fp_poly_divmod(poly, candidate, p)
                if any(rem):
                    break
                poly = quo if any(quo) else [1]
                factors += 1
            if len(poly) - 1 < deg:
                break
        deg += 1
    return factors


def test_m_of_k():
    assert m_of_k(RATIONALS, 6) == 6
    assert m_of_k(prime_field(2), 12) == 3
    assert m_of_k(prime_field(3), 5) == 5


def test_n_irreducible_factors_examples():
    assert n_irreducible_factors(RATIONALS, 6) == 4
    assert n_irreducible_factors(prime_field(2), 3) == 2
    assert n_irreducible_factors(CHAR0_ALG_CLOSED, 5) == 5


def test_n_irreducible_factors_against_fp_oracle():
    for p in (2, 3, 5):
        field = prime_field(p)
        for k in range(1, 13):
            m = m_of_k(field, k)
            assert n_irreducible_factors(field, k) == _count_irreducible_factors_oracle(m, p), (p, k)


def test_s_value():
    assert s_value(CHAR0_ALG_CLOSED, 3) == 10
    assert s_value(RATIONALS, 1) == 4
    assert s_value(prime_field(2), 3) == 5
    for r in (1, 3, 5, 7, 9):
        assert s_value(CHAR0_ALG_CLOSED, r) == 1 + 3 * r
    with pytest.raises(PreconditionError):
        s_value(RATIONALS, 2)


def test_trial_division_guard_trips_before_any_loop(monkeypatch):
    # the primality guard reads its cost off isqrt(p), so it refuses even
    # a p that the first trial division would settle
    with pytest.raises(ResourceGuardError, match="primality"):
        prime_field(10**18 + 2)
    for name in ("_divisors", "_euler_phi", "_mult_order"):
        monkeypatch.setattr(repcount, name, _refuse)
    for field, k in ((RATIONALS, 2 * (10**18 + 1)), (prime_field(2), 12_500_001)):
        with pytest.raises(ResourceGuardError, match="x\\^m - 1"):
            n_irreducible_factors(field, k)


def test_trial_division_guard_admits_its_largest_known_inputs():
    # isqrt(2 * 10^12 + 2) steps over Q; 2m + isqrt(m) over F_2 for
    # m = 9,999,999, whose factor count takes far fewer
    assert s_value(RATIONALS, 10**12 + 1) == 25
    assert s_value(prime_field(2), 9_999_999) == 319
    assert n_irreducible_factors(prime_field(2), 12_498_001) > 0  # bounded by 24,999,537


def _refuse(*args):
    raise AssertionError("a loop started before its guard")


def test_prime_field_validation():
    with pytest.raises(PreconditionError):
        prime_field(6)


# ---------------------------------------------------------------------------
# simple-module counts
# ---------------------------------------------------------------------------


def test_count_simples_planar():
    out = count_simples(Family.MOTZKIN, 4, 2, CHAR0_ALG_CLOSED, 1)  # s = 4
    assert (out.count, out.exact) == (16, True)


def test_count_simples_nonplanar():
    out = count_simples(Family.ROOK, 4, 2, CHAR0_ALG_CLOSED, 1)
    # 4 tuples with a 2 plus 6 tuples with two 1s
    assert (out.count, out.exact) == (4 * 2 + 6, True)
    assert count_simples(Family.ROOK, 4, 2, RATIONALS, 1).exact is False


def test_count_simples_lambda_zero_and_errors():
    assert count_simples(Family.ROOK, 3, 0, CHAR0_ALG_CLOSED, 1).count == 1
    assert count_simples(Family.MOTZKIN, 3, 0, RATIONALS, 3).count == 1
    with pytest.raises(PreconditionError):
        count_simples(Family.TEMPERLEY_LIEB, 3, 2, CHAR0_ALG_CLOSED, 1)


def test_count_simples_matches_count_types():
    for r in (1, 3):
        s = s_value(CHAR0_ALG_CLOSED, r)
        for lam in range(4):
            out = count_simples(Family.PARTITION, 4, lam, CHAR0_ALG_CLOSED, r)
            assert out.count == count_types(lam, s)


def test_count_simples_refuses_an_unprintable_power_or_a_long_sum(monkeypatch):
    from moebius import repcount

    class Summing(Exception):
        pass

    def summing(*args):
        raise Summing

    # s = 4: the partition sum at lambda = 2,000 takes 16 million products
    # and at 20,000 takes 1.6 billion; 4^7000 has 14,000 bits
    monkeypatch.setattr(repcount, "_partition_counts", summing)
    with pytest.raises(Summing):
        count_simples(Family.PARTITION, 2000, 2000, CHAR0_ALG_CLOSED, 1)
    for fam in (Family.PLANAR_PARTITION, Family.PARTITION):
        with pytest.raises(ResourceGuardError):
            count_simples(fam, 20000, 20000, CHAR0_ALG_CLOSED, 1)
    assert count_simples(Family.PLANAR_PARTITION, 7000, 7000, CHAR0_ALG_CLOSED, 1).count == 4**7000


# ---------------------------------------------------------------------------
# left-cell dimensions
# ---------------------------------------------------------------------------


def test_dim_left_cell_examples():
    assert dim_left_cell(Family.TEMPERLEY_LIEB, 3, 1, 2) == 12
    assert dim_left_cell(Family.ROOK, 1, 0, 1) == 3
    assert dim_left_cell(Family.SYMMETRIC, 4, 4, 2) == 1
    assert dim_left_cell(Family.ROOK, 2, 1, 1) == 6
    assert dim_left_cell(Family.ROOK, 2, 0, 1) == 9


def test_dim_left_cell_check_flag():
    # checked_dims re-derives each value by counting the decorated halves
    # of every walked half shape
    assert checked_dims(Family.MOTZKIN, 3, 2)[1] == 120
    assert checked_dims(Family.PLANAR_PARTITION, 3, 2)[1] == 139


def _planar_partition_oracle(n: int, lam: int, y: int) -> int:
    """[x^n] D^(lam+1) (x / (1 - x D))^lam, each series to x^n, with D the
    Narayana polynomial generating function in y."""
    size = n + 1
    d = [1] + [sum(comb(m, k) * comb(m, k - 1) // m * y**k for k in range(1, m + 1))
               for m in range(1, size)]

    def mul(a, b):
        c = [0] * size
        for i, ai in enumerate(a):
            if ai:
                for j in range(size - i):
                    if b[j]:
                        c[i + j] += ai * b[j]
        return c

    xd = [0] + d[:-1]
    geom = [1] + [0] * n
    for i in range(1, size):
        geom[i] = sum(xd[j] * geom[i - j] for j in range(1, i + 1))
    term = [1] + [0] * n
    for _ in range(lam + 1):
        term = mul(term, d)
    for _ in range(lam):
        term = mul(term, [0] + geom[:-1])
    return term[n]


def _double_factorial(n: int) -> int:
    """n (n-2) (n-4) ... down to 1 or 2; 1 for n <= 0, so (-1)!! = 1
    counts the empty pairing."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _dim_oracle(f: Family, n: int, lam: int, K: int) -> int | None:
    """The planar-partition form with full-length series, the Brauer and
    rook-Brauer forms with a double factorial multiplied out, and the
    Motzkin and Temperley-Lieb forms with the ballot factors as fractions;
    None for the families whose forms did not change."""
    y = 3 * K
    if f is Family.PLANAR_PARTITION:
        return _planar_partition_oracle(n, lam, y)
    if f is Family.BRAUER:
        return comb(n, lam) * _double_factorial(n - lam - 1) * y ** ((n - lam) // 2)
    if f is Family.ROOK_BRAUER:
        return sum(
            comb(n, lam) * comb(n - lam, 2 * t) * _double_factorial(2 * t - 1) * y ** (n - lam - t)
            for t in range((n - lam) // 2 + 1)
        )
    if f is Family.MOTZKIN:
        val = sum(
            Fraction(lam + 1, lam + t + 1)
            * comb(n, lam + 2 * t) * comb(lam + 2 * t, t) * y ** (n - lam - t)
            for t in range((n - lam) // 2 + 1)
        )
    elif f is Family.TEMPERLEY_LIEB:
        val = Fraction(2 * lam + 2, n + lam + 2) * comb(n, (n - lam) // 2) * y ** ((n - lam) // 2)
    else:
        return None
    assert val.denominator == 1
    return val.numerator


@pytest.mark.parametrize("f", list(Family))
def test_dim_left_cell_matches_the_fraction_and_series_oracle(f):
    # the other families are checked only for type here; checked_dims
    # compares every family with enumeration in test_acceptance
    for K in (1, 2, 3):
        for n in range(41 if f is Family.PLANAR_PARTITION else 61):
            for lam in admissible_lambdas(f, n):
                got = dim_left_cell(f, n, lam, K)
                want = _dim_oracle(f, n, lam, K)
                assert type(got) is int, (f, n, lam, K)
                assert want is None or got == want, (f, n, lam, K)


@lru_cache(maxsize=1)
def _binomial_row(n: int) -> list[int]:
    return [comb(n, k) for k in range(n + 2)]


def _planar_partition_three_binomials(n: int, lam: int, y: int) -> int:
    """The Lagrange-inversion sum with its three binomials and power of y
    formed afresh per term, the binomials read off the row C(n, .)."""
    if n == 0:
        return 1
    row = _binomial_row(n)
    return sum(
        row[j] * y**j * (lam * row[lam + j] + (lam + 1) * y * row[lam + j + 1])
        for j in range(n - lam + 1)
    ) // n


def test_planar_partition_steps_match_the_three_binomial_sum():
    for n in range(201):
        for lam in range(n + 1):
            for K in (1, 2, 3):
                assert repcount._planar_partition_dim(n, lam, 3 * K) == (
                    _planar_partition_three_binomials(n, lam, 3 * K)
                ), (n, lam, K)


def _block_rule_dims(f: Family, n: int, K: int) -> list[list[int]]:
    """Row m of the result holds A_m(mu) for mu = 0..m: the decorated
    halves of m bottom nodes with mu blocks still open, read off
    Family.block_rule and planar alone.  Bottom nodes are read left to
    right: an up step opens a block; a flat step is a dead singleton or a
    further node of an open block; a down step closes an open block as a
    dead block, which takes one of y = 3K decorations; the blocks still
    open at the end are the through blocks, so A_n(lam) is dim(n, lam).
    A planar node can join or close only the innermost open block."""
    low, high, side = f.block_rule
    y = 3 * K

    def flat(mu):
        return y * (low <= 1) + (high >= 3) * (mu > 0 if f.planar else mu)

    def down(mu):
        return y * (high >= 2 and side >= 2) * (1 if f.planar else mu + 1)

    rows = [[1]]
    for m in range(n):
        prev = rows[-1] + [0, 0]
        rows.append([(prev[mu - 1] if mu else 0) + flat(mu) * prev[mu] + down(mu) * prev[mu + 1]
                     for mu in range(m + 2)])
    return rows


@pytest.mark.parametrize("f", list(Family))
def test_dim_left_cell_is_the_block_rule_walk(f):
    # one oracle for every family, from the rule that _half_shapes and
    # is_member also read: each closed form counts the walks it admits
    for K in (1, 2, 3):
        for n, row in enumerate(_block_rule_dims(f, 30, K)):
            lams = admissible_lambdas(f, n)
            assert row == [dim_left_cell(f, n, lam, K) if lam in lams else 0
                           for lam in range(n + 1)], (f, n, K)


def test_dims_table_bound_holds_the_table_sum():
    # the rook, symmetric, Brauer and rook-Brauer bounds are the sums themselves
    for f in Family:
        for K in (1, 2, 3, 7):
            for n in range(9 if f is Family.PLANAR_PARTITION else 13):
                table = dims_table(f, n, K)
                bound = repcount._dims_sum_bound(f, n, 3 * K)
                assert max(table.values()) <= sum(table.values()) <= bound, (f, K, n)
                if f in (Family.ROOK, Family.SYMMETRIC, Family.BRAUER, Family.ROOK_BRAUER):
                    assert sum(table.values()) == bound


def test_dims_table_guard_trips_before_any_closed_form(monkeypatch):
    # 3^9100 alone has 4,342 digits; rook n = 7000 is refused on the exact
    # size of 4^7000, 14,001 bits
    monkeypatch.setattr(repcount, "dim_left_cell", _refuse)
    for n in (9100, 7000, 10**18):
        with pytest.raises(ResourceGuardError, match="dims table"):
            dims_table(Family.ROOK, n, 1)
    with pytest.raises(ResourceGuardError, match="dims table"):
        dims_table(Family.PARTITION, 1529, 1)


def test_dims_table_guard_admits_what_prints(monkeypatch):
    monkeypatch.setattr(repcount, "dim_left_cell", lambda f, n, lam, K: lam)
    assert len(dims_table(Family.ROOK, 6999, 1)) == 7000
    assert len(dims_table(Family.PARTITION, 1528, 1)) == 1529
    assert dims_table(Family.SYMMETRIC, 10**18, 5) == {10**18: 10**18}
    with pytest.raises(PreconditionError, match="nonnegative"):
        dims_table(Family.ROOK, -1, 0)
    with pytest.raises(PreconditionError, match="K must be positive"):
        dims_table(Family.ROOK, 1, 0)


def test_dim_left_cell_rejects_bad_lambda():
    with pytest.raises(PreconditionError):
        dim_left_cell(Family.BRAUER, 3, 2, 1)
    with pytest.raises(PreconditionError):
        dim_left_cell(Family.SYMMETRIC, 3, 2, 1)


def test_check_lambda_accepts_exactly_the_admissible_lambdas():
    # decided by arithmetic, it agrees with the listed range everywhere
    for f in Family:
        for n in range(13):
            admitted = set(admissible_lambdas(f, n))
            for lam in range(-1, n + 2):
                if lam in admitted:
                    check_lambda(f, n, lam)
                else:
                    with pytest.raises(PreconditionError) as err:
                        check_lambda(f, n, lam)
                    assert str(err.value) == f"lambda={lam} is not admissible for {f.value} at n={n}"
        with pytest.raises(PreconditionError, match="nonnegative"):
            check_lambda(f, -1, 0)


# ---------------------------------------------------------------------------
# interpolation parameters
# ---------------------------------------------------------------------------


def test_deligne_paper_example():
    assert deligne_parameters(19, 4, 10, 1, 1) == (9, 7, 3)


def test_deligne_degenerate_cases():
    assert deligne_parameters(1, 0, 1, 1, 1) == (0, Fraction(1, 2), Fraction(1, 2))
    assert deligne_parameters(0, 0, 0, 1, 1) == (0, 0, 0)


def test_deligne_sqrt_mismatch():
    with pytest.raises(PreconditionError):
        deligne_parameters(1, 1, 1, 2, 1)
