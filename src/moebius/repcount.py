"""Counting formulas: partition numbers, irreducible-factor counts of
x^m - 1, simple-module counts, left-cell dimensions, and the parameter
map onto interpolation categories.

All counts are exact big integers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import PRINTABLE_BITS, PreconditionError, check_guard
from .families import Family, admissible_lambdas, check_lambda

# ---------------------------------------------------------------------------
# field specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """Ground field flavor: algebraically closed char 0, Q, or F_p."""

    kind: str  # "char0-alg-closed" | "rationals" | "prime-field"
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("char0-alg-closed", "rationals", "prime-field"):
            raise PreconditionError(f"unknown field kind {self.kind!r}")
        if self.kind == "prime-field":
            if self.p is None or not _is_prime(self.p):
                raise PreconditionError(f"{self.p} is not prime")
        elif self.p is not None:
            raise PreconditionError("characteristic-zero fields take no p")


CHAR0_ALG_CLOSED = FieldSpec("char0-alg-closed")
RATIONALS = FieldSpec("rationals")


def prime_field(p: int) -> FieldSpec:
    return FieldSpec("prime-field", p)


# loop steps of a primality test, or of counting the factors of x^m - 1,
# read off before any loop starts; at about 0.17 us a step (CPython 3.11)
# the bound is about 4 s
TRIAL_DIVISION_GUARD = 25_000_000


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    check_guard("the trial divisions testing primality", math.isqrt(n), TRIAL_DIVISION_GUARD)
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# partition numbers
# ---------------------------------------------------------------------------


def partition_count(n: int) -> int:
    """p(n) via the pentagonal-number recurrence."""
    if n < 0:
        raise PreconditionError("partition_count needs a nonnegative argument")
    return _partition_counts(n)[n]


def _partition_counts(n: int) -> list[int]:
    """p(0), ..., p(n), bottom-up: p(m) sums +-p(m - g) over the
    generalized pentagonal numbers g = k(3k -+ 1)/2 <= m, sign (-1)^(k+1)."""
    pentagonal = []
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        sign = 1 if k % 2 == 1 else -1
        pentagonal += [(k * (3 * k - 1) // 2, sign), (k * (3 * k + 1) // 2, sign)]
        k += 1
    p = [1]
    for m in range(1, n + 1):
        p.append(sum(sign * p[m - g] for g, sign in pentagonal if g <= m))
    return p


COUNT_TYPES_GUARD = 20_000_000


def count_types(lambda_ts: int, class_count: int) -> int:
    """Number of type matrices: sum over class_count-tuples with total
    lambda_ts of products of partition numbers.  The sum takes about
    class_count * (lambda_ts + 1)^2 big-integer products, refused past
    COUNT_TYPES_GUARD."""
    if lambda_ts < 0 or class_count < 0:
        raise PreconditionError("arguments must be nonnegative")
    check_guard(
        "the products in count_types", class_count * (lambda_ts + 1) ** 2, COUNT_TYPES_GUARD
    )
    acc = [1] + [0] * lambda_ts
    base = _partition_counts(lambda_ts)
    for _ in range(class_count):
        nxt = [0] * (lambda_ts + 1)
        for i, av in enumerate(acc):
            if av:
                for j in range(lambda_ts + 1 - i):
                    nxt[i + j] += av * base[j]
        acc = nxt
    return acc[lambda_ts]


# ---------------------------------------------------------------------------
# N_K(k): monic irreducible factors of x^m(k) - 1
# ---------------------------------------------------------------------------


def m_of_k(field: FieldSpec, k: int) -> int:
    """k itself in characteristic zero, else the p-free part of k."""
    if k <= 0:
        raise PreconditionError("k must be positive")
    if field.kind == "prime-field":
        while k % field.p == 0:
            k //= field.p
    return k


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _euler_phi(n: int) -> int:
    result = n
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            result -= result // d
        d += 1
    if n > 1:
        result -= result // n
    return result


def _mult_order(a: int, mod: int) -> int:
    if mod == 1:
        return 1
    if math.gcd(a, mod) != 1:
        raise PreconditionError(f"{a} is not invertible mod {mod}")
    x = a % mod
    order = 1
    while x != 1:
        x = x * a % mod
        order += 1
    return order


def n_irreducible_factors(field: FieldSpec, k: int) -> int:
    """Number of monic irreducible factors of x^m(k) - 1 over the field.

    Algebraically closed char 0: m(k) linear factors.  Over Q each
    cyclotomic factor is irreducible, so the count is the number of
    divisors of m(k).  Over F_p (with p coprime to m) the d-th cyclotomic
    polynomial splits into phi(d)/ord_d(p) irreducibles.

    Listing the divisors takes isqrt(m) steps.  Over F_p each divisor d
    then takes fewer than isqrt(d) <= phi(d) steps for phi(d) and fewer
    than ord_d(p) <= phi(d) for the order, and the phi(d) sum to m; the
    total is refused past TRIAL_DIVISION_GUARD before any loop starts.
    """
    m = m_of_k(field, k)
    if field.kind == "char0-alg-closed":
        return m
    steps = math.isqrt(m) + (2 * m if field.kind == "prime-field" else 0)
    check_guard("the loop steps counting factors of x^m - 1", steps, TRIAL_DIVISION_GUARD)
    if field.kind == "rationals":
        return len(_divisors(m))
    return sum(_euler_phi(d) // _mult_order(field.p, d) for d in _divisors(m))


def s_value(field: FieldSpec, r: int) -> int:
    """1 + N(r) + N(2r); equals 1 + 3r over algebraically closed char 0."""
    if r <= 0 or r % 2 == 0:
        raise PreconditionError("r must be a positive odd integer")
    return 1 + n_irreducible_factors(field, r) + n_irreducible_factors(field, 2 * r)


# ---------------------------------------------------------------------------
# simple-module counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleCount:
    count: int
    exact: bool  # False = upper bound only (non-planar over a general field)


def count_simples(f: Family, n: int, lambda_ts: int, field: FieldSpec, r: int) -> SimpleCount:
    """Simple modules of apex lambda_ts.

    Planar families: s^lambda over any field.  Non-planar families:
    sum over s-tuples (l_1, ..., l_s) with sum lambda of p(l_1)...p(l_s);
    exact over algebraically closed characteristic zero, an upper bound
    otherwise.  s^lambda is refused past PRINTABLE_BITS bits.
    """
    check_lambda(f, n, lambda_ts)
    s = s_value(field, r)
    if f.planar:
        bits = lambda_ts * (s - 1).bit_length()
        check_guard("the size in bits of s^lambda", bits, PRINTABLE_BITS)
        return SimpleCount(s**lambda_ts, True)
    return SimpleCount(count_types(lambda_ts, s), field.kind == "char0-alg-closed")


# ---------------------------------------------------------------------------
# left-cell dimensions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _stirling2_row(n: int) -> tuple[int, ...]:
    """S(n, 0), ..., S(n, n), row by row: S(m, t) = t S(m-1, t) + S(m-1, t-1)."""
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [t * row[t] + row[t - 1] for t in range(1, m)] + [1]
    return tuple(row)


def _ballot(m: int, t: int) -> int:
    """C(m, t) - C(m, t - 1) = C(m, t) (m - 2t + 1) / (m - t + 1): the
    walks of m steps, t of them down, that never go below 0 (2t <= m)."""
    return math.comb(m, t) - (math.comb(m, t - 1) if t else 0)


def _planar_partition_dim(n: int, lam: int, y: int) -> int:
    """(1/n) sum_{j=0}^{n-lam} C(n, j) y^j [lam C(n, lam+j) + (lam+1) y C(n, lam+j+1)]
    for n >= 1, and 1 at n = 0: the decorated noncrossing halves of n
    nodes with lam through blocks, each dead block carrying one of y = 3K
    decorations.

    A half is a gap, then per through block its first node, a gap, and
    any further nodes each followed by a gap.  Every gap holds a
    noncrossing partition of dead blocks; let D(x) count them, weighted
    y per block, and G = 1 / (1 - x D).  Then a through block is x D G and
    the half is D (x D G)^lam, read at x^n.  A gap is empty, or the block
    of its first node, k >= 1 nodes each followed by a gap:
    D = 1 + y sum_k (x D)^k.  So u = x D obeys u = x phi(u) with
    phi(u) = 1 + y u / (1 - u), and the half is H(u) with
    H(u) = phi(u) (u / (1 - u))^lam.  By Lagrange inversion, for n >= 1,

        [x^n] H(u) = (1/n) [t^(n-1)] H'(t) phi(t)^n,

    where H'(t) = lam t^(lam-1) (1-t)^(-lam-1) + (lam+1) y t^lam (1-t)^(-lam-2)
    and phi(t)^n = sum_j C(n, j) y^j t^j (1-t)^(-j).  Since
    [t^k] (1-t)^(-a) = C(k + a - 1, a - 1), the j-th terms give
    C(n, lam+j) and C(n, lam+j+1), and the sum is n times the count, so
    the division is exact.

    The j-th term's binomials and power come from the (j-1)-th's, each
    by one exact step (C(n, i+1) = C(n, i) (n-i) / (i+1)), so a term
    costs a few products and no fresh binomial.
    """
    if n == 0:
        return 1
    total = 0
    c_j, c_low, c_high, power = 1, math.comb(n, lam), math.comb(n, lam + 1), 1
    for j in range(n - lam + 1):
        # c_j = C(n, j), c_low = C(n, lam+j), c_high = C(n, lam+j+1), power = y^j
        total += c_j * power * (lam * c_low + (lam + 1) * y * c_high)
        c_j = c_j * (n - j) // (j + 1)
        c_low, c_high = c_high, c_high * (n - lam - j - 1) // (lam + j + 2)
        power *= y
    return total // n


def _dead_pairs_dim(n: int, lam: int, y: int, planar: bool) -> int:
    """sum_t w_t y^(m-t) over the t dead pairs of m = n - lam dead nodes,
    the other m - 2t dead singletons: the rook-Brauer (w_t = C(n, lam)
    C(m, 2t) (2t-1)!!) or, planar, the Motzkin (w_t = C(n, lam+2t)
    ballot(lam+2t, t)) halves with lam through blocks, each dead block
    carrying one of y = 3K decorations.

    w_0 = C(n, lam), and each w_(t+1) is w_t (m-2t)(m-2t-1) divided by
    2(t+1), or by (t+1)(lam+t+2) in the Motzkin sum, as w_t is there
    n! (lam+1) / (t! (lam+t+1)! (m-2t)!); each quotient is the integer
    w_(t+1), so the division is exact.  The powers of y come by Horner's
    rule, one factor y per term and y^(m - m//2) at the end, so a term
    costs a few products by small integers and no fresh binomial.
    """
    m = n - lam
    acc, w = 0, math.comb(n, lam)
    for t in range(m // 2 + 1):
        acc = acc * y + w  # sum_(s <= t) w_s y^(t-s), by Horner's rule
        w = w * (m - 2 * t) * (m - 2 * t - 1) // ((t + 1) * (lam + t + 2 if planar else 2))
    return acc * y ** (m - m // 2)


def dim_left_cell(f: Family, n: int, lambda_ts: int, K: int) -> int:
    """Closed-form number of left cells (half diagrams) at the given cell.

    Each non-through block carries one of 3K decorations (handle count
    below K, crosscap count at most 2); cells.checked_dims compares it
    with the halves counted over the walked half shapes.  Every form is
    in integers: the Temperley-Lieb ballot factor (lam+1)/(lam+t+1)
    C(m, t) is the ballot number C(m, t) - C(m, t-1); the (2t-1)!!
    pairings of 2t nodes in Brauer are (2t)!/t! = 2^t (2t-1)!!, shifted
    right t bits; the rook-Brauer and Motzkin terms step from one another
    by exact divisions; and the planar partition sum is n times the
    count, so its division by n is exact.
    """
    check_lambda(f, n, lambda_ts)
    if K <= 0:
        raise PreconditionError("K must be positive")
    lam, y = lambda_ts, 3 * K
    if f is Family.PARTITION:
        val = sum(
            stirling * math.comb(t, lam) * y ** (t - lam)
            for t, stirling in enumerate(_stirling2_row(n)[lam:], start=lam)
        )
    elif f is Family.PLANAR_PARTITION:
        val = _planar_partition_dim(n, lam, y)
    elif f in (Family.ROOK_BRAUER, Family.MOTZKIN):
        val = _dead_pairs_dim(n, lam, y, f.planar)
    elif f is Family.BRAUER:
        t = (n - lam) // 2
        val = math.comb(n, lam) * (math.perm(2 * t, t) >> t) * y**t
    elif f is Family.TEMPERLEY_LIEB:
        val = _ballot(n, (n - lam) // 2) * y ** ((n - lam) // 2)
    elif f in (Family.ROOK, Family.PLANAR_ROOK):
        val = math.comb(n, lam) * y ** (n - lam)
    else:  # symmetric families: lambda = n forced
        val = 1
    return val


def dims_table(f: Family, n: int, K: int) -> dict[int, int]:
    """dim_left_cell at every admissible lambda, once the table is known
    to print.

    No entry exceeds the table's sum, which ``_dims_sum_bound`` bounds;
    the bound's size in bits must stay within PRINTABLE_BITS.  Outside the
    symmetric families the sum is at least y^(n // 2) (y = 3K), so the
    size of that power, a lower bound, is checked before the bound is
    formed, and both checks precede every closed form."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    if K <= 0:
        raise PreconditionError("K must be positive")
    y = 3 * K
    what = "the size in bits of the dims table's bound"
    if f.nonplanar_core is not Family.SYMMETRIC:
        check_guard(f"a lower bound on {what}", n // 2 * (y.bit_length() - 1), PRINTABLE_BITS)
    check_guard(what, _dims_sum_bound(f, n, y).bit_length(), PRINTABLE_BITS)
    return {lam: dim_left_cell(f, n, lam, K) for lam in admissible_lambdas(f, n)}


def _dims_sum_bound(f: Family, n: int, y: int) -> int:
    """At least the sum over lambda of dim_left_cell: the number of halves
    of n nodes, each dead block carrying one of y decorations.  With
    x = y + 1:

    - rook families: x^n, the sum itself (each node is through or dead);
    - symmetric families: 1, the sum itself;
    - Brauer and rook-Brauer: the sum itself; node n is single (through,
      or dead in rook-Brauer) or pairs with one of n - 1 others;
    - partition: the sum is T(n) = sum_t S(n, t) x^t, and S(m+1, t) =
      t S(m, t) + S(m, t-1) with t <= m gives T(m+1) <= (x + m) T(m), so
      T(n) <= x (x+1) ... (x+n-1);
    - planar partition: the halves are noncrossing partitions, each block
      through or dead; N(n, k) <= C(n, k)^2 noncrossing partitions have k
      blocks, and sum_k C(n, k)^2 x^k <= (1 + sqrt(x))^(2n);
    - Motzkin: the ballot number is at most C(m, t), and C(m, t) y^t summed
      over t is at most x^m, so the sum is at most (2y + 1)^n;
    - Temperley-Lieb: the ballot number is at most C(n, j), and C(n, j) y^j
      summed over j <= n/2 is at most (4y)^floor(n/2), as the C(n, j)
      sum to at most 2^n, or to 2^(n-1) when n is odd.
    """
    x = y + 1
    if f in (Family.ROOK, Family.PLANAR_ROOK):
        return x**n
    if f in (Family.SYMMETRIC, Family.PLANAR_SYMMETRIC):
        return 1
    if f in (Family.BRAUER, Family.ROOK_BRAUER):
        single = x if f is Family.ROOK_BRAUER else 1
        before, total = 0, 1  # the sums at m - 2 and m - 1 nodes
        for m in range(1, n + 1):
            before, total = total, single * total + (m - 1) * y * before
        return total
    if f is Family.PARTITION:
        return math.perm(x + n - 1, n)
    if f is Family.PLANAR_PARTITION:
        r = math.isqrt(4 * x)
        return (1 + x + r + (r * r < 4 * x)) ** n  # (1 + x + ceil(2 sqrt(x)))^n
    if f is Family.MOTZKIN:
        return (2 * y + 1) ** n
    return (4 * y) ** (n // 2)  # Temperley-Lieb


# ---------------------------------------------------------------------------
# interpolation-category parameters
# ---------------------------------------------------------------------------


def deligne_parameters(alpha0, beta0, gamma0, lam_scale, sqrt_lam):
    """(delta, delta_plus, delta_minus) for geometric evaluation series.

    delta = lam_scale*alpha0 - gamma0 and delta_pm = (gamma0 +- sqrt_lam*beta0)/2,
    where sqrt_lam must square to lam_scale.
    """
    a0, b0, g0 = Fraction(alpha0), Fraction(beta0), Fraction(gamma0)
    lam, sq = Fraction(lam_scale), Fraction(sqrt_lam)
    if sq * sq != lam:
        raise PreconditionError(f"sqrt_lam={sq} does not square to lam_scale={lam}")
    delta = lam * a0 - g0
    delta_plus = Fraction(1, 2) * (g0 + sq * b0)
    delta_minus = Fraction(1, 2) * (g0 - sq * b0)
    return delta, delta_plus, delta_minus
