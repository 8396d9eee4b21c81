"""Coefficient data for closed-component evaluation.

Three rational functions Z_alpha = p_alpha/q, Z_beta = p_beta/q,
Z_gamma = p_gamma/q with q(0) = 1 drive the evaluation of closed
components carrying 0, 1 or 2 crosscap dots.  Writing

    q(T) = 1 - a_1 T + a_2 T^2 - ... + (-1)^M a_M T^M,

the exponent rewrite for handle dots is

    h^K  ->  a_1 h^(K-1) - a_2 h^(K-2) + ... - (-1)^M a_M h^(K-M),

with K = max(deg p_alpha + 1, deg q).  The Taylor coefficients of the
three series obey the same linear recurrence for k >= K; they are
computed by polynomial long division and cached.
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import HANDLE_GUARD, PRINTABLE_BITS, ParseError, PreconditionError, check_guard

Rat = Fraction


# ---------------------------------------------------------------------------
# polynomials over Q, coefficient list indexed by degree
# ---------------------------------------------------------------------------

def poly_trim(coeffs) -> tuple[Rat, ...]:
    """Canonical form: trailing zeros removed, () is the zero polynomial."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_deg(p: tuple[Rat, ...]) -> int:
    """Degree, with deg(0) = -1."""
    return len(p) - 1


def poly_eval0(p: tuple[Rat, ...]) -> Rat:
    return p[0] if p else Fraction(0)


def poly_coeff(p: tuple[Rat, ...], k: int) -> Rat:
    return p[k] if 0 <= k < len(p) else Fraction(0)


def parse_rational(text: str) -> Rat:
    """Exact rational literal: an integer or 'p/q'.  No floats."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}") from None


def poly_from_strings(items) -> tuple[Rat, ...]:
    return poly_trim(parse_rational(s) for s in items)


def format_rational(x: Rat) -> str:
    """'p' or 'p/q'; a part past PRINTABLE_BITS bits is refused, as str()
    raises ValueError on an int past 4,300 digits."""
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    check_guard("the size in bits of a printed rational", bits, PRINTABLE_BITS)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# parameter sets
# ---------------------------------------------------------------------------

_KINDS = ("alpha", "beta", "gamma")


@dataclass(frozen=True)
class ParamSet:
    """Validated evaluation data; construct via validate_params.

    A hashable value.  The series caches extend lazily under a lock, so
    concurrent readers see the same deterministic values; they take no
    part in equality or hashing.
    """

    p_alpha: tuple[Rat, ...]
    p_beta: tuple[Rat, ...]
    p_gamma: tuple[Rat, ...]
    q: tuple[Rat, ...]
    N: int
    M_deg: int
    K: int
    handle_coeffs: tuple[Rat, ...]  # (a_1, ..., a_M)
    _cache: dict = field(
        default_factory=lambda: {k: [] for k in _KINDS}, repr=False, compare=False
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def numerator(self, kind: str) -> tuple[Rat, ...]:
        return {"alpha": self.p_alpha, "beta": self.p_beta, "gamma": self.p_gamma}[kind]


def validate_params(p_alpha, p_beta, p_gamma, q, *, allow_zero_alpha: bool = False) -> ParamSet:
    """Check the degree conditions and assemble a ParamSet.

    Rejects q(0) != 1, deg p_beta >= K, deg p_gamma >= K, and (by default)
    p_alpha = 0.  With allow_zero_alpha the vanishing numerator is accepted
    and K = deg q; this is the regime where every evaluation is zero.
    """
    pa, pb, pg, qq = map(poly_trim, (p_alpha, p_beta, p_gamma, q))
    if poly_eval0(qq) != 1:
        raise PreconditionError("q(0) must equal 1")
    if not pa and not allow_zero_alpha:
        raise PreconditionError("p_alpha must be nonzero (deg p_alpha would be undefined)")
    n_deg = poly_deg(pa)
    m_deg = poly_deg(qq)
    k = max(n_deg + 1, m_deg)
    if k <= 0:
        raise PreconditionError("K = max(deg p_alpha + 1, deg q) must be positive")
    if poly_deg(pb) >= k:
        raise PreconditionError(f"deg p_beta = {poly_deg(pb)} must be < K = {k}")
    if poly_deg(pg) >= k:
        raise PreconditionError(f"deg p_gamma = {poly_deg(pg)} must be < K = {k}")
    handle = tuple((-1) ** i * poly_coeff(qq, i) for i in range(1, m_deg + 1))
    return ParamSet(pa, pb, pg, qq, n_deg, m_deg, k, handle)


def params_from_json(text: str) -> ParamSet:
    """Parameter file format: arrays of rational strings, index = degree."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
        raise ParseError(f"bad parameter JSON: {exc}") from None
    try:
        entries = [data[key] for key in ("p_alpha", "p_beta", "p_gamma", "q")]
    except KeyError as exc:
        raise ParseError(f"parameter file missing key {exc}") from None
    except TypeError:
        entries = None  # not a JSON object
    # a string is iterable too: "12" must not read as ["1", "2"]
    if entries is None or not all(
        isinstance(e, list) and all(isinstance(s, str) for s in e) for e in entries
    ):
        raise ParseError("parameter file entries must be arrays of rational strings")
    return validate_params(*map(poly_from_strings, entries))


def series_coeff(ps: ParamSet, kind: str, k: int) -> Rat:
    """k-th Taylor coefficient of p_kind/q at 0, by the division recurrence.

    z_k = p_k + sum_{i=1..min(k,M)} (-1)^(i+1) a_i z_{k-i}, using q(0) = 1.
    The terms the cache lacks up to k are charged to HANDLE_GUARD before
    the first is formed.
    """
    if kind not in _KINDS:
        raise PreconditionError(f"kind must be one of {_KINDS}")
    if k < 0:
        raise PreconditionError("series index must be nonnegative")
    cache = ps._cache[kind]
    if k < len(cache):
        return cache[k]
    check_guard("the series terms to form", k + 1 - len(cache), HANDLE_GUARD)
    with ps._lock:
        p = ps.numerator(kind)
        while len(cache) <= k:
            j = len(cache)
            z = poly_coeff(p, j)
            for i in range(1, min(j, ps.M_deg) + 1):
                ai = ps.handle_coeffs[i - 1]
                if ai:
                    z += (-1) ** (i + 1) * ai * cache[j - i]
            cache.append(z)
    return cache[k]


# ---------------------------------------------------------------------------
# monoid parameters: q = 1 - T^r
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonoidParams:
    """Handle data for monoid-mode computations: exponent rewrite h^K = h^(K-r).

    r odd; K >= r.  K = r is accepted but degenerate (the handle generator
    becomes invertible and the layered cell picture collapses).
    """

    K: int
    r: int

    def __post_init__(self):
        if self.r <= 0 or self.r % 2 == 0:
            raise PreconditionError("r must be a positive odd integer")
        if self.K < self.r:
            raise PreconditionError("K must be >= r")

    @property
    def degenerate(self) -> bool:
        return self.K == self.r


def handle_reduce_monoid(h: int, mp: MonoidParams) -> int:
    """Canonical handle exponent: h less the fewest multiples of r that
    bring it below K (a^K = a^(K-r))."""
    if h < 0:
        raise PreconditionError("handle count must be nonnegative")
    if h >= mp.K:
        h -= ((h - mp.K) // mp.r + 1) * mp.r
    return h


def reduce_mob_pair(h: int, mob: int) -> tuple[int, int]:
    """Crosscap rewrite mob >= 3 -> (mob - 2, h + 1) to exhaustion: b^3 = ab."""
    if mob >= 3:
        steps = (mob - 1) // 2 if mob % 2 else (mob - 2) // 2
        h += steps
        mob -= 2 * steps
    return h, mob


def monomial_q(r: int) -> tuple[Rat, ...]:
    """The polynomial 1 - T^r."""
    return poly_trim([1] + [0] * (r - 1) + [-1])


def monoid_params_of(ps: ParamSet) -> MonoidParams:
    """Extract (K, r) when q = 1 - T^r; error otherwise.

    Basis-closed middle multiplication (and hence the Gram machinery)
    needs the handle rewrite to be monomial.
    """
    r = ps.M_deg
    if r <= 0 or ps.q != monomial_q(r):
        raise PreconditionError("q must have the form 1 - T^r for monoid-mode computations")
    return MonoidParams(K=ps.K, r=r)
