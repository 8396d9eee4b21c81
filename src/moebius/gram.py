"""Gram matrices per J-cell, exact rank and determinant via fraction-free
elimination, closed-form predictions, and the full-rank condition check.

The entry for a (row, column) pair of half diagrams is the eigenvalue of
the corresponding H-cell's pseudo-idempotent: composing bottom o
star(top) gives a scalar multiple c of one basis diagram (the handle
rewrite is monomial here), and the entry is c when the through strands
survive, else 0.  The pseudo-idempotent exists because the middle w of
the composite always has an m with m w m = m among its own powers: if w
has index i and period t, then m = w^p for any p >= i with t | p + 1
gives m w m = w^(2p+1) = w^p.  Such a p lies below i + t, before the
first repeated power, so each distinct middle of a matrix is checked
once by walking w, w^2, ... to the first m that passes m w m = m.  A
power that repeats first means the product is not associative, an
internal error.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from . import algebra
from .cells import enumerate_half_diagrams
from .diagram import Diagram, factorize, star, through_strands
from .errors import InternalCheckError, PreconditionError, ResourceGuardError
from .families import Family, check_lambda
from .msmall import _index_components, wreath_mul
from .params import (
    MonoidParams,
    ParamSet,
    Rat,
    format_rational,
    monoid_params_of,
)
from .repcount import dim_left_cell

SIZE_GUARD = 2000
_ZERO = Fraction(0)


@dataclass(frozen=True)
class GramMatrix:
    family: Family
    n: int
    lambda_ts: int
    labels: tuple[Diagram, ...]  # half diagrams; rows are their star images
    entries: tuple[tuple[Rat, ...], ...]


@dataclass(frozen=True)
class RankReport:
    rank: int
    det: Rat | None = None


def gram_entry(
    bottom: Diagram, top_star: Diagram, ps: ParamSet, mp: MonoidParams
) -> Rat:
    """Entry for the H-cell with the given bottom (column) and top
    (row, given as its star image).  As in ``gram_matrix``, the
    composite's middle w is walked to a power m = w^p with m w m = m,
    which exists for every p >= the index of w with its period dividing
    p + 1."""
    if mp != monoid_params_of(ps):
        raise PreconditionError("monoid parameters do not match the parameter set")
    if top_star.m != bottom.m:
        raise PreconditionError("half diagrams come from different cells")
    return _entry(bottom, top_star, ps, mp, set())


def gram_matrix(f: Family, n: int, lambda_ts: int, ps: ParamSet) -> GramMatrix:
    """Full Gram matrix over the canonical half-diagram ordering; rows are
    the star images of the columns."""
    check_lambda(f, n, lambda_ts)
    mp = monoid_params_of(ps)
    dim = dim_left_cell(f, n, lambda_ts, mp.K)
    if dim > SIZE_GUARD:
        raise ResourceGuardError(f"Gram dimension {dim} exceeds guard {SIZE_GUARD}")
    halves = enumerate_half_diagrams(f, n, lambda_ts, mp.K)
    checked: set = set()  # middles already walked, for this matrix only
    rows = []
    for top in halves:
        row = []
        for bottom in halves:
            row.append(_entry(bottom, top, ps, mp, checked))
        rows.append(tuple(row))
    return GramMatrix(f, n, lambda_ts, tuple(halves), tuple(rows))


def _entry(bottom, top_star, ps, mp, checked) -> Rat:
    """c when bottom o star(top_star) = c w keeps every through strand,
    else 0.  w's middle always has a power m with m w m = m (index i,
    period t: m = w^p with p >= i and t | p + 1); ``checked`` holds the
    middles already walked to theirs (by the caller, for one matrix), and
    a new middle is walked by ``_check_regular_power``."""
    lam = bottom.m
    x = algebra.compose_diagrams(bottom, star(top_star), ps)
    if x.is_zero():
        return _ZERO
    w, c = x.single()
    if through_strands(w) < lam:
        return _ZERO
    w_mid = factorize(w, mp).middle
    if w_mid not in checked:
        _check_regular_power(w_mid, mp)
        checked.add(w_mid)
    return c


def _check_regular_power(w_mid, mp) -> None:
    """Walk m = w, w^2, ... to the first m with m w m = m.

    With an associative product one comes before the first repeated
    power; a repeat reached first raises InternalCheckError."""
    seen = set()
    m = w_mid
    while m not in seen:
        seen.add(m)
        nxt = wreath_mul(m, w_mid, mp)
        if wreath_mul(nxt, m, mp) == m:
            return
        m = nxt
    raise InternalCheckError(
        f"the powers of middle {w_mid} repeat with no m w m = m: the product is not associative"
    )


# ---------------------------------------------------------------------------
# exact rank / determinant: block-wise fraction-free Bareiss
# ---------------------------------------------------------------------------


def exact_rank(mat) -> RankReport:
    """Rank by integer fraction-free elimination; determinant when square.

    A square matrix is split into the connected components of its nonzero
    pattern (i ~ j when entry (i, j) or (j, i) is nonzero).  Permuting rows
    and columns alike puts it in block-diagonal form without changing the
    determinant, so ranks add and determinants multiply over the blocks.
    """
    rows = [list(row) for row in (mat.entries if isinstance(mat, GramMatrix) else mat)]
    size = len(rows)
    if any(len(r) != size for r in rows):
        return _bareiss(rows)  # not square: one elimination, or the row-length error
    blocks = _pattern_components(rows)
    if len(blocks) < 2:
        return _bareiss(rows)
    rank = 0
    det = Fraction(1)
    for idx in blocks:
        rep = _bareiss([[rows[i][j] for j in idx] for i in idx])
        rank += rep.rank
        det *= rep.det
    return RankReport(rank=rank, det=det)


def _pattern_components(rows) -> list[list[int]]:
    """Index sets of the connected components of a square matrix's nonzero
    pattern, each ascending, in order of their least index."""
    edges = ((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x)
    return _index_components(len(rows), edges)


def _bareiss(rows) -> RankReport:
    """Rank by integer fraction-free elimination with full pivoting;
    determinant when square.

    Rational input is scaled row-wise to integers first (rank invariant;
    the determinant is rescaled back).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(r) != ncols for r in rows):
        raise PreconditionError("matrix rows have unequal lengths")
    square = nrows == ncols
    det_scale = Fraction(1)
    work: list[list[int]] = []
    for r in rows:
        fracs = [Fraction(x) for x in r]
        scale = lcm(*(x.denominator for x in fracs))
        if square:
            det_scale *= scale
        work.append([int(x * scale) for x in fracs])

    sign = 1
    prev = 1
    rank = 0
    for step in range(min(nrows, ncols)):
        piv = _find_pivot(work, step, nrows, ncols)
        if piv is None:
            break
        pr, pc = piv
        if pr != step:
            work[step], work[pr] = work[pr], work[step]
            sign = -sign
        if pc != step:
            for row in work:
                row[step], row[pc] = row[pc], row[step]
            sign = -sign
        pivot = work[step][step]
        for r in range(step + 1, nrows):
            head = work[r][step]
            row = work[r]
            prow = work[step]
            if head == 0:
                # Bareiss still rescales skipped rows by pivot/prev exactly
                for c in range(step + 1, ncols):
                    row[c] = row[c] * pivot // prev
            else:
                for c in range(step + 1, ncols):
                    row[c] = (row[c] * pivot - head * prow[c]) // prev
                row[step] = 0
        prev = pivot
        rank += 1

    det: Rat | None = None
    if square:
        if rank < nrows:
            det = Fraction(0)
        else:
            det = Fraction(sign * prev) / det_scale
    return RankReport(rank=rank, det=det)


def _find_pivot(work, step, nrows, ncols):
    for r in range(step, nrows):
        row = work[r]
        for c in range(step, ncols):
            if row[c] != 0:
                return r, c
    return None


# ---------------------------------------------------------------------------
# closed forms for the geometric-series rook setting (K = 1, q = 1 - T)
# ---------------------------------------------------------------------------


def gram_det_closed_form_rook0(n: int, alpha0, beta0, gamma0) -> Rat:
    """det of the lambda = 0 rook Gram matrix for geometric series.

    The matrix is the n-th Kronecker power of the 1-strand matrix
    [[a, b, g], [b, g, b], [g, b, g]], so the determinant is
    ((alpha0 - gamma0) * (gamma0^2 - beta0^2)) ** (n * 3^(n-1)).
    """
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    a0, b0, g0 = Fraction(alpha0), Fraction(beta0), Fraction(gamma0)
    if n == 0:
        return Fraction(1)
    return ((a0 - g0) * (g0 * g0 - b0 * b0)) ** (n * 3 ** (n - 1))


def gramcond_check(n: int, lambda_ts: int, alpha0, beta0, gamma0) -> bool:
    """Nonvanishing of the displayed full-rank product with lbar = n - lambda:

        prod_{i=1..lbar} ((a^i - g^i) - sum_{k=1..i-1} C(i,k) (a^(i-k) g^k - g^i))
                         ^ (C(lbar,i) 2^(lbar-i))
        * (g^2 - b^2) ^ (lbar 3^(lbar-1))

    This is a sufficient condition for full rank: its factors include
    (a - g) and (g^2 - b^2), whose nonvanishing already forces the exact
    determinant of every diagonal block to be nonzero.
    """
    lbar = n - lambda_ts
    if lbar < 0:
        raise PreconditionError("lambda may not exceed n")
    if lbar == 0:
        return True
    a0, b0, g0 = Fraction(alpha0), Fraction(beta0), Fraction(gamma0)
    if g0 * g0 - b0 * b0 == 0:
        return False
    for i in range(1, lbar + 1):
        factor = (a0**i - g0**i) - sum(
            comb(i, k) * (a0 ** (i - k) * g0**k - g0**i) for k in range(1, i)
        )
        if factor == 0:
            return False
    return True


def simple_dimension(f: Family, n: int, lambda_ts: int, ps: ParamSet) -> int:
    """Dimension of the simple modules at the apex: the exact Gram rank.

    Only stated for the rook families (commutative sandwiched monoid with
    one-dimensional simples)."""
    if f not in (Family.ROOK, Family.PLANAR_ROOK):
        raise PreconditionError("simple_dimension applies to the rook families only")
    return exact_rank(gram_matrix(f, n, lambda_ts, ps)).rank


# ---------------------------------------------------------------------------
# optional orderings and serialization
# ---------------------------------------------------------------------------


def mob_grouped_order(halves: tuple[Diagram, ...]) -> list[int]:
    """Row/column order grouping halves by their set of crosscap-dotted
    blocks (fewer dotted groups first, leftmost dotted positions first,
    then earlier positions varying fastest).  Rank is order-invariant;
    this ordering reproduces the block-triangular reduction visually."""
    keyed = []
    for idx, half in enumerate(halves):
        dotted = []
        values = []
        for pos, (nodes, h, mob) in enumerate(half.blocks):
            if mob:
                dotted.append(pos)
                values.append(mob)
        keyed.append(((len(dotted), tuple(dotted), tuple(reversed(values))), idx))
    keyed.sort()
    return [idx for _, idx in keyed]


def permute_matrix(g: GramMatrix, order: list[int]) -> GramMatrix:
    entries = tuple(
        tuple(g.entries[r][c] for c in order) for r in order
    )
    labels = tuple(g.labels[i] for i in order)
    return GramMatrix(g.family, g.n, g.lambda_ts, labels, entries)


def gram_to_json(g: GramMatrix) -> dict:
    from .diagram import render_diagram

    return {
        "family": g.family.value,
        "n": g.n,
        "lambda": g.lambda_ts,
        "rows": [render_diagram(h) for h in g.labels],
        "cols": [render_diagram(h) for h in g.labels],
        "entries": [[format_rational(x) for x in row] for row in g.entries],
    }


def gram_to_csv(g: GramMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in g.entries:
        writer.writerow([format_rational(x) for x in row])
    return buf.getvalue()


def matrix_from_csv(text: str) -> list[list[Rat]]:
    from .params import parse_rational

    rows = []
    for record in csv.reader(io.StringIO(text)):
        if not record:
            continue
        rows.append([parse_rational(x) for x in record])
    if not rows:
        raise PreconditionError("empty matrix")
    return rows
