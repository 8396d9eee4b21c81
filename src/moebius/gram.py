"""Gram matrices per J-cell, exact rank and determinant via fraction-free
elimination, closed-form predictions, and the full-rank condition check.

The entry for a (row, column) pair of half diagrams (top, bottom) is the
eigenvalue of the corresponding H-cell's pseudo-idempotent: composing
bottom o star(top) gives a scalar multiple c of one basis diagram w, and
the entry is c when w keeps all lambda through strands, else 0.  With
q = 1 - T^r a handle rewrite multiplies by 1, so c is the product of
``evaluate_closed`` over the closed components of the stack.  Which
blocks form those components, and how many through strands survive,
depends on the two half shapes alone, and only dead blocks carry
decorations.  So the kernel takes one ``algebra._topology`` layout per
ordered pair of half shapes, and leaves a pair with fewer than lambda
through components at 0.  The other pairs join the shape groups into
blocks, and their entries are written straight into each block's square
from the halves' decoration sums per component.  One table per matrix
holds each distinct product of closed components' values, formed once.

The pseudo-idempotent exists because the middle w of the composite
always has an m with m w m = m among its own powers: if w has index i
and period t, then m = w^p for any p >= i with t | p + 1 gives
m w m = w^(2p+1) = w^p.  Per shape pair, each distinct w (its through
components' decorations) is checked once: its first nonzero entry is
composed in full, the composite must agree with the kernel's entry, and
its factorized middle is walked w, w^2, ... to the first m that passes
m w m = m, once per distinct middle of the matrix.  A disagreement, or a
power that repeats first (a non-associative product), is an internal
error.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import attrgetter

from . import algebra
from .algebra import _summed, evaluate_closed
from .cells import enumerate_half_diagrams
from .diagram import Diagram, _star_layout, factorize, render_diagram, star, through_strands
from .errors import PRINTABLE_BITS, InternalCheckError, PreconditionError, check_guard
from .families import Family, check_lambda
from .msmall import _group, _index_components, m_code, wreath_mul
from .params import ParamSet, Rat, format_rational, monoid_params_of
from .repcount import dim_left_cell

SIZE_GUARD = 2000
_ZERO = Fraction(0)
_ONE = Fraction(1)
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


@dataclass(frozen=True)
class GramMatrix:
    family: Family
    n: int
    lambda_ts: int
    labels: tuple[Diagram, ...]  # half diagrams; rows are their star images
    # (ascending index set, the square of its entries), by least index; the
    # index sets partition range(dim), and every entry outside them is 0
    blocks: tuple[tuple[tuple[int, ...], tuple[tuple[Rat, ...], ...]], ...]

    @cached_property
    def entries(self) -> tuple[tuple[Rat, ...], ...]:
        """The dense matrix, formed from the blocks when first read."""
        rows = [[_ZERO] * len(self.labels) for _ in self.labels]
        for idx, square in self.blocks:
            for i, row in zip(idx, square):
                for j, x in zip(idx, row):
                    rows[i][j] = x
        return tuple(map(tuple, rows))


@dataclass(frozen=True)
class RankReport:
    rank: int
    det: Rat | None = None


def gram_matrix(f: Family, n: int, lambda_ts: int, ps: ParamSet) -> GramMatrix:
    """Full Gram matrix over the canonical half-diagram ordering; rows are
    the star images of the columns."""
    check_lambda(f, n, lambda_ts)
    mp = monoid_params_of(ps)
    check_guard("the Gram dimension", dim_left_cell(f, n, lambda_ts, mp.K), SIZE_GUARD)
    halves = enumerate_half_diagrams(f, n, lambda_ts, mp.K)
    return GramMatrix(f, n, lambda_ts, tuple(halves), _gram_blocks(halves, n, lambda_ts, ps, mp))


def _gram_blocks(halves, n, lam, ps, mp) -> tuple:
    """``GramMatrix.blocks`` with rows halves (through their star images)
    and the same halves as columns, all n -> lam.

    Each ordered pair of shape groups is laid out once by
    ``algebra._topology``, from the star's shape (``diagram._star_layout``
    maps its blocks back to the top's) and the bottom's.  A pair with
    fewer than lam through components stays 0; the kept pairs join the
    groups into blocks, each with one square, and each kept pair's entries
    go straight into its block's square."""
    grouped = _group(enumerate(map(_shape, halves)))  # shape -> its halves' indices
    groups = list(grouped.values())
    kept = []  # (top group, bottom group, star layout, through, closed)
    for a, top_shape in enumerate(grouped):
        layout = _star_layout(top_shape)
        star_shape = tuple([nodes for nodes, _ in layout])
        for b, bottom_shape in enumerate(grouped):
            opened, closed = algebra._topology(star_shape, bottom_shape, n)
            through = [members for nodes, members in opened if nodes[0] > 0 > nodes[-1]]
            if len(through) >= lam:
                kept.append((a, b, layout, through, closed))
    comps = _index_components(len(groups), (pair[:2] for pair in kept))
    block_of = {a: k for k, comp in enumerate(comps) for a in comp}
    index_sets = [tuple(sorted(i for a in comp for i in groups[a])) for comp in comps]
    pos = {i: p for idx in index_sets for p, i in enumerate(idx)}  # half -> place in its block
    members = [[halves[i] for i in idx] for idx in index_sets]
    squares = [[[_ZERO] * len(idx) for _ in idx] for idx in index_sets]
    values: dict[tuple[int, int], Rat] = {}  # summed closed decoration -> value
    products: dict = {}  # (closed components, radix) -> summed code -> entry
    walked: set = set()  # middles already walked, for this call only

    def value(dec):
        x = values.get(dec)
        if x is None:
            x = values[dec] = evaluate_closed(dec, ps)
        return x

    for top, bottom, layout, through, closed in kept:
        offset, square = len(layout), squares[block_of[top]]

        def sums(comps):
            # (top place -> sums, bottom place -> sums) over comps
            top_parts = [[layout[i][1] for i in c if i < offset] for c in comps]
            bottom_parts = [[i - offset for i in c if i >= offset] for c in comps]
            return (_sums(halves, pos, groups[top], top_parts),
                    _sums(halves, pos, groups[bottom], bottom_parts))

        top_closed, bottom_closed = sums(closed)
        # digits below radix: a top's code plus a bottom's is the code of
        # their summed closed decorations, with no carry, so with the
        # component count and radix it names one product in the matrix
        radix = _largest(top_closed) + _largest(bottom_closed) + 1
        table = products.setdefault((len(closed), radix), {})
        bcodes = [(c, _code(b, radix), b) for c, b in bottom_closed.items()]
        for r, t in top_closed.items():
            row, tcode = square[r], _code(t, radix)
            for c, bcode, b in bcodes:
                x = table.get(tcode + bcode)
                if x is None:
                    x = table[tcode + bcode] = prod(
                        [value((th + bh, tm + bm)) for (th, tm), (bh, bm) in zip(t, b)],
                        start=_ONE,
                    )
                row[c] = x
        _check_pair_keys(members[block_of[top]], square, *sums(through), ps, mp, walked)
    return tuple(zip(index_sets, (tuple(map(tuple, square)) for square in squares)))


def _shape(half: Diagram) -> tuple:
    return tuple([nodes for nodes, _, _ in half.blocks])


def _sums(halves, pos, idx, parts) -> dict[int, tuple]:
    """Place in its block -> the half's (h, mob) sums over each part's blocks."""
    return {pos[k]: tuple([_summed(halves[k].blocks, part) for part in parts]) for k in idx}


def _largest(sums) -> int:
    return max((v for decs in sums.values() for dec in decs for v in dec), default=0)


def _code(decs, radix) -> int:
    """The (h, mob) pairs as the digits of one number in base radix."""
    code = 0
    for h, mob in decs:
        code = (code * radix + h) * radix + mob
    return code


def _check_pair_keys(members, square, top_through, bottom_through, ps, mp, walked) -> None:
    """The regularity check, once per distinct key of one shape pair.

    A key is the through components' summed decorations, multiplied in M
    as a composite reduces them and coded as M's Cayley indices
    (``msmall.m_code``), so it names the composite w.  Its first nonzero
    entry is composed in full: the coefficient must equal the kernel's
    entry and every through strand must survive.  Then w's factorized
    middle is walked by ``_check_regular_power``, once per distinct
    middle."""
    top_classes = _group(top_through.items())
    bottom_classes = _group(bottom_through.items())
    seen = set()
    for t_through, rs in top_classes.items():
        for b_through, cs in bottom_classes.items():
            key = tuple([
                m_code(th + bh, tm + bm, mp) for (th, tm), (bh, bm) in zip(t_through, b_through)
            ])
            if key in seen:
                continue
            rep = next(((r, c) for r in rs for c in cs if square[r][c]), None)
            if rep is None:
                continue
            seen.add(key)
            r, c = rep
            x = algebra.compose_diagrams(members[c], star(members[r]), ps)
            if (
                len(x.terms) != 1
                or x.terms[0][1] != square[r][c]
                or through_strands(x.terms[0][0]) < members[c].m
            ):
                raise InternalCheckError(
                    f"shape-pair entry {format_rational(square[r][c])} disagrees with "
                    f"the composite {x.to_json()}"
                )
            w_mid = factorize(x.terms[0][0], mp).middle
            if w_mid not in walked:
                _check_regular_power(w_mid, mp)
                walked.add(w_mid)


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
# exact rank / determinant: blocks, Kronecker factors, fraction-free Bareiss
# ---------------------------------------------------------------------------


def exact_rank(mat) -> RankReport:
    """Rank by integer fraction-free elimination; determinant when square.

    A GramMatrix is taken by its stored blocks, and square rows as one
    block; rows that are not square are scaled to integers and
    eliminated once, with no determinant.  Each block's rows are made
    primitive integer rows once (``_integer_rows``), and the block's
    (rank, det) comes from ``_rank_det``.

    * Kronecker split.  When ``_kronecker_split`` finds the block W =
      (A' (x) B) / piv, with A' k x k, B b x b and N = kb, both factors
      are ranked the same way.  With invertible P, Q such that A' =
      P_A E_A Q_A and B = P_B E_B Q_B, E_A and E_B diagonal 0/1 matrices
      of rank(A') and rank(B) ones, A' (x) B = (P_A (x) P_B)(E_A (x)
      E_B)(Q_A (x) Q_B), so rank(A' (x) B) = rank(A') rank(B).  And A'
      (x) B = (A' (x) I_b)(I_k (x) B), where A' (x) I_b is b copies of A'
      up to a permutation of rows and columns alike, so det(A' (x) B) =
      det(A')^b det(B)^k.  Hence det(W) = det(A')^b det(B)^k / piv^N;
      W is an integer matrix, so its determinant is an integer and the
      division is exact.
    * Pattern split.  A block or factor that does not split is split
      into the connected components of its nonzero pattern (i ~ j when
      entry (i, j) or (j, i) is nonzero), and Bareiss eliminates each.
      Permuting rows and columns alike puts it in block-diagonal form
      without changing the determinant, so ranks add and determinants
      multiply over the components.

    Within one call, a block of the same entry objects as an earlier one
    (as the kernel's shared products give equal blocks) reuses its
    integer rows, and any block or factor with the same integer rows as
    an earlier one reuses its (rank, det); a block's own row scales still
    divide the determinant.  So the 3K x 3K one-strand factor of every
    block of a rook cell is eliminated once.
    """
    if isinstance(mat, GramMatrix):
        squares = [square for _, square in mat.blocks]
    else:
        rows = [list(row) for row in mat]
        width = len(rows[0]) if rows else 0
        if any(len(row) != width for row in rows):
            raise PreconditionError("matrix rows have unequal lengths")
        if width != len(rows):  # no determinant, so the row scales go unused
            work, _ = _integer_rows(rows)
            return RankReport(_eliminate(list(map(list, work)))[0])
        squares = [rows]
    rank, det, scale = 0, 1, 1
    converted: dict = {}  # entry ids (the squares keep them alive) -> _integer_rows
    eliminated: dict = {}  # integer rows, of blocks and their factors -> (rank, det)
    for square in squares:
        ids = tuple([tuple(map(id, row)) for row in square])
        if ids not in converted:
            converted[ids] = _integer_rows(square)
        work, block_scale = converted[ids]
        scale *= block_scale
        block_rank, block_det = _rank_det(work, eliminated)
        rank += block_rank
        det *= block_det
    return RankReport(rank=rank, det=Fraction(det, scale))


def _rank_det(work, eliminated) -> tuple[int, int]:
    """(rank, det) of square integer rows through a Kronecker split when
    one holds, else per pattern component (see ``exact_rank``), memoized
    in eliminated."""
    found = eliminated.get(work)
    if found is None:
        split = _kronecker_split(work)
        if split is None:
            comps = [_eliminate([[work[i][j] for j in c] for i in c]) for c in _pattern_components(work)]
            found = sum(r for r, _ in comps), prod(d for _, d in comps)
        else:
            a, b, piv = split
            (rank_a, det_a), (rank_b, det_b) = _rank_det(a, eliminated), _rank_det(b, eliminated)
            found = rank_a * rank_b, det_a ** len(b) * det_b ** len(a) // piv ** len(work)
        eliminated[work] = found
    return found


def _kronecker_split(work):
    """(A', B, piv) with work = (A' (x) B) / piv, all integer, or None.

    The sizes k of A' are tried in increasing order over the divisors of
    N = len(work) with 1 < k < N, and b = N / k.  piv is work's first
    nonzero entry (row by row), B is the b x b sub-block that holds it,
    at (p0, q0) within the sub-block, and A'[i][j] = work[ib+p0][jb+q0].
    The split holds exactly when work[ib+p][jb+q] * piv == A'[i][j] *
    B[p][q] for every entry; each try stops at its first mismatch, so a
    failed try costs at most N^2 integer comparisons."""
    n = len(work)
    first = next(((r, c) for r, row in enumerate(work) for c, x in enumerate(row) if x), None)
    if first is None:
        return None
    r0, c0 = first
    piv = work[r0][c0]
    for k in range(2, n):
        if n % k:
            continue
        b = n // k
        (i0, p0), (j0, q0) = divmod(r0, b), divmod(c0, b)
        a_rows = tuple([tuple(work[i * b + p0][q0::b]) for i in range(k)])
        b_rows = tuple([work[i0 * b + p][j0 * b:(j0 + 1) * b] for p in range(b)])
        if all(
            [x * piv for x in work[i * b + p][j * b:(j + 1) * b]] == [a * y for y in b_rows[p]]
            for i, a_row in enumerate(a_rows)
            for p in range(b)
            for j, a in enumerate(a_row)
        ):
            return a_rows, b_rows, piv
    return None


def _pattern_components(rows) -> list[list[int]]:
    """Index sets of the connected components of a square matrix's nonzero
    pattern, each ascending, in order of their least index."""
    edges = ((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x)
    return _index_components(len(rows), edges)


def _integer_rows(rows) -> tuple[tuple[tuple[int, ...], ...], Fraction]:
    """Each row of int or Fraction entries as the primitive integer row
    along it (times the lcm of its denominators, then over the gcd of
    those integers; a zero row stays 0), as a tuple of row tuples, and
    the product of the rows' factors lcm / gcd.

    The gcd of all products u_j v_q is gcd(u) gcd(v), so the primitive
    row along u (x) v is the primitive row along u times the one along v:
    a Kronecker product of rational squares has the Kronecker product of
    their primitive rows as its rows.  A row's denominators are read in
    one pass, and a row whose denominators are all 1 is its numerators."""
    work, scale, content = [], 1, 1
    for row in rows:
        dens = list(map(_denominator, row))
        row_scale = lcm(*dens)
        if row_scale == 1:
            ints = list(map(_numerator, row))
        else:
            ints = [x.numerator * (row_scale // d) for x, d in zip(row, dens)]
        row_gcd = gcd(*ints) or 1
        scale *= row_scale
        content *= row_gcd
        work.append(tuple(ints) if row_gcd == 1 else tuple([x // row_gcd for x in ints]))
    return tuple(work), Fraction(scale, content)


def _eliminate(work: list[list[int]]) -> tuple[int, int | None]:
    """Rank of integer rows by Bareiss elimination in place, and the
    determinant when square."""
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
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
    if nrows != ncols:
        return rank, None
    return rank, sign * prev if rank == nrows else 0


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
    Unless the base is 0 or +-1, the power's size in bits, at most the
    exponent times the bits of the base's larger term, must stay within
    PRINTABLE_BITS; n, a lower bound on it, is checked before the
    exponent is formed.
    """
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    a0, b0, g0 = Fraction(alpha0), Fraction(beta0), Fraction(gamma0)
    base = (a0 - g0) * (g0 * g0 - b0 * b0)
    if n == 0:
        return Fraction(1)
    if base in (0, 1, -1):
        return base ** (2 - n % 2)  # the exponent has n's parity
    what = "the size in bits of the determinant"
    check_guard(f"n (a lower bound on {what})", n, PRINTABLE_BITS)
    exponent = n * 3 ** (n - 1)
    bits = (max(abs(base.numerator), base.denominator) - 1).bit_length()
    check_guard(what, exponent * bits, PRINTABLE_BITS)
    return base ** exponent


def gramcond_check(n: int, lambda_ts: int, alpha0, beta0, gamma0) -> bool:
    """Nonvanishing of the displayed full-rank product with lbar = n - lambda:

        prod_{i=1..lbar} ((a^i - g^i) - sum_{k=1..i-1} C(i,k) (a^(i-k) g^k - g^i))
                         ^ (C(lbar,i) 2^(lbar-i))
        * (g^2 - b^2) ^ (lbar 3^(lbar-1))

    The i-th factor is read in closed form: the binomial theorem gives
    sum_{k=1..i-1} C(i,k) a^(i-k) g^k = (a+g)^i - a^i - g^i and
    sum_{k=1..i-1} C(i,k) = 2^i - 2, so the factor is
    2 a^i - (a+g)^i + (2^i - 2) g^i.

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
    return all(2 * a0**i - (a0 + g0) ** i + (2**i - 2) * g0**i for i in range(1, lbar + 1))


# ---------------------------------------------------------------------------
# optional orderings and serialization
# ---------------------------------------------------------------------------


def mob_grouped_order(halves: tuple[Diagram, ...]) -> list[int]:
    """Row/column order grouping halves by their set of crosscap-dotted
    blocks (fewer dotted groups first, leftmost dotted positions first,
    then earlier positions varying fastest).  Rank is order-invariant;
    this ordering reproduces the block-triangular reduction visually."""
    def key(idx):
        dotted = [(pos, mob) for pos, (_, _, mob) in enumerate(halves[idx].blocks) if mob]
        return len(dotted), [pos for pos, _ in dotted], [mob for _, mob in reversed(dotted)]

    return sorted(range(len(halves)), key=key)  # stable: ties keep the canonical order


def gram_to_json(g: GramMatrix, order: list[int] | None = None) -> dict:
    """The matrix with its labels, rows and columns alike in order (a
    permutation of range(dim); canonical when None)."""
    order = range(len(g.labels)) if order is None else order
    labels = [render_diagram(g.labels[i]) for i in order]
    return {
        "family": g.family.value,
        "n": g.n,
        "lambda": g.lambda_ts,
        "rows": labels,
        "cols": labels,
        "entries": _formatted(g, order),
    }


def gram_to_csv(g: GramMatrix, order: list[int] | None = None) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(_formatted(g, range(len(g.labels)) if order is None else order))
    return buf.getvalue()


def _formatted(g: GramMatrix, order) -> list[list[str]]:
    rows = g.entries
    return [[format_rational(rows[r][c]) for c in order] for r in order]
