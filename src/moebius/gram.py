"""Gram matrices per J-cell, exact rank and determinant via sparse integer
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
from the halves' decoration sums per component, each (shape group,
components) sum taken once.  One table per matrix holds each distinct
product of closed components' values, each formed from the product one
component shorter times the last component's value.  A block of one
shape group is fixed by its pair's closed count, radix and the halves'
codes, so equal such blocks are formed once and share one square.

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
from itertools import chain
from math import gcd, lcm
from operator import attrgetter

from . import algebra
from .algebra import _code, _summed, evaluate_closed
from .cells import enumerate_half_diagrams
from .diagram import Diagram, _star_layout, factorize, render_diagram, star, through_strands
from .errors import PRINTABLE_BITS, InternalCheckError, PreconditionError, check_guard
from .families import Family, check_lambda
from .msmall import _cycles, _group, _index_components, m_code, wreath_mul
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
    groups into blocks, and each kept pair's entries go straight into its
    block's square, made when the block's first pair fills it.

    A block of one shape group has one kept pair, the group with itself,
    and its square is fixed by the pair's closed count, radix and the
    halves' closed codes in place order: a later such pair with the same
    key takes the earlier square, so equal blocks are one object.  Every
    kept pair's regularity check still runs on its own members."""
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
    squares: list = [None] * len(comps)
    filled: dict = {}  # key of a one-group block -> its square
    summed: dict = {}  # (group, parts) -> _sums
    values: dict[tuple[int, int], Rat] = {}  # summed closed decoration -> value
    products: dict = {}  # (closed components, radix) -> summed code -> product
    walked: set = set()  # middles already walked, for this call only

    def value(dec):
        x = values.get(dec)
        if x is None:
            x = values[dec] = evaluate_closed(dec, ps)
        return x

    def product(count, radix, code):
        # the product of count closed components' values, code their summed
        # (h, mob) digits in radix; the last component's two digits are the
        # lowest, so it is the product one component shorter times one value
        table = products.setdefault((count, radix), {})
        x = table.get(code)
        if x is None:
            if count == 0:
                x = _ONE
            else:
                prefix, last = divmod(code, radix * radix)
                x = product(count - 1, radix, prefix) * value(divmod(last, radix))
            table[code] = x
        return x

    def sums(group, parts):
        key = group, tuple(map(tuple, parts))
        found = summed.get(key)
        if found is None:
            found = summed[key] = _sums(halves, pos, groups[group], parts)
        return found

    for top, bottom, layout, through, closed in kept:
        offset, k = len(layout), block_of[top]

        def pair_sums(comps):
            # (top place -> sums, bottom place -> sums) over comps
            return (sums(top, [[layout[i][1] for i in c if i < offset] for c in comps]),
                    sums(bottom, [[i - offset for i in c if i >= offset] for c in comps]))

        top_closed, bottom_closed = pair_sums(closed)
        # digits below radix: a top's code plus a bottom's is the code of
        # their summed closed decorations, with no carry, so with the
        # component count and radix it names one product in the matrix
        radix = _largest(top_closed) + _largest(bottom_closed) + 1
        tcodes = [(r, _code(chain.from_iterable(t), radix)) for r, t in top_closed.items()]
        bcodes = [(c, _code(chain.from_iterable(b), radix)) for c, b in bottom_closed.items()]
        alone = len(comps[k]) == 1  # its one kept pair is the group with itself
        key = (len(closed), radix, tuple([code for _, code in tcodes]),
               tuple([code for _, code in bcodes]))
        square = filled.get(key) if alone else None
        if square is None:
            size = len(index_sets[k])
            square = squares[k] or [[_ZERO] * size for _ in range(size)]
            table = products.setdefault((len(closed), radix), {})
            for r, tcode in tcodes:
                row = square[r]
                for c, bcode in bcodes:
                    x = table.get(tcode + bcode)
                    row[c] = product(len(closed), radix, tcode + bcode) if x is None else x
            if alone:
                square = filled[key] = tuple(map(tuple, square))
        squares[k] = square
        _check_pair_keys(members[k], square, *pair_sums(through), ps, mp, walked)
    return tuple(zip(index_sets, [
        square if isinstance(square, tuple) else tuple(map(tuple, square)) for square in squares
    ]))


def _shape(half: Diagram) -> tuple:
    return tuple([nodes for nodes, _, _ in half.blocks])


def _sums(halves, pos, idx, parts) -> dict[int, tuple]:
    """Place in its block -> the half's (h, mob) sums over each part's blocks."""
    return {pos[k]: tuple([_summed(halves[k].blocks, part) for part in parts]) for k in idx}


def _largest(sums) -> int:
    return max((v for decs in sums.values() for dec in decs for v in dec), default=0)


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
# exact rank / determinant: blocks, Kronecker factors, sparse elimination
# ---------------------------------------------------------------------------


def exact_rank(mat) -> RankReport:
    """Rank by exact sparse integer elimination; determinant when square.

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
    * Sparse elimination.  A block or factor that does not split, and
      rows that are not square, go to ``_eliminate``, which keeps each
      row as a {column: entry} dict of its nonzero entries.  Each step
      takes the first of the rows with the fewest nonzeros as the pivot
      row, and its least column c, with entry piv, as the pivot column.
      Every other row with head h at c becomes the primitive row along
      a row - b prow, where g = gcd(piv, h), a = piv / g and b = h / g;
      a row that cancels to 0 leaves.  That multiplies the determinant
      by a / content, and the pivot rows, each 0 at the pivot columns
      before its own, are triangular with each row at its pivot column.
      So det = sign prod(piv) prod(content) / prod(a), exactly, with
      sign that of the permutation taking each row to its pivot column;
      the rank is the number of pivots, and det is 0 below full rank.
      A row changes only when it shares the pivot column with the pivot
      row, and then only within the two rows' columns, so rows of two
      components of the nonzero pattern never meet: a block-diagonal
      matrix, in any order, costs what its components cost.

    Within one call, a block whose square is the very object of an
    earlier block's (as the kernel shares equal one-shape blocks) reuses
    its integer rows without reading the square again; a block of the
    same entry objects as an earlier one (as the kernel's shared products
    give equal blocks) reuses them too; and any block or factor with the
    same integer rows as an earlier one reuses its (rank, det).  A
    block's own row scales still divide the determinant.  So the 3K x 3K
    one-strand factor of every block of a rook cell is eliminated once,
    and the rook cell's one shared square is converted once.
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
            return RankReport(_eliminate(work)[0])
        squares = [rows]
    rank, det, scale = 0, 1, 1
    shared: dict = {}  # square ids (mat.blocks keeps them alive) -> _integer_rows
    converted: dict = {}  # entry ids (the squares keep them alive) -> _integer_rows
    eliminated: dict = {}  # integer rows, of blocks and their factors -> (rank, det)
    for square in squares:
        found = shared.get(id(square))
        if found is None:
            ids = tuple([tuple(map(id, row)) for row in square])
            if ids not in converted:
                converted[ids] = _integer_rows(square)
            found = shared[id(square)] = converted[ids]
        work, block_scale = found
        scale *= block_scale
        block_rank, block_det = _rank_det(work, eliminated)
        rank += block_rank
        det *= block_det
    return RankReport(rank=rank, det=Fraction(det, scale))


def _rank_det(work, eliminated) -> tuple[int, int]:
    """(rank, det) of square integer rows through a Kronecker split when
    one holds, else by ``_eliminate`` (see ``exact_rank``), memoized in
    eliminated."""
    found = eliminated.get(work)
    if found is None:
        split = _kronecker_split(work)
        if split is None:
            found = _eliminate(work)
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


def _eliminate(work) -> tuple[int, int | None]:
    """Rank of integer rows by sparse elimination (see ``exact_rank``),
    and the determinant when square."""
    # row index -> {column: entry} of its nonzero entries, zero rows left out
    rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(work) if any(row)}
    col_of, num, den = {}, 1, 1  # det = sign * num / den
    while rows:
        p = min(rows, key=lambda i: len(rows[i]))  # the first of the sparsest
        prow = rows.pop(p)
        c = min(prow)
        piv = prow[c]
        col_of[p], num = c, num * piv
        for i, row in list(rows.items()):
            h = row.get(c)
            if h is None:
                continue
            g = gcd(piv, h)
            a, b = piv // g, h // g
            if a != 1:
                row = {j: a * x for j, x in row.items()}
            for j, y in prow.items():
                x = row.get(j, 0) - b * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            if not row:
                del rows[i]
                continue
            content = gcd(*row.values())
            rows[i] = row if content == 1 else {j: x // content for j, x in row.items()}
            num, den = num * content, den * a
    n = len(work)
    if n != (len(work[0]) if work else 0):
        return len(col_of), None
    if len(col_of) < n:
        return len(col_of), 0
    sign = (-1) ** (n - len(_cycles(tuple([col_of[i] + 1 for i in range(n)]))))
    return n, sign * num // den


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
