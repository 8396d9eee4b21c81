"""Sandwich cell machinery: half diagrams from one walk that builds only
family members, cell coordinates, strict idempotents read off sandwich
coordinates, apex tables, and a JSON cache of half-diagram shapes.

A half diagram (bottom of a cell) is a plain Diagram n -> lambda, so
lambda is its top size m; its lambda through blocks each contain exactly
one top node and are undecorated; dead blocks carry one of the 3K
decorations.  Left cells of the diagram algebra fix the bottom half,
right cells fix the top half (the star image of a bottom half).

A cell's halves are its undecorated shapes, each decorated by one
product over its blocks, so a shape with d dead blocks has (3K)^d of
them.  ``checked_dims`` counts them that way, forming no half, and
compares the count with the closed form ``repcount.dim_left_cell`` at
every lambda; enumeration and counting read one shape source.
"""
from __future__ import annotations

import enum
import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from operator import itemgetter

from . import algebra
from .diagram import (
    Diagram,
    Factorization,
    factorize,
    is_member,
    parse_diagram,
    recompose,
    render_diagram,
    star,
    through_strands,
)
from .errors import InternalCheckError, ParseError, PreconditionError, check_guard
from .families import Family, admissible_lambdas, check_lambda
from .msmall import (
    CAYLEY_WHAT,
    CAYLEY_GUARD,
    CayleyMonoid,
    _group,
    _membership,
    cayley_of_m,
    check_wreath_cost,
    greens_cells_bruteforce,
    wreath_elements,
    wreath_mul,
    wreath_order,
)
from .params import MonoidParams, ParamSet, monoid_params_of
from .repcount import dim_left_cell


@dataclass(frozen=True)
class CellCoords:
    family: Family
    n: int
    lambda_ts: int
    left_index: int
    right_index: int


class ZeroPattern(enum.Enum):
    ALL_ZERO = "all-zero"
    SOME_NONZERO = "some-nonzero"


@dataclass(frozen=True)
class ApexSet:
    family: Family
    n: int
    zero_pattern: ZeroPattern
    apexes: frozenset[int]


# ---------------------------------------------------------------------------
# half-diagram enumeration
# ---------------------------------------------------------------------------

# the one bound on the number of halves about to be enumerated
HALVES_GUARD = 2_000_000
HALVES_WHAT = "the number of halves to enumerate"
# and on a J-cell's elements.  A Cayley table within CAYLEY_GUARD has at
# most 1,414 elements, so this bound refuses no table that one admits
JCELL_GUARD = 200_000


def _half_shapes(f: Family, n: int, lam: int) -> list[Diagram]:
    """Undecorated family bottoms with lam through blocks, sorted.
    One walk reads bottom nodes 1..n by the block rule's steps: a node
    opens a block, is a dead block alone (low <= 1), joins an open block
    that stays open (high >= 3; high is 2 or unbounded), or joins one and
    closes it as a dead block (high >= 2, side >= 2); a planar node joins
    only the innermost open block.  Blocks open after node n are through
    blocks, topped -1, -2, ... by least node: canonical as built.  Each of
    the rest nodes left opens or closes at most one block, so a step is
    taken only if it leaves open - rest * closes <= lam <= open + rest."""
    low, high, side = f.block_rule
    single, grows, closes = low <= 1, high >= 3, high >= 2 and side >= 2
    shapes = []
    blocks: list[tuple[list[int], bool]] = []  # (bottoms, still open), by least node
    reach: list[int] = []  # the open blocks a node may join, as indices into blocks

    def place(k: int, opened: int):
        # yields each child's arguments while its own step stands
        if k > n:
            tops = itertools.count(-1, -1)
            shape = [(tuple(bots) + ((next(tops),) if live else ()), 0, 0) for bots, live in blocks]
            shapes.append(Diagram(n, lam, tuple(shape)))
            return
        rest = n - k
        up, flat, down = (o - rest * closes <= lam <= o + rest for o in (opened + 1, opened, opened - 1))
        stay, shut = grows and flat, closes and down
        joinable = range(len(reach) if stay or shut else 0)
        for i in joinable[-1:] if f.planar else joinable:
            bots = blocks[reach[i]][0]
            bots.append(k)
            if stay:
                yield k + 1, opened
            if shut:
                b = reach.pop(i)
                blocks[b] = (bots, False)
                yield k + 1, opened - 1
                blocks[b] = (bots, True)
                reach.insert(i, b)
            bots.pop()
        if single and flat:
            blocks.append(([k], False))
            yield k + 1, opened
            blocks.pop()
        if up:
            joins = grows or closes  # a block that can take no node stays out of reach
            reach.extend([len(blocks)] * joins)
            blocks.append(([k], True))
            yield k + 1, opened + 1
            blocks.pop()
            del reach[len(reach) - joins:]

    stack = [place(1, 0)]  # the open branches, run depth first: n sets no depth limit
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(place(*child))
    shapes.sort(key=Diagram.sort_key)
    return shapes


def _is_dead(nodes: tuple[int, ...]) -> bool:
    """A half's block with no top node: it carries a decoration."""
    return all(v > 0 for v in nodes)


def _decorate(shape: Diagram, K: int):
    """Every half of the shape: one product over its blocks, a through
    block keeping its one option and a dead block taking each (h, mob) in
    [0, K) x {0, 1, 2}.  Decorating moves no node, so each half keeps the
    shape's canonical blocks and the Diagram constructor makes it.  A
    shape with no dead block is its own one half, and forms no decoration
    list, whatever K is."""
    if not any(_is_dead(nodes) for nodes, _, _ in shape.blocks):
        return (shape,)
    decos = [(h, mob) for h in range(K) for mob in range(3)]
    options = [
        tuple((block[0], *d) for d in decos) if _is_dead(block[0]) else (block,)
        for block in shape.blocks
    ]
    return (Diagram(shape.n, shape.m, blocks) for blocks in itertools.product(*options))


def _shapes_of_cell(
    f: Family, n: int, lambda_ts: int, K: int, cache_dir: str | None
) -> list[Diagram]:
    """The cell's undecorated half shapes, sorted canonically: from the
    cache_dir file, shared by every K, or else from _half_shapes and
    stored there.  The one shape source of enumeration and counting."""
    check_lambda(f, n, lambda_ts)
    if K <= 0:
        raise PreconditionError("K must be positive")
    shapes = None if cache_dir is None else _cache_load(cache_dir, f, n, lambda_ts)
    if shapes is None:
        shapes = _half_shapes(f, n, lambda_ts)
        if cache_dir is not None:
            try:
                _cache_store(cache_dir, f, n, lambda_ts, shapes)
            except OSError as exc:  # a cache_dir that cannot hold the file: a bad flag
                raise ParseError(f"cannot write shape cache in {cache_dir}: {exc}") from None
    return shapes


def enumerate_half_diagrams(
    f: Family, n: int, lambda_ts: int, K: int, cache_dir: str | None = None
) -> list[Diagram]:
    """All half diagrams for the cell (f, n, lambda), deterministic order:
    shapes sorted canonically, decorations in lexicographic order.  The
    shapes come from _shapes_of_cell; _decorate makes every half."""
    shapes = _shapes_of_cell(f, n, lambda_ts, K, cache_dir)
    return [d for shape in shapes for d in _decorate(shape, K)]


def count_half_diagrams(
    f: Family, n: int, lambda_ts: int, K: int, cache_dir: str | None = None
) -> int:
    """len(enumerate_half_diagrams(...)) without forming a half: a shape
    with d dead blocks has (3K)^d halves, one per decoration of each."""
    y = 3 * K
    return sum(
        y ** sum(1 for nodes, _, _ in shape.blocks if _is_dead(nodes))
        for shape in _shapes_of_cell(f, n, lambda_ts, K, cache_dir)
    )


def checked_dims(f: Family, n: int, K: int, cache_dir: str | None = None) -> dict[int, int]:
    """dim_left_cell for every admissible lambda, each compared with the
    number of halves counted over the walked (or cached) shapes.  Each
    dimension is charged to HALVES_GUARD as soon as it is formed, so a
    refusal forms none past the first one over the bound, and every guard
    check precedes the first shape walk; a disagreement is an
    InternalCheckError."""
    dims = {
        lam: check_guard(HALVES_WHAT, dim_left_cell(f, n, lam, K), HALVES_GUARD)
        for lam in admissible_lambdas(f, n)
    }
    for lam, val in dims.items():
        counted = count_half_diagrams(f, n, lam, K, cache_dir=cache_dir)
        if counted != val:
            raise InternalCheckError(f"closed form {val} != enumeration {counted} at lambda={lam}")
    return dims


# ---------------------------------------------------------------------------
# shape cache (JSON with schema version and checksum)
# ---------------------------------------------------------------------------

CACHE_FORMAT_VERSION = 2


def _cache_path(cache_dir: str, f: Family, n: int, lam: int) -> str:
    return os.path.join(cache_dir, f"shapes_{f.value}_n{n}_l{lam}.json")


def _cache_checksum(literals: list[str]) -> str:
    # imported on first cache use: hashlib loads OpenSSL, about 3.7 MiB of
    # resident memory that a process with no --cache-dir never needs
    import hashlib

    return hashlib.sha256("\n".join(literals).encode()).hexdigest()


def _cache_store(cache_dir: str, f: Family, n: int, lam: int, shapes) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    literals = [render_diagram(s) for s in shapes]
    payload = {
        "format_version": CACHE_FORMAT_VERSION,
        "family": f.value,
        "n": n,
        "lambda": lam,
        "shapes": literals,
        "checksum": _cache_checksum(literals),
    }
    # write beside the target and rename over it, so a reader never sees
    # a half-written file and a failed write leaves the old one in place
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, _cache_path(cache_dir, f, n, lam))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _cache_load(cache_dir: str, f: Family, n: int, lam: int):
    path = _cache_path(cache_dir, f, n, lam)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("format_version") != CACHE_FORMAT_VERSION:
            return None
        literals = payload["shapes"]
        if payload.get("checksum") != _cache_checksum(literals):
            return None  # corruption: regenerate
        return [parse_diagram(lit) for lit in literals]
    except (OSError, json.JSONDecodeError, KeyError, ParseError):
        return None


# ---------------------------------------------------------------------------
# cell coordinates
# ---------------------------------------------------------------------------


def cell_of(d: Diagram, f: Family, mp: MonoidParams) -> CellCoords:
    """Locate a normalized family diagram in its cell: lambda is the
    through-strand count, left/right indices point into the half-diagram
    enumeration (the right half is the star image of the top)."""
    if not is_member(d, f):
        raise PreconditionError(f"diagram is not in the {f.value} family")
    lam = through_strands(d)
    check_guard(HALVES_WHAT, dim_left_cell(f, d.n, lam, mp.K), HALVES_GUARD)
    fact = factorize(d, mp)
    halves = enumerate_half_diagrams(f, d.n, lam, mp.K)
    index = {h: i for i, h in enumerate(halves)}
    bottom = fact.bottom
    top_star = star(fact.top)
    try:
        return CellCoords(f, d.n, lam, index[bottom], index[top_star])
    except KeyError:
        raise InternalCheckError("factorized halves missing from enumeration") from None


# ---------------------------------------------------------------------------
# J-cell sizes and strict idempotents
# ---------------------------------------------------------------------------


def jcell_size(f: Family, n: int, lambda_ts: int, mp: MonoidParams) -> int:
    """The J-cell's size, halves squared times middles, without listing
    it; a size over JCELL_GUARD raises ResourceGuardError."""
    return check_wreath_cost(
        f"the size of the J-cell at lambda={lambda_ts}",
        lambda_ts,
        lambda: dim_left_cell(f, n, lambda_ts, mp.K) ** 2 * wreath_order(mp, lambda_ts, f.planar),
        JCELL_GUARD,
    )


def strict_idempotent(f: Family, n: int, lambda_ts: int, ps: ParamSet):
    """First basis element e with lambda_ts through strands, in canonical
    order, with e o e = s . e modulo fewer through strands and s != 0, as
    (e, s), or None.  Refused past JCELL_GUARD, before any element forms.

    Each element is e = star(t) m b for halves b, t and a middle m, and
    (t, m, b) -> e is injective.  With q = 1 - T^r, b o star(t) is 0 or
    one term c w, so e o e = c star(t) (m w m) b, which keeps lambda_ts
    through strands only if w does (star(t) x b closes no component for a
    middle x).  So e o e = s . e modulo fewer through strands exactly when
    c != 0, w keeps lambda_ts through strands and m w m = m, and then
    s = c: each pair of halves is composed once, and no e is squared."""
    mp = monoid_params_of(ps)
    jcell_size(f, n, lambda_ts, mp)
    halves = enumerate_half_diagrams(f, n, lambda_ts, mp.K)
    tops = [star(h) for h in halves]
    mids = list(wreath_elements(mp, lambda_ts, planar=f.planar))
    fixed: dict = {}  # w's middle -> the middles m with m w m = m

    def found():
        for b, t in itertools.product(halves, tops):
            for w, c in algebra.compose_diagrams(b, t, ps).terms:
                if through_strands(w) == lambda_ts:
                    w = factorize(w, mp).middle
                    if w not in fixed:
                        fixed[w] = [m for m in mids if wreath_mul(wreath_mul(m, w, mp), m, mp) == m]
                    yield from ((recompose(Factorization(t, m, b, lambda_ts)), c) for m in fixed[w])

    return min(found(), key=lambda ec: ec[0].sort_key(), default=None)


# ---------------------------------------------------------------------------
# apex tables
# ---------------------------------------------------------------------------


# the apexes one table may list
APEX_GUARD = 1_000_000


def apex_set(f: Family, n: int, zero_pattern: ZeroPattern) -> ApexSet:
    """Apexes of simple modules by family and evaluation zero-pattern.

    zero_pattern says whether every evaluation coefficient vanishes
    (ALL_ZERO) or at least one is nonzero (SOME_NONZERO).  For the
    Brauer and Temperley-Lieb rows the split between the two columns is
    stated in the source classification with a quantifier over indices
    k >= 1 whose scope is ambiguous; the table is implemented verbatim
    per column, and parameter sets exercised in the test suite satisfy
    both readings.

    Every entry is {n}, or the lambdas in [0, n] of n's parity or of any
    parity, less 0 under ALL_ZERO: one arithmetic progression, whose
    length is charged to APEX_GUARD before its set is formed.
    """
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    all_zero = zero_pattern is ZeroPattern.ALL_ZERO
    if f in (Family.SYMMETRIC, Family.PLANAR_SYMMETRIC) or (
        all_zero and f in (Family.ROOK, Family.PLANAR_ROOK)
    ):
        low, step = n, 1
    else:
        parity = f in (Family.BRAUER, Family.TEMPERLEY_LIEB) or (
            all_zero and f in (Family.ROOK_BRAUER, Family.MOTZKIN)
        )
        step = 2 if parity else 1
        low = n % step
        if all_zero and low == 0:
            low = step
    count = max(0, (n - low) // step + 1)
    check_guard("the number of apexes to list", count, APEX_GUARD)
    return ApexSet(f, n, zero_pattern, frozenset(range(low, n + 1, step)))


# ---------------------------------------------------------------------------
# decorated diagram monoids (for brute-force Green's cross-checks)
# ---------------------------------------------------------------------------


def enumerate_family_monoid(f: Family, n: int, mp: MonoidParams) -> list[Diagram]:
    """All decorated (n, n)-diagrams of the family, handle counts below K,
    in canonical order: star(top) o middle o bottom per J-cell, each
    refused past JCELL_GUARD before its halves are enumerated."""
    out = []
    for lam in admissible_lambdas(f, n):
        jcell_size(f, n, lam, mp)
        halves = enumerate_half_diagrams(f, n, lam, mp.K)
        tops = [star(h) for h in halves]
        mids = list(wreath_elements(mp, lam, planar=f.planar))
        out += [recompose(Factorization(t, m, b, lam)) for b in halves for t in tops for m in mids]
    out.sort(key=Diagram.sort_key)
    return out


def family_monoid_cayley(f: Family, n: int, mp: MonoidParams):
    """Cayley table of the decorated monoid with all evaluations 1.

    Returns (elements, CayleyMonoid); the table comes from
    ``algebra.monoid_table``, one merge topology per shape pair.  Guarded
    by the Green's size limit, checked before anything is enumerated.
    """
    size = sum(jcell_size(f, n, lam, mp) for lam in admissible_lambdas(f, n))
    check_guard(CAYLEY_WHAT, size * size, CAYLEY_GUARD)
    elements = enumerate_family_monoid(f, n, mp)
    return elements, CayleyMonoid(elements, algebra.monoid_table(elements, mp))


def predicted_cells(elements: list[Diagram], f: Family, mp: MonoidParams):
    """The decorated monoid's Green cells predicted from factorizations,
    as (L, R, J, H) index partitions in greens_cells_bruteforce's format.

    Cells lie in one through-strand layer lambda.  Two elements are L-
    (R-) related iff their bottoms (tops) agree and their middles are L-
    (R-) related in W = M wr S_lambda (M^lambda if planar), J-related iff
    their middles are, and H-related iff L- and R-related.  W's cells
    come from M's: for x = (s; p), strands s by top position and p
    sending bottom k to top p[k], let t_k = s_(p[k]) (bottom order).
    * R: x R y iff s_i R y_i in M for each i, as x (g; q) has strands
      s_i g_(p^-1 i) and permutation pq, each factor free.
    * L: t_k L (y's t_k) for each k, as (g; q) x has strands g_(qp[k]) t_k.
    * J = D = L o R, W being finite.  x L z R y keeps each strand's
      J-class along z's matching of bottom to top, so x's and y's strands
      have the same J-classes as a multiset (as a tuple when p = 1).  A
      matching t_k J y_(sigma k) gives w_k with t_k L w_k R y_(sigma k),
      and w_k joining bottom k to top sigma(k) makes such a z.

    Where each block goes in the factorization depends on the shape
    alone, so one element per shape is factorized (``_layout``).  Every
    element's bottom is then its bottom half's shape and the codes
    3h + mob of its bottom-dead blocks, its top likewise, and its strands
    are the codes of its through blocks, read in bottom and in top order
    through M's cell membership lists, which are indexed by code.
    """
    planar = f.planar
    shapes = _group((i, tuple([nodes for nodes, _, _ in d.blocks])) for i, d in enumerate(elements))
    layouts = [_layout(elements[members[0]], mp) for members in shapes.values()]
    l_of = r_of = j_of = []
    if any(layout[2] for layout in layouts):  # else no strand reads M's cells
        mono = cayley_of_m(mp)
        m_cells = greens_cells_bruteforce(mono)
        l_of, r_of, j_of = (
            _membership(part, mono.size)
            for part in (m_cells.l_cells, m_cells.r_cells, m_cells.j_cells)
        )
    keys: list = [None] * len(elements)  # per element: L-, R- and J-key
    halves: dict[tuple, int] = {}  # half shape -> its number
    for members, ((bottom, bottom_dead), (top, top_dead), by_bottom, by_top) in zip(
        shapes.values(), layouts
    ):
        b, t = halves.setdefault(bottom, len(halves)), halves.setdefault(top, len(halves))
        for i in members:
            codes = _block_codes(elements[i], mp)
            strands = [codes[k] for k in by_top]
            j_key = [j_of[c] for c in strands]
            keys[i] = (
                (b, *[codes[k] for k in bottom_dead], *[l_of[codes[k]] for k in by_bottom]),
                (t, *[codes[k] for k in top_dead], *[r_of[c] for c in strands]),
                (len(strands), *(j_key if planar else sorted(j_key))),
            )
    return tuple(
        list(_group((i, key_of(key)) for i, key in enumerate(keys)).values())
        for key_of in (itemgetter(0), itemgetter(1), itemgetter(2), itemgetter(0, 1))
    )


def _layout(d: Diagram, mp: MonoidParams) -> tuple:
    """Where d's blocks go in its factorization, the same for every
    element of d's shape: ((bottom half's shape, its dead blocks), (top
    half's shape, its dead blocks), through blocks by bottom position,
    through blocks by top position), each block as its index in d.
    Dead blocks keep their order by least node, as the halves list them."""
    fact = factorize(d, mp)
    block_of = {v: i for i, (nodes, _, _) in enumerate(d.blocks) for v in nodes}
    by_bottom = [0] * fact.lambda_ts
    by_top = [0] * fact.lambda_ts
    for nodes, _, _ in fact.bottom.blocks:  # a through block ends in its top node
        if nodes[-1] < 0:
            by_bottom[-nodes[-1] - 1] = block_of[nodes[0]]
    for nodes, _, _ in fact.top.blocks:  # a through block starts with its bottom node
        if nodes[0] > 0:
            by_top[nodes[0] - 1] = block_of[nodes[-1]]
    return tuple(
        (tuple([nodes for nodes, _, _ in half.blocks]),
         [block_of[nodes[0]] for nodes, _, _ in half.blocks
          if (nodes[0] > 0) == (nodes[-1] > 0)])  # a dead block's nodes lie on one side
        for half in (fact.bottom, fact.top)
    ) + (by_bottom, by_top)


def _block_codes(d: Diagram, mp: MonoidParams) -> list[int]:
    """Each block's decoration (h, mob) as 3h + mob, its index among M's
    elements, under ``factorize``'s conditions on every block."""
    codes = []
    for _, h, mob in d.blocks:
        if mob > 2:
            raise PreconditionError("factorize needs mob-normalized input")
        if h >= mp.K:
            raise PreconditionError("factorize needs handle counts below K")
        codes.append(3 * h + mob)
    return codes
