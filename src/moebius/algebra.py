"""The linear diagram calculus: rational combinations of diagrams,
composition with closed-component evaluation and handle linearization,
plus the 0/1-valued monoid composition mode.

Composition stacks f on top of g (f o g applies g first): g's top is
identified with f's bottom.  Each component of the stack is a union of
whole blocks of f and g joined at interface nodes; its decoration is the
sum of theirs, and every component without boundary nodes evaluates to
a series coefficient which multiplies the term.

Which blocks join, and where the result's blocks and nodes sit in
``Diagram``'s canonical order, depends on the two shapes alone.
``_topology`` works that layout out once per shape pair; each
composition replays it, summing decorations per component and building
the result with the ``Diagram`` constructor, with no re-sort and no
re-validation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from math import prod
from operator import getitem, itemgetter

from .diagram import Diagram, least_node_key, node_key, render_diagram
from .errors import HANDLE_GUARD, InternalCheckError, PreconditionError, check_guard
from .msmall import _index_components, cayley_of_m
from .params import (
    MonoidParams,
    ParamSet,
    Rat,
    format_rational,
    handle_reduce_monoid,
    reduce_mob_pair,
    series_coeff,
)


def evaluate_closed(dec: tuple[int, int], ps: ParamSet) -> Rat:
    """Value of a boundary-free component with decoration (h, mob).

    The crosscap count is first reduced into {0, 1, 2} (raising h), then
    the component reads alpha_h / beta_h / gamma_h for mob = 0 / 1 / 2.
    The raw h may exceed K; by the series recurrence this equals the
    handle-expanded evaluation.
    """
    h, mob = reduce_mob_pair(*dec)
    kind = ("alpha", "beta", "gamma")[mob]
    return series_coeff(ps, kind, h)


# ---------------------------------------------------------------------------
# linear combinations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinComb:
    """Finite rational combination of diagrams with common boundary."""

    n: int
    m: int
    terms: tuple[tuple[Diagram, Rat], ...]  # canonically sorted, no zeros

    @staticmethod
    def make(n: int, m: int, term_map: dict[Diagram, Rat]) -> "LinComb":
        items = []
        for d, c in term_map.items():
            if c == 0:
                continue
            if d.n != n or d.m != m:
                raise PreconditionError("all diagrams in a combination share boundaries")
            items.append((d, c if isinstance(c, Fraction) else Fraction(c)))
        if len(items) > 1:
            items.sort(key=lambda t: t[0].sort_key())
        return LinComb(n, m, tuple(items))

    @staticmethod
    def from_diagram(d: Diagram, coeff=1) -> "LinComb":
        return LinComb.make(d.n, d.m, {d: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def single(self) -> tuple[Diagram, Rat]:
        if len(self.terms) != 1:
            raise PreconditionError("combination is not a single term")
        return self.terms[0]

    def to_json(self) -> list[list[str]]:
        return [[render_diagram(d), format_rational(c)] for d, c in self.terms]


# ---------------------------------------------------------------------------
# diagram merging (shared by linear and monoid composition)
# ---------------------------------------------------------------------------


_nodes_of = itemgetter(0)
_ONE = Fraction(1)


@lru_cache(maxsize=4096)
def _topology(g_nodes: tuple, f_nodes: tuple, k: int) -> tuple:
    """Canonical layout of the stack of f over g, from the blocks' node tuples.

    Every component is a union of whole blocks of g and f, joined where a
    top node k of g meets the bottom node k of f, so the components come
    from ``msmall._index_components`` over block indices: g's blocks
    first, then f's.  Boundary nodes are g's bottom nodes (v > 0) and f's
    top nodes (v < 0).  Returns (open, closed): open holds one (nodes,
    member block indices) pair per component with boundary nodes, in
    ``Diagram``'s canonical order (nodes bottoms ascending, then tops
    ascending; blocks by least node); closed holds the member indices of
    each component without any, in order of its first block.  The open
    nodes are checked once to cover the boundary exactly once.
    """
    offset = len(g_nodes)
    holder = [0] * (k + 1)  # interface node k -> the g block holding top k
    for i, nodes in enumerate(g_nodes):
        for v in nodes:
            if v < 0:
                holder[-v] = i
    blocks = g_nodes + f_nodes
    joins = ((i, holder[v]) for i, nodes in enumerate(f_nodes, offset) for v in nodes if v > 0)

    opened, closed = [], []
    for members in _index_components(len(blocks), joins):
        boundary = [v for i in members for v in blocks[i] if (v > 0) == (i < offset)]
        if boundary:
            opened.append((tuple(sorted(boundary, key=node_key)), tuple(members)))
        else:
            closed.append(tuple(members))
    opened.sort(key=least_node_key)

    flat = [v for nodes, _ in opened for v in nodes]
    n = sum(1 for nodes in g_nodes for v in nodes if v > 0)
    m = sum(1 for nodes in f_nodes for v in nodes if v < 0)
    if sorted(flat, key=node_key) != [*range(1, n + 1), *range(-1, -m - 1, -1)]:
        raise InternalCheckError(f"merge layout does not cover the {n}->{m} boundary once")
    return tuple(opened), tuple(closed)


def _summed(blocks: tuple, members: tuple) -> tuple[int, int]:
    h = mob = 0
    for i in members:
        _, bh, bmob = blocks[i]
        h += bh
        mob += bmob
    return h, mob


def _merge_diagrams(f: Diagram, g: Diagram):
    """Stack f over g.  Returns (open blocks, closed decorations).

    The layout comes from ``_topology``, memoized per pair of block node
    sets; decorations add per component.  Open blocks are (nodes, h, mob)
    over the result boundary, already in ``Diagram``'s canonical order;
    closed decorations are (h, mob) pairs of components that lost all
    boundary nodes.
    """
    if g.m != f.n:
        raise PreconditionError(
            f"boundary mismatch: cannot stack {f.n}->{f.m} on top of {g.n}->{g.m}"
        )
    blocks = g.blocks + f.blocks
    opened, closed = _topology(
        tuple(map(_nodes_of, g.blocks)), tuple(map(_nodes_of, f.blocks)), g.m
    )
    return (
        [(nodes, *_summed(blocks, members)) for nodes, members in opened],
        [_summed(blocks, members) for members in closed],
    )


# ---------------------------------------------------------------------------
# linear composition with handle expansion
# ---------------------------------------------------------------------------


def _expand_handles(blocks: list, coeff: Rat, ps: ParamSet, n: int, m: int) -> dict:
    """Diagram -> coefficient, once every block's h is below K.

    The blocks rewrite independently, so each distinct h is reduced once by
    ``_reduce_handles`` and the result multiplies out the reduced blocks.
    The exponents to rewrite, then the terms, are charged to HANDLE_GUARD
    before either is formed.  Blocks stay in canonical order, since a
    rewrite moves no node."""
    high = [i for i, (_, h, _) in enumerate(blocks) if h >= ps.K]
    distinct = {blocks[i][1] for i in high}
    steps = sum(h - ps.K + 1 for h in distinct)
    check_guard("the handle exponents to rewrite", steps, HANDLE_GUARD)
    reduced = {h: _reduce_handles(h, ps) for h in distinct}
    options = [reduced[blocks[i][1]] for i in high]
    check_guard("the terms of the handle expansion", prod(map(len, options)), HANDLE_GUARD)
    acc = {}
    for choice in product(*options):
        nxt, c = list(blocks), coeff
        for i, (e, x) in zip(high, choice):
            nodes, _, mob = blocks[i]
            nxt[i] = (nodes, e, mob)
            c *= x
        acc[Diagram(n, m, tuple(nxt))] = c
    return acc


def _reduce_handles(h: int, ps: ParamSet) -> list[tuple[int, Rat]]:
    """The (exponent below K, nonzero coefficient) pairs of h handles on
    one block, rewritten h^e = sum_i (-1)^(i+1) a_i h^(e-i) from the top
    exponent down, each exponent once."""
    coeffs: list = [0] * (h + 1)
    coeffs[h] = _ONE
    signed = [(i, (-1) ** (i + 1) * a) for i, a in enumerate(ps.handle_coeffs, 1) if a]
    for e in range(h, ps.K - 1, -1):
        if coeffs[e]:
            for i, a in signed:
                coeffs[e - i] += a * coeffs[e]
    return [(e, x) for e, x in enumerate(coeffs[: ps.K]) if x]


def compose_diagrams(f: Diagram, g: Diagram, ps: ParamSet) -> LinComb:
    """Composition of basis diagrams in the linear calculus."""
    open_blocks, closed = _merge_diagrams(f, g)
    n, m = g.n, f.m
    coeff = None
    for dec in closed:
        value = evaluate_closed(dec, ps)
        coeff = value if coeff is None else coeff * value
        if coeff == 0:
            return LinComb(n, m, ())
    if coeff is None:
        coeff = _ONE
    blocks = [(nodes,) + reduce_mob_pair(h, mob) for nodes, h, mob in open_blocks]
    if all(h < ps.K for _, h, _ in blocks):
        return LinComb(n, m, ((Diagram(n, m, tuple(blocks)), coeff),))
    return LinComb.make(n, m, _expand_handles(blocks, coeff, ps, n, m))


def compose(f: LinComb, g: LinComb, ps: ParamSet) -> LinComb:
    """Bilinear extension of diagram composition: f o g, g applied first."""
    if g.m != f.n:
        raise PreconditionError(
            f"boundary mismatch: cannot compose {f.n}->{f.m} with {g.n}->{g.m}"
        )
    acc: dict[Diagram, Rat] = {}
    for df, cf in f.terms:
        for dg, cg in g.terms:
            part = compose_diagrams(df, dg, ps)
            scale = cf * cg
            for d, c in part.terms:
                acc[d] = acc.get(d, Fraction(0)) + scale * c
    return LinComb.make(g.n, f.m, acc)


# ---------------------------------------------------------------------------
# monoid mode: evaluations restricted to {0, 1}, formal zero as None
# ---------------------------------------------------------------------------

MonoidEvals = dict[tuple[int, int], int]  # (mob in {0,1,2}, h in [0,K)) -> 0/1


def monoid_compose(
    x: Diagram | None, y: Diagram | None, mp: MonoidParams, evals: MonoidEvals
) -> Diagram | None:
    """Composition in the monoid with adjoined formal zero (None).

    Closed components look up their 0/1 value; any 0 collapses the
    product to the formal zero.  Handle counts reduce by h -> h - r.
    """
    for v in evals.values():
        if v not in (0, 1):
            raise PreconditionError("monoid evaluation table must be 0/1-valued")
    if x is None or y is None:
        return None
    open_blocks, closed = _merge_diagrams(x, y)
    for dec in closed:
        h, mob = reduce_mob_pair(*dec)
        h = handle_reduce_monoid(h, mp)
        if evals[(mob, h)] == 0:
            return None
    blocks = []
    for nodes, h, mob in open_blocks:
        h, mob = reduce_mob_pair(h, mob)
        blocks.append((nodes, handle_reduce_monoid(h, mp), mob))
    return Diagram(y.n, x.m, tuple(blocks))


def monoid_table(elements: list[Diagram], mp: MonoidParams) -> list[list[int]]:
    """Cayley table of the decorated monoid with every evaluation 1:
    entry [i][j] is the index of monoid_compose(elements[i], elements[j]).

    A product's layout depends on the two shapes alone, so ``_topology``
    runs once per ordered shape pair (x over y reads ``_topology(y_shape,
    x_shape, n)``), and each open component carries the product in M of
    its members' decorations.  A block decoration (h, mob) is coded
    3h + mob, its index in ``msmall.m_elements`` and ``cayley_of_m``; a
    vector of codes is read as one integer in base 3K.  Every evaluation
    is 1, so a closed component multiplies the product by 1 and drops
    out.

    Each element folds the blocks of each open component through M's
    table into one code per component (a one-block part is its block's
    code), per shape and part once.  Component k of the product is the
    target shape's block k, with code a_k b_k from x's fold a and y's
    fold b; so one lookup per (target shape, x fold) maps y's fold code
    to the product's index, and is filled only at the folds some y has.
    Per shape pair, the ys are numbered by their distinct folds and each
    x fold reads its lookup once per distinct fold.  An x element's row
    is then one read, in element order, of those short lists joined over
    the y shapes.  At n = 0 no element has a block, and M's table is not
    formed.
    """
    n = elements[0].n if elements else 0
    base = 3 * mp.K
    mt = cayley_of_m(mp).mul if n else []  # n = 0 has no block to fold
    by_shape: dict[tuple, dict[tuple, int]] = {}  # shape -> block codes -> index
    codes_of: dict[tuple, list] = {}  # shape -> its elements' block codes, as listed
    for idx, d in enumerate(elements):
        if d.n != n or d.m != n:
            raise PreconditionError(f"monoid elements must all be {n}->{n} diagrams")
        if any(h >= mp.K or mob > 2 for _, h, mob in d.blocks):
            raise PreconditionError("monoid elements need handle counts below K and mob below 3")
        codes = [3 * h + mob for _, h, mob in d.blocks]
        shape = tuple(map(_nodes_of, d.blocks))
        by_shape.setdefault(shape, {})[tuple(codes)] = idx
        codes_of.setdefault(shape, []).append(codes)
    if sum(map(len, by_shape.values())) != len(elements):
        raise PreconditionError("duplicate elements in Cayley construction")

    folded: dict[tuple, list] = {}  # (shape, part) -> per element, the part's product in M

    def folds(shape, parts):
        # per element of the shape, its fold vector over parts
        columns = []
        for part in parts:
            column = folded.get((shape, part))
            if column is None:
                codes = codes_of[shape]
                column = [c[part[0]] for c in codes] if part else [0] * len(codes)
                for i in part[1:]:
                    row_of = map(mt.__getitem__, column)
                    column = list(map(getitem, row_of, map(itemgetter(i), codes)))
                folded[shape, part] = column
            columns.append(column)
        return zip(*columns) if columns else repeat((), len(codes_of[shape]))

    # column j of the table is position place[j] of a shape-grouped row
    place = [0] * len(elements)
    for pos, j in enumerate(j for members in by_shape.values() for j in members.values()):
        place[j] = pos
    table: list = [None] * len(elements)
    lookups: dict[tuple, dict] = {}  # target shape -> x fold -> y fold code -> index
    # (y shape, its parts) -> (the distinct folds by part, their codes, each y's number)
    numbered: dict[tuple, tuple] = {}
    for x_shape, xs in by_shape.items():
        joined = [[] for _ in xs]  # per x, its lists over the y shapes
        reads = []  # per y, shape-grouped: its place in every x's joined list
        width = 0  # the length of each joined list so far
        classes_of: dict[tuple, dict] = {}  # x's parts -> fold -> positions in xs
        for y_shape in by_shape:
            opened, _ = _topology(y_shape, x_shape, n)
            target_shape = tuple(map(_nodes_of, opened))
            target = by_shape.get(target_shape, {})
            offset = len(y_shape)
            x_parts = tuple(tuple(i - offset for i in m if i >= offset) for _, m in opened)
            y_parts = tuple(tuple(i for i in m if i < offset) for _, m in opened)
            if x_parts not in classes_of:
                classes = classes_of[x_parts] = {}
                for p, fold in enumerate(folds(x_shape, x_parts)):
                    classes.setdefault(fold, []).append(p)
            y_key = y_shape, y_parts
            if y_key not in numbered:
                distinct: dict[tuple, int] = {}
                numbers = [
                    distinct.setdefault(fold, len(distinct)) for fold in folds(y_shape, y_parts)
                ]
                numbered[y_key] = list(zip(*distinct)), [_code(b, base) for b in distinct], numbers
            y_columns, y_codes, numbers = numbered[y_key]
            reads += [width + k for k in numbers]
            width += len(y_codes)
            by_fold = lookups.setdefault(target_shape, {})
            for fold, members in classes_of[x_parts].items():
                lookup = by_fold.setdefault(fold, {})
                found = list(map(lookup.get, y_codes))
                if None in found:  # fill at every fold of these ys
                    products = (
                        zip(*[map(mt[a].__getitem__, column) for a, column in zip(fold, y_columns)])
                        if fold else repeat((), len(y_codes))  # n = 0: the empty code
                    )
                    try:
                        found = list(map(target.__getitem__, products))
                    except KeyError:
                        raise PreconditionError("multiplication leaves the element list") from None
                    lookup.update(zip(y_codes, found))
                for p in members:
                    joined[p] += found
        reads = list(map(reads.__getitem__, place))
        for i, row in zip(xs.values(), joined):
            table[i] = list(map(row.__getitem__, reads))
    return table


def _code(digits, base: int) -> int:
    """The digits, most significant first, as one integer in base."""
    code = 0
    for c in digits:
        code = code * base + c
    return code
