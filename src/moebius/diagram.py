"""Decorated partition diagrams.

A diagram from n to m is a set partition of the n bottom and m top
boundary nodes; every block carries a decoration (h, mob) counting
handle dots and crosscap (Moebius) dots.  Nodes are encoded as signed
integers: bottom i is +i, top j is -j.  Blocks are stored sorted by
their minimal node, bottom nodes before top nodes.

Diagram values are immutable; all operations return new diagrams.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from operator import neg

from .errors import ParseError, PreconditionError
from .families import Family
from .msmall import MElem, WreathElem
from .params import MonoidParams, handle_reduce_monoid, reduce_mob_pair


def node_key(v: int) -> tuple[int, int]:
    """Sort key putting bottom nodes (by index) before top nodes (by index)."""
    return (0, v) if v > 0 else (1, -v)


Block = tuple[tuple[int, ...], int, int]  # (sorted nodes, h, mob)


def least_node_key(item: tuple) -> tuple[int, int]:
    """node_key of the first node of item[0], a canonical node tuple:
    the key that orders blocks (or block layouts) canonically."""
    return node_key(item[0][0])


@dataclass(frozen=True)
class Diagram:
    n: int
    m: int
    blocks: tuple[Block, ...]

    @staticmethod
    def make(n: int, m: int, raw_blocks) -> "Diagram":
        """Canonicalize and validate input from outside the program.

        One pass sorts each block's nodes by ``node_key`` and names the
        first fault in block order: an empty block, a negative decoration
        or a repeated node; else the first three missing nodes, with the
        count of the rest, and the unexpected ones.  The blocks are then
        sorted by least node.  Code that already holds canonical blocks
        calls the constructor instead.
        """
        if n < 0 or m < 0:
            raise PreconditionError("boundary sizes must be nonnegative")
        blocks = []
        seen: set[int] = set()
        for nodes, h, mob in raw_blocks:
            nodes = tuple(sorted(nodes, key=node_key))
            if not nodes:
                raise PreconditionError("blocks must be nonempty")
            if h < 0 or mob < 0:
                raise PreconditionError("decorations must be nonnegative")
            for v in nodes:
                if v in seen:
                    raise PreconditionError(f"node {_node_str(v)} appears twice")
                seen.add(v)
            blocks.append((nodes, h, mob))
        # n + m distinct nodes within the bounds are the boundary
        if len(seen) != n + m or seen and (min(seen) < -m or max(seen) > n or 0 in seen):
            extra = sorted([v for v in seen if not (0 < v <= n or -m <= v < 0)], key=node_key)
            lacking = n + m - len(seen) + len(extra)
            # only the first three missing nodes are looked for, so a huge
            # n or m costs no more than the blocks given
            boundary = itertools.chain(range(1, n + 1), range(-1, -m - 1, -1))
            missing = list(itertools.islice((v for v in boundary if v not in seen), 3))
            rest = f" and {lacking - 3} more" if lacking > 3 else ""
            detail = []
            if missing:
                detail.append("missing " + ",".join(map(_node_str, missing)) + rest)
            if extra:
                detail.append("unexpected " + ",".join(map(_node_str, extra)))
            raise PreconditionError("bad node cover: " + "; ".join(detail))
        blocks.sort(key=least_node_key)
        return Diagram(n, m, tuple(blocks))

    def sort_key(self):
        """Canonical order: n, m, then the blocks with each node as one
        int, v for a bottom node and n - v for a top node v = -j: bottoms
        before tops, each ascending, the order of ``node_key``."""
        n = self.n
        return (
            n,
            self.m,
            tuple([
                (tuple([v if v > 0 else n - v for v in nodes]), h, mob)
                for nodes, h, mob in self.blocks
            ]),
        )


def _node_str(v: int) -> str:
    return str(v) if v >= 0 else f"{-v}'"


def identity(n: int) -> Diagram:
    return Diagram.make(n, n, [((i, -i), 0, 0) for i in range(1, n + 1)])


# ---------------------------------------------------------------------------
# literal grammar:  n;m;{1,2'}[h,mob]|{...}[h,mob]|...
# ---------------------------------------------------------------------------

_BLOCK_RE = re.compile(r"\{([^{}]*)\}\[(\d+),(\d+)\]", re.ASCII)
_NODE_RE = re.compile(r"(\d+)('?)", re.ASCII)


def parse_diagram(text: str) -> Diagram:
    """Parse the literal grammar; inverse of render_diagram.

    A boundary size is decimal digits, and a node is decimal digits with
    at most one trailing ' (a top node); no sign or digit separator is
    read, as ``int`` would."""
    s = re.sub(r"\s+", "", text)
    parts = s.split(";", 2)
    if len(parts) != 3:
        raise ParseError("diagram literal must have the form 'n;m;blocks'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("boundary sizes must be integers") from None
    for size in parts[:2]:
        if not re.fullmatch(r"\d+", size, re.ASCII):
            raise ParseError(f"boundary size {size!r} is not decimal digits")
    body = parts[2]
    blocks = []
    if body:
        for piece in body.split("|"):
            match = _BLOCK_RE.fullmatch(piece)
            if not match:
                raise ParseError(f"malformed block {piece!r}")
            nodes = []
            for tok in match.group(1).split(","):
                if not tok:
                    raise ParseError(f"empty node in block {piece!r}")
                node = _NODE_RE.fullmatch(tok)
                if not node:
                    raise ParseError(f"bad node {tok!r} in block {piece!r}")
                v = _decimal(node[1], "a node")
                nodes.append(-v if node[2] else v)
            blocks.append((nodes, _decimal(match[2], "a handle count"),
                           _decimal(match[3], "a crosscap count")))
    try:
        return Diagram.make(n, m, blocks)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from None


def _decimal(digits: str, what: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on digits read by int()
        raise ParseError(f"{what} of {len(digits)} digits is too long to read") from None


def render_diagram(d: Diagram) -> str:
    body = "|".join(
        "{" + ",".join(_node_str(v) for v in nodes) + f"}}[{h},{mob}]"
        for nodes, h, mob in d.blocks
    )
    return f"{d.n};{d.m};{body}"


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def normalize_mob(d: Diagram) -> Diagram:
    """Reduce every block's crosscap count into {0, 1, 2} via the rewrite
    mob >= 3 -> (mob - 2, h + 1), applied to exhaustion."""
    return Diagram.make(
        d.n, d.m, [(nodes,) + reduce_mob_pair(h, mob) for nodes, h, mob in d.blocks]
    )


def normalize_handles(d: Diagram, mp: MonoidParams) -> Diagram:
    """Reduce every block's handle count below K via h -> h - r (monoid mode)."""
    return Diagram.make(
        d.n,
        d.m,
        [(nodes, handle_reduce_monoid(h, mp), mob) for nodes, h, mob in d.blocks],
    )


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """Horizontal juxtaposition: d2's nodes shift past d1's boundaries."""
    def shift(v: int) -> int:
        return v + d1.n if v > 0 else v - d1.m

    blocks = list(d1.blocks) + [
        (tuple(shift(v) for v in nodes), h, mob) for nodes, h, mob in d2.blocks
    ]
    return Diagram.make(d1.n + d2.n, d1.m + d2.m, blocks)


def star(d: Diagram) -> Diagram:
    """Reflect about the horizontal: bottom i <-> top i, decorations kept.

    Where each block lands depends on the block node tuples alone, so the
    reflected canonical layout comes from ``_star_layout`` and only the
    decorations are copied per call.
    """
    blocks = d.blocks
    layout = _star_layout(tuple([nodes for nodes, _, _ in blocks]))
    return Diagram(d.m, d.n, tuple([(nodes,) + blocks[i][1:] for nodes, i in layout]))


@lru_cache(maxsize=4096)
def _star_layout(shape: tuple) -> tuple:
    """(reflected nodes, source block index) per block of the star of a
    diagram with these block node tuples, in canonical order: nodes
    bottoms ascending, then tops ascending; blocks by least node."""
    layout = [(tuple(sorted(map(neg, nodes), key=node_key)), i) for i, nodes in enumerate(shape)]
    layout.sort(key=least_node_key)
    return tuple(layout)


def through_strands(d: Diagram) -> int:
    """Blocks meeting both boundaries.  Canonical nodes list bottoms (v > 0)
    before tops (v < 0), so such a block starts positive and ends negative."""
    return sum(1 for nodes, _, _ in d.blocks if nodes[0] > 0 > nodes[-1])


# ---------------------------------------------------------------------------
# family membership
# ---------------------------------------------------------------------------


def is_planar(d: Diagram) -> bool:
    """Non-crossing in the circular boundary order B1..Bn, Tm..T1: one
    scan in that order keeps a stack of open blocks, and a block may take
    a node only while every block opened after it has closed."""
    order = [*range(1, d.n + 1), *range(-d.m, 0)]
    block_of = {v: i for i, (nodes, _, _) in enumerate(d.blocks) for v in nodes}
    last = {block_of[v]: v for v in order}
    stack: list[int] = []
    for v in order:
        b = block_of[v]
        if b not in stack:
            stack.append(b)
        elif stack[-1] != b:
            return False
        if last[b] == v:
            stack.pop()
    return True


def is_member(d: Diagram, f: Family) -> bool:
    """Family membership by the family's block rule, then planarity;
    decorations are ignored."""
    low, high, side = f.block_rule
    for nodes, _, _ in d.blocks:
        bottoms = sum(1 for v in nodes if v > 0)
        if not low <= len(nodes) <= high or max(bottoms, len(nodes) - bottoms) > side:
            return False
    return not f.planar or is_planar(d)


# ---------------------------------------------------------------------------
# top / middle / bottom factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """d = top o middle o bottom with bottom a merge diagram (n -> lambda),
    top a split diagram (lambda -> m) and middle in M wr S_lambda."""

    top: Diagram
    middle: WreathElem
    bottom: Diagram
    lambda_ts: int


def factorize(d: Diagram, mp: MonoidParams) -> Factorization:
    """Unique factorization of a normalized diagram.

    Through blocks are ordered by minimal bottom node on the bottom and by
    minimal top node on the top; their decorations move to the middle.
    Non-through decorations stay on their half.
    """
    for _, h, mob in d.blocks:
        if mob > 2:
            raise PreconditionError("factorize needs mob-normalized input")
        if h >= mp.K:
            raise PreconditionError("factorize needs handle counts below K")
    through = []
    bottom_blocks = []
    top_blocks = []
    for nodes, h, mob in d.blocks:
        bots = tuple(v for v in nodes if v > 0)
        tops = tuple(v for v in nodes if v < 0)
        if bots and tops:
            through.append((bots, tops, h, mob))
        elif bots:
            bottom_blocks.append((bots, h, mob))
        else:
            top_blocks.append((tops, h, mob))
    lam = len(through)
    by_bottom = sorted(range(lam), key=lambda t: through[t][0][0])
    by_top = sorted(range(lam), key=lambda t: -max(through[t][1]))
    bottom_rank = {t: i + 1 for i, t in enumerate(by_bottom)}
    top_rank = {t: j + 1 for j, t in enumerate(by_top)}

    for t in range(lam):
        bottom_blocks.append((through[t][0] + (-bottom_rank[t],), 0, 0))
        top_blocks.append(((top_rank[t],) + through[t][1], 0, 0))
    strands = [MElem(0, 0)] * lam
    perm = [0] * lam
    for t in range(lam):
        perm[bottom_rank[t] - 1] = top_rank[t]
        strands[top_rank[t] - 1] = MElem(through[t][2], through[t][3])
    # d's nodes are canonical, so every half block is too; only the
    # block order, by least node, is left to restore
    top_blocks.sort(key=least_node_key)
    bottom_blocks.sort(key=least_node_key)
    return Factorization(
        top=Diagram(lam, d.m, tuple(top_blocks)),
        middle=WreathElem(tuple(strands), tuple(perm)),
        bottom=Diagram(d.n, lam, tuple(bottom_blocks)),
        lambda_ts=lam,
    )


def recompose(fact: Factorization) -> Diagram:
    """Inverse of factorize on canonical factorizations.  Their halves are
    canonical, so every block built here is too; only block order is left."""
    blocks = []
    bottom_through, top_through = {}, {}
    for nodes, h, mob in fact.bottom.blocks:  # a through block ends in its top node
        if nodes[-1] < 0:
            bottom_through[-nodes[-1]] = nodes[:-1]
        else:
            blocks.append((nodes, h, mob))
    for nodes, h, mob in fact.top.blocks:  # a through block starts with its bottom node
        if nodes[0] > 0:
            top_through[nodes[0]] = nodes[1:]
        else:
            blocks.append((nodes, h, mob))
    for i, j in enumerate(fact.middle.perm, 1):
        dec = fact.middle.strands[j - 1]
        blocks.append((bottom_through[i] + top_through[j], dec.i, dec.j))
    blocks.sort(key=least_node_key)
    return Diagram(fact.bottom.n, fact.top.m, tuple(blocks))
