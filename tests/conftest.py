"""Shared fixtures: parameter sets, random diagram generators, an
independent partition-composition oracle (BFS over an adjacency map, no
union-find) used to cross-check the production composition,
``Diagram.make``-based star, linear and monoid composition, which the
replayed canonical layouts must equal exactly, and a per-family
membership oracle (an if-chain per core and a pairwise crossing test)
for the block-rule ``is_member`` and the stack-scan ``is_planar``; the
helpers only the tests call, among them one Gram entry and the dense
elimination that ``exact_rank``'s blocks are compared with; the
Cayley table of an operation one product at a time, M wr S_lambda's and
S_n's among them; the strict-idempotent oracle, a listed J-cell whose
elements are squared one by one; and the Green's-cell prediction from
each layer's whole Cayley table of M wr S_lambda."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from moebius import Family, LinComb, compose_diagrams, evaluate_closed, gram, validate_params
from moebius.diagram import Diagram, factorize, star, tensor, through_strands
from moebius.errors import PreconditionError
from moebius.msmall import (
    CayleyMonoid,
    MElem,
    WreathElem,
    _group,
    _membership,
    greens_cells_bruteforce,
    wreath_cayley,
    wreath_elements,
    wreath_mul,
)
from moebius.params import handle_reduce_monoid, reduce_mob_pair


@pytest.fixture
def ps_geometric_2():
    """Z_alpha = 2/(1-T), Z_beta = Z_gamma = 1/(1-T); K = 1."""
    return validate_params([2], [1], [1], [1, -1])


@pytest.fixture
def ps_ones():
    """All series coefficients equal to 1; K = 1."""
    return validate_params([1], [1], [1], [1, -1])


@pytest.fixture
def ps_zero():
    """Every evaluation vanishes; K = 1."""
    return validate_params([], [], [], [1, -1], allow_zero_alpha=True)


def random_paramsets(rng: random.Random, count: int, max_K: int = 3):
    """Parameter sets with 1 <= K <= max_K and small rational coefficients."""
    out = []
    while len(out) < count:
        m = rng.randint(1, max_K)
        q = [Fraction(1)] + [Fraction(rng.randint(-2, 2)) for _ in range(m)]
        if q[-1] == 0:
            continue
        n_deg = rng.randint(0, max_K - 1)
        p_alpha = [Fraction(rng.randint(-2, 2)) for _ in range(n_deg + 1)]
        if p_alpha[-1] == 0:
            p_alpha[-1] = Fraction(1)
        k = max(n_deg + 1, m)
        p_beta = [Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, k))][:k]
        p_gamma = [Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, k))][:k]
        out.append(validate_params(p_alpha, p_beta, p_gamma, q))
    return out


# ---------------------------------------------------------------------------
# random diagrams
# ---------------------------------------------------------------------------


def random_set_partition(rng: random.Random, items: list[int]) -> list[list[int]]:
    blocks: list[list[int]] = []
    for item in items:
        if blocks and rng.random() < 0.6:
            rng.choice(blocks).append(item)
        else:
            blocks.append([item])
    return blocks


def random_diagram(rng: random.Random, n: int, m: int, max_h: int = 2, max_mob: int = 4) -> Diagram:
    ids = list(range(1, n + 1)) + [-j for j in range(1, m + 1)]
    rng.shuffle(ids)
    blocks = [
        (tuple(b), rng.randint(0, max_h), rng.randint(0, max_mob))
        for b in random_set_partition(rng, ids)
    ]
    return Diagram.make(n, m, blocks)


def _circular_positions(d: Diagram, nodes: tuple[int, ...]) -> list[int]:
    # traversal order: bottom 1..n, then top m..1
    return sorted(v - 1 if v > 0 else d.n + (d.m + v) for v in nodes)


def _blocks_cross(pos_a: list[int], pos_b: list[int]) -> bool:
    # merge the position lists and count label alternations; chords of a
    # circle cross iff the merged cyclic word alternates ABAB
    merged = sorted((p, 0) for p in pos_a) + sorted((p, 1) for p in pos_b)
    merged.sort()
    runs = 1
    for i in range(1, len(merged)):
        if merged[i][1] != merged[i - 1][1]:
            runs += 1
    return runs >= 4


def planar_oracle(d: Diagram) -> bool:
    """Non-crossing in the circular order B1..Bn, Tm..T1, block pair by pair."""
    pos = [_circular_positions(d, nodes) for nodes, _, _ in d.blocks]
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            if _blocks_cross(pos[i], pos[j]):
                return False
    return True


def member_oracle(d: Diagram, f: Family) -> bool:
    """Family membership written out per nonplanar core."""
    core = f.nonplanar_core
    for nodes, _, _ in d.blocks:
        size = len(nodes)
        bottoms = sum(1 for v in nodes if v > 0)
        tops = size - bottoms
        if core is Family.ROOK_BRAUER and size > 2:
            return False
        if core is Family.BRAUER and size != 2:
            return False
        if core is Family.ROOK and (size > 2 or bottoms > 1 or tops > 1):
            return False
        if core is Family.SYMMETRIC and (bottoms != 1 or tops != 1):
            return False
    if f.planar and not planar_oracle(d):
        return False
    return True


def family_shapes(f: Family, n: int, m: int) -> list[Diagram]:
    """All undecorated family members from n to m, by the membership oracle."""
    ids = list(range(1, n + 1)) + [-j for j in range(1, m + 1)]
    shapes = []
    for part in _set_partitions(ids):
        d = Diagram.make(n, m, [(tuple(b), 0, 0) for b in part])
        if member_oracle(d, f):
            shapes.append(d)
    shapes.sort(key=Diagram.sort_key)
    return shapes


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def random_family_diagram(
    rng: random.Random, shapes: list[Diagram], max_h: int, max_mob: int
) -> Diagram:
    shape = rng.choice(shapes)
    blocks = [
        (nodes, rng.randint(0, max_h), rng.randint(0, max_mob))
        for nodes, _, _ in shape.blocks
    ]
    return Diagram.make(shape.n, shape.m, blocks)


# ---------------------------------------------------------------------------
# independent partition-composition oracle
# ---------------------------------------------------------------------------


def oracle_compose(f: Diagram, g: Diagram) -> tuple[Diagram, list[tuple[int, int]]]:
    """Classical partition composition of f o g via breadth-first search
    on a co-membership adjacency map.  Returns the result diagram, each
    block carrying the summed raw (h, mob) of the blocks its component
    joins, and the sorted (h, mob) sums of the removed internal
    components."""
    assert g.m == f.n
    adj: dict[tuple, set[tuple]] = {}
    decorations = []  # (a node of the block, h, mob), one per block

    def node_g(v):
        return ("b", v) if v > 0 else ("i", -v)

    def node_f(v):
        return ("i", v) if v > 0 else ("t", -v)

    def link(mapped, h, mob):
        for u in mapped:
            adj.setdefault(u, set()).update(w for w in mapped if w != u)
        decorations.append((mapped[0], h, mob))

    for nodes, h, mob in g.blocks:
        link([node_g(v) for v in nodes], h, mob)
    for nodes, h, mob in f.blocks:
        link([node_f(v) for v in nodes], h, mob)

    seen: set[tuple] = set()
    blocks = []
    closed = []
    for start in sorted(adj):
        if start in seen:
            continue
        queue, component = [start], set()
        while queue:
            v = queue.pop()
            if v in component:
                continue
            component.add(v)
            queue.extend(adj[v] - component)
        seen |= component
        h = sum(dh for v, dh, _ in decorations if v in component)
        mob = sum(dm for v, _, dm in decorations if v in component)
        boundary = sorted(
            [v for kind, v in component if kind == "b"]
            + [-v for kind, v in component if kind == "t"]
        )
        if boundary:
            blocks.append((tuple(boundary), h, mob))
        else:
            closed.append((h, mob))
    return Diagram.make(g.n, f.m, blocks), sorted(closed)


# ---------------------------------------------------------------------------
# Diagram.make-based oracles for the replayed layouts
# ---------------------------------------------------------------------------


def oracle_star(d: Diagram) -> Diagram:
    """Reflection rebuilt and re-sorted by ``Diagram.make``."""
    return Diagram.make(
        d.m, d.n, [(tuple(-v for v in nodes), h, mob) for nodes, h, mob in d.blocks]
    )


def oracle_compose_diagrams(f: Diagram, g: Diagram, ps) -> LinComb:
    """Linear composition from the breadth-first merge: closed values
    multiplied from Fraction(1), handles expanded one block at a time and
    every term built by ``Diagram.make``."""
    merged, closed = oracle_compose(f, g)
    coeff = Fraction(1)
    for dec in closed:
        coeff *= evaluate_closed(dec, ps)
    acc: dict = {}

    def expand(blocks, c):
        for idx, (nodes, h, mob) in enumerate(blocks):
            if h >= ps.K:
                for i in range(1, ps.M_deg + 1):
                    ai = ps.handle_coeffs[i - 1]
                    if ai:
                        nxt = list(blocks)
                        nxt[idx] = (nodes, h - i, mob)
                        expand(nxt, c * (-1) ** (i + 1) * ai)
                return
        d = Diagram.make(g.n, f.m, blocks)
        acc[d] = acc.get(d, Fraction(0)) + c

    if coeff:
        expand([(nodes,) + reduce_mob_pair(h, mob) for nodes, h, mob in merged.blocks], coeff)
    return LinComb.make(g.n, f.m, acc)


def oracle_expand_handles(blocks: list, coeff, ps, acc: dict, n: int, m: int) -> None:
    """Handle expansion as one recursion per rewrite: the first block with
    h >= K branches once per nonzero a_i into h - i, until every h < K,
    and each leaf adds its coefficient to acc."""
    for idx, (nodes, h, mob) in enumerate(blocks):
        if h >= ps.K:
            for i in range(1, ps.M_deg + 1):
                ai = ps.handle_coeffs[i - 1]
                if ai == 0:
                    continue
                nxt = list(blocks)
                nxt[idx] = (nodes, h - i, mob)
                oracle_expand_handles(nxt, coeff * (-1) ** (i + 1) * ai, ps, acc, n, m)
            return
    d = Diagram(n, m, tuple(blocks))
    acc[d] = acc.get(d, Fraction(0)) + coeff


def oracle_monoid_compose(x: Diagram | None, y: Diagram | None, mp, evals) -> Diagram | None:
    """Monoid composition from the breadth-first merge, built by ``Diagram.make``."""
    if x is None or y is None:
        return None
    merged, closed = oracle_compose(x, y)
    for dec in closed:
        h, mob = reduce_mob_pair(*dec)
        if evals[(mob, handle_reduce_monoid(h, mp))] == 0:
            return None
    blocks = []
    for nodes, h, mob in merged.blocks:
        h, mob = reduce_mob_pair(h, mob)
        blocks.append((nodes, handle_reduce_monoid(h, mp), mob))
    return Diagram.make(y.n, x.m, blocks)


# ---------------------------------------------------------------------------
# helpers that only the tests call
# ---------------------------------------------------------------------------


def lincomb_scale(x: LinComb, c) -> LinComb:
    c = Fraction(c)
    return LinComb.make(x.n, x.m, {d: c * v for d, v in x.terms})


def lincomb_star(x: LinComb) -> LinComb:
    return LinComb.make(x.m, x.n, {star(d): c for d, c in x.terms})


def lincomb_tensor(x: LinComb, y: LinComb) -> LinComb:
    acc: dict = {}
    for d1, c1 in x.terms:
        for d2, c2 in y.terms:
            d = tensor(d1, d2)
            acc[d] = acc.get(d, Fraction(0)) + c1 * c2
    return LinComb.make(x.n + y.n, x.m + y.m, acc)


def all_ones_evals(mp) -> dict[tuple[int, int], int]:
    """The monoid evaluation table that keeps every closed component."""
    return {(mob, h): 1 for mob in range(3) for h in range(mp.K)}


def gram_entry(bottom: Diagram, top: Diagram, ps, mp) -> Fraction:
    """Entry for the H-cell with the given bottom (column) and top (row)
    half diagrams: entry (0, 1) of the Gram kernel run on [top, bottom],
    which stars the top itself and runs the same regularity check."""
    idx, square = gram._gram_blocks([top, bottom], bottom.n, bottom.m, ps, mp)[0]
    return square[0][1] if len(idx) == 2 else Fraction(0)


def dense_rank(rows) -> gram.RankReport:
    """Rank, and the determinant when square, by one dense fraction-free
    (Bareiss) elimination of the whole matrix, its rows scaled to
    integers first: the oracle for ``exact_rank``'s block-wise sparse
    path, which shares none of this elimination."""
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise PreconditionError("matrix rows have unequal lengths")
    work, scale = gram._integer_rows(rows)
    rank, det = _bareiss(list(map(list, work)))
    return gram.RankReport(rank=rank, det=None if det is None else Fraction(det, scale))


def _bareiss(work: list[list[int]]) -> tuple[int, int | None]:
    """Rank of integer rows by Bareiss elimination in place, and the
    determinant when square."""
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    sign = 1
    prev = 1
    rank = 0
    for step in range(min(nrows, ncols)):
        cells = ((r, c) for r in range(step, nrows) for c in range(step, ncols))
        piv = next(((r, c) for r, c in cells if work[r][c]), None)
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
        prow = work[step]
        for row in work[step + 1:]:
            head = row[step]
            # a row whose head is 0 is still rescaled by pivot/prev, exactly
            for c in range(step + 1, ncols):
                row[c] = (row[c] * pivot - head * prow[c]) // prev
            row[step] = 0
        prev = pivot
        rank += 1
    if nrows != ncols:
        return rank, None
    return rank, sign * prev if rank == nrows else 0


def cayley_from_op(elements, op) -> CayleyMonoid:
    """The table of op on elements, one product at a time: the oracle the
    library's lookup-built tables are compared with."""
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise PreconditionError("duplicate elements in Cayley construction")
    table = []
    for x in elements:
        row = [index.get(op(x, y)) for y in elements]
        if None in row:
            raise PreconditionError("multiplication leaves the element list")
        table.append(row)
    return CayleyMonoid(elements, table)


def oracle_wreath_cayley(mp, lam: int, planar: bool = False) -> CayleyMonoid:
    """M wr S_lambda's table (M^lambda's if planar), one ``wreath_mul``
    of two elements per product."""
    return cayley_from_op(wreath_elements(mp, lam, planar), lambda x, y: wreath_mul(x, y, mp))


def oracle_symmetric_group_cayley(n: int) -> CayleyMonoid:
    """S_n's table, p o q composed one position at a time per product."""
    perms = list(itertools.permutations(range(n)))
    return cayley_from_op(perms, lambda p, q: tuple(p[q[i]] for i in range(n)))


def wreath_identity(lam: int) -> WreathElem:
    return WreathElem(tuple(MElem(0, 0) for _ in range(lam)), tuple(range(1, lam + 1)))


def wreath_to_diagram(w: WreathElem) -> Diagram:
    """The (lambda, lambda)-diagram of a wreath element: bottom k joins
    top perm(k), carrying the strand decoration."""
    lam = len(w.strands)
    blocks = []
    for k in range(1, lam + 1):
        j = w.perm[k - 1]
        dec = w.strands[j - 1]
        blocks.append(((k, -j), dec.i, dec.j))
    return Diagram.make(lam, lam, blocks)


# ---------------------------------------------------------------------------
# strict-idempotent oracle: a listed J-cell, each element squared
# ---------------------------------------------------------------------------


def oracle_jcell(f: Family, n: int, lam: int, K: int) -> list[Diagram]:
    """Every decorated family (n, n)-diagram with lam through strands and
    handle counts below K, in canonical order: each family shape from the
    set-partition walk, each block taking one of the 3K decorations."""
    decos = [(h, mob) for h in range(K) for mob in range(3)]
    out = []
    for shape in family_shapes(f, n, n):
        if through_strands(shape) == lam:
            for choice in itertools.product(decos, repeat=len(shape.blocks)):
                blocks = [(nodes,) + d for (nodes, _, _), d in zip(shape.blocks, choice)]
                out.append(Diagram.make(n, n, blocks))
    out.sort(key=Diagram.sort_key)
    return out


def oracle_strict_idempotents(jcell: list[Diagram], ps):
    """Each basis element e of the J-cell (canonical order) with e o e =
    s . e modulo diagrams of strictly fewer through strands, s != 0, as
    (e, s), found by squaring e in the full calculus."""
    if not jcell:
        return
    lam = through_strands(jcell[0])
    assert all(through_strands(d) == lam for d in jcell)
    for e in sorted(jcell, key=Diagram.sort_key):
        square = compose_diagrams(e, e, ps)
        trimmed = {d: c for d, c in square.terms if through_strands(d) >= lam}
        if len(trimmed) == 1:
            (d, c), = trimmed.items()
            if d == e and c != 0:
                yield e, c


# ---------------------------------------------------------------------------
# Green's-cell prediction oracle: each layer's sandwiched monoid brute-forced
# ---------------------------------------------------------------------------


def oracle_predicted_cells(elements: list[Diagram], f: Family, mp):
    """(L, R, J, H) index partitions of the decorated monoid predicted from
    the factorizations, each layer's middles classed by the brute-force
    cells of the whole Cayley table of M wr S_lambda (M^lambda if planar):
    L by bottom and the middle's L-class, R by top and R-class, J by the
    J-class, H by bottom, top and H-class."""
    facts = [factorize(d, mp) for d in elements]
    layers = _group((i, fact.lambda_ts) for i, fact in enumerate(facts))
    middle_class: dict[int, tuple] = {}
    for lam in sorted(layers):
        mono = wreath_cayley(mp, lam, f.planar)
        cells = greens_cells_bruteforce(mono)
        index = {m: i for i, m in enumerate(mono.elements)}
        l_of, r_of, j_of, h_of = (
            _membership(part, mono.size)
            for part in (cells.l_cells, cells.r_cells, cells.j_cells, cells.h_cells)
        )
        for idx in layers[lam]:
            mid = index[facts[idx].middle]
            middle_class[idx] = (lam, l_of[mid], r_of[mid], j_of[mid], h_of[mid])

    def group(key_fn):
        return list(_group((i, key_fn(i)) for i in range(len(elements))).values())

    return (
        group(lambda i: (facts[i].bottom, middle_class[i][0], middle_class[i][1])),
        group(lambda i: (facts[i].top, middle_class[i][0], middle_class[i][2])),
        group(lambda i: (middle_class[i][0], middle_class[i][3])),
        group(lambda i: (facts[i].bottom, facts[i].top, middle_class[i][0], middle_class[i][4])),
    )
