"""The sandwiched monoid M = <a, b | ab = ba, ab = b^3, a^K = a^(K-r)>,
its Green structure, generalized conjugacy for finite monoids given by
Cayley tables, and wreath products M wr S_lambda.

Elements of M are written a^i b^j with 0 <= i < K and 0 <= j <= 2;
|M| = 3K.  Green's cells of a table come from its principal ideals:
L and R group elements by S^1 a and a S^1, H by both, and J = L v R is
joined by the one index union-find, which Gram rank and the merge
topology also use.  x^w is the first idempotent power of x, and the
generalized conjugacy classes are the components of the witness
relation, found by the same union-find.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import PreconditionError, check_guard
from .params import MonoidParams, handle_reduce_monoid, reduce_mob_pair

CAYLEY_GUARD = 2_000_000  # products in one table, size squared
CAYLEY_WHAT = "the product count of a Cayley table"
CONJUGACY_GUARD = 300
CONJUGACY_WHAT = "the size of a monoid for conjugacy classes"


# ---------------------------------------------------------------------------
# M itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class MElem:
    """a^i b^j: i handle dots, j crosscap dots on one strand."""

    i: int
    j: int

    def __str__(self):
        if self.i == 0 and self.j == 0:
            return "1"
        parts = []
        if self.i:
            parts.append("a" if self.i == 1 else f"a^{self.i}")
        if self.j:
            parts.append("b" if self.j == 1 else f"b^{self.j}")
        return "".join(parts)


def m_mul(x: MElem, y: MElem, mp: MonoidParams) -> MElem:
    """Product in M: add exponents, rewrite b^3 = ab, reduce a^K = a^(K-r)."""
    i, j = reduce_mob_pair(x.i + y.i, x.j + y.j)
    return MElem(handle_reduce_monoid(i, mp), j)


def m_code(h: int, mob: int, mp: MonoidParams) -> int:
    """The index 3i + j in ``m_elements`` and ``cayley_of_m`` of a^i b^j,
    the element a^h b^mob reduces to: b^3 = ab, then a^K = a^(K-r)."""
    h, mob = reduce_mob_pair(h, mob)
    return 3 * handle_reduce_monoid(h, mp) + mob


def m_elements(mp: MonoidParams) -> list[MElem]:
    return [MElem(i, j) for i in range(mp.K) for j in range(3)]


# ---------------------------------------------------------------------------
# Cayley tables and Green's-style cells for arbitrary finite monoids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CayleyMonoid:
    """Finite monoid as an index table; mul[i][j] = index of product ij."""

    elements: list
    mul: list[list[int]]

    @property
    def size(self) -> int:
        return len(self.elements)


def cayley_of_m(mp: MonoidParams) -> CayleyMonoid:
    """M's table in ``m_elements``' order, a^i b^j at index 3i + j, from
    the closed form of ``m_mul``: a^i b^j a^k b^l has b-exponent j + l,
    less 2 with one more a when j + l >= 3 (b^3 = ab), and a-exponent
    i + k (+ 1) < 2K, reduced below K by a^K = a^(K-r)."""
    check_guard(CAYLEY_WHAT, (3 * mp.K) ** 2, CAYLEY_GUARD)
    elements = m_elements(mp)
    K, r = mp.K, mp.r
    a3 = [3 * (e if e < K else e - ((e - K) // r + 1) * r) for e in range(2 * K)]  # 3 x reduced a^e
    carry = [[(j + l >= 3, j + l - 2 * (j + l >= 3)) for l in range(3)] for j in range(3)]
    table = [
        [a3[i + k + c] + b for k in range(K) for c, b in carry[j]]
        for i in range(K)
        for j in range(3)
    ]
    return CayleyMonoid(elements, table)


def symmetric_group_cayley(n: int) -> CayleyMonoid:
    check_wreath_cost(CAYLEY_WHAT, n, lambda: math.factorial(n) ** 2, CAYLEY_GUARD)
    perms = list(itertools.permutations(range(n)))
    return CayleyMonoid(perms, _composition_table(perms))


def _composition_table(perms: list[tuple[int, ...]]) -> list[list[int]]:
    """The index of p o q (q first, then p) for each pair of perms,
    permutations of range(n) closed under composition."""
    index = {p: i for i, p in enumerate(perms)}
    columns = list(zip(*perms))  # per position k, q[k] for every q
    if not columns:  # the one permutation of no points
        return [[0] * len(perms) for _ in perms]
    return [
        list(map(index.__getitem__, zip(*[map(p.__getitem__, c) for c in columns])))
        for p in perms
    ]


@dataclass(frozen=True)
class GreensCells:
    """Index partitions into L-, R-, J- and H-cells."""

    l_cells: list[list[int]]
    r_cells: list[list[int]]
    j_cells: list[list[int]]
    h_cells: list[list[int]]


def greens_cells_bruteforce(mono: CayleyMonoid) -> GreensCells:
    """Cells from the principal ideals read off the table.

    S^1 a is a's column plus a and a S^1 is a's row plus a: a L b iff
    S^1 a = S^1 b, a R b iff a S^1 = b S^1, and H = L meet R.  In a finite
    semigroup J = D = L v R, so the J-cells join each L- and each R-cell.
    """
    n, mul = mono.size, mono.mul

    def classes(keys):
        return list(_group(enumerate(keys)).values())

    l_cells = classes(frozenset(column) | {a} for a, column in enumerate(zip(*mul)))
    r_cells = classes(frozenset(row) | {a} for a, row in enumerate(mul))
    joins = ((cell[0], v) for cell in l_cells + r_cells for v in cell)
    return GreensCells(
        l_cells,
        r_cells,
        _index_components(n, joins),
        classes(zip(_membership(l_cells, n), _membership(r_cells, n))),
    )


def _group(pairs) -> dict:
    """Key -> the indices paired with it, from (index, key) pairs; each
    list keeps the pairs' order, and the keys come in order of first
    appearance (so from enumerate the lists are ascending and sorted)."""
    groups: dict = {}
    for i, key in pairs:
        groups.setdefault(key, []).append(i)
    return groups


def _membership(cells: list[list[int]], n: int) -> list[int]:
    out = [0] * n
    for ci, cell in enumerate(cells):
        for v in cell:
            out[v] = ci
    return out


def _index_components(n: int, pairs) -> list[list[int]]:
    """Connected components of the graph on 0..n-1 with edges pairs, each
    ascending, in order of their least index (so sorted); union-find."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return list(comps.values())


# ---------------------------------------------------------------------------
# the layered cell structure of M(K, r)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCellReport:
    K: int
    r: int
    degenerate: bool
    singleton_cells: list[str]
    jr_cell: list[str]
    j2r_cell: list[str]
    jr_idempotent: str
    j2r_idempotent: str
    jr_cyclic_order: int
    j2r_cyclic_order: int
    matches_prediction: bool


def m_cell_structure(mp: MonoidParams) -> MCellReport:
    """Brute-force the cells of M(K, r) and verify the layered picture:

    * a^i b^j for i < K - r are singleton J-cells,
    * J_r = {a^(K-r), ..., a^(K-1)} is a group isomorphic to Z/r,
    * J_2r = {a^i b^j : i >= K-r, j in {1,2}} is a group isomorphic to Z/2r,
    * the idempotents in those two cells are a^(K-r+rho) with
      rho = -K mod r and a^(K-r+rho') b^2 with rho' = -K-1 mod r.
    """
    K, r = mp.K, mp.r
    mono = cayley_of_m(mp)
    cells = greens_cells_bruteforce(mono)

    def product(x: MElem, y: MElem) -> MElem:
        return m_mul(x, y, mp)

    singletons_pred = sorted(
        [MElem(i, j) for i in range(K - r) for j in range(3)]
    )
    jr_pred = sorted(MElem(i, 0) for i in range(K - r, K))
    j2r_pred = sorted(MElem(i, j) for i in range(K - r, K) for j in (1, 2))

    actual = sorted(sorted(mono.elements[v] for v in cell) for cell in cells.j_cells)
    predicted = sorted([[e] for e in singletons_pred] + [jr_pred, j2r_pred])
    # the layered picture presumes K > r; for K = r the identity falls
    # into the predicted J_r row and the prediction is not applicable
    structure_ok = (not mp.degenerate) and actual == predicted

    rho = (-K) % r
    rho_p = (-K - 1) % r
    e_r = MElem(K - r + rho, 0)
    e_2r = MElem(K - r + rho_p, 2)

    # the predicted idempotents must be idempotent and the only ones in
    # their cells (e_r lies in the J_r row, e_2r in the J_2r row)
    only_ok = all(
        (product(x, x) == x) == (x == e_r) for x in jr_pred
    ) and all((product(x, x) == x) == (x == e_2r) for x in j2r_pred)

    # generator of J_r is a^(K-r+rho+1) reduced into the window
    gen_r = MElem(K - r + ((rho + 1) % r), 0)
    cyc_r = _cyclic_order(jr_pred, e_r, gen_r, product)
    gen_2r = MElem(K - r + rho, 1)
    cyc_2r = _cyclic_order(j2r_pred, e_2r, gen_2r, product)

    return MCellReport(
        K=K,
        r=r,
        degenerate=mp.degenerate,
        singleton_cells=[str(e) for e in singletons_pred],
        jr_cell=[str(e) for e in jr_pred],
        j2r_cell=[str(e) for e in j2r_pred],
        jr_idempotent=str(e_r),
        j2r_idempotent=str(e_2r),
        jr_cyclic_order=cyc_r,
        j2r_cyclic_order=cyc_2r,
        matches_prediction=structure_ok and only_ok
        and cyc_r == r and cyc_2r == 2 * r,
    )


def _cyclic_order(cell: list[MElem], e: MElem, gen: MElem, product) -> int:
    """Order of gen in the group (cell, product, identity e); 0 if it does
    not generate the whole cell."""
    seen = [e]
    x = e
    for _ in range(len(cell) + 1):
        x = product(x, gen)
        if x == e:
            break
        seen.append(x)
    if sorted(seen) != sorted(cell):
        return 0
    return len(seen)


# ---------------------------------------------------------------------------
# omega powers and generalized conjugacy
# ---------------------------------------------------------------------------


def omega_power(x: int, mono: CayleyMonoid) -> int:
    """x^w, the first power of x that is idempotent.

    A power of x is idempotent only once it lies on the cycle of <x>, and
    that cycle holds exactly one idempotent; it is reached within |S| powers.
    """
    mul = mono.mul
    p = x
    for _ in range(mono.size):
        if mul[p][p] == p:
            return p
        p = mul[p][x]
    raise PreconditionError("the table is not associative: <x> has no idempotent")


def generalized_conjugacy_classes(mono: CayleyMonoid) -> list[list[int]]:
    """Classes of the relation: m ~ n iff there are x, x' with
    xx'x = x, x'xx' = x', x'x = m^w, xx' = n^w, x m^(w+1) x' = n^(w+1).

    The classes are the components of this relation, sorted.  It is
    symmetric, as (x', x) witnesses n ~ m: x' n^(w+1) x = x'x m^(w+1) x'x
    = m^w m^(w+1) m^w = m^(w+1).  It is reflexive, as x = x' = m^w
    witnesses m ~ m, and it reads m and n only through their pairs
    (m^w, m^(w+1)) and (n^w, n^(w+1)).  So the elements of one pair are
    related and joined first, and then one pass over each pair's
    witnesses, the (x, x') with x'x = m^w, joins it to the pair
    (xx', x m^(w+1) x') where that pair is some element's: one join per
    pair reached, and no pair m, n is tested.
    """
    n = check_guard(CONJUGACY_WHAT, mono.size, CONJUGACY_GUARD)
    mul = mono.mul
    omega = [omega_power(v, mono) for v in range(n)]
    by_powers = _group((v, (omega[v], mul[omega[v]][v])) for v in range(n))

    witnesses = _group(  # x'x -> the pairs (x, x')
        ((x, xp), mul[xp][x])
        for x in range(n)
        for xp in range(n)
        if mul[mul[x][xp]][x] == x and mul[mul[xp][x]][xp] == xp
    )
    joins = [(group[0], v) for group in by_powers.values() for v in group[1:]]
    for (e, f), group in by_powers.items():
        reached = {(mul[x][xp], mul[mul[x][f]][xp]) for x, xp in witnesses.get(e, ())}
        joins += [(group[0], by_powers[pair][0]) for pair in reached if pair in by_powers]
    return _index_components(n, joins)


# ---------------------------------------------------------------------------
# wreath products M wr S_lambda
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WreathElem:
    """(f; pi): strands[j] decorates the strand whose top endpoint is j+1,
    perm maps bottom position k+1 to top position perm[k] (1-based values).
    """

    strands: tuple[MElem, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(1, len(self.strands) + 1)):
            raise PreconditionError("perm must be a bijection on 1..lambda")


def wreath_mul(x: WreathElem, y: WreathElem, mp: MonoidParams) -> WreathElem:
    """(f; pi)(f'; pi') = (f f'_pi; pi pi') with f'_pi = f' o pi^(-1)."""
    lam = len(x.strands)
    if lam != len(y.strands):
        raise PreconditionError("wreath elements have different lengths")
    inv = [0] * lam
    for k in range(lam):
        inv[x.perm[k] - 1] = k + 1
    strands = tuple(
        m_mul(x.strands[i], y.strands[inv[i] - 1], mp) for i in range(lam)
    )
    perm = tuple(x.perm[y.perm[k] - 1] for k in range(lam))
    return WreathElem(strands, perm)


def wreath_elements(mp: MonoidParams, lam: int, planar: bool = False):
    """All of M^lam (planar) or M wr S_lam, as an iterator; a negative lam
    is rejected on the call, before the first element.  M's own 3K
    elements are formed only for lam > 0: M^0 is the empty strand tuple."""
    if lam < 0:
        raise PreconditionError("lambda must be nonnegative")
    melems = m_elements(mp) if lam else []
    perms = (
        [tuple(range(1, lam + 1))]
        if planar
        else [tuple(p) for p in itertools.permutations(range(1, lam + 1))]
    )
    return (
        WreathElem(strands, perm)
        for strands in itertools.product(melems, repeat=lam)
        for perm in perms
    )


def wreath_order(mp: MonoidParams, lam: int, planar: bool = False) -> int:
    """|M^lam| (planar) or |M wr S_lam|, without enumerating."""
    if lam < 0:
        raise PreconditionError("lambda must be nonnegative")
    return (3 * mp.K) ** lam * (1 if planar else math.factorial(lam))


def check_wreath_cost(what: str, lam: int, cost, bound: int) -> int:
    """check_guard(what, cost(), bound) for a cost with the factor
    |M wr S_lam|, |M^lam| or lam!, and so at least lam: a lam over the
    bound is refused first, before the slow lam! is formed."""
    check_guard(f"lambda (a lower bound on {what})", lam, bound)
    return check_guard(what, cost(), bound)


def wreath_cayley(mp: MonoidParams, lam: int, planar: bool = False) -> CayleyMonoid:
    """M wr S_lam (M^lam if planar) in ``wreath_elements``' order, its
    table filled by lookups in M's table and S_lam's.

    An element is its strands' indices into M's elements and its
    permutation p (0-based here), at index code(s) |S| + index(p), with
    code(s) the strands' indices as digits in base 3K.  By ``wreath_mul``
    the product's strand i is s_i t_(p^-1 i), so y's strand j meets x's
    strand p[j], and a row of x's products is built one of y's strand
    positions at a time, as sums of weighted digits in y's order."""
    check_wreath_cost(CAYLEY_WHAT, lam, lambda: wreath_order(mp, lam, planar) ** 2, CAYLEY_GUARD)
    m_table = cayley_of_m(mp).mul if lam else []  # M^0 forms none of M's elements
    perms = [tuple(range(lam))] if planar else list(itertools.permutations(range(lam)))
    p_table = _composition_table(perms)
    # digits[i][a][e]: the code of a e as x's strand i, in place and weight
    digits = [
        [[len(perms) * (3 * mp.K) ** (lam - 1 - i) * m for m in row] for row in m_table]
        for i in range(lam)
    ]
    table = []
    for s in itertools.product(range(3 * mp.K), repeat=lam):
        for p, p_row in zip(perms, p_table):
            codes = [0]
            for i in p:
                codes = [c + d for c in codes for d in digits[i][s[i]]]
            table.append([c + q for c in codes for q in p_row])
    return CayleyMonoid(list(wreath_elements(mp, lam, planar)), table)


def _cycles(perm: tuple[int, ...]) -> list[list[int]]:
    lam = len(perm)
    seen = [False] * lam
    cycles = []
    for start in range(1, lam + 1):
        if seen[start - 1]:
            continue
        cyc = []
        v = start
        while not seen[v - 1]:
            seen[v - 1] = True
            cyc.append(v)
            v = perm[v - 1]
        cycles.append(cyc)
    return cycles


def wreath_type(w: WreathElem, classes: list[list[MElem]], mp: MonoidParams) -> tuple[tuple[int, ...], ...]:
    """Type matrix a_{ik}: cycle products classified by generalized
    conjugacy class (rows) and cycle length (columns)."""
    lam = len(w.strands)
    class_of = {}
    for ci, cls in enumerate(classes):
        for e in cls:
            class_of[e] = ci
    inv = [0] * lam
    for k in range(lam):
        inv[w.perm[k] - 1] = k + 1

    def f(top: int) -> MElem:
        return w.strands[top - 1]

    matrix = [[0] * lam for _ in classes]
    for cyc in _cycles(w.perm):
        j = cyc[0]
        prod = f(j)
        v = j
        for _ in range(len(cyc) - 1):
            v = inv[v - 1]
            prod = m_mul(prod, f(v), mp)
        matrix[class_of[prod]][len(cyc) - 1] += 1
    return tuple(tuple(row) for row in matrix)


def m_conjugacy_classes(mp: MonoidParams) -> list[list[MElem]]:
    check_guard(CONJUGACY_WHAT, 3 * mp.K, CONJUGACY_GUARD)
    mono = cayley_of_m(mp)
    return [
        [mono.elements[v] for v in cls]
        for cls in generalized_conjugacy_classes(mono)
    ]

