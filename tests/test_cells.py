"""Half-diagram enumeration and counting, cell coordinates, Green's
cross-checks, strict idempotents, apex tables, and the count cache."""
import functools
import itertools
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from moebius import (
    Family,
    InternalCheckError,
    MonoidParams,
    PreconditionError,
    ResourceGuardError,
    ZeroPattern,
    apex_set,
    cell_of,
    enumerate_half_diagrams,
    greens_cells_bruteforce,
    identity,
    parse_diagram,
    star,
    strict_idempotent,
    through_strands,
)
from moebius import cells as cells_mod
from moebius.cells import (
    checked_dims,
    enumerate_family_monoid,
    family_monoid_cayley,
    jcell_size,
    predicted_cells,
)
from moebius.diagram import Diagram, factorize
from moebius.families import admissible_lambdas
from moebius.msmall import wreath_cayley, wreath_order
from moebius.params import monoid_params_of, validate_params
from moebius.repcount import dim_left_cell

from conftest import (
    _set_partitions,
    family_shapes,
    gram_entry,
    member_oracle,
    oracle_jcell,
    oracle_predicted_cells,
    oracle_strict_idempotents,
    wreath_to_diagram,
)


def _decorated_monoid_oracle(f: Family, n: int, K: int) -> list[Diagram]:
    """Every family shape from the Bell(2n) set-partition walk, with every
    block carrying one of the 3K decorations."""
    decos = [(h, mob) for h in range(K) for mob in range(3)]
    out = []
    for shape in family_shapes(f, n, n):
        for assignment in itertools.product(decos, repeat=len(shape.blocks)):
            blocks = [(nodes,) + deco for (nodes, _, _), deco in zip(shape.blocks, assignment)]
            out.append(Diagram.make(n, n, blocks))
    out.sort(key=Diagram.sort_key)
    return out


@pytest.mark.parametrize("f", list(Family))
def test_family_monoid_is_the_union_of_its_jcells(f):
    # n <= 3 and K <= 2, less the n = 3, K = 2 monoids of the six families
    # with singleton blocks: those have 1.3e5 to 2.7e5 elements, take half a
    # minute each in this oracle, and lie far past the Green's guard of 5000
    for n in range(4):
        for K in (1, 2):
            mp = MonoidParams(K, 1)
            size = sum(jcell_size(f, n, lam, mp) for lam in admissible_lambdas(f, n))
            if size > 15_000:
                continue
            elements = enumerate_family_monoid(f, n, mp)
            assert elements == _decorated_monoid_oracle(f, n, K), (f, n, K)
            assert len(elements) == size, (f, n, K)


def test_family_monoid_guard_trips_before_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated before the guard")

    monkeypatch.setattr(cells_mod, "enumerate_family_monoid", refuse)
    with pytest.raises(ResourceGuardError, match="over the bound 2000000"):
        family_monoid_cayley(Family.PARTITION, 3, MonoidParams(1, 1))


@functools.cache
def _half_shapes_oracle(f: Family, n: int, lam: int) -> list[Diagram]:
    """Every set partition of the bottom nodes, with every lam-subset of its
    blocks made through and given tops 1..lam in the order of least nodes,
    filtered by the membership oracle."""
    shapes = []
    for part in _set_partitions(list(range(1, n + 1))):
        for through in itertools.combinations(range(len(part)), lam):
            ordered = sorted(through, key=lambda i: min(part[i]))
            blocks = [
                (tuple(block) + ((-ordered.index(i) - 1,) if i in through else ()), 0, 0)
                for i, block in enumerate(part)
            ]
            d = Diagram.make(n, lam, blocks)
            if member_oracle(d, f):
                shapes.append(d)
    shapes.sort(key=Diagram.sort_key)
    return shapes


def test_half_shapes_match_the_set_partition_oracle(monkeypatch):
    # the walk builds only members, so it never asks is_member
    def refuse(*args):
        raise AssertionError("the walk filtered a candidate with is_member")

    monkeypatch.setattr(cells_mod, "is_member", refuse)
    for f in Family:
        for n in range(8):
            for lam in admissible_lambdas(f, n):
                expected = _half_shapes_oracle(f, n, lam)
                assert cells_mod._half_shapes(f, n, lam) == expected, (f, n, lam)


def test_dead_counts_match_the_set_partition_oracle():
    # the count table of one walk over every lambda: (lambda, dead blocks)
    # -> shapes, each oracle shape's dead blocks being those with no top
    for f in Family:
        for n in range(8):
            want = Counter(
                (lam, sum(all(v > 0 for v in nodes) for nodes, _, _ in shape.blocks))
                for lam in admissible_lambdas(f, n)
                for shape in _half_shapes_oracle(f, n, lam)
            )
            assert cells_mod._dead_counts(f, n) == want, (f, n)


def test_every_branch_of_the_half_shape_walk_ends_in_a_member():
    # each placement of the walk must have a member below it, whether the
    # walk is pruned to one lambda or runs over every lambda with no
    # prune, so the walk's work is bounded by its output: at most k + 1
    # children from the placement of node k.  A child is the next node's
    # placement or, past node n, a member.  Each placement is a
    # generator: the profiler sees a "call" each time it resumes and a
    # "return" each time it yields a child or ends
    open_ = {}  # placement frame -> members yielded before it
    dead = []
    seen = {"placements": 0, "children": 0, "members": 0, "walks": 0}

    def watch(frame, event, arg):
        if frame.f_code.co_name != "place":
            return
        if event == "call" and frame not in open_:
            open_[frame] = seen["members"]
        elif event == "return" and arg is not None:
            seen["children"] += 1
        elif event == "return":
            seen["placements"] += 1
            if open_.pop(frame) == seen["members"]:
                dead.append(frame.f_locals["k"])

    for f in Family:
        for n in range(1, 7):
            for least, most in [(lam, lam) for lam in admissible_lambdas(f, n)] + [(0, n)]:
                seen["walks"] += 1
                sys.setprofile(watch)
                try:
                    for _ in cells_mod._walk(f, n, least, most):
                        seen["members"] += 1
                finally:
                    sys.setprofile(None)
                assert not dead and not open_, (f, n, least, most, dead)
    # every placement but each walk's first is some placement's child
    assert seen["children"] == seen["placements"] - seen["walks"] + seen["members"]
    assert seen["placements"] > 5_000


def test_the_half_shape_walk_is_not_bounded_by_the_recursion_limit():
    # every family with lambda = n has one half shape, the identity's
    # bottom; its walk places n nodes one below another
    for f in Family:
        if 1200 in admissible_lambdas(f, 1200):
            assert len(cells_mod._half_shapes(f, 1200, 1200)) == 1, f
    assert checked_dims(Family.SYMMETRIC, 1200, 1) == {1200: 1}


def test_the_walk_at_lambda_n_places_each_node_once():
    # at lambda = n every node must open a through block, so the walk takes
    # no other step: n placements, the last yielding the one shape.
    # Partition and planar partition at 2,000 nodes are in, as their open
    # blocks could always take another node.  A placement ends with a
    # "return" that carries no yielded child
    ended = []

    def watch(frame, event, arg):
        if frame.f_code.co_name == "place" and event == "return" and arg is None:
            ended.append(frame.f_locals["k"])

    cases = [(f, n) for f in Family for n in range(7)]
    for f, n in cases + [(Family.PARTITION, 2000), (Family.PLANAR_PARTITION, 2000)]:
        ended.clear()
        sys.setprofile(watch)
        try:
            shapes = cells_mod._half_shapes(f, n, n)
        finally:
            sys.setprofile(None)
        assert len(shapes) == 1 and sorted(ended) == list(range(1, n + 1)), (f, n)


def test_halves_are_canonical_as_built():
    # halves come from the Diagram constructor, so each must already be
    # what Diagram.make makes of its blocks
    for f in Family:
        for n in range(5):
            for lam in admissible_lambdas(f, n):
                for K in (1, 2):
                    for h in enumerate_half_diagrams(f, n, lam, K):
                        assert h == Diagram.make(h.n, h.m, h.blocks), (f, n, lam, K, h)


def test_enumerate_tl_worked_example():
    halves = enumerate_half_diagrams(Family.TEMPERLEY_LIEB, 3, 1, 2)
    assert len(halves) == 12
    shapes = {tuple(nodes for nodes, _, _ in h.blocks) for h in halves}
    assert shapes == {((1, -1), (2, 3)), ((1, 2), (3, -1))}


def test_enumerate_rook_singletons():
    halves = enumerate_half_diagrams(Family.ROOK, 1, 0, 1)
    assert halves == [
        parse_diagram("1;0;{1}[0,0]"),
        parse_diagram("1;0;{1}[0,1]"),
        parse_diagram("1;0;{1}[0,2]"),
    ]


def test_enumerate_full_through():
    for f in (Family.PARTITION, Family.ROOK, Family.TEMPERLEY_LIEB):
        halves = enumerate_half_diagrams(f, 3, 3, 2)
        assert len(halves) == 1
        assert halves[0] == identity(3)


def test_enumerate_deterministic_and_inadmissible():
    a = enumerate_half_diagrams(Family.MOTZKIN, 3, 1, 2)
    b = enumerate_half_diagrams(Family.MOTZKIN, 3, 1, 2)
    assert a == b
    with pytest.raises(PreconditionError):
        enumerate_half_diagrams(Family.TEMPERLEY_LIEB, 3, 2, 1)  # parity
    with pytest.raises(PreconditionError):
        enumerate_half_diagrams(Family.ROOK, 2, 3, 1)  # lambda > n


def test_enumeration_counts_match_closed_forms():
    # spot checks here; the full sweep runs in the acceptance suite
    for f in (Family.ROOK, Family.BRAUER, Family.MOTZKIN, Family.PLANAR_PARTITION):
        for n in range(0, 4):
            for lam in range(n, -1, -1):
                for K in (1, 2):
                    try:
                        want = dim_left_cell(f, n, lam, K)
                    except PreconditionError:
                        continue
                    got = len(enumerate_half_diagrams(f, n, lam, K))
                    assert got == want, (f, n, lam, K)


def test_cell_of_identity_and_e1():
    mp = MonoidParams(1, 1)
    c = cell_of(identity(2), Family.TEMPERLEY_LIEB, mp)
    assert (c.lambda_ts, c.left_index, c.right_index) == (2, 0, 0)
    e1 = parse_diagram("2;2;{1,2}[0,0]|{1',2'}[0,0]")
    c1 = cell_of(e1, Family.TEMPERLEY_LIEB, mp)
    assert c1.lambda_ts == 0
    halves = enumerate_half_diagrams(Family.TEMPERLEY_LIEB, 2, 0, 1)
    assert halves[c1.left_index] == parse_diagram("2;0;{1,2}[0,0]")
    assert halves[c1.right_index] == parse_diagram("2;0;{1,2}[0,0]")


def test_cell_of_partition_example():
    mp = MonoidParams(1, 1)
    a = parse_diagram(
        "6;6;{1,2'}[0,0]|{2,4,5}[0,0]|{3,3'}[0,0]|{6,1',4',6'}[0,0]|{5'}[0,0]"
    )
    c = cell_of(a, Family.PARTITION, mp)
    assert c.lambda_ts == 3
    fact = factorize(a, mp)
    shapes = [tuple(v for v in nodes if v > 0) for nodes, _, _ in fact.bottom.blocks]
    assert sorted(shapes) == sorted([(1,), (3,), (6,), (2, 4, 5)])
    assert not cell_of(a, Family.PARTITION, mp) != c  # deterministic
    with pytest.raises(PreconditionError):
        cell_of(a, Family.ROOK, mp)


def test_greens_vs_combinatorial_cells_decorated():
    # every brute-force cell lies in one through-strand layer with fixed
    # bottom (left) / top (right), and the exact cells are predicted by
    # the factorization refined by the sandwiched monoid's own cells
    mp = MonoidParams(1, 1)
    for f, n in [(Family.TEMPERLEY_LIEB, 2), (Family.ROOK, 2), (Family.ROOK, 1)]:
        elements, mono = family_monoid_cayley(f, n, mp)
        cells = greens_cells_bruteforce(mono)
        for cell in cells.j_cells:
            assert len({through_strands(elements[i]) for i in cell}) == 1
        for cell in cells.l_cells:
            assert len({factorize(elements[i], mp).bottom for i in cell}) == 1
        for cell in cells.r_cells:
            assert len({factorize(elements[i], mp).top for i in cell}) == 1
        pl, pr, pj, ph = predicted_cells(elements, f, mp)
        assert sorted(sorted(c) for c in cells.l_cells) == pl
        assert sorted(sorted(c) for c in cells.r_cells) == pr
        assert sorted(sorted(c) for c in cells.j_cells) == pj
        assert sorted(sorted(c) for c in cells.h_cells) == ph


def _sorted_cells(cells) -> tuple:
    return tuple(sorted(sorted(c) for c in part)
                 for part in (cells.l_cells, cells.r_cells, cells.j_cells, cells.h_cells))


def test_predicted_cells_match_the_layer_oracle_and_brute_force():
    # every decorated monoid the Cayley guard admits for n = 1, 2 at four
    # (K, r), and TL n=3: the strand rule on M's own cells gives the cells
    # of each layer's whole M wr S_lambda table, and the brute-force ones
    checked = 0
    for mp in (MonoidParams(1, 1), MonoidParams(2, 1), MonoidParams(3, 1), MonoidParams(3, 3)):
        cases = [(f, n) for f in Family for n in (1, 2)]
        if mp == MonoidParams(1, 1):
            cases.append((Family.TEMPERLEY_LIEB, 3))
        for f, n in cases:
            try:
                elements, mono = family_monoid_cayley(f, n, mp)
            except ResourceGuardError:
                continue
            got = predicted_cells(elements, f, mp)
            assert got == oracle_predicted_cells(elements, f, mp), (f, n, mp)
            assert got == _sorted_cells(greens_cells_bruteforce(mono)), (f, n, mp)
            checked += 1
    assert checked == 63


def test_strand_rule_matches_brute_force_on_wreath_tables():
    # predicted_cells over the diagrams of M wr S_lambda (or M^lambda) in
    # a symmetric family, whose halves are trivial, is the strand rule on
    # the middles alone; each table up to 400 elements is brute-forced
    checked = 0
    for K, r in ((1, 1), (2, 1), (3, 1), (3, 3), (4, 3), (5, 3)):
        mp = MonoidParams(K, r)
        for f in (Family.SYMMETRIC, Family.PLANAR_SYMMETRIC):
            for lam in range(4):
                if wreath_order(mp, lam, f.planar) > 400:
                    continue
                mono = wreath_cayley(mp, lam, f.planar)
                elements = [wreath_to_diagram(w) for w in mono.elements]
                got = predicted_cells(elements, f, mp)
                assert got == _sorted_cells(greens_cells_bruteforce(mono)), (mp, f, lam)
                checked += 1
    assert checked == 38


def test_predicted_cells_build_no_wreath_table(monkeypatch):
    from moebius import msmall

    def refuse(*args, **kwargs):
        raise AssertionError("a wreath product was formed")

    for owner, name in ((msmall, "wreath_mul"), (msmall, "wreath_cayley"),
                        (cells_mod, "wreath_mul")):
        monkeypatch.setattr(owner, name, refuse)
    assert not hasattr(cells_mod, "wreath_cayley")
    mp = MonoidParams(2, 1)
    elements, mono = family_monoid_cayley(Family.BRAUER, 2, mp)
    assert predicted_cells(elements, Family.BRAUER, mp) == _sorted_cells(
        greens_cells_bruteforce(mono))


def _shape_of(d: Diagram) -> tuple:
    return tuple(nodes for nodes, _, _ in d.blocks)


def test_predicted_cells_factorize_one_element_per_shape(monkeypatch):
    # every element of a shape takes its blocks' places in the factorization
    # from one factorized element; the cells still equal the brute-force ones
    for f, n, mp in ((Family.BRAUER, 2, MonoidParams(2, 1)),
                     (Family.PLANAR_PARTITION, 2, MonoidParams(1, 1)),
                     (Family.ROOK, 1, MonoidParams(3, 3))):
        elements, mono = family_monoid_cayley(f, n, mp)
        factorized = []
        real = cells_mod.factorize
        monkeypatch.setattr(cells_mod, "factorize",
                            lambda d, mp: factorized.append(d) or real(d, mp))
        got = predicted_cells(elements, f, mp)
        monkeypatch.undo()
        shapes = {_shape_of(d) for d in elements}
        assert len(factorized) == len(shapes) < len(elements), f
        assert {_shape_of(d) for d in factorized} == shapes
        assert got == _sorted_cells(greens_cells_bruteforce(mono)), f


def test_predicted_cells_check_every_element_of_a_shape():
    # a decoration past K or a crosscap count past 2 on the last element of
    # a shape, whose first element is well formed, is refused as factorize
    # refuses it
    mp = MonoidParams(2, 1)
    elements = enumerate_family_monoid(Family.ROOK, 2, mp)
    last = {_shape_of(d): i for i, d in enumerate(elements)}
    first = {}
    for i, d in enumerate(elements):
        first.setdefault(_shape_of(d), i)
    i = next(i for shape, i in last.items() if i != first[shape])
    for (h, mob), message in (((2, 0), "handle counts below K"), ((0, 3), "mob-normalized")):
        nodes, _, _ = elements[i].blocks[-1]
        blocks = elements[i].blocks[:-1] + ((nodes, h, mob),)
        bad = list(elements)
        bad[i] = Diagram(elements[i].n, elements[i].m, blocks)
        with pytest.raises(PreconditionError, match=message):
            factorize(bad[i], mp)
        with pytest.raises(PreconditionError, match=message):
            predicted_cells(bad, Family.ROOK, mp)


def test_l_cells_equal_size_within_j():
    mp = MonoidParams(1, 1)
    elements, mono = family_monoid_cayley(Family.TEMPERLEY_LIEB, 2, mp)
    cells = greens_cells_bruteforce(mono)
    j_of = {}
    for ji, cell in enumerate(cells.j_cells):
        for v in cell:
            j_of[v] = ji
    sizes: dict = {}
    for lc in cells.l_cells:
        sizes.setdefault(j_of[lc[0]], set()).add(len(lc))
    for got in sizes.values():
        assert len(got) == 1


def test_star_swaps_left_and_right_cells():
    mp = MonoidParams(1, 1)
    elements, mono = family_monoid_cayley(Family.ROOK, 2, mp)
    index = {d: i for i, d in enumerate(elements)}
    cells = greens_cells_bruteforce(mono)
    l_of = {}
    for ci, cell in enumerate(cells.l_cells):
        for v in cell:
            l_of[v] = ci
    r_of = {}
    for ci, cell in enumerate(cells.r_cells):
        for v in cell:
            r_of[v] = ci
    for d in elements:
        for e in elements:
            if l_of[index[d]] == l_of[index[e]]:
                assert r_of[index[star(d)]] == r_of[index[star(e)]]


def test_find_strict_idempotent_rook_dot_pair(ps_ones):
    found = strict_idempotent(Family.ROOK, 2, 1, ps_ones)
    assert found is not None
    element, scalar = found
    assert scalar == 1
    assert through_strands(element) == 1


def test_find_strict_idempotent_motzkin_all_zero(ps_zero):
    assert strict_idempotent(Family.MOTZKIN, 2, 1, ps_zero) is None


def test_find_strict_idempotent_identity_cell(ps_zero, ps_ones):
    for ps in (ps_zero, ps_ones):
        found = strict_idempotent(Family.MOTZKIN, 2, 2, ps)
        assert found is not None and found[0] == identity(2) and found[1] == 1


IDEMPOTENT_GRID = {
    "(2,1,1)": ([2], [1], [1], [1, -1]),
    "(1,1,0)": ([1], [1], [0], [1, -1]),
    "all-zero": ([], [], [], [1, -1]),
    "K2": ([1, 1], [1], [1], [1, -1]),
    "K3": ([2], [1, 1], [0, 1], [1, 0, 0, -1]),
}


def test_strict_idempotent_matches_the_squaring_oracle(monkeypatch):
    # every cell of n <= 3 with at most 2,000 elements: squaring each
    # element of a J-cell listed by the set-partition walk finds the strict
    # idempotents that the sandwich test forms, each formed once, and the
    # same least one with the same scalar, the Gram entry of its halves
    formed = []
    recompose = cells_mod.recompose

    def recorded(fact):
        formed.append(recompose(fact))
        return formed[-1]

    monkeypatch.setattr(cells_mod, "recompose", recorded)
    cells = found = 0
    for ps in (validate_params(*p, allow_zero_alpha=True) for p in IDEMPOTENT_GRID.values()):
        mp = monoid_params_of(ps)
        for f in Family:
            for n in range(4):
                for lam in admissible_lambdas(f, n):
                    if dim_left_cell(f, n, lam, mp.K) ** 2 * wreath_order(mp, lam, f.planar) > 2000:
                        continue
                    formed.clear()
                    got = strict_idempotent(f, n, lam, ps)
                    want = list(oracle_strict_idempotents(oracle_jcell(f, n, lam, mp.K), ps))
                    assert got == (want[0] if want else None), (f, n, lam, ps)
                    assert sorted(formed, key=Diagram.sort_key) == [e for e, _ in want]
                    cells += 1
                    if got is not None:
                        found += 1
                        fact = factorize(got[0], mp)
                        assert got[1] == gram_entry(fact.bottom, star(fact.top), ps, mp)
    assert (cells, found) == (312, 288)


@pytest.mark.parametrize("f, n", [(Family.ROOK, 3), (Family.MOTZKIN, 3), (Family.PARTITION, 2),
                                  (Family.BRAUER, 4), (Family.PLANAR_PARTITION, 3)])
def test_strict_idempotent_composes_each_pair_of_halves_once(monkeypatch, f, n):
    from moebius import algebra

    calls = []
    compose_diagrams = algebra.compose_diagrams

    def counted(x, y, ps):
        calls.append(1)
        return compose_diagrams(x, y, ps)

    monkeypatch.setattr(algebra, "compose_diagrams", counted)
    ps = validate_params([2], [1], [1], [1, -1])
    for lam in admissible_lambdas(f, n):
        calls.clear()
        strict_idempotent(f, n, lam, ps)
        assert 0 < len(calls) <= dim_left_cell(f, n, lam, 1) ** 2, (f, n, lam)


def test_strict_idempotent_is_refused_before_its_halves(monkeypatch, ps_ones):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the guard")

    monkeypatch.setattr(cells_mod, "enumerate_half_diagrams", refuse)
    with pytest.raises(ResourceGuardError, match="the size of the J-cell at lambda=2"):
        strict_idempotent(Family.PARTITION, 4, 2, ps_ones)


def test_apex_set_rows():
    assert apex_set(Family.ROOK, 3, ZeroPattern.ALL_ZERO).apexes == {3}
    assert apex_set(Family.PARTITION, 3, ZeroPattern.SOME_NONZERO).apexes == {0, 1, 2, 3}
    assert apex_set(Family.PARTITION, 3, ZeroPattern.ALL_ZERO).apexes == {1, 2, 3}
    for pattern in ZeroPattern:
        assert apex_set(Family.SYMMETRIC, 4, pattern).apexes == {4}
    assert apex_set(Family.TEMPERLEY_LIEB, 4, ZeroPattern.ALL_ZERO).apexes == {2, 4}
    assert apex_set(Family.TEMPERLEY_LIEB, 4, ZeroPattern.SOME_NONZERO).apexes == {0, 2, 4}
    assert apex_set(Family.MOTZKIN, 3, ZeroPattern.ALL_ZERO).apexes == {1, 3}
    assert apex_set(Family.MOTZKIN, 3, ZeroPattern.SOME_NONZERO).apexes == {0, 1, 2, 3}
    with pytest.raises(PreconditionError):
        apex_set(Family.ROOK, -1, ZeroPattern.ALL_ZERO)


def _apex_oracle(f: Family, n: int, zero_pattern: ZeroPattern) -> set[int]:
    """The classification's table as sets, column by column."""
    full = set(range(n + 1))
    parity = {lam for lam in full if (n - lam) % 2 == 0}
    all_zero = zero_pattern is ZeroPattern.ALL_ZERO
    if f in (Family.SYMMETRIC, Family.PLANAR_SYMMETRIC):
        return {n}
    if f in (Family.ROOK, Family.PLANAR_ROOK):
        return {n} if all_zero else full
    if f in (Family.BRAUER, Family.TEMPERLEY_LIEB):
        return parity - {0} if all_zero else parity
    if f in (Family.ROOK_BRAUER, Family.MOTZKIN):
        return parity - {0} if all_zero else full
    return full - {0} if all_zero else full


def test_apex_set_matches_the_table_oracle():
    for f in Family:
        for n in range(14):
            for pattern in ZeroPattern:
                assert apex_set(f, n, pattern).apexes == _apex_oracle(f, n, pattern), (f, n)


def test_apex_set_is_refused_before_its_set_forms(monkeypatch):
    huge = 10**20
    with pytest.raises(ResourceGuardError, match="apexes to list is a 67-bit number"):
        apex_set(Family.ROOK, huge, ZeroPattern.SOME_NONZERO)
    for f in (Family.SYMMETRIC, Family.ROOK):
        assert apex_set(f, huge, ZeroPattern.ALL_ZERO).apexes == {huge}
    # the charge is the set's exact size
    monkeypatch.setattr(cells_mod, "APEX_GUARD", 5)
    for f in Family:
        for n in range(14):
            for pattern in ZeroPattern:
                size = len(_apex_oracle(f, n, pattern))
                if size <= 5:
                    assert len(apex_set(f, n, pattern).apexes) == size
                else:
                    with pytest.raises(ResourceGuardError, match=f"apexes to list is {size},"):
                        apex_set(f, n, pattern)


def test_count_cache_roundtrip(tmp_path):
    cache = str(tmp_path)
    first = checked_dims(Family.MOTZKIN, 4, 2, cache_dir=cache)
    (path,) = tmp_path.iterdir()
    assert path.name == "counts_motzkin_n4.json"
    counts = cells_mod._dead_counts(Family.MOTZKIN, 4)
    assert cells_mod._cache_load(cache, Family.MOTZKIN, 4) == counts
    assert checked_dims(Family.MOTZKIN, 4, 2, cache_dir=cache) == first
    # corruption triggers silent regeneration
    for broken in ("{broken json", "{", "[]", '"counts"'):
        path.write_text(broken)
        assert cells_mod._cache_load(cache, Family.MOTZKIN, 4) is None
        assert checked_dims(Family.MOTZKIN, 4, 2, cache_dir=cache) == first
        assert cells_mod._cache_load(cache, Family.MOTZKIN, 4) == counts
    # checksum mismatch also regenerates
    payload = json.loads(path.read_text())
    payload["counts"] = payload["counts"][:-1]
    path.write_text(json.dumps(payload))
    assert cells_mod._cache_load(cache, Family.MOTZKIN, 4) is None
    assert checked_dims(Family.MOTZKIN, 4, 2, cache_dir=cache) == first
    assert cells_mod._cache_load(cache, Family.MOTZKIN, 4) == counts
    # so do an older format, another table's file and a row no walk makes,
    # even under its own checksum
    for key, value in (("format_version", 2), ("n", 5), ("family", "rook"),
                       ("counts", [[0, 5, 1]]), ("counts", [["0", 1, 1]])):
        payload = json.loads(path.read_text())
        payload[key] = value
        payload["checksum"] = cells_mod._cache_checksum(payload["counts"])
        path.write_text(json.dumps(payload))
        assert cells_mod._cache_load(cache, Family.MOTZKIN, 4) is None, (key, value)
        assert checked_dims(Family.MOTZKIN, 4, 2, cache_dir=cache) == first
        assert cells_mod._cache_load(cache, Family.MOTZKIN, 4) == counts


def test_the_cache_imports_no_hashlib(tmp_path):
    # hashlib loads OpenSSL, about 3.6 MiB resident: the cache's CRC-32
    # needs none of it, so no process imports it, with a cache directory
    # or without one
    code = (
        "import sys\n"
        "from moebius import Family, cli, exact_rank, gram_matrix, validate_params\n"
        "from moebius.cells import checked_dims\n"
        "ps = validate_params([1], [1], [0], [1, -1])\n"
        "exact_rank(gram_matrix(Family.ROOK, 3, 1, ps))\n"
        "checked_dims(Family.MOTZKIN, 3, 2)\n"
        "before = 'hashlib' in sys.modules\n"
        f"checked_dims(Family.MOTZKIN, 3, 2, cache_dir={str(tmp_path)!r})\n"
        f"checked_dims(Family.MOTZKIN, 3, 2, cache_dir={str(tmp_path)!r})\n"
        "print(before, 'hashlib' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(cells_mod.__file__))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]
    assert [p.name for p in tmp_path.iterdir()] == ["counts_motzkin_n3.json"]


def test_cache_store_failure_keeps_the_old_file(tmp_path, monkeypatch):
    cache = str(tmp_path)
    checked_dims(Family.MOTZKIN, 3, 2, cache_dir=cache)
    (path,) = tmp_path.iterdir()
    good = path.read_text()
    counts = cells_mod._dead_counts(Family.MOTZKIN, 3)

    def half_dump(payload, fh):
        fh.write('{"format_version": 3, "sha')
        raise OSError("disk full")

    monkeypatch.setattr(cells_mod.json, "dump", half_dump)
    with pytest.raises(OSError):
        cells_mod._cache_store(cache, Family.MOTZKIN, 3, counts)
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == [path]  # no temp file left behind
    assert path.read_text() == good
    assert cells_mod._cache_load(cache, Family.MOTZKIN, 3) == counts


def test_one_count_file_serves_every_K(tmp_path, monkeypatch):
    cache = str(tmp_path)
    checked_dims(Family.MOTZKIN, 3, 1, cache_dir=cache)

    def refuse(*args):
        raise AssertionError("walked again on a warm cache")

    monkeypatch.setattr(cells_mod, "_walk", refuse)
    warm = checked_dims(Family.MOTZKIN, 3, 2, cache_dir=cache)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["counts_motzkin_n3.json"]
    assert warm == checked_dims(Family.MOTZKIN, 3, 2)


def test_cell_of_guard_trips_before_enumerating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the guard")

    monkeypatch.setattr(cells_mod, "enumerate_half_diagrams", refuse)
    singletons = Diagram.make(10, 10, [((v,), 0, 0) for v in range(-10, 11) if v])
    with pytest.raises(ResourceGuardError):
        cell_of(singletons, Family.PARTITION, MonoidParams(1, 1))


def test_checked_dims_guards_then_compares(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("walked a shape before the guard")

    monkeypatch.setattr(cells_mod, "_walk", refuse)
    # lambdas 13 down to 7 are within the guard; lambda = 6 has 3,752,892 halves
    with pytest.raises(ResourceGuardError, match="halves to enumerate is 3752892"):
        cells_mod.checked_dims(Family.ROOK, 13, 1)
    # rook n = 1 has one shape at lambda = 1 and one with a dead block at 0
    for counts, message in (
        ({(1, 0): 1}, "closed form 3 != enumeration 0 at lambda=0"),
        ({(1, 0): 1, (0, 0): 1}, "closed form 3 != enumeration 1 at lambda=0"),
        ({(1, 0): 1, (0, 1): 1, (2, 0): 1}, "closed form 0 != enumeration 1 at lambda=2"),
    ):
        monkeypatch.setattr(cells_mod, "_dead_counts", lambda f, n: Counter(counts))
        with pytest.raises(InternalCheckError, match=message):
            cells_mod.checked_dims(Family.ROOK, 1, 1)


def test_checked_dims_refuses_a_shape_at_an_inadmissible_lambda(tmp_path):
    # temperley-lieb n = 3 has lambda 1 and 3; a cached count at lambda = 2,
    # even under its own checksum, is a mismatch, not a lambda to skip
    cache = str(tmp_path)
    assert checked_dims(Family.TEMPERLEY_LIEB, 3, 1, cache_dir=cache) == {3: 1, 1: 6}
    (path,) = tmp_path.iterdir()
    payload = json.loads(path.read_text())
    payload["counts"].append([2, 0, 1])
    payload["checksum"] = cells_mod._cache_checksum(payload["counts"])
    path.write_text(json.dumps(payload))
    with pytest.raises(InternalCheckError, match="closed form 0 != enumeration 1 at lambda=2"):
        checked_dims(Family.TEMPERLEY_LIEB, 3, 1, cache_dir=cache)


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_counted_halves_are_the_enumerated_ones(tmp_path, cached):
    # one count table per (family, n) gives every lambda and every K
    cache = str(tmp_path)
    for f in Family:
        for n in range(6):
            counts = cells_mod._dead_counts(f, n)
            if cached:
                cells_mod._cache_store(cache, f, n, counts)
                counts = cells_mod._cache_load(cache, f, n)
            assert {lam for lam, _ in counts} == set(admissible_lambdas(f, n)), (f, n)
            for lam in admissible_lambdas(f, n):
                for K in (1, 2, 3):
                    want = len(enumerate_half_diagrams(f, n, lam, K))
                    got = sum(c * (3 * K) ** d for (m, d), c in counts.items() if m == lam)
                    assert got == want, (f, n, lam, K)


def test_checked_dims_forms_no_half(monkeypatch):
    # counting reads (3K)^dead per shape; a shape with no dead block forms
    # no decoration list, so K = 10^7 costs nothing at n = 0
    def refuse(*args, **kwargs):
        raise AssertionError("formed a half")

    monkeypatch.setattr(cells_mod, "_decorate", refuse)
    assert checked_dims(Family.ROOK, 3, 2) == {lam: dim_left_cell(Family.ROOK, 3, lam, 2)
                                               for lam in range(4)}
    assert checked_dims(Family.BRAUER, 0, 10**7) == {0: 1}
    monkeypatch.undo()
    assert enumerate_half_diagrams(Family.BRAUER, 0, 0, 10**7) == [Diagram(0, 0, ())]


def _decorate_oracle(shape: Diagram, K: int):
    """Each (h, mob) assignment on the shape's dead blocks, in
    lexicographic order, substituted block by block."""
    dead = [i for i, (nodes, _, _) in enumerate(shape.blocks) if all(v > 0 for v in nodes)]
    decos = [(h, mob) for h in range(K) for mob in range(3)]
    for assignment in itertools.product(decos, repeat=len(dead)):
        blocks = list(shape.blocks)
        for slot, (h, mob) in zip(dead, assignment):
            nodes, _, _ = blocks[slot]
            blocks[slot] = (nodes, h, mob)
        yield Diagram(shape.n, shape.m, tuple(blocks))


@pytest.mark.parametrize("f", list(Family))
def test_halves_match_the_decoration_oracle_in_order(f):
    for n in range(6):
        for lam in admissible_lambdas(f, n):
            shapes = cells_mod._half_shapes(f, n, lam)
            for K in (1, 2, 3):
                want = [d for shape in shapes for d in _decorate_oracle(shape, K)]
                assert enumerate_half_diagrams(f, n, lam, K) == want, (f, n, lam, K)


def test_checked_dims_stops_at_the_first_dimension_over_the_guard(monkeypatch):
    # the table is formed from lambda = n down; a table that formed every
    # dimension first would call the closed form 1,501 times here
    calls = []

    def counted(*args):
        calls.append(args)
        return dim_left_cell(*args)

    monkeypatch.setattr(cells_mod, "dim_left_cell", counted)
    with pytest.raises(ResourceGuardError) as err:
        checked_dims(Family.MOTZKIN, 1500, 1)
    assert str(err.value) == (
        "the number of halves to enumerate is 10122747, over the bound 2000000"
    )
    assert len(calls) < 20
