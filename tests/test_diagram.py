"""Diagram structure: literals, normalization, tensor/star/through,
family membership, and the top/middle/bottom factorization."""
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from moebius import (
    Family,
    MonoidParams,
    ParseError,
    PreconditionError,
    factorize,
    identity,
    is_member,
    normalize_mob,
    parse_diagram,
    recompose,
    render_diagram,
    star,
    tensor,
    through_strands,
)
from moebius.cells import enumerate_half_diagrams
from moebius.diagram import Diagram, Factorization, _star_layout, is_planar, node_key
from moebius.families import admissible_lambdas
from moebius.msmall import MElem, WreathElem, wreath_elements

from conftest import (
    _set_partitions,
    family_shapes,
    member_oracle,
    oracle_star,
    planar_oracle,
    random_diagram,
    wreath_to_diagram,
)

A_LITERAL = "6;6;{1,2'}[0,0]|{2,4,5}[0,0]|{3,3'}[0,0]|{6,1',4',6'}[0,0]|{5'}[0,0]"


def test_parse_partition_example():
    a = parse_diagram(A_LITERAL)
    assert a.n == a.m == 6
    assert len(a.blocks) == 5
    assert through_strands(a) == 3


def test_parse_identity_and_decorations():
    d = parse_diagram("1;1;{1,1'}[0,0]")
    assert d == identity(1)
    d2 = parse_diagram("1;1;{1,1'}[2,1]")
    assert d2.blocks == (((1, -1), 2, 1),)


def test_parse_whitespace_and_roundtrip():
    a = parse_diagram(A_LITERAL)
    spaced = A_LITERAL.replace(",", " , ").replace("|", " | ")
    assert parse_diagram(spaced) == a
    assert parse_diagram(render_diagram(a)) == a
    assert render_diagram(parse_diagram(render_diagram(a))) == render_diagram(a)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_diagram("2;2;{1,1'}[0,0]")  # missing nodes
    with pytest.raises(ParseError):
        parse_diagram("1;1;{1,1,1'}[0,0]")  # duplicate node
    with pytest.raises(ParseError):
        parse_diagram("1;1;{1,1'}[0,-1]")  # negative decoration
    with pytest.raises(ParseError):
        parse_diagram("1;1;{1,1'}")  # malformed block
    with pytest.raises(ParseError):
        parse_diagram("1;1")


@pytest.mark.parametrize("text, message", [
    ("1;1;{1,1''}[0,0]", "bad node \"1''\" in block \"{1,1''}[0,0]\""),
    ("1;1;{a,1'}[0,0]", "bad node 'a' in block \"{a,1'}[0,0]\""),
    ("1;1;{1,-1}[0,0]", "bad node '-1' in block '{1,-1}[0,0]'"),
    ("1;1;{-1',1'}[0,0]", "bad node \"-1'\" in block \"{-1',1'}[0,0]\""),
    ("1;1;{+1,1'}[0,0]", "bad node '+1' in block \"{+1,1'}[0,0]\""),
    ("1;1;{1,'}[0,0]", "bad node \"'\" in block \"{1,'}[0,0]\""),
    ("1;1;{\u0661,1'}[0,0]", "bad node '\u0661' in block \"{\u0661,1'}[0,0]\""),
    ("1;1;{1,1'}[\u0661,0]", "malformed block \"{1,1'}[\u0661,0]\""),
    ("10;0;{1_0,1,2,3,4,5,6,7,8,9}[0,0]", "bad node '1_0' in block '{1_0,1,2,3,4,5,6,7,8,9}[0,0]'"),
    ("1_0;0;{1,2,3,4,5,6,7,8,9,10}[0,0]", "boundary size '1_0' is not decimal digits"),
    ("1;+1;{1,1'}[0,0]", "boundary size '+1' is not decimal digits"),
    ("-1;0;", "boundary size '-1' is not decimal digits"),
    ("1;x;{1}[0,0]", "boundary sizes must be integers"),
    ("1;1;{0,1,1'}[0,0]", "bad node cover: unexpected 0"),
    ("1;1;{1,1',0'}[0,0]", "bad node cover: unexpected 0"),
])
def test_parse_reads_only_decimal_nodes_and_sizes(text, message):
    # int() would read a sign, a digit separator or a non-ASCII digit, so
    # each of these was some other diagram, or a ValueError traceback
    with pytest.raises(ParseError) as err:
        parse_diagram(text)
    assert str(err.value) == message


def test_parse_reads_leading_zeros_as_decimal():
    assert parse_diagram("01;1;{01,1'}[0,0]") == parse_diagram("1;1;{1,1'}[0,0]")


MAKE_FAULTS = [
    (-1, 0, [], "boundary sizes must be nonnegative"),
    (1, -2, [], "boundary sizes must be nonnegative"),
    (1, 1, [((1, -1), 0, 0), ((), 0, 0)], "blocks must be nonempty"),
    (1, 1, [((1, -1), 0, -1)], "decorations must be nonnegative"),
    (1, 1, [((1, -1), -2, 0)], "decorations must be nonnegative"),
    (2, 1, [((1, -1), 0, 0), ((-1, 2), 0, 0)], "node 1' appears twice"),
    (1, 1, [((1, 1, -1), 0, 0)], "node 1 appears twice"),
    (2, 1, [((1, -1), 0, 0), ((1,), 0, 0)], "node 1 appears twice"),  # right count
    (2, 2, [((1, -1), 0, 0)], "bad node cover: missing 2,2'"),
    (1, 1, [((1, -1, -2), 0, 0)], "bad node cover: unexpected 2'"),
    (2, 1, [((1, -1), 0, 0), ((3, 0), 0, 0)], "bad node cover: missing 2; unexpected 3,0"),
    # faults inside a block are reported in block order, before the cover
    (1, 1, [((1, -1, 5), 0, 0), ((), 0, 0)], "blocks must be nonempty"),
    (2, 2, [((1, 1), 0, 0), ((-1,), 0, -1)], "node 1 appears twice"),
    (2, 2, [((-1,), 0, -1), ((1, 1), 0, 0)], "decorations must be nonnegative"),
    # three missing nodes are named, and the rest only counted
    (2, 3, [((1, -2), 0, 0)], "bad node cover: missing 2,1',3'"),
    (4, 0, [], "bad node cover: missing 1,2,3 and 1 more"),
    (2, 3, [((2, 7), 0, 0), ((-2, 0), 0, 0)], "bad node cover: missing 1,1',3'; unexpected 7,0"),
    (30_000_000, 1, [((2, 30_000_001), 0, 0)],
     "bad node cover: missing 1,3,4 and 29999997 more; unexpected 30000001"),
    (0, 30_000_000, [((-5,), 0, 0)], "bad node cover: missing 1',2',3' and 29999996 more"),
]


@pytest.mark.parametrize("n, m, blocks, message", MAKE_FAULTS)
@pytest.mark.parametrize("as_generator", [False, True])
def test_make_fault_messages(n, m, blocks, message, as_generator):
    raw = (b for b in blocks) if as_generator else blocks
    with pytest.raises(PreconditionError) as err:
        Diagram.make(n, m, raw)
    assert str(err.value) == message


def test_a_huge_boundary_is_neither_built_nor_listed():
    # the cover is checked from the nodes the blocks hold: a literal of 30
    # million boundary nodes and no block allocates no set of them, and
    # its message names three
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_diagram("30000000;0;")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "bad node cover: missing 1,2,3 and 29999997 more"
    assert peak < 1 << 20


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter's int() reads any number of digits")
@pytest.mark.parametrize("literal, what", [
    ("1;1;{1,1'}[D,0]", "a handle count"),
    ("1;1;{1,1'}[0,D]", "a crosscap count"),
    ("1;1;{1,D'}[0,0]", "a node"),
    ("1;1;{D,1'}[0,0]", "a node"),
])
def test_a_number_past_the_int_digit_limit_is_a_parse_error(literal, what):
    digits = sys.get_int_max_str_digits() + 700
    with pytest.raises(ParseError) as err:
        parse_diagram(literal.replace("D", "1" * digits))
    assert str(err.value) == f"{what} of {digits} digits is too long to read"


def test_make_accepts_a_generator_of_blocks():
    blocks = [((-2, 1), 1, 0), ((3, 2), 0, 2), ((-1,), 0, 0)]
    d = Diagram.make(3, 2, blocks)
    assert Diagram.make(3, 2, (b for b in blocks)) == d
    assert d.blocks == (((1, -2), 1, 0), ((2, 3), 0, 2), ((-1,), 0, 0))


@settings(max_examples=60)
@given(st.data())
def test_parse_render_roundtrip_random(data):
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    d = random_diagram(rng, rng.randint(0, 4), rng.randint(0, 4))
    assert parse_diagram(render_diagram(d)) == d


def test_sort_key_orders_as_node_key():
    # one int per node orders every pair of diagrams as (side, index) pairs
    # do, across boundary sizes too (n != m, and the diagrams' n and m differ)
    def node_key_order(d):
        return d.n, d.m, tuple(
            (tuple(node_key(v) for v in nodes), h, mob) for nodes, h, mob in d.blocks)

    rng = random.Random(29)
    sizes = [(0, 0), (1, 0), (0, 2), (1, 1), (2, 3), (3, 2), (3, 3), (4, 1), (1, 4)]
    diagrams = [random_diagram(rng, n, m, 1, 2) for n, m in sizes for _ in range(25)]
    keys = [(d.sort_key(), node_key_order(d)) for d in diagrams]
    for new_a, old_a in keys:
        for new_b, old_b in keys:
            assert (new_a < new_b, new_a == new_b) == (old_a < old_b, old_a == old_b)
    assert sorted(diagrams, key=Diagram.sort_key) == sorted(diagrams, key=node_key_order)


def test_normalize_mob_examples():
    d = parse_diagram("1;1;{1,1'}[0,3]")
    assert normalize_mob(d) == parse_diagram("1;1;{1,1'}[1,1]")
    d = parse_diagram("1;1;{1,1'}[0,2]")
    assert normalize_mob(d) == d
    d = parse_diagram("1;1;{1,1'}[2,5]")
    assert normalize_mob(d) == parse_diagram("1;1;{1,1'}[4,1]")


def _randomized_rewrite(d: Diagram, rng: random.Random) -> Diagram:
    # one rewrite step at a time on a randomly chosen oversized block
    blocks = list(d.blocks)
    while True:
        hot = [i for i, (_, _, mob) in enumerate(blocks) if mob >= 3]
        if not hot:
            break
        i = rng.choice(hot)
        nodes, h, mob = blocks[i]
        blocks[i] = (nodes, h + 1, mob - 2)
    return Diagram.make(d.n, d.m, blocks)


@settings(max_examples=50)
@given(st.data())
def test_normalize_mob_confluence(data):
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    d = random_diagram(rng, rng.randint(0, 3), rng.randint(0, 3), max_mob=9)
    assert _randomized_rewrite(d, rng) == normalize_mob(d)


def test_tensor_paper_example():
    a = parse_diagram(A_LITERAL)
    b = parse_diagram(
        "6;6;{1,1'}[0,0]|{2,4,5}[0,0]|{3}[0,0]|{6,2',4',6'}[0,0]|{3'}[0,0]|{5'}[0,0]"
    )
    ab = tensor(a, b)
    assert (ab.n, ab.m) == (12, 12)
    expected = parse_diagram(
        "12;12;{1,2'}[0,0]|{2,4,5}[0,0]|{3,3'}[0,0]|{6,1',4',6'}[0,0]|{5'}[0,0]"
        "|{7,7'}[0,0]|{8,10,11}[0,0]|{9}[0,0]|{12,8',10',12'}[0,0]|{9'}[0,0]|{11'}[0,0]"
    )
    assert ab == expected


def test_tensor_unit_and_identity():
    a = parse_diagram(A_LITERAL)
    assert tensor(a, Diagram.make(0, 0, [])) == a
    assert tensor(identity(1), identity(1)) == identity(2)


def test_star_cup_cap():
    cup = parse_diagram("2;0;{1,2}[0,0]")
    cap = parse_diagram("0;2;{1',2'}[0,0]")
    assert star(cup) == cap
    assert star(star(parse_diagram(A_LITERAL))) == parse_diagram(A_LITERAL)
    assert star(identity(3)) == identity(3)


@settings(max_examples=50)
@given(st.data())
def test_star_involution_and_tensor(data):
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    x = random_diagram(rng, rng.randint(0, 3), rng.randint(0, 3))
    y = random_diagram(rng, rng.randint(0, 3), rng.randint(0, 3))
    assert star(star(x)) == x
    assert star(tensor(x, y)) == tensor(star(x), star(y))
    assert through_strands(star(x)) == through_strands(x)


def test_through_examples():
    assert through_strands(parse_diagram(A_LITERAL)) == 3
    assert through_strands(identity(4)) == 4
    assert through_strands(parse_diagram("2;0;{1,2}[0,0]")) == 0


def _every_half():
    # all ten families, n <= 4, every admissible lambda, K <= 2
    for f in Family:
        for n in range(5):
            for lam in admissible_lambdas(f, n):
                for K in (1, 2):
                    yield from enumerate_half_diagrams(f, n, lam, K)


def test_star_matches_the_make_oracle_on_every_half():
    # the replayed layout equals Diagram.make's canonical form exactly
    _star_layout.cache_clear()
    count = 0
    for d in _every_half():
        s = star(d)
        assert s == oracle_star(d), d
        assert star(s) == d
        count += 1
    assert count == 29_608


def _through_by_scan(d: Diagram) -> int:
    return sum(
        1
        for nodes, _, _ in d.blocks
        if any(v > 0 for v in nodes) and any(v < 0 for v in nodes)
    )


def test_through_strands_matches_the_scan_on_every_half():
    seen = set()
    for d in _every_half():
        for x in (d, star(d)):
            assert through_strands(x) == _through_by_scan(x) == d.m, x
            seen.add(d.m)
    assert seen == {0, 1, 2, 3, 4}


def test_star_layout_memo_is_bounded():
    assert _star_layout.cache_info().maxsize is not None


ROBR_EXAMPLE = (
    "6;6;{1,2'}[0,0]|{2}[0,0]|{3,4}[0,0]|{5}[0,0]|{6,5'}[0,0]"
    "|{1'}[0,0]|{3',6'}[0,0]|{4'}[0,0]"
)


def test_member_examples():
    d = parse_diagram(ROBR_EXAMPLE)
    assert is_member(d, Family.ROOK_BRAUER)
    assert not is_member(d, Family.BRAUER)
    for f in Family:
        assert is_member(parse_diagram("2;2;{1,1'}[3,7]|{2,2'}[1,0]"), f)
    s = parse_diagram("2;2;{1,2'}[0,0]|{2,1'}[0,0]")
    for f in (Family.PARTITION, Family.ROOK, Family.BRAUER, Family.SYMMETRIC,
              Family.ROOK_BRAUER):
        assert is_member(s, f)
    for f in (Family.PLANAR_PARTITION, Family.MOTZKIN, Family.TEMPERLEY_LIEB,
              Family.PLANAR_ROOK, Family.PLANAR_SYMMETRIC):
        assert not is_member(s, f)


def test_planarity_wrapping_block():
    # dead block {1,3} encloses the through strand at 2
    d = parse_diagram("3;1;{1,3}[0,0]|{2,1'}[0,0]")
    assert not is_planar(d)
    d2 = parse_diagram("3;1;{1,3,1'}[0,0]|{2}[0,0]")
    assert is_planar(d2)


def test_membership_matches_the_oracle_on_every_small_diagram():
    # every diagram with n, m <= 4: 6,815 set partitions of the boundary
    count = 0
    for n in range(5):
        for m in range(5):
            ids = list(range(1, n + 1)) + [-j for j in range(1, m + 1)]
            for part in _set_partitions(ids):
                d = Diagram.make(n, m, [(tuple(b), 0, 0) for b in part])
                count += 1
                assert is_planar(d) == planar_oracle(d), render_diagram(d)
                for f in Family:
                    assert is_member(d, f) == member_oracle(d, f), (render_diagram(d), f)
    assert count == 6815


def test_membership_monotonicity_exhaustive():
    chains = [
        (Family.SYMMETRIC, Family.BRAUER),
        (Family.BRAUER, Family.ROOK_BRAUER),
        (Family.ROOK_BRAUER, Family.PARTITION),
        (Family.TEMPERLEY_LIEB, Family.MOTZKIN),
        (Family.MOTZKIN, Family.PLANAR_PARTITION),
        (Family.PLANAR_ROOK, Family.MOTZKIN),
        (Family.ROOK, Family.ROOK_BRAUER),
    ]
    for n in range(0, 4):
        shapes = family_shapes(Family.PARTITION, n, n)
        for d in shapes:
            for small, large in chains:
                if is_member(d, small):
                    assert is_member(d, large), (render_diagram(d), small, large)


def test_factorize_sandwich_example():
    d = parse_diagram("3;3;{1,2,2'}[0,0]|{3,1'}[0,0]|{3'}[0,0]")
    fact = factorize(d, MonoidParams(4, 3))
    assert fact.lambda_ts == 2
    assert fact.bottom == parse_diagram("3;2;{1,2,1'}[0,0]|{3,2'}[0,0]")
    assert fact.top == parse_diagram("2;3;{1,1'}[0,0]|{2,2'}[0,0]|{3'}[0,0]")
    assert fact.middle.perm == (2, 1)
    assert all(s == MElem(0, 0) for s in fact.middle.strands)
    assert recompose(fact) == d


def test_factorize_identity():
    mp = MonoidParams(4, 3)
    fact = factorize(identity(3), mp)
    assert fact.bottom == identity(3) and fact.top == identity(3)
    assert fact.middle.perm == (1, 2, 3)
    assert recompose(fact) == identity(3)


def test_factorize_decorations_move_to_middle():
    d = parse_diagram("1;1;{1,1'}[1,2]")
    fact = factorize(d, MonoidParams(4, 3))
    assert fact.bottom == identity(1) and fact.top == identity(1)
    assert fact.middle.strands == (MElem(1, 2),)
    assert recompose(fact) == d


def test_factorize_dead_decorations_stay_put():
    d = parse_diagram("2;2;{1,1'}[0,0]|{2}[1,2]|{2'}[0,1]")
    fact = factorize(d, MonoidParams(2, 1))
    assert fact.bottom == parse_diagram("2;1;{1,1'}[0,0]|{2}[1,2]")
    assert fact.top == parse_diagram("1;2;{1,1'}[0,0]|{2'}[0,1]")
    assert recompose(fact) == d


def test_factorize_requires_normal_form():
    mp = MonoidParams(2, 1)
    with pytest.raises(PreconditionError):
        factorize(parse_diagram("1;1;{1,1'}[0,3]"), mp)
    with pytest.raises(PreconditionError):
        factorize(parse_diagram("1;1;{1,1'}[2,0]"), mp)


def test_factorize_roundtrip_random():
    rng = random.Random(3)
    mp = MonoidParams(3, 1)
    for _ in range(120):
        # mob <= 4 normalizes to at most one extra handle, so h stays below K
        d = normalize_mob(random_diagram(rng, rng.randint(0, 4), rng.randint(0, 4), max_h=1))
        fact = factorize(d, mp)
        assert recompose(fact) == d
        assert fact.lambda_ts == through_strands(d)
        # bottom decorations only on dead blocks; through blocks clean
        for nodes, h, mob in fact.bottom.blocks:
            if any(v < 0 for v in nodes):
                assert (h, mob) == (0, 0)


def _make_factorize(d: Diagram, mp: MonoidParams) -> Factorization:
    """factorize with both halves built by Diagram.make, which re-sorts
    and re-validates them; the oracle for the constructor-built halves."""
    through, bottom_blocks, top_blocks = [], [], []
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
    strands = [MElem(0, 0)] * lam
    perm = [0] * lam
    for t in range(lam):
        bottom_blocks.append((through[t][0] + (-bottom_rank[t],), 0, 0))
        top_blocks.append(((top_rank[t],) + through[t][1], 0, 0))
        perm[bottom_rank[t] - 1] = top_rank[t]
        strands[top_rank[t] - 1] = MElem(through[t][2], through[t][3])
    return Factorization(
        top=Diagram.make(lam, d.m, top_blocks),
        middle=WreathElem(tuple(strands), tuple(perm)),
        bottom=Diagram.make(d.n, lam, bottom_blocks),
        lambda_ts=lam,
    )


def test_factorize_matches_the_make_oracle():
    # sampled J-cell elements of every family at n <= 3, K in {1, 3} and
    # r in {1, 3}: the halves are already canonical without Diagram.make
    rng = random.Random(9)
    checked = 0
    for f in Family:
        for n in (1, 2, 3):
            for mp in (MonoidParams(1, 1), MonoidParams(3, 1), MonoidParams(3, 3)):
                for lam in admissible_lambdas(f, n):
                    halves = enumerate_half_diagrams(f, n, lam, mp.K)
                    mids = list(wreath_elements(mp, lam, planar=f.planar))
                    for _ in range(6):
                        fact = Factorization(star(rng.choice(halves)), rng.choice(mids),
                                             rng.choice(halves), lam)
                        d = recompose(fact)
                        assert factorize(d, mp) == _make_factorize(d, mp) == fact, d
                        checked += 1
    assert checked > 1000


def test_recompose_builds_canonical_blocks():
    # the grid above: recompose's blocks, built without Diagram.make, are
    # those Diagram.make gives for the same blocks
    rng = random.Random(9)
    checked = 0
    for f in Family:
        for n in (1, 2, 3):
            for mp in (MonoidParams(1, 1), MonoidParams(3, 1), MonoidParams(3, 3)):
                for lam in admissible_lambdas(f, n):
                    halves = enumerate_half_diagrams(f, n, lam, mp.K)
                    mids = list(wreath_elements(mp, lam, planar=f.planar))
                    for _ in range(6):
                        fact = Factorization(star(rng.choice(halves)), rng.choice(mids),
                                             rng.choice(halves), lam)
                        d = recompose(fact)
                        assert d == Diagram.make(d.n, d.m, d.blocks), d
                        checked += 1
    assert checked > 1000


def test_wreath_to_diagram():
    w = WreathElem((MElem(1, 0), MElem(0, 2)), (2, 1))
    d = wreath_to_diagram(w)
    assert d == parse_diagram("2;2;{1,2'}[0,2]|{2,1'}[1,0]")


def test_recompose_then_factorize_is_identity():
    # canonical factorizations assembled from enumerated halves and
    # arbitrary middles come back unchanged
    import itertools

    from moebius.cells import enumerate_half_diagrams
    from moebius.diagram import Factorization, factorize as fz
    from moebius.msmall import wreath_elements

    mp = MonoidParams(2, 1)
    halves = enumerate_half_diagrams(Family.ROOK, 2, 1, 2)
    for bottom, top in itertools.islice(itertools.product(halves, halves), 40):
        for middle in wreath_elements(mp, 1):
            fact = Factorization(
                top=star(top), middle=middle, bottom=bottom, lambda_ts=1
            )
            again = fz(recompose(fact), mp)
            assert again == fact
