"""Linear composition, closed-component evaluation, handle linearization,
and the 0/1 monoid mode, cross-checked against an independent classical
partition-composition oracle."""
import random
from fractions import Fraction

import pytest

from moebius import (
    Diagram,
    Family,
    LinComb,
    MonoidParams,
    PreconditionError,
    ResourceGuardError,
    compose,
    compose_diagrams,
    evaluate_closed,
    monoid_compose,
    parse_diagram,
    series_coeff,
    star,
    through_strands,
    validate_params,
)
from moebius.algebra import (
    _expand_handles,
    _merge_diagrams,
    _topology,
    monoid_table,
)
from moebius.cells import enumerate_family_monoid, family_monoid_cayley
from moebius.diagram import is_member, node_key
from moebius.errors import InternalCheckError

from conftest import (
    all_ones_evals,
    family_shapes,
    lincomb_scale,
    lincomb_star,
    lincomb_tensor,
    oracle_compose,
    oracle_compose_diagrams,
    oracle_expand_handles,
    oracle_monoid_compose,
    random_diagram,
    random_family_diagram,
    random_paramsets,
)

A = "6;6;{1,2'}[0,0]|{2,4,5}[0,0]|{3,3'}[0,0]|{6,1',4',6'}[0,0]|{5'}[0,0]"
B = "6;6;{1,1'}[0,0]|{2,4,5}[0,0]|{3}[0,0]|{6,2',4',6'}[0,0]|{3'}[0,0]|{5'}[0,0]"


def lc(text):
    return LinComb.from_diagram(parse_diagram(text))


def test_evaluate_closed_examples(ps_geometric_2):
    assert evaluate_closed((0, 0), ps_geometric_2) == 2  # alpha_0
    assert evaluate_closed((1, 1), ps_geometric_2) == series_coeff(ps_geometric_2, "beta", 1)
    # three crosscaps rewrite to one handle + one crosscap
    assert evaluate_closed((0, 3), ps_geometric_2) == series_coeff(ps_geometric_2, "beta", 1)


def test_compose_partition_example(ps_geometric_2):
    out = compose(lc(A), lc(B), ps_geometric_2)
    want = lc(
        "6;6;{1,2'}[0,0]|{2,4,5}[0,0]|{3}[0,0]|{6,1',4',6'}[0,0]|{3'}[0,0]|{5'}[0,0]"
    )
    assert out == want


def test_compose_hom_example():
    # closed component evaluates to alpha_0 = 1 here
    ps = validate_params([1], [1], [1], [1, -1])
    f = lc("2;3;{1,1',2'}[0,0]|{2}[0,0]|{3'}[0,0]")
    g = lc("4;2;{1,1'}[0,0]|{2,4}[0,0]|{3}[0,0]|{2'}[0,0]")
    out = compose(f, g, ps)
    want = lc("4;3;{1,1',2'}[0,0]|{2,4}[0,0]|{3}[0,0]|{3'}[0,0]")
    assert out == want


def test_compose_loop_evaluations(ps_geometric_2):
    eps = lc("1;0;{1}[0,0]")
    eta = lc("0;1;{1'}[0,0]")
    out = compose(eps, eta, ps_geometric_2)
    assert out.terms == ((parse_diagram("0;0;"), Fraction(2)),)
    # loop with 1 + 2 crosscap dots evaluates to beta_1
    out2 = compose(lc("1;0;{1}[0,1]"), lc("0;1;{1'}[0,2]"), ps_geometric_2)
    beta1 = series_coeff(ps_geometric_2, "beta", 1)
    assert out2.terms == ((parse_diagram("0;0;"), beta1),)


def test_compose_boundary_mismatch(ps_geometric_2):
    with pytest.raises(PreconditionError):
        compose(lc("2;2;{1,1'}[0,0]|{2,2'}[0,0]"), lc("3;3;{1,1'}[0,0]|{2,2'}[0,0]|{3,3'}[0,0]"), ps_geometric_2)


def test_handle_expansion_two_terms():
    # q = 1 - T - T^2 rewrites h^2 -> h^1 + h^0 on open blocks
    ps = validate_params([1, 1], [1], [1], [1, -1, -1])
    assert ps.K == 2
    d = lc("1;1;{1,1'}[2,0]")
    out = compose(d, lc("1;1;{1,1'}[0,0]"), ps)
    want = {
        parse_diagram("1;1;{1,1'}[1,0]"): Fraction(1),
        parse_diagram("1;1;{1,1'}[0,0]"): Fraction(1),
    }
    assert dict(out.terms) == want


def test_handle_expansion_matches_the_recursive_oracle():
    # each block reduced once per exponent and the blocks multiplied out
    # give the terms of one recursion per rewrite, coefficient for
    # coefficient, on random open blocks under random parameter sets
    rng = random.Random(23)
    sets = random_paramsets(rng, 30) + [validate_params([1, 1], [1], [2], [1, -1, -1])]
    multi = 0
    for ps in sets:
        for _ in range(12):
            d = random_diagram(rng, rng.randint(1, 3), rng.randint(1, 3), max_h=3 * ps.K, max_mob=2)
            coeff = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            blocks = list(d.blocks)
            want: dict = {}
            oracle_expand_handles(blocks, coeff, ps, want, d.n, d.m)
            got = LinComb.make(d.n, d.m, _expand_handles(blocks, coeff, ps, d.n, d.m))
            assert got == LinComb.make(d.n, d.m, want), (ps, d)
            assert all(type(c) is Fraction for _, c in got.terms)
            multi += len(got.terms) > 1
    assert multi > 50


def test_handle_expansion_is_linear_in_the_handle_count():
    # q = 1 - T - T^2 makes h^e = h^(e-1) + h^(e-2): Fibonacci coefficients,
    # which one recursion per rewrite takes 2^40 steps to reach
    ps = validate_params([1], [1], [1], [1, -1, -1])
    out = compose(lc("1;1;{1,1'}[40,0]"), lc("1;1;{1,1'}[0,0]"), ps)
    assert dict(out.terms) == {
        parse_diagram("1;1;{1,1'}[0,0]"): Fraction(63245986),
        parse_diagram("1;1;{1,1'}[1,0]"): Fraction(102334155),
    }
    # a handle count deeper than the interpreter's recursion limit
    ones = validate_params([1], [1], [1], [1, -1])
    out = compose(lc("1;1;{1,1'}[3000,0]"), lc("1;1;{1,1'}[0,0]"), ones)
    assert dict(out.terms) == {parse_diagram("1;1;{1,1'}[0,0]"): Fraction(1)}


def test_handle_expansion_guard_trips_before_the_work(monkeypatch):
    # the exponents to rewrite and the terms are each charged first: a
    # handle count of 10^12, or 2^17 terms from 17 blocks of two terms each
    from moebius import algebra

    calls = []
    reduce = algebra._reduce_handles
    monkeypatch.setattr(algebra, "_reduce_handles", lambda h, ps: calls.append(h) or reduce(h, ps))
    ones = validate_params([1], [1], [1], [1, -1])
    with pytest.raises(ResourceGuardError, match="handle exponents to rewrite is 1000000000000"):
        compose(lc("1;1;{1,1'}[1000000000000,0]"), lc("1;1;{1,1'}[0,0]"), ones)
    assert calls == []
    fib = validate_params([1], [1], [1], [1, -1, -1])
    blocks = [((k,), 2, 0) for k in range(1, 18)]
    with pytest.raises(ResourceGuardError, match="terms of the handle expansion is 131072"):
        algebra._expand_handles(blocks, Fraction(1), fib, 17, 0)
    assert calls == [2]
    assert len(algebra._expand_handles(blocks[:16], Fraction(1), fib, 16, 0)) == 2**16


def test_equal_examples(ps_geometric_2):
    x = lc("1;1;{1,1'}[0,0]")
    assert x == lincomb_scale(x, 1)
    assert x != lc("1;1;{1,1'}[0,1]")
    y = LinComb.make(1, 1, {parse_diagram("1;1;{1,1'}[0,0]"): Fraction(1),
                           parse_diagram("1;1;{1,1'}[0,1]"): Fraction(0)})
    assert x == y


def test_monoid_compose_tl_identity():
    mp = MonoidParams(1, 1)
    evals = all_ones_evals(mp)
    e1 = parse_diagram("3;3;{1,2}[0,0]|{1',2'}[0,0]|{3,3'}[0,0]")
    e2 = parse_diagram("3;3;{2,3}[0,0]|{2',3'}[0,0]|{1,1'}[0,0]")
    out = monoid_compose(monoid_compose(e1, e2, mp, evals), e1, mp, evals)
    assert out == e1
    # independent oracle: the diagram part with all evaluations 1
    d12, _ = oracle_compose(e1, e2)
    d121, _ = oracle_compose(d12, e1)
    assert d121 == e1


def test_monoid_compose_zero_absorbs():
    mp = MonoidParams(1, 1)
    evals = all_ones_evals(mp)
    assert monoid_compose(None, parse_diagram("1;1;{1,1'}[0,0]"), mp, evals) is None
    zero_evals = {k: 0 for k in evals}
    eps = parse_diagram("1;0;{1}[0,0]")
    eta = parse_diagram("0;1;{1'}[0,0]")
    assert monoid_compose(eps, eta, mp, zero_evals) is None


def test_monoid_compose_rejects_bad_table():
    mp = MonoidParams(1, 1)
    with pytest.raises(PreconditionError):
        monoid_compose(
            parse_diagram("1;1;{1,1'}[0,0]"),
            parse_diagram("1;1;{1,1'}[0,0]"),
            mp,
            {(0, 0): 2},
        )


def _random_lincombs(rng, shapes, ps, count):
    for _ in range(count):
        yield LinComb.from_diagram(
            random_family_diagram(rng, shapes, max_h=ps.K, max_mob=4)
        )


def test_associativity_random_families():
    rng = random.Random(20240)
    paramsets = [
        validate_params([1], [1], [1], [1, -1]),
        validate_params([1, 1], [1], [1], [1, -1, -1]),
        validate_params([2], [1, 1], [0, 1], [1, 0, 0, -1]),
    ]
    for f in Family:
        shapes = family_shapes(f, 3, 3)
        for ps in paramsets:
            for _ in range(12):
                x, y, z = list(_random_lincombs(rng, shapes, ps, 3))
                lhs = compose(compose(x, y, ps), z, ps)
                rhs = compose(x, compose(y, z, ps), ps)
                assert lhs == rhs, (f, ps.q)


def test_interchange_law():
    rng = random.Random(7)
    ps = validate_params([1, 1], [1], [1], [1, -1, -1])
    shapes2 = family_shapes(Family.PARTITION, 2, 2)
    for _ in range(40):
        f1, f2, g1, g2 = (
            LinComb.from_diagram(random_family_diagram(rng, shapes2, 2, 4))
            for _ in range(4)
        )
        lhs = compose(lincomb_tensor(f1, f2), lincomb_tensor(g1, g2), ps)
        rhs = lincomb_tensor(compose(f1, g1, ps), compose(f2, g2, ps))
        assert lhs == rhs


def test_star_anti_involution():
    rng = random.Random(77)
    ps = validate_params([1, 1], [1], [1], [1, -1, -1])
    shapes = family_shapes(Family.PARTITION, 3, 3)
    for _ in range(60):
        f, g = (LinComb.from_diagram(random_family_diagram(rng, shapes, 2, 4)) for _ in range(2))
        assert lincomb_star(compose(f, g, ps)) == compose(lincomb_star(g), lincomb_star(f), ps)


def test_eval_handle_commutation():
    rng = random.Random(5)
    for ps in random_paramsets(rng, 10, max_K=4):
        for mob in range(3):
            for h in range(ps.K, 2 * ps.K + 1):
                direct = evaluate_closed((h, mob), ps)
                expanded = sum(
                    (-1) ** (i + 1) * ps.handle_coeffs[i - 1]
                    * evaluate_closed((h - i, mob), ps)
                    for i in range(1, ps.M_deg + 1)
                )
                assert direct == expanded


def test_through_strands_bounded_by_min():
    rng = random.Random(13)
    ps = validate_params([1], [1], [1], [1, -1])
    shapes = family_shapes(Family.PARTITION, 3, 3)
    for _ in range(100):
        x = random_family_diagram(rng, shapes, 1, 4)
        y = random_family_diagram(rng, shapes, 1, 4)
        bound = min(through_strands(x), through_strands(y))
        for d, _ in compose_diagrams(x, y, ps).terms:
            assert through_strands(d) <= bound


def test_classical_composition_cross_check(ps_ones):
    # undecorated diagrams with every coefficient 1: the production
    # composition must match the classical partition calculus at delta=1
    rng = random.Random(99)
    for n in (1, 2, 3):
        shapes = family_shapes(Family.PARTITION, n, n)
        for _ in range(60):
            x, y = rng.choice(shapes), rng.choice(shapes)
            out = compose_diagrams(x, y, ps_ones)
            d, c = out.single()
            od, _ = oracle_compose(x, y)
            assert (d, c) == (od, Fraction(1))


def _merge_summary(f, g):
    open_blocks, closed = _merge_diagrams(f, g)
    return (
        {(tuple(sorted(nodes, key=node_key)), h, mob) for nodes, h, mob in open_blocks},
        sorted(closed),
    )


def _oracle_summary(f, g):
    d, closed = oracle_compose(f, g)
    return set(d.blocks), closed


def _merge_grid_pairs() -> list[tuple[Family, Diagram, Diagram]]:
    # decorated pairs (family, f, g) from every family, square and
    # rectangular, with g's top meeting f's bottom
    rng = random.Random(2026)
    pairs = []
    for f in Family:
        shapes = {
            (n, m): family_shapes(f, n, m) for n in range(4) for m in range(4)
        }
        sizes = [nm for nm, found in shapes.items() if found]
        for _ in range(80):
            bottom, mid = rng.choice(sizes)
            tops = [m for (n, m) in sizes if n == mid]
            g = random_family_diagram(rng, shapes[bottom, mid], 2, 4)
            top = rng.choice(tops)
            x = random_family_diagram(rng, shapes[mid, top], 2, 4)
            pairs.append((f, x, g))
    return pairs


def _merge_oracle_grid() -> int:
    # the block-level merge must glue the same components with the same
    # summed decorations as breadth-first search over nodes
    closing = 0
    for f, x, g in _merge_grid_pairs():
        summary = _merge_summary(x, g)
        assert summary == _oracle_summary(x, g), (f, x, g)
        closing += bool(summary[1])
    return closing


def test_merge_matches_the_node_level_oracle():
    # once with an empty topology memo, then again with every shape pair
    # of the grid already in it
    _topology.cache_clear()
    assert _merge_oracle_grid() > 100  # the grid exercises closed components
    cold = _topology.cache_info()
    assert cold.misses > 0
    assert _merge_oracle_grid() > 100
    warm = _topology.cache_info()
    assert warm.misses == cold.misses and warm.hits >= cold.hits + 800
    x, y = parse_diagram("1;0;{1}[0,1]"), parse_diagram("0;1;{1'}[0,2]")
    assert _merge_summary(x, y) == _oracle_summary(x, y) == (set(), [(0, 3)])


def test_equal_shapes_keep_their_own_decorations():
    # two pairs with equal shapes share one memoized topology; each still
    # sums its own decorations
    f1 = parse_diagram("2;2;{1,2}[0,0]|{1',2'}[1,0]")
    g1 = parse_diagram("2;2;{1,1'}[0,1]|{2,2'}[2,0]")
    f2 = parse_diagram("2;2;{1,2}[3,2]|{1',2'}[0,1]")
    g2 = parse_diagram("2;2;{1,1'}[1,0]|{2,2'}[0,3]")
    _topology.cache_clear()
    first = _merge_diagrams(f1, g1)
    second = _merge_diagrams(f2, g2)
    assert _topology.cache_info().misses == 1
    assert first == ([((1, 2), 2, 1), ((-1, -2), 1, 0)], [])
    assert second == ([((1, 2), 4, 5), ((-1, -2), 0, 1)], [])
    for x, g in ((f1, g1), (f2, g2)):
        assert _merge_summary(x, g) == _oracle_summary(x, g)


def test_topology_memo_is_bounded():
    assert _topology.cache_info().maxsize is not None


def test_topology_checks_its_cover():
    # node tuples no diagram has: g's only bottom node is 2 on a 1-node boundary
    _topology.cache_clear()
    with pytest.raises(InternalCheckError, match="cover"):
        _topology(((2,),), ((),), 0)


# (parameters, term counts seen on the grid): K = 1 with q = 1 - T;
# K = 3 with q = 1 - T^3, where handle expansion runs and gamma_0 = 0;
# K = 2 with q = 1 - T - T^2, where every rewrite makes two terms; and
# beta = 0, which zeroes every component closing with one crosscap
REPLAY_PARAMS = [
    (([2], [1], [3], [1, -1]), {1}),
    (([2], [1, 1], [0, 1], [1, 0, 0, -1]), {0, 1}),
    (([1, 1], [1], [2], [1, -1, -1]), {1, 2, 4, 8, 16}),
    (([1], [], [1], [1, -1]), {0, 1}),
]


@pytest.mark.parametrize("params, term_counts", REPLAY_PARAMS)
def test_compose_matches_the_make_oracle(params, term_counts):
    # the replayed canonical layout builds exactly the LinComb that
    # Diagram.make and LinComb.make build, Fraction coefficients included
    ps = validate_params(*params)
    seen = set()
    for f, x, g in _merge_grid_pairs():
        out = compose_diagrams(x, g, ps)
        assert out == oracle_compose_diagrams(x, g, ps), (f, x, g)
        assert all(type(c) is Fraction for _, c in out.terms)
        seen.add(len(out.terms))
    assert seen == term_counts


def test_monoid_compose_matches_the_make_oracle():
    mp = MonoidParams(3, 1)
    evals = all_ones_evals(mp)
    evals[(1, 0)] = evals[(2, 2)] = 0
    results = set()
    for f, x, g in _merge_grid_pairs():
        out = monoid_compose(x, g, mp, evals)
        assert out == oracle_monoid_compose(x, g, mp, evals), (f, x, g)
        results.add(out is None)
    assert results == {False, True}


def test_family_monoid_table_matches_the_make_oracle():
    # Brauer n = 2 with h^3 = h^2: 243 elements, closed loops on every cup-cap
    mp = MonoidParams(3, 1)
    evals = all_ones_evals(mp)
    elements, mono = family_monoid_cayley(Family.BRAUER, 2, mp)
    assert len(elements) == 243
    for x, row in zip(elements, mono.mul):
        for y, k in zip(elements, row):
            assert elements[k] == oracle_monoid_compose(x, y, mp, evals)


def _table_oracle_cases():
    # (family, n, params, row step): the one-element n = 0 monoids, every
    # n = 1 monoid up to K = 3 and the n = 2 monoids at K = 1, on every 5th
    # row where they are large, save two that keep every row
    full = {(Family.PLANAR_PARTITION, 2), (Family.TEMPERLEY_LIEB, 3)}
    cases = []
    for f in Family:
        cases += [(f, 0, MonoidParams(K, 1), 1) for K in (1, 2)]
        cases += [(f, 1, MonoidParams(K, 3 if K == 3 else 1), 1) for K in (1, 2, 3)]
        cases.append((f, 2, MonoidParams(1, 1), 1 if (f, 2) in full else 5))
    cases.append((Family.TEMPERLEY_LIEB, 3, MonoidParams(1, 1), 1))
    cases += [(Family.BRAUER, 2, MonoidParams(K, r), 5) for K, r in ((2, 1), (3, 1), (3, 3))]
    return [
        pytest.param(f, n, mp, step, id=f"{f.value}-n{n}-K{mp.K}-r{mp.r}")
        for f, n, mp, step in cases
    ]


@pytest.mark.parametrize("f, n, mp, step", _table_oracle_cases())
def test_monoid_table_matches_per_product_composition(f, n, mp, step):
    # one topology per shape pair and M's own table give the rows that
    # CayleyMonoid.from_op(elements, monoid_compose) builds
    elements = enumerate_family_monoid(f, n, mp)
    table = monoid_table(elements, mp)
    evals = all_ones_evals(mp)
    index = {e: i for i, e in enumerate(elements)}
    assert len(table) == len(elements)
    for x, row in zip(elements[::step], table[::step]):
        assert row == [index[monoid_compose(x, y, mp, evals)] for y in elements], x


def test_monoid_table_of_a_sparse_list_at_large_k():
    # the identity and a rook idempotent whose dead blocks carry a^99 b^2
    # and 1: closed under products, and coded in base 3K = 300
    mp = MonoidParams(100, 1)
    elements = [parse_diagram("1;1;{1,1'}[0,0]"), parse_diagram("1;1;{1}[99,2]|{1'}[0,0]")]
    evals = all_ones_evals(mp)
    assert monoid_table(elements, mp) == [[0, 1], [1, 1]] == [
        [elements.index(monoid_compose(x, y, mp, evals)) for y in elements] for x in elements
    ]


def test_monoid_table_rejects_bad_element_lists():
    mp = MonoidParams(2, 1)
    elements = enumerate_family_monoid(Family.BRAUER, 2, mp)
    with pytest.raises(PreconditionError, match="multiplication leaves the element list"):
        monoid_table(elements[:-1], mp)
    # one element gone from a shape whose other elements stay: a product
    # that lands on it finds no key in its shape, though the shape is there
    shapes = list(dict.fromkeys(tuple(nodes for nodes, _, _ in d.blocks) for d in elements))
    middle = shapes[len(shapes) // 2]
    gone = [d for d in elements if tuple(nodes for nodes, _, _ in d.blocks) == middle][1]
    with pytest.raises(PreconditionError, match="multiplication leaves the element list"):
        monoid_table([d for d in elements if d != gone], mp)
    with pytest.raises(PreconditionError, match="duplicate elements"):
        monoid_table(elements + elements[:1], mp)
    with pytest.raises(PreconditionError, match="handle counts below K"):
        monoid_table(elements, MonoidParams(1, 1))
    with pytest.raises(PreconditionError, match="2->2 diagrams"):
        monoid_table(elements + [parse_diagram("1;1;{1,1'}[0,0]")], mp)


def test_merge_rejects_a_boundary_mismatch():
    with pytest.raises(PreconditionError):
        _merge_diagrams(parse_diagram("2;2;{1,1'}[0,0]|{2,2'}[0,0]"),
                        parse_diagram("1;1;{1,1'}[0,0]"))


def test_family_closure_under_composition(ps_ones):
    from moebius import tensor

    rng = random.Random(4)
    for f in Family:
        shapes = family_shapes(f, 2, 2)
        for _ in range(30):
            x = random_family_diagram(rng, shapes, 1, 4)
            y = random_family_diagram(rng, shapes, 1, 4)
            for d, _ in compose_diagrams(x, y, ps_ones).terms:
                assert is_member(d, f)
            assert is_member(star(x), f)
            assert is_member(tensor(x, y), f)


def test_lincomb_json(ps_geometric_2):
    out = compose(lc("1;0;{1}[0,0]"), lc("0;1;{1'}[0,0]"), ps_geometric_2)
    assert out.to_json() == [["0;0;", "2"]]
