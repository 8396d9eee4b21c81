"""The sandwiched monoid M(K, r), generalized conjugacy, and wreath types."""
import itertools
import random

import pytest

from moebius import (
    CayleyMonoid,
    Family,
    MElem,
    MonoidParams,
    PreconditionError,
    ResourceGuardError,
    WreathElem,
    generalized_conjugacy_classes,
    greens_cells_bruteforce,
    m_cell_structure,
    m_mul,
    omega_power,
    wreath_mul,
    wreath_type,
)
from moebius import msmall
from moebius.cells import family_monoid_cayley, jcell_size
from moebius.errors import check_guard
from moebius.families import admissible_lambdas
from moebius.msmall import (
    GreensCells,
    cayley_of_m,
    m_conjugacy_classes,
    m_elements,
    symmetric_group_cayley,
    wreath_cayley,
    wreath_elements,
    wreath_order,
)
from moebius.repcount import count_types, partition_count

from conftest import oracle_symmetric_group_cayley, oracle_wreath_cayley, wreath_identity


def test_m_mul_examples():
    mp = MonoidParams(4, 3)
    # b . b^2 = b^3 = ab
    assert m_mul(MElem(0, 1), MElem(0, 2), mp) == MElem(1, 1)
    assert m_mul(MElem(0, 0), MElem(2, 1), mp) == MElem(2, 1)
    # a^3 . a = a^4 = a^(4-3)
    assert m_mul(MElem(3, 0), MElem(1, 0), mp) == MElem(1, 0)


def test_m_size_and_commutative_associative():
    for K, r in [(2, 1), (4, 3), (5, 3), (8, 5), (8, 7)]:
        mp = MonoidParams(K, r)
        elems = m_elements(mp)
        assert len(elems) == 3 * K
        for x, y in itertools.product(elems, repeat=2):
            assert m_mul(x, y, mp) == m_mul(y, x, mp)
        for x, y, z in itertools.product(elems, repeat=3):
            assert m_mul(m_mul(x, y, mp), z, mp) == m_mul(x, m_mul(y, z, mp), mp)


def test_cell_structure_spec_case():
    rep = m_cell_structure(MonoidParams(4, 3))
    assert rep.matches_prediction
    assert rep.singleton_cells == ["1", "b", "b^2"]
    assert rep.jr_cell == ["a", "a^2", "a^3"]
    assert len(rep.j2r_cell) == 6
    assert rep.jr_idempotent == "a^3"
    assert (rep.jr_cyclic_order, rep.j2r_cyclic_order) == (3, 6)


def test_cell_structure_all_small_pairs():
    for K in range(2, 9):
        for r in range(1, K, 2):
            rep = m_cell_structure(MonoidParams(K, r))
            assert rep.matches_prediction, (K, r)


def test_cell_structure_degenerate_flag():
    rep = m_cell_structure(MonoidParams(3, 3))
    assert rep.degenerate and not rep.matches_prediction


def test_greens_spec_example_k3_r1():
    mono = cayley_of_m(MonoidParams(3, 1))
    from moebius import greens_cells_bruteforce

    cells = greens_cells_bruteforce(mono)
    named = sorted(sorted(str(mono.elements[v]) for v in cell) for cell in cells.j_cells)
    assert named == sorted(
        [["1"], ["b"], ["b^2"], ["a"], ["ab"], ["ab^2"], ["a^2"], ["a^2b", "a^2b^2"]]
    )


def test_greens_group_single_cell():
    z3 = CayleyMonoid.from_op(range(3), lambda a, b: (a + b) % 3)
    from moebius import greens_cells_bruteforce

    cells = greens_cells_bruteforce(z3)
    assert cells.j_cells == [[0, 1, 2]]
    assert cells.h_cells == [[0, 1, 2]]


# ---------------------------------------------------------------------------
# Green's cells: the Tarjan search for strongly connected components of the
# one-step ideal graphs is the oracle for the principal-ideal grouping
# ---------------------------------------------------------------------------


def _sccs(n, out_edges):
    """Iterative Tarjan; out_edges(v) yields successors."""
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    sccs = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, iter(out_edges(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] is None:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(out_edges(w))))
                    advanced = True
                    break
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


def greens_cells_tarjan(mono):
    """b lies below a on the left iff b = a or b = ca for some c; mutual
    reachability in the one-step graph (a strongly connected component)
    is the cell, likewise on the right and on both sides; H = L meet R."""
    n = mono.size
    mul = mono.mul
    l_cells = _sccs(n, lambda v: {mul[c][v] for c in range(n)})
    r_cells = _sccs(n, lambda v: {mul[v][c] for c in range(n)})
    j_cells = _sccs(n, lambda v: {mul[c][v] for c in range(n)} | {mul[v][c] for c in range(n)})
    l_of = {v: ci for ci, cell in enumerate(l_cells) for v in cell}
    r_of = {v: ci for ci, cell in enumerate(r_cells) for v in cell}
    h_map = {}
    for v in range(n):
        h_map.setdefault((l_of[v], r_of[v]), []).append(v)
    return GreensCells(sorted(l_cells), sorted(r_cells), sorted(j_cells), sorted(h_map.values()))


def _oracle_tables():
    """(label, Cayley table): every decorated family monoid at n = 1 for
    K <= 2 and at n = 2, K = 1 up to 210 elements, TL n = 3, M(K, r) for
    K <= 8 and odd r < K, S_1..S_5, every wreath table wreath_cayley
    builds for K <= 2, Z/3, and a constant table with no identity."""
    for f in Family:
        for K in (1, 2):
            yield f"{f.value} n=1 K={K}", family_monoid_cayley(f, 1, MonoidParams(K, 1))[1]
        mp = MonoidParams(1, 1)
        if sum(jcell_size(f, 2, lam, mp) for lam in admissible_lambdas(f, 2)) <= 210:
            yield f"{f.value} n=2 K=1", family_monoid_cayley(f, 2, mp)[1]
    yield "tl n=3", family_monoid_cayley(Family.TEMPERLEY_LIEB, 3, MonoidParams(1, 1))[1]
    for K in range(1, 9):
        for r in range(1, K, 2):
            yield f"M({K},{r})", cayley_of_m(MonoidParams(K, r))
    for n in range(1, 6):
        yield f"S_{n}", symmetric_group_cayley(n)
    for K in (1, 2):
        for lam in (0, 1, 2):
            for planar in (False, True):
                yield f"M({K},1) wr {lam} {planar}", wreath_cayley(MonoidParams(K, 1), lam, planar)
    yield "Z/3", CayleyMonoid.from_op(range(3), lambda a, b: (a + b) % 3)
    yield "constant 301", CayleyMonoid(list(range(301)), [[0] * 301] * 301)


def test_greens_cells_match_the_tarjan_oracle():
    sizes = []
    for label, mono in _oracle_tables():
        sizes.append(mono.size)
        assert greens_cells_bruteforce(mono) == greens_cells_tarjan(mono), label
    assert len(sizes) == 62 and max(sizes) == 301


def test_omega_power_examples():
    mp = MonoidParams(4, 3)
    mono = cayley_of_m(mp)
    idx = {e: i for i, e in enumerate(mono.elements)}
    assert mono.elements[omega_power(idx[MElem(1, 0)], mono)] == MElem(3, 0)
    assert omega_power(idx[MElem(0, 0)], mono) == idx[MElem(0, 0)]
    z6 = CayleyMonoid.from_op(range(6), lambda a, b: (a + b) % 6)
    for x in range(6):
        assert omega_power(x, z6) == 0


def test_omega_power_rejects_a_table_without_an_idempotent_power():
    # neither element squares to itself, so no finite semigroup has this table
    with pytest.raises(PreconditionError, match="not associative"):
        omega_power(0, CayleyMonoid([0, 1], [[1, 0], [0, 0]]))


def omega_power_oracle(x, mono):
    """x^w from the index and period of <x>: the power x^m with m the
    least multiple of the period at or above the index."""
    seen: dict[int, int] = {}
    cur = x
    power = 1
    while cur not in seen:
        seen[cur] = power
        cur = mono.mul[cur][x]
        power += 1
    index = seen[cur]
    period = power - index
    m = index
    if m % period:
        m += period - (m % period)
    out = x
    for _ in range(m - 1):
        out = mono.mul[out][x]
    return out


def conjugacy_classes_oracle(mono):
    """Generalized conjugacy classes by a private union-find over the pairs
    m < n, skipping pairs already joined."""
    n = mono.size
    mul = mono.mul
    omega = [omega_power_oracle(v, mono) for v in range(n)]
    omega1 = [mul[omega[v]][v] for v in range(n)]
    buckets: dict = {}
    for x in range(n):
        for xp in range(n):
            if mul[mul[x][xp]][x] == x and mul[mul[xp][x]][xp] == xp:
                buckets.setdefault((mul[xp][x], mul[x][xp]), []).append((x, xp))
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for m in range(n):
        for nn in range(m + 1, n):
            if find(m) == find(nn):
                continue
            for x, xp in buckets.get((omega[m], omega[nn]), ()):
                if mul[mul[x][omega1[m]]][xp] == omega1[nn]:
                    parent[find(nn)] = find(m)
                    break
    classes: dict = {}
    for v in range(n):
        classes.setdefault(find(v), []).append(v)
    return sorted(classes.values())


def _conjugacy_tables():
    """M(K, r) for K <= 30 and odd r <= K, S_0..S_5, and every table
    wreath_cayley builds for K <= 2 and lambda <= 2, planar or not."""
    for K in range(1, 31):
        for r in range(1, K + 1, 2):
            yield f"M({K},{r})", cayley_of_m(MonoidParams(K, r))
    for n in range(6):
        yield f"S_{n}", symmetric_group_cayley(n)
    for K in (1, 2):
        for lam in (0, 1, 2):
            for planar in (False, True):
                yield f"M({K},1) wr {lam} {planar}", wreath_cayley(MonoidParams(K, 1), lam, planar)


def test_omega_power_and_conjugacy_match_the_oracles():
    count = 0
    for label, mono in _conjugacy_tables():
        count += 1
        omegas = [omega_power(x, mono) for x in range(mono.size)]
        assert omegas == [omega_power_oracle(x, mono) for x in range(mono.size)], label
        assert generalized_conjugacy_classes(mono) == conjugacy_classes_oracle(mono), label
    assert count == 258


def test_conjugacy_class_counts():
    for K in range(2, 9):
        for r in range(1, K, 2):
            mono = cayley_of_m(MonoidParams(K, r))
            assert len(generalized_conjugacy_classes(mono)) == 1 + 3 * r, (K, r)


def _conjugacy_by_all_witness_pairs(mono):
    """The classes by joining each m to every n whose (n^w, n^(w+1)) one of
    m's witnesses reaches, every member of each group reached."""
    n, mul = mono.size, mono.mul
    omega = [omega_power(v, mono) for v in range(n)]
    omega1 = [mul[omega[v]][v] for v in range(n)]
    by_powers = msmall._group((v, (omega[v], omega1[v])) for v in range(n))
    witnesses = msmall._group(
        ((x, xp), mul[xp][x])
        for x in range(n)
        for xp in range(n)
        if mul[mul[x][xp]][x] == x and mul[mul[xp][x]][xp] == xp
    )
    related = (
        (m, k)
        for m in range(n)
        for x, xp in witnesses.get(omega[m], ())
        for k in by_powers.get((mul[x][xp], mul[mul[x][omega1[m]]][xp]), ())
    )
    return msmall._index_components(n, related)


def test_conjugacy_joins_each_group_reached_once():
    # one join per pair (n^w, n^(w+1)) reached gives the classes that
    # joining every member of it gives
    tables = [cayley_of_m(MonoidParams(K, r)) for K in range(2, 9) for r in range(1, K, 2)]
    tables += [symmetric_group_cayley(5), wreath_cayley(MonoidParams(2, 1), 2)]
    for mono in tables:
        assert generalized_conjugacy_classes(mono) == _conjugacy_by_all_witness_pairs(mono)


def test_cayley_of_m_is_the_closed_form_of_m_mul():
    for K in range(1, 9):
        for r in range(1, K + 1, 2):
            mp = MonoidParams(K, r)
            oracle = CayleyMonoid.from_op(m_elements(mp), lambda x, y: m_mul(x, y, mp))
            mono = cayley_of_m(mp)
            assert (mono.elements, mono.mul) == (oracle.elements, oracle.mul), (K, r)


def test_conjugacy_reduces_to_group_conjugacy():
    s3 = symmetric_group_cayley(3)
    assert len(generalized_conjugacy_classes(s3)) == 3
    trivial = CayleyMonoid.from_op([0], lambda a, b: 0)
    assert generalized_conjugacy_classes(trivial) == [[0]]


def test_conjugacy_guard():
    big = CayleyMonoid(list(range(301)), [[0] * 301] * 301)
    with pytest.raises(ResourceGuardError):
        generalized_conjugacy_classes(big)


def test_cayley_guards_trip_before_the_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("listed elements or built a table before the guard")

    monkeypatch.setattr(CayleyMonoid, "from_op", refuse)
    monkeypatch.setattr(msmall, "m_elements", refuse)
    monkeypatch.setattr(msmall, "_composition_table", refuse)
    with pytest.raises(ResourceGuardError, match="over the bound 2000000"):
        cayley_of_m(MonoidParams(1667, 1))
    with pytest.raises(ResourceGuardError, match="over the bound 2000000"):
        symmetric_group_cayley(7)
    with pytest.raises(ResourceGuardError, match="over the bound 2000000"):
        wreath_cayley(MonoidParams(6, 1), 3, planar=True)
    with pytest.raises(ResourceGuardError, match="over the bound 300"):
        m_conjugacy_classes(MonoidParams(101, 1))


def test_cayley_guard_bounds_products():
    # 1,414^2 = 1,999,396 products are admitted, 1,415^2 = 2,002,225 are not;
    # the TL n=4 monoid (1,134 elements, 1,285,956 products) is the largest
    # table the tests, scripts and benchmark build
    check_guard(msmall.CAYLEY_WHAT, 1414 * 1414, msmall.CAYLEY_GUARD)
    with pytest.raises(ResourceGuardError, match="Cayley table is 2002225"):
        check_guard(msmall.CAYLEY_WHAT, 1415 * 1415, msmall.CAYLEY_GUARD)


def test_check_guard_admits_its_bound_and_names_a_long_cost_by_length():
    assert check_guard("the cost", 300, 300) == 300
    # str() of a 5,001-digit int raises ValueError; the guard never forms it
    with pytest.raises(ResourceGuardError, match="the cost is a 16610-bit number, over the bound 300"):
        check_guard("the cost", 10**5000, 300)
    with pytest.raises(ResourceGuardError, match="the cost is 301, over the bound 300"):
        check_guard("the cost", 301, 300)


def test_from_op_rejects_a_product_outside_the_elements():
    with pytest.raises(PreconditionError, match="leaves the element list"):
        CayleyMonoid.from_op(range(3), lambda a, b: a + b)


def test_wreath_identity_and_perms():
    mp = MonoidParams(2, 1)
    lam = 3
    e = wreath_identity(lam)
    rng = random.Random(0)
    for _ in range(20):
        strands = tuple(MElem(rng.randrange(2), rng.randrange(3)) for _ in range(lam))
        perm = tuple(rng.sample(range(1, lam + 1), lam))
        w = WreathElem(strands, perm)
        assert wreath_mul(e, w, mp) == w
        assert wreath_mul(w, e, mp) == w
    # pure permutations compose like functions
    s = WreathElem((MElem(0, 0),) * 3, (2, 1, 3))
    t = WreathElem((MElem(0, 0),) * 3, (1, 3, 2))
    st_ = wreath_mul(s, t, mp)
    assert st_.perm == tuple(s.perm[t.perm[k] - 1] for k in range(3))


def test_wreath_mul_spec_example():
    mp = MonoidParams(2, 1)
    x = WreathElem((MElem(0, 1), MElem(0, 0)), (1, 2))
    y = WreathElem((MElem(0, 2), MElem(0, 0)), (2, 1))
    out = wreath_mul(x, y, mp)
    assert out.perm == (2, 1)
    assert out.strands == (MElem(1, 1), MElem(0, 0))  # b . b^2 = ab


def test_wreath_type_examples():
    mp = MonoidParams(2, 1)
    classes = m_conjugacy_classes(mp)
    lam = 3
    e = wreath_identity(lam)
    t = wreath_type(e, classes, mp)
    identity_class = next(
        i for i, cls in enumerate(classes) if MElem(0, 0) in cls
    )
    assert t[identity_class][0] == lam
    assert sum((k + 1) * v for row in t for k, v in enumerate(row)) == lam
    # single lam-cycle with one crosscap strand: one cycle product = b
    w = WreathElem((MElem(0, 1), MElem(0, 0), MElem(0, 0)), (2, 3, 1))
    tw = wreath_type(w, classes, mp)
    b_class = next(i for i, cls in enumerate(classes) if MElem(0, 1) in cls)
    assert tw[b_class][lam - 1] == 1
    assert sum(v for row in tw for v in row) == 1


def test_wreath_type_conjugation_invariance():
    mp = MonoidParams(2, 1)
    classes = m_conjugacy_classes(mp)
    rng = random.Random(8)
    melems = m_elements(mp)
    for _ in range(60):
        strands = tuple(rng.choice(melems) for _ in range(3))
        perm = tuple(rng.sample(range(1, 4), 3))
        w = WreathElem(strands, perm)
        sigma = tuple(rng.sample(range(1, 4), 3))
        pure = WreathElem((MElem(0, 0),) * 3, sigma)
        inv = [0, 0, 0]
        for k in range(3):
            inv[sigma[k] - 1] = k + 1
        pure_inv = WreathElem((MElem(0, 0),) * 3, tuple(inv))
        conj = wreath_mul(wreath_mul(pure, w, mp), pure_inv, mp)
        assert wreath_type(w, classes, mp) == wreath_type(conj, classes, mp)


def test_count_types_examples():
    assert count_types(2, 1) == partition_count(2)
    assert count_types(2, 2) == 5
    assert count_types(0, 3) == 1


def test_count_types_matches_bruteforce():
    mp = MonoidParams(2, 1)
    classes = m_conjugacy_classes(mp)
    for lam in (1, 2, 3):
        types = {
            wreath_type(w, classes, mp) for w in wreath_elements(mp, lam)
        }
        assert len(types) == count_types(lam, len(classes))


@pytest.mark.parametrize("K, r", [(1, 1), (2, 1), (3, 1), (3, 3), (4, 3), (5, 3)])
def test_every_wreath_element_has_a_regular_middle(K, r):
    # the kernel G wr S_lambda of the apex is a group, so m = (e w e)^-1
    # always exists: the middle search in the Gram entry never turns a
    # surviving entry into 0
    mp = MonoidParams(K, r)
    for lam in range(3):
        for planar in (False, True):
            middles = list(wreath_elements(mp, lam, planar))
            for w in middles:
                assert any(
                    wreath_mul(wreath_mul(m, w, mp), m, mp) == m for m in middles
                ), (K, r, lam, planar, w)


def test_wreath_conjugacy_matches_type_fibers():
    mp = MonoidParams(2, 1)
    classes = m_conjugacy_classes(mp)
    mono = wreath_cayley(mp, 2)
    brute = generalized_conjugacy_classes(mono)
    fibers: dict = {}
    for i, w in enumerate(mono.elements):
        fibers.setdefault(wreath_type(w, classes, mp), set()).add(i)
    assert sorted(sorted(c) for c in brute) == sorted(sorted(s) for s in fibers.values())


def test_wreath_and_symmetric_tables_equal_the_product_by_product_oracles():
    # tables filled by lookups in M's and S_lambda's own tables equal one
    # wreath_mul (or one composition of permutations) per product
    compared = 0
    for K in (1, 2, 3):
        for r in range(1, K + 1, 2):
            mp = MonoidParams(K, r)
            for lam in (0, 1, 2):
                for planar in (False, True):
                    fast, slow = wreath_cayley(mp, lam, planar), oracle_wreath_cayley(mp, lam, planar)
                    assert fast.elements == slow.elements, (K, r, lam, planar)
                    assert fast.mul == slow.mul, (K, r, lam, planar)
                    compared += fast.size ** 2
    fast, slow = wreath_cayley(MonoidParams(1, 1), 3), oracle_wreath_cayley(MonoidParams(1, 1), 3)
    assert fast.elements == slow.elements and fast.mul == slow.mul
    for n in range(6):
        fast, slow = symmetric_group_cayley(n), oracle_symmetric_group_cayley(n)
        assert fast.elements == slow.elements and fast.mul == slow.mul, n
    assert compared > 60_000


def test_wreath_cayley_guard():
    # M(2,1) wr S_4 has 6^4 * 4! = 31,104 elements: 967 million products
    with pytest.raises(ResourceGuardError, match=f"is {31104 ** 2}, over the bound 2000000"):
        wreath_cayley(MonoidParams(2, 1), 4)


def test_wreath_lambda_must_be_nonnegative():
    mp = MonoidParams(2, 1)
    for planar in (False, True):
        with pytest.raises(PreconditionError):
            wreath_order(mp, -1, planar)
        with pytest.raises(PreconditionError):
            wreath_elements(mp, -1, planar)
    assert list(wreath_elements(mp, 0)) == [WreathElem((), ())]
    assert wreath_order(mp, 0) == 1


def test_the_lambda_0_middle_forms_no_element_of_m(monkeypatch):
    # M wr S_0 is the empty strand tuple, whatever K is
    def refuse(mp):
        raise AssertionError("formed M's elements for lambda = 0")

    monkeypatch.setattr(msmall, "m_elements", refuse)
    for planar in (False, True):
        assert list(wreath_elements(MonoidParams(4_000_000, 3), 0, planar)) == [WreathElem((), ())]


def test_wreath_elem_validation():
    with pytest.raises(PreconditionError):
        WreathElem((MElem(0, 0),), (2,))
