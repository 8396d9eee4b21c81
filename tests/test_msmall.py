"""The sandwiched monoid M(K, r), generalized conjugacy, and wreath types."""
import itertools
import random

import pytest

from moebius import (
    CayleyMonoid,
    MElem,
    MonoidParams,
    PreconditionError,
    ResourceGuardError,
    WreathElem,
    count_types,
    generalized_conjugacy_classes,
    m_cell_structure,
    m_mul,
    omega_power,
    wreath_mul,
    wreath_type,
)
from moebius.msmall import (
    cayley_of_m,
    m_conjugacy_classes,
    m_elements,
    symmetric_group_cayley,
    wreath_cayley,
    wreath_elements,
    wreath_identity,
)
from moebius.repcount import partition_count


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


def test_omega_power_examples():
    mp = MonoidParams(4, 3)
    mono = cayley_of_m(mp)
    idx = {e: i for i, e in enumerate(mono.elements)}
    assert mono.elements[omega_power(idx[MElem(1, 0)], mono)] == MElem(3, 0)
    assert omega_power(idx[MElem(0, 0)], mono) == idx[MElem(0, 0)]
    z6 = CayleyMonoid.from_op(range(6), lambda a, b: (a + b) % 6)
    for x in range(6):
        assert omega_power(x, z6) == 0


def test_conjugacy_class_counts():
    for K in range(2, 9):
        for r in range(1, K, 2):
            mono = cayley_of_m(MonoidParams(K, r))
            assert len(generalized_conjugacy_classes(mono)) == 1 + 3 * r, (K, r)


def test_conjugacy_reduces_to_group_conjugacy():
    s3 = symmetric_group_cayley(3)
    assert len(generalized_conjugacy_classes(s3)) == 3
    trivial = CayleyMonoid.from_op([0], lambda a, b: 0)
    assert generalized_conjugacy_classes(trivial) == [[0]]


def test_conjugacy_guard():
    big = CayleyMonoid(list(range(301)), [[0] * 301] * 301)
    with pytest.raises(ResourceGuardError):
        generalized_conjugacy_classes(big)


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


def test_wreath_cayley_guard():
    with pytest.raises(ResourceGuardError):
        wreath_cayley(MonoidParams(2, 1), 3)


def test_wreath_elem_validation():
    with pytest.raises(PreconditionError):
        WreathElem((MElem(0, 0),), (2,))
