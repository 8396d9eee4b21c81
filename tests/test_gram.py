"""Gram matrices, exact rank/determinant, closed forms, and block structure."""
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

from moebius import (
    Family,
    PreconditionError,
    ResourceGuardError,
    exact_rank,
    gram_det_closed_form_rook0,
    gram_matrix,
    gramcond_check,
    validate_params,
)
from moebius import gram
from moebius.cells import enumerate_half_diagrams
from moebius.diagram import render_diagram
from moebius.families import admissible_lambdas
from moebius.gram import (
    GramMatrix,
    RankReport,
    _integer_rows,
    _kronecker_split,
    gram_to_csv,
    gram_to_json,
    mob_grouped_order,
)
from moebius.msmall import _index_components
from moebius.params import format_rational, monoid_params_of
from moebius.repcount import dim_left_cell

from conftest import dense_rank, gram_entry


def geometric(a0, b0, g0):
    return validate_params([a0], [b0], [g0], [1, -1], allow_zero_alpha=True)


def test_roexp_matrix_symbol_for_symbol():
    rng = random.Random(1)
    for _ in range(6):
        a0, b0, g0 = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
        if a0 == 0:
            a0 = Fraction(1)
        g = gram_matrix(Family.ROOK, 1, 0, geometric(a0, b0, g0))
        assert [list(r) for r in g.entries] == [
            [a0, b0, g0],
            [b0, g0, b0],
            [g0, b0, g0],
        ]


def test_roexp_substituted_rank_and_det():
    g = gram_matrix(Family.ROOK, 1, 0, geometric(2, 0, 1))
    report = exact_rank(g)
    assert report.rank == 3 and report.det == 1


def test_gram_entry_spec_cases():
    ps = geometric(1, 1, 1)
    mp = monoid_params_of(ps)
    halves0 = enumerate_half_diagrams(Family.ROOK, 1, 0, 1)
    beta1 = Fraction(1)
    assert gram_entry(halves0[1], halves0[2], ps, mp) == beta1  # mob 1 + 2 loop
    halves1 = enumerate_half_diagrams(Family.ROOK, 3, 1, 1)
    aligned = [h for h in halves1 if h.blocks[0][0] == (1, -1)][0]
    misaligned = [h for h in halves1 if (3, -1) in [b[0] for b in h.blocks]][0]
    a0sq = gram_entry(aligned, aligned, ps, mp)
    assert a0sq == 1  # alpha_0^2 with alpha_0 = 1
    assert gram_entry(aligned, misaligned, ps, mp) == 0


def test_gram_lambda_n_is_one_by_one():
    for fam in (Family.ROOK, Family.MOTZKIN, Family.PARTITION):
        g = gram_matrix(fam, 2, 2, geometric(2, 1, 1))
        assert g.entries == ((Fraction(1),),)
        assert exact_rank(g).rank == 1


def test_gram_g1_display_filtering():
    # undecorated half diagrams give diag(alpha_0^2) at n = 3, lambda = 1
    ps = geometric(3, 1, 2)
    g = gram_matrix(Family.ROOK, 3, 1, ps)
    idx = [
        i
        for i, half in enumerate(g.labels)
        if all(hh == 0 and mob == 0 for _, hh, mob in half.blocks)
    ]
    sub = [[g.entries[r][c] for c in idx] for r in idx]
    for i in range(3):
        for j in range(3):
            assert sub[i][j] == (Fraction(9) if i == j else 0)


def test_gram_block_structure():
    # through-position alignment splits the matrix into identical
    # lambda = 0 blocks of the smaller rook monoid
    ps = geometric(2, 1, 3)
    n, lam = 3, 1
    g = gram_matrix(Family.ROOK, n, lam, ps)
    g0 = gram_matrix(Family.ROOK, n - lam, 0, ps)
    halves = g.labels

    def through_positions(h):
        return tuple(
            v for nodes, _, _ in h.blocks for v in nodes if any(w < 0 for w in nodes) and v > 0
        )

    def dead_profile(h):
        return tuple(
            (hh, mm)
            for nodes, hh, mm in h.blocks
            if all(v > 0 for v in nodes)
        )

    profiles = {dead_profile(h): i for i, h in enumerate(g0.labels)}
    for i, hi in enumerate(halves):
        for j, hj in enumerate(halves):
            if through_positions(hi) != through_positions(hj):
                assert g.entries[i][j] == 0
            else:
                bi, bj = profiles[dead_profile(hi)], profiles[dead_profile(hj)]
                assert g.entries[i][j] == g0.entries[bi][bj]


def test_rank_prediction_under_gramcond():
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        for lam in range(n + 1):
            a0, b0, g0 = Fraction(2), Fraction(0), Fraction(1)
            assert gramcond_check(n, lam, a0, b0, g0)
            g = gram_matrix(Family.ROOK, n, lam, geometric(a0, b0, g0))
            assert exact_rank(g).rank == comb(n, lam) * 3 ** (n - lam)
    # planar rook matches on a smaller sweep
    for n in (1, 2, 3):
        for lam in range(n + 1):
            g = gram_matrix(Family.PLANAR_ROOK, n, lam, geometric(2, 0, 1))
            assert exact_rank(g).rank == comb(n, lam) * 3 ** (n - lam)
    # n = 5 spot checks at the small cells (lambda = 2 runs in acceptance)
    for lam in (3, 4, 5):
        g = gram_matrix(Family.ROOK, 5, lam, geometric(2, 0, 1))
        assert exact_rank(g).rank == comb(5, lam) * 3 ** (5 - lam)


def test_rank_3n_for_rook_brauer_and_motzkin():
    for fam in (Family.ROOK_BRAUER, Family.MOTZKIN):
        for n in (2, 3, 4):
            g = gram_matrix(fam, n, n - 1, geometric(2, 0, 1))
            assert len(g.entries) == 3 * n
            assert exact_rank(g).rank == 3 * n


def test_det_closed_form_small_n():
    rng = random.Random(17)
    for n in (1, 2, 3):
        for _ in range(4):
            a0, b0, g0 = (Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3))
            ps = geometric(a0, b0, g0)
            brute = exact_rank(gram_matrix(Family.ROOK, n, 0, ps)).det
            assert brute == gram_det_closed_form_rook0(n, a0, b0, g0)


def test_det_closed_form_n4():
    a0, b0, g0 = Fraction(2), Fraction(1, 2), Fraction(-1)
    brute = exact_rank(gram_matrix(Family.ROOK, 4, 0, geometric(a0, b0, g0))).det
    assert brute == gram_det_closed_form_rook0(4, a0, b0, g0)


def test_det_closed_form_special_values():
    assert gram_det_closed_form_rook0(1, 2, 0, 1) == 1
    # alpha_0 = gamma_0 kills the determinant
    assert gram_det_closed_form_rook0(2, 1, 0, 1) == 0
    n = 2
    want = ((Fraction(5) - 1) * (1 - Fraction(4))) ** (n * 3 ** (n - 1))
    assert gram_det_closed_form_rook0(2, 5, 2, 1) == want


def test_det_closed_form_refuses_an_unprintable_power_before_forming_it():
    # a base of 0 or +-1 keeps its value at any n; any other base is
    # refused past 14,000 bits, and n = 10^9 before 3^(n - 1) is formed
    for n in (1, 2, 3):
        assert gram_det_closed_form_rook0(n, 0, 0, 1) == (-1) ** (n * 3 ** (n - 1))
    for n, want in ((10**9, 1), (10**9 + 1, -1)):
        assert gram_det_closed_form_rook0(n, 0, 0, 1) == want
        assert gram_det_closed_form_rook0(n, 2, 0, 1) == 1
        assert gram_det_closed_form_rook0(n, 1, 0, 1) == 0
    assert len(str(gram_det_closed_form_rook0(7, 3, Fraction(1, 2), -1).numerator)) > 2000
    for n in (8, 9, 10**9):
        with pytest.raises(ResourceGuardError):
            gram_det_closed_form_rook0(n, 3, Fraction(1, 2), -1)


def _gramcond_display(n, lam, a, b, g):
    """The condition read factor by factor off the displayed product,
    whose (g^2 - b^2) factor has exponent 0 at lambda = n."""
    if n > lam and g * g == b * b:
        return False
    return all((a**i - g**i) - sum(comb(i, k) * (a ** (i - k) * g**k - g**i) for k in range(1, i))
               for i in range(1, n - lam + 1))


def test_gramcond_closed_form_factor_is_the_displayed_sum():
    values = [Fraction(x) for x in (-2, -1, 0, 1, 3, "1/2", "-5/3")]
    held = 0
    for n in range(9):
        for lam in range(n + 1):
            for a, b, g in itertools.product(values, repeat=3):
                want = _gramcond_display(n, lam, a, b, g)
                assert gramcond_check(n, lam, a, b, g) is want, (n, lam, a, b, g)
                held += want
    assert 0 < held < 45 * len(values) ** 3


def test_gramcond_examples():
    assert gramcond_check(5, 2, 1, 1, 0) is True
    assert gramcond_check(5, 2, 1, 1, 1) is False
    for n in range(1, 6):
        for lam in range(n + 1):
            assert gramcond_check(n, lam, 2, 0, 1)
    assert gramcond_check(3, 3, 1, 1, 1) is True  # empty product


def test_exact_rank_edge_cases():
    assert exact_rank([[Fraction(1)] * 27 for _ in range(27)]).rank == 1
    zero = [[Fraction(0)] * 5 for _ in range(5)]
    rep = exact_rank(zero)
    assert rep.rank == 0 and rep.det == 0
    rect = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
    rep2 = exact_rank(rect)
    assert rep2.rank == 1 and rep2.det is None


def _gauss_rank_oracle(rows):
    # plain rational Gaussian elimination, independent of both eliminators
    m = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][c]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / inv
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_exact_rank_against_gauss_oracle():
    rng = random.Random(23)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nc)]
            for _ in range(nr)
        ]
        report = exact_rank(rows)
        assert report.rank == _gauss_rank_oracle(rows)
        assert report == dense_rank(rows) and (report.det is None) is (nr != nc)


def _hidden_block_diagonal(rng, sizes):
    """Square block-diagonal matrix with random rational blocks (some
    singular), rows and columns permuted alike."""
    dim = sum(sizes)
    mat = [[Fraction(0)] * dim for _ in range(dim)]
    start = 0
    for size in sizes:
        block = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(size)]
            for _ in range(size)
        ]
        if size > 1 and rng.random() < 0.3:  # singular: a row repeats scaled
            block[-1] = [x * rng.randint(-2, 2) for x in block[0]]
        for i in range(size):
            mat[start + i][start : start + size] = block[i]
        start += size
    perm = list(range(dim))
    rng.shuffle(perm)
    return [[mat[perm[i]][perm[j]] for j in range(dim)] for i in range(dim)]


def test_blockwise_rank_matches_one_elimination():
    rng = random.Random(41)
    split = singular = 0
    for _ in range(150):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 6))]
        mat = _hidden_block_diagonal(rng, sizes)
        edges = ((i, j) for i, row in enumerate(mat) for j, x in enumerate(row) if x)
        split += len(_index_components(len(mat), edges)) > 1
        rep = exact_rank(mat)
        assert rep == dense_rank(mat)
        singular += rep.det == 0
    assert split > 100 and 20 < singular < 130
    # the det's sign comes from the pivot order alone on permutation
    # matrices, odd then even; the third row cancels to 0 partway through;
    # and a wide and a tall matrix have a zero column
    fixed = (
        [], [[Fraction(0)]], [[Fraction(-5, 3)]], [[0, 0], [0, 0]], [[0, 1], [0, 0]],
        [[0, Fraction(-2, 3), 0], [5, 0, 0], [0, 0, -7]],
        [[0, 0, Fraction(-3, 2)], [-4, 0, 0], [0, 6, 0]],
        [[2, 1, 0, 0], [0, 3, 1, 0], [4, 5, 1, 0], [0, 0, 1, Fraction(7, 2)]],
        [[1, 0, 2, -3], [2, 0, 4, Fraction(1, 3)]],
        [[0, 1], [0, -2], [0, Fraction(1, 2)]],
    )
    for mat in fixed:
        assert exact_rank(mat) == dense_rank(mat), mat
    assert [exact_rank(mat) for mat in fixed[5:]] == [
        RankReport(3, Fraction(-70, 3)), RankReport(3, Fraction(36)), RankReport(3, 0),
        RankReport(2), RankReport(1),
    ]


# (family, n, lambda, K) cells whose Gram matrices are small enough to
# compare both rank paths on every run
GRAM_GRID = [
    (f, n, lam, K)
    for f in Family
    for K in (1, 2)
    for n in range(1, 4)
    for lam in admissible_lambdas(f, n)
    if dim_left_cell(f, n, lam, K) <= 60
]


GRID_PARAMS = {1: [geometric(2, 1, 3), geometric(1, 1, 0)],
               2: [validate_params([1, 1], [1], [1], [1, -1]),
                   validate_params([1, 1], [1, 2], [0, 1], [1, -1])]}


def _assert_blocks_partition_the_matrix(g):
    """g.blocks' index sets partition range(dim) into ascending sets by
    least index, each stored with its square of entries and each a union
    of whole shape groups (the halves of one undecorated shape)."""
    idx_sets = [idx for idx, _ in g.blocks]
    assert sorted(i for idx in idx_sets for i in idx) == list(range(len(g.labels)))
    assert all(list(idx) == sorted(idx) for idx in idx_sets)
    assert [idx[0] for idx in idx_sets] == sorted(idx[0] for idx in idx_sets)
    assert all({len(square), *map(len, square)} == {len(idx)} for idx, square in g.blocks)
    block_of_shape = {}
    for k, idx in enumerate(idx_sets):
        for i in idx:
            shape = tuple(nodes for nodes, _, _ in g.labels[i].blocks)
            assert block_of_shape.setdefault(shape, k) == k, (g.family, g.n, g.lambda_ts, i)


def test_gram_entry_is_the_kernel_entry_on_every_small_cell():
    # gram_entry runs the kernel on [top, bottom]; it must give entry
    # (i, j) of the whole matrix, zero or not, in every family at K = 1, 2
    compared = nonzero = 0
    cells = [(f, n, lam, K) for f, n, lam, K in GRAM_GRID if dim_left_cell(f, n, lam, K) <= 40]
    for f, n, lam, K in cells:
        ps = GRID_PARAMS[K][0]
        mp = monoid_params_of(ps)
        g = gram_matrix(f, n, lam, ps)
        for i, top in enumerate(g.labels):
            for j, bottom in enumerate(g.labels):
                x = gram_entry(bottom, top, ps, mp)
                assert x == g.entries[i][j] and type(x) is Fraction, (f, n, lam, K, i, j)
                compared += 1
                nonzero += x != 0
    assert {f for f, *_ in cells} == set(Family) and {K for *_, K in cells} == {1, 2}
    assert compared > 10_000 and 0 < nonzero < compared


def test_blockwise_rank_on_gram_grid():
    # rank by the kernel's blocks equals one elimination, and equals the
    # rank of the rows in any order the printers may put them
    rng = random.Random(17)
    split = 0
    for f, n, lam, K in GRAM_GRID:
        for ps in GRID_PARAMS[K]:
            g = gram_matrix(f, n, lam, ps)
            _assert_blocks_partition_the_matrix(g)
            split += len(g.blocks) > 1
            report = exact_rank(g)
            assert report == dense_rank(g.entries), (f, n, lam, K)
            shuffled = list(range(len(g.labels)))
            rng.shuffle(shuffled)
            for order in (mob_grouped_order(g.labels), shuffled):
                rows = [[g.entries[r][c] for c in order] for r in order]
                assert exact_rank(rows) == report, (f, n, lam, K, order)
                printed = gram_to_json(g, order)
                assert printed["rows"] == [render_diagram(g.labels[i]) for i in order]
                assert printed["entries"] == [[format_rational(x) for x in r] for r in rows]
    assert len(GRAM_GRID) > 100 and split >= 30  # the block path runs


@pytest.mark.parametrize("abc, rank", [((1, 1, 0), 270), ((1, 1, 1), 10)])
def test_headline_stores_only_its_kernel_blocks(abc, rank, monkeypatch):
    # 10 of the 100 pairs of half shapes survive, each a 27x27 block: the
    # blocks hold 7,290 entries, not 72,900, and rank forms no others.  The
    # ten blocks are equal, so the kernel fills one square and every block
    # holds it.  Its 729 entries take 125 distinct products of three closed
    # values, each formed from one of the 25 products of two, and those
    # from the 5 single values: 155 multiplications for the matrix.  Rank
    # converts the shared square to integer rows once and eliminates once.
    made = _counting_products(monkeypatch)
    calls = {"_integer_rows": 0, "_eliminate": 0}
    for name in calls:
        monkeypatch.setattr(gram, name, _counting(calls, name, getattr(gram, name)))
    g = gram_matrix(Family.ROOK, 5, 2, geometric(*abc))
    assert _product_lengths(made) == {1: 5, 2: 25, 3: 125}
    assert calls == {"_integer_rows": 0, "_eliminate": 0}
    assert [len(idx) for idx, _ in g.blocks] == [27] * 10
    assert all(g.blocks[i][1] is g.blocks[0][1] for i in range(10))
    assert sum(len(row) for _, square in g.blocks for row in square) == 7_290
    report = exact_rank(g)
    assert calls == {"_integer_rows": 1, "_eliminate": 1}
    assert "entries" not in vars(g)  # the dense view is formed when first read
    assert report.rank == rank
    assert report == dense_rank(g.entries)
    assert len(g.entries) == 270 and "entries" in vars(g)


def test_each_product_extends_the_one_a_component_shorter(monkeypatch):
    # rook n=4 lambda=0 is one 81x81 block whose entries are products of
    # four closed values: 625 distinct ones, each the product of its first
    # three times the fourth value, down to the 5 single values, so the
    # matrix makes 625 + 125 + 25 + 5 = 780 multiplications, not 4 x 625
    made = _counting_products(monkeypatch)
    g = gram_matrix(Family.ROOK, 4, 0, geometric(2, 1, 3))
    assert _product_lengths(made) == {1: 5, 2: 25, 3: 125, 4: 625}
    assert len(made) == 780
    assert len({id(x) for _, square in g.blocks for row in square for x in row}) == 625
    assert exact_rank(g) == RankReport(81, gram_det_closed_form_rook0(4, 2, 1, 3))


def test_blocks_of_several_shape_groups_keep_their_own_squares():
    # Motzkin n=4 lambda=2 has a block of six shape groups, filled by many
    # kept pairs, and three blocks of one group each, equal here: only the
    # one-group blocks share a square
    g = gram_matrix(Family.MOTZKIN, 4, 2, geometric(2, 1, 3))
    shapes = [tuple(nodes for nodes, _, _ in half.blocks) for half in g.labels]
    assert [len({shapes[i] for i in idx}) for idx, _ in g.blocks] == [6, 1, 1, 1]
    squares = [square for _, square in g.blocks]
    assert squares[1] is squares[2] is squares[3] is not squares[0]
    assert exact_rank(g) == dense_rank(g.entries)


def test_exact_rank_reads_a_shared_square_once():
    # ten blocks that hold one square object: it is read once for its
    # entries' ids and once into integer rows, and not again for the others
    g = gram_matrix(Family.ROOK, 5, 2, geometric(1, 1, 0))
    reads = []

    class Square(tuple):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    square = Square(g.blocks[0][1])
    shared = GramMatrix(g.family, g.n, g.lambda_ts, g.labels,
                        tuple((idx, square) for idx, _ in g.blocks))
    report = exact_rank(shared)
    assert len(reads) == 2
    assert report == exact_rank(g) and report.rank == 270


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def _counting_products(monkeypatch):
    """The kernel's closed values, made to record each multiplication by
    one of them as (the other factor, the product)."""
    made = []

    class Value(Fraction):
        def __rmul__(self, other):
            x = Fraction.__rmul__(self, other)
            made.append((other, x))
            return x

    evaluate = gram.evaluate_closed
    monkeypatch.setattr(gram, "evaluate_closed", lambda dec, ps: Value(evaluate(dec, ps)))
    return made


def _product_lengths(made) -> dict:
    """Closed values in a product -> the products formed: each product
    has one more than its other factor, and gram._ONE has none."""
    length = {id(gram._ONE): 0}
    for other, x in made:
        length[id(x)] = length[id(other)] + 1
    return dict(Counter(length[id(x)] for _, x in made))


def test_equal_blocks_are_eliminated_once_and_each_keeps_its_scale(monkeypatch):
    # the second block equals the first in fresh Fraction objects, the third
    # is the first halved (the same integer rows, each row scale doubled),
    # and the fourth is the first's own rows: one elimination serves them.
    # The fifth, of the same size, differs and takes its own.
    calls = {"_eliminate": 0}
    monkeypatch.setattr(gram, "_eliminate", _counting(calls, "_eliminate", gram._eliminate))
    square = ((Fraction(1, 3), Fraction(2)), (Fraction(5), Fraction(-1, 2)))
    copies = [
        square,
        tuple(tuple(Fraction(x.numerator, x.denominator) for x in row) for row in square),
        tuple(tuple(x / 2 for x in row) for row in square),
        square,
        ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(3))),
    ]
    blocks = tuple(((2 * k, 2 * k + 1), sq) for k, sq in enumerate(copies))
    g = GramMatrix(Family.ROOK, 3, 1, tuple(enumerate_half_diagrams(Family.ROOK, 3, 1, 1))[:10], blocks)
    report = exact_rank(g)
    assert calls["_eliminate"] == 2
    assert report == RankReport(10, Fraction(-61, 6) ** 4 / 4 * 3) == dense_rank(g.entries)


def test_rook_cells_rank_by_blocks_and_by_the_kronecker_formula():
    # every diagonal block of a rook cell is A_1^(x)(n - lambda), A_1 the
    # 3K x 3K one-strand matrix: rank C(n, lambda) rank(A_1)^(n - lambda)
    # and det det(A_1)^((n - lambda) (3K)^(n - lambda - 1) C(n, lambda)).
    # Cells up to dim 300 are also ranked by one dense elimination.
    formula = 0
    for f in (Family.ROOK, Family.PLANAR_ROOK):
        for K in (1, 2):
            for ps in GRID_PARAMS[K]:
                a1 = exact_rank(gram_matrix(f, 1, 0, ps))
                for n in range(5):
                    for lam in range(n + 1):
                        if dim_left_cell(f, n, lam, K) > 300:
                            continue
                        g = gram_matrix(f, n, lam, ps)
                        report = exact_rank(g)
                        assert report == dense_rank(g.entries), (f, n, lam, K)
                        assert report == _kronecker_report(a1, n, lam, K), (f, n, lam, K)
                        formula += a1.det not in (0, 1, -1)
    assert formula >= 20  # the determinant exponent is tested, not only its sign
    for abc, rank in (((1, 1, 0), 1_458), ((1, 1, 1), 6)):
        ps = geometric(*abc)
        g = gram_matrix(Family.ROOK, 6, 1, ps)
        assert [len(idx) for idx, _ in g.blocks] == [243] * 6
        report = exact_rank(g)
        assert report.rank == rank
        assert report == _kronecker_report(exact_rank(gram_matrix(Family.ROOK, 1, 0, ps)), 6, 1, 1)


def _kron(a, b):
    return [[x * y for x in a_row for y in b_row] for a_row in a for b_row in b]


def _random_factor(rng, size):
    """A random rational square, singular about a third of the time."""
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(size)]
            for _ in range(size)]
    if size > 1 and rng.random() < 0.3:  # a row repeats, scaled
        rows[-1] = [x * rng.randint(-2, 2) for x in rows[0]]
    return rows


def _integer_rows_per_entry(rows):
    """_integer_rows reading each entry's denominator twice: the lcm of a
    row's denominators, then each numerator times lcm over its own."""
    work, scale, content = [], 1, 1
    for row in rows:
        row_scale = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (row_scale // x.denominator) for x in row]
        row_gcd = gcd(*ints) or 1
        scale *= row_scale
        content *= row_gcd
        work.append(tuple(x // row_gcd for x in ints))
    return tuple(work), Fraction(scale, content)


def test_integer_rows_match_the_per_entry_path():
    rng = random.Random(64)
    for _ in range(200):
        width = rng.randint(0, 6)
        kind = rng.choice(("rational", "integer", "fraction of 1", "zero", "mixed"))
        rows = []
        for _ in range(rng.randint(1, 5)):
            if kind == "rational":
                row = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(width)]
            elif kind == "integer":
                row = [rng.randint(-20, 20) for _ in range(width)]
            elif kind == "fraction of 1":
                row = [Fraction(rng.randint(-20, 20)) for _ in range(width)]
            elif kind == "zero":
                row = [Fraction(0)] * width
            else:
                row = [rng.choice((Fraction(rng.randint(-9, 9), rng.randint(1, 5)), 0, 3))
                       for _ in range(width)]
            rows.append(row)
        got = _integer_rows(rows)
        assert got == _integer_rows_per_entry(rows), rows
        assert all(type(x) is int for row in got[0] for x in row)


def test_kronecker_products_split_and_rank_as_one_elimination():
    # A (x) B and A (x) B (x) C, factors of size 1 to 4, rank and det as
    # one dense elimination does; and with one entry moved off the
    # product, the matrix falls back to sparse elimination
    rng = random.Random(29)
    split = fell_back = singular = 0
    for trial in range(120):
        factors = [_random_factor(rng, rng.randint(1, 4)) for _ in range(2 + trial % 2)]
        mat = factors[0]
        for factor in factors[1:]:
            mat = _kron(mat, factor)
        report = exact_rank(mat)
        assert report == dense_rank(mat), factors
        if sum(len(factor) > 1 for factor in factors) > 1 and any(map(any, mat)):
            # primitive integer rows keep a rational product a product
            assert _kronecker_split(_integer_rows(mat)[0]) is not None, factors
            split += 1
        singular += report.det == 0
        i, j = rng.randrange(len(mat)), rng.randrange(len(mat))
        mat[i][j] += 1
        assert exact_rank(mat) == dense_rank(mat), (factors, i, j)
        fell_back += _kronecker_split(_integer_rows(mat)[0]) is None
    assert split > 80 and fell_back > 110 and 20 < singular < 100


def test_the_split_checks_every_entry_of_the_dense_rook_block():
    # rook n=4 lambda=0 is one 81 x 81 block A_1^(x)4; moving any one entry,
    # the last included, leaves no split at 3 x 27 or 9 x 9 or 27 x 3
    g = gram_matrix(Family.ROOK, 4, 0, geometric(2, 1, 3))
    (_, square), = g.blocks
    assert _kronecker_split(_integer_rows(square)[0]) is not None
    for i, j in ((80, 80), (80, 0), (40, 41), (0, 80), (26, 27)):
        rows = [list(row) for row in square]
        rows[i][j] += 1
        assert _kronecker_split(_integer_rows(rows)[0]) is None, (i, j)
        assert exact_rank(rows) == dense_rank(rows), (i, j)


def test_a_rook_cell_eliminates_only_its_one_strand_factor(monkeypatch):
    # the 81 x 81 block splits down to 3 x 3 pieces, all the same, so
    # _eliminate runs once, on a 3 x 3
    pieces = []

    def recording(work):
        pieces.append(tuple(map(tuple, work)))
        return eliminate(work)

    eliminate = gram._eliminate
    monkeypatch.setattr(gram, "_eliminate", recording)
    g = gram_matrix(Family.ROOK, 4, 0, geometric(2, 1, 3))
    report = exact_rank(g)
    assert {len(piece) for piece in pieces} == {3}
    assert len(set(pieces)) == len(pieces) == 1
    monkeypatch.setattr(gram, "_eliminate", eliminate)
    assert report == dense_rank(g.entries)
    assert report == RankReport(81, gram_det_closed_form_rook0(4, 2, 1, 3))


def _kronecker_report(a1, n, lam, K):
    lbar = n - lam
    exponent = lbar * (3 * K) ** (lbar - 1) * comb(n, lam) if lbar else 0
    return RankReport(comb(n, lam) * a1.rank**lbar, a1.det**exponent)


def test_gram_symmetry_under_mirrored_orderings():
    # rows are the star images of the columns in the same order, and the
    # entry rule is star-invariant, so every Gram matrix is symmetric
    for fam, n, lam in [
        (Family.ROOK, 3, 1),
        (Family.MOTZKIN, 3, 1),
        (Family.ROOK_BRAUER, 3, 2),
        (Family.TEMPERLEY_LIEB, 4, 2),
    ]:
        g = gram_matrix(fam, n, lam, geometric(2, 1, 3))
        size = len(g.entries)
        for i in range(size):
            for j in range(size):
                assert g.entries[i][j] == g.entries[j][i]


def test_gram_determinism_under_assembly_order():
    ps = geometric(2, 1, 1)
    g1 = gram_matrix(Family.ROOK, 2, 0, ps)
    g2 = gram_matrix(Family.ROOK, 2, 0, ps)
    assert g1 == g2
    mp = monoid_params_of(ps)
    halves = enumerate_half_diagrams(Family.ROOK, 2, 0, 1)
    pairs = [(i, j) for i in range(len(halves)) for j in range(len(halves))]
    random.Random(5).shuffle(pairs)
    scattered = {}
    for i, j in pairs:
        scattered[(i, j)] = gram_entry(halves[j], halves[i], ps, mp)
    for i in range(len(halves)):
        for j in range(len(halves)):
            assert scattered[(i, j)] == g1.entries[i][j]


def test_mob_grouped_order_matches_tensor_reduction():
    ps = geometric(2, 1, 3)
    canonical = gram_matrix(Family.ROOK, 2, 0, ps)
    order = mob_grouped_order(canonical.labels)
    printed = gram_to_json(canonical, order)
    assert printed["rows"] == [render_diagram(canonical.labels[i]) for i in order]
    # bottom-right 4x4 block (all components dotted) is [[g,b],[b,g]] (x) [[g,b],[b,g]]
    b0, g0 = Fraction(1), Fraction(3)
    t = [[g0, b0], [b0, g0]]
    expect = [
        [t[i][j] * t[k][l] for j in range(2) for l in range(2)]
        for i in range(2) for k in range(2)
    ]
    tail = [row[5:9] for row in printed["entries"][5:9]]
    assert tail == [[format_rational(x) for x in row] for row in expect]


def test_rook_simple_dimension_is_the_gram_rank():
    ps = geometric(1, 1, 0)
    assert exact_rank(gram_matrix(Family.ROOK, 3, 1, ps)).rank == comb(3, 1) * 9


def test_csv_roundtrip(tmp_path, capsys, monkeypatch):
    # the printed CSV reads back through `rank --matrix` as the same rows
    from moebius.cli import main

    g = gram_matrix(Family.ROOK, 1, 0, geometric(2, 1, 3))
    path = tmp_path / "g.csv"
    path.write_text(gram_to_csv(g))
    read = []
    rank = gram.exact_rank
    monkeypatch.setattr(gram, "exact_rank", lambda rows: read.append(rows) or rank(rows))
    assert main(["--stable", "rank", "--matrix", str(path)]) == 0
    assert read == [[list(r) for r in g.entries]]
    assert '"det": "-8", "rank": 3' in capsys.readouterr().out


def test_gram_entry_rejects_mismatched_params():
    ps = validate_params([1], [1], [1], [1, -1, -1])  # q not monomial
    with pytest.raises(PreconditionError):
        gram_matrix(Family.ROOK, 1, 0, ps)


def test_gram_guard_trips_before_enumerating(monkeypatch):
    # partition n=7, lambda=1 has 138,727 halves; the guard reads that
    # from the closed form instead of building them
    from moebius import gram as gram_mod

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the guard")

    monkeypatch.setattr(gram_mod, "enumerate_half_diagrams", refuse)
    with pytest.raises(ResourceGuardError):
        gram_matrix(Family.PARTITION, 7, 1, geometric(1, 1, 1))


def test_gram_supports_monomial_higher_K():
    # exponent rewrite h^3 = h^0: series 1/(1-T^3) has alpha = 1,0,0,1,...
    ps = validate_params([1], [], [], [1, 0, 0, -1])
    g = gram_matrix(Family.ROOK, 1, 0, ps)
    assert len(g.entries) == 9
    nonzero = {
        (i, j)
        for i in range(9)
        for j in range(9)
        if g.entries[i][j] != 0
    }
    # only crosscap-free pairs with handle sum divisible by 3 survive
    labels = [(h, mob) for h in range(3) for mob in range(3)]
    expect = {
        (i, j)
        for i, (hi, mi) in enumerate(labels)
        for j, (hj, mj) in enumerate(labels)
        if mi == mj == 0 and (hi + hj) % 3 == 0
    }
    assert nonzero == expect
    assert exact_rank(g).rank == 3


def test_make_calls_repeat_with_cold_and_warm_memos(monkeypatch):
    # a memo may save work but must not change which traced calls run:
    # one that called Diagram.make only on a miss would count more on
    # the cold pass than on the warm one.  A Gram matrix validates no
    # outside input, so neither pass calls Diagram.make at all
    from moebius import algebra, diagram

    algebra._topology.cache_clear()
    diagram._star_layout.cache_clear()
    calls = []
    make = diagram.Diagram.make

    def counting_make(*args):
        calls.append(None)
        return make(*args)

    monkeypatch.setattr(diagram.Diagram, "make", staticmethod(counting_make))
    counts = []
    for _ in range(2):
        calls.clear()
        g = gram_matrix(Family.ROOK, 3, 1, geometric(1, 1, 1))
        counts.append(len(calls))
    assert exact_rank(g).rank == 3
    assert counts == [0, 0]


def _full_scan_matrix(f, n, lam, ps):
    """The Gram matrix as built before regularity was decided per
    distinct middle: every middle listed up front, and every surviving
    entry scanning them for an m with m w m = m."""
    from moebius import algebra
    from moebius.diagram import factorize, star, through_strands
    from moebius.msmall import wreath_elements, wreath_mul

    mp = monoid_params_of(ps)
    halves = enumerate_half_diagrams(f, n, lam, mp.K)
    middles = list(wreath_elements(mp, lam, planar=f.planar))

    def entry(bottom, top_star):
        x = algebra.compose_diagrams(bottom, star(top_star), ps)
        if x.is_zero():
            return Fraction(0)
        w, c = x.single()
        if through_strands(w) < lam:
            return Fraction(0)
        w_mid = factorize(w, mp).middle
        for m in middles:
            if wreath_mul(wreath_mul(m, w_mid, mp), m, mp) == m:
                return c
        return Fraction(0)

    return tuple(tuple(entry(b, t) for b in halves) for t in halves)


ORACLE_PARAMS = {
    "(1,1,1)": geometric(1, 1, 1),
    "(2,1,1)": geometric(2, 1, 1),
    "K2": validate_params([1, 1], [1], [1], [1, -1]),  # K = 2, r = 1
    "K3": validate_params([2], [1, 1], [0, 1], [1, 0, 0, -1]),  # K = 3, r = 3
}


@pytest.mark.parametrize("label", sorted(ORACLE_PARAMS))
def test_gram_matrix_matches_the_full_scan_oracle(label):
    ps = ORACLE_PARAMS[label]
    K = monoid_params_of(ps).K
    cells = [
        (f, n, lam)
        for f in Family
        for n in range(4)
        for lam in admissible_lambdas(f, n)
        if dim_left_cell(f, n, lam, K) <= 150
    ]
    nonzero = 0
    for f, n, lam in cells:
        g = gram_matrix(f, n, lam, ps)
        assert g.entries == _full_scan_matrix(f, n, lam, ps), (label, f, n, lam)
        nonzero += sum(1 for row in g.entries for x in row if x)
    assert len(cells) > 60 and nonzero > 1000


def _entry_oracle(bottom, top, ps, mp, walked):
    """One entry by composing bottom o star(top) in full: c when the
    composite c w keeps every through strand, else 0.  A middle not in
    walked is walked to a power m with m w m = m first."""
    from moebius import algebra
    from moebius.diagram import factorize, star, through_strands
    from moebius.gram import _check_regular_power

    x = algebra.compose_diagrams(bottom, star(top), ps)
    if x.is_zero():
        return Fraction(0)
    w, c = x.single()
    if through_strands(w) < bottom.m:
        return Fraction(0)
    w_mid = factorize(w, mp).middle
    if w_mid not in walked:
        _check_regular_power(w_mid, mp)
        walked.add(w_mid)
    return c


ENTRY_ORACLE_PARAMS = {1: ORACLE_PARAMS["(2,1,1)"], 2: ORACLE_PARAMS["K2"], 3: ORACLE_PARAMS["K3"]}
ENTRY_ORACLE_FULL_DIM = 100  # larger n <= 3 cells compare sampled rows


@pytest.mark.parametrize("K", sorted(ENTRY_ORACLE_PARAMS))
def test_gram_matrix_matches_the_per_entry_oracle(K):
    # every family, every lambda: n <= 3, and the n = 4 cells of dim <= 100.
    # A cell of dim <= 100 is compared entry by entry; a larger one on four
    # seeded rows (dims 101-981: all their entries take about a minute)
    ps = ENTRY_ORACLE_PARAMS[K]
    mp = monoid_params_of(ps)
    rng = random.Random(K)
    cells = [
        (f, n, lam, dim_left_cell(f, n, lam, K))
        for f in Family
        for n in range(5)
        for lam in admissible_lambdas(f, n)
        if n < 4 or dim_left_cell(f, n, lam, K) <= ENTRY_ORACLE_FULL_DIM
    ]
    sampled = 0
    for f, n, lam, dim in cells:
        g = gram_matrix(f, n, lam, ps)
        rows = range(dim) if dim <= ENTRY_ORACLE_FULL_DIM else rng.sample(range(dim), 4)
        sampled += dim > ENTRY_ORACLE_FULL_DIM
        walked = set()
        for i in rows:
            want = tuple(_entry_oracle(b, g.labels[i], ps, mp, walked) for b in g.labels)
            assert g.entries[i] == want, (K, f, n, lam, i)
    assert len(cells) > 80 and (K == 1 or sampled >= 6)


def test_a_tampered_closed_value_trips_the_cross_check(monkeypatch):
    # each key's first entry is also composed in full; a kernel entry
    # that disagrees with the composite is an internal error
    from moebius import InternalCheckError
    from moebius import gram as gram_mod

    ps = geometric(2, 1, 1)
    evaluate = gram_mod.evaluate_closed
    monkeypatch.setattr(gram_mod, "evaluate_closed", lambda dec, ps: 2 * evaluate(dec, ps))
    with pytest.raises(InternalCheckError, match="disagrees with the composite"):
        gram_matrix(Family.ROOK, 3, 1, ps)
    half = enumerate_half_diagrams(Family.ROOK, 1, 0, 1)[0]
    with pytest.raises(InternalCheckError, match="disagrees with the composite"):
        gram_entry(half, half, ps, monoid_params_of(ps))


def test_a_middle_with_no_regular_power_raises(monkeypatch, capsys, tmp_path):
    # every middle has a power m with m w m = m when the product is
    # associative; a product whose powers cycle with no such m is an
    # internal error for gram_matrix, gram_entry and the CLI alike
    from moebius import InternalCheckError
    from moebius import gram as gram_mod
    from moebius.cli import main

    ps = geometric(2, 1, 1)
    half = enumerate_half_diagrams(Family.MOTZKIN, 3, 1, 1)[0]
    assert gram_entry(half, half, ps, monoid_params_of(ps)) != 0
    # x y = ("f", y): the powers of w are w, ("f", w), ("f", w), ...
    # and m w m = ("f", m) is never m
    monkeypatch.setattr(gram_mod, "wreath_mul", lambda x, y, mp: ("f", y))
    with pytest.raises(InternalCheckError, match="not associative"):
        gram_matrix(Family.MOTZKIN, 3, 1, ps)
    with pytest.raises(InternalCheckError, match="not associative"):
        gram_entry(half, half, ps, monoid_params_of(ps))
    params = tmp_path / "p.json"
    params.write_text('{"p_alpha":["2"],"p_beta":["1"],"p_gamma":["1"],"q":["1","-1"]}')
    argv = ["gram", "--family", "motzkin", "--n", "3", "--lambda", "1", "--params", str(params)]
    assert main(argv) == 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal check failed: ")


def _recording(results, fn):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        results.append(result)
        return result

    return wrapper


def _composites(g, ps):
    """(top shape, bottom shape, composite w) -> the nonzero entries
    whose bottom o star(top) is a multiple of w."""
    from moebius import algebra, diagram

    def shape(half):
        return tuple(nodes for nodes, _, _ in half.blocks)

    out = {}
    for top, row in zip(g.labels, g.entries):
        for bottom, x in zip(g.labels, row):
            if x:
                w = algebra.compose_diagrams(bottom, diagram.star(top), ps).single()[0]
                out.setdefault((shape(top), shape(bottom), w), []).append(x)
    return out


def test_regularity_calls_repeat_with_cold_and_warm_memos(monkeypatch):
    # the set of walked middles lives for one gram_matrix call: a memo
    # kept across calls would make the second call multiply fewer middles
    from moebius import algebra, diagram
    from moebius import gram as gram_mod

    algebra._topology.cache_clear()
    diagram._star_layout.cache_clear()
    muls, facts, walks = [], [], []
    monkeypatch.setattr(gram_mod, "wreath_mul", _recording(muls, gram_mod.wreath_mul))
    monkeypatch.setattr(gram_mod, "factorize", _recording(facts, gram_mod.factorize))
    walk = gram_mod._check_regular_power
    monkeypatch.setattr(
        gram_mod, "_check_regular_power", lambda w, mp: walks.append(w) or walk(w, mp)
    )
    counts = []
    for _ in range(2):
        for calls in (muls, facts, walks):
            calls.clear()
        g = gram_matrix(Family.PARTITION, 3, 2, ORACLE_PARAMS["K3"])
        counts.append((len(muls), len(facts)))
    nonzero = sum(1 for row in g.entries for x in row if x)
    assert counts[0] == counts[1] and counts[0][0] > 0
    # one factorize per distinct key: a pair of half shapes and the
    # composite w of a nonzero entry; one walk per distinct middle
    assert len(facts) == len(_composites(g, ORACLE_PARAMS["K3"]))
    middles = {fact.middle for fact in facts}
    assert len(walks) == len(set(walks)) == len(middles) < nonzero
    assert set(walks) == middles


def test_one_composition_per_distinct_composite(monkeypatch):
    # in partition n=3 lambda=1 a through strand can join a dead block of
    # each half, so different pairs of decorations sum to one composite w
    # (K = 3, r = 3: handles 2 + 1 and 0 + 0 both give a^0); the check
    # still factorizes once per pair of half shapes and composite
    from moebius import gram as gram_mod

    facts = []
    monkeypatch.setattr(gram_mod, "factorize", _recording(facts, gram_mod.factorize))
    ps = ORACLE_PARAMS["K3"]
    g = gram_matrix(Family.PARTITION, 3, 1, ps)
    composites = _composites(g, ps)
    assert len(facts) == len(composites)
    assert sum(map(len, composites.values())) > 3 * len(composites)


@pytest.mark.parametrize("family, n, lam, label, counts", [
    (Family.PARTITION, 3, 2, "K3", (114, 114, 34)),
    (Family.BRAUER, 4, 2, "K2", (150, 150, 22)),
    # three equal one-group blocks: the two that take the first's square
    # are still checked on their own halves
    (Family.ROOK, 3, 1, "K2", (3, 3, 1)),
])
def test_pair_keys_check_as_many_composites_and_middles(monkeypatch, family, n, lam, label, counts):
    # keys coded as M's Cayley indices dedupe exactly as keys of M's
    # elements did: the same compositions, factorizations and walks per
    # cell (the counts a check keyed by MElem products made)
    from moebius import gram as gram_mod

    composed, facts, walks = [], [], []
    monkeypatch.setattr(gram_mod.algebra, "compose_diagrams",
                        _recording(composed, gram_mod.algebra.compose_diagrams))
    monkeypatch.setattr(gram_mod, "factorize", _recording(facts, gram_mod.factorize))
    walk = gram_mod._check_regular_power
    monkeypatch.setattr(
        gram_mod, "_check_regular_power", lambda w, mp: walks.append(w) or walk(w, mp)
    )
    gram_matrix(family, n, lam, ORACLE_PARAMS[label])
    assert (len(composed), len(facts), len(walks)) == counts


def test_regularity_walk_makes_few_wreath_muls(monkeypatch):
    # symmetric n=5 lambda=5 at K=3 is 1x1, but M wr S_5 has 9^5 * 5!
    # (about 7.1 million) elements; the walk stops at the first power of
    # the middle that is regular
    from moebius import gram as gram_mod

    calls = []
    monkeypatch.setattr(gram_mod, "wreath_mul", _recording(calls, gram_mod.wreath_mul))
    ps = ORACLE_PARAMS["K3"]
    g = gram_matrix(Family.SYMMETRIC, 5, 5, ps)
    assert g.entries == ((Fraction(1),),)
    assert 1 <= len(calls) <= 4
    calls.clear()
    half = g.labels[0]
    assert gram_entry(half, half, ps, monoid_params_of(ps)) == 1
    assert 1 <= len(calls) <= 4
    # partition n=5 lambda=4 at K=3: a search of M wr S_4 in listing
    # order drew about 2.7 million elements for its 138 distinct middles
    calls.clear()
    g = gram_matrix(Family.PARTITION, 5, 4, ps)
    assert 0 < len(calls) <= 10_000
    report = exact_rank(g)
    assert (len(g.entries), report.rank, report.det) == (55, 55, -9304092590625)


def test_a_dim_one_planar_partition_cell_at_400_nodes_ranks_at_once():
    # its size guard forms a series of one term, not 801 products of 401
    g = gram_matrix(Family.PLANAR_PARTITION, 400, 400, geometric(2, 1, 1))
    assert exact_rank(g).rank == 1
