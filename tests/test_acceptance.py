"""Acceptance suite: every headline numerical claim at its stated
tolerance (all exact), one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import json
import random
import time
from fractions import Fraction

from moebius import (
    Family,
    LinComb,
    MonoidParams,
    ZeroPattern,
    apex_set,
    checked_dims,
    compose,
    deligne_parameters,
    exact_rank,
    generalized_conjugacy_classes,
    gram_det_closed_form_rook0,
    gram_matrix,
    greens_cells_bruteforce,
    m_cell_structure,
    normalize_mob,
    series_coeff,
    strict_idempotent,
    through_strands,
    validate_params,
)
from moebius.cells import family_monoid_cayley, predicted_cells
from moebius.cli import main as cli_main
from moebius.diagram import Diagram
from moebius.families import admissible_lambdas
from moebius.msmall import (
    cayley_of_m,
    m_conjugacy_classes,
    symmetric_group_cayley,
    wreath_cayley,
    wreath_elements,
    wreath_type,
)
from moebius.repcount import count_types

from conftest import family_shapes, lincomb_star, random_family_diagram, random_paramsets


def report(number, label, started):
    elapsed = time.time() - started
    print(f"criterion {number:02d} PASS ({elapsed:.1f}s): {label}")


# criterion 1 -----------------------------------------------------------------

def test_criterion_01_roexp_reproduction(tmp_path, capsys):
    t0 = time.time()
    params = tmp_path / "p201.json"
    params.write_text('{"p_alpha":["2"],"p_beta":["0"],"p_gamma":["1"],"q":["1","-1"]}')
    code = cli_main([
        "--stable", "gram", "--family", "rook", "--n", "1", "--lambda", "0",
        "--params", str(params),
    ])
    out = capsys.readouterr().out
    assert code == 0
    res = json.loads(out)["result"]
    assert res["entries"] == [["2", "0", "1"], ["0", "1", "0"], ["1", "0", "1"]]
    assert res["det"] == "1" and res["rank"] == 3
    assert time.time() - t0 < 1.0
    report(1, "rook n=1 lambda=0 matrix [[2,0,1],[0,1,0],[1,0,1]], det 1, rank 3", t0)


# criterion 2 -----------------------------------------------------------------

def test_criterion_02_final_example_ranks():
    t0 = time.time()
    ps110 = validate_params([1], [1], [0], [1, -1])
    rank110 = exact_rank(gram_matrix(Family.ROOK, 5, 2, ps110)).rank
    assert rank110 == 270
    ps111 = validate_params([1], [1], [1], [1, -1])
    rank111 = exact_rank(gram_matrix(Family.ROOK, 5, 2, ps111)).rank
    assert rank111 == 10
    assert time.time() - t0 < 300
    report(2, "rook n=5 lambda=2 ranks 270 (1,1,0) and 10 (1,1,1)", t0)


# criterion 3 -----------------------------------------------------------------

def test_criterion_03_dimension_table():
    t0 = time.time()
    checked = 0
    for family in Family:
        for n in range(0, 5):
            for K in (1, 2):
                dims = checked_dims(family, n, K)
                if (family, n, K) == (Family.TEMPERLEY_LIEB, 3, 2):
                    assert dims[1] == 12
                checked += len(dims)
    assert checked > 100
    assert time.time() - t0 < 300
    report(3, f"closed-form cell dimensions equal enumeration ({checked} cells)", t0)


# criterion 4 -----------------------------------------------------------------

def test_criterion_04_monoid_m_structure():
    t0 = time.time()
    for K, r in [(2, 1), (4, 1), (4, 3), (6, 5), (8, 3)]:
        rep = m_cell_structure(MonoidParams(K, r))
        assert rep.matches_prediction, (K, r)
        assert len(rep.jr_cell) == r and len(rep.j2r_cell) == 2 * r
        assert (rep.jr_cyclic_order, rep.j2r_cyclic_order) == (r, 2 * r)
    assert time.time() - t0 < 10
    report(4, "M(K,r) layered cells, idempotents, cyclic groups Z/r and Z/2r", t0)


# criterion 5 -----------------------------------------------------------------

def test_criterion_05_generalized_conjugacy():
    t0 = time.time()
    for K, r in [(2, 1), (4, 1), (4, 3), (6, 5), (8, 3)]:
        mono = cayley_of_m(MonoidParams(K, r))
        assert len(generalized_conjugacy_classes(mono)) == 1 + 3 * r, (K, r)
    s3 = symmetric_group_cayley(3)
    assert len(generalized_conjugacy_classes(s3)) == 3
    assert time.time() - t0 < 30
    report(5, "class counts 1+3r for M(K,r); ordinary conjugacy on S_3", t0)


# criterion 6 -----------------------------------------------------------------

def test_criterion_06_wreath_types():
    t0 = time.time()
    mp = MonoidParams(2, 1)
    classes = m_conjugacy_classes(mp)
    assert len(classes) == 4
    for lam in (1, 2, 3):
        types = {wreath_type(w, classes, mp) for w in wreath_elements(mp, lam)}
        assert len(types) == count_types(lam, 4), lam
    mono = wreath_cayley(mp, 2)
    brute = generalized_conjugacy_classes(mono)
    fibers: dict = {}
    for i, w in enumerate(mono.elements):
        fibers.setdefault(wreath_type(w, classes, mp), set()).add(i)
    assert sorted(sorted(c) for c in brute) == sorted(sorted(s) for s in fibers.values())
    assert time.time() - t0 < 120
    report(6, "type-matrix counts match formula; conjugacy classes = type fibers", t0)


# criterion 7 -----------------------------------------------------------------

def test_criterion_07_det_closed_form():
    t0 = time.time()
    rng = random.Random(2024)
    for n in (1, 2, 3):
        for _ in range(5):
            a0, b0, g0 = (
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)
            )
            ps = validate_params([a0], [b0], [g0], [1, -1], allow_zero_alpha=True)
            brute = exact_rank(gram_matrix(Family.ROOK, n, 0, ps)).det
            assert brute == gram_det_closed_form_rook0(n, a0, b0, g0), (n, a0, b0, g0)
    assert time.time() - t0 < 60
    report(7, "brute determinants equal the closed form (n=1..3, 5 triples each)", t0)


# criterion 8 -----------------------------------------------------------------

def test_criterion_08_deligne_parameters():
    t0 = time.time()
    assert deligne_parameters(19, 4, 10, 1, 1) == (9, 7, 3)
    report(8, "(19,4,10, lam=1) -> (9, 7, 3)", t0)


# criterion 9 -----------------------------------------------------------------

def test_criterion_09_property_suites():
    t0 = time.time()
    rng = random.Random(90125)
    paramsets = [
        validate_params([1], [1], [1], [1, -1]),                 # K = 1
        validate_params([1, 1], [1], [1], [1, -1, -1]),          # K = 2, two-term rewrite
        validate_params([2], [1, 1], [0, 1], [1, 0, 0, -1]),     # K = 3, monomial
    ]
    # exact associativity, at least 200 random decorated triples per family
    for family in Family:
        shapes = {n: family_shapes(family, n, n) for n in (2, 3)}
        for i in range(200):
            n = 2 if i % 2 else 3
            ps = paramsets[i % len(paramsets)]
            x, y, z = (
                LinComb.from_diagram(
                    random_family_diagram(rng, shapes[n], max_h=ps.K, max_mob=4)
                )
                for _ in range(3)
            )
            lhs = compose(compose(x, y, ps), z, ps)
            rhs = compose(x, compose(y, z, ps), ps)
            assert lhs == rhs, (family, i)

    # star is an anti-involution with identical coefficients
    shapes3 = family_shapes(Family.PARTITION, 3, 3)
    ps2 = paramsets[1]
    for _ in range(100):
        f = LinComb.from_diagram(random_family_diagram(rng, shapes3, 2, 4))
        g = LinComb.from_diagram(random_family_diagram(rng, shapes3, 2, 4))
        assert lincomb_star(compose(f, g, ps2)) == compose(lincomb_star(g), lincomb_star(f), ps2)

    # crosscap normalization is confluent under random rewrite orders
    from conftest import random_diagram

    for _ in range(150):
        d = random_diagram(rng, rng.randint(0, 3), rng.randint(0, 3), max_mob=9)
        blocks = list(d.blocks)
        while True:
            hot = [i for i, (_, _, mob) in enumerate(blocks) if mob >= 3]
            if not hot:
                break
            i = rng.choice(hot)
            nodes, h, mob = blocks[i]
            blocks[i] = (nodes, h + 1, mob - 2)
        assert Diagram.make(d.n, d.m, blocks) == normalize_mob(d)

    # series coefficients satisfy the handle recurrence for K <= 4
    for ps in random_paramsets(rng, 10, max_K=4):
        for kind in ("alpha", "beta", "gamma"):
            for k in range(ps.K, 2 * ps.K + 1):
                assert series_coeff(ps, kind, k) == sum(
                    (-1) ** (i + 1) * ps.handle_coeffs[i - 1] * series_coeff(ps, kind, k - i)
                    for i in range(1, ps.M_deg + 1)
                )

    # brute-force Green's cells match the factorization prediction for the
    # decorated Temperley-Lieb and rook monoids at n <= 2, K = 1, evals 1
    mp = MonoidParams(1, 1)
    for family, n in [(Family.TEMPERLEY_LIEB, 2), (Family.ROOK, 2)]:
        elements, mono = family_monoid_cayley(family, n, mp)
        cells = greens_cells_bruteforce(mono)
        pl, pr, pj, ph = predicted_cells(elements, family, mp)
        assert sorted(sorted(c) for c in cells.j_cells) == pj
        assert sorted(sorted(c) for c in cells.l_cells) == pl
        assert sorted(sorted(c) for c in cells.r_cells) == pr
        assert sorted(sorted(c) for c in cells.h_cells) == ph
        for cell in cells.j_cells:
            assert len({through_strands(elements[i]) for i in cell}) == 1

    assert time.time() - t0 < 300
    report(9, "associativity / star / confluence / recurrence / cells properties", t0)


# criterion 10 ----------------------------------------------------------------

def test_criterion_10_apex_idempotent_agreement():
    t0 = time.time()
    ps_by_pattern = {
        ZeroPattern.SOME_NONZERO: validate_params([1], [1], [1], [1, -1]),
        ZeroPattern.ALL_ZERO: validate_params([], [], [], [1, -1], allow_zero_alpha=True),
    }
    for family in (Family.ROOK, Family.MOTZKIN, Family.TEMPERLEY_LIEB):
        for n in (1, 2, 3):
            for pattern, ps in ps_by_pattern.items():
                apexes = apex_set(family, n, pattern).apexes
                for lam in admissible_lambdas(family, n):
                    found = strict_idempotent(family, n, lam, ps)
                    assert (found is not None) == (lam in apexes), (
                        family, n, lam, pattern,
                    )
    # the headline exclusion: Motzkin loses lambda = n-1 when all vanish
    assert 2 not in apex_set(Family.MOTZKIN, 3, ZeroPattern.ALL_ZERO).apexes
    assert time.time() - t0 < 120
    report(10, "strict idempotents exist exactly at the tabulated apexes", t0)
