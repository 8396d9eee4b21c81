"""The benchmark's two workloads: fixed exact instances whose outputs are
checked against values the mathematics or a recorded run of the library
fixes.

``rook-headline`` is the paper's headline Gram computation.  ``cells-dims``
gathers every other path: small Gram cells with K > 1 and the dense rook
lambda = 0 block, ``dims --check`` through the CLI, and the brute-force
Green's cells and conjugacy counts of the decorated monoids.

A job is one call sequence into the library (``run``) plus a check of its
output (``check``).  Jobs reach the library through module attributes, and
checks call no library function, so a traced run records spans for the
jobs alone.  Expected values that need library code (closed-form
determinants) are computed when the job list is built, which counts as
set-up.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

# module attributes, not copied names: the tracer replaces the attributes
from moebius import Family, MonoidParams, cells, cli, gram, msmall, validate_params

WORKLOADS = ("rook-headline", "cells-dims")


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is correct


def build(workload: str, seed: int, work_dir: str, smoke: bool = False) -> list[Job]:
    """The workload's job list in the order the seed picks."""
    builders = {"rook-headline": _rook_headline, "cells-dims": _cells_dims}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    jobs = builders[workload](smoke, work_dir)
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Gram workloads
# ---------------------------------------------------------------------------


# (p_alpha, p_beta, p_gamma, q): K = 2 with q = 1 - T (r = 1), and K = 3
# with q = 1 - T^3 (r = 3)
_PARAMS = {
    "K2": ([1, 1], [1], [1], [1, -1]),
    "K3": ([2], [1, 1], [0, 1], [1, 0, 0, -1]),
}


def _nonzeros(g) -> int:
    return sum(1 for row in g.entries for x in row if x)


def _gram_job(label, family, n, lam, params, rank, nonzeros=None, det=None) -> Job:
    ps = validate_params(*params)

    def run():
        g = gram.gram_matrix(family, n, lam, ps)
        return g, gram.exact_rank(g)

    def check(out):
        g, report = out
        problems = []
        if report.rank != rank:
            problems.append(f"rank {report.rank} != {rank}")
        if nonzeros is not None and _nonzeros(g) != nonzeros:
            problems.append(f"nonzero entries {_nonzeros(g)} != {nonzeros}")
        if det is not None and report.det != det:
            problems.append(f"determinant {report.det} != closed form {det}")
        return "; ".join(problems) or None

    return Job(f"gram-{family.value}-n{n}-l{lam}-{label}", run, check)


def _rook_headline(smoke: bool, work_dir: str) -> list[Job]:
    # the paper's final example: rook n=5, lambda=2 at (1,1,0) and (1,1,1)
    n, goldens = (3, {(1, 1, 0): (27, 75), (1, 1, 1): (3, 243)}) if smoke else (
        5, {(1, 1, 0): (270, 1250), (1, 1, 1): (10, 7290)}
    )
    lam = 1 if smoke else 2
    return [
        _gram_job(f"{a}{b}{g}", Family.ROOK, n, lam, ([a], [b], [g], [1, -1]), rank, nonzeros)
        for (a, b, g), (rank, nonzeros) in goldens.items()
    ]


def _gram_grid(smoke: bool, work_dir: str) -> list[Job]:
    # dense lambda = 0 rook block: one block, full rank, closed-form det
    rook_n = 2 if smoke else 4
    jobs = [
        _gram_job(
            "213", Family.ROOK, rook_n, 0, ([2], [1], [3], [1, -1]), 3**rook_n,
            nonzeros=9**rook_n, det=gram.gram_det_closed_form_rook0(rook_n, 2, 1, 3),
        )
    ]
    # K > 1 cells (|M| = 3K, so lambda = 2 has 2(3K)^2 middles); ranks
    # recorded from the library when the benchmark was written
    grid = (
        [(Family.PARTITION, 2, 1, "K3", 19), (Family.TEMPERLEY_LIEB, 2, 0, "K3", 9),
         (Family.MOTZKIN, 3, 2, "K2", 9)]
        if smoke
        else [(Family.PARTITION, 3, 2, "K3", 30),
              (Family.PARTITION, 3, 2, "K2", 10), (Family.MOTZKIN, 3, 2, "K2", 9),
              (Family.MOTZKIN, 4, 3, "K3", 36), (Family.BRAUER, 4, 2, "K2", 18)]
    )
    jobs += [
        _gram_job(label, f, n, lam, _PARAMS[label], rank) for f, n, lam, label, rank in grid
    ]
    return jobs


# ---------------------------------------------------------------------------
# dims --check through the CLI
# ---------------------------------------------------------------------------

# (family, n, K) -> closed-form table, recorded from the library
_DIMS = {
    ("temperley-lieb", 8, 1): {"0": 1134, "2": 756, "4": 180, "6": 21, "8": 1},
    ("brauer", 6, 1): {"0": 405, "2": 405, "4": 45, "6": 1},
    ("rook", 6, 1): {"0": 729, "1": 1458, "2": 1215, "3": 540, "4": 135, "5": 18, "6": 1},
    ("partition", 4, 2): {"0": 2850, "1": 1597, "2": 331, "3": 30, "4": 1},
    ("planar-partition", 5, 1): {"0": 1686, "1": 1618, "2": 667, "3": 153, "4": 19, "5": 1},
    ("rook-brauer", 5, 1): {"0": 1458, "1": 1350, "2": 540, "3": 120, "4": 15, "5": 1},
    ("motzkin", 5, 1): {"0": 1323, "1": 990, "2": 405, "3": 102, "4": 15, "5": 1},
    ("planar-rook", 6, 1): {"0": 729, "1": 1458, "2": 1215, "3": 540, "4": 135, "5": 18,
                            "6": 1},
    ("symmetric", 10, 1): {"10": 1},
    ("planar-symmetric", 10, 1): {"10": 1},
}
_DIMS_SMOKE = {
    ("temperley-lieb", 3, 1): {"1": 6, "3": 1},
    ("brauer", 3, 1): {"1": 9, "3": 1},
    ("rook", 3, 1): {"0": 27, "1": 27, "2": 9, "3": 1},
    ("partition", 3, 1): {"0": 57, "1": 46, "2": 12, "3": 1},
    ("planar-partition", 3, 1): {"0": 57, "1": 43, "2": 11, "3": 1},
    ("rook-brauer", 3, 1): {"0": 54, "1": 36, "2": 9, "3": 1},
    ("motzkin", 3, 1): {"0": 54, "1": 33, "2": 9, "3": 1},
    ("planar-rook", 3, 1): {"0": 27, "1": 27, "2": 9, "3": 1},
    ("symmetric", 3, 1): {"3": 1},
    ("planar-symmetric", 3, 1): {"3": 1},
}


def _dims_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue() or err.getvalue()


def _dims_job(family: str, n: int, K: int, table: dict, work_dir: str) -> Job:
    argv = ["--stable", "dims", "--family", family, "--n", str(n), "--K", str(K), "--check"]

    def run():
        legs = {"uncached": _dims_cli(argv)}
        cache = tempfile.mkdtemp(prefix="dims-cache-", dir=work_dir)
        try:
            legs["cold"] = _dims_cli(argv + ["--cache-dir", cache])
            legs["warm"] = _dims_cli(argv + ["--cache-dir", cache])
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return legs

    def check(legs):
        problems = []
        for leg, (code, text) in legs.items():
            if code != 0:
                problems.append(f"{leg}: exit {code}: {text.strip()}")
                continue
            result = json.loads(text)["result"]
            if result.get("checked") is not True:
                problems.append(f"{leg}: checked is {result.get('checked')!r}")
            if result.get("dims") != table:
                problems.append(f"{leg}: dims {result.get('dims')} != {table}")
        return "; ".join(problems) or None

    return Job(f"dims-{family}-n{n}-K{K}", run, check)


def _dims_check(smoke: bool, work_dir: str) -> list[Job]:
    tables = _DIMS_SMOKE if smoke else _DIMS
    return [_dims_job(f, n, K, table, work_dir) for (f, n, K), table in tables.items()]


# ---------------------------------------------------------------------------
# decorated monoids: Green's cells and generalized conjugacy
# ---------------------------------------------------------------------------


def _greens_job(family: Family, n: int, K: int) -> Job:
    mp = MonoidParams(K, 1)

    def run():
        elements, mono = cells.family_monoid_cayley(family, n, mp)
        greens = msmall.greens_cells_bruteforce(mono)
        return greens, cells.predicted_cells(elements, family, mp)

    def check(out):
        greens, (pl, pr, pj, ph) = out
        problems = [
            f"{kind}-cells differ from the prediction"
            for kind, brute, pred in (
                ("L", greens.l_cells, pl), ("R", greens.r_cells, pr),
                ("J", greens.j_cells, pj), ("H", greens.h_cells, ph),
            )
            if sorted(sorted(c) for c in brute) != pred
        ]
        return "; ".join(problems) or None

    return Job(f"greens-{family.value}-n{n}-K{K}", run, check)


# M(K, r) has 1 + 3r classes; S_5 has 7; M(2,1) wr S_2 has 14, the number
# of wreath type matrices for lambda = 2 over M(2,1)'s 4 classes.
_M_CASES = ((2, 1), (4, 1), (4, 3), (6, 5), (8, 3))


def _conjugacy_job() -> Job:
    def run():
        classes = msmall.generalized_conjugacy_classes
        counts = {
            (K, r): len(classes(msmall.cayley_of_m(MonoidParams(K, r)))) for K, r in _M_CASES
        }
        counts["S5"] = len(classes(msmall.symmetric_group_cayley(5)))
        counts["M(2,1)wrS2"] = len(classes(msmall.wreath_cayley(MonoidParams(2, 1), 2)))
        return counts

    expected = {(K, r): 1 + 3 * r for K, r in _M_CASES}
    expected.update({"S5": 7, "M(2,1)wrS2": 14})

    def check(counts):
        wrong = [f"{k}: {counts.get(k)} != {v}" for k, v in expected.items() if counts.get(k) != v]
        return "; ".join(wrong) or None

    return Job("conjugacy", run, check)


def _monoid_cells(smoke: bool, work_dir: str) -> list[Job]:
    cases = (
        [(Family.TEMPERLEY_LIEB, 2, 1)]
        if smoke
        else [(Family.TEMPERLEY_LIEB, 2, 1), (Family.TEMPERLEY_LIEB, 3, 1), (Family.ROOK, 2, 1),
              (Family.MOTZKIN, 2, 1), (Family.PLANAR_PARTITION, 2, 1),
              (Family.ROOK_BRAUER, 2, 1), (Family.BRAUER, 2, 2)]
    )
    return [_greens_job(f, n, K) for f, n, K in cases] + [_conjugacy_job()]


def _cells_dims(smoke: bool, work_dir: str) -> list[Job]:
    return (_gram_grid(smoke, work_dir) + _dims_check(smoke, work_dir)
            + _monoid_cells(smoke, work_dir))
