"""Golden outputs.  golden_corpus.json maps each argv of ``corpus_argvs``
to the sha256 digest of the `result` part of its `--stable` document (of
stdout for CSV output), or, for an error exit, to the exit code and the
digest of stderr.  The `input` part is left out because it echoes the
parameter file's temporary path.  Its "tier1" cases run here; its "ci"
cases, Gram matrices of dimension 101 to 400, four K = 3 cells of
972 to 981 rows and four rook and planar rook cells of many equal
blocks, run in CI through

    python tests/test_golden.py check ci

and ``python tests/test_golden.py record`` re-records the whole file with
the ``moebius`` package it imports.  A digest that changes is re-recorded with the
change that changes it, and the reason goes in CHANGES.md.  Since the first
recording, three have changed: ``gram ... @notarrays.json`` exits 2, as a
string is no longer read as an array, and ``conjugacy --K 2 --r 1
--wreath-lambda 4`` still exits 4 but from the conjugacy size guard.
``cells --family rook --n 0 --K 4000000`` exits 0 where it exited 4, as
the one-element n = 0 monoid no longer forms M's Cayley table.
Every exit-4 case's stderr digest changed once more when all guards took
the one message shape of ``errors.check_guard``.

Fifteen result digests are older than the corpus, and the corpus
recorded the same ones: those of cells, gram, idempotents and compose
came from the node-level composition that the block-level merge
replaced, those of conjugacy and monoid-m from the index/period omega
power and a private union-find, and those of the rook,
planar-partition and Brauer K=3 cells from a Cayley table built one
product at a time."""
import hashlib
import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from moebius import Family
from moebius.cli import build_parser, main
from moebius.families import admissible_lambdas
from moebius.repcount import dim_left_cell

DECORATED_F = "6;6;{1,2'}[0,0]|{2,4,5}[1,0]|{3,3'}[0,2]|{6,1',4',6'}[0,0]|{5'}[0,1]"
DECORATED_G = "6;6;{1,1'}[0,1]|{2,4,5}[0,0]|{3}[0,2]|{6,2',4',6'}[1,0]|{3'}[0,0]|{5'}[0,0]"

# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

CORPUS = Path(__file__).with_name("golden_corpus.json")
RECORDED_AT = "57c8766"

# files a corpus argv names as "@name", written to one folder per run
FILES = {
    "p211.json": '{"p_alpha":["2"],"p_beta":["1"],"p_gamma":["1"],"q":["1","-1"]}',
    "pK2.json": '{"p_alpha":["1","1"],"p_beta":["1"],"p_gamma":["1"],"q":["1","-1"]}',
    "pK3.json": '{"p_alpha":["2"],"p_beta":["1","1"],"p_gamma":["0","1"],"q":["1","0","0","-1"]}',
    "truncated.json": '{"p_alpha": ["1"',
    "nokey.json": '{"p_alpha":["1"],"p_beta":[],"p_gamma":[]}',
    "notarrays.json": '{"p_alpha":"1","p_beta":[],"p_gamma":[],"q":["1","-1"]}',
    "q0.json": '{"p_alpha":["1"],"p_beta":[],"p_gamma":[],"q":["2","-1"]}',
    "nonmonomial.json": '{"p_alpha":["1"],"p_beta":[],"p_gamma":[],"q":["1","-1","-1"]}',
    "alpha10e800.json": '{"p_alpha":["1' + "0" * 800 + '"],"p_beta":["7"],"p_gamma":["3"],'
                        '"q":["1","-1"]}',
    "m.csv": "1,2,3\n2,4,6\n1,0,1/2\n",
    "m.json": "[[1, 2], [3, 4]]",
    "tall.csv": "1,2\n3,4\n5,6\n",
    "ragged.csv": "1,2\n3\n",
    "truncated-matrix.json": "[[1, 2], [3,",
    "strings-matrix.json": '["12", "34"]',
    "object-matrix.json": '{"12": 0, "34": 1}',
    "scalar-matrix.json": '"1"',
    "no-rows.json": "[]",
    "empty.csv": "",
}
K_PARAMS = {1: "@p211.json", 2: "@pK2.json", 3: "@pK3.json"}
TIER1_DIM = 100  # Gram cells above this go to the CI tier
CI_DIM = 400  # and above this, where one matrix takes a minute, to neither


def corpus_argvs() -> list[tuple[list[str], str]]:
    """Every corpus argv with its tier, "tier1" or "ci"."""
    cases = []

    def add(*argv, tier="tier1"):
        cases.append((list(argv), tier))

    for fam in Family:
        f = fam.value
        for n in range(4):
            for K in (1, 2, 3):
                add("dims", "--family", f, "--n", str(n), "--K", str(K), "--check")
        add("dims", "--family", f, "--n", "5", "--K", "2")
        for n in range(3):
            add("cells", "--family", f, "--n", str(n))
            add("cells", "--family", f, "--n", str(n), "--K", "2", "--r", "1")
            add("idempotents", "--family", f, "--n", str(n), "--params", "@p211.json")
        add("idempotents", "--family", f, "--n", "3", "--params", "@p211.json")
        for n in range(4):
            for lam in admissible_lambdas(fam, n):
                for K, params in K_PARAMS.items():
                    dim = dim_left_cell(fam, n, lam, K)
                    if dim <= CI_DIM:
                        add("gram", "--family", f, "--n", str(n), "--lambda", str(lam),
                            "--params", params, tier="tier1" if dim <= TIER1_DIM else "ci")
        for pattern in ("all-zero", "some-nonzero"):
            add("apex", "--family", f, "--n", "3", "--zero-pattern", pattern)
        for field in (("char0bar",), ("rationals",), ("fp", "--p", "2"), ("fp", "--p", "3")):
            add("count-simples", "--family", f, "--n", "3",
                "--lambda", str(admissible_lambdas(fam, 3)[-1]), "--field", *field, "--r", "3")
        add("member", DECORATED_F, "--family", f)

    add("dims", "--family", "tl", "--n", "6", "--K", "2", "--output", "csv")
    add("dims", "--family", "pp", "--n", "3", "--K", "1", "--check", "--output", "csv")
    add("idempotents", "--family", "rook", "--n", "2", "--params", "@pK2.json")
    add("idempotents", "--family", "motzkin", "--n", "2", "--params", "@pK3.json")
    add("idempotents", "--family", "rook", "--n", "4", "--params", "@p211.json")
    add("cells", "--family", "temperley-lieb", "--n", "3")
    add("cells", "--family", "brauer", "--n", "2", "--K", "2")
    add("cells", "--family", "brauer", "--n", "2", "--K", "3", "--r", "3")
    add("cells", "--family", "brauer", "--n", "3")
    add("cells", "--family", "symmetric", "--n", "3", "--K", "2")
    add("cells", "--family", "planar-symmetric", "--n", "3", "--K", "3", "--r", "3")
    for argv in (
        ("--family", "rook", "--n", "2", "--lambda", "0", "--params", "@p211.json"),
        ("--family", "partition", "--n", "2", "--lambda", "1", "--params", "@pK2.json"),
    ):
        add("gram", *argv, "--order", "mob-grouped")
        add("gram", *argv, "--no-matrix")
        add("gram", *argv, "--order", "mob-grouped", "--no-matrix")
        add("gram", *argv, "--output", "csv")
        add("gram", *argv, "--order", "mob-grouped", "--output", "csv")
    add("compose", DECORATED_F, DECORATED_G, "--params", "@p211.json")
    add("compose", DECORATED_G, DECORATED_F, "--params", "@p211.json")
    add("compose", "1;0;{1}[0,1]", "0;1;{1'}[0,2]", "--params", "@p211.json")
    add("compose", DECORATED_F, DECORATED_G, "--params", "@pK3.json")
    add("compose", "1;1;{1,1'}[1,0]", "1;1;{1,1'}[1,2]", "--params", "@pK2.json")
    add("compose", "2;2;{1,2}[0,0]|{1',2'}[0,0]", "2;2;{1,2}[1,1]|{1',2'}[0,2]",
        "--params", "@pK3.json")
    # deeper than the interpreter's recursion limit: walks of 1,200 nodes, a
    # handle count of 3,000, and h = 40 at q = 1 - T - T^2 (2^40 paths)
    add("dims", "--family", "symmetric", "--n", "1200", "--K", "1", "--check")
    # counting forms no decoration list, so K sets no cost at n = 0; listing
    # the 3K decorations raised MemoryError
    add("dims", "--family", "brauer", "--n", "0", "--K", "10000000", "--check")
    # M wr S_0 has one element, and forms none of M's 3K: listing them took
    # 14 s and 1.3 GiB at K = 4,000,000
    add("conjugacy", "--K", "4000000", "--r", "3", "--wreath-lambda", "0")
    # the n = 0 monoid's one element has no strand, so neither its table nor
    # its predicted cells form M's table (past the Cayley guard at K = 1000)
    for K in ("1000", "4000000"):
        add("cells", "--family", "rook", "--n", "0", "--K", K)
    add("gram", "--family", "rook", "--n", "1200", "--lambda", "1200", "--params", "@p211.json",
        "--no-matrix")
    # the 729 x 729 rook cells at K = 3 rank through their 9 x 9 Kronecker
    # factor; Bareiss on the whole block took 26 s each
    for f in ("rook", "planar-rook"):
        add("gram", "--family", f, "--n", "3", "--lambda", "0", "--params", "@pK3.json",
            "--no-matrix")
    # the other n=3 lambda=0 cells at K = 3, 972 to 981 rows, have no such
    # split: sparse elimination ranks each in 4 to 6 s, Bareiss took 85 to 106 s
    for f in ("partition", "planar-partition", "rook-brauer", "motzkin"):
        add("gram", "--family", f, "--n", "3", "--lambda", "0", "--params", "@pK3.json",
            "--no-matrix", tier="ci")
    # cells of many equal one-shape blocks, each formed once and shared:
    # planar rook n=4 lambda=2 at K = 3 has 486 rows and a 195-digit det
    for f, n, params in (("rook", "5", "@p211.json"), ("planar-rook", "5", "@p211.json"),
                         ("rook", "4", "@pK2.json"), ("planar-rook", "4", "@pK3.json")):
        add("gram", "--family", f, "--n", n, "--lambda", "2", "--params", params, "--no-matrix",
            tier="ci")
    add("compose", "1;1;{1,1'}[3000,0]", "1;1;{1,1'}[0,0]", "--params", "@p211.json")
    add("compose", "1;1;{1,1'}[40,0]", "1;1;{1,1'}[0,0]", "--params", "@nonmonomial.json")
    # a dim-1 cell whose closed form cuts its series after one term
    add("gram", "--family", "planar-partition", "--n", "400", "--lambda", "400",
        "--params", "@p211.json", "--no-matrix")
    add("normalize", "1;1;{1,1'}[5,4]")
    add("normalize", "1;1;{1,1'}[5,4]", "--K", "3", "--r", "3")
    add("normalize", DECORATED_F, "--K", "2", "--r", "1")
    add("tensor", DECORATED_F, "1;0;{1}[0,1]")
    add("tensor", "0;0;", "2;2;{1,2'}[1,1]|{2,1'}[0,0]")
    add("star", DECORATED_F)
    add("star", "1;0;{1}[0,1]")
    add("factorize", DECORATED_F, "--K", "2", "--r", "1")
    add("factorize", "3;3;{1,2'}[0,1]|{2,1'}[0,0]|{3}[0,2]|{3'}[0,1]", "--K", "1", "--r", "1")
    add("member", DECORATED_G)
    for K, r in ((1, 1), (2, 1), (3, 1), (3, 3), (4, 3), (5, 5)):
        add("monoid-m", "--K", str(K), "--r", str(r))
        add("conjugacy", "--K", str(K), "--r", str(r))
    add("monoid-m", "--K", "9", "--r", "5")
    for argv in (("--sym", "0"), ("--sym", "3"), ("--sym", "4"),
                 ("--K", "2", "--r", "1", "--wreath-lambda", "0"),
                 ("--K", "2", "--r", "1", "--wreath-lambda", "2"),
                 ("--K", "1", "--r", "1", "--wreath-lambda", "2"),
                 ("--K", "1", "--r", "1", "--wreath-lambda", "3"),
                 ("--K", "3", "--r", "3", "--wreath-lambda", "0")):
        add("conjugacy", *argv)
    add("wreath-types", "--K", "2", "--r", "1", "--lambda", "2")
    add("wreath-types", "--K", "3", "--r", "3", "--lambda", "3")
    add("count-simples", "--family", "partition", "--n", "5", "--lambda", "2",
        "--field", "fp", "--p", "5", "--r", "1")
    add("rank", "--matrix", "@m.csv")
    add("rank", "--matrix", "@m.json")
    add("rank", "--matrix", "@tall.csv")
    for n in range(4):
        add("gram-det", "--n", str(n), "--alpha0", "3", "--beta0", "1/2", "--gamma0", "-1")
    add("gram-det", "--n", "2", "--alpha0", "2", "--beta0", "1", "--gamma0", "1", "--check")
    add("gram-det", "--n", "1", "--alpha0", "1", "--beta0", "1", "--gamma0", "1", "--check")
    add("deligne", "--alpha0", "2", "--beta0", "1", "--gamma0", "1", "--lam", "4", "--sqrt-lam", "2")
    add("deligne", "--alpha0=-1/3", "--beta0", "0", "--gamma0", "5", "--lam", "1",
        "--sqrt-lam", "-1")
    add("selftest")
    add("selftest", "--seed", "3")

    # exit 2: malformed literals and files
    add("star", "1;1")
    add("star", "1;x;{1}[0,0]")
    add("tensor", "1;1;{1,1'}[0,0", "1;1;{1,1'}[0,0]")
    add("compose", "1;1;{1,}[0,0]|{1'}[0,0]", "1;1;{1,1'}[0,0]", "--params", "@p211.json")
    add("gram-det", "--n", "2", "--alpha0", "1.5", "--beta0", "1", "--gamma0", "1")
    add("deligne", "--alpha0", "1", "--beta0", "1/0", "--gamma0", "1", "--lam", "1",
        "--sqrt-lam", "1")
    # (notarrays.json gives p_alpha as the string "1", not an array)
    for bad in ("@truncated.json", "@nokey.json", "@notarrays.json"):
        add("gram", "--family", "rook", "--n", "1", "--lambda", "0", "--params", bad)
    add("rank", "--matrix", "@truncated-matrix.json")
    # a node is digits with at most one trailing ', and a size is digits:
    # int() read these as other nodes or sizes, or raised a ValueError
    for literal in ("1;1;{1,1''}[0,0]", "1;1;{a,1'}[0,0]", "1;1;{1,-1}[0,0]", "1;1;{+1,1'}[0,0]",
                    "10;0;{1_0,1,2,3,4,5,6,7,8,9}[0,0]", "1_0;0;{1,2,3,4,5,6,7,8,9,10}[0,0]"):
        add("star", literal)
    # a cover fault names three missing nodes and counts the rest: this
    # literal's fault listed 30 million nodes, or raised MemoryError first
    add("star", "30000000;0;")
    # matrix JSON is an array of row arrays; strings and objects were read as rows
    for bad in ("@strings-matrix.json", "@object-matrix.json", "@scalar-matrix.json"):
        add("rank", "--matrix", bad)
    add("dims", "--family", "rook", "--n", "2", "--K", "1", "--check", "--cache-dir", "/dev/null")
    # exit 3: contracts and flag combinations
    add("dims", "--family", "nope", "--n", "2", "--K", "1")
    add("dims", "--family", "rook", "--n", "-1", "--K", "1")
    add("dims", "--family", "rook", "--n", "2", "--K", "0", "--check")
    add("dims", "--family", "rook", "--n", "2", "--K", "1", "--cache-dir", "/dev/null")
    add("gram", "--family", "brauer", "--n", "2", "--lambda", "1", "--params", "@p211.json")
    add("gram", "--family", "rook", "--n", "2", "--lambda", "-1", "--params", "@p211.json")
    add("gram", "--family", "rook", "--n", "1", "--lambda", "0", "--params", "@q0.json")
    add("gram", "--family", "rook", "--n", "1", "--lambda", "0", "--params", "@nonmonomial.json")
    add("idempotents", "--family", "rook", "--n", "1", "--params", "@nonmonomial.json")
    add("normalize", "1;1;{1,1'}[5,0]", "--K", "3")
    add("normalize", "1;1;{1,1'}[5,0]", "--r", "1")
    add("factorize", "1;1;{1,1'}[5,0]", "--K", "2", "--r", "1")
    add("member", "1;1;{1}[0,0]")
    add("compose", "1;1;{1,1'}[0,0]", "2;2;{1,1'}[0,0]|{2,2'}[0,0]", "--params", "@p211.json")
    add("monoid-m", "--K", "2", "--r", "2")
    add("monoid-m", "--K", "1", "--r", "3")
    add("conjugacy")
    add("conjugacy", "--K", "2")
    add("conjugacy", "--sym", "-1")
    add("conjugacy", "--sym", "2", "--K", "2", "--r", "1")
    add("conjugacy", "--K", "2", "--r", "1", "--wreath-lambda", "-1")
    add("wreath-types", "--K", "2", "--r", "1", "--lambda", "-1")
    add("apex", "--family", "rook", "--n", "-1", "--zero-pattern", "all-zero")
    add("count-simples", "--family", "rook", "--n", "3", "--lambda", "1", "--field", "fp",
        "--r", "1")
    add("count-simples", "--family", "rook", "--n", "3", "--lambda", "1", "--field", "fp",
        "--p", "4", "--r", "1")
    add("count-simples", "--family", "rook", "--n", "3", "--lambda", "1", "--field",
        "char0bar", "--r", "2")
    add("rank", "--matrix", "@ragged.csv")
    add("rank", "--matrix", "@no-rows.json")
    add("rank", "--matrix", "@empty.csv")
    add("deligne", "--alpha0", "2", "--beta0", "1", "--gamma0", "1", "--lam", "4",
        "--sqrt-lam", "3")
    # exit 4: each guard, before its work
    add("gram", "--family", "rook", "--n", "7", "--lambda", "0", "--params", "@p211.json")
    add("dims", "--family", "partition", "--n", "8", "--K", "3", "--check")
    add("idempotents", "--family", "symmetric", "--n", "5", "--params", "@pK2.json")
    # every lambda's J-cell is charged before the first lambda's work
    add("idempotents", "--family", "rook", "--n", "4", "--params", "@pK3.json")
    add("monoid-m", "--K", "600", "--r", "1")
    add("conjugacy", "--K", "101", "--r", "1")
    add("conjugacy", "--sym", "6")
    add("conjugacy", "--K", "2", "--r", "1", "--wreath-lambda", "3")
    add("conjugacy", "--K", "2", "--r", "1", "--wreath-lambda", "4")
    add("wreath-types", "--K", "3", "--r", "1", "--lambda", "5")
    add("gram-det", "--n", "5", "--alpha0", "2", "--beta0", "1", "--gamma0", "1", "--check")
    # exit 4, not a ValueError on a size past 4,300 digits or a
    # RecursionError in a counting recurrence
    add("wreath-types", "--K", "2", "--r", "1", "--lambda", "2000")
    add("idempotents", "--family", "symmetric", "--n", "1700", "--params", "@p211.json")
    add("idempotents", "--family", "partition", "--n", "500", "--params", "@p211.json")
    add("cells", "--family", "symmetric", "--n", "1700")
    add("cells", "--family", "rook", "--n", "1000")
    add("dims", "--family", "partition", "--n", "500", "--K", "1", "--check")
    add("dims", "--family", "rook", "--n", "9100", "--K", "1")
    add("gram", "--family", "partition", "--n", "1000", "--lambda", "999", "--params", "@p211.json")
    for n in ("9", "12"):
        add("gram-det", "--n", n, "--alpha0", "3", "--beta0", "1/2", "--gamma0", "-1")
    add("count-simples", "--family", "planar-partition", "--n", "10000", "--lambda", "10000",
        "--field", "char0bar", "--r", "1")
    add("compose", "1;1;{1,1'}[1000000000000,0]", "1;1;{1,1'}[0,0]", "--params", "@p211.json")
    # exit 4, not a ValueError, on a printed rational past 14,000 bits: a
    # coefficient of 25,000 handles at q = 1 - T - T^2, and a determinant
    add("compose", "1;1;{1,1'}[0,0]", "1;1;{1}[0,0]|{1'}[25000,0]",
        "--params", "@nonmonomial.json")
    add("gram", "--family", "rook", "--n", "2", "--lambda", "0", "--params",
        "@alpha10e800.json", "--no-matrix")
    # exit 4 before a series of a million terms, and at the first lambda
    # over the halves guard rather than after every closed form
    add("compose", "1;1;{1}[0,0]|{1'}[0,0]", "1;1;{1}[0,0]|{1'}[1000000,0]",
        "--params", "@p211.json")
    for f in ("motzkin", "rook-brauer", "partition"):
        add("dims", "--family", f, "--n", "1500", "--K", "1", "--check")
    add("dims", "--family", "planar-partition", "--n", "100", "--K", "1", "--check")
    # exit 4 on an apex set of 10^20 + 1 entries, counted before the set
    # forms; forming it raised MemoryError
    add("apex", "--family", "rook", "--n", "99999999999999999999", "--zero-pattern",
        "some-nonzero")
    # exit 4 before a trial division of about 10^9 steps starts
    for field in (("rationals", "--r", "1000000000000000001"),
                  ("fp", "--p", "1000000000000000003", "--r", "1")):
        add("count-simples", "--family", "rook", "--n", "3", "--lambda", "1", "--field", *field)
    return cases


def _key(argv) -> str:
    return " ".join(argv)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def write_files(folder: Path) -> Path:
    for name, text in FILES.items():
        (folder / name).write_text(text)
    return folder


def run_case(argv, folder: Path):
    """The corpus record of one argv, run with FILES written in folder:
    the digest of its result (of stdout for CSV output), or
    {"exit": code, "stderr": digest} on an error."""
    argv = [str(folder / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--stable", *argv])
    except SystemExit:  # argparse's messages vary between Python versions
        raise AssertionError(f"argparse refused {argv}: {err.getvalue()}") from None
    if code:
        assert str(folder) not in err.getvalue(), "stderr echoes the temporary folder"
        return {"exit": code, "stderr": _sha(err.getvalue())}
    if ["--output", "csv"] in [argv[i:i + 2] for i in range(len(argv))]:
        return _sha(out.getvalue())
    return _sha(json.dumps(json.loads(out.getvalue())["result"], sort_keys=True))


EMPTY = {"recorded_at": None, "tier1": {}, "ci": {}}
LOADED = json.loads(CORPUS.read_text()) if CORPUS.exists() else EMPTY


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return write_files(tmp_path_factory.mktemp("corpus"))


@pytest.mark.parametrize("key", LOADED["tier1"])
def test_corpus_digest(key, folder):
    assert run_case(key.split(" "), folder) == LOADED["tier1"][key]


def test_corpus_is_the_generated_argv_list():
    assert LOADED["recorded_at"] == RECORDED_AT
    for tier in ("tier1", "ci"):
        assert list(LOADED[tier]) == [_key(a) for a, t in corpus_argvs() if t == tier]


def test_corpus_covers_every_subcommand_family_and_exit():
    cases = [key.split(" ") for tier in ("tier1", "ci") for key in LOADED[tier]]
    records = [r for tier in ("tier1", "ci") for r in LOADED[tier].values()]
    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for argv in cases} == set(subcommands)
    for fam in Family:
        for command in ("dims", "cells", "gram", "idempotents"):
            assert any(a[0] == command and fam.value in a for a in cases), (command, fam)
    assert {r["exit"] for r in records if isinstance(r, dict)} == {2, 3, 4}


def _check(tier: str) -> int:
    corpus = LOADED[tier]
    bad = 0
    with tempfile.TemporaryDirectory() as folder:
        write_files(Path(folder))
        for key, want in corpus.items():
            if run_case(key.split(" "), Path(folder)) != want:
                print(f"digest changed: {key}")
                bad += 1
    print(f"{len(corpus) - bad} of {len(corpus)} {tier} cases match")
    return 1 if bad else 0


def _record() -> int:
    corpus = {"recorded_at": RECORDED_AT, "tier1": {}, "ci": {}}
    spent = {"tier1": 0.0, "ci": 0.0}
    with tempfile.TemporaryDirectory() as folder:
        write_files(Path(folder))
        for argv, tier in corpus_argvs():
            t0 = time.perf_counter()
            corpus[tier][_key(argv)] = run_case(argv, Path(folder))
            spent[tier] += time.perf_counter() - t0
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    for tier, seconds in spent.items():
        print(f"{tier}: {len(corpus[tier])} cases, {seconds:.1f} s")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["record"]:
        sys.exit(_record())
    if sys.argv[1:2] == ["check"] and len(sys.argv) == 3:
        sys.exit(_check(sys.argv[2]))
    sys.exit("usage: python tests/test_golden.py record | check tier1 | check ci")
