"""CLI surface: envelopes, exit codes, determinism, file formats."""
import json
import sys

import pytest

from moebius.cli import main


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "p211.json"
    path.write_text('{"p_alpha":["2"],"p_beta":["1"],"p_gamma":["1"],"q":["1","-1"]}')
    return str(path)


@pytest.fixture
def params_file_201(tmp_path):
    path = tmp_path / "p201.json"
    path.write_text('{"p_alpha":["2"],"p_beta":["0"],"p_gamma":["1"],"q":["1","-1"]}')
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, "--stable", *argv)
    assert code == 0, out
    return json.loads(out)


A = "6;6;{1,2'}[0,0]|{2,4,5}[0,0]|{3,3'}[0,0]|{6,1',4',6'}[0,0]|{5'}[0,0]"
B = "6;6;{1,1'}[0,0]|{2,4,5}[0,0]|{3}[0,0]|{6,2',4',6'}[0,0]|{3'}[0,0]|{5'}[0,0]"


def test_compose_partition_example(capsys, params_file):
    doc = run_json(capsys, "compose", A, B, "--params", params_file)
    assert doc["result"]["terms"] == [
        ["6;6;{1,2'}[0,0]|{2,4,5}[0,0]|{3}[0,0]|{6,1',4',6'}[0,0]|{3'}[0,0]|{5'}[0,0]", "1"]
    ]


def test_compose_identity(capsys, params_file):
    doc = run_json(capsys, "compose", "1;1;{1,1'}[0,0]", "1;1;{1,1'}[0,0]", "--params", params_file)
    assert doc["result"]["terms"] == [["1;1;{1,1'}[0,0]", "1"]]


def test_compose_hom_example(capsys, tmp_path):
    path = tmp_path / "ones.json"
    path.write_text('{"p_alpha":["1"],"p_beta":["1"],"p_gamma":["1"],"q":["1","-1"]}')
    doc = run_json(
        capsys,
        "compose",
        "2;3;{1,1',2'}[0,0]|{2}[0,0]|{3'}[0,0]",
        "4;2;{1,1'}[0,0]|{2,4}[0,0]|{3}[0,0]|{2'}[0,0]",
        "--params",
        str(path),
    )
    assert doc["result"]["terms"] == [
        ["4;3;{1,1',2'}[0,0]|{2,4}[0,0]|{3}[0,0]|{3'}[0,0]", "1"]
    ]


def test_exit_codes(capsys, params_file):
    code, _ = run_cli(capsys, "compose", "garbage", "1;1;{1,1'}[0,0]", "--params", params_file)
    assert code == 2
    code, _ = run_cli(
        capsys, "compose", "1;1;{1,1'}[0,0]", "2;2;{1,1'}[0,0]|{2,2'}[0,0]", "--params", params_file
    )
    assert code == 3
    code, _ = run_cli(capsys, "dims", "--family", "partition", "--n", "12", "--K", "2", "--check")
    assert code == 4
    code, _ = run_cli(capsys, "conjugacy", "--K", "2", "--r", "1", "--wreath-lambda", "3")
    assert code == 4


def test_dims_guard_trips_before_enumerating(capsys, monkeypatch):
    from moebius import cells

    def refuse(*args, **kwargs):
        raise AssertionError("walked before the guard")

    monkeypatch.setattr(cells, "_walk", refuse)
    code, _ = run_cli(capsys, "dims", "--family", "partition", "--n", "12", "--K", "2", "--check")
    assert code == 4


@pytest.mark.parametrize(
    "argv, guard",
    [
        (("conjugacy", "--sym", "7"), "over the bound 300"),
        (("conjugacy", "--K", "400", "--r", "1"), "over the bound 300"),
        (("wreath-types", "--K", "400", "--r", "1", "--lambda", "1"), "over the bound 300"),
        (("monoid-m", "--K", "1667", "--r", "1"), "over the bound 2000000"),
        (("monoid-m", "--K", "600", "--r", "1"), "Cayley table is 3240000"),
        (("conjugacy", "--K", "2", "--r", "1", "--wreath-lambda", "3"),
         "conjugacy classes is 1296, over the bound 300"),
        (("conjugacy", "--K", "5", "--r", "1", "--wreath-lambda", "2"),
         "conjugacy classes is 450, over the bound 300"),
        (("conjugacy", "--K", "2", "--r", "1", "--wreath-lambda", "100000"),
         "is 100000, over the bound 300"),
    ],
)
def test_cayley_guards_trip_before_the_table(capsys, monkeypatch, argv, guard):
    from moebius import msmall

    def refuse(*args, **kwargs):
        raise AssertionError("built a Cayley table before the guard")

    monkeypatch.setattr(msmall, "m_elements", refuse)  # cayley_of_m's first step past its guard
    monkeypatch.setattr(msmall, "_composition_table", refuse)  # S_lambda's, in a wreath table
    assert main(list(argv)) == 4
    assert guard in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, bound",
    [
        (("wreath-types", "--K", "2", "--r", "1", "--lambda", "1000000"), 500000),
        (("idempotents", "--family", "symmetric", "--n", "1000000"), 200000),
        (("conjugacy", "--K", "2", "--r", "1", "--wreath-lambda", "1000000"), 300),
        (("conjugacy", "--sym", "1000000"), 300),
    ],
)
def test_a_lambda_over_its_bound_is_refused_before_its_order(
    capsys, monkeypatch, params_file, argv, bound
):
    # every cost with a wreath or symmetric factor is at least lambda, so
    # lambda = 10^6 is refused before its 5.5-million-digit order is formed
    import math

    from moebius import cells, msmall

    def refuse(*args, **kwargs):
        raise AssertionError("formed the order before the lambda rule")

    for module, name in ((msmall, "wreath_order"), (cells, "wreath_order"), (math, "factorial")):
        monkeypatch.setattr(module, name, refuse)
    if argv[0] == "idempotents":
        argv += ("--params", params_file)
    assert main(list(argv)) == 4
    assert f"is 1000000, over the bound {bound}" in capsys.readouterr().err


def test_conjugacy_rejects_a_negative_sym(capsys):
    code, _ = run_cli(capsys, "conjugacy", "--sym", "-1")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("--stable", "conjugacy"),
        ("conjugacy", "--K", "2"),
        ("conjugacy", "--r", "1"),
        ("wreath-types", "--K", "2", "--r", "1", "--lambda", "-1"),
        ("conjugacy", "--K", "2", "--r", "1", "--wreath-lambda", "-1"),
        ("apex", "--family", "rook", "--n", "-1", "--zero-pattern", "all-zero"),
        ("normalize", "1;1;{1,1'}[5,0]", "--K", "3"),
        ("normalize", "1;1;{1,1'}[5,0]", "--r", "1"),
        ("--stable", "conjugacy", "--K", "2", "--r", "1", "--sym", "2"),
        ("conjugacy", "--wreath-lambda", "1", "--sym", "2"),
        ("count-simples", "--family", "rook", "--n", "3", "--lambda", "1",
         "--field", "rationals", "--p", "5", "--r", "1"),
        ("count-simples", "--family", "rook", "--n", "3", "--lambda", "1",
         "--field", "char0bar", "--p", "5", "--r", "1"),
        ("gram", "--family", "rook", "--n", "1", "--lambda", "0", "--params", "unread.json",
         "--output", "csv", "--no-matrix"),
        ("dims", "--family", "rook", "--n", "2", "--K", "1", "--cache-dir", "unused"),
    ],
)
def test_incomplete_or_negative_arguments_exit_3(capsys, argv):
    assert main(list(argv)) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("precondition violated: ")


def test_stable_output_is_deterministic(capsys, params_file_201):
    _, out1 = run_cli(capsys, "--stable", "gram", "--family", "rook", "--n", "1",
                      "--lambda", "0", "--params", params_file_201)
    _, out2 = run_cli(capsys, "--stable", "gram", "--family", "rook", "--n", "1",
                      "--lambda", "0", "--params", params_file_201)
    assert out1 == out2
    _, timed = run_cli(capsys, "gram", "--family", "rook", "--n", "1",
                       "--lambda", "0", "--params", params_file_201)
    assert "timing_ms" in json.loads(timed)


def test_gram_roexp(capsys, params_file_201):
    doc = run_json(capsys, "gram", "--family", "rook", "--n", "1", "--lambda", "0",
                   "--params", params_file_201)
    res = doc["result"]
    assert res["entries"] == [["2", "0", "1"], ["0", "1", "0"], ["1", "0", "1"]]
    assert res["rank"] == 3 and res["det"] == "1"
    assert res["condition_holds"] is True and res["closed_form_prediction"] == 3


def test_gram_csv_and_rank_roundtrip(capsys, params_file_201, tmp_path):
    code, out = run_cli(capsys, "--stable", "gram", "--family", "rook", "--n", "1",
                        "--lambda", "0", "--params", params_file_201, "--output", "csv")
    assert code == 0
    matrix_file = tmp_path / "m.csv"
    matrix_file.write_text(out)
    doc = run_json(capsys, "rank", "--matrix", str(matrix_file))
    assert doc["result"] == {"det": "1", "rank": 3}


NOT_ROWS = "parse error: bad matrix JSON: the matrix must be an array of row arrays"


@pytest.mark.parametrize("name, text, code, message", [
    ("m.json", '["12","34"]', 2, NOT_ROWS),
    ("m.json", '{"12": 0, "34": 1}', 2, NOT_ROWS),
    ("m.json", '"1"', 2, NOT_ROWS),
    ("m.json", "[[1, 2], 3]", 2, NOT_ROWS),
    ("m.json", "[]", 3, "precondition violated: empty matrix"),
    ("m.csv", "", 3, "precondition violated: empty matrix"),
])
def test_rank_json_must_be_an_array_of_row_arrays(capsys, tmp_path, name, text, code, message):
    # strings and objects iterate as rows too, so each was ranked as some
    # other matrix; a matrix with no rows exits 3 in either format
    matrix_file = tmp_path / name
    matrix_file.write_text(text)
    assert main(["rank", "--matrix", str(matrix_file)]) == code
    assert capsys.readouterr() == ("", message + "\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter's int() reads any number of digits")
def test_a_number_past_the_int_digit_limit_exits_2(capsys, tmp_path):
    # int() and json.loads raise ValueError past the interpreter's digit
    # limit; each reader turns it into a parse error, not a traceback
    digits = "1" * (sys.get_int_max_str_digits() + 700)
    matrix_file = tmp_path / "m.json"
    matrix_file.write_text(f"[[{digits}]]")
    params = tmp_path / "p.json"
    params.write_text(f'{{"p_alpha": [{digits}], "p_beta": [], "p_gamma": [], "q": ["1", "-1"]}}')
    for argv, prefix in (
        (["rank", "--matrix", str(matrix_file)], "parse error: bad matrix JSON: "),
        (["compose", "1;1;{1,1'}[0,0]", "1;1;{1,1'}[0,0]", "--params", str(params)],
         "parse error: bad parameter JSON: "),
        (["star", "1;1;{1,1'}[" + digits + ",0]"], "parse error: a handle count of "),
        (["star", "1;1;{1," + digits + "'}[0,0]"], "parse error: a node of "),
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(prefix) and err.count("\n") == 1


def test_dims_with_check_and_cache(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    doc = run_json(capsys, "dims", "--family", "tl", "--n", "3", "--K", "2",
                   "--check", "--cache-dir", cache)
    assert doc["result"]["dims"] == {"1": 12, "3": 1}


def test_an_unusable_cache_dir_is_a_parse_error(capsys, tmp_path):
    # a path that is a file, or lies under one, cannot hold the shape
    # cache: exit 2 with one line, as for an unreadable parameter file
    plain = tmp_path / "plain"
    plain.write_text("")
    for cache in ("/dev/null", str(plain), str(plain / "sub")):
        code = main(["dims", "--family", "rook", "--n", "2", "--K", "1", "--check",
                     "--cache-dir", cache])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: cannot write shape cache in {cache}: ")


def test_dims_csv_output(capsys):
    code, out = run_cli(capsys, "--stable", "dims", "--family", "rook", "--n", "2",
                        "--K", "1", "--output", "csv")
    assert code == 0
    assert out.splitlines() == ["2,1", "1,6", "0,9"]


def test_member_and_star_and_tensor(capsys):
    doc = run_json(capsys, "member", "2;2;{1,2'}[0,0]|{2,1'}[0,0]", "--family", "tl")
    assert doc["result"] == {"temperley-lieb": False}
    doc = run_json(capsys, "star", "2;0;{1,2}[0,0]")
    assert doc["result"]["diagram"] == "0;2;{1',2'}[0,0]"
    doc = run_json(capsys, "tensor", "1;1;{1,1'}[0,0]", "1;1;{1,1'}[0,0]")
    assert doc["result"]["diagram"] == "2;2;{1,1'}[0,0]|{2,2'}[0,0]"


def test_normalize(capsys):
    doc = run_json(capsys, "normalize", "1;1;{1,1'}[0,5]", "--K", "2", "--r", "1")
    assert doc["result"]["diagram"] == "1;1;{1,1'}[1,1]"


def test_factorize(capsys):
    doc = run_json(capsys, "factorize", "3;3;{1,2,2'}[0,0]|{3,1'}[0,0]|{3'}[0,0]",
                   "--K", "4", "--r", "3")
    res = doc["result"]
    assert res["lambda"] == 2 and res["middle"]["perm"] == [2, 1]


def test_monoid_m_and_conjugacy(capsys):
    doc = run_json(capsys, "monoid-m", "--K", "4", "--r", "3")
    assert doc["result"]["matches_prediction"] is True
    doc = run_json(capsys, "conjugacy", "--K", "4", "--r", "3")
    assert doc["result"]["class_count"] == 10
    doc = run_json(capsys, "conjugacy", "--sym", "3")
    assert doc["result"]["class_count"] == 3
    doc = run_json(capsys, "conjugacy", "--K", "2", "--r", "1", "--wreath-lambda", "0")
    assert doc["result"]["monoid"] == "M(2,1) wr S_0"
    assert (doc["result"]["size"], doc["result"]["class_count"]) == (1, 1)


def test_wreath_types(capsys):
    doc = run_json(capsys, "wreath-types", "--K", "2", "--r", "1", "--lambda", "2")
    assert doc["result"] == {"agree": True, "distinct_types": 14, "predicted": 14}


def test_count_simples(capsys):
    doc = run_json(capsys, "count-simples", "--family", "motzkin", "--n", "4",
                   "--lambda", "2", "--field", "char0bar", "--r", "1")
    assert doc["result"] == {"count": 16, "exact": True}
    doc = run_json(capsys, "count-simples", "--family", "rook", "--n", "4",
                   "--lambda", "2", "--field", "fp", "--p", "2", "--r", "1")
    assert doc["result"]["exact"] is False


def test_apex_and_idempotents(capsys, params_file):
    doc = run_json(capsys, "apex", "--family", "motzkin", "--n", "3",
                   "--zero-pattern", "all-zero")
    assert doc["result"]["apexes"] == [1, 3]
    doc = run_json(capsys, "idempotents", "--family", "rook", "--n", "2",
                   "--params", params_file)
    found = doc["result"]["strict_idempotents"]
    assert set(found) == {"0", "1", "2"}
    assert all(v is not None for v in found.values())


def test_idempotents_charges_every_jcell_before_the_first_search(capsys, monkeypatch, tmp_path):
    # rook n=4 at K=3 refuses lambda=3's J-cell; lambdas 0 to 2 fit, and
    # none of them is searched before the refusal
    from moebius import cells

    calls = []
    monkeypatch.setattr(cells, "strict_idempotent", lambda *args: calls.append(args))
    path = tmp_path / "pK3.json"
    path.write_text('{"p_alpha":["2"],"p_beta":["1","1"],"p_gamma":["0","1"],'
                    '"q":["1","0","0","-1"]}')
    assert main(["idempotents", "--family", "rook", "--n", "4", "--params", str(path)]) == 4
    assert "the size of the J-cell at lambda=3" in capsys.readouterr().err
    assert calls == []


def test_cells_command(capsys):
    doc = run_json(capsys, "cells", "--family", "tl", "--n", "2")
    res = doc["result"]
    assert res["elements"] == 18
    assert res["j_cells_constant_through_strands"] is True
    assert res["cells_match_factorization_prediction"] is True


def test_gram_det_command(capsys):
    doc = run_json(capsys, "gram-det", "--n", "3", "--alpha0", "2", "--beta0", "0",
                   "--gamma0", "1", "--check")
    assert doc["result"]["agree"] is True


def test_deligne_command(capsys):
    doc = run_json(capsys, "deligne", "--alpha0", "19", "--beta0", "4", "--gamma0", "10",
                   "--lam", "1", "--sqrt-lam", "1")
    assert doc["result"] == {"delta": "9", "delta_minus": "3", "delta_plus": "7"}


def test_selftest(capsys):
    code, out = run_cli(capsys, "--stable", "selftest", "--seed", "1")
    assert code == 0
    assert json.loads(out)["result"]["ok"] is True


def test_a_failing_selftest_prints_nothing_and_names_its_check(capsys, monkeypatch):
    from moebius import msmall

    def fail(*args):
        raise AssertionError("patched to fail")

    monkeypatch.setattr(msmall, "m_cell_structure", fail)
    assert main(["--stable", "selftest"]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal check failed: selftest failed: monoid-cells\n"


def _refuse(*args):
    raise AssertionError("computed what the output drops")


# the dense matrix is a view of the blocks, formed only to print it
_DENSE = ("gram_to_json", "mob_grouped_order", "GramMatrix.entries")


@pytest.mark.parametrize(
    "flags, dropped",
    [
        (("--output", "csv"), ("exact_rank", "gramcond_check")),
        (("--no-matrix",), _DENSE),
        (("--no-matrix", "--order", "mob-grouped"), _DENSE),
    ],
)
def test_gram_does_no_work_its_output_drops(capsys, monkeypatch, params_file, flags, dropped):
    from moebius import gram

    argv = ("--stable", "gram", "--family", "rook", "--n", "2", "--lambda", "1",
            "--params", params_file, *flags)
    code, want = run_cli(capsys, *argv)
    assert code == 0 and want

    for name in dropped:
        owner, _, attr = name.rpartition(".")
        if owner:
            monkeypatch.setattr(getattr(gram, owner), attr, property(_refuse))
        else:
            monkeypatch.setattr(gram, attr, _refuse)
    assert run_cli(capsys, *argv) == (0, want)


def test_rank_alone_forms_no_dense_matrix(capsys, monkeypatch):
    from moebius import Family, gram, validate_params

    monkeypatch.setattr(gram.GramMatrix, "entries", property(_refuse))
    ps = validate_params([1], [1], [0], [1, -1], allow_zero_alpha=True)
    assert gram.exact_rank(gram.gram_matrix(Family.ROOK, 3, 1, ps)).rank == 27
    doc = run_json(capsys, "gram-det", "--n", "2", "--alpha0", "2", "--beta0", "1",
                   "--gamma0", "3", "--check")
    assert doc["result"]["agree"] is True


def test_the_parser_is_built_once_per_process():
    from moebius import cli

    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "argv, params",
    [
        # q = 1 - T - T^2: 25,000 handles expand to a coefficient of 17,355 bits
        (("compose", "1;1;{1,1'}[0,0]", "1;1;{1}[0,0]|{1'}[25000,0]"),
         '{"p_alpha":["1"],"p_beta":["1"],"p_gamma":["1"],"q":["1","-1","-1"]}'),
        # alpha_0 = 10^800 and a determinant of 15,978 bits
        (("gram", "--family", "rook", "--n", "2", "--lambda", "0", "--no-matrix"),
         '{"p_alpha":["1' + "0" * 800 + '"],"p_beta":["7"],"p_gamma":["3"],"q":["1","-1"]}'),
    ],
    ids=["compose", "gram"],
)
def test_a_rational_too_long_to_print_exits_4(capsys, tmp_path, argv, params):
    path = tmp_path / "params.json"
    path.write_text(params)
    assert main([*argv, "--params", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource guard: the size in bits of a printed rational is ")
    assert err.endswith(", over the bound 14000\n")


def test_a_closed_component_with_a_million_handles_exits_4_at_once(capsys, params_file):
    import time

    started = time.perf_counter()
    code = main(["compose", "1;1;{1}[0,0]|{1'}[0,0]", "1;1;{1}[0,0]|{1'}[1000000,0]",
                 "--params", params_file])
    assert code == 4 and time.perf_counter() - started < 1
    assert capsys.readouterr().err == (
        "resource guard: the series terms to form is 1000001, over the bound 100000\n"
    )
