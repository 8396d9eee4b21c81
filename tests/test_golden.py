"""Golden outputs: sha256 digests of the `result` part of `--stable` CLI
documents.  The cells, gram, idempotents and compose digests were recorded
from the node-level composition that the block-level merge replaced; the
conjugacy and monoid-m digests from the index/period omega power and the
private union-find that the shared index union-find replaced; the rook,
planar-partition and Brauer K=3 cells digests from the per-product Cayley
table that the shape-pair table replaced.  The `input`
part is left out because it echoes the parameter file's temporary path."""
import hashlib
import json

import pytest

from moebius.cli import main

PARAMS = {
    "p211": '{"p_alpha":["2"],"p_beta":["1"],"p_gamma":["1"],"q":["1","-1"]}',
    "pK2": '{"p_alpha":["1","1"],"p_beta":["1"],"p_gamma":["1"],"q":["1","-1"]}',
}

DECORATED_F = "6;6;{1,2'}[0,0]|{2,4,5}[1,0]|{3,3'}[0,2]|{6,1',4',6'}[0,0]|{5'}[0,1]"
DECORATED_G = "6;6;{1,1'}[0,1]|{2,4,5}[0,0]|{3}[0,2]|{6,2',4',6'}[1,0]|{3'}[0,0]|{5'}[0,0]"

# case -> (argv, sha256 of the result); "@name" is the path of PARAMS[name]
GOLDEN = {
    "cells-tl-3": (
        ["cells", "--family", "temperley-lieb", "--n", "3"],
        "c45dc3e8f5c0a6933262e995a0279ca9ea8c280a66b8858b203ed939f1c4965f",
    ),
    "cells-brauer-2-K2": (
        ["cells", "--family", "brauer", "--n", "2", "--K", "2"],
        "9c14ab88496e9b0d7d8fe110f42a2fab30a30b5351aa424c6cc250ed4b914113",
    ),
    "cells-rook-2": (
        ["cells", "--family", "rook", "--n", "2"],
        "f5a21d0951370be514636f04e1a14d3dd3bca7c81a8d473818932639b08ed0eb",
    ),
    "cells-planar-partition-2": (
        ["cells", "--family", "planar-partition", "--n", "2"],
        "373e84961a8c505e648aee9a2c01670b44cbb60de6329fba41147e1ad2773fd6",
    ),
    "cells-brauer-2-K3-r3": (
        ["cells", "--family", "brauer", "--n", "2", "--K", "3", "--r", "3"],
        "b8bec4bd1ef33b7b574cc5d048298e8af15f0f9077c7551935d9ab5f8a2ec1f6",
    ),
    "gram-rook-3-1": (
        ["gram", "--family", "rook", "--n", "3", "--lambda", "1", "--params", "@p211"],
        "2f45786c6790905e26cb6d28fad997a0105a7eab11cac31ff7b23c11f1c63cf4",
    ),
    "gram-partition-3-2-K2": (
        ["gram", "--family", "partition", "--n", "3", "--lambda", "2", "--params", "@pK2"],
        "428ab94126b1dde6136908f85b149da94ec9cb1b46a248a87396c3252a800502",
    ),
    "idempotents-rook-2": (
        ["idempotents", "--family", "rook", "--n", "2", "--params", "@p211"],
        "bdf38cedfe6fbb5637e0bdf92802249639ca880646cf8689915e23c44d3d10a4",
    ),
    "compose-decorated": (
        ["compose", DECORATED_F, DECORATED_G, "--params", "@p211"],
        "46ec5adda959fcd02b31d592a83cd29328e9e879a61a1c64267aa71ef5e1f655",
    ),
    "compose-closing": (
        ["compose", "1;0;{1}[0,1]", "0;1;{1'}[0,2]", "--params", "@p211"],
        "44c4f462abc6dfbc217089aa886f641eb501858873e5fd2ab851783e61ed06ff",
    ),
    "conjugacy-M-4-3": (
        ["conjugacy", "--K", "4", "--r", "3"],
        "8256c8d54a53e79cc3d7f7219e799bd747570741b1b60c23d50fdee60485d115",
    ),
    "conjugacy-S4": (
        ["conjugacy", "--sym", "4"],
        "97cab7fe7dc54846a1feff6d48fb00f457d4585388915ec5970abfd56f5f48fa",
    ),
    "conjugacy-M-2-1-wr-2": (
        ["conjugacy", "--K", "2", "--r", "1", "--wreath-lambda", "2"],
        "8da75a6640e028f7ee94d37cd1a8b67d3f93d41039f0acefe11f3b6924e057cc",
    ),
    "monoid-m-4-3": (
        ["monoid-m", "--K", "4", "--r", "3"],
        "c1a8fef1855e17b062e94cf0696a6a5bfbe10b9a984ddfb57073e88217d8f96c",
    ),
    "monoid-m-9-5": (
        ["monoid-m", "--K", "9", "--r", "5"],
        "cccb6481572651246d5eccbc27f7927b20aa3a12514848137d23411e8fd14cb4",
    ),
}


@pytest.mark.parametrize("case", GOLDEN)
def test_stable_result_digest(case, tmp_path, capsys):
    argv, digest = GOLDEN[case]
    for name, text in PARAMS.items():
        (tmp_path / f"{name}.json").write_text(text)
    argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    assert main(["--stable", *argv]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest() == digest
