"""Command-line surface.

Every subcommand returns its result and ``main`` prints it: one JSON
document, an envelope with the input echo, a format version, the result,
and timing metadata (suppressed by --stable so that repeated runs are
byte-identical), or for matrices and tables under --output csv the CSV
document the command returned.

Exit codes: 0 success, and for each error class the code that
``errors.EXIT_CODES`` gives it.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from fractions import Fraction

from . import algebra, cells, gram, msmall, repcount
from .diagram import (
    factorize,
    is_member,
    normalize_handles,
    normalize_mob,
    parse_diagram,
    render_diagram,
    star,
    tensor,
    through_strands,
)
from .errors import (
    EXIT_CODES,
    InternalCheckError,
    ParseError,
    PreconditionError,
    check_guard,
)
from .families import Family, admissible_lambdas, family_from_name
from .params import (
    MonoidParams,
    format_rational,
    monoid_params_of,
    params_from_json,
    parse_rational,
    validate_params,
)

FORMAT_VERSION = 1


def _load_params(path: str):
    try:
        with open(path) as fh:
            return params_from_json(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read parameter file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_compose(args):
    ps = _load_params(args.params)
    d1 = parse_diagram(args.diagram1)
    d2 = parse_diagram(args.diagram2)
    out = algebra.compose(
        algebra.LinComb.from_diagram(d1), algebra.LinComb.from_diagram(d2), ps
    )
    return {"n": out.n, "m": out.m, "terms": out.to_json()}


def cmd_normalize(args):
    if (args.K is None) != (args.r is None):
        raise PreconditionError("handle normalization needs both --K and --r")
    d = normalize_mob(parse_diagram(args.diagram))
    if args.K is not None:
        d = normalize_handles(d, MonoidParams(args.K, args.r))
    return {"diagram": render_diagram(d)}


def cmd_tensor(args):
    d = tensor(parse_diagram(args.diagram1), parse_diagram(args.diagram2))
    return {"diagram": render_diagram(d)}


def cmd_star(args):
    return {"diagram": render_diagram(star(parse_diagram(args.diagram)))}


def cmd_factorize(args):
    mp = MonoidParams(args.K, args.r)
    fact = factorize(normalize_mob(parse_diagram(args.diagram)), mp)
    return {
        "lambda": fact.lambda_ts,
        "bottom": render_diagram(fact.bottom),
        "top": render_diagram(fact.top),
        "middle": {
            "perm": list(fact.middle.perm),
            "strands": [[s.i, s.j] for s in fact.middle.strands],
        },
    }


def cmd_member(args):
    d = parse_diagram(args.diagram)
    families = [family_from_name(args.family)] if args.family else list(Family)
    return {f.value: is_member(d, f) for f in families}


def cmd_dims(args):
    if args.cache_dir is not None and not args.check:
        raise PreconditionError("--cache-dir needs --check")
    fam = family_from_name(args.family)
    if args.check:
        dims = cells.checked_dims(fam, args.n, args.K, cache_dir=args.cache_dir)
    else:
        dims = repcount.dims_table(fam, args.n, args.K)
    table = {str(lam): val for lam, val in dims.items()}
    if args.output == "csv":
        return "".join(f"{lam},{val}\n" for lam, val in table.items())
    return {"dims": table, "checked": bool(args.check)}


def cmd_cells(args):
    fam = family_from_name(args.family)
    mp = MonoidParams(args.K, args.r)
    elements, mono = cells.family_monoid_cayley(fam, args.n, mp)
    greens = msmall.greens_cells_bruteforce(mono)
    pl, pr, pj, ph = cells.predicted_cells(elements, fam, mp)
    j_constant_through = all(
        len({through_strands(elements[i]) for i in cell}) == 1
        for cell in greens.j_cells
    )
    return {
        "elements": len(elements),
        "j_cell_sizes": sorted(len(c) for c in greens.j_cells),
        "l_cells": len(greens.l_cells),
        "r_cells": len(greens.r_cells),
        "h_cells": len(greens.h_cells),
        "j_cells_constant_through_strands": j_constant_through,
        "cells_match_factorization_prediction": (
            sorted(sorted(c) for c in greens.l_cells) == pl
            and sorted(sorted(c) for c in greens.r_cells) == pr
            and sorted(sorted(c) for c in greens.j_cells) == pj
            and sorted(sorted(c) for c in greens.h_cells) == ph
        ),
    }


def cmd_apex(args):
    fam = family_from_name(args.family)
    pattern = cells.ZeroPattern(args.zero_pattern)
    result = cells.apex_set(fam, args.n, pattern)
    return {"apexes": sorted(result.apexes)}


def cmd_idempotents(args):
    fam = family_from_name(args.family)
    ps = _load_params(args.params)
    mp = monoid_params_of(ps)  # refuses a q other than 1 - T^r before n is checked
    lambdas = admissible_lambdas(fam, args.n)
    for lam in lambdas:  # every J-cell is charged before the first is searched
        cells.jcell_size(fam, args.n, lam, mp)
    report = {}
    for lam in lambdas:
        found = cells.strict_idempotent(fam, args.n, lam, ps)
        if found is not None:
            found = {"element": render_diagram(found[0]), "scalar": format_rational(found[1])}
        report[str(lam)] = found
    return {"strict_idempotents": report}


def cmd_monoid_m(args):
    rep = msmall.m_cell_structure(MonoidParams(args.K, args.r))
    return rep.__dict__


def cmd_conjugacy(args):
    if args.sym is not None:
        if args.sym < 0:
            raise PreconditionError("--sym must be nonnegative")
        if (args.K, args.r, args.wreath_lambda) != (None, None, None):
            raise PreconditionError("--sym takes no --K, --r or --wreath-lambda")
        msmall.check_wreath_cost(
            msmall.CONJUGACY_WHAT, args.sym, lambda: math.factorial(args.sym),
            msmall.CONJUGACY_GUARD,
        )
        mono = msmall.symmetric_group_cayley(args.sym)
        label = f"S_{args.sym}"
    else:
        if args.K is None or args.r is None:
            raise PreconditionError("conjugacy needs --K and --r, or --sym")
        mp = MonoidParams(args.K, args.r)
        if args.wreath_lambda is not None:
            lam = args.wreath_lambda
            msmall.check_wreath_cost(
                msmall.CONJUGACY_WHAT, lam, lambda: msmall.wreath_order(mp, lam),
                msmall.CONJUGACY_GUARD,
            )
            mono = msmall.wreath_cayley(mp, lam)
            label = f"M({args.K},{args.r}) wr S_{lam}"
        else:
            check_guard(msmall.CONJUGACY_WHAT, 3 * args.K, msmall.CONJUGACY_GUARD)
            mono = msmall.cayley_of_m(mp)
            label = f"M({args.K},{args.r})"
    classes = msmall.generalized_conjugacy_classes(mono)
    result = {
        "monoid": label,
        "size": mono.size,
        "class_count": len(classes),
        "class_sizes": sorted(len(c) for c in classes),
    }
    if mono.size <= 60:
        result["classes"] = [
            sorted(str(mono.elements[v]) for v in cls) for cls in classes
        ]
    return result


WREATH_TYPES_GUARD = 500_000


def cmd_wreath_types(args):
    mp = MonoidParams(args.K, args.r)
    lam = args.lam
    msmall.check_wreath_cost(
        "the size of M wr S_lambda", lam, lambda: msmall.wreath_order(mp, lam),
        WREATH_TYPES_GUARD,
    )
    classes = msmall.m_conjugacy_classes(mp)
    types = {
        msmall.wreath_type(w, classes, mp)
        for w in msmall.wreath_elements(mp, lam)
    }
    predicted = repcount.count_types(lam, len(classes))
    return {
        "distinct_types": len(types),
        "predicted": predicted,
        "agree": len(types) == predicted,
    }


def cmd_count_simples(args):
    fam = family_from_name(args.family)
    if args.field == "fp":
        if args.p is None:
            raise PreconditionError("--field fp needs --p")
        field = repcount.prime_field(args.p)
    elif args.p is not None:
        raise PreconditionError("--p applies to --field fp only")
    elif args.field == "rationals":
        field = repcount.RATIONALS
    else:
        field = repcount.CHAR0_ALG_CLOSED
    result = repcount.count_simples(fam, args.n, args.lam, field, args.r)
    return {"count": result.count, "exact": result.exact}


def cmd_gram(args):
    if args.no_matrix and args.output == "csv":
        raise PreconditionError("--no-matrix has no CSV form: the CSV output is the matrix")
    fam = family_from_name(args.family)
    ps = _load_params(args.params)
    matrix = gram.gram_matrix(fam, args.n, args.lam, ps)

    def order():  # of the printed rows and columns; rank runs on the blocks
        return gram.mob_grouped_order(matrix.labels) if args.order == "mob-grouped" else None

    if args.output == "csv":
        return gram.gram_to_csv(matrix, order())
    report = gram.exact_rank(matrix)
    condition = prediction = None
    mp = monoid_params_of(ps)
    if mp.K == 1 and fam in (Family.ROOK, Family.PLANAR_ROOK):
        a0, b0, g0 = ps.p_alpha, ps.p_beta, ps.p_gamma
        vals = [p[0] if p else Fraction(0) for p in (a0, b0, g0)]
        condition = gram.gramcond_check(args.n, args.lam, *vals)
        if condition:
            prediction = repcount.dim_left_cell(fam, args.n, args.lam, 1)
    payload = {
        "family": matrix.family.value,
        "n": matrix.n,
        "lambda": matrix.lambda_ts,
        "dim": len(matrix.labels),
        "rank": report.rank,
        "det": None if report.det is None else format_rational(report.det),
        "condition_holds": condition,
        "closed_form_prediction": prediction,
    }
    if not args.no_matrix:
        payload.update(gram.gram_to_json(matrix, order()))
    return payload


def cmd_rank(args):
    try:
        with open(args.matrix) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read matrix file: {exc}") from None
    if args.matrix.endswith(".json"):
        try:
            data = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
            raise ParseError(f"bad matrix JSON: {exc}") from None
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ParseError("bad matrix JSON: the matrix must be an array of row arrays")
        rows = [[parse_rational(str(x)) for x in row] for row in data]
    else:
        records = csv.reader(io.StringIO(text))
        rows = [[parse_rational(x) for x in record] for record in records if record]
    if not rows:
        raise PreconditionError("empty matrix")
    rep = gram.exact_rank(rows)
    return {
        "rank": rep.rank,
        "det": None if rep.det is None else format_rational(rep.det),
    }


def cmd_gram_det(args):
    a0 = parse_rational(args.alpha0)
    b0 = parse_rational(args.beta0)
    g0 = parse_rational(args.gamma0)
    value = gram.gram_det_closed_form_rook0(args.n, a0, b0, g0)
    result = {"det": format_rational(value)}
    if args.check:
        check_guard("n for gram-det --check", args.n, 4)
        ps = validate_params([a0], [b0], [g0], [1, -1], allow_zero_alpha=True)
        brute = gram.exact_rank(gram.gram_matrix(Family.ROOK, args.n, 0, ps)).det
        result["brute"] = format_rational(brute)
        if brute != value:
            raise InternalCheckError(
                f"closed form {value} disagrees with brute determinant {brute}"
            )
        result["agree"] = True
    return result


def cmd_deligne(args):
    delta, plus, minus = repcount.deligne_parameters(
        parse_rational(args.alpha0),
        parse_rational(args.beta0),
        parse_rational(args.gamma0),
        parse_rational(args.lam),
        parse_rational(args.sqrt_lam),
    )
    return {
        "delta": format_rational(delta),
        "delta_plus": format_rational(plus),
        "delta_minus": format_rational(minus),
    }


def cmd_selftest(args):
    import random

    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True))
        except Exception:
            checks.append((name, False))

    def roexp():
        ps = validate_params([2], [0], [1], [1, -1])
        matrix = gram.gram_matrix(Family.ROOK, 1, 0, ps)
        rep = gram.exact_rank(matrix)
        assert rep.rank == 3 and rep.det == 1

    def monoid():
        rep = msmall.m_cell_structure(MonoidParams(4, 3))
        assert rep.matches_prediction

    def dims():
        assert cells.checked_dims(Family.TEMPERLEY_LIEB, 3, 2)[1] == 12

    def assoc():
        rng = random.Random(args.seed)
        ps = validate_params([1, 1], [1], [1], [1, 0, -1])
        from .diagram import Diagram

        def rand_diagram(n):
            ids = list(range(1, n + 1)) + [-j for j in range(1, n + 1)]
            rng.shuffle(ids)
            blocks = []
            while ids:
                size = rng.randint(1, min(3, len(ids)))
                nodes, ids = ids[:size], ids[size:]
                blocks.append((tuple(nodes), rng.randint(0, 2), rng.randint(0, 2)))
            return Diagram.make(n, n, blocks)

        for _ in range(20):
            x, y, z = (algebra.LinComb.from_diagram(rand_diagram(3)) for _ in range(3))
            lhs = algebra.compose(algebra.compose(x, y, ps), z, ps)
            rhs = algebra.compose(x, algebra.compose(y, z, ps), ps)
            assert lhs == rhs

    check("roexp-rank", roexp)
    check("monoid-cells", monoid)
    check("dims-anchor", dims)
    check("associativity", assoc)
    failed = [name for name, passed in checks if not passed]
    if failed:
        raise InternalCheckError(f"selftest failed: {', '.join(failed)}")
    return {"checks": dict(checks), "ok": True}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use, not at import.
    Each subcommand's handler is bound as its parser is built, so a
    ``cmd_*`` replaced afterwards is not the one ``main`` calls."""
    parser = argparse.ArgumentParser(
        prog="moebius",
        description="exact computations with decorated partition diagram algebras",
    )
    parser.add_argument("--stable", action="store_true", help="omit timing metadata")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn, output="json")
        return p

    p = add("compose", cmd_compose, help="compose two diagram literals")
    p.add_argument("diagram1")
    p.add_argument("diagram2")
    p.add_argument("--params", required=True)

    p = add("normalize", cmd_normalize, help="crosscap/handle normal form")
    p.add_argument("diagram")
    p.add_argument("--K", type=int)
    p.add_argument("--r", type=int)

    p = add("tensor", cmd_tensor, help="horizontal juxtaposition")
    p.add_argument("diagram1")
    p.add_argument("diagram2")

    p = add("star", cmd_star, help="reflect about the horizontal")
    p.add_argument("diagram")

    p = add("factorize", cmd_factorize, help="top/middle/bottom factorization")
    p.add_argument("diagram")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("member", cmd_member, help="family membership")
    p.add_argument("diagram")
    p.add_argument("--family")

    p = add("dims", cmd_dims, help="left-cell dimension table")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--output", choices=["json", "csv"], default="json")
    p.add_argument("--cache-dir")

    p = add("cells", cmd_cells, help="brute-force Green's cells of a decorated monoid")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--r", type=int, default=1)

    p = add("apex", cmd_apex, help="apex set for a zero pattern")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--zero-pattern", choices=["all-zero", "some-nonzero"], required=True
    )

    p = add("idempotents", cmd_idempotents, help="strict idempotents per cell")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--params", required=True)

    p = add("monoid-m", cmd_monoid_m, help="cell structure of M(K, r)")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("conjugacy", cmd_conjugacy, help="generalized conjugacy classes")
    p.add_argument("--K", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--wreath-lambda", type=int)
    p.add_argument("--sym", type=int, help="use the symmetric group S_n instead")

    p = add("wreath-types", cmd_wreath_types, help="distinct type matrices")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)

    p = add("count-simples", cmd_count_simples, help="simple-module counts")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--field", choices=["char0bar", "rationals", "fp"], required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--r", type=int, required=True)

    p = add("gram", cmd_gram, help="Gram matrix, rank, determinant")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--order", choices=["canonical", "mob-grouped"], default="canonical")
    p.add_argument("--no-matrix", action="store_true")
    p.add_argument("--output", choices=["json", "csv"], default="json")

    p = add("rank", cmd_rank, help="exact rank of a matrix file (csv or json)")
    p.add_argument("--matrix", required=True)

    p = add("gram-det", cmd_gram_det, help="closed-form rook determinant at lambda=0")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha0", required=True)
    p.add_argument("--beta0", required=True)
    p.add_argument("--gamma0", required=True)
    p.add_argument("--check", action="store_true")

    p = add("deligne", cmd_deligne, help="interpolation-category parameters")
    p.add_argument("--alpha0", required=True)
    p.add_argument("--beta0", required=True)
    p.add_argument("--gamma0", required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--sqrt-lam", required=True)

    p = add("selftest", cmd_selftest, help="run fast internal checks")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        result = args.func(args)
    except tuple(EXIT_CODES) as exc:
        code, prefix = EXIT_CODES[type(exc)]
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    if isinstance(result, dict):
        envelope = {
            "command": args.command,
            "format_version": FORMAT_VERSION,
            "input": {
                k: v
                for k, v in vars(args).items()
                if k not in ("command", "func", "stable", "output") and v is not None
            },
            "result": result,
        }
        if not args.stable:
            envelope["timing_ms"] = round((time.time() - started) * 1000, 3)
        result = json.dumps(envelope, sort_keys=True, default=str) + "\n"
    sys.stdout.write(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
