#!/usr/bin/env python3
"""Survey of exact Gram ranks for the rook-type families.

Reproduces the headline computations: the 3x3 one-strand matrix, the
block structure at general (n, lambda), and the 270 / 10 ranks at
n = 5, lambda = 2 for the two parameter choices (1,1,0) and (1,1,1).

Usage: python scripts/rank_survey.py [--quick]

Exits 1 if a lambda=0 determinant differs from its closed form or a
headline rank differs from the paper's 270 / 10.
"""
import argparse
import sys
import time
from fractions import Fraction

from moebius import Family, exact_rank, gram_matrix, gramcond_check, validate_params
from moebius.gram import gram_det_closed_form_rook0
from moebius.params import format_rational


def geometric(a0, b0, g0):
    return validate_params([a0], [b0], [g0], [1, -1], allow_zero_alpha=True)


def survey_one_strand():
    ps = geometric(2, 0, 1)
    g = gram_matrix(Family.ROOK, 1, 0, ps)
    rep = exact_rank(g)
    print("rook n=1 lambda=0, (alpha0,beta0,gamma0)=(2,0,1):")
    for row in g.entries:
        print("   ", [format_rational(x) for x in row])
    print(f"    det = {format_rational(rep.det)}, rank = {rep.rank}")


def survey_small_grid(nmax):
    print(f"\nrook rank grid (alpha0,beta0,gamma0)=(2,0,1), n <= {nmax}:")
    ps = geometric(2, 0, 1)
    for n in range(1, nmax + 1):
        row = []
        for lam in range(n, -1, -1):
            rank = exact_rank(gram_matrix(Family.ROOK, n, lam, ps)).rank
            cond = gramcond_check(n, lam, 2, 0, 1)
            row.append(f"lam={lam}:{rank}{'' if cond else '(!)'}")
        print(f"  n={n}: " + "  ".join(row))


def survey_determinants(nmax):
    """Print each determinant beside the closed form; return the mismatch count."""
    print(f"\nlambda=0 determinants vs closed form, n <= {nmax}:")
    triples = [(Fraction(2), Fraction(0), Fraction(1)), (Fraction(3), Fraction(1), Fraction(-1))]
    mismatches = 0
    for n in range(1, nmax + 1):
        for a0, b0, g0 in triples:
            brute = exact_rank(gram_matrix(Family.ROOK, n, 0, geometric(a0, b0, g0))).det
            closed = gram_det_closed_form_rook0(n, a0, b0, g0)
            mismatches += brute != closed
            status = "ok" if brute == closed else "MISMATCH"
            print(f"  n={n} ({a0},{b0},{g0}): det={format_rational(brute)} [{status}]")
    return mismatches


def survey_headline():
    """Print the two headline ranks beside the paper's; return the mismatch count."""
    print("\nrook n=5 lambda=2:")
    mismatches = 0
    for a0, b0, g0, label, paper in [(1, 1, 0, "(1,1,0)", 270), (1, 1, 1, "(1,1,1)", 10)]:
        t0 = time.time()
        rank = exact_rank(gram_matrix(Family.ROOK, 5, 2, geometric(a0, b0, g0))).rank
        mismatches += rank != paper
        status = "ok" if rank == paper else "MISMATCH"
        print(f"  {label}: rank = {rank} [{status}, paper {paper}]   ({time.time() - t0:.1f}s)")
    return mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="skip the n=5 ranks")
    args = parser.parse_args(argv)
    survey_one_strand()
    survey_small_grid(3)
    mismatches = survey_determinants(3)
    if not args.quick:
        mismatches += survey_headline()
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
