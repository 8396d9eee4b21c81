#!/usr/bin/env python3
"""Explore the sandwiched monoids M(K, r): layered cell pictures,
generalized conjugacy class counts, and wreath type-matrix counts.

Usage: python scripts/monoid_zoo.py [--kmax 8]

Exits 1 if a cell picture, class count or type count misses its prediction.
"""
import argparse
import sys

from moebius import MonoidParams, generalized_conjugacy_classes, m_cell_structure
from moebius.msmall import cayley_of_m, m_conjugacy_classes, wreath_elements, wreath_type
from moebius.repcount import count_types


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=8)
    args = parser.parse_args(argv)
    failures = 0

    print("cell structure of M(K, r):")
    for K in range(2, args.kmax + 1):
        for r in range(1, K, 2):
            mp = MonoidParams(K, r)
            rep = m_cell_structure(mp)
            classes = generalized_conjugacy_classes(cayley_of_m(mp))
            ok = rep.matches_prediction and len(classes) == 1 + 3 * r
            failures += not ok
            status = "ok" if ok else "UNEXPECTED"
            print(
                f"  M({K},{r}): |M|={3*K}, singletons={len(rep.singleton_cells)}, "
                f"|J_r|={len(rep.jr_cell)}, |J_2r|={len(rep.j2r_cell)}, "
                f"idempotents=({rep.jr_idempotent}, {rep.j2r_idempotent}), "
                f"classes={len(classes)} (1+3r={1 + 3*r}) [{status}]"
            )

    print("\nwreath type matrices over M(2,1):")
    mp = MonoidParams(2, 1)
    classes = m_conjugacy_classes(mp)
    for lam in (1, 2, 3):
        types = {wreath_type(w, classes, mp) for w in wreath_elements(mp, lam)}
        formula = count_types(lam, len(classes))
        failures += len(types) != formula
        status = "ok" if len(types) == formula else "UNEXPECTED"
        print(f"  lambda={lam}: distinct types = {len(types)}, formula = {formula} [{status}]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
