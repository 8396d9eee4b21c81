#!/usr/bin/env python3
"""Print the left-cell dimension tables for all ten diagram families,
optionally cross-checking every closed form against explicit
half-diagram enumeration.

Usage: python scripts/dims_table.py [--nmax 4] [--K 1 2] [--check]
"""
import argparse
import sys

from moebius import Family, checked_dims, dims_table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=4)
    parser.add_argument("--K", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--check", action="store_true",
                        help="verify each entry by enumeration")
    args = parser.parse_args(argv)
    for family in Family:
        print(f"== {family.value}")
        for K in args.K:
            for n in range(0, args.nmax + 1):
                dims = (checked_dims if args.check else dims_table)(family, n, K)
                cells = ", ".join(f"lam={lam}: {val}" for lam, val in dims.items())
                print(f"  K={K} n={n}: {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
