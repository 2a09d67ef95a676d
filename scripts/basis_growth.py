#!/usr/bin/env python3
"""Growth of the free divided power algebra on a single generator.

Prints the dimension table by degree and, optionally, the weight
decomposition and the matching first-page diagonal.

Example:
    python scripts/basis_growth.py --n 3 --max-degree 24 --by-weight
"""

import argparse

from deltacalc import gamma
from deltacalc.e1 import e1_page
from deltacalc.exprs import format_generator
from deltacalc.gamma import GradedDims


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--max-degree", type=int, default=20, dest="max_degree")
    ap.add_argument("--by-weight", action="store_true", dest="by_weight")
    ap.add_argument("--e1", action="store_true", help="also render the first page")
    args = ap.parse_args()

    gens = gamma.s_generators(args.n, args.max_degree)
    print(f"generators on x{args.n} through degree {args.max_degree}:")
    for g in gens:
        print(f"  {format_generator(g)}  (degree {g.degree}, weight {g.weight})")

    by_degree, by_weight = gamma.graded_tables(
        gamma.basis_counts([(args.n, 1)], args.max_degree))
    dims = [by_degree[d] for d in range(args.max_degree + 1)]
    print(f"dims by degree: {dims}")

    if args.by_weight:
        for w, table in by_weight.items():
            print(f"  weight {w:>3}: " + "  ".join(f"{d}:{k}" for d, k in table.items()))

    if args.e1:
        print(e1_page(GradedDims({args.n: 1}), args.max_degree).render_text())


if __name__ == "__main__":
    main()
