#!/usr/bin/env python3
"""Sweep random witnesses over a family of Artin rings and cross-check the
closed-form divided-square nilpotency index against the axiom-level oracle.

Example:
    python scripts/artin_nilpotency_sweep.py --witnesses 30 --seed 7
"""

import argparse
import random

from deltacalc import artin, exprs

RINGS = [
    artin.ArtinRing(("t",), ((3,),)),
    artin.ArtinRing(("t",), ((5,),)),
    artin.ArtinRing(("u", "v"), ((2, 0), (0, 2))),
    artin.ArtinRing(("u", "v"), ((3, 0), (0, 2), (2, 1))),
    artin.ArtinRing(("a", "b", "c"), ((2, 0, 0), (0, 2, 0), (0, 0, 2))),
]


def random_witness(rng, ring, max_terms=3):
    monos = [m for m in ring.normal_monomials() if any(m)]
    terms = []
    for k in range(rng.randint(0, max_terms)):
        picks = rng.sample(monos, k=rng.randint(1, min(2, len(monos))))
        terms.append((ring.element(picks), f"x{k + 1}"))
    return artin.MixedElement(ring, tuple(terms))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--witnesses", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    mismatches = 0
    for ring in RINGS:
        witnesses = [random_witness(rng, ring) for _ in range(args.witnesses)]
        m_index, bound = artin.nilpotency_bound(ring)
        vars_ = ", ".join(ring.variables)
        rels = ", ".join(exprs.format_ring_monomial(r, ring.variables) for r in ring.relations)
        print(f"ring GF(2)[{vars_}]/({rels}): m_index={m_index}, bound={bound}")
        for w in witnesses:
            index = artin.gamma2_nilpotency_index(w)
            oracle_ok = True
            for s in range(min(4, bound + 1) + 1):
                proj = artin.indecomposable_part(artin.gamma2_oracle_expand(w, s))
                if (not any(proj.values())) != (s >= index):
                    oracle_ok = False
                    mismatches += 1
            flag = "" if oracle_ok and index <= bound else "  <-- MISMATCH"
            print(f"  index {index}  {w.format()}{flag}")
    print("oracle agreement:", "clean" if mismatches == 0 else f"{mismatches} mismatches")


if __name__ == "__main__":
    main()
