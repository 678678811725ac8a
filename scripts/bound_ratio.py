#!/usr/bin/env python3
"""How tight is the class-count bound?

The bound (p-1)(|C_p| + 2k) is exactly twice the brute-force class count
for every p = 1 (mod 4) up to 100 (asserted in the tests); this sweep
prints the ratio per prime.
"""

import argparse

from residuum.fp import make_context, primes_up_to
from residuum.residue import consecutive_triples, count_bound, enumerate_all, generated_classes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-p", type=int, default=100, help="largest prime to enumerate")
    args = ap.parse_args()

    print(f"{'p':>5}  {'|C_p|':>5}  {'oracle':>7}  {'bound':>7}  {'ratio':>6}  orbits==oracle")
    for p in primes_up_to(args.max_p):
        if p % 4 != 1:
            continue
        ctx = make_context(p)
        oracle = enumerate_all(ctx, max_p=args.max_p)
        bound = count_bound(ctx)
        match = generated_classes(ctx) == oracle
        print(
            f"{p:>5}  {len(consecutive_triples(ctx)):>5}  {len(oracle):>7}  "
            f"{bound:>7}  {len(oracle) / bound:>6.3f}  {match}"
        )


if __name__ == "__main__":
    main()
