#!/usr/bin/env python3
"""Which small three-square progressions reach which primes?

For every 1 (mod 4) prime up to a bound, print its coverage status; for the
primes neither residue criterion reaches, sweep small congruum parameters
and list the progressions that happen to map in. The sweep is exploratory:
a match says nothing beyond the individual prime.
"""

import argparse
from collections import Counter

from residuum.congrua import Coverage, coverage_status, sweep_congrua
from residuum.fp import make_context, primes_up_to


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-p", type=int, default=500)
    ap.add_argument("--max-m", type=int, default=12, help="largest m for the sweep")
    args = ap.parse_args()

    tally: Counter = Counter()
    uncovered = []
    for p in primes_up_to(args.max_p):
        if p % 4 != 1:
            continue
        status = coverage_status(p)
        tally[status.value] += 1
        if status is Coverage.UNCOVERED_BUT_NONEMPTY:
            uncovered.append(p)

    print("status counts:")
    for name, count in sorted(tally.items()):
        print(f"  {name:>24}: {count}")

    print(f"\nuncovered primes and the progressions that reach them (m <= {args.max_m}):")
    param_hits: Counter = Counter()
    for p in uncovered:
        found = sweep_congrua(make_context(p), m_max=args.max_m)
        names = " ".join(f"({m},{n})" for m, n, _ in found) or "(none)"
        print(f"  p={p:>4}: {names}")
        for m, n, _ in found:
            param_hits[(m, n)] += 1

    if param_hits:
        print("\nmost broadly useful parameters across the uncovered primes:")
        for (m, n), count in param_hits.most_common(8):
            print(f"  (m={m}, n={n}) reaches {count} of {len(uncovered)}")


if __name__ == "__main__":
    main()
