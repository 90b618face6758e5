#!/usr/bin/env python3
"""Tabulate section-space dimensions on SL2 quasi-map spaces.

For each degree d the space is a projective space P^{2d+1}, so the m-twist
must have C(2d+1+m, m) sections; the table prints both numbers side by side
as a quick end-to-end sanity sweep of the Pieri/section pipeline, and exits 1
if any row says MISMATCH.

Usage: python3 scripts/section_growth.py [--max-degree D] [--max-twist M]
"""

import argparse
import math
import sys
import time

from silc.pieri import h0_dimension
from silc.rootdata import root_datum
from silc.weylgroup import weyl_group


def run(max_degree, max_twist):
    datum = root_datum("A", 1)
    wg = weyl_group(datum)
    e = wg.identity
    print(f"{'d':>3} {'m':>3} {'h0':>8} {'binomial':>8}  status")
    start = time.monotonic()
    ok = True
    for d in range(1, max_degree + 1):
        v = wg.element([1], (d,))
        for m in range(1, max_twist + 1):
            got = h0_dimension(datum, v, e, (m,))
            want = math.comb(2 * d + 1 + m, m)
            ok = ok and got == want
            status = "ok" if got == want else "MISMATCH"
            print(f"{d:>3} {m:>3} {got:>8} {want:>8}  {status}")
    print(f"total {time.monotonic() - start:.2f}s")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-degree", type=int, default=3)
    parser.add_argument("--max-twist", type=int, default=4)
    args = parser.parse_args()
    if not run(args.max_degree, args.max_twist):
        sys.exit(1)


if __name__ == "__main__":
    main()
