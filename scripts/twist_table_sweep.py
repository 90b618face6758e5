#!/usr/bin/env python3
"""Sweep twist-coefficient tables over a box and report support statistics.

For every element w in a radius box around the identity, computes the table
of twist coefficients a^u_w(lambda) within a qbar-window and prints, per w,
the number of supporting u, the total coefficient mass, and the extremal
(anchored) weight.  Useful for eyeballing how support grows with the window
and for spotting elements whose tables are unexpectedly sparse.

Usage: python3 scripts/twist_table_sweep.py --type A --rank 2 --lam 1,1
"""

import argparse

from silc.pieri import compute_pieri
from silc.rootdata import root_datum
from silc.semiinf import si_order


def run(kind, rank, lam, radius, q_hi):
    datum = root_datum(kind, rank)
    so = si_order(datum)
    wg = so.wg
    box = so.box(wg.identity, radius)
    print(f"{kind}{rank} lam={lam} window=(0,{q_hi}): {len(box)} elements")
    print(f"{'w':>14} {'#support':>8} {'mass':>6}  anchored a^w_w")
    for w in box:
        table = compute_pieri(datum, w, lam, (0, q_hi))
        mass = sum(a.total() for _, a in table.coeffs)
        base = table.coefficient(w)
        print(f"{wg.format(w):>14} {len(table.support()):>8} {mass:>6}  "
              f"{sorted(base.terms)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--type", dest="kind", default="A")
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--lam", default="1,1",
                        help="comma-separated fundamental-weight coordinates")
    parser.add_argument("--radius", type=int, default=1)
    parser.add_argument("--q-hi", type=int, default=2)
    args = parser.parse_args()
    lam = tuple(int(t) for t in args.lam.split(","))
    run(args.kind, args.rank, lam, args.radius, args.q_hi)


if __name__ == "__main__":
    main()
