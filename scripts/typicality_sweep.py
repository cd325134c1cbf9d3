#!/usr/bin/env python3
"""Sweep the environment dimension and watch the reduced state concentrate.

For each dim_o the script samples random shell states, reduces to the system,
and reports the L1 distance of the per-level diagonal from the shell-counting
weights plus the off-diagonal RMS. Both should fall like 1/sqrt(dim_o).

Run:
    python3 scripts/typicality_sweep.py --dim-b 4 --seeds 50
"""

import argparse
import json
import math

from bhspectra import concentration, lab_ledger


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim-b", type=int, default=4)
    ap.add_argument("--dim-o-start", type=int, default=256)
    ap.add_argument("--steps", type=int, default=5, help="powers of 4 to sweep")
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional JSON output path")
    args = ap.parse_args()

    rows = []
    print(f"{'dim_o':>9} {'L1(diag, weights)':>18} {'offdiag RMS':>12} {'RMS * sqrt(dim_o)':>18}")
    for step in range(args.steps):
        dim_o = args.dim_o_start * 4**step
        l1, rms, _ = concentration(lab_ledger(args.dim_b, dim_o), args.seeds, args.seed)
        row = {"dim_o": dim_o, "l1_mean": l1, "offdiag_rms": rms,
               "rms_scaled": rms * math.sqrt(dim_o)}
        rows.append(row)
        print(
            f"{dim_o:>9} {row['l1_mean']:>18.5f} {row['offdiag_rms']:>12.2e} "
            f"{row['rms_scaled']:>18.4f}"
        )

    print("\nscaled RMS should be flat: the off-diagonals die like 1/sqrt(dim_o).")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(rows, f, indent=2)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
