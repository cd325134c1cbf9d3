#!/usr/bin/env python3
"""Scan masses and quantify how far the emission spectrum sits from thermal.

For each mass the script builds the entropy-difference spectrum and the
Boltzmann baseline once, raw, on the same grid, and prints the comparison
metrics of the raw pair and of its unit-sum copies (spectrum.unit_sum). The
max log-ratio over omega <= omega_max is exactly 4 pi omega_max^2 for an
uncorrected hole, independent of M, while the KL divergence (probability
semantics) fades as the grid narrows relative to the thermal scale 1/(8 pi M).

Run:
    python3 scripts/nonthermal_scan.py --masses 0.5 1 2 5 10 --bins 256
"""

import argparse
import math

from bhspectra import (
    BlackHoleState,
    Family,
    GridSpec,
    build_spectrum,
    build_thermal_spectrum,
    compare_thermal,
    unit_sum,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--masses", type=float, nargs="+", default=[0.5, 1.0, 2.0, 5.0, 10.0])
    ap.add_argument("--omega-frac", type=float, default=1.0,
                    help="grid reaches omega_frac * M")
    ap.add_argument("--bins", type=int, default=256)
    ap.add_argument("--alpha", type=float, default=0.0)
    args = ap.parse_args()

    print(f"{'M':>8} {'omega_max':>10} {'KL(p||th)':>12} {'max |dlog|':>12} "
          f"{'4 pi w_max^2':>12}")
    for m in args.masses:
        state = BlackHoleState(Family.SCHWARZSCHILD, m, alpha=args.alpha)
        omega_max = args.omega_frac * m
        spec = GridSpec(omega_max=omega_max, n_omega=args.bins)
        nonthermal, thermal = build_spectrum(state, spec), build_thermal_spectrum(state, spec)
        raw = compare_thermal(nonthermal, thermal)
        cmp_unit = compare_thermal(unit_sum(nonthermal), unit_sum(thermal))
        print(
            f"{m:>8.3g} {omega_max:>10.3g} {cmp_unit.kl_divergence:>12.4e} "
            f"{raw.max_abs_log_ratio:>12.4e} {4.0 * math.pi * omega_max**2:>12.4e}"
        )


if __name__ == "__main__":
    main()
