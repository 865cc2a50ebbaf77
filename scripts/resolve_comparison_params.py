#!/usr/bin/env python3
"""Resolve the operating point (A, omega_d, bias) for each worldline kind at
a target average proper acceleration.

Usage: python scripts/resolve_comparison_params.py [ABAR_TARGET]
(default target 2e19 m/s^2)
"""

import math
import sys

from mirror_dce.circuit import CircuitParams
from mirror_dce.experiments import select_parameters
from mirror_dce.trajectories import TrajectoryKind


def main() -> int:
    target = float(sys.argv[1]) if len(sys.argv) > 1 else 20e18
    c = CircuitParams()
    rows = []
    for kind in (TrajectoryKind.SA, TrajectoryKind.AUA, TrajectoryKind.SM):
        sel = select_parameters(kind, target, c)
        rows.append(
            (
                kind.value,
                f"{sel.A:.5g}",
                f"{sel.omega_d / (2e9 * math.pi):.4g}",
                f"{sel.ejo_ratio:.4g}",
                f"{sel.L_eff0 * 1e3:.4g}",
                "-" if sel.R is None else f"{sel.R * 1e3:.4g}",
            )
        )
    print(f"target abar = {target:.4g} m/s^2")
    header = ("kind", "A [m/s^2]", "fd [GHz]", "E_J0/E_J", "L_eff0 [mm]", "R [mm]")
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
