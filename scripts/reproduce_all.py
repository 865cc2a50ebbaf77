#!/usr/bin/env python3
"""Regenerate every bundled figure dataset (fig1..fig8) into one directory.

Prints the package's import time first, then each figure's time; the total
counts both.

Usage: python scripts/reproduce_all.py [OUT_DIR]
"""

import sys
import time
from pathlib import Path


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("datasets")
    t0 = time.perf_counter()
    from mirror_dce.experiments import FIGURE_ALIASES, reproduce

    print(f"import mirror_dce.experiments: {time.perf_counter() - t0:.2f} s")
    for figure in FIGURE_ALIASES:
        t1 = time.perf_counter()
        paths = reproduce(figure, out_dir)
        names = ", ".join(p.name for p in paths)
        print(f"{figure}: {names}  ({time.perf_counter() - t1:.3f} s)")
    print(f"done in {time.perf_counter() - t0:.2f} s -> {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
