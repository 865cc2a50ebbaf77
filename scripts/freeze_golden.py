#!/usr/bin/env python3
"""Freeze golden values of the sweep presets fig5, fig6 and fig8.

Usage: python scripts/freeze_golden.py [OUT_JSON]

Writes every 10th point (x, n_out) of each curve, plus the curve's
`failures` and `validity.*` metadata, to tests/golden/presets.json (or
OUT_JSON). tests/test_golden.py compares the current code against that
file. Rerun this only when the outputs are meant to change.
"""

import json
import sys
import tempfile
from pathlib import Path

from mirror_dce.experiments import read_spectrum_datasets, reproduce

FIGURES = ("fig5", "fig6", "fig8")
STEP = 10
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "tests" / "golden" / "presets.json"


def _kept_metadata(meta: dict) -> dict:
    return {k: v for k, v in meta.items() if k == "failures" or k.startswith("validity.")}


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUT
    golden = {"step": STEP, "figures": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for figure in FIGURES:
            files = {}
            for path in reproduce(figure, Path(tmp)):
                files[path.name] = {
                    f"{ds.metadata['trajectory']}@{ds.metadata['temperature']}": {
                        "x": ds.x[::STEP].tolist(),
                        "n_out": ds.n_out[::STEP].tolist(),
                        "metadata": _kept_metadata(ds.metadata),
                    }
                    for ds in read_spectrum_datasets(path)
                }
            golden["figures"][figure] = files
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
