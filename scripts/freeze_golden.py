#!/usr/bin/env python3
"""Freeze golden values of the bundled presets fig1..fig8.

Usage: python scripts/freeze_golden.py [OUT_JSON]

Writes tests/golden/presets.json (or OUT_JSON):

- `figures`: the spectrum presets fig3..fig8. Every 10th point (x, n_out)
  of each curve, plus the curve's `failures` and `validity.*` metadata.
- `tables`: the table presets fig1 (worldlines) and fig2 (drive
  coefficients). Every `TABLE_STEP[figure]`-th row of each trajectory's
  numeric columns, plus the file's metadata.

tests/test_golden.py compares the current code against that file. Rerun
this only when the outputs are meant to change.
"""

import json
import sys
import tempfile
from pathlib import Path

from mirror_dce.experiments import read_spectrum_datasets, read_table, reproduce

FIGURES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
TABLE_STEP = {"fig1": 10, "fig2": 1}
STEP = 10
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "tests" / "golden" / "presets.json"


def _kept_metadata(meta: dict) -> dict:
    return {k: v for k, v in meta.items() if k == "failures" or k.startswith("validity.")}


def _spectrum_file(path: Path) -> dict:
    return {
        f"{ds.metadata['trajectory']}@{ds.metadata['temperature']}": {
            "x": ds.x[::STEP].tolist(),
            "n_out": ds.n_out[::STEP].tolist(),
            "metadata": _kept_metadata(ds.metadata),
        }
        for ds in read_spectrum_datasets(path)
    }


def _table_file(path: Path, step: int) -> dict:
    meta, columns = read_table(path)
    kinds = columns.pop("trajectory")
    rows: dict[str, dict[str, list]] = {}
    for kind in dict.fromkeys(kinds):
        picks = [i for i, k in enumerate(kinds) if k == kind][::step]
        rows[kind] = {name: [col[i] for i in picks] for name, col in columns.items()}
    return {"metadata": meta, "rows": rows}


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUT
    golden = {"step": STEP, "figures": {}, "table_step": TABLE_STEP, "tables": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for figure in FIGURES:
            golden["figures"][figure] = {
                path.name: _spectrum_file(path) for path in reproduce(figure, Path(tmp))
            }
        for figure, step in TABLE_STEP.items():
            golden["tables"][figure] = {
                path.name: _table_file(path, step) for path in reproduce(figure, Path(tmp))
            }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
