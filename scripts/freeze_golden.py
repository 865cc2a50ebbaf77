#!/usr/bin/env python3
"""Freeze golden values of the bundled presets fig1..fig8, or of the CLI
drive exports.

Usage: python scripts/freeze_golden.py {presets,cli} [OUT_JSON]

`presets` writes tests/golden/presets.json (or OUT_JSON):

- `figures`: the spectrum presets fig3..fig8. Every 10th point (x, n_out)
  of each curve, plus the curve's `failures` and `validity.*` metadata.
- `tables`: the table presets fig1 (worldlines) and fig2 (drive
  coefficients). Every `TABLE_STEP[figure]`-th row of each trajectory's
  numeric columns, plus the file's metadata.

`cli` writes tests/golden/cli.json (or OUT_JSON): for each trajectory kind
at the baseline point (9.054e17 m/s^2, 18 GHz, bias pinned by `CONFIG`),
the `drive --nmax 6` and `flux --points 64 --periods 2` outputs in full.
Each entry keeps its argv, with `{config}` and `{out}` for the two paths,
so the test replays the same command.

tests/test_golden.py compares the current code against that file. Rerun
this only when the outputs are meant to change.
"""

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from mirror_dce.cli import main as cli_main
from mirror_dce.experiments import read_spectrum_datasets, read_table, reproduce

FIGURES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
TABLE_STEP = {"fig1": 10, "fig2": 1}
STEP = 10
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

# The cli section: one config, one point, and per command the flags that
# follow the kind.
CONFIG = "[circuit]\nej0_ratio = 1.3\n"
POINT = ["--abar", "9.054e17", "--fd", "18e9"]
CLI_COMMANDS = {"drive": ["--nmax", "6"], "flux": ["--points", "64", "--periods", "2"]}
KINDS = ("sm", "sa", "aua")


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


def read_cli_output(command: str, path: Path) -> tuple[dict, dict]:
    """(metadata, columns) of a `drive` table or a bare `t,phi_ext` flux CSV."""
    if command == "drive":
        return read_table(path)
    names = path.read_text(encoding="utf-8").splitlines()[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {}, {name: data[:, i].tolist() for i, name in enumerate(names)}


def run_cli(argv: list[str], config: Path, out: Path) -> None:
    """Run one CLI command with the `{config}` and `{out}` slots filled."""
    filled = [str(config) if a == "{config}" else str(out) if a == "{out}" else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(filled)
    if rc != 0:
        raise RuntimeError(f"mirror-dce {' '.join(filled)} exited {rc}")


def _cli(tmp: Path) -> dict:
    config = tmp / "bias.ini"
    config.write_text(CONFIG, encoding="utf-8")
    golden = {"config": CONFIG, "outputs": {}}
    for command, flags in CLI_COMMANDS.items():
        for kind in KINDS:
            argv = [command, "--config", "{config}", "--kind", kind, *POINT, *flags,
                    "--out", "{out}"]
            out = tmp / f"{command}_{kind}.csv"
            run_cli(argv, config, out)
            meta, columns = read_cli_output(command, out)
            golden["outputs"][f"{command}_{kind}"] = {
                "argv": argv, "metadata": meta, "columns": columns,
            }
    return golden


def _presets(tmp: Path) -> dict:
    golden = {"step": STEP, "figures": {}, "table_step": TABLE_STEP, "tables": {}}
    for figure in FIGURES:
        golden["figures"][figure] = {
            path.name: _spectrum_file(path) for path in reproduce(figure, tmp)
        }
    for figure, step in TABLE_STEP.items():
        golden["tables"][figure] = {
            path.name: _table_file(path, step) for path in reproduce(figure, tmp)
        }
    return golden


def main() -> int:
    parser = argparse.ArgumentParser(description="Freeze golden values (only on purpose).")
    parser.add_argument("section", choices=("presets", "cli"))
    parser.add_argument("out", nargs="?", type=Path, help="output JSON")
    args = parser.parse_args()
    out = args.out or GOLDEN_DIR / f"{args.section}.json"
    with tempfile.TemporaryDirectory() as tmp:
        golden = (_presets if args.section == "presets" else _cli)(Path(tmp))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
