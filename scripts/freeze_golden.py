#!/usr/bin/env python3
"""Freeze golden values of the bundled presets fig1..fig8, or of the CLI
drive exports.

Usage: python scripts/freeze_golden.py [--check | --only FIGURE] {presets,cli} [OUT_JSON]

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

A presets freeze records, per figure under `frozen_from`, the commit of
`src/` it froze from, so it refuses while `src/` differs from HEAD.
`--only FIGURE` refreezes that one figure's section and keeps the others.

`--check` writes nothing. It computes the section afresh and prints, for each
curve or table, the largest |delta| / (RTOL |golden| + floor) against the
golden file (or OUT_JSON), with the tolerances of tests/test_golden.py; a
difference that test compares exactly (shapes, NaN positions, texts, the
spectrum grids and metadata) reads inf. It exits 1 when any ratio exceeds 1.
"""

import argparse
import contextlib
import io
import json
import math
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from mirror_dce.cli import main as cli_main
from mirror_dce.experiments import read_spectrum_datasets, read_table, reproduce

FIGURES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
TABLE_STEP = {"fig1": 10, "fig2": 1}
STEP = 10
ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

# The tolerances of tests/test_golden.py (which checks that they match): rtol,
# and an absolute floor of FLOOR_OF_PEAK times a peak (a curve's, a column's,
# or that of FLOOR_COLUMN for a figure's table).
RTOL = 1e-12
FLOOR_OF_PEAK = 1e-12
FLOOR_COLUMN = {"fig2": "magnitude"}

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


def _section(figure: str, tmp: Path) -> tuple[str, dict]:
    """("figures" or "tables", the figure's golden entry)."""
    if figure in TABLE_STEP:
        step = TABLE_STEP[figure]
        return "tables", {path.name: _table_file(path, step) for path in reproduce(figure, tmp)}
    return "figures", {path.name: _spectrum_file(path) for path in reproduce(figure, tmp)}


def _presets(tmp: Path) -> dict:
    golden = {"step": STEP, "figures": {}, "table_step": TABLE_STEP, "tables": {}}
    for figure in (*FIGURES, *TABLE_STEP):
        part, entry = _section(figure, tmp)
        golden[part][figure] = entry
    return golden


def _source_commit() -> str:
    """The commit `src/` is checked out at; SystemExit if it differs."""
    git = lambda *args: subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    if git("status", "--porcelain", "--", "src"):
        raise SystemExit("src/ differs from HEAD: commit it before freezing a section")
    return git("rev-parse", "HEAD")


def _ratio(got, want, floor: float = 0.0, rtol: float = RTOL) -> float:
    """Largest |got - want| / (rtol |want| + floor) over the non-NaN entries;
    inf where shapes, NaN positions or texts differ."""
    try:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    except ValueError:  # texts
        return 0.0 if got == want else math.inf
    if got.shape != want.shape or np.any(np.isnan(got) != np.isnan(want)):
        return math.inf
    keep = ~np.isnan(want)
    delta, limit = np.abs(got - want)[keep], (rtol * np.abs(want) + floor)[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(delta == 0.0, 0.0, delta / limit), initial=0.0))


def _peak(values) -> float:
    return float(np.max(np.abs(np.asarray(values, dtype=float))))


def _dict_ratio(got: dict, want: dict, floor=lambda key: 0.0, rtol: float = RTOL) -> float:
    """`_ratio` per key of want, floored at floor(key); inf if the keys differ."""
    if sorted(got) != sorted(want):
        return math.inf
    return max((_ratio(got[k], ref, floor(k), rtol) for k, ref in want.items()), default=0.0)


def _curve_ratio(path, got: dict, want: dict) -> float:
    ref = np.asarray(want["n_out"], dtype=float)
    peak = float(np.nanmax(np.abs(ref))) if np.any(np.isfinite(ref)) else 0.0
    return max(
        _ratio(got["x"], want["x"], rtol=0.0),
        _ratio(got["n_out"], ref, FLOOR_OF_PEAK * peak),
        _dict_ratio(got["metadata"], want["metadata"], rtol=0.0),
    )


def _table_ratio(path, got: dict, want: dict) -> float:
    if list(got["rows"]) != list(want["rows"]):
        return math.inf
    ratio = _dict_ratio(got["metadata"], want["metadata"])
    floor_column = FLOOR_COLUMN.get(path[0])
    for kind, columns in want["rows"].items():
        floor = lambda name: FLOOR_OF_PEAK * _peak(columns[floor_column or name])
        ratio = max(ratio, _dict_ratio(got["rows"][kind], columns, floor))
    return ratio


def _output_ratio(path, got: dict, want: dict) -> float:
    columns = want["columns"]
    floor = FLOOR_OF_PEAK * _peak(columns["magnitude"]) if want["argv"][0] == "drive" else 0.0
    return max(
        _dict_ratio(got["metadata"], want["metadata"]),
        _dict_ratio(got["columns"], columns, lambda name: floor),
    )


def _leaves(got, want, depth: int, path: tuple = ()):
    """(path, got, want) for every entry `depth` dict levels down; None
    stands in for an entry that one side lacks."""
    if depth == 0 or got is None or want is None:
        yield path, got, want
        return
    for key in dict.fromkeys([*want, *got]):
        yield from _leaves(got.get(key), want.get(key), depth - 1, path + (key,))


def check(section: str, fresh: dict, golden: dict) -> int:
    """Print each curve's or table's largest ratio; 1 if any exceeds 1."""
    if section == "cli":
        parts = [(fresh["outputs"], golden["outputs"], 1, _output_ratio)]
    else:
        parts = [
            (fresh["figures"], golden["figures"], 3, _curve_ratio),
            (fresh["tables"], golden["tables"], 2, _table_ratio),
        ]
    worst = 0.0
    for got_tree, want_tree, depth, ratio_of in parts:
        for path, got, want in _leaves(got_tree, want_tree, depth):
            ratio = math.inf if got is None or want is None else ratio_of(path, got, want)
            worst = max(worst, ratio)
            print(f"{' '.join(path)}  {ratio:.3g}")
    print(f"worst {worst:.3g} (fails above 1)")
    return 1 if worst > 1.0 else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Freeze golden values (only on purpose).")
    parser.add_argument("section", choices=("presets", "cli"))
    parser.add_argument("out", nargs="?", type=Path, help="output JSON (or, with --check, input)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true", help="compare against the golden file; write nothing"
    )
    mode.add_argument(
        "--only", choices=(*FIGURES, *TABLE_STEP), metavar="FIGURE",
        help="presets: refreeze this figure alone and record the commit of src/",
    )
    args = parser.parse_args(argv)
    if args.only and args.section != "presets":
        parser.error("--only applies to the presets section")
    out = args.out or GOLDEN_DIR / f"{args.section}.json"
    commit = _source_commit() if args.section == "presets" and not args.check else None
    with tempfile.TemporaryDirectory() as tmp:
        if args.only:
            golden = json.loads(out.read_text(encoding="utf-8"))
            part, golden[part][args.only] = _section(args.only, Path(tmp))
            golden.setdefault("frozen_from", {})[args.only] = commit
        else:
            golden = (_presets if args.section == "presets" else _cli)(Path(tmp))
            if commit:
                golden["frozen_from"] = dict.fromkeys((*FIGURES, *TABLE_STEP), commit)
    if args.check:
        return check(args.section, golden, json.loads(out.read_text(encoding="utf-8")))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
