"""Correctness checks on the outputs of one pass.

Every output is checked for:

- a lossless read-back: the rows the reader returns, written again at 17
  significant digits, equal the data lines of the file;
- sane values: spectrum points are NaN exactly where the dataset's
  ``failures`` metadata lists a per-point failure, and finite and >= 0
  everywhere else; every other column is finite;
- at the default seed (and for ``presets`` at every seed, its inputs being
  fixed), agreement with the frozen reference values in ``reference/``:
  finite values at rtol 1e-12 with an absolute floor of 1e-12 times the
  series' peak (values below that are round-off of the Fourier synthesis,
  which an rfft or a batched refactor changes), NaN positions and per-point
  failure exception classes exactly.

A problem counts against the rows it touches; the counts feed ``ok_frac``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from itertools import zip_longest
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RTOL = 1e-12
ATOL_OF_PEAK = 1e-12
SAMPLES_PER_SERIES = 64
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0

# "<index>:<ExceptionClass>: message" entries, '|'-joined; messages may
# themselves contain '|' (e.g. "|c_n|/a0"), so match entry starts only.
_FAILURE = re.compile(r"(?:^|\|)(\d+|validity):([A-Za-z_][A-Za-z0-9_]*): ")


@dataclass
class CheckResult:
    rows: int = 0          # result rows produced
    nan_rows: int = 0      # points the program rejected (NaN in a spectrum)
    bad_rows: int = 0      # rows that failed a check
    problems: list[str] = field(default_factory=list)

    def add(self, other: "CheckResult") -> None:
        self.rows += other.rows
        self.nan_rows += other.nan_rows
        self.bad_rows += other.bad_rows
        self.problems.extend(other.problems)

    def fail(self, rows: int, message: str) -> None:
        self.bad_rows += rows
        if len(self.problems) < 50:
            self.problems.append(message)


def parse_failures(text: str) -> dict[str, str]:
    """{point index or "validity": exception class} of a failures entry."""
    return {m.group(1): m.group(2) for m in _FAILURE.finditer(text or "")}


def curves(output) -> dict[str, dict]:
    """{curve name: {"series": {column: array}, "failures": {...}}} of one
    parsed output. Spectrum curves carry their per-point failures."""
    out: dict[str, dict] = {}
    if output.kind == "spectrum":
        for ds in output.parsed:
            name = f"{output.name}|{ds.metadata['trajectory']}@{ds.metadata['temperature']}"
            out[name] = {
                "series": {"x": ds.x, "n_out": ds.n_out},
                "failures": parse_failures(ds.metadata.get("failures", "")),
            }
    elif output.kind == "table":
        _, columns = output.parsed
        numeric = [c for c in columns if c != "trajectory"]
        groups = columns.get("trajectory")
        labels = sorted(set(groups)) if groups is not None else [None]
        for label in labels:
            pick = (
                slice(None) if label is None
                else np.array([g == label for g in groups], dtype=bool)
            )
            name = output.name if label is None else f"{output.name}|{label}"
            out[name] = {
                "series": {c: np.asarray(columns[c], dtype=float)[pick] for c in numeric},
                "failures": {},
            }
    else:  # flux
        t, phi = output.parsed
        out[output.name] = {
            "series": {"t": np.asarray(t), "phi_ext": np.asarray(phi)},
            "failures": {},
        }
    return out


def _data_lines(path: Path, kind: str):
    """Data lines of an output file, without metadata and column header."""
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for raw in fh:
            line = raw.rstrip("\n")
            if kind != "flux" and (not line or line.startswith("# ")):
                continue
            if not header_seen:
                header_seen = True
                continue
            yield line


def _rewritten_lines(output):
    """The parsed rows, written again as the program writes them."""
    if output.kind == "spectrum":
        for ds in output.parsed:
            tail = f"{ds.metadata['trajectory']},{ds.metadata['temperature']}"
            for x, n in zip(ds.x, ds.n_out):
                yield f"{x:.17g},{n:.17g},{tail}"
    elif output.kind == "table":
        _, columns = output.parsed
        names = list(columns)
        for row in zip(*columns.values()):
            yield ",".join(
                v if name == "trajectory" else f"{v:.17g}" for name, v in zip(names, row)
            )
    else:
        for a, b in zip(*output.parsed):
            yield f"{a:.17g},{b:.17g}"


def _rows(found: dict) -> int:
    return sum(len(next(iter(c["series"].values()))) for c in found.values())


def row_count(output) -> int:
    return _rows(curves(output))


def nan_count(output) -> int:
    """Spectrum points the program rejected (NaN n_out)."""
    return sum(
        int(np.isnan(c["series"]["n_out"]).sum())
        for c in curves(output).values() if "n_out" in c["series"]
    )


def check_output(output, reference: dict | None = None) -> CheckResult:
    """Full check of one output (round trip, values, reference)."""
    res = CheckResult()
    expected = reference["rows"] if reference else 1
    if output.error is not None:
        res.rows = expected
        res.fail(expected, f"{output.name}: {output.error}")
        return res
    found = curves(output)
    res.rows = _rows(found)

    pairs = zip_longest(_data_lines(output.path, output.kind), _rewritten_lines(output))
    differ = sum(a != b for a, b in pairs)
    if differ:
        res.fail(differ, f"{output.name}: {differ} rows do not read back losslessly")

    for name, curve in found.items():
        failed_at = {int(k) for k in curve["failures"] if k != "validity"}
        for column, values in curve["series"].items():
            nan = np.isnan(values)
            if column == "n_out":
                res.nan_rows += int(nan.sum())
                mask = np.zeros(values.shape, dtype=bool)
                mask[[i for i in failed_at if i < values.size]] = True
                wrong = int(np.sum(nan != mask))
                if wrong:
                    res.fail(wrong, f"{name}: NaN points differ from the listed failures at {wrong} points")
                negative = int(np.sum(values[~nan] < 0.0))
                if negative:
                    res.fail(negative, f"{name}: {negative} negative photon numbers")
            elif not np.all(np.isfinite(values)):
                res.fail(int(np.sum(~np.isfinite(values))), f"{name}: non-finite {column}")

    if reference is not None:
        res.add(_against_reference(output.name, found, reference))
    res.bad_rows = min(res.bad_rows, res.rows)
    return res


def _against_reference(output_name: str, found: dict, reference: dict) -> CheckResult:
    res = CheckResult()
    if set(found) != set(reference["curves"]):
        res.fail(reference["rows"], f"{output_name}: curves {sorted(found)} "
                 f"differ from the reference {sorted(reference['curves'])}")
        return res
    for name, ref in reference["curves"].items():
        curve = found[name]
        if curve["failures"] != ref["failures"]:
            res.fail(max(1, len(ref["failures"])), f"{name}: failure classes differ from the reference")
        for column, ref_series in ref["series"].items():
            values = curve["series"].get(column)
            if values is None or values.size != ref_series["n"]:
                res.fail(ref_series["n"], f"{name}: {column} has the wrong length")
                continue
            nan_idx = np.flatnonzero(np.isnan(values)).tolist()
            if nan_idx != ref_series["nan"]:
                res.fail(max(1, len(set(nan_idx) ^ set(ref_series["nan"]))),
                         f"{name}: {column} NaN positions differ from the reference")
            atol = ATOL_OF_PEAK * ref_series["peak"]
            bad = 0
            for i, want in zip(ref_series["idx"], ref_series["values"]):
                got = float(values[i])
                if want is None:
                    bad += not math.isnan(got)
                elif not abs(got - want) <= RTOL * abs(want) + atol:
                    bad += 1
            if bad:
                res.fail(bad, f"{name}: {bad} {column} values differ from the reference")
    return res


def reference_of(output) -> dict:
    """Frozen form of one checked output: sampled values of every series,
    its full NaN positions and the per-point failure classes."""
    frozen = {}
    for name, curve in curves(output).items():
        series = {}
        for column, values in curve["series"].items():
            n = int(values.size)
            stride = max(1, math.ceil(n / SAMPLES_PER_SERIES))
            idx = sorted(set(range(0, n, stride)) | {n - 1})
            finite = values[np.isfinite(values)]
            series[column] = {
                "n": n,
                "idx": idx,
                "values": [None if math.isnan(values[i]) else float(values[i]) for i in idx],
                "nan": np.flatnonzero(np.isnan(values)).tolist(),
                "peak": float(np.max(np.abs(finite))) if finite.size else 0.0,
            }
        frozen[name] = {"series": series, "failures": curve["failures"]}
    return {"rows": row_count(output), "curves": frozen}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> dict | None:
    """The frozen outputs that apply to this run, or None: for presets at
    any seed (its inputs are fixed), for the other workloads at the default
    seed. Inputs generated with the program's help (realizability edges,
    normalized bias) may move in the last bits; the value tolerance
    absorbs that, so they are not compared exactly."""
    path = reference_path(workload)
    if not path.exists() or (workload != "presets" and seed != DEFAULT_SEED):
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def check_pass(outputs, reference: dict | None) -> CheckResult:
    """Full check of every output of a pass."""
    total = CheckResult()
    frozen = reference["outputs"] if reference else {}
    for o in outputs:
        res = check_output(o, frozen.get(o.name))
        if reference is not None and o.name not in frozen:
            res.fail(res.rows, f"{o.name}: not in the reference")
        total.add(res)
    for name in sorted(set(frozen) - {o.name for o in outputs}):
        total.rows += frozen[name]["rows"]
        total.fail(frozen[name]["rows"], f"{name}: missing output")
    return total


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
