"""Golden values of the bundled presets fig1..fig8.

tests/golden/presets.json was frozen by scripts/freeze_golden.py before the
sweep pipeline was restructured, and its fig2 section again since, from the
commit its `frozen_from` entry names. It holds every 10th point of each
spectrum curve (fig3..fig8) plus its `failures` and `validity.*` metadata,
and sampled rows plus the metadata of the table presets fig1 and fig2.
Values must agree at rtol 1e-12, with an absolute floor of 1e-12 times a
peak (round-off of the Fourier synthesis sits below it): the curve's peak
for spectra, the column's peak for fig1, and the largest |c_n| of the
trajectory kind for the fig2 coefficients, whose zero-by-symmetry entries
are pure round-off. fig2 is also pinned to its section bit for bit, and
checked against the benchmark's reference by the benchmark's criterion.

tests/golden/cli.json holds the `drive` and `flux` CLI outputs of each
trajectory kind at the baseline point, with the argv that wrote them; the
test replays each command and compares at the same tolerances (drive
coefficients floored at 1e-12 times the kind's largest |c_n|).
"""

import importlib.util
import json
import types
from pathlib import Path

import numpy as np
import pytest

from mirror_dce.experiments import read_spectrum_datasets, read_table, reproduce
from test_benchmark_reference import _load as _load_perfbench

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "presets.json").read_text(encoding="utf-8")
)
CLI_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "cli.json").read_text(encoding="utf-8")
)
_spec = importlib.util.spec_from_file_location(
    "freeze_golden", Path(__file__).resolve().parent.parent / "scripts" / "freeze_golden.py"
)
freeze_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze_golden)
RTOL = 1e-12
FLOOR_OF_PEAK = 1e-12
# Table column whose per-kind peak floors every other column (default: the
# column's own peak).
FLOOR_COLUMN = {"fig2": "magnitude"}


@pytest.mark.parametrize("figure", sorted(GOLDEN["figures"]))
def test_sweep_preset_matches_golden(figure, reference_circuit, tmp_path):
    step = GOLDEN["step"]
    expected_files = GOLDEN["figures"][figure]
    paths = reproduce(figure, tmp_path, reference_circuit)
    assert sorted(p.name for p in paths) == sorted(expected_files)
    for path in paths:
        expected = expected_files[path.name]
        curves = {
            f"{ds.metadata['trajectory']}@{ds.metadata['temperature']}": ds
            for ds in read_spectrum_datasets(path)
        }
        assert sorted(curves) == sorted(expected)
        for cid, ds in curves.items():
            want = expected[cid]
            np.testing.assert_array_equal(ds.x[::step], want["x"])
            ref = np.asarray(want["n_out"], dtype=float)
            np.testing.assert_array_equal(np.isnan(ds.n_out[::step]), np.isnan(ref))
            peak = float(np.nanmax(np.abs(ref))) if np.any(np.isfinite(ref)) else 0.0
            np.testing.assert_allclose(
                ds.n_out[::step], ref, rtol=RTOL, atol=FLOOR_OF_PEAK * peak,
                err_msg=f"{path.name} {cid}",
            )
            kept = {
                k: v for k, v in ds.metadata.items()
                if k == "failures" or k.startswith("validity.")
            }
            assert kept == want["metadata"], f"{path.name} {cid}"


def _assert_metadata_close(got: dict, want: dict, where: str):
    assert sorted(got) == sorted(want), where
    for key, value in want.items():
        try:
            ref = float(value)
        except ValueError:
            assert got[key] == value, f"{where} {key}"
            continue
        np.testing.assert_allclose(float(got[key]), ref, rtol=RTOL, err_msg=f"{where} {key}")


@pytest.mark.parametrize("figure", sorted(GOLDEN["tables"]))
def test_table_preset_matches_golden(figure, reference_circuit, tmp_path):
    step = GOLDEN["table_step"][figure]
    expected_files = GOLDEN["tables"][figure]
    paths = reproduce(figure, tmp_path, reference_circuit)
    assert sorted(p.name for p in paths) == sorted(expected_files)
    for path in paths:
        expected = expected_files[path.name]
        meta, columns = read_table(path)
        _assert_metadata_close(meta, expected["metadata"], path.name)
        kinds = columns.pop("trajectory")
        assert list(dict.fromkeys(kinds)) == list(expected["rows"])
        for kind, want in expected["rows"].items():
            picks = [i for i, k in enumerate(kinds) if k == kind][::step]
            assert sorted(columns) == sorted(want)
            floor_column = FLOOR_COLUMN.get(figure)
            for name, ref in want.items():
                got = np.array([columns[name][i] for i in picks])
                ref = np.asarray(ref, dtype=float)
                peak_of = np.asarray(want[floor_column or name], dtype=float)
                np.testing.assert_allclose(
                    got, ref, rtol=RTOL, atol=FLOOR_OF_PEAK * float(np.max(np.abs(peak_of))),
                    err_msg=f"{path.name} {kind} {name}",
                )


def test_fig2_is_its_golden_section_bit_for_bit(tmp_path):
    # fig2's b_n are ~1e-39 J of round-off, and the AUA rows scale with the
    # bias that the harmonic kernel's z_1 sets: any change to a worldline's
    # A or z_1 moves them. So fig2 is pinned exactly to its golden section,
    # which records the commit it was frozen from.
    assert GOLDEN["frozen_from"]["fig2"]
    (path,) = reproduce("fig2", tmp_path)
    meta, columns = read_table(path)
    (want,) = GOLDEN["tables"]["fig2"].values()
    assert meta == want["metadata"]
    assert meta["A.sa"] == "1.3690497768574747e+19"
    kinds = columns.pop("trajectory")
    assert list(dict.fromkeys(kinds)) == list(want["rows"])
    for kind, rows in want["rows"].items():
        picks = [i for i, k in enumerate(kinds) if k == kind]
        for column, frozen in rows.items():
            assert [columns[column][i] for i in picks] == frozen, f"{kind} {column}"


def test_fig2_meets_the_benchmark_reference(tmp_path):
    # The benchmark checks fig2 against its own frozen values at rtol 1e-12
    # with a floor of 1e-12 times each column's peak; this applies that
    # check, perfbench/check.py's, to fig2 as reproduced here.
    check = _load_perfbench("check")
    reference = check.load_reference("presets", check.DEFAULT_SEED)["outputs"]["fig2_fourier.csv"]
    (path,) = reproduce("fig2", tmp_path)
    output = types.SimpleNamespace(name=path.name, kind="table", parsed=read_table(path))
    res = check._against_reference(path.name, check.curves(output), reference)
    assert res.bad_rows == 0, res.problems
    assert all("b_n" in curve["series"] for curve in reference["curves"].values())


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN["outputs"]))
def test_cli_output_matches_golden(name, tmp_path):
    want = CLI_GOLDEN["outputs"][name]
    config = tmp_path / "bias.ini"
    config.write_text(CLI_GOLDEN["config"], encoding="utf-8")
    out = tmp_path / "out.csv"
    command = want["argv"][0]
    freeze_golden.run_cli(want["argv"], config, out)
    meta, columns = freeze_golden.read_cli_output(command, out)
    _assert_metadata_close(meta, want["metadata"], name)
    assert sorted(columns) == sorted(want["columns"]), name
    peak = float(np.max(np.abs(want["columns"]["magnitude"]))) if command == "drive" else 0.0
    for column, ref in want["columns"].items():
        if column == "trajectory":
            assert columns[column] == ref, name
            continue
        np.testing.assert_allclose(
            columns[column], ref, rtol=RTOL, atol=FLOOR_OF_PEAK * peak,
            err_msg=f"{name} {column}",
        )


def test_check_cli_passes_and_writes_nothing(capsys):
    # --check judges with this file's tolerances.
    assert (freeze_golden.RTOL, freeze_golden.FLOOR_OF_PEAK, freeze_golden.FLOOR_COLUMN) == (
        RTOL, FLOOR_OF_PEAK, FLOOR_COLUMN
    )
    golden_dir = Path(__file__).parent / "golden"
    before = {path.name: path.read_bytes() for path in golden_dir.iterdir()}
    assert freeze_golden.main(["--check", "cli"]) == 0
    report = capsys.readouterr().out.splitlines()
    assert sorted(line.split()[0] for line in report[:-1]) == sorted(CLI_GOLDEN["outputs"])
    assert report[-1].startswith("worst ")
    assert {path.name: path.read_bytes() for path in golden_dir.iterdir()} == before
