"""Exact text of every `# mirror-dce v1` table writer, on small literal
datasets: the layout, the metadata lines, the cell formats and the file
names. Then the reader's contract on malformed files, bit-exact round trips
and the memory of writing and reading a long table. No physics is
evaluated."""

import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import mirror_dce
from mirror_dce import cli
from mirror_dce.circuit import (
    _BLOCK_ROWS,
    _atomic_write,
    export_flux_waveform,
    trajectory_to_drive,
)
from mirror_dce.experiments import (
    FORMAT_HEADER,
    DriveCoefficientDataset,
    SpectrumDataset,
    WorldlineDataset,
    _text_column,
    _write_table,
    read_spectrum_datasets,
    read_table,
    write_drive_coefficients,
    write_spectrum_datasets,
    write_worldlines,
)
from mirror_dce.trajectories import TrajectoryKind


def _curves():
    sa = SpectrumDataset(
        axis="omega_d",
        x=[1.0, 2.5],
        n_out=[0.1, math.nan],
        metadata={
            "figure": "pin", "axis": "omega_d", "trajectory": "sa",
            "temperature": "0", "n_max": "3", "omega": "7",
            "failures": "1:ValueError: boom",
        },
    )
    aua = SpectrumDataset(
        axis="omega_d",
        x=[1.0, 2.5],
        n_out=[0.0, 3e-20],
        metadata={
            "figure": "pin", "axis": "omega_d", "trajectory": "aua",
            "temperature": "0.025", "n_max": "3", "omega": "7", "abar": "5",
        },
    )
    return [sa, aua]


def test_long_layout_prefixes_per_curve_metadata(tmp_path):
    (path,) = write_spectrum_datasets(_curves(), tmp_path / "long.csv")
    assert path == tmp_path / "long.csv"
    assert path.read_text() == (
        "# mirror-dce v1\n"
        "# figure=pin\n"
        "# axis=omega_d\n"
        "# n_max=3\n"
        "# omega=7\n"
        "# sa@0:trajectory=sa\n"
        "# sa@0:temperature=0\n"
        "# sa@0:failures=1:ValueError: boom\n"
        "# aua@0.025:trajectory=aua\n"
        "# aua@0.025:temperature=0.025\n"
        "# aua@0.025:abar=5\n"
        "x,n_out,trajectory,temperature\n"
        "1,0.10000000000000001,sa,0\n"
        "2.5,nan,sa,0\n"
        "1,0,aua,0.025\n"
        "2.5,3.0000000000000003e-20,aua,0.025\n"
    )


def test_long_layout_keeps_curves_without_points(tmp_path):
    meta = {"figure": "pin", "axis": "abar", "n_max": "3", "omega": "7"}
    sa = SpectrumDataset(
        axis="abar", x=[], n_out=[],
        metadata={**meta, "trajectory": "sa", "temperature": "0"},
    )
    aua = SpectrumDataset(
        axis="abar", x=[2.0], n_out=[0.5],
        metadata={**meta, "trajectory": "aua", "temperature": "0.025"},
    )
    (path,) = write_spectrum_datasets([sa, aua], tmp_path / "long.csv")
    back = read_spectrum_datasets(path)
    assert [ds.metadata for ds in back] == [sa.metadata, aua.metadata]
    assert [ds.x.tolist() for ds in back] == [[], [2.0]]
    assert [ds.n_out.tolist() for ds in back] == [[], [0.5]]
    (alone,) = write_spectrum_datasets([sa], tmp_path / "empty.csv")
    assert [ds.metadata for ds in read_spectrum_datasets(alone)] == [sa.metadata]


def test_split_layout_names_one_file_per_curve(tmp_path):
    paths = write_spectrum_datasets(_curves(), tmp_path / "curves.csv", long_format=False)
    assert paths == [tmp_path / "curves_sa_T0.csv", tmp_path / "curves_aua_T0.025.csv"]
    assert paths[0].read_text() == (
        "# mirror-dce v1\n"
        "# figure=pin\n"
        "# axis=omega_d\n"
        "# trajectory=sa\n"
        "# temperature=0\n"
        "# n_max=3\n"
        "# omega=7\n"
        "# failures=1:ValueError: boom\n"
        "x,n_out\n"
        "1,0.10000000000000001\n"
        "2.5,nan\n"
    )
    assert paths[1].read_text() == (
        "# mirror-dce v1\n"
        "# figure=pin\n"
        "# axis=omega_d\n"
        "# trajectory=aua\n"
        "# temperature=0.025\n"
        "# n_max=3\n"
        "# omega=7\n"
        "# abar=5\n"
        "x,n_out\n"
        "1,0\n"
        "2.5,3.0000000000000003e-20\n"
    )


def test_split_layout_removes_its_files_when_a_later_one_fails(tmp_path):
    (tmp_path / "curves_aua_T0.025.csv").mkdir()  # the second target
    with pytest.raises(OSError):
        write_spectrum_datasets(_curves(), tmp_path / "curves.csv", long_format=False)
    assert [p.name for p in tmp_path.iterdir()] == ["curves_aua_T0.025.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_tables_get_the_mode_open_gives(tmp_path, sm_baseline, reference_circuit, umask):
    # 0o666 less the umask, not the owner-only mode of a temp file
    previous = os.umask(umask)
    try:
        table = _write_table(tmp_path / "t.csv", {}, ("x",), (np.arange(3.0),))
        drive = trajectory_to_drive(sm_baseline, reference_circuit, n_max=3)
        flux = tmp_path / "flux.csv"
        export_flux_waveform(drive, reference_circuit, flux, samples_per_period=8)
    finally:
        os.umask(previous)
    for path in (table, flux):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def test_worldline_table(tmp_path):
    sm, aua = TrajectoryKind.SM, TrajectoryKind.AUA
    ds = WorldlineDataset(
        t=np.array([0.0, 0.5]),
        z={sm: np.array([1e-3, -0.0]), aua: np.array([1.0 / 3.0, 2.0])},
        alpha={sm: np.array([-2e18, math.inf]), aua: np.array([4.0, 4.0])},
        metadata={"kind": "worldlines", "points": "2"},
    )
    path = write_worldlines(ds, tmp_path / "w.csv")
    assert path == tmp_path / "w.csv"
    assert path.read_text() == (
        "# mirror-dce v1\n"
        "# kind=worldlines\n"
        "# points=2\n"
        "t,z,alpha_dir,trajectory\n"
        "0,0.001,-2e+18,sm\n"
        "0.5,-0,inf,sm\n"
        "0,0.33333333333333331,4,aua\n"
        "0.5,2,4,aua\n"
    )


def test_drive_coefficient_table_has_integer_harmonics(tmp_path):
    sa, aua = TrajectoryKind.SA, TrajectoryKind.AUA
    ds = DriveCoefficientDataset(
        n=np.arange(1, 3),
        a={sa: np.array([3.0, 0.0]), aua: np.array([0.1, 1e-39])},
        b={sa: np.array([4.0, -1.0]), aua: np.array([0.0, 0.0])},
        metadata={"kind": "drive_coefficients", "n_max": "2"},
    )
    path = write_drive_coefficients(ds, tmp_path / "c.csv")
    assert path == tmp_path / "c.csv"
    assert path.read_text() == (
        "# mirror-dce v1\n"
        "# kind=drive_coefficients\n"
        "# n_max=2\n"
        "n,a_n,b_n,magnitude,trajectory\n"
        "1,3,4,5,sa\n"
        "2,0,-1,1,sa\n"
        "1,0.10000000000000001,0,0.10000000000000001,aua\n"
        "2,9.9999999999999993e-40,0,9.9999999999999993e-40,aua\n"
    )


def test_zero_row_table(tmp_path):
    sm = TrajectoryKind.SM
    ds = DriveCoefficientDataset(
        n=np.arange(1, 1),
        a={sm: np.zeros(0)},
        b={sm: np.zeros(0)},
        metadata={"kind": "drive_coefficients", "n_max": "0"},
    )
    path = write_drive_coefficients(ds, tmp_path / "empty.csv")
    assert path.read_text() == (
        "# mirror-dce v1\n"
        "# kind=drive_coefficients\n"
        "# n_max=0\n"
        "n,a_n,b_n,magnitude,trajectory\n"
    )
    meta, columns = read_table(path)
    assert meta["n_max"] == "0"
    assert columns == {"n": [], "a_n": [], "b_n": [], "magnitude": [], "trajectory": []}


def test_traj_command_table(tmp_path, monkeypatch):
    # Literal stand-ins for the worldline functions the command samples.
    monkeypatch.setattr(cli, "coordinate_period", lambda p: 1.0)
    monkeypatch.setattr(cli, "average_acceleration", lambda p: 1e18)
    monkeypatch.setattr(cli, "proper_time", lambda p, t: 2.0 * t)
    monkeypatch.setattr(cli, "position", lambda p, t: t - 0.4)
    monkeypatch.setattr(cli, "directional_acceleration", lambda p, t: np.full(t.size, -1.5))
    out = tmp_path / "traj.csv"
    rc = cli.main(
        ["traj", "--kind", "sa", "--A", "2e18", "--fd", "1e9", "--points", "2",
         "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text() == (
        "# mirror-dce v1\n"
        "# kind=worldline\n"
        "# trajectory=sa\n"
        "# A=2e+18\n"
        "# omega_d=6283185307.1795864\n"
        "# v=119916983.2\n"
        "# abar=1e+18\n"
        "# points=2\n"
        "t,tau,z,alpha_dir\n"
        "0,0,-0.40000000000000002,-1.5\n"
        "0.5,1,0.099999999999999978,-1.5\n"
    )


@pytest.mark.parametrize("long_format", [True, False])
def test_no_datasets_rejected(tmp_path, long_format):
    with pytest.raises(ValueError, match="no datasets"):
        write_spectrum_datasets([], tmp_path / "none.csv", long_format=long_format)


@pytest.mark.parametrize("long_format", [True, False])
def test_curves_sharing_an_id_rejected(tmp_path, long_format):
    # One file (or one split file name) could not tell the two curves apart.
    sa, aua = _curves()
    aua.metadata.update(trajectory="sa", temperature="0")
    with pytest.raises(ValueError, match="sa@0"):
        write_spectrum_datasets([sa, aua], tmp_path / "dup.csv", long_format=long_format)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the reader's contract
# ---------------------------------------------------------------------------

_GOOD = (
    f"{FORMAT_HEADER}\n"
    "# kind=worldlines\n"
    "t,z,alpha_dir,trajectory\n"
    "0,1.5,-2,sm\n"
    "0.5,nan,inf,aua\n"
)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(_GOOD.replace(FORMAT_HEADER, "# mirror-dce v2"), id="wrong-first-line"),
        pytest.param(f"{FORMAT_HEADER}\n# kind=worldlines\n", id="no-column-line"),
        pytest.param(_GOOD + "1,2,sm\n", id="short-row"),
        pytest.param(_GOOD + "1,2,3,sm,4\n", id="long-row"),
        pytest.param(_GOOD + "1,2,x3,sm\n", id="non-numeric-cell"),
        pytest.param(_GOOD + "# late=1\n", id="metadata-after-column-line"),
    ],
)
def test_malformed_table_names_the_path(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_table(path)


def test_malformed_spectrum_row_names_the_path(tmp_path):
    (path,) = write_spectrum_datasets(_curves(), tmp_path / "long.csv")
    path.write_text(path.read_text() + "3,abc,sa,0\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_spectrum_datasets(path)


def test_blank_lines_between_rows_are_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text(_GOOD.replace("sm\n", "sm\n\n\n") + "\n")
    meta, columns = read_table(path)
    assert meta == {"kind": "worldlines"}
    assert columns["t"] == [0.0, 0.5]
    assert columns["alpha_dir"] == [-2.0, math.inf]
    assert columns["trajectory"] == ["sm", "aua"]


@pytest.mark.parametrize("long_format", [True, False])
def test_zero_row_table_reads_without_warning(tmp_path, long_format):
    (sa, _) = _curves()
    empty = SpectrumDataset(axis=sa.axis, x=[], n_out=[], metadata=sa.metadata)
    (path,) = write_spectrum_datasets([empty], tmp_path / "e.csv", long_format=long_format)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (back,) = read_spectrum_datasets(path)
        _, columns = read_table(path)
    assert back.x.size == back.n_out.size == 0
    assert back.metadata == sa.metadata
    assert all(values == [] for values in columns.values())


# ---------------------------------------------------------------------------
# round trips and block edges
# ---------------------------------------------------------------------------

_EDGES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
]


def _column(nonnegative=False):
    edges = [v for v in _EDGES if not (nonnegative and v < 0.0)]
    values = st.floats(min_value=0.0) if nonnegative else st.floats()
    return arrays(np.float64, st.integers(0, 12), elements=st.sampled_from(edges) | values)


def _assert_same_bits(back, expected):
    back, expected = np.asarray(back, dtype=float), np.asarray(expected, dtype=float)
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(back), nan)
    np.testing.assert_array_equal(back[~nan].view(np.uint64), expected[~nan].view(np.uint64))


@given(x=_column(), n_out=_column(nonnegative=True), x2=_column())
def test_spectrum_layouts_round_trip_bit_for_bit(x, n_out, x2):
    size = min(x.size, n_out.size)
    meta = {"figure": "rt", "axis": "omega", "n_max": "3", "omega_d": "7"}
    curves = [
        SpectrumDataset(
            axis="omega", x=x[:size], n_out=n_out[:size],
            metadata={**meta, "trajectory": "sa", "temperature": "0"},
        ),
        SpectrumDataset(
            axis="omega", x=x2, n_out=np.abs(x2[::-1]),
            metadata={**meta, "trajectory": "aua", "temperature": "0.025"},
        ),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for long_format in (True, False):
            paths = write_spectrum_datasets(curves, Path(tmp) / "rt.csv", long_format)
            back = [ds for path in paths for ds in read_spectrum_datasets(path)]
            assert [ds.metadata for ds in back] == [ds.metadata for ds in curves]
            for got, want in zip(back, curves):
                _assert_same_bits(got.x, want.x)
                _assert_same_bits(got.n_out, want.n_out)


@given(t=_column(), z=_column(), alpha=_column())
def test_worldline_table_round_trips_bit_for_bit(t, z, alpha):
    size = min(t.size, z.size, alpha.size)
    sm, aua = TrajectoryKind.SM, TrajectoryKind.AUA
    ds = WorldlineDataset(
        t=t[:size],
        z={sm: z[:size], aua: alpha[:size]},
        alpha={sm: alpha[:size], aua: z[:size]},
        metadata={"kind": "worldlines", "points": str(size)},
    )
    with tempfile.TemporaryDirectory() as tmp:
        meta, columns = read_table(write_worldlines(ds, Path(tmp) / "w.csv"))
    assert meta == ds.metadata
    assert columns["trajectory"] == ["sm"] * size + ["aua"] * size
    _assert_same_bits(columns["t"], np.tile(ds.t, 2))
    _assert_same_bits(columns["z"], np.concatenate([ds.z[sm], ds.z[aua]]))
    _assert_same_bits(columns["alpha_dir"], np.concatenate([ds.alpha[sm], ds.alpha[aua]]))


def test_rows_across_block_edges_are_written_once(tmp_path):
    size = 2 * _BLOCK_ROWS + 3
    n = np.arange(size)
    x = n / 7.0
    label = _text_column(["sa", "aua"], [_BLOCK_ROWS, size - _BLOCK_ROWS])
    path = _write_table(tmp_path / "b.csv", {"k": "v"}, ("n", "x", "trajectory"), (n, x, label))
    rows = "\n".join("%d,%.17g,%s" % cells for cells in zip(n, x, label)) + "\n"
    assert path.read_text() == f"{FORMAT_HEADER}\n# k=v\nn,x,trajectory\n" + rows
    _, columns = read_table(path)
    assert columns["n"] == n.tolist()
    assert columns["trajectory"] == label.tolist()


def test_failed_stream_keeps_the_old_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("old\n")

    def chunks():
        yield "partial\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        _atomic_write(path, chunks())
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "old\n"


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

_LONG_ROWS = 200_000
_NAMES = ("t", "z", "alpha_dir", "tau", "trajectory")


def _long_columns():
    """The columns of a 200k-row worldline-like table."""
    rng = np.random.default_rng(7)
    quarter = _LONG_ROWS // 4
    return tuple(rng.standard_normal(_LONG_ROWS) for _ in range(4)) + (
        _text_column(["sm", "sa", "aua", "sm"], [quarter] * 4),
    )


@pytest.fixture(scope="module")
def long_table(tmp_path_factory):
    """The file of a 200k-row worldline-like table."""
    return _write_table(tmp_path_factory.mktemp("long") / "long.csv", {}, _NAMES, _long_columns())


def _rss_rise_mb(setup: str, call: str) -> float:
    """The rise of the peak resident set (ru_maxrss, KiB on Linux) across
    `call`, run after `setup` in a fresh interpreter, in MB. Unlike
    tracemalloc it slows no allocation, and it counts numpy's buffers too.
    An exec'd process's ru_maxrss starts at the peak of the process that
    spawned it, so the call runs in a fork of the interpreter, whose
    ru_maxrss starts at its own size."""
    code = "\n".join([
        "import os, resource", setup,
        "if os.fork() == 0:",
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
        f"    {call}",
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, flush=True)",
        "    os._exit(0)",
        "os.wait()",
    ])
    paths = [str(Path(__file__).resolve().parent), str(Path(mirror_dce.__file__).parents[1])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return int(out.stdout) * 1024 / 1e6


# Bounds from ten runs with numpy 2.4 on Python 3.11, Linux: the write rose
# by 4.9-5.6 MB, the read by 42.9-43.0 MB (it returns 800k floats). A writer
# that formats the whole file in memory rose by 80-81 MB, a reader that
# splits every row into cell strings by 153 MB.
def test_writing_a_long_table_streams_it(tmp_path):
    setup = (
        "from test_table_format import _NAMES, _long_columns, _write_table\n"
        "columns = _long_columns()"
    )
    call = f"_write_table({str(tmp_path / 'w.csv')!r}, {{}}, _NAMES, columns)"
    assert _rss_rise_mb(setup, call) < 16.0


def test_reading_a_long_table_parses_it_in_place(long_table):
    call = f"read_table({str(long_table)!r})"
    assert _rss_rise_mb("from mirror_dce.experiments import read_table", call) < 90.0
