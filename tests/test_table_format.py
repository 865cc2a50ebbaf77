"""Exact text of every `# mirror-dce v1` table writer, on small literal
datasets: the layout, the metadata lines, the cell formats and the file
names. No physics is evaluated."""

import math

import numpy as np
import pytest

from mirror_dce import cli
from mirror_dce.experiments import (
    DriveCoefficientDataset,
    SpectrumDataset,
    WorldlineDataset,
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
