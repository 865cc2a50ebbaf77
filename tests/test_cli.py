import dataclasses
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mirror_dce
from mirror_dce.circuit import CircuitParams, trajectory_to_drive
from mirror_dce.cli import (
    _SETTINGS,
    COMMANDS,
    ConfigError,
    RunConfig,
    _build_parser,
    _report_failed_points,
    _resolve_trajectory,
    dispatch,
    main,
    parse_config,
)
from mirror_dce.constants import C_LIGHT
from mirror_dce.experiments import SpectrumDataset, _fmt, read_spectrum_datasets, read_table
from mirror_dce.scattering import ThermalInput, output_spectrum
from mirror_dce.trajectories import TrajectoryKind, TrajectoryParams, solve_acceleration_parameter

TWO_PI = 2.0 * math.pi


class TestParseConfig:
    def test_empty_circuit_block_keeps_reference_defaults(self):
        cfg = parse_config("[circuit]\n")
        assert cfg.circuit == CircuitParams()
        assert cfg.circuit.I_c == 1.25e-6
        assert cfg.circuit.C_J == 90e-15
        assert cfg.circuit.Z0 == 55.0
        assert cfg.circuit.v == pytest.approx(0.4 * C_LIGHT)
        assert cfg.circuit.omega_s == pytest.approx(TWO_PI * 37.3e9)

    def test_full_document(self):
        cfg = parse_config(
            """
[run]
command = spectrum

[trajectory]
kind = sa
abar_target = 20e18
fd = 14.6e9

[circuit]
ic = 1.0e-6
ej0_ratio = 0.15

[physics]
t = 0.025
nmax = 2

[output]
path = out.csv
format = split
"""
        )
        assert cfg.command == "spectrum"
        assert cfg.kind is TrajectoryKind.SA
        assert cfg.abar_target == 20e18
        assert cfg.omega_d == pytest.approx(TWO_PI * 14.6e9)
        assert cfg.circuit.I_c == 1.0e-6
        assert cfg.circuit.EJ0_ratio == 0.15
        assert cfg.circuit.C_J == 90e-15  # untouched default
        assert cfg.temperature == 0.025
        assert cfg.n_max == 2
        assert cfg.out_path == "out.csv"
        assert cfg.out_format == "split"

    def test_both_acceleration_forms_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("[trajectory]\na = 1e18\nabar_target = 2e18\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[detector\]"):
            parse_config("[detector]\nkind = x\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown key \[circuit\] lc"):
            parse_config("[circuit]\nlc = 3\n")

    def test_bad_number_identified(self):
        with pytest.raises(ConfigError, match=r"\[trajectory\] fd"):
            parse_config("[trajectory]\nfd = fast\n")

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config("[circuit]\nic = -2e-6\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="sm|sa|aua"):
            parse_config("[trajectory]\nkind = circular\n")

    def test_aua_target_resolves_to_parameter(self):
        cfg = parse_config(
            "[trajectory]\nkind = aua\nabar_target = 20e18\nfd = 14.6e9\n"
        )
        p = _resolve_trajectory(cfg)
        assert p.A == 20e18
        assert p.kind is TrajectoryKind.AUA


# A text each source must reject, for every setting that is both a config
# key and a flag taking a value (--split takes none), and a command that
# reads the flag.
_BAD_TEXT = {
    ("trajectory", "kind"): ("circular", "traj"),
    ("trajectory", "a"): ("abc", "traj"),
    ("trajectory", "abar_target"): ("-2e18", "params"),
    ("trajectory", "fd"): ("inf", "traj"),
    ("physics", "t"): ("-1", "spectrum"),
    ("physics", "nmax"): ("1.5", "drive"),
    ("output", "path"): (" ", "traj"),
}


def test_every_setting_with_a_key_and_a_flag_is_checked():
    pairs = {row[0] for row in _SETTINGS if row[0] and row[1] and row[1] != "--split"}
    assert pairs == set(_BAD_TEXT)


@pytest.mark.parametrize(
    "key, flag",
    [(row[0], row[1]) for row in _SETTINGS if row[0] and row[1] and row[1] != "--split"],
)
def test_config_key_and_flag_reject_bad_text_alike(tmp_path, capsys, key, flag):
    text, command = _BAD_TEXT[key]
    section, name = key
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{name} = {text}\n")
    assert main([command, "--config", str(cfg)]) == 1
    from_config = capsys.readouterr().err
    assert main([command, f"{flag}={text}"]) == 1
    from_flag = capsys.readouterr().err
    assert from_config.startswith(f"mirror-dce: error: [{section}] {name}: ")
    assert from_flag.startswith(f"mirror-dce: error: {flag}: ")
    assert from_config.partition(f"[{section}] {name}: ")[2] == from_flag.partition(f"{flag}: ")[2]
    assert list(tmp_path.iterdir()) == [cfg]


class TestDispatchValidation:
    def test_missing_kind(self):
        cfg = RunConfig(command="traj", omega_d=1e11, A=1e18, out_path="x.csv")
        with pytest.raises(ConfigError, match="kind"):
            dispatch(cfg)

    def test_missing_acceleration(self):
        cfg = RunConfig(
            command="traj", kind=TrajectoryKind.SA, omega_d=1e11, out_path="x.csv"
        )
        with pytest.raises(ConfigError, match="exactly one"):
            dispatch(cfg)

    def test_unknown_figure(self):
        cfg = RunConfig(command="reproduce", figure="fig99")
        with pytest.raises(ConfigError, match="unknown figure"):
            dispatch(cfg)


class TestCommands:
    def test_traj_writes_worldline_csv(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(
            [
                "traj", "--kind", "aua", "--abar", "20e18", "--fd", "14.6e9",
                "--points", "64", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# mirror-dce v1"
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx] == "t,tau,z,alpha_dir"
        assert len(lines) == header_idx + 1 + 64

    def test_drive_writes_coefficients(self, tmp_path):
        out = tmp_path / "drive.csv"
        rc = main(
            [
                "drive", "--kind", "sm", "--abar", "9.054e17", "--fd", "18e9",
                "--nmax", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert rows[0] == "n,a_n,b_n,magnitude,trajectory"
        assert len(rows) == 4

    def test_drive_with_no_harmonics_writes_an_empty_table(self, tmp_path):
        out = tmp_path / "drive0.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(
                [
                    "drive", "--kind", "sa", "--abar", "9.054e17", "--fd", "18e9",
                    "--nmax", "0", "--out", str(out),
                ]
            )
        assert rc == 0
        meta, columns = read_table(out)
        assert meta["n_max"] == "0"
        assert columns == {"n": [], "a_n": [], "b_n": [], "magnitude": [], "trajectory": []}

    def test_flux_two_column_waveform(self, tmp_path):
        out = tmp_path / "flux.csv"
        rc = main(
            [
                "flux", "--kind", "sm", "--abar", "9.054e17", "--fd", "18e9",
                "--points", "32", "--periods", "2", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,phi_ext"
        assert len(lines) == 1 + 64

    def test_spectrum_with_no_harmonics_is_dark(self, tmp_path):
        out = tmp_path / "dark.csv"
        rc = main(
            [
                "spectrum", "--kind", "sm", "--A", "1e15", "--fd", "18e9",
                "--nmax", "0", "--T", "0", "--points", "16", "--out", str(out),
            ]
        )
        assert rc == 0
        (ds,) = read_spectrum_datasets(out)
        np.testing.assert_array_equal(ds.n_out, 0.0)

    def test_spectrum_matches_direct_evaluation(self, tmp_path, reference_circuit):
        out = tmp_path / "spec.csv"
        rc = main(
            [
                "spectrum", "--kind", "sm", "--abar", "9.054e17", "--fd", "18e9",
                "--T", "0.025", "--points", "32", "--out", str(out),
            ]
        )
        assert rc == 0
        (ds,) = read_spectrum_datasets(out)
        assert ds.temperature == 0.025
        assert len(ds.x) == 32
        assert np.all(ds.n_out > 0.0)  # thermal floor everywhere
        # The defaults: the reference circuit's bias and n_max = 3.
        wd = TWO_PI * 18e9
        A = solve_acceleration_parameter(TrajectoryKind.SM, 9.054e17, wd, reference_circuit.v)
        p = TrajectoryParams(TrajectoryKind.SM, A, wd, reference_circuit.v)
        d = trajectory_to_drive(p, reference_circuit, n_max=3)
        direct = output_spectrum(ds.x, d, reference_circuit, ThermalInput(0.025))
        peak = float(np.max(direct))
        np.testing.assert_allclose(ds.n_out, direct, rtol=1e-12, atol=1e-12 * peak)

    @pytest.mark.parametrize(
        "flags, failure",
        [
            # past the depth edge: the sweep's one worldline fails
            (["--kind", "sa", "--abar", "1.2e19"], "trajectory amplitude"),
            # an SM wall faster than v: the worldline itself is invalid
            (["--kind", "sm", "--A", repr(1.05 * 0.4 * C_LIGHT * TWO_PI * 14.6e9)],
             "reaches the effective light speed"),
        ],
        ids=["depth", "wall-speed"],
    )
    def test_spectrum_of_a_failing_worldline_exits_1_without_a_file(
        self, tmp_path, capsys, flags, failure
    ):
        cfg = tmp_path / "bias.ini"
        cfg.write_text("[circuit]\nej0_ratio = 0.35\n")
        out = tmp_path / "spec.csv"
        rc = main(
            ["spectrum", "--config", str(cfg), *flags, "--fd", "14.6e9", "--points", "16",
             "--out", str(out)]
        )
        assert rc == 1
        assert not out.exists()
        assert list(tmp_path.iterdir()) == [cfg]
        err = capsys.readouterr().err
        assert err.startswith("mirror-dce: error: ") and failure in err

    def test_sweep_over_abar(self, tmp_path):
        cfg = tmp_path / "bias.ini"
        cfg.write_text("[circuit]\nej0_ratio = 0.1\n")
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep", "--config", str(cfg), "--kind", "aua", "--axis", "abar",
                "--min", "5e18", "--max", "3e19", "--points", "7",
                "--fd", "14.6e9", "--w", "7.3e9", "--out", str(out),
            ]
        )
        assert rc == 0
        (ds,) = read_spectrum_datasets(out)
        assert len(ds.x) == 7
        assert np.all(np.diff(ds.n_out) > 0.0)  # monotone in abar

    def test_traj_past_the_sa_range_exits_1_without_a_file(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["traj", "--kind", "sa", "--abar", "1e175", "--fd", "1e9", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("mirror-dce: error: abar_target=1e+175 m/s^2 is past the SA range")
        assert list(tmp_path.iterdir()) == []

    def test_sa_sweep_past_the_range_of_beta_squared_finishes(self, tmp_path):
        # The grid path raises no OverflowError (numpy's beta^2 is inf): the
        # sweep still writes its curve.
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep", "--kind", "sa", "--axis", "abar", "--min", "1e160",
                "--max", "1e200", "--points", "41", "--fd", "1e9", "--w", "0.5e9",
                "--out", str(out),
            ]
        )
        assert rc == 0 and out.exists()

    def test_sweep_over_abar_with_a_pinned_A_exits_1_without_a_file(self, tmp_path, capsys):
        # SweepSpec's own check rejects it; the command adds none of its own.
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep", "--kind", "sa", "--axis", "abar", "--A", "1e19",
                "--min", "5e18", "--max", "3e19", "--points", "7",
                "--fd", "14.6e9", "--w", "7.3e9", "--out", str(out),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            "mirror-dce: error: an abar-axis sweep re-solves A; do not pin it\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_sweep_circuit_metadata_follows_the_circuit_fields(self, tmp_path):
        cfg = tmp_path / "bias.ini"
        cfg.write_text("[circuit]\nej0_ratio = 0.1\n")
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--config", str(cfg), "--kind", "aua", "--axis", "omega_d",
            "--min", "10e9", "--max", "20e9", "--points", "5",
            "--abar", "2e19", "--w", "7.3e9", "--out", str(out),
        ]
        assert main(argv) == 0
        prefix = "# aua@0:circuit."
        lines = [ln for ln in out.read_text().splitlines() if ln.startswith(prefix)]
        c = CircuitParams(EJ0_ratio=0.1)
        names = [f.name for f in dataclasses.fields(CircuitParams)]
        assert names == ["C_J", "I_c", "Z0", "v", "omega_s", "EJ0_ratio", "phi0"]
        assert lines == [f"{prefix}{name}={_fmt(getattr(c, name))}" for name in names]

    @pytest.mark.parametrize(
        "bias, probe, failure",
        [
            ("1.3", "7e9", "RealizabilityError: trajectory amplitude"),
            ("0.1", "-7e9", "ValueError: output_spectrum requires omega > 0"),
        ],
    )
    def test_sweep_with_every_point_failed_exits_nonzero(
        self, tmp_path, capsys, bias, probe, failure
    ):
        cfg = tmp_path / "bias.ini"
        cfg.write_text(f"[circuit]\nej0_ratio = {bias}\n")
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep", "--config", str(cfg), "--kind", "sa", "--axis", "abar",
                "--min", "5e18", "--max", "3e19", "--points", "6",
                "--fd", "14.6e9", f"--w={probe}", "--out", str(out),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "all 6 sweep points failed; the first (point 0): " + failure in err
        assert not out.exists()

    def test_sweep_with_some_points_failed_reports_count(self, tmp_path, capsys):
        cfg = tmp_path / "bias.ini"
        cfg.write_text("[circuit]\nej0_ratio = 0.35\n")
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep", "--config", str(cfg), "--kind", "sa", "--axis", "abar",
                "--min", "5e18", "--max", "6e19", "--points", "12",
                "--fd", "14.6e9", "--w", "7e9", "--out", str(out),
            ]
        )
        assert rc == 0
        (ds,) = read_spectrum_datasets(out)
        failed = int(np.count_nonzero(np.isnan(ds.n_out)))
        assert 0 < failed < 12
        err = capsys.readouterr().err.splitlines()
        assert err == [f"mirror-dce: {failed} of 12 points failed (RealizabilityError)"]

    def test_failure_report_reads_messages_containing_pipes(self, capsys):
        failures = (
            "0:RealizabilityError: harmonic ratio |c_n|/a0 = 0.6 exceeds|"
            "2:ConvergenceError: no root|validity:RealizabilityError: |c_n| too big"
        )
        ds = SpectrumDataset(
            axis="abar", x=[1.0, 2.0, 3.0], n_out=[math.nan, 0.5, math.nan],
            metadata={"failures": failures},
        )
        _report_failed_points([ds])
        err = capsys.readouterr().err
        assert err == "mirror-dce: 2 of 3 points failed (RealizabilityError, ConvergenceError)\n"
        ds.n_out[1] = math.nan
        with pytest.raises(
            ValueError,
            match=r"^all 3 sweep points failed; the first \(point 0\): "
            r"RealizabilityError: harmonic ratio \|c_n\|/a0 = 0\.6 exceeds$",
        ):
            _report_failed_points([ds])

    def test_params_prints_resolved_table(self, capsys):
        rc = main(["params", "--kind", "sa", "--abar", "20e18"])
        assert rc == 0
        table = capsys.readouterr().out
        assert "omega_d/2pi [GHz]" in table
        assert "14.6" in table
        assert "E_J0/E_J" in table
        alpha_row = next(
            ln for ln in table.splitlines() if ln.startswith("A [m/s^2]")
        )
        alpha = float(alpha_row.split()[-1])
        assert alpha == pytest.approx(13.725e18, rel=0.01)

    @pytest.mark.parametrize(
        "abar, ratio", [("20e18", "0.125"), ("1e10", "6.93037e-05")]
    )
    def test_params_prints_realized_tone_ratio(self, capsys, abar, ratio):
        # at 1e10 m/s^2 the bias saturates at the tuning ceiling, so the
        # realized a_1/a_0 falls below the normalization's 1/8
        assert main(["params", "--kind", "sa", "--abar", abar]) == 0
        table = capsys.readouterr().out
        row = next(ln for ln in table.splitlines() if ln.startswith("a_1/a_0"))
        assert row.split()[-1] == ratio

    def test_reproduce_fig2(self, tmp_path, capsys):
        rc = main(["reproduce", "fig2", "--out", str(tmp_path)])
        assert rc == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 1
        text = (tmp_path / "fig2_fourier.csv").read_text()
        assert "sa" in text and "aua" in text

    def test_identical_configs_give_identical_bytes(self, tmp_path):
        args = [
            "spectrum", "--kind", "sm", "--abar", "9.054e17", "--fd", "18e9",
            "--T", "0.025", "--points", "24",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[trajectory]\nkind = sa\nabar_target = 20e18\nfd = 14.6e9\n"
            "[circuit]\nej0_ratio = 0.1002\n"
            "[physics]\nt = 0\nnmax = 3\n"
        )
        out = tmp_path / "out.csv"
        rc = main(
            [
                "spectrum", "--config", str(cfg), "--T", "0.05",
                "--points", "12", "--out", str(out),
            ]
        )
        assert rc == 0
        (ds,) = read_spectrum_datasets(out)
        assert ds.temperature == 0.05  # flag wins over config

    def test_error_exit_code_and_message(self, tmp_path, capsys):
        rc = main(["spectrum", "--kind", "sm", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "mirror-dce: error" in capsys.readouterr().err

    @pytest.mark.parametrize("T", ["nan", "inf", "-1"])
    def test_bad_temperature_exits_nonzero(self, tmp_path, capsys, T):
        out = tmp_path / "x.csv"
        rc = main(
            [
                "spectrum", "--kind", "sm", "--abar", "9.054e17", "--fd", "18e9",
                "--T", T, "--points", "8", "--out", str(out),
            ]
        )
        assert rc == 1
        assert "temperature must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["traj", "--kind", "aua", "--A", "inf", "--fd", "14.6e9"], "--A: must be finite"),
            (["spectrum", "--kind", "sa", "--abar", "inf", "--fd", "14.6e9"],
             "--abar: must be finite"),
            (["params", "--kind", "sa", "--abar", "inf"], "--abar: must be finite"),
            (["sweep", "--kind", "sa", "--axis", "abar", "--min", "1e18", "--max", "inf",
              "--fd", "14.6e9", "--w", "7e9"], "--max: must be finite"),
            (["sweep", "--kind", "sa", "--axis", "omega_d", "--min", "14e9", "--max", "20e9",
              "--abar", "3e17", "--w", "inf"], "--w: must be finite"),
            (["sweep", "--kind", "sa", "--axis", "omega_d", "--min", "14e9", "--max", "20e9",
              "--abar", "3e17", "--w", "nan"], "--w: must be finite"),
            (["sweep", "--kind", "sa", "--axis", "omega", "--min", "1e9", "--max", "inf",
              "--fd", "14.6e9", "--abar", "3e17"], "--max: must be finite"),
            (["drive", "--kind", "sa", "--abar", "9.054e17", "--fd", "18e9", "--nmax", "-1"],
             "--nmax: must be >= 0"),
            (["drive", "--kind", "sa", "--abar=-9e17", "--fd", "18e9"],
             "--abar: must be positive"),
            (["spectrum", "--kind", "sm", "--A", "abc", "--fd", "18e9"], "--A: not a number"),
            (["sweep", "--kind", "sa", "--axis", "abar", "--min", "1e18", "--max", "2e18",
              "--fd", "14.6e9", "--w", "7e9", "--nmax", "600"],
             "n_max must be an integer in [0, 512], got 600"),
            (["drive", "--kind", "sa", "--abar", "9.054e17", "--fd", "18e9", "--nmax", "600"],
             "n_max must be an integer in [0, 512], got 600"),
            (["flux", "--kind", "sa", "--abar", "9.054e17", "--fd", "18e9", "--nmax", "600"],
             "n_max must be an integer in [0, 512], got 600"),
            (["sweep", "--kind", "sa", "--axis", "omega_d", "--min=-5e9", "--max", "20e9",
              "--abar", "2e18", "--w", "7e9"], "--min: must be positive, got '-5e9'"),
        ],
    )
    def test_bad_flag_values_exit_nonzero_and_write_nothing(
        self, tmp_path, capsys, argv, message
    ):
        # Flags get the checks their config values get: no NaN/inf rows, no
        # traceback, no silently truncated drive.
        cfg = tmp_path / "bias.ini"
        cfg.write_text("[circuit]\nej0_ratio = 0.35\n")
        out = tmp_path / "out.csv"
        extra = [] if argv[0] == "params" else ["--out", str(out)]
        if argv[0] not in ("params", "drive"):  # the commands that read --points
            extra += ["--points", "8"]
        rc = main(argv + ["--config", str(cfg)] + extra)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("mirror-dce: error: " + message)
        assert sorted(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["spectrum", "--kind", "sm", "--abar", "9.054e17", "--fd", "18e9", "--T", "abc"],
             "--T: not a number: 'abc'"),
            (["traj", "--kind", "sm", "--abar", "9.054e17", "--fd", "18e9", "--points", "abc"],
             "--points: not an integer: 'abc'"),
            (["flux", "--kind", "sm", "--abar", "9.054e17", "--fd", "18e9", "--periods", "abc"],
             "--periods: not an integer: 'abc'"),
            (["flux", "--kind", "sm", "--abar", "9.054e17", "--fd", "18e9", "--periods", "0"],
             "--periods: must be >= 1"),
            (["traj", "--kind", "xx", "--abar", "9.054e17", "--fd", "18e9"],
             "--kind: expected sm|sa|aua, got 'xx'"),
            (["sweep", "--kind", "sa", "--axis", "xx", "--min", "1e18", "--max", "2e18",
              "--fd", "14.6e9", "--w", "7e9"], "--axis: expected omega|omega_d|abar, got 'xx'"),
            (["spectrum", "--kind", "sm", "--abar", "9.054e17", "--fd", "18e9", "--points", "1"],
             "--points: must be >= 2"),
            (["traj", "--kind", "sm", "--abar", "9.054e17", "--A", "1e18", "--fd", "18e9"],
             "give exactly one of --A and --abar"),
        ],
    )
    def test_flag_values_argparse_used_to_reject_exit_1(self, tmp_path, capsys, argv, message):
        # The flag's own parser rejects them, with exit 1 and the flag's name,
        # where argparse's type= and choices= exited 2.
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == f"mirror-dce: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_empty_output_path_in_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[output]\npath =\n")
        argv = ["traj", "--config", str(cfg), "--kind", "sm", "--abar", "9.054e17",
                "--fd", "18e9", "--points", "8"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "mirror-dce: error: [output] path: must not be empty\n"
        )
        assert list(tmp_path.iterdir()) == [cfg]

    def test_reproduce_removes_its_files_when_a_later_write_fails(self, tmp_path, capsys):
        (tmp_path / "fig4_nout_vs_w_1.csv").mkdir()
        assert main(["reproduce", "fig4", "--out", str(tmp_path)]) == 1
        assert "mirror-dce: error: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["fig4_nout_vs_w_1.csv"]

    def test_help_lists_the_accepted_values(self, capsys):
        for argv, listing in (["traj", "-h"], "{sm,sa,aua}"), (["sweep", "-h"], "{omega,omega_d,abar}"):
            with pytest.raises(SystemExit):
                main(argv)
            assert listing in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["traj", "--kind", "sm", "--abar", "9.054e17", "--fd", "18e9", "--T", "5",
             "--nmax", "7", "--split", "--points", "8"],
            ["params", "--kind", "sa", "--abar", "20e18", "--nmax", "3"],
            ["reproduce", "fig1", "--kind", "sa"],
            ["flux", "--kind", "sm", "--abar", "9.054e17", "--fd", "18e9", "--T", "0.1"],
        ],
    )
    def test_flags_a_command_does_not_read_exit_nonzero(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ([] if argv[0] == "params" else ["--out", str(out)]))
        assert exc.value.code != 0
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_readme_examples_parse(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = text.replace("\\\n", " ").splitlines()
        examples = [
            shlex.split(line.split("#")[0])[1:]
            for line in lines
            if line.split(" ")[0] == "mirror-dce" and line.split(" ")[1] in COMMANDS
        ]
        assert len(examples) >= 4
        for argv in examples:
            _build_parser().parse_args(argv)

    def test_negative_zero_temperature_writes_zero_curve_id(self, tmp_path):
        cfg = tmp_path / "bias.ini"
        cfg.write_text("[circuit]\nej0_ratio = 0.1002\n")
        out = tmp_path / "spec.csv"
        rc = main(
            [
                "spectrum", "--config", str(cfg), "--kind", "sa", "--abar", "20e18",
                "--fd", "14.6e9", "--T", "-0.0", "--points", "8", "--out", str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert ",sa,0\n" in text and "-0" not in text.replace("e-0", "")
        (ds,) = read_spectrum_datasets(out)
        assert ds.metadata["temperature"] == "0"

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()


# Runs every command family in one interpreter where importing any scipy
# module raises, and prints each exit status, then the scipy modules loaded.
_WITHOUT_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")

sys.meta_path.insert(0, BlockScipy())
from mirror_dce.cli import main

out, cfg = sys.argv[1:]
point = ["--abar", "9.054e17", "--fd", "18e9"]
runs = [
    ["traj", "--kind", "sm", *point, "--points", "256", "--out", f"{out}/traj_sm.csv"],
    ["traj", "--kind", "sa", *point, "--points", "256", "--out", f"{out}/traj_sa.csv"],
    ["flux", "--kind", "sa", *point, "--points", "64", "--out", f"{out}/flux.csv"],
    ["drive", "--kind", "sm", *point, "--nmax", "3", "--out", f"{out}/drive.csv"],
    ["spectrum", "--kind", "sa", *point, "--points", "32", "--out", f"{out}/spectrum.csv"],
    ["sweep", "--config", cfg, "--kind", "sa", "--axis", "abar", "--min", "5e18",
     "--max", "3e19", "--points", "7", "--fd", "14.6e9", "--w", "7.3e9",
     "--out", f"{out}/sweep_abar.csv"],
    ["sweep", "--kind", "sm", "--axis", "omega_d", "--min", "10e9", "--max", "30e9",
     "--points", "9", "--abar", "2e18", "--w", "7e9", "--out", f"{out}/sweep_omega_d.csv"],
    *(["reproduce", fig, "--out", out] for fig in ("fig1", "fig2", "fig5")),
]
for argv in runs:
    print("exit", main(argv), " ".join(argv[:2]))
print("scipy", sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(mirror_dce.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


class TestWithoutScipy:
    def test_package_import_loads_no_scipy_module(self):
        out = _run_python(
            "import sys, mirror_dce.cli, mirror_dce.experiments; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        cfg = tmp_path / "bias.ini"
        cfg.write_text("[circuit]\nej0_ratio = 0.1\n")
        out = _run_python(_WITHOUT_SCIPY, str(tmp_path), str(cfg))
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        statuses = [ln for ln in lines if ln.startswith("exit ")]
        assert len(statuses) == 10 and all(ln.startswith("exit 0 ") for ln in statuses), lines
        assert "scipy []" in lines
        for name in ("traj_sm", "traj_sa", "drive", "spectrum", "sweep_abar", "sweep_omega_d",
                     "fig1_worldlines", "fig2_fourier", "fig5_nout_vs_wd_0"):
            assert (tmp_path / f"{name}.csv").stat().st_size > 0, name
