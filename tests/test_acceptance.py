"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass line (visible with `pytest -rA` or `-s`);
pytest's own verbose output gives the per-criterion pass/fail status.
"""

import math

import numpy as np
import pytest

from mirror_dce.circuit import (
    CircuitParams,
    DriveSpectrum,
    effective_length,
    _synthesis_grid,
    external_flux,
    fourier_decompose,
    trajectory_to_drive,
)
from mirror_dce.constants import PHI0
from mirror_dce.experiments import (
    FIGURE_ALIASES,
    SweepAxis,
    SweepSpec,
    drive_normalized_bias,
    reproduce,
    run_sweep,
)
from mirror_dce.scattering import (
    ThermalInput,
    output_spectrum,
    reflection,
)
from mirror_dce.trajectories import (
    TrajectoryKind,
    TrajectoryParams,
    average_acceleration,
    coordinate_period,
    position,
    relativity_estimator,
    solve_acceleration_parameter,
)
from oracles import abar_quadrature, scatter_amplitudes

TWO_PI = 2.0 * math.pi
V = CircuitParams().v


def _report(n, label, detail):
    print(f"[acceptance] criterion {n:2d} ({label}): PASS - {detail}")


def reference_drive(c: CircuitParams) -> DriveSpectrum:
    """Reference single-tone drive: a_1 = (a0/2)/4 at 18 GHz."""
    a0 = 2.0 * c.E_J0
    return DriveSpectrum(a0=a0, a=[a0 / 8.0], b=[0.0], omega_d=TWO_PI * 18e9)


def test_criterion_01_effective_length(reference_circuit):
    leff0 = effective_length(reference_circuit)
    assert leff0 == pytest.approx(0.44e-3, rel=0.01)

    d = reference_drive(reference_circuit)
    delta_leff = leff0 * d.a[0] / reference_circuit.E_J0
    assert delta_leff == leff0 / 4.0  # exact
    assert delta_leff == pytest.approx(0.11e-3, rel=0.01)
    _report(1, "effective length", f"L_eff0 = {leff0 * 1e3:.4f} mm, delta = L_eff0/4")


def test_criterion_02_sm_average_acceleration(sm_baseline):
    abar = average_acceleration(sm_baseline)
    assert abar == pytest.approx(9.054e17, rel=0.01)
    estimator = relativity_estimator(sm_baseline)
    assert estimator == pytest.approx(0.419, rel=0.01)
    _report(2, "SM average acceleration", f"abar = {abar:.4e}, estimator = {estimator:.4f}")


def test_criterion_03_comparison_point_consistency():
    wd = TWO_PI * 14.6e9
    alpha = solve_acceleration_parameter(TrajectoryKind.SA, 20e18, wd, V)
    assert alpha == pytest.approx(13.725e18, rel=0.01)
    a_aua = solve_acceleration_parameter(TrajectoryKind.AUA, 20e18, wd, V)
    assert a_aua == pytest.approx(20e18, rel=0.01)
    _report(3, "comparison-point parameters", f"alpha = {alpha:.4e}, a = {a_aua:.4e}")


def test_criterion_04_average_acceleration_oracle():
    grids = {
        TrajectoryKind.SM: [0.1, 0.3, 0.5, 0.7, 0.9],  # velocity ratio x
        TrajectoryKind.SA: [0.2e18, 1e18, 5e18, 13.725e18, 30e18],
        TrajectoryKind.AUA: [0.2e18, 1e18, 5e18, 20e18, 40e18],
    }
    freqs = [8e9, 12e9, 18e9, 24e9, 30e9]
    worst = 0.0
    for kind, a_grid in grids.items():
        for a_val in a_grid:
            for fd in freqs:
                wd = TWO_PI * fd
                A = a_val * V * wd if kind is TrajectoryKind.SM else a_val
                p = TrajectoryParams(kind, A, wd, V)
                closed = average_acceleration(p)
                oracle = abar_quadrature(p, tol=1e-9)
                rel = abs(closed - oracle) / oracle
                worst = max(worst, rel)
                assert rel <= 1e-6, (kind, a_val, fd, rel)
    _report(4, "closed form vs quadrature", f"worst relative deviation {worst:.2e}")


def _three_drives(reference_circuit):
    configs = [
        (TrajectoryKind.SM, 9.054e17, TWO_PI * 18e9),
        (TrajectoryKind.SA, 20e18, TWO_PI * 14.6e9),
        (TrajectoryKind.AUA, 20e18, TWO_PI * 14.6e9),
    ]
    out = []
    for kind, abar, wd in configs:
        A = solve_acceleration_parameter(kind, abar, wd, V)
        p = TrajectoryParams(kind, A, wd, V)
        c = drive_normalized_bias(p, reference_circuit)
        out.append((p, c, trajectory_to_drive(p, c, n_max=3)))
    return out


def test_criterion_05_scattering_oracle(reference_circuit):
    worst = 0.0
    for p, c, d in _three_drives(reference_circuit):
        omegas = 3.0 * d.omega_d * np.arange(1, 101) / 101.0
        for w in omegas:
            spectrum = output_spectrum(float(w), d, c)
            oracle = sum(
                abs(entry.conj) ** 2
                for entry in scatter_amplitudes(float(w), d, c).conv
            )
            if oracle == 0.0:
                assert spectrum == 0.0
            else:
                rel = abs(spectrum - oracle) / oracle
                worst = max(worst, rel)
                assert rel <= 1e-9, (p.kind, w, rel)
    _report(5, "spectrum vs pair amplitudes", f"worst relative deviation {worst:.2e}")


def test_criterion_06_unitarity(reference_circuit):
    leff0 = effective_length(reference_circuit)
    w = TWO_PI * np.logspace(4, 11, 400)
    deviation = np.max(np.abs(np.abs(reflection(w, leff0, V)) - 1.0))
    assert deviation <= 1e-14
    _report(6, "reflection unitarity", f"max | |R| - 1 | = {deviation:.2e}")


def test_criterion_07_single_harmonic_spectrum_shape(reference_circuit):
    c = reference_circuit
    d = reference_drive(c)
    w = d.omega_d * np.arange(1, 400) / 400.0  # contains omega_d/2 exactly
    n = output_spectrum(w, d, c)
    peak = int(np.argmax(n))
    assert w[peak] == pytest.approx(d.omega_d / 2.0, rel=1e-12)
    delta_leff = effective_length(c) / 4.0
    expected = (delta_leff * d.omega_d / (2.0 * c.v)) ** 2
    assert n[peak] == pytest.approx(expected, rel=1e-9)
    assert n[peak] == pytest.approx(2.69e-3, rel=0.01)
    _report(7, "single-tone spectrum", f"peak at omega_d/2, value {n[peak]:.4e}")


def test_criterion_08_harmonic_suppression(reference_circuit):
    wd = TWO_PI * 14.6e9
    for kind, A in ((TrajectoryKind.SA, 13.725e18), (TrajectoryKind.AUA, 20e18)):
        p = TrajectoryParams(kind, A, wd, V)
        c = drive_normalized_bias(p, reference_circuit)
        d = trajectory_to_drive(p, c, n_max=6)
        mags = d.harmonic_magnitudes
        power = mags**2
        frac3 = float(np.sum(power[:3]) / np.sum(power))
        assert frac3 >= 0.99, (kind, frac3)
        assert mags[2] <= 0.1 * mags[0], (kind, mags[2] / mags[0])
    _report(8, "harmonic suppression", "first 3 harmonics carry >= 99% of the power")


def test_criterion_09_trajectory_ordering(reference_circuit):
    c = reference_circuit  # all three worldlines stay realizable at this bias
    wd = TWO_PI * 18e9
    curves = {}
    for kind in (TrajectoryKind.SM, TrajectoryKind.SA, TrajectoryKind.AUA):
        A = solve_acceleration_parameter(kind, 9.054e17, wd, V)
        p = TrajectoryParams(kind, A, wd, V)
        d = trajectory_to_drive(p, c, n_max=3)
        w = wd * np.arange(1, 100) / 100.0  # omega in (0, omega_d), step 0.01
        curves[kind] = output_spectrum(w, d, c)
    sm, sa, aua = (
        curves[TrajectoryKind.SM],
        curves[TrajectoryKind.SA],
        curves[TrajectoryKind.AUA],
    )
    gap = float(np.max(np.abs(sa - sm) / sm))
    assert gap < 0.10
    assert np.all(aua < sm)
    assert np.all(aua < sa)
    _report(9, "trajectory ordering", f"max |SA-SM|/SM = {gap:.3%}, AUA below both")


def test_criterion_10_monotonicity_in_average_acceleration(reference_circuit):
    wd = TWO_PI * 14.6e9
    spec = SweepSpec(
        figure_id="acceptance",
        axis=SweepAxis.ABAR,
        x=tuple(np.linspace(5e18, 30e18, 21)),
        trajectories=(TrajectoryKind.SA, TrajectoryKind.AUA),
        temperatures=(0.0,),
        omega_d=wd,
        omega=0.5 * wd,
    )
    for ds in run_sweep(spec, reference_circuit):
        assert "failures" not in ds.metadata
        assert np.all(np.diff(ds.n_out) > 0.0), ds.trajectory
    _report(10, "monotonic in abar", "n_out strictly increasing for SA and AUA")


class TestCriterion11PropertySuites:
    def test_subluminal_worldlines(self, reference_circuit):
        configs = [
            (TrajectoryKind.SM, 9.054e17, TWO_PI * 18e9),
            (TrajectoryKind.SA, 20e18, TWO_PI * 14.6e9),
            (TrajectoryKind.AUA, 20e18, TWO_PI * 14.6e9),
        ]
        for kind, abar, wd in configs:
            A = solve_acceleration_parameter(kind, abar, wd, V)
            p = TrajectoryParams(kind, A, wd, V)
            t = np.linspace(0.0, coordinate_period(p), 10_000)
            h = 1e-6 * coordinate_period(p)
            speed = np.abs(position(p, t + h) - position(p, t - h)) / (2.0 * h)
            assert np.all(speed < V), kind
        _report(11, "subluminal speeds", "|dz/dt| < v on 10^4-point grids")

    def test_drive_round_trip_through_flux(self, reference_circuit):
        for p, c, d in _three_drives(reference_circuit):

            t = _synthesis_grid(d.omega_d)
            e_j = 2.0 * c.E_J * np.cos(math.pi * external_flux(d, c, t) / PHI0)
            a, b = fourier_decompose(e_j, d.omega_d, n_max=3)
            assert 2.0 * float(np.mean(e_j)) == pytest.approx(d.a0, rel=1e-6, abs=0.0)
            np.testing.assert_allclose(a, d.a, rtol=1e-6, atol=1e-9 * d.a0)
            np.testing.assert_allclose(b, d.b, rtol=1e-6, atol=1e-9 * d.a0)
        _report(11, "flux round trip", "coefficients reproduced to 1e-6")

    def test_degenerate_point_continuity(self, reference_circuit):
        _, c, d = _three_drives(reference_circuit)[1]  # SA comparison drive
        th = ThermalInput(0.025)
        for n in (1, 2, 3):
            w0 = n * d.omega_d
            at = output_spectrum(w0, d, c, th)
            left = output_spectrum(w0 * (1.0 - 1e-9), d, c, th)
            right = output_spectrum(w0 * (1.0 + 1e-9), d, c, th)
            assert left == pytest.approx(at, rel=1e-6)
            assert right == pytest.approx(at, rel=1e-6)
        _report(11, "degenerate continuity", "n_out continuous at omega = n*omega_d")

    @pytest.mark.parametrize("figure", sorted(FIGURE_ALIASES))
    def test_reproduce_presets_byte_identical(self, figure, reference_circuit, tmp_path):
        first = reproduce(figure, tmp_path / "run1", reference_circuit)
        second = reproduce(figure, tmp_path / "run2", reference_circuit)
        assert [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), figure
        _report(11, f"reproduce {figure}", "rerun is byte-identical")
