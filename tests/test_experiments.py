import math
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mirror_dce import experiments
from mirror_dce.circuit import (
    AliasingWarning,
    CircuitParams,
    DriveSpectrum,
    DriveWarning,
    RealizabilityError,
    _synthesis_grid,
    fourier_decompose,
    trajectory_to_drive,
)
from mirror_dce.experiments import (
    FIGURE_ALIASES,
    OMEGA_D_RESOLUTION,
    InfeasibleError,
    SweepAxis,
    SweepSpec,
    baseline_point,
    drive_normalized_bias,
    figure_preset,
    first_harmonic_amplitude,
    read_spectrum_datasets,
    relativistic_point,
    reproduce,
    run_sweep,
    select_parameters,
    worldline_dataset,
    write_spectrum_datasets,
)
from mirror_dce.scattering import ThermalInput, output_spectrum
from mirror_dce.trajectories import (
    TrajectoryKind,
    TrajectoryParams,
    average_acceleration,
    coordinate_period,
    position,
    solve_acceleration_parameter,
)

TWO_PI = 2.0 * math.pi


class TestBiasNormalization:
    def test_bias_is_the_sweep_gates_bias(self, reference_circuit):
        # A scalar point and a grid share one bias path: the bias of
        # drive_normalized_bias is the one `_gate` judges the same A with.
        abar, wd = relativistic_point()
        c = reference_circuit
        spec = SweepSpec(
            figure_id="t", axis=SweepAxis.ABAR, x=tuple(np.linspace(5e18, 30e18, 9)),
            trajectories=(TrajectoryKind.SM,), omega_d=wd, omega=0.5 * wd,
        )
        for kind in TrajectoryKind:
            A = np.array([solve_acceleration_parameter(kind, x, wd, c.v) for x in spec.x])
            _, grid, _ = experiments._gate(kind, spec, c, A, np.full(A.size, wd))
            scalar = [
                drive_normalized_bias(TrajectoryParams(kind, a, wd, c.v), c).EJ0_ratio
                for a in A
            ]
            np.testing.assert_allclose(scalar, grid.bias, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("kind", list(TrajectoryKind))
    def test_first_harmonic_matches_the_dense_projection(self, reference_circuit, kind):
        abar, wd = relativistic_point()
        A = solve_acceleration_parameter(kind, abar, wd, reference_circuit.v)
        p = TrajectoryParams(kind, A, wd, reference_circuit.v)
        a, b = fourier_decompose(position(p, _synthesis_grid(wd)), wd, 3)
        z1 = float(np.hypot(a[0], b[0]))
        assert abs(first_harmonic_amplitude(p) - z1) <= 4e-15 * z1

    def test_reference_point_recovers_reference_bias(self, reference_circuit):
        # R = 0.11 mm at 18 GHz with a_1 = a0/8 gives E_J0 = 1.3 E_J
        abar, wd = baseline_point()
        A = solve_acceleration_parameter(TrajectoryKind.SM, abar, wd, reference_circuit.v)
        p = TrajectoryParams(TrajectoryKind.SM, A, wd, reference_circuit.v)
        biased = drive_normalized_bias(p, reference_circuit)
        assert biased.EJ0_ratio == pytest.approx(1.3, rel=0.01)

    def test_comparison_point_sa_bias(self, reference_circuit):
        abar, wd = relativistic_point()
        A = solve_acceleration_parameter(TrajectoryKind.SA, abar, wd, reference_circuit.v)
        p = TrajectoryParams(TrajectoryKind.SA, A, wd, reference_circuit.v)
        biased = drive_normalized_bias(p, reference_circuit)
        assert biased.EJ0_ratio == pytest.approx(0.1002, rel=5e-3)

    def test_first_harmonic_ratio_is_pinned(self, sa_comparison, reference_circuit):
        biased = drive_normalized_bias(sa_comparison, reference_circuit)
        d = trajectory_to_drive(sa_comparison, biased, n_max=3)
        assert d.harmonic_magnitudes[0] / d.a0 == pytest.approx(0.125, rel=1e-6)

    def test_sm_first_harmonic_is_amplitude(self, sm_baseline):
        assert first_harmonic_amplitude(sm_baseline) == pytest.approx(
            sm_baseline.R, rel=1e-10, abs=0.0
        )

    def test_bias_saturates_at_tuning_ceiling(self, reference_circuit):
        # a tiny trajectory would demand E_J0 > 2 E_J to keep a_1 = a0/8;
        # the bias must saturate below the ceiling and stay realizable
        wd = TWO_PI * 18e9
        p = TrajectoryParams(TrajectoryKind.SM, 1e17 / 1.0, wd, reference_circuit.v)
        biased = drive_normalized_bias(p, reference_circuit)
        assert biased.EJ0_ratio <= 2.0
        d = trajectory_to_drive(p, biased, n_max=3)
        assert d.harmonic_magnitudes[0] / d.a0 < 0.125
        t = np.linspace(0.0, coordinate_period(p), 512)
        assert float(np.max(d.e_j(t))) <= 2.0 * biased.E_J

    def test_saturated_sweep_stays_below_the_ceiling(self, reference_circuit):
        # at small z_peak / L_eff the ceiling root must keep its digits, or
        # the saturated bias at 1e11 m/s^2 overshoots the ceiling
        wd = TWO_PI * 18e9
        spec = SweepSpec(
            figure_id="t", axis=SweepAxis.ABAR, x=(1e11, 1e12, 1e13, 1e14),
            trajectories=(TrajectoryKind.SA,), omega_d=wd, omega=0.5 * wd,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (ds,) = run_sweep(spec, reference_circuit)
        assert "failures" not in ds.metadata
        assert np.all(np.isfinite(ds.n_out))


class TestSelectParameters:
    def test_sa_comparison_point(self, reference_circuit):
        sel = select_parameters(TrajectoryKind.SA, 20e18, reference_circuit)
        assert sel.omega_d / TWO_PI == pytest.approx(14.6e9, rel=0.01)
        assert sel.A == pytest.approx(13.725e18, rel=0.01)
        assert sel.ejo_ratio == pytest.approx(0.1002, rel=0.01)
        assert sel.abar == 20e18

    def test_aua_comparison_point(self, reference_circuit):
        sel = select_parameters(TrajectoryKind.AUA, 20e18, reference_circuit)
        # the shared drive frequency is bound by the SA feasibility edge
        assert sel.omega_d / TWO_PI == pytest.approx(14.6e9, rel=0.01)
        assert sel.A == 20e18
        assert sel.ejo_ratio >= 0.1

    def test_aua_alone_selects_lower_frequency(self, reference_circuit):
        # one grid step below the shared 14.6 GHz, AUA alone is feasible, so
        # the shared drive frequency is bound by SA
        wd = TWO_PI * 14.5e9
        assert not experiments._feasible(TrajectoryKind.SA, 20e18, wd, reference_circuit)
        assert experiments._feasible(TrajectoryKind.AUA, 20e18, wd, reference_circuit)

    @pytest.mark.parametrize(
        "abar, steps",
        [
            (20e18, (146, 146, 317)),
            (9.054e17, (49, 49, 86)),
            (50e18, (162, 162, 383)),
        ],
    )
    def test_grid_index(self, reference_circuit, abar, steps):
        for kind, k in zip((TrajectoryKind.SA, TrajectoryKind.AUA, TrajectoryKind.SM), steps):
            sel = select_parameters(kind, abar, reference_circuit)
            assert sel.omega_d == k * OMEGA_D_RESOLUTION, kind

    def test_sm_minimum_drive_frequency(self, reference_circuit):
        sel = select_parameters(TrajectoryKind.SM, 20e18, reference_circuit)
        # the feasibility boundary reads as omega_d/2pi ~ 31.7 GHz; the bare
        # rad/s reading (31.7e9 rad/s ~ 5 GHz) matches nothing
        assert sel.omega_d / TWO_PI == pytest.approx(31.7e9, rel=0.01)
        assert abs(sel.omega_d - 31.7e9) / 31.7e9 > 1.0
        assert sel.R == pytest.approx(0.4775e-3, rel=0.01)
        assert average_acceleration(
            TrajectoryParams(TrajectoryKind.SM, sel.A, sel.omega_d, reference_circuit.v)
        ) == pytest.approx(20e18, rel=1e-6)

    def test_selected_point_is_feasible_by_construction(self, reference_circuit):
        from mirror_dce.circuit import validate

        sel = select_parameters(TrajectoryKind.SA, 20e18, reference_circuit)
        import dataclasses

        c = dataclasses.replace(reference_circuit, EJ0_ratio=sel.ejo_ratio)
        p = TrajectoryParams(TrajectoryKind.SA, sel.A, sel.omega_d, c.v)
        d = trajectory_to_drive(p, c, n_max=3)
        report = validate(d, c, omega_probe=np.array([0.5 * sel.omega_d]))
        assert report.ok, str(report)

    def test_infeasible_criteria_raise(self, reference_circuit):
        with pytest.raises(InfeasibleError, match="not reachable below"):
            select_parameters(TrajectoryKind.SM, 1e21, reference_circuit)

    def test_criteria_validation(self, reference_circuit):
        for kind in TrajectoryKind:
            with pytest.raises(ValueError, match="abar_target must be positive"):
                select_parameters(kind, -1.0, reference_circuit)


class TestRunSweep:
    def small_spec(self, axis=SweepAxis.OMEGA):
        abar, wd = relativistic_point()
        if axis is SweepAxis.OMEGA:
            x = tuple(wd * k / 17 for k in range(1, 18))
            return SweepSpec(
                figure_id="t", axis=axis, x=x,
                trajectories=(TrajectoryKind.SA,), temperatures=(0.0, 0.025),
                omega_d=wd, abar=abar,
            )
        if axis is SweepAxis.ABAR:
            return SweepSpec(
                figure_id="t", axis=axis, x=tuple(np.linspace(5e18, 30e18, 9)),
                trajectories=(TrajectoryKind.SA, TrajectoryKind.AUA),
                temperatures=(0.0,), omega_d=wd, omega=0.5 * wd,
            )
        return SweepSpec(
            figure_id="t", axis=axis,
            x=tuple(TWO_PI * np.linspace(12e9, 28e9, 9)),
            trajectories=(TrajectoryKind.AUA,), temperatures=(0.0,),
            omega=TWO_PI * 7.3e9, abar=abar,
        )

    def test_one_dataset_per_combination(self, reference_circuit):
        datasets = run_sweep(self.small_spec(), reference_circuit)
        assert len(datasets) == 2
        keys = {(d.trajectory, d.temperature) for d in datasets}
        assert keys == {(TrajectoryKind.SA, 0.0), (TrajectoryKind.SA, 0.025)}
        for ds in datasets:
            assert np.all(np.isfinite(ds.n_out))
            assert "failures" not in ds.metadata

    def test_bitwise_deterministic_rerun(self, reference_circuit):
        a = run_sweep(self.small_spec(SweepAxis.ABAR), reference_circuit)
        b = run_sweep(self.small_spec(SweepAxis.ABAR), reference_circuit)
        for da, db in zip(a, b):
            assert np.array_equal(da.n_out, db.n_out)
            assert da.metadata == db.metadata

    def test_thread_count_does_not_change_results(self, reference_circuit, monkeypatch):
        # Sweeps run in the calling thread: the variable that once sized a
        # thread pool is ignored, and no thread is started.
        abar, _ = relativistic_point()
        spec = SweepSpec(
            figure_id="t", axis=SweepAxis.OMEGA_D,
            x=tuple(TWO_PI * np.linspace(12e9, 28e9, 5)),
            trajectories=(TrajectoryKind.SA, TrajectoryKind.AUA),
            temperatures=(0.0, 0.025), omega=TWO_PI * 7.3e9, abar=abar,
        )
        serial = run_sweep(spec, reference_circuit)

        def no_threads(self):
            raise AssertionError("a sweep started a thread")

        monkeypatch.setenv("MIRROR_DCE_THREADS", "4")
        monkeypatch.setattr(threading.Thread, "start", no_threads)
        again = run_sweep(spec, reference_circuit)
        assert len(again) == len(serial) == 4
        for da, db in zip(serial, again):
            assert np.array_equal(da.n_out, db.n_out)
            assert da.metadata == db.metadata

    def test_subsample_reproduces_through_direct_apis(self, reference_circuit):
        # The grid path agrees with the point-by-point API at the tolerance
        # of the golden values: rtol 1e-12 with a floor of 1e-12 x the peak.
        spec = self.small_spec(SweepAxis.ABAR)
        datasets = run_sweep(spec, reference_circuit)
        rng = np.random.default_rng(42)
        for ds in datasets:
            kind = ds.trajectory
            peak = float(np.max(ds.n_out))
            picks = rng.choice(len(ds.x), size=max(1, len(ds.x) // 20), replace=False)
            for i in picks:
                A = solve_acceleration_parameter(
                    kind, float(ds.x[i]), spec.omega_d, reference_circuit.v
                )
                p = TrajectoryParams(kind, A, spec.omega_d, reference_circuit.v)
                biased = drive_normalized_bias(p, reference_circuit)
                d = trajectory_to_drive(p, biased, n_max=spec.n_max)
                direct = output_spectrum(
                    float(spec.omega), d, biased, ThermalInput(ds.temperature)
                )
                assert ds.n_out[i] == pytest.approx(direct, rel=1e-12, abs=1e-12 * peak)

    @pytest.mark.parametrize("axis", [SweepAxis.ABAR, SweepAxis.OMEGA_D, SweepAxis.OMEGA])
    def test_every_point_at_finite_temperature_matches_direct_api(self, axis):
        # A curve is evaluated in one batch from the grid harmonics; each
        # point must agree with the point-by-point API where expm1 enters
        # (T > 0), at rtol 1e-12 with a floor of 1e-12 x the curve's peak.
        bias = 0.41888437030500963
        c = CircuitParams(EJ0_ratio=bias)
        probe, wd18 = TWO_PI * 6516563630.394637, TWO_PI * 18270388712.278183
        common = dict(
            figure_id="t", axis=axis, trajectories=(TrajectoryKind.SA,),
            temperatures=(0.0379,), ejo_ratio={TrajectoryKind.SA: bias},
        )
        if axis is SweepAxis.ABAR:
            spec = SweepSpec(
                x=tuple(np.linspace(1.4002334356065848e18, 1.61e18, 16)),
                omega_d=wd18, omega=probe, **common,
            )
        elif axis is SweepAxis.OMEGA_D:
            spec = SweepSpec(
                x=tuple(TWO_PI * np.linspace(17e9, 19e9, 16)), abar=1.5e18, omega=probe,
                **common,
            )
        else:  # one worldline at every probe, none on a multiple of omega_d
            spec = SweepSpec(
                x=tuple(wd18 * np.linspace(0.1, 2.9, 16)), omega_d=wd18, abar=1.5e18, **common
            )
        (ds,) = run_sweep(spec, c)
        assert np.all(np.isfinite(ds.n_out))
        peak = float(np.max(ds.n_out))
        for xi, got in zip(ds.x, ds.n_out):
            wd = float(xi) if axis is SweepAxis.OMEGA_D else spec.omega_d
            abar = float(xi) if axis is SweepAxis.ABAR else spec.abar
            omega = float(xi) if axis is SweepAxis.OMEGA else spec.omega
            A = solve_acceleration_parameter(TrajectoryKind.SA, abar, wd, c.v)
            d = trajectory_to_drive(TrajectoryParams(TrajectoryKind.SA, A, wd, c.v), c)
            direct = output_spectrum(omega, d, c, ThermalInput(0.0379))
            assert got == pytest.approx(direct, rel=1e-12, abs=1e-12 * peak)

    def test_per_point_failures_recorded_not_dropped(self, reference_circuit):
        # pinning a high bias makes the most relativistic points unrealizable
        abar, wd = relativistic_point()
        spec = SweepSpec(
            figure_id="t",
            axis=SweepAxis.ABAR,
            x=tuple(np.linspace(5e18, 60e18, 12)),
            trajectories=(TrajectoryKind.SA,),
            temperatures=(0.0,),
            omega_d=wd,
            omega=0.5 * wd,
            ejo_ratio={TrajectoryKind.SA: 0.35},
        )
        (ds,) = run_sweep(spec, reference_circuit)
        assert "failures" in ds.metadata
        assert "RealizabilityError" in ds.metadata["failures"]
        assert np.any(np.isnan(ds.n_out))
        assert np.any(np.isfinite(ds.n_out))
        assert len(ds.x) == 12

    @staticmethod
    def scalar_failures(spec, c, kind):
        """The `failures` entries the point-by-point APIs give for spec."""
        entries = []
        for i, xi in enumerate(spec.x):
            wd = spec.omega_d if spec.axis is SweepAxis.ABAR else xi
            abar = xi if spec.axis is SweepAxis.ABAR else spec.abar
            try:
                if spec.A is not None and kind in spec.A:
                    A = spec.A[kind]
                else:
                    A = solve_acceleration_parameter(kind, abar, wd, c.v)
                p = TrajectoryParams(kind, A, wd, c.v)
                biased = c if spec.ejo_ratio else drive_normalized_bias(p, c)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DriveWarning)
                    trajectory_to_drive(p, biased, n_max=spec.n_max)
            except ValueError as exc:
                entries.append((i, f"{type(exc).__name__}: {exc}"))
        return entries

    def assert_failures_match_scalar_apis(self, spec, c):
        (ds,) = run_sweep(spec, c)
        kind = spec.trajectories[0]
        entries = self.scalar_failures(spec, c, kind)
        expected = [f"{i}:{message}" for i, message in entries]
        mid = dict(entries).get(len(spec.x) // 2)
        if mid is not None:
            expected.append(f"validity:{mid}")
        assert ds.metadata.get("failures", "") == "|".join(expected)
        assert np.flatnonzero(np.isnan(ds.n_out)).tolist() == [i for i, _ in entries]
        return ds, entries

    @pytest.mark.parametrize("kind", list(TrajectoryKind))
    @pytest.mark.parametrize("axis", [SweepAxis.ABAR, SweepAxis.OMEGA_D])
    @pytest.mark.parametrize("bias", [0.35, 1.9])
    def test_pinned_bias_edge_fails_like_the_scalar_apis(self, kind, axis, bias):
        # Bias 0.35 crosses the depth bound, 1.9 the flux-tuning ceiling.
        c = CircuitParams(EJ0_ratio=bias)
        common = dict(
            figure_id="t", axis=axis, trajectories=(kind,), temperatures=(0.0,),
            ejo_ratio={kind: bias},
        )
        wd = TWO_PI * 14.6e9
        if axis is SweepAxis.ABAR:
            top = 1.2e19 if bias < 1.0 else 4e17
            spec = SweepSpec(
                x=tuple(np.linspace(top / 12, top, 24)), omega_d=wd, omega=0.5 * wd, **common
            )
        else:
            lo, hi = (15e9, 30e9) if bias < 1.0 else (10e9, 60e9)
            spec = SweepSpec(
                x=tuple(TWO_PI * np.linspace(lo, hi, 24)), abar=2e19 if bias < 1.0 else 1e18,
                omega=TWO_PI * 7.3e9, **common,
            )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DriveWarning)
            ds, entries = self.assert_failures_match_scalar_apis(spec, c)
        assert 0 < len(entries) < len(spec.x)
        wanted = "trajectory amplitude" if bias < 1.0 else "flux-tuning ceiling"
        assert any(wanted in message for _, message in entries)

    def test_non_positive_abar_fails_with_the_scalar_text(self, reference_circuit):
        wd = TWO_PI * 14.6e9
        for kind in TrajectoryKind:
            spec = SweepSpec(
                figure_id="t", axis=SweepAxis.ABAR, x=(1e18, 0.0, 2e18, -3e18, 5e18),
                trajectories=(kind,), omega_d=wd, omega=0.5 * wd,
            )
            _, entries = self.assert_failures_match_scalar_apis(spec, reference_circuit)
            assert [i for i, _ in entries] == [1, 3]
            assert all("abar_target must be positive and finite" in m for _, m in entries)

    def test_sa_points_past_the_range_of_beta_squared_fail_with_the_scalar_text(self):
        # Past the cut, beta^2 of the SA solve overflows and the scalar solve
        # raises; the grid inversion gives NaN there, not a worldline with
        # n_out = 0. The cut is found by bisection over float abar.
        c, wd, sa = CircuitParams(), TWO_PI * 1e9, TrajectoryKind.SA

        def past(abar):
            try:
                solve_acceleration_parameter(sa, abar, wd, c.v)
            except ValueError:
                return True
            return False

        below, above = 1e150, 1e200
        while math.nextafter(below, above) != above:
            mid = 0.5 * (below + above)
            below, above = (below, mid) if past(mid) else (mid, above)
        x = (1e150, math.nextafter(below, 0.0), below, above,
             math.nextafter(above, math.inf), 1e180, 1e200)
        spec = SweepSpec(
            figure_id="t", axis=SweepAxis.ABAR, x=x, trajectories=(sa,), omega_d=wd,
            omega=0.5 * wd, ejo_ratio={sa: c.EJ0_ratio},
        )
        ds, entries = self.assert_failures_match_scalar_apis(spec, c)
        cut = [i for i, message in entries if "is past the SA range" in message]
        assert cut == [3, 4, 5, 6]
        with np.errstate(all="ignore"):
            A = experiments._grid_acceleration_parameter(sa, spec.x, wd, c.v)
        assert np.flatnonzero(np.isnan(A)).tolist() == cut

    def test_pinned_sm_amplitude_past_the_wall_speed_fails_with_the_scalar_text(
        self, reference_circuit
    ):
        # R omega_d = A / omega_d reaches v below 10 GHz at this A.
        A = 0.95 * reference_circuit.v * TWO_PI * 10e9
        spec = SweepSpec(
            figure_id="t", axis=SweepAxis.OMEGA_D, x=tuple(TWO_PI * np.linspace(5e9, 20e9, 16)),
            trajectories=(TrajectoryKind.SM,), omega=TWO_PI * 7.3e9,
            A={TrajectoryKind.SM: A},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DriveWarning)
            ds, entries = self.assert_failures_match_scalar_apis(spec, reference_circuit)
        walls = [i for i, m in entries if "reaches the effective light speed" in m]
        assert walls and walls == list(range(len(walls)))
        assert np.any(np.isfinite(ds.n_out))

    @pytest.mark.parametrize("kind", list(TrajectoryKind))
    def test_point_on_the_depth_edge_fails_like_the_scalar_apis(self, kind):
        # 40 geometric bisection steps of the scalar API put one grid point
        # within about 1e-11 of the depth bound and the next just past it;
        # the grid judges both without a margin, as the scalar path does.
        c = CircuitParams(EJ0_ratio=0.35)
        wd = TWO_PI * 14.6e9

        def realizable(abar):
            A = solve_acceleration_parameter(kind, abar, wd, c.v)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DriveWarning)
                    trajectory_to_drive(TrajectoryParams(kind, A, wd, c.v), c)
            except ValueError:
                return False
            return True

        good, bad = 1e16, 1e21
        for _ in range(40):
            mid = math.sqrt(good * bad)
            good, bad = (mid, bad) if realizable(mid) else (good, mid)
        spec = SweepSpec(
            figure_id="t", axis=SweepAxis.ABAR, x=(0.8 * good, 0.9 * good, good, bad, 1.1 * bad),
            trajectories=(kind,), omega_d=wd, omega=0.5 * wd, ejo_ratio={kind: 0.35},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DriveWarning)
            _, entries = self.assert_failures_match_scalar_apis(spec, c)
        assert [i for i, _ in entries] == [3, 4]
        assert all("trajectory amplitude" in m for _, m in entries)

    def test_soft_ratio_point_still_warns(self):
        # Point 16 has 0.25 < |c_n|/a0 <= 0.5: its drive is realizable and
        # warns; the mid point (20) fails.
        c = CircuitParams(EJ0_ratio=0.35)
        wd = TWO_PI * 14.6e9
        spec = SweepSpec(
            figure_id="t", axis=SweepAxis.ABAR, x=tuple(np.linspace(5e18, 9e18, 41)),
            trajectories=(TrajectoryKind.AUA,), omega_d=wd, omega=0.5 * wd,
            ejo_ratio={TrajectoryKind.AUA: 0.35},
        )
        with pytest.warns(DriveWarning, match="exceeds 0.25") as record:
            (ds,) = run_sweep(spec, c)
        assert np.isfinite(ds.n_out[16]) and np.isnan(ds.n_out[20])
        # The warning names a file of the package, not a generated __init__.
        assert all(Path(w.filename).is_file() for w in record)

    def test_every_aliasing_point_still_warns(self, reference_circuit):
        # With n_max = 1 the top harmonic holds all the power: each point's
        # drive synthesis warns once, the mid point included.
        spec = replace(self.small_spec(SweepAxis.ABAR), n_max=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            datasets = run_sweep(spec, reference_circuit)
        aliasing = [w for w in caught if issubclass(w.category, AliasingWarning)]
        assert len(aliasing) == len(spec.x) * len(spec.trajectories)
        assert all(np.all(np.isfinite(ds.n_out)) for ds in datasets)

    def test_sm_above_the_subluminal_ceiling_fails_with_the_scalar_text(
        self, reference_circuit
    ):
        wd = TWO_PI * 18e9
        spec = SweepSpec(
            figure_id="t", axis=SweepAxis.ABAR, x=tuple(np.linspace(1e18, 2e20, 9)),
            trajectories=(TrajectoryKind.SM,), omega_d=wd, omega=TWO_PI * 9e9,
        )
        _, entries = self.assert_failures_match_scalar_apis(spec, reference_circuit)
        assert any("exceeds the subluminal ceiling" in message for _, message in entries)

    @pytest.mark.parametrize("axis", list(SweepAxis))
    def test_no_axis_builds_a_drive(self, reference_circuit, monkeypatch, axis):
        # A sweep judges its worldlines, the mid one's validity report
        # included, from the bounds table, and takes n_out from the grid
        # harmonics: it synthesizes no drive, judges none and evaluates no
        # drive spectrum, on any axis.
        calls = []

        def counted(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("trajectory_to_drive", "validate", "output_spectrum"):
            monkeypatch.setattr(experiments, name, counted(name, getattr(experiments, name)))
        init = DriveSpectrum.__post_init__
        monkeypatch.setattr(DriveSpectrum, "__post_init__", counted("DriveSpectrum", init))
        spec = replace(
            self.small_spec(axis),
            trajectories=(TrajectoryKind.SA, TrajectoryKind.AUA),
            temperatures=(0.0, 0.025),
        )
        datasets = run_sweep(spec, reference_circuit)
        assert len(datasets) == 4
        assert calls == []
        for ds in datasets:
            assert np.all(np.isfinite(ds.n_out))
            assert "circuit.EJ0_ratio" in ds.metadata

    @pytest.mark.parametrize("kind", list(TrajectoryKind))
    def test_omega_axis_past_the_depth_edge_raises_the_scalar_error(self, kind):
        # An omega-axis curve is one worldline: its failure is the sweep's,
        # raised with the class and text of trajectory_to_drive.
        c = CircuitParams(EJ0_ratio=0.35)
        wd = TWO_PI * 14.6e9
        A = solve_acceleration_parameter(kind, 1.2e19, wd, c.v)
        with pytest.raises(RealizabilityError) as scalar:
            trajectory_to_drive(TrajectoryParams(kind, A, wd, c.v), c)
        spec = SweepSpec(
            figure_id="t", axis=SweepAxis.OMEGA, x=tuple(wd * np.linspace(0.1, 2.9, 8)),
            trajectories=(kind,), omega_d=wd, abar=1.2e19, ejo_ratio={kind: 0.35},
        )
        with pytest.raises(RealizabilityError) as swept:
            run_sweep(spec, c)
        assert type(swept.value) is type(scalar.value)
        assert str(swept.value) == str(scalar.value)
        assert "trajectory amplitude" in str(swept.value)

    def test_omega_axis_sm_past_the_wall_speed_raises_the_scalar_error(
        self, reference_circuit
    ):
        wd = TWO_PI * 10e9
        A = 1.05 * reference_circuit.v * wd
        with pytest.raises(ValueError) as scalar:
            TrajectoryParams(TrajectoryKind.SM, A, wd, reference_circuit.v)
        spec = SweepSpec(
            figure_id="t", axis=SweepAxis.OMEGA, x=tuple(wd * np.linspace(0.1, 2.9, 8)),
            trajectories=(TrajectoryKind.SM,), omega_d=wd, A={TrajectoryKind.SM: A},
        )
        with pytest.raises(ValueError) as swept:
            run_sweep(spec, reference_circuit)
        assert type(swept.value) is type(scalar.value)
        assert str(swept.value) == str(scalar.value)
        assert "reaches the effective light speed" in str(swept.value)

    def test_omega_axis_soft_ratio_worldline_warns(self):
        # The worldline of point 16 of test_soft_ratio_point_still_warns:
        # 0.25 < |c_n|/a0 <= 0.5, realizable, and it warns.
        c = CircuitParams(EJ0_ratio=0.35)
        wd = TWO_PI * 14.6e9
        spec = SweepSpec(
            figure_id="t", axis=SweepAxis.OMEGA, x=tuple(wd * np.linspace(0.1, 2.9, 8)),
            trajectories=(TrajectoryKind.AUA,), omega_d=wd, abar=6.6e18,
            ejo_ratio={TrajectoryKind.AUA: 0.35},
        )
        with pytest.warns(DriveWarning, match="exceeds 0.25") as record:
            (ds,) = run_sweep(spec, c)
        assert np.all(np.isfinite(ds.n_out))
        # The warning names a file of the package, not a generated __init__.
        assert all(Path(w.filename).is_file() for w in record)

    def test_temperatures_share_the_drive_bit_for_bit(self, reference_circuit):
        spec = self.small_spec(SweepAxis.ABAR)
        two = replace(spec, temperatures=(0.025, 0.0))
        one = replace(spec, temperatures=(0.0,))
        by_key = {(d.trajectory, d.temperature): d for d in run_sweep(two, reference_circuit)}
        for ds in run_sweep(one, reference_circuit):
            shared = by_key[(ds.trajectory, 0.0)]
            assert np.array_equal(ds.n_out, shared.n_out)
            assert ds.metadata == shared.metadata

    def test_programming_error_propagates(self, reference_circuit, monkeypatch):
        # Both places where the grid path catches per-point domain errors
        # let anything else through: the batched spectrum, and the scalar
        # A inversion of a point the grid inversion leaves NaN.
        def broken(*args, **kwargs):
            raise TypeError("not a domain error")

        spec = self.small_spec(SweepAxis.ABAR)
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_n_out", broken)
            with pytest.raises(TypeError, match="not a domain error"):
                run_sweep(spec, reference_circuit)
        monkeypatch.setattr(experiments, "solve_acceleration_parameter", broken)
        with pytest.raises(TypeError, match="not a domain error"):
            run_sweep(replace(spec, x=(0.0, *spec.x[1:])), reference_circuit)

    def test_spectrum_error_becomes_point_failure(self, reference_circuit):
        spec = replace(self.small_spec(SweepAxis.OMEGA_D), omega=-1.0)
        (ds,) = run_sweep(spec, reference_circuit)
        assert np.all(np.isnan(ds.n_out))
        assert ds.metadata["failures"] == "|".join(
            f"{i}:ValueError: output_spectrum requires omega > 0" for i in range(len(ds.x))
        )
        assert "circuit.EJ0_ratio" in ds.metadata  # the mid point itself synthesized

    def test_infinite_probe_becomes_listed_failure(self, reference_circuit):
        spec = replace(self.small_spec(SweepAxis.OMEGA_D), omega=math.inf)
        (ds,) = run_sweep(spec, reference_circuit)
        assert np.all(np.isnan(ds.n_out))
        assert ds.metadata["failures"] == "|".join(
            f"{i}:ValueError: output_spectrum requires a finite omega"
            for i in range(len(ds.x))
        )

    def test_failed_mid_point_reported_as_validity_failure(self, reference_circuit):
        abar, wd = relativistic_point()
        spec = SweepSpec(
            figure_id="t",
            axis=SweepAxis.ABAR,
            x=tuple(np.linspace(60e18, 5e18, 5)),
            trajectories=(TrajectoryKind.SA,),
            temperatures=(0.0, 0.025),
            omega_d=wd,
            omega=0.5 * wd,
            ejo_ratio={TrajectoryKind.SA: 0.35},
        )
        for ds in run_sweep(spec, reference_circuit):
            entries = ds.metadata["failures"].split("|")
            mid = next(e for e in entries if e.startswith("2:"))
            assert mid.startswith("2:RealizabilityError: ")
            assert entries[-1] == "validity:" + mid[2:]
            assert "circuit.EJ0_ratio" not in ds.metadata
            assert np.isnan(ds.n_out[2]) and np.isfinite(ds.n_out[-1])

    def test_negative_zero_temperature_normalized(self, reference_circuit):
        spec = replace(self.small_spec(), temperatures=(-0.0,))
        assert math.copysign(1.0, spec.temperatures[0]) == 1.0
        (ds,) = run_sweep(spec, reference_circuit)
        assert ds.metadata["temperature"] == "0"

    @pytest.mark.parametrize("T", [-0.01, math.nan, math.inf])
    def test_spec_rejects_negative_and_non_finite_temperatures(self, T):
        with pytest.raises(ValueError, match="finite and >= 0"):
            SweepSpec(
                figure_id="t", axis=SweepAxis.OMEGA, x=(1.0, 2.0),
                trajectories=(TrajectoryKind.SA,), temperatures=(T,),
                omega_d=1e11, abar=1e18,
            )

    @pytest.mark.parametrize("n_max", [-1, 2.5, 513, 600])
    def test_spec_rejects_bad_harmonic_counts(self, n_max):
        # n_max must index the 4096-sample synthesis grid (8 samples per
        # harmonic), else every point would fail.
        with pytest.raises(ValueError, match=r"^n_max must be an integer in \[0, 512\]"):
            SweepSpec(
                figure_id="t", axis=SweepAxis.OMEGA, x=(1.0, 2.0),
                trajectories=(TrajectoryKind.SA,), n_max=n_max, omega_d=1e11, abar=1e18,
            )

    @pytest.mark.parametrize("n_max", [0, 512])
    def test_spec_accepts_the_harmonic_count_range(self, n_max):
        spec = SweepSpec(
            figure_id="t", axis=SweepAxis.OMEGA, x=(1.0, 2.0),
            trajectories=(TrajectoryKind.SA,), n_max=n_max, omega_d=1e11, abar=1e18,
        )
        assert spec.n_max == n_max

    def test_spec_grid_is_a_read_only_copy(self):
        grid = np.array([1.0, 2.0, 3.0])
        spec = SweepSpec(
            figure_id="t", axis=SweepAxis.OMEGA, x=grid,
            trajectories=(TrajectoryKind.SA,), omega_d=1e11, abar=1e18,
        )
        assert spec.x.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            spec.x[0] = 5.0
        grid[0] = 5.0  # the caller's array stays its own
        np.testing.assert_array_equal(spec.x, [1.0, 2.0, 3.0])

    def test_specs_compare_and_hash_by_identity(self):
        def spec():
            return SweepSpec(
                figure_id="t", axis=SweepAxis.OMEGA, x=(1.0, 2.0),
                trajectories=(TrajectoryKind.SA,), omega_d=1e11, abar=1e18,
            )

        a, b = spec(), spec()
        assert a == a
        assert a != b
        assert {a, b, a} == {a, b}

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            SweepSpec(
                figure_id="t", axis=SweepAxis.OMEGA, x=(1.0,),
                trajectories=(TrajectoryKind.SA,), omega_d=1e11, abar=1e18,
            )
        with pytest.raises(ValueError, match="omega_d"):
            SweepSpec(
                figure_id="t", axis=SweepAxis.OMEGA, x=(1.0, 2.0),
                trajectories=(TrajectoryKind.SA,), abar=1e18,
            )
        with pytest.raises(ValueError, match="re-solves"):
            SweepSpec(
                figure_id="t", axis=SweepAxis.ABAR, x=(1e18, 2e18),
                trajectories=(TrajectoryKind.SA,), omega_d=1e11,
                omega=5e10, A={TrajectoryKind.SA: 1e18},
            )

    @pytest.mark.parametrize(
        "name, value, rule",
        [
            ("ejo_ratio", -1.0, r"lie in \(0, 2\], got -1\.0"),
            ("ejo_ratio", 0.0, r"lie in \(0, 2\], got 0\.0"),
            ("ejo_ratio", 2.5, r"lie in \(0, 2\], got 2\.5"),
            ("A", -1e18, r"be positive and finite, got -1e\+18"),
        ],
        ids=["ratio-negative", "ratio-zero", "ratio-above-two", "A-negative"],
    )
    def test_spec_rejects_bad_pins(self, name, value, rule):
        # Each of these once gave a curve: finite n_out with only a validity
        # entry (-1.0), a ZeroDivisionError (0.0) or all NaN (2.5, -1e18).
        pins = {name: {TrajectoryKind.SA: value}}
        with pytest.raises(ValueError, match=rf"^{name}\[sa\] must {rule}$"):
            SweepSpec(
                figure_id="t", axis=SweepAxis.OMEGA_D, x=(1e11, 2e11),
                trajectories=(TrajectoryKind.SA,), omega=5e10, abar=1e18, **pins,
            )


class TestWorldlineDataset:
    def test_requested_configuration(self, reference_circuit):
        ds = worldline_dataset(1.2e19, TWO_PI * 28e9, reference_circuit.v, points=512)
        assert set(ds.z) == {TrajectoryKind.SM, TrajectoryKind.SA, TrajectoryKind.AUA}
        for kind in ds.z:
            assert ds.z[kind].shape == (512,)
            p = TrajectoryParams(
                kind, float(ds.metadata[f"A.{kind.value}"]), TWO_PI * 28e9,
                reference_circuit.v,
            )
            assert average_acceleration(p) == pytest.approx(1.2e19, rel=1e-6)

    def test_aua_acceleration_constant_magnitude(self, reference_circuit):
        ds = worldline_dataset(1.2e19, TWO_PI * 28e9, reference_circuit.v, points=256)
        np.testing.assert_allclose(
            np.abs(ds.alpha[TrajectoryKind.AUA]), 1.2e19, rtol=1e-12
        )

    def test_positions_similar_accelerations_distinct(self, reference_circuit):
        ds = worldline_dataset(1.2e19, TWO_PI * 28e9, reference_circuit.v, points=512)
        amplitudes = {k: float(np.max(np.abs(z))) for k, z in ds.z.items()}
        values = list(amplitudes.values())
        assert max(values) / min(values) < 1.35  # near-coincident positions
        a_sm = ds.alpha[TrajectoryKind.SM]
        a_sa = ds.alpha[TrajectoryKind.SA]
        a_aua = ds.alpha[TrajectoryKind.AUA]
        scale = float(np.max(np.abs(a_sm)))
        assert np.max(np.abs(a_sm - a_sa)) > 0.1 * scale
        assert np.max(np.abs(a_sa - a_aua)) > 0.1 * scale


class TestFigurePresets:
    def test_alias_table_is_total(self, reference_circuit):
        for fig in FIGURE_ALIASES:
            assert figure_preset(fig, reference_circuit) is not None

    def test_unknown_preset_rejected(self, reference_circuit):
        with pytest.raises(ValueError, match="unknown figure"):
            figure_preset("fig9", reference_circuit)

    def test_temperature_ordering_preset(self, reference_circuit):
        (spec,) = figure_preset("fig3", reference_circuit)
        small = SweepSpec(
            figure_id=spec.figure_id, axis=spec.axis, x=spec.x[10::40],
            trajectories=(TrajectoryKind.SA,), temperatures=spec.temperatures,
            omega_d=spec.omega_d, abar=spec.abar, n_max=spec.n_max,
        )
        by_temp = {
            ds.temperature: ds.n_out for ds in run_sweep(small, reference_circuit)
        }
        assert np.all(by_temp[0.025] > by_temp[0.0])
        assert np.all(by_temp[0.05] > by_temp[0.025])

    def test_low_frequency_preset_matches_quoted_average(self, reference_circuit):
        # holding A fixed from the 15 GHz solution, the 5 GHz drive realizes
        # abar = 21.9e18 for the SA worldline
        specs = figure_preset("fig4", reference_circuit)
        wd5_spec = [s for s in specs if s.omega_d == pytest.approx(TWO_PI * 5e9)][0]
        A = wd5_spec.A[TrajectoryKind.SA]
        p = TrajectoryParams(TrajectoryKind.SA, A, TWO_PI * 5e9, reference_circuit.v)
        assert average_acceleration(p) == pytest.approx(21.9e18, rel=0.01)


class TestSerialization:
    def roundtrip(self, datasets, path, long_format):
        paths = write_spectrum_datasets(datasets, path, long_format=long_format)
        out = []
        for p in paths:
            out.extend(read_spectrum_datasets(p))
        return out

    def test_long_format_round_trip(self, reference_circuit, tmp_path):
        spec = TestRunSweep().small_spec()
        datasets = run_sweep(spec, reference_circuit)
        back = self.roundtrip(datasets, tmp_path / "long.csv", True)
        assert len(back) == len(datasets)
        by_key = {(d.trajectory, d.temperature): d for d in back}
        for ds in datasets:
            got = by_key[(ds.trajectory, ds.temperature)]
            np.testing.assert_array_equal(got.x, ds.x)
            np.testing.assert_array_equal(got.n_out, ds.n_out)
            assert got.metadata == ds.metadata

    def test_split_format_round_trip(self, reference_circuit, tmp_path):
        spec = TestRunSweep().small_spec()
        datasets = run_sweep(spec, reference_circuit)
        back = self.roundtrip(datasets, tmp_path / "split.csv", False)
        assert len(back) == len(datasets)
        for orig, got in zip(datasets, back):
            np.testing.assert_array_equal(got.x, orig.x)
            np.testing.assert_array_equal(got.n_out, orig.n_out)
            assert got.metadata == orig.metadata

    def test_header_line(self, reference_circuit, tmp_path):
        spec = TestRunSweep().small_spec()
        datasets = run_sweep(spec, reference_circuit)
        (path,) = write_spectrum_datasets(datasets, tmp_path / "x.csv")
        first = path.read_text().splitlines()[0]
        assert first == "# mirror-dce v1"

    def test_rejects_foreign_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,n_out\n1,2\n")
        with pytest.raises(ValueError, match="mirror-dce"):
            read_spectrum_datasets(bad)

    def test_worldline_and_coefficient_files_parse_losslessly(
        self, reference_circuit, tmp_path
    ):
        from mirror_dce.experiments import read_table

        (worldline_path,) = reproduce("fig1", tmp_path, reference_circuit)
        meta, cols = read_table(worldline_path)
        ds = worldline_dataset(
            float(meta["abar"]), float(meta["omega_d"]), float(meta["v"]),
            points=int(float(meta["points"])),
        )
        sm_rows = [i for i, k in enumerate(cols["trajectory"]) if k == "sm"]
        np.testing.assert_array_equal(
            np.array(cols["z"])[sm_rows], ds.z[TrajectoryKind.SM]
        )
        np.testing.assert_array_equal(
            np.array(cols["alpha_dir"])[sm_rows], ds.alpha[TrajectoryKind.SM]
        )

        (coeff_path,) = reproduce("fig2", tmp_path, reference_circuit)
        meta2, cols2 = read_table(coeff_path)
        assert set(cols2) == {"n", "a_n", "b_n", "magnitude", "trajectory"}
        assert meta2["kind"] == "drive_coefficients"


class TestReproduce:
    def test_cheap_presets_are_byte_identical_across_runs(
        self, reference_circuit, tmp_path
    ):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for fig in ("fig1", "fig2", "fig3", "fig7"):
            p1 = reproduce(fig, out1, reference_circuit)
            p2 = reproduce(fig, out2, reference_circuit)
            for a, b in zip(p1, p2):
                assert a.read_bytes() == b.read_bytes(), fig

    @pytest.mark.parametrize("figure", ["fig5", "fig6"])
    def test_probe_sweeps_share_their_drives(
        self, reference_circuit, tmp_path, monkeypatch, figure
    ):
        # Two probe frequencies x two kinds: each kind's grid is judged
        # once, not once per probe frequency, and no drive is built.
        calls = []
        gate = experiments._gate

        def counted(kind, *args):
            calls.append(kind)
            return gate(kind, *args)

        monkeypatch.setattr(experiments, "_gate", counted)
        monkeypatch.setattr(experiments, "trajectory_to_drive", None)
        assert len(reproduce(figure, tmp_path, reference_circuit)) == 2
        assert calls == [TrajectoryKind.SA, TrajectoryKind.AUA]

    def test_sharing_is_scoped_to_one_call(self, tmp_path, monkeypatch):
        # Small fig6-like preset; each reproduce output must equal sweeps
        # run from scratch with the same circuit.
        real = experiments.figure_preset

        def small(figure_id, c=None):
            return [
                replace(spec, x=tuple(np.linspace(5e18, 30e18, 9)))
                for spec in real(figure_id, c)
            ]

        monkeypatch.setattr(experiments, "figure_preset", small)
        circuits = (CircuitParams(), CircuitParams(I_c=1.0e-6, EJ0_ratio=0.9))
        outputs = []
        for k, c in enumerate(circuits):
            paths = reproduce("fig6", tmp_path / f"shared{k}", c)
            for i, spec in enumerate(small("fig6", c)):
                (fresh,) = write_spectrum_datasets(
                    run_sweep(spec, c), tmp_path / f"fresh{k}_{i}.csv"
                )
                assert paths[i].read_bytes() == fresh.read_bytes()
            outputs.append([p.read_bytes() for p in paths])
        assert outputs[0] != outputs[1]

    def test_descriptive_names_accepted(self, reference_circuit, tmp_path):
        paths = reproduce("worldlines", tmp_path, reference_circuit)
        assert paths and paths[0].exists()

    def test_unknown_figure_raises_before_creating_the_directory(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="unknown figure preset 'fig9'"):
            reproduce("fig9", out)
        assert not out.exists()

    def test_fourier_preset_contains_both_kinds(self, reference_circuit, tmp_path):
        (path,) = reproduce("fig2", tmp_path, reference_circuit)
        text = path.read_text()
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert rows[0] == "n,a_n,b_n,magnitude,trajectory"
        kinds = {ln.split(",")[-1] for ln in rows[1:]}
        assert kinds == {"sa", "aua"}
