import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from mirror_dce import circuit
from mirror_dce.circuit import (
    AliasingWarning,
    CircuitParams,
    DriveSpectrum,
    DriveWarning,
    RealizabilityError,
    effective_length,
    export_flux_waveform,
    external_flux,
    fourier_decompose,
    trajectory_to_drive,
    validate,
)
from mirror_dce.constants import C_LIGHT, PHI0
from mirror_dce.trajectories import (
    TrajectoryKind,
    TrajectoryParams,
    coordinate_period,
)

TWO_PI = 2.0 * math.pi


def single_tone_drive(c: CircuitParams, omega_d: float, ratio: float = 0.125):
    """Reference drive: one cosine harmonic at a_1 = ratio * a0."""
    a0 = 2.0 * c.E_J0
    return DriveSpectrum(a0=a0, a=[ratio * a0], b=[0.0], omega_d=omega_d)


class TestCircuitParams:
    def test_line_constant_identities(self, reference_circuit):
        c = reference_circuit
        assert 1.0 / math.sqrt(c.L0 * c.C0) == pytest.approx(c.v, rel=1e-12)
        assert math.sqrt(c.L0 / c.C0) == pytest.approx(c.Z0, rel=1e-12)

    def test_josephson_energy_from_critical_current(self, reference_circuit):
        c = reference_circuit
        assert c.E_J == pytest.approx(c.I_c * PHI0 / TWO_PI, rel=1e-14, abs=0.0)
        assert c.E_J0 == pytest.approx(1.3 * c.E_J, rel=1e-14, abs=0.0)

    def test_defaults_are_reference_values(self, reference_circuit):
        c = reference_circuit
        assert c.I_c == 1.25e-6
        assert c.C_J == 90e-15
        assert c.Z0 == 55.0
        assert c.v == pytest.approx(0.4 * C_LIGHT)
        assert c.omega_s == pytest.approx(TWO_PI * 37.3e9)

    def test_bias_ratio_domain(self):
        with pytest.raises(ValueError):
            CircuitParams(EJ0_ratio=0.0)
        with pytest.raises(ValueError):
            CircuitParams(EJ0_ratio=2.5)
        assert CircuitParams(EJ0_ratio=2.0).E_J0 > 0


class TestEffectiveLength:
    def test_reference_value(self, reference_circuit):
        assert effective_length(reference_circuit) == pytest.approx(0.44e-3, rel=0.01)

    def test_inverse_proportionality_to_bias(self, reference_circuit):
        import dataclasses

        doubled = dataclasses.replace(reference_circuit, EJ0_ratio=2.0 * 1.3 / 2.0)
        # doubling a0 (the bias energy) halves the effective length
        half_bias = dataclasses.replace(reference_circuit, EJ0_ratio=0.65)
        assert effective_length(half_bias) == pytest.approx(
            2.0 * effective_length(reference_circuit), rel=1e-12, abs=0.0
        )

    def test_comparison_point_value(self, reference_circuit):
        import dataclasses

        c = dataclasses.replace(reference_circuit, EJ0_ratio=0.1002)
        assert effective_length(c) == pytest.approx(5.71e-3, rel=0.01)

    def test_invariant_under_joint_current_scaling(self, reference_circuit):
        import dataclasses

        kappa = 3.7
        scaled = dataclasses.replace(reference_circuit, I_c=kappa * reference_circuit.I_c)
        assert effective_length(scaled) == pytest.approx(
            effective_length(reference_circuit) / kappa, rel=1e-12, abs=0.0
        )


class TestDriveSpectrum:
    def test_hard_ratio_bound(self, reference_circuit):
        c = reference_circuit
        with pytest.raises(RealizabilityError, match="hard bound"):
            DriveSpectrum(a0=2.0 * c.E_J0, a=[1.2 * c.E_J0], b=[0.0], omega_d=1e11)

    def test_soft_ratio_warns(self, reference_circuit):
        c = reference_circuit
        with pytest.warns(DriveWarning):
            DriveSpectrum(a0=2.0 * c.E_J0, a=[0.7 * c.E_J0], b=[0.0], omega_d=1e11)

    def test_soft_ratio_warning_names_the_caller(self, reference_circuit):
        # Not the `<string>` of the generated __init__: the line that built it.
        c = reference_circuit
        with pytest.warns(DriveWarning) as record:
            DriveSpectrum(a0=2.0 * c.E_J0, a=[0.7 * c.E_J0], b=[0.0], omega_d=1e11)
        assert record[0].filename == __file__

    def test_reconstruction(self, reference_circuit):
        d = single_tone_drive(reference_circuit, TWO_PI * 18e9)
        t = np.linspace(0.0, 2.0 * math.pi / d.omega_d, 64)
        expected = 0.5 * d.a0 + d.a[0] * np.cos(d.omega_d * t)
        np.testing.assert_allclose(d.e_j(t), expected, rtol=1e-14)
        np.testing.assert_allclose(d.e_j(t) - 0.5 * d.a0, expected - 0.5 * d.a0, atol=1e-30)

    def test_no_harmonics_is_the_bias(self):
        d = DriveSpectrum(a0=4.0, a=[], b=[], omega_d=1e11)
        assert d.n_max == 0
        assert d.e_j(0.1 / d.omega_d) == 2.0
        np.testing.assert_array_equal(d.e_j(np.linspace(0.0, 1e-10, 5)), 2.0)

    def test_coefficient_length_mismatch_rejected(self, reference_circuit):
        a0 = 2.0 * reference_circuit.E_J0
        with pytest.raises(ValueError, match="length"):
            DriveSpectrum(a0=a0, a=[0.1 * a0, 0.1 * a0], b=[0.1 * a0], omega_d=1e11)

    @staticmethod
    def count_probes(monkeypatch) -> list:
        calls = []
        probe = DriveSpectrum._probe_times

        def spy(self, *args, **kwargs):
            calls.append(1)
            return probe(self, *args, **kwargs)

        monkeypatch.setattr(DriveSpectrum, "_probe_times", spy)
        return calls

    def test_positivity_bound_skips_sampling(self, reference_circuit, monkeypatch):
        probes = self.count_probes(monkeypatch)
        a0 = 2.0 * reference_circuit.E_J0
        # sum |c_n| = 0.4 a0 < a0/2: E_J(t) >= 0.1 a0 everywhere.
        d = DriveSpectrum(a0=a0, a=[0.2 * a0, 0.0], b=[0.0, 0.2 * a0], omega_d=1e11)
        assert probes == []
        assert float(np.min(d.e_j(d._probe_times()))) > 0.0

    def test_inconclusive_bound_samples_and_accepts(self, reference_circuit, monkeypatch):
        probes = self.count_probes(monkeypatch)
        a0 = 2.0 * reference_circuit.E_J0
        # sum |c_n| = 0.6 a0 > a0/2, yet min E_J(t) = 0.1625 a0 > 0.
        with pytest.warns(DriveWarning):
            d = DriveSpectrum(a0=a0, a=[0.3 * a0, 0.3 * a0], b=[0.0, 0.0], omega_d=1e11)
        assert probes == [1]
        assert d.n_max == 2

    def test_inconclusive_bound_samples_and_rejects(self, reference_circuit, monkeypatch):
        probes = self.count_probes(monkeypatch)
        a0 = 2.0 * reference_circuit.E_J0
        # cos x + cos 2x + cos 3x reaches -1.316, so E_J(t) dips below zero.
        with pytest.warns(DriveWarning), pytest.raises(
            RealizabilityError, match="not strictly positive"
        ):
            DriveSpectrum(a0=a0, a=[0.5 * a0] * 3, b=[0.0] * 3, omega_d=1e11)
        assert probes == [1]

    def test_harmonic_magnitudes(self, reference_circuit):
        c = reference_circuit
        d = DriveSpectrum(
            a0=2.0 * c.E_J0,
            a=[0.1 * c.E_J0, 0.0],
            b=[0.05 * c.E_J0, 0.02 * c.E_J0],
            omega_d=1e11,
        )
        np.testing.assert_allclose(
            d.harmonic_magnitudes,
            [math.hypot(0.1, 0.05) * c.E_J0, 0.02 * c.E_J0],
        )


class TestTrajectoryToDrive:
    def test_linear_map_single_cosine(self, reference_circuit):
        # SM trajectory z = -R cos maps to a_1 = -(R / L_eff0) * E_J0
        c = reference_circuit
        leff0 = effective_length(c)
        wd = TWO_PI * 18e9
        eps = 0.05
        p = TrajectoryParams(TrajectoryKind.SM, eps * leff0 * wd**2, wd, c.v)
        d = trajectory_to_drive(p, c, n_max=3)
        assert d.a0 == pytest.approx(2.0 * c.E_J0, rel=1e-14, abs=0.0)
        assert d.a[0] == pytest.approx(-eps * c.E_J0, rel=1e-9, abs=0.0)
        assert np.max(np.abs(d.a[1:])) < 1e-12 * c.E_J0
        assert np.max(np.abs(d.b)) < 1e-12 * c.E_J0

    def test_vanishing_amplitude_leaves_only_bias(self, reference_circuit):
        c = reference_circuit
        wd = TWO_PI * 18e9
        p = TrajectoryParams(TrajectoryKind.SM, 1e-12 * wd**2, wd, c.v)  # R = 1 pm
        d = trajectory_to_drive(p, c, n_max=3)
        assert np.max(np.abs(d.a)) < 1e-8 * d.a0
        assert d.a0 == pytest.approx(2.0 * c.E_J0)

    def test_comparison_point_harmonics_decay(
        self, sa_comparison, sa_comparison_circuit
    ):
        d = trajectory_to_drive(sa_comparison, sa_comparison_circuit, n_max=3)
        mags = d.harmonic_magnitudes
        power = mags**2
        assert np.sum(power) > 0
        # odd-harmonic waveform: n=2 empty, n=3 well below n=1
        assert mags[1] < 1e-10 * mags[0]
        assert mags[2] < 0.1 * mags[0]
        assert np.sum(power[:3]) / np.sum(power) >= 0.99

    def test_normalized_first_harmonic(self, sa_comparison, sa_comparison_circuit):
        d = trajectory_to_drive(sa_comparison, sa_comparison_circuit, n_max=3)
        assert d.harmonic_magnitudes[0] / d.a0 == pytest.approx(0.125, rel=1e-6)

    def test_overdriven_trajectory_rejected(self, reference_circuit):
        # baseline bias (L_eff0 ~ 0.44 mm) cannot follow a millimeter-scale wall
        import dataclasses

        c = dataclasses.replace(reference_circuit, EJ0_ratio=1.3)
        wd = TWO_PI * 14.6e9
        p = TrajectoryParams(TrajectoryKind.SA, 13.725e18, wd, c.v)
        with pytest.raises(RealizabilityError):
            trajectory_to_drive(p, c, n_max=3)

    def test_depth_check_runs_before_the_projection(
        self, sa_comparison, sa_comparison_circuit, reference_circuit, monkeypatch
    ):
        # The depth check needs only z(t): a too-deep point fails before
        # its Fourier coefficients are computed, with the same message.
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return fourier_decompose(*args, **kwargs)

        monkeypatch.setattr(circuit, "fourier_decompose", spy)
        with pytest.raises(
            RealizabilityError,
            match=r"^trajectory amplitude \S+ m is \S+ of the effective length \S+ m; "
            r"exceeds the 0\.5 margin$",
        ):
            trajectory_to_drive(sa_comparison, reference_circuit, n_max=3)
        assert calls == []
        trajectory_to_drive(sa_comparison, sa_comparison_circuit, n_max=3)
        assert calls == [1]

    def test_aliasing_warns_once_from_the_package(self, sm_baseline, reference_circuit):
        # With n_max = 1 the top harmonic holds all the power.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trajectory_to_drive(sm_baseline, reference_circuit, n_max=1)
        assert [(w.category, str(w.message)) for w in caught] == [(
            AliasingWarning,
            "harmonic n=1 still carries 100.00% of the harmonic power; "
            "the requested truncation may alias",
        )]
        assert Path(caught[0].filename).parent == Path(circuit.__file__).parent

    def test_baseline_drive_does_not_warn(self, sm_baseline, reference_circuit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trajectory_to_drive(sm_baseline, reference_circuit, n_max=3)

    @pytest.mark.parametrize("n_max", [-1, 513, 600, 3.0])
    def test_harmonic_count_bound(self, sm_baseline, reference_circuit, n_max):
        # The bound and text of SweepSpec: the synthesis grid needs 8
        # samples per harmonic.
        with pytest.raises(ValueError) as info:
            trajectory_to_drive(sm_baseline, reference_circuit, n_max=n_max)
        assert str(info.value) == f"n_max must be an integer in [0, 512], got {n_max!r}"

    def test_harmonic_count_at_the_bound(self, sm_baseline, reference_circuit):
        d = trajectory_to_drive(sm_baseline, reference_circuit, n_max=512)
        assert d.n_max == 512


class TestExternalFlux:
    def test_full_bias_gives_zero_flux(self, reference_circuit):
        import dataclasses

        c = dataclasses.replace(reference_circuit, EJ0_ratio=2.0)  # E_J(t) = 2 E_J
        d = DriveSpectrum(a0=2.0 * c.E_J0, a=[0.0], b=[0.0], omega_d=1e11)
        assert external_flux(d, c, 0.0) == pytest.approx(0.0, abs=1e-20)

    def test_zero_energy_gives_half_quantum(self, reference_circuit):
        import dataclasses

        c = dataclasses.replace(reference_circuit, EJ0_ratio=1e-6)
        d = DriveSpectrum(a0=2.0 * c.E_J0, a=[0.0], b=[0.0], omega_d=1e11)
        assert external_flux(d, c, 0.0) == pytest.approx(PHI0 / 2.0, rel=1e-5, abs=0.0)

    def test_static_reference_bias(self, reference_circuit):
        d = DriveSpectrum(
            a0=2.0 * reference_circuit.E_J0, a=[0.0], b=[0.0], omega_d=1e11
        )
        phi = external_flux(d, reference_circuit, 0.3e-11)
        assert phi == pytest.approx(PHI0 / math.pi * math.acos(0.65), rel=1e-12, abs=0.0)
        assert phi == pytest.approx(0.2735 * PHI0, rel=0.01, abs=0.0)

    def test_domain_violation_reports_time_and_value(self, reference_circuit):
        import dataclasses

        c = dataclasses.replace(reference_circuit, EJ0_ratio=1.9)
        d = single_tone_drive(c, TWO_PI * 18e9, ratio=0.125)
        # 1.9 * 1.125 = 2.1375 > 2: leaves the arccos domain near t = pi/wd... t=0
        with pytest.raises(RealizabilityError, match="outside"):
            external_flux(d, c, np.linspace(0.0, 1e-10, 32))

    def test_round_trip_through_flux(self, sa_comparison, sa_comparison_circuit):
        c = sa_comparison_circuit
        d = trajectory_to_drive(sa_comparison, c, n_max=3)

        phi = external_flux(d, c, circuit._synthesis_grid(d.omega_d))
        e_j = 2.0 * c.E_J * np.cos(math.pi * phi / PHI0)
        a, b = fourier_decompose(e_j, d.omega_d, n_max=3)
        assert 2.0 * float(np.mean(e_j)) == pytest.approx(d.a0, rel=1e-9, abs=0.0)
        np.testing.assert_allclose(a, d.a, rtol=1e-6, atol=1e-9 * d.a0)
        np.testing.assert_allclose(b, d.b, rtol=1e-6, atol=1e-9 * d.a0)


class TestEffectiveLengthModulation:
    def test_linearization_error_is_quadratic(self, reference_circuit):
        c = reference_circuit
        leff0 = effective_length(c)
        wd = TWO_PI * 18e9

        def max_deviation(ratio):
            d = single_tone_drive(c, wd, ratio=ratio)
            t = np.linspace(0.0, TWO_PI / wd, 512)
            exact = (c.phi0 / TWO_PI) ** 2 / (c.L0 * d.e_j(t))
            linear = leff0 * (1.0 - (d.e_j(t) - 0.5 * d.a0) / c.E_J0)
            return float(np.max(np.abs(exact - linear)))

        dev_full = max_deviation(0.2)
        dev_half = max_deviation(0.1)
        assert dev_full / dev_half >= 3.5

    def test_reference_modulation_depth(self, reference_circuit):
        # a_1 = a0/8 gives delta L_eff = L_eff0 / 4 ~ 0.11 mm
        c = reference_circuit
        leff0 = effective_length(c)
        d = single_tone_drive(c, TWO_PI * 18e9)
        delta = leff0 * d.a[0] / c.E_J0
        assert delta == pytest.approx(leff0 / 4.0, rel=1e-12, abs=0.0)
        assert delta == pytest.approx(0.11e-3, rel=0.01)


class TestValidate:
    def test_reference_configuration_passes(self, sm_baseline, reference_circuit):
        d = trajectory_to_drive(sm_baseline, reference_circuit, n_max=3)
        report = validate(
            d,
            reference_circuit,
            omega_probe=np.array([0.5 * sm_baseline.omega_d]),
            temperature=0.0,
        )
        assert report.ok, str(report)

    def test_report_lists_every_row_with_a_line_in_table_order(
        self, sm_baseline, reference_circuit, sa_comparison, sa_comparison_circuit
    ):
        # The wall speed is no row: TrajectoryParams rejects SM at v first.
        d = trajectory_to_drive(sm_baseline, reference_circuit, n_max=3)
        report = validate(
            d, reference_circuit,
            omega_probe=np.array([0.5 * sm_baseline.omega_d]), temperature=0.025,
        )
        assert str(report).splitlines() == [
            "[pass] bias_floor: E_J^0/E_J = 1.3 (floor 0.1)",
            "[pass] below_plasma: drive fundamental and probe frequencies below the plasma frequency",
            "[warn] harmonics_below_plasma: top drive harmonic at 54 GHz vs plasma 37.3 GHz",
            "[warn] short_effective_length: k_omega * L_eff^0 = 0.416 (first-order accuracy needs << 1)",
            "[pass] perturbative_drive: max |c_n|/a0 = 0.125",
            "[pass] cold_input: k_B T / (hbar omega_d) = 0.0289",
        ]
        d = trajectory_to_drive(sa_comparison, sa_comparison_circuit, n_max=3)
        report = validate(
            d, sa_comparison_circuit,
            omega_probe=np.array([0.5 * sa_comparison.omega_d]), temperature=0.3,
        )
        assert [(ch.name, ch.status) for ch in report.checks] == [
            ("bias_floor", "pass"), ("below_plasma", "pass"), ("harmonics_below_plasma", "warn"),
            ("short_effective_length", "warn"), ("perturbative_drive", "pass"), ("cold_input", "warn"),
        ]
        assert report.checks[-1].message == "k_B T / (hbar omega_d) = 0.428"

    @staticmethod
    def eight_point_grid(c):
        # Eight points: clean (0, 7), warning only (1-3), and failing an error
        # row (4: depth, 5: harmonic ratio, 6: tuning ceiling) while crossing
        # warning rows too.
        ratio = np.array([[0.1, 0.0, 0.005], [0.1, 0.0, 0.02], [0.28, 0.0, 0.0], [0.3, 0.0, 0.1],
                          [0.3, 0.0, 0.1], [0.6, 0.0, 0.1], [0.3, 0.0, 0.0], [0.2, 0.0, 0.0]])
        depth = np.array([0.2, 0.2, 0.2, 0.2, 0.6, 0.2, 0.2, 0.1])
        bias = np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.9, 0.5])
        leff = 1e-4 / bias
        return circuit._Quantities(
            ratio=ratio, A=np.full(8, 1e18), omega_d=np.full(8, 2e11), c=c,
            bias=bias, leff=leff, z_peak=depth * leff,
        )

    def test_grid_judgement_keeps_its_failures_and_warnings(self, reference_circuit):
        # A failed point does not warn; the rest warn row by row, in point
        # order. The lists are the ones the table gave before warning texts
        # were formatted at unfailed points only.
        q = self.eight_point_grid(reference_circuit)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            failed = circuit._judge(q)
        assert [(i, error.__name__, text) for i, (error, text) in failed.items()] == [
            (4, "RealizabilityError", "trajectory amplitude 0.00012 m is 0.6 of the effective "
             "length 0.0002 m; exceeds the 0.5 margin"),
            (6, "RealizabilityError", "peak E_J(t) = 9.38e-22 J exceeds the flux-tuning ceiling "
             "2 E_J = 8.228e-22 J"),
            (5, "RealizabilityError", "harmonic ratio |c_n|/a0 = 0.6 exceeds the hard bound 0.5"),
        ]
        assert [(w.category.__name__, str(w.message)) for w in caught] == [
            ("AliasingWarning", "harmonic n=3 still carries 3.85% of the harmonic power; "
             "the requested truncation may alias"),
            ("AliasingWarning", "harmonic n=3 still carries 10.00% of the harmonic power; "
             "the requested truncation may alias"),
            ("DriveWarning", "harmonic ratio |c_n|/a0 = 0.28 exceeds 0.25; first-order "
             "treatment degrades"),
            ("DriveWarning", "harmonic ratio |c_n|/a0 = 0.3 exceeds 0.25; first-order "
             "treatment degrades"),
        ]

    def test_each_point_judged_alone_gives_the_grids_failure_and_warnings(
        self, reference_circuit
    ):
        # One point at a time takes the unbroadcast path of `_crossings`: its
        # scalar fields and 1-d ratio must give the texts the grid gives there.
        grid = self.eight_point_grid(reference_circuit)
        by_point, failed = [], {}
        for i in range(8):
            point = circuit._Quantities(
                ratio=grid.ratio[i], A=float(grid.A[i]), omega_d=float(grid.omega_d[i]),
                c=reference_circuit, bias=float(grid.bias[i]), leff=float(grid.leff[i]),
                z_peak=float(grid.z_peak[i]),
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                failed.update({i: f for f in circuit._judge(point).values()})
            by_point += [(i, w.category, str(w.message)) for w in caught]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert failed == circuit._judge(grid)
        assert [i for i, _, _ in by_point] == [1, 2, 3, 3]
        # The grid warns row by row: sorted by row, the points' warnings are its own.
        rows = [AliasingWarning, DriveWarning]
        assert sorted(by_point, key=lambda w: rows.index(w[1])) == [
            (i, w.category, str(w.message))
            for i, w in zip([1, 3, 2, 3], caught)
        ]

    @pytest.mark.parametrize("rows", [
        ("drive_depth", "tuning_ceiling"), ("aliasing",), ("harmonic_ratio", "perturbative_drive"),
    ])
    def test_one_point_judgement_does_not_broadcast(self, reference_circuit, monkeypatch, rows):
        # The scalar drive path judges one point per call; it takes no
        # broadcast and no flatnonzero, whatever the row.
        leff = effective_length(reference_circuit)
        point = circuit._Quantities(
            ratio=np.array([0.3, 0.01, 0.02]), omega_d=2e11, c=reference_circuit,
            bias=reference_circuit.EJ0_ratio, leff=leff, z_peak=0.6 * leff,
        )
        for name in ("broadcast_to", "flatnonzero"):
            monkeypatch.setattr(circuit.np, name, None)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            assert list(circuit._judge(point, circuit._rows(*rows))) in ([], [0])

    def test_sm_amplitude_bound_at_max_frequency(self, reference_circuit):
        # at a 40 GHz drive the subluminal wall caps the amplitude near 0.4775 mm
        wd = TWO_PI * 40e9
        r_max = reference_circuit.v / wd
        assert r_max == pytest.approx(0.4775e-3, rel=2e-3)
        with pytest.raises(ValueError):
            TrajectoryParams(TrajectoryKind.SM, 0.478e-3 * wd**2, wd, reference_circuit.v)
        TrajectoryParams(TrajectoryKind.SM, 0.476e-3 * wd**2, wd, reference_circuit.v)

    def test_bias_floor_flagged(self, sa_comparison, reference_circuit):
        import dataclasses

        c = dataclasses.replace(reference_circuit, EJ0_ratio=0.05)
        d = single_tone_drive(c, sa_comparison.omega_d)
        report = validate(d, c)
        assert not report.ok
        assert any(ch.name == "bias_floor" for ch in report.failures)

    def test_probe_above_plasma_fails(self, sm_baseline, reference_circuit):
        d = trajectory_to_drive(sm_baseline, reference_circuit, n_max=3)
        report = validate(
            d,
            reference_circuit,
            omega_probe=np.array([1.5 * reference_circuit.omega_s]),
        )
        assert any(ch.name == "below_plasma" for ch in report.failures)

    def test_harmonics_above_plasma_warn_only(
        self, sa_comparison, sa_comparison_circuit
    ):
        # 3 x 14.6 GHz = 43.8 GHz sits above the 37.3 GHz plasma frequency
        d = trajectory_to_drive(sa_comparison, sa_comparison_circuit, n_max=3)
        report = validate(d, sa_comparison_circuit)
        assert report.ok
        assert any(ch.name == "harmonics_below_plasma" for ch in report.warnings)

    def test_warm_bath_warns(self, sm_baseline, reference_circuit):
        d = trajectory_to_drive(sm_baseline, reference_circuit, n_max=3)
        hot = 0.3 * 1.0545718176461565e-34 * sm_baseline.omega_d / 1.380649e-23
        report = validate(d, reference_circuit, temperature=hot)
        assert any(ch.name == "cold_input" for ch in report.warnings)
        cold = validate(d, reference_circuit, temperature=0.025)
        assert not any(ch.name == "cold_input" for ch in cold.warnings)


class TestFluxWaveformExport:
    def test_two_column_csv(self, sm_baseline, reference_circuit, tmp_path):
        d = trajectory_to_drive(sm_baseline, reference_circuit, n_max=3)
        out = tmp_path / "flux.csv"
        export_flux_waveform(d, reference_circuit, out, samples_per_period=64, periods=2)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,phi_ext"
        assert len(lines) == 1 + 64 * 2
        t, phi = zip(*(map(float, ln.split(",")) for ln in lines[1:]))
        assert all(0.0 <= p <= PHI0 / 2.0 for p in phi)
        assert t[1] - t[0] == pytest.approx(
            coordinate_period(sm_baseline) / 64.0, rel=1e-12, abs=0.0
        )

    def test_rerun_is_byte_identical(self, sm_baseline, reference_circuit, tmp_path):
        d = trajectory_to_drive(sm_baseline, reference_circuit, n_max=3)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        export_flux_waveform(d, reference_circuit, out1)
        export_flux_waveform(d, reference_circuit, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_parameter_validation(self, sm_baseline, reference_circuit, tmp_path):
        d = trajectory_to_drive(sm_baseline, reference_circuit, n_max=3)
        with pytest.raises(ValueError):
            export_flux_waveform(d, reference_circuit, tmp_path / "x.csv", periods=0)
