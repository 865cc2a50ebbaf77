"""mirror-dce: relativistic mirror trajectories on a flux-driven SQUID
boundary, the drive synthesis that realizes them, and the resulting
microwave photon spectra against a thermal input."""

from .circuit import (
    CircuitParams,
    DriveSpectrum,
    RealizabilityError,
    ValidityReport,
    effective_length,
    export_flux_waveform,
    external_flux,
    trajectory_to_drive,
    validate,
)
from .constants import C_LIGHT, HBAR, K_B, PHI0
from .experiments import (
    SelectionCriteria,
    SpectrumDataset,
    SweepAxis,
    SweepSpec,
    read_spectrum_datasets,
    reproduce,
    run_sweep,
    select_parameters,
    worldline_dataset,
    write_spectrum_datasets,
)
from .numerics import (
    FourierSeries,
    ellip_e,
    ellip_f,
    find_root,
    fourier_decompose,
)
from .scattering import (
    ThermalInput,
    output_spectrum,
    reflection,
    temperature_estimator,
    thermal_occupation,
)
from .trajectories import (
    TrajectoryKind,
    TrajectoryParams,
    average_acceleration,
    directional_acceleration,
    position,
    proper_time,
    relativity_estimator,
    solve_acceleration_parameter,
)

__version__ = "0.1.0"
