"""mirror-dce: relativistic mirror trajectories on a flux-driven SQUID
boundary, the drive synthesis that realizes them, and the resulting
microwave photon spectra against a thermal input.

The package namespace holds the names of the README's library example;
everything else is imported from its own module (`mirror_dce.experiments`,
`mirror_dce.circuit`, ...)."""

from .circuit import CircuitParams, trajectory_to_drive
from .scattering import ThermalInput, output_spectrum
from .trajectories import TrajectoryKind, TrajectoryParams, solve_acceleration_parameter

__version__ = "0.1.0"
