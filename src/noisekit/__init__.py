"""Test-driven noise characterization and composite noise models for small
quantum circuits: generate characterization suites, run them on a mock QPU
or recorded counts, estimate readout/gate error parameters, compose spatial
noise models, and select models by total variation distance."""

from .circuit import (
    Circuit,
    DeviceTopology,
    Gate,
    cnot,
    embed_path,
    h,
    identity,
    measure,
    validate,
    x,
)
from .noise import (
    CompositeNoiseModel,
    ReadoutModel,
    VARIANTS,
    apply_readout_to_distribution,
    expand_granularity,
)
from .outcomes import Counts, Distribution
from .simulator import TrajectorySampler, simulate_ideal, simulate_noisy_exact

__all__ = [
    "Circuit",
    "CompositeNoiseModel",
    "Counts",
    "DeviceTopology",
    "Distribution",
    "Gate",
    "ReadoutModel",
    "TrajectorySampler",
    "VARIANTS",
    "apply_readout_to_distribution",
    "cnot",
    "embed_path",
    "expand_granularity",
    "h",
    "identity",
    "measure",
    "simulate_ideal",
    "simulate_noisy_exact",
    "validate",
    "x",
]

__version__ = "0.1.0"
