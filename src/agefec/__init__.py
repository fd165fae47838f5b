"""Age-aware forward-error-correction transport: coding, control, simulation.

The package exports its layers as submodules, plus the codec pair; every
other name is reached through its module, e.g. `agefec.experiments.run_experiment`.
"""

from .coding import decode_payload, encode_payload
from . import adaptive_sampling, analysis, coding, core, experiments, fixed_sampling, multiflow, netsim, wire

__version__ = "0.1.0"

__all__ = [
    "adaptive_sampling",
    "analysis",
    "coding",
    "core",
    "decode_payload",
    "encode_payload",
    "experiments",
    "fixed_sampling",
    "multiflow",
    "netsim",
    "wire",
]
