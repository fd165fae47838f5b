"""Age-aware forward-error-correction transport: coding, control, simulation."""

from .analysis import (
    age_event_prob,
    chunk_missing_prob,
    decode_probability,
    expected_violation_fraction,
    outage_probability,
    rate_upper_bound,
    sample_decode_prob,
)
from .coding import decode_payload, decode_sample, encode_payload, encode_sample
from .core import (
    AgeTracker,
    Chunk,
    CodingError,
    CodingParams,
    InsufficientChunksError,
    LossModel,
    ParameterError,
    ReceiverChunkStore,
    Sample,
    age_violation_rate,
    is_decodable,
    total_loss_probability,
)
from .netsim import BottleneckPath, SimConfig, SimResult, run_fixed_rate_sim
from .fixed_sampling import (
    FixedSamplingState,
    IntervalStats,
    SelectionPolicy,
    optimal_selection_probs,
    select_chunks,
    update_controller,
)
from .adaptive_sampling import (
    AdaptiveController,
    AdaptiveIntervalStats,
    AdaptiveSamplingState,
    interval_age_violation,
    process_interval,
    run_adaptive_flows,
    select_block_length,
)
from .multiflow import MultiflowResult, allocate_rates, fairness_index, raw_allocation
from .wire import ChunkPacket, FeedbackPacket, WireConfig, decode_packet
from .experiments import ExperimentSpec, parse_config, run_experiment
from . import adaptive_sampling, experiments, fixed_sampling, multiflow, wire

__version__ = "0.1.0"

__all__ = [
    "AdaptiveController",
    "AdaptiveIntervalStats",
    "AdaptiveSamplingState",
    "AgeTracker",
    "BottleneckPath",
    "Chunk",
    "ChunkPacket",
    "CodingError",
    "CodingParams",
    "ExperimentSpec",
    "FeedbackPacket",
    "FixedSamplingState",
    "InsufficientChunksError",
    "IntervalStats",
    "LossModel",
    "MultiflowResult",
    "ParameterError",
    "ReceiverChunkStore",
    "Sample",
    "SelectionPolicy",
    "SimConfig",
    "SimResult",
    "WireConfig",
    "adaptive_sampling",
    "age_event_prob",
    "age_violation_rate",
    "allocate_rates",
    "chunk_missing_prob",
    "decode_packet",
    "decode_payload",
    "decode_probability",
    "decode_sample",
    "encode_payload",
    "encode_sample",
    "experiments",
    "expected_violation_fraction",
    "fairness_index",
    "fixed_sampling",
    "interval_age_violation",
    "is_decodable",
    "multiflow",
    "optimal_selection_probs",
    "outage_probability",
    "parse_config",
    "process_interval",
    "rate_upper_bound",
    "raw_allocation",
    "run_adaptive_flows",
    "run_experiment",
    "run_fixed_rate_sim",
    "sample_decode_prob",
    "select_block_length",
    "select_chunks",
    "total_loss_probability",
    "update_controller",
    "wire",
]
