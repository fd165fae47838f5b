"""Shared domain types for age-aware FEC flow control.

Time is slotted: every duration, generation instant, and delay in this package
is counted in whole slots unless a module says otherwise (the UDP transport
maps one slot to a configurable number of milliseconds).  A source emits one
sample per generation event, a sample is erasure-coded into n chunks of which
any k reconstruct it, and freshness is tracked as age of information: the time
since the generation of the newest sample the receiver can decode.
"""

from __future__ import annotations

from dataclasses import dataclass


SlotTime = int


class ParameterError(ValueError):
    """A configuration or argument value is outside its documented domain."""


class CodingError(ValueError):
    """Base class for erasure-coding failures."""


class InsufficientChunksError(CodingError):
    """Fewer than k distinct chunks were supplied to a decode."""


@dataclass(frozen=True)
class CodingParams:
    """MDS code dimensions: k data chunks, n coded chunks, K payload bits.

    The payload is split into k equal chunks (padded up to a multiple of
    8*k bits), so any k of the n coded chunks recover it exactly.
    """

    k: int
    n: int
    sample_bits: int = 8192

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ParameterError(f"need 1 <= k <= n, got k={self.k} n={self.n}")
        if self.n > 255:
            raise ParameterError(f"n={self.n} exceeds the field size limit of 255")
        if self.sample_bits < 8 or self.sample_bits % 8:
            raise ParameterError(f"sample_bits must be a positive multiple of 8, got {self.sample_bits}")


@dataclass(frozen=True)
class LossModel:
    """Independent per-chunk erasure probabilities before and after the bottleneck."""

    p_in: float
    p_out: float

    def __post_init__(self) -> None:
        for name, p in (("p_in", self.p_in), ("p_out", self.p_out)):
            if not 0.0 <= p <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {p}")


def total_loss_probability(loss: LossModel) -> float:
    """End-to-end chunk loss probability: p_in + (1 - p_in) * p_out."""
    return loss.p_in + (1.0 - loss.p_in) * loss.p_out


class AgeTracker:
    """Receiver-side age of information.

    Age at slot t is t minus the generation slot of the freshest decodable
    sample.  Before anything decodes, the tracker starts at a configurable
    initial age (default: the violation threshold, i.e. the system starts
    stale) and grows by one per slot.
    """

    def __init__(self, avt: int, initial_age: int | None = None) -> None:
        if avt < 1:
            raise ParameterError(f"avt must be >= 1, got {avt}")
        initial = avt if initial_age is None else initial_age
        if initial < 0:
            raise ParameterError(f"initial_age must be >= 0, got {initial}")
        self.avt = avt
        self.initial_age = initial
        self._freshest = -initial  # virtual origin so age(0) == initial_age
        self._last_now = 0

    def step(self, now: SlotTime, newly_decoded_gens=()) -> int:
        """Advance to slot `now`, fold in decode events and return the age."""
        if now <= self._last_now:
            raise ParameterError(f"slots must advance monotonically ({now} after {self._last_now})")
        freshest = self._freshest
        for gen in newly_decoded_gens:
            if gen > now:
                raise ParameterError(f"decoded gen {gen} lies in the future of slot {now}")
            if gen > freshest:
                freshest = gen
        self._freshest = freshest
        self._last_now = now
        return now - freshest


class ReceiverChunkStore:
    """Per-sample bookkeeping of distinct received chunk indices.

    add() reports whether its chunk completed a decodable set (the k-th
    distinct index).  Duplicate (sample, index) pairs are counted but change
    nothing else.  It is the reference model of the decode masks that
    `netsim.run_slots` inlines.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        self.k = k
        self._masks: dict[int, int] = {}
        self.decoded: set[int] = set()
        self.chunks_received = 0
        self.duplicates = 0

    def add(self, sample_id: int, chunk_index: int) -> bool:
        if chunk_index < 0:
            raise ParameterError(f"chunk_index must be >= 0, got {chunk_index}")
        bit = 1 << chunk_index
        masks = self._masks
        mask = masks.get(sample_id, 0)
        if mask & bit:
            self.duplicates += 1
            return False
        self.chunks_received += 1
        mask |= bit
        masks[sample_id] = mask
        if mask.bit_count() == self.k and sample_id not in self.decoded:
            self.decoded.add(sample_id)
            return True
        return False


def serial_diff(a: int, b: int) -> int:
    """Signed distance from 32-bit id `b` to `a` in RFC 1982 serial-number order.

    Positive when `a` is newer than `b`, also across the wrap from 2**32 - 1
    to 0.  RFC 1982 leaves ids exactly 2**31 apart unordered; they map to -2**31.
    """
    return ((a - b + 0x80000000) & 0xFFFFFFFF) - 0x80000000
