"""Slotted simulation of the bottleneck path.

The path is: independent pre-queue chunk loss, a FIFO queue with finite
buffer and (possibly fractional) service rate q_s chunks per slot, independent
post-queue loss, then a fixed propagation delay.  Service uses a credit
accumulator so fractional rates average out exactly; a chunk can be served in
the slot it arrives, so the minimum end-to-end delay is 1 + propagation.

Every simulator runs on one slot engine, `run_slots`, which holds the path,
the receiver's decode masks and the age accounting in local variables.
Within a slot it follows a fixed event order: (1) receiver processing of this
slot's deliveries and the age step, (2) the sender's boundary hook when a
monitoring interval completes, (3) the sender's emissions, (4) queue service.
No chunk of generation g arrives after slot g + reach, where reach is the
sender's `horizon` (its oldest codeword age) plus ceil(buffer_capacity / q_s)
plus the path latency plus one.  At interval boundaries the engine drops the
decode masks past that slot, so the masks it holds are bounded by the reach
and the interval length, not by the run length.
`BottleneckPath`, `ReceiverChunkStore` and `AgeTracker` are the reference
models of what the engine inlines.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

from .core import (
    CodingParams,
    LossModel,
    ParameterError,
    SlotTime,
)

SERVICE_RATE_PER_DATA_CHUNK = 1.4706


def stream(seed: int, label: str) -> random.Random:
    """Deterministic named RNG stream (stable across platforms)."""
    return random.Random(f"{seed}/{label}")


@dataclass(frozen=True)
class SimConfig:
    """Parameters shared by every simulation mode.

    q_s defaults to the service rate matched to k data chunks per sample;
    monitoring_interval is the feedback period (the adaptive controller treats
    it as an initial value and recomputes it each interval).
    """

    coding: CodingParams = field(default_factory=lambda: CodingParams(3, 4))
    avt: int = 5
    q_s: float | None = None
    buffer_capacity: int = 5000
    loss: LossModel = field(default_factory=lambda: LossModel(0.1, 0.1))
    propagation_delay: int = 1
    duration: int = 100_000
    monitoring_interval: int = 100
    rng_seed: int = 0
    initial_age: int | None = None
    # Fixed-sampling controller knobs.
    initial_rate: float | None = None
    sample_memory: int | None = None
    # Adaptive-sampling controller knobs.
    rtt_init: float | None = None
    sigma_min: float = 0.99
    sigma_max: float | None = None
    block_candidates: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.avt < 1:
            raise ParameterError(f"avt must be >= 1, got {self.avt}")
        if self.duration < 1:
            raise ParameterError(f"duration must be >= 1, got {self.duration}")
        if self.monitoring_interval < 1:
            raise ParameterError(f"monitoring_interval must be >= 1, got {self.monitoring_interval}")
        if self.buffer_capacity < 1:
            raise ParameterError(f"buffer_capacity must be >= 1, got {self.buffer_capacity}")
        if self.propagation_delay < 0:
            raise ParameterError(f"propagation_delay must be >= 0, got {self.propagation_delay}")
        if self.q_s is not None and self.q_s <= 0:
            raise ParameterError(f"q_s must be > 0, got {self.q_s}")
        if self.initial_age is not None and self.initial_age < 0:
            raise ParameterError(f"initial_age must be >= 0, got {self.initial_age}")

    @property
    def service_rate(self) -> float:
        if self.q_s is not None:
            return self.q_s
        return self.coding.k * SERVICE_RATE_PER_DATA_CHUNK


class BottleneckPath:
    """Erasure channel around a FIFO bottleneck queue.

    Chunks are opaque objects; the path records enqueue slots to measure
    delay.  Loss draws come from two dedicated RNG streams so a change on one
    loss point never perturbs the other.
    """

    def __init__(self, config: SimConfig) -> None:
        self.q_s = config.service_rate
        self.capacity = config.buffer_capacity
        self.p_in = config.loss.p_in
        self.p_out = config.loss.p_out
        self.propagation = config.propagation_delay
        self._rng_in = stream(config.rng_seed, "loss-in")
        self._rng_out = stream(config.rng_seed, "loss-out")
        self._queue: deque = deque()  # (obj, enqueue_slot)
        self._credit = 0.0
        self._pipe: deque = deque()  # (delivery_slot, obj, send_slot)
        self.injected = 0
        self.lost_in = 0
        self.dropped_buffer = 0
        self.lost_out = 0
        self.delivered = 0

    @property
    def occupancy(self) -> int:
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        return len(self._pipe)

    def inject(self, chunks, now: SlotTime) -> None:
        """Offer chunks to the path at slot `now`."""
        queue = self._queue
        rng = self._rng_in.random
        p_in = self.p_in
        for obj in chunks:
            self.injected += 1
            if p_in > 0.0 and rng() < p_in:
                self.lost_in += 1
            elif len(queue) >= self.capacity:
                self.dropped_buffer += 1
            else:
                queue.append((obj, now))

    def advance_slot(self, now: SlotTime) -> None:
        """Serve the queue for one slot; call exactly once per slot after inject."""
        queue = self._queue
        credit = self._credit + self.q_s
        if queue:
            rng = self._rng_out.random
            p_out = self.p_out
            delivery = now + 1 + self.propagation
            pipe = self._pipe
            while credit >= 1.0 and queue:
                obj, enq = queue.popleft()
                credit -= 1.0
                if p_out > 0.0 and rng() < p_out:
                    self.lost_out += 1
                else:
                    pipe.append((delivery, obj, enq))
        # Idle capacity is not banked: credit only carries while work remains.
        self._credit = credit if queue else 0.0

    def deliveries_at(self, now: SlotTime) -> list[tuple[object, int]]:
        """Chunks arriving at slot `now`, each with its end-to-end delay."""
        pipe = self._pipe
        out = []
        while pipe and pipe[0][0] == now:
            _, obj, send_slot = pipe.popleft()
            self.delivered += 1
            out.append((obj, now - send_slot))
        return out

    def conservation_holds(self) -> bool:
        accounted = (
            self.lost_in
            + self.dropped_buffer
            + self.lost_out
            + self.delivered
            + len(self._pipe)
            + len(self._queue)
        )
        return accounted == self.injected


@dataclass
class SimResult:
    """Outcome of one simulated run.

    `av` counts slots with age >= avt (the headline metric); `av_strict`
    counts age > avt, matching the per-interval accounting.  Both are flow
    0's; the `flow_*` lists hold every flow's, indexed by flow, and stay out
    of `summary()`, as does `masks_held_max`, the most decode masks the
    receiver held at once.  Interval rows and their column names feed the
    CSV writers unchanged.
    """

    schema: str
    columns: tuple[str, ...]
    rows: list[tuple]
    av: float
    av_strict: float
    mean_delay: float
    counts: dict[str, int]
    occupancy_max: int
    occupancy_mean: float
    flow_av: list[float]
    flow_av_strict: list[float]
    flow_delivered: list[int]
    flow_decoded: list[int]
    masks_held_max: int

    def summary(self) -> dict:
        out = {
            "av": self.av,
            "av_strict": self.av_strict,
            "mean_delay": self.mean_delay,
            "occupancy_max": self.occupancy_max,
            "occupancy_mean": round(self.occupancy_mean, 6),
        }
        out.update({k: int(v) for k, v in self.counts.items()})
        return out


@dataclass
class Interval:
    """What a receiver measured over one monitoring interval (start, end].

    Per-flow lists are indexed by flow.  `decodes[f]` is flow f's decode log:
    the last refreshing decode (of a newer generation than any before it)
    ahead of the interval, as a (generation, slot) pair, followed by this
    interval's refreshing decodes.  The last two fields only the simulator
    knows; the wire receiver leaves them None.
    """

    start: int
    decodes: list[list[tuple[int, int]]]
    delivered: int = 0
    delay_sum: float = 0  # slots
    min_delay: float = math.inf  # slots, inf when nothing arrived
    sent: int = 0  # chunks offered to the path
    viol_gt: list[int] | None = None  # slots with age > avt
    flow_delivered: list[int] | None = None

    @property
    def mean_delay(self) -> float:
        return self.delay_sum / self.delivered if self.delivered else math.inf


def _slots_from(first: int, last: int, threshold: int) -> int:
    """How many slots in [first, last] lie at or after slot `threshold`."""
    return max(0, last - max(first, threshold) + 1)


def run_slots(config: SimConfig, sender) -> SimResult:
    """Run `sender` over the bottleneck path for config.duration slots.

    The sender holds only its policy; the engine owns the path, the receiver
    and the age accounting of every flow.  A sender provides:

    - `emit(t)`: the codewords leaving at slot t, as (flow, age, sample, n, p)
      tuples in send order.  A codeword carries the sample its flow generated
      `age` slots ago; codewords of samples generated before slot 1 are
      skipped.  `sample` is None when the generation slot identifies the
      sample, else an id unique within the flow.  Each of the n chunks goes
      out with probability p > 0, drawn from the "select" stream when p < 1.
    - `boundary(t, interval)`: called at the end of each monitoring interval
      with an `Interval`; returns the length of the next interval.  The first
      interval is config.monitoring_interval slots long.
    - `flow_avts`: one age threshold per flow.
    - `horizon`: the largest `age` it ever emits.
    - `schema`, `columns` and `rows` for the `SimResult`.

    A chunk leaves at most `horizon` slots after its sample's generation gen,
    is served within ceil(buffer_capacity / q_s) slots counting the one it
    leaves in, and arrives `latency` = 1 + propagation_delay slots later.  So
    none arrives after slot gen + horizon + ceil(buffer_capacity / q_s) +
    latency + 1, a bound with two slots of margin, one of them for rounding
    in the service credit.  Masks are dropped at interval boundaries in
    buckets, one per interval: a bucket holds the masks first created in
    its interval and is tagged with the interval's closing slot, which is at
    or after each of their generations, so samples with serial ids are
    covered too.  A dropped mask could never change again, so no count
    moves.  `masks_held_max` is the most masks held at once.

    The result's `av` and `av_strict` are flow 0's.
    """
    avts = sender.flow_avts
    flow_count = len(avts)
    k = config.coding.k
    duration = config.duration
    q_s = config.service_rate
    capacity = config.buffer_capacity
    p_in, p_out = config.loss.p_in, config.loss.p_out
    latency = 1 + config.propagation_delay
    draw_in = stream(config.rng_seed, "loss-in").random
    draw_out = stream(config.rng_seed, "loss-out").random
    draw_select = stream(config.rng_seed, "select").random
    emit = sender.emit
    reach = sender.horizon + math.ceil(capacity / q_s) + latency + 1

    # Path: queue entries are (mask key, chunk bit, gen, flow, enqueue slot);
    # the pipe holds one (delivery slot, entries) batch per serving slot.
    queue: deque = deque()
    push = queue.append
    pop = queue.popleft
    pipe: deque = deque()
    credit = 0.0
    injected = lost_in = dropped_buffer = lost_out = delivered = 0
    occ_sum = occ_max = 0
    # Receiver: one decode mask per (flow, sample), keyed sample * flow_count + flow.
    # Keys sit in the dict in creation order, so the buckets, (closing slot,
    # mask count) pairs oldest first, cover a prefix of it.
    masks: dict[int, int] = {}
    buckets: deque = deque()
    held = held_max = 0  # masks held after the last drop; most held at once
    initial = [a if config.initial_age is None else config.initial_age for a in avts]
    fresh = [-a for a in initial]  # virtual origin so age(0) == initial age
    # Refreshing decodes as (gen, slot): the last one before the interval,
    # then the interval's own.
    decodes: list[list[tuple[int, int]]] = [[(-a, 0)] for a in initial]
    decoded = [0] * flow_count
    flow_delivered = [0] * flow_count
    delay_sum = 0
    # Age violations are counted per stretch of constant freshest generation
    # g, from the slot it decoded: age >= avt from slot g + avt on.  A stretch
    # is counted when it ends or an interval closes, never slot by slot.
    viol_ge = [0] * flow_count
    viol_gt = [0] * flow_count
    start = 0  # slots up to here are counted
    min_delay = math.inf
    mark_delivered = mark_delay = mark_injected = 0
    mark_viol = [0] * flow_count
    mark_flow = [0] * flow_count

    def count_violations(f: int, last: int) -> None:
        gen, slot = decodes[f][-1]
        first = max(slot, start + 1)
        viol_ge[f] += _slots_from(first, last, gen + avts[f])
        viol_gt[f] += _slots_from(first, last, gen + avts[f] + 1)

    next_boundary = config.monitoring_interval
    for t in range(1, duration + 1):
        if pipe and pipe[0][0] == t:
            batch = pipe.popleft()[1]
            delivered += len(batch)
            # FIFO service: the last chunk of a batch waited least.
            if t - batch[-1][4] < min_delay:
                min_delay = t - batch[-1][4]
            for key, bit, gen, f, sent in batch:
                delay_sum += t - sent
                flow_delivered[f] += 1
                mask = masks.get(key, 0)
                if not mask & bit:
                    mask |= bit
                    masks[key] = mask
                    if mask.bit_count() == k:
                        decoded[f] += 1
                        if gen > fresh[f]:
                            if fresh[f] + avts[f] < t:
                                count_violations(f, t - 1)
                            fresh[f] = gen
                            decodes[f].append((gen, t))

        if t == next_boundary:
            for f in range(flow_count):
                count_violations(f, t)
            interval = Interval(
                start=start,
                decodes=decodes,
                delivered=delivered - mark_delivered,
                delay_sum=delay_sum - mark_delay,
                min_delay=min_delay,
                sent=injected - mark_injected,
                viol_gt=[v - m for v, m in zip(viol_gt, mark_viol)],
                flow_delivered=[d - m for d, m in zip(flow_delivered, mark_flow)],
            )
            decodes = [[log[-1]] for log in decodes]
            next_boundary = t + sender.boundary(t, interval)
            start = t
            mark_delivered, mark_delay, mark_injected = delivered, delay_sum, injected
            mark_viol, mark_flow = viol_gt[:], flow_delivered[:]
            min_delay = math.inf
            # Close this interval's bucket and drop the buckets past reach.
            held_max = max(held_max, len(masks))
            buckets.append((t, len(masks) - held))
            expired = 0
            while buckets[0][0] + reach < t:
                expired += buckets.popleft()[1]
            for key in list(islice(masks, expired)):
                del masks[key]
            held = len(masks)

        for f, age, sample, n, p in emit(t):
            gen = t - age
            if gen < 1:
                continue
            key = (gen if sample is None else sample) * flow_count + f
            for i in range(n):
                if p < 1.0 and draw_select() >= p:
                    continue
                injected += 1
                if p_in > 0.0 and draw_in() < p_in:
                    lost_in += 1
                elif len(queue) >= capacity:
                    dropped_buffer += 1
                else:
                    push((key, 1 << i, gen, f, t))

        credit += q_s
        if queue:
            served = []
            while credit >= 1.0 and queue:
                entry = pop()
                credit -= 1.0
                if p_out > 0.0 and draw_out() < p_out:
                    lost_out += 1
                else:
                    served.append(entry)
            if served:
                pipe.append((t + latency, served))
        occ = len(queue)
        # Idle capacity is not banked: credit only carries while work remains.
        if not occ:
            credit = 0.0
        occ_sum += occ
        if occ > occ_max:
            occ_max = occ

    for f in range(flow_count):
        count_violations(f, duration)
    flow_av = [v / duration for v in viol_ge]
    flow_av_strict = [v / duration for v in viol_gt]
    return SimResult(
        schema=sender.schema,
        columns=sender.columns,
        rows=sender.rows,
        av=flow_av[0],
        av_strict=flow_av_strict[0],
        mean_delay=delay_sum / delivered if delivered else math.inf,
        counts={
            "injected": injected,
            "lost_in": lost_in,
            "dropped_buffer": dropped_buffer,
            "lost_out": lost_out,
            "delivered": delivered,
            "in_flight": sum(len(batch) for _, batch in pipe),
            "queued": len(queue),
        },
        occupancy_max=occ_max,
        occupancy_mean=occ_sum / duration,
        flow_av=flow_av,
        flow_av_strict=flow_av_strict,
        flow_delivered=flow_delivered,
        flow_decoded=decoded,
        masks_held_max=max(held_max, len(masks)),
    )


FIXED_RATE_COLUMNS = ("mi", "av_mi", "wbar_mi", "delivered")


class _FixedRateSender:
    """Whole codewords paced by a credit accumulator, with no feedback."""

    schema = "fixed-rate-interval/1"
    columns = FIXED_RATE_COLUMNS

    def __init__(self, config: SimConfig, rate: float) -> None:
        self.flow_avts = (config.avt,)
        self.horizon = 0
        self.rate = rate
        self.n = config.coding.n
        self.t_tilde = config.monitoring_interval
        self.credit = 0.0
        self.serial = 0  # samples get serial ids so same-slot codewords stay distinct
        self.rows: list[tuple] = []

    def emit(self, t: int) -> list[tuple]:
        self.credit += self.rate
        out = []
        while self.credit >= 1.0:
            self.credit -= 1.0
            self.serial += 1
            out.append((0, 0, self.serial, self.n, 1.0))
        return out

    def boundary(self, t: int, interval: Interval) -> int:
        self.rows.append(
            (len(self.rows) + 1, interval.viol_gt[0] / self.t_tilde, interval.mean_delay, interval.delivered)
        )
        return self.t_tilde


def run_fixed_rate_sim(config: SimConfig, rate: float) -> SimResult:
    """Fixed-rate sender: whole codewords paced at `rate` codewords per slot.

    A credit accumulator emits complete codewords (n chunks of a fresh sample)
    with no feedback and no adaptation; the baseline the controllers are
    measured against, and the load generator for queue-stability checks.
    """
    if rate <= 0:
        raise ParameterError(f"rate must be > 0, got {rate}")
    return run_slots(config, _FixedRateSender(config, rate))
