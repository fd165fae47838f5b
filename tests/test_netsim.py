"""Slotted bottleneck path: credit service, delays, loss, conservation."""

import math
import random
from dataclasses import replace

import pytest

from agefec import fixed_sampling, multiflow
from agefec.core import AgeTracker, CodingParams, LossModel, ParameterError, ReceiverChunkStore
from agefec.experiments import PRESETS, ExperimentSpec
from agefec.netsim import (
    SERVICE_RATE_PER_DATA_CHUNK,
    BottleneckPath,
    SimConfig,
    run_fixed_rate_sim,
    run_slots,
    stream,
)

from _oracles import ages_from_decodes


def lossless_config(**kw):
    base = dict(
        coding=CodingParams(3, 4),
        loss=LossModel(0.0, 0.0),
        duration=100,
    )
    base.update(kw)
    return SimConfig(**base)


def test_service_rate_default_scales_with_k():
    cfg = lossless_config()
    assert cfg.service_rate == pytest.approx(3 * SERVICE_RATE_PER_DATA_CHUNK)
    assert lossless_config(q_s=2.5).service_rate == 2.5


def test_config_validation():
    with pytest.raises(ParameterError):
        lossless_config(duration=0)
    with pytest.raises(ParameterError):
        lossless_config(q_s=0.0)
    with pytest.raises(ParameterError):
        lossless_config(buffer_capacity=0)
    with pytest.raises(ParameterError):
        lossless_config(propagation_delay=-1)
    with pytest.raises(ParameterError):
        lossless_config(monitoring_interval=0)


def test_stream_is_label_separated():
    a = stream(7, "loss-in")
    b = stream(7, "loss-out")
    c = stream(7, "loss-in")
    seq_a = [a.random() for _ in range(5)]
    assert seq_a != [b.random() for _ in range(5)]
    assert seq_a == [c.random() for _ in range(5)]


def test_credit_accumulator_serves_fractional_rate():
    """q_s = 1.4706 with a backlog serves 1, 1, 2 chunks over three slots."""
    cfg = lossless_config(q_s=1.4706, propagation_delay=1)
    path = BottleneckPath(cfg)
    path.inject([("c", i) for i in range(100)], now=1)
    occupancy = [path.occupancy]
    for t in range(1, 4):
        path.advance_slot(t)
        occupancy.append(path.occupancy)
    served = [before - after for before, after in zip(occupancy, occupancy[1:])]
    assert served == [1, 1, 2]
    assert path.in_flight == 4
    # carried credit after three slots is 3 * 1.4706 - 4
    assert path._credit == pytest.approx(0.4118)


def test_idle_credit_is_not_banked():
    cfg = lossless_config(q_s=0.9)
    path = BottleneckPath(cfg)
    for t in range(1, 6):
        path.advance_slot(t)  # queue empty the whole time
    path.inject([("c", 0)], now=6)
    # no banked credit: first service only once 0.9 * 2 >= 1
    path.advance_slot(6)
    assert (path.occupancy, path.in_flight) == (1, 0)
    path.advance_slot(7)
    assert (path.occupancy, path.in_flight) == (0, 1)
    assert path.deliveries_at(9) == [(("c", 0), 3)]


def test_delivery_delay_floor_is_one_plus_propagation():
    cfg = lossless_config(q_s=10.0, propagation_delay=1)
    path = BottleneckPath(cfg)
    path.inject([("c", 0)], now=5)
    path.advance_slot(5)
    assert path.deliveries_at(6) == []
    got = path.deliveries_at(7)
    assert got == [(("c", 0), 2)]
    assert path.delivered == 1


def test_queueing_adds_to_delay():
    cfg = lossless_config(q_s=1.0, propagation_delay=1)
    path = BottleneckPath(cfg)
    path.inject([("a",), ("b",), ("c",)], now=1)
    for t in range(1, 6):
        path.advance_slot(t)
        for _obj, delay in path.deliveries_at(t):
            pass
    # served at slots 1,2,3 -> delivered at 3,4,5 with delays 2,3,4
    path2 = BottleneckPath(cfg)
    path2.inject([("a",), ("b",), ("c",)], now=1)
    arrivals = []
    for t in range(1, 7):
        path2.advance_slot(t)
        arrivals.extend(path2.deliveries_at(t))
    # FIFO: the chunks leave in injection order, each waiting one slot more
    assert arrivals == [(("a",), 2), (("b",), 3), (("c",), 4)]


def test_buffer_drop_when_full():
    cfg = lossless_config(q_s=1.0, buffer_capacity=3)
    path = BottleneckPath(cfg)
    path.inject([("c", i) for i in range(5)], now=1)
    assert path.injected == 5
    assert path.dropped_buffer == 2
    assert path.occupancy == 3
    assert path.lost_in == 0
    # the first three were queued, the last two dropped
    for t in range(1, 6):
        path.advance_slot(t)
    assert [obj for obj, _ in path.deliveries_at(3)] == [("c", 0)]
    assert [obj for obj, _ in path.deliveries_at(4)] == [("c", 1)]
    assert [obj for obj, _ in path.deliveries_at(5)] == [("c", 2)]


def test_entry_loss_skips_queue_and_service():
    cfg = lossless_config(loss=LossModel(1.0, 0.0))
    path = BottleneckPath(cfg)
    path.inject([("c", i) for i in range(10)], now=1)
    assert path.injected == 10
    assert path.lost_in == 10
    assert path.dropped_buffer == 0
    assert path.occupancy == 0
    path.advance_slot(1)
    assert (path.lost_out, path.in_flight) == (0, 0)


def test_exit_loss_consumes_service():
    cfg = lossless_config(q_s=1.0, loss=LossModel(0.0, 1.0))
    path = BottleneckPath(cfg)
    path.inject([("c", 0), ("c", 1)], now=1)
    path.advance_slot(1)
    # one slot of service spent on a chunk that never arrives
    assert path.lost_out == 1
    assert path.in_flight == 0
    assert path.occupancy == 1
    path.advance_slot(2)
    assert (path.lost_out, path.occupancy) == (2, 0)
    assert path.conservation_holds()


def test_conservation_under_random_traffic():
    rng = random.Random(3)
    for trial in range(20):
        cfg = SimConfig(
            coding=CodingParams(3, 4),
            q_s=rng.uniform(0.5, 6.0),
            buffer_capacity=rng.randrange(1, 40),
            loss=LossModel(rng.uniform(0, 0.5), rng.uniform(0, 0.5)),
            propagation_delay=rng.randrange(0, 4),
            duration=100,
            rng_seed=trial,
        )
        path = BottleneckPath(cfg)
        for t in range(1, 101):
            burst = [(t, i) for i in range(rng.randrange(0, 8))]
            path.inject(burst, t)
            path.advance_slot(t)
            path.deliveries_at(t)
            assert path.conservation_holds()
        assert path.injected > 0


class ScriptedSender:
    """Replays pre-drawn codewords and keeps every Interval it is handed."""

    schema = "scripted/1"
    columns = ()
    horizon = 3  # the oldest age a script holds

    def __init__(self, script, flow_avts, interval=1):
        self.script = script
        self.flow_avts = flow_avts
        self.interval = interval
        self.rows = []
        self.intervals = []

    def emit(self, t):
        return self.script[t]

    def boundary(self, t, interval):
        self.intervals.append(interval)
        return self.interval


def replay_against_reference(cfg, script, avts):
    """Run `script` on the engine and on the reference models; assert they agree.

    The reference replays the engine's traffic chunk by chunk on the same
    seed, including its selection draws from the "select" stream, and every
    Interval, age and counter must match.  Each flow's violation fractions
    are checked against its own threshold.  The reference stores keep every
    mask, while the engine drops expired ones in one bucket per monitoring
    interval.  Returns the engine's masks_held_max and the masks the
    reference holds.
    """
    flows, mi = len(avts), cfg.monitoring_interval
    sender = ScriptedSender(script, avts, mi)
    result = run_slots(cfg, sender)

    path = BottleneckPath(cfg)
    select = stream(cfg.rng_seed, "select").random
    stores = [ReceiverChunkStore(cfg.coding.k) for _ in range(flows)]
    trackers = [AgeTracker(avt, cfg.initial_age) for avt in avts]
    freshest = [-tracker.initial_age for tracker in trackers]
    delivered, decoded = [0] * flows, [0] * flows
    ages, occupancy = [[tracker.initial_age] for tracker in trackers], []
    intervals = iter(sender.intervals)
    injected = 0
    arrivals, refreshed = [], [[] for _ in range(flows)]  # the interval's so far
    for t in range(1, cfg.duration + 1):
        landed = path.deliveries_at(t)
        arrivals += landed
        for (f, sample, index, gen), _delay in landed:
            delivered[f] += 1
            if stores[f].add(sample, index):
                decoded[f] += 1
                if gen > freshest[f]:
                    freshest[f] = gen
                    refreshed[f].append((gen, t))
        for f in range(flows):
            ages[f].append(trackers[f].step(t, [gen for gen, slot in refreshed[f] if slot == t]))
        if t % mi == 0:
            interval = next(intervals)
            assert interval.start == t - mi
            assert interval.sent == path.injected - injected
            injected = path.injected
            assert interval.delivered == len(arrivals)
            assert interval.delay_sum == sum(delay for _, delay in arrivals)
            assert interval.mean_delay == (
                interval.delay_sum / len(arrivals) if arrivals else math.inf
            )
            assert interval.min_delay == min((delay for _, delay in arrivals), default=math.inf)
            for f in range(flows):
                assert interval.decodes[f][1:] == refreshed[f]
                assert interval.flow_delivered[f] == sum(1 for (g, *_), _d in arrivals if g == f)
            arrivals, refreshed = [], [[] for _ in range(flows)]
        chunks = []
        for f, age, sample, n, p in script[t]:
            gen = t - age
            if gen < 1:
                continue
            chunks += [
                (f, gen if sample is None else sample, i, gen)
                for i in range(n)
                if p >= 1.0 or select() < p
            ]
        path.inject(chunks, t)
        path.advance_slot(t)
        occupancy.append(path.occupancy)

    assert next(intervals, None) is None
    assert len(sender.intervals) == cfg.duration // mi
    assert result.counts == {
        "injected": path.injected,
        "lost_in": path.lost_in,
        "dropped_buffer": path.dropped_buffer,
        "lost_out": path.lost_out,
        "delivered": path.delivered,
        "in_flight": path.in_flight,
        "queued": path.occupancy,
    }
    assert result.occupancy_max == max(occupancy)
    assert result.occupancy_mean == sum(occupancy) / cfg.duration
    last = len(sender.intervals) * mi  # the decode logs cover slots up to here
    for f, avt in enumerate(avts):
        assert ages[f][:1] + ages_from_decodes(sender.intervals, f, last) == ages[f][: last + 1]
        assert result.flow_av[f] == sum(a >= avt for a in ages[f][1:]) / cfg.duration
        assert result.flow_av_strict[f] == sum(a > avt for a in ages[f][1:]) / cfg.duration
    assert result.flow_delivered == delivered
    assert result.flow_decoded == decoded
    assert path.injected > 0
    kept = sum(len(store._masks) for store in stores)
    assert result.masks_held_max <= kept
    return result.masks_held_max, kept


def test_engine_matches_reference_models_under_random_traffic():
    """run_slots agrees with BottleneckPath, ReceiverChunkStore and AgeTracker.

    Flows have distinct thresholds.  The last trials use monitoring intervals
    of several slots, so the engine drops masks in buckets of several slots'
    samples.  With k = 1 a mask dropped while a chunk of its sample can still
    arrive would decode that sample again at once.
    """
    rng = random.Random(11)
    pruned = set()  # whether mi > 1, for the trials in which the engine dropped masks
    for trial in range(45):
        flows = rng.choice((1, 2, 3))
        avts = tuple(rng.sample(range(1, 7), flows))
        k = rng.randrange(1, 3)
        mi = 1 if trial < 30 else rng.randrange(2, 12)
        cfg = SimConfig(
            coding=CodingParams(k, 3),
            avt=3,
            q_s=rng.uniform(0.5, 6.0),
            buffer_capacity=rng.randrange(1, 40),
            loss=LossModel(rng.uniform(0, 0.5), rng.uniform(0, 0.5)),
            propagation_delay=rng.randrange(0, 4),
            duration=rng.randrange(50, 200),
            monitoring_interval=mi,
            rng_seed=trial,
            initial_age=rng.choice((None, 0, 1, 2, 3)),
        )
        # Half the trials send fresh codewords with serial ids, half resend
        # recent samples by generation slot, which produces duplicates.
        by_gen = trial % 2 == 0
        script, serial = {}, 0
        for t in range(1, cfg.duration + 1):
            burst = []
            for _ in range(rng.randrange(0, 4)):
                serial += 1
                age = rng.randrange(0, ScriptedSender.horizon + 1) if by_gen else 0
                burst.append(
                    (rng.randrange(flows), age, None if by_gen else serial,
                     rng.randrange(1, 4), rng.choice((1.0, 0.5)))
                )
            script[t] = burst
        held, kept = replay_against_reference(cfg, script, avts)
        if held < kept:
            pruned.add(mi > 1)
    assert pruned == {False, True}


def test_engine_keeps_a_mask_until_its_last_chunk_can_arrive():
    """The latest chunk the path allows still finds its sample's mask.

    Sample 10's first chunk goes out at once and arrives at slot 11, the
    bucket's closing slot.  Its last chunk leaves at the sender's horizon,
    slot 13, behind a buffer's worth of another sample, and waits
    capacity / q_s - 1 slots: it arrives at slot 10 + horizon +
    ceil(capacity / q_s) + latency - 1.  With k = 1 a re-created mask would
    count a second decode.  Sample 30 comes after both earlier masks went.
    """
    capacity, horizon = 8, ScriptedSender.horizon
    cfg = SimConfig(
        coding=CodingParams(1, 3),
        q_s=1.0,
        buffer_capacity=capacity,
        loss=LossModel(0.0, 0.0),
        propagation_delay=0,
        duration=40,
        monitoring_interval=1,
    )
    script = {t: [] for t in range(1, cfg.duration + 1)}
    script[10] = [(0, 0, None, 1, 1.0)]
    script[10 + horizon] = [(0, 0, None, capacity - 1, 1.0), (0, horizon, None, 1, 1.0)]
    script[30] = [(0, 0, None, 1, 1.0)]
    held, kept = replay_against_reference(cfg, script, (3,))
    assert (held, kept) == (2, 3)


@pytest.mark.parametrize("mode", ["fixed-rate", "fixed-sampling", "adaptive-pair"])
def test_held_masks_stay_flat_as_runs_grow(mode):
    """table1-k3n4 holds as many decode masks at once in 100k slots as in 10k.

    A held mask's sample was first seen within the last reach + 2 intervals
    slots: one interval is the span of its bucket, one the wait for the next
    drop.  These senders start at most one sample per flow and slot.
    """
    spec = ExperimentSpec(**PRESETS["table1-k3n4"])
    held = []
    for duration in (10_000, 100_000):
        cfg = replace(spec.sim_config(0), duration=duration)
        if mode == "fixed-rate":
            result, horizon, flows = run_fixed_rate_sim(cfg, 1.0), 0, 1
        elif mode == "fixed-sampling":
            result, horizon, flows = fixed_sampling.run_sim(cfg), cfg.avt - 1, 1
        else:
            result, horizon, flows = multiflow.run_sim(cfg, 2).system, 0, 2
        held.append(result.masks_held_max)
    if "t_tilde" in result.columns:
        column = result.columns.index("t_tilde")
        longest = max(cfg.monitoring_interval, *(row[column] for row in result.rows))
    else:
        longest = cfg.monitoring_interval
    latency = 1 + cfg.propagation_delay
    reach = horizon + math.ceil(cfg.buffer_capacity / cfg.service_rate) + latency + 1
    assert held[0] == held[1] <= flows * (reach + 2 * longest)


def test_fixed_rate_sim_is_deterministic():
    cfg = SimConfig(
        coding=CodingParams(3, 4),
        avt=5,
        loss=LossModel(0.1, 0.1),
        duration=2_000,
        rng_seed=9,
    )
    a = run_fixed_rate_sim(cfg, rate=1.0)
    b = run_fixed_rate_sim(cfg, rate=1.0)
    assert a.rows == b.rows
    assert a.av == b.av
    assert a.counts == b.counts


def test_fixed_rate_sim_seed_changes_outcome():
    cfg = lambda s: SimConfig(
        coding=CodingParams(3, 4),
        avt=5,
        loss=LossModel(0.1, 0.1),
        duration=2_000,
        rng_seed=s,
    )
    a = run_fixed_rate_sim(cfg(0), rate=1.0)
    b = run_fixed_rate_sim(cfg(1), rate=1.0)
    assert a.counts != b.counts


def test_fixed_rate_sim_counts_and_schema():
    cfg = SimConfig(
        coding=CodingParams(3, 4),
        avt=5,
        loss=LossModel(0.1, 0.1),
        duration=1_000,
        monitoring_interval=100,
        rng_seed=2,
    )
    res = run_fixed_rate_sim(cfg, rate=1.0)
    assert res.schema == "fixed-rate-interval/1"
    assert res.columns == ("mi", "av_mi", "wbar_mi", "delivered")
    assert len(res.rows) == 10
    c = res.counts
    assert (
        c["lost_in"] + c["dropped_buffer"] + c["lost_out"] + c["delivered"]
        + c["in_flight"] + c["queued"]
        == c["injected"]
    )
    assert 0.0 <= res.av <= 1.0
    assert res.av_strict <= res.av


def test_fixed_rate_lossless_fast_channel_never_violates():
    cfg = SimConfig(
        coding=CodingParams(3, 4),
        avt=5,
        q_s=50.0,
        loss=LossModel(0.0, 0.0),
        duration=500,
        initial_age=0,
        rng_seed=0,
    )
    res = run_fixed_rate_sim(cfg, rate=1.0)
    # every sample decodes 2 slots after generation, age <= 3 < avt
    assert res.av == 0.0
    assert res.mean_delay == pytest.approx(2.0)
