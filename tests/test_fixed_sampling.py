"""Per-slot sampling policy and the interval feedback controller."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agefec.core import CodingParams, LossModel, ParameterError
from agefec.fixed_sampling import (
    INTERVAL_COLUMNS,
    OMEGA,
    PHI,
    PSI,
    FixedSamplingState,
    IntervalStats,
    SelectionPolicy,
    optimal_selection_probs,
    run_sim,
    select_chunks,
    update_controller,
    _FixedSamplingSender,
)
from agefec.netsim import SimConfig, run_slots, stream

from _oracles import ages_from_decodes

BRANCHES = {"1", "2", "3", "4a", "4b", "5a", "5b"}


def test_selection_probs_fresh_first():
    policy = optimal_selection_probs(2.5, avt=5, m=8)
    assert policy.probs == (1.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert sum(policy.probs) == pytest.approx(2.5)


def test_selection_probs_caps():
    # the threshold caps the sum
    assert sum(optimal_selection_probs(7.0, avt=5, m=8).probs) == pytest.approx(5.0)
    # so does the sample memory
    assert optimal_selection_probs(7.0, avt=9, m=4).probs == (1.0, 1.0, 1.0, 1.0)
    assert sum(optimal_selection_probs(0.0, avt=5, m=4).probs) == 0.0


@given(rate=st.floats(0.0, 12.0), avt=st.integers(1, 10), m=st.integers(1, 12))
def test_selection_probs_sum_invariant(rate, avt, m):
    policy = optimal_selection_probs(rate, avt, m)
    assert sum(policy.probs) == pytest.approx(min(rate, avt, m))
    # mass is front-loaded: probabilities never increase with age
    assert all(a >= b for a, b in zip(policy.probs, policy.probs[1:]))


def test_selection_probs_rejects():
    with pytest.raises(ParameterError):
        optimal_selection_probs(-0.5, 5, 8)
    with pytest.raises(ParameterError):
        optimal_selection_probs(1.0, 0, 8)
    with pytest.raises(ParameterError):
        optimal_selection_probs(1.0, 5, 0)


def test_selection_policy_validation():
    with pytest.raises(ParameterError):
        SelectionPolicy(())
    with pytest.raises(ParameterError):
        SelectionPolicy((0.5, 1.2))


def test_select_chunks_certain_and_skipped():
    policy = SelectionPolicy((1.0, 1.0))
    rng = stream(0, "select")
    got = select_chunks(policy, now=5, n=2, rng=rng)
    assert got == [(5, 0), (5, 1), (4, 0), (4, 1)]
    # before slot 1 there is nothing to send
    assert select_chunks(policy, now=1, n=2, rng=rng) == [(1, 0), (1, 1)]


def test_select_chunks_honors_probability():
    policy = SelectionPolicy((0.6,))
    rng = stream(1, "select")
    hits = sum(
        1 for now in range(1, 5001) if select_chunks(policy, now, 1, rng)
    )
    assert hits / 5000 == pytest.approx(0.6, abs=0.03)


def test_interval_stats_validation():
    with pytest.raises(ParameterError):
        IntervalStats(av_mi=1.2, wbar_mi=1.0)
    with pytest.raises(ParameterError):
        IntervalStats(av_mi=0.5, wbar_mi=-1.0)
    IntervalStats(av_mi=0.0, wbar_mi=math.inf)


def test_initial_state():
    assert FixedSamplingState.initial(n=4, avt=5).sigma == 5.0  # min(8, 5)
    assert FixedSamplingState.initial(n=2, avt=5).sigma == 4.0
    assert FixedSamplingState.initial(n=4, avt=5, rate=1.0).sigma == 1.0
    assert FixedSamplingState.initial(n=4, avt=3, rate=9.0).sigma == 3.0


def step(state, av, w, avt=5, n=4):
    return update_controller(state, IntervalStats(av, w), avt, n)


def test_branch_1_refills_emptied_pipe():
    state = FixedSamplingState(sigma=1.0, ef=2)
    new, branch = step(state, av=0.0, w=0.5)
    assert branch == "1"
    assert new.sigma == pytest.approx(PHI)
    assert new.ef == 0


def test_branch_2_blind_interval_with_high_violations():
    state = FixedSamplingState(sigma=1.0, av_ema=1.0, ef=0)
    new, branch = step(state, av=1.0, w=math.inf)
    assert branch == "2"
    assert new.sigma == pytest.approx(PHI)
    # delay EMA untouched when nothing arrived
    assert new.wbar_ema == state.wbar_ema
    assert new.av_ema == pytest.approx(1.0)


def test_branch_3_congestion_backoff():
    state = FixedSamplingState(sigma=3.0, av_ema=1.0, wbar_ema=10.0)
    new, branch = step(state, av=1.0, w=10.0)
    assert branch == "3"
    assert new.sigma == pytest.approx(3.0 / PHI + 0.1)


def test_branch_4a_improving_with_rising_delay():
    state = FixedSamplingState(sigma=1.0, av_ema=0.5, wbar_ema=2.0)
    new, branch = step(state, av=0.1, w=5.0)
    assert branch == "4a"
    # ema updates first: 0.8*0.1 + 0.2*0.5 = 0.18
    assert new.av_ema == pytest.approx(0.18)
    assert new.wbar_ema == pytest.approx(PSI * 5.0 + (1 - PSI) * 2.0)
    assert new.sigma == pytest.approx(1.0 + (0.18 - 0.1))


def test_branch_4a_increase_capped_at_ten_percent():
    state = FixedSamplingState(sigma=1.0, av_ema=1.0, wbar_ema=2.0)
    new, branch = step(state, av=0.0, w=5.0)
    assert branch == "4a"
    assert new.sigma == pytest.approx(1.1)


def test_branch_4b_improving_and_draining():
    state = FixedSamplingState(sigma=1.0, av_ema=0.5, wbar_ema=2.0, ef=0)
    new, branch = step(state, av=0.1, w=2.0)
    assert branch == "4b"
    assert new.sigma == pytest.approx(1.0 - 0.08)
    assert new.ef == 1


def test_branch_4b_decrease_floored_at_twenty_percent():
    state = FixedSamplingState(sigma=0.1, av_ema=1.0, wbar_ema=5.0)
    new, branch = step(state, av=0.0, w=1.0)
    assert branch == "4b"
    assert new.sigma == pytest.approx(0.02)


def test_branch_5a_worsening_with_rising_delay():
    state = FixedSamplingState(sigma=1.0, av_ema=0.0, wbar_ema=2.0)
    new, branch = step(state, av=0.5, w=5.0)
    assert branch == "5a"
    # ema is 0.4 after the update, so the cut is 0.5 - 0.4
    assert new.sigma == pytest.approx(0.9)


def test_branch_5b_worsening_but_draining():
    state = FixedSamplingState(sigma=1.0, av_ema=0.0, wbar_ema=2.0)
    new, branch = step(state, av=0.5, w=1.0)
    assert branch == "5b"
    assert new.sigma == pytest.approx(1.1)


def test_rate_capped_at_threshold():
    state = FixedSamplingState(sigma=4.9, av_ema=1.0, wbar_ema=2.0)
    new, branch = step(state, av=0.0, w=5.0, avt=5)
    assert branch == "4a"
    assert new.sigma == 5.0


@settings(max_examples=300, deadline=None)
@given(
    sigma=st.floats(0.01, 5.0),
    av_ema=st.floats(0.0, 1.0),
    wbar_ema=st.floats(0.0, 20.0),
    ef=st.integers(0, 5),
    av=st.floats(0.0, 1.0),
    w=st.one_of(st.floats(0.0, 20.0), st.just(math.inf)),
    avt=st.integers(1, 10),
    n=st.integers(1, 12),
)
def test_controller_totality_and_invariants(sigma, av_ema, wbar_ema, ef, av, w, avt, n):
    state = FixedSamplingState(
        sigma=min(sigma, float(avt)), av_ema=av_ema, wbar_ema=wbar_ema, ef=ef
    )
    new, branch = update_controller(state, IntervalStats(av, w), avt, n)
    assert branch in BRANCHES
    assert 0.0 < new.sigma <= avt
    assert new.ef >= 0
    assert new.mi == state.mi + 1
    assert new.av_ema == pytest.approx(OMEGA * av + (1 - OMEGA) * av_ema)
    if math.isinf(w):
        assert new.wbar_ema == wbar_ema
    else:
        assert new.wbar_ema == pytest.approx(PSI * w + (1 - PSI) * wbar_ema)
    # one-interval rate moves are bounded unless a multiplicative branch fired
    if branch in {"4a", "5b"}:
        assert new.sigma <= 1.1 * state.sigma + 1e-12
    if branch in {"4b", "5a"}:
        assert new.sigma >= 0.2 * state.sigma - 1e-12


class RecordingSender(_FixedSamplingSender):
    """The fixed-sampling sender, keeping every Interval it is handed."""

    def __init__(self, config):
        super().__init__(config)
        self.intervals = []

    def boundary(self, t, interval):
        self.intervals.append(interval)
        return super().boundary(t, interval)


def make_config(**kw):
    base = dict(
        coding=CodingParams(3, 4),
        avt=5,
        q_s=3 * 1.4706,
        loss=LossModel(0.1, 0.1),
        duration=10_000,
        monitoring_interval=100,
        initial_rate=1.0,
        rng_seed=0,
    )
    base.update(kw)
    return SimConfig(**base)


def test_run_sim_schema_and_determinism():
    res = run_sim(make_config())
    assert res.schema == "fixed-sampling-interval/1"
    assert res.columns == INTERVAL_COLUMNS
    assert len(res.rows) == 100
    again = run_sim(make_config())
    assert res.rows == again.rows and res.av == again.av
    assert all(row[-1] in BRANCHES for row in res.rows)
    assert all(0.0 < row[1] <= 5.0 for row in res.rows)  # sigma within (0, avt]


def test_run_sim_reaches_low_violation_regime():
    res = run_sim(make_config(duration=20_000))
    assert res.av < 0.05
    assert res.mean_delay < 4.0
    c = res.counts
    assert (
        c["lost_in"] + c["dropped_buffer"] + c["lost_out"] + c["delivered"]
        + c["in_flight"] + c["queued"]
        == c["injected"]
    )


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"loss": LossModel(0.4, 0.3), "initial_age": 0},
        {"q_s": 2.0, "initial_rate": 4.0, "initial_age": 9, "rng_seed": 3},
        {"coding": CodingParams(3, 5), "avt": 3, "monitoring_interval": 7},
    ],
)
def test_violation_counts_match_age_trace(overrides):
    """The engine counts violations per stretch of constant age; the ages are per slot."""
    cfg = make_config(duration=3_000, **overrides)
    res = run_sim(cfg)
    # Decode logs reach a sender only at boundaries, so one interval more
    # covers the slots after the run's last boundary.
    sender = RecordingSender(cfg)
    run_slots(replace(cfg, duration=cfg.duration + cfg.monitoring_interval), sender)
    assert sender.rows[: len(res.rows)] == res.rows
    ages = ages_from_decodes(sender.intervals, 0, cfg.duration)
    assert res.av == sum(a >= cfg.avt for a in ages) / cfg.duration
    assert res.av_strict == sum(a > cfg.avt for a in ages) / cfg.duration
    t_tilde = cfg.monitoring_interval
    for mi, row in enumerate(res.rows, start=1):
        window = ages[(mi - 1) * t_tilde : mi * t_tilde]
        assert row[2] == sum(a > cfg.avt for a in window) / t_tilde
    assert 0.0 < res.av < 1.0
