"""Adaptive controller: pacing arithmetic, decode-log age accounting,
block-length prediction, branch logic, and the slotted engine."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agefec import adaptive_sampling
from agefec.adaptive_sampling import (
    ADAPTIVE_COLUMNS,
    AdaptiveController,
    AdaptiveIntervalStats,
    AdaptiveSamplingState,
    _AdaptiveSender,
    interval_age_violation,
    monitoring_interval_length,
    packet_delivery_ratio,
    process_interval,
    round_half_up,
    run_adaptive_flows,
    run_sim,
    sampling_interval,
    select_block_length,
    sigma_ceiling,
)
from agefec.analysis import decode_probability, expected_violation_fraction
from agefec.core import CodingParams, LossModel, ParameterError
from agefec.netsim import Interval, SimConfig

from _oracles import slot_violation_count

BRANCHES = {"1", "2", "3", "4", "5a", "5b", "5c", "5d", "6a", "6b"}


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.49) == 1
    assert round_half_up(2.5) == 3
    assert round_half_up(13.2) == 13
    assert round_half_up(0.0) == 0


def test_sigma_ceiling():
    assert sigma_ceiling(3, 5) == pytest.approx(2.6)  # [13.2] / 5
    assert sigma_ceiling(4, 5) == pytest.approx(3.6)  # [17.6] / 5
    assert sigma_ceiling(3, 2) == pytest.approx(6.5)


def test_sampling_interval():
    assert sampling_interval(4, 2.0) == 2
    assert sampling_interval(4, 2.6) == 2  # [1.538]
    assert sampling_interval(4, 10.0) == 1  # floored at one slot
    assert sampling_interval(9, 2.0) == 5  # [4.5] rounds up
    with pytest.raises(ParameterError):
        sampling_interval(4, 0.0)


def test_monitoring_interval_length():
    assert monitoring_interval_length(5, 4) == 125
    assert monitoring_interval_length(5, 9) == 56  # [55.6]
    assert monitoring_interval_length(2, 3) == 67
    assert monitoring_interval_length(1, 300) == 1


def test_packet_delivery_ratio():
    assert packet_delivery_ratio(5, 10) == 0.5
    assert packet_delivery_ratio(11, 10) == 1.0  # duplicates cannot push past 1
    assert packet_delivery_ratio(0, 10) == 0.0
    assert packet_delivery_ratio(3, 0) == 0.0


def test_interval_violation_hand_case():
    # decodes at (gen 4, slot 8) and (gen 9, slot 12) with threshold 5:
    # slots 6,7,8 violate on the old generation, 10,11,12 on the next
    entries = [(0, 0), (4, 8), (9, 12)]
    assert interval_age_violation(entries, interval_start=0, avt=5) == 6.0
    assert slot_violation_count(entries, 0, 5) == 6


def test_interval_violation_discounts_previous_interval():
    # seed decode long before the interval: pre-interval violations are
    # subtracted, so a decode-free interval can come out negative
    entries = [(0, 0)]
    assert interval_age_violation(entries, interval_start=20, avt=5) == -15.0


def test_interval_violation_random_logs_match_slot_count():
    rng = random.Random(11)
    checked_exact = 0
    for _ in range(400):
        avt = rng.randrange(1, 9)
        start = rng.randrange(0, 40)
        seed_decode = rng.randrange(0, start + 1)
        seed_gen = seed_decode - rng.randrange(0, 12)
        entries = [(seed_gen, seed_decode)]
        d, g = start, seed_gen
        for i in range(rng.randrange(0, 7)):
            d += rng.randrange(1, 8) if i == 0 else rng.randrange(0, 8)
            d = max(d, g + 1)
            g = rng.randrange(g + 1, d + 1)
            entries.append((g, d))
        raw = interval_age_violation(entries, start, avt)
        want = slot_violation_count(entries, start, avt)
        alpha = abs(min(start - seed_gen, max(start - seed_gen - avt, 0)))
        if start - seed_gen <= avt:
            assert raw == want, (entries, start, avt)
            checked_exact += 1
        else:
            assert abs(raw - want) <= alpha, (entries, start, avt)
    assert checked_exact > 50  # both regimes exercised


def test_select_block_length_is_argmin():
    sigma, pdr, wbar, avt, k = 2.0, 0.8, 2.3, 5, 3
    loss = 1.0 - pdr
    best = select_block_length(k, 3, sigma, pdr, wbar, avt)
    scores = {}
    for n_c in range(k, 3 * k + 1):
        t_s = sampling_interval(n_c, sigma)
        scores[n_c] = expected_violation_fraction(
            decode_probability(k, n_c, loss), t_s, wbar, avt
        )
    assert scores[best] == pytest.approx(min(scores.values()))
    # ties break toward the shortest block
    assert all(scores[n_c] > scores[best] - 1e-12 for n_c in scores)
    assert all(n_c >= best for n_c in scores if abs(scores[n_c] - scores[best]) <= 1e-12)


def test_select_block_length_no_evidence_keeps_current():
    assert select_block_length(3, 7, 2.0, 0.0, 2.0, 5) == 7


def test_select_block_length_custom_candidates():
    got = select_block_length(3, 4, 2.0, 0.8, 2.0, 5, candidates=(4, 6))
    assert got in (4, 6)
    with pytest.raises(ParameterError):
        select_block_length(3, 4, 2.0, 0.8, 2.0, 5, candidates=(2,))


def test_initial_state_clamps_to_band():
    st0 = AdaptiveSamplingState.initial(k=3, n=4, avt=5, rtt_init=2.0)
    assert st0.sigma == pytest.approx(2.6)  # 4.2 clamped to the ceiling
    assert st0.sigma_last == st0.sigma
    assert st0.min_rtt == 2.0
    assert st0.t_s == sampling_interval(4, st0.sigma)
    assert st0.t_tilde == 125
    slow = AdaptiveSamplingState.initial(k=3, n=4, avt=5, rtt_init=10.0)
    assert slow.sigma == pytest.approx(0.99)  # 0.84 clamped to the floor
    free = AdaptiveSamplingState.initial(k=3, n=4, avt=5, rtt_init=0.0)
    assert free.sigma == pytest.approx(2.6)
    with pytest.raises(ParameterError):
        AdaptiveSamplingState.initial(k=3, n=4, avt=5, rtt_init=-1.0)


def base_state(**kw):
    st0 = AdaptiveSamplingState.initial(k=3, n=4, avt=5, rtt_init=2.0)
    return replace(st0, **kw) if kw else st0


def stats(av=0.0, w=2.0, pdr=1.0, min_delay=math.inf):
    return AdaptiveIntervalStats(av_ratio=av, wbar_mi=w, pdr=pdr, min_delay=min_delay)


def test_branch_1_reverts_to_last_rate():
    state = base_state(sigma=2.0, sigma_last=1.7)
    new, branch = process_interval(state, stats(av=0.0, pdr=0.3), avt=5, k=3, candidates=(4,))
    assert branch == "1"
    assert new.sigma == pytest.approx(1.7)
    assert new.sigma_last == new.sigma


def test_branch_2_restarts_from_bandwidth_estimate():
    state = base_state(sigma=1.0, sigma_last=1.0, ef=2, df=True)
    new, branch = process_interval(
        state, stats(av=0.4, w=math.inf, pdr=0.0), avt=5, k=3, sigma_max=10.0
    )
    assert branch == "2"
    assert new.sigma == pytest.approx(2.0 * 1.05 * 4 / 2.0)
    assert new.ef == 0 and new.df is False


def test_controller_step_acts_on_the_worst_flow():
    state = AdaptiveSamplingState.initial(k=3, n=4, avt=5, rtt_init=2.0)
    controller = AdaptiveController(state, k=3, avt=5)
    # Both flows start at their thresholds; flow 1 refreshes later than flow 0.
    decodes = [[(-5, 0), (8, 10)], [(-8, 0), (15, 18)]]
    interval = Interval(0, decodes, delivered=9, delay_sum=18, min_delay=1.0, sent=12)
    raws, ratios, got = controller.step(interval, 20, (5, 8))
    assert raws == [interval_age_violation(decodes[0], 0, 5), interval_age_violation(decodes[1], 0, 8)]
    assert ratios == [0.5, 0.9]
    assert got == AdaptiveIntervalStats(av_ratio=ratios[1], wbar_mi=2.0, pdr=0.75, min_delay=1.0)
    want, branch = process_interval(state, got, avt=5, k=3)
    assert controller.state == want
    assert len(controller.rows) == 1
    row = dict(zip(ADAPTIVE_COLUMNS, controller.rows[0]))
    assert row == {
        "mi": 1, "sigma": want.sigma, "n": want.n, "t_s": want.t_s, "t_tilde": want.t_tilde,
        "av_raw": raws[1], "av_ratio": ratios[1], "wbar_mi": 2.0, "pdr": 0.75, "ef": want.ef,
        "df": int(want.df), "min_rtt": 1.0, "branch": branch,
    }


def test_branch_3_backs_off_under_persistent_violation():
    state = base_state(sigma=2.0, sigma_last=2.0, av_ema=1.0, wbar_ema=8.0)
    new, branch = process_interval(
        state, stats(av=1.0, w=8.0, pdr=0.5), avt=5, k=3, candidates=(4,)
    )
    assert branch == "3"
    assert new.sigma == pytest.approx(2.0 / 1.5 + 0.1)
    assert new.ef == state.ef + 1
    assert new.df is True


def test_branch_4_rate_too_low():
    # violations but delay hugging the floor: not congestion, push up
    state = base_state(sigma=1.0, sigma_last=1.0, av_ema=0.0, ef=1)
    new, branch = process_interval(
        state, stats(av=1.0, w=3.0, pdr=0.5), avt=5, k=3, candidates=(4,)
    )
    assert branch == "4"
    assert new.sigma == pytest.approx(1.5)
    assert new.ef == 0 and new.df is False


def test_branch_3_wins_over_branch_4():
    # both fire on av >= 0.9; persistent congestion must take precedence
    state = base_state(sigma=2.0, sigma_last=2.0, av_ema=1.0, wbar_ema=8.0, min_rtt=10.0)
    new, branch = process_interval(
        state, stats(av=1.0, w=8.0, pdr=0.5), avt=5, k=3, candidates=(4,)
    )
    assert branch == "3"


def test_branch_5a_gentle_probe_on_clean_delivery():
    state = base_state(sigma=1.0, sigma_last=1.0, av_ema=0.5, wbar_ema=2.0)
    new, branch = process_interval(
        state, stats(av=0.1, w=2.0, pdr=0.95), avt=5, k=3, candidates=(4,)
    )
    assert branch == "5a"
    assert new.sigma == pytest.approx(1.0 * (1 + 1 / 4))
    assert new.df is False


def test_branch_5b_near_ceiling():
    state = base_state(sigma=2.5, sigma_last=2.5, av_ema=0.5, wbar_ema=2.0)
    new, branch = process_interval(
        state, stats(av=0.1, w=2.0, pdr=0.95), avt=5, k=3, candidates=(4,)
    )
    assert branch == "5b"
    # increment (2.6 - 2.5 + 0.99 + 1) / (2.6 - 0.99), then the ceiling clamps
    assert new.sigma == pytest.approx(2.6)


def test_branch_5c_cautious_probe():
    state = base_state(sigma=1.0, sigma_last=1.0, av_ema=0.5, wbar_ema=1.0, df=False)
    new, branch = process_interval(
        state, stats(av=0.1, w=2.0, pdr=0.5), avt=5, k=3, candidates=(4,)
    )
    assert branch == "5c"
    # ema folds to 0.18 first; probe adds (0.18 - 0.1) / n
    assert new.sigma == pytest.approx(1.0 + 0.08 / 4)
    assert new.ef == 0


def test_branch_5d_after_deliberate_decrease():
    state = base_state(sigma=1.0, sigma_last=1.0, av_ema=0.5, wbar_ema=1.0, df=True, ef=0)
    new, branch = process_interval(
        state, stats(av=0.1, w=2.0, pdr=0.5), avt=5, k=3, sigma_min=0.5, candidates=(4,)
    )
    assert branch == "5d"
    assert new.sigma == pytest.approx(1.0 - 0.08)
    assert new.ef == 1 and new.df is True


def test_branch_6a_worsening_with_rising_delay():
    state = base_state(sigma=1.0, sigma_last=1.0, av_ema=0.0, wbar_ema=1.0, ef=2)
    new, branch = process_interval(
        state, stats(av=0.5, w=4.0, pdr=0.5), avt=5, k=3, sigma_min=0.5, candidates=(4,)
    )
    assert branch == "6a"
    assert new.sigma == pytest.approx(1.0 - (0.5 - 0.4))
    assert new.df is True and new.ef == 0


def test_branch_6b_worsening_but_draining():
    state = base_state(sigma=1.0, sigma_last=1.0, av_ema=0.0, wbar_ema=5.0, ef=2)
    new, branch = process_interval(
        state, stats(av=0.5, w=1.0, pdr=0.5), avt=5, k=3, candidates=(4,)
    )
    assert branch == "6b"
    assert new.sigma == pytest.approx(1.1)
    assert new.df is False and new.ef == 0


def test_min_rtt_is_monotone():
    state = base_state(min_rtt=4.0)
    new, _ = process_interval(
        state, stats(av=0.1, w=3.0, pdr=0.5, min_delay=2.5), avt=5, k=3, candidates=(4,)
    )
    assert new.min_rtt == 2.5
    newer, _ = process_interval(
        new, stats(av=0.1, w=3.0, pdr=0.5, min_delay=7.0), avt=5, k=3, candidates=(4,)
    )
    assert newer.min_rtt == 2.5


def test_stats_validation():
    with pytest.raises(ParameterError):
        AdaptiveIntervalStats(av_ratio=-0.1, wbar_mi=1.0, pdr=0.5)
    with pytest.raises(ParameterError):
        AdaptiveIntervalStats(av_ratio=0.1, wbar_mi=1.0, pdr=1.5)


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 6),
    n_extra=st.integers(0, 6),
    avt=st.integers(1, 10),
    sigma=st.floats(0.99, 8.0),
    sigma_last=st.floats(0.99, 8.0),
    min_rtt=st.floats(0.1, 10.0),
    av_ema=st.floats(0.0, 1.0),
    wbar_ema=st.floats(0.0, 20.0),
    ef=st.integers(0, 5),
    df=st.booleans(),
    av=st.floats(0.0, 1.0),
    w=st.one_of(st.floats(0.0, 20.0), st.just(math.inf)),
    pdr=st.floats(0.0, 1.0),
    min_delay=st.one_of(st.floats(0.0, 20.0), st.just(math.inf)),
)
def test_process_interval_totality_and_invariants(
    k, n_extra, avt, sigma, sigma_last, min_rtt, av_ema, wbar_ema, ef, df, av, w, pdr, min_delay
):
    n = min(k + n_extra, 3 * k)  # start inside the candidate range
    hi = max(sigma_ceiling(k, avt), 0.99)
    state = AdaptiveSamplingState(
        sigma=min(sigma, hi),
        sigma_last=min(sigma_last, hi),
        min_rtt=min_rtt,
        n=n,
        t_s=sampling_interval(n, min(sigma, hi)),
        t_tilde=monitoring_interval_length(avt, n),
        av_ema=av_ema,
        wbar_ema=wbar_ema,
        ef=ef,
        df=df,
    )
    got = AdaptiveIntervalStats(av_ratio=av, wbar_mi=w, pdr=pdr, min_delay=min_delay)
    new, branch = process_interval(state, got, avt, k)
    assert branch in BRANCHES
    assert 0.99 - 1e-12 <= new.sigma <= hi + 1e-12
    assert new.sigma == new.sigma_last
    assert new.t_s == sampling_interval(new.n, new.sigma)
    assert new.t_tilde == monitoring_interval_length(avt, new.n)
    assert new.t_s >= 1 and new.t_tilde >= 1
    assert k <= new.n <= 3 * k
    assert new.min_rtt == min(state.min_rtt, min_delay)
    assert new.mi == state.mi + 1
    assert new.ef >= 0
    if pdr <= 0.0:
        assert new.n == n


def test_scheduler_pull_in_and_stretch(monkeypatch):
    def quiet(start):
        return Interval(start, [[(-5, 0)]], viol_gt=[0], flow_delivered=[0])

    def pace(t_s):
        monkeypatch.setattr(adaptive_sampling, "sampling_interval", lambda n, sigma: t_s)

    pace(10)
    sender = _AdaptiveSender(adaptive_config(), (5,), None)
    assert len(sender.emit(1)) == 1
    assert sender.next_send == [11]
    pace(3)
    sender.boundary(5, quiet(0))
    assert sender.next_send == [8]  # shorter interval pulls the next send in
    pace(20)
    sender.boundary(6, quiet(5))
    assert sender.next_send == [8]  # longer one never delays a pending send
    assert sender.emit(7) == []
    assert len(sender.emit(8)) == 1
    assert sender.next_send == [28]  # and stretches the gaps after it


def adaptive_config(**kw):
    base = dict(
        coding=CodingParams(3, 4),
        avt=5,
        loss=LossModel(0.1, 0.1),
        duration=10_000,
        rng_seed=0,
    )
    base.update(kw)
    return SimConfig(**base)


def test_run_sim_schema_and_determinism():
    res = run_sim(adaptive_config())
    assert res.schema == "adaptive-sampling-interval/1"
    assert res.columns == ADAPTIVE_COLUMNS
    again = run_sim(adaptive_config())
    assert res.rows == again.rows and res.av == again.av
    cols = {name: i for i, name in enumerate(ADAPTIVE_COLUMNS)}
    for row in res.rows:
        assert row[cols["branch"]] in BRANCHES
        assert 0.99 - 1e-12 <= row[cols["sigma"]] <= 2.6 + 1e-12
        assert 3 <= row[cols["n"]] <= 9
        assert row[cols["av_ratio"]] >= 0.0


def test_run_sim_settles_low_violation():
    res = run_sim(adaptive_config(duration=20_000))
    assert res.av < 0.1
    c = res.counts
    assert (
        c["lost_in"] + c["dropped_buffer"] + c["lost_out"] + c["delivered"]
        + c["in_flight"] + c["queued"]
        == c["injected"]
    )


def test_single_flow_engine_matches_plain_sim():
    cfg = adaptive_config(duration=5_000)
    plain = run_sim(cfg)
    flows = run_adaptive_flows(cfg)
    assert flows.system.rows == plain.rows
    assert flows.system.av == plain.av
    assert flows.flow_rows == []


def test_run_adaptive_flows_validation():
    cfg = adaptive_config(duration=1_000)
    with pytest.raises(ParameterError):
        run_adaptive_flows(cfg, flow_avts=())
    with pytest.raises(ParameterError):
        run_adaptive_flows(cfg, flow_avts=(5, 0))
    with pytest.raises(ParameterError):
        run_adaptive_flows(cfg, flow_avts=(5, 5))  # no allocator
