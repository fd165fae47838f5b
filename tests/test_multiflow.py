"""Rate allocation across flows and the shared-bottleneck simulation."""

import random
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agefec.adaptive_sampling import FLOW_COLUMNS, fairness_index
from agefec.core import CodingParams, LossModel, ParameterError
from agefec.multiflow import (
    allocate_rates,
    raw_allocation,
    run_sim,
)
from agefec.netsim import SimConfig


def test_raw_allocation_shifts_by_violation_gap():
    # flow 0 violating more than flow 1 pulls rate toward flow 0
    got = raw_allocation([1.0, 1.0], [0.6, 0.2], 2.0, 2.0)
    assert got == pytest.approx([1.2, 0.8])
    assert sum(got) == pytest.approx(2.0)


def test_raw_allocation_rescales_total():
    got = raw_allocation([1.0, 3.0], [0.5, 0.5], 2.0, 4.0)
    assert got == pytest.approx([0.5, 1.5])


def test_raw_allocation_mix_pulls_toward_mean():
    base = raw_allocation([2.0, 1.0], [0.3, 0.3], 3.0, 3.0)
    blended = raw_allocation([2.0, 1.0], [0.3, 0.3], 3.0, 3.0, mix=0.5)
    assert base == pytest.approx([2.0, 1.0])
    assert blended == pytest.approx([1.75, 1.25])
    assert sum(blended) == pytest.approx(3.0)


def test_raw_allocation_validation():
    with pytest.raises(ParameterError):
        raw_allocation([1.0], [0.5, 0.5], 2.0, 2.0)
    with pytest.raises(ParameterError):
        raw_allocation([], [], 2.0, 2.0)
    with pytest.raises(ParameterError):
        raw_allocation([1.0, 1.0], [0.5, 0.5], 2.0, 0.0)
    with pytest.raises(ParameterError):
        raw_allocation([1.0, 1.0], [0.5, 0.5], 2.0, 2.0, mix=1.5)


@settings(max_examples=300, deadline=None)
@given(
    count=st.integers(1, 8),
    total=st.floats(0.1, 20.0),
    mix=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    data=st.data(),
)
def test_raw_allocation_zero_sum_exact(count, total, mix, data):
    """The allocation conserves the total to float precision, blend or not."""
    sigmas = data.draw(
        st.lists(st.floats(0.01, 5.0), min_size=count, max_size=count)
    )
    ratios = data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count)
    )
    raw = raw_allocation(sigmas, ratios, total, sum(sigmas), mix)
    assert sum(raw) == pytest.approx(total, abs=1e-9)


def test_allocate_rates_respects_floor_and_total():
    got = allocate_rates([1.0, 1.0], [1.0, 0.0], 2.0, 2.0, sigma_min=0.99)
    assert sum(got) == pytest.approx(2.0)
    assert all(g >= 0.99 / 2 - 1e-12 for g in got)
    assert got[0] > got[1]  # the violating flow gets more


def test_allocate_rates_equal_split_when_budget_exhausted():
    got = allocate_rates([1.0, 1.0], [0.5, 0.5], 0.8, 2.0, sigma_min=0.99)
    assert got == pytest.approx([0.4, 0.4])


def test_allocate_rates_floor_binds_under_extreme_skew():
    # raw share of flow 1 falls below the floor; the floor catches it
    raw = raw_allocation([1.0, 1.0], [1.0, 0.0], 1.2, 2.0, mix=0.05)
    assert min(raw) < 0.99 / 2
    got = allocate_rates([1.0, 1.0], [1.0, 0.0], 1.2, 2.0, sigma_min=0.99)
    assert min(got) == pytest.approx(0.99 / 2)
    assert sum(got) == pytest.approx(1.2)


@settings(max_examples=200, deadline=None)
@given(
    count=st.integers(2, 6),
    total=st.floats(1.0, 15.0),
    data=st.data(),
)
def test_allocate_rates_always_feasible(count, total, data):
    sigmas = data.draw(st.lists(st.floats(0.1, 5.0), min_size=count, max_size=count))
    ratios = data.draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count))
    got = allocate_rates(sigmas, ratios, total, sum(sigmas), sigma_min=0.99)
    assert len(got) == count
    assert sum(got) == pytest.approx(total, rel=1e-9)
    floor = min(0.99 / count, total / count)
    assert all(g >= floor - 1e-9 for g in got)


def test_fairness_index_extremes():
    assert fairness_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert fairness_index([3.0, 0.0, 0.0]) == pytest.approx(1 / 3)
    assert fairness_index([]) == 1.0
    assert fairness_index([0.0, 0.0]) == 1.0
    assert 1 / 2 < fairness_index([2.0, 1.0]) < 1.0


def shared_config(seed=0, duration=8_000):
    return SimConfig(
        coding=CodingParams(3, 4),
        avt=5,
        q_s=2 * 3 * 1.4706,
        loss=LossModel(0.1, 0.1),
        duration=duration,
        rng_seed=seed,
    )


def test_run_sim_rejects_single_flow():
    with pytest.raises(ParameterError):
        run_sim(shared_config(), flow_count=1)


def test_run_sim_rejects_threshold_count_mismatch():
    with pytest.raises(ParameterError):
        run_sim(shared_config(), flow_count=2, flow_avts=(5,))


def test_run_shorter_than_first_interval_splits_evenly():
    res = run_sim(shared_config(duration=50), flow_count=2)
    assert res.flow_rows == []
    assert res.fairness_mean == 1.0
    assert res.final_sigmas[0] == res.final_sigmas[1] > 0
    assert res.fairness_final == pytest.approx(1.0)


def test_run_sim_is_deterministic():
    a = run_sim(shared_config(), flow_count=2)
    b = run_sim(shared_config(), flow_count=2)
    assert a.flow_rows == b.flow_rows
    assert a.final_sigmas == b.final_sigmas
    assert a.system.rows == b.system.rows


def test_run_sim_shapes_and_summary():
    res = run_sim(shared_config(), flow_count=2)
    assert FLOW_COLUMNS == ("mi", "flow", "sigma", "t_s", "av_raw", "av_ratio", "delivered")
    assert len(res.system.flow_av) == len(res.final_sigmas) == 2
    assert {row[1] for row in res.flow_rows} == {0, 1}
    assert 0.5 <= res.fairness_final <= 1.0
    s = res.summary()
    assert s["fairness_final"] == res.fairness_final
    assert s["flow_av"] == res.system.flow_av


def test_identical_flows_converge():
    res = run_sim(shared_config(duration=15_000), flow_count=2)
    by_flow = {0: [], 1: []}
    for row in res.flow_rows:
        by_flow[row[1]].append(row[2])
    half = len(by_flow[0]) // 2
    m0, m1 = fmean(by_flow[0][half:]), fmean(by_flow[1][half:])
    assert abs(m0 - m1) / max(m0, m1) < 0.1
    assert res.fairness_final > 0.95


def test_distinct_thresholds_share_unevenly_but_conserve():
    res = run_sim(shared_config(duration=8_000), flow_count=2, flow_avts=(3, 8))
    # the total always matches the controller's rate split
    sys_rows = {row[0]: row[1] for row in res.system.rows}
    rng = random.Random(0)
    intervals = rng.sample(sorted({r[0] for r in res.flow_rows}), 5)
    for mi in intervals:
        split = [r[2] for r in res.flow_rows if r[0] == mi]
        assert sum(split) == pytest.approx(sys_rows[mi], rel=1e-9)
    # the tight-threshold flow sees at least as many violations
    assert res.system.flow_av[0] >= res.system.flow_av[1] - 0.01
