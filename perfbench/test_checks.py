"""Each benchmark check passes a sound input and rejects a doctored one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

SUMMARY = {
    "injected": 100_000,
    "lost_in": 10_000,
    "dropped_buffer": 0,
    "lost_out": 9_000,
    "delivered": 80_990,
    "in_flight": 6,
    "queued": 4,
    "av": 0.004,
    "av_strict": 0.001,
    "mean_delay": 2.0,
}
ADAPTIVE_COLUMNS = ["mi", "sigma", "n", "t_s", "t_tilde", "branch"]
# n / sigma: 4 / 2.0 = 2.0 -> 2; 5 / 2.2 = 2.27 -> 2; 4 / 0.99 = 4.04 -> 4
ADAPTIVE_ROWS = [
    ["1", "2.0", "4", "2", "125", "1"],
    ["2", "2.2", "5", "2", "100", "5a"],
    ["3", "0.99", "4", "4", "125", "3"],
]


def sigma_off(p: float, trials: int, z: float) -> int:
    """Hit count lying z standard deviations above p * trials."""
    return round(trials * (p + z * math.sqrt(p * (1 - p) / trials)))


def test_conservation_rejects_a_missing_chunk():
    assert checks.check_conservation(SUMMARY) == []
    doctored = dict(SUMMARY, delivered=SUMMARY["delivered"] - 1)
    assert checks.check_conservation(doctored)


def test_loss_ratio_rejects_six_sigma():
    assert checks.check_loss_ratios(SUMMARY, 0.1, 0.1) == []
    near = dict(SUMMARY, lost_in=sigma_off(0.1, SUMMARY["injected"], 4.0))
    assert checks.check_loss_ratios(near, 0.1, 0.1) == []
    far = dict(SUMMARY, lost_in=sigma_off(0.1, SUMMARY["injected"], 6.0))
    assert checks.check_loss_ratios(far, 0.1, 0.1)
    served = SUMMARY["lost_out"] + SUMMARY["delivered"] + SUMMARY["in_flight"]
    far_out = dict(SUMMARY, lost_out=sigma_off(0.1, served, -6.0))
    assert checks.check_loss_ratios(far_out, 0.1, 0.1)


def test_adaptive_rows_reject_t_s_off_by_one():
    assert checks.check_adaptive_rows(ADAPTIVE_COLUMNS, ADAPTIVE_ROWS, 3, 0.99, 2.6) == []
    for delta in (-1, 1):
        rows = copy.deepcopy(ADAPTIVE_ROWS)
        rows[1][3] = str(int(rows[1][3]) + delta)
        assert checks.check_adaptive_rows(ADAPTIVE_COLUMNS, rows, 3, 0.99, 2.6)


def test_adaptive_rows_reject_n_and_sigma_out_of_band():
    rows = copy.deepcopy(ADAPTIVE_ROWS)
    rows[0][2] = "10"  # n > 3k
    rows[0][3] = "5"  # keep t_s consistent with n / sigma
    assert checks.check_adaptive_rows(ADAPTIVE_COLUMNS, rows, 3, 0.99, 2.6)
    rows = copy.deepcopy(ADAPTIVE_ROWS)
    rows[0][1] = "2.7"  # sigma above the ceiling; 4 / 2.7 still rounds to 1
    rows[0][3] = "1"
    assert checks.check_adaptive_rows(ADAPTIVE_COLUMNS, rows, 3, 0.99, 2.6)


def test_flow_rows_reject_rates_that_do_not_sum():
    flow_columns = ["mi", "flow", "sigma", "t_s", "av_raw", "av_ratio", "delivered"]
    flow_rows = []
    for mi, sigma, n, _t_s, _tt, _b in ADAPTIVE_ROWS:
        half = float(sigma) / 2
        t_s = checks.expected_t_s(int(n), half)
        flow_rows += [[mi, "0", repr(half), str(t_s), "0", "0", "9"], [mi, "1", repr(half), str(t_s), "0", "0", "9"]]
    assert checks.check_flow_rows(ADAPTIVE_COLUMNS, ADAPTIVE_ROWS, flow_columns, flow_rows) == []
    doctored = copy.deepcopy(flow_rows)
    doctored[0][2] = repr(float(doctored[0][2]) + 0.01)
    assert checks.check_flow_rows(ADAPTIVE_COLUMNS, ADAPTIVE_ROWS, flow_columns, doctored)
    doctored = copy.deepcopy(flow_rows)
    doctored[0][3] = str(int(doctored[0][3]) + 1)
    assert checks.check_flow_rows(ADAPTIVE_COLUMNS, ADAPTIVE_ROWS, flow_columns, doctored)


def test_aggregate_rejects_a_changed_mean_or_run():
    runs = [dict(SUMMARY, av=0.004), dict(SUMMARY, av=0.006)]
    aggregate = {"per_run": copy.deepcopy(runs), "mean_av": 0.005, "std_av": 0.001}
    stats = {"av": "mean_av"}
    assert checks.check_aggregate(aggregate, runs, stats) == []
    assert checks.check_aggregate(dict(aggregate, mean_av=0.0051), runs, stats)
    assert checks.check_aggregate(dict(aggregate, std_av=0.0), runs, stats)
    assert checks.check_aggregate(aggregate, [runs[0], dict(runs[1], lost_in=1)], stats)


def test_fixed_run_rejects_av_strict_off_the_interval_mean():
    columns = ["mi", "sigma", "av_mi"]
    rows = [["1", "1.0", "0.0"], ["2", "1.0", "0.02"]]
    assert checks.check_fixed_run(columns, rows, {"av_strict": 0.01}) == []
    assert checks.check_fixed_run(columns, rows, {"av_strict": 0.011})


WIRE_SENDER = {"samples_sent": 4, "chunks_sent": 58, "shim_dropped": 6}
WIRE_RECEIVER = {
    "chunks_received": 50,
    "drained": 8,
    "decoded_samples": 4,
    "payload_ok": 4,
}
DIGESTS = ["a", "b", "c", "d"]


def wire_round(sender=WIRE_SENDER, receiver=WIRE_RECEIVER, decoded=DIGESTS, parity=2):
    return checks.check_wire_round(sender, receiver, DIGESTS, decoded, parity, 4, 8, 0.1)


def test_wire_round_accepts_a_sound_round():
    assert wire_round() == (0, [])


def test_wire_round_rejects_payload_ok_below_decoded():
    _failed, problems = wire_round(receiver=dict(WIRE_RECEIVER, payload_ok=3))
    assert problems


def test_wire_round_counts_a_corrupt_payload_as_failed():
    failed, _problems = wire_round(decoded=["a", "b", "c", "x"])
    assert failed == 1


def test_wire_round_rejects_a_lost_chunk():
    _failed, problems = wire_round(receiver=dict(WIRE_RECEIVER, drained=7))
    assert problems


def test_wire_round_rejects_drop_and_parity_ratios_six_sigma_off():
    trials = 100_000
    dropped = sigma_off(0.1, trials, 6.0)
    sender = dict(WIRE_SENDER, shim_dropped=dropped, chunks_sent=trials - dropped)
    receiver = dict(WIRE_RECEIVER, drained=trials - dropped - WIRE_RECEIVER["chunks_received"])
    _failed, problems = wire_round(sender=sender, receiver=receiver)
    assert any("shim drop" in p for p in problems)
    p_parity = 1 - 0.9**8
    assert checks.binomial_problem("parity", sigma_off(p_parity, 10_000, 6.0), 10_000, p_parity)
    assert checks.binomial_problem("parity", sigma_off(p_parity, 10_000, 4.0), 10_000, p_parity) == []
