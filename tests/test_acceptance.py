"""End-to-end acceptance checks for the headline behaviors.

One test per criterion; each prints a single PASS/FAIL line (visible even
under captured output) and then asserts the same condition, so a full run
reads as a checklist.  Budgeted tests time themselves.
"""

import itertools
import math
import multiprocessing
import random
import socket
import statistics
import threading
import time

import numpy as np
import pytest

from agefec import adaptive_sampling, fixed_sampling, multiflow
from agefec.adaptive_sampling import (
    AdaptiveIntervalStats,
    AdaptiveSamplingState,
    interval_age_violation,
    monitoring_interval_length,
    process_interval,
    sampling_interval,
    sigma_ceiling,
)
from agefec.analysis import outage_probability, rate_upper_bound, sample_decode_prob
from agefec.coding import decode_payload, encode_payload
from agefec.core import CodingParams, LossModel, total_loss_probability
from agefec.experiments import build_spec, run_experiment
from agefec.fixed_sampling import (
    OMEGA,
    PHI,
    PSI,
    FixedSamplingState,
    IntervalStats,
    update_controller,
)
from agefec.netsim import run_fixed_rate_sim
from agefec.wire import (
    ChunkPacket,
    FeedbackPacket,
    WireConfig,
    run_receiver,
    run_sender,
)

from _oracles import mc_age_counts, slot_violation_count


def report(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def test_criterion_1_flagship_preset_band(tmp_path, capsys):
    """Ten seeded runs of the flagship preset land in the low-violation band,
    inside the time budget, and more parity at the same k raises the rate."""
    t0 = time.perf_counter()
    spec4 = build_spec(preset="table1-k3n4", overrides={"out_dir": str(tmp_path / "k3n4")})
    p4 = run_experiment(spec4)
    elapsed4 = time.perf_counter() - t0
    spec6 = build_spec(preset="table1-k3n6", overrides={"out_dir": str(tmp_path / "k3n6")})
    p6 = run_experiment(spec6)
    ok = (
        0.0005 <= p4["mean_av"] <= 0.01
        and elapsed4 < 60.0
        and p4["mean_av"] < p6["mean_av"]
    )
    report(
        capsys,
        "criterion 1 (flagship preset band)",
        ok,
        f"k3n4 av={p4['mean_av']:.4f} in [0.0005, 0.01], k3n6 av={p6['mean_av']:.4f}, "
        f"{elapsed4:.1f}s < 60s",
    )
    assert 0.0005 <= p4["mean_av"] <= 0.01
    assert elapsed4 < 60.0
    assert p4["mean_av"] < p6["mean_av"]


def test_criterion_2_block_length_sweep_minimum(tmp_path, capsys):
    """The violation-vs-n curve dips at an interior block length for both
    threshold presets; the strict rate is the comparable metric because at
    threshold 2 the inclusive rate saturates (the path delay floor is 2)."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for preset in ("sweep-avt2-p02", "sweep-avt5-p02"):
        spec = build_spec(preset=preset, overrides={"out_dir": str(tmp_path / preset)})
        payload = run_experiment(spec)
        curve = {pt["n"]: pt["mean_av_strict"] for pt in payload["points"]}
        interior = {n: curve[n] for n in range(4, 9)}
        best_n = min(interior, key=interior.get)
        dips = interior[best_n] < curve[3] and interior[best_n] < curve[9]
        ok = ok and dips
        details.append(
            f"{preset}: n*={best_n} av={interior[best_n]:.4f} vs "
            f"n=3 {curve[3]:.4f} / n=9 {curve[9]:.4f}"
        )
        assert dips, (preset, curve)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(
        capsys,
        "criterion 2 (block-length sweep minimum)",
        ok,
        "; ".join(details) + f"; {elapsed:.0f}s < 300s",
    )
    assert elapsed < 300.0


def test_criterion_3_stability_bound(capsys):
    """Injecting at 0.9x the stable-rate bound keeps the queue under half
    capacity; 1.1x drives it to capacity within the run."""
    spec = build_spec(preset="table1-k3n4")
    config = spec.sim_config(0)
    sigma_up = rate_upper_bound(config.service_rate, config.coding.n, config.loss.p_in)
    low_max = high_max = 0
    for seed in range(3):
        cfg = spec.sim_config(seed)
        low = run_fixed_rate_sim(cfg, rate=0.9 * sigma_up)
        high = run_fixed_rate_sim(cfg, rate=1.1 * sigma_up)
        low_max = max(low_max, low.occupancy_max)
        high_max = max(high_max, high.occupancy_max)
        assert low.occupancy_max < 0.5 * cfg.buffer_capacity, seed
        assert high.occupancy_max >= 0.99 * cfg.buffer_capacity, seed
    ok = low_max < 2500 and high_max >= 4950
    report(
        capsys,
        "criterion 3 (stability bound)",
        ok,
        f"sigma_up={sigma_up:.4f}; 0.9x occupancy max {low_max} < 2500, "
        f"1.1x occupancy max {high_max} reaches capacity",
    )


def test_criterion_4_analytic_vs_monte_carlo(capsys):
    """Decode and outage probabilities match a trial-based channel oracle
    within 3-sigma binomial bounds on a 3x3 grid of (loss, parity)."""
    trials = 100_000
    horizon = 12
    k = 3
    worst_z = 0.0
    cells = 0
    for loss in (LossModel(0.1, 0.0), LossModel(0.1, 0.1), LossModel(0.2, 0.2)):
        p_chunk = total_loss_probability(loss)
        for extra in (0, 1, 3):
            n = k + extra
            coding = CodingParams(k, n)
            cells += 1
            rng = np.random.default_rng(1000 * cells)
            counts = mc_age_counts(k, n, p_chunk, horizon, trials, seed=2000 * cells)
            for e in range(11):
                p_dec = sample_decode_prob(coding, loss, e)
                draws = rng.binomial(n, p_chunk ** (e + 1), size=trials)
                frac = float(np.mean(draws <= n - k))
                sd = math.sqrt(max(p_dec * (1.0 - p_dec), 0.0) / trials)
                assert abs(frac - p_dec) <= 3.0 * sd + 1.0 / trials, (loss, n, e)
                if sd > 0:
                    worst_z = max(worst_z, abs(frac - p_dec) / sd)

                p_out = outage_probability(e, horizon, coding, loss)
                frac_out = float(counts[e + 1 :].sum()) / trials
                sd_out = math.sqrt(max(p_out * (1.0 - p_out), 0.0) / trials)
                assert abs(frac_out - p_out) <= 3.0 * sd_out + 1.0 / trials, (loss, n, e)
                if sd_out > 0:
                    worst_z = max(worst_z, abs(frac_out - p_out) / sd_out)
    report(
        capsys,
        "criterion 4 (analytic vs monte carlo)",
        True,
        f"9 cells x 11 ages x 2 quantities at {trials} trials, worst z={worst_z:.2f}",
    )


def test_criterion_5_violation_accounting(capsys):
    """On 1000 random decode logs the interval violation total matches a
    slot-by-slot count: exactly when the seed generation is within the
    threshold of the interval start, within the boundary term otherwise."""
    rng = random.Random(7)
    exact = approx = 0
    for _ in range(1000):
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
            exact += 1
        else:
            assert abs(raw - want) <= alpha, (entries, start, avt)
            approx += 1
    ok = exact > 50 and approx > 50
    report(
        capsys,
        "criterion 5 (violation accounting)",
        ok,
        f"{exact} logs exact, {approx} within boundary slack",
    )
    assert ok


def test_criterion_6_codec_exhaustive(capsys):
    """Every k-subset of shares reconstructs the payload byte-exactly for
    all k <= n <= 8, 100 random payloads per pair."""
    rng = random.Random(6)
    decodes = 0
    for n in range(1, 9):
        for k in range(1, n + 1):
            for _ in range(100):
                payload = rng.randbytes(rng.randrange(1, 64))
                shares = encode_payload(payload, k, n)
                for subset in itertools.combinations(range(n), k):
                    got = decode_payload(
                        {i: shares[i] for i in subset}, k, n, len(payload)
                    )
                    assert got == payload, (k, n, subset)
                    decodes += 1
    report(
        capsys,
        "criterion 6 (codec exhaustive subsets)",
        True,
        f"36 (k, n) pairs, 100 payloads each, {decodes} subset decodes byte-exact",
    )


def _expected_fixed_branch(state, stats, avt):
    av, w = stats.av_mi, stats.wbar_mi
    av_ema = OMEGA * av + (1.0 - OMEGA) * state.av_ema
    w_ema = state.wbar_ema if math.isinf(w) else PSI * w + (1.0 - PSI) * state.wbar_ema
    if w < 1.0 and state.ef >= 2:
        return "1", av_ema, w_ema
    if av_ema >= 0.9 and math.isinf(w) and state.ef < 2:
        return "2", av_ema, w_ema
    if av >= 0.9 and av_ema >= 0.9 and w > avt:
        return "3", av_ema, w_ema
    if av <= av_ema:
        return ("4a" if w > w_ema else "4b"), av_ema, w_ema
    return ("5a" if w > w_ema else "5b"), av_ema, w_ema


def _fixed_sigma_after(branch, state, stats, av_ema, avt, n):
    s, av = state.sigma, stats.av_mi
    if branch in ("1", "2"):
        want = PHI * s
    elif branch == "3":
        want = s / PHI + min(0.1, 1.0 / n)
    elif branch == "4a":
        want = min(s + (av_ema - av), 1.1 * s)
    elif branch == "4b":
        want = max(s - (av_ema - av), 0.2 * s)
    elif branch == "5a":
        want = max(s - (av - av_ema), 0.2 * s)
    else:
        want = min(s + (av - av_ema), 1.1 * s)
    return min(want, float(avt))


def _expected_adaptive_branch(state, stats, avt, hi):
    av, w, pdr = stats.av_ratio, stats.wbar_mi, stats.pdr
    av_ema = OMEGA * av + (1.0 - OMEGA) * state.av_ema
    w_ema = state.wbar_ema if math.isinf(w) else PSI * w + (1.0 - PSI) * state.wbar_ema
    min_rtt = min(state.min_rtt, stats.min_delay)
    if av == 0.0:
        return "1", av_ema, w_ema, min_rtt
    if math.isinf(w) and state.ef >= 2 and pdr == 0.0:
        return "2", av_ema, w_ema, min_rtt
    if av >= 0.9 and av_ema >= 0.9 and w >= avt:
        return "3", av_ema, w_ema, min_rtt
    if av >= 0.9 and w <= 2.0 * min_rtt and state.ef <= 2:
        return "4", av_ema, w_ema, min_rtt
    if av <= av_ema:
        if pdr >= 0.9:
            branch = "5a" if state.sigma < 0.75 * hi else "5b"
        elif w >= w_ema and not state.df:
            branch = "5c"
        else:
            branch = "5d"
        return branch, av_ema, w_ema, min_rtt
    return ("6a" if w > w_ema else "6b"), av_ema, w_ema, min_rtt


def _adaptive_sigma_after(branch, state, stats, av_ema, min_rtt, n_new, hi):
    s, av = state.sigma, stats.av_ratio
    sigma_min = 0.99
    if branch == "1":
        want = state.sigma_last
    elif branch == "2":
        want = 2.0 * (1.05 * n_new) / max(min_rtt, 1e-9)
    elif branch == "3":
        want = s / PHI + min(0.1, 1.0 / n_new)
    elif branch == "4":
        want = PHI * s
    elif branch == "5a":
        want = s * (1.0 + 1.0 / n_new)
    elif branch == "5b":
        want = s + ((hi - s) + sigma_min + 1.0) / max(hi - sigma_min, 1e-9)
    elif branch == "5c":
        want = min(s + (av_ema - av) / n_new, 1.2 * s)
    elif branch == "5d":
        want = max(s - (av_ema - av), 0.2 * s)
    elif branch == "6a":
        want = max(s - (av - av_ema), 0.2 * s)
    else:
        want = min(s + (av - av_ema), 1.2 * s)
    return min(max(want, sigma_min), hi)


# how each branch may touch the emptying/decrease flags
FIXED_EF = {"1": "zero", "2": "keep", "3": "keep", "4a": "keep", "4b": "inc",
            "5a": "keep", "5b": "keep"}
ADAPTIVE_EF = {"1": "keep", "2": "zero", "3": "inc", "4": "zero", "5a": "keep",
               "5b": "keep", "5c": "zero", "5d": "inc", "6a": "zero", "6b": "zero"}
ADAPTIVE_DF = {"1": "keep", "2": False, "3": True, "4": False, "5a": False,
               "5b": False, "5c": "keep", "5d": True, "6a": True, "6b": False}


def test_criterion_7_controller_branch_totality(capsys):
    """100k random stat/state tuples through each controller: the branch
    taken is always the first whose guard holds, and the rate clamps and
    flag updates match the per-branch contract."""
    rng = random.Random(3)
    seen_fixed = {}
    for _ in range(100_000):
        avt = rng.randrange(1, 11)
        n = rng.randrange(1, 13)
        state = FixedSamplingState(
            sigma=rng.uniform(0.01, float(avt)),
            av_ema=rng.random(),
            wbar_ema=rng.uniform(0.0, 30.0),
            ef=rng.randrange(0, 5),
        )
        roll = rng.random()
        av = 0.0 if roll < 0.10 else (rng.uniform(0.9, 1.0) if roll < 0.30 else rng.random())
        roll = rng.random()
        if roll < 0.10:
            w = math.inf
        elif roll < 0.25:
            w = rng.random()
        else:
            w = rng.uniform(0.0, 30.0)
        stats = IntervalStats(av, w)
        new, branch = update_controller(state, stats, avt, n)
        want, av_ema, w_ema = _expected_fixed_branch(state, stats, avt)
        assert branch == want, (state, stats, avt)
        seen_fixed[branch] = seen_fixed.get(branch, 0) + 1
        assert 0.0 < new.sigma <= avt
        assert new.sigma == pytest.approx(
            _fixed_sigma_after(branch, state, stats, av_ema, avt, n), rel=1e-12
        )
        assert new.av_ema == pytest.approx(av_ema, rel=1e-12)
        assert new.wbar_ema == pytest.approx(w_ema, rel=1e-12) or (
            math.isinf(w) and new.wbar_ema == state.wbar_ema
        )
        rule = FIXED_EF[branch]
        assert new.ef == {"zero": 0, "keep": state.ef, "inc": state.ef + 1}[rule]
        assert new.mi == state.mi + 1
    assert set(seen_fixed) == {"1", "2", "3", "4a", "4b", "5a", "5b"}

    seen_adaptive = {}
    for _ in range(100_000):
        k = rng.randrange(1, 7)
        n = rng.randrange(k, 3 * k + 1)
        avt = rng.randrange(1, 11)
        hi = max(sigma_ceiling(k, avt), 0.99)
        sigma = rng.uniform(0.5, hi + 1.0)
        state = AdaptiveSamplingState(
            sigma=sigma,
            sigma_last=rng.uniform(0.5, hi + 1.0),
            min_rtt=rng.uniform(0.5, 10.0),
            n=n,
            t_s=sampling_interval(n, min(max(sigma, 0.99), hi)),
            t_tilde=monitoring_interval_length(avt, n),
            av_ema=rng.random(),
            wbar_ema=rng.uniform(0.0, 30.0),
            ef=rng.randrange(0, 5),
            df=rng.random() < 0.5,
        )
        roll = rng.random()
        av = 0.0 if roll < 0.20 else (rng.uniform(0.9, 1.0) if roll < 0.35 else rng.random())
        roll = rng.random()
        if roll < 0.10:
            w = math.inf
        elif roll < 0.30:
            w = rng.uniform(0.0, 2.0 * state.min_rtt)
        else:
            w = rng.uniform(0.0, 30.0)
        roll = rng.random()
        pdr = 0.0 if roll < 0.60 else (rng.uniform(0.9, 1.0) if roll < 0.75 else rng.random())
        stats = AdaptiveIntervalStats(
            av_ratio=av, wbar_mi=w, pdr=pdr, min_delay=rng.uniform(0.3, 5.0)
        )
        # restricting the candidate set skips the probability scoring, which
        # keeps 100k transitions affordable; a slice still runs the full range
        candidates = None if rng.random() < 0.02 else (state.n,)
        new, branch = process_interval(state, stats, avt, k, candidates=candidates)
        want, av_ema, w_ema, min_rtt = _expected_adaptive_branch(state, stats, avt, hi)
        assert branch == want, (state, stats, avt, k)
        seen_adaptive[branch] = seen_adaptive.get(branch, 0) + 1
        assert 0.99 - 1e-12 <= new.sigma <= hi + 1e-12
        assert new.sigma == new.sigma_last
        assert new.sigma == pytest.approx(
            _adaptive_sigma_after(branch, state, stats, av_ema, min_rtt, new.n, hi),
            rel=1e-12,
        )
        assert new.min_rtt == min_rtt
        assert k <= new.n <= 3 * k
        if pdr <= 0.0:
            assert new.n == state.n
        assert new.t_s == sampling_interval(new.n, new.sigma) and new.t_s >= 1
        assert new.t_tilde == monitoring_interval_length(avt, new.n) >= 1
        rule = ADAPTIVE_EF[branch]
        assert new.ef == {"zero": 0, "keep": state.ef, "inc": state.ef + 1}[rule]
        rule = ADAPTIVE_DF[branch]
        assert new.df == (state.df if rule == "keep" else rule)
        assert new.mi == state.mi + 1
    assert set(seen_adaptive) == {"1", "2", "3", "4", "5a", "5b", "5c", "5d", "6a", "6b"}

    report(
        capsys,
        "criterion 7 (controller branch totality)",
        True,
        f"100k transitions each; branch counts fixed={seen_fixed} "
        f"adaptive={seen_adaptive}",
    )


def _recv_in_child(cfg, stop, queue):
    queue.put(run_receiver(cfg, stop=stop))


def _loopback_attempt():
    """Sender here, receiver in its own process, mirroring the two-endpoint
    deployment; returns (decode ratio, receiver log, sender log)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    addr = probe.getsockname()
    probe.close()
    cfg = WireConfig(
        dest=addr,
        listen=addr,
        k=3,
        n_init=5,
        avt_ms=100,
        payload_bytes=64,
        samples=1000,
        fixed_rate=1.0,  # one codeword per 5 ms; leaves the receiver headroom
        drop_shim=0.05,
        delay_shim_ms=20.0,
        shim_seed=8,
    )
    ctx = multiprocessing.get_context("fork")
    stop = ctx.Event()
    queue = ctx.Queue()
    child = ctx.Process(target=_recv_in_child, args=(cfg, stop, queue))
    child.start()
    try:
        time.sleep(0.2)  # let the child bind before the first chunk flies
        send_log = run_sender(cfg)
        time.sleep(0.4)  # let the shim tail and socket queue drain
        stop.set()
        log = queue.get(timeout=5.0)
    finally:
        stop.set()
        child.join(timeout=5.0)
        if child.is_alive():
            child.terminate()
    assert send_log.samples_sent == 1000
    return log.decoded_samples / send_log.samples_sent, log, send_log


def test_criterion_8_wire_loopback(capsys):
    """1000 samples over loopback at k=3, n=5 with 5% synthetic drop and a
    20 ms delay shim: >= 99% decode, mean one-way delay within 2 ms of the
    shim, and crafted feedback repaces the sender within one interval."""
    # the delay clause measures wall-clock scheduling on a shared box, so one
    # hiccup-induced retry is allowed; a real accounting bug fails both runs
    attempts = []
    for _ in range(2):
        ratio, log, send_log = _loopback_attempt()
        attempts.append((ratio, log))
        if abs(log.mean_delay_ms - 20.0) < 2.0:
            break
    ratio, log = attempts[-1]
    delay_err = abs(log.mean_delay_ms - 20.0)

    # a receiver-style feedback packet must repace the sender at the next
    # sample boundary, well inside one monitoring interval
    fake_recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    fake_recv.bind(("127.0.0.1", 0))
    fake_recv.settimeout(5.0)
    stop2 = threading.Event()
    cfg2 = WireConfig(dest=fake_recv.getsockname(), k=3, n_init=5, avt_ms=100,
                      payload_bytes=30)
    result2 = {}

    def send_main():
        result2["log"] = run_sender(cfg2, stop=stop2)

    sender_thread = threading.Thread(target=send_main)
    sender_thread.start()
    try:
        data, sender_addr = fake_recv.recvfrom(65535)
        ChunkPacket.decode(data)
        fb = FeedbackPacket.from_values(1, 0.25, 4, 25, 0.0, 1.0, 2.0)
        fake_recv.sendto(fb.encode(), sender_addr)
        time.sleep(0.4)
    finally:
        stop2.set()
        sender_thread.join(timeout=3.0)
        fake_recv.close()
    slog = result2["log"]
    fb_ms = next(row[0] for row in slog.rows if row[4] == "feedback")
    apply_ms = next(row[0] for row in slog.rows if row[4] == "apply")
    interval_ms = monitoring_interval_length(cfg2.avt_slots, cfg2.n_init) * cfg2.slot_ms
    gap_ms = apply_ms - fb_ms

    ok = (
        ratio >= 0.99
        and delay_err < 2.0
        and log.payload_ok == log.decoded_samples
        and 0 <= gap_ms <= interval_ms
    )
    report(
        capsys,
        "criterion 8 (wire loopback)",
        ok,
        f"decode ratio {ratio:.4f} >= 0.99 (analytic 0.9988), mean delay "
        f"{log.mean_delay_ms:.2f}ms vs shim 20ms ({len(attempts)} attempt(s)), "
        f"feedback applied after {gap_ms}ms <= one interval {interval_ms}ms",
    )
    assert ratio >= 0.99
    assert delay_err < 2.0
    assert log.payload_ok == log.decoded_samples
    assert 0 <= gap_ms <= interval_ms


def test_criterion_9_shared_bottleneck_fairness(capsys):
    """Two identical flows sharing the bottleneck converge to long-run rates
    within 5%, and the allocator's pre-floor shares conserve the total
    exactly (the reallocation terms sum to zero)."""
    spec = build_spec(preset="multiserver-pair")
    worst = 0.0
    for seed in range(3):
        res = multiflow.run_sim(spec.sim_config(seed), flow_count=2)
        half = max(row[0] for row in res.flow_rows) / 2
        rates = {0: [], 1: []}
        for row in res.flow_rows:
            if row[0] >= half:
                rates[row[1]].append(row[2])
        m0 = statistics.fmean(rates[0])
        m1 = statistics.fmean(rates[1])
        reldiff = abs(m0 - m1) / ((m0 + m1) / 2)
        worst = max(worst, reldiff)
        assert reldiff < 0.05, (seed, m0, m1)

    rng = random.Random(9)
    worst_dev = 0.0
    for _ in range(2000):
        count = rng.randrange(2, 7)
        sigmas = [rng.uniform(0.3, 5.0) for _ in range(count)]
        ratios = [rng.random() for _ in range(count)]
        new_total = rng.uniform(0.5, 12.0)
        mix = rng.choice([0.0, 0.05, 0.3, 1.0])
        raw = multiflow.raw_allocation(sigmas, ratios, new_total, sum(sigmas), mix)
        dev = abs(sum(raw) - new_total)
        worst_dev = max(worst_dev, dev)
        assert dev <= 1e-9, (sigmas, ratios, new_total, mix)

    report(
        capsys,
        "criterion 9 (shared-bottleneck fairness)",
        True,
        f"worst long-run rate reldiff {worst:.3%} < 5% over 3 seeds; "
        f"2000 random allocations conserve the total (worst dev {worst_dev:.1e})",
    )


def test_baseline_comparison_lossy_preset(capsys):
    """On the lossy preset's channel the adaptive controller beats a
    fixed-rate sender at every tested rate: full rate floods the two-chunk
    budget, slower rates leave the fixed block length under-protected."""
    spec = build_spec(preset="vsvb-lossy")
    configs = [spec.sim_config(seed) for seed in range(spec.runs)]
    adaptive_av = statistics.fmean(
        adaptive_sampling.run_sim(cfg).av for cfg in configs
    )
    details = [f"adaptive av={adaptive_av:.4f}"]
    ok = True
    for t_s in (1, 2, 5, 10):
        rate = 1.0 / t_s
        base_av = statistics.fmean(
            run_fixed_rate_sim(cfg, rate=rate).av for cfg in configs
        )
        details.append(f"fixed T_s={t_s} av={base_av:.4f}")
        ok = ok and adaptive_av < base_av
        assert adaptive_av < base_av, (t_s, adaptive_av, base_av)
    report(capsys, "baseline comparison (lossy preset)", ok, ", ".join(details))
