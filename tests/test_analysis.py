"""Closed-form channel model against independent series / MC references."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agefec
from agefec.analysis import (
    age_event_prob,
    chunk_missing_prob,
    decode_probability,
    expected_violation_fraction,
    outage_probability,
    rate_upper_bound,
    sample_decode_prob,
)
from agefec.core import CodingParams, LossModel, ParameterError

from _oracles import binom_pmf, mc_age_counts, violation_fraction_series


def test_rate_upper_bound_values():
    # q_s for k=3 data chunks, block length 4, 10% entry loss
    assert rate_upper_bound(3 * 1.4706, 4, 0.1) == pytest.approx(1.2255)
    assert rate_upper_bound(1.0, 1, 0.0) == 1.0
    assert rate_upper_bound(2.0, 5, 0.5) == pytest.approx(0.8)


def test_rate_upper_bound_rejects():
    with pytest.raises(ParameterError):
        rate_upper_bound(0.0, 4, 0.1)
    with pytest.raises(ParameterError):
        rate_upper_bound(1.0, 0, 0.1)
    with pytest.raises(ParameterError):
        rate_upper_bound(1.0, 4, 1.0)


def test_chunk_missing_prob_powers():
    loss = LossModel(0.1, 0.1)  # total 0.19
    assert chunk_missing_prob(loss, 0) == pytest.approx(0.19)
    assert chunk_missing_prob(loss, 2) == pytest.approx(0.19**3)
    assert chunk_missing_prob(LossModel(0.0, 0.0), 5) == 0.0
    with pytest.raises(ParameterError):
        chunk_missing_prob(loss, -1)


def test_decode_probability_against_direct_sum():
    for k, n, p in [(3, 4, 0.19), (3, 6, 0.3), (1, 1, 0.5), (4, 8, 0.05), (2, 7, 0.9)]:
        direct = sum(binom_pmf(i, n, p) for i in range(n - k + 1))
        assert decode_probability(k, n, p) == pytest.approx(direct, rel=1e-12)


def test_decode_probability_grid_against_pmf_sum():
    """The math.comb sum over a grid of (k, n, p), edges included; varying k
    reaches every erasure limit n - k from 0 to n - 1."""
    for n in (1, 2, 4, 7, 16, 64, 255):
        for k in range(1, n + 1):
            for p in (0.0, 1e-9, 0.05, 0.3, 0.5, 0.9, 1.0 - 1e-9, 1.0):
                got = decode_probability(k, n, p)
                expected = min(1.0, sum(binom_pmf(i, n, p) for i in range(n - k + 1)))
                assert 0.0 <= got <= 1.0
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-300), (k, n, p)


def _in_fresh_interpreter(code: str) -> str:
    """Run `code` in a new interpreter that imports agefec from this tree; return its output."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(agefec.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    code = "import sys, agefec; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _in_fresh_interpreter(code) == "[]"


def test_simulators_load_only_the_standard_library(tmp_path):
    """Every mode but the wire endpoints runs on the standard library alone:
    numpy is the codec's, and no simulator codes a payload."""
    modes = tuple(m for m in agefec.experiments.MODES if not m.startswith("wire-"))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"  # what site loaded before agefec
        "import agefec\n"
        "from agefec import experiments\n"
        f"for mode in {modes!r}:\n"
        f"    overrides = dict(mode=mode, duration=300, out_dir={str(tmp_path)!r})\n"
        "    experiments.run_experiment(experiments.build_spec(overrides=overrides))\n"
        "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'agefec'}))\n"
    )
    assert _in_fresh_interpreter(code) == "[]"
    assert {p.name for p in tmp_path.glob("*.json")} == {f"{m}.json" for m in modes}


def test_wire_config_readies_the_codec():
    """numpy loads and the generator is built when a WireConfig is made, not
    at the first decode, by which time chunks are already arriving."""
    code = (
        "import sys, agefec\n"
        "print('numpy' in sys.modules)\n"
        "agefec.wire.WireConfig(k=8, n_init=16)\n"
        "print('numpy' in sys.modules, (8, 16) in agefec.coding._GENERATORS)\n"
    )
    assert _in_fresh_interpreter(code).splitlines() == ["False", "True True"]


def test_decode_probability_edges():
    assert decode_probability(3, 4, 0.0) == 1.0
    assert decode_probability(3, 4, 1.0) == 0.0
    assert decode_probability(3, 3, 0.19) == pytest.approx((1 - 0.19) ** 3)
    # known value used across the suite
    assert decode_probability(3, 4, 0.19) == pytest.approx(0.83436237, abs=1e-7)


def test_sample_decode_prob_composes():
    coding = CodingParams(3, 5)
    loss = LossModel(0.2, 0.1)
    for e in range(4):
        expect = decode_probability(3, 5, chunk_missing_prob(loss, e))
        assert sample_decode_prob(coding, loss, e) == pytest.approx(expect)


def test_age_event_prob_is_distribution():
    coding = CodingParams(3, 4)
    loss = LossModel(0.3, 0.2)
    t = 30
    probs = [age_event_prob(e, t, coding, loss) for e in range(t + 1)]
    assert all(p >= 0.0 for p in probs)
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    # fresher events must dominate for a decent code
    assert probs[0] > probs[5]
    assert age_event_prob(-1, 5, coding, loss) == 0.0
    assert age_event_prob(6, 5, coding, loss) == 0.0


def test_outage_equals_survival_product():
    """1 - cumulative age mass telescopes to a product of miss probabilities."""
    coding = CodingParams(2, 3)
    loss = LossModel(0.25, 0.15)
    for e in range(8):
        product = math.prod(
            1.0 - sample_decode_prob(coding, loss, d) for d in range(e + 1)
        )
        assert outage_probability(e, 20, coding, loss) == pytest.approx(product, abs=1e-12)
    assert outage_probability(-1, 20, coding, loss) == 1.0


def test_age_distribution_against_monte_carlo():
    """Quick 10^4-trial MC of the retransmission channel; 4-sigma slack."""
    coding = CodingParams(3, 5)
    loss = LossModel(0.3, 0.3)  # total 0.51, slow decay keeps several ages likely
    chunk_loss = 0.51
    trials = 10_000
    t = 40
    counts = mc_age_counts(coding.k, coding.n, chunk_loss, t, trials, seed=42)
    for e in range(6):
        p = age_event_prob(e, t, coding, loss)
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(counts[e] / trials - p) < 4 * sigma + 1e-9, e


def test_violation_fraction_against_series():
    cases = [
        (0.83, 2, 2.0, 5.0),
        (0.5, 1, 1.5, 4.0),
        (0.99, 3, 2.0, 10.0),
        (0.2, 2, 3.0, 7.0),
        (0.7, 5, 2.5, 5.0),
    ]
    for p, ts, w, avt in cases:
        got = expected_violation_fraction(p, ts, w, avt)
        want = violation_fraction_series(p, ts, w, avt)
        assert got == pytest.approx(want, rel=1e-9), (p, ts, w, avt)


def test_violation_fraction_edges():
    # delay at or past the threshold: violated the whole time
    assert expected_violation_fraction(0.9, 2, 5.0, 5.0) == 1.0
    assert expected_violation_fraction(0.9, 2, 9.0, 5.0) == 1.0
    assert expected_violation_fraction(0.0, 2, 1.0, 5.0) == 1.0
    # certain decode, tight pacing, low delay: no violations
    assert expected_violation_fraction(1.0, 1, 1.0, 5.0) == 0.0
    with pytest.raises(ParameterError):
        expected_violation_fraction(0.5, 0, 1.0, 5.0)
    with pytest.raises(ParameterError):
        expected_violation_fraction(1.5, 1, 1.0, 5.0)


@settings(max_examples=80, deadline=None)
@given(
    p=st.floats(0.01, 1.0),
    ts=st.integers(1, 10),
    w=st.floats(0.0, 12.0),
    avt=st.floats(1.0, 15.0),
)
def test_violation_fraction_matches_series_everywhere(p, ts, w, avt):
    got = expected_violation_fraction(p, ts, w, avt)
    want = violation_fraction_series(p, ts, w, avt)
    assert got == pytest.approx(want, rel=1e-7, abs=1e-12)
    assert 0.0 <= got <= 1.0 + 1e-12


def test_violation_fraction_monotone_in_decode_prob():
    vals = [expected_violation_fraction(p, 2, 2.0, 5.0) for p in (0.2, 0.4, 0.6, 0.8, 0.99)]
    assert vals == sorted(vals, reverse=True)
