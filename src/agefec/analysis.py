"""Analytical bounds for the idealized channel.

The model here strips the bottleneck to its essentials: no queueing (service
is instantaneous), a fixed per-chunk erasure probability on each attempt, and
every still-missing chunk retransmitted once per slot.  Under that model the
stable-rate ceiling, per-sample decode probabilities, the distribution of the
age process, and outage probabilities all have closed forms, which the
simulator tests cross-check by Monte Carlo.
"""

from __future__ import annotations

import math

from .core import CodingParams, LossModel, ParameterError, total_loss_probability


def rate_upper_bound(q_s: float, n: int, p_in: float) -> float:
    """Largest codeword rate the bottleneck can sustain: q_s / (n * (1 - p_in)).

    Chunks lost before the queue never consume service, so the queue is stable
    for codeword rates strictly below this value.
    """
    if q_s <= 0:
        raise ParameterError(f"q_s must be > 0, got {q_s}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 0.0 <= p_in < 1.0:
        raise ParameterError(f"p_in must lie in [0, 1), got {p_in}")
    return q_s / (n * (1.0 - p_in))


def chunk_missing_prob(loss: LossModel, elapsed: int) -> float:
    """Probability a chunk is still missing `elapsed` slots after generation.

    With one fresh transmission per slot (generation slot included), the chunk
    survives only if all elapsed+1 attempts were erased.
    """
    if elapsed < 0:
        raise ParameterError(f"elapsed must be >= 0, got {elapsed}")
    return total_loss_probability(loss) ** (elapsed + 1)


def decode_probability(k: int, n: int, per_chunk_loss: float) -> float:
    """P(at most n - k of n i.i.d. chunks are lost): the probability a sample decodes."""
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k} n={n}")
    if not 0.0 <= per_chunk_loss <= 1.0:
        raise ParameterError(f"per_chunk_loss must lie in [0, 1], got {per_chunk_loss}")
    if per_chunk_loss == 0.0:
        return 1.0
    if per_chunk_loss == 1.0:
        return 0.0
    q = 1.0 - per_chunk_loss
    total = sum(
        math.comb(n, i) * per_chunk_loss**i * q ** (n - i) for i in range(n - k + 1)
    )
    return min(1.0, total)


def sample_decode_prob(coding: CodingParams, loss: LossModel, elapsed: int) -> float:
    """Probability a sample decodes within `elapsed` slots of its generation."""
    return decode_probability(coding.k, coding.n, chunk_missing_prob(loss, elapsed))


def age_event_prob(e: int, t: int, coding: CodingParams, loss: LossModel) -> float:
    """Probability the age at slot t equals exactly e.

    The sample generated e slots ago must be decodable while every fresher
    sample is not; each factor uses the elapsed time since its own generation.
    """
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    if e < 0 or e > t:
        return 0.0
    prob = sample_decode_prob(coding, loss, e)
    for d in range(e):
        prob *= 1.0 - sample_decode_prob(coding, loss, d)
    return prob


def outage_probability(e: int, t: int, coding: CodingParams, loss: LossModel) -> float:
    """Probability the age at slot t exceeds e: 1 - sum of age events 0..e."""
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    if e < 0:
        return 1.0
    total = sum(age_event_prob(i, t, coding, loss) for i in range(min(e, t) + 1))
    return max(0.0, 1.0 - total)


def expected_violation_fraction(
    decode_prob: float, sampling_interval: int, mean_delay: float, avt: float
) -> float:
    """Long-run violated-time fraction of a renewal decode process.

    Samples arrive every `sampling_interval` slots and decode independently
    with probability `decode_prob`, `mean_delay` slots after generation.  The
    generation gap between consecutive decoded samples is then
    sampling_interval * M with M geometric, and each cycle spends
    max(0, gap + mean_delay - avt) slots above the age threshold.
    """
    if sampling_interval < 1:
        raise ParameterError(f"sampling_interval must be >= 1, got {sampling_interval}")
    if not 0.0 <= decode_prob <= 1.0:
        raise ParameterError(f"decode_prob must lie in [0, 1], got {decode_prob}")
    if decode_prob == 0.0:
        return 1.0
    q = 1.0 - decode_prob
    c = avt - mean_delay
    if c <= 0:
        # Age is already above the threshold at every decode instant.
        return 1.0
    if c < sampling_interval:
        m0 = 1
    else:
        m0 = math.floor(c / sampling_interval) + 1
    # E[max(0, Ts*M - c)] for geometric M, truncated below m0, in closed form.
    tail = q ** (m0 - 1)
    expected_violation = tail * (sampling_interval * (m0 + q / decode_prob) - c)
    expected_cycle = sampling_interval / decode_prob
    return max(0.0, expected_violation) / expected_cycle
