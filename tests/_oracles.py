"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes the slow, obvious route: slot-by-slot
counting, direct series summation, brute-force Monte Carlo with numpy.  If a
package function and its oracle agree, a shared bug is unlikely because the
two computations share no code.
"""

from __future__ import annotations

from functools import reduce
from operator import xor

import numpy as np


def slot_violation_count(entries, interval_start: int, avt: int) -> int:
    """Violated slots in (interval_start, last decode], counted one by one.

    `entries` lists (generation, decode_slot) pairs, the first being the
    carry-over seed from before the interval.  The age at slot t is t minus
    the generation of the freshest decode that happened strictly before t,
    so a decode takes effect the slot after it lands.
    """
    d_last = entries[-1][1]
    violated = 0
    for t in range(interval_start + 1, d_last + 1):
        gen = max(g for g, d in entries if d < t)
        if t - gen > avt:
            violated += 1
    return violated


def ages_from_decodes(intervals, flow: int, last: int) -> list[int]:
    """Flow `flow`'s age at slots 1..last, rebuilt from the engine's decode logs.

    `intervals` are the consecutive `Interval`s a sender was handed; their
    logs hold the seed decode and then every refreshing decode, each a
    (generation, slot) pair in slot order.  The age at slot t is t minus the
    generation of the last decode that landed at or before t.
    """
    events = intervals[0].decodes[flow][:1]
    for interval in intervals:
        events += interval.decodes[flow][1:]
    ages, i = [], 0
    for t in range(1, last + 1):
        while i + 1 < len(events) and events[i + 1][1] <= t:
            i += 1
        ages.append(t - events[i][0])
    return ages


def violation_fraction_series(
    decode_prob: float, sampling_interval: int, mean_delay: float, avt: float, terms: int = 200_000
) -> float:
    """Renewal violated-time fraction by direct series summation.

    Sums E[max(0, Ts*M + W - AVT)] over the geometric decode count M term by
    term instead of using the closed form.
    """
    p = decode_prob
    if p == 0.0:
        return 1.0
    q = 1.0 - p
    c = avt - mean_delay
    expected = 0.0
    weight = p
    for m in range(1, terms + 1):
        span = sampling_interval * m
        # a cycle cannot violate for longer than it lasts
        expected += weight * min(span, max(0.0, span - c))
        weight *= q
        if weight < 1e-18 and span > c:
            break
    return expected / (sampling_interval / p)


def mc_age_counts(
    k: int, n: int, chunk_loss: float, t: int, trials: int, seed: int
) -> np.ndarray:
    """Empirical age distribution at slot t under per-slot retransmission.

    For each trial, the sample aged e is decodable when at most n-k of its
    chunks are still missing after e+1 independent transmission attempts;
    the realized age is the smallest such e.  Returns counts indexed by age
    0..t, with index t also absorbing the no-decode event.
    """
    rng = np.random.default_rng(seed)
    age = np.full(trials, t, dtype=np.int64)
    undecided = np.ones(trials, dtype=bool)
    for e in range(t + 1):
        p_missing = chunk_loss ** (e + 1)
        missing = rng.binomial(n, p_missing, size=trials)
        hit = undecided & (missing <= n - k)
        age[hit] = e
        undecided &= ~hit
        if not undecided.any():
            break
    return np.bincount(age, minlength=t + 1)


def binom_pmf(i: int, n: int, p: float) -> float:
    """Binomial pmf from math.comb, no scipy involved."""
    from math import comb

    return comb(n, i) * p**i * (1.0 - p) ** (n - i)


# Scalar GF(256) over the 0x11D polynomial, one multiply per byte and a
# list-based Gauss-Jordan inverse, no numpy: parity is the wire format, so the
# table codec must match this byte for byte.
_GF_EXP = [0] * 512
_GF_LOG = [0] * 256
_x = 1
for _i in range(255):
    _GF_EXP[_i] = _GF_EXP[_i + 255] = _x
    _GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D


def _gf_mul(a: int, b: int) -> int:
    return 0 if a == 0 or b == 0 else _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def _gf_dot(coeffs, values) -> int:
    return reduce(xor, map(_gf_mul, coeffs, values), 0)


def _gf_mat_mul(a, b):
    return [[_gf_dot(row, col) for col in zip(*b)] for row in a]


def _gf_mat_inv(m):
    size = len(m)
    aug = [list(row) + [int(i == j) for j in range(size)] for i, row in enumerate(m)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = _GF_EXP[255 - _GF_LOG[aug[col][col]]]
        aug[col] = [_gf_mul(v, inv_p) for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v ^ _gf_mul(factor, p) for v, p in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def reference_generator(k: int, n: int) -> list[list[int]]:
    """The n x k systematic generator: Vandermonde rows 0..n-1 times the inverse of the top k."""
    vand = [[1 if j == 0 else (0 if x == 0 else _GF_EXP[(_GF_LOG[x] * j) % 255]) for j in range(k)]
            for x in range(n)]
    return _gf_mat_mul(vand, _gf_mat_inv(vand[:k]))


def encode_reference(payload: bytes, k: int, n: int) -> list[bytes]:
    """The n shares of `payload`, byte by byte: k padded data chunks, then the parity rows."""
    chunk_len = -(-len(payload) // k) if payload else 1
    padded = payload.ljust(chunk_len * k, b"\0")
    data = [padded[i * chunk_len:(i + 1) * chunk_len] for i in range(k)]
    gen = reference_generator(k, n)
    return data + [bytes(_gf_dot(row, column) for column in zip(*data)) for row in gen[k:]]
