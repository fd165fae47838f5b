"""Fixed-sampling, fixed-block-length sender with feedback rate control.

The source emits one sample per slot.  Each slot the sender draws, for every
chunk of the sample aged j, an independent Bernoulli with probability
probs[j], so the expected load is n * sum(probs) chunks per slot.  A receiver
reports per-interval age-violation and delay statistics, and the controller
nudges the codeword rate up or down from those trends.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .core import ParameterError
from .netsim import Interval, SimConfig, SimResult, run_slots

PHI = 1.5
PSI = 0.8
OMEGA = 0.8


@dataclass(frozen=True)
class SelectionPolicy:
    """Per-age transmission probabilities; probs[j] applies to the sample aged j slots."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probs:
            raise ParameterError("policy needs at least one age slot")
        if any(p < 0.0 or p > 1.0 for p in self.probs):
            raise ParameterError(f"probabilities must lie in [0, 1]: {self.probs}")


def optimal_selection_probs(rate: float, avt: int, m: int) -> SelectionPolicy:
    """Age-violation-minimizing selection vector for a codeword rate.

    All probability mass goes to the freshest samples: ones first, then one
    fractional entry at index floor(s), so the vector sums to
    s = min(rate, avt, m) and never touches samples at or past the age
    threshold.
    """
    if rate < 0:
        raise ParameterError(f"rate must be >= 0, got {rate}")
    if avt < 1 or m < 1:
        raise ParameterError(f"avt and m must be >= 1, got avt={avt} m={m}")
    probs = [0.0] * m
    s = min(rate, float(avt), float(m))
    whole = int(math.floor(s))
    for j in range(whole):
        probs[j] = 1.0
    if whole < m:
        probs[whole] = s - whole
    return SelectionPolicy(tuple(probs))


def select_chunks(
    policy: SelectionPolicy, now: int, n: int, rng: random.Random
) -> list[tuple[int, int]]:
    """Draw the transmission set for slot `now` as (sample_gen, chunk_index) pairs.

    Samples older than the policy window, or generated before slot 1, are
    never selected.
    """
    out = []
    draw = rng.random
    for j, p in enumerate(policy.probs):
        if p <= 0.0:
            continue
        sid = now - j
        if sid < 1:
            break
        if p >= 1.0:
            out.extend((sid, i) for i in range(n))
        else:
            out.extend((sid, i) for i in range(n) if draw() < p)
    return out


@dataclass(frozen=True)
class IntervalStats:
    """Receiver measurements over one monitoring interval."""

    av_mi: float  # fraction of interval slots with age strictly above avt
    wbar_mi: float  # mean delay of chunks received in the interval; inf if none

    def __post_init__(self) -> None:
        if not 0.0 <= self.av_mi <= 1.0:
            raise ParameterError(f"av_mi must lie in [0, 1], got {self.av_mi}")
        if not (self.wbar_mi >= 0.0 or math.isinf(self.wbar_mi)):
            raise ParameterError(f"wbar_mi must be >= 0 or inf, got {self.wbar_mi}")


@dataclass(frozen=True)
class FixedSamplingState:
    """Controller state carried across monitoring intervals."""

    sigma: float  # codewords per slot
    av_ema: float = 0.0
    wbar_ema: float = 0.0
    ef: int = 0  # consecutive chances given to an emptying pipe
    mi: int = 0

    @classmethod
    def initial(cls, n: int, avt: int, rate: float | None = None) -> "FixedSamplingState":
        # Default start: twice the block length, capped by the rate ceiling.
        sigma = min(2.0 * n, float(avt)) if rate is None else min(rate, float(avt))
        return cls(sigma=sigma)


def update_controller(
    state: FixedSamplingState, stats: IntervalStats, avt: int, n: int
) -> tuple[FixedSamplingState, str]:
    """One feedback step; returns the new state and the branch taken.

    The EMAs fold in this interval first (a delay EMA update is skipped when
    nothing arrived), then exactly one branch adjusts the rate, then the rate
    is capped at avt codewords per slot.
    """
    av = stats.av_mi
    w = stats.wbar_mi
    av_ema = OMEGA * av + (1.0 - OMEGA) * state.av_ema
    w_ema = state.wbar_ema if math.isinf(w) else PSI * w + (1.0 - PSI) * state.wbar_ema
    sigma = state.sigma
    ef = state.ef

    if w < 1.0 and ef >= 2:
        # Deliveries beat one slot: the pipe emptied, refill aggressively.
        sigma = PHI * sigma
        ef = 0
        branch = "1"
    elif av_ema >= 0.9 and math.isinf(w) and ef < 2:
        sigma = PHI * sigma
        branch = "2"
    elif av >= 0.9 and av_ema >= 0.9 and w > avt:
        # Persistent violations with high delay: congestion, back off.
        sigma = sigma / PHI + min(0.1, 1.0 / n)
        branch = "3"
    elif av <= av_ema:
        if w > w_ema:
            sigma = min(sigma + (av_ema - av), 1.1 * sigma)
            branch = "4a"
        else:
            sigma = max(sigma - (av_ema - av), 0.2 * sigma)
            ef += 1
            branch = "4b"
    else:
        if w > w_ema:
            sigma = max(sigma - (av - av_ema), 0.2 * sigma)
            branch = "5a"
        else:
            sigma = min(sigma + (av - av_ema), 1.1 * sigma)
            branch = "5b"

    sigma = min(sigma, float(avt))
    new = replace(
        state, sigma=sigma, av_ema=av_ema, wbar_ema=w_ema, ef=ef, mi=state.mi + 1
    )
    return new, branch


INTERVAL_COLUMNS = ("mi", "sigma", "av_mi", "av_ema", "wbar_mi", "wbar_ema", "ef", "branch")


class _FixedSamplingSender:
    """Bernoulli selection over the freshest samples, retuned every interval."""

    schema = "fixed-sampling-interval/1"
    columns = INTERVAL_COLUMNS

    def __init__(self, config: SimConfig) -> None:
        self.n = config.coding.n
        self.avt = config.avt
        self.flow_avts = (config.avt,)
        self.t_tilde = config.monitoring_interval
        self.m = config.sample_memory if config.sample_memory is not None else config.avt
        self.horizon = self.m - 1  # the policy window's oldest sample
        self.state = FixedSamplingState.initial(self.n, self.avt, config.initial_rate)
        self.rows: list[tuple] = []
        self._retune()

    def _retune(self) -> None:
        policy = optimal_selection_probs(self.state.sigma, self.avt, self.m)
        # The samples the policy may send, in the order select_chunks walks them.
        self.plan = tuple((0, j, None, self.n, p) for j, p in enumerate(policy.probs) if p > 0.0)

    def emit(self, t: int) -> tuple:
        return self.plan

    def boundary(self, t: int, interval: Interval) -> int:
        stats = IntervalStats(av_mi=interval.viol_gt[0] / self.t_tilde, wbar_mi=interval.mean_delay)
        state, branch = update_controller(self.state, stats, self.avt, self.n)
        self.rows.append(
            (
                state.mi,
                state.sigma,
                stats.av_mi,
                state.av_ema,
                stats.wbar_mi,
                state.wbar_ema,
                state.ef,
                branch,
            )
        )
        self.state = state
        self._retune()
        return self.t_tilde


def run_sim(config: SimConfig) -> SimResult:
    """Simulate the fixed-sampling protocol over the bottleneck path."""
    return run_slots(config, _FixedSamplingSender(config))
