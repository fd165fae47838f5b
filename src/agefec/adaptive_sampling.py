"""Adaptive-sampling sender: feedback drives rate, block length, and pacing.

The sender emits one codeword per sampling interval and retunes three knobs
at every feedback boundary: the codeword rate sigma, the block length n, and
the length of the next monitoring interval.  Receiver-side age accounting
works purely from decode timestamps, so feedback stays a few counters wide.

The same slot engine also drives several concurrent flows through one
bottleneck; a rate-allocation hook splits the controller's total rate across
flows, and with a single flow and no hook it reduces to the plain simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import pairwise

from .analysis import decode_probability, expected_violation_fraction
from .core import ParameterError
from .fixed_sampling import OMEGA, PHI, PSI
from .netsim import Interval, SimConfig, SimResult, run_slots


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero for positive x."""
    return int(math.floor(x + 0.5))


def sigma_ceiling(k: int, avt: int) -> float:
    """Default upper rate limit: about 4.4 data-chunk times per threshold."""
    return round_half_up(4.4 * k) / avt


def sampling_interval(n: int, sigma: float) -> int:
    """Slots between codeword emissions at rate sigma; never below one."""
    if sigma <= 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    return max(1, round_half_up(n / sigma))


def monitoring_interval_length(avt: int, n: int) -> int:
    """Feedback period in slots, shrinking as the block length grows."""
    return max(1, round_half_up(avt * 100 / n))


def restart_rate(n: int, rtt: float) -> float:
    """Rate that refills an emptied pipe: two codewords of n chunks, plus 5%, per round trip."""
    return 2.0 * (1.05 * n) / rtt


def packet_delivery_ratio(delivered: int, sent: int) -> float:
    """Delivered over sent chunks for one interval; 0 when nothing was sent."""
    if sent <= 0:
        return 0.0
    return min(1.0, delivered / sent)


def interval_age_violation(entries, interval_start: int, avt: int) -> float:
    """Violated slot count for one interval, from decode events alone.

    `entries` is the seed decode followed by the interval's fresh decodes,
    each a (generation, decode_slot) pair.  Each inter-decode gap contributes
    the part of its span spent above the age threshold; the leading term
    discounts violated slots that belong to the previous interval.  Can go
    negative when the interval start already sat far above the threshold;
    callers clamp before use.
    """
    g1, _ = entries[0]
    total = -abs(min(interval_start - g1, max(interval_start - g1 - avt, 0)))
    for (g_prev, d_prev), (_, d) in pairwise(entries):
        beta = d - d_prev
        gamma = avt - (d_prev - g_prev)
        total += min(beta - max(0, min(beta, gamma)), beta)
    return float(total)


def select_block_length(
    k: int,
    current_n: int,
    sigma: float,
    pdr: float,
    wbar: float,
    avt: int,
    candidates=None,
) -> int:
    """Pick the block length minimizing predicted age-violation time.

    Candidate redundancy levels are scored with a renewal model fed by the
    interval's measured chunk-loss rate and mean delay.  With no delivery
    evidence (pdr <= 0) the current choice stands.  Ties go to the shortest
    block.  The default candidates run from k to 3k, capped at 255.
    """
    if pdr <= 0.0:
        return current_n
    loss = 1.0 - pdr
    if candidates is None:
        candidates = range(k, min(3 * k, 255) + 1)
    best_n = current_n
    best_f = math.inf
    for n_c in candidates:
        if n_c < k or n_c > 255:
            raise ParameterError(f"candidate block length {n_c} invalid for k={k}")
        t_s = sampling_interval(n_c, sigma)
        p_dec = decode_probability(k, n_c, loss)
        f = expected_violation_fraction(p_dec, t_s, wbar, avt)
        if f < best_f - 1e-12 or (abs(f - best_f) <= 1e-12 and n_c < best_n):
            best_f = f
            best_n = n_c
    return best_n


@dataclass(frozen=True)
class AdaptiveIntervalStats:
    """Feedback payload for one monitoring interval."""

    av_ratio: float  # clamped violated-time fraction from the decode log
    wbar_mi: float  # mean chunk delay; inf if nothing arrived
    pdr: float  # delivered / sent chunks
    min_delay: float = math.inf  # smallest delay seen this interval

    def __post_init__(self) -> None:
        if self.av_ratio < 0.0:
            raise ParameterError(f"av_ratio must be >= 0, got {self.av_ratio}")
        if not 0.0 <= self.pdr <= 1.0:
            raise ParameterError(f"pdr must lie in [0, 1], got {self.pdr}")


@dataclass(frozen=True)
class AdaptiveSamplingState:
    """Controller state carried across monitoring intervals."""

    sigma: float
    sigma_last: float
    min_rtt: float
    n: int
    t_s: int
    t_tilde: int
    av_ema: float = 0.0
    wbar_ema: float = 0.0
    ef: int = 0  # chances granted to an emptying pipe
    df: bool = False  # last move was a deliberate decrease
    mi: int = 0

    @classmethod
    def initial(
        cls,
        k: int,
        n: int,
        avt: int,
        rtt_init: float,
        sigma_min: float = 0.99,
        sigma_max: float | None = None,
        monitoring_interval: int | None = None,
    ) -> "AdaptiveSamplingState":
        if rtt_init < 0:
            raise ParameterError(f"rtt_init must be >= 0, got {rtt_init}")
        hi = sigma_ceiling(k, avt) if sigma_max is None else sigma_max
        hi = max(hi, sigma_min)  # degenerate configs collapse to a fixed rate
        # Start near two codewords per round trip, inside the allowed band.
        sigma = 2.0 * (n + 0.05 * n) / rtt_init if rtt_init > 0 else hi
        sigma = min(max(sigma, sigma_min), hi)
        t_tilde = (
            monitoring_interval_length(avt, n)
            if monitoring_interval is None
            else monitoring_interval
        )
        return cls(
            sigma=sigma,
            sigma_last=sigma,
            min_rtt=rtt_init,
            n=n,
            t_s=sampling_interval(n, sigma),
            t_tilde=t_tilde,
        )


def process_interval(
    state: AdaptiveSamplingState,
    stats: AdaptiveIntervalStats,
    avt: int,
    k: int,
    sigma_min: float = 0.99,
    sigma_max: float | None = None,
    candidates=None,
) -> tuple[AdaptiveSamplingState, str]:
    """One feedback step; returns the committed state and the branch taken.

    Order matters: trend EMAs fold in the new interval, the path floor delay
    updates, the block length is re-selected from delivery evidence, then a
    single branch moves the rate, which is clamped and used to recompute both
    pacing intervals.
    """
    hi = sigma_ceiling(k, avt) if sigma_max is None else sigma_max
    hi = max(hi, sigma_min)
    av = stats.av_ratio
    w = stats.wbar_mi
    av_ema = OMEGA * av + (1.0 - OMEGA) * state.av_ema
    w_ema = state.wbar_ema if math.isinf(w) else PSI * w + (1.0 - PSI) * state.wbar_ema
    min_rtt = min(state.min_rtt, stats.min_delay)
    n = select_block_length(k, state.n, state.sigma, stats.pdr, w, avt, candidates)

    sigma = state.sigma
    ef = state.ef
    df = state.df
    if av == 0.0:
        sigma = state.sigma_last
        branch = "1"
    elif math.isinf(w) and ef >= 2 and stats.pdr == 0.0:
        # Pipe ran dry despite patience: restart from the bandwidth estimate.
        sigma = restart_rate(n, max(min_rtt, 1e-9))
        ef = 0
        df = False
        branch = "2"
    elif av >= 0.9 and av_ema >= 0.9 and w >= avt:
        sigma = sigma / PHI + min(0.1, 1.0 / n)
        ef += 1
        df = True
        branch = "3"
    elif av >= 0.9 and w <= 2.0 * min_rtt and ef <= 2:
        # Violations without queueing delay: the rate is simply too low.
        sigma = PHI * sigma
        ef = 0
        df = False
        branch = "4"
    elif av <= av_ema:
        if stats.pdr >= 0.9:
            if sigma < 0.75 * hi:
                sigma = sigma * (1.0 + 1.0 / n)
                branch = "5a"
            else:
                sigma = sigma + ((hi - sigma) + sigma_min + 1.0) / max(
                    hi - sigma_min, 1e-9
                )
                branch = "5b"
            df = False
        elif w >= w_ema and not df:
            sigma = min(sigma + (av_ema - av) / n, 1.2 * sigma)
            ef = 0
            branch = "5c"
        else:
            sigma = max(sigma - (av_ema - av), 0.2 * sigma)
            ef += 1
            df = True
            branch = "5d"
    else:
        if w > w_ema:
            sigma = max(sigma - (av - av_ema), 0.2 * sigma)
            df = True
            ef = 0
            branch = "6a"
        else:
            sigma = min(sigma + (av - av_ema), 1.2 * sigma)
            df = False
            ef = 0
            branch = "6b"

    sigma = min(max(sigma, sigma_min), hi)
    new = replace(
        state,
        sigma=sigma,
        sigma_last=sigma,
        av_ema=av_ema,
        wbar_ema=w_ema,
        ef=ef,
        df=df,
        min_rtt=min_rtt,
        n=n,
        t_s=sampling_interval(n, sigma),
        t_tilde=monitoring_interval_length(avt, n),
        mi=state.mi + 1,
    )
    return new, branch


ADAPTIVE_COLUMNS = (
    "mi",
    "sigma",
    "n",
    "t_s",
    "t_tilde",
    "av_raw",
    "av_ratio",
    "wbar_mi",
    "pdr",
    "ef",
    "df",
    "min_rtt",
    "branch",
)
FLOW_COLUMNS = ("mi", "flow", "sigma", "t_s", "av_raw", "av_ratio", "delivered")


@dataclass
class AdaptiveController:
    """The A³L-FEC feedback step, shared by the simulator and the UDP receiver.

    Each `Interval` (start, end] that either receiver measured is scored
    from its flows' decode logs, fed to `process_interval`, and logged as one
    ADAPTIVE_COLUMNS row.
    """

    state: AdaptiveSamplingState
    k: int
    avt: int
    sigma_min: float = 0.99
    sigma_max: float | None = None
    candidates: tuple[int, ...] | None = None
    rows: list[tuple] = field(default_factory=list)

    def step(self, interval: Interval, end: int, avts):
        """Score `interval`, which ends at slot `end`: raw violation counts, ratios, stats.

        `avts` holds one threshold per flow of `interval.decodes`; the
        controller acts on the worst flow's ratio and on the pooled chunk
        counts and delays.
        """
        start = interval.start
        raws = [interval_age_violation(log, start, avt) for log, avt in zip(interval.decodes, avts)]
        ratios = [max(0.0, raw) / (end - start) for raw in raws]
        stats = AdaptiveIntervalStats(
            av_ratio=max(ratios),
            wbar_mi=interval.mean_delay,
            pdr=packet_delivery_ratio(interval.delivered, interval.sent),
            min_delay=interval.min_delay,
        )
        state, branch = process_interval(
            self.state,
            stats,
            self.avt,
            self.k,
            sigma_min=self.sigma_min,
            sigma_max=self.sigma_max,
            candidates=self.candidates,
        )
        self.state = state
        self.rows.append(
            (
                state.mi,
                state.sigma,
                state.n,
                state.t_s,
                state.t_tilde,
                max(raws),
                stats.av_ratio,
                stats.wbar_mi,
                stats.pdr,
                state.ef,
                int(state.df),
                state.min_rtt,
                branch,
            )
        )
        return raws, ratios, stats


class _AdaptiveSender:
    """One adaptive controller pacing one or more flows' codewords.

    The controller watches aggregate statistics (worst per-flow violation
    ratio, pooled delays, pooled delivery ratio) and sets the total rate;
    `allocate`, when given, splits it across flows.
    """

    schema = "adaptive-sampling-interval/1"
    columns = ADAPTIVE_COLUMNS

    def __init__(self, config: SimConfig, flow_avts: tuple[int, ...], allocate) -> None:
        flow_count = len(flow_avts)
        k, n0, avt = config.coding.k, config.coding.n, config.avt
        self.flow_avts = flow_avts
        self.horizon = 0
        self.allocate = allocate
        rtt_init = (
            config.rtt_init if config.rtt_init is not None else 2.0 * config.propagation_delay
        )
        # The rate ceiling is per flow; the aggregate controller gets one ceiling
        # per concurrent flow so sharing does not throttle the system.
        per_flow_max = config.sigma_max if config.sigma_max is not None else sigma_ceiling(k, avt)
        total_max = per_flow_max * flow_count
        state = AdaptiveSamplingState.initial(
            k,
            n0,
            avt,
            rtt_init,
            sigma_min=config.sigma_min,
            sigma_max=total_max,
            monitoring_interval=config.monitoring_interval,
        )
        if flow_count > 1:
            boosted = min(max(state.sigma * flow_count, config.sigma_min), total_max)
            state = replace(
                state, sigma=boosted, sigma_last=boosted,
                t_s=sampling_interval(n0, boosted),
            )
        self.controller = AdaptiveController(
            state, k, avt, config.sigma_min, total_max, config.block_candidates
        )
        self.rows = self.controller.rows
        self.sigmas = [state.sigma / flow_count] * flow_count
        # Each flow's emission clock: a codeword is due every t_s[f] slots.
        self.t_s = [sampling_interval(state.n, s) for s in self.sigmas]
        self.next_send = [1] * flow_count
        self.flow_rows: list[tuple] = []

    def emit(self, t: int) -> list[tuple]:
        n = self.controller.state.n
        next_send = self.next_send
        out = []
        for flow, due in enumerate(next_send):
            if t >= due:
                out.append((flow, 0, None, n, 1.0))
                next_send[flow] = t + self.t_s[flow]
        return out

    def boundary(self, t: int, interval: Interval) -> int:
        controller = self.controller
        old_total = controller.state.sigma
        raws, ratios, _stats = controller.step(interval, t, self.flow_avts)
        state = controller.state
        n = state.n
        if self.allocate is None:
            self.sigmas = [state.sigma]
        else:
            self.sigmas = list(
                self.allocate(self.sigmas, ratios, state.sigma, old_total, controller.sigma_min)
            )
        for idx, sig in enumerate(self.sigmas):
            t_s_i = self.t_s[idx] = sampling_interval(n, sig)
            # A shorter interval pulls the next send in; a longer one only
            # stretches later gaps and never delays a pending send.
            self.next_send[idx] = min(self.next_send[idx], t + t_s_i)
            if len(self.sigmas) > 1:
                self.flow_rows.append(
                    (state.mi, idx, sig, t_s_i, raws[idx], ratios[idx], interval.flow_delivered[idx])
                )
        return state.t_tilde


def fairness_index(values) -> float:
    """Jain's index: 1 for equal shares, 1/count for one flow taking all."""
    values = list(values)
    if not values:
        return 1.0
    square_sum = sum(v * v for v in values)
    if square_sum <= 0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


@dataclass
class FlowsOutcome:
    """One adaptive run: the system result, the per-flow interval rows
    (FLOW_COLUMNS, written for multi-flow runs only) and each flow's final rate."""

    system: SimResult
    flow_rows: list[tuple]
    final_sigmas: list[float]

    @property
    def fairness_final(self) -> float:
        return fairness_index(self.final_sigmas)

    @property
    def fairness_mean(self) -> float:
        """Jain's index of the flows' rates, averaged over intervals."""
        by_interval: dict[int, list[float]] = {}
        for row in self.flow_rows:
            by_interval.setdefault(row[0], []).append(row[2])
        per_interval = [fairness_index(v) for v in by_interval.values()]
        return sum(per_interval) / len(per_interval) if per_interval else 1.0

    def summary(self) -> dict:
        system = self.system
        out = system.summary()
        out.update(
            {
                "fairness_final": self.fairness_final,
                "fairness_mean": self.fairness_mean,
                "flow_av": system.flow_av,
                "flow_av_strict": system.flow_av_strict,
                "flow_delivered": system.flow_delivered,
                "flow_decoded": system.flow_decoded,
                "final_sigmas": self.final_sigmas,
            }
        )
        return out


def run_adaptive_flows(config: SimConfig, flow_avts=None, allocate=None) -> FlowsOutcome:
    """Drive one adaptive flow per threshold in `flow_avts` through a shared bottleneck.

    One controller instance watches aggregate statistics and sets the total
    rate; `allocate` then splits it across flows.  With the default single
    flow at config.avt and no allocator the total is the flow's rate and
    this is the plain single-flow simulation.
    """
    flow_avts = (config.avt,) if flow_avts is None else tuple(flow_avts)
    if not flow_avts or min(flow_avts) < 1:
        raise ParameterError(f"need one or more per-flow thresholds >= 1, got {flow_avts}")
    if len(flow_avts) > 1 and allocate is None:
        raise ParameterError("multiple flows need a rate allocator")
    sender = _AdaptiveSender(config, flow_avts, allocate)
    system = run_slots(config, sender)
    return FlowsOutcome(system, sender.flow_rows, list(sender.sigmas))


def run_sim(config: SimConfig) -> SimResult:
    """Single-flow adaptive simulation over the bottleneck path."""
    return run_adaptive_flows(config).system
