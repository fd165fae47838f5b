"""Output checks for the benchmark workloads, computed apart from the program.

Every check takes plain data (parsed CSV rows, summary dicts, counters) and
returns a list of problems; an empty list means the output passed.  Nothing
here imports agefec, so a fault in the program cannot hide in a check that
reuses its code.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter

# Binomial tolerance in standard deviations.  A fair draw lands outside it
# with probability below 1e-6, while a ratio six deviations off is caught.
Z_TOLERANCE = 5.0
REL_TOL = 1e-9

CONSERVED = ("lost_in", "dropped_buffer", "lost_out", "delivered", "in_flight", "queued")


def read_output_csv(path: str) -> tuple[str, list[str], list[list[str]], dict | None]:
    """Parse a result CSV: (schema, columns, rows as strings, summary or None)."""
    schema = ""
    summary = None
    lines = []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("# schema:"):
                schema = line.split(":", 1)[1].strip()
            elif line.startswith("# summary:"):
                summary = json.loads(line.split(":", 1)[1])
            elif line.strip():
                lines.append(line)
    rows = list(csv.reader(lines))
    columns = rows.pop(0) if rows else []
    return schema, columns, rows, summary


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def binomial_problem(label: str, hits: int, trials: int, p: float) -> list[str]:
    """Flag a hit ratio further than Z_TOLERANCE deviations from p."""
    if trials <= 0 or p <= 0.0 or p >= 1.0:
        return []
    ratio = hits / trials
    sigma = math.sqrt(p * (1.0 - p) / trials)
    if abs(ratio - p) > Z_TOLERANCE * sigma:
        return [
            f"{label}: ratio {ratio:.5f} over {trials} trials is "
            f"{abs(ratio - p) / sigma:.1f} sigma from {p}"
        ]
    return []


def check_conservation(summary: dict) -> list[str]:
    """Every injected chunk is lost, dropped, delivered, in flight or queued."""
    accounted = sum(summary[key] for key in CONSERVED)
    if accounted != summary["injected"]:
        return [f"conservation: injected {summary['injected']} != accounted {accounted}"]
    return []


def check_loss_ratios(summary: dict, p_in: float, p_out: float) -> list[str]:
    """Pre-queue losses are a Bin(injected, p_in) draw, post-queue a Bin(served, p_out)."""
    served = summary["lost_out"] + summary["delivered"] + summary["in_flight"]
    return binomial_problem(
        "pre-queue loss", summary["lost_in"], summary["injected"], p_in
    ) + binomial_problem("post-queue loss", summary["lost_out"], served, p_out)


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def _pstdev(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = _mean(values)
    return math.sqrt(math.fsum((v - mu) ** 2 for v in values) / len(values))


def check_aggregate(aggregate: dict, summaries: list[dict], stats: dict[str, str]) -> list[str]:
    """The aggregate JSON repeats the CSV summaries and their mean and spread.

    `stats` maps a summary key to the aggregate's name for its mean; the
    spread is expected under the same name with 'mean' replaced by 'std'.
    """
    problems = []
    if aggregate.get("per_run") != summaries:
        problems.append("aggregate per_run differs from the CSV summary lines")
    for key, mean_name in stats.items():
        values = [s[key] for s in summaries]
        std_name = mean_name.replace("mean", "std", 1)
        if not _close(aggregate[mean_name], _mean(values)):
            problems.append(f"aggregate {mean_name} {aggregate[mean_name]} != {_mean(values)}")
        if std_name in aggregate and not _close(aggregate[std_name], _pstdev(values)):
            problems.append(f"aggregate {std_name} {aggregate[std_name]} != {_pstdev(values)}")
    return problems


def check_fixed_run(columns: list[str], rows: list[list[str]], summary: dict) -> list[str]:
    """av_strict is the mean of the per-interval av_mi values."""
    col = columns.index("av_mi")
    av_mi = [float(row[col]) for row in rows]
    if not av_mi:
        return ["fixed run wrote no interval rows"]
    if not _close(summary["av_strict"], _mean(av_mi)):
        return [f"av_strict {summary['av_strict']} != mean av_mi {_mean(av_mi)}"]
    return []


def check_band(label: str, value: float, lo: float, hi: float) -> list[str]:
    if not lo <= value <= hi:
        return [f"{label} {value} outside [{lo}, {hi}]"]
    return []


def expected_t_s(n: int, sigma: float) -> int:
    """Slots between codewords: max(1, floor(n / sigma + 1/2))."""
    return max(1, math.floor(n / sigma + 0.5))


def check_adaptive_rows(
    columns: list[str], rows: list[list[str]], k: int, sigma_lo: float, sigma_hi: float
) -> list[str]:
    """Every interval: k <= n <= 3k, t_s follows from n and sigma, sigma in its band."""
    c_sigma, c_n, c_ts = (columns.index(name) for name in ("sigma", "n", "t_s"))
    problems = []
    for row in rows:
        sigma, n, t_s = float(row[c_sigma]), int(row[c_n]), int(row[c_ts])
        if not k <= n <= 3 * k:
            problems.append(f"interval {row[0]}: n={n} outside [{k}, {3 * k}]")
        if t_s != expected_t_s(n, sigma):
            problems.append(f"interval {row[0]}: t_s={t_s}, expected {expected_t_s(n, sigma)}")
        if not sigma_lo - 1e-12 <= sigma <= sigma_hi + 1e-12:
            problems.append(f"interval {row[0]}: sigma={sigma} outside [{sigma_lo}, {sigma_hi}]")
    return problems


def check_flow_rows(
    columns: list[str],
    rows: list[list[str]],
    flow_columns: list[str],
    flow_rows: list[list[str]],
    spread: float = 0.05,
) -> list[str]:
    """Per-flow rates sum to the system rate; mean flow rates lie within `spread`.

    Flows with equal thresholds should share the bottleneck equally over a
    run.  The final rates alone are no test of that: the allocator moves
    rate toward a flow that violated and decays the difference by only 5%
    per interval, so one late violation leaves unequal final rates.
    """
    c_mi, c_sigma, c_n = (columns.index(name) for name in ("mi", "sigma", "n"))
    f_mi, f_sigma, f_ts = (flow_columns.index(name) for name in ("mi", "sigma", "t_s"))
    system = {row[c_mi]: (float(row[c_sigma]), int(row[c_n])) for row in rows}
    f_flow = flow_columns.index("flow")
    by_mi: dict[str, list[tuple[float, int]]] = {}
    by_flow: dict[str, list[float]] = {}
    for row in flow_rows:
        by_mi.setdefault(row[f_mi], []).append((float(row[f_sigma]), int(row[f_ts])))
        by_flow.setdefault(row[f_flow], []).append(float(row[f_sigma]))
    problems = []
    if set(by_mi) != set(system):
        problems.append("flow rows and system rows cover different intervals")
    for mi, flows in by_mi.items():
        if mi not in system:
            continue
        total, n = system[mi]
        if not _close(math.fsum(s for s, _ in flows), total):
            problems.append(f"interval {mi}: flow rates sum to {sum(s for s, _ in flows)}, system {total}")
        for sigma, t_s in flows:
            if t_s != expected_t_s(n, sigma):
                problems.append(f"interval {mi}: flow t_s={t_s}, expected {expected_t_s(n, sigma)}")
    means = [_mean(rates) for rates in by_flow.values()]
    if means and max(means) - min(means) > spread * max(means):
        problems.append(f"mean flow rates {means} differ by more than {spread:.0%}")
    return problems


def check_wire_round(
    sender: dict,
    receiver: dict,
    sent_digests: list[str],
    decoded_digests: list[str],
    parity_decodes: int,
    samples: int,
    k: int,
    drop: float,
) -> tuple[int, list[str]]:
    """Check one loopback round; returns (failed samples, problems).

    A sample fails unless its decoded payload is byte-identical to the one
    the sender encoded.  The remaining checks cover the samples that did
    not fail: the receiver's own counters agree with what was sent, every
    chunk that left the shim arrived, the shim dropped its share, and
    parity decodes occur as often as a lost data chunk does.
    """
    problems = []
    if sender["samples_sent"] != samples or len(sent_digests) != samples:
        problems.append(f"sender sent {sender['samples_sent']} samples, expected {samples}")
    matched = sum((Counter(sent_digests) & Counter(decoded_digests)).values())
    failed = samples - matched
    if len(decoded_digests) != receiver["decoded_samples"]:
        problems.append(
            f"receiver reports {receiver['decoded_samples']} decodes, {len(decoded_digests)} seen"
        )
    if receiver["payload_ok"] != receiver["decoded_samples"]:
        problems.append(
            f"payload_ok {receiver['payload_ok']} != decoded_samples {receiver['decoded_samples']}"
        )
    arrived = receiver["chunks_received"] + receiver["drained"]
    if arrived != sender["chunks_sent"]:
        problems.append(f"{arrived} chunks arrived, {sender['chunks_sent']} were sent")
    problems += binomial_problem(
        "shim drop", sender["shim_dropped"], sender["shim_dropped"] + sender["chunks_sent"], drop
    )
    problems += binomial_problem(
        "parity decodes", parity_decodes, len(decoded_digests), 1.0 - (1.0 - drop) ** k
    )
    return failed, problems
