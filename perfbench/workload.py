#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its figures as JSON.

run.py starts this script in a fresh interpreter once per set-up probe and
once for the measured run; it is not meant to be called by hand, except to
rebuild the reference digests of the simulator outputs:

    python3 perfbench/workload.py --write-reference

Workloads (see README.md for why each exists):

  fixed-table1    fsfb-sim, preset table1-k3n4, 2 seeded runs per round
  adaptive-lossy  vsvb-sim, preset vsvb-lossy, 3 runs, then multiserver,
                  preset multiserver-pair, 3 runs, per round
  wire-loopback   wire.run_sender here and wire.run_receiver in receiver.py,
                  500 samples per round over 127.0.0.1

A round is one fixed set of operations; rounds repeat until --seconds have
passed, so every run attempts whole rounds.  Round r draws pool index
order[r % POOL] from a permutation seeded by --seed; the pool index fixes
the simulator seeds, or the wire shim seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracer import Tracer, layer_metrics, merge_totals  # noqa: E402

OUT = os.path.join("perfbench", "out")  # relative to ROOT, so outputs hash the same anywhere
REFERENCE = os.path.join(HERE, "reference_digests.json")
POOL = 16

# Expected parameters of the simulator presets, restated here so the checks
# do not read them back from the program.
K, AVT, P_IN, P_OUT = 3, 5, 0.1, 0.1
SIGMA_MIN = 0.99
SIGMA_CEILING = math.floor(4.4 * K + 0.5) / AVT  # per flow
FIXED_AV_BAND = (0.0005, 0.01)
WORST_FLOW_AV_MAX = 0.05


class SimPart:
    """One preset of a simulator round: `runs` seeded runs of `duration` slots."""

    def __init__(self, preset: str, kind: str, runs: int, duration: int, flows: int = 1) -> None:
        self.preset = preset
        self.kind = kind
        self.runs = runs
        self.duration = duration
        self.flows = flows

    @property
    def slots(self) -> int:
        return self.runs * self.duration


SIM_WORKLOADS = {
    "fixed-table1": (SimPart("table1-k3n4", "fixed", 2, 100_000),),
    "adaptive-lossy": (
        SimPart("vsvb-lossy", "adaptive", 3, 30_000),
        SimPart("multiserver-pair", "adaptive", 3, 30_000, flows=2),
    ),
}

# wire-loopback: one sample due per 1 ms slot (t_s = n / fixed_rate = 1).
# The sender sleeps a whole slot after each sample once it runs late, so it
# sends every E + 1 ms when a sample costs it E > 1 ms of CPU, and every
# 1 ms otherwise.  16 KiB samples cost about 1 ms here and the rate flips
# between the two; 32 KiB samples keep E near 2 ms, on one side.
WIRE_K, WIRE_N, WIRE_PAYLOAD, WIRE_DROP = 8, 16, 32768, 0.1
WIRE_SAMPLES = 500
WIRE_END = b"PBEND"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_agefec() -> float:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import agefec  # noqa: F401

    return time.perf_counter() - start


# --------------------------------------------------------------------------
# simulator workloads


def part_dir(workload: str, part: SimPart) -> str:
    return os.path.join(OUT, workload, part.preset)


def clear_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
    for name in os.listdir(path):
        os.remove(os.path.join(path, name))


def run_part(experiments, workload: str, part: SimPart, index: int) -> None:
    out_dir = part_dir(workload, part)
    clear_dir(out_dir)
    spec = experiments.build_spec(
        preset=part.preset,
        overrides={
            "name": part.preset,
            "runs": part.runs,
            "seed_base": index * part.runs,
            "out_dir": out_dir,
        },
    )
    experiments.run_experiment(spec)


def check_part(workload: str, part: SimPart) -> list[str]:
    out_dir = part_dir(workload, part)
    with open(os.path.join(out_dir, f"{part.preset}.json"), encoding="utf-8") as fh:
        aggregate = json.load(fh)
    spec = aggregate["spec"]
    expected = {"k": K, "avt": AVT, "p_in": P_IN, "p_out": P_OUT, "runs": part.runs, "duration": part.duration}
    problems = [
        f"{part.preset}: spec {key}={spec[key]}, expected {value}"
        for key, value in expected.items()
        if spec[key] != value
    ]
    summaries = []
    for run in range(part.runs):
        stem = os.path.join(out_dir, f"{part.preset}-run{run:02d}")
        _schema, columns, rows, summary = checks.read_output_csv(stem + ".csv")
        summaries.append(summary)
        problems += checks.check_conservation(summary)
        problems += checks.check_loss_ratios(summary, P_IN, P_OUT)
        if part.kind == "fixed":
            problems += checks.check_fixed_run(columns, rows, summary)
        else:
            problems += checks.check_adaptive_rows(
                columns, rows, K, SIGMA_MIN, SIGMA_CEILING * part.flows
            )
        if part.flows > 1:
            _s, flow_columns, flow_rows, _ = checks.read_output_csv(stem + "-flows.csv")
            problems += checks.check_flow_rows(columns, rows, flow_columns, flow_rows)
            # The system av covers flow 0 only; the worst flow is in flow_av.
            problems += checks.check_band("worst flow av", max(summary["flow_av"]), 0.0, WORST_FLOW_AV_MAX)
    if part.flows > 1:
        stats = {"fairness_final": "mean_fairness_final"}
    else:
        stats = {"av": "mean_av", "av_strict": "mean_av_strict", "mean_delay": "mean_delay"}
    problems += checks.check_aggregate(aggregate, summaries, stats)
    if part.kind == "fixed":
        problems += checks.check_band("mean av", aggregate["mean_av"], *FIXED_AV_BAND)
    return [f"{part.preset} seed_base {spec['seed_base']}: {p}" for p in problems]


def part_digests(workload: str, part: SimPart) -> dict[str, str]:
    out_dir = part_dir(workload, part)
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[f"{part.preset}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def now() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


class RunClock:
    """Times seeded runs one by one.

    run_experiment writes one CSV at the end of each run (two for
    multiserver), so a hook on experiments.write_csv marks where each run
    ends; the last run ends when run_experiment returns.
    """

    def __init__(self, experiments) -> None:
        self.marks: list[tuple[float, float]] = []
        write_csv = experiments.write_csv

        def marking_write_csv(*args, **kwargs):
            write_csv(*args, **kwargs)
            self.marks.append(now())

        experiments.write_csv = marking_write_csv

    def run_times(self, part: SimPart, start, end) -> list[tuple[float, float, int]]:
        """(wall, cpu, slots) of each run of `part`, from marks made since `start`."""
        per_run = len(self.marks) // part.runs
        ends = [self.marks[(i + 1) * per_run - 1] for i in range(part.runs - 1)] + [end]
        starts = [start] + ends[:-1]
        self.marks.clear()
        return [(e[0] - s[0], e[1] - s[1], part.duration) for s, e in zip(starts, ends)]


def sim_round(experiments, clock: RunClock, workload: str, index: int, tracer: Tracer | None) -> dict:
    """One round: run, time, check and hash every part for pool index `index`."""
    parts = SIM_WORKLOADS[workload]
    runs = sum(p.runs for p in parts)
    timings = {}
    round_start = start = now()
    try:
        for part in parts:
            clock.marks.clear()
            run_part(experiments, workload, part, index)
            end = now()
            timings[part.preset] = clock.run_times(part, start, end)
            start = end
    except Exception as exc:  # a failing run is counted, not fatal
        return {"index": index, "runs": runs, "failed": runs, "problems": [f"round raised {exc!r}"]}
    wall, cpu = start[0] - round_start[0], start[1] - round_start[1]
    slots = sum(p.slots for p in parts)
    problems = []
    digests = {}
    for part in parts:
        problems += check_part(workload, part)
        digests.update(part_digests(workload, part))
    result = {
        "index": index,
        "runs": runs,
        "failed": 0,
        "slots": slots,
        "wall": wall,
        "cpu": cpu,
        "timings": timings,
        "problems": problems,
        "digests": digests,
    }
    if tracer is not None:
        result["state_counts"] = tracer.take_state_counts()
    return result


# --------------------------------------------------------------------------
# wire workload


class Deadline:
    """A stop flag for run_receiver that sets itself once time runs out."""

    def __init__(self, seconds: float) -> None:
        self.at = time.monotonic() + seconds

    def is_set(self) -> bool:
        return time.monotonic() >= self.at


class WireParent:
    """The sending side of wire-loopback and its receiver child process."""

    def __init__(self) -> None:
        self.child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "receiver.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        self.sock: socket.socket | None = None
        self.port = 0

    def wait_ready(self, experiments) -> None:
        self.port = self.read()["port"]
        self.experiments = experiments
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sent_digests: list[str] = []
        wire, coding = sys.modules["agefec.wire"], sys.modules["agefec.coding"]
        sent = self.sent_digests

        def encode_hook(payload, k, n):
            sent.append(digest(payload))
            return coding.encode_payload(payload, k, n)

        wire.encode_payload = encode_hook

    def read(self) -> dict:
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError("receiver child exited")
        return json.loads(line)

    def send(self, message: dict) -> None:
        self.child.stdin.write(json.dumps(message) + "\n")
        self.child.stdin.flush()

    def config(self, shim_seed: int):
        spec = self.experiments.build_spec(
            overrides={
                "mode": "wire-send",
                "dest": ("127.0.0.1", self.port),
                "k": WIRE_K,
                "n_init": WIRE_N,
                "payload_bytes": WIRE_PAYLOAD,
                "samples": WIRE_SAMPLES,
                "fixed_rate": float(WIRE_N),
                "drop_shim": WIRE_DROP,
                "shim_seed": shim_seed,
            }
        )
        return spec.wire_config()

    def round(self, index: int, traced: bool) -> dict:
        wire = sys.modules["agefec.wire"]
        config = self.config(index)
        self.sent_digests.clear()
        self.send({"samples": WIRE_SAMPLES, "trace": traced})
        start, cpu0 = time.monotonic(), time.process_time()
        try:
            log = wire.run_sender(config, sock=self.sock)
        except Exception as exc:
            self.sock.sendto(WIRE_END, ("127.0.0.1", self.port))
            self.read()
            return {"index": index, "runs": WIRE_SAMPLES, "failed": WIRE_SAMPLES, "problems": [f"sender raised {exc!r}"]}
        cpu_send = time.process_time() - cpu0
        self.sock.sendto(WIRE_END, ("127.0.0.1", self.port))
        reply = self.read()
        sender = {
            "samples_sent": log.samples_sent,
            "chunks_sent": log.chunks_sent,
            "shim_dropped": log.shim_dropped,
        }
        failed, problems = checks.check_wire_round(
            sender,
            reply["log"],
            list(self.sent_digests),
            reply["digests"],
            reply["parity"],
            WIRE_SAMPLES,
            WIRE_K,
            WIRE_DROP,
        )
        if not reply["end_seen"]:
            problems.append("round end marker never reached the receiver")
        wall = reply["t_done"] - start
        cpu = cpu_send + reply["cpu"]
        return {
            "index": index,
            "runs": WIRE_SAMPLES,
            "failed": failed,
            "slots": WIRE_SAMPLES,
            "wall": wall,
            "cpu": cpu,
            "timings": {"samples": [(wall, cpu, WIRE_SAMPLES - failed)]},
            "cpu_send": cpu_send,
            "cpu_recv": reply["cpu"],
            "child_rss_mb": reply["rss_mb"],
            "mean_delay_ms": reply["log"]["mean_delay_ms"],
            "problems": [f"shim seed {index}: {p}" for p in problems],
            "totals": reply.get("totals"),
            "state_counts": reply.get("state_counts"),
        }

    def close(self) -> None:
        try:
            if self.child.poll() is None:
                self.send({"quit": True})
        except OSError:
            pass
        try:
            self.child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.wait()
        if self.sock is not None:
            self.sock.close()


# --------------------------------------------------------------------------
# measurement


def round_order(seed: int) -> list[int]:
    order = list(range(POOL))
    random.Random(seed).shuffle(order)
    return order


def run_phase(do_round, order: list[int], seconds: float) -> list[dict]:
    """Whole rounds until `seconds` have passed (at least one)."""
    rounds = []
    end = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < end:
        rounds.append(do_round(order[len(rounds) % POOL]))
    return rounds


def summarize(rounds: list[dict]) -> dict:
    """Counts, problems and the throughput of a typical round.

    A round's parts are timed apart (each simulator run, or each wire
    round), and the typical round takes the median time of each part, so a
    stall on a shared host moves one sample, not the result.
    """
    samples: dict[str, list[tuple[float, float, int]]] = {}
    weights: dict[str, int] = {}
    for r in rounds:
        for key, items in r.get("timings", {}).items():
            samples.setdefault(key, []).extend(items)
            weights[key] = len(items)
    wall = sum(w * median(s[0] for s in samples[k]) for k, w in weights.items())
    cpu = sum(w * median(s[1] for s in samples[k]) for k, w in weights.items())
    units = sum(w * median(s[2] for s in samples[k]) for k, w in weights.items())
    return {
        "attempted": sum(r["runs"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "per_s": units / wall if wall else 0.0,
        "cpu_us": cpu / units * 1e6 if units else 0.0,
        "timed": samples,
        "problems": [p for r in rounds for p in r["problems"]],
    }


def compare_digests(workload: str, rounds: list[dict]) -> dict:
    if not os.path.exists(REFERENCE):
        return {"checked": 0, "mismatched": [], "missing": "reference file absent"}
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh).get(workload, {})
    checked, mismatched = 0, []
    for r in rounds:
        expected = reference.get(str(r["index"]))
        if expected is None or "digests" not in r:
            continue
        for name in sorted(set(expected) | set(r["digests"])):
            checked += 1
            if expected.get(name) != r["digests"].get(name):
                mismatched.append(f"pool {r['index']}: {name}")
    return {"checked": checked, "mismatched": sorted(set(mismatched))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*SIM_WORKLOADS, "wire-loopback"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, help="monotonic clock when the parent spawned us")
    parser.add_argument("--probe", action="store_true", help="measure set-up only")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.write_reference:
        return write_reference()
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    workload = args.workload
    wire_parent = WireParent() if workload == "wire-loopback" else None
    try:
        import_s = import_agefec()
        from agefec import experiments

        if wire_parent is not None:
            wire_parent.wait_ready(experiments)
            do_round = lambda i, tracer: wire_parent.round(i, tracer is not None)  # noqa: E731
        else:
            experiments.build_spec(preset=SIM_WORKLOADS[workload][0].preset)
            clock = RunClock(experiments)
            do_round = lambda i, tracer: sim_round(experiments, clock, workload, i, tracer)  # noqa: E731
        setup_s = time.monotonic() - t0
        result = {"setup_s": setup_s, "import_s": import_s}
        if not args.probe:
            result.update(measure(args, workload, wire_parent is not None, do_round))
    finally:
        if wire_parent is not None:
            wire_parent.close()
    result["peak_rss_mb"] = max(peak_rss_mb(), result.pop("child_rss_mb", 0.0))
    print(json.dumps(result))
    return 0


def measure(args, workload: str, is_wire: bool, do_round) -> dict:
    """Untraced rounds for --seconds; with --trace 1, half that untraced, then the same rounds traced."""
    order = round_order(args.seed)
    seconds = args.seconds if not args.trace else args.seconds / 2.0
    plain = run_phase(lambda i: do_round(i, None), order, seconds)
    out = {"plain": summarize(plain)}
    out["child_rss_mb"] = max((r.get("child_rss_mb", 0.0) for r in plain), default=0.0)
    if not is_wire:
        out["digests"] = compare_digests(workload, plain)
    if not args.trace:
        return out

    tracer = Tracer()
    tracer.install()
    traced = run_phase(lambda i: do_round(i, tracer), order, seconds)
    tracer.write(os.path.join(OUT, f"trace-{workload}.json"))
    totals = tracer.by_name()
    for r in traced:
        if r.get("totals"):
            merge_totals(totals, r["totals"])
    ok = [r for r in traced if "wall" in r]
    metrics = layer_metrics(
        totals,
        slots=0 if is_wire else sum(r["slots"] for r in ok),
        ops=sum(r["runs"] for r in ok),
    )
    counts = [r["state_counts"] for r in traced if r.get("state_counts")]
    metrics["core.age_trace_entries"] = max((c[0] for c in counts), default=0)
    metrics["core.store_decoded_held"] = max((c[1] for c in counts), default=0)
    plain_ok = [r for r in plain if "wall" in r]
    metrics["wire.sender_cpu_us_per_sample"] = median(
        r["cpu_send"] / r["slots"] * 1e6 for r in plain_ok if "cpu_send" in r
    )
    metrics["wire.receiver_cpu_us_per_sample"] = median(
        r["cpu_recv"] / r["slots"] * 1e6 for r in plain_ok if "cpu_recv" in r
    )
    metrics["wire.receiver_peak_rss_MB"] = out["child_rss_mb"] if is_wire else 0.0
    metrics["wire.mean_delay_ms"] = median(r["mean_delay_ms"] for r in plain_ok if "mean_delay_ms" in r)
    # Overhead: CPU per unit of the traced rounds over the same rounds untraced.
    pairs = min(len(plain_ok), len(ok))
    untraced_cpu = sum(r["cpu"] for r in plain_ok[:pairs])
    traced_cpu = sum(r["cpu"] for r in ok[:pairs])
    metrics["trace.overhead_pct"] = 100.0 * (traced_cpu / untraced_cpu - 1.0) if untraced_cpu else 0.0
    out["traced"] = summarize(traced)
    out["layers"] = metrics
    if not is_wire:
        out["traced_digests"] = compare_digests(workload, traced)
    return out


def write_reference() -> int:
    """Run every pool index of both simulator workloads and record its digests."""
    import_agefec()
    from agefec import experiments

    clock = RunClock(experiments)
    reference: dict[str, dict[str, dict[str, str]]] = {}
    problems = []
    for workload in SIM_WORKLOADS:
        for index in range(POOL):
            r = sim_round(experiments, clock, workload, index, None)
            problems += r["problems"]
            reference.setdefault(workload, {})[str(index)] = r.get("digests", {})
            print(f"{workload} pool {index}: {len(r['digests'])} files, {len(r['problems'])} problems", flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print("outputs fail their checks; reference not written", file=sys.stderr)
        return 1
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
