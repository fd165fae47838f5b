#!/usr/bin/env python3
"""Benchmark entry point: one workload, measured, checked and reported as JSON.

    python3 perfbench/run.py --workload fixed-table1 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; agefec is imported from src/ without being
installed.  The script imports nothing of agefec itself.  It starts
workload.py PROBES times to time set-up alone, then once more for the
measured run, each in a fresh interpreter, and prints:

  - with --trace 0 the end_to_end metrics named in BENCHMARK.json,
  - with --trace 1 its per_layer metrics, from a run whose first half is
    untraced and whose second half repeats the same rounds traced,

as the last line of standard output, in the form
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Outputs go to perfbench/out/, which git ignores.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBES = 4
PROBE_TIMEOUT_S = 30.0
TOTAL_TIMEOUT_S = 170.0
# numpy's BLAS would otherwise start one thread per core in every process.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args: argparse.Namespace, probe: bool, deadline: float) -> dict:
    """Run workload.py in a fresh interpreter; return its JSON result.

    The process leads its own process group, so a timeout ends it together with
    the receiver child it may have started.
    """
    command = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if probe:
        command.append("--probe")
    env = dict(os.environ, **SINGLE_THREAD)
    t0 = time.monotonic()
    timeout = min(PROBE_TIMEOUT_S if probe else PROBE_TIMEOUT_S + 3 * args.seconds, deadline - t0)
    proc = subprocess.Popen(
        [*command, "--t0", repr(t0)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description="Run one agefec benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "agefec", "__init__.py")):
        print(f"perfbench: no agefec sources under {ROOT}/src", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 60:
        print("perfbench: --seconds must lie in [1, 60]", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)

    deadline = time.monotonic() + TOTAL_TIMEOUT_S
    try:
        probes = [spawn(args, True, deadline) for _ in range(PROBES)]
        result = spawn(args, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups = [p["setup_s"] for p in probes] + [result["setup_s"]]
    imports = [p["import_s"] for p in probes] + [result["import_s"]]

    phase = result["plain"]
    problems = list(phase["problems"])
    for key in ("digests", "traced_digests"):
        report = result.get(key)
        if report is not None:
            print(
                f"{key}: {report['checked']} checked, {len(report['mismatched'])} mismatched"
                + (f" ({report['missing']})" if report.get("missing") else "")
            )
            for name in report["mismatched"]:
                print(f"  digest mismatch: {name}")
    if args.trace:
        metrics = dict(result["layers"], **{"setup.import_s": statistics.median(imports)})
        reported = bench["per_layer"]
        problems += result["traced"]["problems"]
        attempted = phase["attempted"] + result["traced"]["attempted"]
        failed = phase["failed"] + result["traced"]["failed"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "slots_or_samples_per_s": phase["per_s"],
            "cpu_us_per_slot_or_sample": phase["cpu_us"],
            "peak_rss_MB": result["peak_rss_mb"],
        }
        reported = bench["end_to_end"]
        attempted, failed = phase["attempted"], phase["failed"]
    for problem in problems:
        print(f"check failed: {problem}")
    with open(os.path.join(ROOT, "perfbench", "out", f"result-{args.workload}.json"), "w") as fh:
        json.dump({"args": vars(args), "setups": setups, "result": result}, fh, indent=1)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
