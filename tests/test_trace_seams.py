"""The benchmark's per-layer tracer still finds the calls it wraps.

`perfbench/tracer.py` wraps agefec functions by module attribute.  If a
refactor renames one of them, or stops calling it through its module's
globals, the benchmark's per-layer metrics silently read zero.  This test
installs the tracer in a fresh interpreter (every traced name must resolve),
runs a short simulation of each controller, a short multi-flow simulation or
a short loopback round, and checks that the seams recorded calls.  It only
imports from `perfbench/`.  The benchmark also times each seeded run by
hooking `experiments.write_csv`, so the number of CSVs a run writes is
checked here too.
"""

import json
import os
import subprocess
import sys

import pytest

import agefec
from agefec import experiments

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(agefec.__file__)))

PROLOGUE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import agefec
from tracer import Tracer

tracer = Tracer()
tracer.install()
"""


def experiment(mode: str) -> str:
    """A 3000-slot run of `mode` through run_experiment."""
    return f"""
from agefec import experiments

spec = experiments.build_spec(
    overrides={{"mode": "{mode}", "duration": 3000, "out_dir": sys.argv[2]}}
)
experiments.run_experiment(spec)
"""


LOOPBACK = """
import socket, threading
from agefec import wire

sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
sock.bind(("127.0.0.1", 0))
config = wire.WireConfig(dest=sock.getsockname(), k=3, n_init=5, payload_bytes=300, samples=20,
                         fixed_rate=5.0, drop_shim=0.2, shim_seed=1)
stop = threading.Event()
receiver = threading.Thread(target=wire.run_receiver, args=(config, stop, sock))
receiver.start()
wire.run_sender(config)
threading.Timer(0.3, stop.set).start()
receiver.join(timeout=10.0)
sock.close()
"""


def traced_calls(tmp_path, body: str) -> dict:
    """Run `body` with the tracer installed; returns the calls per traced name."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
        PYTHONDONTWRITEBYTECODE="1",
    )
    script = PROLOGUE + body + "print(json.dumps({n: e[0] for n, e in tracer.by_name().items()}))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script, os.path.join(ROOT, "perfbench"), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracer_sees_the_fixed_controller(tmp_path):
    calls = traced_calls(tmp_path, experiment("fsfb-sim"))
    for name in (
        "fixed_sampling.run_sim",
        "fixed_sampling.update_controller",
        "fixed_sampling.optimal_selection_probs",
    ):
        assert calls.get(name, 0) > 0, name


def test_tracer_sees_the_adaptive_controller(tmp_path):
    calls = traced_calls(tmp_path, experiment("vsvb-sim"))
    assert calls.get("adaptive_sampling.process_interval", 0) > 0
    assert calls.get("adaptive_sampling.interval_age_violation", 0) > 0


def test_tracer_sees_the_multiflow_run(tmp_path):
    calls = traced_calls(tmp_path, experiment("multiserver"))
    for name in ("multiflow.run_sim", "multiflow.allocate_rates", "adaptive_sampling.run_adaptive_flows"):
        assert calls.get(name, 0) > 0, name


def test_tracer_sees_the_wire_and_its_codec(tmp_path):
    calls = traced_calls(tmp_path, LOOPBACK)
    for name in ("wire.run_sender", "wire.run_receiver", "wire.ChunkPacket.decode",
                 "wire.sample_payload", "coding.encode_payload"):
        assert calls.get(name, 0) > 0, name
    # the tracer files decode_payload calls under .systematic or .parity
    assert sum(c for name, c in calls.items() if name.startswith("coding.decode_payload")) > 0


@pytest.mark.parametrize(
    "mode, per_run",
    [("fsfb-sim", 1), ("vsvb-sim", 1), ("baseline-fixed", 1), ("multiserver", 2)],
)
def test_run_experiment_writes_its_csvs_once_per_run(tmp_path, monkeypatch, mode, per_run):
    """The benchmark marks the end of each seeded run at a write_csv call."""
    paths = []
    write_csv = experiments.write_csv

    def counting(path, *args, **kwargs):
        paths.append(path)
        write_csv(path, *args, **kwargs)

    monkeypatch.setattr(experiments, "write_csv", counting)
    spec = experiments.build_spec(
        overrides={"mode": mode, "runs": 3, "duration": 500, "out_dir": str(tmp_path)}
    )
    experiments.run_experiment(spec)
    assert len(paths) == 3 * per_run
    assert len(set(paths)) == len(paths)
