"""The benchmark's per-layer tracer still finds the calls it wraps.

`perfbench/tracer.py` wraps agefec functions by module attribute.  If a
refactor renames one of them, or stops calling it through its module's
globals, the benchmark's per-layer metrics silently read zero.  This test
installs the tracer in a fresh interpreter (every traced name must resolve),
runs a short adaptive simulation, and checks that the controller's seams
recorded calls.  It only imports from `perfbench/`.
"""

import json
import os
import subprocess
import sys
import textwrap

import agefec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(agefec.__file__)))

SCRIPT = textwrap.dedent(
    """
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import agefec
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from agefec import experiments

    spec = experiments.build_spec(
        overrides={"mode": "vsvb-sim", "duration": 3000, "out_dir": sys.argv[2]}
    )
    experiments.run_experiment(spec)
    print(json.dumps({name: entry[0] for name, entry in tracer.by_name().items()}))
    """
)


def test_tracer_sees_the_adaptive_controller(tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench"), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.strip().splitlines()[-1])
    assert calls.get("adaptive_sampling.process_interval", 0) > 0
    assert calls.get("adaptive_sampling.interval_age_violation", 0) > 0
