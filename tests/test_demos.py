"""Every script under demos/ and every Python example in the README runs to
completion from an unrelated directory."""

import glob
import os
import re
import subprocess
import sys

import pytest

import agefec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
    README_EXAMPLES = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)


def run_python(args, cwd):
    src = os.path.dirname(os.path.dirname(os.path.abspath(agefec.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(script, tmp_path):
    run_python([script], tmp_path)


def test_readme_has_python_examples():
    assert len(README_EXAMPLES) >= 2


@pytest.mark.parametrize("code", README_EXAMPLES, ids=[f"example{i}" for i in range(1, len(README_EXAMPLES) + 1)])
def test_readme_example_exits_zero(code, tmp_path):
    run_python(["-c", code], tmp_path)
