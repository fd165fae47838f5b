"""Golden digests: every simulator output file stays byte-identical.

Each case runs one experiment mode for a few thousand slots and two seeds and
compares the SHA-256 of every CSV and JSON it writes with `golden/digests.json`.
A change that alters an RNG draw order, a float operation order or a counter
changes a digest.  Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from agefec.analysis import rate_upper_bound
from agefec.experiments import build_spec, run_experiment

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "digests.json")
SHORT = {"duration": 5_000, "runs": 2}
# baseline-fixed runs table1-k3n4's path at a fraction of the stable-rate
# ceiling; the small buffer makes the overloaded run drop chunks.
_T1 = build_spec(preset="table1-k3n4")
_CEILING = rate_upper_bound(_T1.q_s, _T1.n, _T1.p_in)
CASES = {
    "fsfb-table1-k3n4": ("table1-k3n4", {}),
    "sweep-avt5-p02": ("sweep-avt5-p02", {}),
    "vsvb-lossy": ("vsvb-lossy", {}),
    "multiserver-pair": ("multiserver-pair", {}),
    "baseline-0.9": ("table1-k3n4", {"mode": "baseline-fixed", "rate": 0.9 * _CEILING, "buffer_capacity": 500}),
    "baseline-1.1": ("table1-k3n4", {"mode": "baseline-fixed", "rate": 1.1 * _CEILING, "buffer_capacity": 500}),
}


def case_digests(case: str) -> tuple[dict[str, str], dict]:
    """Run one case into ./<case> and hash what it wrote; also returns the aggregate."""
    preset, extra = CASES[case]
    spec = build_spec(preset=preset, overrides={**SHORT, **extra, "name": case, "out_dir": case})
    aggregate = run_experiment(spec)
    digests = {}
    for name in sorted(os.listdir(case)):
        with open(os.path.join(case, name), "rb") as fh:
            digests[f"{case}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return digests, aggregate


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the JSON records out_dir, so keep it relative
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    digests, aggregate = case_digests(case)
    expected = {key: value for key, value in golden.items() if key.startswith(case + "/")}
    assert digests == expected
    if case == "baseline-1.1":
        assert all(run["dropped_buffer"] > 0 for run in aggregate["per_run"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    import tempfile

    found: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for name in sorted(CASES):
            found.update(case_digests(name)[0])
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(found, fh, indent=1, sort_keys=True)
        fh.write("\n")
