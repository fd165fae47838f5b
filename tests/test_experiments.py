"""Experiment specs, config files, CSV/JSON outputs, and the CLI front end."""

import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import fields

import pytest

import agefec
from agefec.cli import _build_parser, main
from agefec.experiments import (
    MODES,
    PRESETS,
    ConfigError,
    ExperimentSpec,
    build_spec,
    parse_config,
    read_csv,
    run_experiment,
    write_csv,
)


def test_modes_are_the_public_set():
    assert MODES == (
        "fsfb-sim",
        "vsvb-sim",
        "sweep-coding",
        "bounds",
        "multiserver",
        "wire-send",
        "wire-recv",
        "baseline-fixed",
    )
    assert set(PRESETS) == {
        "table1-k3n4",
        "table1-k3n6",
        "sweep-avt2-p02",
        "sweep-avt5-p02",
        "vsvb-lossy",
        "multiserver-pair",
    }


def test_spec_defaults_and_label():
    spec = ExperimentSpec()
    assert spec.mode == "fsfb-sim"
    assert spec.label == "fsfb-sim"
    assert ExperimentSpec(name="trial-7").label == "trial-7"
    with pytest.raises(ConfigError):
        ExperimentSpec(mode="bogus")
    with pytest.raises(ConfigError):
        ExperimentSpec(runs=0)


def test_spec_builds_sim_config():
    spec = ExperimentSpec(k=3, n=6, avt=7, p_in=0.2, duration=500)
    cfg = spec.sim_config(seed=3)
    assert cfg.coding.n == 6
    assert cfg.avt == 7
    assert cfg.loss.p_in == pytest.approx(0.2)
    assert cfg.rng_seed == 3


def test_parse_config_roundtrip(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# trial setup\n"
        "mode = vsvb-sim\n"
        "name = smoke\n"
        "runs = 2\n"
        "k = 3\n"
        "n = 5\n"
        "q_s = 4.5\n"
        "sweep_n = 3,4,5\n"
        "flow_avts = 3, 8\n"
        "relative_delay = true\n"
        "dest = 127.0.0.1:9000\n"
        "\n"
    )
    spec = build_spec(config_path=str(path))
    assert spec.mode == "vsvb-sim"
    assert spec.name == "smoke"
    assert spec.runs == 2
    assert spec.q_s == pytest.approx(4.5)
    assert spec.sweep_n == (3, 4, 5)
    assert spec.flow_avts == (3, 8)
    assert spec.relative_delay is True
    assert spec.dest == ("127.0.0.1", 9000)


def test_parse_config_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("runs = 2\nnot a pair\n")
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert "line 2" in str(err.value)

    path.write_text("# fine\n\nwibble = 3\n")
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert "line 3" in str(err.value) and "wibble" in str(err.value)

    path.write_text("runs = soon\n")
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert "line 1" in str(err.value)


def test_parse_config_preset_lines_are_overridable(tmp_path):
    path = tmp_path / "preset.conf"
    path.write_text("preset = table1-k3n4\nduration = 1000\n")
    values = parse_config(str(path))
    assert values["mode"] == "fsfb-sim"
    assert values["n"] == 4
    assert values["runs"] == 10  # from the preset
    assert values["duration"] == 1000  # file wins over the preset


def test_build_spec_precedence():
    spec = build_spec(preset="table1-k3n4", overrides={"runs": 3, "duration": 2000})
    assert spec.mode == "fsfb-sim"
    assert spec.runs == 3
    assert spec.duration == 2000
    assert spec.n == 4
    with pytest.raises(ConfigError):
        build_spec(preset="no-such-preset")


@pytest.mark.parametrize(
    "preset, text, field, file_value, flag_value",
    [
        # a file value equal to the spec default still beats the preset
        ("sweep-avt2-p02", "p_in = 0.1\n", "p_in", 0.1, 0.3),
        # a preset line expands where it stands, so later lines win
        ("table1-k3n4", "preset = vsvb-lossy\nruns = 1\n", "runs", 1, 4),
        ("vsvb-lossy", "mode = fsfb-sim\n", "mode", "fsfb-sim", "bounds"),
    ],
)
def test_build_spec_merges_preset_then_file_then_overrides(
    tmp_path, preset, text, field, file_value, flag_value
):
    path = tmp_path / "run.conf"
    path.write_text(text)
    spec = build_spec(preset=preset, config_path=str(path))
    assert getattr(spec, field) == file_value
    spec = build_spec(preset=preset, config_path=str(path), overrides={field: flag_value})
    assert getattr(spec, field) == flag_value


@pytest.mark.parametrize(
    "flag, text, field, value",
    [
        ("--out", "results", "out_dir", "results"),
        ("--seed", "7", "seed_base", 7),
        ("--qs", "2.5", "q_s", 2.5),
        ("--buffer", "40", "buffer_capacity", 40),
        ("--pin", "0.2", "p_in", 0.2),
        ("--pout", "0.3", "p_out", 0.3),
        ("--propagation", "3", "propagation_delay", 3),
        ("--interval", "50", "monitoring_interval", 50),
        ("--log", "recv.csv", "log_path", "recv.csv"),
    ],
)
def test_cli_legacy_flag_sets_only_its_field(flag, text, field, value):
    # flags not given stay out of the namespace, so they cannot mask the
    # preset or the config file
    args = _build_parser().parse_args(["bounds", flag, text])
    assert vars(args) == {"mode": "bounds", field: value}


def test_cli_help_lists_one_flag_per_spec_field(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fsfb-sim", "--help"])
    assert exc.value.code == 0
    listing = capsys.readouterr().out.split("\noptions:", 1)[1]
    flags = re.findall(r"^\s+(?:-h, )?(--[a-z-]+)", listing, re.MULTILINE)
    legacy = {
        "out_dir": "--out", "seed_base": "--seed", "q_s": "--qs",
        "buffer_capacity": "--buffer", "p_in": "--pin", "p_out": "--pout",
        "propagation_delay": "--propagation", "monitoring_interval": "--interval",
        "log_path": "--log",
    }
    want = [
        legacy.get(f.name, "--" + f.name.replace("_", "-"))
        for f in fields(ExperimentSpec)
        if f.name != "mode"
    ]
    assert sorted(flags) == sorted(want + ["--help", "--preset", "--config"])


def test_cli_none_resets_an_optional_and_bad_values_exit_2(tmp_path, capsys):
    code = main(
        ["bounds", "--preset", "table1-k3n4", "--qs", "none", "--name", "qn",
         "--out", str(tmp_path)]
    )
    assert code == 0
    with open(tmp_path / "qn.json", encoding="utf-8") as fh:
        assert json.load(fh)["spec"]["q_s"] is None  # the preset set 4.4118
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--qs", "x"])
    assert exc.value.code == 2
    assert "argument --qs: invalid float value: 'x'" in capsys.readouterr().err


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "out.csv"
    rows = [(1, 0.5, "4a"), (2, 0.25, "3")]
    summary = {"av": 0.125, "run": 0}
    write_csv(str(path), "demo/1", ("mi", "sigma", "branch"), rows, summary=summary)
    schema, columns, raw, got_summary = read_csv(str(path))
    assert schema == "demo/1"
    assert columns == ["mi", "sigma", "branch"]
    assert raw == [["1", "0.5", "4a"], ["2", "0.25", "3"]]
    assert got_summary == summary
    # floats survive exactly through repr
    write_csv(str(path), "demo/1", ("x",), [(0.1 + 0.2,)])
    _, _, raw, _ = read_csv(str(path))
    assert float(raw[0][0]) == 0.1 + 0.2


def test_run_experiment_fixed_sampling_batch(tmp_path):
    spec = ExperimentSpec(
        mode="fsfb-sim",
        name="tiny",
        runs=2,
        duration=2_000,
        initial_rate=1.0,
        out_dir=str(tmp_path),
    )
    aggregate = run_experiment(spec)
    assert aggregate["experiment"] == "tiny"
    assert len(aggregate["per_run"]) == 2
    assert aggregate["per_run"][0]["seed"] == 0
    assert aggregate["per_run"][1]["seed"] == 1
    for run in range(2):
        schema, columns, rows, summary = read_csv(
            str(tmp_path / f"tiny-run{run:02d}.csv")
        )
        assert schema == "fixed-sampling-interval/1"
        assert columns[0] == "mi"
        assert len(rows) == 20
        assert summary["run"] == run
        assert summary["av"] == aggregate["per_run"][run]["av"]
    with open(tmp_path / "tiny.json", encoding="utf-8") as fh:
        assert json.load(fh) == aggregate


def test_run_experiment_is_deterministic(tmp_path):
    def once(sub):
        spec = ExperimentSpec(
            mode="vsvb-sim",
            name="det",
            runs=1,
            duration=3_000,
            out_dir=str(tmp_path / sub),
        )
        return run_experiment(spec)

    a, b = once("a"), once("b")
    assert a["mean_av"] == b["mean_av"]
    assert a["per_run"] == b["per_run"]


def test_run_experiment_bounds(tmp_path):
    spec = ExperimentSpec(mode="bounds", name="bb", out_dir=str(tmp_path))
    aggregate = run_experiment(spec)
    assert aggregate["sigma_upper_bound"] == pytest.approx(1.2255)
    schema, columns, rows, _ = read_csv(str(tmp_path / "bb-bounds.csv"))
    assert schema == "bounds/1"
    assert columns[0] == "elapsed"
    assert len(rows) > 5
    # outage column is nonincreasing in elapsed time
    outages = [float(r[-1]) for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(outages, outages[1:]))


def test_run_experiment_baseline_fixed(tmp_path):
    spec = ExperimentSpec(
        mode="baseline-fixed",
        name="base",
        runs=1,
        rate=1.0,
        duration=2_000,
        out_dir=str(tmp_path),
    )
    aggregate = run_experiment(spec)
    assert math.isfinite(aggregate["mean_av"])
    schema, _, _, _ = read_csv(str(tmp_path / "base-run00.csv"))
    assert schema == "fixed-rate-interval/1"


def test_cli_bounds_mode(tmp_path, capsys):
    code = main(["bounds", "--name", "clibounds", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "clibounds" in out
    assert (tmp_path / "clibounds.json").exists()


def test_cli_positional_mode_overrides_preset(tmp_path):
    code = main(
        [
            "bounds",
            "--preset",
            "table1-k3n4",
            "--name",
            "bp",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    with open(tmp_path / "bp.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["mode"] == "bounds"
    assert payload["spec"]["n"] == 4  # preset parameters still apply


def test_cli_flag_overrides(tmp_path):
    code = main(
        [
            "fsfb-sim",
            "--name",
            "cf",
            "--out",
            str(tmp_path),
            "--duration",
            "1500",
            "--runs",
            "1",
            "--initial-rate",
            "1.0",
        ]
    )
    assert code == 0
    with open(tmp_path / "cf.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["spec"]["duration"] == 1500


def test_cli_error_paths(tmp_path, capsys):
    assert main(["fsfb-sim", "--config", str(tmp_path / "missing.conf")]) == 1
    bad = tmp_path / "bad.conf"
    bad.write_text("wibble = 1\n")
    assert main(["fsfb-sim", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "wibble" in err


def test_wire_endpoints_write_their_counters_once(tmp_path):
    """Each endpoint's JSON aggregate, minus the spec keys, is its CSV summary."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    recv = build_spec(overrides={"mode": "wire-recv", "listen": ("127.0.0.1", port), "samples": 10,
                                 "out_dir": str(tmp_path / "recv")})
    send = build_spec(overrides={"mode": "wire-send", "dest": ("127.0.0.1", port), "samples": 300,
                                 "out_dir": str(tmp_path / "send")})
    thread = threading.Thread(target=run_experiment, args=(recv,), daemon=True)
    thread.start()
    time.sleep(0.3)  # the receiver binds well inside this
    run_experiment(send)
    thread.join(timeout=20)
    assert not thread.is_alive()
    for spec, csv_name, counters, head in (
        (send, "wire-send-sender.csv", {"stale_skipped", "fallbacks", "socket_errors"},
         ["# schema: wire-sender/1", "ms,sigma,n,ts_ms,source"]),
        (recv, "wire-recv-receiver.csv", {"duplicates", "malformed"},
         ["# schema: adaptive-sampling-interval/1",
          "mi,sigma,n,t_s,t_tilde,av_raw,av_ratio,wbar_mi,pdr,ef,df,min_rtt,branch"]),
    ):
        path = os.path.join(spec.out_dir, csv_name)
        with open(path, encoding="utf-8") as fh:
            assert fh.read().splitlines()[:2] == head
        summary = read_csv(path)[3]
        with open(os.path.join(spec.out_dir, f"{spec.label}.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        for key in ("experiment", "mode", "spec"):
            del payload[key]
        assert payload == summary
        assert counters <= payload.keys()
        assert not {"schema", "columns"} & payload.keys()
    assert payload["decoded_samples"] == 10


def test_interrupted_wire_recv_writes_its_files(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(agefec.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "agefec.cli", "wire-recv", "--listen", "127.0.0.1:0",
           "--out", str(tmp_path)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        time.sleep(1.5)  # imports and binds well inside this on an idle host
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, err

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    # Nothing arrived, so the delays are undefined: strict JSON says null.
    aggregate = json.loads((tmp_path / "wire-recv.json").read_text(), parse_constant=reject)
    assert aggregate["mean_delay_ms"] is None and aggregate["min_delay_ms"] is None
    summary_line = (tmp_path / "wire-recv-receiver.csv").read_text().splitlines()[-1]
    assert summary_line.startswith("# summary: ")
    assert json.loads(summary_line.split(":", 1)[1], parse_constant=reject)["mean_delay_ms"] is None
