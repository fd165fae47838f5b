"""Experiment runner: presets, config files, seeded batches, CSV/JSON output.

A run writes one CSV per seeded repetition (interval rows plus a trailing
summary comment) and one aggregate JSON whose statistics are recomputable
from those CSVs.  Identical spec and seeds give byte-identical files.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import signal
import statistics
import threading
from dataclasses import asdict, dataclass, field, fields, replace

from . import adaptive_sampling, fixed_sampling, multiflow, netsim
from .analysis import (
    age_event_prob,
    chunk_missing_prob,
    outage_probability,
    rate_upper_bound,
    sample_decode_prob,
)
from .core import CodingParams, LossModel, ParameterError
from .netsim import SimConfig

MODES = (
    "fsfb-sim",
    "vsvb-sim",
    "sweep-coding",
    "bounds",
    "multiserver",
    "wire-send",
    "wire-recv",
    "baseline-fixed",
)


class ConfigError(ValueError):
    """Invalid experiment configuration; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _arg(default, help: str | None = None, metavar: str | None = None):
    """A field default plus the help text and metavar of its command-line flag."""
    return field(default=default, metadata={"help": help, "metavar": metavar})


@dataclass
class ExperimentSpec:
    """Everything needed to execute one experiment end to end.

    The fields are the one list of experiment parameters: config keys and
    command-line flags are derived from them.
    """

    mode: str = "fsfb-sim"
    name: str | None = _arg(None, "experiment label used in file names")
    runs: int = _arg(1, "seeded repetitions")
    seed_base: int = _arg(0, "first seed")
    out_dir: str = _arg(".", "output directory", "DIR")
    # Simulation parameters (SimConfig is built per run with its seed).
    k: int = _arg(3, "data chunks per sample")
    n: int = _arg(4, "coded chunks per sample")
    sample_bits: int = 8192
    avt: int = _arg(5, "age violation threshold, slots")
    q_s: float | None = _arg(None, "service rate, chunks/slot")
    buffer_capacity: int = 5000
    p_in: float = _arg(0.1, "pre-queue loss probability")
    p_out: float = _arg(0.1, "post-queue loss probability")
    propagation_delay: int = 1
    duration: int = _arg(100_000, "slots per run")
    monitoring_interval: int = 100
    initial_age: int | None = None
    initial_rate: float | None = None
    sample_memory: int | None = None
    rtt_init: float | None = None
    sigma_min: float = 0.99
    sigma_max: float | None = None
    block_candidates: tuple[int, ...] | None = _arg(None, metavar="N,N,...")
    # Mode extras.
    rate: float = _arg(1.0, "baseline-fixed codeword rate")
    sweep_n: tuple[int, ...] = _arg((3, 4, 5, 6, 7, 8, 9), metavar="N,N,...")
    flow_count: int = 2
    flow_avts: tuple[int, ...] | None = _arg(None, metavar="A,A,...")
    # Wire endpoints.
    dest: tuple[str, int] | None = _arg(None, metavar="HOST:PORT")
    listen: tuple[str, int] | None = _arg(None, metavar="HOST:PORT")
    avt_ms: int = 100
    slot_ms: int = 1
    n_init: int = 5
    payload_bytes: int = 1024
    samples: int = _arg(0, "sender stop count / receiver target")
    fixed_rate: float | None = _arg(None, "wire rate, chunks/slot; none follows feedback")
    drop_shim: float = _arg(0.0, metavar="P")
    delay_shim_ms: float = 0.0
    relative_delay: bool = False
    shim_seed: int = 0
    log_path: str | None = _arg(None, metavar="PATH")

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {', '.join(MODES)}")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")

    @property
    def label(self) -> str:
        return self.name if self.name else self.mode

    def _shared(self, cls, **explicit):
        """Build cls from the fields it shares by name with this spec."""
        ours = self.__dataclass_fields__
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name in ours}
        return cls(**shared, **explicit)

    def sim_config(self, seed: int) -> SimConfig:
        return self._shared(
            SimConfig,
            coding=CodingParams(self.k, self.n, self.sample_bits),
            loss=LossModel(self.p_in, self.p_out),
            rng_seed=seed,
        )

    def wire_config(self):
        from .wire import WireConfig

        return self._shared(WireConfig)


# Named parameter bundles reproducing the headline experiments.  The
# fixed-sampling presets start at one codeword per slot: the formula start
# floods the queue past recovery in this slotted model (see README).
PRESETS: dict[str, dict] = {
    "table1-k3n4": dict(
        mode="fsfb-sim", k=3, n=4, avt=5, q_s=3 * 1.4706, buffer_capacity=5000,
        p_in=0.1, p_out=0.1, duration=100_000, monitoring_interval=100,
        runs=10, initial_rate=1.0,
    ),
    "table1-k3n6": dict(
        mode="fsfb-sim", k=3, n=6, avt=5, q_s=3 * 1.4706, buffer_capacity=5000,
        p_in=0.1, p_out=0.1, duration=100_000, monitoring_interval=100,
        runs=10, initial_rate=1.0,
    ),
    "sweep-avt2-p02": dict(
        mode="sweep-coding", k=3, avt=2, q_s=3 * 1.4706, p_in=0.2, p_out=0.2,
        duration=100_000, monitoring_interval=100, runs=10, initial_rate=1.0,
        sweep_n=(3, 4, 5, 6, 7, 8, 9),
    ),
    "sweep-avt5-p02": dict(
        mode="sweep-coding", k=3, avt=5, q_s=3 * 1.4706, p_in=0.2, p_out=0.2,
        duration=100_000, monitoring_interval=100, runs=10, initial_rate=1.0,
        sweep_n=(3, 4, 5, 6, 7, 8, 9),
    ),
    "vsvb-lossy": dict(
        mode="vsvb-sim", k=3, n=4, avt=5, q_s=2 * 1.4706, p_in=0.1, p_out=0.1,
        duration=30_000, monitoring_interval=100, runs=3,
    ),
    "multiserver-pair": dict(
        mode="multiserver", flow_count=2, k=3, n=4, avt=5, q_s=2 * 3 * 1.4706,
        p_in=0.1, p_out=0.1, duration=30_000, monitoring_interval=100, runs=3,
    ),
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_addr(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {text!r}")
    return host, int(port)


def _opt(parser):
    def parse(text: str):
        return None if text.strip().lower() in ("", "none") else parser(text)

    parse.__name__ = parser.__name__  # argparse names the type in its errors
    return parse


# ExperimentSpec annotation -> value parser; an optional also takes 'none'.
_PARSERS = {
    "str": str.strip,
    "str | None": _opt(str.strip),
    "int": int,
    "int | None": _opt(int),
    "float": float,
    "float | None": _opt(float),
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_tuple,
    "tuple[int, ...] | None": _opt(_parse_int_tuple),
    "tuple[str, int] | None": _opt(_parse_addr),
}

# config key -> (ExperimentSpec field, value parser); 'log' is the key of log_path
CONFIG_KEYS: dict[str, tuple[str, object]] = {
    ("log" if f.name == "log_path" else f.name): (f.name, _PARSERS[f.type])
    for f in fields(ExperimentSpec)
}


def _preset(name: str, line: int | None = None) -> dict:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {', '.join(sorted(PRESETS))}", line
        )
    return PRESETS[name]


def parse_config(path: str) -> dict:
    """Read a key=value file into a dict of ExperimentSpec field values.

    Blank lines and '#' comments are skipped.  A 'preset' line expands the
    named bundle where it stands, so later lines override it.  Unknown keys
    and presets and unparsable values fail with their line number.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise ConfigError(f"expected key=value, got {text!r}", lineno)
        key = key.strip()
        value = value.strip()
        if key == "preset":
            values.update(_preset(value, lineno))
            continue
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        attr, parser = CONFIG_KEYS[key]
        try:
            values[attr] = parser(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid value for {key}: {value!r} ({exc})", lineno)
    return values


def build_spec(
    preset: str | None = None,
    config_path: str | None = None,
    overrides: dict | None = None,
) -> ExperimentSpec:
    """Merge preset < config file < overrides (field values) into one spec."""
    values = dict(_preset(preset)) if preset is not None else {}
    if config_path is not None:
        values.update(parse_config(config_path))
    values.update(overrides or {})
    try:
        return ExperimentSpec(**values)
    except (ParameterError, TypeError) as exc:
        raise ConfigError(str(exc))


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, schema: str, columns, rows, summary: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_value(v) for v in row])
        if summary is not None:
            fh.write("# summary: " + _dumps(summary) + "\n")


def read_csv(path: str) -> tuple[str, list[str], list[list[str]], dict | None]:
    """Inverse of write_csv: (schema, columns, raw rows, summary or None)."""
    schema = ""
    summary = None
    columns: list[str] = []
    rows: list[list[str]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("# schema:"):
                schema = line.split(":", 1)[1].strip()
            elif line.startswith("# summary:"):
                summary = json.loads(line.split(":", 1)[1])
            elif line.strip():
                rows.append(next(csv.reader([line])))
    if rows:
        columns = rows.pop(0)
    return schema, columns, rows, summary


def _finite(value):
    """`value` with every non-finite float replaced by None (JSON has no Infinity)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _dumps(payload: dict, **kwargs) -> str:
    return json.dumps(_finite(payload), sort_keys=True, allow_nan=False, **kwargs)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(payload, indent=2))
        fh.write("\n")


def _mean_std(values) -> tuple[float, float]:
    values = list(values)
    mean = statistics.fmean(values)
    std = statistics.pstdev(values) if len(values) > 1 else 0.0
    return mean, std


def _spec_record(spec: ExperimentSpec) -> dict:
    record = asdict(spec)
    for key, value in record.items():
        if isinstance(value, tuple):
            record[key] = list(value)
    return record


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute the spec, write its files, and return the aggregate payload."""
    os.makedirs(spec.out_dir, exist_ok=True)
    label = spec.label
    if spec.mode in ("fsfb-sim", "vsvb-sim", "baseline-fixed"):
        aggregate = _run_sim_batch(spec, label)
    elif spec.mode == "sweep-coding":
        aggregate = _run_sweep(spec, label)
    elif spec.mode == "bounds":
        aggregate = _run_bounds(spec, label)
    elif spec.mode == "multiserver":
        aggregate = _run_multiserver(spec, label)
    elif spec.mode in ("wire-send", "wire-recv"):
        aggregate = _run_wire(spec, label)
    else:  # pragma: no cover - mode validated in __post_init__
        raise ConfigError(f"unhandled mode {spec.mode!r}")
    aggregate.update(experiment=label, mode=spec.mode, spec=_spec_record(spec))
    path = os.path.join(spec.out_dir, f"{label}.json")
    write_json(path, aggregate)
    return aggregate


def _run_sim_batch(spec: ExperimentSpec, label: str) -> dict:
    per_run = []
    for run in range(spec.runs):
        seed = spec.seed_base + run
        config = spec.sim_config(seed)
        if spec.mode == "fsfb-sim":
            result = fixed_sampling.run_sim(config)
        elif spec.mode == "vsvb-sim":
            result = adaptive_sampling.run_sim(config)
        else:
            result = netsim.run_fixed_rate_sim(config, spec.rate)
        summary = dict(result.summary(), run=run, seed=seed)
        write_csv(
            os.path.join(spec.out_dir, f"{label}-run{run:02d}.csv"),
            result.schema,
            result.columns,
            result.rows,
            summary=summary,
        )
        per_run.append(summary)
    mean_av, std_av = _mean_std(r["av"] for r in per_run)
    mean_strict, std_strict = _mean_std(r["av_strict"] for r in per_run)
    delays = [r["mean_delay"] for r in per_run if math.isfinite(r["mean_delay"])]
    return {
        "per_run": per_run,
        "mean_av": mean_av,
        "std_av": std_av,
        "mean_av_strict": mean_strict,
        "std_av_strict": std_strict,
        "mean_delay": statistics.fmean(delays) if delays else None,
    }


SWEEP_COLUMNS = ("n", "run", "seed", "av", "av_strict", "mean_delay")


def _run_sweep(spec: ExperimentSpec, label: str) -> dict:
    rows, points = [], []
    for n in spec.sweep_n:
        point = replace(spec, n=n)
        point_rows = []
        for run in range(spec.runs):
            seed = spec.seed_base + run
            result = fixed_sampling.run_sim(point.sim_config(seed))
            point_rows.append((n, run, seed, result.av, result.av_strict, result.mean_delay))
        rows += point_rows
        mean_av, std_av = _mean_std(r[3] for r in point_rows)
        mean_strict, _ = _mean_std(r[4] for r in point_rows)
        points.append({"n": n, "mean_av": mean_av, "std_av": std_av, "mean_av_strict": mean_strict})
    write_csv(
        os.path.join(spec.out_dir, f"{label}-sweep.csv"),
        "coding-sweep/1",
        SWEEP_COLUMNS,
        rows,
    )
    return {"points": points}


BOUNDS_COLUMNS = (
    "elapsed",
    "chunk_missing_prob",
    "sample_decode_prob",
    "age_event_prob",
    "outage_prob",
)


def _run_bounds(spec: ExperimentSpec, label: str) -> dict:
    config = spec.sim_config(spec.seed_base)
    coding = config.coding
    loss = config.loss
    sigma_up = rate_upper_bound(config.service_rate, coding.n, loss.p_in)
    horizon = config.avt
    rows = []
    for elapsed in range(horizon + 1):
        rows.append(
            (
                elapsed,
                chunk_missing_prob(loss, elapsed),
                sample_decode_prob(coding, loss, elapsed),
                age_event_prob(elapsed, horizon, coding, loss),
                outage_probability(elapsed, horizon, coding, loss),
            )
        )
    write_csv(
        os.path.join(spec.out_dir, f"{label}-bounds.csv"),
        "bounds/1",
        BOUNDS_COLUMNS,
        rows,
    )
    return {
        "sigma_upper_bound": sigma_up,
        "outage_at_avt": rows[-1][4],
    }


def _run_multiserver(spec: ExperimentSpec, label: str) -> dict:
    per_run = []
    for run in range(spec.runs):
        seed = spec.seed_base + run
        config = spec.sim_config(seed)
        result = multiflow.run_sim(config, spec.flow_count, spec.flow_avts)
        summary = dict(result.summary(), run=run, seed=seed)
        write_csv(
            os.path.join(spec.out_dir, f"{label}-run{run:02d}.csv"),
            result.system.schema,
            result.system.columns,
            result.system.rows,
            summary=summary,
        )
        write_csv(
            os.path.join(spec.out_dir, f"{label}-run{run:02d}-flows.csv"),
            "flow-interval/1",
            adaptive_sampling.FLOW_COLUMNS,
            result.flow_rows,
        )
        per_run.append(summary)
    mean_fair, std_fair = _mean_std(r["fairness_final"] for r in per_run)
    return {
        "per_run": per_run,
        "mean_fairness_final": mean_fair,
        "std_fairness_final": std_fair,
    }


@contextlib.contextmanager
def _interrupt_stops():
    """Yield a stop event that SIGINT sets, so an interrupted wire run
    returns its log and its files still get written.  Off the main thread,
    where Python cannot install a handler, SIGINT keeps its usual effect."""
    stop = threading.Event()
    if threading.current_thread() is not threading.main_thread():
        yield stop
        return
    previous = signal.signal(signal.SIGINT, lambda signum, frame: stop.set())
    try:
        yield stop
    finally:
        signal.signal(signal.SIGINT, previous)


def _endpoint_counters(log) -> dict:
    """A wire endpoint log's counters: its CSV summary line and its JSON aggregate."""
    return {f.name: getattr(log, f.name) for f in fields(log) if f.name != "rows"}


def _run_wire(spec: ExperimentSpec, label: str) -> dict:
    from . import wire

    with _interrupt_stops() as stop:
        if spec.mode == "wire-send":
            log, role = wire.run_sender(spec.wire_config(), stop=stop), "sender"
        else:
            log = wire.run_receiver(spec.wire_config(), stop=stop, max_samples=spec.samples)
            role = "receiver"
    counters = _endpoint_counters(log)
    path = spec.log_path or os.path.join(spec.out_dir, f"{label}-{role}.csv")
    write_csv(path, log.schema, log.columns, log.rows, summary=counters)
    return counters
