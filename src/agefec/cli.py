"""Command-line entry point for experiments and the UDP endpoints."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .core import ParameterError
from .experiments import (
    CONFIG_KEYS,
    MODES,
    PRESETS,
    ConfigError,
    ExperimentSpec,
    build_spec,
    run_experiment,
)

# Flags spelled other than "--" + the field name with '-' for '_'.
_FLAGS = {
    "out_dir": "--out",
    "seed_base": "--seed",
    "q_s": "--qs",
    "buffer_capacity": "--buffer",
    "p_in": "--pin",
    "p_out": "--pout",
    "propagation_delay": "--propagation",
    "monitoring_interval": "--interval",
    "log_path": "--log",
}

# The first field of each help section after the general one.
_GROUPS = {"k": "simulation parameters", "dest": "wire endpoints"}


def _build_parser() -> argparse.ArgumentParser:
    """One flag per ExperimentSpec field; flags left out stay out of the
    namespace, so only the ones given override the preset and the file."""
    parser = argparse.ArgumentParser(
        prog="agefec",
        description=(
            "Age-aware FEC experiments: simulators, analytic bounds, and the "
            "UDP reference transport."
        ),
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("mode", choices=MODES, help="experiment to run")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named parameter bundle")
    parser.add_argument("--config", metavar="FILE", help="key=value config file")
    parsers = dict(CONFIG_KEYS.values())
    group = parser
    for f in fields(ExperimentSpec):
        if f.name == "mode":
            continue
        if f.name in _GROUPS:
            group = parser.add_argument_group(_GROUPS[f.name])
        flag = _FLAGS.get(f.name, "--" + f.name.replace("_", "-"))
        kwargs = dict(dest=f.name, help=f.metadata.get("help"))
        if f.type == "bool":
            kwargs["action"] = "store_true"
        else:
            kwargs.update(type=parsers[f.name], metavar=f.metadata.get("metavar"))
        group.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    overrides = vars(parser.parse_args(argv))
    preset = overrides.pop("preset", None)
    config_path = overrides.pop("config", None)
    try:
        spec = build_spec(preset, config_path, overrides)
        aggregate = run_experiment(spec)
    except (ConfigError, ParameterError) as exc:
        print(f"agefec: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"agefec: io error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("agefec: interrupted", file=sys.stderr)
        return 1
    for key in (
        "mean_av",
        "mean_av_strict",
        "mean_delay",
        "sigma_upper_bound",
        "outage_at_avt",
        "mean_fairness_final",
        "decoded_samples",
        "samples_sent",
        "mean_delay_ms",
    ):
        if key in aggregate and aggregate[key] is not None:
            print(f"{key}: {aggregate[key]}")
    print(f"wrote {spec.label}.json in {spec.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
