"""Command line entry points: train, sweep, print-config.

Every subcommand is deterministic in --seed and exits nonzero with a single
machine-parsable "error: ..." line on stderr when anything is wrong.

A run-setting flag (_FLAGS) is the INI text of the key it sets: it is parsed
and checked as that key is in a config file, and fails with the same words.

A process runs one BLAS thread, set before numpy loads, unless the caller
sets OPENBLAS_NUM_THREADS or OMP_NUM_THREADS: more threads burn CPU on these
small nets for no wall time, and training already runs on two processes.
"""

from __future__ import annotations

import argparse
import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
if not any(name in os.environ for name in _THREAD_VARS):
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))

from . import harness  # noqa: E402  numpy loads here, after the thread defaults
from .config import ExperimentConfig, default_config_text, load_config, override, parse_field  # noqa: E402

# the [section] key each run-setting flag sets; train takes only --seed
_FLAGS = {
    "seed": ("experiment", "master_seed"),
    "mode": ("experiment", "modes"),
    "snr": ("experiment", "snr_db"),
    "sessions": ("experiment", "sessions"),
    "budget": ("experiment", "round_budget"),
    "workers": ("experiment", "workers"),
    "beta": ("detector", "ack_threshold"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semlink",
        description="Link-level simulator for learned feature transmission "
        "with similarity-acknowledged retransmissions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train codecs and the similarity scorer")
    _common(train, ("seed",))
    train.set_defaults(run=cmd_train)

    sweep = sub.add_parser("sweep", help="run seeded protocol sessions over an SNR grid")
    _common(sweep, _FLAGS)
    sweep.add_argument("--artifacts", help="directory with training artifacts (default: --out)")
    sweep.set_defaults(run=cmd_sweep)

    dump = sub.add_parser("print-config", help="print the built-in default config INI")
    dump.set_defaults(run=cmd_print_config)
    return parser


def _common(cmd: argparse.ArgumentParser, flags) -> None:
    cmd.add_argument("--config", default=None, help="INI config path (defaults built in)")
    cmd.add_argument("--out", required=True, help="output directory")
    for dest in flags:
        section, key = _FLAGS[dest]
        cmd.add_argument(f"--{dest}", help=f"sets [{section}] {key} (INI syntax)")


def _load(args) -> ExperimentConfig:
    """The config file, or the defaults, with every given flag set in it."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    for dest, (section, key) in _FLAGS.items():
        raw = getattr(args, dest, None)
        if raw is not None:
            cfg = override(cfg, section, **{key: parse_field(section, key, raw)})
    return cfg


def cmd_train(args) -> int:
    harness.train_all(_load(args), args.out, log=_say)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    art = args.artifacts if args.artifacts is not None else args.out
    e = cfg.experiment  # run_sweep sets its arguments in the config again, unchanged
    harness.run_sweep(harness.load_bundle(cfg, art), e.modes, e.snr_db, args.out, log=_say)
    return 0


def cmd_print_config(args) -> int:
    sys.stdout.write(default_config_text())
    return 0


def _say(msg: str) -> None:
    print(msg, flush=True)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
