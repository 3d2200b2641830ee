"""Command line entry points: train, sweep, corpus, print-config.

Every subcommand is deterministic in --seed and exits nonzero with a single
machine-parsable "error: ..." line on stderr when anything is wrong.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .config import ALL_MODES, ExperimentConfig, check_modes, default_config_text, load_config, with_seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semlink",
        description="Link-level simulator for learned feature transmission "
        "with similarity-acknowledged retransmissions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train codecs and the similarity scorer")
    _common(train)
    train.set_defaults(run=cmd_train)

    sweep = sub.add_parser("sweep", help="run seeded protocol sessions over an SNR grid")
    _common(sweep)
    sweep.add_argument(
        "--mode",
        default=None,
        help=f"comma list from {{{','.join(ALL_MODES)}}} (default: experiment.modes)",
    )
    sweep.add_argument("--snr", default=None, help="comma list of SNR points in dB")
    sweep.add_argument("--beta", type=float, default=None, help="acknowledgement threshold override")
    sweep.add_argument("--sessions", type=int, default=None, help="sessions per grid point")
    sweep.add_argument("--budget", type=int, default=None, help="round budget override")
    sweep.add_argument("--workers", type=int, default=None, help="worker process count")
    sweep.add_argument(
        "--artifacts", default=None, help="directory with training artifacts (default: --out)"
    )
    sweep.set_defaults(run=cmd_sweep)

    corpus = sub.add_parser("corpus", help="build the detector rank corpus from artifacts")
    _common(corpus)
    corpus.add_argument(
        "--artifacts", default=None, help="directory with training artifacts (default: --out)"
    )
    corpus.set_defaults(run=cmd_corpus)

    dump = sub.add_parser("print-config", help="print the built-in default config INI")
    dump.set_defaults(run=cmd_print_config)
    return parser


def _common(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--config", default=None, help="INI config path (defaults built in)")
    cmd.add_argument("--seed", type=int, default=None, help="master seed override")
    cmd.add_argument("--out", required=True, help="output directory")


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    return cfg


def cmd_train(args) -> int:
    cfg = _load(args)
    harness.train_all(cfg, args.out, log=_say)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    modes = cfg.experiment.modes  # an INI's list is checked when it loads
    if args.mode is not None:
        modes = check_modes((tok.strip() for tok in args.mode.split(",") if tok.strip()), "--mode")
    snr_list = cfg.experiment.snr_db
    if args.snr is not None:
        snr_list = tuple(float(tok) for tok in args.snr.split(",") if tok.strip())
    art = args.artifacts if args.artifacts is not None else args.out
    bundle = harness.load_bundle(cfg, art)
    harness.run_sweep(
        bundle,
        modes,
        snr_list,
        args.out,
        sessions=args.sessions,
        beta=args.beta,
        budget=args.budget,
        workers=args.workers,
        log=_say,
    )
    return 0


def cmd_corpus(args) -> int:
    cfg = _load(args)
    art = args.artifacts if args.artifacts is not None else args.out
    harness.build_and_save_corpus(cfg, art, args.out, log=_say)
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
