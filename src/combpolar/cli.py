"""Command-line front end.

Subcommands: construct, fer, psd, mcsc, selftest.  Exit codes: 0 success,
1 usage or configuration error, 2 self-test failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="PATH", default=None, help="JSON experiment config")
    p.add_argument("--seed", metavar="U64", type=int, default=None, help="override master seed")
    p.add_argument("--out", metavar="DIR", default=".", help="output directory")
    p.add_argument("--threads", metavar="N", type=int, default=None, help="worker processes")


def _load(args):
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="combpolar",
        description="Comb-shaping polar codes: construction, FER sweeps, "
        "PSD reports, capacity tables, self test.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("construct", "build a code and write the construction report"),
        ("fer", "run the frame-error-rate sweep for the configured arm"),
        ("psd", "average the codeword PSD and report notch depths"),
        ("mcsc", "minimum constrained sub-channel capacity table"),
        ("selftest", "run the small-instance oracle suites"),
    ):
        _add_common(sub.add_parser(name, help=desc))

    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    from . import simulate

    try:
        os.makedirs(args.out, exist_ok=True)
        if args.command == "construct":
            path = os.path.join(args.out, "construct.csv")
            summary = simulate.construct_report(cfg, path)
            print(f"wrote {path}")
            print(f"mcsc = {summary['mcsc']:.6f}")
        elif args.command == "fer":
            path = os.path.join(args.out, "fer.csv")
            simulate.run_fer(cfg, path, log=print)
            print(f"wrote {path}")
        elif args.command == "psd":
            res = simulate.run_psd(cfg, args.out)
            if res["tier"] == "welch":
                worst = float(min(res["depths"]))
                print(f"wrote {os.path.join(args.out, 'psd.csv')} and nulldepth.csv")
                print(f"shallowest target-frequency depth: {worst:.1f} dB")
            else:
                print(f"wrote {os.path.join(args.out, 'nulldepth.csv')}")
                print(f"worst relative magnitude at null bins: "
                      f"{res['worst_relative_magnitude']:.3e}")
        elif args.command == "mcsc":
            path = os.path.join(args.out, "mcsc.csv")
            rows = simulate.run_mcsc(cfg, path)
            print(f"wrote {path}")
            for rate, crit, v in rows:
                print(f"  rate {rate:<7} {crit:<16} mcsc {v:.4f}")
        elif args.command == "selftest":
            ok = simulate.run_selftest(log=print)
            return 0 if ok else 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
