"""Command line interface: run, synth, report, veto-demo."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import load_config
from .data import GENERATORS, save_csv
from .harness import run_experiment
from .report import emit_report, load_record
from .selectors import veto_demo


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.parallel is not None:
        config = replace(config, parallelism=args.parallel)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    record = run_experiment(config)
    written = emit_report(record)
    print(f"record: {record.record_dir}")
    print(f"traces: {len(record.traces)}, errors: {len(record.errors)}")
    for name, path in sorted(written.items()):
        print(f"  {name}: {path}")
    return 1 if record.errors else 0


def _cmd_synth(args) -> int:
    dataset = GENERATORS[args.dgp](args.n, args.seed)
    save_csv(dataset, args.out)
    print(f"wrote {dataset.n_samples} rows to {args.out}")
    return 0


def _cmd_report(args) -> int:
    record = load_record(args.record)
    written = emit_report(record, args.out)
    for name, path in sorted(written.items()):
        print(f"  {name}: {path}")
    return 0


def _cmd_veto_demo(args) -> int:
    text, ok = veto_demo(args.d_star, args.u_star, args.d_prime, args.u_prime)
    print(text)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wigs",
                                     description="Active learning benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured benchmark")
    p_run.add_argument("--config", required=True, help="YAML config path")
    p_run.add_argument("--parallel", type=int, default=None, metavar="N")
    p_run.add_argument("--out", default=None, metavar="DIR")
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p_synth.add_argument("--dgp", required=True, choices=list(GENERATORS))
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out", required=True, metavar="FILE")
    p_synth.set_defaults(func=_cmd_synth)

    p_rep = sub.add_parser("report", help="emit tables and plots from a record")
    p_rep.add_argument("--record", required=True, metavar="DIR")
    p_rep.add_argument("--out", default=None, metavar="DIR")
    p_rep.set_defaults(func=_cmd_report)

    p_veto = sub.add_parser("veto-demo", help="check the density-veto construction")
    p_veto.add_argument("--d-star", type=float, default=0.05)
    p_veto.add_argument("--u-star", type=float, default=0.9)
    p_veto.add_argument("--d-prime", type=float, default=0.3)
    p_veto.add_argument("--u-prime", type=float, default=0.4)
    p_veto.set_defaults(func=_cmd_veto_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
