"""Command-line entry point: generate | train | arr | analyze | forecast | report.

Every verb takes the same global flags (--config, --out, --seed, --threads); --threads
caps the worker processes of train and forecast, and defaults to the usable CPUs. Success
exits 0 with a one-line summary on stdout; failures exit nonzero after printing a
machine-readable JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .config import load_config
from .pipeline import (
    StageError,
    cmd_analyze,
    cmd_arr,
    cmd_forecast,
    cmd_generate,
    cmd_report,
    cmd_train,
)
from .search import usable_cpus

VERBS = ("generate", "train", "arr", "analyze", "forecast", "report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrkit",
        description="Co-movement reconstruction pipeline over aligned intraday panels.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb, help=f"run the {verb} stage")
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--out", default=None, help="run directory (default: config output_dir)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=usable_cpus(),
                       help="worker processes of train and forecast (default: usable CPUs)")
    return parser


def _error_json(exc: Exception) -> str:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    details = getattr(exc, "details", None)
    if details:
        payload["error"]["details"] = details
    return json.dumps(payload, sort_keys=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        out_dir = args.out if args.out is not None else cfg.output_dir
        if args.threads < 1:
            raise ValueError("--threads must be at least 1")
        if args.verb == "generate":
            manifest = cmd_generate(cfg, out_dir)
            print(f"generate: {manifest['n_rows']} rows x {manifest['n_assets']} assets")
        elif args.verb == "train":
            manifest = cmd_train(cfg, out_dir, threads=args.threads)
            print(f"train: wrote {', '.join(manifest['outputs'])}")
        elif args.verb == "arr":
            manifest = cmd_arr(cfg, out_dir)
            print(f"arr: {len(manifest['outputs'])} series files")
        elif args.verb == "analyze":
            manifest = cmd_analyze(cfg, out_dir)
            ok = sum(c["status"] == "ok" for c in manifest["cells"])
            print(f"analyze: {ok}/{len(manifest['cells'])} cells")
        elif args.verb == "forecast":
            manifest = cmd_forecast(cfg, out_dir, threads=args.threads)
            print(f"forecast: {manifest['n_cells'] - manifest['n_failed']}/"
                  f"{manifest['n_cells']} cells")
        else:
            report = cmd_report(cfg, out_dir)
            block = report["reconstruction"]
            if block["status"] == "ok":
                print(f"report: reconstruction {block['p_string']}")
            else:
                print("report: written")
    except (StageError, ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
