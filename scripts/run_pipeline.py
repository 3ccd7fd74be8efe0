"""Run the full pipeline (generate -> report) with a self-contained default config.

    python3 scripts/run_pipeline.py --out runs/demo [--seed 7] [--config my.json] [--threads N]

Without --config, a moderate synthetic config is written into the run directory
first, so the whole study is reproducible from that one file.
"""

import argparse
import os
import sys

from arrkit.cli import main as cli_main
from arrkit.config import RunConfig, SplitSpec, save_config
from arrkit.market_data import CoMovementSpec, RegimeSpec, SyntheticMarketConfig
from arrkit.search import usable_cpus

VERBS = ("generate", "train", "arr", "analyze", "forecast", "report")


def default_config(out_dir: str, seed: int) -> RunConfig:
    n_sessions = 16
    synth = SyntheticMarketConfig(
        n_assets=8,
        n_sessions=n_sessions,
        n_factors=2,
        regime_schedule=(RegimeSpec(0, n_sessions, 1.0, 0.5),),
        nonlinearity=0.5,
        intraday_amplitude=0.5,
        comovement=CoMovementSpec(share_innovation=0.7, vol_feedback=0.5),
        seed=seed,
    )
    return RunConfig(
        data_source="synthetic",
        splits=SplitSpec((0, 8), (8, 12), (12, 16)),
        synthetic=synth,
        horizons=(300, 3600),
        ae_search_iterations=8,
        forecast_search_iterations=20,
        crash_threshold=-1.0,  # at -1.5, or with 3 folds, a side of a 1-hour CV fold has no crash
        cv_folds=2,
        seed=seed,
        output_dir=out_dir,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs/demo", help="run directory")
    parser.add_argument("--seed", type=int, default=7, help="run seed")
    parser.add_argument("--config", default=None,
                        help="existing config JSON (default: write one into --out)")
    parser.add_argument("--threads", type=int, default=usable_cpus(),
                        help="worker processes of train and forecast (default: usable CPUs)")
    args = parser.parse_args(argv)

    if args.config is None:
        os.makedirs(args.out, exist_ok=True)
        config_path = os.path.join(args.out, "config.json")
        save_config(default_config(args.out, args.seed), config_path)
        print(f"wrote {config_path}")
    else:
        config_path = args.config

    for verb in VERBS:
        argv = [verb, "--config", config_path, "--out", args.out]
        if verb in ("train", "forecast"):
            argv += ["--threads", str(args.threads)]
        print(f"$ arrkit {' '.join(argv)}")
        rc = cli_main(argv)
        if rc != 0:
            return rc
    print(f"done: see {os.path.join(args.out, 'report', 'report.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
