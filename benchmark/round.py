"""One round of one workload, in a fresh interpreter started by run.py.

    python3 benchmark/round.py --workload NAME --seed N --trace 0|1 --work DIR --result FILE
        [--setup-only]

Set-up (imports, config writing, input files) runs first. The measured run starts
at the first call into arrkit and ends when the last output is written. The checks
run after it, outside every timing. The round writes its timings, operations, check
results and artifact digest to --result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time


def _rusage_cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _tree_bytes(root: str) -> int:
    total = 0
    for base, _, names in os.walk(root):
        total += sum(os.path.getsize(os.path.join(base, n)) for n in names)
    return total


def _data_rows(paths) -> int:
    """Data rows of every tick file a load read, counted once per load."""
    counts = {}
    for path in paths:
        if path not in counts:
            with open(path, "rb") as fh:
                counts[path] = sum(1 for _ in fh) - 1
    return sum(counts[p] for p in paths)


class Capture:
    """Keeps the panel of the first `arrkit.pipeline.load_panel` call for the checks."""

    def __init__(self, pipeline):
        self.panel = None
        original = pipeline.load_panel

        def load_panel(cfg, out_dir):
            result = original(cfg, out_dir)
            if self.panel is None:
                self.panel = result[0]
            return result

        pipeline.load_panel = load_panel


def start_tracing(tracer) -> None:
    """Patch the spans in once set-up is over, so set-up calls leave no span."""
    if tracer is not None:
        import tracing

        tracing.install(tracer)


def finish_run(result: dict, cpu0: float, run_dir: str, tracer, result_path: str) -> None:
    """Record the end-to-end numbers of a run that has just ended, and its layer metrics
    and spans when traced."""
    result["run_s"] = time.monotonic() - result["run_start"]
    result["cpu_s"] = _rusage_cpu() - cpu0
    result["peak_rss_mb"] = _peak_rss_mb()
    result["run_dir_mb"] = _tree_bytes(run_dir) / 2**20
    if tracer is not None:
        import tracing

        result["layers"] = tracing.layer_metrics(tracer, _data_rows(tracer.loaded_paths))
        tracer.dump(result_path + ".spans.json")


def run_checks(named_checks) -> dict:
    """name -> "ok" or the reason it failed; a crash inside a check is a failure too."""
    import checks

    out = {}
    for name, fn in named_checks:
        try:
            fn()
        except checks.CheckFailed as exc:
            out[name] = str(exc)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
        else:
            out[name] = "ok"
    return out


def pipeline_round(args, result: dict, tracer) -> None:
    import numpy as np

    import checks
    import workloads
    from arrkit import cli, config, market_data, pipeline

    run_dir = os.path.join(args.work, "run")
    cfg_path = os.path.join(args.work, "config.json")
    shutil.rmtree(run_dir, ignore_errors=True)
    ticks = None
    if args.workload == "pipeline-synthetic":
        cfg = workloads.synthetic_config(args.seed, run_dir)
        verbs = workloads.VERBS
    else:
        os.makedirs(os.path.join(args.work, "input"), exist_ok=True)
        ticks_path = os.path.join(args.work, "input", "ticks.csv")
        ticks = workloads.make_ticks(args.seed)
        workloads.write_ticks(ticks, ticks_path)
        cfg = workloads.csv_config(ticks_path, run_dir)
        verbs = workloads.VERBS[1:]  # the data stage is the user's file
    config.save_config(cfg, cfg_path)
    capture = Capture(pipeline)
    if args.setup_only:
        return
    start_tracing(tracer)

    result["run_start"] = time.monotonic()
    cpu0 = _rusage_cpu()
    ops = []
    for verb in verbs:
        rc = cli.main([verb, "--config", cfg_path, "--out", run_dir, "--threads", "1"])
        ops.append([verb, rc == 0])
    finish_run(result, cpu0, run_dir, tracer, args.result)

    n_cells = workloads.expected_cells(cfg)
    try:
        cells = checks.forecast_cells(os.path.join(run_dir, "forecast"))
    except OSError:
        cells = []
    ops += [[f"cell {c['task']}/{c['family']}", c["status"] == "ok"] for c in cells]
    ops += [["cell missing", False]] * max(0, n_cells - len(cells))
    result["ops"] = ops

    panel = capture.panel
    n_sessions = workloads.CSV_SESSIONS if ticks is not None else cfg.synthetic.n_sessions
    state = {}

    def panel_check():
        checks.require(panel is not None, "no panel was loaded")
        if ticks is None:
            expected = market_data.generate_synthetic_market(cfg.synthetic)
            checks.require(np.array_equal(panel.timestamps, expected.timestamps),
                           "panel timestamps differ from the generator's")
            checks.check_panel(panel.prices, expected.prices, "load_panel vs generator")
        else:
            checks.require(panel.asset_ids == tuple(sorted(workloads.CSV_ASSETS)),
                           f"asset ids {panel.asset_ids}")
            checks.check_panel(panel.prices, workloads.reference_grid(ticks),
                               "load_tick_csv vs reference grid")
        state["returns"] = checks.Returns(panel.timestamps, panel.prices, n_sessions)

    models = os.path.join(run_dir, "models")
    fit_lo, fit_hi = cfg.splits.fit_range
    named = [
        ("panel", panel_check),
        ("pca", lambda: checks.check_pca(
            os.path.join(models, "pca.json"), state["returns"].rows(fit_lo, fit_hi))),
        ("ratio_counts", lambda: checks.check_ratio_counts(
            os.path.join(run_dir, "arr"), pipeline._selected_sources(cfg), n_sessions)),
        ("pca_ratio", lambda: checks.check_pca_ratio(
            os.path.join(run_dir, "arr"), os.path.join(models, "pca.json"),
            state["returns"], fit_hi)),
        ("analyze", lambda: checks.check_analyze(os.path.join(run_dir, "analyze"))),
        ("forecast", lambda: checks.check_forecast(cells, n_cells)),
        ("report", lambda: checks.check_report(
            os.path.join(run_dir, "report", "report.json"), cells)),
    ]
    result["checks"] = run_checks(named)
    result["digest"] = checks.tree_digest(run_dir)


def ae_round(args, result: dict, tracer) -> None:
    import checks
    import workloads
    # the study's modules are imported here, in set-up, so run_s holds no import time
    from arrkit import arr, autoencoder, market_data, pca, returns_metrics, serialization, stats  # noqa: F401

    run_dir = os.path.join(args.work, "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    market = workloads.ae_market_config(args.seed)
    if args.setup_only:
        return
    start_tracing(tracer)

    result["run_start"] = time.monotonic()
    cpu0 = _rusage_cpu()
    study, ops = workloads.run_ae_vs_pca(market, run_dir)
    finish_run(result, cpu0, run_dir, tracer, args.result)
    result["ops"] = [list(op) for op in ops]
    result["errors"] = study.get("errors", [])

    state = {}
    train_end, val_end = workloads.AE_SPLITS

    def claim():
        summary = study.get("summary")
        checks.require(summary is not None, "the study did not finish")
        checks.require(summary["r2_autoencoder"] > summary["r2_pca"] and summary["p_value"] < 0.05,
                       f"autoencoder R2 {summary['r2_autoencoder']:.5f} vs PCA "
                       f"{summary['r2_pca']:.5f}, {summary['p_string']}")

    def recompute_r2():
        panel = study["panel"]
        returns = checks.Returns(panel.timestamps, panel.prices, workloads.AE_SESSIONS)
        state["returns"] = returns
        rows = returns.rows(val_end, workloads.AE_SESSIONS)
        stamps = returns.stamps(val_end, workloads.AE_SESSIONS)
        ae = checks.autoencoder_forward(os.path.join(run_dir, "autoencoder.json"), rows, stamps)
        pca_pred = checks.pca_reconstruct(os.path.join(run_dir, "pca.json"), rows)
        checks.check_close(study["summary"]["r2_autoencoder"], checks.r_squared(rows, ae),
                           "r2_autoencoder")
        checks.check_close(study["summary"]["r2_pca"], checks.r_squared(rows, pca_pred), "r2_pca")

    named = [
        ("claim", claim),
        ("r2", recompute_r2),
        ("pca", lambda: checks.check_pca(
            os.path.join(run_dir, "pca.json"), state["returns"].rows(0, val_end))),
    ]
    result["checks"] = run_checks(named)
    result["digest"] = checks.tree_digest(run_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import arrkit

    result = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "arrkit_file": os.path.relpath(arrkit.__file__),
    }
    tracer = None
    if args.trace and not args.setup_only:
        import tracing

        tracer = tracing.Tracer()
    os.makedirs(args.work, exist_ok=True)
    if args.workload == "ae-vs-pca":
        ae_round(args, result, tracer)
    else:
        pipeline_round(args, result, tracer)
    if args.setup_only:
        result["setup_end"] = time.monotonic()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
