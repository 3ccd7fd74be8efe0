"""Pipeline stages behind the CLI verbs.

Each stage reads only its declared inputs and writes only its own subdirectory of the
run directory (data/, models/, arr/, analyze/, forecast/, report/). Every stage drops a
manifest whose only volatile field is `generated_at`; re-running a stage with the same
config and seed reproduces every other byte.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import os
import zipfile

import numpy as np

from .arr import ArrSeries, align_series, pca_reconstruction, ratio_series, smooth_arr, squared_error
from .autoencoder import random_search_ae, reconstruct_series
from .config import RunConfig, SCHEMA_VERSION, config_hash, data_hash
from .forecasting import (
    FREQ_NAMES,
    FREQUENCIES,
    ForecastDataset,
    build_features,
    random_search_cv,
)
from .market_data import (
    SESSION_SECONDS,
    SessionCalendar,
    TickPanel,
    build_session_calendar,
    generate_synthetic_market,
    load_tick_csv,
    synthetic_calendar,
)
from .pca import fit_pca
from .returns_metrics import (
    RiskSeries,
    crash_labels,
    drawdown,
    five_minute_closes,
    five_minute_sums,
    log_returns,
    realized_variance,
    session_five_minute_sums,
    window_closes,
    window_sums,
    winsorize,
)
from .search import map_arms, one_blas_thread
from .serialization import (
    load_autoencoder,
    load_pca,
    save_autoencoder,
    save_pca,
    write_csv,
    write_json,
)
from .stats import KdeGrid, auroc, bucket_r2_bootstrap, kde2d, paired_bootstrap, r_squared, spearman

ANALYZE_METRICS = ("returns", "log_rv", "drawdown")


class StageError(RuntimeError):
    """A pipeline stage could not run; `details` is JSON-serializable context."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


# ---------------------------------------------------------------------------
# shared plumbing


def _utc_now() -> str:
    return dt.datetime.now(dt.timezone.utc).isoformat(timespec="seconds")


def stage_dir(out_dir, stage: str) -> str:
    path = os.path.join(out_dir, stage)
    os.makedirs(path, exist_ok=True)
    return path


def write_manifest(directory, stage: str, cfg: RunConfig, outputs, extra: dict | None = None):
    payload = {
        "stage": stage,
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "generated_at": _utc_now(),  # the single volatile field
        "outputs": sorted(outputs),
    }
    if extra:
        payload.update(extra)
    write_json(payload, os.path.join(directory, "manifest.json"))
    return payload


# stage subdirectory -> CLI verb that produces it
_VERB_OF = {
    "data": "generate",
    "models": "train",
    "arr": "arr",
    "analyze": "analyze",
    "forecast": "forecast",
    "report": "report",
}


def _calendar_to_dict(cal: SessionCalendar) -> dict:
    return {
        "sessions": [[d.isoformat(), o, c] for d, o, c in cal.sessions],
        "excluded_dates": [d.isoformat() for d in cal.excluded_dates],
    }


def _calendar_from_dict(data: dict) -> SessionCalendar:
    return SessionCalendar(
        sessions=tuple(
            (dt.date.fromisoformat(d), int(o), int(c)) for d, o, c in data["sessions"]
        ),
        excluded_dates=tuple(dt.date.fromisoformat(d) for d in data["excluded_dates"]),
    )


def _require(verb: str, *paths) -> None:
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise StageError(f"cmd_{verb} outputs missing", details={"missing": missing})


def load_calendar(cfg: RunConfig, out_dir) -> SessionCalendar:
    """The data stage's calendar, refused if that stage ran on another data config."""
    data_dir = os.path.join(out_dir, "data")
    cal_path = os.path.join(data_dir, "calendar.json")
    manifest_path = os.path.join(data_dir, "manifest.json")
    _require("generate", cal_path, manifest_path)
    with open(manifest_path, "r", encoding="utf-8") as fh:
        hashes = {"expected": data_hash(cfg), "found": json.load(fh).get("data_hash")}
    if hashes["found"] != hashes["expected"]:
        raise StageError(f"{data_dir} is from a different data config", details=hashes)
    with open(cal_path, "r", encoding="utf-8") as fh:
        return _calendar_from_dict(json.load(fh))


def load_panel(cfg: RunConfig, out_dir) -> tuple[TickPanel, SessionCalendar]:
    """The tick panel a stage works on: the data stage's panel.npz and calendar. Only
    train and arr read it; the later stages read arr's buckets.npz."""
    panel_path = os.path.join(out_dir, "data", "panel.npz")
    _require("generate", panel_path)
    calendar = load_calendar(cfg, out_dir)
    try:
        with np.load(panel_path, allow_pickle=False) as data:
            prices, asset_ids = data["prices"], tuple(data["asset_ids"].tolist())
    except (zipfile.BadZipFile, KeyError) as exc:
        raise StageError(f"malformed {panel_path}: {exc}") from exc
    if prices.shape[:1] != (calendar.n_sessions * SESSION_SECONDS,):
        raise StageError(
            f"malformed {panel_path}: prices of shape {prices.shape} for the "
            f"{calendar.n_sessions} sessions of {os.path.join(out_dir, 'data', 'calendar.json')}"
        )
    return TickPanel(calendar.opens, prices, asset_ids), calendar


def _sector_columns(cfg: RunConfig) -> slice:
    """The panel's sector columns: all but the market composite (asset 0), if it has one."""
    composite = cfg.data_source == "synthetic" and cfg.synthetic.market_composite
    return slice(1, None) if composite else slice(None)


def _session_of(stamps: np.ndarray, calendar: SessionCalendar) -> np.ndarray:
    """Session ordinal owning each stamp (stamps in (open, close] map to that session)."""
    return np.searchsorted(calendar.opens, np.asarray(stamps, dtype=np.int64), side="right") - 1


def _seed_from(*key: int, base: int) -> int:
    return int(np.random.SeedSequence(base, spawn_key=tuple(key)).generate_state(1)[0])


def _selected_sources(cfg: RunConfig) -> tuple[str, ...]:
    if cfg.models == "both":
        return ("autoencoder", "pca")
    return (cfg.models,)


# ---------------------------------------------------------------------------
# generate


def cmd_generate(cfg: RunConfig, out_dir) -> dict:
    """The one data stage: generate the synthetic panel or ingest the CSV once, then write
    its prices and asset ids (panel.npz), its calendar, and the data manifest. A stage
    that loads the panel takes its session opens from the calendar."""
    if cfg.data_source == "synthetic":
        panel = generate_synthetic_market(cfg.synthetic)
        calendar = synthetic_calendar(cfg.synthetic)
    else:
        calendar = build_session_calendar(
            [dt.date.fromisoformat(d) for d in cfg.csv_dates],
            [dt.date.fromisoformat(d) for d in cfg.csv_half_days],
        )
        panel = load_tick_csv(cfg.csv_path, calendar)
    directory = stage_dir(out_dir, "data")
    # uncompressed: random doubles barely compress; zip entries carry a fixed date, so
    # the file is byte-identical from run to run
    np.savez(
        os.path.join(directory, "panel.npz"),
        prices=panel.prices,
        asset_ids=np.array(panel.asset_ids),
    )
    write_json(_calendar_to_dict(calendar), os.path.join(directory, "calendar.json"))
    return write_manifest(
        directory,
        "data",
        cfg,
        ["calendar.json", "panel.npz"],
        extra={
            "data_hash": data_hash(cfg),
            "asset_ids": list(panel.asset_ids),
            "n_assets": panel.n_assets,
            "n_sessions": calendar.n_sessions,
            "n_rows": panel.n_rows,
        },
    )


# ---------------------------------------------------------------------------
# train


def _ae_trials_jsonl(trials, path) -> None:
    """One line per search arm, with its learning curve: per-epoch train loss and
    validation fit (empty for a diverged arm)."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in trials:
            fh.write(json.dumps({
                "arm": t.arm,
                "config": dataclasses.asdict(t.config),
                "epochs": len(t.history),
                "train_loss": [h["train_loss"] for h in t.history],
                "val_fit": [h["val_fit"] for h in t.history],
                "val_loss": t.val_loss,
                "error": t.error,
            }, sort_keys=True) + "\n")


def cmd_train(cfg: RunConfig, out_dir, threads: int | None = None) -> dict:
    """Random-search the autoencoder on train/validation, its arms on up to `threads`
    worker processes (default: the usable CPUs); fit the linear factor model on the
    train+validation window. Writes serialized models plus the trial log."""
    ticks, _ = load_panel(cfg, out_dir)
    # the returns of the fit window's sessions alone, the only ones the fits read
    fit_ticks = ticks.select_sessions(0, cfg.splits.fit_range[1], _sector_columns(cfg))
    returns = log_returns(fit_ticks, 1)
    directory = stage_dir(out_dir, "models")
    n_components = max(1, returns.n_assets // 5)
    outputs, extra = [], {
        "sector_ids": list(returns.asset_ids),
        "n_components": n_components,
        "fit_sessions": list(cfg.splits.fit_range),
    }

    if cfg.models in ("both", "autoencoder"):
        train = returns.select_sessions(*cfg.splits.train)
        val = returns.select_sessions(*cfg.splits.validation)
        search = random_search_ae(
            train, val, iterations=cfg.ae_search_iterations, seed=cfg.seed, workers=threads
        )
        save_autoencoder(
            search.best_model,
            os.path.join(directory, "autoencoder.json"),
            metadata={
                "val_loss": search.best_val_loss,
                "train_config": dataclasses.asdict(search.best_config),
                "train_sessions": list(cfg.splits.train),
                "validation_sessions": list(cfg.splits.validation),
            },
        )
        _ae_trials_jsonl(search.trials, os.path.join(directory, "ae_trials.jsonl"))
        outputs += ["autoencoder.json", "ae_trials.jsonl"]
        extra["ae_trials"] = len(search.trials)
        extra["ae_trials_diverged"] = sum(t.error is not None for t in search.trials)
        extra["ae_val_loss"] = search.best_val_loss

    if cfg.models in ("both", "pca"):
        window = returns.select_sessions(*cfg.splits.fit_range)
        model = fit_pca(window.returns, n_components)
        save_pca(
            model,
            os.path.join(directory, "pca.json"),
            metadata={"fit_sessions": list(cfg.splits.fit_range)},
        )
        outputs.append("pca.json")

    return write_manifest(directory, "models", cfg, outputs, extra)


# ---------------------------------------------------------------------------
# arr


def reconstructor(source: str, out_dir):
    """The reconstruction of a returns panel by the serialized model of the given source."""
    path = os.path.join(out_dir, "models", f"{source}.json")
    _require("train", path)
    if source == "autoencoder":
        model, _ = load_autoencoder(path)
        return lambda returns: reconstruct_series(model, returns)
    model, _ = load_pca(path)
    return lambda returns: pca_reconstruction(model, returns)


def _write_arr_segments_csv(series: ArrSeries, segments, path) -> None:
    columns = (series.timestamps.tolist(), series.values.tolist(), segments.tolist())
    write_csv(path, ("timestamp", "arr", "segment"), columns)


def arr_file_name(source: str, interval: int, smoothed: bool = False) -> str:
    suffix = "_smoothed" if smoothed else ""
    return f"{source}_{FREQ_NAMES[interval]}{suffix}.csv"


def cmd_arr(cfg: RunConfig, out_dir) -> dict:
    """Reconstruction-ratio series at every configured frequency for each trained model
    source, plus the EWMA-smoothed five-minute series, with segment flags; and buckets.npz,
    the (S, 78) five-minute sums that the later stages read in place of the panel: the
    sector assets' returns, squared returns and each source's squared errors, each summed
    over assets, and the market's (asset 0's) returns, squared returns and closing prices."""
    ticks, calendar = load_panel(cfg, out_dir)
    sources = _selected_sources(cfg)
    reconstructors = [reconstructor(source, out_dir) for source in sources]

    def sums(returns):  # one session, summed over its sector assets
        r = returns.returns
        errors = (squared_error(reconstruct(returns)) for reconstruct in reconstructors)
        return (r.sum(1), np.einsum("ij,ij->i", r, r), *errors)

    sum_fives, ret_fives, *err_fives = session_five_minute_sums(ticks, sums, _sector_columns(cfg))
    market = session_five_minute_sums(
        ticks, lambda r: (r.returns[:, 0], r.returns[:, 0] ** 2), slice(0, 1))
    directory = stage_dir(out_dir, "arr")
    np.savez(
        os.path.join(directory, "buckets.npz"),
        returns=sum_fives, sq_returns=ret_fives,
        **{f"sq_error_{source}": fives for source, fives in zip(sources, err_fives)},
        market_returns=market[0], market_sq_returns=market[1],
        market_closes=five_minute_closes(ticks.prices[:, 0], len(ticks.opens)),
        market_asset=np.array(ticks.asset_ids[0]),
    )
    fit_end = cfg.splits.fit_range[1]
    outputs = ["buckets.npz"]

    def segments_of(series: ArrSeries):
        sess = _session_of(series.timestamps, calendar)
        return np.where(sess < fit_end, "in_sample", "out_of_sample")

    for source, fives in zip(sources, err_fives):
        for freq in cfg.frequencies:
            series = ratio_series(fives, ret_fives, ticks.opens, freq, source)
            name = arr_file_name(source, freq)
            _write_arr_segments_csv(series, segments_of(series), os.path.join(directory, name))
            outputs.append(name)
            if freq == 300:
                smoothed = smooth_arr(series, cfg.smooth_half_life_days)
                name = arr_file_name(source, freq, smoothed=True)
                _write_arr_segments_csv(
                    smoothed, segments_of(smoothed), os.path.join(directory, name)
                )
                outputs.append(name)

    return write_manifest(
        directory,
        "arr",
        cfg,
        outputs,
        extra={
            "sources": list(sources),
            "frequencies": [FREQ_NAMES[f] for f in cfg.frequencies],
            "smooth_half_life_days": cfg.smooth_half_life_days,
            "in_sample_sessions": [cfg.splits.train[0], fit_end],
        },
    )


# ---------------------------------------------------------------------------
# analyze


def load_buckets(cfg: RunConfig, out_dir) -> tuple[dict, SessionCalendar]:
    """The arrays of arr's buckets.npz (see `cmd_arr`) by name, and the data calendar: all
    that the stages after arr read of the panel."""
    calendar = load_calendar(cfg, out_dir)
    path = os.path.join(out_dir, "arr", "buckets.npz")
    _require("arr", path)
    names = ("returns", "sq_returns", "market_returns", "market_sq_returns", "market_closes",
             "market_asset", *(f"sq_error_{source}" for source in _selected_sources(cfg)))
    try:
        with np.load(path, allow_pickle=False) as data:
            return {name: data[name] for name in names}, calendar
    except (zipfile.BadZipFile, KeyError) as exc:
        raise StageError(f"malformed {path}: {exc}") from exc


def _ratio_series(buckets: dict, source: str, opens, freq: int):
    return ratio_series(buckets[f"sq_error_{source}"], buckets["sq_returns"], opens, freq, source)


def _market_series(buckets: dict, opens, metric: str, freq: int) -> RiskSeries:
    """The market's returns, log realized variance or drawdown over `freq` windows."""
    if metric == "returns":
        return RiskSeries(*window_sums(buckets["market_returns"], opens, freq), "return")
    if metric == "log_rv":
        return realized_variance(buckets["market_sq_returns"], opens, freq)
    return drawdown(*window_closes(buckets["market_closes"], opens, freq))


def _write_kde_csv(grid: KdeGrid, path) -> None:
    """One (x, y, density) row per grid point, x-major; each x and y grid value is
    formatted once, not once per row."""
    xs = [str(v) for v in grid.x_grid.tolist()]
    ys = [str(v) for v in grid.y_grid.tolist()]
    columns = ([x for x in xs for _ in ys], ys * len(xs), grid.density.ravel().tolist())
    write_csv(path, ("x", "y", "density"), columns)


def cmd_analyze(cfg: RunConfig, out_dir) -> dict:
    """Joint KDE grids and rank correlations of the reconstruction ratio against market
    returns, log realized variance, and drawdown, at every configured frequency."""
    buckets, calendar = load_buckets(cfg, out_dir)
    opens, source = calendar.opens, cfg.resolved_analyze_source()
    directory = stage_dir(out_dir, "analyze")

    cells, outputs = [], []
    for freq in cfg.frequencies:
        arr_series = _ratio_series(buckets, source, opens, freq)
        for metric in ANALYZE_METRICS:
            series = _market_series(buckets, opens, metric, freq)
            stamps, metric_vals, arr_vals = align_series(
                series.timestamps, series.values, arr_series.timestamps, arr_series.values
            )
            cell = {
                "metric": metric,
                "frequency": FREQ_NAMES[freq],
                "n": int(len(stamps)),
                "spearman": None,
                "kde_file": None,
                "status": "ok",
                "reason": None,
            }
            if len(stamps) == 0:
                raise StageError(
                    f"empty join between {metric} and the ratio series at {FREQ_NAMES[freq]}"
                )
            x = winsorize(metric_vals)
            y = winsorize(arr_vals)
            if len(stamps) < 10:
                cell.update(status="skipped", reason="fewer than 10 paired observations")
            else:
                try:
                    with one_blas_thread():  # the same bytes whatever the BLAS thread count
                        grid = kde2d(x, y)
                    cell["spearman"] = spearman(x, y)
                except ValueError as exc:
                    cell.update(status="skipped", reason=str(exc))
                else:
                    name = f"kde_{metric}_{FREQ_NAMES[freq]}.csv"
                    _write_kde_csv(grid, os.path.join(directory, name))
                    outputs.append(name)
                    cell["kde_file"] = name
            cells.append(cell)

    columns = ("metric", "frequency", "n", "spearman", "kde_file", "status", "reason")
    write_csv(os.path.join(directory, "correlations.csv"), columns,
              [[c[col] for c in cells] for col in columns])
    outputs.append("correlations.csv")

    return write_manifest(
        directory,
        "analyze",
        cfg,
        outputs,
        extra={"source": source, "market_asset": str(buckets["market_asset"]), "cells": cells},
    )


# ---------------------------------------------------------------------------
# forecast


def _subset_dataset(ds: ForecastDataset, idx: np.ndarray) -> ForecastDataset:
    return dataclasses.replace(ds, features=ds.features[idx], target=ds.target[idx],
                               feature_times=ds.feature_times[idx], target_times=ds.target_times[idx])


def _forecast_cell(job) -> dict:
    """One (horizon, task, family) cell: paired with/without searches plus bootstrap, or
    a failed row that gives the reason its datasets could not be built."""
    horizon, task, family, splits, iterations, folds, seed_search, seed_boot = job
    metric = "auroc" if task == "classification" else "r2"
    row = {"horizon": FREQ_NAMES[horizon], "task": task, "family": family, "metric": metric,
           "n_train": 0, "n_test": 0, "status": "ok", "reason": None}
    if isinstance(splits, str):
        return dict(row, status="failed", reason=splits)
    test_target = splits[True][1].target  # the with/without datasets share rows and targets
    row.update(n_train=int(len(splits[True][0])), n_test=int(len(test_target)))
    score_fn = auroc if metric == "auroc" else r_squared
    found, preds = {}, {}
    try:
        for label, (train, test) in (("with_arr", splits[True]), ("without_arr", splits[False])):
            result = random_search_cv(train, family, iterations=iterations, folds=folds, seed=seed_search)
            preds[label] = np.asarray(result.model.predict(test.features), dtype=np.float64)
            found[f"score_{label}"] = float(score_fn(test.target, preds[label]))
            found[f"params_{label}"] = result.spec.params
            found[f"cv_score_{label}"] = result.best_score
        boot = paired_bootstrap(test_target, preds["with_arr"], preds["without_arr"],
                                metric=metric, seed=seed_boot)
    except (ValueError, RuntimeError) as exc:
        return dict(row, status="failed", reason=str(exc))
    return dict(row, **found, observed_diff=boot.observed_diff, p_value=boot.p_value,
                p_string=boot.p_string())


def _forecast_tasks(cfg: RunConfig, buckets: dict, calendar: SessionCalendar):
    """Build the 24-cell work list: per-horizon paired datasets × families × tasks."""
    if set(FREQUENCIES) - set(cfg.frequencies):
        raise StageError("forecasting needs all four frequencies configured")
    source, opens = cfg.resolved_analyze_source(), calendar.opens
    log_rv = {freq: _market_series(buckets, opens, "log_rv", freq) for freq in FREQUENCIES}
    arr = {freq: _ratio_series(buckets, source, opens, freq) for freq in FREQUENCIES}

    test_lo, test_hi = cfg.splits.test
    tasks = []
    for hi, horizon in enumerate(FREQUENCIES):
        if horizon not in cfg.horizons:
            continue
        labels = crash_labels(
            _market_series(buckets, opens, "returns", horizon), cfg.crash_half_life, cfg.crash_threshold
        )
        for ti, task in enumerate(("regression", "classification")):
            crash = labels if task == "classification" else None
            families = (
                cfg.classification_families if task == "classification"
                else cfg.regression_families
            )
            try:
                datasets = {
                    flag: build_features(log_rv, arr, horizon, flag, crash=crash)
                    for flag in (True, False)
                }
                splits = {}
                for flag, ds in datasets.items():
                    sess = _session_of(ds.target_times, calendar)
                    tr = np.flatnonzero(sess < test_lo)
                    te = np.flatnonzero((sess >= test_lo) & (sess < test_hi))
                    if len(tr) == 0 or len(te) == 0:
                        raise ValueError("empty train or test split for this horizon")
                    splits[flag] = (_subset_dataset(ds, tr), _subset_dataset(ds, te))
            except ValueError as exc:
                splits = str(exc)
            for fi, family in enumerate(families):
                tasks.append((
                    horizon, task, family, splits, cfg.forecast_search_iterations, cfg.cv_folds,
                    _seed_from(hi, ti, fi, 0, base=cfg.seed), _seed_from(hi, ti, fi, 1, base=cfg.seed),
                ))
    return tasks


_RESULT_COLUMNS = (
    "horizon", "task", "family", "metric", "n_train", "n_test",
    "score_with_arr", "score_without_arr", "observed_diff", "p_value", "p_string",
    "status", "reason",
)


def _row_order(row: dict) -> tuple:
    order = {name: i for i, name in enumerate(FREQ_NAMES.values())}
    return (order[row["horizon"]], row["task"], row["family"])


def cmd_forecast(cfg: RunConfig, out_dir, threads: int | None = None) -> dict:
    """The with/without-ratio forecasting grid: horizons × families × both tasks, its
    cells on up to `threads` worker processes (default: the usable CPUs)."""
    tasks = _forecast_tasks(cfg, *load_buckets(cfg, out_dir))
    rows = map_arms(_forecast_cell, tasks, workers=threads)
    rows.sort(key=_row_order)
    if rows and all(r["status"] == "failed" for r in rows):
        raise StageError(
            "every forecast cell failed",
            details={"reasons": sorted({r["reason"] for r in rows})},
        )

    directory = stage_dir(out_dir, "forecast")
    write_csv(os.path.join(directory, "results.csv"), _RESULT_COLUMNS,
              [[row.get(col) for row in rows] for col in _RESULT_COLUMNS])
    write_json({"cells": rows}, os.path.join(directory, "results.json"))
    return write_manifest(
        directory,
        "forecast",
        cfg,
        ["results.csv", "results.json"],
        extra={
            "source": cfg.resolved_analyze_source(),
            "n_cells": len(rows),
            "n_failed": sum(r["status"] == "failed" for r in rows),
        },
    )


# ---------------------------------------------------------------------------
# report


def _reconstruction_block(cfg: RunConfig, out_dir, n_sectors: int) -> dict:
    if cfg.models != "both":
        return {"status": "skipped", "reason": "needs both model sources trained"}
    lo, hi = cfg.splits.test
    buckets, _ = load_buckets(cfg, out_dir)
    names = ("sq_error_autoencoder", "sq_error_pca", "returns", "sq_returns")
    test = [buckets[name][lo:hi] for name in names]
    # a bucket holds 300 seconds of every sector asset, the last of a session 299; a
    # resample moves whole buckets
    cells = n_sectors * five_minute_sums(np.ones(SESSION_SECONDS - 1))
    r2_ae, r2_pca, boot = bucket_r2_bootstrap(*test, cells, seed=_seed_from(101, base=cfg.seed))
    return {
        "status": "ok",
        "test_sessions": list(cfg.splits.test),
        "r2_autoencoder": r2_ae,
        "r2_pca": r2_pca,
        "observed_diff": boot.observed_diff,
        "p_value": boot.p_value,
        "p_string": boot.p_string(),
        "n_resamples": boot.n_resamples,
        "block_length": boot.block_length,
    }


def cmd_report(cfg: RunConfig, out_dir) -> dict:
    """Aggregate every stage into one structured report: manifests, the out-of-sample
    reconstruction comparison, and one forecasting table per task."""
    missing, manifests = [], {}
    for stage in ("data", "models", "arr", "analyze", "forecast"):
        path = os.path.join(out_dir, stage, "manifest.json")
        if not os.path.exists(path):
            missing.append(f"cmd_{_VERB_OF[stage]} outputs missing")
            continue
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        lost = [
            name for name in manifest.get("outputs", ())
            if not os.path.exists(os.path.join(out_dir, stage, name))
        ]
        if lost:
            missing.append(f"cmd_{_VERB_OF[stage]} outputs missing")
        else:
            manifest.pop("generated_at", None)  # keep the report's volatility in one field
            manifests[stage] = manifest
    if missing:
        raise StageError("; ".join(missing), details={"missing": missing})
    load_calendar(cfg, out_dir)  # refuses a run directory of another data config

    with open(os.path.join(out_dir, "forecast", "results.json"), "r", encoding="utf-8") as fh:
        cells = json.load(fh)["cells"]
    report = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "generated_at": _utc_now(),
        "stages": manifests,
        "reconstruction": _reconstruction_block(
            cfg, out_dir, len(manifests["models"]["sector_ids"])
        ),
        "forecast": {
            task: [row for row in cells if row["task"] == task]
            for task in ("regression", "classification")
        },
    }
    directory = stage_dir(out_dir, "report")
    write_json(report, os.path.join(directory, "report.json"))
    write_manifest(directory, "report", cfg, ["report.json"])
    return report
