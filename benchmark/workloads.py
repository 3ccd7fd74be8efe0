"""The three workloads: their configs, their inputs and the runs that drive arrkit.

Every input is made from the benchmark seed. The program settings that pick
hyperparameter arms (the run config's `seed`, the autoencoder search seed) are fixed,
so a seed changes the data a run sees but not the amount of work it asks for.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import os

import numpy as np

SESSION = 23400  # seconds in a session, as in arrkit.market_data
OPEN = 34200  # 09:30 UTC, seconds after midnight
VERBS = ("generate", "train", "arr", "analyze", "forecast", "report")
WORKLOADS = ("pipeline-synthetic", "pipeline-csv-ticks", "ae-vs-pca")

# run-config seeds; they pick the hyperparameter arms
SYNTHETIC_RUN_SEED = 3
CSV_RUN_SEED = 13
AE_SEARCH_SEED = 0
BOOTSTRAP_SEED = 1

# ae-vs-pca: gate 1's panel shape and nonlinearity on 8 sessions. The arms come from
# a narrowed grid: learning rate 0.1 and batch 512 from the default grid, no input
# dropout, and patience = max epochs, so every arm trains all its epochs and the
# amount of work does not swing with the data. At learning rates of 1e-2 and below an
# arm often settles on a PCA-like solution, and a three-arm search then fails the
# AE-beats-PCA check on some panels; the default grid needs gate 1's 20 arms.
AE_ASSETS, AE_SESSIONS, AE_SPLITS = 11, 8, (5, 7)
AE_ARMS, AE_EPOCHS = 4, 20
AE_MIN_NONLINEAR_SHARE = 0.04
AE_GRID = {
    "learning_rate": (0.1,),
    "batch_size": (512,),
    "dropout_rate": (0.0,),
    "l1_weight": (0.0, 0.01),
    "clip_norm": (1.0, 10.0),
    "patience": (AE_EPOCHS,),
}

# pipeline-csv-ticks input: a user's sparse tick file
CSV_ASSETS = ("AAA", "BBB", "CCC", "DDD", "EEE", "FFF")
CSV_SESSIONS = 8
CSV_HALF_DAY = 4  # position of the half day among the file's dates; its rows are dropped
CSV_TICK_PROB = 0.25  # chance that an asset prints in a given second
CSV_START = dt.date(2024, 3, 4)


def data_seed(seed: int, workload: str) -> int:
    """The synthetic-data seed of one workload, derived from the benchmark seed."""
    key = WORKLOADS.index(workload)
    return int(np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# pipeline configs


def synthetic_config(seed: int, run_dir: str):
    """The gate-8 config cut to a round of about 10 s: 8 sessions, the fewest that
    leave forecast training rows once every weekly feature exists (the first rolling
    week ends with session 5); 2 assets on one factor; PCA only, since the autoencoder
    needs 5 assets and a 5-asset round takes about 35 s. Short rounds let a run take
    the median of four or five, which the host's load bursts move far less than one
    long round."""
    from arrkit.config import RunConfig, SplitSpec
    from arrkit.market_data import CoMovementSpec, RegimeSpec, SyntheticMarketConfig

    n = 8
    synth = SyntheticMarketConfig(
        n_assets=2, n_sessions=n, n_factors=1,
        regime_schedule=(RegimeSpec(0, n, 1.0, 0.5),),
        comovement=CoMovementSpec(share_innovation=0.6),
        seed=data_seed(seed, "pipeline-synthetic"),
    )
    return RunConfig(
        data_source="synthetic",
        splits=SplitSpec((0, 3), (3, 4), (7, 8)),
        synthetic=synth,
        models="pca",
        horizons=(300,),
        regression_families=("ridge",),
        classification_families=("logistic_l1",),
        crash_threshold=-1.0,  # more positives than -1.5: no one-class fold on the seeds run
        forecast_search_iterations=3,
        cv_folds=2,
        seed=SYNTHETIC_RUN_SEED,
        output_dir=run_dir,
    )


def csv_dates() -> tuple[list[str], list[str]]:
    """All dates in the tick file, and the half day among them."""
    days = np.busday_offset(np.datetime64(CSV_START), np.arange(CSV_SESSIONS + 1), roll="forward")
    dates = [str(d) for d in days]
    return dates, [dates[CSV_HALF_DAY]]


def csv_config(ticks_path: str, run_dir: str):
    from arrkit.config import RunConfig, SplitSpec

    dates, half = csv_dates()
    return RunConfig(
        data_source="csv",
        csv_path=ticks_path,
        csv_dates=tuple(dates),
        csv_half_days=tuple(half),
        splits=SplitSpec((0, 3), (3, 7), (7, 8)),
        models="pca",
        horizons=(300,),
        regression_families=("ridge", "gbdt", "mlp"),
        classification_families=("logistic_l1", "gbdt", "mlp"),
        crash_threshold=-1.0,
        forecast_search_iterations=2,
        cv_folds=2,
        seed=CSV_RUN_SEED,
        output_dir=run_dir,
    )


def expected_cells(cfg) -> int:
    return len(cfg.horizons) * (len(cfg.regression_families) + len(cfg.classification_families))


# ---------------------------------------------------------------------------
# the sparse tick file


@dataclasses.dataclass
class Ticks:
    """Rows of the tick file in file order: epoch milliseconds, asset column, price."""

    stamp_ms: np.ndarray
    asset: np.ndarray
    price: np.ndarray
    dates: list
    half_days: list


def make_ticks(seed: int) -> Ticks:
    """Sparse ticks of a one-factor market with a drifting co-movement share.

    Each asset prints in about a quarter of the seconds, at a random millisecond, so
    seconds go missing and sessions can open on a gap. About 5% of prints get a second
    print in the same second, and about 2% of neighbouring rows are swapped, so the file
    holds duplicate and out-of-order rows. The half day carries prints for its first
    3.5 hours; its date is declared a half day, so ingest drops them.
    """
    rng = np.random.default_rng(data_seed(seed, "pipeline-csv-ticks"))
    dates, half = csv_dates()
    n_days, n_assets = len(dates), len(CSV_ASSETS)
    seconds = n_days * SESSION
    windows = seconds // 300
    logit = np.empty(windows)
    logit[0] = rng.normal(0.2, 1.0)
    shocks = rng.standard_normal(windows)
    for w in range(1, windows):
        logit[w] = 0.2 + 0.9 * (logit[w - 1] - 0.2) + 0.45 * shocks[w]
    share = np.repeat(1.0 / (1.0 + np.exp(-logit)), 300)[:, None]
    beta = rng.uniform(0.6, 1.4, n_assets)
    factor = rng.standard_normal(seconds)[:, None]
    idio = rng.standard_normal((seconds, n_assets))
    returns = 1e-4 * (np.sqrt(share) * factor * beta + np.sqrt(1.0 - share) * idio)
    offsets = np.tile(np.arange(SESSION), n_days)
    returns[offsets == 0] = 0.0  # no overnight move
    prices = 100.0 * np.exp(np.cumsum(returns, axis=0))

    opens = np.array(
        [int(np.datetime64(d, "s").astype(np.int64)) + OPEN for d in dates], dtype=np.int64
    )
    second = np.repeat(opens, SESSION) + offsets
    live = np.ones(seconds, dtype=bool)
    live[CSV_HALF_DAY * SESSION + 12600 : (CSV_HALF_DAY + 1) * SESSION] = False  # early close

    stamps, assets, values = [], [], []
    for j in range(n_assets):
        rows = np.flatnonzero(live & (rng.random(seconds) < CSV_TICK_PROB))
        ms = rng.integers(0, 1000, len(rows))
        stamps.append(second[rows] * 1000 + ms)
        assets.append(np.full(len(rows), j))
        values.append(prices[rows, j])
        again = rows[rng.random(len(rows)) < 0.05]  # a second print in the same second
        stamps.append(second[again] * 1000 + rng.integers(0, 1000, len(again)))
        assets.append(np.full(len(again), j))
        values.append(prices[again, j] * np.exp(1e-4 * rng.standard_normal(len(again))))
    stamp_ms = np.concatenate(stamps)
    asset = np.concatenate(assets)
    price = np.concatenate(values)
    order = np.lexsort((asset, stamp_ms))
    stamp_ms, asset, price = stamp_ms[order], asset[order], price[order]
    swap = np.flatnonzero(rng.random(len(stamp_ms) - 1) < 0.02)
    swap = swap[np.diff(swap, prepend=-2) > 1]  # disjoint neighbour pairs
    for arr in (stamp_ms, asset, price):
        arr[swap], arr[swap + 1] = arr[swap + 1].copy(), arr[swap].copy()
    return Ticks(stamp_ms, asset, price, dates, half)


def write_ticks(ticks: Ticks, path: str) -> None:
    """ISO-8601 UTC stamps with milliseconds, written as `Z` or as `+00:00`."""
    iso = np.datetime_as_string(ticks.stamp_ms.astype("datetime64[ms]"), unit="ms")
    zone = np.where(ticks.stamp_ms % 7 == 0, "+00:00", "Z")
    names = np.array(CSV_ASSETS)[ticks.asset]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,asset_id,price\n")
        fh.writelines(
            f"{s}{z},{a},{p!r}\n"
            for s, z, a, p in zip(iso.tolist(), zone.tolist(), names.tolist(), ticks.price.tolist())
        )


def reference_grid(ticks: Ticks) -> np.ndarray:
    """The per-second price grid the tick file describes, built without arrkit.

    Rows on the half day are dropped. Within a second the row written last wins; a
    session that opens on a gap takes its first print, and later gaps carry the last
    price forward. Columns follow the sorted asset names.
    """
    keep_dates = [d for d in ticks.dates if d not in ticks.half_days]
    opens = np.array(
        [int(np.datetime64(d, "s").astype(np.int64)) + OPEN for d in keep_dates], dtype=np.int64
    )
    sec = ticks.stamp_ms // 1000
    session = np.searchsorted(opens, sec, side="right") - 1
    offset = sec - opens[np.maximum(session, 0)]
    ok = (session >= 0) & (offset < SESSION)
    order = np.argsort(np.array(CSV_ASSETS))  # column of each asset in sorted order
    column = np.argsort(order)[ticks.asset]
    cell = (session * SESSION + offset) * len(CSV_ASSETS) + column
    cell, price = cell[ok], ticks.price[ok]
    # the last row written for a cell is the first one met when reading backwards
    _, first_back = np.unique(cell[::-1], return_index=True)
    last = len(cell) - 1 - first_back
    grid = np.full(len(keep_dates) * SESSION * len(CSV_ASSETS), np.nan)
    grid[cell[last]] = price[last]
    grid = grid.reshape(len(keep_dates), SESSION, len(CSV_ASSETS))
    for s in range(grid.shape[0]):
        for j in range(grid.shape[2]):
            col = grid[s, :, j]
            seen = np.flatnonzero(~np.isnan(col))
            src = np.zeros(SESSION, dtype=np.int64)
            src[seen] = seen
            src = np.maximum(np.maximum.accumulate(src), seen[0])
            grid[s, :, j] = col[src]
    return grid.reshape(-1, len(CSV_ASSETS))


# ---------------------------------------------------------------------------
# ae-vs-pca


def nonlinear_share(config) -> float:
    """Share of a synthetic panel's expected variance that only a nonlinear model can
    explain: the noiseless signal's variance outside its best linear subspace of the
    autoencoder's latent width. It comes from the generator's ground-truth loadings,
    with E[zz'] = I, E[z z^3'] = 3I and E[z^3 z^3'] = 15I for independent normal
    factors; the intraday profile scales signal and noise alike and drops out."""
    from arrkit.autoencoder import ae_dims
    from arrkit.market_data import RegimeSpec, generate_synthetic_market_details

    (regime,) = config.regime_schedule
    one = dataclasses.replace(
        config, n_sessions=1, regime_schedule=(RegimeSpec(0, 1, 1.0, regime.idiosyncratic_vol),)
    )
    _, truth = generate_synthetic_market_details(one)
    b, c = truth.loadings_linear, config.nonlinearity * truth.loadings_cubic
    signal = b @ b.T + 3.0 * (b @ c.T + c @ b.T) + 15.0 * (c @ c.T)
    kept = np.sort(np.linalg.eigvalsh(signal))[::-1][: ae_dims(config.n_assets)[0]].sum()
    total = np.trace(signal) + config.n_assets * regime.idiosyncratic_vol**2
    return float((np.trace(signal) - kept) / total)


def ae_market_config(seed: int):
    """The first panel drawn from the seed whose nonlinear share is at least
    AE_MIN_NONLINEAR_SHARE. The paper claims the autoencoder wins on non-Gaussian
    returns; on a nearly linear panel (a share near 2%) PCA can win, so such panels
    are not inputs of this workload. About one draw in four is passed over."""
    from arrkit.market_data import RegimeSpec, SyntheticMarketConfig

    for draw in range(1000):
        key = (WORKLOADS.index("ae-vs-pca"), draw)
        config = SyntheticMarketConfig(
            n_assets=AE_ASSETS, n_sessions=AE_SESSIONS, n_factors=2,
            regime_schedule=(RegimeSpec(0, AE_SESSIONS, 1.0, 0.4),),
            nonlinearity=0.8, intraday_amplitude=0.5,
            seed=int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0]),
        )
        if nonlinear_share(config) >= AE_MIN_NONLINEAR_SHARE:
            return config
    raise RuntimeError("no panel with enough nonlinear share in 1000 draws")


def run_ae_vs_pca(market, run_dir: str) -> tuple[dict, list]:
    """The reconstruction study of scripts/reconstruction_experiment.py, in memory.

    Each study step is one operation. Returns the objects the checks need and one
    (step, ok) pair per step; a step after a failed one is not run and counts as failed.
    The trained models and a summary are written last.
    """
    from arrkit import arr, autoencoder, market_data, pca, returns_metrics, serialization, stats

    train_end, val_end = AE_SPLITS
    latent, _ = autoencoder.ae_dims(AE_ASSETS)
    s: dict = {}

    def generate():
        s["panel"] = market_data.generate_synthetic_market(market)
        s["returns"] = returns_metrics.log_returns(s["panel"], 1)
        s["test"] = s["returns"].select_sessions(val_end, AE_SESSIONS)

    def search():
        s["search"] = autoencoder.random_search_ae(
            s["returns"].select_sessions(0, train_end),
            s["returns"].select_sessions(train_end, val_end),
            grid=AE_GRID, iterations=AE_ARMS, seed=AE_SEARCH_SEED, max_epochs=AE_EPOCHS,
        )

    def pca_fit():
        s["pca"] = pca.fit_pca(s["returns"].select_sessions(0, val_end).returns, latent)

    def reconstruct_autoencoder():
        s["ae_rec"] = autoencoder.reconstruct_series(s["search"].best_model, s["test"])

    def reconstruct_pca():
        s["pca_rec"] = arr.pca_reconstruction(s["pca"], s["test"])

    def bootstrap():
        s["boot"] = stats.paired_bootstrap(
            s["test"].returns.ravel(), s["ae_rec"].reconstructed.ravel(),
            s["pca_rec"].reconstructed.ravel(),
            metric="r2", n_resamples=500, seed=BOOTSTRAP_SEED,
        )

    ops: list = []
    for fn in (generate, search, pca_fit, reconstruct_autoencoder, reconstruct_pca, bootstrap):
        if ops and not ops[-1][1]:
            ops.append((fn.__name__, False))
            continue
        try:
            fn()
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            s.setdefault("errors", []).append(f"{fn.__name__}: {exc}")
            ops.append((fn.__name__, False))
        else:
            ops.append((fn.__name__, True))
    if not ops[-1][1]:
        return s, ops

    actual = s["test"].returns.ravel()
    s["summary"] = {
        "r2_autoencoder": stats.r_squared(actual, s["ae_rec"].reconstructed.ravel()),
        "r2_pca": stats.r_squared(actual, s["pca_rec"].reconstructed.ravel()),
        "observed_diff": s["boot"].observed_diff,
        "p_value": s["boot"].p_value,
        "p_string": s["boot"].p_string(),
        "arms": [
            {"arm": t.arm, "epochs": len(t.history), "val_loss": t.val_loss, "error": t.error}
            for t in s["search"].trials
        ],
    }
    os.makedirs(run_dir, exist_ok=True)
    serialization.save_autoencoder(s["search"].best_model, os.path.join(run_dir, "autoencoder.json"))
    serialization.save_pca(s["pca"], os.path.join(run_dir, "pca.json"))
    with open(os.path.join(run_dir, "study.json"), "w", encoding="utf-8") as fh:
        json.dump(s["summary"], fh, sort_keys=True, indent=1)
        fh.write("\n")
    return s, ops
