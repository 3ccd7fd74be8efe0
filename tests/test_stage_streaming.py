"""The arr, analyze and forecast stages stream the panel one session at a time through
five-minute sums: the same bytes as the whole-panel path, and memory flat in sessions."""

import os
import subprocess
import sys

import numpy as np
import pytest

import arrkit.pipeline
from arrkit.config import RunConfig, SplitSpec, save_config
from arrkit.market_data import (
    FIVE_MIN,
    ONE_DAY,
    ONE_HOUR,
    ONE_WEEK,
    SESSION_SECONDS,
    TickPanel,
    generate_synthetic_market,
)
from arrkit.returns_metrics import RiskSeries, log_returns, realized_variance

from conftest import comovement_config, traced_peak, whole_panel_window_sums

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def _whole_panel_market_series(ticks, freq):
    """Oracle: the market's windowed returns and log RV from its whole one-second column,
    as the analyze and forecast stages built them before they streamed."""
    base = log_returns(TickPanel(ticks.opens, ticks.prices[:, :1], ticks.asset_ids[:1]), 1)
    stamps, sums = whole_panel_window_sums(base.returns, base.opens, freq)
    returns = RiskSeries(stamps, sums[:, 0], "return")
    col = base.returns[:, 0]
    stamps, rv = whole_panel_window_sums(col * col, base.opens, freq)
    keep = rv > 0.0
    return returns, RiskSeries(stamps[keep], np.log(rv[keep]), "log_rv")


@pytest.mark.parametrize("composite", [False, True], ids=["plain", "composite"])
def test_market_base_matches_the_whole_panel_oracle_bitwise(composite):
    ticks = generate_synthetic_market(
        comovement_config(n_assets=4, n_sessions=6, seed=21, market_composite=composite)
    )
    ret_fives, sq_fives = arrkit.pipeline._market_base(ticks)
    for freq in (FIVE_MIN, ONE_HOUR, ONE_DAY, ONE_WEEK):
        want_returns, want_rv = _whole_panel_market_series(ticks, freq)
        got_returns = arrkit.pipeline._market_returns(ret_fives, ticks.opens, freq)
        got_rv = realized_variance(sq_fives, ticks.opens, freq)
        for got, want in ((got_returns, want_returns), (got_rv, want_rv)):
            assert np.array_equal(got.timestamps, want.timestamps)
            assert got.values.tobytes() == want.values.tobytes()


def _stage_config(out_dir, n_sessions, models="pca", composite=False, **kwargs):
    synth = comovement_config(n_assets=8 if models == "pca" else 6, n_sessions=n_sessions,
                              seed=n_sessions, market_composite=composite)
    n = n_sessions  # the last two sessions are the test split, the one before validation
    defaults = dict(
        data_source="synthetic",
        splits=SplitSpec((0, n - 3), (n - 3, n - 2), (n - 2, n)),
        synthetic=synth, models=models, horizons=(FIVE_MIN,),
        regression_families=("ridge",), classification_families=("logistic_l1",),
        ae_search_iterations=1, forecast_search_iterations=2, cv_folds=2, seed=5,
        output_dir=out_dir,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


_OLD_ARR = """
import json, os, sys
import numpy as np
from arrkit.arr import ArrSeries, pca_reconstruction, smooth_arr
from arrkit.autoencoder import reconstruct_series
from arrkit.config import load_config
from arrkit.market_data import TickPanel
from arrkit import pipeline
from arrkit.returns_metrics import log_returns
from arrkit.serialization import load_autoencoder, load_pca
from conftest import whole_panel_ratio

cfg, out_dir, oracle_dir = load_config(sys.argv[1]), sys.argv[2], sys.argv[3]
pipeline.cmd_arr(cfg, out_dir)
# the whole-panel path: every sector return in memory (column 0 is the market
# composite), one reconstruction per source
ticks, calendar = pipeline.load_panel(cfg, out_dir)
returns = log_returns(TickPanel(ticks.opens, ticks.prices[:, 1:], ticks.asset_ids[1:]), 1)
fit_end = cfg.splits.fit_range[1]
os.makedirs(oracle_dir)
names = []
for source in ("autoencoder", "pca"):
    if source == "autoencoder":
        model, _ = load_autoencoder(os.path.join(out_dir, "models", "autoencoder.json"))
        recon = reconstruct_series(model, returns)
    else:
        model, _ = load_pca(os.path.join(out_dir, "models", "pca.json"))
        recon = pca_reconstruction(model, returns)
    for freq in cfg.frequencies:
        stamps, num, den = whole_panel_ratio(recon, freq)
        series = ArrSeries(stamps, num / den, freq, source, num, den)
        todo = [(series, pipeline.arr_file_name(source, freq))]
        if freq == 300:
            smoothed = smooth_arr(series, cfg.smooth_half_life_days)
            todo.append((smoothed, pipeline.arr_file_name(source, freq, smoothed=True)))
        for s, name in todo:
            sess = pipeline._session_of(s.timestamps, calendar)
            segments = np.where(sess < fit_end, "in_sample", "out_of_sample")
            pipeline._write_arr_segments_csv(s, segments, os.path.join(oracle_dir, name))
            names.append(name)
differ = [n for n in names if open(os.path.join(out_dir, "arr", n), "rb").read()
          != open(os.path.join(oracle_dir, n), "rb").read()]
print(json.dumps({"files": len(names), "differ": differ}))
"""


def test_arr_files_equal_the_whole_panel_path_under_one_and_two_blas_threads(tmp_path):
    """cmd_arr on a both-models config with a market composite writes the same ratio CSVs
    as the whole-panel path it replaced, with OpenBLAS on one thread and on two."""
    from arrkit.search import _openblas

    out = str(tmp_path / "run")
    cfg = _stage_config(out, 6, models="both", composite=True)
    cfg_path = str(tmp_path / "config.json")
    save_config(cfg, cfg_path)
    arrkit.pipeline.cmd_generate(cfg, out)
    arrkit.pipeline.cmd_train(cfg, out, threads=1)
    thread_counts = ("1", "2") if _openblas() else ("1",)  # no setter: 2 may not take
    for threads in thread_counts:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, TESTS, env.get("PYTHONPATH")]))
        oracle_dir = str(tmp_path / f"oracle_{threads}")
        done = subprocess.run([sys.executable, "-c", _OLD_ARR, cfg_path, out, oracle_dir],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == '{"files": 10, "differ": []}', threads


@pytest.mark.parametrize(
    "stage,sessions",
    [("arr", (4, 16)), ("forecast", (8, 20))],
)
def test_stage_memory_beyond_its_prices_is_flat_in_sessions(tmp_path, stage, sessions):
    """The stage's traced peak, less its loaded prices, grows by less than one session of
    prices from the smaller panel to the larger. The forecast stage needs the 1-week
    frequency and a full week before its first training row, so it starts at 8 sessions."""
    extra = []
    for n in sessions:
        out = str(tmp_path / f"s{n}")
        freqs = dict(frequencies=(FIVE_MIN, ONE_HOUR, ONE_DAY)) if n < 5 else {}
        cfg = _stage_config(out, n, **freqs)
        arrkit.pipeline.cmd_generate(cfg, out)
        arrkit.pipeline.cmd_train(cfg, out, threads=1)
        if stage == "arr":
            run = lambda: arrkit.pipeline.cmd_arr(cfg, out)  # noqa: E731
        else:
            arrkit.pipeline.cmd_arr(cfg, out)
            run = lambda: arrkit.pipeline.cmd_forecast(cfg, out, threads=1)  # noqa: E731
        _, peak = traced_peak(run)
        extra.append(peak - n * SESSION_SECONDS * cfg.synthetic.n_assets * 8)
    session_bytes = SESSION_SECONDS * cfg.synthetic.n_assets * 8
    assert abs(extra[1] - extra[0]) < session_bytes, (extra, session_bytes)
