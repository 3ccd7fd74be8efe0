"""End-to-end command-line runs: produced files, formats, determinism, errors."""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import shutil
import sys

import numpy as np
import pytest

import arrkit.pipeline
from arrkit.cli import main
from arrkit.config import RunConfig, SplitSpec, config_hash, data_hash, load_config, save_config
from arrkit.forecasting import chronological_folds
from arrkit.market_data import (
    CoMovementSpec,
    RegimeSpec,
    SyntheticMarketConfig,
    generate_synthetic_market,
    synthetic_calendar,
    write_tick_csv,
)

VERBS = ("generate", "train", "arr", "analyze", "forecast", "report")
FREQ_NAMES = ("5min", "1hour", "1day", "1week")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _full_config(out_dir, seed=7):
    synth = SyntheticMarketConfig(
        n_assets=6,
        n_sessions=16,
        n_factors=2,
        regime_schedule=(RegimeSpec(0, 16, 1.0, 0.5),),
        comovement=CoMovementSpec(share_innovation=0.6),
    )
    return RunConfig(
        data_source="synthetic",
        splits=SplitSpec((0, 8), (8, 12), (12, 16)),
        synthetic=synth,
        horizons=(300,),
        regression_families=("ridge",),
        classification_families=("logistic_l1",),
        ae_search_iterations=1,
        forecast_search_iterations=3,
        cv_folds=2,
        seed=seed,
        output_dir=out_dir,
    )


def _tiny_config(out_dir, seed=3):
    synth = SyntheticMarketConfig(
        n_assets=6,
        n_sessions=3,
        n_factors=1,
        regime_schedule=(RegimeSpec(0, 3, 1.0, 0.5),),
    )
    return RunConfig(
        data_source="synthetic",
        splits=SplitSpec((0, 1), (1, 2), (2, 3)),
        synthetic=synth,
        frequencies=(300, 3600, 23400),  # a 1-week window needs 5 sessions
        horizons=(300, 3600, 23400),
        seed=seed,
        output_dir=out_dir,
    )


def _save(cfg, directory, name="config.json"):
    path = os.path.join(directory, name)
    save_config(cfg, path)
    return path


def _read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _md5(path):
    with open(path, "rb") as fh:
        return hashlib.md5(fh.read()).hexdigest()


def _refuse_csv(*args, **kwargs):
    raise AssertionError("load_tick_csv called on a synthetic run")


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One full six-verb pipeline run shared by the assertion tests below. A synthetic
    run reads data/panel.npz, so the CSV loader fails if any verb calls it."""
    root = tmp_path_factory.mktemp("cli")
    out = str(root / "run")
    cfg = _full_config(out)
    cfg_path = _save(cfg, str(root))
    stdout = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arrkit.pipeline, "load_tick_csv", _refuse_csv)
        for verb in VERBS:
            rc, text, err = _run([verb, "--config", cfg_path])
            assert rc == 0, f"{verb} exited {rc}: {err}"
            stdout[verb] = text
    return {"out": out, "cfg": cfg, "cfg_path": cfg_path, "stdout": stdout}


# ---------------------------------------------------------------------------
# stage manifests


def test_every_stage_writes_a_manifest(run):
    hashes = set()
    for stage in ("data", "models", "arr", "analyze", "forecast", "report"):
        path = os.path.join(run["out"], stage, "manifest.json")
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["stage"] == stage
        assert manifest["seed"] == run["cfg"].seed
        assert manifest["outputs"] == sorted(manifest["outputs"])
        for name in manifest["outputs"]:
            assert os.path.exists(os.path.join(run["out"], stage, name)), name
        hashes.add(manifest["config_hash"])
    assert len(hashes) == 1  # every stage ran under the same settings


def test_stage_stdout_summaries(run):
    assert "generate:" in run["stdout"]["generate"]
    assert "rows x 6 assets" in run["stdout"]["generate"]
    assert "train: wrote" in run["stdout"]["train"]
    assert "arr: 10 series files" in run["stdout"]["arr"]
    assert "analyze:" in run["stdout"]["analyze"]
    assert "forecast:" in run["stdout"]["forecast"]
    assert "report:" in run["stdout"]["report"]


# ---------------------------------------------------------------------------
# generate


def test_generate_outputs(run):
    data_dir = os.path.join(run["out"], "data")
    with open(os.path.join(data_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["outputs"] == ["calendar.json", "panel.npz"]
    with np.load(os.path.join(data_dir, "panel.npz"), allow_pickle=False) as panel:
        assert sorted(panel.files) == ["asset_ids", "prices"]
        prices, asset_ids = panel["prices"], panel["asset_ids"].tolist()
    assert prices.dtype == np.float64
    assert prices.shape == (16 * 23400, 6)
    assert np.all(prices > 0)
    assert asset_ids == manifest["asset_ids"]
    with open(os.path.join(data_dir, "calendar.json"), "r", encoding="utf-8") as fh:
        calendar = json.load(fh)
    assert len(calendar["sessions"]) == 16
    assert manifest["n_assets"] == 6
    assert manifest["n_rows"] == 16 * 23400  # price grid rows per asset
    assert len(prices) == manifest["n_rows"]


def test_synthetic_run_reads_the_panel_file_not_a_csv(run, monkeypatch):
    # every verb of the shared run exited 0 with the CSV loader refusing (see `run`)
    monkeypatch.setattr(arrkit.pipeline, "load_tick_csv", _refuse_csv)
    panel, calendar = arrkit.pipeline.load_panel(run["cfg"], run["out"])
    expected = generate_synthetic_market(run["cfg"].synthetic)
    assert np.array_equal(panel.prices.view(np.uint64), expected.prices.view(np.uint64))
    assert np.array_equal(panel.timestamps, expected.timestamps)
    assert np.array_equal(panel.opens, expected.opens)
    assert np.array_equal(panel.opens, calendar.opens)
    assert panel.asset_ids == expected.asset_ids
    assert calendar.n_sessions == 16


# ---------------------------------------------------------------------------
# train


def test_train_outputs(run):
    models_dir = os.path.join(run["out"], "models")
    for name in ("autoencoder.json", "pca.json"):
        with open(os.path.join(models_dir, name), "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert "format_version" in payload

    trials = _read_lines(os.path.join(models_dir, "ae_trials.jsonl"))
    assert len(trials) == 1  # one search arm configured
    record = json.loads(trials[0])
    assert record["arm"] == 0
    assert "config" in record and "val_loss" in record
    # the learning curve: one train loss and one validation fit per epoch
    assert record["error"] is None
    assert len(record["train_loss"]) == len(record["val_fit"]) == record["epochs"] > 0
    assert record["val_loss"] == min(record["val_fit"])
    with open(os.path.join(models_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["ae_trials"] == 1 and manifest["ae_trials_diverged"] == 0


def test_ae_trials_log_keeps_learning_curves_and_errors(tmp_path):
    from arrkit.autoencoder import AeTrainConfig, AeTrial

    history = ({"epoch": 0, "train_loss": 0.9, "val_fit": 0.8}, {"epoch": 1, "train_loss": 0.7, "val_fit": 0.75})
    trials = (
        AeTrial(arm=0, config=AeTrainConfig(), history=history, val_loss=0.75),
        AeTrial(arm=1, config=AeTrainConfig(), error="training diverged: non-finite loss at epoch 0, step 3"),
    )
    path = str(tmp_path / "ae_trials.jsonl")
    arrkit.pipeline._ae_trials_jsonl(trials, path)
    ok, failed = (json.loads(line) for line in _read_lines(path))
    assert ok["train_loss"] == [0.9, 0.7] and ok["val_fit"] == [0.8, 0.75] and ok["epochs"] == 2
    assert failed["train_loss"] == [] and failed["val_fit"] == [] and failed["error"].startswith("training diverged")


# ---------------------------------------------------------------------------
# arr


def test_arr_outputs(run):
    arr_dir = os.path.join(run["out"], "arr")
    expected = set()
    for source in ("autoencoder", "pca"):
        expected.update(f"{source}_{freq}.csv" for freq in FREQ_NAMES)
        expected.add(f"{source}_5min_smoothed.csv")
    assert set(os.listdir(arr_dir)) == expected | {"manifest.json"}

    lines = _read_lines(os.path.join(arr_dir, "autoencoder_5min.csv"))
    assert lines[0] == "timestamp,arr,segment"
    assert len(lines) == 1 + 78 * 16  # 78 five-minute windows per session
    segments = {line.split(",")[2] for line in lines[1:]}
    assert segments == {"in_sample", "out_of_sample"}
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(v >= 0 for v in values)

    weekly = _read_lines(os.path.join(arr_dir, "pca_1week.csv"))
    assert len(weekly) == 1 + 12  # rolling weekly stamps on sessions 4..15


def test_arr_segment_boundary_matches_fit_range(run):
    lines = _read_lines(os.path.join(run["out"], "arr", "autoencoder_1day.csv"))[1:]
    assert len(lines) == 16
    segments = [line.split(",")[2] for line in lines]
    assert segments == ["in_sample"] * 12 + ["out_of_sample"] * 4


# ---------------------------------------------------------------------------
# analyze


def test_analyze_outputs(run):
    analyze_dir = os.path.join(run["out"], "analyze")
    lines = _read_lines(os.path.join(analyze_dir, "correlations.csv"))
    assert lines[0] == "metric,frequency,n,spearman,kde_file,status,reason"
    assert len(lines) == 1 + 12  # three metrics x four frequencies

    cells = [line.split(",") for line in lines[1:]]
    assert {c[0] for c in cells} == {"returns", "log_rv", "drawdown"}
    assert {c[1] for c in cells} == set(FREQ_NAMES)
    for cell in cells:
        if cell[5] != "ok":
            continue
        assert abs(float(cell[3])) <= 1.0
        kde = _read_lines(os.path.join(analyze_dir, cell[4]))
        assert kde[0] == "x,y,density"
        assert all(float(line.split(",")[2]) >= 0 for line in kde[1:])
    assert any(cell[5] == "ok" for cell in cells)


# ---------------------------------------------------------------------------
# forecast


def test_analyze_runs_its_kde_on_one_blas_thread(run, tmp_path, monkeypatch):
    """Every KDE of the analyze stage runs with OpenBLAS on one thread, so its files do
    not depend on the thread count (see test_stats); the count is given back after."""
    from arrkit import search

    if not search._openblas():
        pytest.skip("no OpenBLAS thread-count setter found in this process")

    def threads():
        return [get() for get, _ in search._openblas()]

    def kde2d(x, y):
        during.append(threads())
        return real(x, y)

    out = tmp_path / "run"
    for stage in ("data", "arr"):
        shutil.copytree(os.path.join(run["out"], stage), out / stage)
    during, real, before = [], arrkit.pipeline.kde2d, threads()
    monkeypatch.setattr(arrkit.pipeline, "kde2d", kde2d)
    arrkit.pipeline.cmd_analyze(run["cfg"], str(out))
    assert during and during == [[1] * len(before)] * len(during)
    assert threads() == before
    for name in os.listdir(out / "analyze"):
        if name != "manifest.json":
            assert _md5(out / "analyze" / name) == _md5(os.path.join(run["out"], "analyze", name))


def test_forecast_outputs(run):
    forecast_dir = os.path.join(run["out"], "forecast")
    lines = _read_lines(os.path.join(forecast_dir, "results.csv"))
    assert lines[0] == (
        "horizon,task,family,metric,n_train,n_test,score_with_arr,"
        "score_without_arr,observed_diff,p_value,p_string,status,reason"
    )
    with open(os.path.join(forecast_dir, "results.json"), "r", encoding="utf-8") as fh:
        cells = json.load(fh)["cells"]
    assert len(cells) == len(lines) - 1 == 2  # one horizon x (ridge + logistic_l1)

    by_task = {cell["task"]: cell for cell in cells}
    assert set(by_task) == {"regression", "classification"}
    assert by_task["regression"]["family"] == "ridge"
    assert by_task["classification"]["family"] == "logistic_l1"
    for cell in cells:
        assert cell["horizon"] == "5min"
        if cell["status"] == "ok":
            assert cell["metric"] in ("r2", "auroc")
            assert 0.0 <= cell["p_value"] <= 1.0
            assert cell["n_train"] > 0 and cell["n_test"] > 0
        else:
            assert cell["reason"]


def test_forecast_does_not_depend_on_the_worker_count(run, tmp_path):
    """Forecast cells run in process and on two or three worker processes give
    byte-equal results.json; two horizons make four cells, so each of three workers
    gets one."""
    import shutil

    cfg = dataclasses.replace(run["cfg"], horizons=(300, 3600))
    for stage in ("data", "arr"):
        shutil.copytree(os.path.join(run["out"], stage), os.path.join(tmp_path, stage))
    results = {}
    for workers in (1, 2, 3):
        manifest = arrkit.pipeline.cmd_forecast(cfg, str(tmp_path), threads=workers)
        assert manifest["n_cells"] == 4
        with open(os.path.join(tmp_path, "forecast", "results.json"), "rb") as fh:
            results[workers] = fh.read()
    assert results[1] == results[2] == results[3]


# ---------------------------------------------------------------------------
# report


def test_report_outputs(run):
    path = os.path.join(run["out"], "report", "report.json")
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    assert set(report["stages"]) == {"data", "models", "arr", "analyze", "forecast"}
    for manifest in report["stages"].values():
        assert "generated_at" not in manifest  # the one volatile field is stripped
    block = report["reconstruction"]
    assert block["status"] == "ok"
    assert 0.0 <= block["p_value"] <= 1.0
    # whole seconds: 4 test sessions of 23,399 one-second rows, and 45**3 < 93,596 <= 46**3
    assert block["n_resamples"] == 500 and block["block_length"] == 46
    assert -1.0 < block["r2_autoencoder"] <= 1.0
    assert -1.0 < block["r2_pca"] <= 1.0
    assert set(report["forecast"]) == {"regression", "classification"}
    assert report["config_hash"] == report["stages"]["data"]["config_hash"]


# ---------------------------------------------------------------------------
# determinism and overrides


def test_generate_is_deterministic_and_seed_sensitive(tmp_path):
    cfg_a = _tiny_config(str(tmp_path / "a"))
    path_a = _save(cfg_a, str(tmp_path), "a.json")
    assert _run(["generate", "--config", path_a])[0] == 0

    # Same config, fresh directory via --out: byte-identical data.
    rc, _, _ = _run(["generate", "--config", path_a, "--out", str(tmp_path / "b")])
    assert rc == 0
    panel_a = _md5(str(tmp_path / "a" / "data" / "panel.npz"))
    panel_b = _md5(str(tmp_path / "b" / "data" / "panel.npz"))
    assert panel_a == panel_b

    # --seed overrides the run seed (training, searches, bootstraps); the panel
    # noise is governed by the synthetic block's own seed and stays put.
    rc, _, _ = _run([
        "generate", "--config", path_a, "--out", str(tmp_path / "c"), "--seed", "99",
    ])
    assert rc == 0
    assert _md5(str(tmp_path / "c" / "data" / "panel.npz")) == panel_a

    cfg_d = _tiny_config(str(tmp_path / "d"))
    cfg_d = dataclasses.replace(
        cfg_d, synthetic=dataclasses.replace(cfg_d.synthetic, seed=99)
    )
    path_d = _save(cfg_d, str(tmp_path), "d.json")
    assert _run(["generate", "--config", path_d])[0] == 0
    assert _md5(str(tmp_path / "d" / "data" / "panel.npz")) != panel_a


def test_damaged_panel_file_is_reported(tmp_path):
    cfg_path = _save(_tiny_config(str(tmp_path / "run")), str(tmp_path))
    assert _run(["generate", "--config", cfg_path])[0] == 0
    path = tmp_path / "run" / "data" / "panel.npz"
    path.write_bytes(path.read_bytes()[:1000])  # truncated mid-file
    rc, _, err = _run(["train", "--config", cfg_path])
    assert rc == 1
    error = _error_payload(err)
    assert error["type"] == "StageError"
    assert "panel.npz" in error["message"]

    os.remove(path)
    rc, _, err = _run(["train", "--config", cfg_path])
    assert rc == 1
    error = _error_payload(err)
    assert error["message"] == "cmd_generate outputs missing"
    assert error["details"]["missing"] == [str(path)]


def test_panel_rows_that_do_not_match_the_calendar_are_reported(tmp_path):
    cfg_path = _save(_tiny_config(str(tmp_path / "run")), str(tmp_path))
    assert _run(["generate", "--config", cfg_path])[0] == 0
    path = tmp_path / "run" / "data" / "panel.npz"
    calendar = tmp_path / "run" / "data" / "calendar.json"
    with np.load(path, allow_pickle=False) as data:
        prices, asset_ids = data["prices"], data["asset_ids"]
    # one row short, and one row short of each of the 3 sessions: the second still
    # splits into 3 equal blocks, so only the calendar can tell it is wrong
    for rows in (3 * 23400 - 1, 3 * 23399):
        np.savez(path, prices=prices[:rows], asset_ids=asset_ids)
        rc, out, err = _run(["train", "--config", cfg_path])
        assert rc == 1 and out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        assert _error_payload(err) == {
            "type": "StageError",
            "message": f"malformed {path}: prices of shape ({rows}, 6) for the 3 sessions "
                       f"of {calendar}",
        }


def test_panel_from_another_synthetic_config_is_refused(tmp_path):
    run_dir = str(tmp_path / "run")
    cfg = _tiny_config(run_dir)
    cfg = dataclasses.replace(cfg, synthetic=dataclasses.replace(cfg.synthetic, seed=0))
    assert _run(["generate", "--config", _save(cfg, str(tmp_path))])[0] == 0
    # a run seed override keeps the data config, so the panel is still the right one
    ticks, _ = arrkit.pipeline.load_panel(dataclasses.replace(cfg, seed=11), run_dir)
    assert ticks.n_rows == 3 * 23400

    other = dataclasses.replace(cfg, synthetic=dataclasses.replace(cfg.synthetic, seed=99))
    rc, out, err = _run(["train", "--config", _save(other, str(tmp_path), "other.json")])
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1
    error = _error_payload(err)
    assert error["type"] == "StageError"
    assert "different data config" in error["message"]
    with open(os.path.join(run_dir, "data", "manifest.json"), encoding="utf-8") as fh:
        assert error["details"]["found"] == json.load(fh)["data_hash"]
    assert error["details"]["expected"] != error["details"]["found"]


# ---------------------------------------------------------------------------
# CSV source


def _csv_config(synthetic_cfg, ticks_path, out_dir):
    """A "csv" config over the dates of a synthetic config, with its other settings."""
    dates = [d.isoformat() for d in synthetic_calendar(synthetic_cfg.synthetic).dates()]
    return dataclasses.replace(
        synthetic_cfg, data_source="csv", synthetic=None, csv_path=str(ticks_path),
        csv_dates=tuple(dates), output_dir=out_dir,
    )


@pytest.fixture(scope="module")
def csv_run(tmp_path_factory):
    """generate, train and arr on a 2-asset synthetic panel, then on the same panel
    written to a tick file and read through a "csv" config, counting CSV loads."""
    root = tmp_path_factory.mktemp("csv")
    synthetic = _tiny_config(str(root / "synthetic"))
    synthetic = dataclasses.replace(
        synthetic, models="pca", synthetic=dataclasses.replace(synthetic.synthetic, n_assets=2)
    )
    write_tick_csv(generate_synthetic_market(synthetic.synthetic), root / "ticks.csv")
    csv = _csv_config(synthetic, root / "ticks.csv", str(root / "csv"))
    paths = {"synthetic": _save(synthetic, str(root), "synthetic.json"),
             "csv": _save(csv, str(root), "csv.json")}
    calls, loads = [], {}
    real = arrkit.pipeline.load_tick_csv
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arrkit.pipeline, "load_tick_csv",
                   lambda path, calendar: calls.append(path) or real(path, calendar))
        for source in ("synthetic", "csv"):
            for verb in ("generate", "train", "arr"):
                before = len(calls)
                rc, _, err = _run([verb, "--config", paths[source]])
                assert rc == 0, f"{source} {verb} exited {rc}: {err}"
                loads[source, verb] = len(calls) - before
    return {"root": root, "synthetic": synthetic, "csv": csv, "paths": paths, "loads": loads}


def test_csv_source_is_ingested_once_by_generate(csv_run):
    assert csv_run["loads"] == {
        ("synthetic", "generate"): 0, ("synthetic", "train"): 0, ("synthetic", "arr"): 0,
        ("csv", "generate"): 1, ("csv", "train"): 0, ("csv", "arr"): 0,
    }


def test_csv_source_gives_the_synthetic_source_artifacts(csv_run):
    synthetic, csv = csv_run["root"] / "synthetic", csv_run["root"] / "csv"
    with np.load(csv / "data" / "panel.npz", allow_pickle=False) as panel:
        prices = panel["prices"]
    expected = generate_synthetic_market(csv_run["synthetic"].synthetic).prices
    assert np.array_equal(prices.view(np.uint64), expected.view(np.uint64))
    names = ["data/panel.npz", "data/calendar.json", "models/pca.json"]
    names += sorted(f"arr/{p.name}" for p in (synthetic / "arr").glob("pca_*.csv"))
    assert len(names) == 3 + 4  # three frequencies plus the smoothed 5-minute series
    for name in names:
        assert (csv / name).read_bytes() == (synthetic / name).read_bytes(), name


def test_csv_train_without_generate_is_refused(csv_run, tmp_path):
    rc, out, err = _run(["train", "--config", csv_run["paths"]["csv"], "--out", str(tmp_path)])
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert _error_payload(err)["message"] == "cmd_generate outputs missing"


def test_csv_dates_edited_after_generate_are_refused(csv_run):
    edited = dataclasses.replace(
        csv_run["csv"], csv_dates=csv_run["csv"].csv_dates + ("2012-01-05",)
    )
    rc, out, err = _run(["train", "--config", _save(edited, str(csv_run["root"]), "edited.json")])
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1
    error = _error_payload(err)
    assert error["type"] == "StageError"
    assert "different data config" in error["message"]


@pytest.mark.parametrize("lines, message", [
    (["time,asset,price", "1325496600,A01,100.0"],
     "malformed header: expected timestamp,asset_id,price"),
    (["timestamp,asset_id,price", "1325496600,A01,100.0", "1325496601,A01"],
     "malformed row at line 3: ['1325496601', 'A01']"),
    (["timestamp,asset_id,price", "yesterday,A01,100.0"],
     "malformed row at line 2: unparseable timestamp 'yesterday'"),
    (["timestamp,asset_id,price", "1325496600,A01,100.0", "1325496601,A01,-2.5"],
     "non-positive price at line 3"),
    (["timestamp,asset_id,price", "1325462400,A01,100.0"],  # midnight, before the open
     "no usable rows in CSV"),
])
def test_bad_tick_file_ends_generate_with_one_json_line(tmp_path, lines, message):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = _csv_config(_tiny_config(str(tmp_path / "run")), ticks, str(tmp_path / "run"))
    rc, out, err = _run(["generate", "--config", _save(cfg, str(tmp_path))])
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert _error_payload(err) == {"type": "ValueError", "message": message}
    assert not os.path.exists(tmp_path / "run" / "data")  # no partial data stage


# ---------------------------------------------------------------------------
# errors


def _error_payload(err_text):
    payload = json.loads(err_text)
    return payload["error"]


def test_report_without_prior_stages_lists_every_missing_verb(tmp_path):
    cfg_path = _save(_tiny_config(str(tmp_path / "empty")), str(tmp_path))
    rc, _, err = _run(["report", "--config", cfg_path])
    assert rc == 1
    error = _error_payload(err)
    assert error["type"] == "StageError"
    assert error["details"]["missing"] == [
        f"cmd_{verb} outputs missing"
        for verb in ("generate", "train", "arr", "analyze", "forecast")
    ]
    # a CSV source has the same data stage
    csv = _csv_config(_tiny_config(str(tmp_path / "empty")), tmp_path / "ticks.csv",
                      str(tmp_path / "empty"))
    rc, _, err = _run(["report", "--config", _save(csv, str(tmp_path), "csv.json")])
    assert rc == 1
    assert _error_payload(err)["details"]["missing"][0] == "cmd_generate outputs missing"


def test_malformed_config_is_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    rc, _, err = _run(["arr", "--config", str(path)])
    assert rc == 1
    assert "malformed config" in _error_payload(err)["message"]


def test_threads_must_be_positive(tmp_path):
    cfg_path = _save(_tiny_config(str(tmp_path / "t")), str(tmp_path))
    rc, _, err = _run(["forecast", "--config", cfg_path, "--threads", "0"])
    assert rc == 1
    error = _error_payload(err)
    assert error["type"] == "ValueError"
    assert error["message"] == "--threads must be at least 1"


def test_stage_run_before_its_inputs_exist_fails_cleanly(tmp_path):
    cfg_path = _save(_tiny_config(str(tmp_path / "x")), str(tmp_path))
    rc, _, err = _run(["arr", "--config", cfg_path])
    assert rc == 1
    assert _error_payload(err)["message"]


# ---------------------------------------------------------------------------
# config parsing: pinned hashes and malformed shapes

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (config_hash, data_hash) of every config the tests, scripts and benchmark run; a
# change to config parsing must leave each of them as it is
PINNED_HASHES = {
    "cli_full": ("0501f5c55c72615a9b526e8a3ac07a9ace28e19297a1f330aba203c0eb0509d3",
                 "0cc191bb049fb859f2df7889fb2ce9a6728b280630a31bdf7a6e078b5766546c"),
    "cli_tiny": ("9418498840fa69e36fa48a3ae3c366b5633bea345f1a5140660bf0c2b306e0b5",
                 "b33ade3ce11eb662308ff2f3bd316c22183e875c1cbef2858f52ea6e1afcc310"),
    "cli_csv": ("08f1293c5dcbfc1960db2ee52c96cc48d8729ca8efa3b01ddcdf84ca9432dfd0",
                "f4b6d0f5f16d0b2f06097c6c46d86950418689f9d9fabe427d199421bf0e5b16"),
    "gate8": ("ee7b49ff5554f9d4dad74c57675f7567cb8e7714819841fd53311531310bf13a",
              "d3e5ff9300bc8ad8988650b9ecb796343f996050a9147369802923777066e1fd"),
    "quick_start": ("52a1517ee1ea9e88790c27c40ada014c6131792f8d0ab28a5190e2e32cd9f7b4",
                    "c283d6ab8df3ab507640f5027d2a63c998c986fd77accccb338b952e0694899a"),
    "bench_synthetic": ("fa5811553a3461f1a11eea6e45b4b5364b46453bdce0c3b3b2753c053fa3c794",
                        "7f0576baba1cb793f3eb78977a3b16655dcbaceafa593ce233887b3b8ca7f88e"),
    "bench_csv": ("e43f05f029257791b8f7c4ffeabcc7a328bb9a2be8622af872fd8c0de4ab9a14",
                  "0b17a6ac26cbb1d6b1fd1783bc50b4d722539f36c3a94024389e20bd3d9d2341"),
}


def _module_from_file(monkeypatch, *parts):
    path = os.path.join(REPO, *parts)
    spec = importlib.util.spec_from_file_location(os.path.splitext(parts[-1])[0], path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_scripts_run_on_tiny_arguments(monkeypatch):
    """Both study scripts build panels and reconstructions through the package API; each
    runs to exit code 0, and the duality demo's gap stays at rounding level."""
    demo = _module_from_file(monkeypatch, "scripts", "arr_duality_demo.py")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert demo.main(["--assets", "4", "--seed", "3"]) == 0
    rows = out.getvalue().splitlines()[1:]
    assert len(rows) == 4
    assert all(float(row.split()[-1]) < 1e-12 for row in rows)

    study = _module_from_file(monkeypatch, "scripts", "reconstruction_experiment.py")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert study.main(["--assets", "5", "--sessions", "5", "--iterations", "1",
                           "--max-epochs", "1"]) == 0
    assert "paired bootstrap (autoencoder > pca)" in out.getvalue()


def test_pinned_configs_keep_their_hashes(tmp_path, monkeypatch):
    from test_acceptance import _pipeline_config

    quick_start = _module_from_file(monkeypatch, "scripts", "run_pipeline.py")
    workloads = _module_from_file(monkeypatch, "benchmark", "workloads.py")
    configs = {
        "cli_full": _full_config("run"),
        "cli_tiny": _tiny_config("run"),
        "cli_csv": _csv_config(_tiny_config("run"), "ticks.csv", "run"),
        "gate8": _pipeline_config("run"),
        "quick_start": quick_start.default_config("runs/demo", 7),
        "bench_synthetic": workloads.synthetic_config(0, "run"),
        "bench_csv": workloads.csv_config("ticks.csv", "run"),
    }
    for name, cfg in configs.items():
        parsed = load_config(_save(cfg, str(tmp_path), f"{name}.json"))
        assert parsed == cfg, name
        assert (config_hash(parsed), data_hash(parsed)) == PINNED_HASHES[name], name


def test_quick_start_classification_folds_hold_both_classes(tmp_path, monkeypatch):
    """No quick-start classification cell can fail for want of a crash: both sides of
    every CV fold, and the test split, hold both classes. The ratio's stamps do not depend
    on the model that reconstructs the returns, so PCA stands in for the autoencoder."""
    quick_start = _module_from_file(monkeypatch, "scripts", "run_pipeline.py")
    out = str(tmp_path)
    cfg = dataclasses.replace(quick_start.default_config(out, 7), models="pca")
    arrkit.pipeline.cmd_generate(cfg, out)
    arrkit.pipeline.cmd_train(cfg, out, threads=1)
    arrkit.pipeline.cmd_arr(cfg, out)
    ticks, calendar = arrkit.pipeline.load_panel(cfg, out)
    tasks = [t for t in arrkit.pipeline._forecast_tasks(cfg, ticks, calendar, out)
             if t[1] == "classification"]
    assert {t[0] for t in tasks} == set(cfg.horizons)
    for horizon, _, _, splits, _, folds, _, _ in tasks:
        assert not isinstance(splits, str), splits
        train, test = splits[True]
        assert set(test.target) == {0, 1}, horizon
        for block in chronological_folds(len(train), folds):
            assert set(np.delete(train.target, block)) == {0, 1}, (horizon, block[0])
            assert set(train.target[block]) == {0, 1}, (horizon, block[0])


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["data"].pop("synthetic"), "config missing required field: data.synthetic"),
    (lambda d: d["data"]["synthetic"].pop("n_assets"),
     "config missing required field: data.synthetic.n_assets"),
    (lambda d: d["splits"].pop("test"), "config missing required field: splits.test"),
    (lambda d: d["data"]["synthetic"]["comovement"].update(share=0.5),
     "unknown config field: data.synthetic.comovement.share"),
    (lambda d: d["data"]["synthetic"].update(regimes=[[0, 16, 1.0]]),
     "data.synthetic.regimes rows must be "
     "[start, stop, factor_loading_scale, idiosyncratic_vol]"),
    (lambda d: d.update(data="synthetic"), "config field data must be a JSON object"),
    (lambda d: d.update(search=[5]), "config field search must be a JSON object"),
    (lambda d: d.update(frequencies=300), "malformed config: 'int' object is not iterable"),
    (lambda d: d["data"].update(csv_path="ticks.csv"), "unknown config field: data.csv_path"),
    (lambda d: d.update(horizon=[300]), "unknown config field: horizon"),
    (lambda d: d["search"].update(forecast_iteration=5),
     "unknown config field: search.forecast_iteration"),
], ids=["no-synthetic", "no-n_assets", "no-test-split", "comovement-key", "regime-row",
        "string-data", "list-search", "number-frequencies", "csv-key-on-synthetic",
        "horizon", "forecast_iteration"])
def test_malformed_config_ends_in_one_json_line(tmp_path, edit, message):
    cfg_path = _save(_full_config(str(tmp_path / "run")), str(tmp_path))
    with open(cfg_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    rc, out, err = _run(["generate", "--config", cfg_path])
    assert rc == 1 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert _error_payload(err) == {"type": "ValueError", "message": message}
    assert not os.path.exists(tmp_path / "run")
