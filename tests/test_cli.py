"""End-to-end command-line runs: produced files, formats, determinism, errors."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os

import numpy as np
import pytest

import arrkit.pipeline
from arrkit.cli import main
from arrkit.config import RunConfig, SplitSpec, save_config
from arrkit.market_data import (
    CoMovementSpec,
    RegimeSpec,
    SyntheticMarketConfig,
    generate_synthetic_market,
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
    assert np.array_equal(panel.session_index, expected.session_index)
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
