"""Model persistence: bit-exact round trips and loud failures on foreign files."""

import json

import numpy as np
import pytest

from arrkit.arr import ArrSeries
from arrkit.autoencoder import AeTrainConfig, reconstruct_series, train_autoencoder
from arrkit.pca import fit_pca, pca_reconstruct
from arrkit.pipeline import _write_arr_segments_csv, _write_kde_csv
from arrkit.returns_metrics import ReturnsPanel
from arrkit.serialization import (
    load_autoencoder,
    load_pca,
    save_autoencoder,
    save_pca,
    write_csv,
)
from arrkit.stats import KdeGrid


def _panels(seed=0, n=400):
    rng = np.random.default_rng(seed)
    factor = rng.normal(size=n) * 1e-4
    r = factor[:, None] * rng.uniform(0.5, 1.5, size=5) + rng.normal(size=(n, 5)) * 1e-6
    ids = tuple(f"A{i}" for i in range(5))
    return (
        ReturnsPanel(np.array([34200]), r[:300], ids),
        ReturnsPanel(np.array([34500]), r[300:], ids),
    )


def test_autoencoder_round_trip_preserves_predictions_bitwise(tmp_path):
    tr, va = _panels()
    model, _ = train_autoencoder(tr, va, AeTrainConfig(max_epochs=2), seed=0)
    path = tmp_path / "ae.json"
    save_autoencoder(model, path, metadata={"val_loss": 0.5, "note": "x"})
    loaded, meta = load_autoencoder(path)
    assert meta == {"val_loss": 0.5, "note": "x"}
    assert loaded.net.dims == model.net.dims
    assert loaded.asset_ids == model.asset_ids
    np.testing.assert_array_equal(loaded.mean, model.mean)
    np.testing.assert_array_equal(loaded.std, model.std)
    for (w0, b0), (w1, b1) in zip(model.params, loaded.params):
        np.testing.assert_array_equal(w0, w1)
        np.testing.assert_array_equal(b0, b1)
    np.testing.assert_array_equal(
        reconstruct_series(model, va).reconstructed,
        reconstruct_series(loaded, va).reconstructed,
    )


def test_pca_round_trip_preserves_reconstructions_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 6))
    model = fit_pca(x, n_components=2)
    path = tmp_path / "pca.json"
    save_pca(model, path)
    loaded, meta = load_pca(path)
    assert meta == {}
    assert loaded.n_components == 2
    np.testing.assert_array_equal(loaded.eigenvalues, model.eigenvalues)
    np.testing.assert_array_equal(loaded.eigenvectors, model.eigenvectors)
    np.testing.assert_array_equal(loaded.covariance, model.covariance)
    np.testing.assert_array_equal(pca_reconstruct(loaded, x), pca_reconstruct(model, x))


def test_loaders_reject_wrong_kind(tmp_path):
    rng = np.random.default_rng(2)
    model = fit_pca(rng.normal(size=(20, 4)), n_components=1)
    path = tmp_path / "pca.json"
    save_pca(model, path)
    with pytest.raises(ValueError, match="expected a autoencoder model file"):
        load_autoencoder(path)


def test_loaders_reject_future_versions(tmp_path):
    path = tmp_path / "future.json"
    path.write_text(json.dumps({"format_version": 99, "kind": "pca"}))
    with pytest.raises(ValueError, match="unsupported format version 99"):
        load_pca(path)


def test_loaders_reject_malformed_files(tmp_path):
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    with pytest.raises(ValueError, match="malformed model file"):
        load_pca(garbled)
    tagless = tmp_path / "tagless.json"
    tagless.write_text(json.dumps({"kind": "pca"}))
    with pytest.raises(ValueError, match="missing format_version"):
        load_pca(tagless)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="missing format_version"):
        load_pca(listy)


def test_files_are_deterministic_json(tmp_path):
    rng = np.random.default_rng(3)
    model = fit_pca(rng.normal(size=(30, 3)), n_components=1)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_pca(model, p1, metadata={"z": 1, "a": 2})
    save_pca(model, p2, metadata={"a": 2, "z": 1})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")


def test_csv_cells_are_empty_or_str(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c"), [(None, "x"), (0.1, np.float64(1 / 3)), (3, True)])
    text = path.read_text(encoding="utf-8")
    assert text == "a,b,c\n,0.1,3\nx,0.3333333333333333,True\n"
    assert float(text.split("\n")[2].split(",")[1]) == 1 / 3


def test_csv_columns_must_match_the_header_and_each_other(tmp_path):
    write_csv(tmp_path / "empty.csv", ("a", "b"), ([], []))
    assert (tmp_path / "empty.csv").read_text(encoding="utf-8") == "a,b\n"
    for columns in (([1, 2],), ([1, 2], [3])):
        with pytest.raises(ValueError, match="one column per header name"):
            write_csv(tmp_path / "bad.csv", ("a", "b"), columns)


def _row_writer(path, header, rows):
    """The row-form writer that came before the column form: the byte oracle."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(["" if v is None else str(v) for v in row]) + "\n")


def test_csv_arr_series_bytes_match_the_row_writer(tmp_path):
    series = ArrSeries(
        timestamps=np.array([34500, 34800, 121200], dtype=np.int64),
        values=np.array([0.25, 1 / 3, 5e-324]),
        interval=300,
        source="pca",
    )
    segments = np.array(["in_sample", "in_sample", "out_of_sample"])
    _write_arr_segments_csv(series, segments, tmp_path / "new.csv")
    rows = zip(series.timestamps.tolist(), series.values.tolist(), segments)
    _row_writer(tmp_path / "old.csv", ("timestamp", "arr", "segment"), rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_kde_grid_bytes_match_the_row_writer(tmp_path):
    x = np.array([-0.0, 5e-324, 1e-300, 1e16, -1.5])
    y = np.array([1e16, -0.0, 0.1, 5e-324])
    density = np.arange(20.0).reshape(5, 4) / 7.0
    density[1, 2], density[3, 0] = -0.0, 1e-300
    grid = KdeGrid(x, y, density, 0.5, 0.25)
    _write_kde_csv(grid, tmp_path / "new.csv")
    rows = (
        (xv, yv, d)
        for xv, densities in zip(x.tolist(), density.tolist())
        for yv, d in zip(y.tolist(), densities)
    )
    _row_writer(tmp_path / "old.csv", ("x", "y", "density"), rows)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert b"np.float64" not in new and new.count(b"\n") == 21


def test_csv_correlation_and_result_rows_bytes_match_the_row_writer(tmp_path):
    header = ("metric", "n", "spearman", "kde_file", "ok", "reason")
    records = [
        {"metric": "returns", "n": 78, "spearman": -0.0, "kde_file": "kde.csv", "ok": True,
         "reason": None},
        {"metric": "log_rv", "n": 9, "spearman": None, "kde_file": None, "ok": False,
         "reason": "fewer than 10 paired observations"},
        {"metric": "drawdown", "n": 624, "spearman": 0.1 + 0.2, "kde_file": None, "ok": True},
    ]
    write_csv(tmp_path / "new.csv", header, [[r.get(col) for r in records] for col in header])
    _row_writer(tmp_path / "old.csv", header, ([r.get(col) for col in header] for r in records))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
