"""Output checks, each against a computation made apart from arrkit.

Every checker raises CheckFailed with a one-line reason, or returns None. None of them
compares against a stored copy of an earlier run's output: they recompute from the
panel and the model files with plain numpy, or test a property the method must have.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

SESSION = 23400
FIVE_MIN, ONE_HOUR = 300, 3600


class CheckFailed(AssertionError):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rel_err(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.abs(b), np.finfo(float).tiny)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


# ---------------------------------------------------------------------------
# panels and returns


def check_panel(prices: np.ndarray, expected: np.ndarray, what: str) -> None:
    """Bitwise equality of two price grids."""
    require(prices.shape == expected.shape, f"{what}: shape {prices.shape} != {expected.shape}")
    diff = np.flatnonzero(prices.ravel().view(np.uint64) != expected.ravel().view(np.uint64))
    require(diff.size == 0, f"{what}: {diff.size} prices differ, first at flat index "
                            f"{diff[:1].tolist()}")


class Returns:
    """Per-second log returns inside each session, computed from a price grid."""

    def __init__(self, timestamps: np.ndarray, prices: np.ndarray, n_sessions: int):
        require(len(prices) == n_sessions * SESSION, "panel is not a full per-second grid")
        logp = np.log(prices).reshape(n_sessions, SESSION, -1)
        stamps = np.asarray(timestamps).reshape(n_sessions, SESSION)
        self.n_sessions = n_sessions
        self.opens = stamps[:, 0]
        self.by_session = np.diff(logp, axis=1)  # [S, SESSION-1, N]; offsets 1..SESSION-1
        require(np.all(np.diff(stamps, axis=1) == 1), "panel stamps are not 1 s apart")

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return self.by_session[lo:hi].reshape(-1, self.by_session.shape[2])

    def stamps(self, lo: int, hi: int) -> np.ndarray:
        return (self.opens[lo:hi, None] + np.arange(1, SESSION)).ravel()


# ---------------------------------------------------------------------------
# PCA


def check_pca(pca_json: str, fit_rows: np.ndarray) -> None:
    """pca.json against numpy.linalg.eigh of the fit-window sample covariance."""
    with open(pca_json, "r", encoding="utf-8") as fh:
        model = json.load(fh)
    k = int(model["n_components"])
    mean = fit_rows.mean(axis=0)
    centered = fit_rows - mean
    cov = centered.T @ centered / (len(fit_rows) - 1)
    w_ref, v_ref = np.linalg.eigh((cov + cov.T) / 2.0)
    w_ref, v_ref = w_ref[::-1], v_ref[:, ::-1]
    w = np.array(model["eigenvalues"])
    v = np.array(model["eigenvectors"])
    scale = float(np.max(np.abs(w_ref)))
    err_w = float(np.max(np.abs(w - w_ref))) / scale
    require(err_w <= 1e-10, f"eigenvalues differ from eigh by {err_w:.3g} relative")
    proj = v[:, :k] @ v[:, :k].T
    proj_ref = v_ref[:, :k] @ v_ref[:, :k].T
    err_p = float(np.max(np.abs(proj - proj_ref)))
    require(err_p <= 1e-10, f"kept subspace differs from eigh by {err_p:.3g}")
    err_o = float(np.max(np.abs(v.T @ v - np.eye(len(w)))))
    require(err_o <= 1e-12, f"components not orthonormal ({err_o:.3g})")
    require(_rel_err(model["mean"], mean) <= 1e-12, "fit-window mean differs")


def pca_reconstruct(pca_json: str, rows: np.ndarray) -> np.ndarray:
    with open(pca_json, "r", encoding="utf-8") as fh:
        model = json.load(fh)
    mean = np.array(model["mean"])
    vk = np.array(model["eigenvectors"])[:, : int(model["n_components"])]
    return mean + ((rows - mean) @ vk) @ vk.T


# ---------------------------------------------------------------------------
# reconstruction-ratio series


def read_ratio_csv(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        require(header == "timestamp,arr,segment", f"{os.path.basename(path)}: bad header")
        rows = [line.rstrip("\n").split(",") for line in fh]
    stamps = np.array([int(r[0]) for r in rows], dtype=np.int64)
    values = np.array([float(r[1]) for r in rows])
    return stamps, values, [r[2] for r in rows]


def check_ratio_counts(arr_dir: str, sources, n_sessions: int) -> None:
    """78 five-minute, 6 hourly and 1 daily window per session; n_sessions-4 weeks."""
    per = {"5min": 78 * n_sessions, "1hour": 6 * n_sessions, "1day": n_sessions,
           "1week": n_sessions - 4}
    for source in sources:
        for freq, count in per.items():
            path = os.path.join(arr_dir, f"{source}_{freq}.csv")
            require(os.path.exists(path), f"missing {os.path.basename(path)}")
            with open(path, "r", encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
            require(rows == count, f"{source}_{freq}.csv has {rows} windows, expected {count}")


def check_pca_ratio(arr_dir: str, pca_json: str, returns: Returns, fit_end: int) -> None:
    """arr/pca_5min.csv and pca_1hour.csv against a plain-numpy ratio to 1e-12."""
    rows = returns.rows(0, returns.n_sessions)
    err = rows - pca_reconstruct(pca_json, rows)
    num = np.sum(err * err, axis=1).reshape(returns.n_sessions, SESSION - 1)
    den = np.sum(rows * rows, axis=1).reshape(returns.n_sessions, SESSION - 1)
    # returns sit at offsets 1..SESSION-1 and window m holds offsets ((m-1)w, mw]:
    # one zero at the end makes each session 78 whole five-minute windows
    num5 = np.pad(num, ((0, 0), (0, 1))).reshape(returns.n_sessions, 78, FIVE_MIN).sum(axis=2)
    den5 = np.pad(den, ((0, 0), (0, 1))).reshape(returns.n_sessions, 78, FIVE_MIN).sum(axis=2)
    for freq, window, group in (("5min", FIVE_MIN, 1), ("1hour", ONE_HOUR, 12)):
        m = SESSION // window
        n = num5[:, : m * group].reshape(returns.n_sessions, m, group).sum(axis=2)
        d = den5[:, : m * group].reshape(returns.n_sessions, m, group).sum(axis=2)
        stamps = (returns.opens[:, None] + window * np.arange(1, m + 1)).ravel()
        sessions = np.repeat(np.arange(returns.n_sessions), m)
        keep = d.ravel() > 0
        expect = n.ravel()[keep] / d.ravel()[keep]
        segments = np.where(sessions[keep] < fit_end, "in_sample", "out_of_sample")
        got_stamps, got, got_segments = read_ratio_csv(os.path.join(arr_dir, f"pca_{freq}.csv"))
        require(np.array_equal(got_stamps, stamps[keep]), f"pca_{freq}.csv: window stamps differ")
        err_v = _rel_err(got, expect)
        require(err_v <= 1e-12, f"pca_{freq}.csv: ratio differs by {err_v:.3g} relative")
        require(list(segments) == got_segments, f"pca_{freq}.csv: segment flags differ")


# ---------------------------------------------------------------------------
# analyze, forecast


def check_analyze(analyze_dir: str) -> None:
    """Spearman values in [-1, 1]; KDE grids non-negative with trapezoid mass >= 0.97."""
    with open(os.path.join(analyze_dir, "correlations.csv"), "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        cells = [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]
    ok = [c for c in cells if c["status"] == "ok"]
    require(ok, "no analyze cell is ok")
    for c in ok:
        rho = float(c["spearman"])
        require(-1.0 <= rho <= 1.0, f"spearman {rho} out of [-1, 1] ({c['metric']}, {c['frequency']})")
        grid = np.loadtxt(os.path.join(analyze_dir, c["kde_file"]), delimiter=",", skiprows=1)
        x = np.unique(grid[:, 0])
        y = np.unique(grid[:, 1])
        dens = grid[:, 2].reshape(len(x), len(y))
        require(np.all(dens >= 0.0), f"{c['kde_file']}: negative density")
        mass = float(np.trapezoid(np.trapezoid(dens, y, axis=1), x))
        require(mass >= 0.97, f"{c['kde_file']}: trapezoid mass {mass:.4f} < 0.97")


def forecast_cells(forecast_dir: str) -> list[dict]:
    with open(os.path.join(forecast_dir, "results.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)["cells"]


def check_forecast(cells: list[dict], expected: int) -> None:
    """Every cell ok, with finite scores, and AUROC and p-values in [0, 1]."""
    require(len(cells) == expected, f"{len(cells)} forecast cells, expected {expected}")
    for c in cells:
        where = f"{c['horizon']}/{c['task']}/{c['family']}"
        require(c["status"] == "ok", f"forecast cell {where} is {c['status']}: {c.get('reason')}")
        scores = (c["score_with_arr"], c["score_without_arr"], c["observed_diff"])
        require(all(math.isfinite(s) for s in scores), f"{where}: non-finite score")
        require(0.0 <= c["p_value"] <= 1.0, f"{where}: p-value {c['p_value']} out of [0, 1]")
        if c["metric"] == "auroc":
            require(all(0.0 <= s <= 1.0 for s in scores[:2]), f"{where}: AUROC out of [0, 1]")


# ---------------------------------------------------------------------------
# out-of-sample R^2


def r_squared(actual: np.ndarray, predicted: np.ndarray) -> float:
    a = np.ravel(actual)
    p = np.ravel(predicted)
    return 1.0 - float(np.dot(a - p, a - p)) / float(np.dot(a - a.mean(), a - a.mean()))


def autoencoder_forward(ae_json: str, rows: np.ndarray, stamps: np.ndarray) -> np.ndarray:
    """Reconstructed returns from the weights in autoencoder.json, with plain numpy."""
    with open(ae_json, "r", encoding="utf-8") as fh:
        model = json.load(fh)
    mean, std = np.array(model["mean"]), np.array(model["std"])
    tod = (stamps % 86400) / 86400.0
    a = np.hstack([(rows - mean) / std, tod[:, None]])
    for (w, b), act in zip(model["params"], model["activations"]):
        require(act in ("elu", "identity"), f"unexpected activation {act}")
        z = a @ np.array(w) + np.array(b)
        a = np.where(z > 0, z, np.exp(np.minimum(z, 0.0)) - 1.0) if act == "elu" else z
    return a * std + mean


def check_close(got: float, expect: float, what: str, tol: float = 1e-9) -> None:
    err = abs(got - expect) / max(abs(expect), 1e-300)
    require(err <= tol, f"{what}: {got!r} vs recomputed {expect!r} ({err:.3g} relative)")


def check_report(report_json: str, cells: list[dict]) -> None:
    """report.json of a PCA-only run: the reconstruction comparison, which needs both
    model sources, is skipped, and the forecast tables hold exactly the forecast cells."""
    with open(report_json, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    block = report["reconstruction"]
    require(block["status"] == "skipped", f"reconstruction block is {block['status']}")
    rows = {(r["horizon"], r["task"], r["family"]): r
            for task_rows in report["forecast"].values() for r in task_rows}
    require(len(rows) == len(cells), f"report has {len(rows)} forecast rows, "
            f"results have {len(cells)} cells")
    for c in cells:
        where = (c["horizon"], c["task"], c["family"])
        row = rows.get(where)
        require(row is not None, f"report has no forecast row {'/'.join(where)}")
        for key in ("status", "score_with_arr", "score_without_arr", "observed_diff", "p_value"):
            require(row[key] == c[key], f"report {'/'.join(where)} {key}: {row[key]!r} "
                    f"!= {c[key]!r} in the forecast results")


# ---------------------------------------------------------------------------
# artifact digest (gate 8's normalization: drop the one timestamp field)


def normalized_bytes(path: str) -> bytes:
    if os.path.basename(path) in ("manifest.json", "report.json"):
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload.pop("generated_at", None)
        return json.dumps(payload, sort_keys=True).encode()
    with open(path, "rb") as fh:
        return fh.read()


def tree_digest(root: str) -> str:
    """SHA-256 over every artifact's relative path and normalized bytes."""
    files = []
    for base, _, names in os.walk(root):
        files += [os.path.relpath(os.path.join(base, n), root) for n in names]
    digest = hashlib.sha256()
    for rel in sorted(files):
        digest.update(rel.encode() + b"\0")
        digest.update(hashlib.sha256(normalized_bytes(os.path.join(root, rel))).digest())
    return digest.hexdigest()


def check_same_digest(digests: list[str]) -> None:
    require(len(set(digests)) == 1, f"artifact trees differ between rounds: {sorted(set(digests))}")
