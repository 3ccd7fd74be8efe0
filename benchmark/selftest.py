"""Self-tests of the benchmark's checkers: each must pass a good input and reject a
copy corrupted in one place. Runs in seconds and runs no workload.

    python3 benchmark/selftest.py        # from the root of an arrkit checkout
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def rejects(fn) -> bool:
    try:
        fn()
    except checks.CheckFailed:
        return True
    return False


def ratio_case(tmp: str):
    """Ratio files written by arrkit on a small panel; one ratio value changed."""
    from arrkit.arr import compute_arr, pca_reconstruction
    from arrkit.market_data import RegimeSpec, SyntheticMarketConfig, generate_synthetic_market
    from arrkit.pca import fit_pca
    from arrkit.pipeline import _write_arr_segments_csv
    from arrkit.returns_metrics import log_returns
    from arrkit.serialization import save_pca

    n, fit_end = 2, 1
    panel = generate_synthetic_market(SyntheticMarketConfig(
        n_assets=4, n_sessions=n, n_factors=1, regime_schedule=(RegimeSpec(0, n, 1.0, 0.5),),
        seed=3,
    ))
    returns = log_returns(panel, 1)
    model = fit_pca(returns.select_sessions(0, fit_end).returns, 1)
    pca_json = os.path.join(tmp, "pca.json")
    save_pca(model, pca_json)
    recon = pca_reconstruction(model, returns)
    for freq, name in ((300, "5min"), (3600, "1hour")):
        series = compute_arr(recon, freq)
        sess = (series.timestamps - panel.timestamps[0]) // 86400
        segments = np.where(sess < fit_end, "in_sample", "out_of_sample")
        _write_arr_segments_csv(series, segments, os.path.join(tmp, f"pca_{name}.csv"))
    mine = checks.Returns(panel.timestamps, panel.prices, n)

    def good():
        checks.check_pca_ratio(tmp, pca_json, mine, fit_end)

    def corrupt():
        path = os.path.join(tmp, "pca_5min.csv")
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        t, v, s = lines[20].rstrip("\n").split(",")
        lines[20] = f"{t},{float(v) * (1 + 1e-9)!r},{s}\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        good()

    def pca_good():
        checks.check_pca(pca_json, mine.rows(0, fit_end))

    def pca_corrupt():
        with open(pca_json, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["eigenvalues"][0] *= 1 + 1e-8
        bad = os.path.join(tmp, "pca_bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        checks.check_pca(bad, mine.rows(0, fit_end))

    return [("ratio: one value changed", good, corrupt),
            ("pca: one eigenvalue changed", pca_good, pca_corrupt)]


def panel_case(tmp: str):
    """The tick file loaded by arrkit against the reference grid; one price perturbed."""
    from arrkit.market_data import build_session_calendar, load_tick_csv
    import datetime as dt

    ticks = workloads.make_ticks(7)
    path = os.path.join(tmp, "ticks.csv")
    workloads.write_ticks(ticks, path)
    calendar = build_session_calendar(
        [dt.date.fromisoformat(d) for d in ticks.dates],
        [dt.date.fromisoformat(d) for d in ticks.half_days],
    )
    loaded = load_tick_csv(path, calendar).prices
    expected = workloads.reference_grid(ticks)

    def corrupt():
        bad = loaded.copy()
        bad[12345, 2] = np.nextafter(bad[12345, 2], np.inf)
        checks.check_panel(bad, expected, "perturbed panel")

    return [("panel: one loaded price perturbed",
             lambda: checks.check_panel(loaded, expected, "panel"), corrupt)]


def forecast_case(tmp: str):
    cell = {"horizon": "5min", "task": "regression", "family": "ridge", "metric": "r2",
            "status": "ok", "reason": None, "score_with_arr": 0.12, "score_without_arr": 0.1,
            "observed_diff": 0.02, "p_value": 0.04}
    cls = dict(cell, task="classification", family="logistic_l1", metric="auroc",
               score_with_arr=0.61, score_without_arr=0.58, observed_diff=0.03)

    def corrupt():
        checks.check_forecast([cell, dict(cls, status="failed", reason="injected")], 2)

    report = {"reconstruction": {"status": "skipped", "reason": "needs both model sources"},
              "forecast": {"regression": [dict(cell)], "classification": [dict(cls)]}}
    report_json = os.path.join(tmp, "report.json")

    def report_good():
        with open(report_json, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        checks.check_report(report_json, [cell, cls])

    def report_corrupt():
        report["forecast"]["classification"][0]["score_with_arr"] += 1e-12
        report_good()

    return [("forecast: one cell marked failed",
             lambda: checks.check_forecast([cell, cls], 2), corrupt),
            ("report: one forecast score changed", report_good, report_corrupt)]


def digest_case(tmp: str):
    """Two copies of an artifact tree; a new timestamp is ignored, a flipped byte is not."""
    first = os.path.join(tmp, "first")
    os.makedirs(os.path.join(first, "data"))
    with open(os.path.join(first, "data", "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"stage": "data", "generated_at": "2026-01-01T00:00:00+00:00"}, fh)
    with open(os.path.join(first, "data", "values.csv"), "wb") as fh:
        fh.write(b"timestamp,value\n1,0.5\n2,0.25\n")
    second = os.path.join(tmp, "second")
    shutil.copytree(first, second)
    with open(os.path.join(second, "data", "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"stage": "data", "generated_at": "2026-02-02T00:00:00+00:00"}, fh)

    def good():
        checks.check_same_digest([checks.tree_digest(first), checks.tree_digest(second)])

    def corrupt():
        path = os.path.join(second, "data", "values.csv")
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[-3] ^= 0x01
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        good()

    return [("digest: one artifact byte flipped", good, corrupt)]


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        cases = []
        for build in (ratio_case, panel_case, forecast_case, digest_case):
            sub = os.path.join(tmp, build.__name__)
            os.makedirs(sub)
            cases += build(sub)
        for name, good, corrupt in cases:
            passed = not rejects(good)
            rejected = rejects(corrupt)
            ok = passed and rejected
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {name}: good input "
                  f"{'accepted' if passed else 'REJECTED'}, corrupted copy "
                  f"{'rejected' if rejected else 'ACCEPTED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
