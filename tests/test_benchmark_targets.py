"""The names and call forms the benchmark harness relies on still exist in arrkit.

`test_no_dead_code` matches names, not strings: a refactor that deleted a function the
benchmark's tracer patches by name would pass it, and every traced round would then stop
in `tracing.install`.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

import numpy as np

from arrkit import pipeline
from arrkit.arr import compute_arr, pca_reconstruction
from arrkit.config import RunConfig, SplitSpec
from arrkit.market_data import SessionCalendar, TickPanel, generate_synthetic_market
from arrkit.pca import fit_pca
from arrkit.returns_metrics import log_returns

from conftest import small_config

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark")


def _benchmark_module(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(BENCHMARK, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _benchmark_module("tracing")


def test_every_traced_function_resolves():
    traced = _tracing().TRACED
    targets = list(traced) + [("nn", "loss_and_grads"), ("nn", "adam_step")]
    missing = [
        f"{layer}.{name}" for layer, name in targets
        if not callable(getattr(importlib.import_module(f"arrkit.{layer}"), name, None))
    ]
    assert missing == []
    for module in {caller for callers in traced.values() for caller in callers}:
        importlib.import_module(f"arrkit.{module}")  # where the tracer patches the name


def test_the_tracer_installs():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tracing; "
            "tracing.install(tracing.Tracer()); print('installed')")
    src = os.path.join(os.path.dirname(BENCHMARK), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, BENCHMARK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "installed", done.stderr


_BOOTSTRAP_SPANS = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from arrkit import pipeline, stats
rng = np.random.default_rng(0)
labels = (rng.random(200) < 0.3).astype(float)
y = rng.normal(size=200)
# the forecast cell's form, then the ae-vs-pca workload's r2 form, then metric as argument 3
pipeline.paired_bootstrap(labels, labels + rng.normal(size=200), rng.normal(size=200),
                          metric="auroc", seed=1)
stats.paired_bootstrap(y, y + rng.normal(size=200), rng.normal(size=200),
                       metric="r2", n_resamples=300, seed=1)
pipeline.paired_bootstrap(labels, rng.normal(size=200), rng.normal(size=200), "auroc", 40, 2)
print(sorted(s[0] for s in tracer.spans), tracer.counts["stats.bootstrap_resamples"])
"""


def test_the_tracer_times_both_bootstrap_metrics():
    src = os.path.join(os.path.dirname(BENCHMARK), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _BOOTSTRAP_SPANS, BENCHMARK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = "['stats.bootstrap_auroc', 'stats.bootstrap_auroc', 'stats.bootstrap_r2']"
    assert done.stdout.strip() == f"{spans} {500 + 300 + 40}"


def test_the_call_forms_of_the_workloads_and_selftest_still_work(tiny_panel):
    returns = log_returns(tiny_panel, 1)
    model = fit_pca(returns.select_sessions(0, 1).returns, 1)
    recon = pca_reconstruction(model, returns)
    assert recon.reconstructed.shape == returns.returns.shape
    for freq in (300, 3600):
        series = compute_arr(recon, freq)
        assert len(series) == 2 * (23400 // freq)


def test_the_round_captures_the_panel_that_train_and_arr_load(tmp_path, monkeypatch):
    """`round.Capture` wraps `pipeline.load_panel`, so it must still return (panel,
    calendar), and cmd_train and cmd_arr must look it up as a module global: without the
    capture every pipeline-synthetic check reads "no panel was loaded". The round's checks
    also call `pipeline._selected_sources`, and the self-test `_write_arr_segments_csv`."""
    monkeypatch.setattr(pipeline, "load_panel", pipeline.load_panel)  # given back after
    capture = _benchmark_module("round").Capture(pipeline)
    captured, calls = pipeline.load_panel, []
    monkeypatch.setattr(pipeline, "load_panel",
                        lambda cfg, out_dir: calls.append(out_dir) or captured(cfg, out_dir))
    out = str(tmp_path / "run")
    synth = small_config(n_assets=3, n_sessions=3, seed=4)
    cfg = RunConfig(data_source="synthetic", splits=SplitSpec((0, 1), (1, 2), (2, 3)),
                    synthetic=synth, models="pca", frequencies=(300, 3600, 23400), output_dir=out)
    pipeline.cmd_generate(cfg, out)
    pipeline.cmd_train(cfg, out, threads=1)
    pipeline.cmd_arr(cfg, out)
    assert calls == [out, out]
    panel, calendar = captured(cfg, out)
    assert isinstance(panel, TickPanel) and isinstance(calendar, SessionCalendar)
    assert capture.panel is not None
    assert np.array_equal(capture.panel.prices, generate_synthetic_market(synth).prices)
    assert pipeline._selected_sources(cfg) == ("pca",)
    assert callable(pipeline._write_arr_segments_csv)
