"""In-memory spans around the public functions of each arrkit module.

The wrappers live here, in the benchmark, and are patched onto every name a caller
looks up: `arrkit.pipeline` and `arrkit.cli` bind most functions at import, so each
function is replaced both in its own module and in the modules that imported it.
Spans are kept in memory and written once, when the round ends.
"""

from __future__ import annotations

import json
import statistics
import time

# (layer module, function) -> modules whose global of that name must point at the wrapper
TRACED = {
    ("pipeline", "cmd_generate"): ("cli",),
    ("pipeline", "cmd_train"): ("cli",),
    ("pipeline", "cmd_arr"): ("cli",),
    ("pipeline", "cmd_analyze"): ("cli",),
    ("pipeline", "cmd_forecast"): ("cli",),
    ("pipeline", "cmd_report"): ("cli",),
    ("market_data", "generate_synthetic_market"): ("pipeline",),
    ("market_data", "write_tick_csv"): ("pipeline",),
    ("market_data", "load_tick_csv"): ("pipeline",),
    ("returns_metrics", "log_returns"): ("pipeline",),
    ("returns_metrics", "realized_variance"): ("pipeline",),
    ("autoencoder", "random_search_ae"): ("pipeline",),
    ("autoencoder", "train_autoencoder"): (),
    ("autoencoder", "reconstruct_series"): ("pipeline",),
    ("pca", "fit_pca"): ("pipeline",),
    ("arr", "compute_arr"): ("pipeline",),
    ("arr", "pca_reconstruction"): ("pipeline",),
    ("forecasting", "build_features"): ("pipeline",),
    ("forecasting", "random_search_cv"): ("pipeline",),
    ("stats", "paired_bootstrap"): ("pipeline",),
    ("stats", "kde2d"): ("pipeline",),
    ("stats", "spearman"): ("pipeline",),
}

STAGES = ("generate", "train", "arr", "analyze", "forecast", "report")
FAMILIES = ("ridge", "logistic_l1", "gbdt", "mlp")

# per-layer metric -> unit; the traced round reports every one of them
LAYER_METRICS = {
    **{f"pipeline.{s}_s": "s" for s in STAGES},
    "market_data.generate_s": "s",
    "market_data.write_tick_csv_s": "s",
    "market_data.load_tick_csv_s": "s",
    "market_data.load_tick_csv_calls": "count",
    "market_data.ingest_rows_per_s": "1/s",
    "returns_metrics.log_returns_s": "s",
    "returns_metrics.realized_variance_s": "s",
    "nn.step_us": "us",
    "nn.steps": "count",
    "autoencoder.search_s": "s",
    "autoencoder.arms": "count",
    "autoencoder.arms_diverged": "count",
    "autoencoder.epochs": "count",
    "autoencoder.reconstruct_s": "s",
    "pca.fit_s": "s",
    "arr.compute_arr_s": "s",
    "arr.pca_reconstruction_s": "s",
    "forecasting.build_features_s": "s",
    **{f"forecasting.{f}_search_s": "s" for f in FAMILIES},
    "forecasting.trials": "count",
    "stats.bootstrap_r2_s": "s",
    "stats.bootstrap_auroc_s": "s",
    "stats.bootstrap_resamples": "count",
    "stats.kde2d_s": "s",
    "stats.spearman_s": "s",
}

# counts that must repeat exactly from round to round
EXACT_COUNTS = (
    "market_data.load_tick_csv_calls",
    "nn.steps",
    "autoencoder.arms",
    "autoencoder.arms_diverged",
    "autoencoder.epochs",
    "forecasting.trials",
    "stats.bootstrap_resamples",
)


class Tracer:
    """Spans (name, start, end, parent) plus the counts read off call results."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self._step_start: float | None = None
        self.step_seconds: list[float] = []
        self.counts = {name: 0 for name in EXACT_COUNTS}
        self.loaded_paths: list[str] = []

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def span(self, name: str, fn, on_call=None, on_result=None, on_error=None):
        """Wrap fn in a span; on_call may rename the span from the call's arguments."""

        def wrapper(*args, **kwargs):
            index = self._enter(on_call(name, args, kwargs) if on_call else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(index)
                if on_error is not None:
                    on_error(exc)
                raise
            self._exit(index)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- minibatch steps: loss_and_grads start to adam_step end ------------------

    def step_begin(self, fn):
        def wrapper(*args, **kwargs):
            self._step_start = time.perf_counter()
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def step_end(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            end = time.perf_counter()
            if self._step_start is not None:
                parent = self._open[-1] if self._open else -1
                self.spans.append(["nn.step", self._step_start, end, parent])
                self.step_seconds.append(end - self._step_start)
                self._step_start = None
            self.counts["nn.steps"] += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading the spans -------------------------------------------------------

    def total(self, name: str) -> float:
        """Wall time inside `name`, counting a span nested in a same-name span once."""
        out = 0.0
        for name_i, start, end, parent in self.spans:
            if name_i != name or end is None:
                continue
            nested = False
            while parent >= 0:
                if self.spans[parent][0] == name:
                    nested = True
                    break
                parent = self.spans[parent][3]
            if not nested:
                out += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + t
        return out

    def dump(self, path) -> None:
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "self_s": self.self_times(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def install(tracer: Tracer) -> None:
    """Patch every traced name, in its own module and where callers look it up."""
    import importlib

    def mod(name):
        return importlib.import_module(f"arrkit.{name}")

    def family_name(name, args, kwargs):
        family = kwargs.get("family", args[1] if len(args) > 1 else None)
        return f"forecasting.{family}_search"

    def bootstrap_name(name, args, kwargs):
        metric = kwargs.get("metric", args[3] if len(args) > 3 else "r2")
        return f"stats.bootstrap_{metric}"

    def on_load(name, args, kwargs):
        tracer.loaded_paths.append(str(kwargs.get("path", args[0])))
        return name

    def on_ae_search(result):
        tracer.counts["autoencoder.arms"] += len(result.trials)
        tracer.counts["autoencoder.arms_diverged"] += sum(t.error is not None for t in result.trials)

    def on_ae_train(result):
        _, history = result
        tracer.counts["autoencoder.epochs"] += len(history)

    def on_ae_diverged(exc):
        if hasattr(exc, "epoch"):  # TrainingDiverged: epochs completed before it
            tracer.counts["autoencoder.epochs"] += int(exc.epoch)

    def on_cv(result):
        tracer.counts["forecasting.trials"] += len(result.trials)

    def on_boot(result):
        tracer.counts["stats.bootstrap_resamples"] += result.n_resamples

    hooks = {
        "load_tick_csv": {"on_call": on_load},
        "random_search_ae": {"on_result": on_ae_search},
        "train_autoencoder": {"on_result": on_ae_train, "on_error": on_ae_diverged},
        "random_search_cv": {"on_call": family_name, "on_result": on_cv},
        "paired_bootstrap": {"on_call": bootstrap_name, "on_result": on_boot},
    }
    for (layer, fn_name), callers in TRACED.items():
        original = getattr(mod(layer), fn_name)
        label = f"{layer}.{fn_name.removeprefix('cmd_')}"
        wrapped = tracer.span(label, original, **hooks.get(fn_name, {}))
        for where in (layer,) + callers:
            setattr(mod(where), fn_name, wrapped)
    nn = mod("nn")
    nn.loss_and_grads = tracer.step_begin(nn.loss_and_grads)
    nn.adam_step = tracer.step_end(nn.adam_step)


def layer_metrics(tracer: Tracer, rows_loaded: int) -> dict[str, float]:
    """Every per-layer metric of one traced round; 0 where the layer did not run."""
    t = tracer.total
    load_s = t("market_data.load_tick_csv")
    out = {f"pipeline.{s}_s": t(f"pipeline.{s}") for s in STAGES}
    out.update({
        "market_data.generate_s": t("market_data.generate_synthetic_market"),
        "market_data.write_tick_csv_s": t("market_data.write_tick_csv"),
        "market_data.load_tick_csv_s": load_s,
        "market_data.ingest_rows_per_s": rows_loaded / load_s if load_s > 0 else 0.0,
        "returns_metrics.log_returns_s": t("returns_metrics.log_returns"),
        "returns_metrics.realized_variance_s": t("returns_metrics.realized_variance"),
        "nn.step_us": (
            1e6 * statistics.median(tracer.step_seconds) if tracer.step_seconds else 0.0
        ),
        "autoencoder.search_s": t("autoencoder.random_search_ae"),
        "autoencoder.reconstruct_s": t("autoencoder.reconstruct_series"),
        "pca.fit_s": t("pca.fit_pca"),
        "arr.compute_arr_s": t("arr.compute_arr"),
        "arr.pca_reconstruction_s": t("arr.pca_reconstruction"),
        "forecasting.build_features_s": t("forecasting.build_features"),
        **{f"forecasting.{f}_search_s": t(f"forecasting.{f}_search") for f in FAMILIES},
        "stats.bootstrap_r2_s": t("stats.bootstrap_r2"),
        "stats.bootstrap_auroc_s": t("stats.bootstrap_auroc"),
        "stats.kde2d_s": t("stats.kde2d"),
        "stats.spearman_s": t("stats.spearman"),
    })
    out.update(tracer.counts, **{"market_data.load_tick_csv_calls": len(tracer.loaded_paths)})
    if set(out) != set(LAYER_METRICS):
        raise RuntimeError(f"layer metrics out of step: {sorted(set(out) ^ set(LAYER_METRICS))}")
    return out
