"""Run configuration: round trips, validation, and the settings hash."""

import dataclasses
import datetime as dt
import json
import os
import re

import pytest

from arrkit.config import (
    RunConfig,
    SplitSpec,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    save_config,
)
from arrkit.market_data import CoMovementSpec, RegimeSpec, SyntheticMarketConfig


def _synth(n_sessions=16, comovement=False, **kwargs):
    return SyntheticMarketConfig(
        n_assets=6,
        n_sessions=n_sessions,
        n_factors=2,
        regime_schedule=(RegimeSpec(0, n_sessions, 1.0, 0.5),),
        comovement=CoMovementSpec(share_innovation=0.6) if comovement else None,
        **kwargs,
    )


def _config(**kwargs):
    base = dict(
        data_source="synthetic",
        splits=SplitSpec((0, 8), (8, 12), (12, 16)),
        synthetic=_synth(),
    )
    base.update(kwargs)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# splits


def test_split_ranges_must_be_chronological():
    s = SplitSpec((0, 8), (8, 12), (12, 16))
    assert s.fit_range == (0, 12)
    assert s.n_sessions_needed == 16
    with pytest.raises(ValueError, match="chronological"):
        SplitSpec((0, 8), (6, 12), (12, 16))
    with pytest.raises(ValueError, match="chronological"):
        SplitSpec((4, 8), (8, 12), (10, 16))
    with pytest.raises(ValueError, match="empty or negative"):
        SplitSpec((0, 0), (1, 2), (2, 3))
    with pytest.raises(ValueError, match="empty or negative"):
        SplitSpec((-1, 2), (2, 3), (3, 4))


# ---------------------------------------------------------------------------
# validation


def test_source_requirements():
    with pytest.raises(ValueError, match="unknown data source"):
        _config(data_source="yahoo")
    with pytest.raises(ValueError, match="synthetic block"):
        _config(synthetic=None)
    with pytest.raises(ValueError, match="csv_path and csv_dates"):
        _config(data_source="csv", synthetic=None)
    cfg = _config(data_source="csv", synthetic=None, csv_path="ticks.csv",
                  csv_dates=("2012-01-03", "2012-01-04"), frequencies=(300, 3600, 23400),
                  horizons=(300,))
    assert cfg.csv_path == "ticks.csv"


def test_frequency_and_horizon_rules():
    with pytest.raises(ValueError, match="unsupported frequency"):
        _config(frequencies=(300, 900))
    with pytest.raises(ValueError, match="not among configured frequencies"):
        _config(frequencies=(300, 3600), horizons=(300, 23400))
    cfg = _config(frequencies=(300, 3600), horizons=(300,))
    assert cfg.horizons == (300,)


def test_omitted_horizons_are_the_frequencies():
    cfg = _config(frequencies=(300, 3600))
    assert cfg.horizons == (300, 3600)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    payload = config_to_dict(cfg)
    del payload["horizons"]
    assert config_from_dict(payload) == cfg


def test_cross_source_fields_are_refused():
    for csv_field in (dict(csv_path="x.csv"), dict(csv_dates=("2012-01-03",)),
                      dict(csv_half_days=("2012-01-03",))):
        with pytest.raises(ValueError, match="synthetic source takes no csv_path"):
            _config(**csv_field)
    with pytest.raises(ValueError, match="csv source takes no synthetic block"):
        _config(data_source="csv", csv_path="ticks.csv", csv_dates=("2012-01-03",) * 16)


def test_family_rules():
    with pytest.raises(ValueError, match="unknown family"):
        _config(regression_families=("ridge", "catboost"))
    with pytest.raises(ValueError, match="classification-only"):
        _config(regression_families=("ridge", "logistic_l1"))
    with pytest.raises(ValueError, match="regression-only"):
        _config(classification_families=("ridge",))


def test_budget_and_fold_rules():
    with pytest.raises(ValueError, match="positive"):
        _config(ae_search_iterations=0)
    with pytest.raises(ValueError, match="positive"):
        _config(forecast_search_iterations=0)
    with pytest.raises(ValueError, match="2 CV folds"):
        _config(cv_folds=1)


def test_splits_must_fit_the_synthetic_session_count():
    with pytest.raises(ValueError, match="splits need 16 sessions"):
        _config(synthetic=_synth(n_sessions=10))


def test_weekly_frequency_needs_five_sessions():
    short = dict(synthetic=_synth(n_sessions=4), splits=SplitSpec((0, 2), (2, 3), (3, 4)))
    with pytest.raises(ValueError, match="1-week frequency needs 5 sessions, the data has 4"):
        _config(**short)
    three = (300, 3600, 23400)
    assert _config(**short, frequencies=three, horizons=three).frequencies == three
    assert _config(synthetic=_synth(n_sessions=5), splits=short["splits"]).synthetic.n_sessions == 5


def test_weekly_frequency_counts_csv_dates_without_half_days():
    dates = ("2012-01-03", "2012-01-04", "2012-01-05", "2012-01-06", "2012-01-09")
    csv = dict(data_source="csv", synthetic=None, csv_path="ticks.csv", csv_dates=dates)
    assert _config(**csv).csv_dates == dates
    with pytest.raises(ValueError, match="1-week frequency needs 5 sessions, the data has 4"):
        _config(**csv, csv_half_days=("2012-01-05",))
    with pytest.raises(ValueError, match="1-week frequency needs 5 sessions, the data has 3"):
        _config(**{**csv, "csv_dates": dates[:3]})


def test_analyze_source_resolution():
    assert _config().resolved_analyze_source() == "autoencoder"
    assert _config(models="pca").resolved_analyze_source() == "pca"
    assert _config(models="autoencoder").resolved_analyze_source() == "autoencoder"
    assert _config(models="pca", analyze_source="pca").resolved_analyze_source() == "pca"
    with pytest.raises(ValueError, match="unknown analyze source"):
        _config(analyze_source="kmeans")
    with pytest.raises(ValueError, match="unknown models selection"):
        _config(models="none")


# ---------------------------------------------------------------------------
# round trips


def test_dict_round_trip_is_lossless():
    cfg = _config(
        synthetic=_synth(comovement=True, seed=7, nonlinearity=0.5, intraday_amplitude=0.3),
        models="both",
        frequencies=(300, 3600, 23400, 117000),
        horizons=(300, 23400),
        crash_half_life=12.0,
        crash_threshold=-2.0,
        ae_search_iterations=5,
        forecast_search_iterations=50,
        cv_folds=4,
        smooth_half_life_days=2.5,
        analyze_source="pca",
        seed=11,
        output_dir="elsewhere",
    )
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_file_round_trip_and_defaults(tmp_path):
    cfg = _config()
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    assert path.read_text().endswith("\n")


def test_csv_config_round_trip():
    cfg = _config(
        data_source="csv", synthetic=None, csv_path="/data/ticks.csv",
        csv_dates=("2012-01-03",) * 16, csv_half_days=("2012-01-05",),
    )
    again = config_from_dict(config_to_dict(cfg))
    assert again.csv_half_days == ("2012-01-05",)
    assert again == cfg


def test_from_dict_rejects_bad_payloads(tmp_path):
    with pytest.raises(ValueError, match="unsupported schema_version"):
        config_from_dict({"schema_version": 99})
    with pytest.raises(ValueError, match="missing required field"):
        config_from_dict({"schema_version": 1, "data": {"source": "synthetic"}})
    with pytest.raises(ValueError, match="must be a JSON object"):
        config_from_dict([1, 2])
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ValueError, match="malformed config"):
        load_config(bad)


def _objects(tree, path=""):
    """Every JSON object in a config dict, with its dotted path."""
    yield path, tree
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _objects(value, f"{path}.{key}" if path else key)


@pytest.mark.parametrize("source", ["synthetic", "csv"])
def test_unknown_keys_are_refused_at_every_level(source):
    if source == "synthetic":
        cfg = _config(synthetic=_synth(comovement=True), analyze_source="pca")
    else:
        cfg = _config(data_source="csv", synthetic=None, csv_path="ticks.csv",
                      csv_dates=("2012-01-03",) * 16, csv_half_days=("2012-01-05",))
    paths = [path for path, _ in _objects(config_to_dict(cfg))]
    assert len(paths) == (8 if source == "synthetic" else 6)
    for path in paths:
        payload = config_to_dict(cfg)
        dict(_objects(payload))[path]["horizon"] = [300]
        name = f"{path}.horizon" if path else "horizon"
        with pytest.raises(ValueError, match=f"unknown config field: {name}$"):
            config_from_dict(payload)


# One valid non-default value for every field of the config and of its synthetic and
# co-movement blocks: each must survive the JSON round trip and move the hash.
_CSV = dict(data_source="csv", synthetic=None, csv_path="ticks.csv",
            csv_dates=tuple(f"2012-01-{d:02d}" for d in range(3, 19)))
FIELD_VALUES = {
    RunConfig: {
        "data_source": _CSV,
        "splits": {"splits": SplitSpec((0, 7), (8, 12), (12, 16))},
        "synthetic": {"synthetic": _synth(n_sessions=17)},
        "csv_path": {**_CSV, "csv_path": "other.csv"},
        "csv_dates": {**_CSV, "csv_dates": _CSV["csv_dates"][1:]},
        "csv_half_days": {**_CSV, "csv_half_days": ("2012-01-05",)},
        "models": {"models": "pca"},
        "frequencies": {"frequencies": (300, 3600, 23400)},
        "horizons": {"horizons": (300,)},
        "regression_families": {"regression_families": ("ridge",)},
        "classification_families": {"classification_families": ("gbdt",)},
        "crash_half_life": {"crash_half_life": 12.0},
        "crash_threshold": {"crash_threshold": -2.0},
        "ae_search_iterations": {"ae_search_iterations": 5},
        "forecast_search_iterations": {"forecast_search_iterations": 50},
        "cv_folds": {"cv_folds": 4},
        "smooth_half_life_days": {"smooth_half_life_days": 2.5},
        "analyze_source": {"analyze_source": "pca"},
        "seed": {"seed": 11},
        "output_dir": {"output_dir": "elsewhere"},
    },
    SyntheticMarketConfig: {
        "n_assets": {"n_assets": 7},
        "n_sessions": {"n_sessions": 17, "regime_schedule": (RegimeSpec(0, 17, 1.0, 0.5),)},
        "n_factors": {"n_factors": 3},
        "regime_schedule": {"regime_schedule": (RegimeSpec(0, 16, 2.0, 0.5),)},
        "nonlinearity": {"nonlinearity": 0.5},
        "seed": {"seed": 3},
        "base_vol": {"base_vol": 2e-4},
        "intraday_amplitude": {"intraday_amplitude": 0.3},
        "start_date": {"start_date": dt.date(2013, 1, 2)},
        "market_composite": {"market_composite": True},
        "comovement": {"comovement": CoMovementSpec()},
    },
    CoMovementSpec: {
        "window_seconds": {"window_seconds": 600},
        "half_life_windows": {"half_life_windows": 3.0},
        "mean_share": {"mean_share": 0.4},
        "share_innovation": {"share_innovation": 0.2},
        "vol_feedback": {"vol_feedback": 0.5},
    },
}


def _with_field_set(cls, name):
    """(base config, the same config with one field of `cls` set to its table value)."""
    changes = FIELD_VALUES[cls][name]
    if cls is RunConfig:
        return _config(), _config(**changes)
    if cls is SyntheticMarketConfig:
        base = _synth()
        return _config(synthetic=base), _config(synthetic=dataclasses.replace(base, **changes))
    base = _synth(comovement=True)
    changed = dataclasses.replace(base, comovement=dataclasses.replace(base.comovement, **changes))
    return _config(synthetic=base), _config(synthetic=changed)


@pytest.mark.parametrize("cls, name", [
    (cls, f.name) for cls in FIELD_VALUES for f in dataclasses.fields(cls)
], ids=lambda v: v.__name__ if isinstance(v, type) else v)
def test_every_field_round_trips_and_moves_the_hash(cls, name):
    base, cfg = _with_field_set(cls, name)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    if name == "output_dir":
        assert config_hash(cfg) == config_hash(base)
    else:
        assert config_hash(cfg) != config_hash(base)


def test_readme_config_example_parses():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        example = re.search(r"```jsonc\n(.*?)```", fh.read(), re.S).group(1)
    cfg = config_from_dict(json.loads(re.sub(r"//[^\n]*", "", example)))
    assert cfg.synthetic.comovement.vol_feedback == 0.5
    assert cfg.horizons == (300, 3600) and cfg.analyze_source is None


# ---------------------------------------------------------------------------
# hashing


def test_hash_ignores_output_dir_but_nothing_else():
    a = _config()
    b = _config(output_dir="somewhere/else")
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(_config(seed=1))
    assert config_hash(a) != config_hash(_config(crash_threshold=-2.0))
    assert config_hash(a) != config_hash(_config(synthetic=_synth(seed=3)))
    assert len(config_hash(a)) == 64


def test_int_in_a_float_field_hashes_as_its_json_round_trip():
    """A float field built from an int is written as a float, as the parser reads it."""
    synth = dataclasses.replace(
        _synth(), regime_schedule=(RegimeSpec(0, 16, 1, 0.5),),
        comovement=CoMovementSpec(share_innovation=0.6, half_life_windows=6),
    )
    cfg = _config(crash_half_life=10, synthetic=synth)
    loaded = config_from_dict(config_to_dict(cfg))
    assert loaded == cfg
    assert config_hash(cfg) == config_hash(loaded)
    assert isinstance(config_to_dict(cfg)["crash"]["half_life"], float)
    assert config_hash(cfg) == config_hash(_config(crash_half_life=10.0, synthetic=synth))


def test_hash_is_stable_across_processes_inputs():
    # same logical config built twice hashes identically
    assert config_hash(_config()) == config_hash(_config())
    cfg = _config()
    clone = dataclasses.replace(cfg, output_dir="x")
    assert config_hash(cfg) == config_hash(clone)
