"""Nonlinear co-movement toolkit: synthetic tick panels, autoencoder vs. linear-factor
reconstruction, windowed reconstruction ratios, and the forecasting harness around them.
"""

__version__ = "0.1.0"

from .arr import ArrSeries, compute_arr, pca_reconstruction, smooth_arr
from .autoencoder import AutoencoderModel, random_search_ae, train_autoencoder
from .config import RunConfig, SplitSpec, load_config
from .market_data import SyntheticMarketConfig, TickPanel, generate_synthetic_market
from .pca import PcaModel, absorption_ratio, fit_pca
from .returns_metrics import ReturnsPanel, crash_labels, log_returns, realized_variance
from .stats import auroc, kde2d, paired_bootstrap, r_squared, spearman

__all__ = [
    "ArrSeries",
    "AutoencoderModel",
    "PcaModel",
    "ReturnsPanel",
    "RunConfig",
    "SplitSpec",
    "SyntheticMarketConfig",
    "TickPanel",
    "absorption_ratio",
    "auroc",
    "compute_arr",
    "crash_labels",
    "fit_pca",
    "generate_synthetic_market",
    "kde2d",
    "load_config",
    "log_returns",
    "paired_bootstrap",
    "pca_reconstruction",
    "r_squared",
    "random_search_ae",
    "smooth_arr",
    "spearman",
    "train_autoencoder",
]
