"""Out-of-sample reconstruction study: random-search autoencoder vs linear PCA.

    python3 scripts/reconstruction_experiment.py [--assets 11] [--sessions 20]
        [--nonlinearity 0.8] [--iterations 20] [--seed 42]

Generates a nonlinear synthetic factor panel, tunes the autoencoder on the
train/validation splits, fits PCA with the same latent dimension on the full
fit window, and compares pooled out-of-sample R² with the report's paired circular
block bootstrap, which moves whole five-minute buckets of every asset.
"""

import argparse
import sys
import time

import numpy as np

from arrkit.arr import pca_reconstruction, squared_error
from arrkit.autoencoder import ae_dims, random_search_ae, reconstruct_series
from arrkit.market_data import RegimeSpec, SyntheticMarketConfig, generate_synthetic_market
from arrkit.pca import fit_pca
from arrkit.returns_metrics import five_minute_sums, log_returns
from arrkit.stats import bucket_r2_bootstrap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--assets", type=int, default=11)
    parser.add_argument("--sessions", type=int, default=20)
    parser.add_argument("--factors", type=int, default=2)
    parser.add_argument("--nonlinearity", type=float, default=0.8)
    parser.add_argument("--iterations", type=int, default=20, help="search arms")
    parser.add_argument("--max-epochs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    n = args.sessions
    train_end, val_end = (3 * n) // 5, (4 * n) // 5
    cfg = SyntheticMarketConfig(
        n_assets=args.assets, n_sessions=n, n_factors=args.factors,
        regime_schedule=(RegimeSpec(0, n, 1.0, 0.4),),
        nonlinearity=args.nonlinearity, intraday_amplitude=0.5, seed=args.seed,
    )
    t0 = time.monotonic()
    returns = log_returns(generate_synthetic_market(cfg), 1)
    train = returns.select_sessions(0, train_end)
    val = returns.select_sessions(train_end, val_end)
    test = returns.select_sessions(val_end, n)
    latent, hidden = ae_dims(args.assets)
    print(f"panel: {args.assets} assets x {n} sessions, latent width {latent} "
          f"(hidden {hidden}), {time.monotonic() - t0:.0f}s")

    t0 = time.monotonic()
    search = random_search_ae(train, val, iterations=args.iterations,
                              seed=0, max_epochs=args.max_epochs)
    ok = sum(trial.error is None for trial in search.trials)
    print(f"search: {ok}/{len(search.trials)} arms converged, "
          f"best val MSE {search.best_val_loss:.5f}, {time.monotonic() - t0:.0f}s")

    pca = fit_pca(returns.select_sessions(0, val_end).returns, latent)
    actual = test.returns  # five-minute sums over every asset, as the report scores them
    per_second = (squared_error(reconstruct_series(search.best_model, test)),
                  squared_error(pca_reconstruction(pca, test)), actual.sum(1),
                  np.einsum("ij,ij->i", actual, actual), np.full(len(actual), actual.shape[1]))
    r2_ae, r2_pca, boot = bucket_r2_bootstrap(*(five_minute_sums(v) for v in per_second),
                                              n_resamples=500, seed=1)

    print(f"{'model':<14}{'out-of-sample R2':>18}")
    print(f"{'autoencoder':<14}{r2_ae:>18.4f}")
    print(f"{'pca':<14}{r2_pca:>18.4f}")
    print(f"paired bootstrap (autoencoder > pca): diff {boot.observed_diff:+.5f}, "
          f"{boot.p_string()} over {boot.n_resamples} resamples of "
          f"{boot.block_length}-bucket blocks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
