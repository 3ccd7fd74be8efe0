"""In-sample duality demo: pooled reconstruction ratio == 1 - retained variance share.

    python3 scripts/arr_duality_demo.py [--assets 5] [--seed 7]

For a mean-centered panel reconstructed by its own PCA fit, the pooled ratio of
squared reconstruction error to squared returns equals one minus the share of
variance absorbed by the kept components — exactly, for every choice of K.
"""

import argparse
import sys

import numpy as np

from arrkit.arr import ReconstructionResult, compute_arr
from arrkit.market_data import ONE_DAY, SESSION_SECONDS
from arrkit.pca import absorption_ratio, fit_pca, pca_reconstruct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--assets", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    n = SESSION_SECONDS - 1  # the one-second returns of one session opening at 09:30
    factors = rng.standard_normal((n, 2))
    loadings = rng.standard_normal((2, args.assets))
    x = factors @ loadings + 0.6 * rng.standard_normal((n, args.assets))
    x -= x.mean(axis=0)

    print(f"{'K':>3}{'pooled ratio':>16}{'1 - share kept':>16}{'|gap|':>12}")
    for k in range(1, args.assets + 1):
        model = fit_pca(x, k)
        recon = ReconstructionResult(
            opens=[34200], actual=x, reconstructed=pca_reconstruct(model, x),
            asset_ids=tuple(f"a{i}" for i in range(args.assets)), source="pca",
        )
        ratio = compute_arr(recon, ONE_DAY).values[0]
        dual = 1.0 - absorption_ratio(model)
        print(f"{k:>3}{ratio:>16.10f}{dual:>16.10f}{abs(ratio - dual):>12.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
