"""Evaluation statistics: pooled R^2, AUROC, Spearman, paired bootstrap, 2-D KDE."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Pooled out-of-sample R^2: multi-output arrays are flattened before pooling."""
    yt = np.asarray(y_true, dtype=np.float64).ravel()
    yp = np.asarray(y_pred, dtype=np.float64).ravel()
    if yt.shape != yp.shape:
        raise ValueError("shape mismatch")
    if yt.size == 0:
        raise ValueError("empty inputs")
    if yt.min() == yt.max():  # the two-pass sum below need not be 0 for equal values
        raise ValueError("constant target: r_squared undefined")
    ss_tot = float(np.sum((yt - yt.mean()) ** 2))
    ss_res = float(np.sum((yt - yp) ** 2))
    return 1.0 - ss_res / ss_tot


def rankdata(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D float array, ties given their average rank; any NaN makes
    every rank NaN. Ranks are integers or half-integers, so they are exact."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.ones(x.size, dtype=bool)
    starts[1:] = xs[1:] != xs[:-1]
    dense = np.cumsum(starts)  # 1-based tie group of each sorted element
    ends = np.append(np.flatnonzero(starts), x.size)  # group g spans [ends[g-1], ends[g])
    ranks = np.empty(x.size)
    ranks[order] = 0.5 * (ends[dense] + ends[dense - 1] + 1)
    return ranks


def auroc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the tie-averaged rank-sum identity."""
    y = np.asarray(labels).ravel()
    s = np.asarray(scores, dtype=np.float64).ravel()
    if y.shape != s.shape:
        raise ValueError("shape mismatch")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need both classes for auroc")
    ranks = rankdata(s)  # average ranks on ties
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation: Pearson correlation of tie-averaged ranks."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError("shape mismatch")
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    rx = rankdata(x)
    ry = rankdata(y)
    sx = rx.std()
    sy = ry.std()
    if sx == 0.0 or sy == 0.0:
        raise ValueError("constant input: spearman undefined")
    return float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy))


# ---------------------------------------------------------------------------
# paired bootstrap

METRICS: dict[str, Callable] = {"r2": r_squared, "auroc": auroc}


@dataclass(frozen=True)
class BootstrapResult:
    observed_diff: float
    p_value: float
    n_resamples: int
    block_length: int  # rows per circular block
    n_failing: int  # resamples where the difference violated the tested direction
    samples: np.ndarray

    def p_string(self) -> str:
        if self.n_failing == 0:
            return f"p<{1.0 / self.n_resamples:g}"
        if self.n_failing == self.n_resamples:
            return f"p>{1.0 - 1.0 / self.n_resamples:g}"
        return f"p={self.p_value:g}"


def paired_bootstrap(
    y_true: np.ndarray,
    pred_a: np.ndarray,
    pred_b: np.ndarray,
    metric: str | Callable = "r2",
    n_resamples: int = 500,
    seed: int = 0,
) -> BootstrapResult:
    """One-sided paired circular block bootstrap test of metric(A) > metric(B).

    A resample is k = ceil(n / L) blocks of L consecutive rows, L the least integer with
    L**3 >= n, each from a uniform start, wrapping past the last row, with the last block
    cut so that a resample has n rows (Politis & Romano, 1992). Rows may be
    multi-output, as (seconds, assets), so all outputs of a row move together. Both
    models are scored on the same resample, so the comparison is paired. The p-value is
    the exact fraction of resamples whose difference is <= 0. Resamples on which the
    metric is undefined (e.g. one-class label draws) are redrawn, with a hard cap on
    total draws.

    Metric "r2" scores a resample from running totals of four row sums, O(k) each;
    centering the target on its full-sample mean keeps the one-pass total sum of squares
    accurate at log-RV's mean near -15. Where that sum is not clearly positive, the rows
    are gathered and scored exactly. Metric "auroc" counts each class per tie group of one
    sort of the scores (Mann-Whitney) from the blocks' row counts, bitwise `auroc` of the
    gathered rows. A callable metric scores the gathered rows. Non-finite inputs, which
    would give p = 0, are refused.
    """
    fn = METRICS[metric] if isinstance(metric, str) else metric
    y = np.asarray(y_true)
    a = np.asarray(pred_a)
    b = np.asarray(pred_b)
    if not (len(y) == len(a) == len(b)):
        raise ValueError("shape mismatch")
    for name, v in (("y_true", y), ("pred_a", a), ("pred_b", b)):
        if not np.isfinite(np.asarray(v, dtype=np.float64)).all():
            raise ValueError(f"non-finite values in {name}")
    if n_resamples < 1:
        raise ValueError("n_resamples must be positive")
    observed = float(fn(y, a)) - float(fn(y, b))
    rng = np.random.default_rng(seed)
    n = len(y)
    length = 1
    while length ** 3 < n:
        length += 1
    k = -(-n // length)
    if metric == "r2":
        yf, af, bf = (np.asarray(v, dtype=np.float64).reshape(n, -1) for v in (y, a, b))
        # running totals, row i + 1 the sums over rows <= i: squared errors of A and B,
        # then the centred target and its square
        totals, work = np.zeros((n + 1, 4)), np.empty_like(yf)
        for i, pred in enumerate((af, bf)):
            np.square(np.subtract(yf, pred, out=work), out=work).sum(1, out=totals[1:, i])
        np.subtract(yf, yf.mean(), out=work).sum(1, out=totals[1:, 2])
        np.square(work, out=work).sum(1, out=totals[1:, 3])
        np.cumsum(totals, axis=0, out=totals)
    elif metric == "auroc":
        pos = y.ravel() == 1
        width = pos.size // n  # scores per row; `auroc` pools them
        pos_per_row = pos.reshape(n, width).sum(1)
        sorted_a, sorted_b = (_tie_groups(s, pos, width) for s in (a, b))
    samples = np.empty(n_resamples)
    draws = 0
    max_draws = 20 * n_resamples
    filled = 0
    while filled < n_resamples:
        if draws >= max_draws:
            raise ValueError("too many degenerate resamples; metric rarely defined")
        starts = rng.integers(0, n, size=k)
        draws += 1
        ends = starts + length
        ends[-1] -= k * length - n  # cut the last block: n rows in all
        wraps = ends > n
        ends[wraps] -= n  # a block that wraps is rows [start, n) and [0, end)
        diff = None
        if metric == "r2":
            ss_a, ss_b, s_c, s_c2 = ((totals.take(ends, 0) - totals.take(starts, 0)).sum(0)
                                     + np.count_nonzero(wraps) * totals[n])
            ss_tot = s_c2 - s_c * s_c / yf.size
            diff = float((ss_b - ss_a) / ss_tot) if ss_tot > 1e-9 * s_c2 else None
        elif metric == "auroc":
            steps = np.bincount(starts, minlength=n + 1) - np.bincount(ends, minlength=n + 1)
            steps[0] += np.count_nonzero(wraps)
            counts = np.cumsum(steps[:n])
            n_pos = int(counts @ pos_per_row)
            pairs = n_pos * (n * width - n_pos)
            if pairs == 0:  # one class: undefined, as `auroc` would raise
                continue
            diff = (_auroc_from_counts(counts, *sorted_a, pairs)
                    - _auroc_from_counts(counts, *sorted_b, pairs))
        if diff is None:
            idx = (starts[:, None] + np.arange(length)).ravel()[:n] % n
            try:
                diff = float(fn(y[idx], a[idx])) - float(fn(y[idx], b[idx]))
            except ValueError:
                continue
        samples[filled] = diff
        filled += 1
    n_failing = int(np.sum(samples <= 0.0))
    return BootstrapResult(
        observed_diff=observed,
        p_value=n_failing / n_resamples,
        n_resamples=n_resamples,
        block_length=length,
        n_failing=n_failing,
        samples=samples,
    )


def _tie_groups(scores, pos, width: int):
    """Row and label of each score in sorted order, and the tie-group starts (as `rankdata`)."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    order = np.argsort(s, kind="stable")
    ss = s[order]
    starts = np.flatnonzero(np.concatenate(([True], ss[1:] != ss[:-1])))
    return order // width, pos[order], starts


def _auroc_from_counts(counts, rows, pos, starts, pairs: int) -> float:
    """U2 = sum_g P_g * (2 * N_<g + N_g), twice the rank-sum U exactly, over P * N pairs."""
    c = counts[rows]
    c_pos = np.where(pos, c, 0)
    pos_g = np.add.reduceat(c_pos, starts)
    neg_g = np.add.reduceat(c - c_pos, starts)
    u2 = int(pos_g @ (2 * np.cumsum(neg_g) - neg_g))
    return (u2 / 2) / pairs


# ---------------------------------------------------------------------------
# kernel density


@dataclass(frozen=True)
class KdeGrid:
    x_grid: np.ndarray
    y_grid: np.ndarray
    density: np.ndarray  # [len(x_grid), len(y_grid)]
    bandwidth_x: float
    bandwidth_y: float


def kde2d(x: np.ndarray, y: np.ndarray, grid_size: int = 64) -> KdeGrid:
    """Product-Gaussian kernel density on a regular grid.

    Bandwidths follow Scott's rule for two dimensions (sigma * n^(-1/6) per axis); the
    grid spans the data range padded by three bandwidths, which keeps the trapezoid mass
    of the estimate above 0.97.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError("shape mismatch")
    n = x.size
    if n < 10:
        raise ValueError("need at least 10 points for a 2-D density")
    sx = float(x.std(ddof=1))
    sy = float(y.std(ddof=1))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance axis: density would be degenerate")
    hx = sx * n ** (-1.0 / 6.0)
    hy = sy * n ** (-1.0 / 6.0)
    gx = np.linspace(x.min() - 3 * hx, x.max() + 3 * hx, grid_size)
    gy = np.linspace(y.min() - 3 * hy, y.max() + 3 * hy, grid_size)
    kx = np.exp(-0.5 * ((gx[:, None] - x[None, :]) / hx) ** 2)
    ky = np.exp(-0.5 * ((gy[:, None] - y[None, :]) / hy) ** 2)
    density = kx @ ky.T / (n * 2.0 * np.pi * hx * hy)
    return KdeGrid(gx, gy, density, hx, hy)


def kde_mass(grid: KdeGrid) -> float:
    """Trapezoid integral of the density over the grid."""
    return float(np.trapezoid(np.trapezoid(grid.density, grid.y_grid, axis=1), grid.x_grid))
