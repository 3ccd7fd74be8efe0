"""PCA on return covariance, plus the absorption ratio.

The covariance is factored with LAPACK's symmetric solver (`np.linalg.eigh`), and its
eigenpairs are put in descending order under a largest-entry-positive sign rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def eigh_descending(matrix: np.ndarray):
    """Eigendecomposition of a symmetric matrix, eigenvalues sorted descending.

    Eigenvectors sit in the matching columns. Equal eigenvalues keep the solver's order,
    and each eigenvector is sign-normalized so its largest-magnitude entry (first such
    entry on ties) is positive.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    order = np.argsort(-eigenvalues, kind="stable")
    v = eigenvectors[:, order]
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return eigenvalues[order], np.where(lead < 0, -v, v)


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray  # [N]
    covariance: np.ndarray  # [N, N] symmetric
    eigenvalues: np.ndarray  # [N] descending
    eigenvectors: np.ndarray  # [N, N], columns
    n_components: int

    def __post_init__(self):
        if not 1 <= self.n_components <= len(self.eigenvalues):
            raise ValueError("n_components out of range")
        for name in ("mean", "covariance", "eigenvalues", "eigenvectors"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_assets(self) -> int:
        return len(self.mean)


def fit_pca(x: np.ndarray, n_components: int) -> PcaModel:
    """Fit on rows of x using the unbiased sample covariance of mean-centered columns."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-D [rows, assets]")
    t, n = x.shape
    if t <= n:
        raise ValueError("need more rows than assets to estimate a covariance")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (t - 1)
    cov = (cov + cov.T) / 2.0
    w, v = eigh_descending(cov)
    return PcaModel(mean=mean, covariance=cov, eigenvalues=w, eigenvectors=v, n_components=n_components)


def pca_reconstruct(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project onto the leading components and map back: mean + (x-mean) Vk Vk'."""
    x = np.asarray(x, dtype=np.float64)
    vk = model.eigenvectors[:, : model.n_components]
    return model.mean + (x - model.mean) @ vk @ vk.T


def absorption_ratio(model: PcaModel, n_components: int | None = None) -> float:
    """Fraction of total variance captured by the leading components."""
    k = model.n_components if n_components is None else n_components
    total = float(np.sum(model.eigenvalues))
    if total <= 0.0:
        raise ValueError("zero total variance")
    return float(np.sum(model.eigenvalues[:k]) / total)
