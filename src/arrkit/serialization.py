"""Versioned JSON persistence for trained models, and the one JSON file writer.

Arrays are stored as nested lists; Python's repr-based float serialization makes the
round trip bit-exact. Every file carries a format_version and a kind tag so loaders can
fail loudly on foreign or future files.
"""

from __future__ import annotations

import json

import numpy as np

from .autoencoder import AutoencoderModel
from .nn import DenseNet
from .pca import PcaModel

FORMAT_VERSION = 1


def write_json(payload, path) -> None:
    """Key-sorted, one-space-indented JSON plus a trailing newline: the layout of every
    model, config, manifest and result file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _params_to_lists(params):
    return [[w.tolist(), b.tolist()] for w, b in params]


def _params_from_lists(data):
    return [[np.array(w, dtype=np.float64), np.array(b, dtype=np.float64)] for w, b in data]


def save_autoencoder(model: AutoencoderModel, path, metadata: dict | None = None) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "autoencoder",
        "dims": list(model.net.dims),
        "activations": list(model.net.activations),
        "params": _params_to_lists(model.params),
        "mean": model.mean.tolist(),
        "std": model.std.tolist(),
        "asset_ids": list(model.asset_ids),
        "metadata": metadata or {},
    }
    write_json(payload, path)


def load_autoencoder(path) -> tuple[AutoencoderModel, dict]:
    payload = _load_checked(path, "autoencoder")
    net = DenseNet(tuple(payload["dims"]), tuple(payload["activations"]))
    model = AutoencoderModel(
        net=net,
        params=_params_from_lists(payload["params"]),
        mean=np.array(payload["mean"], dtype=np.float64),
        std=np.array(payload["std"], dtype=np.float64),
        asset_ids=tuple(payload["asset_ids"]),
    )
    return model, payload.get("metadata", {})


def save_pca(model: PcaModel, path, metadata: dict | None = None) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "pca",
        "mean": model.mean.tolist(),
        "covariance": model.covariance.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
        "eigenvectors": model.eigenvectors.tolist(),
        "n_components": model.n_components,
        "metadata": metadata or {},
    }
    write_json(payload, path)


def load_pca(path) -> tuple[PcaModel, dict]:
    payload = _load_checked(path, "pca")
    model = PcaModel(
        mean=np.array(payload["mean"], dtype=np.float64),
        covariance=np.array(payload["covariance"], dtype=np.float64),
        eigenvalues=np.array(payload["eigenvalues"], dtype=np.float64),
        eigenvectors=np.array(payload["eigenvectors"], dtype=np.float64),
        n_components=int(payload["n_components"]),
    )
    return model, payload.get("metadata", {})


def _load_checked(path, kind: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed model file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise ValueError(f"malformed model file {path}: missing format_version")
    if payload["format_version"] != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {payload['format_version']} (expected {FORMAT_VERSION})"
        )
    if payload.get("kind") != kind:
        raise ValueError(f"expected a {kind} model file, found kind={payload.get('kind')!r}")
    return payload
