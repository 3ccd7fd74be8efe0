"""Versioned JSON persistence for trained models, and the one JSON and CSV file writers.

Arrays are stored as nested lists; Python's repr-based float serialization makes the
round trip bit-exact. Every file carries a format_version and a kind tag so loaders can
fail loudly on foreign or future files.
"""

from __future__ import annotations

import json

import numpy as np

from .autoencoder import AutoencoderModel
from .nn import DenseNet, flatten, param_views
from .pca import PcaModel

FORMAT_VERSION = 1


def write_json(payload, path) -> None:
    """Key-sorted, one-space-indented JSON plus a trailing newline: the layout of every
    model, config, manifest and result file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_csv(path, header, columns) -> None:
    """Comma-joined rows under a header line, from one sized sequence per column: a cell is
    empty for None and str() of anything else, which for a Python float is its shortest
    repr, exact on reading back. Each cell is converted once, as its row is written."""
    if len(columns) != len(header) or len({len(c) for c in columns}) > 1:
        raise ValueError("need one column per header name, all of one length")
    cells = [("" if v is None else str(v) for v in column) for column in columns]
    row = ",".join(["{}"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(row.format, *cells))


def save_autoencoder(model: AutoencoderModel, path, metadata: dict | None = None) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "autoencoder",
        "dims": list(model.net.dims),
        "activations": list(model.net.activations),
        "params": [[w.tolist(), b.tolist()] for w, b in model.params],
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
        params=param_views(net, flatten(payload["params"]))[1],
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
