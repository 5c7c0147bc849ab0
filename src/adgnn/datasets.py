"""Dataset directory I/O.

A dataset is a directory holding four files:

  edges.txt      one "u v" pair per line, 0-based ids, '#' starts a comment;
                 whitespace- or comma-separated
  features.csv   one comma-separated float row per node, no header
  labels.csv     one integer per line
  meta.json      provenance sidecar (parameters, measured statistics)

The formats are plain enough to produce from any public benchmark dump
with a few lines of shell.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .graph import Graph, LabelVector, build_graph

__all__ = ["save_dataset", "load_dataset"]

EDGE_FILE = "edges.txt"
FEATURE_FILE = "features.csv"
LABEL_FILE = "labels.csv"
META_FILE = "meta.json"


def save_dataset(
    directory: str | Path,
    graph: Graph,
    features: np.ndarray,
    labels: LabelVector,
    meta: dict | None = None,
) -> Path:
    """Write the four-file container; returns the directory path.

    Floats are written with repr precision so a save/load round trip is
    bit-exact.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != graph.num_nodes:
        raise ValueError("features must be 2-d with one row per node")
    if labels.labels.shape[0] != graph.num_nodes:
        raise ValueError("labels must have one entry per node")

    edges = graph.edges()
    with open(directory / EDGE_FILE, "w") as fh:
        fh.write("# u v\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")
    np.savetxt(directory / FEATURE_FILE, features, fmt="%.17g", delimiter=",")
    np.savetxt(directory / LABEL_FILE, labels.labels, fmt="%d")
    payload = dict(meta or {})
    payload.setdefault("num_nodes", graph.num_nodes)
    payload.setdefault("num_edges", int(graph.num_edges))
    payload.setdefault("num_classes", labels.num_classes)
    with open(directory / META_FILE, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return directory


def _parse_edges(path: Path) -> list[tuple[int, int]]:
    pairs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'u v', got {raw.strip()!r}"
                )
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-integer node id in {raw.strip()!r}"
                ) from None
    return pairs


def _parse_features(path: Path) -> np.ndarray:
    rows = []
    width = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-numeric feature value"
                ) from None
            if not np.isfinite(row).all():
                raise ValueError(f"{path}:{lineno}: non-finite feature value")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    return np.array(rows, dtype=np.float64)


def _parse_labels(path: Path) -> np.ndarray:
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected one integer label"
                ) from None
    if not values:
        raise ValueError(f"{path}: no labels")
    return np.array(values, dtype=np.int64)


def load_dataset(directory: str | Path) -> tuple[Graph, np.ndarray, LabelVector]:
    """Read a dataset directory back into memory.

    The label file fixes the node count; features must match it and edge
    endpoints must stay in range.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {directory}")
    for name in (EDGE_FILE, FEATURE_FILE, LABEL_FILE):
        if not (directory / name).is_file():
            raise FileNotFoundError(f"missing dataset file: {directory / name}")

    y = _parse_labels(directory / LABEL_FILE)
    features = _parse_features(directory / FEATURE_FILE)
    if features.shape[0] != y.shape[0]:
        raise ValueError(
            f"feature rows ({features.shape[0]}) != label rows ({y.shape[0]})"
        )
    pairs = _parse_edges(directory / EDGE_FILE)
    graph = build_graph(pairs, num_nodes=y.shape[0])

    num_classes = int(y.max()) + 1 if y.size else 0
    meta_path = directory / META_FILE
    if meta_path.is_file():
        with open(meta_path) as fh:
            meta = json.load(fh)
        num_classes = meta.get("num_classes", num_classes)
        # bool subclasses int, and a fraction must not truncate to a count
        if isinstance(num_classes, bool) or not isinstance(num_classes, int):
            raise ValueError(f"{meta_path}: num_classes must be an integer, "
                             f"got {num_classes!r}")
    return graph, features, LabelVector(labels=y, num_classes=num_classes)
