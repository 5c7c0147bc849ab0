"""Plain message-passing backbones over the autodiff substrate.

A parameter set is a flat dict of named tensors whose keys spell out the
layer spine: ``conv3.weight`` is the weight of an aggregating layer at
position 3, ``dense0.weight`` a purely feature-wise transform.  Layers run
in index order with a ReLU after every layer except the last.  The three
backbone kinds differ only in the ``autodiff.spmm`` operator an aggregating
layer applies, which ``_AGGREGATORS`` names once per kind.
plain_forward executes whatever spine its parameters describe with every
edge active, which makes it both the non-adaptive baseline and the
reference implementation that gated forwards must reduce to.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    add,
    dropout,
    matmul,
    relu,
    row_gather,
    spmm,
    tensor,
)
from .graph import Graph

__all__ = [
    "BackboneConfig",
    "BACKBONE_KINDS",
    "glorot",
    "init_params",
    "spine_from_params",
    "layer_forward",
    "dense_forward",
    "plain_forward",
]

# each backbone kind and the spmm operator its layers aggregate with
_AGGREGATORS = {
    "gcn_symnorm": "symnorm",
    "gcn_rownorm": "mean_self",
    "sage_mean": "mean_nbr",
}
BACKBONE_KINDS = tuple(_AGGREGATORS)


@dataclass(frozen=True)
class BackboneConfig:
    kind: str = "gcn_symnorm"
    layers: int = 2
    hidden_dim: int = 64
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in BACKBONE_KINDS:
            raise ValueError(f"kind must be one of {BACKBONE_KINDS}")
        if self.layers < 1:
            raise ValueError("need at least one layer")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return tensor(rng.uniform(-limit, limit, (fan_in, fan_out)), requires_grad=True)


def init_params(
    cfg: BackboneConfig, in_dim: int, num_classes: int, seed: int
) -> dict[str, Tensor]:
    """Glorot-initialized parameters for a stack of cfg.layers conv layers,
    in_dim -> hidden -> ... -> num_classes."""
    if in_dim < 1 or num_classes < 1:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    dims = [in_dim] + [cfg.hidden_dim] * (cfg.layers - 1) + [num_classes]
    params: dict[str, Tensor] = {}
    for i in range(cfg.layers):
        params[f"conv{i}.weight"] = glorot(rng, dims[i], dims[i + 1])
        if cfg.kind == "sage_mean":
            params[f"conv{i}.weight_nbr"] = glorot(rng, dims[i], dims[i + 1])
    return params


_LAYER_KEY = re.compile(r"^(dense|conv)(\d+)\.(weight|weight_nbr)$")


def spine_from_params(params: dict[str, Tensor]) -> list[tuple[str, dict[str, Tensor]]]:
    """Recover the ordered layer spine from parameter names.

    Returns [(layer_kind, {tensor_name: tensor}), ...] sorted by layer
    index; indices must be contiguous from 0.
    """
    layers: dict[int, tuple[str, dict[str, Tensor]]] = {}
    for key, value in params.items():
        m = _LAYER_KEY.match(key)
        if m is None:
            raise ValueError(f"unrecognized parameter name {key!r}")
        kind, idx, which = m.group(1), int(m.group(2)), m.group(3)
        entry = layers.setdefault(idx, (kind, {}))
        if entry[0] != kind:
            raise ValueError(f"layer {idx} declared as both dense and conv")
        entry[1][which] = value
    if sorted(layers) != list(range(len(layers))):
        raise ValueError("layer indices must be contiguous from 0")
    return [layers[i] for i in range(len(layers))]


def layer_forward(
    cfg: BackboneConfig,
    layer_params: dict[str, Tensor],
    graph: Graph,
    h: Tensor,
    activate: bool = True,
    dropout_rng: np.random.Generator | None = None,
    rows: np.ndarray | None = None,
) -> Tensor:
    """One aggregating layer over every edge of the graph.

    gcn kinds compute relu(aggregate(H) @ W); sage_mean computes
    relu(H @ W + aggregate(H) @ W_nbr), with aggregate the spmm operator
    _AGGREGATORS names for the kind.  Input dropout applies only when a
    generator is supplied (training mode), always to all of H.  With `rows`, increasing node indices, the layer computes those
    output rows alone, in that order.
    """
    if dropout_rng is not None and cfg.dropout > 0.0:
        h = dropout(h, cfg.dropout, dropout_rng)
    operator = _AGGREGATORS[cfg.kind]
    if cfg.kind == "sage_mean":
        own = h if rows is None else row_gather(h, rows)
        out = add(
            matmul(own, layer_params["weight"]),
            matmul(spmm(graph, h, operator, rows), layer_params["weight_nbr"]),
        )
    else:
        out = matmul(spmm(graph, h, operator, rows), layer_params["weight"])
    return relu(out) if activate else out


def dense_forward(
    cfg: BackboneConfig,
    layer_params: dict[str, Tensor],
    h: Tensor,
    activate: bool,
    dropout_rng: np.random.Generator | None,
) -> Tensor:
    """Feature-wise layer: no aggregation, same dropout/activation contract
    as layer_forward."""
    if dropout_rng is not None and cfg.dropout > 0.0:
        h = dropout(h, cfg.dropout, dropout_rng)
    out = matmul(h, layer_params["weight"])
    return relu(out) if activate else out


def plain_forward(
    cfg: BackboneConfig,
    params: dict[str, Tensor],
    graph: Graph,
    x: Tensor,
    dropout_rng: np.random.Generator | None = None,
) -> Tensor:
    """Run the full spine with all edges active; returns logits."""
    spine = spine_from_params(params)
    h = x
    last = len(spine) - 1
    for i, (kind, layer_params) in enumerate(spine):
        activate = i < last
        if kind == "dense":
            h = dense_forward(cfg, layer_params, h, activate, dropout_rng)
        else:
            h = layer_forward(cfg, layer_params, graph, h, activate, dropout_rng)
    return h
