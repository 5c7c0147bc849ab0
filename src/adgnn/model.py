"""Adaptive-depth message passing.

Each node gets its own aggregation budget.  A per-edge same-label
probability (learned head, degree product, or a structural heuristic)
yields an estimated signal-preservation factor per node, which scales
into a log-domain depth-benefit score.  Scores are min-max normalized
and cut against a monotone learnable threshold curve to assign a
stopping depth T(v).  The trunk then runs t_max gated convolutions:
a node whose budget is spent keeps its embedding frozen, while active
neighbors keep reading that frozen row.  Hard gating selects rows
exactly, and a hard-gated layer with at most half its rows active
computes only those rows; soft gating blends through a temperature
sigmoid so the scoring parameters receive gradients; the caller picks
the mode by passing a temperature or none.  The learned head
is symmetric, so it scores each undirected edge once and both arcs of
the edge read that score.  It runs once per forward, and its pair loss
trains it on exactly the arc scores the plan cuts.

With every stopping depth at t_max the gated trunk is bit-identical to
``backbones.plain_forward`` on the same parameters; ``trunk_params``
extracts the shared spine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .autodiff import (
    Tensor,
    _emit,
    _out,
    add,
    binary_cross_entropy,
    merge_rows,
    relu_values,
    row_gather,
    tensor,
)
from .backbones import BackboneConfig, dense_forward, glorot, layer_forward
from .graph import Graph, degrees
from .heuristics import HEURISTIC_NAMES, degree_similarity, heuristic_similarity
from .theory import estimated_alpha, log_benefit_scores, minmax_normalize

__all__ = [
    "VARIANTS",
    "SimilarityHead",
    "ThresholdFunction",
    "DepthPlan",
    "AdGnnConfig",
    "ForwardResult",
    "init_adgnn_params",
    "trunk_params",
    "pair_probability",
    "structural_scores",
    "expected_label_counts",
    "threshold_values",
    "assign_stopping_depths",
    "forward",
    "regularization_loss",
    "total_loss",
]

VARIANTS = ("learned", "fast_degree", "heuristic")

# the similarity head's hidden width at every trunk width; deriving it
# from the trunk would move every learned table at a hidden width not 16
_HEAD_HIDDEN = 16

# Threshold curve init: raw slope/intercept chosen so the pre-mixture
# sigmoid sits near 0.11 at layer 1, 0.30 at layer 2, and saturates by
# layer 7.  Early thresholds stay low because a frozen raw row is the one
# input the classifier rarely trains on; the fast rise caps practical
# depth at single digits no matter how tall the trunk is.
_INIT_SLOPE_RAW = 0.90395
_INIT_INTERCEPT_RAW = -3.33500


@dataclass(frozen=True)
class SimilarityHead:
    """Two-layer map from symmetric pair features to a same-label
    probability.  Inputs are |h_u - h_v| concatenated with h_u * h_v, so
    the output cannot depend on argument order."""

    w1: Tensor
    w2: Tensor

    def __post_init__(self) -> None:
        if self.w1.shape[0] % 2 != 0:
            raise ValueError("w1 consumes two stacked feature blocks")
        if self.w2.shape != (self.w1.shape[1], 1):
            raise ValueError("w2 must map the hidden layer to one logit")


@dataclass(frozen=True)
class ThresholdFunction:
    """Monotone per-layer acceptance threshold.

    tau(t) = lam + (1 - lam) * sigmoid(softplus(slope_raw) * t +
    intercept_raw).  The softplus keeps the slope nonnegative for any raw
    value, so tau never decreases with depth; lam is the floor every
    threshold stays above.
    """

    lambda_weight: float
    slope_raw: Tensor
    intercept_raw: Tensor

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda_weight must lie in [0, 1]")
        if self.slope_raw.shape != (1, 1) or self.intercept_raw.shape != (1, 1):
            raise ValueError("threshold parameters are (1, 1) scalars")


@dataclass(frozen=True)
class DepthPlan:
    """Stopping depths plus the normalized scores that produced them."""

    stopping_depth: np.ndarray
    normalized_scores: np.ndarray
    t_max: int

    def __post_init__(self) -> None:
        depth = np.asarray(self.stopping_depth)
        scores = np.asarray(self.normalized_scores)
        if depth.shape != scores.shape or depth.ndim != 1:
            raise ValueError("per-node depth and score vectors must align")
        if not np.issubdtype(depth.dtype, np.integer):
            raise ValueError(f"stopping depths must be integers, got {depth.dtype}")
        if depth.size and (depth.min() < 0 or depth.max() > self.t_max):
            raise ValueError("stopping depths must lie in [0, t_max]")

    def active_nodes(self, t: int) -> np.ndarray:
        """Nodes still receiving fresh aggregates at layer t."""
        if not 1 <= t <= self.t_max:
            raise ValueError(f"layer index {t} outside 1..{self.t_max}")
        return self.stopping_depth >= t

    def mean_depth(self) -> float:
        return float(self.stopping_depth.mean()) if self.stopping_depth.size else 0.0

    def depth_histogram(self) -> np.ndarray:
        """Node counts per stopping depth, length t_max + 1 (depth 0 first)."""
        return np.bincount(self.stopping_depth, minlength=self.t_max + 1)


@dataclass(frozen=True)
class AdGnnConfig:
    """The adaptive model: its backbone trunk, one conv per allowable depth
    (t_max is the backbone's layer count), and how it scores depth.
    `forward` gates soft only at a temperature its caller passes, and
    `fit_model` passes one unless a depth plan is forced."""

    backbone: BackboneConfig
    lambda_weight: float = 0.0
    variant: str = "learned"
    heuristic_name: str = "common_neighbors"

    @property
    def t_max(self) -> int:
        return self.backbone.layers

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda_weight must lie in [0, 1]")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.variant == "heuristic" and self.heuristic_name not in HEURISTIC_NAMES:
            raise ValueError(f"heuristic_name must be one of {HEURISTIC_NAMES}")


@dataclass(frozen=True)
class ForwardResult:
    """Logits, depth plan and per-arc head scores; the training loop's
    result for a plain backbone has no plan and no arc scores."""

    logits: Tensor
    plan: DepthPlan | None
    arc_probs: Tensor | None


def init_adgnn_params(
    cfg: AdGnnConfig, in_dim: int, num_classes: int, seed: int
) -> dict[str, Tensor]:
    """Glorot weights for the full model.

    Spine: dense0 embeds features, conv1..conv{t_max} aggregate at uniform
    width (stopped rows must stay shape-compatible across layers), and
    dense{t_max + 1} classifies.  Similarity-head and threshold parameters
    ride alongside under non-spine names.
    """
    if in_dim < 1 or num_classes < 1:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    hidden = cfg.backbone.hidden_dim
    params: dict[str, Tensor] = {"dense0.weight": glorot(rng, in_dim, hidden)}
    for t in range(1, cfg.t_max + 1):
        params[f"conv{t}.weight"] = glorot(rng, hidden, hidden)
        if cfg.backbone.kind == "sage_mean":
            params[f"conv{t}.weight_nbr"] = glorot(rng, hidden, hidden)
    params[f"dense{cfg.t_max + 1}.weight"] = glorot(rng, hidden, num_classes)
    params["head.w1"] = glorot(rng, 2 * hidden, _HEAD_HIDDEN)
    params["head.w2"] = glorot(rng, _HEAD_HIDDEN, 1)
    params["threshold.slope_raw"] = tensor([[_INIT_SLOPE_RAW]], requires_grad=True)
    params["threshold.intercept_raw"] = tensor(
        [[_INIT_INTERCEPT_RAW]], requires_grad=True
    )
    return params


def trunk_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """The dense/conv spine alone, runnable by backbones.plain_forward."""
    return {k: v for k, v in params.items() if k.startswith(("dense", "conv"))}


def pair_probability(head: SimilarityHead, h_u: Tensor, h_v: Tensor) -> Tensor:
    """Same-label probability per row pair, in (0, 1), symmetric in its
    arguments.

    One tape node over (h_u, h_v, w1, w2): the forward is
    sigmoid(relu([|h_u - h_v|, h_u * h_v] @ w1) @ w2) and the backward is
    written by hand.
    """
    if h_u.shape != h_v.shape:
        raise ValueError(f"pair shapes differ: {h_u.shape} vs {h_v.shape}")
    if 2 * h_u.shape[1] != head.w1.shape[0]:
        raise ValueError("embedding width does not match the head")
    diff = h_u.values - h_v.values
    feats = np.hstack([np.abs(diff), h_u.values * h_v.values])
    z1 = feats @ head.w1.values
    mask = z1 > 0
    r = relu_values(z1)
    p = expit(r @ head.w2.values)
    width = h_u.shape[1]

    def bwd(g):
        # each step and each sum in the order the sigmoid, matmul, relu,
        # matmul, hstack, product and |difference| rules would take them,
        # so the gradients round exactly as that chain of nodes would;
        # r @ w2 has inner size 1, so its matmul rule's g2 @ w2.T is one
        # product per element, which the broadcast gives bit for bit
        g2 = g * p * (1.0 - p)
        g_z1 = (g2 * head.w2.values.T) * mask
        g_feats = g_z1 @ head.w1.values.T
        g_abs, g_mul = g_feats[:, :width], g_feats[:, width:]
        sign = np.sign(diff)
        return (g_mul * h_v.values + g_abs * sign if h_u.requires_grad else None,
                g_mul * h_u.values + -g_abs * sign if h_v.requires_grad else None,
                feats.T @ g_z1 if head.w1.requires_grad else None,
                r.T @ g2 if head.w2.requires_grad else None)

    out = _out(p, h_u, h_v, head.w1, head.w2)
    return _emit(out, (h_u, h_v, head.w1, head.w2), bwd)


def expected_label_counts(
    graph: Graph, arc_probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expected same-label and opposite-label neighbor counts per node.

    arc_probs holds one probability per directed arc, aligned with
    graph.csr_neighbors.  The two counts sum to the degree exactly.
    """
    p = np.asarray(arc_probs, dtype=np.float64).reshape(-1)
    if p.shape != graph.csr_neighbors.shape:
        raise ValueError("need one probability per directed arc")
    d_plus = np.bincount(
        graph.arc_sources(), weights=p, minlength=graph.num_nodes
    )
    return d_plus, degrees(graph) - d_plus


def _curve_sigmoid(tf: ThresholdFunction, t_max: int) -> np.ndarray:
    """sigmoid(softplus(slope_raw) * t + intercept_raw) for t = 1..t_max."""
    t = np.arange(1, t_max + 1, dtype=np.float64)
    slope = np.logaddexp(0.0, tf.slope_raw.item())
    return expit(slope * t + tf.intercept_raw.item())


def threshold_values(tf: ThresholdFunction, t_max: int) -> np.ndarray:
    """tau(1..t_max), monotone non-decreasing within [lambda_weight, 1]."""
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    theta = _curve_sigmoid(tf, t_max)
    return tf.lambda_weight + (1.0 - tf.lambda_weight) * theta


def assign_stopping_depths(
    normalized_scores: np.ndarray, thresholds: np.ndarray
) -> DepthPlan:
    """T(v) = largest layer t with score_v >= tau(t), 0 when none.

    Computed as a literal max so arbitrary threshold arrays behave; with a
    monotone tau this equals the count of accepted layers.
    """
    eps = np.asarray(normalized_scores, dtype=np.float64).reshape(-1)
    tau = np.asarray(thresholds, dtype=np.float64).reshape(-1)
    hit = eps[:, None] >= tau[None, :]
    any_hit = hit.any(axis=1)
    last = tau.size - np.argmax(hit[:, ::-1], axis=1)
    depth = np.where(any_hit, last, 0).astype(np.int64)
    return DepthPlan(depth, eps, int(tau.size))


def structural_scores(graph: Graph, key: str) -> np.ndarray:
    """Per-arc scores of a structural source, "degree" or a heuristic name.

    They depend only on the graph, so the graph keeps them: a training
    loop pays for betweenness and friends once, not per epoch.
    """
    return graph.cached(("scores", key), lambda: degree_similarity(graph) if key == "degree"
                        else heuristic_similarity(graph, key))


def _arc_probabilities(
    cfg: AdGnnConfig, params: dict[str, Tensor], graph: Graph, h0: Tensor
) -> Tensor:
    if cfg.variant == "learned":
        edges = graph.edges()
        h_u = row_gather(h0, edges[:, 0])
        h_v = row_gather(h0, edges[:, 1])
        # the pair features are exactly symmetric, so an arc's score is the
        # score of its edge bit for bit
        head = SimilarityHead(params["head.w1"], params["head.w2"])
        probs = pair_probability(head, h_u, h_v)
        return row_gather(probs, graph.arc_edges)
    key = "degree" if cfg.variant == "fast_degree" else cfg.heuristic_name
    return tensor(structural_scores(graph, key).reshape(-1, 1))


def _soft_scores(
    arc_probs: Tensor, graph: Graph, deg: np.ndarray, t_max: int
) -> Tensor:
    """Normalized depth scores as one tape node: the one score path.

    The forward is the closed form (expected_label_counts, estimated_alpha,
    log_benefit_scores, minmax_normalize), so the soft gates and the plan
    read the same values.  The backward differentiates it by hand.  A
    sentinel node (-inf log benefit) scores 0 and gets no gradient; the
    subgradient of the min-max range flows to the first live minimizer and
    maximizer.  With no live node or a zero range the scores carry no
    gradient and stay off the tape.
    """
    d_plus, d_minus = expected_label_counts(graph, arc_probs.values)
    alpha = estimated_alpha(d_plus, d_minus, deg)
    score = log_benefit_scores(alpha, deg, t_max)
    eps = minmax_normalize(score)
    live = np.flatnonzero(np.isfinite(score))
    if live.size == 0:
        return tensor(eps)
    lo = live[np.argmin(score[live])]
    hi = live[np.argmax(score[live])]
    span = score[hi] - score[lo]
    if span == 0.0:
        return tensor(eps)

    def bwd(g):
        # eps_v = (s_v - s_lo) / span on the live rows
        g_live = g[live, 0]
        g_score = np.zeros_like(score)
        g_score[live] = g_live / span
        g_score[lo] += g_live @ (eps[live] - 1.0) / span
        g_score[hi] -= g_live @ eps[live] / span
        # s_v = t_max (2 ln|alpha_v| + c_v), d alpha_v / d d+_v = 2 / (d_v + 1)
        g_alpha = np.zeros_like(score)
        g_alpha[live] = 2.0 * t_max * g_score[live] / alpha[live]
        g_d_plus = g_alpha * 2.0 / (deg + 1.0)
        return (g_d_plus[graph.arc_sources()].reshape(-1, 1),)

    return _emit(_out(eps, arc_probs), (arc_probs,), bwd)


def _thresholds(tf: ThresholdFunction, t_max: int) -> Tensor:
    """tau(1..t_max) as one (t_max, 1) tape node: the one threshold path.

    The forward is threshold_values, so the soft gates and the plan read
    the same thresholds.  The backward sums each layer's term into the two
    raw parameters, newest layer first, and applies the softplus
    derivative to the slope once.
    """
    theta = _curve_sigmoid(tf, t_max).reshape(-1, 1)
    tau = threshold_values(tf, t_max).reshape(-1, 1)
    t = np.arange(1, t_max + 1, dtype=np.float64).reshape(-1, 1)

    def bwd(g):
        # d tau_t / d z_t with z_t = softplus(slope_raw) * t + intercept_raw
        g_z = g * (1.0 - tf.lambda_weight) * theta * (1.0 - theta)
        # a running sum adds the layers strictly newest first; np.sum
        # would pair them and round differently
        g_intercept = np.cumsum(g_z[::-1])[-1]
        g_slope = np.cumsum((g_z * t)[::-1])[-1] * expit(tf.slope_raw.values)
        return (g_slope if tf.slope_raw.requires_grad else None,
                g_intercept.reshape(1, 1) if tf.intercept_raw.requires_grad else None)

    return _emit(_out(tau, tf.slope_raw, tf.intercept_raw),
                 (tf.slope_raw, tf.intercept_raw), bwd)


def _soft_gate(
    eps: Tensor, tau: Tensor, t: int, temperature: float, update: Tensor, h: Tensor
) -> Tensor:
    """h + sigmoid((eps - tau_t) / temperature) * (update - h) as one tape
    node: a row whose score clears layer t's threshold takes the update,
    a row below it keeps h."""
    inv_temp = 1.0 / temperature
    s = expit((eps.values - tau.values[t - 1, 0]) * inv_temp)
    diff = update.values - h.values

    def bwd(g):
        g_update = g * s
        # sum the columns by a matmul with a ones column: .sum(axis=1)
        # pairs them differently and moves the tables in the last bits
        g_s = (g * diff) @ np.ones((diff.shape[1], 1))
        g_eps = g_s * s * (1.0 - s) * inv_temp
        g_tau = np.zeros_like(tau.values)
        g_tau[t - 1, 0] = (-g_eps).sum()
        # h is listed twice so its two terms reach it one at a time
        return (g, g_update, -g_update,
                g_eps if eps.requires_grad else None,
                g_tau if tau.requires_grad else None)

    out = _out(h.values + s * diff, h, update, eps, tau)
    return _emit(out, (h, update, h, eps, tau), bwd)


def _sliced_rows(active: np.ndarray) -> np.ndarray | None:
    """The rows a hard-gated layer computes when it computes its active
    rows alone, or None when it computes every row.  The cut at one half
    sits between the two measured cases: slicing pays where 8% of rows
    are active (learned_t32), and a prototype that sliced every layer
    with a frozen row lost time where 99.6% are (heuristics_500).  Where
    between them slicing stops paying has not been measured."""
    if 2 * np.count_nonzero(active) > active.size:
        return None
    return np.flatnonzero(active)


def forward(
    cfg: AdGnnConfig,
    params: dict[str, Tensor],
    graph: Graph,
    x: Tensor,
    dropout_rng: np.random.Generator | None = None,
    depth_override: np.ndarray | None = None,
    temperature: float | None = None,
) -> ForwardResult:
    """Full gated pass: embed, score, plan, t_max gated convs, classify.

    Stopped nodes keep frozen rows that active neighbors continue to read,
    so an active node always aggregates its entire neighborhood at full
    normalization; filtering decides who receives fresh messages, not what
    they read.  The gates are soft at `temperature` and hard when it is
    None.  depth_override forces the plan (hard gating only).

    The head runs once, with its real weights, and its arc scores are
    returned for the pair loss.  Soft gating differentiates the depth
    scores through them; hard gating reads them as constants, so the
    score and threshold nodes stay off the tape.
    """
    if x.shape[0] != graph.num_nodes:
        raise ValueError("feature rows must match node count")
    soft = temperature is not None
    if soft and not (np.isfinite(temperature) and temperature > 0.0):
        raise ValueError("temperature must be finite and positive")
    if depth_override is not None and soft:
        raise ValueError("forced depth plans run hard gating")

    bb = cfg.backbone
    h0 = dense_forward(
        bb, {"weight": params["dense0.weight"]}, x, True, dropout_rng
    )
    arc_probs = _arc_probabilities(cfg, params, graph, h0)

    deg = degrees(graph).astype(np.float64)
    scored = arc_probs if soft else tensor(arc_probs.values)
    eps = _soft_scores(scored, graph, deg, cfg.t_max)
    tf = ThresholdFunction(
        cfg.lambda_weight, params["threshold.slope_raw"], params["threshold.intercept_raw"]
    )
    tau = _thresholds(tf, cfg.t_max) if soft else tensor(threshold_values(tf, cfg.t_max))
    plan = (
        assign_stopping_depths(eps.values[:, 0], tau.values) if depth_override is None
        else DepthPlan(np.asarray(depth_override), eps.values[:, 0], cfg.t_max)
    )

    h = h0
    for t in range(1, cfg.t_max + 1):
        layer = {"weight": params[f"conv{t}.weight"]}
        if bb.kind == "sage_mean":
            layer["weight_nbr"] = params[f"conv{t}.weight_nbr"]
        if soft:
            update = layer_forward(bb, layer, graph, h, True, dropout_rng)
            h = _soft_gate(eps, tau, t, temperature, update, h)
            continue
        active = plan.active_nodes(t)
        update = layer_forward(bb, layer, graph, h, True, dropout_rng, _sliced_rows(active))
        h = merge_rows(h, active, update)

    logits = dense_forward(
        bb,
        {"weight": params[f"dense{cfg.t_max + 1}.weight"]},
        h,
        False,
        dropout_rng,
    )
    return ForwardResult(logits, plan, arc_probs)


def regularization_loss(
    arc_probs: Tensor, arcs: np.ndarray, same_label: np.ndarray
) -> Tensor:
    """Mean binary cross-entropy of the forward's arc scores at `arcs`
    against the label-agreement indicator `same_label`, one entry per arc.

    The training loop passes one arc per train-train edge, so the head
    learns from exactly the scores the plan cuts.  An empty arc set
    contributes a constant zero."""
    if len(arcs) == 0:
        return tensor([[0.0]])
    return binary_cross_entropy(row_gather(arc_probs, arcs), same_label)


def total_loss(task_loss: Tensor, reg_loss: Tensor) -> Tensor:
    """Task loss plus the unweighted pair loss of the learned head."""
    return add(task_loss, reg_loss)
