"""Training loop, evaluation metrics, and multi-seed aggregation.

Trains either a plain backbone or the adaptive-depth model with Adam on
the combined objective, selects the parameter snapshot at the best
validation accuracy, and reports per-seed test accuracy with mean and
population standard deviation across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tape,
    Tensor,
    adam_step,
    backward,
    init_optimizer,
    softmax_cross_entropy,
    tensor,
)
from .backbones import BackboneConfig, init_params, plain_forward
from .graph import Graph, LabelVector, SplitMask
from .model import (
    AdGnnConfig,
    DepthPlan,
    ForwardResult,
    forward,
    init_adgnn_params,
    regularization_loss,
    total_loss,
)

__all__ = [
    "TrainConfig",
    "SeedResult",
    "RunResult",
    "annealed_temperature",
    "accuracy",
    "fit_model",
    "train_model",
]

# Soft-gate temperature schedule: start at 0.1, halve every 25 epochs,
# never below 1e-3.  Anneal fast enough that a default-length run reaches
# the near-hard regime with room to spare.  Evaluation is always hard; a
# checkpoint selected while the gates are still warm feeds the classifier
# blended rows, and the frozen rows it meets at eval time look nothing
# like them.
_BASE_TEMPERATURE = 0.1
_ANNEAL_EVERY = 25
_ANNEAL_FACTOR = 0.5
_TEMPERATURE_FLOOR = 1e-3

# Soft-gated training starts with this many hard-gated epochs.  Letting
# task gradients reach the similarity head through the gates from epoch 0
# is a seed lottery on tall trunks: the task briefly prefers everyone
# shallow while the deep layers are random, and that pressure either
# saturates the head or shoves it past the zero-agreement singularity,
# where depth assignments blow up and the run never recovers.  Hard gates
# cost nothing here: the head still learns from its own edge loss, the
# trunk still learns from the task, and the gates only start steering
# once both are worth listening to.
_GATE_WARMUP_EPOCHS = 30

# The two depth-policy scalars step at a tenth of the trunk rate.  While
# the deep layers are still random the task loss prefers stopping every
# node shallow; at the full rate that early verdict drags the thresholds
# up faster than the trunk can earn its keep, and best-val selection then
# freezes the crippled gate.
_POLICY_LR_SCALE = 0.1


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    lr: float = 0.01

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError("lr must be finite and positive")


@dataclass(frozen=True)
class SeedResult:
    seed: int
    test_accuracy: float
    best_val_epoch: int
    best_val_accuracy: float
    val_history: tuple[float, ...]
    mean_stopping_depth: float
    depth_histogram: tuple[int, ...]


@dataclass(frozen=True)
class RunResult:
    seed_results: tuple[SeedResult, ...]

    def __post_init__(self) -> None:
        if len(self.seed_results) == 0:
            raise ValueError("a run needs at least one seed result")

    @property
    def accuracies(self) -> np.ndarray:
        return np.array([r.test_accuracy for r in self.seed_results])

    @property
    def mean(self) -> float:
        return float(self.accuracies.mean())

    @property
    def std(self) -> float:
        """Population standard deviation over seeds."""
        return float(self.accuracies.std())


def annealed_temperature(epoch_index: int) -> float:
    """The soft-gate temperature `epoch_index` epochs after the warm-up."""
    halvings = epoch_index // _ANNEAL_EVERY
    return max(_BASE_TEMPERATURE * _ANNEAL_FACTOR ** halvings, _TEMPERATURE_FLOOR)


def accuracy(logits, labels: np.ndarray, mask: np.ndarray) -> float:
    """Argmax match rate over the masked rows; argmax takes the lowest
    class index on ties."""
    vals = logits.values if isinstance(logits, Tensor) else np.asarray(logits)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("empty evaluation mask")
    pred = np.argmax(vals[mask], axis=1)
    return float((pred == np.asarray(labels)[mask]).mean())


def _forward(cfg, params, graph, x, rng, depth_override, temperature) -> ForwardResult:
    """One pass of the model `cfg` builds; a plain backbone's result has no
    plan and no arc scores.  rng None is the evaluation pass: no dropout.
    An adaptive model gates soft at `temperature` and hard when it is None."""
    if isinstance(cfg, BackboneConfig):
        logits = plain_forward(cfg, params, graph, x, dropout_rng=rng)
        return ForwardResult(logits, None, None)
    return forward(cfg, params, graph, x, dropout_rng=rng,
                   depth_override=depth_override, temperature=temperature)


def fit_model(
    cfg: AdGnnConfig | BackboneConfig,
    data: tuple[Graph, np.ndarray, LabelVector],
    split: SplitMask,
    tc: TrainConfig,
    seed: int,
    depth_override: np.ndarray | None = None,
) -> tuple[SeedResult, dict[str, np.ndarray]]:
    """Train one seed and return its result plus the selected parameter
    values (the snapshot at the best validation epoch).

    The test accuracy and the plan behind the mean depth and histogram
    come from the selected epoch's own evaluation pass.  That pass has no
    dropout and gates hard, so it is what the snapshot gives again: no
    forward runs after the epoch loop.  A depth override is a plan for
    the hard-gated adaptive model; a plain backbone or soft gating rejects
    it, and so does a plan that is not one integer depth in [0, t_max]
    per node, before any epoch runs."""
    graph, features, labels = data
    x = tensor(np.asarray(features, dtype=np.float64))
    y = labels.labels
    adaptive = isinstance(cfg, AdGnnConfig)
    soft = adaptive and cfg.gating == "soft"
    if depth_override is not None:
        if not adaptive:
            raise ValueError("depth_override needs an adaptive model; a plain "
                             "backbone has no depth plan")
        if soft:
            raise ValueError("forced depth plans run hard gating")
        # the plan every forward builds from the override, checked once
        # before any epoch runs
        DepthPlan(np.asarray(depth_override), np.zeros(graph.num_nodes), cfg.t_max)
    init = init_adgnn_params if adaptive else init_params
    params = init(cfg, x.shape[1], labels.num_classes, seed)
    policy = {n: p for n, p in params.items() if n.startswith("threshold.")}
    trunk = {n: p for n, p in params.items() if n not in policy}
    state = init_optimizer(trunk, lr=tc.lr)
    policy_state = (
        init_optimizer(policy, lr=tc.lr * _POLICY_LR_SCALE) if policy else None
    )
    rng = np.random.default_rng(seed)
    needs_reg = adaptive and cfg.variant == "learned"
    if needs_reg:
        # the pair loss reads one arc per train-train edge: u -> v with
        # u < v, in graph.edges() order
        src, dst = graph.arc_sources(), graph.csr_neighbors
        pair_arcs = np.flatnonzero((src < dst) & split.train[src] & split.train[dst])
        same_label = y[src[pair_arcs]] == y[dst[pair_arcs]]

    best_val = -1.0
    best_epoch = -1
    best_values: dict[str, np.ndarray] = {}
    best_out: ForwardResult | None = None
    history: list[float] = []
    for epoch in range(tc.epochs):
        # soft gates open after the hard warm-up and anneal from there;
        # evaluation always gates hard
        temperature = (
            annealed_temperature(epoch - _GATE_WARMUP_EPOCHS)
            if soft and epoch >= _GATE_WARMUP_EPOCHS else None
        )
        with Tape() as tape:
            out = _forward(cfg, params, graph, x, rng, depth_override, temperature)
            loss = softmax_cross_entropy(out.logits, y, split.train)
            if needs_reg:
                reg = regularization_loss(out.arc_probs, pair_arcs, same_label)
                loss = total_loss(loss, reg)
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise RuntimeError(
                f"training diverged: non-finite loss {loss_value!r} at epoch "
                f"{epoch} (seed {seed}, lr {tc.lr})"
            )
        leaf_grads = backward(tape, loss)
        named_grads = {
            name: leaf_grads[p] for name, p in params.items() if p in leaf_grads
        }
        adam_step(trunk, named_grads, state)
        if policy_state is not None:
            adam_step(policy, named_grads, policy_state)

        val_out = _forward(cfg, params, graph, x, None, depth_override, None)
        val_acc = accuracy(val_out.logits, y, split.val)
        history.append(val_acc)
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_values = {k: p.values.copy() for k, p in params.items()}
            best_out = val_out

    plan = best_out.plan
    result = SeedResult(
        seed=seed,
        test_accuracy=accuracy(best_out.logits, y, split.test),
        best_val_epoch=best_epoch,
        best_val_accuracy=best_val,
        val_history=tuple(history),
        mean_stopping_depth=float("nan") if plan is None else plan.mean_depth(),
        depth_histogram=() if plan is None else tuple(plan.depth_histogram().tolist()),
    )
    return result, best_values


def train_model(
    cfg: AdGnnConfig | BackboneConfig,
    data: tuple[Graph, np.ndarray, LabelVector],
    split: SplitMask,
    tc: TrainConfig,
    seed: int,
    depth_override: np.ndarray | None = None,
) -> SeedResult:
    return fit_model(cfg, data, split, tc, seed, depth_override)[0]
