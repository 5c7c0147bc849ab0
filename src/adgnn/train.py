"""Training loop and evaluation metrics.

Trains either a plain backbone or the adaptive-depth model with Adam on
the combined objective, selects the parameter snapshot at the best
validation accuracy, and reports that seed's test accuracy.
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
    "accuracy",
    "fit_model",
]

# Soft-gate temperature schedule: start at 0.1, halve every 25 epochs,
# never below 1e-3.  Anneal fast enough that a default-length run reaches
# the near-hard regime with room to spare.  Evaluation is always hard, so
# a soft epoch's training forward cannot stand in for it: a checkpoint
# selected while the gates are still warm feeds the classifier blended
# rows, and the frozen rows it meets at eval time look nothing like them.
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
    epochs: int = 150
    # 0.02 trains the shallow models marginally faster but destabilizes
    # tall trunks: the first Adam step after the initial val peak can be
    # large enough to knock a 32-layer run into a regime it never leaves.
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


def _temperature(soft: bool, epoch: int) -> float | None:
    """Epoch `epoch`'s gate temperature: None (hard) for a hard-gated run
    and through the warm-up, then the anneal schedule."""
    if not soft or epoch < _GATE_WARMUP_EPOCHS:
        return None
    halvings = (epoch - _GATE_WARMUP_EPOCHS) // _ANNEAL_EVERY
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
    plan and no arc scores.  rng None applies no dropout, and neither does
    a backbone whose dropout is 0.  An adaptive model gates soft at
    `temperature` and hard when it is None."""
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

    Each epoch is evaluated by a hard, dropout-free forward of the
    parameters after its step.  The next epoch's training forward is that
    computation when it gates hard at dropout 0, and then serves as the
    evaluation: a hard-gated run makes epochs + 1 forwards.  The test
    accuracy, mean depth and histogram come from the selected epoch's
    evaluation, so they are what the snapshot gives again.  An adaptive
    model gates soft after a hard warm-up, unless a depth override forces
    its plan: then it gates hard at every epoch.  Before any forward, a
    split with an empty role fails, and so does an override on a plain
    backbone or one that is not an integer depth in [0, t_max] per node."""
    graph, features, labels = data
    x = tensor(np.asarray(features, dtype=np.float64))
    y = labels.labels
    for role in ("train", "val", "test"):
        if not getattr(split, role).any():
            raise ValueError(f"the split has no {role} node among "
                             f"{split.roles.size} nodes")
    adaptive = isinstance(cfg, AdGnnConfig)
    soft = adaptive and depth_override is None
    if depth_override is not None:
        if not adaptive:
            raise ValueError("depth_override needs an adaptive model; a plain "
                             "backbone has no depth plan")
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
    best_logits: np.ndarray | None = None
    best_plan: DepthPlan | None = None
    history: list[float] = []

    def record_eval(out: ForwardResult) -> None:
        # `out` evaluates the latest step; the best keeps a parameter copy
        # and its numpy logits and plan, never a taped chain
        nonlocal best_val, best_epoch, best_values, best_logits, best_plan
        val_acc = accuracy(out.logits, y, split.val)
        history.append(val_acc)
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = len(history) - 1
            best_values = {k: p.values.copy() for k, p in params.items()}
            best_logits, best_plan = out.logits.values, out.plan

    no_dropout = (cfg.backbone if adaptive else cfg).dropout == 0.0

    def forward_evaluates(k: int) -> bool:
        # training forward k also evaluates the parameters after step k - 1
        return 0 < k < tc.epochs and no_dropout and _temperature(soft, k) is None

    for epoch in range(tc.epochs):
        # soft gates open after the hard warm-up and anneal from there
        temperature = _temperature(soft, epoch)
        with Tape() as tape:
            out = _forward(cfg, params, graph, x, rng, depth_override, temperature)
            loss = softmax_cross_entropy(out.logits, y, split.train)
            if needs_reg:
                reg = regularization_loss(out.arc_probs, pair_arcs, same_label)
                loss = total_loss(loss, reg)
        if forward_evaluates(epoch):
            record_eval(out)
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
        if not forward_evaluates(epoch + 1):
            record_eval(_forward(cfg, params, graph, x, None, depth_override, None))

    plan = best_plan
    result = SeedResult(
        seed=seed,
        test_accuracy=accuracy(best_logits, y, split.test),
        best_val_epoch=best_epoch,
        best_val_accuracy=best_val,
        val_history=tuple(history),
        mean_stopping_depth=float("nan") if plan is None else plan.mean_depth(),
        depth_histogram=() if plan is None else tuple(plan.depth_histogram().tolist()),
    )
    return result, best_values
