"""Dense 2-d tensors with reverse-mode differentiation.

Just enough machinery to train the models in this package: a Tensor wraps a
float64 numpy array, primitives record their backward rules onto an active
Tape, and backward() replays the tape once in reverse.  Graph aggregation is
the only sparse piece: one primitive, spmm, multiplies by the scipy.sparse
operator it is handed, and its backward rule by the transpose handed with
it.  Which operators exist, and how long they are kept, is the graph's
business (``graph.aggregation_operator``); this module knows no graph.

Tensors are strictly 2-d and nothing broadcasts: the operands of an
elementwise op have equal shapes.  A Tape belongs to a single forward/backward
cycle on a single worker; tensors created outside any tape are plain immutable
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "OptimizerState",
    "tensor",
    "backward",
    "matmul",
    "add",
    "relu",
    "relu_values",
    "row_gather",
    "merge_rows",
    "dropout",
    "spmm",
    "softmax_cross_entropy",
    "binary_cross_entropy",
    "init_optimizer",
    "adam_step",
    "PROB_EPS",
]

# clamp applied to probabilities before any log
PROB_EPS = 1e-7

_ACTIVE_TAPE: "Tape | None" = None


class Tensor:
    """A 2-d float64 value, optionally tracked for differentiation."""

    __slots__ = ("values", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError("tensors are 2-d (rows, cols)")
        self.values = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError("item() on a non-scalar tensor")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(values, requires_grad: bool = False) -> Tensor:
    return Tensor(values, requires_grad=requires_grad)


class Tape:
    """Recording of primitive applications in execution (topological) order.

    Use as a context manager around the forward pass; only one tape may be
    recording at a time.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("another tape is already recording")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self._nodes)

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
        self._nodes.append((out, inputs, backward_fn))


def _emit(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _ACTIVE_TAPE is not None and out.requires_grad and not _ACTIVE_TAPE._consumed:
        _ACTIVE_TAPE._record(out, inputs, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Propagate d(loss)/d(tensor) through the tape, newest node first.

    Each node's backward rule returns one gradient per input (None for an
    input that needs none); the gradients of one tensor are summed in
    reverse tape order, then input order within a node.  Returns the
    gradients of the inputs the tape did not produce, its leaves.  Nothing
    is stored on the tensors, so every call starts from zero.  The tape is
    consumed: a second backward raises.
    """
    if tape._consumed:
        raise RuntimeError("tape already consumed by a previous backward")
    if not tape._nodes:
        raise RuntimeError("backward before any forward was recorded")
    if loss.shape != (1, 1):
        raise ValueError("loss must be a (1, 1) scalar tensor")
    if not any(out is loss for out, _, _ in tape._nodes):
        raise RuntimeError("loss was not produced on this tape")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones((1, 1))}
    for out, inputs, backward_fn in reversed(tape._nodes):
        # every consumer of `out` sits later on the tape, so its gradient
        # is complete here and no longer needed afterwards
        g = grads.pop(out, None)
        if g is None:
            continue
        for t, g_in in zip(inputs, backward_fn(g)):
            if g_in is not None:
                grads[t] = g_in if t not in grads else grads[t] + g_in
    tape._consumed = True
    tape._nodes.clear()
    return grads


def _out(values: np.ndarray, *inputs: Tensor) -> Tensor:
    # a node is recorded only when its output requires grad, so the rule of
    # a one-input primitive never needs to check its input
    t = Tensor(values, requires_grad=any(i.requires_grad for i in inputs))
    return t


def _rows_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # numpy hands a one-row product to gemv, whose sums can round unlike
    # the rows of gemm; doubling the row keeps it on gemm, as every other
    # row count is.  BLAS does not promise that gemm rounds a row alike at
    # every row count, though OpenBLAS 0.3.31 on x86_64 did at width 16
    if a.shape[0] == 1:
        return (np.vstack([a, a]) @ b)[:1]
    return a @ b


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dims {a.shape} vs {b.shape}")
    out = _out(_rows_product(a.values, b.values), a, b)

    def bwd(g):
        return (_rows_product(g, b.values.T) if a.requires_grad else None,
                a.values.T @ g if b.requires_grad else None)

    return _emit(out, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = _out(a.values + b.values, a, b)

    def bwd(g):
        return (g if a.requires_grad else None,
                g if b.requires_grad else None)

    return _emit(out, (a, b), bwd)


def relu_values(x: np.ndarray) -> np.ndarray:
    """max(x, 0) with NaN and -0.0 mapped to +0.0, bit for bit
    np.where(x > 0, x, 0.0) without its per-element branch: fmax drops the
    NaN, and adding +0.0 turns -0.0 into +0.0 and leaves the rest."""
    out = np.fmax(x, 0.0)
    out += 0.0
    return out


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0
    out = _out(relu_values(a.values), a)

    def bwd(g):
        return (g * mask,)

    return _emit(out, (a,), bwd)


def row_gather(a: Tensor, indices: np.ndarray) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("row_gather: indices must be 1-d")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ValueError("row_gather: index out of range")
    out = _out(a.values[idx], a)

    def bwd(g):
        # one bin per (row, column) of `a`; a repeated index sums its
        # gradient rows in index order
        rows, cols = a.shape
        bins = (idx[:, None] * cols + np.arange(cols)).ravel()
        acc = np.bincount(bins, weights=g.ravel(), minlength=rows * cols)
        return (acc.reshape(rows, cols),)

    return _emit(out, (a,), bwd)


def merge_rows(h: Tensor, active: np.ndarray, update: Tensor) -> Tensor:
    """`h` with its active rows taken from `update`, which holds every row
    or the active rows alone, in order.  Gradients route to the taken rows
    of `update` and to the other rows of `h`."""
    sel = np.asarray(active, dtype=bool)
    idx = np.flatnonzero(sel)
    if (sel.shape != (h.shape[0],) or update.shape[1] != h.shape[1]
            or update.shape[0] not in (h.shape[0], idx.size)):
        raise ValueError("merge_rows: one flag per row of h, and update rows "
                         "for every row or for the active ones")
    if update.shape[0] == h.shape[0]:
        mask = sel[:, None]
        values = np.where(mask, update.values, h.values)

        def bwd(g):
            return (g * ~mask if h.requires_grad else None,
                    g * mask if update.requires_grad else None)
    else:
        values = h.values.copy()
        values[idx] = update.values

        def bwd(g):
            g_h = g.copy()
            g_h[idx] = 0.0
            return (g_h if h.requires_grad else None,
                    g[idx] if update.requires_grad else None)

    return _emit(_out(values, h, update), (h, update), bwd)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with the mask drawn from `rng` and saved for backward."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    if rate == 0.0:
        return a
    keep = rng.random(a.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out = _out(a.values * keep * scale, a)

    def bwd(g):
        return (g * keep * scale,)

    return _emit(out, (a,), bwd)


# ---------------------------------------------------------------------------
# sparse aggregation


def spmm(op, op_t, h: Tensor) -> Tensor:
    """op @ h for a scipy.sparse operator `op`; the backward multiplies by
    `op_t`, which must be the transpose of `op`."""
    if op.shape[1] != h.shape[0]:
        raise ValueError("operator columns must match feature rows")
    out = _out(op @ h.values, h)

    def bwd(g):
        # graph.aggregation_operator hands a full operator's transpose as
        # CSR and a slice's as its CSC view.  Both add each output row's
        # terms over the rows of g in increasing order: the CSR transpose
        # sums as the CSC view does, and a slice as the full operator does
        # with zeros in the rows left out
        return (op_t @ g,)

    return _emit(out, (h,), bwd)


# ---------------------------------------------------------------------------
# losses


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean cross-entropy of row-softmax against integer labels, over the
    rows selected by `mask`."""
    y = np.asarray(labels, dtype=np.int64)
    m = np.asarray(mask, dtype=bool)
    if y.shape != (logits.shape[0],) or m.shape != y.shape:
        raise ValueError("labels and mask must be 1-d with one entry per row")
    count = int(m.sum())
    if count == 0:
        raise ValueError("loss over an empty mask")
    z = logits.values
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    logp = z - lse
    rows = np.nonzero(m)[0]
    out = _out(np.array([[-logp[rows, y[rows]].mean()]]), logits)

    def bwd(g):
        grad = np.exp(logp)
        grad[rows, y[rows]] -= 1.0
        grad *= m[:, None] / count
        return (grad * g[0, 0],)

    return _emit(out, (logits,), bwd)


def binary_cross_entropy(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy with probabilities clamped to
    [PROB_EPS, 1 - PROB_EPS] before the logs."""
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t.reshape(-1, 1)
    if t.shape != probs.shape:
        raise ValueError("targets must match probability shape")
    if probs.values.size == 0:
        raise ValueError("loss over an empty probability set")
    p = np.clip(probs.values, PROB_EPS, 1.0 - PROB_EPS)
    inside = (probs.values > PROB_EPS) & (probs.values < 1.0 - PROB_EPS)
    value = -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)).mean()
    out = _out(np.array([[value]]), probs)

    def bwd(g):
        grad = (p - t) / (p * (1.0 - p)) / p.size
        return (grad * inside * g[0, 0],)

    return _emit(out, (probs,), bwd)


# ---------------------------------------------------------------------------
# optimizer


# Adam's moment decay rates and denominator guard
_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adam accumulators; one slot per parameter name."""

    lr: float
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def init_optimizer(params: dict[str, Tensor], lr: float = 0.01) -> OptimizerState:
    state = OptimizerState(lr=lr)
    for name, p in params.items():
        state.first_moment[name] = np.zeros_like(p.values)
        state.second_moment[name] = np.zeros_like(p.values)
    return state


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
) -> dict[str, Tensor]:
    """One bias-corrected Adam update, in place.

    Parameters with no gradient entry are skipped.
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.values.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        m_hat = m / (1.0 - _BETA1**t)
        v_hat = v / (1.0 - _BETA2**t)
        p.values -= state.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    return params
