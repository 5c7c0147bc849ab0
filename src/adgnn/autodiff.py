"""Dense 2-d tensors with reverse-mode differentiation.

Just enough machinery to train the models in this package: a Tensor wraps a
float64 numpy array, primitives record their backward rules onto an active
Tape, and backward() replays the tape once in reverse.  Graph aggregation is
the only sparse piece: one primitive, spmm, multiplies by a scipy.sparse
operator of one of three kinds (mean_self, mean_nbr, symnorm), or by some
of its rows, so its backward rule is multiplication by the transpose.

Tensors are strictly 2-d and nothing broadcasts: the operands of an
elementwise op have equal shapes.  A Tape belongs to a single forward/backward
cycle on a single worker; tensors created outside any tape are plain immutable
values.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graph import Graph, adjacency, degrees

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
    "where_rows",
    "scatter_rows",
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


def where_rows(row_condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Per-row exact selection: row v of `a` where the condition holds,
    row v of `b` elsewhere.  Gradients route to the selected branch only."""
    cond = np.asarray(row_condition, dtype=bool)
    if a.shape != b.shape:
        raise ValueError("where_rows: shape mismatch")
    if cond.shape != (a.shape[0],):
        raise ValueError("where_rows: one condition per row required")
    sel = cond[:, None]
    out = _out(np.where(sel, a.values, b.values), a, b)

    def bwd(g):
        return (g * sel if a.requires_grad else None,
                g * ~sel if b.requires_grad else None)

    return _emit(out, (a, b), bwd)


def scatter_rows(a: Tensor, rows: np.ndarray, update: Tensor) -> Tensor:
    """`a` with row rows[i] replaced by row i of `update`.  The rows are
    strictly increasing; gradients route to the written rows of `update`
    and to the other rows of `a`."""
    idx = np.asarray(rows, dtype=np.int64)
    if idx.ndim != 1 or update.shape != (idx.size, a.shape[1]):
        raise ValueError("scatter_rows: one update row per index required")
    if idx.size and (idx[0] < 0 or idx[-1] >= a.shape[0] or np.any(np.diff(idx) <= 0)):
        raise ValueError("scatter_rows: indices must be increasing and in range")
    values = a.values.copy()
    values[idx] = update.values
    out = _out(values, a, update)

    def bwd(g):
        g_a = None
        if a.requires_grad:
            g_a = g.copy()
            g_a[idx] = 0.0
        return (g_a, g[idx] if update.requires_grad else None)

    return _emit(out, (a, update), bwd)


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


# graph -> {kind -> (operator, its transpose)}, both CSR
_operator_cache: "weakref.WeakKeyDictionary[Graph, dict[str, tuple]]" = weakref.WeakKeyDictionary()
# graph -> {kind -> (rows, those rows of the operator)}: the last row slice
# taken, which later calls reuse while they ask for the same rows
_slice_cache: "weakref.WeakKeyDictionary[Graph, dict[str, tuple]]" = weakref.WeakKeyDictionary()


def _operator(graph: Graph, kind: str) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    cached = _operator_cache.get(graph, {}).get(kind)
    if cached is not None:
        return cached
    adj = adjacency(graph)
    deg = degrees(graph).astype(np.float64)
    n = graph.num_nodes
    if kind == "mean_self":
        op = sp.diags(1.0 / (deg + 1.0)) @ (sp.eye(n, format="csr") + adj)
    elif kind == "mean_nbr":
        inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
        op = sp.diags(inv) @ adj
    elif kind == "symnorm":
        inv_sqrt = 1.0 / np.sqrt(deg + 1.0)
        d = sp.diags(inv_sqrt)
        op = d @ (sp.eye(n, format="csr") + adj) @ d
    else:
        raise ValueError(f"unknown aggregation kind {kind!r}")
    op = op.tocsr()
    pair = (op, op.T.tocsr())
    _operator_cache.setdefault(graph, {})[kind] = pair
    return pair


def _operator_rows(graph: Graph, kind: str, rows: np.ndarray) -> sp.csr_matrix:
    last = _slice_cache.get(graph, {}).get(kind)
    if last is not None and np.array_equal(last[0], rows):
        return last[1]
    op = _operator(graph, kind)[0][rows]
    _slice_cache.setdefault(graph, {})[kind] = (rows.copy(), op)
    return op


def spmm(graph: Graph, h: Tensor, kind: str, rows: np.ndarray | None = None) -> Tensor:
    """`h` aggregated over the graph by the operator of one `kind`.

    mean_self: (h_v + sum of neighbor rows) / (degree + 1); isolated rows
    pass through unchanged.  mean_nbr: the neighbor mean without the self
    term; isolated rows become 0.  symnorm: D^-1/2 (I + A) D^-1/2 with D
    the degree plus one.  With `rows`, only those output rows are
    computed, in that order.
    """
    if h.shape[0] != graph.num_nodes:
        raise ValueError("feature rows must match node count")
    if rows is None:
        op, op_t = _operator(graph, kind)
    else:
        idx = np.asarray(rows, dtype=np.int64)
        if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= graph.num_nodes)):
            raise ValueError("rows must be 1-d node indices")
        op = _operator_rows(graph, kind, idx)
        op_t = op.T
    out = _out(op @ h.values, h)

    def bwd(g):
        # the full operator's transpose is kept as CSR, a slice's is its CSC
        # view.  Both add each output row's terms over the rows of g in
        # increasing order: the CSR transpose sums as the CSC view does,
        # and a slice as the full operator does with zeros in the rows
        # left out
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
