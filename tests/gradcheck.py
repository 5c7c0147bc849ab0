"""Central finite-difference gradient oracle shared by the test suite."""

import numpy as np

from adgnn.autodiff import Tape, _emit, _out, backward

FD_STEP = 1e-4
REL_TOL = 1e-4


def weighted_mean(out, weight):
    """(out * weight).mean() as one tape node: the scalar the gradchecks
    differentiate.  A random full-rank weight reaches every entry of `out`
    with its own coefficient; the package itself never needs this node."""
    if out.shape != weight.shape:
        raise ValueError(f"weight shape {weight.shape} differs from {out.shape}")
    loss = _out(np.array([[(out.values * weight.values).mean()]]), out, weight)

    def bwd(g):
        scale = np.full(out.shape, g[0, 0] / out.values.size)
        return (scale * weight.values if out.requires_grad else None,
                scale * out.values if weight.requires_grad else None)

    return _emit(loss, (out, weight), bwd)


def fd_gradients(evaluate, arrays, h=FD_STEP):
    """Numeric d(evaluate)/d(array) for each array, by central differences.

    `evaluate` is a zero-argument callable returning a float; it must read
    the arrays in place so the perturbations are visible.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gflat = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = evaluate()
            flat[i] = orig - h
            down = evaluate()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def rel_error(analytic, numeric):
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0))
    return np.abs(analytic - numeric).max(initial=0.0) / (scale + 1e-10)


def check_gradients(build_loss, leaf_tensors, h=FD_STEP):
    """Compare reverse-mode gradients of build_loss() against the
    finite-difference oracle; returns the worst relative error.

    `build_loss` must construct the loss tensor from `leaf_tensors` anew on
    every call (pure function of the leaf values).
    """
    with Tape() as tape:
        loss = build_loss()
    grads = backward(tape, loss)
    analytic = [grads.get(t, np.zeros_like(t.values)) for t in leaf_tensors]

    def evaluate():
        return build_loss().item()

    numeric = fd_gradients(evaluate, [t.values for t in leaf_tensors], h=h)
    return max(rel_error(a, n) for a, n in zip(analytic, numeric))
