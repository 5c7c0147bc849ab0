"""Contextual stochastic block model sampling.

Two-class graphs with Bernoulli edges (intra-class probability p_in,
inter-class p_out) and Gaussian node features centered on a per-class
prototype.  Also provides the local neighborhood sampler used by the
Monte Carlo oracles in :mod:`adgnn.theory`: rather than a whole graph, it
draws batches of one node's feature vector together with the summed
features of a neighborhood whose label composition is fixed in advance.
The neighbor draws stream through one small reused buffer, so no
(trials, degree, dim) array is ever built.

Randomness is split into two named counter-based streams (structure,
features) spawned from the user seed, so regenerating features never
perturbs the topology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, LabelVector, NodeProfile, build_graph

__all__ = [
    "CsbmParams",
    "ClassStats",
    "sample_graph",
    "homophily_from_target",
    "measured_edge_homophily",
    "sample_neighborhood_batch",
    "canonical_prototypes",
]

# doubles per neighbor-draw buffer, and about the uniforms per block of
# sample_graph's pair draw: small enough to stay in cache while
# it is filled, scaled and summed, large enough that each refill
# amortizes its per-call overhead.  Three single-layer oracle calls
# (degrees 3, 15 and 20, 100,000 trials) took 1.86, 1.87 and 1.85 s at
# 8 K, 32 K and 128 K doubles, against 2.28 s with every neighbor
# materialized (one core of a 2-core x86 host)
_DRAW_BUFFER = 32_768


@dataclass(frozen=True)
class CsbmParams:
    """Full description of one contextual SBM instance."""

    n0: int
    n1: int
    mu0: np.ndarray
    mu1: np.ndarray
    sigma: float
    p_in: float
    p_out: float

    def __post_init__(self) -> None:
        mu0 = np.asarray(self.mu0, dtype=np.float64)
        mu1 = np.asarray(self.mu1, dtype=np.float64)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "mu1", mu1)
        if self.n0 < 0 or self.n1 < 0 or self.n0 + self.n1 == 0:
            raise ValueError("class sizes must be non-negative and not both zero")
        if mu0.ndim != 1 or mu0.shape != mu1.shape:
            raise ValueError("prototypes must be 1-d vectors of equal dimension")
        if not np.all(np.isfinite(mu0)) or not np.all(np.isfinite(mu1)):
            raise ValueError(f"prototype entries must be finite, got {mu0} and {mu1}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and non-negative, got {self.sigma}")
        for p in (self.p_in, self.p_out):
            if not 0.0 <= p <= 1.0:
                raise ValueError("edge probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class ClassStats:
    """The two scalars the depth-benefit theory needs from a feature model:
    squared prototype separation and intra-class noise variance."""

    delta_sq: float
    sigma_sq: float

    def __post_init__(self) -> None:
        for name in ("delta_sq", "sigma_sq"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    struct_seq, feat_seq = np.random.SeedSequence(seed).spawn(2)
    return (
        np.random.Generator(np.random.Philox(struct_seq)),
        np.random.Generator(np.random.Philox(feat_seq)),
    )


def sample_graph(params: CsbmParams, seed: int) -> tuple[Graph, np.ndarray, LabelVector]:
    """Draw one graph, its feature matrix, and its labels.

    Nodes 0..n0-1 carry label 0, the rest label 1.  Identical seeds give
    bit-identical output.

    Pair (i, j), i < j, is an edge when its uniform from the structure
    stream is below p_in (same label) or p_out.  The uniforms are drawn in
    row-major upper-triangle order, (0, 1), (0, 2), ..., (1, 2), ..., in
    blocks of whole rows of about _DRAW_BUFFER pairs.  Each block's draw
    continues the stream where the last one stopped, so the block size
    does not change the draw: it is the draw of one row at a time.
    """
    struct_rng, feat_rng = _streams(seed)
    n = params.n0 + params.n1
    y = np.concatenate([
        np.zeros(params.n0, dtype=np.int64),
        np.ones(params.n1, dtype=np.int64),
    ])

    # row i of the upper triangle holds pairs (i, i+1..n-1); starts[i] is
    # its first pair's place in the row-major flattening
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1), out=starts[1:])
    p_max = max(params.p_in, params.p_out)
    rows = [np.empty(0, dtype=np.int64)]
    cols = [np.empty(0, dtype=np.int64)]
    a = 0
    while a < n - 1:
        # rows a..b-1: whole rows, at least one, at most about _DRAW_BUFFER pairs
        b = max(a + 1, int(np.searchsorted(starts, starts[a] + _DRAW_BUFFER, "right")) - 1)
        u = struct_rng.random(starts[b] - starts[a])
        pos = np.flatnonzero(u < p_max)
        k = pos + starts[a]
        i = a - 1 + np.searchsorted(starts[a:b], k, "right")
        j = i + 1 + k - starts[i]
        hit = u[pos] < np.where((i < params.n0) == (j < params.n0), params.p_in, params.p_out)
        rows.append(i[hit])
        cols.append(j[hit])
        a = b
    edges = np.stack([np.concatenate(rows), np.concatenate(cols)], axis=1)
    graph = build_graph(edges, num_nodes=n)

    dim = params.mu0.shape[0]
    features = np.where(y[:, None] == 0, params.mu0, params.mu1)
    features = features + params.sigma * feat_rng.standard_normal((n, dim))
    return graph, features, LabelVector(y, num_classes=2)


def homophily_from_target(
    target_homophily: float,
    mean_degree: float,
    n0: int,
    n1: int,
) -> tuple[float, float]:
    """Invert (edge homophily, mean degree) into (p_in, p_out) in expectation.

    With E[intra edges] = h * total and E[inter edges] = (1 - h) * total,
    dividing by the number of available node pairs of each kind gives the
    Bernoulli rates.  Raises if either rate leaves [0, 1] or a needed pair
    class is empty.
    """
    if not 0.0 <= target_homophily <= 1.0:
        raise ValueError("target homophily must lie in [0, 1]")
    if mean_degree < 0:
        raise ValueError("mean degree must be non-negative")
    n = n0 + n1
    pairs_in = n0 * (n0 - 1) / 2 + n1 * (n1 - 1) / 2
    pairs_out = n0 * n1
    total_edges = n * mean_degree / 2.0
    intra = target_homophily * total_edges
    inter = (1.0 - target_homophily) * total_edges
    if intra > 0 and pairs_in == 0:
        raise ValueError("no intra-class pairs available")
    if inter > 0 and pairs_out == 0:
        raise ValueError("no inter-class pairs available")
    p_in = intra / pairs_in if pairs_in else 0.0
    p_out = inter / pairs_out if pairs_out else 0.0
    if p_in > 1.0 or p_out > 1.0:
        raise ValueError("requested density is infeasible for these class sizes")
    return float(p_in), float(p_out)


def measured_edge_homophily(graph: Graph, labels: LabelVector) -> float:
    """Fraction of edges joining same-label endpoints."""
    if graph.num_edges == 0:
        raise ValueError("homophily is undefined on an edgeless graph")
    edges = graph.edges()
    y = labels.labels
    return float(np.mean(y[edges[:, 0]] == y[edges[:, 1]]))


def canonical_prototypes(delta_sq: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Two prototypes at squared distance delta_sq, symmetric about the
    origin along the first coordinate."""
    if not (np.isfinite(delta_sq) and delta_sq >= 0):
        raise ValueError(f"delta_sq must be finite and non-negative, got {delta_sq}")
    if dim < 1:
        raise ValueError("dim must be positive")
    mu0 = np.zeros(dim)
    mu0[0] = 0.5 * np.sqrt(delta_sq)
    return mu0, -mu0


def sample_neighborhood_batch(
    profile: NodeProfile,
    stats: ClassStats,
    own_label: int,
    trials: int,
    rng: np.random.Generator,
    dim: int = 8,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized neighborhood draws for Monte Carlo estimation.

    Returns (center, neighbor_sum), both (trials, dim): each trial's own
    feature vector and the sum of its degree neighbors' feature vectors.
    The centers are drawn, scaled and shifted in place in `out` when it is
    given (a C-contiguous float64 (trials, dim) array), which is then the
    returned center.
    The draw order is center, then the same-label block, then the
    other-label block, each block trial by trial and row by row, so the
    result is reproducible from the generator state.  Each block is drawn
    whole trials at a time into one reused buffer of about _DRAW_BUFFER
    doubles, scaled and shifted in place, and added into the sum one row
    at a time in that same order.  For dim > 1 these are the additions
    numpy makes when it sums materialized (trials, degree, dim) neighbors
    over their rows; at dim = 1 numpy sums 8 or more rows pairwise, so
    the last bits may differ.  A degree-0 profile gets an all-zero sum.
    """
    if own_label not in (0, 1):
        raise ValueError("own_label must be 0 or 1")
    if trials < 1:
        raise ValueError("trials must be positive")
    if out is None:
        out = np.empty((trials, dim))
    elif not (isinstance(out, np.ndarray) and out.shape == (trials, dim)
              and out.dtype == np.float64 and out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous float64 array of shape "
                         f"{(trials, dim)}, got {out!r:.60}")
    mu0, mu1 = canonical_prototypes(stats.delta_sq, dim)
    own = mu0 if own_label == 0 else mu1
    other = mu1 if own_label == 0 else mu0
    sigma = np.sqrt(stats.sigma_sq)
    center = rng.standard_normal(out=out)
    center *= sigma
    center += own
    if profile.degree == 0:
        return center, np.zeros((trials, dim))
    neighbor_sum = np.empty((trials, dim))
    buffer = np.empty(max(_DRAW_BUFFER, profile.degree * dim))
    first = True
    for mean, count in ((own, profile.d_plus), (other, profile.d_minus)):
        if count == 0:
            continue
        step = buffer.size // (count * dim)
        for a in range(0, trials, step):
            b = min(a + step, trials)
            draws = buffer[: (b - a) * count * dim].reshape(b - a, count, dim)
            rng.standard_normal(out=draws)
            draws *= sigma
            draws += mean
            rows = neighbor_sum[a:b]
            if first:
                rows[...] = draws[:, 0]
            for j in range(1 if first else 0, count):
                rows += draws[:, j]
        first = False
    return center, neighbor_sum
