"""Training-free per-edge similarity scores.

Each scorer assigns every directed arc a value in [0, 1], symmetric across
the two directions of an undirected edge, to be used in place of the learned
same-label probability.  The fast variant normalizes degree products by the
maximum; the named structural heuristics are min-max normalized over the
edge set, with an all-equal score vector degenerating to all ones (no
discriminative information; nothing gets filtered).  Betweenness, the
costly one, runs Brandes as sparse-times-dense products over blocks of
sources (see `betweenness_centrality`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import Graph, adjacency, degrees
from .theory import minmax_normalize

__all__ = [
    "HEURISTIC_NAMES",
    "degree_similarity",
    "heuristic_similarity",
    "betweenness_centrality",
    "core_numbers",
    "local_clustering",
]

# sources per algebraic Brandes block: the (n, width) work arrays stay
# small while each sparse product amortizes its per-call overhead
_SOURCE_BLOCK = 64

HEURISTIC_NAMES = (
    "common_neighbors",
    "jaccard",
    "adamic_adar",
    "betweenness_product",
    "kshell_product",
    "clustering_product",
)


def _require_edges(graph: Graph) -> None:
    if graph.num_edges == 0:
        raise ValueError("similarity scores need at least one edge")


def degree_similarity(graph: Graph) -> np.ndarray:
    """Degree-product score per directed arc, scaled so the largest edge
    product is exactly 1."""
    _require_edges(graph)
    deg = degrees(graph)
    products = deg[graph.arc_sources()] * deg[graph.csr_neighbors]
    return products / products.max()


def _arc_entries(matrix: sp.csr_matrix, graph: Graph) -> np.ndarray:
    vals = matrix[graph.arc_sources(), graph.csr_neighbors]
    return np.asarray(vals).reshape(-1)


def _common_neighbor_counts(graph: Graph) -> np.ndarray:
    adj = adjacency(graph)
    return _arc_entries(adj @ adj, graph)


def betweenness_centrality(graph: Graph) -> np.ndarray:
    """Brandes shortest-path betweenness, unnormalized, with each
    unordered pair counted once (undirected convention).

    Level-synchronous algebraic Brandes (Kepner & Gilbert, Graph
    Algorithms in the Language of Linear Algebra, SIAM 2011), run on a
    block of sources at a time.  The forward pass advances all of the
    block's breadth-first searches together: the next level's path counts
    are `A @ frontier` with the already-seen nodes zeroed.  The counts are
    integers, hence exact in float64, and each level keeps one (n, block)
    boolean mask.  The backward pass walks the levels from the farthest
    in, one sparse product per level:
    delta_v = sigma_v * sum over successors u of (1 + delta_u) / sigma_u.

    Cost: a block takes about 2D products of the m-arc adjacency with an
    (n, block) dense matrix, D the largest eccentricity in the block, so
    O(D n m) arithmetic in all against the per-source algorithm's O(n m),
    but every step is a compiled sparse or elementwise kernel.  Memory is
    O(D n block).  A node's dependency sums its successors in one product
    rather than arc by arc, so values may differ from a per-arc Brandes
    (networkx, say) in the last bits.
    """
    n = graph.num_nodes
    adj = adjacency(graph)
    centrality = np.zeros(n)
    for start in range(0, n, _SOURCE_BLOCK):
        sources = np.arange(start, min(start + _SOURCE_BLOCK, n))
        frontier = np.zeros((n, sources.size))
        frontier[sources, np.arange(sources.size)] = 1.0
        sigma = frontier.copy()
        levels = [frontier > 0]
        seen = levels[0].copy()
        while True:
            frontier = adj @ frontier
            frontier[seen] = 0.0
            reached = frontier > 0
            if not reached.any():
                break
            sigma += frontier
            seen |= reached
            levels.append(reached)
        # dependencies, farthest level first; sources (level 0) keep zero
        delta = np.zeros_like(sigma)
        for depth in range(len(levels) - 1, 1, -1):
            weight = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma),
                               where=levels[depth])
            np.multiply(sigma, adj @ weight, out=delta, where=levels[depth - 1])
        centrality += delta.sum(axis=1)
    return centrality / 2.0


def core_numbers(graph: Graph) -> np.ndarray:
    """K-core number per node by peeling in rounds: every live node of
    degree at most k leaves together with core number k, one sparse
    product takes its arcs off its neighbors' degrees, and k rises to the
    least live degree when no live node is left at or below it."""
    adj = adjacency(graph)
    deg = degrees(graph)
    core = np.zeros(graph.num_nodes, dtype=np.int64)
    live = np.ones(graph.num_nodes, dtype=bool)
    k = 0
    while live.any():
        k = max(k, deg[live].min())
        peel = live & (deg <= k)
        core[peel] = k
        live &= ~peel
        deg = deg - (adj @ peel.astype(np.float64)).astype(np.int64)
    return core


def local_clustering(graph: Graph) -> np.ndarray:
    """Local clustering coefficient: closed wedge fraction, 0 below degree 2."""
    deg = degrees(graph)
    cn = _common_neighbor_counts(graph)
    triangles = np.bincount(graph.arc_sources(), weights=cn,
                            minlength=graph.num_nodes) / 2.0
    denom = deg * (deg - 1) / 2.0
    return np.divide(triangles, denom, out=np.zeros_like(triangles), where=denom > 0)


def heuristic_similarity(graph: Graph, name: str) -> np.ndarray:
    """Named structural similarity per directed arc, min-max normalized."""
    _require_edges(graph)
    if name not in HEURISTIC_NAMES:
        raise ValueError(f"unknown heuristic {name!r}; choose from {HEURISTIC_NAMES}")
    if name == "common_neighbors":
        raw = _common_neighbor_counts(graph)
    elif name == "jaccard":
        cn = _common_neighbor_counts(graph)
        deg = degrees(graph)
        union = deg[graph.arc_sources()] + deg[graph.csr_neighbors] - cn
        raw = np.divide(cn, union, out=np.zeros_like(cn), where=union > 0)
    elif name == "adamic_adar":
        deg = degrees(graph)
        with np.errstate(divide="ignore"):
            inv_log = np.where(deg >= 2, 1.0 / np.log(np.maximum(deg, 2)), 0.0)
        adj = adjacency(graph)
        raw = _arc_entries(adj @ sp.diags(inv_log) @ adj, graph)
    else:
        per_node = {
            "betweenness_product": betweenness_centrality,
            "kshell_product": lambda g: core_numbers(g).astype(np.float64),
            "clustering_product": local_clustering,
        }[name](graph)
        raw = per_node[graph.arc_sources()] * per_node[graph.csr_neighbors]
    return minmax_normalize(raw)
