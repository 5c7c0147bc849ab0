"""Undirected graphs in CSR form plus label-aware neighborhood statistics.

Every structure-dependent quantity in this package (aggregation operators,
depth scores, sampling oracles) reads the graph through the small surface
defined here, so the representation invariants are enforced once, at build
time, and never re-checked downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "NodeProfile",
    "LabelVector",
    "SplitMask",
    "build_graph",
    "degrees",
    "adjacency",
    "aggregation_operator",
    "profile_counts",
    "make_split",
]

TRAIN, VAL, TEST = 0, 1, 2


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph stored as a CSR adjacency structure.

    Neighbor lists are sorted, duplicate-free, and never contain the node
    itself.  Each undirected edge appears as two directed arcs, so
    ``csr_neighbors`` has exactly ``2 * num_edges`` entries.  Operators that
    want a self contribution add it explicitly rather than storing loops.
    Everything derived from the structure is kept in one store on the graph
    (see ``cached``), so it lives exactly as long as the graph does.
    """

    num_nodes: int
    num_edges: int
    csr_offsets: np.ndarray
    csr_neighbors: np.ndarray
    _store: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.csr_offsets.flags.writeable = False
        self.csr_neighbors.flags.writeable = False

    def cached(self, key, build):
        """The value kept under `key`, made by build() on first request."""
        if key not in self._store:
            self._store[key] = build()
        return self._store[key]

    def edges(self) -> np.ndarray:
        """All undirected edges as an (num_edges, 2) array with u < v.
        Read-only, built on first call and kept."""
        return self.cached("edges", self._build_edges)

    def arc_sources(self) -> np.ndarray:
        """Source node of every directed arc, aligned with csr_neighbors.
        Read-only, built on first call and kept."""
        return self.cached("arc_sources", lambda: _read_only(
            np.repeat(np.arange(self.num_nodes), np.diff(self.csr_offsets))))

    @property
    def arc_edges(self) -> np.ndarray:
        """Row of edges() holding each directed arc, aligned with
        csr_neighbors: arcs u->v and v->u share one row.  Built on first
        read and kept."""
        return self.cached("arc_edges", self._build_arc_edges)

    def _build_edges(self) -> np.ndarray:
        src = self.arc_sources()
        keep = src < self.csr_neighbors
        return _read_only(np.stack([src[keep], self.csr_neighbors[keep]], axis=1))

    def _build_arc_edges(self) -> np.ndarray:
        src, dst = self.arc_sources(), self.csr_neighbors
        forward = src < dst
        edge = np.cumsum(forward) - 1
        # arcs are sorted by (source, target), so the reverse of an arc is
        # found by binary search on that pair packed into one integer
        key = src * self.num_nodes + dst
        reverse = np.searchsorted(key, dst * self.num_nodes + src)
        return _read_only(np.where(forward, edge, edge[reverse]))


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class NodeProfile:
    """Label composition of one node's neighborhood: counts of same-label
    and different-label neighbors, which must sum to the degree."""

    d_plus: int
    d_minus: int
    degree: int

    def __post_init__(self) -> None:
        if self.d_plus < 0 or self.d_minus < 0:
            raise ValueError("neighbor counts must be non-negative")
        if self.d_plus + self.d_minus != self.degree:
            raise ValueError(
                f"d_plus + d_minus = {self.d_plus + self.d_minus} "
                f"does not match degree {self.degree}"
            )


@dataclass(frozen=True)
class LabelVector:
    """Integer node labels in [0, num_classes)."""

    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("labels out of range")
        labels.flags.writeable = False

    def __len__(self) -> int:
        return int(self.labels.shape[0])


@dataclass(frozen=True)
class SplitMask:
    """Disjoint train/val/test role per node, tagged with the seed that
    produced it so runs can be replayed."""

    roles: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        roles = np.asarray(self.roles, dtype=np.int8)
        object.__setattr__(self, "roles", roles)
        roles.flags.writeable = False

    @property
    def train(self) -> np.ndarray:
        return self.roles == TRAIN

    @property
    def val(self) -> np.ndarray:
        return self.roles == VAL

    @property
    def test(self) -> np.ndarray:
        return self.roles == TEST


def build_graph(edge_list, num_nodes: int) -> Graph:
    """Construct a Graph from an iterable of (u, v) pairs.

    The input may contain duplicates, self loops, and arcs in either or both
    orientations; all are normalized away.  Node ids outside
    [0, num_nodes) raise ValueError.
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be non-negative")
    edges = np.asarray(list(edge_list) if not isinstance(edge_list, np.ndarray) else edge_list, dtype=np.int64)
    edges = edges.reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= num_nodes:
            raise ValueError("edge endpoint out of range")
        edges = edges[edges[:, 0] != edges[:, 1]]
    # arc u->v packed as u * n + v: the sorted unique keys are the arcs in
    # (source, target) order, which leaves each neighbor list sorted
    keys = np.unique(np.concatenate([edges[:, 0] * num_nodes + edges[:, 1],
                                     edges[:, 1] * num_nodes + edges[:, 0]]))
    src, dst = np.divmod(keys, num_nodes)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=offsets[1:])
    return Graph(
        num_nodes=num_nodes,
        num_edges=keys.shape[0] // 2,
        csr_offsets=offsets,
        csr_neighbors=dst,
    )


def degrees(graph: Graph) -> np.ndarray:
    return np.diff(graph.csr_offsets).astype(np.int64)


def adjacency(graph: Graph) -> sp.csr_matrix:
    """Unit-weight sparse adjacency over every directed arc, no self loops."""
    src = graph.arc_sources()
    return sp.csr_matrix(
        (np.ones(src.shape[0]), (src, graph.csr_neighbors)),
        shape=(graph.num_nodes, graph.num_nodes),
    )


def aggregation_operator(
    graph: Graph, kind: str, rows: np.ndarray | None = None
) -> tuple[sp.spmatrix, sp.spmatrix]:
    """The aggregation operator of one `kind` and its transpose, both CSR
    and kept on the graph.

    mean_self: (h_v + sum of neighbor rows) / (degree + 1); isolated rows
    pass through unchanged.  mean_nbr: the neighbor mean without the self
    term; isolated rows become 0.  symnorm: D^-1/2 (I + A) D^-1/2 with D
    the degree plus one.  With `rows`, node indices, only those rows, in
    that order, with the slice's CSC view as transpose; the graph keeps
    the last slice of each kind and reuses it while the rows repeat.
    """
    op, op_t = graph.cached(("operator", kind), lambda: _operator(graph, kind))
    if rows is None:
        return op, op_t
    idx = np.asarray(rows, dtype=np.int64)
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= graph.num_nodes)):
        raise ValueError("rows must be 1-d node indices")
    last = graph.cached(("operator_rows", kind), dict)
    if "rows" not in last or not np.array_equal(last["rows"], idx):
        sliced = op[idx]
        last.update(rows=idx.copy(), op=sliced, op_t=sliced.T)
    return last["op"], last["op_t"]


def _operator(graph: Graph, kind: str) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    adj = adjacency(graph)
    deg = degrees(graph).astype(np.float64)
    n = graph.num_nodes
    if kind == "mean_self":
        op = sp.diags(1.0 / (deg + 1.0)) @ (sp.eye(n, format="csr") + adj)
    elif kind == "mean_nbr":
        inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
        op = sp.diags(inv) @ adj
    elif kind == "symnorm":
        d = sp.diags(1.0 / np.sqrt(deg + 1.0))
        op = d @ (sp.eye(n, format="csr") + adj) @ d
    else:
        raise ValueError(f"unknown aggregation kind {kind!r}")
    op = op.tocsr()
    return op, op.T.tocsr()


def profile_counts(graph: Graph, labels: LabelVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized neighborhood label counts.

    Returns (d_plus, d_minus, degree) arrays where d_plus[v] counts the
    neighbors sharing v's label and d_minus[v] the rest.
    """
    y = labels.labels
    if y.shape[0] != graph.num_nodes:
        raise ValueError("label vector length does not match graph")
    deg = degrees(graph)
    src = graph.arc_sources()
    same = y[src] == y[graph.csr_neighbors]
    d_plus = np.bincount(src[same], minlength=graph.num_nodes).astype(np.int64)
    return d_plus, deg - d_plus, deg


def make_split(
    num_nodes: int,
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 0,
) -> SplitMask:
    """Random node split with sizes matching the ratios to within one node.

    Counts are the floors of ratio * num_nodes with the remainder handed to
    the largest fractional parts (ties to the earlier role), then roles are
    assigned over a seeded permutation.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ValueError("need three non-negative ratios")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    exact = np.array([r * num_nodes for r in ratios])
    counts = np.floor(exact).astype(np.int64)
    frac = exact - counts
    for _ in range(num_nodes - int(counts.sum())):
        i = int(np.argmax(frac))
        counts[i] += 1
        frac[i] = -1.0
    order = np.random.default_rng(seed).permutation(num_nodes)
    roles = np.empty(num_nodes, dtype=np.int8)
    roles[order[: counts[0]]] = TRAIN
    roles[order[counts[0] : counts[0] + counts[1]]] = VAL
    roles[order[counts[0] + counts[1] :]] = TEST
    return SplitMask(roles=roles, seed=seed)
