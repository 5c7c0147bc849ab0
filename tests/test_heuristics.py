import math

import networkx as nx
import numpy as np
import pytest

from adgnn.csbm import CsbmParams, canonical_prototypes, homophily_from_target, sample_graph
from adgnn.graph import build_graph
from adgnn.heuristics import (
    HEURISTIC_NAMES,
    betweenness_centrality,
    core_numbers,
    degree_similarity,
    heuristic_similarity,
    local_clustering,
)


def arc_value(graph, scores, u, v):
    start, end = graph.csr_offsets[u], graph.csr_offsets[u + 1]
    nbrs = graph.csr_neighbors[start:end]
    return scores[start:end][nbrs == v][0]


def random_graph(rng, n_max=25, m_max=60, ensure_edge=True):
    while True:
        n = int(rng.integers(2, n_max))
        g = build_graph(rng.integers(0, n, size=(int(rng.integers(1, m_max)), 2)), n)
        if g.num_edges > 0 or not ensure_edge:
            return g


def to_networkx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.num_nodes))
    G.add_edges_from(map(tuple, g.edges()))
    return G


class TestDegreeSimilarity:
    def test_star_all_ones(self):
        g = build_graph([(0, i) for i in range(1, 6)], 6)
        assert np.all(degree_similarity(g) == 1.0)

    def test_path_all_ones(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        assert np.all(degree_similarity(g) == 1.0)

    def test_formula_example(self):
        # degrees: a=1, b=3, c=2, d=2
        g = build_graph([(0, 1), (1, 2), (1, 3), (2, 3)], 4)
        p = degree_similarity(g)
        assert arc_value(g, p, 0, 1) == pytest.approx(0.5)
        assert arc_value(g, p, 2, 3) == pytest.approx(4 / 6)
        assert arc_value(g, p, 1, 2) == 1.0
        assert arc_value(g, p, 1, 3) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            degree_similarity(build_graph([], 3))

    def test_range_symmetry_max(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            g = random_graph(rng)
            p = degree_similarity(g)
            assert np.all((p > 0) & (p <= 1))
            assert p.max() == 1.0
            for u, v in g.edges():
                assert arc_value(g, p, u, v) == arc_value(g, p, v, u)


class TestAgainstNetworkx:
    def test_betweenness(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            g = random_graph(rng)
            mine = betweenness_centrality(g)
            ref = nx.betweenness_centrality(to_networkx(g), normalized=False)
            np.testing.assert_allclose(mine, [ref[v] for v in range(g.num_nodes)], atol=1e-9)

    def test_core_numbers(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = random_graph(rng)
            ref = nx.core_number(to_networkx(g))
            np.testing.assert_array_equal(core_numbers(g), [ref[v] for v in range(g.num_nodes)])

    def test_clustering(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = random_graph(rng)
            ref = nx.clustering(to_networkx(g))
            np.testing.assert_allclose(
                local_clustering(g), [ref[v] for v in range(g.num_nodes)], atol=1e-12
            )

    def test_path_betweenness_example(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        np.testing.assert_array_equal(betweenness_centrality(g), [0.0, 1.0, 0.0])


def assert_betweenness_matches_networkx(g):
    ref = nx.betweenness_centrality(to_networkx(g), normalized=False)
    np.testing.assert_allclose(
        betweenness_centrality(g), [ref[v] for v in range(g.num_nodes)], rtol=1e-12
    )


class TestBlockBetweenness:
    """Sources run in blocks; these cases cross block edges, leave the last
    block partly filled and put unreachable nodes in every block."""

    @pytest.mark.parametrize("n", [65, 130, 201])
    def test_more_nodes_than_one_block(self, n):
        rng = np.random.default_rng(n)
        # a spanning path keeps it connected; chords make ties in path counts
        edges = [(v, v + 1) for v in range(n - 1)]
        edges += map(tuple, rng.integers(0, n, size=(n, 2)))
        assert_betweenness_matches_networkx(build_graph(edges, n))

    def test_disconnected_with_isolated_nodes(self):
        rng = np.random.default_rng(7)
        n = 150
        # three random components over nodes 0..119; nodes 120..149 isolated
        edges = []
        for lo, hi in [(0, 40), (40, 90), (90, 120)]:
            edges += map(tuple, rng.integers(lo, hi, size=(2 * (hi - lo), 2)))
        g = build_graph(edges, n)
        assert np.all(np.diff(g.csr_offsets)[120:] == 0)
        assert_betweenness_matches_networkx(g)

    def test_csbm_500(self):
        p_in, p_out = homophily_from_target(0.9, 10.0, 250, 250)
        mu0, mu1 = canonical_prototypes(1.0, 8)
        params = CsbmParams(n0=250, n1=250, mu0=mu0, mu1=mu1, sigma=1.0,
                            p_in=p_in, p_out=p_out)
        g, _, _ = sample_graph(params, seed=0)
        assert_betweenness_matches_networkx(g)

    def test_edgeless_is_all_zero(self):
        np.testing.assert_array_equal(betweenness_centrality(build_graph([], 70)),
                                      np.zeros(70))


class TestHeuristicSimilarity:
    def test_unknown_name(self):
        g = build_graph([(0, 1)], 2)
        with pytest.raises(ValueError):
            heuristic_similarity(g, "degree_assortativity")

    def test_triangle_jaccard_degenerate(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
        assert np.all(heuristic_similarity(g, "jaccard") == 1.0)

    def test_path_betweenness_degenerate(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        assert np.all(heuristic_similarity(g, "betweenness_product") == 1.0)

    def test_adamic_adar_raw_value(self):
        # edge (0,1) whose sole common neighbor 2 has degree 2,
        # plus a detached edge to break the degenerate all-equal case
        g = build_graph([(0, 1), (0, 2), (1, 2), (3, 4)], 5)
        deg2 = 1.0 / math.log(2)
        adj_raw = {
            (0, 1): deg2,
            (0, 2): deg2,
            (1, 2): deg2,
            (3, 4): 0.0,
        }
        scores = heuristic_similarity(g, "adamic_adar")
        lo, hi = 0.0, deg2
        for (u, v), raw in adj_raw.items():
            expected = (raw - lo) / (hi - lo)
            assert arc_value(g, scores, u, v) == pytest.approx(expected)

    def test_common_neighbors_counts(self):
        g = build_graph([(0, 1), (0, 2), (1, 2), (2, 3)], 4)
        G = to_networkx(g)
        raw = {
            (u, v): len(list(nx.common_neighbors(G, u, v)))
            for u, v in g.edges()
        }
        values = list(raw.values())
        lo, hi = min(values), max(values)
        scores = heuristic_similarity(g, "common_neighbors")
        for (u, v), r in raw.items():
            assert arc_value(g, scores, u, v) == pytest.approx((r - lo) / (hi - lo))

    def test_all_heuristics_valid_range_and_symmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            g = random_graph(rng)
            for name in HEURISTIC_NAMES:
                p = heuristic_similarity(g, name)
                assert p.shape == g.csr_neighbors.shape
                assert np.all((p >= 0) & (p <= 1))
                assert p.max() == 1.0
                for u, v in g.edges():
                    assert arc_value(g, p, u, v) == pytest.approx(
                        arc_value(g, p, v, u)
                    )
