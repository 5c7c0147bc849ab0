import numpy as np
import pytest

from adgnn.graph import (
    LabelVector,
    NodeProfile,
    build_graph,
    degrees,
    make_split,
    profile_counts,
)


def random_edge_list(rng, n, m):
    return rng.integers(0, n, size=(m, 2))


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph([(0, 1), (1, 2), (2, 0)], num_nodes=3)
        assert g.num_edges == 3
        assert list(degrees(g)) == [2, 2, 2]
        assert list(g.csr_neighbors[g.csr_offsets[0]:g.csr_offsets[1]]) == [1, 2]

    def test_duplicates_loops_and_orientation_collapse(self):
        g = build_graph([(0, 1), (1, 0), (0, 1), (2, 2)], num_nodes=3)
        assert g.num_edges == 1
        assert list(degrees(g)) == [1, 1, 0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_graph([(0, 3)], num_nodes=3)
        with pytest.raises(ValueError):
            build_graph([(-1, 0)], num_nodes=3)

    def test_empty_graph(self):
        g = build_graph([], num_nodes=4)
        assert g.num_edges == 0
        assert list(degrees(g)) == [0, 0, 0, 0]
        assert g.edges().shape == (0, 2)
        assert g.arc_edges.shape == (0,)

    def test_immutable(self):
        g = build_graph([(0, 1)], num_nodes=2)
        with pytest.raises(ValueError):
            g.csr_neighbors[0] = 0

    def test_structure_properties_random(self):
        # sorted dedup'd neighbor lists, no self loops, symmetric arcs
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(0, 80))
            g = build_graph(random_edge_list(rng, n, m), num_nodes=n)
            src = g.arc_sources()
            assert g.csr_neighbors.shape[0] == 2 * g.num_edges
            assert not np.any(src == g.csr_neighbors)
            for v in range(n):
                nb = g.csr_neighbors[g.csr_offsets[v]:g.csr_offsets[v + 1]]
                assert np.all(np.diff(nb) > 0)
            fwd = set(map(tuple, np.stack([src, g.csr_neighbors], axis=1)))
            assert all((b, a) in fwd for a, b in fwd)

    def test_arc_edges_name_the_edge_of_each_arc(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            g = build_graph(random_edge_list(rng, n, int(rng.integers(0, 80))), n)
            src, dst = g.arc_sources(), g.csr_neighbors
            arc_edge = g.arc_edges
            assert arc_edge.shape == dst.shape
            assert g.arc_edges is arc_edge and not arc_edge.flags.writeable
            np.testing.assert_array_equal(
                g.edges()[arc_edge],
                np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=1),
            )
            assert np.all(np.bincount(arc_edge, minlength=g.num_edges) == 2)

    def test_packed_keys_match_lexicographic_unique(self):
        # arcs of duplicates, self loops and both orientations, sorted as
        # np.unique over (source, target) rows sorts them
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            e = random_edge_list(rng, n, int(rng.integers(0, 100)))
            e = np.concatenate([e, e[: len(e) // 3, ::-1], e[: len(e) // 4]])
            g = build_graph(e, n)
            e = e[e[:, 0] != e[:, 1]]
            arcs = np.unique(np.concatenate([e, e[:, ::-1]]).reshape(-1, 2), axis=0)
            offsets = np.concatenate([[0], np.cumsum(np.bincount(arcs[:, 0], minlength=n))])
            assert g.csr_offsets.tobytes() == offsets.astype(np.int64).tobytes()
            assert g.csr_neighbors.tobytes() == arcs[:, 1].astype(np.int64).tobytes()

    def test_edges_and_arc_sources_are_kept_read_only(self):
        g = build_graph([(0, 2), (1, 2), (2, 3)], num_nodes=4)
        for values in (g.edges(), g.arc_sources()):
            assert not values.flags.writeable
        assert g.edges() is g.edges() and g.arc_sources() is g.arc_sources()
        np.testing.assert_array_equal(g.edges(), [[0, 2], [1, 2], [2, 3]])
        np.testing.assert_array_equal(g.arc_sources(), [0, 1, 2, 2, 2, 3])

    def test_rebuild_from_edges_is_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 25))
            g = build_graph(random_edge_list(rng, n, int(rng.integers(0, 60))), n)
            g2 = build_graph(g.edges(), n)
            assert np.array_equal(g.csr_offsets, g2.csr_offsets)
            assert np.array_equal(g.csr_neighbors, g2.csr_neighbors)


class TestProfiles:
    def test_star_profiles(self):
        # center label 0, three leaves labeled 0, 0, 1
        g = build_graph([(0, 1), (0, 2), (0, 3)], num_nodes=4)
        y = LabelVector(np.array([0, 0, 0, 1]), num_classes=2)
        d_plus, d_minus, deg = profile_counts(g, y)
        np.testing.assert_array_equal(d_plus, [2, 1, 1, 0])
        np.testing.assert_array_equal(d_minus, [1, 0, 0, 1])
        np.testing.assert_array_equal(deg, [3, 1, 1, 1])

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            NodeProfile(d_plus=2, d_minus=1, degree=4)
        with pytest.raises(ValueError):
            NodeProfile(d_plus=-1, d_minus=1, degree=0)

    def test_counts_sum_and_parity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            g = build_graph(random_edge_list(rng, n, int(rng.integers(0, 100))), n)
            y = LabelVector(rng.integers(0, 2, size=n), num_classes=2)
            d_plus, d_minus, deg = profile_counts(g, y)
            assert np.array_equal(d_plus + d_minus, deg)
            # every same-label edge contributes to two d_plus entries
            assert d_plus.sum() % 2 == 0
            assert d_minus.sum() % 2 == 0
            assert d_plus.sum() + d_minus.sum() == 2 * g.num_edges

    def test_length_mismatch_rejected(self):
        g = build_graph([(0, 1)], num_nodes=2)
        with pytest.raises(ValueError):
            profile_counts(g, LabelVector(np.array([0, 1, 0]), 2))


class TestLabels:
    def test_range_checks(self):
        with pytest.raises(ValueError):
            LabelVector(np.array([0, 2]), num_classes=2)
        with pytest.raises(ValueError):
            LabelVector(np.array([0, 1]), num_classes=1)


class TestSplit:
    def test_examples(self):
        s = make_split(10, (0.6, 0.2, 0.2), seed=0)
        assert s.train.sum() == 6 and s.val.sum() == 2 and s.test.sum() == 2

    def test_partition_and_sizes_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 200))
            r = rng.dirichlet([3.0, 2.0, 2.0])
            s = make_split(n, (r[0], r[1], r[2]), seed=int(rng.integers(1 << 30)))
            sizes = np.array([s.train.sum(), s.val.sum(), s.test.sum()])
            assert sizes.sum() == n
            assert np.all(np.abs(sizes - r * n) <= 1.0 + 1e-9)
            assert np.all(s.train.astype(int) + s.val.astype(int) + s.test.astype(int) == 1)

    def test_deterministic_per_seed(self):
        a = make_split(50, seed=4)
        b = make_split(50, seed=4)
        c = make_split(50, seed=5)
        assert np.array_equal(a.roles, b.roles)
        assert not np.array_equal(a.roles, c.roles)

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            make_split(10, (0.5, 0.2, 0.2))
        with pytest.raises(ValueError):
            make_split(10, (-0.1, 0.6, 0.5))
