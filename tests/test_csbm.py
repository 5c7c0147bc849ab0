import itertools

import numpy as np
import pytest

from adgnn import csbm
from adgnn.csbm import (
    ClassStats,
    CsbmParams,
    canonical_prototypes,
    homophily_from_target,
    measured_edge_homophily,
    sample_graph,
    sample_neighborhood_batch,
)
from adgnn.graph import LabelVector, NodeProfile, build_graph, profile_counts


def small_params(**over):
    base = dict(
        n0=60,
        n1=60,
        mu0=np.array([1.0, 0.0]),
        mu1=np.array([-1.0, 0.0]),
        sigma=1.0,
        p_in=0.2,
        p_out=0.05,
    )
    base.update(over)
    return CsbmParams(**base)


def row_by_row_sample(params, seed):
    """Reference draw: one structure-stream call per upper-triangle row,
    each of its pairs kept below the probability of its label pair, then
    every feature row from the feature stream."""
    struct_rng, feat_rng = csbm._streams(seed)
    n = params.n0 + params.n1
    edges = []
    for i in range(n - 1):
        js = np.arange(i + 1, n)
        p = np.where((js < params.n0) == (i < params.n0), params.p_in, params.p_out)
        hit = struct_rng.random(n - i - 1) < p
        edges.extend((i, j) for j in js[hit])
    y = np.arange(n) >= params.n0
    noise = feat_rng.standard_normal((n, params.mu0.shape[0]))
    features = np.where(y[:, None], params.mu1, params.mu0) + params.sigma * noise
    return build_graph(edges, num_nodes=n), features


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_params(p_in=1.5)
        with pytest.raises(ValueError):
            small_params(sigma=-1.0)
        with pytest.raises(ValueError):
            small_params(mu1=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            small_params(n0=0, n1=0)
        with pytest.raises(ValueError):
            ClassStats(delta_sq=-1.0, sigma_sq=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN passes a `< 0` check; it used to make every feature NaN
        with pytest.raises(ValueError, match="sigma must be finite"):
            small_params(sigma=bad)
        with pytest.raises(ValueError, match="prototype entries must be finite"):
            small_params(mu0=np.array([bad, 0.0]))
        with pytest.raises(ValueError, match="delta_sq must be finite"):
            ClassStats(delta_sq=bad, sigma_sq=1.0)
        with pytest.raises(ValueError, match="sigma_sq must be finite"):
            ClassStats(delta_sq=1.0, sigma_sq=bad)
        with pytest.raises(ValueError, match="delta_sq must be finite"):
            canonical_prototypes(bad, 2)


class TestSampleGraph:
    def test_deterministic(self):
        p = small_params()
        g1, x1, y1 = sample_graph(p, seed=42)
        g2, x2, y2 = sample_graph(p, seed=42)
        assert np.array_equal(g1.csr_neighbors, g2.csr_neighbors)
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1.labels, y2.labels)
        g3, _, _ = sample_graph(p, seed=43)
        assert not np.array_equal(g1.csr_neighbors, g3.csr_neighbors) or g1.num_edges != g3.num_edges

    def test_labels_block_structure(self):
        g, x, y = sample_graph(small_params(n0=10, n1=5), seed=0)
        assert np.array_equal(y.labels, np.concatenate([np.zeros(10), np.ones(5)]))
        assert x.shape == (15, 2)

    def test_degenerate_probabilities(self):
        g, _, _ = sample_graph(small_params(p_in=0.0, p_out=0.0), seed=1)
        assert g.num_edges == 0
        n0 = n1 = 12
        g, _, y = sample_graph(small_params(n0=n0, n1=n1, p_in=1.0, p_out=1.0), seed=1)
        n = n0 + n1
        assert g.num_edges == n * (n - 1) // 2

    def test_pure_homophily_extremes(self):
        g, _, y = sample_graph(small_params(p_in=0.3, p_out=0.0), seed=5)
        assert measured_edge_homophily(g, y) == 1.0
        g, _, y = sample_graph(small_params(p_in=0.0, p_out=0.3), seed=5)
        assert measured_edge_homophily(g, y) == 0.0

    def test_edge_rate_matches_probability(self):
        # statistical check on the Bernoulli rates, generous tolerance
        p = small_params(n0=300, n1=300, p_in=0.1, p_out=0.02)
        g, _, y = sample_graph(p, seed=3)
        d_plus, d_minus, _ = profile_counts(g, y)
        intra = d_plus.sum() / 2
        inter = d_minus.sum() / 2
        pairs_in = 2 * (300 * 299 / 2)
        pairs_out = 300 * 300
        assert intra / pairs_in == pytest.approx(0.1, rel=0.1)
        assert inter / pairs_out == pytest.approx(0.02, rel=0.15)

    def test_feature_moments(self):
        p = small_params(n0=4000, n1=4000, sigma=0.5, p_in=0.0, p_out=0.0)
        _, x, y = sample_graph(p, seed=9)
        m0 = x[y.labels == 0].mean(axis=0)
        assert np.allclose(m0, p.mu0, atol=0.05)
        assert np.std(x[y.labels == 0][:, 1]) == pytest.approx(0.5, rel=0.05)

    @pytest.mark.parametrize("n0,n1", [
        (n0, n1) for n0, n1 in itertools.product([0, 1, 2, 31, 33, 70], repeat=2)
        if n0 + n1 > 0
    ])
    def test_block_draw_matches_row_by_row(self, n0, n1):
        for p_in, p_out in itertools.product([0.0, 0.05, 0.3, 1.0], repeat=2):
            for seed in (0, 11):
                params = small_params(n0=n0, n1=n1, p_in=p_in, p_out=p_out)
                g, x, _ = sample_graph(params, seed)
                ref, ref_x = row_by_row_sample(params, seed)
                assert g.csr_offsets.tobytes() == ref.csr_offsets.tobytes()
                assert g.csr_neighbors.tobytes() == ref.csr_neighbors.tobytes()
                assert x.tobytes() == ref_x.tobytes()

    def test_many_block_draw_matches_row_by_row(self):
        params = small_params(n0=200, n1=200, p_in=0.05, p_out=0.01)
        # 79,800 pairs: three blocks of whole rows at least
        assert 400 * 399 // 2 > 2 * csbm._DRAW_BUFFER
        g, x, _ = sample_graph(params, 4)
        ref, ref_x = row_by_row_sample(params, 4)
        assert g.num_edges > 0
        assert g.csr_offsets.tobytes() == ref.csr_offsets.tobytes()
        assert g.csr_neighbors.tobytes() == ref.csr_neighbors.tobytes()
        assert x.tobytes() == ref_x.tobytes()

    def test_sigma_zero_features_exact(self):
        p = small_params(sigma=0.0)
        _, x, y = sample_graph(p, seed=2)
        assert np.array_equal(x[y.labels == 0], np.tile(p.mu0, (60, 1)))


class TestHomophilyInversion:
    def test_round_trip_in_expectation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h = float(rng.uniform(0, 1))
            md = float(rng.uniform(1, 12))
            n0 = int(rng.integers(50, 200))
            n1 = int(rng.integers(50, 200))
            p_in, p_out = homophily_from_target(h, md, n0, n1)
            pairs_in = n0 * (n0 - 1) / 2 + n1 * (n1 - 1) / 2
            pairs_out = n0 * n1
            e_intra = p_in * pairs_in
            e_inter = p_out * pairs_out
            total = e_intra + e_inter
            assert total == pytest.approx((n0 + n1) * md / 2, rel=1e-9)
            assert e_intra / total == pytest.approx(h, abs=1e-9)

    def test_extremes(self):
        p_in, p_out = homophily_from_target(1.0, 4.0, 100, 100)
        assert p_out == 0.0 and p_in > 0
        p_in, p_out = homophily_from_target(0.0, 4.0, 100, 100)
        assert p_in == 0.0 and p_out > 0

    def test_measured_tracks_target(self):
        for h in (0.1, 0.5, 0.9):
            p_in, p_out = homophily_from_target(h, 10.0, 400, 400)
            g, _, y = sample_graph(
                small_params(n0=400, n1=400, p_in=p_in, p_out=p_out), seed=11
            )
            assert measured_edge_homophily(g, y) == pytest.approx(h, abs=0.05)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            homophily_from_target(1.0, 50.0, 5, 5)
        with pytest.raises(ValueError):
            homophily_from_target(1.2, 4.0, 10, 10)


class TestMeasuredHomophily:
    def test_exact_small_case(self):
        g = build_graph([(0, 1), (1, 2), (0, 2), (2, 3)], num_nodes=4)
        y = LabelVector(np.array([0, 0, 0, 1]), 2)
        assert measured_edge_homophily(g, y) == pytest.approx(0.75)

    def test_empty_graph_rejected(self):
        g = build_graph([], num_nodes=3)
        with pytest.raises(ValueError):
            measured_edge_homophily(g, LabelVector(np.zeros(3, dtype=int), 2))


class TestNeighborhoodSampler:
    def test_shapes_and_order(self):
        rng = np.random.default_rng(0)
        prof = NodeProfile(d_plus=3, d_minus=2, degree=5)
        stats = ClassStats(delta_sq=2.0, sigma_sq=0.0)
        center, neighbor_sum = sample_neighborhood_batch(
            prof, stats, own_label=0, trials=2, rng=rng, dim=4
        )
        mu0, mu1 = canonical_prototypes(2.0, 4)
        expected = mu0.copy()
        for row in (mu0, mu0, mu1, mu1):
            expected += row
        assert center.shape == (2, 4) and neighbor_sum.shape == (2, 4)
        assert np.array_equal(center, np.tile(mu0, (2, 1)))
        assert np.array_equal(neighbor_sum, np.tile(expected, (2, 1)))

    def test_prototype_distance(self):
        mu0, mu1 = canonical_prototypes(9.0, 6)
        assert np.sum((mu0 - mu1) ** 2) == pytest.approx(9.0)
        assert np.array_equal(mu0, -mu1)

    def test_batch_moments(self):
        rng = np.random.default_rng(1)
        stats = ClassStats(delta_sq=4.0, sigma_sq=1.0)
        mu0, mu1 = canonical_prototypes(4.0, 3)

        def draw(prof):
            return sample_neighborhood_batch(prof, stats, 1, trials=200_000, rng=rng, dim=3)

        center, neighbor_sum = draw(NodeProfile(d_plus=2, d_minus=1, degree=3))
        assert np.allclose(center.mean(axis=0), mu1, atol=0.02)
        assert center.var(axis=0).mean() == pytest.approx(1.0, rel=0.02)
        assert neighbor_sum.var(axis=0).mean() == pytest.approx(3 * 1.0, rel=0.02)
        # one-block profiles isolate each block's mean
        _, same_sum = draw(NodeProfile(d_plus=2, d_minus=0, degree=2))
        assert np.allclose(same_sum.mean(axis=0) / 2, mu1, atol=0.02)
        _, other_sum = draw(NodeProfile(d_plus=0, d_minus=1, degree=1))
        assert np.allclose(other_sum.mean(axis=0), mu0, atol=0.02)

    def test_validation(self):
        rng = np.random.default_rng(0)
        prof = NodeProfile(1, 1, 2)
        stats = ClassStats(4.0, 1.0)
        with pytest.raises(ValueError):
            sample_neighborhood_batch(prof, stats, own_label=2, trials=1, rng=rng)
        with pytest.raises(ValueError):
            sample_neighborhood_batch(prof, stats, 0, trials=0, rng=rng)

    def test_centers_drawn_into_out(self):
        prof = NodeProfile(d_plus=3, d_minus=2, degree=5)
        stats = ClassStats(delta_sq=4.0, sigma_sq=2.5)
        want = sample_neighborhood_batch(prof, stats, 1, trials=50,
                                         rng=np.random.default_rng(2), dim=3)
        rows = np.empty((80, 3))
        got = sample_neighborhood_batch(prof, stats, 1, trials=50,
                                        rng=np.random.default_rng(2), dim=3,
                                        out=rows[10:60])
        assert np.shares_memory(got[0], rows) and got[0].shape == (50, 3)
        assert (got[0] == want[0]).all() and (got[1] == want[1]).all()

    @pytest.mark.parametrize(
        "out",
        [np.empty((4, 2)), np.empty((5, 3)), np.empty(10),
         np.empty((5, 2), dtype=np.float32), np.empty((5, 2), dtype=np.int64),
         np.empty((5, 2), order="F"), np.empty((5, 4))[:, ::2],
         np.empty((10, 2))[::2], [[0.0, 0.0]] * 5],
        ids=["few_rows", "wide", "flat", "float32", "int64", "fortran",
             "strided_columns", "strided_rows", "list"])
    def test_bad_out_rejected(self, out):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="out must be"):
            sample_neighborhood_batch(NodeProfile(1, 1, 2), ClassStats(4.0, 1.0),
                                      0, trials=5, rng=rng, dim=2, out=out)
