import math

import numpy as np
import pytest
from scipy.special import expit

from adgnn import model as mod
from adgnn.autodiff import (
    Tape,
    backward,
    binary_cross_entropy,
    merge_rows,
    row_gather,
    softmax_cross_entropy,
    tensor,
)
from adgnn.backbones import BackboneConfig, dense_forward, layer_forward, plain_forward
from adgnn.graph import (
    Graph,
    LabelVector,
    NodeProfile,
    build_graph,
    degrees,
    make_split,
    profile_counts,
)
from adgnn.model import (
    AdGnnConfig,
    DepthPlan,
    SimilarityHead,
    ThresholdFunction,
    assign_stopping_depths,
    expected_label_counts,
    forward,
    init_adgnn_params,
    pair_probability,
    regularization_loss,
    threshold_values,
    total_loss,
    trunk_params,
)
from adgnn.heuristics import degree_similarity
from adgnn.theory import (
    _ALPHA_FLOOR,
    estimated_alpha,
    log_benefit_scores,
    minmax_normalize,
    signal_preservation_factor,
)
from adgnn.train import TrainConfig, fit_model
from gradcheck import REL_TOL, check_gradients, weighted_mean


def random_graph(rng, n, pairs):
    return build_graph(rng.integers(0, n, size=(pairs, 2)), n)


def star(n):
    return build_graph([(0, i) for i in range(1, n)], n)


def backbone(t_max, hidden=4, kind="gcn_rownorm"):
    return BackboneConfig(kind=kind, layers=t_max, hidden_dim=hidden)


def config(t_max=3, hidden=4, **kw):
    kw.setdefault("backbone", backbone(t_max, hidden, kw.pop("kind", "gcn_rownorm")))
    return AdGnnConfig(**kw)


# the temperature a forward gates at, by gating mode: None gates hard
GATE_TEMPERATURE = {"hard": None, "soft": 0.1}


def embed(cfg, params, x):
    """The forward's h0 without dropout: the rows the head scores."""
    return dense_forward(cfg.backbone, {"weight": params["dense0.weight"]}, x, True, None)


def pair_loss_on_arcs(res, graph, labels):
    """The pair loss on the forward arc (u < v) of every edge, as if every
    edge joined two training nodes."""
    src, dst = graph.arc_sources(), graph.csr_neighbors
    arcs = np.flatnonzero(src < dst)
    return regularization_loss(res.arc_probs, arcs, labels[src[arcs]] == labels[dst[arcs]])


def head_of(params):
    return SimilarityHead(params["head.w1"], params["head.w2"])


def thresholds_of(cfg, params, t_max):
    tf = ThresholdFunction(cfg.lambda_weight, params["threshold.slope_raw"],
                           params["threshold.intercept_raw"])
    return threshold_values(tf, t_max)


def direct_pair_loss(params, h0, edges, labels):
    """The pair loss as a head call of its own on the edge rows."""
    probs = pair_probability(head_of(params),
                             row_gather(h0, edges[:, 0]), row_gather(h0, edges[:, 1]))
    return binary_cross_entropy(probs, labels[edges[:, 0]] == labels[edges[:, 1]])


def indicator_arc_probs(graph, labels):
    src = graph.arc_sources()
    return (labels[src] == labels[graph.csr_neighbors]).astype(np.float64)


class TestSimilarityHead:
    def test_zero_params_give_half(self):
        head = SimilarityHead(tensor(np.zeros((8, 5))), tensor(np.zeros((5, 1))))
        rng = np.random.default_rng(0)
        p = pair_probability(
            head, tensor(rng.standard_normal((6, 4))), tensor(rng.standard_normal((6, 4)))
        )
        np.testing.assert_array_equal(p.values, np.full((6, 1), 0.5))

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(1)
        head = SimilarityHead(
            tensor(rng.standard_normal((8, 5))), tensor(rng.standard_normal((5, 1)))
        )
        a = tensor(rng.standard_normal((10, 4)))
        b = tensor(rng.standard_normal((10, 4)))
        np.testing.assert_array_equal(
            pair_probability(head, a, b).values, pair_probability(head, b, a).values
        )

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        head = SimilarityHead(
            tensor(rng.standard_normal((6, 4))), tensor(rng.standard_normal((4, 1)))
        )
        p = pair_probability(
            head, tensor(rng.standard_normal((20, 3))), tensor(rng.standard_normal((20, 3)))
        ).values
        assert (p > 0).all() and (p < 1).all()

    def test_dim_mismatch(self):
        head = SimilarityHead(tensor(np.zeros((8, 5))), tensor(np.zeros((5, 1))))
        with pytest.raises(ValueError):
            pair_probability(head, tensor(np.zeros((2, 3))), tensor(np.zeros((2, 3))))
        with pytest.raises(ValueError):
            pair_probability(head, tensor(np.zeros((2, 4))), tensor(np.zeros((3, 4))))

    def test_head_shape_validation(self):
        with pytest.raises(ValueError):
            SimilarityHead(tensor(np.zeros((7, 5))), tensor(np.zeros((5, 1))))
        with pytest.raises(ValueError):
            SimilarityHead(tensor(np.zeros((8, 5))), tensor(np.zeros((4, 1))))

    def test_gradcheck(self):
        # redraw when an |h_u - h_v| entry or a hidden pre-activation sits
        # inside the finite-difference straddle of a kink
        rng = np.random.default_rng(3)
        for _ in range(20):
            while True:
                hu = rng.standard_normal((5, 3))
                hv = rng.standard_normal((5, 3))
                w1 = rng.standard_normal((6, 4)) * 0.7
                feats = np.hstack([np.abs(hu - hv), hu * hv])
                if np.abs(hu - hv).min() > 1e-3 and np.abs(feats @ w1).min() > 1e-3:
                    break
            t_hu, t_hv = tensor(hu, requires_grad=True), tensor(hv, requires_grad=True)
            t_w1 = tensor(w1, requires_grad=True)
            t_w2 = tensor(rng.standard_normal((4, 1)), requires_grad=True)
            wt = tensor(rng.standard_normal((5, 1)))

            def build():
                head = SimilarityHead(t_w1, t_w2)
                return weighted_mean(pair_probability(head, t_hu, t_hv), wt)

            assert check_gradients(build, [t_hu, t_hv, t_w1, t_w2]) < REL_TOL

    def test_pair_probability_records_one_node(self):
        rng = np.random.default_rng(4)
        hu = tensor(rng.standard_normal((5, 3)), requires_grad=True)
        hv = tensor(rng.standard_normal((5, 3)), requires_grad=True)
        head = SimilarityHead(tensor(rng.standard_normal((6, 4)), requires_grad=True),
                              tensor(rng.standard_normal((4, 1)), requires_grad=True))
        with Tape() as tape:
            pair_probability(head, hu, hv)
        assert len(tape) == 1


class TestExpectedCounts:
    def test_all_ones(self):
        g = star(5)
        d_plus, d_minus = expected_label_counts(g, np.ones(g.csr_neighbors.shape[0]))
        np.testing.assert_array_equal(d_plus, degrees(g))
        np.testing.assert_array_equal(d_minus, np.zeros(5))

    def test_three_neighbor_example(self):
        g = star(4)
        # arcs: (0,1),(0,2),(0,3),(1,0),(2,0),(3,0)
        probs = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        d_plus, d_minus = expected_label_counts(g, probs)
        assert d_plus[0] == 2.0 and d_minus[0] == 1.0

    def test_half_probs(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 9, 20)
        d_plus, _ = expected_label_counts(g, np.full(g.csr_neighbors.shape[0], 0.5))
        np.testing.assert_allclose(d_plus, degrees(g) / 2.0)

    def test_counts_sum_to_degree_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = random_graph(rng, 11, 25)
            d_plus, d_minus = expected_label_counts(
                g, rng.uniform(size=g.csr_neighbors.shape[0])
            )
            np.testing.assert_array_equal(d_plus + d_minus, degrees(g).astype(float))

    def test_length_validation(self):
        with pytest.raises(ValueError):
            expected_label_counts(star(4), np.ones(3))


class TestEstimatedAlpha:
    def test_triangle_reduction(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
        labels = np.array([0, 0, 1])
        d_plus, d_minus = expected_label_counts(g, indicator_arc_probs(g, labels))
        alpha = estimated_alpha(d_plus, d_minus, degrees(g))
        assert alpha[0] == pytest.approx(1.0 / 3.0)

    def test_balanced_counts(self):
        alpha = estimated_alpha(np.array([2.0]), np.array([2.0]), np.array([4.0]))
        assert alpha[0] == pytest.approx(1.0 / 5.0)

    def test_isolated_node(self):
        alpha = estimated_alpha(np.array([0.0]), np.array([0.0]), np.array([0.0]))
        assert alpha[0] == 1.0

    def test_exact_label_reduction_property(self):
        # indicator probabilities reproduce the label-based factor bit-for-bit
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(3, 12))
            g = random_graph(rng, n, int(rng.integers(n, 4 * n)))
            labels = rng.integers(0, 2, size=n)
            d_plus, d_minus = expected_label_counts(g, indicator_arc_probs(g, labels))
            alpha = estimated_alpha(d_plus, d_minus, degrees(g))
            counts = profile_counts(g, LabelVector(labels, 2))
            for v, (p, m, d) in enumerate(zip(*counts)):
                assert alpha[v] == signal_preservation_factor(
                    NodeProfile(int(p), int(m), int(d))
                )


class TestScoresAndNormalization:
    def test_minmax_examples(self):
        np.testing.assert_allclose(
            minmax_normalize(np.array([2.0, 4.0, 6.0])), [0.0, 0.5, 1.0]
        )
        np.testing.assert_array_equal(
            minmax_normalize(np.array([3.0, 3.0, 3.0])), [1.0, 1.0, 1.0]
        )
        np.testing.assert_allclose(
            minmax_normalize(np.array([-np.inf, 0.0, 1.0])), [0.0, 0.0, 1.0]
        )

    def test_minmax_edge_cases(self):
        # an edgeless graph has no arc scores to scale
        empty = minmax_normalize(np.array([]))
        assert empty.shape == (0,) and empty.dtype == np.float64
        np.testing.assert_array_equal(
            minmax_normalize(np.array([-np.inf, -np.inf])), [0.0, 0.0]
        )
        np.testing.assert_array_equal(
            minmax_normalize(np.array([-np.inf, 7.0])), [0.0, 1.0]
        )

    def test_matches_scalar_benefit_form(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(4, 10))
            g = random_graph(rng, n, 3 * n)
            labels = rng.integers(0, 2, size=n)
            d_plus, d_minus = expected_label_counts(g, indicator_arc_probs(g, labels))
            alpha = estimated_alpha(d_plus, d_minus, degrees(g))
            t_max = int(rng.integers(1, 6))
            scores = log_benefit_scores(alpha, degrees(g), t_max)
            # integer label counts: alpha is 0 or at least 1 / (d + 1)
            counts = profile_counts(g, LabelVector(labels, 2))
            for v, (p, m, d) in enumerate(zip(*counts)):
                a = (1 + int(p) - int(m)) / (int(d) + 1)
                if a == 0:
                    assert np.isneginf(scores[v])
                else:
                    expected = t_max * (2 * math.log(abs(a)) + math.log(d + 1))
                    assert scores[v] == pytest.approx(expected, rel=1e-12)

    def test_zero_alpha_sentinel(self):
        scores = log_benefit_scores(np.array([0.0, 0.5]), np.array([3.0, 3.0]), 2)
        assert np.isneginf(scores[0]) and np.isfinite(scores[1])


class TestThreshold:
    def test_lambda_one_pins_to_one(self):
        tf = ThresholdFunction(1.0, tensor([[0.3]]), tensor([[-2.0]]))
        np.testing.assert_array_equal(threshold_values(tf, 5), np.ones(5))

    def test_midpoint_mixture(self):
        # softplus(0) = ln 2, intercept cancels it at t = 1, so theta = 0.5
        tf = ThresholdFunction(0.8, tensor([[0.0]]), tensor([[-np.log(2.0)]]))
        assert threshold_values(tf, 1)[0] == pytest.approx(0.9)

    def test_monotone_for_arbitrary_parameters(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            tf = ThresholdFunction(
                float(rng.uniform()),
                tensor([[float(rng.uniform(-10, 10))]]),
                tensor([[float(rng.uniform(-10, 10))]]),
            )
            tau = threshold_values(tf, 8)
            assert (np.diff(tau) >= 0).all()
            assert (tau >= tf.lambda_weight - 1e-12).all() and (tau <= 1.0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdFunction(1.5, tensor([[0.0]]), tensor([[0.0]]))
        with pytest.raises(ValueError):
            ThresholdFunction(0.5, tensor(np.zeros((2, 1))), tensor([[0.0]]))
        tf = ThresholdFunction(0.0, tensor([[0.0]]), tensor([[0.0]]))
        with pytest.raises(ValueError):
            threshold_values(tf, 0)


class TestStoppingDepths:
    def test_spec_examples(self):
        tau = np.array([0.2, 0.5, 0.9])
        plan = assign_stopping_depths(np.array([0.6, 0.1, 1.0]), tau)
        np.testing.assert_array_equal(plan.stopping_depth, [2, 0, 3])

    def test_count_form_under_monotone_thresholds(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            tau = np.sort(rng.uniform(size=5))
            eps = rng.uniform(size=20)
            plan = assign_stopping_depths(eps, tau)
            counts = (eps[:, None] >= tau[None, :]).sum(axis=1)
            np.testing.assert_array_equal(plan.stopping_depth, counts)

    def test_progressive_filtering_property(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(3, 15))
            g = random_graph(rng, n, 3 * n)
            # thresholds deliberately unsorted: masks must still nest
            tau = rng.uniform(size=int(rng.integers(1, 6)))
            plan = assign_stopping_depths(rng.uniform(size=n), tau)
            for t in range(1, plan.t_max):
                nodes_now = plan.active_nodes(t)
                nodes_next = plan.active_nodes(t + 1)
                assert not (nodes_next & ~nodes_now).any()
                # an edge carries a fresh message while both ends are active
                e = g.edges()
                edges_now = nodes_now[e[:, 0]] & nodes_now[e[:, 1]]
                edges_next = nodes_next[e[:, 0]] & nodes_next[e[:, 1]]
                assert not (edges_next & ~edges_now).any()

    def test_plan_accessors(self):
        plan = assign_stopping_depths(
            np.array([0.95, 0.4, 0.0]), np.array([0.3, 0.6, 0.9])
        )
        np.testing.assert_array_equal(plan.stopping_depth, [3, 1, 0])
        assert plan.mean_depth() == pytest.approx(4.0 / 3.0)
        np.testing.assert_array_equal(plan.depth_histogram(), [1, 1, 0, 1])
        with pytest.raises(ValueError):
            plan.active_nodes(0)
        with pytest.raises(ValueError):
            plan.active_nodes(4)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            DepthPlan(np.array([1, 2]), np.array([0.5]), 2)
        with pytest.raises(ValueError):
            DepthPlan(np.array([3]), np.array([0.5]), 2)


class TestConfig:
    def test_t_max_is_the_backbone_layer_count(self):
        # one conv per allowable depth, so t_max is read off the backbone
        # and cannot be set apart from it
        assert config(t_max=3).t_max == 3
        with pytest.raises(TypeError):
            AdGnnConfig(t_max=3, backbone=backbone(2))

    def test_field_validation(self):
        with pytest.raises(ValueError):
            config(variant="nope")
        with pytest.raises(ValueError):
            config(variant="heuristic", heuristic_name="nope")
        with pytest.raises(ValueError):
            config(lambda_weight=1.2)

    def test_param_layout(self):
        cfg = config(t_max=2, kind="sage_mean")
        params = init_adgnn_params(cfg, 5, 3, seed=0)
        expected = {
            "dense0.weight",
            "conv1.weight",
            "conv1.weight_nbr",
            "conv2.weight",
            "conv2.weight_nbr",
            "dense3.weight",
            "head.w1",
            "head.w2",
            "threshold.slope_raw",
            "threshold.intercept_raw",
        }
        assert set(params) == expected
        assert params["dense0.weight"].shape == (5, 4)
        assert params["dense3.weight"].shape == (4, 3)
        # the head is 16 wide at every trunk width
        assert params["head.w1"].shape == (8, 16)
        assert params["head.w2"].shape == (16, 1)
        trunk = trunk_params(params)
        assert set(trunk) == {k for k in expected if k.startswith(("dense", "conv"))}

    def test_init_determinism(self):
        cfg = config()
        a = init_adgnn_params(cfg, 4, 2, seed=7)
        b = init_adgnn_params(cfg, 4, 2, seed=7)
        for k in a:
            np.testing.assert_array_equal(a[k].values, b[k].values)


class TestForwardReduction:
    def test_forced_full_depth_matches_plain_backbone(self):
        rng = np.random.default_rng(11)
        for kind in ("gcn_rownorm", "gcn_symnorm", "sage_mean"):
            for _ in range(4):
                n = int(rng.integers(6, 14))
                g = random_graph(rng, n, 3 * n)
                cfg = config(t_max=3, kind=kind)
                params = init_adgnn_params(cfg, 5, 2, seed=int(rng.integers(1 << 30)))
                x = tensor(rng.standard_normal((n, 5)))
                res = forward(cfg, params, g, x, depth_override=np.full(n, 3))
                plain = plain_forward(cfg.backbone, trunk_params(params), g, x)
                np.testing.assert_array_equal(res.logits.values, plain.values)

    def test_degenerate_scores_reduce_naturally(self):
        # regular ring: equal degree products, so normalization fails open,
        # every score is 1 and no node stops early
        g = build_graph([(i, (i + 1) % 8) for i in range(8)], 8)
        cfg = config(t_max=3, variant="fast_degree", lambda_weight=0.0)
        params = init_adgnn_params(cfg, 4, 2, seed=3)
        rng = np.random.default_rng(12)
        x = tensor(rng.standard_normal((8, 4)))
        res = forward(cfg, params, g, x)
        np.testing.assert_array_equal(res.plan.stopping_depth, np.full(8, 3))
        plain = plain_forward(cfg.backbone, trunk_params(params), g, x)
        np.testing.assert_array_equal(res.logits.values, plain.values)

    def test_all_stopped_at_one_equals_one_layer_model(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 9, 20)
        cfg_big = config(t_max=3)
        params = init_adgnn_params(cfg_big, 4, 2, seed=5)
        x = tensor(rng.standard_normal((9, 4)))
        big = forward(cfg_big, params, g, x, depth_override=np.ones(9, dtype=int))
        cfg_small = config(t_max=1)
        small_params = {
            "dense0.weight": params["dense0.weight"],
            "conv1.weight": params["conv1.weight"],
            "dense2.weight": params["dense4.weight"],
        }
        small = forward(
            cfg_small, small_params | {
                "head.w1": params["head.w1"],
                "head.w2": params["head.w2"],
                "threshold.slope_raw": params["threshold.slope_raw"],
                "threshold.intercept_raw": params["threshold.intercept_raw"],
            },
            g, x, depth_override=np.ones(9, dtype=int),
        )
        np.testing.assert_array_equal(big.logits.values, small.logits.values)


class TestForwardSemantics:
    def test_frozen_rows_ignore_later_layers(self):
        # perturbing conv t must not move logits of nodes stopped before t
        rng = np.random.default_rng(14)
        g = random_graph(rng, 12, 30)
        cfg = config(t_max=4)
        params = init_adgnn_params(cfg, 5, 3, seed=9)
        x = tensor(rng.standard_normal((12, 5)))
        override = rng.integers(0, 5, size=12)
        base = forward(cfg, params, g, x, depth_override=override).logits.values
        for t in range(1, 5):
            bumped = dict(params)
            bumped[f"conv{t}.weight"] = tensor(
                params[f"conv{t}.weight"].values + rng.standard_normal((4, 4)),
                requires_grad=True,
            )
            out = forward(cfg, bumped, g, x, depth_override=override).logits.values
            frozen = override < t
            np.testing.assert_array_equal(out[frozen], base[frozen])
            if (~frozen).any():
                assert not np.allclose(out[~frozen], base[~frozen])

    def test_zero_depth_nodes_classify_raw_embeddings(self):
        rng = np.random.default_rng(15)
        g = random_graph(rng, 8, 18)
        cfg = config(t_max=3)
        params = init_adgnn_params(cfg, 4, 2, seed=2)
        x = tensor(rng.standard_normal((8, 4)))
        res = forward(cfg, params, g, x, depth_override=np.zeros(8, dtype=int))
        expected = embed(cfg, params, x).values @ params["dense4.weight"].values
        np.testing.assert_allclose(res.logits.values, expected, rtol=0, atol=0)

    def test_lambda_one_keeps_only_top_scores(self):
        g = star(6)
        cfg = config(t_max=3, variant="fast_degree", lambda_weight=1.0)
        params = init_adgnn_params(cfg, 4, 2, seed=1)
        rng = np.random.default_rng(16)
        res = forward(cfg, params, g, tensor(rng.standard_normal((6, 4))))
        # center has the largest log benefit, leaves score 0 after scaling
        np.testing.assert_array_equal(res.plan.stopping_depth, [3, 0, 0, 0, 0, 0])

    def test_plan_matches_manual_pipeline(self):
        rng = np.random.default_rng(17)
        g = random_graph(rng, 15, 40)
        cfg = config(t_max=4, variant="fast_degree", lambda_weight=0.1)
        params = init_adgnn_params(cfg, 6, 2, seed=4)
        x = tensor(rng.standard_normal((15, 6)))
        res = forward(cfg, params, g, x)
        probs = degree_similarity(g)
        d_plus, d_minus = expected_label_counts(g, probs)
        alpha = estimated_alpha(d_plus, d_minus, degrees(g))
        eps = minmax_normalize(log_benefit_scores(alpha, degrees(g), 4))
        tau = thresholds_of(cfg, params, 4)
        manual = assign_stopping_depths(eps, tau)
        np.testing.assert_array_equal(res.plan.stopping_depth, manual.stopping_depth)
        np.testing.assert_array_equal(res.plan.normalized_scores, eps)
        deg = degrees(g).astype(np.float64)
        tape = mod._soft_scores(tensor(probs), g, deg, 4)
        np.testing.assert_array_equal(tape.values[:, 0], eps)
        np.testing.assert_array_equal(res.arc_probs.values.reshape(-1), probs)

    def test_input_validation(self):
        rng = np.random.default_rng(20)
        g = random_graph(rng, 6, 12)
        cfg = config(t_max=2)
        params = init_adgnn_params(cfg, 4, 2, seed=0)
        with pytest.raises(ValueError):
            forward(cfg, params, g, tensor(np.zeros((5, 4))))
        with pytest.raises(ValueError, match="hard gating"):
            forward(
                cfg, params, g, tensor(np.zeros((6, 4))),
                depth_override=np.zeros(6, dtype=int), temperature=0.1,
            )
        for bad in (0.0, float("nan")):
            with pytest.raises(ValueError, match="temperature"):
                forward(cfg, params, g, tensor(np.zeros((6, 4))), temperature=bad)

    def test_heuristic_variant_runs(self):
        rng = np.random.default_rng(21)
        g = random_graph(rng, 10, 25)
        cfg = config(t_max=2, variant="heuristic", heuristic_name="jaccard")
        params = init_adgnn_params(cfg, 4, 2, seed=0)
        res = forward(cfg, params, g, tensor(rng.standard_normal((10, 4))))
        p = res.arc_probs.values
        assert (p >= 0).all() and (p <= 1).all()
        assert res.logits.shape == (10, 2)


class TestSoftGating:
    def test_converges_to_hard_at_low_temperature(self):
        # seed picked so every score sits well clear of every threshold;
        # at temperature 1e-4 that saturates each gate to an exact 0 or 1
        rng = np.random.default_rng(78)
        g = random_graph(rng, 30, 90)
        cfg = config(t_max=4, hidden=8, variant="fast_degree", lambda_weight=0.2)
        params = init_adgnn_params(cfg, 6, 2, seed=6)
        x = tensor(rng.standard_normal((30, 6)))
        hard = forward(cfg, params, g, x)
        soft = forward(cfg, params, g, x, temperature=1e-4)
        tau = thresholds_of(cfg, params, 4)
        margin = np.abs(
            hard.plan.normalized_scores[:, None] - tau[None, :]
        ).min(axis=1)
        assert margin.min() > 5e-3  # otherwise the instance proves nothing
        included = margin >= 1e-6
        assert included.sum() >= 25
        diff = np.abs(soft.logits.values - hard.logits.values)[included]
        assert diff.max() < 1e-3

    def test_gradcheck_full_soft_model(self):
        # all-positive weights and features keep every relu strictly active,
        # so the only redraw guards needed are pair-distance ties and
        # min/max score gaps
        rng = np.random.default_rng(23)
        cfg = config(t_max=2, hidden=3, lambda_weight=0.1)
        checked = 0
        while checked < 20:
            n = 6
            g = random_graph(rng, n, 10)
            if g.num_edges < 3:
                continue
            params = init_adgnn_params(cfg, 3, 2, seed=int(rng.integers(1 << 30)))
            for k, t in params.items():
                if k.startswith(("dense", "conv", "head")):
                    t.values[:] = rng.uniform(0.5, 1.5, t.shape)
            x_vals = rng.uniform(0.5, 1.5, (n, 3))
            h0 = np.maximum(x_vals @ params["dense0.weight"].values, 0.0)
            src, dst = g.arc_sources(), g.csr_neighbors
            if np.abs(h0[src] - h0[dst]).min() < 2e-3:
                continue
            feats = np.hstack([np.abs(h0[src] - h0[dst]), h0[src] * h0[dst]])
            probs = expit(feats @ params["head.w1"].values @ params["head.w2"].values)
            d_plus = np.bincount(src, weights=probs.reshape(-1), minlength=n)
            alpha = estimated_alpha(d_plus, degrees(g) - d_plus, degrees(g))
            scores = np.sort(log_benefit_scores(alpha, degrees(g), 2))
            if scores[1] - scores[0] < 1e-2 or scores[-1] - scores[-2] < 1e-2:
                continue
            labels = rng.integers(0, 2, size=n)
            x = tensor(x_vals)
            leaves = list(params.values())

            def build():
                res = forward(cfg, params, g, x, temperature=0.3)
                return softmax_cross_entropy(res.logits, labels, np.ones(n, bool))

            assert check_gradients(build, leaves) < REL_TOL
            checked += 1

    def test_gradcheck_thresholds_and_gates_sage(self):
        # three gated sage_mean layers with a threshold floor: the per-layer
        # threshold terms meet in the two raw curve parameters
        rng = np.random.default_rng(25)
        cfg = config(t_max=3, hidden=3, kind="sage_mean", lambda_weight=0.2)
        checked = 0
        while checked < 10:
            n = 6
            g = random_graph(rng, n, 10)
            if g.num_edges < 3:
                continue
            params = init_adgnn_params(cfg, 3, 2, seed=int(rng.integers(1 << 30)))
            for k, t in params.items():
                if k.startswith(("dense", "conv", "head")):
                    t.values[:] = rng.uniform(0.5, 1.5, t.shape)
            x_vals = rng.uniform(0.5, 1.5, (n, 3))
            h0 = np.maximum(x_vals @ params["dense0.weight"].values, 0.0)
            src, dst = g.arc_sources(), g.csr_neighbors
            if np.abs(h0[src] - h0[dst]).min() < 2e-3:
                continue
            feats = np.hstack([np.abs(h0[src] - h0[dst]), h0[src] * h0[dst]])
            probs = expit(feats @ params["head.w1"].values @ params["head.w2"].values)
            d_plus = np.bincount(src, weights=probs.reshape(-1), minlength=n)
            alpha = estimated_alpha(d_plus, degrees(g) - d_plus, degrees(g))
            scores = np.sort(log_benefit_scores(alpha, degrees(g), 3))
            if scores[1] - scores[0] < 1e-2 or scores[-1] - scores[-2] < 1e-2:
                continue
            labels = rng.integers(0, 2, size=n)
            x = tensor(x_vals)
            leaves = list(params.values())

            def build():
                res = forward(cfg, params, g, x, temperature=0.3)
                return softmax_cross_entropy(res.logits, labels, np.ones(n, bool))

            assert check_gradients(build, leaves) < REL_TOL
            checked += 1

    @pytest.mark.parametrize("t_max", [1, 4])
    def test_each_gated_layer_records_one_node(self, t_max):
        # a soft layer costs one gate node, as a hard layer does with its
        # merge_rows; both record the head's four nodes
        # (two row gathers, the pair probability and its gather onto the
        # arcs) for the pair loss, and soft adds the score node and the
        # threshold node, which hard gating computes off the tape
        rng = np.random.default_rng(26)
        g = random_graph(rng, 20, 50)
        cfg = config(t_max=t_max, hidden=4, lambda_weight=0.1)
        params = init_adgnn_params(cfg, 3, 2, seed=1)
        x = tensor(rng.standard_normal((20, 3)))
        lengths = {}
        for gating, temperature in GATE_TEMPERATURE.items():
            with Tape() as tape:
                forward(cfg, params, g, x, temperature=temperature)
            lengths[gating] = len(tape)
        assert lengths["soft"] == lengths["hard"] + 2

    def test_hard_tape_nodes_all_reach_the_loss(self):
        # hard gating cuts the plan on constant scores, so the score path
        # records nothing; the head's nodes feed the pair loss, and every
        # recorded node must reach the total loss
        rng = np.random.default_rng(27)
        g = random_graph(rng, 20, 50)
        cfg = config(t_max=3, hidden=4)
        params = init_adgnn_params(cfg, 3, 2, seed=2)
        x = tensor(rng.standard_normal((20, 3)))
        labels = rng.integers(0, 2, size=20)
        with Tape() as tape:
            res = forward(cfg, params, g, x)
            task = softmax_cross_entropy(res.logits, labels, np.ones(20, bool))
            loss = total_loss(task, pair_loss_on_arcs(res, g, labels))
        reached = {id(loss)}
        for out, inputs, _ in reversed(tape._nodes):
            if id(out) in reached:
                reached.update(id(t) for t in inputs)
        assert [id(out) in reached for out, _, _ in tape._nodes] == [True] * len(tape)

    def test_gradcheck_hard_mode_trunk(self):
        # in hard mode the plan is constant under small parameter moves, so
        # finite differences and the tape agree: trunk gradients flow, the
        # scoring parameters get exact zeros on both sides
        rng = np.random.default_rng(24)
        cfg = config(t_max=2, hidden=3)
        checked = 0
        while checked < 10:
            n = 6
            g = random_graph(rng, n, 10)
            if g.num_edges < 3:
                continue
            params = init_adgnn_params(cfg, 3, 2, seed=int(rng.integers(1 << 30)))
            for k, t in params.items():
                if k.startswith(("dense", "conv", "head")):
                    t.values[:] = rng.uniform(0.5, 1.5, t.shape)
            x_vals = rng.uniform(0.5, 1.5, (n, 3))
            x = tensor(x_vals)
            probe = forward(cfg, params, g, x)
            tau = thresholds_of(cfg, params, 2)
            margin = np.abs(
                probe.plan.normalized_scores[:, None] - tau[None, :]
            ).min()
            if margin < 1e-2:
                continue
            labels = rng.integers(0, 2, size=n)
            leaves = list(params.values())

            def build():
                res = forward(cfg, params, g, x)
                return softmax_cross_entropy(res.logits, labels, np.ones(n, bool))

            assert check_gradients(build, leaves) < REL_TOL
            checked += 1


def reference_hard_forward(cfg, params, g, x, depth, rng=None):
    """The hard-gated trunk as written before row slicing: every layer
    computes every row and merge_rows (np.where) keeps the active ones."""
    bb = cfg.backbone
    h0 = dense_forward(bb, {"weight": params["dense0.weight"]}, x, True, rng)
    h = h0
    for t in range(1, cfg.t_max + 1):
        layer = {k.split(".")[1]: v for k, v in params.items()
                 if k.startswith(f"conv{t}.")}
        h = merge_rows(h, depth >= t, layer_forward(bb, layer, g, h, True, rng))
    out = {"weight": params[f"dense{cfg.t_max + 1}.weight"]}
    return dense_forward(bb, out, h, False, rng), h0


def assert_matches_reference(actual, expected, name=""):
    # the sliced layers run the reference's sparse arithmetic row for row,
    # but their dense products have fewer rows, and BLAS does not promise
    # that a row of gemm rounds alike at every row count
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-14,
                               err_msg=name)


class TestHardRowSlices:
    # active rows per layer: 12 (every row), 9 (more than half), 6 (half),
    # 3, 1 and 0; the layers compute 12, 12, 6, 3, 1 and 0 rows
    DEPTHS = np.array([1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5])
    COMPUTED = [12, 12, 6, 3, 1, 0]

    def setup_case(self, kind, dropout, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 12, 30)
        bb = BackboneConfig(kind=kind, layers=6, hidden_dim=4, dropout=dropout)
        cfg = AdGnnConfig(backbone=bb)
        params = init_adgnn_params(cfg, 3, 2, seed=int(rng.integers(1 << 30)))
        x = tensor(rng.standard_normal((12, 3)))
        labels = rng.integers(0, 2, size=12)
        return cfg, params, g, x, labels, rng.permutation(self.DEPTHS)

    @staticmethod
    def step(params, labels, build):
        # one hard training step: loss and leaf gradients as fit_model forms them
        with Tape() as tape:
            logits, reg = build()
            task = softmax_cross_entropy(logits, labels, np.ones(12, bool))
            loss = total_loss(task, reg)
        grads = backward(tape, loss)
        return logits.values, loss.item(), {k: grads[p] for k, p in params.items()
                                             if p in grads}

    @pytest.mark.parametrize("kind", ["gcn_symnorm", "gcn_rownorm", "sage_mean"])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_training_step_matches_every_row_reference(self, kind, dropout, monkeypatch):
        for seed in range(4):
            cfg, params, g, x, labels, depth = self.setup_case(kind, dropout, seed)
            computed = []

            def spy(*args, **kwargs):
                out = layer_forward(*args, **kwargs)
                computed.append(out.shape[0])
                return out

            monkeypatch.setattr(mod, "layer_forward", spy)
            rng = np.random.default_rng(seed) if dropout else None
            ref_rng = np.random.default_rng(seed) if dropout else None

            def gated():
                res = forward(cfg, params, g, x, dropout_rng=rng, depth_override=depth)
                np.testing.assert_array_equal(res.plan.stopping_depth, depth)
                return res.logits, pair_loss_on_arcs(res, g, labels)

            def reference():
                # every row computed, and the pair loss a head call of its own
                logits, h0 = reference_hard_forward(cfg, params, g, x, depth, ref_rng)
                return logits, direct_pair_loss(params, h0, g.edges(), labels)

            logits, loss, grads = self.step(params, labels, gated)
            assert computed == self.COMPUTED
            monkeypatch.undo()
            ref = self.step(params, labels, reference)
            assert_matches_reference(logits, ref[0])
            assert_matches_reference(loss, ref[1])
            assert grads.keys() == ref[2].keys()
            for name in grads:
                assert_matches_reference(grads[name], ref[2][name], name)
            if dropout:
                # every layer drew its mask over all rows, as the reference did
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_planned_forward_matches_reference(self):
        # the forward's own plan, not an override, picks the same rows
        rng = np.random.default_rng(31)
        for kind in ("gcn_symnorm", "gcn_rownorm", "sage_mean"):
            g = random_graph(rng, 40, 100)
            cfg = config(t_max=5, hidden=4, kind=kind, lambda_weight=0.3)
            params = init_adgnn_params(cfg, 3, 2, seed=int(rng.integers(1 << 30)))
            x = tensor(rng.standard_normal((40, 3)))
            res = forward(cfg, params, g, x)
            depth = res.plan.stopping_depth
            assert any(0 < (depth >= t).sum() <= 20 for t in range(1, 6))
            ref, _ = reference_hard_forward(cfg, params, g, x, depth)
            assert_matches_reference(res.logits.values, ref.values)


class TestEdgeScoring:
    def setup_case(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 30, 80)
        cfg = config(t_max=2, hidden=5)
        params = init_adgnn_params(cfg, 4, 2, seed=seed)
        return cfg, params, g, tensor(rng.standard_normal((30, 4)))

    @pytest.mark.parametrize("gating", ["hard", "soft"])
    def test_arc_probs_equal_scoring_each_arc(self, gating):
        # the arcs u -> v (u < v) and their reverses are scored in two
        # calls, each in edge order, so each call has the forward's row
        # count: BLAS need not round a row alike at every row count, and
        # one call over all arcs moves a few rows in the last bit at the
        # head's width of 16
        for seed in range(5):
            cfg, params, g, x = self.setup_case(seed)
            res = forward(cfg, params, g, x, temperature=GATE_TEMPERATURE[gating])
            h0 = embed(cfg, params, x).values
            src, dst = g.arc_sources(), g.csr_neighbors
            ahead = np.flatnonzero(src < dst)
            back = np.flatnonzero(src > dst)
            back = back[np.lexsort((src[back], dst[back]))]
            for arcs in (ahead, back):
                per_arc = pair_probability(
                    head_of(params), tensor(h0[src[arcs]]), tensor(h0[dst[arcs]]),
                )
                np.testing.assert_array_equal(res.arc_probs.values[arcs],
                                              per_arc.values)

    def test_head_scores_each_edge_once(self, monkeypatch):
        cfg, params, g, x = self.setup_case(7)
        rows = []

        def spy(head, h_u, h_v):
            rows.append(h_u.shape[0])
            return pair_probability(head, h_u, h_v)

        monkeypatch.setattr(mod, "pair_probability", spy)
        for temperature in GATE_TEMPERATURE.values():
            forward(cfg, params, g, x, temperature=temperature)
        assert rows == [g.num_edges, g.num_edges]

    def test_arc_edge_index_built_once_per_graph(self, monkeypatch):
        cfg, params, g, x = self.setup_case(8)
        built = []

        def spy(graph):
            built.append(graph)
            return build(graph)

        build = Graph._build_arc_edges
        monkeypatch.setattr(Graph, "_build_arc_edges", spy)
        forward(cfg, params, g, x)
        forward(cfg, params, g, x, temperature=0.1)
        assert built == [g]
        other = build_graph(g.edges(), g.num_nodes)
        forward(cfg, params, other, x)
        assert built == [g, other]


class TestLosses:
    def test_reg_loss_at_half_is_ln2(self):
        probs = tensor(np.full((6, 1), 0.5))
        loss = regularization_loss(probs, np.array([0, 2, 4]), np.array([True, False, True]))
        assert loss.item() == pytest.approx(np.log(2.0))

    def test_reg_loss_perfect_predictions(self):
        # one hidden unit fires on the product block (same pair), another on
        # the difference block (opposite pair); signs push each side past
        # the probability clamp
        w1 = np.zeros((2, 2))
        w1[0, 1] = 1.0   # |h_u - h_v| -> unit 1
        w1[1, 0] = 1.0   # h_u * h_v   -> unit 0
        head = SimilarityHead(tensor(w1), tensor(np.array([[1.0], [-1.0]])))
        probs = pair_probability(head, tensor([[10.0], [-10.0]]), tensor([[10.0], [10.0]]))
        loss = regularization_loss(probs, np.array([0, 1]), np.array([True, False]))
        assert loss.item() < 1e-6

    def test_reg_loss_empty_edges(self):
        loss = regularization_loss(
            tensor(np.full((3, 1), 0.5)), np.zeros(0, dtype=int), np.zeros(0, bool)
        )
        assert loss.item() == 0.0

    def test_reg_loss_gradcheck(self):
        # through the head and the gather onto the loss's arcs, one of
        # them read twice
        rng = np.random.default_rng(26)
        edges = np.array([[0, 1], [2, 3], [4, 5], [1, 2]])
        arcs = np.array([3, 0, 2, 3])
        for _ in range(20):
            while True:
                h0v = rng.standard_normal((6, 3))
                w1 = rng.standard_normal((6, 4)) * 0.7
                du = h0v[edges[:, 0]] - h0v[edges[:, 1]]
                feats = np.hstack(
                    [np.abs(du), h0v[edges[:, 0]] * h0v[edges[:, 1]]]
                )
                if np.abs(du).min() > 1e-3 and np.abs(feats @ w1).min() > 1e-3:
                    break
            h0 = tensor(h0v, requires_grad=True)
            t_w1 = tensor(w1, requires_grad=True)
            t_w2 = tensor(rng.standard_normal((4, 1)), requires_grad=True)
            same = rng.integers(0, 2, size=4).astype(bool)

            def build():
                probs = pair_probability(
                    SimilarityHead(t_w1, t_w2),
                    row_gather(h0, edges[:, 0]), row_gather(h0, edges[:, 1]),
                )
                return regularization_loss(probs, arcs, same)

            assert check_gradients(build, [h0, t_w1, t_w2]) < REL_TOL

    @pytest.mark.parametrize("gating", ["hard", "soft"])
    def test_pair_loss_reads_train_edge_arcs(self, gating, monkeypatch):
        # fit_model's pair loss reads the forward's arc scores at one arc
        # per train-train edge; it equals, bit for bit, the loss of a head
        # call of its own on those edge rows
        import adgnn.train as train_module

        real = train_module.regularization_loss
        calls = []

        def spy(arc_probs, arcs, same_label):
            loss = real(arc_probs, arcs, same_label)
            calls.append((arcs, loss.item()))
            return loss

        monkeypatch.setattr(train_module, "regularization_loss", spy)
        # no warm-up, so the soft case trains its first epoch soft; a
        # forced plan trains hard
        monkeypatch.setattr(train_module, "_GATE_WARMUP_EPOCHS", 0)
        rng = np.random.default_rng(28)
        cfg = config(t_max=2, hidden=5)
        plan = np.arange(40) % 3 if gating == "hard" else None
        for seed in range(5):
            g = random_graph(rng, 40, 120)
            x = rng.standard_normal((40, 4))
            labels = LabelVector(rng.integers(0, 2, size=40), 2)
            split = make_split(40, seed=seed)
            calls.clear()
            fit_model(cfg, (g, x, labels), split, TrainConfig(epochs=1), seed=seed,
                      depth_override=plan)
            [(arcs, loss)] = calls
            edges = g.edges()
            train = split.train[edges[:, 0]] & split.train[edges[:, 1]]
            assert train.any() and not train.all()
            np.testing.assert_array_equal(
                np.stack([g.arc_sources()[arcs], g.csr_neighbors[arcs]], axis=1),
                edges[train],
            )
            params = init_adgnn_params(cfg, 4, 2, seed)
            h0 = embed(cfg, params, tensor(x))
            direct = direct_pair_loss(params, h0, edges[train], labels.labels)
            assert loss == direct.item()


def _saturated_learned(cfg, n_features, seed=0):
    # positive embeddings and first head layer, hugely negative output
    # weights: every arc probability is exactly 0, so every degree-1 node
    # has alpha exactly 0 and a degree-d node (1 - d) / (d + 1)
    params = init_adgnn_params(cfg, n_features, 2, seed=seed)
    params["dense0.weight"].values[:] = 1.0
    params["head.w1"].values[:] = 1.0
    params["head.w2"].values[:] = -1e4
    return params


class TestOneScorePath:
    """The soft gates and the plan read one set of scores; the closed form
    (estimated_alpha, log_benefit_scores, minmax_normalize) is the
    reference both are checked against."""

    @staticmethod
    def check_soft_equals_plan(cfg, params, g, x):
        res = forward(cfg, params, g, x, temperature=0.1)
        deg = degrees(g).astype(np.float64)
        soft = mod._soft_scores(res.arc_probs, g, deg, cfg.t_max).values.reshape(-1)
        np.testing.assert_array_equal(soft, res.plan.normalized_scores)
        hard = forward(cfg, params, g, x)
        np.testing.assert_array_equal(soft, hard.plan.normalized_scores)
        d_plus, d_minus = expected_label_counts(g, res.arc_probs.values)
        alpha = estimated_alpha(d_plus, d_minus, deg)
        ref = minmax_normalize(log_benefit_scores(alpha, deg, cfg.t_max))
        np.testing.assert_array_equal(soft, ref)
        sentinel = np.abs(alpha) <= _ALPHA_FLOOR
        assert np.all(soft[sentinel] == 0.0)
        return alpha, soft

    @pytest.mark.parametrize(
        "variant, heuristic",
        [("learned", None), ("fast_degree", None)]
        + [("heuristic", name) for name in mod.HEURISTIC_NAMES],
    )
    def test_every_variant_with_degree_one_nodes(self, variant, heuristic):
        rng = np.random.default_rng(31)
        core = rng.integers(0, 20, size=(40, 2))
        pendants = [(20 + i, int(rng.integers(20))) for i in range(4)]
        g = build_graph(np.vstack([core, pendants]), 24)
        assert np.sum(degrees(g) == 1) >= 4
        kw = {"heuristic_name": heuristic} if heuristic else {}
        cfg = config(t_max=3, variant=variant, lambda_weight=0.1, **kw)
        params = init_adgnn_params(cfg, 5, 2, seed=3)
        x = tensor(rng.standard_normal((24, 5)))
        alpha, _ = self.check_soft_equals_plan(cfg, params, g, x)
        if heuristic == "common_neighbors":
            # a pendant's only edge has no common neighbor: exact zero alpha
            assert np.any(alpha == 0.0)

    def test_rounding_noise_alpha_is_a_sentinel(self):
        # fast_degree on the default 2,000-node CSBM at seed 1 has a node
        # whose arc scores sum to exactly half its degree in exact
        # arithmetic; rounding leaves a tiny nonzero alpha
        from adgnn.csbm import (
            CsbmParams, canonical_prototypes, homophily_from_target, sample_graph,
        )

        p_in, p_out = homophily_from_target(0.9, 10.0, 1000, 1000)
        mu0, mu1 = canonical_prototypes(1.0, 8)
        params = CsbmParams(n0=1000, n1=1000, mu0=mu0, mu1=mu1, sigma=1.0,
                            p_in=p_in, p_out=p_out)
        g, features, _ = sample_graph(params, seed=1)
        cfg = config(t_max=2, variant="fast_degree")
        model_params = init_adgnn_params(cfg, features.shape[1], 2, seed=0)
        alpha, soft = self.check_soft_equals_plan(
            cfg, model_params, g, tensor(features)
        )
        noise = (alpha != 0.0) & (np.abs(alpha) <= _ALPHA_FLOOR)
        assert noise.any()
        assert np.all(soft[noise] == 0.0)
        assert soft[~noise].min() == 0.0 and soft.max() == 1.0

    @pytest.mark.parametrize(
        "edges, n, variant, expected",
        [
            ([(0, 1), (2, 3)], 4, "learned", [0.0, 0.0, 0.0, 0.0]),
            ([(0, 1), (1, 2), (2, 3)], 4, "learned", [0.0, 1.0, 1.0, 0.0]),
            ([(i, (i + 1) % 5) for i in range(5)], 5, "fast_degree", [1.0] * 5),
        ],
        ids=["all_sentinel", "sentinels_and_equal", "all_equal"],
    )
    def test_degenerate_score_sets(self, edges, n, variant, expected):
        g = build_graph(edges, n)
        cfg = config(t_max=2, variant=variant)
        params = _saturated_learned(cfg, 3)
        x = tensor(np.ones((n, 3)))
        _, soft = self.check_soft_equals_plan(cfg, params, g, x)
        np.testing.assert_array_equal(soft, expected)

    def test_gradcheck_soft_model_with_sentinel(self):
        # common_neighbors gives pendant node 5 an exact zero alpha; its soft
        # gates still carry threshold gradients at score 0
        rng = np.random.default_rng(41)
        g = build_graph([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)], 6)
        cfg = config(
            t_max=2, hidden=3, lambda_weight=0.1, variant="heuristic",
        )
        params = init_adgnn_params(cfg, 3, 2, seed=5)
        for k, t in params.items():
            if k.startswith(("dense", "conv")):
                t.values[:] = rng.uniform(0.5, 1.5, t.shape)
        x = tensor(rng.uniform(0.5, 1.5, (6, 3)))
        scores = forward(cfg, params, g, x, temperature=0.3).plan.normalized_scores
        assert scores[5] == 0.0 and scores.max() == 1.0
        labels = rng.integers(0, 2, size=6)
        leaves = list(params.values())

        def build():
            res = forward(cfg, params, g, x, temperature=0.3)
            return softmax_cross_entropy(res.logits, labels, np.ones(6, bool))

        assert check_gradients(build, leaves) < REL_TOL

    def test_gradcheck_scores_with_sentinel(self):
        # arc probabilities out of pendant node 0 are pinned at 0 (alpha
        # exactly 0); the live nodes' scores differentiate through the
        # min-max over the live rows alone
        rng = np.random.default_rng(42)
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)], 6)
        deg = degrees(g).astype(np.float64)
        pinned = (g.arc_sources() != 0).astype(np.float64).reshape(-1, 1)
        checked = 0
        while checked < 10:
            leaf = tensor(rng.uniform(0.05, 0.95, pinned.shape), requires_grad=True)
            d_plus, d_minus = expected_label_counts(g, leaf.values[:, 0] * pinned[:, 0])
            alpha = estimated_alpha(d_plus, d_minus, deg)
            live = np.sort(log_benefit_scores(alpha, deg, 2)[1:])
            if np.abs(alpha[1:]).min() < 0.05 or min(live[1] - live[0], live[-1] - live[-2]) < 1e-2:
                continue
            w = tensor(rng.standard_normal((6, 1)))

            def build():
                probs = merge_rows(tensor(0.0 * pinned), pinned[:, 0] > 0, leaf)
                eps = mod._soft_scores(probs, g, deg, 2)
                return weighted_mean(eps, w)

            assert check_gradients(build, [leaf]) < REL_TOL
            checked += 1
