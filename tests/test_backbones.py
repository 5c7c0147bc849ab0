import numpy as np
import pytest

from adgnn.autodiff import Tape, backward, tensor
from adgnn.backbones import (
    BackboneConfig,
    glorot,
    init_params,
    layer_forward,
    plain_forward,
    spine_from_params,
)
from adgnn.graph import build_graph
from gradcheck import REL_TOL, check_gradients, weighted_mean


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BackboneConfig(kind="gat")
        with pytest.raises(ValueError):
            BackboneConfig(layers=0)
        with pytest.raises(ValueError):
            BackboneConfig(hidden_dim=0)
        with pytest.raises(ValueError):
            BackboneConfig(dropout=1.0)
        with pytest.raises(ValueError):
            BackboneConfig(dropout=-0.2)


class TestInit:
    def test_deterministic(self):
        cfg = BackboneConfig(layers=3, hidden_dim=16)
        a = init_params(cfg, 7, 4, seed=1)
        b = init_params(cfg, 7, 4, seed=1)
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k].values, b[k].values)

    def test_shapes_chain(self):
        cfg = BackboneConfig(layers=3, hidden_dim=16)
        p = init_params(cfg, 7, 4, seed=0)
        assert p["conv0.weight"].shape == (7, 16)
        assert p["conv1.weight"].shape == (16, 16)
        assert p["conv2.weight"].shape == (16, 4)

    def test_sage_has_neighbor_weights(self):
        cfg = BackboneConfig(kind="sage_mean", layers=2, hidden_dim=8)
        p = init_params(cfg, 5, 3, seed=0)
        assert "conv0.weight_nbr" in p and "conv1.weight_nbr" in p

    def test_glorot_std(self):
        rng = np.random.default_rng(0)
        draws = np.concatenate(
            [glorot(rng, 64, 32).values.reshape(-1) for _ in range(10)]
        )
        target = np.sqrt(2.0 / (64 + 32))
        assert np.std(draws) == pytest.approx(target, rel=0.2)

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            BackboneConfig(layers=0)


class TestSpine:
    def test_roundtrip(self):
        cfg = BackboneConfig(layers=2, hidden_dim=8)
        p = init_params(cfg, 4, 3, seed=0)
        spine = spine_from_params(p)
        assert [k for k, _ in spine] == ["conv", "conv"]

    def test_bad_names(self):
        with pytest.raises(ValueError):
            spine_from_params({"weird.weight": tensor(np.ones((2, 2)))})
        with pytest.raises(ValueError):
            spine_from_params({"conv1.weight": tensor(np.ones((2, 2)))})


class TestLayerForward:
    def test_edgeless_is_dense(self):
        cfg = BackboneConfig(kind="gcn_rownorm", layers=1, hidden_dim=4)
        g = build_graph([], 3)
        rng = np.random.default_rng(1)
        h = tensor(rng.standard_normal((3, 4)))
        w = tensor(rng.standard_normal((4, 2)))
        out = layer_forward(cfg, {"weight": w}, g, h)
        expected = np.maximum(h.values @ w.values, 0.0)
        np.testing.assert_array_equal(out.values, expected)

    def test_identity_weight_constant_features(self):
        cfg = BackboneConfig(kind="gcn_rownorm", layers=1, hidden_dim=3)
        g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
        h = tensor(np.full((3, 3), 2.0))
        out = layer_forward(cfg, {"weight": tensor(np.eye(3))}, g, h)
        np.testing.assert_allclose(out.values, h.values)

    @pytest.mark.parametrize("kind", ["gcn_symnorm", "gcn_rownorm", "sage_mean"])
    def test_each_kind_aggregates_with_its_operator(self, kind):
        # degrees 3, 2, 2, 2, 1 and 0 tell the three operators apart, which
        # a gradcheck cannot: it passes with any operator
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)]
        g = build_graph(edges, 6)
        adj = np.zeros((6, 6))
        for u, v in edges:
            adj[u, v] = adj[v, u] = 1.0
        deg = adj.sum(axis=1)
        with_self = adj + np.eye(6)
        dense = {
            "gcn_symnorm": with_self / np.sqrt(np.outer(deg + 1.0, deg + 1.0)),
            "gcn_rownorm": with_self / (deg + 1.0)[:, None],
            "sage_mean": adj / np.maximum(deg, 1.0)[:, None],
        }[kind]
        rng = np.random.default_rng(3)
        h = rng.standard_normal((6, 4))
        lp = {"weight": tensor(rng.standard_normal((4, 3)))}
        if kind == "sage_mean":
            lp["weight_nbr"] = tensor(rng.standard_normal((4, 3)))
            expected = h @ lp["weight"].values + dense @ h @ lp["weight_nbr"].values
        else:
            expected = dense @ h @ lp["weight"].values
        cfg = BackboneConfig(kind=kind, layers=1, hidden_dim=4)
        for rows in (None, np.array([0, 4, 5])):
            out = layer_forward(cfg, lp, g, tensor(h), activate=False, rows=rows)
            want = expected if rows is None else expected[rows]
            np.testing.assert_allclose(out.values, want, rtol=1e-12, atol=1e-12)

    def test_gradcheck_all_kinds(self):
        rng = np.random.default_rng(2)
        for kind in ("gcn_symnorm", "gcn_rownorm", "sage_mean"):
            cfg = BackboneConfig(kind=kind, layers=1, hidden_dim=4)
            for _ in range(20):
                g = build_graph(rng.integers(0, 6, size=(10, 2)), 6)
                h = tensor(rng.standard_normal((6, 4)), requires_grad=True)
                lp = {"weight": tensor(rng.standard_normal((4, 3)), requires_grad=True)}
                if kind == "sage_mean":
                    lp["weight_nbr"] = tensor(
                        rng.standard_normal((4, 3)), requires_grad=True
                    )
                wt = tensor(rng.standard_normal((6, 3)))
                leaves = [h] + list(lp.values())

                def build():
                    out = layer_forward(cfg, lp, g, h, activate=False)
                    return weighted_mean(out, wt)

                assert check_gradients(build, leaves) < REL_TOL


class TestPlainForward:
    def test_one_layer_hand_computed(self):
        # two nodes, one edge, identity features, symnorm:
        # S = [[1/2, 1/2], [1/2, 1/2]], logits = S @ I @ W = S @ W
        cfg = BackboneConfig(kind="gcn_symnorm", layers=1, hidden_dim=4)
        g = build_graph([(0, 1)], 2)
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        params = {"conv0.weight": tensor(w, requires_grad=True)}
        logits = plain_forward(cfg, params, g, tensor(np.eye(2)))
        np.testing.assert_allclose(logits.values, [[2.0, 3.0], [2.0, 3.0]])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        for kind in ("gcn_symnorm", "gcn_rownorm", "sage_mean"):
            cfg = BackboneConfig(kind=kind, layers=2, hidden_dim=8)
            n = 9
            g = build_graph(rng.integers(0, n, size=(16, 2)), n)
            x = rng.standard_normal((n, 5))
            params = init_params(cfg, 5, 3, seed=4)
            perm = rng.permutation(n)
            inv = np.argsort(perm)
            g_perm = build_graph([(perm[u], perm[v]) for u, v in g.edges()], n)
            base = plain_forward(cfg, params, g, tensor(x)).values
            permuted = plain_forward(cfg, params, g_perm, tensor(x[inv])).values
            np.testing.assert_allclose(permuted[perm], base, atol=1e-10)

    def test_rownorm_constant_fixed_point_any_depth(self):
        # pre-activation aggregation of a constant matrix is that matrix;
        # with identity weights and nonneg constants the whole stack is too
        cfg = BackboneConfig(kind="gcn_rownorm", layers=4, hidden_dim=3)
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
        params = {f"conv{i}.weight": tensor(np.eye(3), requires_grad=True) for i in range(4)}
        x = np.full((4, 3), 0.7)
        out = plain_forward(cfg, params, g, tensor(x))
        np.testing.assert_allclose(out.values, x)

    def test_deep_stack_stays_finite(self):
        cfg = BackboneConfig(kind="gcn_symnorm", layers=64, hidden_dim=8)
        rng = np.random.default_rng(5)
        g = build_graph(rng.integers(0, 12, size=(30, 2)), 12)
        params = init_params(cfg, 6, 3, seed=6)
        out = plain_forward(cfg, params, g, tensor(rng.standard_normal((12, 6))))
        assert np.all(np.isfinite(out.values))

    def test_trainable_end_to_end(self):
        cfg = BackboneConfig(kind="gcn_symnorm", layers=2, hidden_dim=8, dropout=0.2)
        rng = np.random.default_rng(7)
        g = build_graph(rng.integers(0, 10, size=(18, 2)), 10)
        x = tensor(rng.standard_normal((10, 4)))
        params = init_params(cfg, 4, 2, seed=8)
        from adgnn.autodiff import softmax_cross_entropy

        with Tape() as tape:
            logits = plain_forward(cfg, params, g, x, dropout_rng=np.random.default_rng(9))
            loss = softmax_cross_entropy(
                logits, rng.integers(0, 2, size=10), np.ones(10, bool)
            )
        grads = backward(tape, loss)
        assert any(np.any(grads.get(p, 0.0) != 0) for p in params.values())


class TestMixedSpine:
    def test_dense_conv_dense(self):
        cfg = BackboneConfig(kind="gcn_rownorm", layers=1, hidden_dim=4)
        rng = np.random.default_rng(10)
        g = build_graph([(0, 1), (1, 2)], 3)
        params = {
            "dense0.weight": tensor(rng.standard_normal((5, 4)), requires_grad=True),
            "conv1.weight": tensor(rng.standard_normal((4, 4)), requires_grad=True),
            "dense2.weight": tensor(rng.standard_normal((4, 2)), requires_grad=True),
        }
        x = rng.standard_normal((3, 5))
        out = plain_forward(cfg, params, g, tensor(x))
        # replicate by hand
        h0 = np.maximum(x @ params["dense0.weight"].values, 0.0)
        agg = np.empty_like(h0)
        agg[0] = (h0[0] + h0[1]) / 2
        agg[1] = (h0[0] + h0[1] + h0[2]) / 3
        agg[2] = (h0[1] + h0[2]) / 2
        h1 = np.maximum(agg @ params["conv1.weight"].values, 0.0)
        expected = h1 @ params["dense2.weight"].values
        np.testing.assert_allclose(out.values, expected, atol=1e-12)
