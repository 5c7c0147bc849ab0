"""Training loop and aggregation tests.

Covers config validation, the accuracy metric, temperature annealing,
validation-based model selection bookkeeping, seed determinism, and
end-to-end accuracy on an easy synthetic instance.
"""

import numpy as np
import pytest

from adgnn.autodiff import Tape, backward, softmax_cross_entropy, tensor
from adgnn.backbones import BackboneConfig, init_params, plain_forward
from adgnn.csbm import (
    CsbmParams,
    canonical_prototypes,
    homophily_from_target,
    sample_graph,
)
from adgnn.graph import build_graph, make_split
from adgnn.model import AdGnnConfig
from adgnn.train import (
    RunResult,
    SeedResult,
    TrainConfig,
    accuracy,
    annealed_temperature,
    fit_model,
    train_model,
)


def csbm_data(n_per_class, target_h, mean_degree, delta_sq, dim, seed):
    p_in, p_out = homophily_from_target(
        target_h, mean_degree, n_per_class, n_per_class
    )
    mu0, mu1 = canonical_prototypes(delta_sq, dim)
    params = CsbmParams(
        n0=n_per_class, n1=n_per_class, mu0=mu0, mu1=mu1,
        sigma=1.0, p_in=p_in, p_out=p_out,
    )
    return sample_graph(params, seed)


def backbone(layers, hidden=8, kind="gcn_symnorm", dropout=0.0):
    return BackboneConfig(kind=kind, layers=layers, hidden_dim=hidden,
                          dropout=dropout)


def stub_result(seed, acc):
    return SeedResult(
        seed=seed, test_accuracy=acc, best_val_epoch=0,
        best_val_accuracy=acc, val_history=(acc,),
        mean_stopping_depth=float("nan"), depth_histogram=(),
    )


class TestTrainConfig:
    def test_defaults_valid(self):
        tc = TrainConfig()
        assert tc.epochs == 200 and tc.lr == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"lr": 0.0},
            {"lr": -1.0},
            {"epochs": -1},
            {"lr": float("-inf")},
            {"lr": float("nan")},
            {"lr": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestAccuracy:
    def test_perfect_and_inverted(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
        labels = np.array([0, 1, 0])
        mask = np.ones(3, dtype=bool)
        assert accuracy(logits, labels, mask) == 1.0
        assert accuracy(logits, 1 - labels, mask) == 0.0

    def test_mask_restricts_rows(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1, 1])
        mask = np.array([True, False, True])
        assert accuracy(logits, labels, mask) == 1.0

    def test_ties_pick_lowest_class(self):
        logits = np.zeros((4, 2))
        labels = np.array([0, 0, 1, 1])
        mask = np.ones(4, dtype=bool)
        assert accuracy(logits, labels, mask) == 0.5

    def test_tensor_and_array_inputs_agree(self):
        vals = np.array([[0.3, 0.7], [0.9, 0.1]])
        labels = np.array([1, 0])
        mask = np.ones(2, dtype=bool)
        assert accuracy(tensor(vals), labels, mask) == accuracy(
            vals, labels, mask
        )

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy(np.zeros((2, 2)), np.zeros(2, dtype=int),
                     np.zeros(2, dtype=bool))


class TestAnnealedTemperature:
    def test_halves_every_period(self):
        assert annealed_temperature(0) == 0.1
        assert annealed_temperature(24) == 0.1
        assert annealed_temperature(25) == pytest.approx(0.05)
        assert annealed_temperature(62) == pytest.approx(0.025)

    def test_floor(self, monkeypatch):
        import adgnn.train as train_module

        assert annealed_temperature(10_000) == 1e-3
        monkeypatch.setattr(train_module, "_BASE_TEMPERATURE", 5e-4)
        assert annealed_temperature(0) == 1e-3


class TestMultiSeed:
    def test_mean_and_population_std(self, monkeypatch):
        import adgnn.drivers as drivers_module

        # the drivers train one seed at a time and keep the seed order
        def stub_train(cfg, data, split, tc, seed, depth_override=None):
            return stub_result(seed, [0.8, 1.0][seed])

        monkeypatch.setattr(drivers_module, "train_model", stub_train)
        data = csbm_data(10, 0.8, 3.0, 4.0, 2, seed=0)
        run = drivers_module._train_seeds(
            backbone(1), TrainConfig(epochs=1), (1, 0), lambda s: data
        )
        assert isinstance(run, RunResult)
        assert [r.seed for r in run.seed_results] == [1, 0]
        assert run.mean == pytest.approx(0.9)
        assert run.std == pytest.approx(0.1)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            RunResult(())


class TestFitModel:
    def test_plain_backbone_learns_easy_instance(self):
        data = csbm_data(300, 0.9, 10.0, 4.0, 8, seed=0)
        split = make_split(600, seed=0)
        tc = TrainConfig(epochs=80, lr=0.05)
        result = train_model(backbone(2, hidden=16), data, split, tc, seed=0)
        assert result.test_accuracy > 0.9
        assert np.isnan(result.mean_stopping_depth)
        assert result.depth_histogram == ()

    def test_selection_bookkeeping(self):
        data = csbm_data(100, 0.85, 8.0, 4.0, 4, seed=1)
        split = make_split(200, seed=1)
        tc = TrainConfig(epochs=30, lr=0.05)
        cfg = backbone(2)
        result, best_values = fit_model(cfg, data, split, tc, seed=1)
        history = np.array(result.val_history)
        assert len(history) == 30
        assert result.best_val_epoch == int(np.argmax(history))
        assert result.best_val_accuracy == history.max()
        # reported test accuracy must be reproducible from the snapshot
        graph, features, labels = data
        params = init_params(cfg, features.shape[1], labels.num_classes, 1)
        for name, p in params.items():
            p.values[:] = best_values[name]
        logits = plain_forward(cfg, params, graph, tensor(features))
        assert accuracy(logits, labels.labels, split.test) == result.test_accuracy

    def test_same_seed_bitwise_deterministic(self):
        data = csbm_data(60, 0.8, 6.0, 4.0, 4, seed=3)
        split = make_split(120, seed=3)
        tc = TrainConfig(epochs=10, lr=0.02)
        cfg = backbone(2, dropout=0.3)
        a = train_model(cfg, data, split, tc, seed=7)
        b = train_model(cfg, data, split, tc, seed=7)
        assert a.test_accuracy == b.test_accuracy
        assert a.val_history == b.val_history
        assert a.best_val_epoch == b.best_val_epoch
        assert a.best_val_accuracy == b.best_val_accuracy
        assert np.isnan(a.mean_stopping_depth) and np.isnan(b.mean_stopping_depth)

    def test_adam_gets_each_epochs_own_gradient(self, monkeypatch):
        # every Adam step must see the gradient of the current epoch's loss
        # alone, equal to a fresh tape's at the same parameter values, not
        # a sum over the epochs so far
        import adgnn.train as train_module

        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=8)
        graph, features, labels = data
        split = make_split(80, seed=8)
        cfg = backbone(2)
        real_step = train_module.adam_step
        checked = []

        def spy(params, grads, state):
            with Tape() as tape:
                logits = plain_forward(cfg, params, graph, tensor(features))
                loss = softmax_cross_entropy(logits, labels.labels, split.train)
            fresh = backward(tape, loss)
            assert set(grads) == set(params)
            for name, p in params.items():
                np.testing.assert_array_equal(grads[name], fresh[p])
            checked.append(state.step)
            return real_step(params, grads, state)

        monkeypatch.setattr(train_module, "adam_step", spy)
        fit_model(cfg, data, split, TrainConfig(epochs=4, lr=0.05), seed=0)
        assert checked == [0, 1, 2, 3]

    def test_plain_backbone_rejects_a_depth_plan(self, monkeypatch):
        import adgnn.train as train_module

        data = csbm_data(50, 0.8, 6.0, 4.0, 4, seed=5)
        split = make_split(100, seed=5)
        tc = TrainConfig(epochs=5)
        inits = []
        monkeypatch.setattr(train_module, "init_params",
                            lambda *a: inits.append(a) or init_params(*a))
        with pytest.raises(ValueError, match="depth_override"):
            train_model(backbone(2), data, split, tc, 0,
                        depth_override=np.zeros(100, dtype=int))
        assert inits == []
        # without an override the plain run is the one it always was
        result = train_model(backbone(2), data, split, tc, 0)
        assert result.val_history == (0.2, 0.35, 0.35, 0.45, 0.45)
        assert (result.best_val_epoch, result.test_accuracy) == (3, 0.45)

    @pytest.mark.parametrize(
        "gating, override, match",
        [
            ("soft", np.zeros(80, dtype=np.int64), "hard gating"),
            ("hard", np.full(80, 1.5), "integers"),
            ("hard", np.zeros(79, dtype=np.int64), "align"),
            ("hard", np.full(80, 3, dtype=np.int64), r"\[0, t_max\]"),
            ("hard", np.full(80, -1, dtype=np.int64), r"\[0, t_max\]"),
        ],
        ids=["soft_gating", "non_integer", "wrong_shape", "above_t_max",
             "negative"],
    )
    def test_bad_depth_plan_fails_before_any_forward(
        self, gating, override, match, monkeypatch
    ):
        import adgnn.train as train_module

        forwards = []
        monkeypatch.setattr(train_module, "forward",
                            lambda *a, **kw: forwards.append(a))
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=5)
        cfg = AdGnnConfig(backbone=backbone(2), variant="fast_degree",
                          gating=gating)
        with pytest.raises(ValueError, match=match):
            fit_model(cfg, data, make_split(80, seed=5), TrainConfig(epochs=40),
                      seed=0, depth_override=override)
        assert forwards == []

    def test_divergence_raises(self):
        # an absurd step size overflows the weights within two epochs; the
        # loop must fail loudly instead of selecting a garbage snapshot
        graph = build_graph([(i, (i + 1) % 10) for i in range(10)], 10)
        features = np.random.default_rng(0).normal(size=(10, 2))
        from adgnn.graph import LabelVector

        labels = LabelVector(labels=np.arange(10) % 2, num_classes=2)
        split = make_split(10, seed=0)
        tc = TrainConfig(epochs=5, lr=1e154)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite"):
                train_model(backbone(2), (graph, features, labels), split,
                            tc, 0)


class TestAdaptiveTraining:
    def test_soft_gating_smoke(self, monkeypatch):
        import adgnn.train as train_module

        monkeypatch.setattr(train_module, "_BASE_TEMPERATURE", 0.5)
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=4)
        split = make_split(80, seed=4)
        cfg = AdGnnConfig(backbone=backbone(2), variant="learned", gating="soft")
        tc = TrainConfig(epochs=6, lr=0.01)
        result = train_model(cfg, data, split, tc, seed=0)
        assert 0.0 <= result.test_accuracy <= 1.0
        assert len(result.val_history) == 6
        assert len(result.depth_histogram) == 3
        assert sum(result.depth_histogram) == 80
        assert 0.0 <= result.mean_stopping_depth <= 2.0

    def test_fast_degree_hard_gating_smoke(self):
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=5)
        split = make_split(80, seed=5)
        cfg = AdGnnConfig(backbone=backbone(2),
                          variant="fast_degree", gating="hard")
        tc = TrainConfig(epochs=3, lr=0.01)
        result = train_model(cfg, data, split, tc, seed=0)
        assert sum(result.depth_histogram) == 80

    def test_only_learned_trains_the_pair_loss(self, monkeypatch):
        import adgnn.train as train_module

        # the learned head adds its pair loss every epoch; the structural
        # variants have no head and train on the task loss alone
        calls = []
        real = train_module.regularization_loss

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(train_module, "regularization_loss", spy)
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=5)
        split = make_split(80, seed=5)
        tc = TrainConfig(epochs=2, lr=0.01)
        for variant, epochs_with_pair_loss in (
            ("learned", 2), ("fast_degree", 0), ("heuristic", 0),
        ):
            calls.clear()
            cfg = AdGnnConfig(backbone=backbone(2), variant=variant)
            fit_model(cfg, data, split, tc, seed=0)
            assert len(calls) == epochs_with_pair_loss, variant

    @pytest.mark.parametrize("gating", ["hard", "soft"])
    def test_two_head_calls_per_learned_epoch(self, gating, monkeypatch):
        import adgnn.model as model_module
        import adgnn.train as train_module

        # the training forward scores every edge once and the pair loss
        # reads those scores; the validation forward scores them once
        # more, and nothing runs after the loop.  A two-epoch warm-up
        # gives the soft run hard and soft epochs
        monkeypatch.setattr(train_module, "_GATE_WARMUP_EPOCHS", 2)
        rows = []
        real = model_module.pair_probability

        def spy(head, h_u, h_v):
            rows.append(h_u.shape[0])
            return real(head, h_u, h_v)

        monkeypatch.setattr(model_module, "pair_probability", spy)
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=5)
        split = make_split(80, seed=5)
        cfg = AdGnnConfig(backbone=backbone(2), gating=gating)
        fit_model(cfg, data, split, TrainConfig(epochs=4, lr=0.01), seed=0)
        assert rows == [data[0].num_edges] * (2 * 4)

    def test_threshold_params_move_only_in_soft_mode(self, monkeypatch):
        import adgnn.train as train_module

        # Skip the warmup so a soft gradient reaches the thresholds by
        # epoch 0; the warmup itself is pinned in the next test.
        monkeypatch.setattr(train_module, "_GATE_WARMUP_EPOCHS", 0)
        monkeypatch.setattr(train_module, "_BASE_TEMPERATURE", 0.5)
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=6)
        split = make_split(80, seed=6)
        tc = TrainConfig(epochs=4, lr=0.05)
        init_slope = None
        for gating in ("hard", "soft"):
            cfg = AdGnnConfig(backbone=backbone(2), variant="learned",
                              gating=gating)
            _, best = fit_model(cfg, data, split, tc, seed=0)
            if init_slope is None:
                from adgnn.model import init_adgnn_params

                fresh = init_adgnn_params(cfg, 4, 2, 0)
                init_slope = fresh["threshold.slope_raw"].values.copy()
            if gating == "hard":
                np.testing.assert_array_equal(
                    best["threshold.slope_raw"], init_slope
                )
            else:
                assert not np.array_equal(
                    best["threshold.slope_raw"], init_slope
                )

    def test_soft_mode_keeps_gates_hard_through_warmup(self, monkeypatch):
        import adgnn.train as train_module
        from adgnn.model import init_adgnn_params

        # Run shorter than the warmup: every epoch trains with hard
        # gates, so the threshold scalars never receive a gradient.
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=6)
        split = make_split(80, seed=6)
        tc = TrainConfig(epochs=4, lr=0.05)
        monkeypatch.setattr(train_module, "_BASE_TEMPERATURE", 0.5)
        cfg = AdGnnConfig(backbone=backbone(2), variant="learned", gating="soft")
        _, best = fit_model(cfg, data, split, tc, seed=0)
        fresh = init_adgnn_params(cfg, 4, 2, 0)
        np.testing.assert_array_equal(
            best["threshold.slope_raw"], fresh["threshold.slope_raw"].values
        )
        np.testing.assert_array_equal(
            best["threshold.intercept_raw"],
            fresh["threshold.intercept_raw"].values,
        )


class TestOneForwardPerPass:
    CASES = {
        "plain": backbone(2),
        "learned_soft": AdGnnConfig(backbone=backbone(2),
                                    variant="learned", gating="soft"),
        "fast_degree_hard": AdGnnConfig(backbone=backbone(2),
                                        variant="fast_degree", gating="hard"),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_one_train_and_one_eval_forward_per_epoch(self, name, monkeypatch):
        import adgnn.train as train_module

        # each epoch runs one training forward (with the dropout generator)
        # and one evaluation forward (without); none runs after the loop.
        # A two-epoch warm-up gives the soft run hard and soft epochs
        monkeypatch.setattr(train_module, "_GATE_WARMUP_EPOCHS", 2)
        calls = []
        for attr in ("forward", "plain_forward"):
            real = getattr(train_module, attr)

            def spy(*args, _real=real, **kwargs):
                rng = kwargs["dropout_rng"]
                calls.append("val" if rng is None else "train")
                return _real(*args, **kwargs)

            monkeypatch.setattr(train_module, attr, spy)
        data = csbm_data(60, 0.95, 10.0, 49.0, 4, seed=2)
        split = make_split(120, seed=2)
        tc = TrainConfig(epochs=40, lr=0.05)
        fit_model(self.CASES[name], data, split, tc, seed=0)
        assert calls == ["train", "val"] * 40

    @pytest.mark.parametrize("name", ["learned_soft", "fast_degree_hard"])
    def test_result_is_the_selected_snapshots_evaluation(self, name):
        from adgnn.model import forward, init_adgnn_params

        # the result read from the best epoch's own evaluation pass equals
        # a fresh hard forward of the returned snapshot
        cfg = self.CASES[name]
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=6)
        graph, features, labels = data
        split = make_split(80, seed=6)
        tc = TrainConfig(epochs=40, lr=0.05)
        result, best_values = fit_model(cfg, data, split, tc, seed=0)
        assert result.best_val_epoch < 39  # later epochs moved the weights
        params = init_adgnn_params(cfg, features.shape[1], labels.num_classes, 0)
        for name_, p in params.items():
            p.values[:] = best_values[name_]
        out = forward(cfg, params, graph, tensor(features))
        assert accuracy(out.logits, labels.labels, split.test) == result.test_accuracy
        assert out.plan.mean_depth() == result.mean_stopping_depth
        assert tuple(out.plan.depth_histogram()) == result.depth_histogram
