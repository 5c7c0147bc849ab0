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
from adgnn.graph import LabelVector, SplitMask, build_graph, make_split
from adgnn.heuristics import HEURISTIC_NAMES
from adgnn.model import AdGnnConfig
from adgnn.train import (
    _GATE_WARMUP_EPOCHS,
    SeedResult,
    TrainConfig,
    _temperature,
    accuracy,
    fit_model,
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
        # the drivers' defaults, which read these fields
        tc = TrainConfig()
        assert tc.epochs == 150 and tc.lr == 0.01
        assert BackboneConfig().hidden_dim == 16

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
    # the schedule counts epochs from the end of the 30-epoch warm-up
    def test_halves_every_period(self):
        assert _temperature(True, 29) is None
        assert _temperature(True, 30) == 0.1
        assert _temperature(True, 54) == 0.1
        assert _temperature(True, 55) == pytest.approx(0.05)
        assert _temperature(True, 92) == pytest.approx(0.025)
        assert _temperature(False, 92) is None

    def test_floor(self, monkeypatch):
        import adgnn.train as train_module

        assert _temperature(True, 10_030) == 1e-3
        monkeypatch.setattr(train_module, "_BASE_TEMPERATURE", 5e-4)
        assert _temperature(True, 30) == 1e-3


class TestMultiSeed:
    def test_mean_and_population_std(self, monkeypatch):
        import adgnn.drivers as drivers_module
        import adgnn.train as train_module

        # the drivers train one seed at a time, through train.fit_model,
        # and keep the seed order
        trained = []

        def stub_fit(cfg, data, split, tc, seed, depth_override=None):
            trained.append(seed)
            return stub_result(seed, [0.8, 1.0, 0.6][seed]), {}

        monkeypatch.setattr(train_module, "fit_model", stub_fit)
        data = csbm_data(10, 0.8, 3.0, 4.0, 2, seed=0)
        runs = drivers_module._train_seeds(
            backbone(1), TrainConfig(epochs=1), (1, 0), lambda s: data
        )
        assert [r.seed for r in runs] == [1, 0]
        trained.clear()
        arms = [(["a", 1], backbone(1), lambda s: data, None),
                (["b", 2], backbone(1), lambda s: data, None)]
        rows = drivers_module._accuracy_rows(arms, TrainConfig(epochs=1), (1, 0, 2))
        assert trained == [1, 0, 2, 1, 0, 2]
        assert [row[:2] for row in rows] == [["a", 1], ["b", 2]]
        for row in rows:
            assert row[2] == pytest.approx(0.8)
            # population std: sqrt(((0.2)^2 + 0 + (0.2)^2) / 3)
            assert row[3] == pytest.approx(np.sqrt(0.08 / 3))


class TestFitModel:
    def test_plain_backbone_learns_easy_instance(self):
        data = csbm_data(300, 0.9, 10.0, 4.0, 8, seed=0)
        split = make_split(600, seed=0)
        tc = TrainConfig(epochs=80, lr=0.05)
        result = fit_model(backbone(2, hidden=16), data, split, tc, seed=0)[0]
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
        a = fit_model(cfg, data, split, tc, seed=7)[0]
        b = fit_model(cfg, data, split, tc, seed=7)[0]
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
            fit_model(backbone(2), data, split, tc, 0,
                        depth_override=np.zeros(100, dtype=int))
        assert inits == []
        # without an override the plain run is the one it always was
        result = fit_model(backbone(2), data, split, tc, 0)[0]
        assert result.val_history == (0.2, 0.35, 0.35, 0.45, 0.45)
        assert (result.best_val_epoch, result.test_accuracy) == (3, 0.45)

    @pytest.mark.parametrize(
        "override, match",
        [
            (np.full(80, 1.5), "integers"),
            (np.zeros(79, dtype=np.int64), "align"),
            (np.full(80, 3, dtype=np.int64), r"\[0, t_max\]"),
            (np.full(80, -1, dtype=np.int64), r"\[0, t_max\]"),
        ],
        ids=["non_integer", "wrong_shape", "above_t_max", "negative"],
    )
    def test_bad_depth_plan_fails_before_any_forward(
        self, override, match, monkeypatch
    ):
        import adgnn.train as train_module

        forwards = []
        monkeypatch.setattr(train_module, "forward",
                            lambda *a, **kw: forwards.append(a))
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=5)
        cfg = AdGnnConfig(backbone=backbone(2), variant="fast_degree")
        with pytest.raises(ValueError, match=match):
            fit_model(cfg, data, make_split(80, seed=5), TrainConfig(epochs=40),
                      seed=0, depth_override=override)
        assert forwards == []

    @pytest.mark.parametrize("role", ["train", "val", "test"])
    def test_split_with_an_empty_role_fails_before_any_forward(
        self, role, monkeypatch
    ):
        import adgnn.train as train_module

        # a three-node dataset gets no test node from make_split; its run
        # used to train every epoch and then fail on an empty evaluation
        # mask, without naming the role
        forwards = []
        monkeypatch.setattr(train_module, "forward",
                            lambda *a, **kw: forwards.append(a))
        data = csbm_data(20, 0.8, 6.0, 4.0, 4, seed=5)
        roles = make_split(40, seed=5).roles.copy()
        code = {"train": 0, "val": 1, "test": 2}[role]
        roles[roles == code] = (code + 1) % 3
        with pytest.raises(ValueError,
                           match=f"the split has no {role} node among 40 nodes"):
            fit_model(AdGnnConfig(backbone=backbone(2)), data,
                      SplitMask(roles, seed=5), TrainConfig(epochs=3), seed=0)
        assert forwards == []

    def test_divergence_raises(self):
        # an absurd step size overflows the weights within two epochs; the
        # loop must fail loudly instead of selecting a garbage snapshot
        graph = build_graph([(i, (i + 1) % 10) for i in range(10)], 10)
        features = np.random.default_rng(0).normal(size=(10, 2))
        labels = LabelVector(labels=np.arange(10) % 2, num_classes=2)
        split = make_split(10, seed=0)
        tc = TrainConfig(epochs=5, lr=1e154)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite"):
                fit_model(backbone(2), (graph, features, labels), split,
                            tc, 0)


class TestAdaptiveTraining:
    def test_soft_gating_smoke(self, monkeypatch):
        import adgnn.train as train_module

        monkeypatch.setattr(train_module, "_BASE_TEMPERATURE", 0.5)
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=4)
        split = make_split(80, seed=4)
        cfg = AdGnnConfig(backbone=backbone(2), variant="learned")
        tc = TrainConfig(epochs=6, lr=0.01)
        result = fit_model(cfg, data, split, tc, seed=0)[0]
        assert 0.0 <= result.test_accuracy <= 1.0
        assert len(result.val_history) == 6
        assert len(result.depth_histogram) == 3
        assert sum(result.depth_histogram) == 80
        assert 0.0 <= result.mean_stopping_depth <= 2.0

    def test_every_adaptive_variant_trains_alike_on_an_edgeless_graph(self):
        # with no arc there is nothing to score: every source gives the
        # empty per-arc array, so every variant makes the same run, past
        # the hard warm-up into soft gating
        data = csbm_data(30, 0.9, 0.0, 1.0, 3, seed=0)
        assert data[0].num_edges == 0
        split = make_split(60, seed=0)
        tc = TrainConfig(epochs=_GATE_WARMUP_EPOCHS + 3, lr=0.05)
        variants = [("learned", "common_neighbors"), ("fast_degree", "common_neighbors")]
        variants += [("heuristic", name) for name in HEURISTIC_NAMES]
        results = [
            fit_model(AdGnnConfig(backbone=backbone(2, hidden=4), variant=variant,
                                  heuristic_name=name), data, split, tc, seed=1)[0]
            for variant, name in variants
        ]
        assert all(result == results[0] for result in results)

    def test_fast_degree_hard_gating_smoke(self):
        # a forced plan is the one hard-gated training
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=5)
        split = make_split(80, seed=5)
        cfg = AdGnnConfig(backbone=backbone(2), variant="fast_degree")
        tc = TrainConfig(epochs=3, lr=0.01)
        plan = np.arange(80) % 3
        result = fit_model(cfg, data, split, tc, seed=0, depth_override=plan)[0]
        assert result.depth_histogram == tuple(np.bincount(plan))

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
    def test_one_head_call_per_forward(self, gating, monkeypatch):
        import adgnn.model as model_module
        import adgnn.train as train_module

        # every forward scores every edge once and the pair loss reads the
        # training forward's scores.  A forced plan trains hard: training
        # forwards 1-3 double as evaluations, so only the last step is
        # evaluated on its own: 4 + 1.  The model's own plan trains soft,
        # and a two-epoch warm-up gives it hard and soft epochs: forward 1
        # evaluates step 0, and steps 1-3 run their own evaluation before
        # a soft epoch or the end: 4 + 3
        monkeypatch.setattr(train_module, "_GATE_WARMUP_EPOCHS", 2)
        rows = []
        real = model_module.pair_probability

        def spy(head, h_u, h_v):
            rows.append(h_u.shape[0])
            return real(head, h_u, h_v)

        monkeypatch.setattr(model_module, "pair_probability", spy)
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=5)
        split = make_split(80, seed=5)
        plan = np.arange(80) % 3 if gating == "hard" else None
        fit_model(AdGnnConfig(backbone=backbone(2)), data, split,
                  TrainConfig(epochs=4, lr=0.01), seed=0, depth_override=plan)
        assert rows == [data[0].num_edges] * {"hard": 5, "soft": 7}[gating]

    def test_threshold_params_move_only_in_soft_mode(self, monkeypatch):
        import adgnn.train as train_module

        # Skip the warmup so a soft gradient reaches the thresholds by
        # epoch 0; the warmup itself is pinned in the next test.  A forced
        # plan trains hard, the model's own plan soft.
        monkeypatch.setattr(train_module, "_GATE_WARMUP_EPOCHS", 0)
        monkeypatch.setattr(train_module, "_BASE_TEMPERATURE", 0.5)
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=6)
        split = make_split(80, seed=6)
        tc = TrainConfig(epochs=4, lr=0.05)
        cfg = AdGnnConfig(backbone=backbone(2), variant="learned")
        init_slope = None
        for gating in ("hard", "soft"):
            plan = np.arange(80) % 3 if gating == "hard" else None
            _, best = fit_model(cfg, data, split, tc, seed=0, depth_override=plan)
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
        cfg = AdGnnConfig(backbone=backbone(2), variant="learned")
        _, best = fit_model(cfg, data, split, tc, seed=0)
        fresh = init_adgnn_params(cfg, 4, 2, 0)
        np.testing.assert_array_equal(
            best["threshold.slope_raw"], fresh["threshold.slope_raw"].values
        )
        np.testing.assert_array_equal(
            best["threshold.intercept_raw"],
            fresh["threshold.intercept_raw"].values,
        )

    @pytest.mark.parametrize("forced", [True, False], ids=["forced_plan", "own_plan"])
    def test_only_a_forced_plan_gates_hard_at_every_epoch(self, forced, monkeypatch):
        import adgnn.train as train_module

        # training forwards carry the dropout generator; the evaluations
        # pass none and always gate hard.  A forced plan trains hard at
        # every epoch; the model's own plan trains hard through the
        # warm-up, then at 0.1, halved after 25 epochs
        monkeypatch.setattr(train_module, "_GATE_WARMUP_EPOCHS", 2)
        seen = {"train": [], "val": []}
        real = train_module.forward

        def spy(*args, **kwargs):
            role = "val" if kwargs["dropout_rng"] is None else "train"
            seen[role].append(kwargs["temperature"])
            return real(*args, **kwargs)

        monkeypatch.setattr(train_module, "forward", spy)
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=6)
        plan = np.arange(80) % 3 if forced else None
        fit_model(AdGnnConfig(backbone=backbone(2)), data, make_split(80, seed=6),
                  TrainConfig(epochs=30, lr=0.01), seed=0, depth_override=plan)
        expected = [None] * 30 if forced else [None] * 2 + [0.1] * 25 + [0.05] * 3
        assert seen["train"] == expected
        assert seen["val"] and set(seen["val"]) == {None}


class TestOneForwardPerPass:
    # (model, whether a plan is forced); a forced plan is the one
    # hard-gated training
    CASES = {
        "plain": (backbone(2), False),
        "learned_soft": (AdGnnConfig(backbone=backbone(2), variant="learned"), False),
        "fast_degree_hard": (AdGnnConfig(backbone=backbone(2), variant="fast_degree"),
                             True),
    }

    EXPECTED_FORWARDS = {
        "plain": ["train"] * 40 + ["val"],
        "learned_soft": ["train", "train", "val"] + ["train", "val"] * 38,
        "fast_degree_hard": ["train"] * 40 + ["val"],
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_hard_training_forward_is_the_evaluation(self, name, monkeypatch):
        import adgnn.train as train_module

        # training forwards carry the dropout generator, evaluation-only
        # forwards do not.  A hard training forward at dropout 0 also
        # evaluates the previous step, so a hard run evaluates on its own
        # only after the last step.  A two-epoch warm-up gives the soft run
        # hard and soft epochs: forward 1 evaluates step 0, and every later
        # step is evaluated on its own, before a soft epoch or the end
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
        cfg, forced = self.CASES[name]
        plan = np.arange(120) % 3 if forced else None
        fit_model(cfg, data, split, tc, seed=0, depth_override=plan)
        assert calls == self.EXPECTED_FORWARDS[name]

    @pytest.mark.parametrize("name", ["learned_soft", "fast_degree_hard"])
    def test_result_is_the_selected_snapshots_evaluation(self, name):
        from adgnn.model import forward, init_adgnn_params

        # the result read from the best epoch's evaluation equals
        # a fresh hard forward of the returned snapshot
        cfg, forced = self.CASES[name]
        plan = np.arange(80) % 3 if forced else None
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=6)
        graph, features, labels = data
        split = make_split(80, seed=6)
        tc = TrainConfig(epochs=40, lr=0.05)
        result, best_values = fit_model(cfg, data, split, tc, seed=0,
                                        depth_override=plan)
        assert result.best_val_epoch < 39  # later epochs moved the weights
        params = init_adgnn_params(cfg, features.shape[1], labels.num_classes, 0)
        for name_, p in params.items():
            p.values[:] = best_values[name_]
        out = forward(cfg, params, graph, tensor(features), depth_override=plan)
        assert accuracy(out.logits, labels.labels, split.test) == result.test_accuracy
        assert out.plan.mean_depth() == result.mean_stopping_depth
        assert tuple(out.plan.depth_histogram()) == result.depth_histogram

    # (model, forced plan or None) over 80 nodes; a forced plan trains hard
    ORACLE_CASES = {
        "plain_l2": (backbone(2), None),
        "fast_degree_hard": (AdGnnConfig(backbone=backbone(2), variant="fast_degree"),
                             np.arange(80) % 3),
        "learned_hard": (AdGnnConfig(backbone=backbone(2)), np.full(80, 2)),
        "learned_soft": (AdGnnConfig(backbone=backbone(2)), None),
        "depth_override": (AdGnnConfig(backbone=backbone(2)), np.arange(80) % 3),
        "plain_dropout": (backbone(2, dropout=0.5), None),
    }

    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_each_epoch_scores_a_fresh_forward_of_its_step(self, name, monkeypatch):
        import adgnn.train as train_module
        from adgnn.model import forward, init_adgnn_params

        # an oracle that shares no loop code with fit_model: a spy copies
        # the parameters each Adam step leaves, and epoch e's validation
        # accuracy must be that of a fresh untaped hard forward of the
        # parameters after step e.  A two-epoch warm-up takes the soft run
        # across the hard-to-soft boundary
        monkeypatch.setattr(train_module, "_GATE_WARMUP_EPOCHS", 2)
        cfg, plan = self.ORACLE_CASES[name]
        stepped = {"trunk": [], "policy": []}
        real_step = train_module.adam_step

        def spy(params, grads, state):
            real_step(params, grads, state)
            part = "policy" if next(iter(params)).startswith("threshold.") else "trunk"
            stepped[part].append({n: p.values.copy() for n, p in params.items()})

        monkeypatch.setattr(train_module, "adam_step", spy)
        data = csbm_data(40, 0.8, 6.0, 4.0, 4, seed=6)
        graph, features, labels = data
        split = make_split(80, seed=6)
        epochs = 12
        result, best_values = fit_model(cfg, data, split,
                                        TrainConfig(epochs=epochs, lr=0.05),
                                        seed=0, depth_override=plan)

        adaptive = isinstance(cfg, AdGnnConfig)
        assert len(stepped["trunk"]) == epochs
        assert len(stepped["policy"]) == (epochs if adaptive else 0)
        init = init_adgnn_params if adaptive else init_params
        params = init(cfg, features.shape[1], labels.num_classes, 0)
        x = tensor(features)

        def after_step(e):
            values = {**stepped["trunk"][e],
                      **(stepped["policy"][e] if adaptive else {})}
            assert set(values) == set(params)
            for n, p in params.items():
                p.values[:] = values[n]
            if not adaptive:
                return values, plain_forward(cfg, params, graph, x), None
            out = forward(cfg, params, graph, x, depth_override=plan)
            return values, out.logits, out.plan

        history = [accuracy(after_step(e)[1], labels.labels, split.val)
                   for e in range(epochs)]
        assert len(set(history)) > 1  # an epoch shift would show
        assert result.val_history == tuple(history)
        assert result.best_val_epoch == int(np.argmax(history))
        values, logits, best_plan = after_step(result.best_val_epoch)
        assert result.test_accuracy == accuracy(logits, labels.labels, split.test)
        assert all(np.array_equal(best_values[n], v) for n, v in values.items())
        if adaptive:
            assert result.depth_histogram == tuple(best_plan.depth_histogram())
            assert result.mean_stopping_depth == best_plan.mean_depth()
        else:
            assert result.depth_histogram == ()
