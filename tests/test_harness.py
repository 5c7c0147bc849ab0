"""Dataset I/O, experiment drivers, and CLI contract tests.

Driver runs here use deliberately tiny instances; the full-scale
qualitative reproductions live in the acceptance suite.
"""

import argparse
import ctypes
import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from adgnn.cli import main
from adgnn.csbm import (
    ClassStats,
    CsbmParams,
    canonical_prototypes,
    homophily_from_target,
    measured_edge_homophily,
    sample_graph,
)
from adgnn.datasets import load_dataset, save_dataset
from adgnn.drivers import ExperimentSpec, execute
from adgnn.graph import LabelVector, NodeProfile, build_graph, make_split
from adgnn.heuristics import HEURISTIC_NAMES
from adgnn import drivers, model
from adgnn.autodiff import tensor
from adgnn.model import AdGnnConfig
from adgnn.backbones import BackboneConfig
from adgnn.train import TrainConfig, train_model


def small_csbm(n_per_class=40, h=0.8, mean_degree=5.0, dim=4, seed=0):
    p_in, p_out = homophily_from_target(h, mean_degree, n_per_class, n_per_class)
    mu0, mu1 = canonical_prototypes(4.0, dim)
    params = CsbmParams(n0=n_per_class, n1=n_per_class, mu0=mu0, mu1=mu1,
                        sigma=1.0, p_in=p_in, p_out=p_out)
    return sample_graph(params, seed)


TINY = {"n0": 40, "n1": 40, "mean_degree": 5.0, "dim": 4,
        "epochs": 10, "hidden": 8}


def record_work(monkeypatch) -> list[str]:
    """Stub the graph draw, the training run and the Monte Carlo oracle;
    the returned list names each stub called, so [] means no work ran."""
    work = []
    for target in ("adgnn.drivers.sample_graph", "adgnn.train.fit_model",
                   "adgnn.drivers.mc_single_layer_stats"):
        monkeypatch.setattr(target, lambda *a, _t=target, **kw: work.append(_t))
    return work


class TestDatasetIO:
    def test_round_trip_identity(self, tmp_path):
        graph, features, labels = small_csbm()
        save_dataset(tmp_path / "ds", graph, features, labels)
        g2, x2, y2 = load_dataset(tmp_path / "ds")
        assert g2.num_nodes == graph.num_nodes
        assert g2.num_edges == graph.num_edges
        np.testing.assert_array_equal(g2.csr_offsets, graph.csr_offsets)
        np.testing.assert_array_equal(g2.csr_neighbors, graph.csr_neighbors)
        np.testing.assert_array_equal(x2, features)  # bit-exact floats
        np.testing.assert_array_equal(y2.labels, labels.labels)
        assert y2.num_classes == labels.num_classes

    def test_all_same_label_homophily_one(self, tmp_path):
        graph = build_graph([(0, 1), (1, 2)], 3)
        labels = LabelVector(labels=np.zeros(3, dtype=np.int64), num_classes=2)
        save_dataset(tmp_path / "ds", graph, np.zeros((3, 1)), labels)
        g2, _, y2 = load_dataset(tmp_path / "ds")
        assert measured_edge_homophily(g2, y2) == 1.0

    def test_malformed_edge_line_reports_number(self, tmp_path):
        graph, features, labels = small_csbm()
        d = save_dataset(tmp_path / "ds", graph, features, labels)
        edge_file = d / "edges.txt"
        lines = edge_file.read_text().splitlines()
        lines.insert(2, "3 4 5")
        edge_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"edges\.txt:3"):
            load_dataset(d)

    def test_non_integer_node_id(self, tmp_path):
        graph, features, labels = small_csbm()
        d = save_dataset(tmp_path / "ds", graph, features, labels)
        (d / "edges.txt").write_text("0 1\nfoo 2\n")
        with pytest.raises(ValueError, match=r"edges\.txt:2"):
            load_dataset(d)

    def test_comma_separated_edges_accepted(self, tmp_path):
        graph, features, labels = small_csbm()
        d = save_dataset(tmp_path / "ds", graph, features, labels)
        pairs = graph.edges()
        text = "# comment\n" + "\n".join(f"{u},{v}" for u, v in pairs) + "\n"
        (d / "edges.txt").write_text(text)
        g2, _, _ = load_dataset(d)
        np.testing.assert_array_equal(g2.csr_neighbors, graph.csr_neighbors)

    def test_feature_label_count_mismatch(self, tmp_path):
        graph, features, labels = small_csbm()
        d = save_dataset(tmp_path / "ds", graph, features, labels)
        text = (d / "features.csv").read_text().splitlines()
        (d / "features.csv").write_text("\n".join(text[:-1]) + "\n")
        with pytest.raises(ValueError, match="feature rows"):
            load_dataset(d)

    def test_ragged_feature_row(self, tmp_path):
        graph, features, labels = small_csbm()
        d = save_dataset(tmp_path / "ds", graph, features, labels)
        lines = (d / "features.csv").read_text().splitlines()
        lines[4] = lines[4] + ",0.0"
        (d / "features.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"features\.csv:5"):
            load_dataset(d)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_feature_value(self, tmp_path, capsys, value):
        # the loader names the line, and a config reading the dataset exits 2
        graph, features, labels = small_csbm()
        d = save_dataset(tmp_path / "ds", graph, features, labels)
        lines = (d / "features.csv").read_text().splitlines()
        lines[4] = ",".join([value] + lines[4].split(",")[1:])
        (d / "features.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"features\.csv:5: non-finite"):
            load_dataset(d)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"data": str(d), "epochs": 3, "hidden": 8}))
        assert main(["train-eval", "--config", str(cfg), "--seeds", "0"]) == 2
        assert "features.csv:5: non-finite" in capsys.readouterr().err

    def test_bad_label_line(self, tmp_path):
        graph, features, labels = small_csbm()
        d = save_dataset(tmp_path / "ds", graph, features, labels)
        lines = (d / "labels.csv").read_text().splitlines()
        lines[0] = "zero"
        (d / "labels.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"labels\.csv:1"):
            load_dataset(d)

    @pytest.mark.parametrize("value", ["2.9", '"two"', "true"],
                             ids=["fraction", "string", "bool"])
    def test_num_classes_must_be_a_json_integer(self, tmp_path, capsys, value):
        # 2.9 used to train as 2 classes, and "two" and true exited 2 with
        # a message that named neither the key nor the file
        graph, features, labels = small_csbm()
        d = save_dataset(tmp_path / "ds", graph, features, labels)
        meta = (d / "meta.json").read_text()
        (d / "meta.json").write_text(
            meta.replace('"num_classes": 2', f'"num_classes": {value}'))
        with pytest.raises(ValueError, match=r"meta\.json: num_classes must be "
                                             r"an integer"):
            load_dataset(d)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"data": str(d), "epochs": 3, "hidden": 8}))
        assert main(["train-eval", "--config", str(cfg), "--seeds", "0"]) == 2
        assert "meta.json: num_classes must be an integer" in capsys.readouterr().err

    def test_missing_directory_and_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")
        graph, features, labels = small_csbm()
        d = save_dataset(tmp_path / "ds", graph, features, labels)
        (d / "labels.csv").unlink()
        with pytest.raises(FileNotFoundError, match="labels.csv"):
            load_dataset(d)


class TestExperimentSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentSpec(kind="nope")

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            ExperimentSpec(kind="train_eval", output_format="xml")

    def test_default_seeds_by_kind(self):
        assert ExperimentSpec(kind="sweep_homophily").seeds == (0, 1, 2, 3, 4)
        assert ExperimentSpec(kind="train_eval").seeds == (0,)
        assert ExperimentSpec(kind="train_eval", seeds=(7, 8)).seeds == (7, 8)

    @pytest.mark.parametrize("seed", [1.7, True, "1", None],
                             ids=["float", "bool", "string", "none"])
    def test_seeds_must_be_integers(self, seed):
        # int() used to turn 1.7 and True into seed 1
        with pytest.raises(ValueError, match=f"seeds must be integers, got {seed!r}"):
            ExperimentSpec(kind="train_eval", seeds=(0, seed))

    def test_numpy_integer_seeds_accepted(self):
        spec = ExperimentSpec(kind="train_eval", seeds=tuple(np.arange(2, 4)))
        assert spec.seeds == (2, 3) and all(type(s) is int for s in spec.seeds)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3)], ids=["int", "numpy"])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seeds must be non-negative, got "
                                             f"{int(seed)}"):
            ExperimentSpec(kind="train_eval", seeds=(0, seed))

    @pytest.mark.parametrize(
        "argv, message",
        [(["train-eval", "--seeds", "0,-1"], "seeds must be non-negative, got -1"),
         (["theory-validate", "--seeds", "-2"], "seeds must be non-negative, got -2"),
         (["sweep-homophily", "--seed", "-4"], "seeds must be non-negative, got -4"),
         (["compare-heuristics", "--seeds", "0"],
          "config key 'data_seed' must be non-negative, got -1")],
        ids=["train_eval", "theory_validate", "sweep_seed_flag", "data_seed"],
    )
    def test_negative_seed_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        # train-eval used to train seed 0 and then stop on numpy's "expected
        # non-negative integer", which named neither the seed nor the flag
        work = record_work(monkeypatch)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY, "data_seed": -1}
                                  if argv[0] == "compare-heuristics" else {}))
        assert main(argv + ["--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert work == []


class TestGenerate:
    def test_writes_container_and_round_trips(self, tmp_path):
        out = tmp_path / "ds"
        spec = ExperimentSpec(
            kind="generate",
            parameters={"n0": 40, "n1": 40, "homophily": 0.8,
                        "mean_degree": 5.0, "dim": 4, "delta_sq": 4.0},
            out=out, seeds=(3,),
        )
        header, rows = execute(spec)
        assert header == ["nodes", "edges", "classes", "edge_homophily"]
        for name in ("edges.txt", "features.csv", "labels.csv", "meta.json"):
            assert (out / name).is_file()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == 3 and meta["kind"] == "csbm"
        assert 0.0 <= meta["measured_edge_homophily"] <= 1.0
        graph, features, labels = load_dataset(out)
        direct = small_csbm(seed=3)
        np.testing.assert_array_equal(features, direct[1])
        np.testing.assert_array_equal(labels.labels, direct[2].labels)

    def test_requires_out(self):
        spec = ExperimentSpec(kind="generate", parameters={})
        with pytest.raises(ValueError, match="output directory"):
            execute(spec)


class TestTheoryValidate:
    def test_table_shape_and_determinism(self):
        spec = ExperimentSpec(
            kind="theory_validate",
            parameters={"profiles": 4, "trials": 2000, "max_degree": 6},
            seeds=(1,),
        )
        header, rows = execute(spec)
        assert header == [
            "d_plus", "d_minus", "degree", "alpha",
            "analytic_signal", "mc_signal", "analytic_noise", "mc_noise",
            "rel_err_signal", "rel_err_noise",
        ]
        assert len(rows) == 4
        for row in rows:
            assert row[0] + row[1] == row[2]
            assert row[3] != 0.0  # cancellation profiles are redrawn
        again = execute(spec)[1]
        assert rows == again

    def test_bad_counts_rejected(self):
        spec = ExperimentSpec(kind="theory_validate",
                              parameters={"profiles": 0})
        with pytest.raises(ValueError):
            execute(spec)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_pool_rows_equal_a_serial_loop(self, monkeypatch, cpus):
        # at dim 64 a chunk holds 4e6 // (64 d) trials: all 4,000 trials up
        # to degree 15, more than one chunk from degree 16
        monkeypatch.setattr(drivers.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        workers = []

        class Pool(drivers.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(drivers, "ThreadPoolExecutor", Pool)
        calls = []
        real = drivers.mc_single_layer_stats

        def spy(*args, **kwargs):
            calls.append(kwargs["seed"])
            return real(*args, **kwargs)

        monkeypatch.setattr(drivers, "mc_single_layer_stats", spy)
        params = {"profiles": 7, "trials": 4000, "max_degree": 20, "dim": 64}
        stats = ClassStats(delta_sq=4.0, sigma_sq=1.0)
        _, rows = execute(ExperimentSpec(kind="theory_validate",
                                         parameters=params, seeds=(5,)))
        assert workers == [cpus] and sorted(calls) == [5 * 1_000_003 + i
                                                       for i in range(7)]
        degrees = [row[2] for row in rows]
        assert min(degrees) <= 15 < 16 <= max(degrees)
        for i, row in enumerate(rows):
            want = real(NodeProfile(row[0], row[1], row[2]), stats, trials=4000,
                        seed=5 * 1_000_003 + i, dim=64)
            assert (row[5], row[7]) == (want.signal_variance, want.noise_variance)

    def test_failing_profile_exits_1_and_joins_the_pool(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(drivers.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        real = drivers.mc_single_layer_stats

        def failing(profile, stats, trials, seed, dim):
            if seed % 1_000_003 == 2:
                raise RuntimeError("profile 2 failed")
            return real(profile, stats, trials=trials, seed=seed, dim=dim)

        monkeypatch.setattr(drivers, "mc_single_layer_stats", failing)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"profiles": 6, "trials": 1000}))
        out = tmp_path / "table.csv"
        before = threading.active_count()
        assert main(["theory-validate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "profile 2 failed" in capsys.readouterr().err
        assert not out.exists() and not list(tmp_path.glob("table.csv*"))
        assert threading.active_count() == before

    def test_without_sched_getaffinity_the_pool_uses_cpu_count(
            self, tmp_path, monkeypatch):
        # sched_getaffinity is Linux-only; elsewhere the driver used to
        # raise AttributeError and exit 1
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"profiles": 5, "trials": 1000}))
        workers, tables = [], []

        class Pool(drivers.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(drivers, "ThreadPoolExecutor", Pool)
        for run in range(2):
            if run == 1:
                monkeypatch.delattr(drivers.os, "sched_getaffinity", raising=False)
                monkeypatch.setattr(drivers.os, "cpu_count", lambda: 3)
            out = tmp_path / f"t{run}.csv"
            assert main(["theory-validate", "--config", str(cfg),
                         "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert workers[1] == 3 and tables[0] == tables[1]

    @pytest.mark.parametrize("key, value", [("trials", 999), ("trials", 0),
                                            ("dim", 0)])
    def test_oracle_inputs_checked_before_any_draw(
            self, tmp_path, capsys, monkeypatch, key, value):
        calls = []
        monkeypatch.setattr(drivers, "mc_single_layer_stats",
                            lambda *a, **k: calls.append(a))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"profiles": 2, "trials": 1000, key: value}))
        assert main(["theory-validate", "--config", str(cfg)]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err
        assert calls == []


class TestSweepHomophily:
    def test_single_point_grid(self, tmp_path):
        spec = ExperimentSpec(
            kind="sweep_homophily",
            parameters={**TINY, "grid": [0.9]},
            out=tmp_path / "r.csv", seeds=(0, 1),
        )
        header, rows = execute(spec)
        assert header == ["homophily", "acc_mean", "acc_std"]
        assert len(rows) == 1 and rows[0][0] == 0.9

    def test_fixed_seeds_identical_csv_bytes(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            spec = ExperimentSpec(
                kind="sweep_homophily",
                parameters={**TINY, "grid": [0.2, 0.8]},
                out=tmp_path / name, seeds=(0, 1),
            )
            execute(spec)
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_infeasible_grid_rejected(self):
        spec = ExperimentSpec(kind="sweep_homophily",
                              parameters={"grid": [0.5, 1.2]})
        with pytest.raises(ValueError, match="grid"):
            execute(spec)

    def test_meta_sidecar(self, tmp_path):
        spec = ExperimentSpec(
            kind="sweep_homophily",
            parameters={**TINY, "grid": [0.9]},
            out=tmp_path / "r.csv", seeds=(0,),
        )
        execute(spec)
        meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
        assert meta["kind"] == "sweep_homophily"
        assert meta["seeds"] == [0]
        assert meta["parameters"]["grid"] == [0.9]


class TestSweepDegreeThreshold:
    def test_huge_threshold_equals_raw_feature_classifier(self):
        params = {**TINY, "delta_sq": 4.0, "thresholds": [10_000]}
        spec = ExperimentSpec(kind="sweep_degree_threshold",
                              parameters=params, seeds=(0, 1))
        header, rows = execute(spec)
        assert header == ["threshold", "acc_mean", "acc_std"]
        # no node aggregates, so the model is the dense classifier alone;
        # replicate by hand with an all-zero depth plan
        p_in, p_out = homophily_from_target(0.0, 5.0, 40, 40)
        mu0, mu1 = canonical_prototypes(4.0, 4)
        csbm = CsbmParams(n0=40, n1=40, mu0=mu0, mu1=mu1, sigma=1.0,
                          p_in=p_in, p_out=p_out)
        tc = TrainConfig(epochs=10, lr=0.01)
        bb = BackboneConfig(kind="gcn_symnorm", layers=2, hidden_dim=8,
                            dropout=0.0)
        cfg = AdGnnConfig(backbone=bb, variant="fast_degree",
                          gating="hard")
        accs = []
        for s in (0, 1):
            data = sample_graph(csbm, seed=s)
            split = make_split(data[0].num_nodes, seed=s)
            override = np.zeros(data[0].num_nodes, dtype=np.int64)
            accs.append(train_model(cfg, data, split, tc, seed=s,
                                    depth_override=override).test_accuracy)
        assert rows[0][1] == pytest.approx(float(np.mean(accs)), abs=1e-12)

    def test_negative_threshold_rejected(self):
        spec = ExperimentSpec(kind="sweep_degree_threshold",
                              parameters={"thresholds": [-1]})
        with pytest.raises(ValueError):
            execute(spec)


class TestSweepDepth:
    def test_rows_per_depth_and_model(self):
        spec = ExperimentSpec(
            kind="sweep_depth",
            parameters={**TINY, "depths": [1, 2]},
            seeds=(0,),
        )
        header, rows = execute(spec)
        assert header == ["depth", "model", "acc_mean", "acc_std"]
        assert [(r[0], r[1]) for r in rows] == [
            (1, "plain"), (1, "adaptive"), (2, "plain"), (2, "adaptive"),
        ]

    def test_adaptive_keys_accepted(self):
        # the plain rows come from an override; the adaptive keys still
        # configure the adaptive rows
        spec = ExperimentSpec(
            kind="sweep_depth",
            parameters={**TINY, "epochs": 2, "depths": [1], "lambda": 0.1,
                        "gating": "soft", "head_hidden": 4},
            seeds=(0,),
        )
        _, rows = execute(spec)
        assert [r[1] for r in rows] == ["plain", "adaptive"]

    def test_plain_adaptive_model_rejected(self):
        spec = ExperimentSpec(kind="sweep_depth",
                              parameters={"model": "plain"})
        with pytest.raises(ValueError, match="adaptive"):
            execute(spec)


class TestSweepLambda:
    def test_single_lambda_row(self):
        spec = ExperimentSpec(
            kind="sweep_lambda",
            parameters={**TINY, "lambdas": [0.0]},
            seeds=(0,),
        )
        header, rows = execute(spec)
        assert header == ["lambda", "acc_mean", "acc_std"]
        assert len(rows) == 1 and rows[0][0] == 0.0

    def test_out_of_range_lambda_rejected(self):
        spec = ExperimentSpec(kind="sweep_lambda",
                              parameters={"lambdas": [0.0, 1.5]})
        with pytest.raises(ValueError):
            execute(spec)


class TestProfileDepthBenefit:
    def test_buckets_and_sentinel(self):
        # heterophilic so some degree-1 nodes cancel exactly (alpha = 0)
        spec = ExperimentSpec(
            kind="profile_depth_benefit",
            parameters={"n0": 50, "n1": 50, "mean_degree": 4.0,
                        "homophily": 0.0, "dim": 4},
            seeds=(0,),
        )
        header, rows = execute(spec)
        assert header == ["degree", "mean_log_benefit", "node_count"]
        degs = [r[0] for r in rows]
        assert degs == sorted(degs)
        assert degs[0] == -1 and rows[0][1] == float("-inf")
        # every listed bucket is nonempty; total count is the node count
        assert all(r[2] > 0 for r in rows)
        assert sum(r[2] for r in rows) == 100

    def test_benefit_grows_with_degree_on_homophilic(self):
        spec = ExperimentSpec(
            kind="profile_depth_benefit",
            parameters={"n0": 200, "n1": 200, "mean_degree": 8.0,
                        "homophily": 0.95, "dim": 4},
            seeds=(0,),
        )
        _, rows = execute(spec)
        finite = [(r[0], r[1]) for r in rows if r[0] >= 1]
        lows = [b for d, b in finite if d <= 4]
        highs = [b for d, b in finite if d >= 10]
        assert lows and highs
        assert np.mean(highs) > np.mean(lows)


class TestCompareHeuristics:
    def test_seven_rows_and_deterministic_accuracy(self):
        params = {**TINY, "epochs": 5, "timing_repeats": 1}
        spec = ExperimentSpec(kind="compare_heuristics", parameters=params,
                              seeds=(0,))
        header, rows = execute(spec)
        assert header == ["heuristic", "acc_mean", "acc_std",
                          "score_compute_ms"]
        assert [r[0] for r in rows] == list(HEURISTIC_NAMES) + ["degree"]
        again = execute(spec)[1]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (r[0], r[1], r[2]) for r in again
        ]

    def test_degree_product_is_cheapest(self):
        # runtime comparison on a mid-size graph; the ordering is
        # scale-free (degree product is one vectorized multiply)
        params = {"n0": 300, "n1": 300, "mean_degree": 10.0, "dim": 4,
                  "epochs": 1, "hidden": 8, "timing_repeats": 1}
        spec = ExperimentSpec(kind="compare_heuristics", parameters=params,
                              seeds=(0,))
        _, rows = execute(spec)
        times = {r[0]: r[3] for r in rows}
        for name in HEURISTIC_NAMES:
            assert times["degree"] <= times[name]

    def test_unknown_heuristic_rejected(self):
        spec = ExperimentSpec(kind="compare_heuristics",
                              parameters={"heuristics": ["degree", "what"]})
        with pytest.raises(ValueError, match="unknown heuristic"):
            execute(spec)

    def test_repeated_heuristic_rejected(self):
        # a second row for one name would time a cache hit
        spec = ExperimentSpec(
            kind="compare_heuristics",
            parameters={"heuristics": ["degree", "jaccard", "degree"]},
        )
        with pytest.raises(ValueError, match="twice"):
            execute(spec)

    def test_each_scorer_runs_once_per_name(self, monkeypatch):
        # the timed computation fills the per-graph cache that training
        # reads, so one timing repeat costs one scorer call per name
        calls = []
        for module in (drivers, model):
            for attr, name_of in (
                ("heuristic_similarity", lambda args: args[1]),
                ("degree_similarity", lambda args: "degree"),
            ):
                fn = getattr(module, attr)

                def spy(*args, _fn=fn, _name_of=name_of):
                    calls.append(_name_of(args))
                    return _fn(*args)

                monkeypatch.setattr(module, attr, spy)
        params = {**TINY, "epochs": 2, "timing_repeats": 1,
                  "heuristics": ["jaccard", "degree"]}
        spec = ExperimentSpec(kind="compare_heuristics", parameters=params,
                              seeds=(0, 1))
        execute(spec)
        assert sorted(calls) == ["degree", "jaccard"]
        calls.clear()
        execute(ExperimentSpec(kind="compare_heuristics",
                               parameters={**params, "timing_repeats": 3},
                               seeds=(0,)))
        assert sorted(calls) == ["degree"] * 3 + ["jaccard"] * 3


class TestTrainDriver:
    def test_rows_per_seed_and_dataset_input(self, tmp_path):
        graph, features, labels = small_csbm()
        save_dataset(tmp_path / "ds", graph, features, labels)
        spec = ExperimentSpec(
            kind="train_eval",
            parameters={"data": str(tmp_path / "ds"), "model": "learned",
                        "epochs": 5, "hidden": 8},
            seeds=(0, 1),
        )
        header, rows = execute(spec)
        assert header[:2] == ["seed", "test_accuracy"]
        assert [r[0] for r in rows] == [0, 1]
        assert all(0.0 <= r[1] <= 1.0 for r in rows)
        assert all(0.0 <= r[4] <= 2.0 for r in rows)  # mean stopping depth

    def test_plain_on_csbm(self):
        spec = ExperimentSpec(kind="train_eval", parameters={**TINY},
                              seeds=(0,))
        header, rows = execute(spec)
        assert len(rows) == 1
        assert np.isnan(rows[0][4])  # plain model has no depth plan


def _install_fake_libc(monkeypatch):
    """A glibc host whose libc records mallopt calls; returns the calls
    and the names loaded."""
    calls, loaded = [], []

    def cdll(name):
        loaded.append(name)
        return SimpleNamespace(
            mallopt=lambda param, value: calls.append((param, value)) or 1)

    monkeypatch.setattr(drivers.os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(drivers.ctypes, "CDLL", cdll)
    return calls, loaded


def _on_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


class TestKeepFreedHeap:
    def test_execute_makes_both_calls_before_the_driver(self, monkeypatch):
        calls, loaded = _install_fake_libc(monkeypatch)
        seen = []
        monkeypatch.setitem(drivers._DISPATCH, "train_eval",
                            lambda spec: seen.append(list(calls)) or (["x"], []))
        execute(ExperimentSpec(kind="train_eval", parameters={}, seeds=(0,)))
        # M_MMAP_THRESHOLD to 32 MiB, then M_TRIM_THRESHOLD to 64 MiB
        assert seen == [[(-3, 32 << 20), (-1, 64 << 20)]]
        assert calls == seen[0]
        assert loaded == ["libc.so.6"]

    def test_import_makes_no_call(self, tmp_path):
        # a fresh interpreter with the fake libc in place before the import;
        # execute afterwards shows the fake would have seen a call
        code = (
            "import ctypes, json, os, types\n"
            "calls = []\n"
            "os.confstr = lambda name: 'glibc 2.36'\n"
            "ctypes.CDLL = lambda name: types.SimpleNamespace(\n"
            "    mallopt=lambda p, v: calls.append((p, v)) or 1)\n"
            "import adgnn.cli\n"
            "from adgnn.drivers import ExperimentSpec, execute\n"
            "after_import = list(calls)\n"
            "execute(ExperimentSpec(kind='theory_validate', seeds=(0,),\n"
            "    parameters={'profiles': 1, 'trials': 1000, 'max_degree': 2}))\n"
            "print(json.dumps([after_import, calls]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(drivers.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                             capture_output=True, text=True, check=True,
                             timeout=120).stdout
        assert json.loads(out) == [[], [[-3, 32 << 20], [-1, 64 << 20]]]

    @pytest.mark.parametrize("confstr", [
        pytest.param(ValueError("unrecognized configuration name"), id="unknown_name"),
        pytest.param(OSError("confstr failed"), id="os_error"),
        pytest.param(AttributeError("no confstr"), id="no_confstr"),
        pytest.param(None, id="undefined"),
        pytest.param("musl 1.2.4", id="other_libc"),
    ])
    def test_no_op_without_glibc(self, monkeypatch, confstr):
        calls, loaded = _install_fake_libc(monkeypatch)

        def fake_confstr(name):
            if isinstance(confstr, Exception):
                raise confstr
            return confstr

        monkeypatch.setattr(drivers.os, "confstr", fake_confstr)
        drivers._keep_freed_heap()
        assert calls == [] and loaded == []

    def test_no_op_when_libc_does_not_load(self, monkeypatch):
        _install_fake_libc(monkeypatch)

        def missing(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(drivers.ctypes, "CDLL", missing)
        drivers._keep_freed_heap()

    @pytest.mark.skipif(not _on_glibc(), reason="needs glibc")
    def test_real_mallopt_accepts_both_values(self, monkeypatch):
        # the real mallopt, called with the types the helper declares,
        # returns 1 for success
        results = []
        real_cdll = ctypes.CDLL

        def cdll(name):
            real = real_cdll(name).mallopt

            def mallopt(param, value):
                real.argtypes, real.restype = mallopt.argtypes, mallopt.restype
                results.append(real(param, value))
                return results[-1]

            return SimpleNamespace(mallopt=mallopt)

        monkeypatch.setattr(drivers.ctypes, "CDLL", cdll)
        drivers._keep_freed_heap()
        assert results == [1, 1]


class TestCli:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_subcommands_are_the_driver_kinds(self):
        from adgnn.cli import _build_parser

        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert [name.replace("-", "_") for name in sub.choices] == list(drivers.KINDS)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_theory_validate_dim_below_one_exits_2(self, tmp_path, capsys, dim):
        # dim 0 used to divide by zero in the oracle's chunk size and exit 1
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"profiles": 2, "trials": 1000, "dim": dim}))
        assert main(["theory-validate", "--config", str(cfg)]) == 2
        assert "dim must be at least 1" in capsys.readouterr().err

    def test_key_error_in_a_driver_is_a_runtime_failure(
            self, tmp_path, capsys, monkeypatch):
        # no config key is read by indexing, so a KeyError is a program
        # fault, not a bad config
        def broken(*args, **kwargs):
            raise KeyError("conv1.weight")

        monkeypatch.setattr(drivers, "train_model", broken)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(TINY))
        assert main(["train-eval", "--config", str(cfg)]) == 1
        assert "runtime failure: 'conv1.weight'" in capsys.readouterr().err

    def test_missing_config_names_path(self, capsys):
        assert main(["train-eval", "--config", "/does/not/exist.json"]) == 2
        assert "/does/not/exist.json" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["train-eval", "--config", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_generate_and_stdout_table(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n0": 30, "n1": 30, "mean_degree": 4.0,
                                   "dim": 4}))
        out = tmp_path / "ds"
        assert main(["generate", "--config", str(cfg), "--out", str(out),
                     "--seed", "2"]) == 0
        assert (out / "edges.txt").is_file()
        cfg2 = tmp_path / "p.json"
        cfg2.write_text(json.dumps({"n0": 30, "n1": 30, "mean_degree": 4.0,
                                    "dim": 4, "homophily": 0.8}))
        capsys.readouterr()
        assert main(["profile-depth-benefit", "--config", str(cfg2)]) == 0
        out_text = capsys.readouterr().out
        assert out_text.startswith("degree,mean_log_benefit,node_count")

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": [0.5], "bogus": 1}))
        assert main(["sweep-homophily", "--config", str(cfg)]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", drivers.KINDS)
    def test_removed_training_keys_exit_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        # weight decay, early-stopping patience and the base gate
        # temperature are no longer settable; a config that names one is
        # refused by the unread-key check like any other stray key
        work = record_work(monkeypatch)
        config = {"weight_decay": 0.0, "early_stop_patience": None,
                  "temperature": 0.1}
        if kind == "train_eval":
            config["model"] = "learned"  # soft gating by default
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert main([kind.replace("_", "-"), "--config", str(cfg)]) == 2
        keys = "['early_stop_patience', 'temperature', 'weight_decay']"
        assert f"config keys {keys} are not read" in capsys.readouterr().err
        assert work == []

    @pytest.mark.parametrize(
        "bad",
        ['"lr": NaN', '"lr": 1e400'],
        ids=["lr_nan", "lr_inf"],
    )
    def test_non_finite_config_float_exits_2(self, tmp_path, capsys, bad):
        # JSON admits NaN and overflows 1e400 to inf; both are config errors
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY, "epochs": 2})[:-1] + ", " + bad + "}")
        assert main(["train-eval", "--config", str(cfg), "--seeds", "0"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, message",
        [("train-eval", {"n0": 20, "n1": 20, "epochs": 3, "sigma": "NaN"},
          "sigma must be finite and non-negative, got nan"),
         ("train-eval", {"n0": 20, "n1": 20, "epochs": 3, "delta_sq": "1e400"},
          "delta_sq must be finite and non-negative, got inf"),
         ("theory-validate", {"profiles": 2, "trials": 1000, "delta_sq": "NaN"},
          "delta_sq must be finite and non-negative, got nan"),
         ("theory-validate", {"profiles": 2, "trials": 1000, "sigma_sq": "1e400"},
          "sigma_sq must be finite and non-negative, got inf")],
        ids=["train_sigma_nan", "train_delta_sq_inf", "theory_delta_sq_nan",
             "theory_sigma_sq_inf"],
    )
    def test_non_finite_data_parameter_exits_2(
        self, tmp_path, capsys, command, config, message
    ):
        # these used to run to exit 0: NaN features gave accuracy 0.5 and
        # the oracle wrote rows of NaN
        cfg = tmp_path / "c.json"
        cfg.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in config.items()) + "}")
        assert main([command, "--config", str(cfg), "--seeds", "0"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra, key",
        [("train-eval", '"layers": 2.9', "layers"),
         ("train-eval", '"hidden": true', "hidden"),
         ("sweep-homophily", '"grid": 0.5', "grid"),
         ("sweep-degree-threshold", '"thresholds": [1.9]', "thresholds"),
         ("compare-heuristics", '"heuristics": "jaccard"', "heuristics"),
         ("train-eval", '"data": 5', "data"),
         ("sweep-homophily", '"grid": []', "grid"),
         ("sweep-degree-threshold", '"thresholds": []', "thresholds"),
         ("sweep-depth", '"depths": []', "depths"),
         ("sweep-lambda", '"lambdas": []', "lambdas"),
         ("compare-heuristics", '"heuristics": []', "heuristics"),
         ("compare-heuristics", '"timing_repeats": 0', "timing_repeats"),
         ("compare-heuristics", '"timing_repeats": -2', "timing_repeats")],
        ids=["float_integer", "bool_integer", "scalar_grid", "float_in_int_list",
             "string_heuristics", "number_data", "empty_grid", "empty_thresholds",
             "empty_depths", "empty_lambdas", "empty_heuristics", "zero_repeats",
             "negative_repeats"],
    )
    def test_config_value_of_wrong_type_exits_2(
        self, tmp_path, capsys, command, extra, key
    ):
        # these used to run as the value cast by int() or float(), fail
        # inside the driver, or report the letters of a name as sources;
        # an empty list ran to a header-only table, and a timing_repeats
        # below 1 ran one timing
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY, "epochs": 2})[:-1] + ", " + extra + "}")
        assert main([command, "--config", str(cfg), "--seeds", "0"]) == 2
        assert f"config key {key!r} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["plain", "learned"])
    def test_unknown_backbone_kind_exits_2(self, tmp_path, capsys, model):
        # BackboneConfig is the one check on the kind
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY, "model": model, "kind": "gat"}))
        assert main(["train-eval", "--config", str(cfg), "--seeds", "0"]) == 2
        assert "kind must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [('"model": "modified"', "model must be one of"),
         ('"model": "learned", "beta": 1', "config keys ['beta'] are not read")],
        ids=["modified", "beta"],
    )
    def test_deleted_calibration_variant_exits_2(
        self, tmp_path, capsys, extra, message
    ):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY, "epochs": 2})[:-1] + ", " + extra + "}")
        assert main(["train-eval", "--config", str(cfg), "--seeds", "0"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, key",
        [('"model": "learned", "heuristic_name": "jaccard"', "heuristic_name"),
         ('"model": "fast_degree", "head_hidden": 99', "head_hidden"),
         ('"model": "heuristic", "head_hidden": 3', "head_hidden"),
         ('"model": "learned", "gating": "hard", "temperature": 0.2',
          "temperature")],
        ids=["learned_heuristic_name", "fast_degree_head_hidden",
             "heuristic_head_hidden", "hard_temperature"],
    )
    def test_model_key_the_model_never_reads_exits_2(
        self, tmp_path, capsys, extra, key
    ):
        # each of these configs used to give the table of the same config
        # without the key
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY, "epochs": 2})[:-1] + ", " + extra + "}")
        assert main(["train-eval", "--config", str(cfg), "--seeds", "0"]) == 2
        assert f"config keys [{key!r}] are not read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra, key",
        [("sweep-lambda", '"lambda": "bogus", "lambdas": [0.0]', "lambda"),
         ("sweep-depth", '"layers": -5, "depths": [1]', "layers")],
        ids=["sweep_lambda", "sweep_depth"],
    )
    def test_sweep_key_set_by_its_grid_exits_2(
        self, tmp_path, capsys, command, extra, key
    ):
        # each grid overrides the single-value key, so the key is rejected
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY, "epochs": 2})[:-1] + ", " + extra + "}")
        assert main([command, "--config", str(cfg), "--seeds", "0"]) == 2
        assert f"config keys [{key!r}] are not read" in capsys.readouterr().err

    @pytest.mark.parametrize("model", [None, "plain"], ids=["default", "plain"])
    def test_plain_train_eval_rejects_adaptive_keys(self, tmp_path, capsys, model):
        # a plain backbone has no gates, head or thresholds; these keys used
        # to be ignored whatever their value
        base = {**TINY, "epochs": 2}
        if model is not None:
            base["model"] = model
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(base)[:-1] + ', "lambda": NaN, '
                       '"gating": "bogus", "head_hidden": -3}')
        assert main(["train-eval", "--config", str(cfg), "--seeds", "0"]) == 2
        err = capsys.readouterr().err
        keys = "['gating', 'head_hidden', 'lambda']"
        assert f"config keys {keys} are not read" in err

    def test_seeds_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY, "grid": [0.9], "seeds": [5, 6, 7]}))
        out = tmp_path / "r.csv"
        assert main(["sweep-homophily", "--config", str(cfg), "--seeds",
                     "0,1", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
        assert meta["seeds"] == [0, 1]

    def test_json_format_output(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"profiles": 2, "trials": 1500,
                                   "max_degree": 5}))
        out = tmp_path / "r.json"
        assert main(["theory-validate", "--config", str(cfg), "--out",
                     str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 2
        assert set(payload[0]) >= {"d_plus", "alpha", "rel_err_signal"}

    def test_stdout_is_exactly_the_table(self, tmp_path, capsys):
        # a config naming a dataset used to print the loader's summary line
        # above the header
        graph, features, labels = small_csbm()
        save_dataset(tmp_path / "ds", graph, features, labels)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"data": str(tmp_path / "ds"),
                                   "epochs": 3, "hidden": 8}))
        out = tmp_path / "r.csv"
        assert main(["train-eval", "--config", str(cfg), "--seeds", "0,1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["train-eval", "--config", str(cfg), "--seeds", "0,1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == out.read_bytes().decode()
        assert captured.out.startswith("seed,test_accuracy,")
        assert captured.err == ""

    def test_json_format_on_stdout(self, tmp_path, capsys):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"n0": 30, "n1": 30, "mean_degree": 4.0,
                                   "dim": 4}))
        assert main(["profile-depth-benefit", "--config", str(cfg),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload and set(payload[0]) == {"degree", "mean_log_benefit",
                                               "node_count"}

    def test_json_tables_are_strict_json(self, tmp_path, capsys):
        # RFC 8259 has no NaN or infinity: a plain model's stopping depth and
        # the cancellation bucket's mean used to be written as NaN and
        # -Infinity, and are null now
        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        train = tmp_path / "t.json"
        train.write_text(json.dumps({**TINY, "epochs": 2}))
        assert main(["train-eval", "--config", str(train), "--seeds", "0",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert rows[0]["mean_stopping_depth"] is None
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps({"n0": 30, "n1": 30, "mean_degree": 2.0,
                                       "dim": 2, "homophily": 0.0}))
        assert main(["profile-depth-benefit", "--config", str(profile),
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert rows[0]["degree"] == -1 and rows[0]["mean_log_benefit"] is None
        assert all(row["mean_log_benefit"] is not None for row in rows[1:])

    @pytest.mark.parametrize("kind", drivers.KINDS)
    def test_unread_key_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        calls = []

        def spy(name):
            def record(*args, **kwargs):
                calls.append(name)
                raise RuntimeError(f"{name} ran before the config was checked")
            return record

        for name in ("sample_graph", "train_model", "mc_single_layer_stats"):
            monkeypatch.setattr(drivers, name, spy(name))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"no_driver_reads_this": 1}))
        out = tmp_path / "out"
        assert main([kind.replace("_", "-"), "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config keys ['no_driver_reads_this'] are not read" in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("command", ["train-eval", "sweep-lambda"])
    @pytest.mark.parametrize("key, value", [("homophily", 0.5), ("n0", 10),
                                            ("delta_sq", 3.0), ("sigma", 2.0)])
    def test_synthetic_key_beside_data_exits_2(
        self, tmp_path, capsys, monkeypatch, command, key, value
    ):
        # a dataset replaces the CSBM draw, so these keys used to be ignored
        # and the table was the one without them
        graph, features, labels = small_csbm()
        save_dataset(tmp_path / "ds", graph, features, labels)
        loads = []
        monkeypatch.setattr(drivers, "load_dataset",
                            lambda path: loads.append(path) or load_dataset(path))
        params = {"data": str(tmp_path / "ds"), "epochs": 2, key: value}
        if command == "sweep-lambda":
            params["lambdas"] = [0.0]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(params))
        assert main([command, "--config", str(cfg), "--seeds", "0"]) == 2
        assert f"config keys [{key!r}] are not read" in capsys.readouterr().err
        assert loads == []

    def test_seed_and_seeds_together_exit_2(self, capsys):
        # --seeds used to win silently over --seed
        assert main(["train-eval", "--seed", "1", "--seeds", "0,1"]) == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_malformed_seeds_flag(self, capsys):
        assert main(["train-eval", "--seeds", "1,x"]) == 2
        assert "comma-separated" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["", ","], ids=["empty", "comma"])
    def test_empty_seeds_flag_exits_2(self, tmp_path, capsys, flag):
        # an empty list used to run the driver's default seeds 0-4
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY, "grid": [0.9]}))
        out = tmp_path / "r.csv"
        assert main(["sweep-homophily", "--config", str(cfg), "--seeds", flag,
                     "--out", str(out)]) == 2
        assert "--seeds names no seed" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_config_seeds_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY, "grid": [0.9], "seeds": []}))
        out = tmp_path / "r.csv"
        assert main(["sweep-homophily", "--config", str(cfg), "--out",
                     str(out)]) == 2
        assert 'config "seeds" names no seed' in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("seeds", [5, [1.7], [True], [0, "1"]],
                             ids=["scalar", "float", "bool", "string"])
    def test_config_seeds_must_be_integers(self, tmp_path, capsys, seeds):
        # a scalar used to crash with a TypeError; a float or a bool ran
        # int() of it and exited 0
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY, "grid": [0.9], "seeds": seeds}))
        out = tmp_path / "r.csv"
        assert main(["sweep-homophily", "--config", str(cfg), "--out",
                     str(out)]) == 2
        assert 'config "seeds" must be a list of integers' in capsys.readouterr().err
        assert not out.exists()


class TestBenchmarkTraceTargets:
    @pytest.fixture
    def tracing(self, monkeypatch):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while being built
        monkeypatch.setitem(sys.modules, spec.name, tracing)
        spec.loader.exec_module(tracing)
        return tracing

    @pytest.fixture
    def modules(self):
        from adgnn import backbones, csbm, theory, train
        import adgnn.cli

        return {"cli": adgnn.cli, "drivers": drivers, "train": train,
                "model": model, "backbones": backbones, "csbm": csbm,
                "theory": theory}

    def test_every_traced_global_resolves(self, tracing):
        # perfbench/tracing.py rebinds these module globals for --trace 1
        # runs; a refactor that drops one crashes every traced benchmark run
        targets = tracing.targets(full=True)
        assert len(targets) > 20
        for module_name, attr, *_ in targets:
            module = importlib.import_module(f"adgnn.{module_name}")
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"

    def test_traced_plan_globals_are_reached(self, tracing, monkeypatch):
        # model.plan_s times these globals; one the forward stops calling
        # silently moves its work to another span
        called = set()
        for name in tracing._PLAN_FUNCTIONS:
            fn = getattr(model, name)

            def spy(*args, _fn=fn, _name=name, **kwargs):
                called.add(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(model, name, spy)
        graph, features, _ = small_csbm()
        cfg = AdGnnConfig(backbone=BackboneConfig(layers=2, hidden_dim=8))
        params = model.init_adgnn_params(cfg, features.shape[1], 2, seed=0)
        model.forward(cfg, params, graph, tensor(features))
        assert sorted(set(tracing._PLAN_FUNCTIONS) - called) == []

    def test_traced_fit_model_keeps_the_benchmark_contract(self, tracing, modules):
        # the benchmark's work_per_s reads len(out[0].val_history) from
        # fit_model's return, and its forward spans tell training from
        # evaluation by the dropout generator: one of each per epoch
        train = modules["train"]
        data = small_csbm()
        split = make_split(80, seed=0)
        cfg = AdGnnConfig(backbone=BackboneConfig(layers=2, hidden_dim=8))
        tracer = tracing.Tracer()
        with tracing.installed(tracer, modules, full=True):
            result, best = train.fit_model(cfg, data, split,
                                           TrainConfig(epochs=3), seed=0)
        assert set(best) == set(model.init_adgnn_params(cfg, 4, 2, 0))
        names = [s.name for s in tracer.spans]
        assert names.count("train.fit_model") == 1
        assert names.count("model.forward.train") == 3
        assert names.count("model.forward.val") == 3
        fit = tracer.spans[names.index("train.fit_model")]
        assert fit.attrs["epochs"] == len(result.val_history) == 3

    def test_untraced_cli_run_records_one_fit_span_per_seed(
        self, tracing, modules, tmp_path
    ):
        # the untraced benchmark times the train.fit_model global alone and
        # reads work_per_s off its spans' epochs; a driver that reached
        # fit_model through another binding would record no span, and
        # work_per_s would read 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "learned", "n0": 40, "n1": 40,
                                      "hidden": 8, "epochs": 3}))
        tracer = tracing.Tracer()
        with tracing.installed(tracer, modules, full=False):
            assert main(["train-eval", "--config", str(config), "--seeds", "0,1",
                         "--out", str(tmp_path / "table.csv")]) == 0
        fits = [s for s in tracer.spans if s.name == "train.fit_model"]
        assert [s.attrs["epochs"] for s in fits] == [3, 3]
