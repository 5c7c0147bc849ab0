"""Whole-system acceptance gates, numbered 1-11.

Each test prints exactly one verdict line carrying the measured numbers, so
`pytest -s tests/test_acceptance.py` reads as a scoreboard.  Tolerances are
stated inline next to the checks.  Everything is seeded; a pass here is a
pass on every rerun of the same build.
"""

import json
import time

import numpy as np

from adgnn.autodiff import binary_cross_entropy, softmax_cross_entropy, tensor
from adgnn.backbones import BackboneConfig, layer_forward, plain_forward
from adgnn.cli import main
from adgnn.csbm import ClassStats
from adgnn.drivers import ExperimentSpec, execute
from adgnn.graph import LabelVector, NodeProfile, build_graph, degrees, profile_counts
from adgnn.model import (
    AdGnnConfig,
    SimilarityHead,
    ThresholdFunction,
    VARIANTS,
    assign_stopping_depths,
    expected_label_counts,
    forward,
    init_adgnn_params,
    pair_probability,
    threshold_values,
    trunk_params,
)
from adgnn.theory import (
    estimate_calibration_factors,
    estimated_alpha,
    log_benefit_scores,
    mc_layer_trajectory,
    minmax_normalize,
    multi_layer_stats,
    signal_preservation_factor,
)
from gradcheck import REL_TOL, check_gradients, weighted_mean

FIVE_SEEDS = (0, 1, 2, 3, 4)
UNIT_STATS = ClassStats(delta_sq=4.0, sigma_sq=1.0)


def _verdict(number, ok, detail):
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _run(kind, params, seeds):
    spec = ExperimentSpec(kind=kind, parameters=params, seeds=seeds)
    return execute(spec)


def _random_graph(rng, n, pairs):
    edges = rng.integers(0, n, size=(pairs, 2))
    return build_graph([(int(u), int(v)) for u, v in edges if u != v], n)


def _profiles_clear_of_cancellation(count, seed, floor=0.5):
    """Random profiles with |alpha| bounded away from 0.

    Near-cancellation profiles leave the layer-3 mean buried under the
    sampling noise of any feasible trial budget, so the scaling checks
    draw from the part of profile space where the estimator resolves.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        d = int(rng.integers(1, 21))
        d_plus = int(rng.integers(0, d + 1))
        p = NodeProfile(d_plus=d_plus, d_minus=d - d_plus, degree=d)
        if abs(signal_preservation_factor(p)) >= floor:
            out.append(p)
    return out


def test_01_single_layer_oracle():
    # Monte Carlo vs closed form, 50 profiles, 1e5 trials; signal and
    # noise within 3% relative error each, quality within 6%, under 60 s.
    start = time.perf_counter()
    header, rows = _run("theory_validate", {"profiles": 50, "trials": 100_000}, (0,))
    elapsed = time.perf_counter() - start
    arr = np.asarray(rows, dtype=np.float64)
    col = {name: arr[:, i] for i, name in enumerate(header)}
    rel_signal = float(np.abs(col["rel_err_signal"]).max())
    rel_noise = float(np.abs(col["rel_err_noise"]).max())
    quality_mc = col["mc_signal"] / col["mc_noise"]
    quality_an = col["analytic_signal"] / col["analytic_noise"]
    rel_quality = float(np.max(np.abs(quality_mc - quality_an) / quality_an))
    ok = (
        len(rows) == 50
        and rel_signal <= 0.03
        and rel_noise <= 0.03
        and rel_quality <= 0.06
        and elapsed < 60.0
    )
    _verdict(1, ok, f"max rel err signal {rel_signal:.4f} (<=0.03), "
                    f"noise {rel_noise:.4f} (<=0.03), quality {rel_quality:.4f} "
                    f"(<=0.06) over 50 profiles in {elapsed:.1f}s (<60s)")


def test_02_multi_layer_scaling():
    # Iterated oracle with per-layer redraw vs the n-layer closed form,
    # n in {1,2,3}, 20 profiles, quality within 5%, under 120 s.
    start = time.perf_counter()
    worst = 0.0
    for i, p in enumerate(_profiles_clear_of_cancellation(20, seed=7)):
        signals, noises = mc_layer_trajectory(
            p, UNIT_STATS, n_layers=3, trials=100_000, seed=1000 + i
        )
        for n in (1, 2, 3):
            an = multi_layer_stats(p, UNIT_STATS, n)
            expected = an.signal_variance / an.noise_variance
            got = signals[n] / noises[n]
            worst = max(worst, abs(got - expected) / expected)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.05 and elapsed < 120.0
    _verdict(2, ok, f"worst quality rel err {worst:.4f} (<=0.05) over 20 "
                    f"profiles x 3 depths in {elapsed:.1f}s (<120s)")


def test_03_calibration_reduction():
    # On statistics produced by the independence oracle itself, the
    # estimated per-layer corrections must come back as 1 within 5%.
    worst_beta, worst_gamma = 0.0, 0.0
    for i, p in enumerate(_profiles_clear_of_cancellation(10, seed=11)):
        signals, noises = mc_layer_trajectory(
            p, UNIT_STATS, n_layers=3, trials=100_000, seed=2000 + i
        )
        alpha = signal_preservation_factor(p)
        _, _, cal = estimate_calibration_factors(signals, noises, alpha, p.degree)
        worst_beta = max(worst_beta, abs(cal.beta - 1.0))
        worst_gamma = max(worst_gamma, abs(cal.gamma - 1.0))
    ok = worst_beta <= 0.05 and worst_gamma <= 0.05
    _verdict(3, ok, f"worst |beta-1| {worst_beta:.4f}, worst |gamma-1| "
                    f"{worst_gamma:.4f} (both <=0.05) over 10 profiles")


def test_04_homophily_sweep_shape():
    # U-shape over the homophily axis on the stock synthetic problem:
    # >=85% at both ends, <=65% at the uninformative midpoint, 5 seeds.
    start = time.perf_counter()
    header, rows = _run("sweep_homophily", {"grid": [0.0, 0.5, 1.0]}, FIVE_SEEDS)
    elapsed = time.perf_counter() - start
    acc = {h: mean for h, mean, _ in rows}
    ok = (
        acc[0.0] >= 0.85
        and acc[1.0] >= 0.85
        and acc[0.5] <= 0.65
        and elapsed < 300.0
    )
    _verdict(4, ok, f"acc(h=0) {acc[0.0]:.4f} (>=0.85), acc(h=0.5) "
                    f"{acc[0.5]:.4f} (<=0.65), acc(h=1) {acc[1.0]:.4f} "
                    f"(>=0.85) in {elapsed:.1f}s (<300s)")


def test_05_degree_threshold_shape():
    # Under strong heterophily, exempting the lowest-degree nodes from
    # aggregation helps, exempting well-connected nodes hurts; 5 seeds.
    start = time.perf_counter()
    header, rows = _run("sweep_degree_threshold", {"thresholds": [0, 2, 4, 6]}, FIVE_SEEDS)
    elapsed = time.perf_counter() - start
    acc = {int(t): mean for t, mean, _ in rows}
    ok = acc[2] > acc[0] and acc[6] < acc[0] and elapsed < 300.0
    _verdict(5, ok, f"acc(cut 0) {acc[0]:.4f}, acc(cut 2) {acc[2]:.4f} "
                    f"(> cut 0), acc(cut 6) {acc[6]:.4f} (< cut 0) in "
                    f"{elapsed:.1f}s (<300s)")


def test_06_depth_robustness():
    # Stacking a fixed backbone to depth 32 must collapse (>=20 point
    # loss); the depth-gated model stays within 3 points of its own
    # depth-2 accuracy on the same homophilic problem; 5 seeds.
    start = time.perf_counter()
    header, rows = _run("sweep_depth", {"depths": [2, 32]}, FIVE_SEEDS)
    elapsed = time.perf_counter() - start
    acc = {(int(d), name): mean for d, name, mean, _ in rows}
    plain_drop = acc[(2, "plain")] - acc[(32, "plain")]
    gated_gap = acc[(2, "adaptive")] - acc[(32, "adaptive")]
    ok = plain_drop >= 0.20 and gated_gap <= 0.03 and elapsed < 600.0
    _verdict(6, ok, f"plain 2->32 drop {plain_drop * 100:.1f} pts (>=20), "
                    f"gated 2->32 gap {gated_gap * 100:.1f} pts (<=3) in "
                    f"{elapsed:.1f}s (<600s)")


def test_07_raw_feature_tradeoff():
    # The raw-feature floor weight should be useless when aggregation is
    # reliable and strictly helpful on a sparse heterophilic graph.
    _, rows_hom = _run("sweep_lambda", {}, FIVE_SEEDS)
    means_hom = np.asarray([m for _, m, _ in rows_hom])
    _, rows_het = _run(
        "sweep_lambda", {"homophily": 0.0, "mean_degree": 2.0}, FIVE_SEEDS
    )
    means_het = np.asarray([m for _, m, _ in rows_het])
    best_positive = float(means_het[1:].max())
    ok = (
        int(np.argmax(means_hom)) == 0
        and float(means_hom[0]) > float(means_hom[1:].max())
        and best_positive > float(means_het[0])
    )
    _verdict(7, ok, f"homophilic argmax at lambda=0 "
                    f"({means_hom[0]:.4f} vs next {means_hom[1:].max():.4f}); "
                    f"heterophilic best lambda>0 {best_positive:.4f} > "
                    f"lambda=0 {means_het[0]:.4f}")


def test_08_full_depth_reduction():
    # Forcing every stopping depth to t_max must reproduce the ungated
    # backbone bit for bit, across kinds and scoring variants.
    rng = np.random.default_rng(88)
    kinds = ("gcn_rownorm", "gcn_symnorm", "sage_mean")
    exact = 0
    for i in range(10):
        n = int(rng.integers(8, 26))
        graph = _random_graph(rng, n, 3 * n)
        if graph.num_edges < 2:
            continue
        t_max = int(rng.integers(1, 5))
        bb = BackboneConfig(
            kind=kinds[i % 3], layers=t_max,
            hidden_dim=int(rng.integers(3, 6)), dropout=0.0,
        )
        # instances 0-8 pair each kind with each variant
        cfg = AdGnnConfig(backbone=bb, variant=VARIANTS[i // 3 % 3], gating="hard")
        in_dim = int(rng.integers(2, 6))
        classes = int(rng.integers(2, 5))
        params = init_adgnn_params(cfg, in_dim, classes, seed=3000 + i)
        x = tensor(rng.standard_normal((n, in_dim)))
        gated = forward(cfg, params, graph, x,
                        depth_override=np.full(n, t_max, dtype=np.int64))
        plain = plain_forward(cfg.backbone, trunk_params(params), graph, x)
        if np.array_equal(gated.logits.values, plain.values):
            exact += 1
    ok = exact == 10
    _verdict(8, ok, f"{exact}/10 random instances reduce to the plain "
                    f"backbone bit-exactly at full depth")


def _gradcheck_backbone_layers():
    rng = np.random.default_rng(91)
    kinds = ("gcn_rownorm", "gcn_symnorm", "sage_mean")
    worst, checked = 0.0, 0
    while checked < 24:
        kind = kinds[checked % 3]
        n = int(rng.integers(5, 9))
        f = int(rng.integers(2, 5))
        graph = _random_graph(rng, n, 2 * n)
        if graph.num_edges < 2:
            continue
        bb = BackboneConfig(kind=kind, layers=1, hidden_dim=f, dropout=0.0)
        h = tensor(rng.standard_normal((n, f)), requires_grad=True)
        layer = {"weight": tensor(rng.standard_normal((f, f)), requires_grad=True)}
        if kind == "sage_mean":
            layer["weight_nbr"] = tensor(
                rng.standard_normal((f, f)), requires_grad=True
            )
        pre = layer_forward(bb, layer, graph, h, activate=False)
        if np.abs(pre.values).min() < 2e-3:  # finite differences straddle kinks
            continue
        weight_tensor = tensor(rng.standard_normal((n, f)))

        def build():
            out = layer_forward(bb, layer, graph, h)
            return weighted_mean(out, weight_tensor)

        worst = max(worst, check_gradients(build, [h, *layer.values()]))
        checked += 1
    return worst


def _gradcheck_similarity_head():
    rng = np.random.default_rng(92)
    worst, checked = 0.0, 0
    while checked < 20:
        hu_vals = rng.standard_normal((5, 3))
        hv_vals = rng.standard_normal((5, 3))
        w1_vals = rng.standard_normal((6, 4)) * 0.7
        feats = np.hstack([np.abs(hu_vals - hv_vals), hu_vals * hv_vals])
        if np.abs(hu_vals - hv_vals).min() < 1e-3 or np.abs(feats @ w1_vals).min() < 1e-3:
            continue
        hu = tensor(hu_vals, requires_grad=True)
        hv = tensor(hv_vals, requires_grad=True)
        w1 = tensor(w1_vals, requires_grad=True)
        w2 = tensor(rng.standard_normal((4, 1)), requires_grad=True)
        mix = tensor(rng.standard_normal((5, 1)))

        def build():
            head = SimilarityHead(w1, w2)
            return weighted_mean(pair_probability(head, hu, hv), mix)

        worst = max(worst, check_gradients(build, [hu, hv, w1, w2]))
        checked += 1
    return worst


def _gradcheck_soft_gates():
    # positive weights and features keep the relus strictly active; the
    # remaining redraw guards are pair-distance ties and min/max score gaps
    rng = np.random.default_rng(93)
    bb = BackboneConfig(kind="gcn_rownorm", layers=2, hidden_dim=3, dropout=0.0)
    cfg = AdGnnConfig(
        backbone=bb, variant="learned", lambda_weight=0.1, head_hidden=4,
    )
    worst, checked = 0.0, 0
    while checked < 20:
        n = 6
        graph = _random_graph(rng, n, 10)
        if graph.num_edges < 3:
            continue
        params = init_adgnn_params(cfg, 3, 2, seed=int(rng.integers(1 << 30)))
        for name, t in params.items():
            if name.startswith(("dense", "conv", "head")):
                t.values[:] = rng.uniform(0.5, 1.5, t.shape)
        x_vals = rng.uniform(0.5, 1.5, (n, 3))
        h0 = np.maximum(x_vals @ params["dense0.weight"].values, 0.0)
        src, dst = graph.arc_sources(), graph.csr_neighbors
        if np.abs(h0[src] - h0[dst]).min() < 2e-3:
            continue
        feats = np.hstack([np.abs(h0[src] - h0[dst]), h0[src] * h0[dst]])
        hidden = np.maximum(feats @ params["head.w1"].values, 0.0)
        logit = hidden @ params["head.w2"].values
        probs = 1.0 / (1.0 + np.exp(-logit))
        d_plus = np.bincount(src, weights=probs.reshape(-1), minlength=n)
        alpha = estimated_alpha(d_plus, degrees(graph) - d_plus, degrees(graph))
        scores = np.sort(log_benefit_scores(alpha, degrees(graph), 2))
        if scores[1] - scores[0] < 1e-2 or scores[-1] - scores[-2] < 1e-2:
            continue
        labels = rng.integers(0, 2, size=n)
        x = tensor(x_vals)
        leaves = list(params.values())

        def build():
            res = forward(cfg, params, graph, x, temperature=0.3)
            return softmax_cross_entropy(res.logits, labels, np.ones(n, bool))

        worst = max(worst, check_gradients(build, leaves))
        checked += 1
    return worst


def _gradcheck_losses():
    rng = np.random.default_rng(94)
    worst = 0.0
    for _ in range(20):
        rows = int(rng.integers(4, 9))
        classes = int(rng.integers(2, 5))
        logits = tensor(rng.standard_normal((rows, classes)), requires_grad=True)
        labels = rng.integers(0, classes, size=rows)
        mask = rng.random(rows) < 0.7
        if not mask.any():
            mask[0] = True

        def build_ce():
            return softmax_cross_entropy(logits, labels, mask)

        worst = max(worst, check_gradients(build_ce, [logits]))

        k = int(rng.integers(3, 8))
        probs = tensor(rng.uniform(0.1, 0.9, (k, 1)), requires_grad=True)
        targets = rng.integers(0, 2, size=k).astype(np.float64)

        def build_bce():
            return binary_cross_entropy(probs, targets)

        worst = max(worst, check_gradients(build_bce, [probs]))
    return worst


def test_09_gradient_suite():
    # Reverse-mode gradients vs central finite differences, rel err < 1e-4,
    # >= 20 random small instances per family.
    worst_layers = _gradcheck_backbone_layers()
    worst_head = _gradcheck_similarity_head()
    worst_soft = _gradcheck_soft_gates()
    worst_losses = _gradcheck_losses()
    worst = max(worst_layers, worst_head, worst_soft, worst_losses)
    ok = worst < REL_TOL
    _verdict(9, ok, f"worst rel err: layers {worst_layers:.2e} (24), head "
                    f"{worst_head:.2e} (20), soft gates {worst_soft:.2e} (20), "
                    f"losses {worst_losses:.2e} (40); all < {REL_TOL:.0e}")


def test_10_structural_invariants():
    # Four randomized invariants, 200 cases each, zero tolerance.
    rng = np.random.default_rng(101)

    # thresholds never decrease with depth and stay inside [lambda, 1]
    for _ in range(200):
        lam = float(rng.uniform(0.0, 1.0))
        tf = ThresholdFunction(
            lam,
            tensor([[float(rng.uniform(-6.0, 6.0))]]),
            tensor([[float(rng.uniform(-8.0, 8.0))]]),
        )
        tau = threshold_values(tf, int(rng.integers(1, 41)))
        assert np.all(np.diff(tau) >= -1e-15)
        assert tau[0] >= lam - 1e-12 and tau[-1] <= 1.0 + 1e-12

    # later layers only ever shrink the active sets, nodes and edges alike
    rng2 = np.random.default_rng(102)
    for _ in range(200):
        n = int(rng2.integers(2, 50))
        t_max = int(rng2.integers(1, 13))
        graph = _random_graph(rng2, n, 2 * n)
        scores = minmax_normalize(rng2.standard_normal(n))
        tf = ThresholdFunction(
            float(rng2.uniform(0.0, 1.0)),
            tensor([[float(rng2.uniform(-4.0, 4.0))]]),
            tensor([[float(rng2.uniform(-6.0, 6.0))]]),
        )
        plan = assign_stopping_depths(scores, threshold_values(tf, t_max))
        for t in range(2, t_max + 1):
            previous = plan.active_nodes(t - 1)
            current = plan.active_nodes(t)
            assert not np.any(current & ~previous)
            # an edge carries a fresh message while both ends are active
            e = graph.edges()
            edge_prev = previous[e[:, 0]] & previous[e[:, 1]]
            edge_cur = current[e[:, 0]] & current[e[:, 1]]
            assert not np.any(edge_cur & ~edge_prev)

    # a stopped row is immune to every later layer's parameters
    rng3 = np.random.default_rng(103)
    frozen_checked = 0
    for case in range(200):
        n = int(rng3.integers(5, 11))
        t_max = int(rng3.integers(2, 5))
        graph = _random_graph(rng3, n, 2 * n)
        bb = BackboneConfig(kind="gcn_rownorm", layers=t_max, hidden_dim=3,
                            dropout=0.0)
        cfg = AdGnnConfig(backbone=bb, variant="fast_degree", gating="hard")
        params = init_adgnn_params(cfg, 3, 2, seed=5000 + case)
        x = tensor(rng3.standard_normal((n, 3)))
        override = rng3.integers(0, t_max + 1, size=n)
        override[0] = 0
        base = forward(cfg, params, graph, x, depth_override=override)
        bump_layer = int(rng3.integers(1, t_max + 1))
        key = f"conv{bump_layer}.weight"
        params[key].values += 0.73
        moved = forward(cfg, params, graph, x, depth_override=override)
        params[key].values -= 0.73
        immune = override < bump_layer
        assert np.array_equal(
            base.logits.values[immune], moved.logits.values[immune]
        )
        frozen_checked += int(immune.sum())
    assert frozen_checked >= 200

    # indicator-exact pair probabilities collapse to the label formula
    rng4 = np.random.default_rng(104)
    for _ in range(200):
        n = int(rng4.integers(2, 40))
        graph = _random_graph(rng4, n, 3 * n)
        classes = int(rng4.integers(2, 4))
        labels = rng4.integers(0, classes, size=n)
        src, dst = graph.arc_sources(), graph.csr_neighbors
        probs = (labels[src] == labels[dst]).astype(np.float64)
        d_plus_hat, d_minus_hat = expected_label_counts(graph, probs)
        alpha_hat = estimated_alpha(d_plus_hat, d_minus_hat, degrees(graph))
        d_plus, d_minus, degree = profile_counts(
            graph, LabelVector(labels, classes)
        )
        exact = (1.0 + d_plus.astype(np.float64) - d_minus) / (degree + 1.0)
        assert np.array_equal(alpha_hat, exact)

    _verdict(10, True, "filtering monotonicity, frozen-row immunity, "
                       "threshold monotonicity, exact-label reduction: "
                       "200 randomized cases each, all held")


_CLI_TINY = {"n0": 30, "n1": 30, "mean_degree": 4.0, "dim": 3}
_CLI_TRAIN = {"epochs": 6, "hidden": 6}


def _cli_table_cases():
    return {
        "train-eval": {**_CLI_TINY, **_CLI_TRAIN, "model": "learned"},
        "theory-validate": {"profiles": 4, "trials": 2000, "max_degree": 8},
        "sweep-homophily": {**_CLI_TINY, **_CLI_TRAIN, "grid": [0.0, 1.0]},
        "sweep-degree-threshold": {**_CLI_TINY, **_CLI_TRAIN,
                                   "thresholds": [0, 2]},
        "sweep-depth": {**_CLI_TINY, **_CLI_TRAIN, "depths": [1, 2]},
        "sweep-lambda": {**_CLI_TINY, **_CLI_TRAIN, "lambdas": [0.0, 0.5]},
        "profile-depth-benefit": {**_CLI_TINY, "n_layers": 2},
        "compare-heuristics": {**_CLI_TINY, **_CLI_TRAIN,
                               "timing_repeats": 1},
    }


def _strip_wall_clock(text):
    lines = text.strip().split("\n")
    names = lines[0].split(",")
    if "score_compute_ms" not in names:
        return text
    drop = names.index("score_compute_ms")
    kept = [
        ",".join(cell for i, cell in enumerate(line.split(",")) if i != drop)
        for line in lines
    ]
    return "\n".join(kept)


def test_11_cli_determinism(tmp_path):
    # Every driver, run twice through the real CLI with identical config
    # and seeds, must emit identical bytes.  The one wall-clock column in
    # the heuristic comparison is excluded; everything seeded must agree.
    outcomes = []

    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({**_CLI_TINY, "homophily": 0.8}))
    pair = []
    for run in (0, 1):
        out_dir = tmp_path / f"gen{run}"
        code = main(["generate", "--config", str(gen_cfg),
                     "--out", str(out_dir), "--seed", "3"])
        assert code == 0
        pair.append({
            name: (out_dir / name).read_bytes()
            for name in ("edges.txt", "features.csv", "labels.csv", "meta.json")
        })
    outcomes.append(("generate", pair[0] == pair[1]))

    for sub, params in _cli_table_cases().items():
        cfg_path = tmp_path / f"{sub}.json"
        cfg_path.write_text(json.dumps(params))
        texts = []
        for run in (0, 1):
            out = tmp_path / f"{sub}.{run}.csv"
            code = main([sub, "--config", str(cfg_path),
                         "--out", str(out), "--seeds", "0,1"])
            assert code == 0, sub
            texts.append(out.read_text())
        outcomes.append((sub, _strip_wall_clock(texts[0]) == _strip_wall_clock(texts[1])))

    bad = [name for name, same in outcomes if not same]
    ok = not bad
    _verdict(11, ok, f"{len(outcomes)} drivers byte-identical across reruns"
                     + (f"; mismatches: {bad}" if bad else ""))
