"""Experiment drivers: seeded, CSV-emitting desk-scale studies.

Each driver consumes an ExperimentSpec (kind, parameter dict, seeds,
output path, format), validates its parameters, runs deterministically,
and returns a (header, rows) table.  `execute` dispatches and writes the
table plus a `<out>.meta.json` sidecar recording every parameter, so a
result file can always be traced back to its configuration.

The only non-seeded column anywhere is compare_heuristics'
score_compute_ms, which is wall-clock by nature; every other value is
byte-reproducible for fixed seeds.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import io
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .backbones import BackboneConfig
from .csbm import (
    ClassStats,
    CsbmParams,
    canonical_prototypes,
    homophily_from_target,
    measured_edge_homophily,
    sample_graph,
)
from .datasets import load_dataset, save_dataset
from .graph import NodeProfile, degrees, make_split, profile_counts
from .heuristics import HEURISTIC_NAMES, degree_similarity, heuristic_similarity
from .model import VARIANTS, AdGnnConfig, structural_scores
from .theory import (
    estimated_alpha,
    log_benefit_scores,
    mc_single_layer_stats,
    multi_layer_stats,
    signal_preservation_factor,
)
from .train import RunResult, TrainConfig, train_model

__all__ = ["KINDS", "ExperimentSpec", "execute", "format_table"]

_FORMATS = ("csv", "json")

_MULTI_SEED_KINDS = (
    "sweep_homophily",
    "sweep_degree_threshold",
    "sweep_depth",
    "sweep_lambda",
    "compare_heuristics",
)

# experiment-wide CSBM defaults: separable but not trivially so, and small
# enough that a full sweep runs in seconds.  delta_sq is deliberately modest;
# a two-layer pass keeps ~1/d of the raw signal through return walks, so a
# larger separation lets the midpoint of the homophily curve ride that leak
# instead of collapsing.
_CSBM_DEFAULTS = {
    "n0": 1000,
    "n1": 1000,
    "homophily": 0.9,
    "mean_degree": 10.0,
    "delta_sq": 1.0,
    "dim": 8,
    "sigma": 1.0,
}

_TRAIN_DEFAULTS = {
    "epochs": 150,
    # 0.02 trains the shallow models marginally faster but destabilizes
    # tall trunks: the first Adam step after the initial val peak can be
    # large enough to knock a 32-layer run into a regime it never leaves.
    "lr": 0.01,
    "dropout": 0.0,
    "hidden": 16,
}

_MODEL_DEFAULTS = {
    "model": "plain",
    "kind": "gcn_symnorm",
    "layers": 2,
    "lambda": 0.0,
    "gating": "soft",
    "heuristic_name": "common_neighbors",
    "head_hidden": 16,
}

_MODEL_NAMES = ("plain",) + VARIANTS

# how each config value type is read: the Python types it takes, and its
# name for one value and for a list.  bool subclasses int, and JSON true
# must not train at width 1
_READ_AS = {
    int: ((int,), "an integer", "integers"),
    float: ((int, float), "a number", "numbers"),
    str: ((str,), "a string", "strings"),
}


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    parameters: dict = field(default_factory=dict)
    out: Path | None = None
    seeds: tuple[int, ...] = ()
    output_format: str = "csv"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.output_format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")
        if self.out is not None:
            object.__setattr__(self, "out", Path(self.out))
        if not self.seeds:
            default = (0, 1, 2, 3, 4) if self.kind in _MULTI_SEED_KINDS else (0,)
            object.__setattr__(self, "seeds", default)
        for s in self.seeds:
            # bool subclasses int, and True must not run seed 1
            if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
                raise ValueError(f"seeds must be integers, got {s!r}")
            # numpy seeds no generator from a negative integer
            if s < 0:
                raise ValueError(f"seeds must be non-negative, got {int(s)}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))


class _Config:
    """One driver's config: its keys over the shared defaults and the
    driver's own.  Every read marks its key, and reject_unread makes a
    key that no read touched a config error, so a driver takes exactly
    the keys it reads."""

    def __init__(self, spec: ExperimentSpec, **defaults):
        self.kind = spec.kind
        self.values = spec.parameters
        self.defaults = {**_CSBM_DEFAULTS, **_TRAIN_DEFAULTS, **_MODEL_DEFAULTS,
                         **defaults}
        self.touched = set()

    def __contains__(self, key: str) -> bool:
        return key in self.values

    def read(self, key: str, of: type, many: bool = False):
        """The key's value, or its default when absent, as an `of` (int,
        float or str), or as a nonempty list of them when many.  A value
        of another type is a config error naming the key: no bool is a
        number, an integer takes no fraction, and a list key takes no
        scalar and no empty list."""
        self.touched.add(key)
        value = self.values[key] if key in self else self.defaults[key]
        accepted, one, several = _READ_AS[of]
        if many and not (isinstance(value, (list, tuple)) and value):
            raise ValueError(f"config key {key!r} must be a nonempty list of "
                             f"{several}, got {value!r}")
        items = value if many else [value]
        if any(isinstance(v, bool) or not isinstance(v, accepted) for v in items):
            what = f"a list of {several}" if many else one
            raise ValueError(f"config key {key!r} must be {what}, got {value!r}")
        read = [of(v) for v in items]
        return read if many else read[0]

    def reject_unread(self) -> None:
        """Call after every read and before any work."""
        unread = sorted(set(self.values) - self.touched)
        if unread:
            raise ValueError(f"config keys {unread} are not read by the "
                             f"{self.kind} driver")


def _csbm_params(cfg: _Config, homophily: float | None = None) -> CsbmParams:
    n0, n1 = cfg.read("n0", int), cfg.read("n1", int)
    if homophily is None:
        homophily = cfg.read("homophily", float)
    p_in, p_out = homophily_from_target(
        homophily, cfg.read("mean_degree", float), n0, n1
    )
    mu0, mu1 = canonical_prototypes(
        cfg.read("delta_sq", float), cfg.read("dim", int)
    )
    return CsbmParams(n0=n0, n1=n1, mu0=mu0, mu1=mu1,
                      sigma=cfg.read("sigma", float), p_in=p_in, p_out=p_out)


def _train_config(cfg: _Config) -> TrainConfig:
    return TrainConfig(epochs=cfg.read("epochs", int), lr=cfg.read("lr", float))


def _model_config(cfg: _Config, **fixed):
    """The backbone, or the adaptive model around it.  A key the driver
    fixes is not read from the config, and the model reads
    heuristic_name and head_hidden only where its variant uses them."""
    def read(key, of):
        return fixed[key] if key in fixed else cfg.read(key, of)

    name = read("model", str)
    if name not in _MODEL_NAMES:
        raise ValueError(f"model must be one of {_MODEL_NAMES}")
    # the backbone's width and dropout come from the training keys
    backbone = BackboneConfig(
        kind=read("kind", str),
        layers=read("layers", int),
        hidden_dim=cfg.read("hidden", int),
        dropout=cfg.read("dropout", float),
    )
    if name == "plain":
        return backbone
    used = {}
    if name == "heuristic":
        used["heuristic_name"] = read("heuristic_name", str)
    if name == "learned":
        used["head_hidden"] = read("head_hidden", int)
    return AdGnnConfig(backbone=backbone, lambda_weight=read("lambda", float),
                       variant=name, gating=read("gating", str), **used)


def _train_seeds(
    model_cfg,
    tc: TrainConfig,
    seeds: tuple[int, ...],
    data_for,
    override_fn=None,
) -> RunResult:
    """One training run per seed: data_for(seed) supplies the data, and
    the same seed keys the split and the initialization."""
    results = []
    for s in seeds:
        data = data_for(s)
        split = make_split(data[0].num_nodes, seed=s)
        override = None if override_fn is None else override_fn(data[0])
        results.append(train_model(model_cfg, data, split, tc, seed=s,
                                   depth_override=override))
    return RunResult(tuple(results))


def _sampled(params: CsbmParams):
    """A fresh CSBM draw per seed, keyed by the seed."""
    return lambda s: sample_graph(params, seed=s)


def _data_source(cfg: _Config):
    """The dataset at cfg["data"] for every seed when given, loaded at the
    first seed, else a fresh CSBM draw per seed."""
    if "data" in cfg:
        path = cfg.read("data", str)
        load = functools.cache(functools.partial(load_dataset, path))
        return lambda s: load()
    return _sampled(_csbm_params(cfg))


# ---------------------------------------------------------------- drivers


def run_generate(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    cfg = _Config(spec)
    params = _csbm_params(cfg)
    cfg.reject_unread()
    if spec.out is None:
        raise ValueError("generate requires an output directory")
    seed = spec.seeds[0]
    graph, features, labels = sample_graph(params, seed=seed)
    meta = {
        "kind": "csbm",
        "seed": seed,
        "n0": params.n0,
        "n1": params.n1,
        "mu0": params.mu0.tolist(),
        "mu1": params.mu1.tolist(),
        "sigma": params.sigma,
        "p_in": params.p_in,
        "p_out": params.p_out,
        "measured_edge_homophily": (
            measured_edge_homophily(graph, labels) if graph.num_edges else None
        ),
        "generator_version": __version__,
    }
    save_dataset(spec.out, graph, features, labels, meta=meta)
    header = ["nodes", "edges", "classes", "edge_homophily"]
    row = [
        graph.num_nodes,
        int(graph.num_edges),
        labels.num_classes,
        meta["measured_edge_homophily"],
    ]
    return header, [row]


def run_train(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    cfg = _Config(spec)
    tc = _train_config(cfg)
    model_cfg = _model_config(cfg)
    data_for = _data_source(cfg)
    cfg.reject_unread()
    results = _train_seeds(model_cfg, tc, spec.seeds, data_for).seed_results
    header = [
        "seed",
        "test_accuracy",
        "best_val_epoch",
        "best_val_accuracy",
        "mean_stopping_depth",
    ]
    rows = [[getattr(r, k) for k in header] for r in results]
    return header, rows


def run_theory_validate(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    """Single-layer oracle table: analytic signal and noise against Monte
    Carlo estimates.  Profiles with exact signal cancellation (alpha = 0)
    are redrawn, since relative error is undefined at zero analytic
    signal.

    Every profile is drawn first, in order, and each Monte Carlo estimate
    reads only its own seeded stream, so the estimates run on a thread
    per usable CPU (numpy's draws and in-place ufuncs release the GIL)
    and the table does not depend on how many there are."""
    cfg = _Config(spec, profiles=50, max_degree=20, trials=100_000,
                  delta_sq=4.0, sigma_sq=1.0, dim=8)
    count = cfg.read("profiles", int)
    max_degree = cfg.read("max_degree", int)
    trials = cfg.read("trials", int)
    stats = ClassStats(
        delta_sq=cfg.read("delta_sq", float),
        sigma_sq=cfg.read("sigma_sq", float),
    )
    dim = cfg.read("dim", int)
    cfg.reject_unread()
    if count < 1 or max_degree < 1:
        raise ValueError("profiles and max_degree must be positive")
    if trials < 1000:
        raise ValueError(f"trials must be at least 1000 for a usable estimate, "
                         f"got {trials} (config key 'trials')")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim} (config key 'dim')")
    base_seed = spec.seeds[0]
    rng = np.random.default_rng(base_seed)
    header = [
        "d_plus",
        "d_minus",
        "degree",
        "alpha",
        "analytic_signal",
        "mc_signal",
        "analytic_noise",
        "mc_noise",
        "rel_err_signal",
        "rel_err_noise",
    ]
    profiles = []
    for _ in range(count):
        while True:
            d = int(rng.integers(1, max_degree + 1))
            d_plus = int(rng.integers(0, d + 1))
            profile = NodeProfile(d_plus=d_plus, d_minus=d - d_plus, degree=d)
            if signal_preservation_factor(profile) != 0.0:
                break
        profiles.append(profile)

    def estimate(i: int):
        return mc_single_layer_stats(
            profiles[i], stats, trials=trials, seed=base_seed * 1_000_003 + i,
            dim=dim,
        )

    # sched_getaffinity, which counts the CPUs this process may use, is
    # Linux-only; elsewhere every CPU counts
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    # a profile that raises cancels the ones not yet started, and the pool
    # joins its threads before the error leaves this function
    with ThreadPoolExecutor(min(cpus, count)) as pool:
        estimates = list(pool.map(estimate, range(count)))
    rows = []
    for profile, mc in zip(profiles, estimates):
        analytic = multi_layer_stats(profile, stats, 1)
        rows.append([
            profile.d_plus,
            profile.d_minus,
            profile.degree,
            signal_preservation_factor(profile),
            analytic.signal_variance,
            mc.signal_variance,
            analytic.noise_variance,
            mc.noise_variance,
            abs(mc.signal_variance - analytic.signal_variance)
            / analytic.signal_variance,
            abs(mc.noise_variance - analytic.noise_variance)
            / analytic.noise_variance,
        ])
    return header, rows


def run_sweep_homophily(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    cfg = _Config(spec, grid=(0.0, 0.25, 0.5, 0.75, 1.0))
    grid = cfg.read("grid", float, many=True)
    if any(h < 0.0 or h > 1.0 for h in grid):
        raise ValueError("homophily grid must lie in [0, 1]")
    tc = _train_config(cfg)
    model_cfg = _model_config(cfg, model="plain")
    # the grid sets homophily
    params = [_csbm_params(cfg, homophily=h) for h in grid]
    cfg.reject_unread()
    rows = []
    for h, p in zip(grid, params):
        run = _train_seeds(model_cfg, tc, spec.seeds, _sampled(p))
        rows.append([h, run.mean, run.std])
    return ["homophily", "acc_mean", "acc_std"], rows


def run_sweep_degree_threshold(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    """Strong-heterophily sweep where nodes at or below a degree cutoff are
    forced to keep their raw features (stopping depth 0) while everyone
    else runs full depth."""
    # lower default degree than the other sweeps so the forced-raw
    # population is large enough to move aggregate accuracy, and wider
    # class separation so keeping raw features is actually worth something
    cfg = _Config(spec, thresholds=(0, 2, 4, 6), homophily=0.0,
                  mean_degree=5.0, delta_sq=2.0)
    thresholds = cfg.read("thresholds", int, many=True)
    if any(t < 0 for t in thresholds):
        raise ValueError("degree thresholds must be non-negative")
    tc = _train_config(cfg)
    params = _csbm_params(cfg)
    # the forced plan sets every depth, so no gate or threshold key is read
    model_cfg = _model_config(cfg, model="fast_degree", gating="hard",
                              **{"lambda": 0.0})
    cfg.reject_unread()
    t_max = model_cfg.t_max
    rows = []
    for threshold in thresholds:
        def override_fn(graph, _cut=threshold):
            deg = degrees(graph)
            return np.where(deg <= _cut, 0, t_max)

        run = _train_seeds(
            model_cfg, tc, spec.seeds, _sampled(params), override_fn
        )
        rows.append([threshold, run.mean, run.std])
    return ["threshold", "acc_mean", "acc_std"], rows


def run_sweep_depth(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    cfg = _Config(spec, depths=(1, 2, 4, 8, 16, 32), model="learned")
    depths = cfg.read("depths", int, many=True)
    if any(d < 1 for d in depths):
        raise ValueError("depths must be positive")
    if cfg.read("model", str) == "plain":
        raise ValueError("sweep_depth compares plain against an adaptive model")
    tc = _train_config(cfg)
    params = _csbm_params(cfg)
    # the depths grid sets layers
    models = [(depth, name, _model_config(cfg, layers=depth, **fixed))
              for depth in depths
              for name, fixed in (("plain", {"model": "plain"}), ("adaptive", {}))]
    cfg.reject_unread()
    rows = []
    for depth, name, model_cfg in models:
        run = _train_seeds(model_cfg, tc, spec.seeds, _sampled(params))
        rows.append([depth, name, run.mean, run.std])
    return ["depth", "model", "acc_mean", "acc_std"], rows


def run_sweep_lambda(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    cfg = _Config(spec, lambdas=(0.0, 0.25, 0.5, 0.75, 1.0), model="learned")
    lambdas = cfg.read("lambdas", float, many=True)
    if any(v < 0.0 or v > 1.0 for v in lambdas):
        raise ValueError("lambda grid must lie in [0, 1]")
    if cfg.read("model", str) == "plain":
        raise ValueError("sweep_lambda requires an adaptive model")
    tc = _train_config(cfg)
    data_for = _data_source(cfg)
    # the lambdas grid sets lambda
    models = [_model_config(cfg, **{"lambda": lam}) for lam in lambdas]
    cfg.reject_unread()
    rows = []
    for lam, model_cfg in zip(lambdas, models):
        run = _train_seeds(model_cfg, tc, spec.seeds, data_for)
        rows.append([lam, run.mean, run.std])
    return ["lambda", "acc_mean", "acc_std"], rows


def run_profile_depth_benefit(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    """Label-oracle depth-benefit profile: per-degree mean of the log
    depth benefit.  Nodes with exact signal cancellation (benefit 0, log
    -inf) cannot be averaged with the rest and land in a sentinel bucket
    keyed degree=-1."""
    cfg = _Config(spec, n_layers=2)
    n_layers = cfg.read("n_layers", int)
    if n_layers < 1:
        raise ValueError("n_layers must be positive")
    params = _csbm_params(cfg)
    cfg.reject_unread()
    graph, _, labels = sample_graph(params, seed=spec.seeds[0])
    d_plus, d_minus, deg = profile_counts(graph, labels)
    alpha = estimated_alpha(
        d_plus.astype(np.float64), d_minus.astype(np.float64), deg
    )
    scores = log_benefit_scores(alpha, deg, n_layers)
    finite = np.isfinite(scores)
    rows = []
    if (~finite).any():
        rows.append([-1, float("-inf"), int((~finite).sum())])
    for degree in np.unique(deg[finite]):
        bucket = scores[finite & (deg == degree)]
        rows.append([int(degree), float(bucket.mean()), int(bucket.size)])
    return ["degree", "mean_log_benefit", "node_count"], rows


def run_compare_heuristics(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    """Accuracy and score-computation cost per similarity source, on one
    fixed dataset.  'degree' runs the fast variant; the other names run
    the heuristic variant.  score_compute_ms is the best of
    timing_repeats wall-clock measurements, each a fresh computation; the
    first fills the per-graph cache that training then reads."""
    sources = HEURISTIC_NAMES + ("degree",)
    cfg = _Config(spec, heuristics=sources, timing_repeats=3, data_seed=0)
    names = cfg.read("heuristics", str, many=True)
    if len(set(names)) != len(names):
        raise ValueError("heuristic list names a source twice")
    for name in names:
        if name not in sources:
            raise ValueError(f"unknown heuristic {name!r}; choose from {sources}")
    repeats = cfg.read("timing_repeats", int)
    if repeats < 1:
        raise ValueError("config key 'timing_repeats' must be at least 1")
    tc = _train_config(cfg)
    params = _csbm_params(cfg)
    data_seed = cfg.read("data_seed", int)
    if data_seed < 0:
        raise ValueError(f"config key 'data_seed' must be non-negative, got "
                         f"{data_seed}")
    models = [
        _model_config(cfg, model="fast_degree") if name == "degree"
        else _model_config(cfg, model="heuristic", heuristic_name=name)
        for name in names
    ]
    cfg.reject_unread()
    data = sample_graph(params, seed=data_seed)
    graph = data[0]
    rows = []
    for name, model_cfg in zip(names, models):
        if name == "degree":
            score_fn = lambda: degree_similarity(graph)  # noqa: E731
        else:
            score_fn = lambda n=name: heuristic_similarity(graph, n)  # noqa: E731
        elapsed = []
        for i in range(repeats):
            start = time.perf_counter()
            if i == 0:
                # a miss on this fresh graph: it fills the cache training reads
                structural_scores(graph, name)
            else:
                score_fn()
            elapsed.append(time.perf_counter() - start)
        run = _train_seeds(model_cfg, tc, spec.seeds, lambda s: data)
        rows.append([name, run.mean, run.std, min(elapsed) * 1000.0])
    return ["heuristic", "acc_mean", "acc_std", "score_compute_ms"], rows


_DISPATCH = {
    "generate": run_generate,
    "train_eval": run_train,
    "theory_validate": run_theory_validate,
    "sweep_homophily": run_sweep_homophily,
    "sweep_degree_threshold": run_sweep_degree_threshold,
    "sweep_depth": run_sweep_depth,
    "sweep_lambda": run_sweep_lambda,
    "profile_depth_benefit": run_profile_depth_benefit,
    "compare_heuristics": run_compare_heuristics,
}
KINDS = tuple(_DISPATCH)


def format_table(header: list[str], rows: list[list], output_format: str) -> str:
    """The text of a result table: CSV with CRLF line ends, or a JSON list
    with one object per row and null for a non-finite value."""
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    # strict JSON has no NaN or infinity: a non-finite value is null
    records = [
        {k: None if isinstance(v, float) and not math.isfinite(v) else v
         for k, v in zip(header, row)}
        for row in rows
    ]
    return json.dumps(records, indent=2, allow_nan=False) + "\n"


def _write_table(spec: ExperimentSpec, header: list[str], rows: list[list]) -> None:
    out = spec.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(format_table(header, rows, spec.output_format), newline="")
    sidecar = out.with_name(out.name + ".meta.json")
    meta = {
        "kind": spec.kind,
        "parameters": spec.parameters,
        "seeds": list(spec.seeds),
        "format": spec.output_format,
        "header": header,
        "package_version": __version__,
        "numpy_version": np.__version__,
    }
    with open(sidecar, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _keep_freed_heap() -> None:
    """On glibc, keep freed heap memory in the process for the next array.

    By default glibc maps each array above its dynamic threshold fresh,
    and trims the freed top of the heap back to the OS, so every
    per-epoch array faults its pages in again.  Both limits are raised:
    the mmap threshold (M_MMAP_THRESHOLD, -3) to 32 MiB, glibc's own
    DEFAULT_MMAP_THRESHOLD_MAX on 64-bit hosts, and the trim threshold
    (M_TRIM_THRESHOLD, -1) to twice that, the pairing glibc's dynamic
    rule keeps.  Neither alone stops the faults.  Peak RSS is unchanged,
    and the memory goes back at exit.  A no-op on any other libc.
    """
    try:
        version = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not version or not version.startswith("glibc"):
        return
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(-3, 32 << 20)
    libc.mallopt(-1, 64 << 20)


def execute(spec: ExperimentSpec) -> tuple[list[str], list[list]]:
    """Run one experiment; writes results (and the meta sidecar) when the
    spec carries an output path.  generate writes a dataset directory
    instead of a table.  On glibc it first keeps freed heap memory in
    the process (see _keep_freed_heap)."""
    _keep_freed_heap()
    header, rows = _DISPATCH[spec.kind](spec)
    if spec.kind != "generate" and spec.out is not None:
        _write_table(spec, header, rows)
    return header, rows
