"""Outside-in spans around the public names adgnn's modules call.

Every adgnn module calls its collaborators through module globals
(``train.forward``, ``model.layer_forward``, ``drivers.sample_graph``...),
so rebinding those globals to timing wrappers records one span per call
without touching the package.  A span keeps its name, start, end, parent
span and repetition; counts that the per-layer metrics need (rows a conv
layer produced, tape length at backward, the depth plan a forward
returned) ride on the span as attributes.

The spmm aggregators cannot be wrapped this way: ``backbones._AGGREGATORS``
binds them at import, so their time is part of ``layer_forward``.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

# the heuristic names compare-heuristics accepts; "degree" is the fast variant
HEURISTIC_SPANS = (
    "common_neighbors",
    "jaccard",
    "adamic_adar",
    "betweenness_product",
    "kshell_product",
    "clustering_product",
    "degree",
)

_PLAN_FUNCTIONS = (
    "expected_label_counts",
    "log_benefit_scores",
    "minmax_normalize",
    "threshold_values",
    "assign_stopping_depths",
)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    rep: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a call stack for parent links."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.rep = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.rep))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()


def _wrap(tracer: Tracer, fn, name_of, before=None, after=None):
    """Span around fn.  name_of(args, kwargs) names the span; before sees
    the arguments and after the result, both writing span attributes."""

    def traced(*args, **kwargs):
        idx = tracer.open(name_of(args, kwargs))
        if before is not None:
            before(tracer.spans[idx].attrs, args, kwargs)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer.spans[idx].attrs, out)
        return out

    traced.__wrapped__ = fn
    return traced


def _fixed(name):
    return lambda args, kwargs: name


def _mode(prefix):
    # train and validation forwards differ only in the dropout generator
    def name_of(args, kwargs):
        rng = kwargs.get("dropout_rng", args[4] if len(args) > 4 else None)
        return f"{prefix}.{'train' if rng is not None else 'val'}"

    return name_of


def _heuristic_name(args, kwargs):
    return "heuristics." + kwargs.get("name", args[1] if len(args) > 1 else "")


def _record_rows(attrs, out):
    attrs["rows"] = int(out.shape[0])


def _record_plan(attrs, out):
    attrs["depth"] = np.asarray(out.plan.stopping_depth)


def _record_tape(attrs, args, kwargs):
    attrs["tape_nodes"] = len(kwargs.get("tape", args[0] if args else None))


def _record_epochs(attrs, out):
    attrs["epochs"] = len(out[0].val_history)


def targets(full: bool):
    """(module name, global, span namer, before, after) for each wrapped
    binding.  Without full tracing only fit_model is timed, which the
    end-to-end train_epochs_per_s needs."""
    fit = [("train", "fit_model", _fixed("train.fit_model"), None, _record_epochs)]
    if not full:
        return fit
    spans = fit + [
        ("cli", "execute", _fixed("drivers.execute"), None, None),
        ("drivers", "sample_graph", _fixed("csbm.sample_graph"), None, None),
        ("drivers", "make_split", _fixed("graph.make_split"), None, None),
        ("drivers", "heuristic_similarity", _heuristic_name, None, None),
        ("drivers", "degree_similarity", _fixed("heuristics.degree"), None, None),
        ("drivers", "mc_single_layer_stats", _fixed("theory.mc_single_layer_stats"),
         None, None),
        ("csbm", "build_graph", _fixed("graph.build_graph"), None, None),
        ("theory", "sample_neighborhood_batch",
         _fixed("csbm.sample_neighborhood_batch"), None, None),
        ("train", "forward", _mode("model.forward"), None, _record_plan),
        ("train", "plain_forward", _mode("backbones.plain_forward"), None, None),
        ("train", "backward", _fixed("autodiff.backward"), _record_tape, None),
        ("train", "adam_step", _fixed("autodiff.adam_step"), None, None),
        ("train", "regularization_loss", _fixed("model.regularization_loss"),
         None, None),
        ("train", "softmax_cross_entropy", _fixed("train.loss"), None, None),
        ("train", "total_loss", _fixed("train.loss"), None, None),
        ("model", "layer_forward", _fixed("backbones.layer_forward"), None,
         _record_rows),
        ("model", "dense_forward", _fixed("backbones.dense_forward"), None, None),
        ("model", "row_gather", _fixed("autodiff.row_gather"), None, None),
        ("model", "pair_probability", _fixed("model.pair_probability"), None, None),
        ("model", "heuristic_similarity", _heuristic_name, None, None),
        ("model", "degree_similarity", _fixed("heuristics.degree"), None, None),
        ("backbones", "layer_forward", _fixed("backbones.layer_forward"), None,
         _record_rows),
        ("backbones", "dense_forward", _fixed("backbones.dense_forward"), None, None),
    ]
    spans += [("model", fn, _fixed("model.plan"), None, None) for fn in _PLAN_FUNCTIONS]
    return spans


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict, full: bool):
    """Rebind the target globals of `modules` (name -> module) to traced
    wrappers, and restore them on exit."""
    saved = []
    try:
        for mod_name, attr, name_of, before, after in targets(full):
            mod = modules[mod_name]
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, _wrap(tracer, original, name_of, before, after))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# ------------------------------------------------------------ aggregation


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def span_table(spans: list[Span]) -> dict:
    """Per span name: calls, total and self seconds, and the duration
    median with the highest percentile that has ten calls beyond it."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    table = {}
    for name, idx in sorted(by_name.items()):
        d = np.array([spans[i].duration for i in idx])
        row = {
            "calls": len(idx),
            "total_s": float(d.sum()),
            "self_s": float(sum(selfs[i] for i in idx)),
            "p50_s": float(np.median(d)),
        }
        for p in (99.9, 99, 90):
            if d.size * (1 - p / 100) >= 10:
                row[f"p{p:g}_s"] = float(np.percentile(d, p))
                break
        table[name] = row
    return table


def conv_layers(spans: list[Span], reps=None) -> dict:
    """Per gated conv layer t: seconds, calls and active rows, over every
    model.forward of the given repetitions (all when None); layer t is the
    t-th layer_forward under a forward."""
    out: dict[int, dict] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.name == "backbones.layer_forward" and s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    for i, s in enumerate(spans):
        if not s.name.startswith("model.forward.") or "depth" not in s.attrs:
            continue
        if reps is not None and s.rep not in reps:
            continue
        for t, layer in enumerate(children.get(i, []), start=1):
            row = out.setdefault(t, {"seconds": 0.0, "calls": 0, "active_rows": 0,
                                     "computed_rows": 0})
            row["seconds"] += layer.duration
            row["calls"] += 1
            row["active_rows"] += int((s.attrs["depth"] >= t).sum())
            row["computed_rows"] += layer.attrs.get("rows", 0)
    return out


def per_layer_metrics(spans: list[Span], reps: set[int]) -> dict[str, float]:
    """The named per-layer metrics per repetition: totals over the spans
    of the given repetitions divided by their count."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    layers = conv_layers(spans, reps)
    own_reps = [(s, own) for s, own in zip(spans, selfs) if s.rep in reps]
    spans = [s for s, _ in own_reps]
    for s, own in own_reps:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_total[s.name] = self_total.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1

    n = len(reps)

    def t(*names):
        return sum(total.get(k, 0.0) for k in names) / n

    def own(*names):
        return sum(self_total.get(k, 0.0) for k in names) / n

    backward = [s for s in spans if s.name == "autodiff.backward"]
    tape_nodes = sum(s.attrs["tape_nodes"] for s in backward)
    epochs = sum(s.attrs.get("epochs", 0) for s in spans if s.name == "train.fit_model")
    computed = sum(r["computed_rows"] for r in layers.values())
    active = sum(r["active_rows"] for r in layers.values())
    heuristic_calls = sum(calls.get(f"heuristics.{h}", 0) for h in HEURISTIC_SPANS)
    heuristic_names = sum(1 for h in HEURISTIC_SPANS if calls.get(f"heuristics.{h}"))

    m = {
        "autodiff.backward_s": t("autodiff.backward"),
        "autodiff.tape_nodes_per_epoch": tape_nodes / len(backward) if backward else 0.0,
        "autodiff.adam_s": t("autodiff.adam_step"),
        "autodiff.row_gather_s": t("autodiff.row_gather"),
        "backbones.layer_forward_s": t("backbones.layer_forward"),
        "backbones.layer_forward_calls": calls.get("backbones.layer_forward", 0) / n,
        "backbones.dense_forward_s": t("backbones.dense_forward"),
        "model.train_forward_s": t("model.forward.train", "backbones.plain_forward.train"),
        "model.val_forward_s": t("model.forward.val", "backbones.plain_forward.val"),
        "model.arc_score_s": t("model.pair_probability"),
        "model.pair_loss_s": t("model.regularization_loss"),
        "model.plan_s": t("model.plan"),
        "model.forward_self_s": own("model.forward.train", "model.forward.val"),
        "model.conv_rows_computed": computed / n,
        "model.conv_rows_active": active / n,
        "model.active_row_frac": active / computed if computed else 0.0,
    }
    for h in HEURISTIC_SPANS:
        m[f"heuristics.{h}_s"] = t(f"heuristics.{h}")
    m["heuristics.calls_per_name"] = (
        heuristic_calls / heuristic_names / n if heuristic_names else 0.0
    )
    m.update({
        "csbm.sample_graph_s": t("csbm.sample_graph"),
        "graph.build_graph_s": t("graph.build_graph"),
        "csbm.neighborhood_batch_s": t("csbm.sample_neighborhood_batch"),
        "theory.mc_self_s": own("theory.mc_single_layer_stats"),
        "graph.make_split_s": t("graph.make_split"),
        "train.fit_s": t("train.fit_model"),
        "train.epoch_s": total.get("train.fit_model", 0.0) / epochs if epochs else 0.0,
        "train.loss_s": t("train.loss"),
        "drivers.self_s": own("drivers.execute"),
        "cli.self_s": own("cli.main"),
    })
    return m


# counts that must repeat exactly from one traced repetition to the next
EXACT_COUNTS = (
    "autodiff.tape_nodes_per_epoch",
    "model.conv_rows_computed",
    "model.conv_rows_active",
    "heuristics.calls_per_name",
    "backbones.layer_forward_calls",
)
