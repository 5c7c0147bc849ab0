"""adgnn benchmark: CLI-driver workloads, one process each.

    python3 perfbench/run.py --workload learned_t32 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one process each

Runs from any directory; the repository is the parent of this file's
directory, and the package is imported from its ``src``.  Each
repetition calls ``adgnn.cli.main`` in this process, reads the tables
back and checks them; repetitions continue while another one fits in
``--seconds``, after one untimed pass of the tiny config.  BLAS is
pinned to one thread, so nothing runs beside the driver.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` one untraced repetition is followed by two traced ones,
and the result holds the per-layer metrics; spans go to
``.bench_build/perfbench/``.  Human-readable lines come first, and the
last line of standard output is the JSON result.  ``--tiny`` shrinks
every config for the smoke test and skips the full-size gates.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# pinned before numpy loads: one process, no worker threads
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import tracing  # noqa: E402
from workloads import WORKLOADS, check, config_for, mc_draws, quality  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_SPAWNS = 7
TRACED_REPS = 2
# compare-heuristics' wall-clock column is the one value that may differ
VOLATILE_COLUMNS = ("score_compute_ms",)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "quality": "frac",
}
_COUNT_SUFFIXES = ("_calls", "_per_epoch", "_per_name", "_computed", "_active")


def per_layer_unit(name: str) -> str:
    if name.endswith(_COUNT_SUFFIXES):
        return "count"
    return "frac" if name.endswith("_frac") else "s"


def provenance(seed: int) -> dict:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": min(BLAS_THREADS, nproc),
        "workload_seed": seed,
    }


def measure_setup(spawns: int) -> list[float]:
    """Seconds a fresh interpreter takes to import adgnn.cli, per spawn."""
    code = ("import time; t = time.perf_counter(); import adgnn.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return [
        float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=120).stdout)
        for _ in range(spawns)
    ]


def read_table(path: Path) -> list[dict[str, str]]:
    if not path.is_file():
        return []
    with open(path, newline="") as fh:
        return [{k: v for k, v in row.items() if k not in VOLATILE_COLUMNS}
                for row in csv.DictReader(fh)]


class Runner:
    def __init__(self, workload, seed: int, tiny: bool, out_dir: Path) -> None:
        import adgnn.cli
        from adgnn import backbones, csbm, drivers, model, theory, train

        self.cli = adgnn.cli
        self.modules = {"cli": adgnn.cli, "drivers": drivers, "train": train,
                        "model": model, "backbones": backbones, "csbm": csbm,
                        "theory": theory}
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.out_dir = out_dir
        self.config = config_for(workload, seed, tiny)
        self.config_path = out_dir / "config.json"
        self.config_path.write_text(json.dumps(self.config))
        self.reference = None
        self.reps: list[dict] = []

    def warm_up(self) -> None:
        """One untimed, unchecked pass of the tiny config, so first-call
        costs (lazy imports, allocator growth) stay out of the timings."""
        w = self.workload
        path = self.out_dir / "warm_up.json"
        path.write_text(json.dumps(config_for(w, self.seed, tiny=True)))
        for i, seeds in enumerate(w.driver_seeds(self.seed)):
            argv = [w.command, "--config", str(path), "--seeds", seeds,
                    "--out", str(self.out_dir / f"warm_up{i}.csv")]
            with contextlib.redirect_stdout(sys.stderr):
                self.cli.main(argv)

    def repetition(self, tracer: tracing.Tracer, full: bool) -> None:
        """One repetition: every cli.main call of the workload, timed, with
        its tables read back and checked against the first repetition."""
        w = self.workload
        tables, problems, wall = [], [], 0.0
        tracer.rep = len(self.reps)
        with tracing.installed(tracer, self.modules, full):
            for i, seeds in enumerate(w.driver_seeds(self.seed)):
                out = self.out_dir / f"table{i}.csv"
                out.unlink(missing_ok=True)
                argv = [w.command, "--config", str(self.config_path),
                        "--seeds", seeds, "--out", str(out)]
                span = tracer.open("cli.main")
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(sys.stderr):
                        code = self.cli.main(argv)
                except Exception:  # noqa: BLE001 - count it and keep measuring
                    traceback.print_exc()
                    code = "exception"
                wall += time.perf_counter() - start
                tracer.close(span)
                if code != 0:
                    problems.append(f"cli.main {w.command} returned {code}")
                tables.append(read_table(out))
        problems += check(w, tables, self.config, self.tiny)
        missed = [] if self.tiny or problems else w.target(tables)
        if self.reference is None:
            self.reference = tables
        elif tables != self.reference:
            problems.append("table differs from the first repetition")
        self.reps.append({"wall_s": wall, "problems": problems, "tables": tables,
                          "known_defects": missed})
        for p in problems:
            print(f"check failed ({w.name}, repetition {len(self.reps)}): {p}",
                  file=sys.stderr)
        for m in missed:
            print(f"known defect, not counted ({w.name}, repetition "
                  f"{len(self.reps)}): {m}", file=sys.stderr)


def _summary(values: list[float]) -> str:
    ordered = sorted(values)
    return (f"median {statistics.median(ordered):.4f}, max {ordered[-1]:.4f}, "
            f"n={len(ordered)}")


def end_to_end(runner: Runner, tracer: tracing.Tracer, setup: list[float]) -> tuple[dict, dict]:
    """The gated metrics and the issue's full list (None where a metric
    does not apply to the workload)."""
    w = runner.workload
    walls = [r["wall_s"] for r in runner.reps]
    first = runner.reps[0]["tables"]
    complete = len(first) == len(w.driver_seeds(0)) and all(first)
    fits = [s for s in tracer.spans if s.name == "train.fit_model"]
    epochs = sum(s.attrs.get("epochs", 0) for s in fits)
    fit_s = sum(s.duration for s in fits)
    epochs_per_s = epochs / fit_s if fit_s else None
    mc = None
    if w.accuracy_column is None and complete:
        draws, rows = mc_draws(first, int(runner.config["trials"]))
        mc = (draws / statistics.median(walls), rows / statistics.median(walls))
    q = quality(w, first) if complete else 0.0
    gated = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # training epochs per second inside fit_model; feature rows drawn
        # per second for the oracle, whose draws differ in size by degree
        "work_per_s": (epochs_per_s or 0.0) if mc is None else mc[1],
        "quality": q,
    }
    failed = sum(1 for r in runner.reps if r["problems"])
    issue = {
        "wall_s": (gated["wall_s"], "s", _summary(walls)),
        "setup_s": (gated["setup_s"], "s", _summary(setup)),
        "train_epochs_per_s": (epochs_per_s, "1/s", f"{epochs} epochs in {fit_s:.3f}s of fit_model"),
        "mc_trials_per_s": (mc[0] if mc else None, "1/s", "neighbourhood draws / wall_s"),
        "test_acc": (q if w.accuracy_column else None, "frac", "mean of the accuracy column"),
        "oracle_rel_err": (1.0 - q if w.accuracy_column is None else None, "frac",
                           "largest relative signal or noise error"),
        "peak_rss_mb": (gated["peak_rss_mb"], "MB", "ru_maxrss of this process"),
        "failed_frac": (failed / len(runner.reps), "frac", f"{failed} of {len(runner.reps)}"),
    }
    return gated, issue


def run_all(args) -> int:
    """Every workload in its own process, as a single-workload command runs
    it; their lines are prefixed with the workload and their metrics merged
    under "<workload>.<metric>"."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + ["--tiny"] * args.tiny, capture_output=True,
                              text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny configs for the smoke test; gates skipped")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "adgnn" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'adgnn'} not found; the benchmark runs "
              "inside a checkout of the adgnn repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)

    setup = measure_setup(SETUP_SPAWNS)
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    out_dir = OUT_DIR / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, args.seed, args.tiny, out_dir)
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov))

    runner.warm_up()
    timer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        runner.repetition(timer, full=False)
        elapsed = time.perf_counter() - start
        if args.trace or elapsed * (1 + 1 / len(runner.reps)) > args.seconds:
            break
    gated, issue = end_to_end(runner, timer, setup)
    result = {"provenance": prov, "config": runner.config, "end_to_end": issue}

    broken = []
    if args.trace:
        tracer = tracing.Tracer()
        for _ in range(TRACED_REPS):
            runner.repetition(tracer, full=True)
        traced = runner.reps[-TRACED_REPS:]
        traced_ids = range(len(runner.reps) - TRACED_REPS, len(runner.reps))
        metrics = tracing.per_layer_metrics(tracer.spans, set(traced_ids))
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - runner.reps[0]["wall_s"])
        per_rep = [tracing.per_layer_metrics(tracer.spans, {i}) for i in traced_ids]
        broken = [c for c in tracing.EXACT_COUNTS
                  if any(m[c] != per_rep[0][c] for m in per_rep[1:])]
        result["per_layer"] = metrics
        result["broken_counts"] = broken
        spans = tracing.span_table(tracer.spans)
        trace_file = out_dir / "trace.json"
        with open(trace_file, "w") as fh:
            json.dump({
                "provenance": prov,
                "spans_fields": ["name", "start", "end", "parent", "rep"],
                "spans": [[s.name, s.start, s.end, s.parent, s.rep] for s in tracer.spans],
                "span_table": spans,
                "conv_layers": tracing.conv_layers(tracer.spans),
            }, fh)
        print(f"{'span (both traced repetitions)':34s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s}")
        for name, row in spans.items():
            print(f"{name:34s} {row['calls']:7d} {row['total_s']:9.4f} {row['self_s']:9.4f}")
        for name, value in metrics.items():
            print(f"{name:34s} {value:.6g} {per_layer_unit(name)}")
        for c in broken:
            print(f"broken count: {c} differs between traced repetitions", file=sys.stderr)
        print(f"spans and self times: {trace_file}")
        out_metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}
    else:
        for name, (value, unit, note) in issue.items():
            shown = "n/a" if value is None else f"{value:.6g} {unit}"
            print(f"{name:20s} {shown:22s} {note}")
        out_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in gated.items()}

    failed = sum(1 for r in runner.reps if r["problems"])
    result["repetitions"] = [{k: r[k] for k in ("wall_s", "problems", "known_defects")}
                             for r in runner.reps]
    (out_dir / "result.json").write_text(json.dumps(result, indent=1, default=str))
    print(json.dumps({
        "correct": failed == 0 and not broken,
        "attempted": len(runner.reps),
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
