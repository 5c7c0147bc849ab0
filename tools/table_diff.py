"""Compare the tables of this checkout with those of a git ref, byte for byte.

    python tools/table_diff.py <ref>

Runs a fixed list of ``adgnn.cli`` configs on this checkout's working tree
and on ``git archive <ref>``, each config in a process of its own with BLAS
pinned to one thread, and compares every CSV table and its ``.meta.json``
sidecar byte for byte.  The wall-clock column ``score_compute_ms`` is cut
from the CSVs first.  The README promises byte-identical tables for fixed
seeds, so a change that should move no number checks it here.

Exits 0 when every file matches, 1 listing each mismatch or failed run,
and 2 when the ref cannot be archived.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL_CLOCK = "score_compute_ms"

_TINY = {"n0": 30, "n1": 30, "mean_degree": 4.0, "dim": 3}
_TINY_TRAIN = {**_TINY, "epochs": 6, "hidden": 6}

# (name, subcommand, config, --seeds)
CASES = [
    # the four benchmark workloads, each at one fixed workload seed
    ("learned_t32", "train-eval", {"model": "learned", "layers": 32}, "1"),
    ("plain_sweep", "sweep-homophily", {"grid": [0.0, 0.5, 1.0]}, "0,1,2,3,4"),
    ("heuristics_500", "compare-heuristics",
     {"n0": 250, "n1": 250, "timing_repeats": 1, "data_seed": 3}, "3"),
    ("theory_oracle_0", "theory-validate", {"profiles": 20, "trials": 100_000}, "0"),
    ("theory_oracle_1", "theory-validate", {"profiles": 20, "trials": 100_000}, "1"),
    # the acceptance suite's CLI determinism configs
    ("tiny_train_eval", "train-eval", {**_TINY_TRAIN, "model": "learned"}, "0,1"),
    ("tiny_theory_validate", "theory-validate",
     {"profiles": 4, "trials": 2000, "max_degree": 8}, "0,1"),
    ("tiny_sweep_homophily", "sweep-homophily", {**_TINY_TRAIN, "grid": [0.0, 1.0]},
     "0,1"),
    ("tiny_sweep_degree_threshold", "sweep-degree-threshold",
     {**_TINY_TRAIN, "thresholds": [0, 2]}, "0,1"),
    ("tiny_sweep_depth", "sweep-depth", {**_TINY_TRAIN, "depths": [1, 2]}, "0,1"),
    ("tiny_sweep_lambda", "sweep-lambda", {**_TINY_TRAIN, "lambdas": [0.0, 0.5]},
     "0,1"),
    ("tiny_profile_depth_benefit", "profile-depth-benefit",
     {**_TINY, "n_layers": 2}, "0,1"),
    ("tiny_compare_heuristics", "compare-heuristics",
     {**_TINY_TRAIN, "timing_repeats": 1}, "0,1"),
    # the forced-plan sweep, the one hard-gated training, at its defaults
    ("degree_threshold", "sweep-degree-threshold", {}, "0,1,2,3,4"),
    # the other two operators, each deep enough that its hard-gated
    # forwards compute row slices: mean_nbr with the sliced row_gather of
    # sage_mean's own rows, and mean_self.  At h = 0.9 the heuristic run's
    # accuracies hid a 1e-3 change to mean_self that h = 0.6 shows
    ("sage_mean_l4", "train-eval",
     {"model": "learned", "kind": "sage_mean", "layers": 4, "n0": 300, "n1": 300,
      "epochs": 60}, "0,1"),
    ("rownorm_heuristic_l6", "train-eval",
     {"model": "heuristic", "kind": "gcn_rownorm", "layers": 6, "n0": 300,
      "n1": 300, "homophily": 0.6, "epochs": 60, "heuristic_name": "jaccard"},
     "0,1"),
]


def export(ref: str, dest: Path) -> None:
    """Unpack `git archive <ref>` into dest."""
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                    "-o", str(archive), ref], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def run_case(tree: Path, out_dir: Path, case) -> str | None:
    """Run one case on one tree; the error text when it fails."""
    name, command, config, seeds = case
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / f"{name}.json"
    config_path.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "adgnn.cli", command, "--config", str(config_path),
         "--out", str(out_dir / f"{name}.csv"), "--seeds", seeds],
        env=env, capture_output=True, text=True, cwd=out_dir,
    )
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return None


def comparable(path: Path) -> bytes:
    """The file's bytes, with the wall-clock column cut from a CSV."""
    data = path.read_bytes()
    if path.suffix != ".csv":
        return data
    lines = data.split(b"\r\n")
    header = lines[0].split(b",")
    if WALL_CLOCK.encode() not in header:
        return data
    drop = header.index(WALL_CLOCK.encode())
    return b"\r\n".join(
        b",".join(cell for i, cell in enumerate(line.split(b",")) if i != drop)
        for line in lines
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git ref to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)

    problems = []
    compared = 0
    with tempfile.TemporaryDirectory(prefix="table_diff_") as tmp:
        base = Path(tmp) / "base"
        try:
            export(args.ref, base)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot archive {args.ref!r}: {exc}", file=sys.stderr)
            return 2
        sides = {"base": base, "here": ROOT}
        outputs = {side: Path(tmp) / "out" / side for side in sides}
        # the two sides of a case run at once; only the cut column holds a time
        with ThreadPoolExecutor(max_workers=2) as pool:
            for case in CASES:
                name = case[0]
                errors = dict(zip(sides, pool.map(
                    lambda side: run_case(sides[side], outputs[side], case), sides)))
                failed = {side: err for side, err in errors.items() if err}
                if failed:
                    problems += [f"{name}: {side} run failed, {err}"
                                 for side, err in failed.items()]
                    continue
                for suffix in (".csv", ".csv.meta.json"):
                    a, b = (outputs[side] / (name + suffix) for side in sides)
                    compared += 1
                    same = comparable(a) == comparable(b)
                    if not same:
                        problems.append(f"{name}{suffix}: differs")
                    print(f"{name}{suffix}: {'same' if same else 'differs'}",
                          flush=True)
    for problem in problems:
        print(f"MISMATCH {problem}")
    print(f"{compared} files compared against {args.ref}, "
          f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
