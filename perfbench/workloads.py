"""The four benchmark workloads: CLI-driver configs and their output checks.

A workload seed n picks every driver seed, so the same n gives the same
inputs.  Each repetition makes one or more ``adgnn.cli.main`` calls; a
check reads the CSV tables back and returns the problems it finds.  The
acceptance-gate properties hold at full size only, so the tiny configs
used by the smoke test are checked for shape and range alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

Table = list[dict[str, str]]

# test_01's per-profile tolerance on the relative signal and noise errors,
# widened to bias + 5 standard errors where Monte Carlo noise alone exceeds
# it: at 1e5 trials a profile with small |alpha| has a signal standard
# error near 1.6%, and 3% alone fails at driver seeds 8, 13, 15 and 18
ORACLE_TOLERANCE = 0.03
ORACLE_Z = 5.0
# The depth-robustness target: learned depth-2 accuracy at seed 0 (0.96)
# minus the 3 points test_06 allows.  The model misses it on about one
# workload seed in ten (0.7325 at seed 1681476240, where depth 2 scores
# 0.9875), so a miss is reported on every run as a known defect of the
# model and does not fail the repetition; `quality` carries the accuracy.
LEARNED_T32_TARGET_ACC = 0.93
# a model that has stopped learning: 4 binomial standard errors above
# chance (0.5) on the 400 test nodes; the lowest of 46 seeds was 0.7325
LEARNED_T32_MIN_ACC = 0.6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    tiny_config: dict
    # workload seed -> the --seeds value of each cli.main call in a repetition
    driver_seeds: Callable[[int], list[str]]
    accuracy_column: str | None
    gate: Callable[[list[Table], dict], list[str]]
    # paper targets the seed commit does not meet at every seed: reported
    # on every run, not counted as failures
    target: Callable[[list[Table]], list[str]] = lambda tables: []


def _floats(table: Table, column: str) -> list[float]:
    return [float(row[column]) for row in table]


def _gate_learned(tables: list[Table], config: dict) -> list[str]:
    problems = []
    acc = _floats(tables[0], "test_accuracy")
    if min(acc) < LEARNED_T32_MIN_ACC:
        problems.append(f"test_accuracy {min(acc):.4f} below {LEARNED_T32_MIN_ACC}")
    depth = _floats(tables[0], "mean_stopping_depth")
    if not all(0.0 <= d <= config["layers"] for d in depth):
        problems.append(f"mean_stopping_depth outside [0, {config['layers']}]: {depth}")
    val = _floats(tables[0], "best_val_accuracy")
    if not all(0.0 <= v <= 1.0 for v in val):
        problems.append(f"best_val_accuracy outside [0, 1]: {val}")
    return problems


def _target_learned(tables: list[Table]) -> list[str]:
    acc = min(_floats(tables[0], "test_accuracy"))
    return [] if acc >= LEARNED_T32_TARGET_ACC else [
        f"test_accuracy {acc:.4f} below the depth-robustness target "
        f"{LEARNED_T32_TARGET_ACC}"]


def _gate_u_shape(tables: list[Table], config: dict) -> list[str]:
    acc = {float(row["homophily"]): float(row["acc_mean"]) for row in tables[0]}
    ok = acc[0.0] >= 0.85 and acc[1.0] >= 0.85 and acc[0.5] <= 0.65
    return [] if ok else [f"homophily sweep is not U-shaped: {acc}"]


def oracle_tolerances(row: dict[str, str], trials: int, dim: int) -> tuple[float, float]:
    """Allowed relative (signal, noise) error of one theory-validate row.

    The signal estimate |m0 - m1|^2 has bias 2 dim v / trials and standard
    error sqrt(8 S v / trials) for true signal S and per-dimension noise v;
    the pooled noise estimate has relative standard error
    1 / sqrt(trials dim).
    """
    signal = float(row["analytic_signal"])
    noise = float(row["analytic_noise"])
    signal_tol = (2 * dim * noise / trials
                  + ORACLE_Z * (8 * signal * noise / trials) ** 0.5) / signal
    noise_tol = ORACLE_Z / (trials * dim) ** 0.5
    return max(ORACLE_TOLERANCE, signal_tol), max(ORACLE_TOLERANCE, noise_tol)


def _gate_oracle(tables: list[Table], config: dict) -> list[str]:
    trials, dim = int(config["trials"]), int(config.get("dim", 8))
    problems = []
    for row in (r for t in tables for r in t):
        signal_tol, noise_tol = oracle_tolerances(row, trials, dim)
        if (float(row["rel_err_signal"]) > signal_tol
                or float(row["rel_err_noise"]) > noise_tol):
            problems.append(f"oracle error above tolerance "
                            f"({signal_tol:.4f}, {noise_tol:.4f}) in {row}")
    return problems


def oracle_error(tables: list[Table]) -> list[float]:
    return [max(float(r["rel_err_signal"]), float(r["rel_err_noise"]))
            for t in tables for r in t]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="learned_t32",
            command="train-eval",
            config={"model": "learned", "layers": 32},
            tiny_config={"model": "learned", "layers": 4, "n0": 40, "n1": 40,
                         "epochs": 35},
            driver_seeds=lambda n: [str(n)],
            accuracy_column="test_accuracy",
            gate=_gate_learned,
            target=_target_learned,
        ),
        Workload(
            name="plain_sweep",
            command="sweep-homophily",
            config={"grid": [0.0, 0.5, 1.0]},
            tiny_config={"grid": [0.0, 0.5, 1.0], "n0": 40, "n1": 40, "epochs": 5},
            # five driver seeds per workload seed; seed 0 is test_04's 0-4
            driver_seeds=lambda n: [",".join(str(5 * n + k) for k in range(5))],
            accuracy_column="acc_mean",
            gate=_gate_u_shape,
        ),
        Workload(
            name="heuristics_500",
            command="compare-heuristics",
            config={"n0": 250, "n1": 250, "timing_repeats": 1},
            tiny_config={"n0": 30, "n1": 30, "timing_repeats": 1, "epochs": 5},
            driver_seeds=lambda n: [str(n)],
            accuracy_column="acc_mean",
            # its gate, every accuracy in [0, 1], is the check all share
            gate=lambda tables, config: [],
        ),
        Workload(
            name="theory_oracle",
            command="theory-validate",
            config={"profiles": 20, "trials": 100_000},
            tiny_config={"profiles": 2, "trials": 1000},
            # one call draws 20 random degree profiles and its time follows
            # their summed degree (+-16% between seeds); two calls halve that
            driver_seeds=lambda n: [str(2 * n), str(2 * n + 1)],
            accuracy_column=None,
            gate=_gate_oracle,
        ),
    )
}


def config_for(workload: Workload, seed: int, tiny: bool) -> dict:
    cfg = dict(workload.tiny_config if tiny else workload.config)
    if workload.name == "heuristics_500":
        cfg["data_seed"] = seed
    return cfg


def check(workload: Workload, tables: list[Table], config: dict, tiny: bool) -> list[str]:
    """Problems with one repetition's tables: a missing or empty table,
    an accuracy outside [0, 1], and at full size the acceptance gate."""
    if len(tables) != len(workload.driver_seeds(0)) or not all(tables):
        return ["missing or empty output table"]
    problems = []
    if workload.accuracy_column is not None:
        acc = _floats(tables[0], workload.accuracy_column)
        if not all(0.0 <= a <= 1.0 for a in acc):
            problems.append(f"accuracy outside [0, 1]: {acc}")
    if not tiny:
        problems += workload.gate(tables, config)
    return problems


def quality(workload: Workload, tables: list[Table]) -> float:
    """Mean of the accuracy column; for the oracle, one minus the largest
    relative signal or noise error."""
    if workload.accuracy_column is None:
        return 1.0 - max(oracle_error(tables))
    acc = _floats(tables[0], workload.accuracy_column)
    return sum(acc) / len(acc)


def mc_draws(tables: list[Table], trials: int) -> tuple[int, int]:
    """(neighbourhood draws, feature rows drawn): each profile draws
    `trials` neighbourhoods per class, each of degree + 1 rows."""
    profiles = [r for t in tables for r in t]
    return (2 * trials * len(profiles),
            sum(2 * trials * (int(r["degree"]) + 1) for r in profiles))
