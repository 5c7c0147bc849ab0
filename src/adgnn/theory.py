"""Closed-form depth-benefit quantities and their Monte Carlo oracles.

The closed forms predict how uniform self-inclusive mean aggregation
transforms class signal and noise at a single node, as a function of the
node's neighborhood label composition.  The Monte Carlo half of the module
re-derives the same quantities by brute-force simulation through the
:mod:`adgnn.csbm` samplers, so each prediction can be checked against an
implementation that shares no formulas with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csbm import ClassStats, canonical_prototypes, sample_neighborhood_batch
from .graph import NodeProfile

__all__ = [
    "AggregationStats",
    "CalibrationFactors",
    "estimated_alpha",
    "log_benefit_scores",
    "minmax_normalize",
    "signal_preservation_factor",
    "multi_layer_stats",
    "mc_single_layer_stats",
    "mc_layer_trajectory",
    "estimate_calibration_factors",
]

# |alpha| at or below this marks a sentinel node: total cancellation, or
# rounding noise around it.  Its log benefit is -inf, so it scores 0 and
# stays out of the min-max range.
_ALPHA_FLOOR = 1e-12


@dataclass(frozen=True)
class AggregationStats:
    """Signal variance (squared distance between the two conditional means)
    and scalar noise variance."""

    signal_variance: float
    noise_variance: float

    def __post_init__(self) -> None:
        if self.signal_variance < 0 or self.noise_variance < 0:
            raise ValueError("variances must be non-negative")

    @property
    def quality(self) -> float:
        """Signal over noise; +inf at zero noise."""
        if self.noise_variance == 0:
            return math.inf
        return self.signal_variance / self.noise_variance


@dataclass(frozen=True)
class CalibrationFactors:
    """Multiplicative corrections to the idealized recursion: beta rescales
    the per-layer signal decay, gamma the per-layer noise reduction."""

    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and positive")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be finite and positive")


def estimated_alpha(
    d_plus_hat: np.ndarray, d_minus_hat: np.ndarray, degree: np.ndarray
) -> np.ndarray:
    """Signal preservation factor (1 + d+ - d-) / (d + 1), per node.

    How much of the class-mean separation survives one aggregation: the
    self term plus same-label neighbors pull toward the node's own class
    mean, different-label neighbors toward the other one.  Ranges over
    [-1, 1]; an isolated node gets 1.  Expected (fractional) counts give
    the continuous relaxation the depth scores use.
    """
    dp = np.asarray(d_plus_hat, dtype=np.float64)
    dm = np.asarray(d_minus_hat, dtype=np.float64)
    deg = np.asarray(degree, dtype=np.float64)
    return (1.0 + dp - dm) / (deg + 1.0)


def log_benefit_scores(
    alpha_hat: np.ndarray, degree: np.ndarray, t_max: int
) -> np.ndarray:
    """Log-domain depth benefit over t_max layers per node.

    t_max * (2 ln|alpha| + ln(d + 1)); |alpha| at or below _ALPHA_FLOOR
    yields the -inf sentinel.  Log domain keeps t_max = 32 finite and is
    rank-preserving, which is all min-max normalization needs.
    """
    a = np.abs(np.asarray(alpha_hat, dtype=np.float64))
    deg = np.asarray(degree, dtype=np.float64)
    with np.errstate(divide="ignore"):
        per_layer = (
            2.0 * np.log(np.where(a > _ALPHA_FLOOR, a, 0.0))
            + np.log(deg + 1.0)
        )
    return t_max * per_layer


def minmax_normalize(scores: np.ndarray) -> np.ndarray:
    """Rescale to [0, 1].  -inf sentinels map to 0; the finite entries are
    min-max scaled among themselves; all-equal finite input maps to all 1
    (no discriminative information, nothing gets filtered)."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    out = np.zeros_like(s)
    finite = np.isfinite(s)
    if not finite.any():
        return out
    lo, hi = s[finite].min(), s[finite].max()
    if hi == lo:
        out[finite] = 1.0
    else:
        out[finite] = (s[finite] - lo) / (hi - lo)
    return out


def signal_preservation_factor(profile: NodeProfile) -> float:
    """estimated_alpha of one neighborhood's exact label counts."""
    return float(estimated_alpha(profile.d_plus, profile.d_minus, profile.degree))


def multi_layer_stats(profile: NodeProfile, stats: ClassStats, n_layers: int) -> AggregationStats:
    """Predicted signal and noise after n self-inclusive mean aggregations,
    under the idealized assumption that label-conditioned inputs are
    redrawn independently at each layer: the signal keeps alpha^2 and the
    noise 1 / (degree + 1) per layer.

    Raises when sigma_sq is zero, since the quality ratio is undefined.
    """
    if n_layers < 1:
        raise ValueError("n_layers must be at least 1")
    if stats.sigma_sq == 0:
        raise ValueError("quality is undefined at zero noise variance")
    alpha = signal_preservation_factor(profile)
    signal = (alpha * alpha) ** n_layers * stats.delta_sq
    noise = stats.sigma_sq / (profile.degree + 1) ** n_layers
    return AggregationStats(signal, noise)


def _oracle_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _trial_chunks(trials: int, degree: int, dim: int):
    """(start, stop) of each chunk of trials an oracle draws at a time.
    The chunk fixes the draw order (each chunk draws its centers, then its
    neighbors), so changing this formula moves every oracle table."""
    chunk = max(1, 4_000_000 // (max(degree, 1) * dim))
    for start in range(0, trials, chunk):
        yield start, min(start + chunk, trials)


def _mean_and_scalar_var(samples: np.ndarray) -> tuple[np.ndarray, float]:
    # scalar noise convention: average per-dimension variance (trace / dim)
    mean = samples.mean(axis=0)
    deviation = samples - mean
    deviation **= 2
    return mean, float(deviation.mean())


def _gather_sum(pool: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """pool[idx].sum(axis=1) without the (rows, columns, dim) gather: one
    gather into a reused buffer and one add per column of idx, in column
    order, the additions numpy's row sum makes whenever dim > 1."""
    total = pool[idx[:, 0]]
    column = np.empty_like(total)
    for j in range(1, idx.shape[1]):
        total += np.take(pool, idx[:, j], axis=0, out=column)
    return total


def mc_single_layer_stats(
    profile: NodeProfile,
    stats: ClassStats,
    trials: int,
    seed: int,
    dim: int = 8,
) -> AggregationStats:
    """Monte Carlo estimate of single-layer aggregation statistics.

    For each class label, draws `trials` neighborhoods through the csbm
    sampler, aggregates each with the uniform self-inclusive mean, and
    measures conditional means and per-dimension variances directly.
    Trials are consumed in a fixed chunked order, so a seed fully
    determines the result.  The centers are drawn straight into one
    (trials, dim) array, reused for both labels, and each chunk's
    neighbor sum is added and divided there in place: a call holds about
    2 * trials * dim doubles at its peak.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a usable estimate")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    rng = _oracle_rng(seed)
    means = []
    variances = []
    aggregated = np.empty((trials, dim))
    for own_label in (0, 1):
        for a, b in _trial_chunks(trials, profile.degree, dim):
            # the sampler writes the centers into rows; the neighbor sum is
            # freed as soon as it has been added
            rows = aggregated[a:b]
            rows += sample_neighborhood_batch(
                profile, stats, own_label, trials=b - a, rng=rng, dim=dim, out=rows
            )[1]
            rows /= profile.degree + 1
        mean, var = _mean_and_scalar_var(aggregated)
        means.append(mean)
        variances.append(var)
    signal = float(np.sum((means[0] - means[1]) ** 2))
    noise = 0.5 * (variances[0] + variances[1])
    return AggregationStats(signal, noise)


def mc_layer_trajectory(
    profile: NodeProfile,
    stats: ClassStats,
    n_layers: int,
    trials: int,
    seed: int,
    dim: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Layerwise empirical (signal, noise) arrays of length n_layers + 1.

    Index 0 describes the raw features.  Each layer keeps one pool of
    independent realizations per class and aggregates freshly resampled
    self/neighbor entries from the previous layer's pools, which redraws
    all randomness layer to layer exactly as the idealized recursion
    assumes.  Both classes evolve with the node's own neighborhood
    composition, mirrored.
    """
    if n_layers < 1:
        raise ValueError("n_layers must be at least 1")
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a usable estimate")
    rng = _oracle_rng(seed)
    mu0, mu1 = canonical_prototypes(stats.delta_sq, dim)
    sigma = math.sqrt(stats.sigma_sq)
    pools = [
        mu0 + sigma * rng.standard_normal((trials, dim)),
        mu1 + sigma * rng.standard_normal((trials, dim)),
    ]
    signals = np.empty(n_layers + 1)
    noises = np.empty(n_layers + 1)

    def record(k: int) -> None:
        m0, v0 = _mean_and_scalar_var(pools[0])
        m1, v1 = _mean_and_scalar_var(pools[1])
        signals[k] = np.sum((m0 - m1) ** 2)
        noises[k] = 0.5 * (v0 + v1)

    record(0)
    for k in range(1, n_layers + 1):
        next_pools = []
        for own_label in (0, 1):
            own, other = pools[own_label], pools[1 - own_label]
            out = np.empty((trials, dim))
            for a, b in _trial_chunks(trials, profile.degree, dim):
                rows = b - a
                agg = own[rng.integers(0, trials, rows)]
                if profile.d_plus:
                    agg += _gather_sum(own, rng.integers(0, trials, (rows, profile.d_plus)))
                if profile.d_minus:
                    agg += _gather_sum(other, rng.integers(0, trials, (rows, profile.d_minus)))
                np.divide(agg, profile.degree + 1, out=out[a:b])
            next_pools.append(out)
        pools = next_pools
        record(k)
    return signals, noises


def estimate_calibration_factors(
    signal_variances: np.ndarray,
    noise_variances: np.ndarray,
    alpha: float,
    degree: int,
) -> tuple[np.ndarray, np.ndarray, CalibrationFactors]:
    """Per-layer calibration factors from layerwise statistics.

    Inputs are arrays of length n + 1 with index 0 describing the
    pre-aggregation features.  Layer k contributes
    beta_k = S[k] / (alpha^2 * S[k-1]) and
    gamma_k = (degree + 1) * N[k] / N[k-1].  The averaged factors are
    geometric means, matching how the recursion composes them.
    """
    signal = np.asarray(signal_variances, dtype=np.float64)
    noise = np.asarray(noise_variances, dtype=np.float64)
    if signal.ndim != 1 or signal.shape != noise.shape or signal.shape[0] < 2:
        raise ValueError("need matching 1-d arrays covering at least one layer")
    if alpha == 0:
        raise ValueError("beta is undefined at alpha = 0")
    if np.any(signal[:-1] <= 0) or np.any(noise[:-1] <= 0):
        raise ValueError("ratio denominators must be positive")
    betas = signal[1:] / (alpha * alpha * signal[:-1])
    gammas = (degree + 1) * noise[1:] / noise[:-1]
    averaged = CalibrationFactors(
        beta=float(np.exp(np.mean(np.log(betas)))),
        gamma=float(np.exp(np.mean(np.log(gammas)))),
    )
    return betas, gammas, averaged

