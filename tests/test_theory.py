import math

import numpy as np
import pytest

from adgnn import csbm
from adgnn.csbm import ClassStats, canonical_prototypes, sample_neighborhood_batch
from adgnn.graph import NodeProfile
from adgnn.theory import (
    AggregationStats,
    CalibrationFactors,
    estimate_calibration_factors,
    log_benefit_scores,
    mc_layer_trajectory,
    mc_single_layer_stats,
    multi_layer_stats,
    signal_preservation_factor,
)

UNIT = ClassStats(delta_sq=4.0, sigma_sq=1.0)


def random_profile(rng, max_degree=20, min_degree=0):
    d = int(rng.integers(min_degree, max_degree + 1))
    d_plus = int(rng.integers(0, d + 1))
    return NodeProfile(d_plus, d - d_plus, d)


def log_benefit(p, n_layers):
    """log_benefit_scores of one profile's exact label counts."""
    alpha = signal_preservation_factor(p)
    return float(log_benefit_scores(alpha, p.degree, n_layers))


class TestSignalPreservation:
    def test_examples(self):
        assert signal_preservation_factor(NodeProfile(5, 0, 5)) == 1.0
        assert signal_preservation_factor(NodeProfile(0, 1, 1)) == 0.0
        assert signal_preservation_factor(NodeProfile(2, 2, 4)) == pytest.approx(0.2)
        assert signal_preservation_factor(NodeProfile(0, 0, 0)) == 1.0

    def test_range_and_pure_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = random_profile(rng)
            a = signal_preservation_factor(p)
            assert -1.0 <= a <= 1.0
            if p.d_minus == 0:
                assert a == 1.0

    def test_heterophily_curve(self):
        # all-different neighborhoods: zero at degree 1, toward -1 with degree
        assert signal_preservation_factor(NodeProfile(0, 1, 1)) == 0.0
        assert signal_preservation_factor(NodeProfile(0, 99, 99)) < -0.9


class TestClosedForms:
    def test_single_layer_examples(self):
        s = multi_layer_stats(NodeProfile(3, 1, 4), UNIT, 1)
        assert s.signal_variance == pytest.approx(1.44)
        assert s.noise_variance == pytest.approx(0.2)
        assert s.quality == pytest.approx(7.2)

        s = multi_layer_stats(NodeProfile(0, 0, 0), UNIT, 1)
        assert (s.signal_variance, s.noise_variance, s.quality) == (4.0, 1.0, 4.0)

        s = multi_layer_stats(NodeProfile(2, 2, 4), UNIT, 1)
        assert s.quality == pytest.approx(0.8)
        assert s.quality < 4.0

    def test_zero_noise_rejected(self):
        for n in (1, 2):
            with pytest.raises(ValueError):
                multi_layer_stats(NodeProfile(1, 0, 1), ClassStats(4.0, 0.0), n)

    def test_multi_layer(self):
        s = multi_layer_stats(NodeProfile(5, 0, 5), UNIT, 2)
        assert s.quality == pytest.approx(144.0)

        for n in (1, 2, 5):
            assert multi_layer_stats(NodeProfile(0, 1, 1), UNIT, n).signal_variance == 0.0

        with pytest.raises(ValueError):
            multi_layer_stats(NodeProfile(1, 0, 1), UNIT, 0)

    def test_stats_invariant_enforced(self):
        # quality is derived from the two variances, never stored
        assert AggregationStats(1.0, 0.5).quality == 2.0
        assert AggregationStats(1.0, 0.0).quality == math.inf
        with pytest.raises(ValueError):
            AggregationStats(signal_variance=-1.0, noise_variance=0.5)
        with pytest.raises(ValueError):
            AggregationStats(signal_variance=1.0, noise_variance=-0.5)


class TestDepthBenefit:
    def test_examples(self):
        assert log_benefit(NodeProfile(5, 0, 5), 2) == pytest.approx(math.log(36.0))
        assert log_benefit(NodeProfile(7, 3, 10), 1) == pytest.approx(
            math.log((5 / 11) ** 2 * 11))
        assert log_benefit(NodeProfile(0, 1, 1), 3) == -math.inf

    def test_monotone_in_layers(self):
        # the log benefit is linear in the layer count, with the slope
        # ln(alpha^2 (d + 1)) of one layer
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = random_profile(rng)
            alpha = signal_preservation_factor(p)
            base = alpha * alpha * (p.degree + 1)
            values = np.array([log_benefit(p, n) for n in range(1, 5)])
            if base == 0:
                assert np.all(values == -math.inf)
                continue
            diffs = np.diff(values)
            if base > 1:
                assert np.all(diffs > 0)
            elif base < 1:
                assert np.all(diffs < 0)
            else:
                assert np.all(values == 0.0)

    def test_sign_symmetry(self):
        # (d_minus - 1, d_plus + 1) flips the factor's sign at equal degree
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 200:
            p = random_profile(rng, max_degree=15)
            if p.d_minus == 0:
                continue
            mirror = NodeProfile(p.d_minus - 1, p.d_plus + 1, p.degree)
            assert signal_preservation_factor(mirror) == pytest.approx(
                -signal_preservation_factor(p)
            )
            for n in (1, 2, 3):
                assert log_benefit(mirror, n) == pytest.approx(log_benefit(p, n))
            checked += 1


class TestModifiedDepthBenefit:
    def test_bad_factors_rejected(self):
        with pytest.raises(ValueError):
            CalibrationFactors(beta=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            CalibrationFactors(beta=-0.5, gamma=1.0)
        with pytest.raises(ValueError):
            CalibrationFactors(beta=math.inf, gamma=1.0)


class TestMonteCarloSingleLayer:
    def test_matches_closed_form(self):
        p = NodeProfile(3, 1, 4)
        mc = mc_single_layer_stats(p, UNIT, trials=40_000, seed=10)
        exact = multi_layer_stats(p, UNIT, 1)
        assert mc.signal_variance == pytest.approx(exact.signal_variance, rel=0.03)
        assert mc.noise_variance == pytest.approx(exact.noise_variance, rel=0.03)

    def test_cancellation_profile(self):
        mc = mc_single_layer_stats(NodeProfile(0, 1, 1), UNIT, trials=40_000, seed=11)
        assert mc.signal_variance < 0.01 * UNIT.delta_sq

    def test_zero_noise(self):
        mc = mc_single_layer_stats(
            NodeProfile(2, 1, 3), ClassStats(4.0, 0.0), trials=2_000, seed=12
        )
        alpha = signal_preservation_factor(NodeProfile(2, 1, 3))
        assert mc.noise_variance <= 1e-20
        assert mc.signal_variance == pytest.approx(alpha * alpha * 4.0, rel=1e-9)
        assert mc.quality == math.inf

    def test_deterministic_and_trial_floor(self):
        p = NodeProfile(2, 2, 4)
        a = mc_single_layer_stats(p, UNIT, trials=2_000, seed=5)
        b = mc_single_layer_stats(p, UNIT, trials=2_000, seed=5)
        assert a == b
        with pytest.raises(ValueError):
            mc_single_layer_stats(p, UNIT, trials=999, seed=5)


class TestMonteCarloIterated:
    def test_matches_multi_layer(self):
        p = NodeProfile(5, 0, 5)
        signals, noises = mc_layer_trajectory(p, UNIT, 2, trials=50_000, seed=20)
        exact = multi_layer_stats(p, UNIT, 2)
        assert signals[-1] / noises[-1] == pytest.approx(exact.quality, rel=0.05)

    def test_single_layer_consistency(self):
        p = NodeProfile(3, 2, 5)
        signals, noises = mc_layer_trajectory(p, UNIT, 1, trials=50_000, seed=21)
        single = mc_single_layer_stats(p, UNIT, trials=50_000, seed=21)
        assert signals[-1] == pytest.approx(single.signal_variance, rel=0.05)
        assert noises[-1] == pytest.approx(single.noise_variance, rel=0.05)

    def test_cancellation_bound(self):
        p = NodeProfile(2, 2, 4)
        alpha = signal_preservation_factor(p)
        signals, _ = mc_layer_trajectory(p, UNIT, 3, trials=50_000, seed=22)
        cap = (alpha ** 6) * UNIT.delta_sq * 1.1
        assert signals[-1] <= max(cap, 1e-3)

    def test_trajectory_layer_zero_is_raw(self):
        p = NodeProfile(4, 1, 5)
        signals, noises = mc_layer_trajectory(p, UNIT, 2, trials=50_000, seed=23)
        assert signals.shape == (3,)
        assert signals[0] == pytest.approx(UNIT.delta_sq, rel=0.03)
        assert noises[0] == pytest.approx(UNIT.sigma_sq, rel=0.03)


def _philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def materialized_batch(profile, stats, own_label, trials, rng, dim):
    """Neighborhood draws as the full (trials, degree, dim) tensor, summed
    over its rows by numpy."""
    mu0, mu1 = canonical_prototypes(stats.delta_sq, dim)
    own, other = (mu0, mu1) if own_label == 0 else (mu1, mu0)
    sigma = np.sqrt(stats.sigma_sq)
    center = own + sigma * rng.standard_normal((trials, dim))
    nbrs = np.empty((trials, profile.degree, dim))
    nbrs[:, : profile.d_plus] = own + sigma * rng.standard_normal(
        (trials, profile.d_plus, dim))
    nbrs[:, profile.d_plus:] = other + sigma * rng.standard_normal(
        (trials, profile.d_minus, dim))
    return center, nbrs.sum(axis=1)


def materialized_single_layer(profile, stats, trials, seed, dim=8):
    rng = _philox(seed)
    chunk = max(1, 4_000_000 // (max(profile.degree, 1) * dim))
    means, variances = [], []
    for own_label in (0, 1):
        aggregated = np.empty((trials, dim))
        for a in range(0, trials, chunk):
            b = min(a + chunk, trials)
            center, total = materialized_batch(profile, stats, own_label, b - a, rng, dim)
            aggregated[a:b] = (center + total) / (profile.degree + 1)
        mean = aggregated.mean(axis=0)
        means.append(mean)
        variances.append(float(((aggregated - mean) ** 2).mean()))
    return float(np.sum((means[0] - means[1]) ** 2)), 0.5 * (variances[0] + variances[1])


def materialized_trajectory(profile, stats, n_layers, trials, seed, dim=8):
    rng = _philox(seed)
    mu0, mu1 = canonical_prototypes(stats.delta_sq, dim)
    sigma = np.sqrt(stats.sigma_sq)
    pools = [mu0 + sigma * rng.standard_normal((trials, dim)),
             mu1 + sigma * rng.standard_normal((trials, dim))]
    signals, noises = [], []

    def record():
        m = [pool.mean(axis=0) for pool in pools]
        v = [float(((pool - mi) ** 2).mean()) for pool, mi in zip(pools, m)]
        signals.append(np.sum((m[0] - m[1]) ** 2))
        noises.append(0.5 * (v[0] + v[1]))

    record()
    chunk = max(1, 4_000_000 // (max(profile.degree, 1) * dim))
    for _ in range(n_layers):
        next_pools = []
        for own_label in (0, 1):
            own, other = pools[own_label], pools[1 - own_label]
            out = np.empty((trials, dim))
            for a in range(0, trials, chunk):
                rows = min(a + chunk, trials) - a
                agg = own[rng.integers(0, trials, rows)].copy()
                if profile.d_plus:
                    agg += own[rng.integers(0, trials, (rows, profile.d_plus))].sum(axis=1)
                if profile.d_minus:
                    agg += other[rng.integers(0, trials, (rows, profile.d_minus))].sum(axis=1)
                out[a:a + rows] = agg / (profile.degree + 1)
            next_pools.append(out)
        pools = next_pools
        record()
    return np.array(signals), np.array(noises)


EXACT_PROFILES = [
    NodeProfile(0, 1, 1), NodeProfile(1, 0, 1), NodeProfile(3, 2, 5), NodeProfile(6, 0, 6),
    NodeProfile(0, 4, 4), NodeProfile(9, 11, 20), NodeProfile(0, 0, 0),
]
# crosses several buffer refills in every block above, a multiple of none
RAGGED_TRIALS = 10_001


class TestStreamedDrawsMatchMaterialized:
    """The streamed sampler makes the same draws and the same additions, in
    the same order, as materializing every neighbor and summing the rows, so
    the oracles' outputs are equal bit for bit."""

    @pytest.mark.parametrize("profile", EXACT_PROFILES, ids=str)
    @pytest.mark.parametrize("stats", [UNIT, ClassStats(2.0, 0.0)], ids=["unit", "noiseless"])
    def test_sampler(self, profile, stats):
        for own_label in (0, 1):
            got = sample_neighborhood_batch(
                profile, stats, own_label, RAGGED_TRIALS, _philox(3), dim=8)
            want = materialized_batch(profile, stats, own_label, RAGGED_TRIALS, _philox(3), 8)
            assert (got[0] == want[0]).all() and (got[1] == want[1]).all()

    def test_ragged_trials_cross_buffer_steps(self):
        for p in EXACT_PROFILES:
            for count in (p.d_plus, p.d_minus):
                if count:
                    step = csbm._DRAW_BUFFER // (count * 8)
                    assert RAGGED_TRIALS > step and RAGGED_TRIALS % step != 0

    @pytest.mark.parametrize("profile", EXACT_PROFILES, ids=str)
    def test_single_layer(self, profile):
        mc = mc_single_layer_stats(profile, UNIT, trials=RAGGED_TRIALS, seed=4)
        signal, noise = materialized_single_layer(profile, UNIT, RAGGED_TRIALS, seed=4)
        assert mc.signal_variance == signal and mc.noise_variance == noise

    @pytest.mark.parametrize("profile", EXACT_PROFILES, ids=str)
    def test_trajectory(self, profile):
        signals, noises = mc_layer_trajectory(profile, UNIT, 2, trials=RAGGED_TRIALS, seed=6)
        want_signals, want_noises = materialized_trajectory(profile, UNIT, 2, RAGGED_TRIALS, 6)
        assert (signals == want_signals).all() and (noises == want_noises).all()

    def test_across_chunks(self):
        # degree 20 at dim 8 draws 25,000 trials per chunk: 60,000 spans three
        p = NodeProfile(9, 11, 20)
        assert 4_000_000 // (p.degree * 8) == 25_000
        mc = mc_single_layer_stats(p, UNIT, trials=60_000, seed=8)
        assert (mc.signal_variance, mc.noise_variance) == materialized_single_layer(
            p, UNIT, 60_000, seed=8)
        signals, noises = mc_layer_trajectory(p, UNIT, 1, trials=60_000, seed=9)
        want_signals, want_noises = materialized_trajectory(p, UNIT, 1, 60_000, 9)
        assert (signals == want_signals).all() and (noises == want_noises).all()

    def test_degree_zero_profile(self):
        p = NodeProfile(0, 0, 0)
        center, neighbor_sum = sample_neighborhood_batch(p, UNIT, 0, 5, _philox(1), dim=3)
        assert neighbor_sum.shape == (5, 3) and not neighbor_sum.any()
        mc = mc_single_layer_stats(p, UNIT, trials=2_000, seed=1)
        assert math.isfinite(mc.signal_variance) and math.isfinite(mc.noise_variance)
        assert mc.noise_variance == pytest.approx(UNIT.sigma_sq, rel=0.1)


class TestCalibration:
    def test_trivial_ratios(self):
        betas, gammas, avg = estimate_calibration_factors(
            np.array([1.0, 0.5, 0.25]), np.array([1.0, 1.0, 1.0]), alpha=1.0, degree=4
        )
        assert np.allclose(betas, 0.5)
        assert np.allclose(gammas, 5.0)
        assert avg.beta == pytest.approx(0.5)
        assert avg.gamma == pytest.approx(5.0)

    def test_simulated_factors_near_one(self):
        p = NodeProfile(4, 1, 5)
        signals, noises = mc_layer_trajectory(p, UNIT, 3, trials=60_000, seed=30)
        alpha = signal_preservation_factor(p)
        _, _, avg = estimate_calibration_factors(signals, noises, alpha, p.degree)
        assert avg.beta == pytest.approx(1.0, abs=0.05)
        assert avg.gamma == pytest.approx(1.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_calibration_factors(np.array([1.0]), np.array([1.0]), 1.0, 2)
        with pytest.raises(ValueError):
            estimate_calibration_factors(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 0.0, 2)
        with pytest.raises(ValueError):
            estimate_calibration_factors(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1.0, 2)

