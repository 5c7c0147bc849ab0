import math

import numpy as np
import pytest

from adgnn.csbm import ClassStats
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

