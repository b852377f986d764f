import math

import numpy as np
import pytest

from subnyq import (
    NoiseModel,
    SamplingPattern,
    SensingConfig,
    SpectralSupport,
    TimeSeries,
    apply_noise,
    bandlimited_noise,
    coset_decompose,
    pd_sweep,
    plan_sensing,
    sense,
    spectral_index_from_support,
)


class TestSensingConfig:
    def test_channel_width_must_divide(self):
        with pytest.raises(ValueError):
            SensingConfig(f_max=2.0, B=0.3, omega=0.1)

    def test_omega_range(self):
        with pytest.raises(ValueError):
            SensingConfig(f_max=2.0, B=0.1, omega=0.0)
        with pytest.raises(ValueError):
            SensingConfig(f_max=2.0, B=0.1, omega=1.0)

    def test_method_validation(self):
        with pytest.raises(ValueError):
            SensingConfig(f_max=2.0, B=0.1, omega=0.1, order_method="bogus")


class TestPlanSensing:
    def test_wideband_with_pinned_p(self):
        cfg = SensingConfig(f_max=2.0, B=0.01, omega=0.1, p=20, seed=1)
        plan = plan_sensing(cfg)
        assert plan.L == 200
        assert plan.p == 20
        assert plan.q_hat_estimate == 20
        assert plan.sample_rate == pytest.approx(0.2)  # ~ omega * f_max
        assert plan.compression == pytest.approx(0.1)
        assert plan.q_bounds == (20, 40)

    def test_default_p_is_estimate_plus_one(self):
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=1)
        plan = plan_sensing(cfg)
        assert plan.L == 20
        assert plan.q_hat_estimate == 3
        assert plan.p == 4

    def test_dense_spectrum_no_compression(self):
        cfg = SensingConfig(f_max=10.0, B=1.0, omega=0.95, seed=1)
        plan = plan_sensing(cfg)
        assert plan.p == min(round(10 * 0.95) + 1, 10)

    def test_resolution_too_coarse(self):
        cfg = SensingConfig(f_max=10.0, B=5.0, omega=0.05, seed=1)
        with pytest.raises(ValueError, match="resolution"):
            plan_sensing(cfg)

    def test_supplied_pattern_wins(self):
        pat = SamplingPattern(20, (0, 3, 7, 11, 16), 1 / 20)
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, pattern=pat)
        plan = plan_sensing(cfg)
        assert plan.pattern == pat
        assert plan.p == 5

    def test_auto_pattern_deterministic(self):
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=9)
        assert plan_sensing(cfg).pattern == plan_sensing(cfg).pattern


class TestSense:
    def test_occupied_and_free_partition(self):
        F = SpectralSupport(((3.0, 5.0), (11.0, 12.0)), 20.0)
        x = bandlimited_noise(F, 1 / 20, 8000, seed=4)
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.2, seed=2)
        rep = sense(cfg, x)
        oracle = spectral_index_from_support(F, 20)
        assert rep.occupied.k == oracle.k
        free_idx = tuple(int(round(lo)) for lo, _ in rep.free_channels)
        assert sorted(set(free_idx) | set(rep.occupied.k)) == list(range(20))
        assert len(free_idx) + rep.occupied.q == 20

    def test_noisy_recovery(self):
        F = SpectralSupport(((3.0, 5.0), (11.0, 12.0)), 20.0)
        x = bandlimited_noise(F, 1 / 20, 8000, seed=4)
        xn = apply_noise(x, NoiseModel.awgn(0.1), seed=5)
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.2, seed=2)
        rep = sense(cfg, xn)
        assert rep.occupied.k == (3, 4, 11)
        assert rep.q_hat == 3
        assert rep.diagnostics["degraded_confidence"] is False

    def test_zero_signal_all_free(self):
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=2)
        x = TimeSeries(np.zeros(4000, dtype=complex), 1 / 20)
        rep = sense(cfg, x)
        assert rep.occupied.k == ()
        assert rep.q_hat == 0
        assert len(rep.free_channels) == 20
        assert rep.free_channels[0] == (0.0, 1.0)

    def test_single_tone_single_channel(self):
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=3)
        n = np.arange(4000)
        rng = np.random.default_rng(8)
        tone = np.exp(1j * 2 * np.pi * (7 + 0.5) / 20 * n)
        x = TimeSeries(tone + 0.02 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000)), 1 / 20)
        rep = sense(cfg, x)
        assert rep.occupied.k == (7,)

    @pytest.mark.parametrize("order,localize", [("eft", "music"), ("mdl", "nlls")])
    def test_alternate_estimators(self, order, localize):
        F = SpectralSupport(((3.0, 5.0), (11.0, 12.0)), 20.0)
        x = bandlimited_noise(F, 1 / 20, 8000, seed=4)
        xn = apply_noise(x, NoiseModel.awgn(0.1), seed=5)
        cfg = SensingConfig(
            f_max=20.0, B=1.0, omega=0.2, seed=2,
            order_method=order, localize_method=localize,
        )
        rep = sense(cfg, xn)
        assert rep.occupied.k == (3, 4, 11)

    def test_wrong_rate_rejected(self):
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=2)
        with pytest.raises(ValueError, match="1/f_max"):
            sense(cfg, TimeSeries(np.zeros(100, dtype=complex), 1.0))


class TestPdSweep:
    def test_rows_and_determinism(self):
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=1)
        r1 = pd_sweep(cfg, [0.0, 30.0], [0.2], trials=20, seed=5, n_blocks=60)
        r2 = pd_sweep(cfg, [0.0, 30.0], [0.2], trials=20, seed=5, n_blocks=60)
        assert r1 == r2
        assert len(r1.rows) == 2
        for row in r1.rows:
            assert row.pd == row.detections / row.trials
            assert 0.0 <= row.pd <= 1.0
            assert row.ci95 <= 1.96 * np.sqrt(0.25 / row.trials) + 1e-12

    def test_high_snr_detects(self):
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=1)
        res = pd_sweep(cfg, [30.0], [0.3], trials=30, seed=6, n_blocks=60)
        assert res.rows[0].pd >= 0.95

    def test_fractional_p_rejected(self):
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=1)
        with pytest.raises(ValueError, match="integer"):
            pd_sweep(cfg, [0.0], [0.17], trials=5, seed=1)  # p = 3.4
        with pytest.raises(ValueError, match="integer"):
            pd_sweep(cfg, [0.0], [0.05], trials=5, seed=1)  # p = 1 < 2

    def test_contains_metric(self):
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=1)
        res = pd_sweep(cfg, [30.0], [0.3], trials=10, seed=7, n_blocks=60, metric="contains")
        assert res.rows[0].pd >= 0.9

    @pytest.mark.parametrize("key,snr_db", [([5, 1, 2, 3], 7.5), ([77, 0, 6, 399], 30.0), ([0, 2, 0, 0], -10.0)])
    def test_coset_trial_is_the_decomposed_capture(self, key, snr_db):
        from subnyq.sensing import _coset_trial

        pattern = SamplingPattern(20, (0, 3, 7, 11, 16, 19), 0.05)
        L, n_blocks = 20, 37
        channel, samples = _coset_trial(pattern, n_blocks, snr_db, key)
        # the full-rate capture, drawn in the same order from the same key
        rng = np.random.default_rng(key)
        m = int(rng.integers(L))
        amp = math.sqrt(10.0 ** (snr_db / 10.0))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        n = np.arange(n_blocks * L)
        tone = amp * np.exp(1j * (2.0 * np.pi * (m + 0.5) / L * n + phase))
        noise = (rng.standard_normal(len(n)) + 1j * rng.standard_normal(len(n))) / math.sqrt(2.0)
        ref = coset_decompose(TimeSeries(tone + noise, pattern.T), pattern)
        assert channel == m
        assert samples.shape == ref.samples.shape
        assert samples.tobytes() == ref.samples.tobytes()

    def test_row_independent_of_other_grid_points(self):
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=1)
        alone = pd_sweep(cfg, [0.0], [0.1], trials=40, seed=3, n_blocks=60)
        grid = pd_sweep(cfg, [0.0, 30.0], [0.1, 0.2], trials=40, seed=3, n_blocks=60)
        assert 0 < alone.rows[0].detections < 40
        assert grid.rows[0] == alone.rows[0]
