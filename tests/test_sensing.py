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
    average_rate,
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

    def test_pattern_is_a_sampling_pattern_or_unset(self):
        # a string was once read as "plan one" by sense but refused by pd_sweep
        with pytest.raises(ValueError, match="SamplingPattern or None"):
            SensingConfig(f_max=20.0, B=1.0, omega=0.15, pattern="bogus")


class TestPlanSensing:
    def test_wideband_with_pinned_p(self):
        cfg = SensingConfig(f_max=2.0, B=0.01, omega=0.1, p=20, seed=1)
        pattern = plan_sensing(cfg)
        assert (pattern.L, pattern.p, pattern.T) == (200, 20, 0.5)
        assert average_rate(pattern, cfg.f_max) == pytest.approx(0.2)  # ~ omega * f_max

    def test_default_p_is_estimate_plus_one(self):
        # round(L*omega) = 3 channels expected active, plus one spare row
        pattern = plan_sensing(SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=1))
        assert (pattern.L, pattern.p) == (20, 4)

    def test_dense_spectrum_no_compression(self):
        cfg = SensingConfig(f_max=10.0, B=1.0, omega=0.95, seed=1)
        assert plan_sensing(cfg).p == min(round(10 * 0.95) + 1, 10)

    def test_resolution_too_coarse(self):
        cfg = SensingConfig(f_max=10.0, B=5.0, omega=0.05, seed=1)
        with pytest.raises(ValueError, match="resolution"):
            plan_sensing(cfg)

    def test_supplied_pattern_wins(self):
        pat = SamplingPattern(20, (0, 3, 7, 11, 16), 1 / 20)
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, pattern=pat)
        assert plan_sensing(cfg) == pat

    def test_auto_pattern_deterministic(self):
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=9)
        assert plan_sensing(cfg) == plan_sensing(cfg)


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


def _coset_tones(pattern, n_blocks, channels, phases):
    """Unit tones at the cell centres of `channels`, decomposed from the full-rate capture."""
    L = pattern.L
    n = np.arange(n_blocks * L)
    tones = []
    for m, phase in zip(channels, phases):
        # exp(i(2*pi*(m + 1/2)*n/L + phase)), its exponent reduced mod 2*pi in integers
        x = np.exp(1j * (np.pi * ((2 * int(m) + 1) * n % (2 * L)) / L + phase))
        tones.append(coset_decompose(TimeSeries(x, pattern.T), pattern).samples)
    return np.array(tones)


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

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"seed": -1}, "seed"),
            ({"seed": 1.0}, "seed"),
            ({"trials": 2.5}, "trials"),
            ({"trials": 0}, "trials"),
            ({"snr_db_list": [float("nan")]}, "snr_db_list"),
            ({"snr_db_list": [0.0, -float("inf")]}, "snr_db_list"),
        ],
    )
    def test_bad_arguments_rejected(self, kwargs, name):
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=1)
        args = {"snr_db_list": [0.0], "cr_list": [0.2], "trials": 5, "seed": 1, **kwargs}
        with pytest.raises(ValueError, match=name):
            pd_sweep(cfg, **args)

    @pytest.mark.parametrize(
        "pinned", [{"p": 4}, {"pattern": SamplingPattern(20, (0, 3, 10, 13), 0.05)}]
    )
    def test_template_pattern_and_p_rejected(self, pinned):
        # one pattern is designed per compression ratio, so these were ignored
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=1, **pinned)
        with pytest.raises(ValueError, match="pattern and p unset"):
            pd_sweep(cfg, [0.0], [0.2], trials=5, seed=1)

    @pytest.mark.parametrize("key", [[5, 6, 1], [77, 4, 2**64 - 1], [0, 2, 0]])
    def test_coset_trials_sample_the_tone_at_the_coset_positions(self, key):
        from subnyq.sensing import _coset_trials

        pattern = SamplingPattern(20, (0, 3, 7, 11, 16, 19), 0.05)
        n_blocks = 37
        ch_hi, ph_hi, hi = _coset_trials(pattern, n_blocks, 30.0, 12, key)
        ch_lo, ph_lo, lo = _coset_trials(pattern, n_blocks, -20.0, 12, key)
        # one key: the same channels, phases and noise, so the difference is
        # the tone alone
        assert np.array_equal(ch_hi, ch_lo) and np.array_equal(ph_hi, ph_lo)
        tone = (hi - lo) / (10.0**1.5 - 10.0**-1)
        ref = _coset_tones(pattern, n_blocks, ch_hi, ph_hi)
        assert tone.shape == ref.shape == (12, pattern.p, n_blocks)
        assert np.max(np.abs(tone - ref)) <= 1e-12

    def test_coset_trials_are_prefix_stable(self):
        from subnyq.sensing import _coset_trials

        pattern = SamplingPattern(20, (0, 4, 5, 13), 0.05)
        full = _coset_trials(pattern, 30, 5.0, 40, [9, 4, 3])
        for t in (1, 13):
            part = _coset_trials(pattern, 30, 5.0, t, [9, 4, 3])
            for a, b in zip(part, full):
                assert a.tobytes() == b[:t].tobytes()

    def test_coset_trials_distribution(self):
        from subnyq.sensing import _coset_trials

        pattern = SamplingPattern(20, (0, 3, 7, 11, 16, 19), 0.05)
        trials, n_blocks, snr_db = 1000, 150, 3.0
        channels, phases, samples = _coset_trials(pattern, n_blocks, snr_db, trials, [4, 6, 8])
        amp = math.sqrt(10.0 ** (snr_db / 10.0))
        z = (samples - amp * _coset_tones(pattern, n_blocks, channels, phases)).ravel()
        se = 1.0 / math.sqrt(z.size)  # times the per-sample standard deviation
        re, im = z.real, z.imag
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) <= 5 * se  # sd of |z|**2 is 1
        assert abs(np.mean(re**2) - 0.5) <= 5 * se * math.sqrt(0.5)
        assert abs(np.mean(im**2) - 0.5) <= 5 * se * math.sqrt(0.5)
        assert abs(np.mean(re * im)) <= 5 * se * 0.5
        assert abs(np.mean(re)) <= 5 * se * math.sqrt(0.5)
        assert abs(np.mean(im)) <= 5 * se * math.sqrt(0.5)
        counts = np.bincount(channels, minlength=20)
        assert len(counts) == 20 and counts.min() > 0
        assert np.all(np.abs(counts - trials / 20) <= 5 * math.sqrt(trials * 0.05 * 0.95))
        assert np.all((0.0 <= phases) & (phases < 2 * np.pi))
        assert abs(np.mean(phases) - np.pi) <= 5 * 2 * np.pi / math.sqrt(12 * trials)

    def test_row_independent_of_other_grid_points(self):
        cfg = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=1)
        grid = pd_sweep(cfg, [-5.0, 0.0], [0.1, 0.2], trials=200, seed=3, n_blocks=60)
        rows = {(r.cr, r.snr_db): r for r in grid.rows}
        assert any(0 < r.detections < r.trials for r in grid.rows)
        # first in both lists, first in neither, and -0.0 keyed as 0.0
        for cr, snr_db in [(0.1, -5.0), (0.2, 0.0), (0.2, -0.0)]:
            alone = pd_sweep(cfg, [snr_db], [cr], trials=200, seed=3, n_blocks=60)
            assert alone.rows[0] == rows[(cr, snr_db)]


CFG20 = SensingConfig(f_max=20.0, B=1.0, omega=0.15, seed=1)

# each refusal of the sensing layer not reached above, with a word of its message
SENSING_REFUSALS = {
    "f_max-zero": (lambda: SensingConfig(f_max=0.0, B=1.0, omega=0.1), "positive"),
    # round(inf) raised OverflowError and round(nan) "cannot convert float NaN to integer"
    "f_max-inf": (lambda: SensingConfig(f_max=math.inf, B=1.0, omega=0.1), "finite"),
    "f_max-nan": (lambda: SensingConfig(f_max=math.nan, B=1.0, omega=0.1), "finite"),
    "B-nan": (lambda: SensingConfig(f_max=20.0, B=math.nan, omega=0.1), "finite"),
    "B-inf": (lambda: SensingConfig(f_max=20.0, B=math.inf, omega=0.1), "finite"),
    "ratio-overflows": (lambda: SensingConfig(f_max=1e308, B=1e-10, omega=0.1), "finite"),
    "localize-method": (lambda: SensingConfig(f_max=20.0, B=1.0, omega=0.1, localize_method="x"), "localize_method"),
    "pattern-L": (
        lambda: plan_sensing(
            SensingConfig(f_max=20.0, B=1.0, omega=0.15, pattern=SamplingPattern(16, (0, 1, 2), 1 / 20))
        ),
        "mismatched L",
    ),
    "metric": (lambda: pd_sweep(CFG20, [10.0], [0.2], trials=1, seed=0, metric="bogus"), "metric"),
}


@pytest.mark.parametrize("call, word", SENSING_REFUSALS.values(), ids=SENSING_REFUSALS.keys())
def test_sensing_refusals(call, word):
    with pytest.raises(ValueError, match=word):
        call()
