import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import signal as sps

import subnyq
from subnyq import (
    CosetStreams,
    FrequencyReconstruction,
    IllPosedError,
    NoiseModel,
    SamplingPattern,
    SpectralIndexSet,
    SpectralSupport,
    apply_noise,
    build_measurement_matrix,
    coset_decompose,
    design_filter,
    eigendecompose,
    estimate_support,
    filter_streams,
    pseudo_inverse,
    reconstruct_frequency,
    reconstruct_time,
    reduce_matrix,
    sample_correlation,
    sfs_pattern_search,
    spectral_index_from_support,
    synthesize,
)

FMAX = 5.0
T = 1.0 / FMAX
L = 32
M = 1024


@pytest.fixture(scope="module")
def clean_signal(three_band_spec):
    return synthesize(three_band_spec, T, M)


@pytest.fixture(scope="module")
def cells(three_band_spec):
    return spectral_index_from_support(three_band_spec.support(), L)


@pytest.fixture(scope="module")
def sfs_pattern(cells):
    return sfs_pattern_search(L, 12, cells, T=T).pattern


@pytest.fixture(scope="module")
def narrow_filter():
    return design_filter(L, 383)


class TestSpectralIndex:
    def test_two_band_example(self):
        F = SpectralSupport(((1.2, 2.2), (4.1, 4.5)), 5.0)
        k = spectral_index_from_support(F, 5)
        assert k.k == (1, 2, 4)
        assert k.q == 3

    def test_three_band_example(self, three_band_spec):
        k = spectral_index_from_support(three_band_spec.support(), 32)
        assert k.k == (4, 5, 6, 7, 8, 15, 16, 17, 24, 25, 26)
        assert k.q == 11

    def test_empty_support(self):
        k = spectral_index_from_support(SpectralSupport((), 5.0), 8)
        assert k.k == ()

    def test_band_ending_at_fmax_clamped(self):
        F = SpectralSupport(((3.0, 5.0),), 5.0)
        k = spectral_index_from_support(F, 5)
        assert k.k == (3, 4)

    def test_upper_edge_on_boundary_not_overcovered(self):
        # [1,2) with 5 unit cells touches only cell 1
        F = SpectralSupport(((1.0, 2.0),), 5.0)
        assert spectral_index_from_support(F, 5).k == (1,)

    def test_monotone_in_band_growth(self):
        small = SpectralSupport(((1.1, 1.9),), 8.0)
        large = SpectralSupport(((0.9, 2.3),), 8.0)
        ks = spectral_index_from_support(small, 16).k
        kl = spectral_index_from_support(large, 16).k
        assert set(ks) <= set(kl)

    def test_doubling_L_preserves_coverage(self, three_band_spec):
        F = three_band_spec.support()
        for L1 in (8, 16, 32):
            k1 = spectral_index_from_support(F, L1)
            k2 = spectral_index_from_support(F, 2 * L1)
            cover1 = {(c * F.f_max / L1, (c + 1) * F.f_max / L1) for c in k1.k}
            # every fine cell lies inside some coarse covered cell
            for c in k2.k:
                lo = c * F.f_max / (2 * L1)
                hi = (c + 1) * F.f_max / (2 * L1)
                assert any(a - 1e-12 <= lo and hi <= b + 1e-12 for a, b in cover1)


class TestDesignFilter:
    def test_ripples_and_dc_gain(self):
        filt = design_filter(32, 383)
        hr = filt.taps * np.exp(-1j * np.pi * np.arange(383) / 32)
        assert abs(np.sum(hr.real) - 1.0) <= 0.02
        assert filt.achieved_passband_ripple <= 0.02 * 1.1
        assert filt.achieved_stopband_ripple <= 0.008 * 1.1
        assert filt.meets_spec

    def test_passband_center_at_half_cutoff(self):
        filt = design_filter(16, 255)
        w = np.array([0.0, 1.0 / 32, 1.0 / 16])  # lower edge, center, upper edge
        _, H = sps.freqz(filt.taps, worN=w * 2 * np.pi)
        assert abs(H[1]) == pytest.approx(1.0, abs=0.03)
        assert abs(H[0]) == pytest.approx(0.5, abs=0.1)
        assert abs(H[2]) == pytest.approx(0.5, abs=0.1)

    def test_inside_transition_is_dead_at_edges(self):
        filt = design_filter(16, 513, stopband_ripple=1e-3, transition="inside")
        w = np.array([0.0, 1.0 / 32, 1.0 / 16])
        _, H = sps.freqz(filt.taps, worN=w * 2 * np.pi)
        assert abs(H[1]) == pytest.approx(1.0, abs=0.03)
        assert abs(H[0]) <= 2e-3
        assert abs(H[2]) <= 2e-3

    def test_unachievable_target_flags_best_effort(self):
        filt = design_filter(8, 9, passband_ripple=1e-4, stopband_ripple=1e-4)
        assert not filt.meets_spec

    def test_too_few_taps_rejected(self):
        with pytest.raises(ValueError):
            design_filter(8, 2)


def scipy_design(L, N_h, passband_ripple, stopband_ripple, transition):
    """design_filter as built on scipy.signal (kaiser_beta, firwin, freqz):
    taps, band edges, achieved ripples and meets_spec."""
    atten = -20.0 * math.log10(min(passband_ripple, stopband_ripple))
    beta = sps.kaiser_beta(atten)
    d_omega = max((atten - 7.95) / (2.285 * (N_h - 1)), 1e-9)
    cutoff = 1.0 / (2 * L)
    limit = 0.95 * cutoff if transition == "inside" else 1.9 * cutoff
    trans = min(d_omega / (2.0 * np.pi), limit)
    shift = trans / 2.0 if transition == "inside" else 0.0
    hr = sps.firwin(N_h, cutoff - shift, window=("kaiser", beta), fs=1.0)
    pass_edge = cutoff - shift - trans / 2.0
    stop_edge = cutoff - shift + trans / 2.0
    w, H = sps.freqz(hr, worN=8192, fs=1.0)
    mag = np.abs(H)
    in_pass, in_stop = w <= pass_edge, w >= stop_edge
    a_pass = float(np.max(np.abs(mag[in_pass] - 1.0))) if in_pass.any() else 0.0
    a_stop = float(np.max(mag[in_stop])) if in_stop.any() else 0.0
    meets = a_pass <= passband_ripple * 1.10 and a_stop <= stopband_ripple * 1.10
    taps = hr * np.exp(1j * np.pi * np.arange(N_h) / L)
    return taps, pass_edge, stop_edge, a_pass, a_stop, meets


class TestDesignFilterMatchesScipy:
    """The numpy design reproduces the scipy.signal one it replaced."""

    # 80, 42 and 20 dB: one ripple pair per branch of Kaiser's beta rule.
    # N_h above 16384 takes the folded grid; freqz switched to polyval there.
    @pytest.mark.parametrize("transition", ["straddle", "inside"])
    @pytest.mark.parametrize("ripples", [(1e-4, 1e-4), (0.02, 0.008), (0.1, 0.1)])
    def test_matches_old_design(self, ripples, transition):
        for L in (16, 20, 32, 200):
            for N_h in (3, 4, 7, 13, 63, 383, 499, 1761, 6401, 16385, 20001):
                filt = design_filter(L, N_h, *ripples, transition=transition)
                taps, pass_edge, stop_edge, a_pass, a_stop, meets = scipy_design(
                    L, N_h, *ripples, transition
                )
                case = (L, N_h)
                np.testing.assert_allclose(filt.taps, taps, rtol=1e-12, atol=0, err_msg=str(case))
                assert (filt.passband_edge, filt.stopband_edge) == (pass_edge, stop_edge), case
                assert filt.meets_spec == meets, case
                # a ripple is a deviation of |H| from gain 1 or 0, so roundoff
                # is on the scale of the unit gain; past 16384 taps freqz's
                # polyval is off the exact response by about 4e-13
                assert filt.achieved_passband_ripple == pytest.approx(a_pass, abs=1e-12), case
                assert filt.achieved_stopband_ripple == pytest.approx(a_stop, abs=1e-12), case

    @pytest.mark.parametrize("atten", [20.9, 21.1, 30.0, 49.9, 50.1, 70.0])
    def test_beta_rule_near_its_thresholds(self, atten):
        delta = 10 ** (-atten / 20)
        for transition in ("straddle", "inside"):
            taps = scipy_design(16, 63, delta, delta, transition)[0]
            filt = design_filter(16, 63, delta, delta, transition=transition)
            np.testing.assert_allclose(filt.taps, taps, rtol=1e-12, atol=0)

    def test_import_leaves_scipy_unloaded(self):
        code = (
            "import sys, subnyq, subnyq.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        path = [str(Path(subnyq.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == "[]"


class TestPseudoInverse:
    def test_square_inverse(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert np.allclose(A @ pseudo_inverse(A), np.eye(6), atol=1e-10)

    def test_tall_left_inverse(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        assert np.allclose(pseudo_inverse(A) @ A, np.eye(3), atol=1e-10)

    def test_rank_one_ones(self):
        A = np.ones((2, 2))
        assert np.allclose(pseudo_inverse(A), np.full((2, 2), 0.25))

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = int(rng.integers(1, 65))
            n = int(rng.integers(1, 65))
            A = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            P = pseudo_inverse(A)
            s = np.linalg.norm(A)
            assert np.linalg.norm(A @ P @ A - A) <= 1e-9 * s
            assert np.linalg.norm(P @ A @ P - P) <= 1e-9 * np.linalg.norm(P)
            assert np.linalg.norm((A @ P) - (A @ P).conj().T) <= 1e-9
            assert np.linalg.norm((P @ A) - (P @ A).conj().T) <= 1e-9


class TestReconstructTime:
    def test_noiseless_quality(self, clean_signal, cells, sfs_pattern, narrow_filter):
        streams = coset_decompose(clean_signal, sfs_pattern)
        rep = reconstruct_time(streams, cells, narrow_filter, reference=clean_signal)
        assert rep.rmse <= 0.03
        assert np.isfinite(rep.cond)

    def test_quantizer_sensitivity_scales_with_cond(
        self, clean_signal, cells, sfs_pattern, narrow_filter
    ):
        noisy = apply_noise(clean_signal, NoiseModel.quantizer(8, 1.2))
        rep_good = reconstruct_time(
            coset_decompose(noisy, sfs_pattern), cells, narrow_filter, reference=clean_signal
        )
        bunch = SamplingPattern(L, tuple(range(1, 13)), T)
        rep_bad = reconstruct_time(
            coset_decompose(noisy, bunch), cells, narrow_filter, reference=clean_signal
        )
        assert rep_good.rmse <= 0.05
        assert rep_bad.cond == pytest.approx(128.0, rel=0.02)
        assert rep_bad.rmse >= 5.0 * rep_good.rmse

    def test_zero_input_zero_output(self, cells, sfs_pattern, narrow_filter):
        from subnyq import TimeSeries

        zero = TimeSeries(np.zeros(M, dtype=complex), T)
        rep = reconstruct_time(
            coset_decompose(zero, sfs_pattern), cells, narrow_filter, reference=zero
        )
        assert np.allclose(rep.x_rec.samples, 0.0)
        assert rep.rmse == 0.0

    def test_linearity(self, three_band_spec, cells, sfs_pattern, narrow_filter):
        from subnyq import MultibandSignalSpec

        spec_a = MultibandSignalSpec(three_band_spec.bands[:1], FMAX)
        spec_b = MultibandSignalSpec(three_band_spec.bands[1:], FMAX)
        xa = synthesize(spec_a, T, M)
        xb = synthesize(spec_b, T, M)
        ra = reconstruct_time(coset_decompose(xa, sfs_pattern), cells, narrow_filter)
        rb = reconstruct_time(coset_decompose(xb, sfs_pattern), cells, narrow_filter)
        from subnyq import TimeSeries

        xs = TimeSeries(xa.samples + xb.samples, T)
        rs = reconstruct_time(coset_decompose(xs, sfs_pattern), cells, narrow_filter)
        assert np.allclose(
            rs.x_rec.samples, ra.x_rec.samples + rb.x_rec.samples, atol=1e-10
        )

    def test_rank_deficient_combination_rejected(self, narrow_filter):
        pat = SamplingPattern(16, (1, 5, 7, 11, 15), 1.0)
        k = SpectralIndexSet((3, 4, 5, 10, 11), 16)
        from subnyq import TimeSeries

        x = TimeSeries(np.ones(160, dtype=complex), 1.0)
        streams = coset_decompose(x, pat)
        with pytest.raises(IllPosedError, match="rank deficient"):
            reconstruct_time(streams, k, design_filter(16, 129))
        with pytest.raises(IllPosedError, match="rank deficient"):
            reconstruct_frequency(streams, k)

    def test_too_many_cells_rejected(self, narrow_filter):
        from subnyq import TimeSeries

        pat = SamplingPattern(8, (0, 3), 1.0)
        x = TimeSeries(np.ones(64, dtype=complex), 1.0)
        streams, k = coset_decompose(x, pat), SpectralIndexSet((0, 1, 2), 8)
        with pytest.raises(IllPosedError, match="exceed p=2"):
            reconstruct_time(streams, k, design_filter(8, 65))
        with pytest.raises(IllPosedError, match="exceed p=2"):
            reconstruct_frequency(streams, k)

    def test_filter_for_another_L_rejected(self, clean_signal, cells, sfs_pattern):
        streams = coset_decompose(clean_signal, sfs_pattern)
        with pytest.raises(ValueError, match="filter L"):
            reconstruct_time(streams, cells, design_filter(16, 129))
        with pytest.raises(ValueError, match="filter L"):
            filter_streams(streams, design_filter(16, 129))

    @pytest.mark.parametrize("n", [40, 8])
    def test_capture_without_transient_free_sample(self, n):
        from subnyq import TimeSeries

        rng = np.random.default_rng(n)
        pat = SamplingPattern(8, (0, 1, 3, 5), 1.0)
        x = TimeSeries(rng.standard_normal(n) + 1j * rng.standard_normal(n), 1.0)
        unrelated = TimeSeries(rng.standard_normal(n) + 0j, 1.0)
        streams, k = coset_decompose(x, pat), SpectralIndexSet((1, 2), 8)
        filt = design_filter(8, 63)
        with pytest.raises(ValueError, match=rf"{n} samples .* 2\*group_delay = 62"):
            reconstruct_time(streams, k, filt, reference=unrelated)
        rep = reconstruct_time(streams, k, filt)
        assert rep.x_rec.samples.shape == (n,)
        assert rep.valid == (31, 31)
        assert rep.rmse == 0.0

    @pytest.mark.parametrize("n_taps, valid", [(13, (6, 995)), (63, (31, 970))])
    def test_reference_on_a_capture_not_a_multiple_of_L(self, n_taps, valid):
        # 1001 samples pad to 1008; the window must end group_delay before
        # the last real sample, not before the zero pad
        from subnyq import TimeSeries

        x = TimeSeries(np.exp(2j * np.pi * 0.28 * np.arange(1001)), 1.0)
        streams = coset_decompose(x, SamplingPattern(16, (0, 3, 5, 9, 12), 1.0))
        k, filt = SpectralIndexSet((4,), 16), design_filter(16, n_taps)
        rep = reconstruct_time(streams, k, filt, reference=x)
        assert rep.valid == valid
        lo, hi = valid
        err = rep.x_rec.samples[lo:hi] - x.samples[lo:hi]
        assert rep.rmse == pytest.approx(np.linalg.norm(err) / np.linalg.norm(x.samples[lo:hi]))
        assert reconstruct_time(streams, k, filt).valid == (lo, 1008 - lo)
        short = TimeSeries(x.samples[:992], 1.0)
        with pytest.raises(ValueError, match="more than L - 1 short"):
            reconstruct_time(streams, k, filt, reference=short)


class TestReconstructFrequency:
    def test_full_pattern_exact_slicing(self, clean_signal):
        pat = SamplingPattern(L, tuple(range(L)), T)
        streams = coset_decompose(clean_signal, pat)
        fr = reconstruct_frequency(streams, SpectralIndexSet(tuple(range(L)), L))
        X = np.fft.fft(clean_signal.samples)
        nb = M // L
        for row, cell in enumerate(fr.k.k):
            assert np.allclose(fr.cell_spectra[row], X[cell * nb : (cell + 1) * nb], atol=1e-8)

    def test_single_cell_matches_dft_slice(self):
        fmax = 8.0
        from subnyq import BandSpec, MultibandSignalSpec

        spec = MultibandSignalSpec((BandSpec(1.0, 0.8, 16.0, 4.5),), fmax)
        x = synthesize(spec, 1 / fmax, 256)
        k = spectral_index_from_support(spec.support(), 8)
        pat = sfs_pattern_search(8, 3, k, T=1 / fmax).pattern
        fr = reconstruct_frequency(coset_decompose(x, pat), k)
        X = np.fft.fft(x.samples)
        nb = 256 // 8
        for row, cell in enumerate(k.k):
            ref = X[cell * nb : (cell + 1) * nb]
            err = np.linalg.norm(fr.cell_spectra[row] - ref) / np.linalg.norm(ref)
            assert err < 0.05

    def test_against_time_domain(self, clean_signal, cells, sfs_pattern, narrow_filter):
        streams = coset_decompose(clean_signal, sfs_pattern)
        fr = reconstruct_frequency(streams, cells)
        rep = reconstruct_time(streams, cells, narrow_filter, reference=clean_signal)
        # compare recovered spectra on high-energy bins away from cell edges,
        # where the interpolation filter transition does not bite
        full_freq = fr.assemble_full_spectrum(M)
        full_time = np.fft.fft(rep.x_rec.samples)
        nb = M // L
        edge = max(int(np.ceil(narrow_filter.transition_width * M / 2)), 1)
        mask = np.zeros(M, dtype=bool)
        for cell in cells.k:
            mask[cell * nb + edge : (cell + 1) * nb - edge] = True
        mask &= np.abs(full_freq) > 0.05 * np.abs(full_freq).max()
        assert mask.sum() > 50
        rel = np.abs(full_time[mask] - full_freq[mask]) / np.abs(full_freq[mask])
        assert float(np.median(rel)) < 0.05


def padded_rows(streams):
    """The deleted zero-padded layout: p x length, nonzero only on each coset."""
    pat = streams.pattern
    padded = np.zeros((pat.p, streams.length), dtype=complex)
    for i, c in enumerate(pat.C):
        padded[i, c :: pat.L] = streams.samples[i]
    return padded


def padded_filter(streams, filt):
    """The deleted filtering path: full-rate fftconvolve of each padded row,
    then removal of the group delay and the center-tap phase."""
    n, d = streams.length, filt.group_delay
    phase = np.exp(-1j * np.pi * d / filt.L)
    return np.stack(
        [sps.fftconvolve(row, filt.taps)[d : d + n] * phase for row in padded_rows(streams)]
    )


def assert_rel_close(new, ref, rel=1e-12):
    assert new.shape == ref.shape
    assert np.abs(new - ref).max() <= rel * np.abs(ref).max()


class TestPolyphaseMatchesPaddedPath:
    # odd and even N_h, N_h < L (group delay below some offsets), a length
    # that is not a multiple of L, the full pattern p = L, and a 7-tap filter
    # on offsets where phase 15 reads only later ADC samples than its own
    # (C low) or phase 0 only earlier ones (C high)
    CASES = [
        (16, (0, 3, 5, 9, 12), 129, 4096),
        (16, (0, 3, 5, 9, 12), 128, 4001),
        (16, (1, 7, 10, 15), 15, 1000),
        (8, tuple(range(8)), 64, 1030),
        (16, (0, 5, 10), 7, 1000),
        (16, (4, 9, 14), 7, 1000),
    ]

    @pytest.fixture(
        params=CASES,
        ids=["odd", "even-ragged", "short-filter", "p-equals-L", "7-taps-C-low", "7-taps-C-high"],
    )
    def case(self, request):
        from subnyq import TimeSeries

        L, C, n_taps, n = request.param
        rng = np.random.default_rng(n_taps)
        tone = 3.0 * np.exp(2j * np.pi * 0.3 * np.arange(n))
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = TimeSeries(tone + noise, 1.0)
        return coset_decompose(x, SamplingPattern(L, C, 1.0)), n_taps

    def test_filter_streams(self, case):
        streams, n_taps = case
        L = streams.pattern.L
        for transition in ("straddle", "inside"):
            filt = design_filter(L, n_taps, transition=transition)
            ref = padded_filter(streams, filt)
            d, n = filt.group_delay, streams.length
            for start in range(L):
                assert_rel_close(filter_streams(streams, filt, start), ref[:, start::L])
            for start, stop in ((d, None), (d + 3 * L, None), (d, n - d)):
                assert_rel_close(
                    filter_streams(streams, filt, start, stop), ref[:, start:stop:L]
                )

    def test_estimate_support_eigenvalues(self, case):
        streams, _ = case
        L = streams.pattern.L
        # the detection filter's tap rule: 32L + 1, capped by the capture
        cap = max(4 * L + 1, streams.length // 4)
        n_taps = min(32 * L + 1, cap if cap % 2 else cap - 1)
        filt = design_filter(
            L, n_taps, passband_ripple=0.02, stopband_ripple=1e-3, transition="inside"
        )
        ref = padded_filter(streams, filt)
        lo, hi = filt.group_delay, streams.length - filt.group_delay
        ref_eigs = eigendecompose(sample_correlation(ref[:, lo:hi][:, ::L]))
        rep = estimate_support(streams)
        assert rep.snapshots == len(range(lo, hi, L))
        assert_rel_close(rep.eigs.values, ref_eigs.values)

    def test_reconstruct_frequency(self, case):
        streams, _ = case
        pat = streams.pattern
        k = SpectralIndexSet((2, 5) if pat.p < pat.L else tuple(range(pat.L)), pat.L)
        nb = streams.length // pat.L
        Y = np.fft.fft(padded_rows(streams), axis=1)[:, :nb]
        A = reduce_matrix(build_measurement_matrix(pat), k)
        ref = pseudo_inverse(A * pat.T) @ Y
        assert_rel_close(reconstruct_frequency(streams, k).cell_spectra, ref)


    def test_reconstruct_time(self, case):
        streams, n_taps = case
        pat = streams.pattern
        k = SpectralIndexSet((2, 5) if pat.p < pat.L else tuple(range(pat.L)), pat.L)
        for transition in ("straddle", "inside"):
            filt = design_filter(pat.L, n_taps, transition=transition)
            assert_synthesis_matches(streams, k, filt)

    def test_reconstruct_time_at_criterion_3_sizes(self, cells, sfs_pattern):
        from subnyq import TimeSeries

        rng = np.random.default_rng(32768)
        n = 32768
        x = TimeSeries(rng.standard_normal(n) + 1j * rng.standard_normal(n), T)
        assert_synthesis_matches(coset_decompose(x, sfs_pattern), cells, design_filter(L, 383))

    def test_reconstruct_time_on_a_capture_shorter_than_the_filter(self):
        from subnyq import TimeSeries

        rng = np.random.default_rng(60)
        x = TimeSeries(rng.standard_normal(60) + 1j * rng.standard_normal(60), 1.0)
        streams = coset_decompose(x, SamplingPattern(20, (0, 3, 7, 12), 1.0))
        assert_synthesis_matches(streams, SpectralIndexSet((2, 5), 20), design_filter(20, 499))


def padded_synthesis(streams, k, filt):
    """The deleted synthesis path: combine the interpolated streams through
    the pseudo-inverse (q x n), then re-modulate each cell with a q x n phase
    table whose exponent is reduced mod L in integers."""
    pat = streams.pattern
    W = pseudo_inverse(reduce_matrix(build_measurement_matrix(pat), k) * pat.T)
    combined = W @ padded_filter(streams, filt)
    n_idx = np.arange(streams.length)
    phase = np.exp(2j * np.pi * (np.outer(k.k, n_idx) % pat.L) / pat.L)
    return np.sum(combined * phase, axis=0)


def assert_synthesis_matches(streams, k, filt):
    rep = reconstruct_time(streams, k, filt)
    assert_rel_close(rep.x_rec.samples, padded_synthesis(streams, k, filt))
    d, n = filt.group_delay, streams.length
    assert rep.valid == (d, max(n - d, d))


class TestStacksAndSpec:
    def test_filter_streams_on_a_stack(self):
        rng = np.random.default_rng(21)
        pattern = SamplingPattern(16, (0, 3, 5, 9, 12), 1.0)
        samples = rng.standard_normal((3, 5, 40)) + 1j * rng.standard_normal((3, 5, 40))
        stack = CosetStreams(samples, pattern)
        filt = design_filter(16, 129, transition="inside")
        d = filt.group_delay
        for start, stop in ((0, None), (d, 640 - d), (5, 300)):
            out = filter_streams(stack, filt, start, stop)
            for t in range(3):
                one = filter_streams(CosetStreams(samples[t], pattern), filt, start, stop)
                assert np.array_equal(out[t], one)
        for start, stop in ((-1, None), (0, 641)):
            with pytest.raises(ValueError, match="start >= 0 and stop <= streams.length"):
                filter_streams(stack, filt, start, stop)

    def test_reconstruction_takes_one_capture(self, clean_signal, cells):
        streams = coset_decompose(clean_signal, sfs_pattern_search(L, 12, cells, T=T).pattern)
        stack = CosetStreams(streams.samples[np.newaxis], streams.pattern)
        with pytest.raises(ValueError, match="one capture"):
            reconstruct_time(stack, cells, design_filter(L, 383))
        with pytest.raises(ValueError, match="one capture"):
            reconstruct_frequency(stack, cells)

    def test_failing_filter_spec_reported(self, clean_signal, three_band_spec):
        short = design_filter(16, 15)
        assert not short.meets_spec
        k = spectral_index_from_support(three_band_spec.support(), 16)
        pattern = sfs_pattern_search(16, 10, k, T=T).pattern
        streams = coset_decompose(clean_signal, pattern)
        assert not reconstruct_time(streams, k, short, reference=clean_signal).filter_meets_spec
        long = design_filter(16, 383)
        assert reconstruct_time(streams, k, long, reference=clean_signal).filter_meets_spec


# each refusal of the reconstruction layer not reached above, with a word of its message
RECONSTRUCT_REFUSALS = {
    "no-cells": (lambda: spectral_index_from_support(SpectralSupport((), 1.0), 0), "L must be"),
    "transition": (lambda: design_filter(8, 9, transition="bogus"), "transition"),
    "empty-matrix": (lambda: pseudo_inverse(np.zeros((0, 2))), "empty"),
    "spectrum-length": (
        lambda: FrequencyReconstruction(
            np.zeros((1, 4), dtype=complex), SpectralIndexSet((1,), 8), 1.0
        ).assemble_full_spectrum(31),
        "n_bins",
    ),
}


@pytest.mark.parametrize("call, word", RECONSTRUCT_REFUSALS.values(), ids=RECONSTRUCT_REFUSALS.keys())
def test_reconstruct_refusals(call, word):
    with pytest.raises(ValueError, match=word):
        call()
