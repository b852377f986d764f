import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnyq import (
    BandSpec,
    MultibandSignalSpec,
    NoiseModel,
    SpectralSupport,
    TimeSeries,
    apply_noise,
    bandlimited_noise,
    lebesgue_measure,
    nyquist_rate,
    occupancy,
    spectral_index_from_support,
    synthesize,
)
from subnyq.signals import timeseries_from_csv, timeseries_to_csv

from conftest import rasterized_alias_free

F12 = SpectralSupport(((0.5, 2.0), (4.0, 5.0), (8.0, 8.5)), 12.0)


def grid_nyquist_rate(F, step):
    """The first alias-free rate on the grid lambda, lambda + step, ...: a
    rate is alias-free when no shift of F by n*rate, 1 <= n <= ceil(f_max /
    rate), overlaps F (half-open bands); f_max when no grid point below it is."""

    def feasible(theta):
        for n in range(1, math.ceil(F.f_max / theta) + 1):
            for a, b in F.bands:
                for a2, b2 in F.bands:
                    if a + n * theta < b2 and a2 < b + n * theta:
                        return False
        return True

    theta = lebesgue_measure(F)
    while theta < F.f_max:
        if feasible(theta):
            return theta
        theta += step
    return F.f_max


def disjoint_supports(max_bands=4):
    """Strategy: random disjoint half-open bands inside [0, f_max]."""

    @st.composite
    def build(draw):
        f_max = draw(st.floats(1.0, 50.0))
        edges = sorted(
            draw(
                st.lists(
                    st.floats(0.0, 1.0), min_size=2, max_size=2 * max_bands, unique=True
                )
            )
        )
        bands = []
        for lo, hi in zip(edges[::2], edges[1::2]):
            if hi - lo > 1e-6:
                bands.append((lo * f_max, hi * f_max))
        return SpectralSupport(tuple(bands), f_max)

    return build()


class TestSupport:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralSupport(((2.0, 1.0),), 5.0)
        with pytest.raises(ValueError):
            SpectralSupport(((0.0, 6.0),), 5.0)
        with pytest.raises(ValueError):
            SpectralSupport(((0.0, 2.0), (1.0, 3.0)), 5.0)  # overlap
        assert SpectralSupport((), 5.0).bands == ()

    def test_bands_sorted(self):
        F = SpectralSupport(((4.0, 5.0), (0.5, 2.0)), 12.0)
        assert F.bands == ((0.5, 2.0), (4.0, 5.0))

    def test_spec_merges_overlapping_bands(self):
        # [1, 2) and [1.5, 3) overlap: one interval, whose cells are the union of theirs
        spec = MultibandSignalSpec((BandSpec(1.0, 1.0, 0.0, 1.5), BandSpec(1.0, 1.5, 0.0, 2.25)), 10.0)
        F = spec.support()
        assert F.bands == ((1.0, 3.0),)
        cells = [spectral_index_from_support(SpectralSupport((band,), 10.0), 20).k for band in [(1.0, 2.0), (1.5, 3.0)]]
        assert cells == [(2, 3), (3, 4, 5)]
        assert spectral_index_from_support(F, 20).k == (2, 3, 4, 5)


class TestLebesgueMeasure:
    def test_three_bands(self):
        assert lebesgue_measure(F12) == pytest.approx(3.0)

    def test_empty(self):
        assert lebesgue_measure(SpectralSupport((), 5.0)) == 0.0

    def test_narrow_bands(self):
        F = SpectralSupport(((0.7, 1.3), (2.45, 2.75), (3.8, 4.2)), 5.0)
        assert lebesgue_measure(F) == pytest.approx(1.3)

    @settings(max_examples=50, deadline=None)
    @given(disjoint_supports())
    def test_additive_and_order_invariant(self, F):
        total = sum(b - a for a, b in F.bands)
        assert lebesgue_measure(F) == pytest.approx(total)
        # permuting band order does not change the measure
        Fr = SpectralSupport(tuple(reversed(F.bands)), F.f_max)
        assert lebesgue_measure(Fr) == pytest.approx(lebesgue_measure(F))


class TestOccupancy:
    def test_quarter(self):
        assert occupancy(F12) == pytest.approx(0.25)

    def test_full_band(self):
        assert occupancy(SpectralSupport(((0.0, 7.0),), 7.0)) == pytest.approx(1.0)

    def test_narrow_bands(self):
        F = SpectralSupport(((0.7, 1.3), (2.45, 2.75), (3.8, 4.2)), 5.0)
        assert occupancy(F) == pytest.approx(0.26)

    def test_zero_fmax_rejected(self):
        with pytest.raises(ValueError):
            occupancy(SpectralSupport((), 0.0))

    @settings(max_examples=50, deadline=None)
    @given(disjoint_supports())
    def test_bounded(self, F):
        assert 0.0 <= occupancy(F) <= 1.0 + 1e-12


class TestNyquistRate:
    def test_single_baseband_interval(self):
        # shifted copies of [0,1) by multiples of 1 never overlap it
        F = SpectralSupport(((0.0, 1.0),), 4.0)
        assert nyquist_rate(F) == pytest.approx(1.0)

    def test_full_band(self):
        F = SpectralSupport(((0.0, 6.0),), 6.0)
        assert nyquist_rate(F) == pytest.approx(6.0)

    def test_three_band_smallest_feasible_point(self):
        # smallest alias-free rate for this support: blocking intervals end
        # at 4.5 (frozen from the rasterized oracle below)
        rate = nyquist_rate(F12)
        assert rate == pytest.approx(4.5, abs=1.1e-3)
        assert rate == 4.5  # (b_j - a_i)/n = (8.5 - 4.0)/1 exactly
        assert rasterized_alias_free(F12.bands, F12.f_max, rate)
        assert not rasterized_alias_free(F12.bands, F12.f_max, rate - 0.002)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nyquist_rate(SpectralSupport((), 5.0))

    @settings(max_examples=20, deadline=None)
    @given(disjoint_supports(max_bands=3))
    def test_bounds_and_feasibility(self, F):
        if not F.bands:
            return
        rate = nyquist_rate(F)
        lam = lebesgue_measure(F)
        assert lam - 1e-9 <= rate <= F.f_max + 1e-9
        assert rasterized_alias_free(F.bands, F.f_max, rate, n_cells=20000)

    @settings(max_examples=60, deadline=None)
    @given(disjoint_supports(max_bands=3))
    def test_never_above_a_fine_grid_scan(self, F):
        if not F.bands:
            return
        rate = nyquist_rate(F)
        assert rate <= grid_nyquist_rate(F, F.f_max / 1e4)
        assert rasterized_alias_free(F.bands, F.f_max, rate, n_cells=20000)


class TestSynthesize:
    def test_single_band_peak(self):
        spec = MultibandSignalSpec((BandSpec(1.0, 1.0, 0.0, 0.5),), 1.0)
        x = synthesize(spec, 1.0, 8)
        # sinc(0) * exp(0) scaled by the carrier phase at t=0
        assert x.samples[0] == pytest.approx(1.0 + 0.0j)

    def test_energy_confined_to_support(self, three_band_spec):
        x = synthesize(three_band_spec, 0.2, 1024)
        X = np.fft.fft(x.samples)
        freqs = np.arange(1024) / (1024 * 0.2)
        F = three_band_spec.support()
        guard = 0.05  # spectral smearing of the finite window
        in_band = np.zeros(1024, dtype=bool)
        for a, b in F.bands:
            in_band |= (freqs >= a - guard) & (freqs < b + guard)
        ratio = np.sum(np.abs(X[in_band]) ** 2) / np.sum(np.abs(X) ** 2)
        assert ratio > 0.99

    def test_symmetric_bands_symmetric_spectrum(self):
        f_max = 8.0
        spec = MultibandSignalSpec(
            (BandSpec(1.0, 0.5, 32.0, 2.0), BandSpec(1.0, 0.5, 32.0, 6.0)),
            f_max,
        )
        x = synthesize(spec, 1.0 / f_max, 512)
        mag = np.abs(np.fft.fft(x.samples))
        # reflection about f_max/2 maps bin b to bin (256 - b) mod 512
        refl = np.roll(mag[::-1], 257)
        strong = mag > mag.max() * 0.05
        assert np.allclose(mag[strong], refl[strong], rtol=1e-6)

    def test_linearity(self, three_band_spec):
        parts = [
            MultibandSignalSpec((b,), three_band_spec.f_max)
            for b in three_band_spec.bands
        ]
        total = synthesize(three_band_spec, 0.2, 256).samples
        summed = sum(synthesize(p, 0.2, 256).samples for p in parts)
        assert np.allclose(total, summed, atol=1e-12)

    def test_aliasing_rejected(self, three_band_spec):
        with pytest.raises(ValueError):
            synthesize(three_band_spec, 0.3, 64)


class TestApplyNoise:
    def test_none_identity(self, three_band_spec):
        x = synthesize(three_band_spec, 0.2, 128)
        y = apply_noise(x, NoiseModel.none(), seed=1)
        assert np.array_equal(y.samples, x.samples)

    def test_awgn_zero_sigma_identity(self, three_band_spec):
        x = synthesize(three_band_spec, 0.2, 128)
        y = apply_noise(x, NoiseModel.awgn(0.0), seed=1)
        assert np.array_equal(y.samples, x.samples)

    def test_awgn_power_and_reproducibility(self, three_band_spec):
        x = synthesize(three_band_spec, 0.2, 4096)
        y1 = apply_noise(x, NoiseModel.awgn(0.3), seed=7)
        y2 = apply_noise(x, NoiseModel.awgn(0.3), seed=7)
        y3 = apply_noise(x, NoiseModel.awgn(0.3), seed=8)
        assert np.array_equal(y1.samples, y2.samples)
        assert not np.array_equal(y1.samples, y3.samples)
        power = np.mean(np.abs(y1.samples - x.samples) ** 2)
        assert power == pytest.approx(0.09, rel=0.1)

    def test_quantizer_error_bound(self, three_band_spec):
        # 8-bit converter, 1.2 V full range: error at most full_scale / 2^9
        # per component for in-range samples
        x = synthesize(three_band_spec, 0.2, 1024)
        assert np.abs(x.samples.real).max() < 0.6
        assert np.abs(x.samples.imag).max() < 0.6
        y = apply_noise(x, NoiseModel.quantizer(8, 1.2), seed=0)
        bound = 1.2 * 2.0**-9 + 1e-12
        assert np.abs((y.samples - x.samples).real).max() <= bound
        assert np.abs((y.samples - x.samples).imag).max() <= bound

    def test_quantizer_saturates(self):
        x = TimeSeries(np.array([10.0 + 10.0j, -10.0 - 10.0j]), 1.0)
        y = apply_noise(x, NoiseModel.quantizer(4, 2.0), seed=0)
        assert np.abs(y.samples.real).max() <= 1.0
        assert np.abs(y.samples.imag).max() <= 1.0

    def test_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel.awgn(-1.0)
        with pytest.raises(ValueError):
            NoiseModel.quantizer(0, 1.0)
        with pytest.raises(ValueError):
            NoiseModel("bogus")


class TestBandlimitedNoise:
    def test_support_and_power(self):
        F = SpectralSupport(((2.0, 3.0), (7.0, 7.5)), 10.0)
        x = bandlimited_noise(F, 0.1, 4096, seed=3)
        X = np.fft.fft(x.samples)
        freqs = np.arange(4096) / (4096 * 0.1)
        outside = np.ones(4096, dtype=bool)
        for a, b in F.bands:
            outside &= ~((freqs >= a) & (freqs < b))
        assert np.abs(X[outside]).max() < 1e-9
        assert np.mean(np.abs(x.samples) ** 2) == pytest.approx(1.0, rel=0.15)


class TestSerialization:
    def test_spec_roundtrip(self, three_band_spec):
        d = three_band_spec.to_dict()
        assert set(d) == {"f_max", "bands"}
        assert set(d["bands"][0]) == {"a", "B", "t", "f"}
        back = MultibandSignalSpec.from_dict(d)
        assert back == three_band_spec

    def test_timeseries_csv_roundtrip(self):
        x = TimeSeries(np.array([1.5 - 2.0j, 0.25 + 0.125j]), 0.5)
        text = timeseries_to_csv(x, header_comment="test")
        lines = text.strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "n,re,im"
        assert lines[2].startswith("0,")
        back = timeseries_from_csv(text, T=0.5)
        assert np.array_equal(back.samples, x.samples)
        # the index may start anywhere, as for coset streams
        shifted = timeseries_from_csv("n,re,im\n3,1.5,-2.0\n4,0.25,0.125\n", T=0.5)
        assert np.array_equal(shifted.samples, x.samples)

    @pytest.mark.parametrize(
        "body, row",
        [("0,1.0,0.0\n5,2.0,0.0\n", 1), ("3,1.0,0.0\n4,2.0,0.0\n4,3.0,0.0\n", 2),
         ("7,1.0,0.0\n3,2.0,0.0\n", 1)],
    )
    def test_timeseries_csv_index_gaps_and_reordering_rejected(self, body, row):
        with pytest.raises(ValueError, match=f"row {row} "):
            timeseries_from_csv("n,re,im\n" + body, T=1.0)

    @pytest.mark.parametrize(
        "body, row, fields",
        [("0,1.0,0.0\n1,2.0\n", 1, 2), ("0,1.0,0.0,9.0\n", 0, 4), ("4,1.0,0.0\n5\n", 1, 1)],
    )
    def test_timeseries_csv_field_count_checked(self, body, row, fields):
        # a short row raised IndexError and extra columns were dropped
        with pytest.raises(ValueError, match=f"row {row} has {fields} fields, expected 3"):
            timeseries_from_csv("# comment\nn,re,im\n" + body, T=1.0)


class TestFiniteSamples:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_rejected(self, bad):
        samples = np.ones(16, dtype=complex)
        samples[9] = bad
        with pytest.raises(ValueError, match="index 9"):
            TimeSeries(samples, 1.0)


BAND_1_2 = SpectralSupport(((1.0, 2.0),), 5.0)

# each refusal of the signal layer not reached above, with a word of its message
SIGNAL_REFUSALS = {
    "negative-f_max": (lambda: SpectralSupport((), -1.0), "nonnegative"),
    "zero-width": (lambda: MultibandSignalSpec((BandSpec(1.0, 0.0, 0.0, 1.0),), 5.0), "width"),
    "band-outside": (lambda: MultibandSignalSpec((BandSpec(1.0, 1.0, 0.0, 4.9),), 5.0), "outside"),
    "T-zero": (lambda: TimeSeries(np.zeros(2), 0.0), "T must be positive"),
    "synthesize-M": (
        lambda: synthesize(MultibandSignalSpec((BandSpec(1.0, 1.0, 0.0, 1.5),), 5.0), 0.1, 0), "M must be"
    ),
    "noise-M": (lambda: bandlimited_noise(BAND_1_2, 0.2, 0, 0), "M must be"),
    "noise-T": (lambda: bandlimited_noise(BAND_1_2, 0.5, 8, 0), "aliasing"),
}


@pytest.mark.parametrize("call, word", SIGNAL_REFUSALS.values(), ids=SIGNAL_REFUSALS.keys())
def test_signal_refusals(call, word):
    with pytest.raises(ValueError, match=word):
        call()
