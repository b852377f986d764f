import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnyq import (
    MeasurementMatrix,
    SamplingPattern,
    SpectralIndexSet,
    TimeSeries,
    average_rate,
    blind_parameters,
    build_measurement_matrix,
    coset_decompose,
    reduce_matrix,
)


@st.composite
def random_patterns(draw):
    L = draw(st.integers(2, 24))
    p = draw(st.integers(1, L))
    C = tuple(sorted(draw(st.permutations(range(L)))[:p]))
    T = draw(st.floats(0.01, 10.0))
    return SamplingPattern(L, C, T)


class TestSamplingPattern:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingPattern(8, (1, 1, 3))  # repeated offset
        with pytest.raises(ValueError):
            SamplingPattern(8, (3, 1))  # not increasing
        with pytest.raises(ValueError):
            SamplingPattern(8, (0, 8))  # out of range
        with pytest.raises(ValueError):
            SamplingPattern(8, ())

    def test_dict_roundtrip(self):
        pat = SamplingPattern(20, (0, 4, 7, 12, 16), 0.25)
        assert SamplingPattern.from_dict(pat.to_dict()) == pat


def base_indices(cs):
    """Base-grid index of every entry of cs.samples, same shape."""
    m = np.arange(cs.samples.shape[1])
    return m[None, :] * cs.pattern.L + np.asarray(cs.pattern.C)[:, None]


class TestCosetDecompose:
    def test_first_blocks_pattern_a(self):
        pat = SamplingPattern(20, (0, 4, 7, 12, 16), 1.0)
        x = TimeSeries(np.arange(1, 41, dtype=complex), 1.0)
        cs = coset_decompose(x, pat)
        kept = np.sort(cs.samples.real.astype(int).ravel()) - 1
        assert list(kept[:5]) == [0, 4, 7, 12, 16]
        assert list(kept[5:10]) == [20, 24, 27, 32, 36]

    def test_first_blocks_pattern_b(self):
        pat = SamplingPattern(20, (2, 6, 11, 15, 18), 1.0)
        x = TimeSeries(np.arange(1, 41, dtype=complex), 1.0)
        cs = coset_decompose(x, pat)
        kept = np.sort(cs.samples.real.astype(int).ravel()) - 1
        assert list(kept[:5]) == [2, 6, 11, 15, 18]
        assert list(kept[5:10]) == [22, 26, 31, 35, 38]

    def test_streams_live_on_their_coset(self):
        pat = SamplingPattern(6, (1, 4), 1.0)
        x = TimeSeries(np.arange(18, dtype=complex), 1.0)
        cs = coset_decompose(x, pat)
        assert cs.samples.shape == (2, 3)
        assert np.array_equal(cs.samples.real, base_indices(cs))

    def test_full_pattern_partitions(self):
        rng = np.random.default_rng(0)
        x = TimeSeries(rng.standard_normal(32) + 1j * rng.standard_normal(32), 1.0)
        pat = SamplingPattern(8, tuple(range(8)), 1.0)
        cs = coset_decompose(x, pat)
        rebuilt = np.zeros(cs.length, dtype=complex)
        rebuilt[base_indices(cs)] = cs.samples
        assert np.array_equal(rebuilt, x.samples)

    def test_pads_to_multiple_of_L(self):
        pat = SamplingPattern(5, (0, 3), 1.0)
        x = TimeSeries(np.arange(1, 8, dtype=complex), 1.0)
        cs = coset_decompose(x, pat)
        assert cs.length == 10
        assert cs.samples.tolist() == [[1, 6], [4, 0]]

    def test_matches_the_zero_padded_capture(self):
        # stream i holds the capture, zero-padded to whole blocks, at m*L + c_i
        rng = np.random.default_rng(3)
        for _ in range(60):
            L = int(rng.integers(1, 40))
            n = int(rng.integers(1, 5 * L + 3))
            C = tuple(sorted(rng.choice(L, int(rng.integers(1, L + 1)), replace=False).tolist()))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            padded = np.zeros(-(-n // L) * L, dtype=complex)
            padded[:n] = x
            cs = coset_decompose(TimeSeries(x, 1.0), SamplingPattern(L, C, 1.0))
            assert np.array_equal(cs.samples, padded.reshape(-1, L).T[list(C)]), (L, n, C)

    def test_compact_view(self):
        pat = SamplingPattern(4, (1, 2), 1.0)
        x = TimeSeries(np.arange(8, dtype=complex), 1.0)
        cs = coset_decompose(x, pat)
        assert cs.samples.shape == (2, 2)
        assert list(cs.samples[0]) == [1, 5]
        assert list(cs.samples[1]) == [2, 6]

    def test_period_mismatch_rejected(self):
        pat = SamplingPattern(4, (0, 1), 1.0)
        with pytest.raises(ValueError):
            coset_decompose(TimeSeries(np.ones(8, dtype=complex), 0.5), pat)

    def test_shape_checked(self):
        from subnyq import CosetStreams

        with pytest.raises(ValueError, match="p, length/L"):
            CosetStreams(np.ones((2, 8), dtype=complex), SamplingPattern(4, (1,), 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(-np.inf, 0.0)])
    def test_non_finite_rejected(self, bad):
        from subnyq import CosetStreams

        samples = np.ones((2, 5), dtype=complex)
        samples[1, 3] = bad
        with pytest.raises(ValueError, match="stream 1 .* m=3"):
            CosetStreams(samples, SamplingPattern(4, (0, 2), 1.0))

    def test_stack_of_captures(self):
        from subnyq import CosetStreams
        from subnyq.sampling import streams_to_csv

        pat = SamplingPattern(4, (0, 2), 1.0)
        samples = np.ones((3, 2, 5), dtype=complex)
        cs = CosetStreams(samples, pat)
        assert cs.length == 20
        with pytest.raises(ValueError, match="one capture"):
            streams_to_csv(cs)
        samples[2, 1, 3] = np.nan
        with pytest.raises(ValueError, match=r"stream 1 of capture \(2,\) .* m=3"):
            CosetStreams(samples, pat)

    def test_csv_roundtrip(self):
        from subnyq.sampling import streams_from_csv, streams_to_csv

        pat = SamplingPattern(5, (0, 3), 1.0)
        rng = np.random.default_rng(4)
        x = TimeSeries(rng.standard_normal(15) + 1j * rng.standard_normal(15), 1.0)
        cs = coset_decompose(x, pat)
        text = streams_to_csv(cs, header_comment="roundtrip")
        lines = text.splitlines()
        assert lines[1] == "m,s0_re,s0_im,s1_re,s1_im"
        assert len(lines) == 2 + 3  # one row per ADC sample
        back = streams_from_csv(text, pat)
        assert np.array_equal(back.samples, cs.samples)

    @pytest.mark.parametrize(
        "index, row", [((0, 1, 3), 2), ((7, 3, 9, 1), 1), ((0, 0, 1), 1)]
    )
    def test_csv_index_gaps_and_reordering_rejected(self, index, row):
        from subnyq.sampling import streams_from_csv

        text = "m,s0_re,s0_im\n" + "".join(f"{m},1.0,0.0\n" for m in index)
        with pytest.raises(ValueError, match=f"row {row} "):
            streams_from_csv(text, SamplingPattern(4, (1,), 1.0))

    @pytest.mark.parametrize(
        "body, row, fields",
        [("0,1,0,2,0\n1,1,0,2\n", 1, 4), ("0,1,0,2,0\n1,1,0,2,0,3\n", 1, 6), ("0,1,0\n", 0, 3)],
    )
    def test_csv_field_count_checked_on_every_row(self, body, row, fields):
        from subnyq.sampling import streams_from_csv

        with pytest.raises(ValueError, match=f"row {row} has {fields} fields, expected 5"):
            streams_from_csv("m,s0_re,s0_im,s1_re,s1_im\n" + body, SamplingPattern(4, (0, 2), 1.0))


class TestMeasurementMatrix:
    def test_single_zero_offset_row(self):
        A = build_measurement_matrix(SamplingPattern(2, (0,), 1.0))
        assert np.allclose(A.entries, [[0.5, 0.5]])

    def test_second_row_quarter_turns(self):
        A = build_measurement_matrix(SamplingPattern(4, (0, 1), 1.0))
        assert np.allclose(A.entries[1], np.array([1, 1j, -1, -1j]) / 4.0)

    @settings(max_examples=40, deadline=None)
    @given(random_patterns())
    def test_unit_modulus_and_row_orthogonality(self, pat):
        A = build_measurement_matrix(pat).entries
        LT = pat.L * pat.T
        assert np.allclose(np.abs(A), 1.0 / LT)
        gram = (LT**2) * (A @ A.conj().T)
        assert np.allclose(gram, pat.L * np.eye(pat.p), atol=1e-9 * pat.L)

    def test_phases_reduced_mod_L(self):
        # offsets and cells near L = 10**5, so c*l reaches 10**10: every
        # phase stays within a few eps of the exact one, and products equal
        # mod L give bit-equal phases
        from subnyq.sampling import _unit_phases

        L = 10**5
        C = (L - 7, L - 3, L - 1)
        A = build_measurement_matrix(SamplingPattern(L, C, 1.0)).entries * L
        pi = np.longdouble("3.141592653589793238462643383279502884")
        angle = 2 * pi * (np.outer(C, np.arange(L)) % L).astype(np.longdouble) / L
        assert np.abs(A.real - np.cos(angle)).max() < 3e-15
        assert np.abs(A.imag - np.sin(angle)).max() < 3e-15
        same = _unit_phases(L, [3, L + 3], [L - 1, 2 * L - 1])
        assert np.array_equal(same, np.full((2, 2), _unit_phases(L, [L - 1], [3])[0, 0]))


class TestReduceMatrix:
    def test_identity_selection(self):
        A = build_measurement_matrix(SamplingPattern(6, (0, 2, 5), 1.0))
        k = SpectralIndexSet(tuple(range(6)), 6)
        assert np.array_equal(reduce_matrix(A, k), A.entries)

    def test_known_optimal_pattern_conditioning(self):
        # reference value for this support/pattern pair: 2.06
        from subnyq import condition_number

        A = build_measurement_matrix(SamplingPattern(16, (2, 3, 9, 10, 14), 1.0))
        k = SpectralIndexSet((3, 4, 5, 10, 11), 16)
        assert condition_number(reduce_matrix(A, k)) == pytest.approx(2.06, rel=0.01)

    def test_single_column(self):
        pat = SamplingPattern(8, (1, 3, 6), 0.5)
        A = build_measurement_matrix(pat)
        col = reduce_matrix(A, SpectralIndexSet((5,), 8))
        expect = np.exp(2j * np.pi * 5 * np.asarray(pat.C) / 8) / (8 * 0.5)
        assert np.allclose(col[:, 0], expect)

    def test_subset_composition(self):
        pat = SamplingPattern(12, (0, 2, 5, 7), 1.0)
        A = build_measurement_matrix(pat)
        k1 = SpectralIndexSet((1, 4, 6, 9), 12)
        direct = reduce_matrix(A, SpectralIndexSet((4, 9), 12))
        via = reduce_matrix(A, k1)[:, [1, 3]]
        assert np.array_equal(direct, via)

    def test_mismatched_L_rejected(self):
        A = build_measurement_matrix(SamplingPattern(8, (0, 1), 1.0))
        with pytest.raises(ValueError):
            reduce_matrix(A, SpectralIndexSet((1,), 9))

    def test_out_of_range_cell_rejected(self):
        with pytest.raises(ValueError):
            SpectralIndexSet((8,), 8)


class TestAverageRate:
    def test_three_eighths(self):
        pat = SamplingPattern(32, tuple(range(12)), 1 / 5)
        assert average_rate(pat, 5.0) == pytest.approx(1.875)

    def test_respects_landau_bound(self, three_band_spec):
        # p chosen >= q keeps the average rate above the occupied bandwidth
        from subnyq import lebesgue_measure, spectral_index_from_support

        F = three_band_spec.support()
        k = spectral_index_from_support(F, 32)
        pat = SamplingPattern(32, tuple(range(k.q + 1)), 1 / 5)
        assert average_rate(pat, 5.0) >= lebesgue_measure(F)

    def test_full_pattern_is_base_rate(self):
        pat = SamplingPattern(6, tuple(range(6)), 1.0)
        assert average_rate(pat, 7.0) == pytest.approx(7.0)

    def test_wideband_plan(self):
        pat = SamplingPattern(200, tuple(range(20)), 1 / 2e9)
        assert average_rate(pat, 2e9) == pytest.approx(2e8)


class TestBlindParameters:
    def test_wide_bands(self):
        bp = blind_parameters(3, 1.5, 20.0, 1)
        assert (bp.L, bp.p) == (13, 7)

    def test_narrow_bands(self):
        bp = blind_parameters(3, 0.9, 20.0, 1)
        assert (bp.L, bp.p) == (22, 7)

    def test_degenerate_capped(self):
        bp = blind_parameters(1, 5.0, 5.0, 1)
        assert (bp.L, bp.p) == (1, 1)  # capped at L

    def test_d_zero_uses_band_resolution(self):
        bp = blind_parameters(2, 1.0, 10.0, 0)
        assert (bp.L, bp.p) == (10, 3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            blind_parameters(0, 1.0, 10.0, 1)
        with pytest.raises(ValueError):
            blind_parameters(1, 20.0, 10.0, 1)


# each refusal of the sampling layer not reached above, with a word of its message
SAMPLING_REFUSALS = {
    "L-zero": (lambda: SamplingPattern(0, ()), "L must be"),
    "T-zero": (lambda: SamplingPattern(4, (0,), 0.0), "T must be positive"),
    "dict-p": (lambda: SamplingPattern.from_dict({"L": 4, "C": [0, 1], "p": 3}), "does not match"),
    "matrix-shape": (
        lambda: MeasurementMatrix(np.zeros((2, 4), dtype=complex), SamplingPattern(4, (0,))), "p x L"
    ),
    "negative-d": (lambda: blind_parameters(1, 1.0, 10.0, -1), "nonnegative"),
    # f_max/B overflows to inf; floor(inf) raised OverflowError
    "overflowing-ratio": (lambda: blind_parameters(1, 1e-300, 1e10, 1), "finite"),
    "infinite-f_max": (lambda: blind_parameters(1, 1.0, math.inf, 1), "finite"),
}


@pytest.mark.parametrize("call, word", SAMPLING_REFUSALS.values(), ids=SAMPLING_REFUSALS.keys())
def test_sampling_refusals(call, word):
    with pytest.raises(ValueError, match=word):
        call()
