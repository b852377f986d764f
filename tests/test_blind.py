import itertools
import math
import re
import warnings

import numpy as np
import pytest

from subnyq import (
    CorrelationMatrix,
    CosetStreams,
    NoiseModel,
    SamplingPattern,
    SpectralIndexSet,
    TimeSeries,
    aic_order,
    apply_noise,
    build_measurement_matrix,
    coset_decompose,
    design_filter,
    eft_order,
    eigendecompose,
    estimate_support,
    estimate_support_batch,
    filter_streams,
    mdl_order,
    music_localize,
    nlls_localize,
    reduce_matrix,
    sample_correlation,
    synthesize,
)
from subnyq.blind import _independent_fraction
from subnyq.reconstruct import valid_range


def snapshot_instance(L, C, k, sig_scale, sigma2, M, seed, coherent=False):
    """Simulate y[n] = A z[n] + noise snapshots and their sample correlation."""
    rng = np.random.default_rng(seed)
    q, p = len(k), len(C)
    A = build_measurement_matrix(SamplingPattern(L, tuple(C), 1.0))
    Ak = reduce_matrix(A, SpectralIndexSet(tuple(k), L))
    if coherent:
        base = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.sqrt(2)
        Z = np.tile(base, (q, 1))
    else:
        Z = (rng.standard_normal((q, M)) + 1j * rng.standard_normal((q, M))) / np.sqrt(2)
    Y = Ak @ (sig_scale * Z)
    if sigma2 > 0:
        Y = Y + np.sqrt(sigma2 / 2) * (
            rng.standard_normal((p, M)) + 1j * rng.standard_normal((p, M))
        )
    return sample_correlation(Y), Ak, A


@pytest.fixture(scope="module")
def blind_scenario(wide_three_band_spec):
    """Coset data for the f_max=20 three-band signal at 30 dB SNR."""
    M = 8192
    x = synthesize(wide_three_band_spec, 1 / 20.0, M)
    power = float(np.mean(np.abs(x.samples) ** 2))
    noisy = apply_noise(x, NoiseModel.awgn(np.sqrt(power / 1000.0)), seed=42)
    pattern = SamplingPattern(22, (0, 5, 6, 8, 11, 16, 17), 1 / 20.0)
    return coset_decompose(noisy, pattern), x


class TestSampleCorrelation:
    def test_zero_streams(self):
        R = sample_correlation(np.zeros((3, 50), dtype=complex))
        assert np.allclose(R.R, 0.0)

    def test_coherent_streams_rank_one(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        R = sample_correlation(np.tile(s, (4, 1)))
        eigs = eigendecompose(R)
        power = float(np.mean(np.abs(s) ** 2))
        assert eigs.values[0] == pytest.approx(4 * power, rel=1e-9)
        assert np.all(np.abs(eigs.values[1:]) < 1e-9 * eigs.values[0])

    def test_trace_is_total_power(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((3, 400)) + 1j * rng.standard_normal((3, 400))
        R = sample_correlation(X)
        assert np.trace(R.R).real == pytest.approx(
            float(np.sum(np.mean(np.abs(X) ** 2, axis=1))), rel=1e-12
        )

    def test_hermitian_psd(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((5, 100)) + 1j * rng.standard_normal((5, 100))
        R = sample_correlation(X)
        assert np.allclose(R.R, R.R.conj().T)
        assert np.linalg.eigvalsh(R.R).min() >= -1e-10 * np.trace(R.R).real

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            sample_correlation(np.zeros((2, 0), dtype=complex))

    def test_full_rate_and_decimated_estimators_agree(self):
        # stationary snapshots: both estimators target the same matrix
        rng = np.random.default_rng(14)
        L, p, M = 8, 4, 64000
        mix = rng.standard_normal((p, 3)) + 1j * rng.standard_normal((p, 3))
        Z = (rng.standard_normal((3, M)) + 1j * rng.standard_normal((3, M))) / np.sqrt(2)
        X = mix @ Z + 0.1 * (rng.standard_normal((p, M)) + 1j * rng.standard_normal((p, M)))
        R_full = sample_correlation(X).R
        R_dec = sample_correlation(X[:, ::L]).R
        rel = np.linalg.norm(R_full - R_dec) / np.linalg.norm(R_full)
        assert rel < 0.15


class TestEigendecompose:
    def test_diagonal(self):
        R = CorrelationMatrix(np.diag([3.0, 2.0, 1.0]).astype(complex))
        eigs = eigendecompose(R)
        assert np.allclose(eigs.values, [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(eigs.vectors), np.eye(3))

    def test_isotropic(self):
        R = CorrelationMatrix(0.7 * np.eye(4, dtype=complex))
        eigs = eigendecompose(R)
        assert np.allclose(eigs.values, 0.7)
        assert np.allclose(eigs.vectors @ eigs.vectors.conj().T, np.eye(4), atol=1e-9)

    def test_signal_plus_noise_structure(self):
        # population matrix built directly: q eigenvalues above the noise
        # level, the rest exactly at it
        rng = np.random.default_rng(3)
        L, C, k = 16, (0, 2, 3, 7, 11, 13), (1, 5, 9)
        A = build_measurement_matrix(SamplingPattern(L, C, 1.0))
        Ak = reduce_matrix(A, SpectralIndexSet(k, L))
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Z = G @ G.conj().T + 3 * np.eye(3)
        sigma2 = 1e-3
        R = CorrelationMatrix(Ak @ Z @ Ak.conj().T + sigma2 * np.eye(6))
        vals = eigendecompose(R).values
        assert np.all(vals[:3] > sigma2 * 1.5)
        assert np.allclose(vals[3:], sigma2, rtol=1e-9)

    def test_sampled_structure_converges(self):
        Rhat, Ak, _ = snapshot_instance(
            16, (0, 2, 3, 7, 11, 13), (1, 5, 9), 1.0, 1e-3, 100000, seed=4
        )
        vals = eigendecompose(Rhat).values
        pop = np.linalg.eigvalsh(Ak @ Ak.conj().T * 1.0)[::-1][:3] + 1e-3
        assert np.allclose(vals[:3], pop, rtol=0.05)
        assert np.allclose(vals[3:], 1e-3, rtol=0.05)


class TestOrderSelection:
    def test_aic_mdl_recover_known_rank(self):
        Rhat, _, _ = snapshot_instance(
            20, (0, 3, 5, 9, 12, 16, 19), (2, 8, 14), 1.0, 1e-4, 50000, seed=5
        )
        eigs = eigendecompose(Rhat)
        assert aic_order(eigs, 50000, 7).q_hat == 3
        assert mdl_order(eigs, 50000, 7).q_hat == 3

    def test_pure_noise_selects_qmin(self):
        rng = np.random.default_rng(6)
        Y = (rng.standard_normal((6, 50000)) + 1j * rng.standard_normal((6, 50000))) / np.sqrt(2)
        eigs = eigendecompose(sample_correlation(Y))
        assert aic_order(eigs, 50000, 6).q_hat == 0
        assert mdl_order(eigs, 50000, 6).q_hat == 0
        assert aic_order(eigs, 50000, 6, q_min=1).q_hat == 1

    def test_criterion_values_exposed(self):
        Rhat, _, _ = snapshot_instance(8, (0, 1, 3, 6), (2,), 1.0, 1e-2, 5000, seed=7)
        eigs = eigendecompose(Rhat)
        est = mdl_order(eigs, 5000, 4, q_min=0, q_max=3)
        assert len(est.criterion_values) == 4
        assert est.method == "MDL"
        assert est.q_hat == int(np.argmin(est.criterion_values))

    def test_bounds_validation(self):
        eigs = np.array([3.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            aic_order(eigs, 100, 3, q_min=0, q_max=3)  # q_max must be < p

    def test_eft_pure_exponential_profile(self):
        vals = 2.0 * 0.5 ** np.arange(8)
        assert eft_order(vals, 100, 8).q_hat == 0

    def test_eft_break_detection(self):
        # 7 dominant eigenvalues over a 3-value exponential tail
        tail = 0.01 * np.array([1.3**2, 1.3, 1.0])
        vals = np.concatenate([np.linspace(5.0, 1.0, 7), tail])
        est = eft_order(vals, 100, 10)
        assert est.q_hat == 7
        assert est.criterion_values[1] <= 0.5  # tail accepted as noise
        assert est.criterion_values[2] > 0.5  # first break

    def test_eft_capped_by_qmax(self):
        vals = np.array([100.0, 50.0, 10.0, 1.0])
        est = eft_order(vals, 100, 4, q_max=2)
        assert est.q_hat <= 2

    @pytest.mark.parametrize("order", [aic_order, mdl_order, eft_order])
    @pytest.mark.parametrize(
        "p, q_max, match",
        [(9, None, "6 eigenvalues for p=9"), (3, None, "6 eigenvalues for p=3"),
         (6, -3, "q_max < p"), (6, 6, "q_max < p")],
    )
    def test_p_and_q_max_checked(self, order, p, q_max, match):
        # mdl_order(v, 1000, 9) returned 6 with RuntimeWarnings, p = 3 scored
        # a truncated spectrum, eft_order(v, 1000, 9) raised IndexError and
        # eft_order(v, 1000, 6, q_max=-3) returned -3
        vals = np.array([50.0, 40.0, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=match):
            order(vals, 1000, p, q_max=q_max)


class TestMusic:
    def test_noiseless_exact_recovery(self):
        L, C, k = 22, (0, 5, 6, 8, 11, 16, 17), (4, 5, 11, 16, 17)
        Rhat, _, A = snapshot_instance(L, C, k, 1.0, 0.0, 4000, seed=8)
        eigs = eigendecompose(Rhat)
        khat, pseudo = music_localize(eigs, A, 5)
        assert khat.k == k
        assert len(pseudo) == L

    def test_seven_cell_instance(self):
        L, C = 32, (0, 3, 8, 11, 15, 19, 22, 26, 29)
        k = (4, 5, 11, 12, 13, 24, 25)
        Rhat, _, A = snapshot_instance(L, C, k, 1.0, 1e-6, 20000, seed=9)
        eigs = eigendecompose(Rhat)
        khat, _ = music_localize(eigs, A, 7)
        assert khat.k == k

    def test_zero_sources(self):
        rng = np.random.default_rng(10)
        Y = rng.standard_normal((5, 1000)) + 1j * rng.standard_normal((5, 1000))
        eigs = eigendecompose(sample_correlation(Y))
        A = build_measurement_matrix(SamplingPattern(12, (0, 2, 5, 7, 9), 1.0))
        khat, pseudo = music_localize(eigs, A, 0)
        assert khat.k == ()
        assert np.all(np.isfinite(pseudo))

    def test_numerator_constant_over_cells(self):
        A = build_measurement_matrix(SamplingPattern(10, (0, 1, 4, 7), 0.5))
        num = np.sum(np.abs(A.entries) ** 2, axis=0)
        assert np.allclose(num, 4 / 5.0**2)

    def test_threshold_selection(self):
        L, C, k = 16, (0, 1, 3, 7, 12), (2, 9)
        Rhat, _, A = snapshot_instance(L, C, k, 1.0, 1e-4, 20000, seed=11)
        eigs = eigendecompose(Rhat)
        _, pseudo = music_localize(eigs, A, 2)
        khat, _ = music_localize(eigs, A, 2, threshold=10 * float(np.median(pseudo)))
        assert khat.k == k

    def test_qhat_must_be_below_p(self):
        A = build_measurement_matrix(SamplingPattern(8, (0, 1, 2), 1.0))
        eigs = eigendecompose(CorrelationMatrix(np.eye(3, dtype=complex)))
        with pytest.raises(ValueError):
            music_localize(eigs, A, 3)


class TestNlls:
    def test_noiseless_residual_drops_to_zero(self):
        L, k = 20, (1, 4, 8, 10, 13, 17)
        # consecutive offsets give a Vandermonde system, so every cell is
        # distinguishable and the greedy walks straight to the true support
        C = tuple(range(9))
        Rhat, _, A = snapshot_instance(L, C, k, 1.0, 0.0, 4000, seed=12)
        khat, trace = nlls_localize(Rhat, A, q_max=8, epsilon=1e-9 * np.trace(Rhat.R).real)
        assert khat.k == k  # stops at 6 cells
        assert len(trace) == 7
        assert np.all(np.diff(trace) <= 1e-9 * trace[0])
        assert trace[-1] <= 1e-6 * trace[0]

    def test_zero_correlation(self):
        R = CorrelationMatrix(np.zeros((4, 4), dtype=complex))
        A = build_measurement_matrix(SamplingPattern(8, (0, 1, 2, 5), 1.0))
        khat, trace = nlls_localize(R, A, q_max=3)
        assert khat.k == ()
        assert list(trace) == [0.0]

    def test_greedy_matches_exhaustive_small(self):
        L, p, q = 8, 5, 2
        for seed in range(20):
            rng = np.random.default_rng([300, seed])
            C = tuple(sorted(rng.choice(L, size=p, replace=False).tolist()))
            k = tuple(sorted(rng.choice(L, size=q, replace=False).tolist()))
            Rhat, _, A = snapshot_instance(L, C, k, 1.0, 0.0, 2000, seed=seed + 500)
            khat, trace = nlls_localize(Rhat, A, q_max=q)
            # independent oracle: least-squares residual via lstsq over all
            # two-cell supports
            Rhalf = np.linalg.cholesky(
                Rhat.R + 1e-12 * np.trace(Rhat.R).real * np.eye(p)
            )
            best_val, best_k = np.inf, None
            for cand in itertools.combinations(range(L), q):
                Ak = A.entries[:, list(cand)]
                _, res, _, _ = np.linalg.lstsq(Ak, Rhalf, rcond=None)
                val = float(np.sum(res)) if res.size else float(
                    np.linalg.norm(Rhalf - Ak @ np.linalg.lstsq(Ak, Rhalf, rcond=None)[0]) ** 2
                )
                if val < best_val:
                    best_val, best_k = val, cand
            assert khat.k == best_k, f"seed {seed}: greedy {khat.k} vs oracle {best_k}"
            assert np.all(np.diff(trace) <= 1e-9 * max(trace[0], 1e-30))

    def test_warns_when_p_too_small_for_coherent(self):
        L, C, k = 16, (0, 2, 5, 9, 11), (3, 8)
        Rhat, _, A = snapshot_instance(L, C, k, 1.0, 1e-3, 3000, seed=13, coherent=True)
        with pytest.warns(UserWarning, match="coherent") as record:
            nlls_localize(Rhat, A, q_max=4)
        assert [w.filename for w in record] == [__file__]  # the caller


def pinv_greedy(R, cols, q_max, epsilon=0.0):
    """Reference greedy: one pseudo-inverse per candidate and step."""
    L = cols.shape[1]
    residuals = [float(np.trace(R).real)]
    chosen = []
    if residuals[0] <= epsilon:
        return (), np.asarray(residuals)
    while len(chosen) < q_max:
        best_val, best_c = math.inf, -1
        for c in range(L):
            if c in chosen:
                continue
            Ak = cols[:, sorted(chosen + [c])]
            val = float(np.trace(R - Ak @ np.linalg.pinv(Ak) @ R).real)
            if val < best_val:
                best_val, best_c = val, c
        chosen = sorted(chosen + [best_c])
        residuals.append(best_val)
        if best_val <= epsilon:
            break
    return tuple(chosen), np.asarray(residuals)


def ls_residual(R, Ak):
    """Tr{(I - P) R} for P the projection onto the columns of Ak, by lstsq
    on a square root of R."""
    w, V = np.linalg.eigh(R)
    H = V * np.sqrt(np.maximum(w, 0.0))
    sol = np.linalg.lstsq(Ak, H, rcond=None)[0]
    return float(np.linalg.norm(H - Ak @ sol) ** 2)


def in_span(Ak, a):
    """a keeps at most 1e-10 of its energy outside the column span of Ak."""
    if Ak.shape[1] == 0:
        return False
    sol = np.linalg.lstsq(Ak, a, rcond=None)[0]
    return np.linalg.norm(a - Ak @ sol) ** 2 <= 1e-10 * np.linalg.norm(a) ** 2


def greedy_picks(Rhat, A, q_max):
    """The greedy's picks in order: the support grows by one cell per step."""
    order = []
    for s in range(1, q_max + 1):
        k, _ = nlls_localize(Rhat, A, s)
        order += [c for c in k.k if c not in order]
        if len(order) < s:
            break
    return order


@pytest.fixture(scope="module")
def random_greedy_cases():
    """500 random patterns, supports, noise levels and q_max (L <= 32, p <= 8)."""
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(500):
        L = int(rng.integers(4, 33))
        p = int(rng.integers(2, min(L, 8) + 1))
        C = tuple(sorted(rng.choice(L, size=p, replace=False).tolist()))
        A = build_measurement_matrix(SamplingPattern(L, C, 1.0))
        q = int(rng.integers(1, p + 1))
        Z = (rng.standard_normal((q, 200)) + 1j * rng.standard_normal((q, 200))) / np.sqrt(2)
        sigma = 10.0 ** rng.uniform(-3.0, 0.0) * np.linalg.norm(A.entries[:, 0])
        noise = rng.standard_normal((p, 200)) + 1j * rng.standard_normal((p, 200))
        Y = A.entries[:, rng.choice(L, size=q, replace=False)] @ Z + sigma * noise
        cases.append((sample_correlation(Y), A, int(rng.integers(1, p))))
    return cases


class TestGreedyProjectionUpdate:
    """The greedy keeps each column's residual after projecting out the chosen
    columns instead of taking a pseudo-inverse per candidate."""

    @pytest.fixture(autouse=True)
    def _quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # p < 2*q_max
            yield

    def test_column_in_span_is_never_picked(self):
        # the pseudo-inverse greedy returned (6, 10, 22, 26) here: its cutoff
        # kept the direction of a column lying in the span of the other three
        # (sigma_min / sigma_max = 1.3e-15)
        A = build_measurement_matrix(SamplingPattern(28, (1, 2, 7, 21, 22), 1.0))
        rng = np.random.default_rng(124)
        z = (rng.standard_normal(400) + 1j * rng.standard_normal(400)) / np.sqrt(2)
        Y = np.outer(A.entries[:, 26], z) + 0.1 * (
            rng.standard_normal((5, 400)) + 1j * rng.standard_normal((5, 400))
        )
        Rhat = sample_correlation(Y)
        k, trace = nlls_localize(Rhat, A, 4)
        assert 26 in k.k and k.q == 4
        sv = np.linalg.svd(A.entries[:, list(k.k)], compute_uv=False)
        assert sv[-1] > 1e-3 * sv[0]
        assert trace[-1] == pytest.approx(ls_residual(Rhat.R, A.entries[:, list(k.k)]), rel=1e-9)

    def test_each_step_is_the_best_least_squares_step(self, random_greedy_cases):
        for n, (Rhat, A, q_max) in enumerate(random_greedy_cases):
            tol = 1e-9 * np.trace(Rhat.R).real
            chosen = []
            for c in greedy_picks(Rhat, A, q_max):
                cols = A.entries[:, chosen]
                assert not in_span(cols, A.entries[:, c]), f"case {n}: {chosen} + {c}"
                best = min(
                    ls_residual(Rhat.R, A.entries[:, chosen + [d]])
                    for d in range(A.pattern.L)
                    if d not in chosen and not in_span(cols, A.entries[:, d])
                )
                chosen.append(c)
                assert ls_residual(Rhat.R, A.entries[:, chosen]) <= best + tol, f"case {n}"

    def test_same_supports_as_the_pseudo_inverse_greedy(self, random_greedy_cases):
        for n, (Rhat, A, q_max) in enumerate(random_greedy_cases):
            k, trace = nlls_localize(Rhat, A, q_max)
            ref_k, ref_trace = pinv_greedy(Rhat.R, A.entries, q_max)
            if k.k == ref_k:
                np.testing.assert_allclose(trace, ref_trace, rtol=0, atol=1e-9 * trace[0])
                continue
            ref = A.entries[:, list(ref_k)]
            sv = np.linalg.svd(ref, compute_uv=False)
            if sv[-1] <= 1e-10 * sv[0]:
                continue  # the reference picked a column in the span
            # a tie: parallel columns span the same subspace
            got = A.entries[:, list(k.k)]
            P = got @ np.linalg.pinv(got)
            assert np.abs(P - ref @ np.linalg.pinv(ref)).max() <= 1e-9, f"case {n}"

    def test_duplicate_columns_tie_to_the_smallest_index(self):
        # even offsets make cells k and k + 4 share one column
        A = build_measurement_matrix(SamplingPattern(8, (0, 2, 4, 6), 1.0))
        assert np.allclose(A.entries[:, 1], A.entries[:, 5])
        rng = np.random.default_rng(40)
        Y = np.outer(A.entries[:, 5], rng.standard_normal(300)) + 0.01 * (
            rng.standard_normal((4, 300)) + 1j * rng.standard_normal((4, 300))
        )
        k, trace = nlls_localize(sample_correlation(Y), A, 3)
        assert 1 in k.k  # the tone sits in cell 5
        assert all(c < 4 for c in k.k)  # of cells c and c + 4, always c
        assert np.all(np.isfinite(trace))

    def test_noiseless_stops_at_the_true_support(self):
        # the residual on the true support is roundoff (2.8e-16 relative);
        # the pseudo-inverse greedy went on to add cell 12
        Rhat, _, A = snapshot_instance(16, (0, 3, 7, 8, 9, 11), (5, 15), 1.0, 0.0, 500, seed=0)
        k, trace = nlls_localize(Rhat, A, q_max=5, epsilon=0.0)
        assert k.k == (5, 15)
        assert trace[-1] <= 6 * np.finfo(float).eps * trace[0]


class TestEstimateSupport:
    def test_blind_chain_music(self, blind_scenario):
        streams, _ = blind_scenario
        for order in ("aic", "mdl", "eft"):
            rep = estimate_support(streams, order_method=order, localize_method="music")
            assert rep.q_hat == 5, order
            assert rep.k_hat.k == (4, 5, 11, 16, 17), order
        assert rep.pseudo_spectrum is not None

    def test_blind_chain_nlls(self, blind_scenario):
        streams, _ = blind_scenario
        with pytest.warns(UserWarning, match="coherent") as record:
            rep = estimate_support(streams, order_method="mdl", localize_method="nlls")
        assert [w.filename for w in record] == [__file__]  # the caller, once
        assert rep.k_hat.k == (4, 5, 11, 16, 17)
        assert rep.ls_trace is not None
        assert np.all(np.diff(rep.ls_trace) <= 0)

    def test_coherence_warning_once_per_batch(self, blind_scenario):
        streams, _ = blind_scenario
        stack = CosetStreams(np.stack([streams.samples] * 3), streams.pattern)
        with pytest.warns(UserWarning, match="coherent") as record:
            estimate_support_batch(stack, localize_method="nlls")
        assert [w.filename for w in record] == [__file__]

    def test_reconstruction_from_blind_support(self, blind_scenario):
        from subnyq import design_filter, reconstruct_time

        streams, clean = blind_scenario
        rep = estimate_support(streams, order_method="mdl", localize_method="music")
        filt = design_filter(22, 1761)
        rec = reconstruct_time(streams, rep.k_hat, filt, reference=clean)
        assert rec.rmse <= 0.04


    def test_filter_spec_reported(self, blind_scenario):
        streams, _ = blind_scenario
        assert estimate_support(streams).filter_meets_spec
        # a 308-sample capture caps the filter at 89 taps, too few for an
        # in-cell transition with a 1e-3 stopband at L = 22
        short = CosetStreams(streams.samples[:, :14], streams.pattern)
        assert not estimate_support(short).filter_meets_spec


PATTERN16 = SamplingPattern(16, (0, 3, 5, 9, 12), 1.0)


class TestDegenerateOrder:
    """Noiseless and all-zero captures: eigenvalues at roundoff level."""

    @pytest.mark.parametrize("order", ["aic", "mdl", "eft"])
    def test_noiseless_tone_counts_one_cell(self, order):
        # tail eigenvalues are +-1e-18 roundoff; taken at face value they made
        # every criterion report three cells, (4, 8, 12)
        x = TimeSeries(np.exp(2j * np.pi * 0.3 * np.arange(4096)), 1.0)
        rep = estimate_support(coset_decompose(x, PATTERN16), order_method=order)
        assert rep.q_hat == 1
        assert rep.k_hat.k == (4,)

    @pytest.mark.parametrize("order", ["aic", "mdl", "eft"])
    def test_all_zero_input_counts_none(self, order):
        x = TimeSeries(np.zeros(4096, dtype=complex), 1.0)
        rep = estimate_support(coset_decompose(x, PATTERN16), order_method=order)
        assert rep.q_hat == 0
        assert rep.k_hat.k == ()

    @pytest.mark.parametrize("order", ["aic", "mdl", "eft"])
    def test_q_min_floors_every_order(self, order):
        # EFT counted 0 here whatever q_min was
        x = TimeSeries(np.zeros(4096, dtype=complex), 1.0)
        rep = estimate_support(coset_decompose(x, PATTERN16), order_method=order, q_min=2)
        assert rep.q_hat == 2

    @pytest.mark.parametrize("order", ["aic", "mdl", "eft"])
    def test_order_range_validated(self, order):
        x = TimeSeries(np.zeros(4096, dtype=complex), 1.0)
        streams = coset_decompose(x, PATTERN16)
        for q_min, q_max in ((3, 2), (-1, 2), (0, 5)):
            with pytest.raises(ValueError, match="q_min <= q_max < p"):
                estimate_support(streams, order_method=order, q_min=q_min, q_max=q_max)

    def test_one_coset_rejected(self):
        # with p = 1 every column is the same up to phase: q_hat was 0 for any input
        x = TimeSeries(np.exp(2j * np.pi * 0.3 * np.arange(4096)), 1.0)
        streams = coset_decompose(x, SamplingPattern(16, (3,), 1.0))
        with pytest.raises(ValueError, match="p >= 2"):
            estimate_support(streams)

    @pytest.mark.parametrize("M, snapshots", [(180, 5), (100, 1), (80, 0)])
    def test_fewer_snapshots_than_cosets_rejected(self, M, snapshots):
        # R then has rank below p by construction: with 180 samples (5
        # snapshots) and white noise 40 dB down, one tone at the edge of
        # cells 5 and 6 gave q_hat 5 and cells (0, 7, 11, 14, 18)
        x = TimeSeries(np.exp(2j * np.pi * 0.3 * np.arange(M)), 1.0)
        streams = coset_decompose(x, SamplingPattern(20, (0, 2, 9, 12, 15, 17), 1.0))
        stack = CosetStreams(streams.samples[np.newaxis], streams.pattern)
        with pytest.raises(ValueError, match=f"{snapshots} transient-free snapshots for p=6"):
            estimate_support_batch(stack)

    def test_roundoff_tail_on_eigenvalues(self):
        vals = np.array([2e-2, 1.75e-18, 5e-19, -9.6e-19, -1.7e-18])
        assert aic_order(vals, 240, 5).q_hat == 1
        assert mdl_order(vals, 240, 5).q_hat == 1
        assert eft_order(vals, 240, 5).q_hat == 1


def reference_chain(streams, order, localize, select):
    """The per-capture chain, stage by stage through the single-matrix API."""
    L, p = streams.pattern.L, streams.pattern.p
    cap = max(4 * L + 1, streams.length // 4)
    n_taps = min(32 * L + 1, cap if cap % 2 else cap - 1)
    filt = design_filter(L, n_taps, passband_ripple=0.02, stopband_ripple=1e-3, transition="inside")
    lo, hi = valid_range(streams.length, filt)
    M = len(range(lo, hi, L))
    Rhat = sample_correlation(filter_streams(streams, filt, lo, hi))
    eigs = eigendecompose(Rhat)
    M_ind = M * _independent_fraction(filt)
    est = {"aic": aic_order, "mdl": mdl_order, "eft": eft_order}[order](eigs, M_ind, p)
    A = build_measurement_matrix(streams.pattern)
    if localize == "nlls":
        k_hat, _ = nlls_localize(Rhat, A, max(est.q_hat, 1), epsilon=0.01 * np.trace(Rhat.R).real)
        return est.q_hat, k_hat, eigs, None
    k_hat, pseudo = music_localize(eigs, A, est.q_hat)
    if select == "threshold":
        finite = pseudo[np.isfinite(pseudo)]
        med = float(np.median(finite)) if finite.size else 0.0
        k_hat, _ = music_localize(eigs, A, est.q_hat, threshold=10.0 * med)
    return est.q_hat, k_hat, eigs, pseudo


def capture_stack(T, n, seed):
    """T full-rate captures with zero to two tones over unit noise (capture 3
    is all zero), decomposed one by one, and the same captures as a stack."""
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    singles = []
    for t in range(T):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for _ in range((t + 1) % 3):
            amp = 10.0 ** rng.uniform(-0.5, 1.5)
            x = x + amp * np.exp(2j * np.pi * (rng.uniform() * idx + rng.uniform()))
        if t == 3:
            x = np.zeros(n, dtype=complex)
        singles.append(coset_decompose(TimeSeries(x, 1.0), PATTERN16))
    return singles, CosetStreams(np.stack([s.samples for s in singles]), PATTERN16)


class TestBatchMatchesOneAtATime:
    @pytest.fixture(scope="class", params=[(6, 2048), (1, 2048), (5, 1001)],
                    ids=["stack", "stack-of-one", "n-not-multiple-of-L"])
    def captures(self, request):
        T, n = request.param
        return capture_stack(T, n, seed=T * n)

    @pytest.mark.parametrize("order", ["aic", "mdl", "eft"])
    @pytest.mark.parametrize(
        "localize,select", [("music", "top"), ("music", "threshold"), ("nlls", "top")]
    )
    def test_same_decisions_and_eigenvalues(self, captures, order, localize, select):
        singles, stack = captures
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # nlls: p < 2*q_max
            batch = estimate_support_batch(
                stack, order_method=order, localize_method=localize, select=select
            )
            assert len(batch) == len(singles)
            for rep, streams in zip(batch, singles):
                one = estimate_support(
                    streams, order_method=order, localize_method=localize, select=select
                )
                for other_q, other_k, other_eigs, other_pseudo in (
                    (one.q_hat, one.k_hat, one.eigs, one.pseudo_spectrum),
                    reference_chain(streams, order, localize, select),
                ):
                    assert rep.q_hat == other_q
                    assert rep.k_hat == other_k
                    scale = max(np.abs(other_eigs.values).max(), 1e-300)
                    assert np.abs(rep.eigs.values - other_eigs.values).max() <= 1e-12 * scale
                    if localize == "music":
                        np.testing.assert_allclose(rep.pseudo_spectrum, other_pseudo, rtol=1e-6)
                assert rep.snapshots == one.snapshots

    def test_shape_checked(self, captures):
        singles, stack = captures
        with pytest.raises(ValueError, match="one capture"):
            estimate_support(stack)
        with pytest.raises(ValueError, match="stack of captures"):
            estimate_support_batch(singles[0])


class TestCorrelatedSnapshots:
    """Snapshots one cell period apart carry correlated filtered noise."""

    def test_independent_fraction_matches_measured_noise(self):
        pattern = SamplingPattern(20, (0, 3, 10, 13), 1.0)
        rng = np.random.default_rng(31)
        noise = rng.standard_normal((400, 4, 100)) + 1j * rng.standard_normal((400, 4, 100))
        filt = design_filter(20, 499, passband_ripple=0.02, stopband_ripple=1e-3, transition="inside")
        d = filt.group_delay
        Y = filter_streams(CosetStreams(noise, pattern), filt, d, d + 76 * 20)
        power = np.mean(np.abs(Y) ** 2)
        rho2 = sum(
            abs(np.mean(Y[..., k:] * Y[..., :-k].conj()) / power) ** 2 for k in range(1, 25)
        )
        assert _independent_fraction(filt) == pytest.approx(1.0 / (1.0 + 2.0 * rho2), abs=0.01)
        assert _independent_fraction(filt) < 0.9

    def test_mdl_rarely_counts_a_second_cell(self):
        # one 30 dB tone per capture, p = 4 of L = 20, 76 snapshots: with the
        # nominal snapshot count MDL reported a second cell in 28-38 of 10000
        # captures (seeds 32-35), against 9-14 with the effective count and
        # about 10 on independent snapshots
        pattern = SamplingPattern(20, (0, 3, 10, 13), 1.0)
        rng = np.random.default_rng(32)
        T, m = 10000, 100
        cells = rng.integers(20, size=T)
        n = np.arange(m) * 20 + np.asarray(pattern.C)[:, np.newaxis]
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(T, 1, 1))
        tone = 31.6 * np.exp(1j * (2.0 * np.pi * (cells[:, None, None] + 0.5) / 20 * n + phase))
        noise = (rng.standard_normal((T, 4, m)) + 1j * rng.standard_normal((T, 4, m))) / np.sqrt(2)
        reports = estimate_support_batch(CosetStreams(tone + noise, pattern))
        assert sum(r.q_hat > 1 for r in reports) <= 20
        assert all(r.k_hat.k[:1] == (c,) or r.q_hat > 1 for r, c in zip(reports, cells))


PATTERN8 = SamplingPattern(8, (0, 1, 3, 6), 1.0)
ZERO_STREAMS = CosetStreams(np.zeros((4, 64), dtype=complex), PATTERN8)
A8 = build_measurement_matrix(PATTERN8)
EYE4 = CorrelationMatrix(np.eye(4, dtype=complex))

# each refusal of the blind layer, with a word its message must carry
BLIND_REFUSALS = {
    "R-not-hermitian": (lambda: CorrelationMatrix(np.array([[1.0, 1j], [1j, 1.0]])), "Hermitian"),
    "R-not-psd": (lambda: CorrelationMatrix(-np.eye(2, dtype=complex)), "semidefinite"),
    "R-not-square": (lambda: CorrelationMatrix(np.zeros((2, 3), dtype=complex)), "square"),
    "streams-not-2d": (lambda: sample_correlation(np.zeros(4, dtype=complex)), "(p, n)"),
    "eigenvalues-ascending": (lambda: aic_order(np.array([1.0, 2.0, 3.0]), 100, 3), "descending"),
    "negative-q-hat": (lambda: music_localize(eigendecompose(EYE4), A8, -1), "nonnegative"),
    "nlls-size-mismatch": (
        lambda: nlls_localize(CorrelationMatrix(np.eye(3, dtype=complex)), A8, 1), "does not match"
    ),
    "nlls-q-max-p": (lambda: nlls_localize(EYE4, A8, 4), "smaller than p"),
    "order-method": (lambda: estimate_support(ZERO_STREAMS, order_method="bogus"), "order_method"),
    "localize-method": (lambda: estimate_support(ZERO_STREAMS, localize_method="bogus"), "localize_method"),
    "select": (lambda: estimate_support(ZERO_STREAMS, select="bogus"), "select"),
}


@pytest.mark.parametrize("call, word", BLIND_REFUSALS.values(), ids=BLIND_REFUSALS.keys())
def test_blind_refusals(call, word):
    with pytest.raises(ValueError, match=re.escape(word)):
        call()
