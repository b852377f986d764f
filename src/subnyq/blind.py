"""Blind recovery of the active-cell set from coset data alone.

The interpolation-filtered coset streams obey a narrowband array model: each
active cell acts as a source whose steering vector is the matching column of
the measurement matrix.  Estimation therefore follows the classical subspace
route: sample correlation, eigendecomposition, model-order selection (AIC,
MDL, or an exponential-profile test), then localization by a MUSIC-like scan
or by greedy nonlinear least squares on the projected residual.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .reconstruct import design_filter, filter_streams, valid_range
from .sampling import CosetStreams, MeasurementMatrix, SpectralIndexSet, build_measurement_matrix

__all__ = [
    "CorrelationMatrix",
    "EigenSpectrum",
    "OrderEstimate",
    "BlindReport",
    "sample_correlation",
    "eigendecompose",
    "aic_order",
    "mdl_order",
    "eft_order",
    "music_localize",
    "nlls_localize",
    "estimate_support",
]

_EIG_FLOOR = 1e-300


@dataclass(frozen=True)
class CorrelationMatrix:
    """Hermitian PSD sample correlation of the filtered streams."""

    R: np.ndarray
    M: int

    def __post_init__(self):
        R = np.asarray(self.R, dtype=np.complex128)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError("R must be square")
        scale = float(np.abs(R).max()) or 1.0
        if np.abs(R - R.conj().T).max() > 1e-10 * scale:
            raise ValueError("R must be Hermitian")
        floor = -1e-10 * max(float(np.trace(R).real), 0.0) - 1e-300
        if float(np.linalg.eigvalsh(R)[0]) < floor:
            raise ValueError("R must be positive semidefinite up to roundoff")
        object.__setattr__(self, "R", R)

    @property
    def p(self) -> int:
        return self.R.shape[0]


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigenvalues sorted descending with their orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class OrderEstimate:
    q_hat: int
    criterion_values: np.ndarray
    method: str


def sample_correlation(filtered_streams: np.ndarray, M: int | None = None) -> CorrelationMatrix:
    """Average outer product of the stream snapshot vectors over M samples.

    Rows are streams, columns time.  Conjugation is placed so a snapshot model
    y[n] = A z[n] + noise yields R = A Z A^H + sigma^2 I, i.e. noise
    eigenvectors orthogonal to the steering columns.
    """
    X = np.asarray(filtered_streams, dtype=np.complex128)
    if X.ndim != 2:
        raise ValueError("filtered_streams must be a (p, n) array")
    n = X.shape[1]
    if M is None:
        M = n
    if M <= 0 or M > n:
        raise ValueError(f"need 1 <= M <= {n} samples, got {M}")
    Xm = X[:, :M]
    R = (Xm @ Xm.conj().T) / M
    R = (R + R.conj().T) / 2.0
    return CorrelationMatrix(R, M)


def eigendecompose(Rhat: CorrelationMatrix) -> EigenSpectrum:
    vals, vecs = np.linalg.eigh(Rhat.R)
    return EigenSpectrum(values=vals[::-1].copy(), vectors=vecs[:, ::-1].copy())


def _eigs_of(eigs) -> np.ndarray:
    vals = eigs.values if isinstance(eigs, EigenSpectrum) else np.asarray(eigs, dtype=float)
    if np.any(np.diff(vals) > 1e-9 * max(abs(vals[0]), 1e-30)):
        raise ValueError("eigenvalues must be sorted descending")
    return vals


def _itc_scores(vals: np.ndarray, M: int, p: int, q_min: int, q_max: int, mdl: bool) -> np.ndarray:
    if not 0 <= q_min <= q_max < p:
        raise ValueError("need 0 <= q_min <= q_max < p")
    vals = np.maximum(vals, max(vals[0], 0.0) * 1e-300 + _EIG_FLOOR)
    scores = np.empty(q_max - q_min + 1)
    for i, r in enumerate(range(q_min, q_max + 1)):
        tail = vals[r:p]
        log_g = float(np.mean(np.log(tail)))
        log_a = float(np.log(np.mean(tail)))
        data = -M * (p - r) * (log_g - log_a)  # >= 0 by AM-GM
        penalty = 0.5 * r * (2 * p - r) * math.log(M) if mdl else r * (2 * p - r)
        scores[i] = data + penalty
    return scores


def aic_order(eigs, M: int, p: int, q_min: int = 0, q_max: int | None = None) -> OrderEstimate:
    """Akaike-criterion order: argmin of the sphericity data term plus r(2p-r).

    The data term compares geometric and arithmetic means of the p-r smallest
    eigenvalues; a flat (noise-only) tail makes it vanish.
    """
    vals = _eigs_of(eigs)
    if q_max is None:
        q_max = p - 1
    scores = _itc_scores(vals, M, p, q_min, q_max, mdl=False)
    return OrderEstimate(q_min + int(np.argmin(scores)), scores, "AIC")


def mdl_order(eigs, M: int, p: int, q_min: int = 0, q_max: int | None = None) -> OrderEstimate:
    """Minimum-description-length order: penalty (1/2) r(2p-r) log M."""
    vals = _eigs_of(eigs)
    if q_max is None:
        q_max = p - 1
    scores = _itc_scores(vals, M, p, q_min, q_max, mdl=True)
    return OrderEstimate(q_min + int(np.argmin(scores)), scores, "MDL")


def eft_order(
    eigs,
    M: int,
    p: int,
    threshold: float = 0.5,
    q_max: int | None = None,
) -> OrderEstimate:
    """Exponential-profile test: count eigenvalues fitting the noise tail.

    The two smallest eigenvalues seed the noise profile; each next-larger one
    is predicted by extrapolating the geometric ratio of the values already
    accepted as noise, and the first eigenvalue exceeding its prediction by
    more than `threshold` (relative) marks the break.  The estimate is the
    number of eigenvalues above the break, so it is at most p - 2 by
    construction (a profile needs two points).  criterion_values holds the
    relative mismatches per tested position (the two seed positions stay 0).
    M is accepted for interface parity with the information criteria but the
    data-fitted extrapolation does not use it.
    """
    del M
    vals = _eigs_of(eigs)
    if q_max is None:
        q_max = p - 1
    mismatches = np.zeros(max(p - 1, 0))
    if p < 2 or vals[p - 1] <= 0 and vals[p - 2] <= 0:
        # not enough positive tail to fit a profile; count clear non-zeros
        nz = int(np.sum(vals[:p] > 0))
        return OrderEstimate(min(max(nz, 0), q_max), mismatches, "EFT")
    asc = np.maximum(vals[::-1], vals[0] * 1e-300 + _EIG_FLOOR)
    accepted = 2
    q_hat = 0
    for m in range(2, p):
        ratio = (asc[accepted - 1] / asc[0]) ** (1.0 / (accepted - 1))
        predicted = asc[accepted - 1] * ratio
        rel = (asc[m] - predicted) / predicted
        mismatches[m - 1] = rel
        if rel > threshold:
            q_hat = p - accepted
            break
        accepted += 1
    return OrderEstimate(min(q_hat, q_max), mismatches, "EFT")


def music_localize(
    eigs: EigenSpectrum,
    A: MeasurementMatrix,
    q_hat: int,
    threshold: float | None = None,
) -> tuple[SpectralIndexSet, np.ndarray]:
    """Rank cells by inverse projection onto the noise subspace.

    The pseudo-spectrum value for cell k is |a(k)|^2 / |a(k)^H E_n|^2 with
    a(k) the k-th measurement-matrix column and E_n the trailing p - q_hat
    eigenvectors.  Exact orthogonality reports +inf and ranks first.  By
    default the q_hat largest values are selected; passing a threshold
    selects every cell whose value exceeds it instead (for pipelines where
    q_hat is only approximate).
    """
    p, L = A.entries.shape
    if q_hat >= p:
        raise ValueError("q_hat must be smaller than p")
    if q_hat < 0:
        raise ValueError("q_hat must be nonnegative")
    En = eigs.vectors[:, q_hat:]
    cols = A.entries  # p x L
    num = np.sum(np.abs(cols) ** 2, axis=0)
    proj = En.conj().T @ cols  # (p-q) x L
    den = np.sum(np.abs(proj) ** 2, axis=0)
    with np.errstate(divide="ignore"):
        pseudo = np.where(den > 0.0, num / np.maximum(den, _EIG_FLOOR), np.inf)
    if threshold is not None:
        chosen = np.nonzero(pseudo > threshold)[0]
    elif q_hat == 0:
        chosen = np.array([], dtype=int)
    else:
        order = np.argsort(pseudo, kind="stable")
        chosen = np.sort(order[L - q_hat :])
    return SpectralIndexSet(tuple(int(c) for c in chosen), L), pseudo


def nlls_localize(
    Rhat: CorrelationMatrix,
    A: MeasurementMatrix,
    q_max: int,
    epsilon: float = 0.0,
) -> tuple[SpectralIndexSet, np.ndarray]:
    """Greedy least-squares support selection on the projected residual.

    Starting from the empty set, repeatedly add the cell minimizing
    Tr{(I - P_k) R} where P_k projects onto the span of the selected
    measurement columns; ties break to the smallest cell index.  Stops after
    q_max cells or once the residual drops to epsilon.  Returns the support
    and the residual trace after 0..|k| selections (nonincreasing).
    """
    p, L = A.entries.shape
    if q_max >= p:
        raise ValueError("q_max must be smaller than p")
    if Rhat.p != p:
        raise ValueError("correlation size does not match measurement matrix")
    if p < 2 * q_max:
        warnings.warn(
            "p < 2*q_max: greedy least squares may fail on coherent (rank-"
            "deficient) cell contents",
            stacklevel=2,
        )
    R = Rhat.R
    residuals = [float(np.trace(R).real)]
    chosen: list[int] = []
    if residuals[0] <= epsilon:
        return SpectralIndexSet((), L), np.asarray(residuals)
    cols = A.entries
    while len(chosen) < q_max:
        best_val, best_c = math.inf, -1
        for c in range(L):
            if c in chosen:
                continue
            sel = sorted(chosen + [c])
            Ak = cols[:, sel]
            proj = Ak @ np.linalg.pinv(Ak)
            val = float(np.trace(R - proj @ R).real)
            if val < best_val:
                best_val, best_c = val, c
        chosen = sorted(chosen + [best_c])
        residuals.append(best_val)
        if best_val <= epsilon:
            break
    return SpectralIndexSet(tuple(chosen), L), np.asarray(residuals)


@dataclass(frozen=True)
class BlindReport:
    """Everything the blind chain estimated from one block of coset data."""

    q_hat: int
    k_hat: SpectralIndexSet
    order: OrderEstimate
    eigs: EigenSpectrum
    snapshots: int
    pseudo_spectrum: np.ndarray | None = None
    ls_trace: np.ndarray | None = None


def estimate_support(
    streams: CosetStreams,
    order_method: str = "mdl",
    localize_method: str = "music",
    q_min: int = 0,
    q_max: int | None = None,
    n_taps: int | None = None,
    select: str = "top",
    threshold_factor: float = 10.0,
    epsilon_rel: float = 0.01,
    eft_threshold: float = 0.5,
) -> BlindReport:
    """Full blind chain: filter, correlate, select order, localize cells.

    The detection filter keeps its transition inside the cell with a deep
    stopband, so content hugging a cell boundary cannot register in the
    neighboring cell; correlation uses one transient-free snapshot every L
    base samples, and only those filter outputs are computed.  MUSIC
    selection takes the q_hat largest pseudo-spectrum values ("top") or
    everything above threshold_factor times the median ("threshold"); the
    least-squares route stops at q_hat cells or when the residual falls
    below epsilon_rel times the total power.
    """
    if order_method not in ("aic", "mdl", "eft"):
        raise ValueError("order_method must be 'aic', 'mdl', or 'eft'")
    if localize_method not in ("music", "nlls"):
        raise ValueError("localize_method must be 'music' or 'nlls'")
    if select not in ("top", "threshold"):
        raise ValueError("select must be 'top' or 'threshold'")
    pattern = streams.pattern
    L, p = pattern.L, pattern.p
    if q_max is None:
        q_max = p - 1
    if n_taps is None:
        n_taps = 32 * L + 1
        cap = max(4 * L + 1, streams.length // 4)
        n_taps = min(n_taps, cap if cap % 2 else cap - 1)
    filt = design_filter(
        L, n_taps, passband_ripple=0.02, stopband_ripple=1e-3, transition="inside"
    )
    lo, hi = valid_range(streams.length, filt)
    if hi - lo < L:
        raise ValueError("series too short: no transient-free snapshots remain")
    M_corr = len(range(lo, hi, L))
    Rhat = sample_correlation(filter_streams(streams, filt, lo, L)[:, :M_corr])
    eigs = eigendecompose(Rhat)
    if order_method == "aic":
        order = aic_order(eigs, M_corr, p, q_min=q_min, q_max=q_max)
    elif order_method == "mdl":
        order = mdl_order(eigs, M_corr, p, q_min=q_min, q_max=q_max)
    else:
        order = eft_order(eigs, M_corr, p, threshold=eft_threshold, q_max=q_max)
    q_hat = order.q_hat
    A = build_measurement_matrix(pattern)
    if localize_method == "music":
        k_top, pseudo = music_localize(eigs, A, q_hat)
        if select == "threshold":
            finite = pseudo[np.isfinite(pseudo)]
            med = float(np.median(finite)) if finite.size else 0.0
            k_hat, _ = music_localize(eigs, A, q_hat, threshold=threshold_factor * med)
        else:
            k_hat = k_top
        return BlindReport(
            q_hat=q_hat,
            k_hat=k_hat,
            order=order,
            eigs=eigs,
            snapshots=M_corr,
            pseudo_spectrum=pseudo,
        )
    epsilon = epsilon_rel * float(np.trace(Rhat.R).real)
    k_hat, residuals = nlls_localize(Rhat, A, max(q_hat, 1), epsilon=epsilon)
    return BlindReport(
        q_hat=q_hat,
        k_hat=k_hat,
        order=order,
        eigs=eigs,
        snapshots=M_corr,
        ls_trace=residuals,
    )
