"""Blind recovery of the active-cell set from coset data alone.

The interpolation-filtered coset streams obey a narrowband array model: each
active cell acts as a source whose steering vector is the matching column of
the measurement matrix.  Estimation therefore follows the classical subspace
route: sample correlation, eigendecomposition, model-order selection (AIC,
MDL, or an exponential-profile test), then localization by a MUSIC-like scan
or by greedy nonlinear least squares on the projected residual.

The chain runs on a stack of captures sharing one pattern
(estimate_support_batch): one filter design, one stacked correlation and
eigendecomposition, one order selection and one localization pass serve
every capture.  estimate_support is the same code on a stack of one.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .reconstruct import InterpolationFilter, design_filter, filter_streams, valid_range
from .sampling import (
    CosetStreams,
    MeasurementMatrix,
    SpectralIndexSet,
    _one_capture,
    build_measurement_matrix,
)

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
    "estimate_support_batch",
    "ORDER_METHODS",
    "LOCALIZE_METHODS",
]

ORDER_METHODS = ("aic", "mdl", "eft")
LOCALIZE_METHODS = ("music", "nlls")

_EIG_FLOOR = 1e-300
_EFT_THRESHOLD = 0.5  # relative profile mismatch that marks the break
_MUSIC_THRESHOLD_FACTOR = 10.0  # threshold selection: this times the median
_SPAN_TOL = 1e-10  # a column keeping at most this share of its energy lies in the span


def _check_correlation(R: np.ndarray, vals: np.ndarray) -> None:
    """Raise unless each matrix of the stack R is Hermitian and PSD up to
    roundoff; vals holds its eigenvalues along the last axis."""
    scale = np.abs(R).max(axis=(-2, -1))
    scale = np.where(scale > 0.0, scale, 1.0)
    if np.any(np.abs(R - R.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) > 1e-10 * scale):
        raise ValueError("R must be Hermitian")
    floor = -1e-10 * np.maximum(np.trace(R, axis1=-2, axis2=-1).real, 0.0) - 1e-300
    if np.any(vals.min(axis=-1) < floor):
        raise ValueError("R must be positive semidefinite up to roundoff")


@dataclass(frozen=True)
class CorrelationMatrix:
    """Hermitian PSD sample correlation of the filtered streams."""

    R: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=np.complex128)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError("R must be square")
        _check_correlation(R, np.linalg.eigvalsh(R))
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


def _correlate(X: np.ndarray) -> np.ndarray:
    """Hermitized mean outer product over the last axis of a (..., p, M) stack."""
    R = (X @ X.conj().swapaxes(-1, -2)) / X.shape[-1]
    return (R + R.conj().swapaxes(-1, -2)) / 2.0


def sample_correlation(filtered_streams: np.ndarray) -> CorrelationMatrix:
    """Average outer product of the stream snapshot vectors over all samples.

    Rows are streams, columns time.  Conjugation is placed so a snapshot model
    y[n] = A z[n] + noise yields R = A Z A^H + sigma^2 I, i.e. noise
    eigenvectors orthogonal to the steering columns.
    """
    X = np.asarray(filtered_streams, dtype=np.complex128)
    if X.ndim != 2:
        raise ValueError("filtered_streams must be a (p, n) array")
    if X.shape[1] == 0:
        raise ValueError("filtered_streams holds no samples")
    return CorrelationMatrix(_correlate(X))


def _eigh_descending(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns of a stack."""
    vals, vecs = np.linalg.eigh(R)
    return vals[..., ::-1].copy(), vecs[..., ::-1].copy()


def eigendecompose(Rhat: CorrelationMatrix) -> EigenSpectrum:
    vals, vecs = _eigh_descending(Rhat.R)
    return EigenSpectrum(values=vals, vectors=vecs)


def _check_descending(vals: np.ndarray) -> None:
    top = np.maximum(np.abs(vals[..., :1]), 1e-30)
    if np.any(np.diff(vals, axis=-1) > 1e-9 * top):
        raise ValueError("eigenvalues must be sorted descending")


def _eigs_of(eigs, p: int) -> np.ndarray:
    vals = eigs.values if isinstance(eigs, EigenSpectrum) else np.asarray(eigs, dtype=float)
    if vals.shape[-1] != p:
        raise ValueError(f"got {vals.shape[-1]} eigenvalues for p={p}")
    _check_descending(vals)
    return vals


def _floor_roundoff(vals: np.ndarray, p: int) -> np.ndarray:
    """Raise eigenvalues to p*eps*lambda_max, the roundoff level of a p x p
    eigensolver.  Noiseless data leave tail eigenvalues of +-1e-18 relative,
    which are no noise floor; the criteria assume a positive one (Wax and
    Kailath 1985), and below it they count roundoff as signal."""
    return np.maximum(vals, p * np.finfo(float).eps * np.maximum(vals[..., :1], 0.0))


def _itc_scores(vals: np.ndarray, M: int, p: int, q_min: int, q_max: int, mdl: bool) -> np.ndarray:
    """AIC or MDL score of every order q_min..q_max, along the last axis of
    a stack of descending eigenvalues."""
    if not 0 <= q_min <= q_max < p:
        raise ValueError("need 0 <= q_min <= q_max < p")
    vals = np.maximum(_floor_roundoff(vals, p), _EIG_FLOOR)
    scores = np.empty((*vals.shape[:-1], q_max - q_min + 1))
    for i, r in enumerate(range(q_min, q_max + 1)):
        tail = vals[..., r:p]
        log_g = np.mean(np.log(tail), axis=-1)
        log_a = np.log(np.mean(tail, axis=-1))
        data = -M * (p - r) * (log_g - log_a)  # >= 0 by AM-GM
        penalty = 0.5 * r * (2 * p - r) * math.log(M) if mdl else r * (2 * p - r)
        scores[..., i] = data + penalty
    return scores


def _itc_order(eigs, M: int, p: int, q_min: int, q_max: int | None, mdl: bool) -> OrderEstimate:
    vals = _eigs_of(eigs, p)
    scores = _itc_scores(vals, M, p, q_min, p - 1 if q_max is None else q_max, mdl)
    return OrderEstimate(q_min + int(np.argmin(scores)), scores, "MDL" if mdl else "AIC")


def aic_order(eigs, M: int, p: int, q_min: int = 0, q_max: int | None = None) -> OrderEstimate:
    """Akaike-criterion order: argmin of the sphericity data term plus r(2p-r).

    The data term compares geometric and arithmetic means of the p-r smallest
    eigenvalues; a flat (noise-only) tail makes it vanish.
    """
    return _itc_order(eigs, M, p, q_min, q_max, mdl=False)


def mdl_order(eigs, M: int, p: int, q_min: int = 0, q_max: int | None = None) -> OrderEstimate:
    """Minimum-description-length order: penalty (1/2) r(2p-r) log M."""
    return _itc_order(eigs, M, p, q_min, q_max, mdl=True)


def eft_order(eigs, M: int, p: int, q_max: int | None = None) -> OrderEstimate:
    """Exponential-profile test: count eigenvalues fitting the noise tail.

    The two smallest eigenvalues seed the noise profile; each next-larger one
    is predicted by extrapolating the geometric ratio of the values already
    accepted as noise, and the first eigenvalue exceeding its prediction by
    more than _EFT_THRESHOLD (relative) marks the break.  The estimate is the
    number of eigenvalues above the break, so it is at most p - 2 by
    construction (a profile needs two points).  criterion_values holds the
    relative mismatches per tested position (the two seed positions stay 0).
    M is accepted for interface parity with the information criteria but the
    data-fitted extrapolation does not use it.  Eigenvalues below the
    roundoff level p*eps*lambda_max count as that level.
    """
    del M
    vals = _eigs_of(eigs, p)
    if q_max is None:
        q_max = p - 1
    if not 0 <= q_max < p:
        raise ValueError("need 0 <= q_max < p")
    q_hat, mismatches = _eft_orders(vals, p, q_max)
    return OrderEstimate(int(q_hat), mismatches, "EFT")


def _eft_orders(vals: np.ndarray, p: int, q_max: int):
    """EFT orders (at most q_max) and mismatches along the last axis of a
    stack: with ascending positions below m accepted as noise, position m is
    predicted as asc[m-1] * (asc[m-1] / asc[0]) ** (1 / (m-1)), so all
    mismatches follow at once; an all-zero profile is flat (order 0)."""
    asc = np.maximum(_floor_roundoff(vals[..., :p], p)[..., ::-1], _EIG_FLOOR)
    m = np.arange(2, p)
    predicted = asc[..., m - 1] * (asc[..., m - 1] / asc[..., :1]) ** (1.0 / (m - 1))
    rel = (asc[..., m] - predicted) / predicted
    # the first break, len(m) when there is none; mismatches past it stay 0
    breaks = np.append(rel > _EFT_THRESHOLD, np.ones_like(asc[..., :1], bool), axis=-1)
    first = np.argmax(breaks, axis=-1)
    mismatches = np.zeros((*asc.shape[:-1], max(p - 1, 0)))
    mismatches[..., 1:] = np.where(m - 2 <= first[..., np.newaxis], rel, 0.0)
    return np.minimum(np.where(first < len(m), p - 2 - first, 0), q_max), mismatches


def _music_spectrum(vectors: np.ndarray, cols: np.ndarray, q_hat) -> np.ndarray:
    """MUSIC pseudo-spectra of a stack of eigenvector sets in one projection.

    vectors is (..., p, p) with columns in descending eigenvalue order and
    q_hat (...) the matching orders; the noise subspace E_n of each is its
    trailing p - q_hat columns and the result is (..., L).
    """
    p = cols.shape[0]
    q_hat = np.asarray(q_hat)
    if np.any(q_hat >= p):
        raise ValueError("q_hat must be smaller than p")
    if np.any(q_hat < 0):
        raise ValueError("q_hat must be nonnegative")
    num = np.sum(np.abs(cols) ** 2, axis=0)
    power = np.abs(vectors.conj().swapaxes(-1, -2) @ cols) ** 2  # (..., p, L)
    noise = np.arange(p) >= q_hat[..., np.newaxis]
    den = np.where(noise[..., np.newaxis], power, 0.0).sum(axis=-2)
    with np.errstate(divide="ignore"):
        return np.where(den > 0.0, num / np.maximum(den, _EIG_FLOOR), np.inf)


def _select_cells(pseudo: np.ndarray, q_hat, threshold) -> np.ndarray:
    """Mask of the cells above threshold, or else of the q_hat largest (the
    higher index first among equal values), along the last axis."""
    if threshold is not None:
        return pseudo > np.asarray(threshold)[..., np.newaxis]
    rank = np.argsort(np.argsort(pseudo, axis=-1, kind="stable"), axis=-1)
    return rank >= pseudo.shape[-1] - np.asarray(q_hat)[..., np.newaxis]


def _cells(mask: np.ndarray) -> list[SpectralIndexSet]:
    """The cells of each row of a (T, L) mask."""
    return [SpectralIndexSet(tuple(np.flatnonzero(r).tolist()), len(r)) for r in mask]


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
    pseudo = _music_spectrum(eigs.vectors, A.entries, q_hat)
    return _cells(_select_cells(pseudo, q_hat, threshold)[np.newaxis])[0], pseudo


def _warn_at_caller(message: str) -> None:
    """Warn at the code that called into this module."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, UserWarning, stacklevel=level)


def nlls_localize(
    Rhat: CorrelationMatrix,
    A: MeasurementMatrix,
    q_max: int,
    epsilon: float = 0.0,
) -> tuple[SpectralIndexSet, np.ndarray]:
    """Greedy least-squares support selection on the projected residual.

    Starting from the empty set, repeatedly add the cell minimizing
    Tr{(I - P_k) R} where P_k projects onto the span of the selected
    measurement columns.  Candidates within 1e-12 Tr R of the best go to the
    smallest cell index; a column in the span of the selected ones reduces
    nothing and is never picked.  Stops after q_max cells, once the residual
    drops to epsilon or to roundoff (p*eps*Tr R), or when no column is left.
    Returns the support and the (nonincreasing) residual trace after 0..|k|
    selections.
    """
    if Rhat.p != A.pattern.p:
        raise ValueError("correlation size does not match measurement matrix")
    taken, trace = _greedy_ls(Rhat.R[np.newaxis], A.entries, np.array([q_max]), np.array([epsilon]))
    return _cells(taken)[0], trace[0, : taken[0].sum() + 1]


def _greedy_ls(
    R: np.ndarray, cols: np.ndarray, q_max: np.ndarray, epsilon: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """nlls_localize on a (T, p, p) stack of checked correlations with q_max
    and epsilon per capture: the (T, L) mask of chosen cells and the residual
    traces (row t valid up to mask[t].sum() + 1 entries).  Orthogonal
    matching pursuit (Pati et al. 1993): U keeps each column's residual u
    after projecting out the chosen columns, so column c would leave
    res - Re(u^H R u) / |u|^2; the chosen u, normalized, is then projected
    out of U (one Gram-Schmidt step)."""
    T, p, _ = R.shape
    if np.any(q_max >= p):
        raise ValueError("q_max must be smaller than p")
    if np.any(p < 2 * q_max):
        _warn_at_caller(
            "p < 2*q_max: greedy least squares may fail on coherent (rank-"
            "deficient) cell contents"
        )
    total = np.trace(R, axis1=-2, axis2=-1).real
    stop = np.maximum(epsilon, p * np.finfo(float).eps * total)
    in_span = _SPAN_TOL * np.sum(np.abs(cols) ** 2, axis=0)
    trace = np.zeros((T, int(q_max.max(initial=0)) + 1))
    trace[:, 0] = total
    taken = np.zeros((T, cols.shape[1]), dtype=bool)
    U = np.repeat(cols[np.newaxis], T, axis=0)
    rows = np.arange(T)
    active = total > stop
    for s in range(trace.shape[1] - 1):
        energy = np.sum(np.abs(U) ** 2, axis=-2)
        gain = np.sum((U.conj() * (R @ U)).real, axis=-2)
        usable = ~taken & (energy > in_span)
        score = np.where(usable, trace[:, s : s + 1] - gain / np.where(usable, energy, 1.0), np.inf)
        best = score.min(axis=-1)
        active &= (s < q_max) & np.isfinite(best)
        pick = np.argmax(score <= (best + 1e-12 * total)[:, np.newaxis], axis=-1)
        q = U[rows, :, pick] / np.where(active, np.sqrt(energy[rows, pick]), np.inf)[:, np.newaxis]
        U -= q[:, :, np.newaxis] * (q.conj()[:, np.newaxis, :] @ U)
        taken[rows[active], pick[active]] = True
        trace[:, s + 1] = best
        active &= best > stop
    return taken, trace


def _independent_fraction(filt: InterpolationFilter) -> float:
    """How many independent snapshots one snapshot every L base samples is worth.

    The detection passband is narrower than the cell, so white noise through
    the filter stays correlated from one snapshot to the next, with
    normalized autocorrelation rho_k = r(kL) / r(0) for r the autocorrelation
    of the taps.  A correlation estimate from M such snapshots varies like
    one from M / (1 + 2 sum_k |rho_k|^2) independent ones (its Wishart
    degrees of freedom); the information criteria assume independent
    snapshots and over-count the order when given M.
    """
    h, L = filt.taps, filt.L
    r0 = np.vdot(h, h).real
    rho2 = sum(abs(np.vdot(h[: len(h) - k], h[k:]) / r0) ** 2 for k in range(L, len(h), L))
    return 1.0 / (1.0 + 2.0 * rho2)


@dataclass(frozen=True)
class BlindReport:
    """Everything the blind chain estimated from one block of coset data.

    filter_meets_spec is False when the detection filter's tap budget could
    not reach its ripple targets, so content may leak between cells.
    """

    q_hat: int
    k_hat: SpectralIndexSet
    order: OrderEstimate
    eigs: EigenSpectrum
    snapshots: int
    filter_meets_spec: bool
    pseudo_spectrum: np.ndarray | None = None
    ls_trace: np.ndarray | None = None


def estimate_support(streams: CosetStreams, **options) -> BlindReport:
    """Full blind chain on one (p, length/L) capture.

    This is estimate_support_batch on a stack of one, with the same options.
    """
    _one_capture(streams)
    stack = CosetStreams(streams.samples[np.newaxis], streams.pattern)
    return estimate_support_batch(stack, **options)[0]


def estimate_support_batch(
    streams: CosetStreams,
    order_method: str = "mdl",
    localize_method: str = "music",
    q_min: int = 0,
    q_max: int | None = None,
    select: str = "top",
    epsilon_rel: float = 0.01,
) -> list[BlindReport]:
    """Full blind chain for each capture of a stack: filter, correlate,
    select order, localize cells.

    streams.samples is a (T, p, length/L) stack of captures under one
    pattern; the result holds one report per capture, each computed from
    that capture alone.  The filter is designed once and every stage (order
    selection by AIC, MDL or EFT, localization by MUSIC or least squares)
    runs once over the whole stack.

    The detection filter keeps its transition inside the cell with a deep
    stopband, so content hugging a cell boundary cannot register in the
    neighboring cell.  It has 32L + 1 taps, or on a short capture the
    largest odd count at most max(4L + 1, length // 4).  Correlation uses
    one transient-free snapshot every L base samples, and filter_streams
    computes only those outputs.  Those snapshots are correlated, so AIC and
    MDL score them as the equivalent number of independent snapshots
    (report.snapshots keeps the count).
    Every order method keeps q_hat in [q_min, q_max]: AIC and MDL search
    only that range, and the EFT count is clamped into it.  The pattern needs
    p >= 2 cosets, and the capture at least p transient-free snapshots.
    MUSIC selection takes the q_hat largest pseudo-spectrum values ("top")
    or everything above ten times the median of the finite values
    ("threshold"); the least-squares route stops at max(q_hat, 1) cells or
    when the residual falls below epsilon_rel times the total power.
    """
    if order_method not in ORDER_METHODS:
        raise ValueError(f"order_method must be one of {ORDER_METHODS}")
    if localize_method not in LOCALIZE_METHODS:
        raise ValueError(f"localize_method must be one of {LOCALIZE_METHODS}")
    if select not in ("top", "threshold"):
        raise ValueError("select must be 'top' or 'threshold'")
    if streams.samples.ndim != 3:
        raise ValueError("expected a stack of captures: samples of shape (T, p, length/L)")
    pattern = streams.pattern
    L, p = pattern.L, pattern.p
    if p < 2:
        raise ValueError(
            f"blind detection needs p >= 2 cosets (got p={p}): with one, every "
            "cell has the same measurement column up to phase"
        )
    if q_max is None:
        q_max = p - 1
    if not 0 <= q_min <= q_max < p:
        raise ValueError("need 0 <= q_min <= q_max < p")
    cap = max(4 * L + 1, streams.length // 4)
    n_taps = min(32 * L + 1, cap if cap % 2 else cap - 1)
    filt = design_filter(
        L, n_taps, passband_ripple=0.02, stopband_ripple=1e-3, transition="inside"
    )
    lo, hi = valid_range(streams.length, filt)
    M_corr = len(range(lo, hi, L))
    if M_corr < p:
        # below p snapshots R has rank below p whatever the signal
        raise ValueError(f"series too short: {M_corr} transient-free snapshots for p={p} cosets")
    R = _correlate(filter_streams(streams, filt, lo, hi))
    vals, vecs = _eigh_descending(R)
    _check_correlation(R, vals)
    _check_descending(vals)
    if order_method == "eft":
        q_hats, criteria = _eft_orders(vals, p, q_max)
        q_hats = np.maximum(q_hats, q_min)
    else:
        M_ind = M_corr * _independent_fraction(filt)
        criteria = _itc_scores(vals, M_ind, p, q_min, q_max, mdl=order_method == "mdl")
        q_hats = q_min + np.argmin(criteria, axis=-1)
    A = build_measurement_matrix(pattern)
    pseudo = traces = [None] * len(R)
    if localize_method == "music":
        pseudo = _music_spectrum(vecs, A.entries, q_hats)
        threshold = None
        if select == "threshold":
            # the median of each spectrum's m finite cells, which np.sort puts
            # first (the columns span C^p, so m >= 1), as np.nanmedian takes it
            m = np.isfinite(pseudo).sum(axis=-1, keepdims=True)
            mid = np.concatenate(((m - 1) // 2, m // 2), axis=-1)
            mid = np.take_along_axis(np.sort(pseudo, axis=-1), mid, axis=-1)
            threshold = _MUSIC_THRESHOLD_FACTOR * ((mid[..., 0] + mid[..., 1]) / 2)
        chosen = _select_cells(pseudo, q_hats, threshold)
    else:
        total = np.trace(R, axis1=-2, axis2=-1).real
        chosen, trace = _greedy_ls(R, A.entries, np.maximum(q_hats, 1), epsilon_rel * total)
        traces = [row[: n + 1] for row, n in zip(trace, chosen.sum(axis=-1))]
    return [
        BlindReport(
            q_hat=q,
            k_hat=k_hat,
            order=OrderEstimate(q, criteria[t], order_method.upper()),
            eigs=EigenSpectrum(vals[t], vecs[t]),
            snapshots=M_corr,
            filter_meets_spec=filt.meets_spec,
            pseudo_spectrum=pseudo[t],
            ls_trace=traces[t],
        )
        for t, (q, k_hat) in enumerate(zip(q_hats.tolist(), _cells(chosen)))
    ]
