"""Reconstruction of the base-rate signal from coset streams.

Pipeline: map the known support to active cells, then run one polyphase
synthesis filter bank.  One kernel interpolates the coset streams onto the
base grid through a lowpass for the observation band [0, 1/(L*T)): a
sliding window over the ADC samples times a tap table with a column per
output phase.  filter_streams applies it at one phase for blind detection;
reconstruct_time folds the pseudo-inverse combiner and the re-modulation of
each cell to its slot into the taps of all L phases, so reconstruction is
one matrix product.  A frequency-domain solver over DFT bins provides an
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .patterns import condition_number
from .sampling import (
    CosetStreams,
    SamplingPattern,
    SpectralIndexSet,
    _one_capture,
    _unit_phases,
    build_measurement_matrix,
    reduce_matrix,
)
from .signals import SpectralSupport, TimeSeries

__all__ = [
    "InterpolationFilter",
    "ReconstructionReport",
    "FrequencyReconstruction",
    "IllPosedError",
    "spectral_index_from_support",
    "design_filter",
    "filter_streams",
    "pseudo_inverse",
    "reconstruct_time",
    "reconstruct_frequency",
]

_BOUNDARY_EPS = 1e-9


class IllPosedError(RuntimeError):
    pass


def spectral_index_from_support(F: SpectralSupport, L: int) -> SpectralIndexSet:
    """Active cells of the L-slice grid touched by the support's interior.

    A band [a, b) covers cells floor(a*L/f_max) through the last cell whose
    interior it reaches; an upper edge landing exactly on a cell boundary
    (including b = f_max) does not activate the cell above it.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    cells: set[int] = set()
    for a, b in F.bands:
        scale = L / F.f_max
        lo = int(math.floor(a * scale + _BOUNDARY_EPS))
        hi = int(math.ceil(b * scale - _BOUNDARY_EPS)) - 1
        cells.update(range(lo, hi + 1))
    return SpectralIndexSet(tuple(sorted(cells)), L)


@dataclass(frozen=True)
class InterpolationFilter:
    """Complex interpolation filter for one spectral cell.

    taps are the real linear-phase lowpass h_r modulated by exp(j*pi*n/L), so
    the passband sits on [0, 1/L) in normalized frequency (center 1/(2*L)).
    group_delay is the integer delay the polyphase kernel shared by
    filter_streams and reconstruct_time compensates; for odd N_h it is
    exact, for even N_h the output retains a half-sample offset.
    """

    taps: np.ndarray
    L: int
    group_delay: int
    transition_width: float
    passband_edge: float
    stopband_edge: float
    achieved_passband_ripple: float
    achieved_stopband_ripple: float
    meets_spec: bool

    @property
    def n_taps(self) -> int:
        return len(self.taps)


def design_filter(
    L: int,
    N_h: int,
    passband_ripple: float = 0.02,
    stopband_ripple: float = 0.008,
    transition: str = "straddle",
) -> InterpolationFilter:
    """Kaiser-window lowpass for one cell of width 1/L, modulated to [0, 1/L).

    transition="straddle" centers the transition on the cell edges (edge gain
    about one half), which preserves the partition of unity across adjacent
    active cells and suits reconstruction.  transition="inside" pulls the
    whole transition inside the cell so the response is already in the
    stopband at the cell boundaries; detection stages use it to keep
    boundary-hugging content from registering in neighbor cells.

    The real lowpass is the windowed sinc c*sinc(c*m)*kaiser(N_h, beta),
    m = n - (N_h - 1)/2, c twice the cutoff, scaled to unit gain at DC.  For
    A = -20*log10(min ripple) dB, beta is 0.1102*(A - 8.7) above 50 dB,
    0.5842*(A - 21)**0.4 + 0.07886*(A - 21) above 21 dB, and 0 otherwise.
    Achieved ripples are measured on the 8192-point grid k/16384 of [0, 1/2),
    the rfft of the taps folded modulo 16384; when the tap budget cannot
    meet the targets the filter is still returned with meets_spec=False.
    """
    if N_h < 3:
        raise ValueError("N_h must be >= 3")
    if transition not in ("straddle", "inside"):
        raise ValueError("transition must be 'straddle' or 'inside'")
    atten = -20.0 * math.log10(min(passband_ripple, stopband_ripple))
    if atten > 50:
        beta = 0.1102 * (atten - 8.7)
    elif atten > 21:
        beta = 0.5842 * (atten - 21) ** 0.4 + 0.07886 * (atten - 21)
    else:
        beta = 0.0
    # Kaiser sizing relation: atten = 2.285 * d_omega * (N_h - 1) + 7.95
    d_omega = max((atten - 7.95) / (2.285 * (N_h - 1)), 1e-9)
    cutoff = 1.0 / (2 * L)
    # short tap budgets cannot realize the requested transition; clamp so the
    # filter stays constructible and let meets_spec report the shortfall
    limit = 0.95 * cutoff if transition == "inside" else 1.9 * cutoff
    trans = min(d_omega / (2.0 * np.pi), limit)
    shift = trans / 2.0 if transition == "inside" else 0.0
    c = 2.0 * (cutoff - shift)
    n = np.arange(N_h)
    hr = c * np.sinc(c * (n - (N_h - 1) / 2)) * np.kaiser(N_h, beta)
    hr /= hr.sum()
    pass_edge = cutoff - shift - trans / 2.0
    stop_edge = cutoff - shift + trans / 2.0

    # the DTFT at k/16384 is the DFT of the taps aliased modulo 16384
    folded = np.pad(hr, (0, -N_h % 16384)).reshape(-1, 16384).sum(axis=0)
    mag = np.abs(np.fft.rfft(folded)[:8192])
    w = np.arange(8192) / 16384
    a_pass = float(np.max(np.abs(mag[w <= pass_edge] - 1.0), initial=0.0))
    a_stop = float(np.max(mag[w >= stop_edge], initial=0.0))
    # the Kaiser sizing relation is approximate; allow 10% over the targets
    meets = a_pass <= passband_ripple * 1.10 and a_stop <= stopband_ripple * 1.10

    return InterpolationFilter(
        taps=hr * np.exp(1j * np.pi * n / L),
        L=L,
        group_delay=(N_h - 1) // 2,
        transition_width=trans,
        passband_edge=pass_edge,
        stopband_edge=stop_edge,
        achieved_passband_ripple=a_pass,
        achieved_stopband_ripple=a_stop,
        meets_spec=meets,
    )


def _polyphase(
    streams: CosetStreams, filt: InterpolationFilter, phases: np.ndarray
) -> tuple[np.ndarray, np.ndarray, complex]:
    """The polyphase interpolation kernel: sample windows, taps, phase.

    Stream i interpolated and delay-compensated at base index j*L + r is
    sum_s x_i[j + s] * h[r + d - c_i - s*L] times the center-tap phase
    exp(-j*pi*d/L), over U shifts s.  Returns the (..., p, m, U) sliding
    window of x_i[j + s] over the zero-padded ADC samples, the (p, U, R)
    taps of the R output phases r asked for, and the center-tap phase.
    """
    L, d, N_h = streams.pattern.L, filt.group_delay, filt.n_taps
    if filt.L != L:
        raise ValueError("filter L does not match pattern L")
    e = phases - np.asarray(streams.pattern.C)[:, np.newaxis] + d  # p x R
    # shift 0 stays in the window so the padding below is never negative
    s_lo = min(-((N_h - 1 - int(e.min())) // L), 0)
    s_hi = max(int(e.max()) // L, 0)
    U = s_hi - s_lo + 1
    tap = e[:, np.newaxis, :] - L * np.arange(s_lo, s_hi + 1)[:, np.newaxis]
    inside = (tap >= 0) & (tap < N_h)
    h = np.where(inside, filt.taps[np.where(inside, tap, 0)], 0.0)
    m = streams.samples.shape[-1]
    padded = np.zeros((*streams.samples.shape[:-1], m + U - 1), dtype=np.complex128)
    padded[..., -s_lo : m - s_lo] = streams.samples
    return sliding_window_view(padded, U, axis=-1), h, np.exp(-1j * np.pi * d / L)


def filter_streams(
    streams: CosetStreams, filt: InterpolationFilter, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Interpolate every coset stream onto the base grid at one output phase.

    The output has the shape of streams.samples, (..., p, m), except for its
    last axis: column j is the filtered stream at base index start + j*L,
    for each such index below stop (default streams.length).  Leading
    (capture) axes are filtered independently.  Only those outputs are
    computed.  The integer group delay and the constant phase exp(j*pi*d/L)
    the modulated taps leave at the center tap are both removed, so the
    effective response is zero phase on the passband.
    """
    L = streams.pattern.L
    stop = streams.length if stop is None else stop
    if start < 0 or stop > streams.length:
        raise ValueError("need start >= 0 and stop <= streams.length")
    X, h, center = _polyphase(streams, filt, np.array([start % L]))
    j0, n = start // L, len(range(start, stop, L))
    return (X[..., j0 : j0 + n, :] @ h)[..., 0] * center


def valid_range(streams_length: int, filt: InterpolationFilter) -> tuple[int, int]:
    """Index range free of filter edge transients after delay compensation."""
    d = filt.group_delay
    return d, max(streams_length - d, d)


def pseudo_inverse(A: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse by SVD; singular values at or below
    1e-12 * max(A.shape) times the largest count as zero."""
    A = np.asarray(A)
    if A.size == 0:
        raise ValueError("pseudo_inverse of an empty matrix")
    return np.linalg.pinv(A, rcond=1e-12 * max(A.shape))


def _combining_matrix(pattern: SamplingPattern, k: SpectralIndexSet) -> tuple[np.ndarray, float]:
    """Pseudo-inverse combiner in discrete-sequence scale, plus its cond.

    The measurement matrix carries a 1/(L*T) scale tied to the analog Fourier
    transform; combining discrete sequences needs the T-free form, i.e. the
    pseudo-inverse of the matrix scaled to 1/L.  Conditioning is unaffected.
    Raises IllPosedError when q > p or the reduced matrix is rank deficient.
    """
    if k.q > pattern.p:
        raise IllPosedError(f"q={k.q} active cells exceed p={pattern.p} cosets")
    Ak = reduce_matrix(build_measurement_matrix(pattern), k)
    cond = condition_number(Ak)
    if not math.isfinite(cond):
        raise IllPosedError(
            f"reduced matrix is rank deficient on cells {k.k} (cond={cond})"
        )
    W = pseudo_inverse(Ak * pattern.T)  # T * (1/(L*T)) * E = E/L
    return W, cond


@dataclass(frozen=True)
class ReconstructionReport:
    x_rec: TimeSeries
    rmse: float
    pattern: SamplingPattern
    k: SpectralIndexSet
    cond: float
    valid: tuple[int, int]
    filter_meets_spec: bool


def reconstruct_time(
    streams: CosetStreams,
    k: SpectralIndexSet,
    filt: InterpolationFilter,
    reference: TimeSeries | None = None,
) -> ReconstructionReport:
    """Recover the base-rate sequence from coset streams on active cells k.

    Output x[j*L + r] is sum_i B[r, i] * f_i[j*L + r], where f_i is stream
    i interpolated by the polyphase kernel of filter_streams and
    B = exp(2j*pi*((r*k) mod L)/L) @ W folds the pseudo-inverse combiner W
    and the re-modulation of each cell to its slot into an L x p table.  B,
    the kernel's taps for all L phases and the center-tap phase make one
    (p*U) x L matrix, and x is the kernel's sample window times it.

    The relative error against the reference is computed over the
    transient-free range only, which valid reports; with a zero reference
    the error reports 0 when the reconstruction is also zero.  The capture
    ends where the reference does, before the zeros coset_decompose pads it
    with up to a multiple of L; a reference more than L - 1 samples short of
    streams.length is refused.  A capture of at most 2*group_delay samples
    has no transient-free index, so a reference is then refused; without
    one the reconstruction is still returned.
    filter_meets_spec repeats filt.meets_spec: a filter short of its ripple
    targets degrades the result without any other sign.
    """
    _one_capture(streams)
    pattern = streams.pattern
    X, h, center = _polyphase(streams, filt, np.arange(pattern.L))
    W, cond = _combining_matrix(pattern, k)
    L = pattern.L
    B = _unit_phases(L, np.arange(L), k.k) @ W  # L x p
    G = h * (center * B.T[:, np.newaxis, :])
    x_rec = (X.transpose(1, 0, 2).reshape(X.shape[1], -1) @ G.reshape(-1, L)).reshape(-1)
    n = streams.length if reference is None else min(streams.length, len(reference.samples))
    if n <= streams.length - L:
        raise ValueError(f"reference of {n} samples is more than L - 1 short of the capture")
    lo, hi = valid_range(n, filt)
    rmse = 0.0
    if reference is not None:
        if lo >= hi:
            raise ValueError(
                f"a capture of {n} samples has no transient-free sample: "
                f"it needs more than 2*group_delay = {2 * filt.group_delay}"
            )
        ref = reference.samples
        num = float(np.linalg.norm(x_rec[lo:hi] - ref[lo:hi]))
        den = float(np.linalg.norm(ref[lo:hi]))
        rmse = num / den if den > 0 else (0.0 if num == 0.0 else math.inf)
    return ReconstructionReport(
        x_rec=TimeSeries(x_rec, pattern.T),
        rmse=rmse,
        pattern=pattern,
        k=k,
        cond=cond,
        valid=(lo, hi),
        filter_meets_spec=filt.meets_spec,
    )


@dataclass(frozen=True)
class FrequencyReconstruction:
    """Per-bin recovered cell spectra over the observation band [0, 1/(L*T))."""

    cell_spectra: np.ndarray  # q x n_bins, DFT scale of the base sequence
    k: SpectralIndexSet
    cond: float

    def assemble_full_spectrum(self, length: int) -> np.ndarray:
        """Place each recovered cell back at its slot of a length-`length` DFT."""
        L = self.k.L
        nb = self.cell_spectra.shape[1]
        if nb * L != length:
            raise ValueError("length must equal n_bins * L")
        full = np.zeros(length, dtype=np.complex128)
        for row, cell in enumerate(self.k.k):
            full[cell * nb : (cell + 1) * nb] = self.cell_spectra[row]
        return full


def reconstruct_frequency(
    streams: CosetStreams, k: SpectralIndexSet
) -> FrequencyReconstruction:
    """Solve for the active cell spectra bin by bin from raw stream DFTs.

    Uses no interpolation filter: the length/L-point DFT of coset stream i
    times the twiddle exp(-2j*pi*c_i*b/length) is the spectrum of that
    stream placed on its base-grid coset, which obeys the aliasing relation
    exactly on bins b = 0 .. length/L - 1, so the per-bin least-squares solve
    is an independent oracle for the time-domain path (exact up to noise
    when the system is well posed).
    """
    _one_capture(streams)
    pattern = streams.pattern
    W, cond = _combining_matrix(pattern, k)
    nb = streams.samples.shape[1]
    twiddle = _unit_phases(streams.length, pattern.C, np.arange(nb)).conj()
    Z = W @ (np.fft.fft(streams.samples, axis=1) * twiddle)
    return FrequencyReconstruction(cell_spectra=Z, k=k, cond=cond)
