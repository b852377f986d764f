"""Multi-coset acquisition: patterns, coset streams, and the measurement matrix.

An (L, p) pattern keeps p of every L base-grid samples at fixed offsets C.
The p x L measurement matrix ties the spectra of the kept streams to the L
spectral cells of width 1/(L*T); its entry (i, l) is exp(j*2*pi*c_i*l/L)/(L*T),
a row selection of the conjugate DFT matrix scaled by 1/(L*T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import TimeSeries, _csv_rows, _csv_text

__all__ = [
    "SamplingPattern",
    "CosetStreams",
    "MeasurementMatrix",
    "SpectralIndexSet",
    "BlindParameters",
    "coset_decompose",
    "build_measurement_matrix",
    "reduce_matrix",
    "average_rate",
    "blind_parameters",
    "streams_to_csv",
    "streams_from_csv",
]


@dataclass(frozen=True)
class SamplingPattern:
    """Period L, sorted distinct coset offsets C in [0, L-1], base period T."""

    L: int
    C: tuple[int, ...]
    T: float = 1.0

    def __post_init__(self):
        C = tuple(int(c) for c in self.C)
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if not 1 <= len(C) <= self.L:
            raise ValueError("need 1 <= p <= L offsets")
        if any(not 0 <= c < self.L for c in C):
            raise ValueError("offsets must lie in [0, L-1]")
        if any(c1 >= c2 for c1, c2 in zip(C, C[1:])):
            raise ValueError("offsets must be strictly increasing")
        if self.T <= 0:
            raise ValueError("T must be positive")
        object.__setattr__(self, "C", C)

    @property
    def p(self) -> int:
        return len(self.C)

    def to_dict(self) -> dict:
        return {"L": self.L, "p": self.p, "C": list(self.C), "T": self.T}

    @classmethod
    def from_dict(cls, d: dict) -> "SamplingPattern":
        try:
            L, C = int(d["L"]), tuple(d["C"])
        except KeyError as exc:
            raise ValueError(f"sampling pattern is missing key {exc}") from None
        pat = cls(L, C, float(d.get("T", 1.0)))
        if "p" in d and int(d["p"]) != pat.p:
            raise ValueError("pattern p does not match len(C)")
        return pat


@dataclass(frozen=True)
class SpectralIndexSet:
    """Sorted distinct active-cell indices k within {0..L-1}."""

    k: tuple[int, ...]
    L: int

    def __post_init__(self):
        k = tuple(sorted(set(int(v) for v in self.k)))
        if any(not 0 <= v < self.L for v in k):
            raise ValueError("cell indices must lie in [0, L-1]")
        object.__setattr__(self, "k", k)

    @property
    def q(self) -> int:
        return len(self.k)

    def complement(self) -> "SpectralIndexSet":
        return SpectralIndexSet(tuple(sorted(set(range(self.L)) - set(self.k))), self.L)


@dataclass(frozen=True)
class CosetStreams:
    """The samples of the p coset ADCs, one row per offset.

    Row i holds x[m*L + c_i] for m = 0 .. length/L - 1, i.e. the stream the
    i-th ADC produces at rate 1/(L*T).  length is the base-grid span the
    streams cover, always a multiple of L.  Leading axes, if any, index
    separate captures under the same pattern: samples then has shape
    (..., p, length/L).
    """

    samples: np.ndarray
    pattern: SamplingPattern

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.complex128)
        if s.ndim < 2 or s.shape[-2] != self.pattern.p:
            raise ValueError("samples must be a (..., p, length/L) array")
        if not np.isfinite(s).all():
            *capture, i, m = np.argwhere(~np.isfinite(s))[0]
            where = f" of capture {tuple(int(v) for v in capture)}" if capture else ""
            raise ValueError(f"stream {i}{where} has a non-finite sample at m={m}")
        object.__setattr__(self, "samples", s)

    @property
    def length(self) -> int:
        return self.samples.shape[-1] * self.pattern.L


def _one_capture(cs: CosetStreams) -> None:
    if cs.samples.ndim != 2:
        raise ValueError("expected one capture: samples of shape (p, length/L)")


@dataclass(frozen=True)
class MeasurementMatrix:
    """The p x L coset measurement matrix together with its pattern."""

    entries: np.ndarray
    pattern: SamplingPattern

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128)
        if e.shape != (self.pattern.p, self.pattern.L):
            raise ValueError("entries must be p x L")
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class BlindParameters:
    """Parameters picked from (N, B, f_max, d) when band locations are unknown."""

    L: int
    p: int


def coset_decompose(x: TimeSeries, pattern: SamplingPattern) -> CosetStreams:
    """Keep the base-rate samples at indices m*L + c_i as coset stream i.

    The input is zero-padded up to a multiple of L.  Indices are taken
    relative to the start of the series.  Only the kept samples are copied,
    and only the last, partial block is padded.
    """
    if abs(x.T - pattern.T) > 1e-12 * max(x.T, pattern.T):
        raise ValueError(f"series period {x.T} does not match pattern T {pattern.T}")
    L, C = pattern.L, list(pattern.C)
    n = len(x.samples)
    full = n // L * L
    out = np.zeros((len(C), -(-n // L)), dtype=np.complex128)
    out[:, : n // L] = x.samples[:full].reshape(-1, L).T[C]
    if full < n:
        last = np.zeros(L, dtype=np.complex128)
        last[: n - full] = x.samples[full:]
        out[:, -1] = last[C]
    return CosetStreams(out, pattern)


def _unit_phases(L: int, a, b) -> np.ndarray:
    """exp(2j*pi*(a*b mod L)/L) for every pair of entries of the integer
    arrays a and b, shape a.shape + b.shape: a gather from the L-entry table
    exp(2j*pi*m/L), exact to a few eps however large a*b is.  The measurement
    matrix, the pattern search and both reconstructions take their phases
    here."""
    product = np.multiply.outer(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    return np.exp(2j * np.pi * np.arange(L) / L)[product % L]


def build_measurement_matrix(pattern: SamplingPattern) -> MeasurementMatrix:
    """Rows of the conjugate L x L DFT matrix selected by C, scaled by 1/(L*T)."""
    L, T = pattern.L, pattern.T
    return MeasurementMatrix(_unit_phases(L, pattern.C, np.arange(L)) / (L * T), pattern)


def reduce_matrix(A: MeasurementMatrix, k: SpectralIndexSet) -> np.ndarray:
    """Columns of A selected by the active-cell indices, order preserved."""
    if k.L != A.pattern.L:
        raise ValueError(f"index set has L={k.L} but matrix has L={A.pattern.L}")
    return A.entries[:, list(k.k)]


def average_rate(pattern: SamplingPattern, f_max: float) -> float:
    """Average sampling rate (p/L)*f_max of the multi-coset scheme."""
    return pattern.p / pattern.L * f_max


def blind_parameters(N: int, B: float, f_max: float, d: int) -> BlindParameters:
    """Choose (L, p) for N bands of width <= B below f_max.

    L = d*floor(f_max/B) ties the cell width to the band width; each band then
    straddles at most d+1 cells, so at most q_max = N*(d+1) cells are active
    and one extra row p = q_max + 1 suffices.  Both are capped at L so
    degenerate inputs stay valid.  With d = 0 the cells are taken at the band
    resolution, L = floor(f_max/B), and bands are assumed cell-aligned.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0 < B <= f_max:
        raise ValueError("need 0 < B <= f_max")
    if d < 0:
        raise ValueError("d must be a nonnegative integer")
    if not math.isfinite(f_max / B):
        raise ValueError(f"f_max/B must be finite (got f_max={f_max}, B={B})")
    L = max(d, 1) * int(math.floor(f_max / B))
    return BlindParameters(L=L, p=min(N * (d + 1) + 1, L))


def streams_to_csv(cs: CosetStreams, header_comment: str = "") -> str:
    """Coset streams as CSV, one row per ADC sample: m, then re/im per coset."""
    _one_capture(cs)
    cols = ["m"] + [f"s{i}_{part}" for i in range(cs.pattern.p) for part in ("re", "im")]
    values = np.ascontiguousarray(cs.samples.T).view(np.float64).tolist()
    return _csv_text(header_comment, cols, ([m, *row] for m, row in enumerate(values)))


def streams_from_csv(text: str, pattern: SamplingPattern) -> CosetStreams:
    data = _csv_rows(text, "m", 2 * pattern.p)
    return CosetStreams(data[:, 0::2].T + 1j * data[:, 1::2].T, pattern)
