"""Multiband signal model: spectral supports, test-signal synthesis, noise.

Signals are complex baseband with one-sided spectral support inside
[0, f_max].  A support is a finite union of half-open intervals [a, b);
boundary frequencies belong to the band below them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralSupport",
    "BandSpec",
    "MultibandSignalSpec",
    "TimeSeries",
    "NoiseModel",
    "lebesgue_measure",
    "occupancy",
    "nyquist_rate",
    "synthesize",
    "bandlimited_noise",
    "apply_noise",
    "timeseries_to_csv",
    "timeseries_from_csv",
]


@dataclass(frozen=True)
class SpectralSupport:
    """Finite union of disjoint half-open frequency intervals within [0, f_max]."""

    bands: tuple[tuple[float, float], ...]
    f_max: float

    def __post_init__(self):
        if self.f_max < 0:
            raise ValueError("f_max must be nonnegative")
        bands = tuple(sorted((float(a), float(b)) for a, b in self.bands))
        for a, b in bands:
            if not (0.0 <= a < b <= self.f_max):
                raise ValueError(f"band [{a}, {b}) must satisfy 0 <= a < b <= f_max={self.f_max}")
        for (a0, b0), (a1, b1) in zip(bands, bands[1:]):
            if a1 < b0:
                raise ValueError(f"bands [{a0},{b0}) and [{a1},{b1}) overlap")
        object.__setattr__(self, "bands", bands)


@dataclass(frozen=True)
class BandSpec:
    """One synthesized band: amplitude, width (Hz), time offset (s), carrier (Hz)."""

    amplitude: float
    width: float
    time_offset: float
    carrier: float


@dataclass(frozen=True)
class MultibandSignalSpec:
    """Parameters of the sinc-sum test signal.

    Each band occupies [carrier - width/2, carrier + width/2), which must lie
    inside [0, f_max].
    """

    bands: tuple[BandSpec, ...]
    f_max: float

    def __post_init__(self):
        bands = tuple(
            b if isinstance(b, BandSpec) else BandSpec(*b) for b in self.bands
        )
        for b in bands:
            if b.width <= 0:
                raise ValueError("band width must be positive")
            lo, hi = b.carrier - b.width / 2, b.carrier + b.width / 2
            if lo < -1e-12 or hi > self.f_max + 1e-12:
                raise ValueError(
                    f"band [{lo}, {hi}) falls outside [0, f_max={self.f_max}]"
                )
        object.__setattr__(self, "bands", bands)

    def support(self) -> SpectralSupport:
        """Occupied support; overlapping band intervals are merged."""
        ivs = sorted(
            (b.carrier - b.width / 2, b.carrier + b.width / 2) for b in self.bands
        )
        merged: list[list[float]] = []
        for a, b in ivs:
            a = max(a, 0.0)
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return SpectralSupport(tuple((a, b) for a, b in merged), self.f_max)

    def to_dict(self) -> dict:
        return {
            "f_max": self.f_max,
            "bands": [
                {"a": b.amplitude, "B": b.width, "t": b.time_offset, "f": b.carrier}
                for b in self.bands
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MultibandSignalSpec":
        try:
            bands = tuple(BandSpec(e["a"], e["B"], e["t"], e["f"]) for e in d["bands"])
            f_max = float(d["f_max"])
        except KeyError as exc:
            raise ValueError(f"signal spec is missing key {exc}") from None
        return cls(bands, f_max)


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled complex sequence with base period T."""

    samples: np.ndarray
    T: float

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        s = np.asarray(self.samples, dtype=np.complex128)
        bad = np.flatnonzero(~np.isfinite(s))
        if bad.size:
            raise ValueError(f"non-finite sample at index {bad[0]}")
        object.__setattr__(self, "samples", s)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class NoiseModel:
    """Acquisition noise: none, additive white Gaussian, or uniform quantizer.

    For kind="awgn", sigma is the standard deviation of the complex noise
    (total power sigma**2, split evenly between the two components).  The
    quantizer is mid-rise with 2**bits levels spanning [-full_scale/2,
    +full_scale/2] per component, saturating at full scale.
    """

    kind: str
    sigma: float = 0.0
    bits: int = 0
    full_scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "awgn", "quantizer"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "awgn" and self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.kind == "quantizer" and (self.bits < 1 or self.full_scale <= 0):
            raise ValueError("quantizer needs bits >= 1 and full_scale > 0")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls("none")

    @classmethod
    def awgn(cls, sigma: float) -> "NoiseModel":
        return cls("awgn", sigma=sigma)

    @classmethod
    def quantizer(cls, bits: int, full_scale: float) -> "NoiseModel":
        return cls("quantizer", bits=bits, full_scale=full_scale)


def lebesgue_measure(F: SpectralSupport) -> float:
    """Total occupied bandwidth, the sum of band widths."""
    return float(sum(b - a for a, b in F.bands))


def occupancy(F: SpectralSupport) -> float:
    """Ratio of occupied bandwidth to f_max, in [0, 1]."""
    if F.f_max <= 0:
        raise ValueError("occupancy undefined for f_max <= 0")
    return lebesgue_measure(F) / F.f_max


def nyquist_rate(F: SpectralSupport) -> float:
    """Smallest alias-free uniform rate for support F, exact for its band
    edges; at least the occupied measure lambda (Landau 1967).

    Rate theta aliases exactly when it lies strictly inside some interval
    ((a_j - b_i)/n, (b_j - a_i)/n), n >= 1, where shifting band i by n*theta
    overlaps band j.  So the answer is lambda or such a right endpoint, and
    f_max never aliases: from lambda the scan jumps to the largest right
    endpoint of the intervals holding the current rate until none does,
    comparing endpoints with the expression that produced them.
    """
    if not F.bands:
        raise ValueError("nyquist_rate requires a nonempty support")
    a, b = np.asarray(F.bands).T
    i, j = np.triu_indices(len(a), 1)
    lo, hi = a[j] - b[i], b[j] - a[i]
    theta = lebesgue_measure(F)
    while theta < F.f_max:
        # a pair's interval of length w_i + w_j <= lambda <= theta holds at
        # most one multiple of theta; the neighbors absorb rounding in lo/theta
        n = np.maximum(np.floor(lo / theta) + np.arange(3)[:, np.newaxis], 1.0)
        right = hi / n
        inside = (lo / n < theta) & (theta < right)
        if not inside.any():
            return float(theta)
        theta = float(right[inside].max())
    return float(F.f_max)


def synthesize(spec: MultibandSignalSpec, T: float, M: int) -> TimeSeries:
    """Sample the sinc-sum multiband model at t = nT, n = 0..M-1.

    Each band contributes amplitude * sinc(width*(t - t0)) * exp(j*2*pi*f*t)
    with sinc(x) = sin(pi x)/(pi x).  T must not exceed 1/f_max, otherwise
    the sampled signal would alias.
    """
    if M <= 0:
        raise ValueError("M must be positive")
    if T > 1.0 / spec.f_max + 1e-15:
        raise ValueError(f"T={T} risks aliasing; need T <= 1/f_max = {1.0/spec.f_max}")
    t = np.arange(M) * T
    x = np.zeros(M, dtype=np.complex128)
    for b in spec.bands:
        x += b.amplitude * np.sinc(b.width * (t - b.time_offset)) * np.exp(
            2j * np.pi * b.carrier * t
        )
    return TimeSeries(x, T)


def bandlimited_noise(F: SpectralSupport, T: float, M: int, seed: int) -> TimeSeries:
    """Stationary complex Gaussian signal of unit rms whose DFT support lies
    exactly in F.

    Useful as a communication-like test input for sensing experiments: unlike
    the pulsed sinc model, its per-cell contents are mutually incoherent.
    """
    if M <= 0:
        raise ValueError("M must be positive")
    if T > 1.0 / F.f_max + 1e-15:
        raise ValueError(f"T={T} risks aliasing; need T <= 1/f_max = {1.0/F.f_max}")
    rng = np.random.default_rng(seed)
    freqs = np.arange(M) / (M * T)
    mask = np.zeros(M, dtype=bool)
    for a, b in F.bands:
        mask |= (freqs >= a) & (freqs < b)
    n_active = int(mask.sum())
    x = np.zeros(M, dtype=np.complex128)
    if n_active:
        spec = np.zeros(M, dtype=np.complex128)
        spec[mask] = (
            rng.standard_normal(n_active) + 1j * rng.standard_normal(n_active)
        ) / np.sqrt(2.0)
        # ifft carries 1/M; rescale so the output rms is 1
        x = np.fft.ifft(spec) * (M / math.sqrt(n_active))
    return TimeSeries(x, T)


def apply_noise(x: TimeSeries, model: NoiseModel, seed: int = 0) -> TimeSeries:
    """Apply the acquisition-noise model; identical seeds give identical output."""
    if model.kind == "none":
        return x
    if model.kind == "awgn":
        if model.sigma == 0.0:
            return x
        rng = np.random.default_rng(seed)
        n = len(x.samples)
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (
            model.sigma / np.sqrt(2.0)
        )
        return TimeSeries(x.samples + noise, x.T)
    # mid-rise quantizer with saturation; error <= step/2 for in-range input
    step = model.full_scale / (2**model.bits)
    lo = -model.full_scale / 2 + step / 2
    hi = model.full_scale / 2 - step / 2

    def q(v: np.ndarray) -> np.ndarray:
        return np.clip(step * (np.floor(v / step) + 0.5), lo, hi)

    return TimeSeries(q(x.samples.real) + 1j * q(x.samples.imag), x.T)


def _csv_text(comment: str, columns, rows) -> str:
    """The package's one CSV format: a "# comment" line when comment is not
    empty, the header, then one line per row.  Floats are written by
    float.__repr__, so they read back exactly; other values by str."""
    lines = [f"# {comment}"] if comment else []
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(float.__repr__(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _csv_rows(text: str, index: str, width: int) -> np.ndarray:
    """Read _csv_text output whose first column, named index, numbers the
    rows: the (rows, width) float array of the other columns.  Skips blank
    and "#" lines and the header; every data row must hold 1 + width fields,
    and the index must run contiguous and ascending from any start."""
    rows = [
        line.split(",")
        for line in text.splitlines()
        if line and not line.startswith("#") and line.split(",", 1)[0] != index
    ]
    start = int(rows[0][0]) if rows else 0
    for row, fields in enumerate(rows):
        if len(fields) != 1 + width:
            raise ValueError(f"CSV data row {row} has {len(fields)} fields, expected {1 + width}")
        n = int(fields[0])
        if n != start + row:
            raise ValueError(f"CSV data row {row} has index {n}, expected {start + row}")
    return np.array([[float(v) for v in r[1:]] for r in rows]).reshape(-1, width)


def timeseries_to_csv(ts: TimeSeries, header_comment: str = "") -> str:
    """Render a TimeSeries as CSV with columns n, re, im; n counts from 0."""
    rows = zip(range(len(ts)), ts.samples.real.tolist(), ts.samples.imag.tolist())
    return _csv_text(header_comment, ["n", "re", "im"], rows)


def timeseries_from_csv(text: str, T: float) -> TimeSeries:
    """Read timeseries_to_csv output; the index may start anywhere."""
    data = _csv_rows(text, "n", 2)
    return TimeSeries(data[:, 0] + 1j * data[:, 1], T)
