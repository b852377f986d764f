"""Wideband spectrum sensing for cognitive radio on multi-coset samples.

The band [0, f_max] is split into L = f_max/B channels; a multi-coset front
end at compression p/L feeds the blind-recovery chain (filter, correlate,
order-select, localize), and the complement of the occupied channel set is
reported as free for secondary use.  Monte-Carlo sweeps estimate detection
probability against SNR and compression ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blind
from .patterns import _anchored_sfs, condition_number
from .sampling import (
    CosetStreams,
    SamplingPattern,
    SpectralIndexSet,
    build_measurement_matrix,
    coset_decompose,
    reduce_matrix,
)
from .signals import TimeSeries

__all__ = [
    "SensingConfig",
    "SensingReport",
    "PdPoint",
    "PdResult",
    "plan_sensing",
    "sense",
    "pd_sweep",
]

@dataclass(frozen=True)
class SensingConfig:
    """Sensing-run parameters.

    f_max/B must be an integer channel count.  omega is the worst-case
    occupancy used for planning.  p defaults to round(L*omega)+1 and may be
    pinned explicitly; an unset pattern is drawn with the greedy search
    against randomly anchored candidate cells (seeded).  SNR is defined as
    in-band signal power over total noise power in [0, f_max].
    """

    f_max: float
    B: float
    omega: float
    order_method: str = "mdl"
    localize_method: str = "music"
    pattern: SamplingPattern | None = None
    p: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.f_max <= 0 or self.B <= 0:
            raise ValueError("f_max and B must be positive")
        ratio = self.f_max / self.B
        if not all(math.isfinite(v) for v in (self.f_max, self.B, ratio)):
            raise ValueError(f"f_max, B and f_max/B must be finite (got f_max={self.f_max}, B={self.B})")
        if abs(ratio - round(ratio)) > 1e-9 * ratio or round(ratio) < 1:
            raise ValueError(f"B={self.B} must divide f_max={self.f_max}")
        if not 0 < self.omega < 1:
            raise ValueError("omega must lie strictly between 0 and 1")
        if self.order_method not in blind.ORDER_METHODS:
            raise ValueError(f"order_method must be one of {blind.ORDER_METHODS}")
        if self.localize_method not in blind.LOCALIZE_METHODS:
            raise ValueError(f"localize_method must be one of {blind.LOCALIZE_METHODS}")
        if self.pattern is not None and not isinstance(self.pattern, SamplingPattern):
            raise ValueError(f"pattern must be a SamplingPattern or None (got {self.pattern!r})")

    @property
    def L(self) -> int:
        return int(round(self.f_max / self.B))


@dataclass(frozen=True)
class SensingReport:
    occupied: SpectralIndexSet
    free_channels: tuple[tuple[float, float], ...]
    q_hat: int
    diagnostics: dict


@dataclass(frozen=True)
class PdPoint:
    snr_db: float
    cr: float
    trials: int
    detections: int
    pd: float
    ci95: float


@dataclass(frozen=True)
class PdResult:
    rows: tuple[PdPoint, ...]


def _auto_pattern(L: int, p: int, f_max: float, seed: int) -> SamplingPattern:
    """Greedy pattern against p-1 randomly anchored single-cell candidates."""
    rng = np.random.default_rng([seed, L, p])
    return _anchored_sfs(L, p, max(p - 1, 1), 0, rng, 1.0 / f_max).pattern


def plan_sensing(cfg: SensingConfig) -> SamplingPattern:
    """The sampling pattern for cfg: cfg.pattern, or one planned for it.

    The expected number of simultaneously active channels is L*omega, so one
    spare row (p = round(L*omega) + 1, capped at L) makes the reduced system
    solvable; an explicit cfg.p overrides it.
    """
    L = cfg.L
    if L * cfg.omega < 1.0:
        raise ValueError(
            f"resolution too coarse: L*omega = {L * cfg.omega:.3g} < 1 "
            "(no channel expected active)"
        )
    if cfg.pattern is not None:
        if cfg.pattern.L != L:
            raise ValueError("supplied pattern has mismatched L")
        return cfg.pattern
    p = cfg.p if cfg.p is not None else min(int(round(L * cfg.omega)) + 1, L)
    return _auto_pattern(L, p, cfg.f_max, cfg.seed)


def sense(cfg: SensingConfig, x: TimeSeries) -> SensingReport:
    """Blind occupancy detection: occupied channels and the free complement.

    The input must be sampled at the base rate 1/f_max.  Free channels are
    reported as intervals [i*B, (i+1)*B) for every index i outside the
    occupied set.  MUSIC marks every channel whose pseudo-spectrum value is
    above ten times the median as occupied.  Diagnostics carry the
    eigenvalues, the conditioning of the reduced system on the detected
    cells, and degradation flags.
    """
    if abs(x.T - 1.0 / cfg.f_max) > 1e-9 * x.T:
        raise ValueError(f"series period {x.T} is not 1/f_max = {1.0 / cfg.f_max}")
    pattern = plan_sensing(cfg)
    streams = coset_decompose(x, pattern)
    report = blind.estimate_support(
        streams,
        order_method=cfg.order_method,
        localize_method=cfg.localize_method,
        select="threshold",
    )
    k_hat, q_hat = report.k_hat, report.q_hat
    A = build_measurement_matrix(pattern)
    cond = condition_number(reduce_matrix(A, k_hat)) if k_hat.q else 1.0
    free_idx = k_hat.complement().k
    free = tuple((i * cfg.B, (i + 1) * cfg.B) for i in free_idx)
    diagnostics = {
        "cond": cond,
        "eigenvalues": report.eigs.values.tolist(),
        "pattern": pattern.to_dict(),
        "snapshots": report.snapshots,
        "order_method": cfg.order_method,
        "localize_method": cfg.localize_method,
        "snr_definition": "in-band signal power over total noise power in [0, f_max]",
        "degraded_confidence": bool(not math.isfinite(cond) or cond > 1e6),
        "under_provisioned": bool(q_hat >= pattern.p - 1),
        "filter_meets_spec": report.filter_meets_spec,
    }
    return SensingReport(
        occupied=k_hat, free_channels=free, q_hat=q_hat, diagnostics=diagnostics
    )


def _coset_trials(
    pattern: SamplingPattern, n_blocks: int, snr_db: float, trials: int, key: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One grid point's pd trials: unit-noise tones in random channels, as coset samples.

    Channels, phases and (trials, 2, p, n_blocks) real noise each come from
    their own child of SeedSequence(key), with the trial as the leading axis,
    so the first t trials of any draw equal a draw of t.  Only the samples at
    the coset positions j*L + c_i are drawn.  Returns the channels, the
    phases and the (trials, p, n_blocks) samples.
    """
    L, p = pattern.L, pattern.p
    s_channel, s_phase, s_noise = np.random.SeedSequence(key).spawn(3)
    channels = np.random.default_rng(s_channel).integers(L, size=trials)
    phases = np.random.default_rng(s_phase).uniform(0.0, 2.0 * np.pi, size=trials)
    noise = np.random.default_rng(s_noise).standard_normal((trials, 2, p, n_blocks))
    samples = np.empty((trials, p, n_blocks), dtype=np.complex128)
    samples.real, samples.imag = noise[:, 0], noise[:, 1]
    samples *= math.sqrt(0.5)
    # The tone exp(i(w*n + phase)), w = 2*pi*(m + 1/2)/L, at n = j*L + c_i is
    # exp(i(w*c_i + phase)) * exp(i*w*j*L), and w*L = pi*(2m + 1) makes the
    # second factor exactly (-1)**j.
    amp = math.sqrt(10.0 ** (snr_db / 10.0))  # unit total noise power
    w = 2.0 * np.pi * (channels + 0.5) / L
    cell = amp * np.exp(1j * (w[:, None] * np.asarray(pattern.C) + phases[:, None]))
    samples[..., 0::2] += cell[..., None]
    samples[..., 1::2] -= cell[..., None]
    return channels, phases, samples


def _detected(report: blind.BlindReport, channel: int, metric: str) -> bool:
    if metric == "contains":
        return channel in report.k_hat.k and report.k_hat.q <= max(report.q_hat, 1)
    return report.k_hat.k == (channel,)


def pd_sweep(
    cfg_template: SensingConfig,
    snr_db_list,
    cr_list,
    trials: int,
    seed: int,
    n_blocks: int = 100,
    metric: str = "exact",
) -> PdResult:
    """Detection probability of a single tone in a random channel.

    For every (SNR, compression ratio) pair, runs `trials` independent
    experiments with fresh noise, a fresh random channel, and a fresh phase;
    a detection requires the occupied set to equal the true channel exactly
    (metric="exact") or to contain it within the estimated order
    (metric="contains").  Each compression ratio must give an integer coset
    count p = cr*L >= 2 and gets its own planned pattern, so the template
    must leave pattern and p unset.  Cells are selected in the top-q form,
    which remains meaningful at p = 2 where threshold selection cannot
    isolate a single wide peak.  A point's random streams are keyed on (seed, p, SNR
    value) and draw only the samples the ADCs take, with the trial as the
    leading axis: so its counts do not depend on which other grid points are
    swept or in what order, and the first t trials of a run with more trials
    are the t trials of a run with `trials=t`.  (Counts differ from versions
    that keyed per-trial streams on grid indices.)  All trials of one
    compression ratio run as one batch of estimate_support_batch, whose
    reports do not depend on what else is in the batch.
    """
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1 (got {trials!r})")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer (got {seed!r})")
    if metric not in ("exact", "contains"):
        raise ValueError("metric must be 'exact' or 'contains'")
    if cfg_template.pattern is not None or cfg_template.p is not None:
        raise ValueError(
            "pd_sweep designs one pattern per compression ratio: leave the template's pattern and p unset"
        )
    snrs = [float(s) for s in snr_db_list]
    if not all(math.isfinite(s) for s in snrs):
        raise ValueError(f"snr_db_list must hold finite values (got {snrs})")
    L = cfg_template.L
    patterns: list[tuple[float, SamplingPattern]] = []
    for cr in cr_list:
        p_exact = cr * L
        p = int(round(p_exact))
        if abs(p_exact - p) > 1e-9 or p < 2:
            raise ValueError(f"CR={cr} must give an integer p = CR*L >= 2 (got {p_exact})")
        pat = _auto_pattern(L, p, cfg_template.f_max, cfg_template.seed + p)
        patterns.append((float(cr), pat))
    rows: list[PdPoint] = []
    for cr, pat in patterns:
        stack = np.empty((len(snrs) * trials, pat.p, n_blocks), dtype=np.complex128)
        channels = np.empty(len(snrs) * trials, dtype=np.int64)
        for i_snr, snr_db in enumerate(snrs):
            sl = slice(i_snr * trials, (i_snr + 1) * trials)
            # the SNR enters as its float64 bits, -0.0 read as 0.0
            key = [int(seed), pat.p, int(np.float64(snr_db + 0.0).view(np.uint64))]
            channels[sl], _, stack[sl] = _coset_trials(pat, n_blocks, snr_db, trials, key)
        reports = blind.estimate_support_batch(
            CosetStreams(stack, pat),
            order_method=cfg_template.order_method,
            localize_method=cfg_template.localize_method,
        )
        hits = [_detected(r, c, metric) for r, c in zip(reports, channels.tolist())]
        for i_snr, snr_db in enumerate(snrs):
            det = sum(hits[i_snr * trials : (i_snr + 1) * trials])
            pd = det / trials
            ci95 = 1.96 * math.sqrt(max(pd * (1.0 - pd), 1e-12) / trials)
            rows.append(
                PdPoint(
                    snr_db=snr_db,
                    cr=float(cr),
                    trials=trials,
                    detections=det,
                    pd=pd,
                    ci95=ci95,
                )
            )
    return PdResult(tuple(rows))
