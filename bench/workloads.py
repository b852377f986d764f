"""The four benchmark workloads: inputs, the op, and the oracle for each.

A workload turns (seed, op index) into the inputs of one op, runs the op
through the public `subnyq` API, and judges the output with an oracle that
does not trust the program's own error report.  Every program function is
looked up on the package at call time, so the traced run's wrappers see each
call.  Input generation is bench code: the program only receives its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

import subnyq as sn
from subnyq import patterns as sn_patterns


@dataclass(frozen=True)
class Verdict:
    """Oracle result: a failure reason (None when correct) and the op's quality value."""

    reason: str | None
    quality: float | None = None


@dataclass(frozen=True)
class Quality:
    """A per-op accuracy figure and how ops are combined into one number."""

    name: str
    unit: str
    combine: Callable[[list[float]], float]


@dataclass(frozen=True)
class Workload:
    item: str  # what one unit of work_per_s counts
    size: dict  # recorded with every result
    make_input: Callable[[int, int], Any]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], Verdict]
    items: Callable[[Any], int]  # work items done by one op, from its output
    fingerprint: Callable[[Any], Any]  # must repeat when an input is rerun
    corrupt: Callable[[Any], Any]  # a wrong output the oracle must reject
    quality: Quality | None = None
    # judges the outputs of all the run's ops together, after the run
    run_check: Callable[[list[Any]], Verdict] | None = None


def _keys(seed: int, i: int, n: int) -> list[int]:
    """n independent program seeds for op i of a run."""
    return [int(v) for v in np.random.default_rng([seed, i]).integers(2**31, size=n)]


def binomial_tail(k: int, n: int, p: float) -> float:
    """Probability of k or more successes in n trials of probability p."""
    return sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1))


def fisher_drop(k_lo: int, k_hi: int, n: int) -> float:
    """One-sided Fisher exact p-value that k_hi < k_lo detections out of n
    each arise from equal detection probabilities."""
    total = k_lo + k_hi
    return sum(
        math.comb(n, x) * math.comb(n, total - x) for x in range(k_lo, min(n, total) + 1)
    ) / math.comb(2 * n, total)


# Criterion 9: four occupied bands below f_max = 2.
SENSE_BANDS = ((0.47, 0.50), (0.824, 0.849), (0.869, 0.894), (1.88, 1.90))


def sense_wideband(smoke: bool = False) -> Workload:
    """Criterion-9 sensing: one long capture, so per-sample kernels dominate."""
    f_max, B, omega, p, snr_db = 2.0, 0.01, 0.1, 20, 20.0
    M = 20_000 if smoke else 200_000
    support = sn.SpectralSupport(SENSE_BANDS, f_max)
    L = int(round(f_max / B))
    truth = sn.spectral_index_from_support(support, L)
    free_truth = sorted(set(range(L)) - set(truth.k))

    # criterion 9's planner seed; every op still runs the pattern design
    cfg = sn.SensingConfig(f_max=f_max, B=B, omega=omega, p=p, seed=5)

    def make_input(seed, i):
        s_sig, s_noise = _keys(seed, i, 2)
        x = sn.bandlimited_noise(support, 1.0 / f_max, M, seed=s_sig)
        sigma = math.sqrt(float(np.mean(np.abs(x.samples) ** 2)) / 10 ** (snr_db / 10))
        return cfg, sn.apply_noise(x, sn.NoiseModel.awgn(sigma), seed=s_noise)

    def check(inp, report):
        if report.occupied.k != truth.k:
            return Verdict(f"occupied {report.occupied.k} != truth {truth.k}")
        free = sorted(int(round(lo / B)) for lo, _ in report.free_channels)
        if free != free_truth:
            return Verdict("free channels are not the complement of the truth")
        return Verdict(None)

    return Workload(
        item="samples",
        size={"f_max": f_max, "B": B, "L": L, "omega": omega, "p": p, "planner_seed": 5,
              "M": M, "snr_db": snr_db, "bands": [list(b) for b in SENSE_BANDS]},
        make_input=make_input,
        op=lambda inp: sn.sense(*inp),
        check=check,
        items=lambda report: M,
        fingerprint=lambda report: report.occupied.k,
        corrupt=lambda report: replace(
            report, occupied=sn.SpectralIndexSet(report.occupied.k[1:], L)
        ),
    )


PD_SNR_DB = (-10.0, -5.0, 0.0, 5.0, 10.0, 20.0, 30.0)
PD_CR = (0.1, 0.2, 0.3)


def pd_sweep(smoke: bool = False) -> Workload:
    """Criterion-10 grid: thousands of tiny captures, so per-call overhead dominates."""
    f_max, B, omega, n_blocks = 20.0, 1.0, 0.15, 100
    trials = 3 if smoke else 8
    # Criterion 10's planner seed.  Other seeds can give ambiguous patterns
    # (e.g. all-even offsets at L = 20), a planner defect the oracle rejects.
    cfg = sn.SensingConfig(f_max=f_max, B=B, omega=omega, seed=1)

    def make_input(seed, i):
        return cfg, _keys(seed, i, 1)[0]

    def op(inp):
        cfg, s_trials = inp
        return sn.pd_sweep(cfg, PD_SNR_DB, PD_CR, trials=trials, seed=s_trials, n_blocks=n_blocks)

    def hits_of(result):
        return {(r.cr, r.snr_db): r.detections for r in result.rows}

    def pairs():
        """Adjacent grid points (lower, higher) along SNR and along CR."""
        for cr in PD_CR:
            yield from (((cr, lo), (cr, hi)) for lo, hi in zip(PD_SNR_DB, PD_SNR_DB[1:]))
        for snr in PD_SNR_DB:
            yield from (((lo, snr), (hi, snr)) for lo, hi in zip(PD_CR, PD_CR[1:]))

    # Criterion 10's rules, restated for 8 trials per point.  Its monotonicity
    # tolerance two_prop_tol is a normal approximation sized for 400 trials;
    # at 8 it failed about one op in 700 on the seed code.  So each adjacent
    # pair that drops is tested exactly, and pd(0.3, 30 dB) >= 0.99 becomes a
    # binomial test; either rejects at probability 1e-4.
    def check(inp, result):
        hits = hits_of(result)
        if set(hits) != {(c, s) for c in PD_CR for s in PD_SNR_DB}:
            return Verdict("grid points missing from the result")
        if any(r.trials != trials or not 0 <= r.detections <= trials for r in result.rows):
            return Verdict("trial or detection counts out of range")
        for lo, hi in pairs():
            if hits[hi] < hits[lo] and fisher_drop(hits[lo], hits[hi], trials) < 1e-4:
                return Verdict(f"detections fall from {hits[lo]} at {lo} to {hits[hi]} at {hi} (CR, SNR dB)")
        if binomial_tail(trials - hits[(0.3, 30.0)], trials, 0.01) < 1e-4:
            return Verdict(f"pd(0.3, 30 dB) = {hits[(0.3, 30.0)]}/{trials} is below 0.99")
        return Verdict(None, float(np.mean([r.pd for r in result.rows])))

    # The same rules on the detections summed over the run's ops (about 400
    # trials per point in a 20 s run), which per-op counts of 8 are too few
    # to enforce: a drop between adjacent points fails at probability 1e-6.
    # Criterion 10's two_prop_tol is not used here.  On the seed code pd at
    # CR 0.2 levels off at 0.992-0.997 from 0 to 30 dB while CR 0.1 reaches
    # 1.000, and simulated from 1000-trial estimates that rule fails 2% of
    # runs at 400 trials per point, 7% at 480 and 30% at 670.
    def run_check(results):
        n = trials * len(results)
        hits = {key: 0 for key in hits_of(results[0])}
        for result in results:
            for key, h in hits_of(result).items():
                hits[key] += h
        for lo, hi in pairs():
            if hits[hi] < hits[lo] and fisher_drop(hits[lo], hits[hi], n) < 1e-6:
                return Verdict(f"over {n} trials detections fall from {hits[lo]} at {lo} to {hits[hi]} at {hi} (CR, SNR dB)")
        if hits[(0.3, 30.0)] < 0.99 * n:
            return Verdict(f"over {n} trials pd(0.3, 30 dB) = {hits[(0.3, 30.0)] / n:.4f} < 0.99")
        return Verdict(None)

    def corrupt(result):
        rows = tuple(
            replace(r, detections=0, pd=0.0) if (r.cr, r.snr_db) == (0.3, 30.0) else r
            for r in result.rows
        )
        return replace(result, rows=rows)

    return Workload(
        item="trials",
        size={"f_max": f_max, "B": B, "L": int(f_max / B), "omega": omega,
              "n_blocks": n_blocks, "samples_per_trial": int(n_blocks * f_max / B),
              "snr_db": list(PD_SNR_DB), "cr": list(PD_CR), "trials_per_point": trials,
              "planner_seed": 1},
        make_input=make_input,
        op=op,
        check=check,
        items=lambda result: sum(r.trials for r in result.rows),
        fingerprint=lambda result: tuple(r.detections for r in result.rows),
        corrupt=corrupt,
        quality=Quality("pd_mean", "ratio", lambda v: float(np.mean(v))),
        run_check=run_check,
    )


# design_filter's straddle filter centres its transition on each cell edge
# with edge gain about one half.  Where an active cell borders an inactive
# one, content in the transition is attenuated by design, and since the
# coset streams alias every cell onto one baseband cell, the recovery is
# then inexact within the transition of every cell edge, not only that one
# (up to 0.068 relative error in 150 draws).  For N_h = 383 at the default
# ripples (Kaiser sizing: 41.9 dB over 382 taps) half the transition is
# 0.099 cell.  The criterion-3 bound applies to the bins clear of it, as
# criterion 8's comparison does; the error over all bins is recorded as
# rel_err.
HALF_TRANSITION_CELLS = 0.1


def reconstruct_known(smoke: bool = False) -> Workload:
    """Criterion-3 family at M = 32768: the CLI reconstruct path in-process."""
    f_max, T, L, p, N_h = 5.0, 0.2, 32, 12, 383
    M = 4096 if smoke else 32768
    widths, amplitude = (0.6, 0.3, 0.4), 0.5
    delay = (N_h - 1) // 2
    nb = M // L  # FFT bins per cell
    edge = math.ceil(HALF_TRANSITION_CELLS * nb)

    def make_input(seed, i):
        rng = np.random.default_rng([seed, i])
        carriers = rng.uniform([w / 2 for w in widths], [f_max - w / 2 for w in widths])
        offsets = rng.uniform(0.25, 0.75, size=len(widths)) * M * T
        spec = sn.MultibandSignalSpec(
            tuple(sn.BandSpec(amplitude, w, float(t0), float(c))
                  for w, t0, c in zip(widths, offsets, carriers)),
            f_max,
        )
        return spec, sn.synthesize(spec, T, M)

    def op(inp):
        spec, x = inp
        k = sn.spectral_index_from_support(spec.support(), L)
        pattern = sn.sfs_pattern_search(L, p, k, T=T).pattern
        streams = sn.coset_decompose(x, pattern)
        filt = sn.design_filter(L, N_h)
        return sn.reconstruct_time(streams, k, filt, reference=x)

    def check(inp, report):
        spec, x = inp
        ref, rec = x.samples, report.x_rec.samples
        if rec.shape != ref.shape:
            return Verdict(f"output length {rec.shape} != input length {ref.shape}")
        k = sn.spectral_index_from_support(spec.support(), L)
        if report.k.k != k.k:
            return Verdict(f"cells {report.k.k} != support cells {k.k}")
        lo, hi = delay, M - delay
        err = float(np.linalg.norm(rec[lo:hi] - ref[lo:hi]) / np.linalg.norm(ref[lo:hi]))
        # criterion 3 on the bins clear of every cell edge's transition
        pos = np.arange(M) % nb
        clear = (pos >= edge) & (pos < nb - edge)
        ref_f, rec_f = np.fft.fft(ref), np.fft.fft(rec)
        err_clear = float(np.linalg.norm((rec_f - ref_f)[clear]) / np.linalg.norm(ref_f[clear]))
        if not err_clear <= 0.03:
            return Verdict(f"relative error {err_clear:.4g} > 0.03 clear of the cell edges", err)
        # criterion 8: the filter-free frequency solve agrees on the
        # high-energy clear bins of the active cells
        full_freq = sn.reconstruct_frequency(
            sn.coset_decompose(x, report.pattern), k).assemble_full_spectrum(M)
        mask = clear & np.isin(np.arange(M) // nb, k.k)
        mask &= np.abs(full_freq) > 0.05 * np.abs(full_freq).max()
        if mask.sum() <= 50:
            return Verdict(f"only {int(mask.sum())} high-energy bins to compare", err)
        rel = float(np.median(np.abs(rec_f[mask] - full_freq[mask]) / np.abs(full_freq[mask])))
        if rel > 0.05:
            return Verdict(f"time and frequency routes differ by {rel:.4g} > 0.05", err)
        return Verdict(None, err)

    return Workload(
        item="samples",
        size={"f_max": f_max, "T": T, "L": L, "p": p, "N_h": N_h, "M": M,
              "band_widths": list(widths), "half_transition_cells": HALF_TRANSITION_CELLS},
        make_input=make_input,
        op=op,
        check=check,
        items=lambda report: len(report.x_rec.samples),
        fingerprint=lambda report: (report.pattern.C, report.k.k, f"{report.rmse:.10g}"),
        corrupt=lambda report: replace(
            report, x_rec=sn.TimeSeries(report.x_rec.samples * 1.1, report.x_rec.T)
        ),
        quality=Quality("rel_err", "ratio", lambda v: float(np.median(v))),
    )


def pattern_design(smoke: bool = False) -> Workload:
    """Greedy pattern search alone, at twice the criterion-9 L."""
    L, p = (100, 10) if smoke else (400, 20)

    def make_input(seed, i):
        rng = np.random.default_rng([seed, i])
        return sn_patterns.anchor_support(sn_patterns.draw_anchors(p - 1, 0, L, rng), 0, L)

    def check(k, result):
        if (result.pattern.L, result.pattern.p) != (L, p):
            return Verdict(f"pattern has L={result.pattern.L}, p={result.pattern.p}")
        A = sn.build_measurement_matrix(result.pattern)
        cond = sn.condition_number(sn.reduce_matrix(A, k))
        if not abs(result.cond - cond) <= 1e-9 * cond:
            return Verdict(f"reported cond {result.cond!r} != recomputed {cond!r}")
        if result.evaluations != sn.sfs_cost(L, p):
            return Verdict(f"{result.evaluations} evaluations != sfs_cost {sn.sfs_cost(L, p)}")
        return Verdict(None, cond)

    return Workload(
        item="designs",
        size={"L": L, "p": p, "cells": p - 1, "evaluations": sn.sfs_cost(L, p)},
        make_input=make_input,
        op=lambda k: sn.sfs_pattern_search(L, p, k),
        check=check,
        items=lambda result: 1,
        fingerprint=lambda result: (result.pattern.C, result.cond),
        corrupt=lambda result: replace(result, cond=result.cond * 1.001),
        quality=Quality("cond_median", "ratio", lambda v: float(np.median(v))),
    )


WORKLOADS = {
    w.__name__: w for w in (sense_wideband, pd_sweep, reconstruct_known, pattern_design)
}
