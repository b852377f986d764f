"""Sampling-pattern selection by matrix conditioning.

The reduced measurement matrix built from pattern C and cell set k governs
noise amplification through its condition number, so pattern search minimizes
cond over candidate offset sets: exhaustively for small problems, greedily
(sequential forward selection) otherwise, and from a randomized candidate
support when the true support is unknown.

Both searches score a stack of candidates in two passes.  A screen takes cond
from the eigenvalues of each candidate's row Gram, gathered from one table of
offset differences; the exact SVD then runs only on the candidates the
screen puts within roundoff of the best, and decides among them.  A stack
whose best screened cond is past what the screen's error bound trusts
(about 1e3) goes to the SVD whole.  The pick and the reported cond are those
of an SVD over every candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable, Iterable

import numpy as np

from .sampling import SamplingPattern, SpectralIndexSet, blind_parameters

__all__ = [
    "PatternSearchResult",
    "SearchBudgetError",
    "condition_number",
    "exhaustive_pattern_search",
    "sfs_pattern_search",
    "sfs_cost",
    "draw_anchors",
    "anchor_support",
    "blind_sfs",
    "random_pattern",
    "cond_histogram",
]

# relative singular-value floor below which a matrix counts as rank-deficient
RANK_RTOL = 1e-12
# Each difference-table entry sums q unit phases whose exponents are reduced
# mod L first, so it is exact to about 15*q*eps whatever L is.  The Gram's
# lmax is at least q (its diagonal), so the gather and eigvalsh move every
# eigenvalue by about 15*r*eps*lmax, and a screen cond by a relative
# _SCREEN_ERR * r * cond**2 (3.5e-8 at r = 20, cond = 1e3).  The shortlist
# margin _SCREEN_RTOL holds the SVD's argmin while it exceeds twice that
# error; a step whose best screen cond leaves less than a tenfold safety on
# that (cond about 1e3 at r = 30) goes to the SVD whole.
_SCREEN_RTOL = 1e-6
_SCREEN_ERR = 8 * np.finfo(float).eps


class SearchBudgetError(RuntimeError):
    pass


@dataclass(frozen=True)
class PatternSearchResult:
    pattern: SamplingPattern
    cond: float
    evaluations: int
    design_k: SpectralIndexSet | None = None


def condition_number(A: np.ndarray) -> float:
    """sigma_max/sigma_min of A; +inf at or below the rank tolerance.

    The tolerance is sigma_max * 1e-12 * max(A.shape), so numerically singular
    matrices report as infinite rather than as float noise.
    """
    A = np.asarray(A)
    if A.size == 0:
        raise ValueError("condition_number of an empty matrix")
    return float(_cond_stack(A))


def _phase_matrix(L: int, C: np.ndarray, karr: np.ndarray) -> np.ndarray:
    # scale-free form of the reduced measurement matrix (cond is scale invariant)
    return np.exp(2j * np.pi * np.einsum("...i,j->...ij", C, karr) / L)


def _cond_stack(mats: np.ndarray) -> np.ndarray:
    """condition_number of each matrix in a (..., r, q) stack."""
    s = np.linalg.svd(mats, compute_uv=False)
    tol = s[..., 0] * RANK_RTOL * max(mats.shape[-2:])
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s[..., -1] > tol, s[..., 0] / s[..., -1], np.inf)
    return np.where(s[..., 0] == 0.0, np.inf, out)


def _difference_table(L: int, karr: np.ndarray) -> np.ndarray:
    """D[m] = sum_k exp(2*pi*i*m*k/L): the row-Gram entry (A A^H)[a, b] of
    offsets with c_a - c_b = m (mod L)."""
    return np.exp(2j * np.pi * (np.outer(np.arange(L), karr) % L) / L).sum(axis=1)


def _argmin_cond(
    L: int, trials: np.ndarray, karr: np.ndarray, table: np.ndarray
) -> tuple[int, float]:
    """Index and cond of the first best-conditioned row of trials (n, r).

    Equal to the argmin of _cond_stack over every row: the Gram screen
    (table from _difference_table) shortlists the rows within _SCREEN_RTOL of
    its best, and the SVD decides among them in row order.  The SVD scores
    every row when the screen's best is past the level its error bound
    trusts (the comment at _SCREEN_RTOL).
    """
    r = trials.shape[1]
    gram = table[(trials[:, :, np.newaxis] - trials[:, np.newaxis, :]) % L]
    ev = np.linalg.eigvalsh(gram)
    # sigma_min^2 is the min(r, q)-th largest eigenvalue; the rest are zero
    lmin, lmax = ev[:, r - min(r, len(karr))], ev[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        screen = np.where(lmin > 0.0, np.sqrt(lmax / lmin), np.inf)
    best = screen.min()
    rows = np.arange(len(trials))
    if best < math.sqrt(_SCREEN_RTOL / (20 * _SCREEN_ERR * r)):
        rows = np.flatnonzero(screen <= best * (1.0 + _SCREEN_RTOL))
    conds = _cond_stack(_phase_matrix(L, trials[rows], karr))
    i = int(np.argmin(conds))
    return int(rows[i]), float(conds[i])


def _require_cells(k: SpectralIndexSet) -> None:
    if not k.k:
        raise ValueError("pattern search needs at least one active cell; k is empty")


def _chunks(it: Iterable, size: int):
    it = iter(it)
    while True:
        block = list(islice(it, size))
        if not block:
            return
        yield block


def exhaustive_pattern_search(
    L: int,
    p: int,
    k: SpectralIndexSet,
    T: float = 1.0,
    budget: int = 10**6,
) -> PatternSearchResult:
    """Minimize cond over all C(L, p) offset sets; ties go to the smallest C.

    Refuses when the candidate count exceeds the budget; use
    sfs_pattern_search for large problems.
    """
    _require_cells(k)
    total = math.comb(L, p)
    if total > budget:
        raise SearchBudgetError(
            f"exhaustive search needs {total} evaluations (> budget {budget}); "
            "use sfs_pattern_search instead"
        )
    karr = np.asarray(k.k)
    table = _difference_table(L, karr)
    best_cond = math.inf
    best_C: tuple[int, ...] | None = None
    # combinations() is lexicographic, so keeping strict improvements preserves
    # the smallest-C tie-break under chunked evaluation
    for block in _chunks(combinations(range(L), p), 4096):
        i, cond = _argmin_cond(L, np.asarray(block), karr, table)
        if cond < best_cond:
            best_cond = cond
            best_C = block[i]
    assert best_C is not None
    return PatternSearchResult(
        SamplingPattern(L, best_C, T), best_cond, total, design_k=k
    )


def sfs_pattern_search(
    L: int, p: int, k: SpectralIndexSet, T: float = 1.0
) -> PatternSearchResult:
    """Greedy forward selection of offsets minimizing cond at each step.

    Starts from the empty set and adds, p times, the offset whose addition
    gives the smallest condition number on the columns k.  Candidates whose
    SVD conds are exactly equal resolve to the smallest offset; near ties at
    roundoff are decided by the SVD's roundoff.  Costs p*L - p*(p-1)/2
    evaluations; the Gram screen (module docstring) sends only the near-best
    few of each step to the SVD.
    """
    if p > L:
        raise ValueError("p must not exceed L")
    _require_cells(k)
    karr = np.asarray(k.k)
    table = _difference_table(L, karr)
    cands = np.arange(L)
    chosen = np.zeros(0, dtype=int)
    evaluations = 0
    final_cond = math.inf
    for _ in range(p):
        rest = np.repeat(chosen[np.newaxis], len(cands), axis=0)
        trial = np.sort(np.concatenate((rest, cands[:, np.newaxis]), axis=1), axis=1)
        # the first of exactly equal conds is the smallest offset
        i, final_cond = _argmin_cond(L, trial, karr, table)
        evaluations += len(cands)
        chosen, cands = trial[i], cands[cands != cands[i]]
    return PatternSearchResult(
        SamplingPattern(L, tuple(chosen.tolist()), T), final_cond, evaluations, design_k=k
    )


def sfs_cost(L: int, p: int) -> int:
    """Evaluation count of the greedy search: p*L - p*(p-1)/2."""
    if p > L:
        raise ValueError("p must not exceed L")
    return p * L - p * (p - 1) // 2


def draw_anchors(N: int, d: int, L: int, rng: np.random.Generator) -> list[int]:
    """Draw band anchors a_1 < a_2 < ... with gaps > d, sequentially uniform.

    Each a_i is uniform over the range that keeps the remaining anchors
    feasible, i.e. a_i >= a_{i-1} + d + 1 and a_i <= L - (N-i+1)*(d+1).
    """
    if N * (d + 1) > L:
        raise ValueError(f"cannot place {N} anchors with spacing {d + 1} in {L} cells")
    anchors: list[int] = []
    lo = 0
    for i in range(N):
        hi = L - (N - i) * (d + 1)
        anchors.append(int(rng.integers(lo, hi + 1)))
        lo = anchors[-1] + d + 1
    return anchors


def anchor_support(anchors: Iterable[int], d: int, L: int) -> SpectralIndexSet:
    """Candidate support covering d+1 cells upward from each anchor."""
    cells: set[int] = set()
    for a in anchors:
        cells.update(range(a, a + d + 1))
    return SpectralIndexSet(tuple(sorted(cells)), L)


def _anchored_sfs(
    L: int, p: int, n_anchors: int, d: int, rng: np.random.Generator, T: float
) -> PatternSearchResult:
    """Greedy search against the cells of n_anchors random anchors."""
    k = anchor_support(draw_anchors(n_anchors, d, L, rng), d, L)
    return sfs_pattern_search(L, p, k, T=T)


def blind_sfs(
    N: int,
    B: float,
    f_max: float,
    d: int,
    seed: int,
    L: int | None = None,
    T: float | None = None,
) -> PatternSearchResult:
    """Pattern choice for unknown band locations.

    Derives (L, q_max, p) from the band count and width, places a maximal
    candidate support at random anchors, and runs the greedy search against
    it.  Deterministic for a fixed seed.  Pass L to override the derived
    period (needed when d = 0 fixes cells at the band resolution externally).
    """
    params = blind_parameters(N, B, f_max, d)
    L_eff = params.L if L is None else L
    rng = np.random.default_rng(seed)
    return _anchored_sfs(L_eff, min(params.p, L_eff), N, d, rng, 1.0 / f_max if T is None else T)


def random_pattern(L: int, p: int, rng: np.random.Generator) -> SamplingPattern:
    C = tuple(sorted(rng.choice(L, size=p, replace=False).tolist()))
    return SamplingPattern(L, C)


def cond_histogram(
    L: int,
    p: int,
    trials: int,
    seed: int,
    k: SpectralIndexSet | None = None,
    pattern: SamplingPattern | None = None,
    support_generator: Callable[[np.random.Generator], SpectralIndexSet] | None = None,
) -> np.ndarray:
    """Sample condition numbers for histogramming.

    Two modes: with a fixed cell set k, draw `trials` random offset patterns;
    with a fixed pattern plus a support generator, draw random supports
    against it.  Deterministic given the seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if (k is None) == (support_generator is None):
        raise ValueError("provide exactly one of k or support_generator")
    rng = np.random.default_rng(seed)
    if k is not None:
        karr = np.asarray(k.k)
        pats = np.stack(
            [np.sort(rng.choice(L, size=p, replace=False)) for _ in range(trials)]
        )
        return _cond_stack(_phase_matrix(L, pats, karr))
    if pattern is None:
        raise ValueError("support_generator mode requires a fixed pattern")
    C = np.asarray(pattern.C)
    vals = np.empty(trials)
    for i in range(trials):
        ki = support_generator(rng)
        vals[i] = _cond_stack(_phase_matrix(L, C[None, :], np.asarray(ki.k)))[0]
    return vals
