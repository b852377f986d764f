"""Sampling-pattern selection by matrix conditioning.

The reduced measurement matrix built from pattern C and cell set k governs
noise amplification through its condition number, so pattern search minimizes
cond over candidate offset sets: exhaustively for small problems, greedily
(sequential forward selection) otherwise, and from a randomized candidate
support when the true support is unknown.

The matrix is a row selection of the DFT matrix: shifting every offset
(C + t mod L) multiplies it by a unit diagonal and reflecting them (-C mod
L) conjugates it, so neither moves cond (Venkataramani & Bresler 2000).
Both searches score only sets that contain offset 0, and the greedy
search's second step only c <= L/2.  Every phase comes reduced mod L from
sampling._unit_phases, so the roundoff the screens allow for does not grow
with L.

Both searches score a stack of candidates in two passes.  A screen returns
certified bounds lo <= cond <= hi for every candidate: its eigenvalue bounds
widen by one roundoff term (at _CERT_ERR) that covers the SVD's own
roundoff, so each candidate's SVD cond lies inside them.  The exact SVD then
decides in row order among the candidates whose lo reaches the smallest hi
(every candidate when each hi is infinite), so the pick and the reported
cond are those of an SVD over every candidate.  A greedy step other than the
last skips the SVD when one candidate is left, since that one is the argmin.

There are two screens.  The stacked screen takes the extreme eigenvalues of
every candidate's row Gram from one eigvalsh, gathered from one table of
offset differences.  The secular screen serves a greedy step that adds row r
to s = r - 1 chosen rows: every candidate's Gram is the chosen rows' Gram
bordered by one row, so one eigh of that shared s x s Gram turns each
candidate into an arrowhead matrix.  Its eigenvalues are the roots of a
secular equation f(x) = 0 with f' <= -1 between poles, so an iterate x
between the two poles that bracket a root is within |f(x)| of it.  A few
vectorized rational steps (pole axis first: sums over poles run on the
leading axis) approach sigma_max**2 (the largest root) and sigma_min**2 (the
smallest root while r <= q, the root between the two smallest nonzero poles
after that).  The exhaustive search, a single cell and steps with fewer than
_SECULAR_MIN_WORK candidates * r**2 (where eigvalsh is cheaper) keep the
stacked screen; only they build every candidate's rows.  Of the 3810
candidates of the criterion-9 design (L = 200, p = 20), 3511 are scored, 21
reach the shortlists, 5 of them go to 3 SVDs, and 495 stacked Grams go to
eigvalsh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice
from typing import Callable, Iterable

import numpy as np

from .sampling import SamplingPattern, SpectralIndexSet, _unit_phases, blind_parameters

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
    "cond_histogram",
]

# relative singular-value floor below which a matrix counts as rank-deficient
RANK_RTOL = 1e-12
# Both screens widen their eigenvalue bounds by the roundoff term
# _CERT_ERR * r * lmax, which by Weyl's theorem covers every error below
# whatever L is.  Every phase is a gather from the table exp(2j*pi*m/L),
# m < L (sampling._unit_phases), off by at most (3*pi + 2)*eps: three
# roundings of 2*pi*m/L < 2*pi, and exp's own.  A difference-table entry sums
# q of them, exact to about 15*q*eps <= 15*eps*lmax (lmax is at least q, the
# Gram's diagonal), and the gather from it is exact.  Even at twice that,
# (6*pi + 2)*eps per entry, the SVD's r x q matrix moves sigma**2 by at most
# 2*sqrt(r*q)*(6*pi + 2)*eps*sqrt(lmax) <= 42*sqrt(r)*eps*lmax.  eigvalsh,
# eigh and the SVD are backward stable to a few r*eps*lmax.  So at r = 2 the
# sum, 59 + 15 + a few 2, is well below 64*r (a one-row Gram is q exactly).
# The roundoff of f itself is bounded apart (_root_bounds).
# _SECULAR_STEPS rational steps bring |f| below that term on separated poles.
_EPS = np.finfo(float).eps
_CERT_ERR = 64 * _EPS
_SECULAR_STEPS = 3
# A greedy step with fewer than _SECULAR_MIN_WORK candidates * r**2 keeps the
# stacked screen.  On an (n, r) grid (n 10-390, r 2-20; one thread, 2-vCPU
# x86_64 host; the stacked screen building every candidate's rows) the two
# crossed at n * r**2 of 600-3600 before r = q (lower at larger n) and
# 2700-5500 past it.  Over 54 planner designs (L 20-200, p from L/10 to 3L/10)
# the total search time moved under 3% for any crossover from 1500 to 4000, so
# it stays at 4000, which the L = 32 designs favour.
_SECULAR_MIN_WORK = 4000


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


def _cond_stack(mats: np.ndarray) -> np.ndarray:
    """condition_number of each matrix in a (..., r, q) stack."""
    s = np.linalg.svd(mats, compute_uv=False)
    tol = s[..., 0] * RANK_RTOL * max(mats.shape[-2:])
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s[..., -1] > tol, s[..., 0] / s[..., -1], np.inf)
    return np.where(s[..., 0] == 0.0, np.inf, out)


def _difference_table(L: int, karr: np.ndarray) -> np.ndarray:
    """D[m] = sum_k exp(2*pi*i*m*k/L): the row-Gram entry (A A^H)[a, b] of
    offsets with c_a - c_b = m (mod L).  Offsets in [0, L) index it by their
    difference alone, since numpy counts a negative m from the end."""
    return _unit_phases(L, np.arange(L), karr).sum(axis=1)


def _cond_bounds(r: int, top: tuple, bot: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Certified bounds lo <= cond <= hi of r x q phase matrices, from bounds
    (lo, hi) on sigma_max**2 (top) and sigma_min**2 (bot) that the roundoff
    term at _CERT_ERR widens."""
    err = _CERT_ERR * r * top[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(bot[1] + err > 0.0, np.sqrt((top[0] - err) / (bot[1] + err)), np.inf)
        hi = np.where(bot[0] - err > 0.0, np.sqrt((top[1] + err) / (bot[0] - err)), np.inf)
    return lo, hi


def _stacked_screen(table: np.ndarray, trials: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Certified bounds lo <= cond <= hi for each row of trials (n, r) on q
    cells, from one eigvalsh of each row's Gram, gathered from table
    (_difference_table)."""
    r = trials.shape[1]
    ev = np.linalg.eigvalsh(table[trials[:, :, np.newaxis] - trials[:, np.newaxis, :]])
    # sigma_min^2 is the min(r, q)-th largest eigenvalue; the rest are zero
    lmin, lmax = ev[:, r - min(r, q)], ev[:, -1]
    return _cond_bounds(r, (lmax, lmax), (lmin, lmin))


def _bordered(chosen: np.ndarray, cands: np.ndarray, idx: np.ndarray | slice = slice(None)) -> np.ndarray:
    """The sorted offset rows chosen + c (len(idx), r) of the candidates c = cands[idx]."""
    c = cands[idx, np.newaxis]
    return np.sort(np.concatenate((np.repeat(chosen[np.newaxis], len(c), axis=0), c), axis=1), axis=1)


def _svd_argmin(
    L: int, karr: np.ndarray, lo: np.ndarray, hi: np.ndarray, rows_of: Callable, need_cond: bool = True
) -> tuple[int, float]:
    """Index and cond of the first best-conditioned candidate, from certified
    bounds lo <= cond <= hi and rows_of(idx), the offset rows of candidates
    idx: the SVD decides in order among those whose lo reaches the smallest hi
    (all when every hi is infinite).  A lone one holds the smallest hi and is
    the argmin; without need_cond its cond is not computed (nan)."""
    rows = np.flatnonzero(lo <= hi.min())
    if len(rows) == 1 and not need_cond:
        return int(rows[0]), math.nan
    conds = _cond_stack(_unit_phases(L, rows_of(rows), karr))
    i = int(np.argmin(conds))
    return int(rows[i]), float(conds[i])


def _pole_root(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Positive root t of t**2 - a*t - c = 0 (c >= 0), without cancellation."""
    h = 0.5 * (np.abs(a) + np.sqrt(a * a + 4.0 * c))
    return np.where(a > 0.0, h, c / h)


def _top_root(lam: np.ndarray, w: np.ndarray, q: np.ndarray | float) -> np.ndarray:
    """Rational iterates x (..., n) toward the largest root of each secular
    equation f(x) = q - x + sum_i w_i / (x - lam_i), pole axis first: lam
    (s, ..., 1) ascending, w (s, ..., n) >= 0 and q (..., 1).

    Each iterate stays right of that root (Bunch, Nielsen & Sorensen 1978):
    the start solves the one-pole quadratic with the top pole's own weight
    and the other terms frozen at that pole, which overstates them, and each
    step solves the one-pole model c/(x - top) + e matching the sum's value
    and slope at x, which lies above the sum right of the top pole.  The
    Weyl bound max(top, q) + |z| caps the start, and every iterate keeps
    a few eps off the top pole, which a deflated top weight would otherwise
    reach (the largest eigenvalue is then the pole itself, and f < 0 just
    right of it says so to _root_bounds).
    """
    top = lam[-1]
    g, a = top - lam, q - top
    floor = _EPS * (np.abs(top) + np.abs(q))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.fmin(
            _pole_root(a + (w[:-1] / g[:-1]).sum(axis=0), w[-1]),
            np.maximum(a, 0.0) + np.sqrt(w.sum(axis=0)),
        )
        t = np.fmax(t, floor)
        # in t = x - top, where each pole lies g below 0
        for _ in range(_SECULAR_STEPS):
            d = t + g
            u = w / d
            c = (u / d).sum(axis=0) * t * t
            t = np.fmax(_pole_root(a + u.sum(axis=0) - c / t, c), floor)
    return top + t


def _inner_root(lam: np.ndarray, w: np.ndarray, q: float, j: int) -> np.ndarray:
    """Rational iterates x (n,) toward the root of each secular equation (as
    in _top_root; lam (s, 1), w (s, n)) between the poles lam[j - 1], lam[j].

    From the midpoint, whose sign of f tells which pole is nearer the root,
    each step solves the two-pole model a + P/(x - lo) + S/(x - hi) of the
    fixed weight method (Bunch, Nielsen & Sorensen 1978): the nearer pole
    keeps its own weight, and the other pole's weight and a match the value
    and slope of f at x.  The model's root always lies between the poles.
    """
    lo, gap = lam[j - 1], lam[j] - lam[j - 1]
    g, b = lam - lo, q - lo
    t = np.full(w.shape[1:], 0.5 * gap)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # in t = x - lo, where those poles lie at 0 and gap
        for step in range(_SECULAR_STEPS):
            d = t - g
            u = w / d
            du = u / d
            f = b - t + u.sum(axis=0)
            if step == 0:
                near_hi = f > 0.0
            slope = 1.0 + du.sum(axis=0)
            e = t - gap
            P = np.where(near_hi, (slope - du[j]) * (t * t), w[j - 1])
            S = np.where(near_hi, w[j], (slope - du[j - 1]) * (e * e))
            a = f - P / t - S / e
            # the root in (0, gap) of a*t**2 + (P + S - a*gap)*t - P*gap
            B = P + S - a * gap
            sq = np.sqrt(B * B + 4.0 * a * P * gap)
            t = np.where(B > 0.0, 2.0 * P * gap / (B + sq), (sq - B) / (2.0 * a))
    return lo + t


def _root_bounds(
    lam: np.ndarray, w: np.ndarray, q: np.ndarray | float, x: np.ndarray, below: np.ndarray | float,
    above: np.ndarray | float, lo_cap: np.ndarray | float, hi_cap: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the eigenvalue of each arrowhead [[diag(lam), z], [z^H, q]]
    (w = |z|**2, shapes of _top_root) that interlacing puts in [lo_cap,
    hi_cap] and whose root of f lies between the poles below and above,
    from iterates x; before the matrix roundoff term.

    By inertia, an arrowhead has #{lam_i < x} + [f(x) < 0] eigenvalues below
    any x off the poles, and f' <= -1 between poles.  So for an iterate
    strictly between below and above, the sign of f tells on which side of x
    that eigenvalue lies, and it is within |f(x)| of x (both up to the
    roundoff of f, whose s + 2 terms each carry a few eps); an iterate
    elsewhere certifies nothing.
    """
    inside = (x > below) & (x < above)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = w / (x - lam)
        f = q - x + u.sum(axis=0)
        f_err = (len(lam) + 4) * _EPS * (np.abs(q) + np.abs(x) + np.abs(u).sum(axis=0))
        radius = np.where(inside, np.abs(f) + f_err, np.inf)
        lo = np.where(inside & (f - f_err > 0.0), x, x - radius)
        hi = np.where(inside & (f + f_err < 0.0), x, x + radius)
    return np.fmax(lo, lo_cap), np.fmin(hi, hi_cap)


def _outer_bounds(
    lam: np.ndarray, w: np.ndarray, q: np.ndarray | float, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """_root_bounds for the largest eigenvalue, which lies right of every pole
    and in [max(top, q), max(top, q) + |z|] (interlacing, the diagonal, Weyl)."""
    top = lam[-1]
    base = np.maximum(top, q)
    return _root_bounds(lam, w, q, x, top, np.inf, base, base + np.sqrt(w.sum(axis=0)))


def _secular_screen(
    table: np.ndarray, chosen: np.ndarray, cands: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """Certified bounds lo <= cond <= hi for adding each of cands (n,) to
    the chosen rows (s,) on q cells, s >= 1, q >= 2.

    The chosen rows' Gram G = V diag(lam) V^H is bordered by
    b_c = D[(chosen - c) mod L] and q, which V turns into the arrowhead with
    z = V^H b_c.  sigma_max**2 is its largest eigenvalue.  sigma_min**2 is
    its (s + 2 - min(s + 1, q))-th smallest: while s < q the smallest, the
    top one of the negated arrowhead (stacked with the top one), and after
    that the root between lam[s - q] and lam[s - q + 1].  _cond_bounds
    widens them by the roundoff term at _CERT_ERR, which also covers z.
    """
    s = len(chosen)
    lam, V = np.linalg.eigh(table[chosen[:, np.newaxis] - chosen])
    z = V.conj().T @ table[chosen[:, np.newaxis] - cands]
    w = z.real**2 + z.imag**2
    if s < q:
        lam2 = np.stack((lam, -lam[::-1]), axis=1)[..., np.newaxis]
        w2 = np.stack((w, w[::-1]), axis=1)
        q2 = np.array([[q], [-q]], dtype=float)
        lo2, hi2 = _outer_bounds(lam2, w2, q2, _top_root(lam2, w2, q2))
        top, bot = (lo2[0], hi2[0]), (-hi2[1], -lo2[1])
    else:
        lam = lam[:, np.newaxis]
        top = _outer_bounds(lam, w, q, _top_root(lam, w, q))
        j = s - q + 1
        x = _inner_root(lam, w, q, j)
        bot = _root_bounds(lam, w, q, x, lam[j - 1], lam[j], lam[j - 1], lam[j])
    return _cond_bounds(s + 1, top, bot)


def _check_p(L: int, p: int) -> None:
    if not 1 <= p <= L:
        raise ValueError(f"pattern search needs 1 <= p <= L; got p={p}, L={L}")


def _check_search(L: int, p: int, k: SpectralIndexSet) -> None:
    _check_p(L, p)
    if k.L != L:
        raise ValueError(f"cell set k is built for L={k.L}, not for the search's L={L}")
    if not k.k:
        raise ValueError("pattern search needs at least one active cell; k is empty")


def exhaustive_pattern_search(
    L: int,
    p: int,
    k: SpectralIndexSet,
    T: float = 1.0,
    budget: int = 10**6,
) -> PatternSearchResult:
    """Minimize cond over all C(L, p) offset sets.

    Every set is a shift (C + t mod L, equal cond) of one that contains 0,
    so only the C(L-1, p-1) sets with c_0 = 0 are scored; evaluations
    counts the C(L, p) sets this decides.  Returns the first minimum of
    their SVD conds in lexicographic order of C, scored through the stacked
    screen (module docstring).  Raises ValueError unless 1 <= p <= L, k is
    built for L and k is not empty, and refuses when C(L, p) exceeds the
    budget; use sfs_pattern_search for large problems.
    """
    _check_search(L, p, k)
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
    # combinations() is lexicographic, so keeping strict improvements keeps
    # the first minimum under chunked evaluation
    combos = ((0, *c) for c in combinations(range(1, L), p - 1))
    while block := list(islice(combos, 4096)):
        trials = np.asarray(block)
        i, cond = _svd_argmin(L, karr, *_stacked_screen(table, trials, len(karr)), trials.__getitem__)
        if cond < best_cond:
            best_cond, best_C = cond, block[i]
    assert best_C is not None
    return PatternSearchResult(SamplingPattern(L, best_C, T), best_cond, total, design_k=k)


def sfs_pattern_search(
    L: int, p: int, k: SpectralIndexSet, T: float = 1.0
) -> PatternSearchResult:
    """Greedy forward selection of offsets minimizing cond at each step.

    Starts from offset 0 and adds, p - 1 times, the offset whose addition
    gives the smallest condition number on the columns k.  Candidates whose
    SVD conds are exactly equal resolve to the smallest offset; near ties at
    roundoff are decided by the SVD's roundoff.  Costs p*L - p*(p-1)/2
    evaluations.  Symmetry settles step 1's L unscored (every one-row
    candidate has cond exactly 1, so offset 0 wins) and step 2's c > L/2
    ({0, c} reflects to {0, L - c}, of equal cond).
    Each later step screens its candidates (module docstring): the
    secular screen bounds every candidate's cond from one eigh of the chosen
    rows' Gram, the stacked screen (small steps) from one eigvalsh per
    candidate.  The SVD decides among those the bounds keep, on the last
    step and wherever they keep more than one; on the criterion-9 design it
    runs 3 times, on 5 rows.  Raises ValueError unless 1 <= p <= L, k is
    built for L and k is not empty.
    """
    _check_search(L, p, k)
    karr = np.asarray(k.k)
    table = _difference_table(L, karr)
    chosen, rest, final_cond = np.zeros(1, dtype=int), np.arange(1, L), 1.0
    for r in range(2, p + 1):
        # {0, c} reflects to {0, L - c}; the first of equal conds is the smallest c
        cands = rest[: L // 2] if r == 2 else rest
        if len(karr) > 1 and len(cands) * r**2 >= _SECULAR_MIN_WORK:
            bounds = _secular_screen(table, chosen, cands, len(karr))
            rows_of = partial(_bordered, chosen, cands)
        else:
            trial = _bordered(chosen, cands)
            bounds = _stacked_screen(table, trial, len(karr))
            rows_of = trial.__getitem__
        i, final_cond = _svd_argmin(L, karr, *bounds, rows_of, need_cond=r == p)
        chosen, rest = rows_of([i])[0], rest[rest != cands[i]]
    return PatternSearchResult(
        SamplingPattern(L, tuple(chosen.tolist()), T), final_cond, sfs_cost(L, p), design_k=k
    )


def sfs_cost(L: int, p: int) -> int:
    """Evaluation count of the greedy search, p*L - p*(p-1)/2, for 1 <= p <= L."""
    _check_p(L, p)
    return p * L - p * (p - 1) // 2


def draw_anchors(N: int, d: int, L: int, rng: np.random.Generator) -> list[int]:
    """Draw band anchors a_1 < a_2 < ... with gaps > d, sequentially uniform.

    Each a_i is uniform over the range that keeps the remaining anchors
    feasible, i.e. a_i >= a_{i-1} + d + 1 and a_i <= L - (N-i+1)*(d+1).
    Raises ValueError unless N >= 1, d >= 0 and N*(d+1) <= L.
    """
    if N < 1 or d < 0:
        raise ValueError(f"draw_anchors needs N >= 1 and d >= 0; got N={N}, d={d}")
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
) -> PatternSearchResult:
    """Pattern choice for unknown band locations, at base period T = 1/f_max.

    Derives (L, p) from the band count and width, places a maximal
    candidate support at random anchors, and runs the greedy search against
    it.  Deterministic for a fixed seed.  Pass L to override the derived
    period (needed when d = 0 fixes cells at the band resolution externally).
    """
    params = blind_parameters(N, B, f_max, d)
    L_eff = params.L if L is None else L
    rng = np.random.default_rng(seed)
    return _anchored_sfs(L_eff, min(params.p, L_eff), N, d, rng, 1.0 / f_max)


def cond_histogram(
    L: int,
    p: int,
    trials: int,
    seed: int,
    k: SpectralIndexSet | None = None,
    pattern: SamplingPattern | None = None,
    N: int | None = None,
    d: int = 1,
) -> np.ndarray:
    """Sample condition numbers for histogramming.

    Two modes: with a fixed cell set k, draw `trials` random offset patterns;
    with a fixed pattern and a band count N, draw `trials` random supports
    against it, each the d + 1 cells upward from N anchors of draw_anchors.
    Deterministic given the seed.  Raises ValueError when L or p disagrees
    with the pattern.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if (k is None) == (N is None):
        raise ValueError("provide exactly one of k or N")
    rng = np.random.default_rng(seed)
    if k is not None:
        pats = np.stack(
            [np.sort(rng.choice(L, size=p, replace=False)) for _ in range(trials)]
        )
        return _cond_stack(_unit_phases(L, pats, k.k))
    if pattern is None:
        raise ValueError("random supports need a fixed pattern")
    if (pattern.L, pattern.p) != (L, p):
        raise ValueError(f"L={L}, p={p} disagree with the pattern's L={pattern.L}, p={pattern.p}")
    # the anchors' cells never overlap, so every support has N*(d + 1) cells
    cells = np.array([anchor_support(draw_anchors(N, d, L, rng), d, L).k for _ in range(trials)])
    return _cond_stack(_unit_phases(L, pattern.C, cells).transpose(1, 0, 2))
