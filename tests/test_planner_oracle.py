"""Planner-quality oracle: how well the sensing planner's patterns serve
blind detection.

sensing._auto_pattern designs each pattern by the greedy search against
p - 1 randomly anchored cells.  Two counts are taken on fixed seeds:

- ambiguous patterns per 200 planner seeds: gcd(L, C) > 1 (C holds 0), so
  two cells share a measurement column and no detector can tell them apart;
- exact recoveries by sense on a seeded scene family: q occupied channels
  of band-limited noise at 20 dB, q = p - 2 at L = 20 and q = p/2 at
  L = 200 (with 18 of 20 the threshold selection over-reports whatever the
  pattern is).

The counts are pinned.  A change that moves planner patterns updates the
pins and reports the old and new counts: no family may lose more than two
binomial standard errors.
"""

import math

import numpy as np
import pytest

from subnyq import NoiseModel, SensingConfig, SpectralSupport, apply_noise, bandlimited_noise, sense
from subnyq.sensing import _auto_pattern


def recovered(L, p, q, seed, M, snr_db=20.0):
    """Whether sense reports exactly the q occupied channels of scene seed."""
    # the planner keys its own draws on [seed, L, p]
    rng = np.random.default_rng([seed, L, p, 1])
    cells = np.sort(rng.choice(L, q, replace=False))
    F = SpectralSupport(tuple((float(c), float(c + 1)) for c in cells), float(L))
    x = bandlimited_noise(F, 1.0 / L, M, seed=int(rng.integers(2**31)))
    sigma = math.sqrt(np.mean(np.abs(x.samples) ** 2) / 10.0 ** (snr_db / 10.0))
    x = apply_noise(x, NoiseModel.awgn(sigma), seed=int(rng.integers(2**31)))
    cfg = SensingConfig(f_max=float(L), B=1.0, omega=0.1, p=p, seed=seed)
    return sense(cfg, x).occupied.k == tuple(cells.tolist())


@pytest.mark.parametrize("L,p,count", [(20, 4, 30), (20, 5, 37), (20, 6, 16), (200, 20, 0)])
def test_ambiguous_planner_patterns(L, p, count):
    assert sum(math.gcd(L, *_auto_pattern(L, p, float(L), seed).C) > 1 for seed in range(200)) == count


@pytest.mark.parametrize(
    "L,p,q,M,scenes,count",
    [(20, 4, 2, 8000, 100, 64), (20, 5, 3, 8000, 100, 37), (20, 6, 4, 8000, 100, 50), (200, 20, 10, 40000, 50, 48)],
)
def test_exact_recoveries(L, p, q, M, scenes, count):
    assert sum(recovered(L, p, q, seed, M) for seed in range(scenes)) == count
