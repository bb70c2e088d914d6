"""Random systems and a brute-force net-measure oracle shared by the tests."""
import itertools
import math

import numpy as np

from morandim.linalg import op_norm
from morandim.symbolic import Word, product
from morandim.system import Box, LevelSpec, Schedule, SystemSpec, TranslationScheme


def reference_sigma1(unit) -> float:
    """Largest singular value of one d x d matrix rescaled by its largest
    entry: the closed form with ``math.hypot`` for d = 2, one SVD otherwise."""
    if unit.shape == (2, 2):
        (a, b), (c, d) = unit.tolist()
        return (math.hypot((a + d) / 2.0, (c - b) / 2.0)
                + math.hypot((a - d) / 2.0, (c + b) / 2.0))
    return float(np.linalg.svd(unit, compute_uv=False)[0])


def reference_op_norm(entries) -> float:
    """The op norm of one matrix by ``reference_sigma1``; 0.0 for a zero map."""
    scale = float(np.abs(entries).max())
    return 0.0 if scale == 0.0 else scale * reference_sigma1(entries / scale)


def reference_log_svs(entries):
    """Logs of one matrix's singular values, descending, by
    ``reference_sigma1``, the smaller one at d = 2 from log |det|; None for
    a matrix with a zero singular value."""
    scale = float(np.abs(entries).max())
    if scale == 0.0:
        return None
    unit = entries / scale
    with np.errstate(divide="ignore", invalid="ignore"):
        sign, logabsdet = np.linalg.slogdet(unit)
    if sign == 0.0:
        return None
    if unit.shape == (2, 2):
        l1 = math.log(reference_sigma1(unit))
        return (math.log(scale) + l1, math.log(scale) + float(logabsdet) - l1)
    vals = np.linalg.svd(unit, compute_uv=False)
    if vals[-1] <= 0.0:
        return None
    return tuple(math.log(scale) + math.log(float(v)) for v in vals)


def random_contraction(rng, d=2, entry=0.6, norms=(0.15, 0.9), min_det=1e-3):
    """A d x d matrix with entries uniform in (-entry, entry), drawn again
    until its op norm lies strictly inside ``norms`` and its |det| exceeds
    ``min_det``."""
    while True:
        m = rng.uniform(-entry, entry, (d, d))
        if norms[0] < op_norm(m) < norms[1] and abs(np.linalg.det(m)) > min_det:
            return m


def random_spec(rng, n_levels):
    """A 2-d system of ``n_levels`` distinct levels of 2 or 3 random
    contractions each, the last one repeating."""
    levels = []
    for _ in range(n_levels):
        n = int(rng.integers(2, 4))
        levels.append(LevelSpec(n, tuple(random_contraction(rng) for _ in range(n))))
    return SystemSpec(2, Schedule("explicit_prefix_then_periodic", tuple(levels), period=1),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(2), np.ones(2)))


def brute_cover_min(spec, s, k, K):
    """Explicitly enumerate every antichain cover with depths in [k, K]."""
    cache = {}

    def options(word, depth):
        node = product(spec, Word(word), cache)
        costs = []
        if depth >= k:
            costs.append(math.exp(node.log_phi(s)))
        if depth < K:
            child_opts = [options(word + (j,), depth + 1)
                          for j in range(1, spec.branch_count(depth + 1) + 1)]
            for combo in itertools.product(*child_opts):
                costs.append(sum(combo))
        return costs

    root_opts = [options((j,), 1) for j in range(1, spec.branch_count(1) + 1)]
    return min(sum(c) for c in itertools.product(*root_opts))
