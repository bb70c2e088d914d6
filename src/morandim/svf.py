"""The singular value cost function phi^s in plain and log form.

For 0 < s <= d with m the integer satisfying m-1 < s <= m,

    phi_s(T) = a_1 a_2 ... a_{m-1} * a_m^(s-m+1)

over the descending singular values a_i; for s > d it continues as
|det T|^(s/d), and phi_0 = 1 by convention so cut-set sums degenerate to
cardinality counts.  Estimators consume the log form exclusively: plain
products underflow double precision at the tree depths the estimators
routinely visit.  ``log_phi`` and ``phi`` take one map, a d x d array.
"""
from __future__ import annotations

import math

import numpy as np

from .linalg import exp_or_inf, log_singular_values


def branch_index(s: float, d: int) -> int:
    """The integer m with m-1 < s <= m, clamped to [1, d].

    s above the ambient dimension keeps m = d; the cut-set definition only
    reads singular values that exist.
    """
    if s <= 0:
        return 1
    return min(math.ceil(s), d)


def log_phi_from_logs(log_svs, s: float) -> np.ndarray:
    """Vectorized log phi^s from a (d, ...) array of descending log singular
    values, axis 0 the singular-value index; a (d,) vector gives a scalar."""
    logs = np.asarray(log_svs, dtype=float)
    d = logs.shape[0]
    if s < 0:
        raise ValueError("exponent s must be >= 0")
    if s == 0:
        return np.zeros(logs.shape[1:])
    if s > d:
        return (s / d) * logs.sum(axis=0)
    m = branch_index(s, d)
    out = (s - m + 1) * logs[m - 1]
    # the head log a_1 + ... + log a_{m-1}; one row is read as it is, not summed
    out += logs[0] if m == 2 else logs[:m - 1].sum(axis=0)
    return out


def log_phi(t, s: float) -> float:
    """log phi^s(T) of the map ``t``; finite wherever T is nonsingular and s >= 0."""
    return float(log_phi_from_logs(np.array(log_singular_values(t)), s))


def phi(t, s: float) -> float:
    """phi^s(T) in the plain domain: it may underflow, and is inf past the float range."""
    return exp_or_inf(log_phi(t, s))

