"""Small dense linear algebra for d x d contraction matrices.

A map is a d x d float array, 1 <= d <= 8 with finite entries: a row of a
level's (n, d, d) ``array``, or any d x d array-like, which the per-map
functions read through ``as_map``.  Singular values are what the rest of
the package consumes, so they get both a plain and a log-domain form; the
log form stays finite for extremely contracted products whose entries
would underflow after squaring.  ``op_norms``, ``op_norm`` and
``log_singular_values`` take the largest singular value by one kernel,
``_unit_sigma1`` (exactly 1.0 for the 1 x 1 +-1); ``sv2_batch``'s closed
form through ``np.hypot`` can differ from its ``math.hypot`` in the last bit.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NonsingularityViolated

MAX_DIM = 8
SINGULAR_DET_TOL = 1e-14


def as_map(t) -> np.ndarray:
    """``t`` as a float64 d x d array, after checking 1 <= d <= 8 and that
    its entries are finite."""
    arr = np.asarray(t, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {arr.shape}")
    if not 1 <= arr.shape[0] <= MAX_DIM:
        raise DimensionMismatch(f"dim must be in [1, {MAX_DIM}], got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def dets(stack: np.ndarray) -> np.ndarray:
    """The determinant of each matrix of a (..., d, d) stack, without the
    warning that a subnormal pivot or a det past the float range raises."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.linalg.det(stack)


def sv2_batch(mats: np.ndarray) -> tuple:
    """Vectorized closed-form singular values for an (N, 2, 2) stack.

    Returns (sv1, sv2) arrays, descending per matrix.
    """
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    q = np.hypot((a + d) / 2.0, (c - b) / 2.0)
    r = np.hypot((a - d) / 2.0, (c + b) / 2.0)
    return q + r, np.abs(q - r)


def log_singular_values(t) -> tuple:
    """Natural logs of the singular values of the map ``t``, descending.

    The matrix is rescaled by its largest entry before decomposition so
    that very small products keep finite logs; for d = 2 the smallest
    value comes from the exact log-determinant, which survives extreme
    contraction ratios.  Only an exactly singular matrix is rejected.
    """
    arr = as_map(t)
    scale = float(np.max(np.abs(arr)))
    if scale == 0.0:
        raise NonsingularityViolated("zero matrix has no nonzero singular values")
    log_scale = math.log(scale)
    unit = arr / scale
    with np.errstate(divide="ignore", invalid="ignore"):  # a subnormal pivot
        sign, logabsdet = np.linalg.slogdet(unit)
    if sign == 0.0:
        raise NonsingularityViolated("matrix is singular")
    if len(arr) == 2:
        l1 = math.log(float(_unit_sigma1(unit[None])[0]))
        return (log_scale + l1, log_scale + float(logabsdet) - l1)
    vals = np.linalg.svd(unit, compute_uv=False)
    if vals[-1] <= 0.0:
        raise NonsingularityViolated("matrix is numerically singular")
    return tuple(log_scale + math.log(float(v)) for v in vals)


def exp_or_inf(x: float) -> float:
    """``math.exp(x)``, or inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def singular_values(t) -> tuple:
    """Singular values of a nonsingular map, descending, as floats (inf past the float range).

    Rejects matrices with |det| <= 1e-14 rather than clamping: the cut-set
    and net-measure machinery assumes nonsingular maps.
    """
    arr = as_map(t)
    if abs(float(dets(arr))) <= SINGULAR_DET_TOL:
        raise NonsingularityViolated(
            f"matrix is singular or near-singular (|det| <= {SINGULAR_DET_TOL})"
        )
    return tuple(map(exp_or_inf, log_singular_values(arr)))


def op_norm(t) -> float:
    """Largest singular value of the map ``t``: ``op_norms`` of a one-matrix stack."""
    return float(op_norms(as_map(t)[None])[0])


def _unit_sigma1(unit: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of an (n, d, d) stack rescaled by
    its largest entries: for d = 2 the closed form, with ``math.hypot``
    element by element (``np.hypot`` differs from it in the last bit on some
    inputs); for any other d one SVD."""
    if unit.shape[-1] != 2:
        return np.linalg.svd(unit, compute_uv=False)[:, 0]
    (a, b), (c, d) = unit.transpose(1, 2, 0)
    q, r = (np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, len(unit))
            for x, y in (((a + d) / 2.0, (c - b) / 2.0), ((a - d) / 2.0, (c + b) / 2.0)))
    return q + r


def op_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of an (n, d, d) stack, by
    ``_unit_sigma1``: 0.0 for a zero map, inf past the float range."""
    scale = np.abs(stack).max(axis=(1, 2))
    with np.errstate(over="ignore"):
        return scale * _unit_sigma1(stack / np.where(scale == 0.0, 1.0, scale)[:, None, None])
