"""Small dense linear algebra for d x d contraction matrices.

Everything here is sized for d <= 8. Singular values are what the rest of
the package consumes, so they get both a plain and a log-domain form; the
log form stays finite for extremely contracted products whose entries
would underflow after squaring.  ``op_norms``, ``op_norm`` and
``log_singular_values`` take the largest singular value by one kernel,
``_unit_sigma1`` (exactly 1.0 for the 1 x 1 +-1); ``sv2_batch``'s closed
form through ``np.hypot`` can differ from its ``math.hypot`` in the last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonsingularityViolated

MAX_DIM = 8
SINGULAR_DET_TOL = 1e-14


@dataclass(frozen=True)
class Matrix:
    """A d x d real matrix, row-major, with 1 <= d <= 8 and finite entries."""

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"matrix must be square, got shape {arr.shape}")
        d = arr.shape[0]
        if not 1 <= d <= MAX_DIM:
            raise DimensionMismatch(f"dim must be in [1, {MAX_DIM}], got {d}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "dim", d)

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        return cls(np.asarray(rows, dtype=float))

    @classmethod
    def identity(cls, d: int) -> "Matrix":
        return cls(np.eye(d))

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def det(self) -> float:
        return float(np.linalg.det(self.entries))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ already counts as equal
        return hash((self.dim, (self.entries + 0.0).tobytes()))


@dataclass(frozen=True)
class SingularValues:
    """Singular values sorted descending, with their natural logs."""

    values: tuple
    log_values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("singular values must be sorted non-increasing")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "log_values", tuple(float(v) for v in self.log_values))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product a @ b."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    return Matrix(a.entries @ b.entries)


def sv2_batch(mats: np.ndarray) -> tuple:
    """Vectorized closed-form singular values for an (N, 2, 2) stack.

    Returns (sv1, sv2) arrays, descending per matrix.
    """
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    q = np.hypot((a + d) / 2.0, (c - b) / 2.0)
    r = np.hypot((a - d) / 2.0, (c + b) / 2.0)
    return q + r, np.abs(q - r)


def log_singular_values(t: Matrix) -> tuple:
    """Natural logs of the singular values of ``t``, descending.

    The matrix is rescaled by its largest entry before decomposition so
    that very small products keep finite logs; for d = 2 the smallest
    value comes from the exact log-determinant, which survives extreme
    contraction ratios.
    """
    arr = t.entries
    d = t.dim
    scale = float(np.max(np.abs(arr)))
    if scale == 0.0:
        raise NonsingularityViolated("zero matrix has no nonzero singular values")
    log_scale = math.log(scale)
    unit = arr / scale
    with np.errstate(divide="ignore", invalid="ignore"):  # a subnormal pivot
        sign, logabsdet = np.linalg.slogdet(unit)
    if sign == 0.0:
        raise NonsingularityViolated("matrix is singular")
    if d == 2:
        l1 = math.log(float(_unit_sigma1(unit[None])[0]))
        return (log_scale + l1, log_scale + float(logabsdet) - l1)
    vals = np.linalg.svd(unit, compute_uv=False)
    if vals[-1] <= 0.0:
        raise NonsingularityViolated("matrix is numerically singular")
    return tuple(log_scale + math.log(float(v)) for v in vals)


def singular_values(t: Matrix) -> SingularValues:
    """Singular values of a nonsingular matrix, descending.

    Rejects matrices with |det| <= 1e-14 rather than clamping: the cut-set
    and net-measure machinery assumes nonsingular maps.
    """
    if abs(t.det()) <= SINGULAR_DET_TOL:
        raise NonsingularityViolated(
            f"matrix is singular or near-singular (|det| <= {SINGULAR_DET_TOL})"
        )
    logs = log_singular_values(t)
    return SingularValues(tuple(math.exp(v) for v in logs), logs)


def op_norm(t: Matrix) -> float:
    """Largest singular value of ``t``: ``op_norms`` of a one-matrix stack."""
    return float(op_norms(t.entries[None])[0])


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
