"""Attractor sampling, box counting, slope fits, and raster output.

Points come from finite-depth evaluation of the coding-space projection,
anchored at the seed region's center; the truncation error alpha_plus^K
times the seed diameter rides along on every cloud so box-count scales can
be chosen above it.  All sampling is a pure function of
(spec, depth, mode, count, seed).

Box counting folds a point's d grid indices, offset by their per-axis
minimum, into one int64 key and counts the distinct keys of the sorted key
array; a scale whose key would leave int64 raises ``ValueError`` instead of
wrapping.  Each cloud caches its counts by scale, so ``select_scales`` and
``boxdim_fit`` count every scale once.  ``saturated`` marks a random-codes
count too close to the sample size to resolve the set; the CLI reports a fit
over such a scale with the flag ``sample_saturated``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, MoranDimError, UnresolvedTranslation
from .linalg import log_singular_values, op_norm
from .symbolic import Word
from .system import SystemSpec, hash_to_unit, mix64_batch, _mix64

FULL_ENUM_BUDGET = 10_000_000
# Half-open grid cells with a relative snap so points sitting exactly on a
# cell boundary (ternary-aligned fixtures) land in their own cell.
_GRID_SNAP = 1e-9
_INT64_LIMIT = 2 ** 63
# Share of the sample size above which a random-codes box count is saturated.
SATURATION_FRACTION = 0.1
# Most default scales offered, and fewest kept before saturation may stop them.
_MAX_SCALES = 8
_MIN_SCALES = 4


@dataclass
class PointCloud:
    """Sampled attractor points plus the parameters that generated them."""

    dim: int
    points: np.ndarray
    depth: int
    mode: str
    seed: int
    count: int
    trunc_error: float
    region_lo: np.ndarray | None = None
    region_hi: np.ndarray | None = None
    # epsilon -> occupied-cell count, filled by select_scales and boxdim_fit;
    # it assumes ``points`` is not changed once counted.
    box_counts: dict = field(default_factory=dict, init=False, compare=False, repr=False)


@dataclass
class BoxCountCurve:
    """Occupied-cell counts per scale and the log-log slope fit."""

    scales: list
    counts: list
    slope: float
    intercept: float
    r2: float


def _sup_norm(spec: SystemSpec) -> float:
    """sup of op norms over the schedule; defined even for singular maps."""
    return max(op_norm(m) for lvl in spec.schedule.levels for m in lvl.maps)


def _translation_arrays(spec: SystemSpec, codes: np.ndarray, seed: int):
    """Per-level translation vectors for each sampled word prefix.

    Returns a list W with W[k-1] of shape (N, d): the translation applied
    at step k for word prefix codes[:, :k].  Prefix-keyed hashing makes
    shared prefixes share translations without any cache.
    """
    scheme = spec.translations
    N, K = codes.shape
    d = spec.dim
    out = []
    if scheme.kind == "digit_grid":
        for k in range(1, K + 1):
            lvl = spec.level(k)
            if lvl.digits is None:
                raise UnresolvedTranslation(f"level {k} has no digits")
            digit_arr = np.asarray(lvl.digits, dtype=float)
            out.append(digit_arr[codes[:, k - 1]])
        return out
    if scheme.kind == "explicit":
        table = scheme.table or {}
        for k in range(1, K + 1):
            vecs = np.empty((N, d))
            for i in range(N):
                key = "-".join(str(int(c) + 1) for c in codes[i, : k])
                if key not in table:
                    raise UnresolvedTranslation(f"no table entry for word {key}")
                vecs[i] = table[key]
            out.append(vecs)
        return out
    # Hash-assigned schemes: rolling splitmix64 over 1-based digits.
    if scheme.kind == "finite_alphabet":
        base_seed = scheme.seed if scheme.seed is not None else 0
    else:
        base_seed = _mix64((seed & ((1 << 64) - 1)) ^ _mix64(scheme.seed or 0))
    h = np.full(N, _mix64(base_seed), dtype=np.uint64)
    alphabet = None
    if scheme.kind == "finite_alphabet":
        alphabet = np.asarray(scheme.alphabet, dtype=float)
    for k in range(1, K + 1):
        digit_mix = mix64_batch(codes[:, k - 1].astype(np.uint64) + np.uint64(1))
        h = mix64_batch(h ^ digit_mix)
        if scheme.kind == "finite_alphabet":
            idx = (h % np.uint64(len(alphabet))).astype(np.int64)
            out.append(alphabet[idx])
        else:  # random_iid, uniform over the region box
            lo, hi = scheme.region.lo, scheme.region.hi
            unit = np.stack([hash_to_unit(h, axis) for axis in range(d)], axis=1)
            out.append(lo + unit * (hi - lo))
    return out


def _project_codes(spec: SystemSpec, codes: np.ndarray, seed: int) -> np.ndarray:
    """Finite-depth projection of 0-based digit codes, anchored at center(J)."""
    N, K = codes.shape
    d = spec.dim
    translations = _translation_arrays(spec, codes, seed)
    x = np.tile(spec.seed_region.center, (N, 1))
    for k in range(K, 0, -1):
        maps = np.stack([m.entries for m in spec.level(k).maps])
        T = maps[codes[:, k - 1]]
        x = np.einsum("nij,nj->ni", T, x) + translations[k - 1]
    return x


def project(spec: SystemSpec, w: Word, seed: int = 0) -> np.ndarray:
    """Projection of one word at its own depth."""
    if len(w) < 1:
        raise ValueError("projection needs a word of length >= 1")
    codes = np.array([[dgt - 1 for dgt in w.digits]], dtype=np.int64)
    for k, dgt in enumerate(w.digits, start=1):
        if not 1 <= dgt <= spec.branch_count(k):
            raise MoranDimError(f"digit {dgt} invalid at level {k}")
    return _project_codes(spec, codes, seed)[0]


def _enumerate_codes(spec: SystemSpec, depth: int) -> np.ndarray:
    total = 1
    for k in range(1, depth + 1):
        n = spec.branch_count(k)
        if n >= np.iinfo(np.uint16).max:
            raise BudgetExceeded(f"level {k} branch count {n} too large to enumerate")
        total *= n
        if total > FULL_ENUM_BUDGET:
            raise BudgetExceeded(
                f"full enumeration to depth {depth} needs {total} > "
                f"{FULL_ENUM_BUDGET} words"
            )
    codes = np.zeros((1, 0), dtype=np.uint16)
    for k in range(1, depth + 1):
        n = spec.branch_count(k)
        N = codes.shape[0]
        rep = np.repeat(codes, n, axis=0)
        new = np.tile(np.arange(n, dtype=np.uint16), N)[:, None]
        codes = np.hstack([rep, new])
    return codes


def sample_cloud(spec: SystemSpec, depth: int, mode: str = "auto",
                 count: int | None = None, seed: int = 0) -> PointCloud:
    """Sample attractor points at a fixed coding depth.

    ``full_enumeration`` visits every depth-K word (guarded by the word
    budget); ``random_codes`` draws ``count`` words uniformly digit by
    digit from a seeded generator.  ``auto`` enumerates when that fits the
    budget and the requested count, else falls back to random codes.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if mode == "auto":
        total = 1
        for k in range(1, depth + 1):
            total *= spec.branch_count(k)
            if total > FULL_ENUM_BUDGET:
                break
        mode = "full_enumeration" if total <= FULL_ENUM_BUDGET else "random_codes"
    if mode == "full_enumeration":
        codes = _enumerate_codes(spec, depth)
    elif mode == "random_codes":
        if count is None:
            count = 100_000
        rng = np.random.Generator(np.random.PCG64(seed))
        cols = [rng.integers(0, spec.branch_count(k), size=count, dtype=np.int64)
                for k in range(1, depth + 1)]
        codes = np.stack(cols, axis=1)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    points = _project_codes(spec, codes, seed)
    trunc = (_sup_norm(spec) ** depth) * spec.seed_region.diameter
    return PointCloud(
        dim=spec.dim,
        points=points,
        depth=depth,
        mode=mode,
        seed=seed,
        count=points.shape[0],
        trunc_error=trunc,
        region_lo=spec.seed_region.lo.copy(),
        region_hi=spec.seed_region.hi.copy(),
    )


def _grid_keys(points: np.ndarray, epsilon: float) -> np.ndarray:
    """One int64 key per point for its half-open grid cell of side eps.

    The cell indices, offset by their per-axis minimum, fold row-major with
    strides from the per-axis spans, so keys lie in [0, prod(spans)) and two
    points share a key iff they share a cell.  Raises ``ValueError`` when an
    index or the key space would leave int64, i.e. when eps is too fine a
    grid for the points' extent; the check runs on the float indices before
    any cast, so nothing wraps.
    """
    cells = np.floor(points / epsilon + _GRID_SNAP)
    lo, hi = cells.min(axis=0), cells.max(axis=0)
    if not (lo.min() >= -_INT64_LIMIT and hi.max() < _INT64_LIMIT):  # also rejects nan
        raise ValueError(f"scale {epsilon!r} puts grid indices outside int64")
    # exact integers: a float inside the int64 range converts without loss
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    if math.prod(spans) >= _INT64_LIMIT:
        raise ValueError(f"scale {epsilon!r} is too fine for an int64 grid key over "
                         f"this cloud's extent")
    idx = cells.astype(np.int64)
    idx -= lo.astype(np.int64)  # fits: each span is below 2**63
    key = idx[:, 0].copy()
    for axis in range(1, idx.shape[1]):
        key *= spans[axis]
        key += idx[:, axis]
    return key


def box_count(cloud: PointCloud, epsilon: float) -> int:
    """Occupied half-open grid cells [i*eps, (i+1)*eps)^d anchored at the origin:
    the distinct values of the sorted ``_grid_keys``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if cloud.points.shape[0] == 0:
        return 0
    key = _grid_keys(cloud.points, epsilon)
    key.sort()
    return 1 + int(np.count_nonzero(np.diff(key)))


def _counted(cloud: PointCloud, epsilon: float) -> int:
    """``box_count`` through the cloud's cache, so each scale is counted once."""
    epsilon = float(epsilon)
    if epsilon not in cloud.box_counts:
        cloud.box_counts[epsilon] = box_count(cloud, epsilon)
    return cloud.box_counts[epsilon]


def saturated(cloud: PointCloud, count: int) -> bool:
    """Whether ``count`` occupied cells of a randomly sampled cloud are too many
    for the sample size to resolve; full enumerations never saturate."""
    return cloud.mode == "random_codes" and count > SATURATION_FRACTION * cloud.count


def boxdim_fit(cloud: PointCloud, scales) -> BoxCountCurve:
    """Least-squares slope of log N against log 1/eps over the given scales."""
    scales = [float(e) for e in scales]
    if len(set(scales)) < 2:
        raise ValueError("degenerate scale range: need >= 2 distinct scales")
    counts = [_counted(cloud, e) for e in scales]
    if any(c == 0 for c in counts):
        raise ValueError("empty cloud has no box-count slope")
    x = np.log(1.0 / np.asarray(scales))
    y = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / sst if sst > 0 else 1.0
    return BoxCountCurve(scales=scales, counts=counts, slope=float(slope),
                         intercept=float(intercept), r2=r2)


def default_scales(spec: SystemSpec, depth: int) -> list:
    """Geometric scales above the generation resolution.

    Base-3 aligned (even powers, matching the 9x3 block fixtures and making
    the ternary small-case oracles exact) when every singular value in the
    schedule is a power of 1/3; dyadic otherwise.  The smallest scale stays
    >= twice the depth-K piece diameter.
    """
    floor_eps = 2.0 * (_sup_norm(spec) ** depth) * spec.seed_region.diameter
    ternary = True
    for lvl in spec.schedule.levels:
        for m in lvl.maps:
            try:
                logs = log_singular_values(m)
            except MoranDimError:
                ternary = False
                continue
            for lv in logs:
                ratio = lv / math.log(1.0 / 3.0)
                if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                    ternary = False
    base, t, step = (3.0, 2, 2) if ternary else (2.0, 3, 1)
    scales = []
    while base ** (-t) >= floor_eps:
        scales.append(base ** (-t))
        t += step
    if len(scales) < 2:
        raise ValueError("depth too shallow for a scale range above the resolution")
    return scales[:_MAX_SCALES]


def select_scales(cloud: PointCloud, candidates) -> list:
    """Drop scales whose occupied-cell count saturates the sample size.

    For randomly sampled clouds the count at fine scales is capped by the
    number of samples, which flattens the log-log curve; counting stops at
    the first scale whose occupancy exceeds ``SATURATION_FRACTION`` of the
    cloud.  Full enumerations never saturate and pass through unchanged.
    """
    if cloud.mode != "random_codes":
        return list(candidates)
    kept = []
    for e in sorted(candidates, reverse=True):
        if saturated(cloud, _counted(cloud, e)) and len(kept) >= _MIN_SCALES:
            break
        kept.append(e)
    return kept


def render(cloud: PointCloud, resolution: int) -> np.ndarray:
    """Binary raster over the seed region's bounding box, origin lower-left.

    Returns a (resolution, resolution) uint8 array in display order (row 0
    on top); a pixel is 255 iff some point maps into it.
    """
    if cloud.dim != 2:
        raise DimensionMismatch("rendering needs a 2-dimensional cloud")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    raster = np.zeros((resolution, resolution), dtype=np.uint8)
    if cloud.points.shape[0] == 0:
        return raster
    pts = cloud.points
    if cloud.region_lo is not None:
        lo, hi = cloud.region_lo, cloud.region_hi
    else:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-300)
    scaled = (pts - lo) / span * resolution + _GRID_SNAP
    px = np.clip(np.floor(scaled[:, 0]).astype(np.int64), 0, resolution - 1)
    py = np.clip(np.floor(scaled[:, 1]).astype(np.int64), 0, resolution - 1)
    raster[resolution - 1 - py, px] = 255
    return raster


def write_pgm(raster: np.ndarray, path) -> None:
    """Write a binary portable graymap (P5, maxval 255)."""
    h, w = raster.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(raster.tobytes())


def occupied_pixels(raster: np.ndarray) -> int:
    return int(np.count_nonzero(raster))
