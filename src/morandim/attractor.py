"""Attractor sampling, box counting, slope fits, and raster output.

Points come from finite-depth evaluation of the coding-space projection,
anchored at the seed region's center; the truncation error alpha_plus^K
times the seed diameter rides along on every cloud so box-count scales can
be chosen above it.  All sampling is a pure function of
(spec, depth, mode, count, seed).  A sample holds its digit codes
level-major in the smallest unsigned type that fits every level (one byte
per point and level up to 256 maps).  The projection, the grid keys and
the raster each run over blocks of ``_BLOCK`` points, so a step holds the
codes, the points and at most one int64 key array, plus one block's scratch:
its translations and coordinate columns, one axis of its grid indices, or
its clipped and scaled pixels.

Box counting folds a point's d grid indices, offset by their per-axis
minimum, into one int64 key, built a block at a time, and counts the
distinct keys of the sorted key array; a scale whose key would leave int64
raises ``ValueError`` instead of wrapping.  Each cloud caches its counts by
scale, so ``select_scales`` and ``boxdim_fit`` count every scale once.
``saturated`` marks a random-codes count too close to the sample size to
resolve the set; the CLI reports a fit over such a scale with the flag
``sample_saturated``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, UnresolvedTranslation
from .symbolic import Word, validate_word
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
# Points per block of the projection, the grid keys and the raster.  On
# example_5_4's default boxdim and render (200,000 points, depth 10, 2 vCPUs,
# numpy 2.4) 2^14 ran fastest: 37 ms against 39 at 2^13, 42 at 2^15 and 79
# whole-array, with a tracemalloc peak of 6.1 MiB against 5.5, 7.2 and 15.6.
_BLOCK = 1 << 14


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


def _gather(table: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Rows of an (n, d) table picked by digit, gathered one axis at a time:
    the (N, d) transpose of an axis-major (d, N) array."""
    return np.take(np.ascontiguousarray(table.T), digits, axis=1).T


def _translations(spec: SystemSpec, codes: np.ndarray, seed: int):
    """Per-level translation vectors for each sampled word prefix, one block
    of points at a time.

    Returns a function of a slice of the points' rows that returns a
    function of k: the (n, d) translations applied at step k for those
    points' word prefixes codes[rows, :k], so a caller holds one block's
    translations at a time; missing digits or table entries raise here,
    before any is built.  Prefix-keyed hashing makes shared prefixes share
    translations without any cache; the hash schemes keep the block's
    uint64 hash row of each level.  An ``explicit`` table lists every
    prefix word, so its clouds are small: its per-level arrays are built
    for the whole cloud, which names the shallowest missing word first.
    Except for ``explicit`` tables, a translation is the transpose of an
    axis-major array, so each of its columns is contiguous.
    """
    scheme = spec.translations
    N, K = codes.shape
    d = spec.dim
    if scheme.kind == "digit_grid":
        for k in range(1, K + 1):
            if spec.level(k).digits is None:
                raise UnresolvedTranslation(f"level {k} has no digits")
        return lambda rows: lambda k: _gather(spec.level(k).digits, codes[rows, k - 1])
    if scheme.kind == "explicit":
        table = scheme.table or {}
        keys = [""] * N  # each point's prefix word, extended by one digit per level
        out = []
        for k in range(1, K + 1):
            sep = "-" if k > 1 else ""
            keys = [f"{key}{sep}{c + 1}" for key, c in zip(keys, codes[:, k - 1].tolist())]
            missing = next((key for key in keys if key not in table), None)
            if missing is not None:
                raise UnresolvedTranslation(f"no table entry for word {missing}")
            out.append(np.array([table[key] for key in keys], dtype=float).reshape(N, d))
        return lambda rows: lambda k: out[k - 1][rows]
    # Hash-assigned schemes: rolling splitmix64 over 1-based digits.
    if scheme.kind == "finite_alphabet":
        base_seed = scheme.seed if scheme.seed is not None else 0
    else:
        base_seed = _mix64((seed & ((1 << 64) - 1)) ^ _mix64(scheme.seed or 0))
    # the mix of digit j + 1 is looked up, not recomputed for every point
    digit_mix = [mix64_batch(np.arange(1, spec.branch_count(k) + 1, dtype=np.uint64))
                 for k in range(1, K + 1)]
    if scheme.kind == "finite_alphabet":
        alphabet = np.asarray(scheme.alphabet, dtype=float)
        n = np.uint64(len(alphabet))

    def for_rows(rows):
        h = np.uint64(_mix64(base_seed))
        hashes = []
        for k in range(1, K + 1):
            h = mix64_batch(h ^ np.take(digit_mix[k - 1], codes[rows, k - 1]))
            hashes.append(h)
        if scheme.kind == "finite_alphabet":
            return lambda k: _gather(alphabet, (hashes[k - 1] % n).astype(np.int64))
        lo, hi = scheme.region.lo, scheme.region.hi  # random_iid, uniform over the region box
        return lambda k: np.stack([lo[axis] + hash_to_unit(hashes[k - 1], axis)
                                   * (hi[axis] - lo[axis]) for axis in range(d)]).T

    return for_rows


def _project_codes(spec: SystemSpec, codes: np.ndarray, seed: int) -> np.ndarray:
    """Finite-depth projection of 0-based digit codes, anchored at center(J).

    ``codes`` is (N, K), any unsigned or signed integer type; the samplers
    pass an (N, K) view of a level-major (K, N) array.  The points are
    projected ``_BLOCK`` at a time into one (d, N) array; a block holds its
    K hash rows (hashed translation schemes), one level's translations and
    gathered map entries, and two sets of d coordinate columns.  A block's
    point is kept as d coordinate columns, and level k = K, ..., 1 maps them by
    x_i <- sum_j T_ij x_j + w_i in elementwise multiply-adds, with w the
    level's translations, built as the loop reaches them.  T's entries
    are scalars when every map of the level is the same, else columns
    gathered by digit.  The sum runs in j order from the first product;
    ``einsum("nij,nj->ni")`` starts its sum from +0.0 and so never returns
    -0.0, and the final ``+ 0.0`` does the same here, so for d <= 2 the
    bytes are einsum's.  For d >= 3 einsum adds in interleaved lanes, and
    the last bit may differ.  Returns an (N, d) view of a (d, N) array.
    """
    N, K = codes.shape
    d = spec.dim
    translations = _translations(spec, codes, seed)
    points = np.empty((d, N))
    for start in range(0, N, _BLOCK):
        rows = slice(start, start + _BLOCK)
        block = codes[rows]
        translation = translations(rows)
        x = [np.full(len(block), c) for c in spec.seed_region.center]
        for k in range(K, 0, -1):
            lvl = spec.level(k)
            if lvl.identical:
                T = lvl.array[0]
            else:
                T = _gather(lvl.array.reshape(-1, d * d), block[:, k - 1]).T.reshape(d, d, -1)
            w = translation(k).T
            nxt = []
            # translations near the float range can sum past it, to inf or nan,
            # which the box counter rejects and ``render`` clips or refuses
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(d):
                    acc = T[i, 0] * x[0]
                    for j in range(1, d):
                        acc += T[i, j] * x[j]
                    acc += w[i]
                    nxt.append(acc)
            x = nxt
        for i in range(d):
            np.add(x[i], 0.0, out=points[i, rows])
    return points.T


def project(spec: SystemSpec, w: Word, seed: int = 0) -> np.ndarray:
    """Projection of one word at its own depth."""
    if len(w) < 1:
        raise ValueError("projection needs a word of length >= 1")
    validate_word(spec, w)
    codes = np.array([[dgt - 1 for dgt in w.digits]], dtype=np.int64)
    return _project_codes(spec, codes, seed)[0]


def _word_count(spec: SystemSpec, depth: int) -> int:
    """Number of depth-K words, or the first partial product past FULL_ENUM_BUDGET."""
    total = 1
    for k in range(1, depth + 1):
        total *= spec.branch_count(k)
        if total > FULL_ENUM_BUDGET:
            break
    return total


def _enumerate_codes(spec: SystemSpec, depth: int) -> np.ndarray:
    """Every depth-K word in lexicographic order, as an (N, K) view of a
    level-major (K, N) array of the smallest unsigned type that holds every
    level's digits, each level written in place."""
    total = _word_count(spec, depth)
    if total > FULL_ENUM_BUDGET:
        raise BudgetExceeded(f"full enumeration to depth {depth} needs {total} > "
                             f"{FULL_ENUM_BUDGET} words")
    widths = list(map(spec.branch_count, range(1, depth + 1)))
    codes = np.empty((depth, total), dtype=np.min_scalar_type(max(widths) - 1))
    inner = total
    for row, n in zip(codes, widths):
        inner //= n
        row.reshape(-1, n, inner)[:] = np.arange(n)[:, None]
    return codes.T


def sample_cloud(spec: SystemSpec, depth: int, mode: str = "auto",
                 count: int | None = None, seed: int = 0) -> PointCloud:
    """Sample attractor points at a fixed coding depth.

    ``full_enumeration`` visits every depth-K word (guarded by the word
    budget); ``random_codes`` draws ``count`` words uniformly digit by
    digit from a seeded generator, one int64 row per level, each written
    into a level-major (K, count) array of the smallest unsigned type that
    holds the widest level's digits.  ``auto`` enumerates whenever the
    depth-K words fit the budget, however few points ``count`` asks for,
    and draws ``count`` random codes otherwise.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if mode == "auto":
        mode = "full_enumeration" if _word_count(spec, depth) <= FULL_ENUM_BUDGET else "random_codes"
    if mode == "full_enumeration":
        codes = _enumerate_codes(spec, depth)
    elif mode == "random_codes":
        if count is None:
            count = 100_000
        rng = np.random.Generator(np.random.PCG64(seed))
        widest = max(map(spec.branch_count, range(1, depth + 1)))
        codes = np.empty((depth, count), dtype=np.min_scalar_type(widest - 1))
        for k in range(1, depth + 1):
            codes[k - 1] = rng.integers(0, spec.branch_count(k), size=count, dtype=np.int64)
        codes = codes.T
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    points = _project_codes(spec, codes, seed)
    trunc = (spec.alpha_plus ** depth) * spec.seed_region.diameter
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
    any cast, so nothing wraps.  The indices are taken one axis of one
    ``_BLOCK`` of points at a time, twice: a first pass finds each axis's
    least and greatest index, and a second folds them into the one key
    array, so the scratch is one block's column.
    """
    N, d = points.shape

    def cells(rows, axis):
        # a point near the float range: an inf index, rejected below
        with np.errstate(over="ignore"):
            return np.floor(points[rows, axis] / epsilon + _GRID_SNAP)

    blocks = [slice(start, start + _BLOCK) for start in range(0, N, _BLOCK)]
    lo, hi = np.full(d, np.inf), np.full(d, -np.inf)
    for rows in blocks:
        for axis in range(d):
            col = cells(rows, axis)
            # np.minimum and np.maximum carry a nan through
            lo[axis], hi[axis] = np.minimum(lo[axis], col.min()), np.maximum(hi[axis], col.max())
    # the comparisons also reject nan
    if not all(l >= -_INT64_LIMIT and h < _INT64_LIMIT for l, h in zip(lo, hi)):
        raise ValueError(f"scale {epsilon!r} puts grid indices outside int64")
    # exact integers: a float inside the int64 range converts without loss
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    if math.prod(spans) >= _INT64_LIMIT:
        raise ValueError(f"scale {epsilon!r} is too fine for an int64 grid key over "
                         f"this cloud's extent")
    # fits: each span is below 2**63
    key = np.zeros(N, dtype=np.int64)
    for rows in blocks:
        part = key[rows]
        for axis in range(d):
            off = cells(rows, axis).astype(np.int64)
            off -= int(lo[axis])
            part *= spans[axis]
            part += off
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
    return 1 + int(np.count_nonzero(key[1:] != key[:-1]))


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


def _all_ternary(spec: SystemSpec) -> bool:
    """Whether every singular value in the schedule is a power of 1/3; stops
    at the first level whose values are not (a zero value is not)."""
    for lvl in spec.schedule.levels:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.log(lvl.singular_values) / math.log(1.0 / 3.0)
            power = np.round(ratio)
            if not ((np.abs(ratio - power) <= 1e-9) & (power >= 1)).all():
                return False
    return True


def default_scales(spec: SystemSpec, depth: int) -> list:
    """Geometric scales above the generation resolution.

    Base-3 aligned (even powers, matching the 9x3 block fixtures and making
    the ternary small-case oracles exact) when every singular value in the
    schedule is a power of 1/3; dyadic otherwise.  The smallest scale stays
    >= twice the depth-K piece diameter, and at most ``_MAX_SCALES``, the
    coarsest, are kept.
    """
    floor_eps = 2.0 * (spec.alpha_plus ** depth) * spec.seed_region.diameter
    base, t, step = (3.0, 2, 2) if _all_ternary(spec) else (2.0, 3, 1)
    scales = []
    while len(scales) < _MAX_SCALES and base ** (-t) >= floor_eps:
        scales.append(base ** (-t))
        t += step
    if len(scales) < 2:
        raise ValueError("depth too shallow for a scale range above the resolution")
    return scales


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
    on top); a pixel is 255 iff some point maps into it.  A point outside
    the box is clipped onto it before it is scaled, so it lands on the edge
    pixel, however far out it lies; a nan coordinate raises ValueError.
    The points are clipped, scaled and marked ``_BLOCK`` at a time, so
    beside the raster only one block's scaled points and pixel indices are
    held.
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
    for start in range(0, pts.shape[0], _BLOCK):
        scaled = (np.clip(pts[start:start + _BLOCK], lo, hi) - lo) / span * resolution + _GRID_SNAP
        if np.isnan(scaled).any():
            raise ValueError("a sampled point has a nan coordinate: its translations "
                             "sum past the float range")
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
