"""Data model for a level-dependent affine contraction system.

A system is a level schedule (which matrix family applies at depth k), a
translation scheme, and a seed region.  Schedules are one of four finite
rules so that the contraction bounds alpha_plus / alpha_minus stay exactly
computable; translations come in four schemes, of which only the attractor
sampler ever reads them (the dimension estimators are translation-free).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Optional

import numpy as np

from .errors import (ERROR, WARNING, ConfigError, DimensionMismatch, Finding,
                     NonsingularityViolated)
from .linalg import MAX_DIM, SINGULAR_DET_TOL, as_map, dets, op_norms

SCHEDULE_KINDS = ("constant", "periodic", "explicit_prefix_then_periodic", "geometric_blocks")
TRANSLATION_KINDS = ("digit_grid", "finite_alphabet", "random_iid", "explicit")

# Diameter heuristic: the running product of per-level max op-norms must
# drop below this within DIAMETER_MAX_LEVELS levels, else the basic-set
# diameters are judged non-vanishing.
DIAMETER_PRODUCT_TOL = 1e-3
DIAMETER_MAX_LEVELS = 10_000


def _float_array(values) -> Optional[np.ndarray]:
    """A new float64 array of ``values``, or None when they are ragged, not
    numbers, or an int past the float range (which overflows)."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None


class LevelSpec:
    """One level of the schedule: n_k maps and optional per-branch translations.

    ``maps`` is a sequence of d x d array-likes, or an (n, d, d) array.  The
    level keeps them as one read-only float64 (n, d, d) ``array``, whose row
    j is map j + 1, and its ``digits``, when given, as one read-only float64
    (n, d') array; ``SystemSpec`` checks d' against its dim.  Every fact of
    the maps is taken from ``array``, once, on first use: per map its op
    norm, singular values, det, log |det| (-inf for a zero det), whether it
    is diagonal or scalar and its diagonal moduli; whether all maps are
    identical, and the distinct ones.  Where ``math`` and ``numpy`` give
    other bits (hypot, log), the facts take ``math``'s, as the per-map
    formulas do.
    """

    def __init__(self, branch_count: int, maps, digits=None):
        if branch_count < 2:
            raise ConfigError(f"branch_count must be >= 2, got {branch_count}")
        if len(maps) != branch_count:
            raise ConfigError(f"level has {len(maps)} maps but branch_count {branch_count}")
        if digits is not None and len(digits) != branch_count:
            raise ConfigError(f"level has {len(digits)} digits but branch_count {branch_count}")
        array = _float_array(maps)
        if (array is None or array.ndim != 3 or array.shape[1] != array.shape[2]
                or not 1 <= array.shape[1] <= MAX_DIM or not np.isfinite(array).all()):
            raise ConfigError(f"maps do not form one stack of d x d matrices with "
                              f"1 <= d <= {MAX_DIM} and finite entries")
        array.flags.writeable = False
        if digits is not None:
            digits = _float_array(digits)
            if digits is None or digits.ndim != 2 or not np.isfinite(digits).all():
                raise ConfigError("digits do not form one stack of finite vectors")
            digits.flags.writeable = False
        self.branch_count, self.array, self.digits = branch_count, array, digits

    @cached_property
    def op_norms(self) -> np.ndarray:
        return op_norms(self.array)

    @cached_property
    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.array, compute_uv=False)  # (n, d), descending

    @cached_property
    def dets(self) -> np.ndarray:
        return dets(self.array)

    @cached_property
    def log_dets(self) -> np.ndarray:
        return np.array([math.log(abs(det)) if det else -math.inf for det in self.dets.tolist()])

    @cached_property
    def diagonal(self) -> np.ndarray:
        return (self.array[:, ~np.eye(self.array.shape[1], dtype=bool)] == 0.0).all(axis=1)

    @cached_property
    def scalar(self) -> np.ndarray:
        diag = np.diagonal(self.array, axis1=1, axis2=2)
        return self.diagonal & (diag == diag[:, :1]).all(axis=1)

    @cached_property
    def moduli(self) -> np.ndarray:
        return np.abs(np.diagonal(self.array, axis1=1, axis2=2))  # (n, d)

    @cached_property
    def identical(self) -> bool:
        return bool((self.array == self.array[0]).all())

    @cached_property
    def distinct(self) -> tuple:
        """(index of each distinct map's first occurrence, in increasing
        order; int64 multiplicities), a -0.0 entry equal to 0.0."""
        flat = self.array.reshape(self.branch_count, -1) + 0.0
        _, first, counts = np.unique(flat, axis=0, return_index=True, return_counts=True)
        order = np.argsort(first)
        return first[order], counts[order].astype(np.int64)


@dataclass(frozen=True)
class Schedule:
    """Level rule: constant, periodic, prefix+periodic, or geometric blocks.

    geometric_blocks places block boundaries at block_base * block_ratio**(j-1)
    for j = 0, 1, 2, ... and assigns block j the entry levels[j % len(levels)],
    so successive blocks grow geometrically; depth 1 gets levels[0] when
    block_base >= block_ratio, else block 0 is empty.
    """

    kind: str
    levels: tuple
    block_base: Optional[int] = None
    block_ratio: Optional[int] = None
    period: Optional[int] = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if not self.levels:
            raise ConfigError("schedule needs at least one level")
        if self.kind == "constant" and len(self.levels) != 1:
            raise ConfigError("constant schedule takes exactly one level")
        if self.kind == "geometric_blocks":
            if (self.block_base or 0) < 1 or (self.block_ratio or 0) < 2:
                raise ConfigError("geometric_blocks needs block_base >= 1 and block_ratio >= 2")
        if self.kind == "explicit_prefix_then_periodic":
            p = self.period
            if not p or p < 1 or p > len(self.levels):
                raise ConfigError("explicit_prefix_then_periodic needs 1 <= period <= len(levels)")

    def level_index(self, k: int) -> int:
        if k < 1:
            raise ValueError("level index k must be >= 1")
        if self.kind == "constant":
            return 0
        if self.kind == "periodic":
            return (k - 1) % len(self.levels)
        if self.kind == "explicit_prefix_then_periodic":
            n, p = len(self.levels), self.period
            if k <= n:
                return k - 1
            return n - p + (k - n - 1) % p
        # geometric_blocks: smallest j >= 0 with k <= base * ratio**(j-1), in
        # integers as k * ratio <= base * ratio**j, so no bound can overflow
        j, kr, bound = 0, k * self.block_ratio, self.block_base
        while kr > bound:
            j += 1
            bound *= self.block_ratio
        return j % len(self.levels)

    def level(self, k: int) -> LevelSpec:
        return self.levels[self.level_index(k)]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by lo/hi corner vectors."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigError("box lo/hi must be equal-length vectors")
        if not np.all(hi > lo):
            raise ConfigError("box must have nonempty interior (hi > lo)")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))


@dataclass(frozen=True)
class TranslationScheme:
    """How the translation of each word is produced.

    digit_grid reads LevelSpec.digits by (level, child index); finite_alphabet
    picks alphabet[h mod len(alphabet)] where h is the splitmix64 rolling hash
    of (assignment_seed, word); random_iid draws uniformly from ``region`` via
    the same hash stream; explicit looks words up in a small table.
    """

    kind: str
    alphabet: Optional[tuple] = None
    seed: Optional[int] = None
    region: Optional[Box] = None
    table: Optional[dict] = None

    def __post_init__(self):
        if self.kind not in TRANSLATION_KINDS:
            raise ConfigError(f"unknown translation kind {self.kind!r}")
        if self.kind == "finite_alphabet" and not self.alphabet:
            raise ConfigError("finite_alphabet needs an alphabet")
        if self.kind == "random_iid" and self.region is None:
            raise ConfigError("random_iid needs a region")
        if self.kind == "explicit" and self.table is None:
            raise ConfigError("explicit translations need a table")


@dataclass(frozen=True)
class AlphaBounds:
    """Exact sup of largest / inf of smallest singular values over the schedule."""

    alpha_plus: float
    alpha_minus: float


@dataclass(frozen=True)
class SystemSpec:
    """Full description of one system; immutable after parse."""

    dim: int
    schedule: Schedule
    translations: TranslationScheme
    seed_region: Box
    name: str = ""

    def __post_init__(self):
        for i, lvl in enumerate(self.schedule.levels):
            if lvl.array.shape[1] != self.dim:
                raise ConfigError(f"schedule.levels[{i}]: expected {self.dim}x{self.dim} maps, "
                                  f"got {lvl.array.shape[1]}x{lvl.array.shape[1]}")
            if lvl.digits is not None and lvl.digits.shape[1] != self.dim:
                raise ConfigError(f"schedule.levels[{i}]: expected length-{self.dim} digits, "
                                  f"got length {lvl.digits.shape[1]}")

    @cached_property
    def alpha_plus(self) -> float:
        """sup of the maps' op norms over the schedule, singular maps included."""
        return max(float(lvl.op_norms.max()) for lvl in self.schedule.levels)

    @cached_property
    def multiplicative(self) -> bool:
        """Whether phi^s multiplies along words, phi^s(T_w) = prod_j phi^s(T_{j,w_j}).

        True when every map is diagonal and, for every pair of coordinates
        (a, b), either every map has |c_a| >= |c_b| or every map has |c_a| <=
        |c_b|: one total preorder of the coordinates then fits every map, so a
        product's singular values are the products of its maps' moduli taken
        in one fixed order.  Any d = 1 system qualifies.
        """
        levels = self.schedule.levels
        if not all(lvl.diagonal.all() for lvl in levels):
            return False
        c = np.concatenate([lvl.moduli for lvl in levels])          # (maps, d)
        above = (c[:, :, None] > c[:, None, :]).any(axis=0)         # some |c_a| > |c_b|
        return not (above & above.T).any()

    @cached_property
    def findings(self) -> tuple:
        """``validate(self)`` as a tuple, taken once per spec."""
        return tuple(validate(self))

    def level(self, k: int) -> LevelSpec:
        return self.schedule.level(k)

    def branch_count(self, k: int) -> int:
        return self.schedule.level(k).branch_count


def alpha_bounds(spec: SystemSpec) -> AlphaBounds:
    """sup alpha_1 and inf alpha_d over the finitely many distinct levels;
    NonsingularityViolated for a map with |det| <= SINGULAR_DET_TOL."""
    levels = spec.schedule.levels
    if min(float(np.abs(lvl.dets).min()) for lvl in levels) <= SINGULAR_DET_TOL:
        raise NonsingularityViolated(
            f"matrix is singular or near-singular (|det| <= {SINGULAR_DET_TOL})")
    minus = min(float(lvl.singular_values[:, -1].min()) for lvl in levels)
    return AlphaBounds(alpha_plus=spec.alpha_plus, alpha_minus=minus)


def validate(spec: SystemSpec) -> list:
    """Check the standing structure assumptions; returns findings, never raises.

    Errors mean the dimension theory does not apply (non-contracting or
    singular maps, non-vanishing diameters); HalfNormExceeded is a warning
    that only voids the finite-translation exact-dimension hypothesis.
    The diameter check multiplies per-level max op-norms, a proxy for basic
    set diameters that is sharp for the axis-aligned systems shipped here;
    a level of zero maps makes that product vanish.
    """
    findings = []
    levels = spec.schedule.levels
    for idx, lvl in enumerate(levels):
        norms, singular = lvl.op_norms.tolist(), np.abs(lvl.dets) <= SINGULAR_DET_TOL
        for j in np.flatnonzero((lvl.op_norms >= 1.0) | singular).tolist():
            where = f"levels[{idx}].maps[{j}]"
            if norms[j] >= 1.0:
                findings.append(Finding("ContractionViolated", ERROR,
                                        f"op_norm {norms[j]:.6g} >= 1", where))
            if singular[j]:
                findings.append(Finding("NonsingularityViolated", ERROR,
                                        "matrix is singular", where))
    if not any(f.code == "ContractionViolated" for f in findings):
        level_log_norm = [math.log(nrm) if nrm > 0.0 else -math.inf
                          for nrm in (float(lvl.op_norms.max()) for lvl in levels)]
        log_prod = 0.0
        vanished = False
        for k in range(1, DIAMETER_MAX_LEVELS + 1):
            log_prod += level_log_norm[spec.schedule.level_index(k)]
            if log_prod < math.log(DIAMETER_PRODUCT_TOL):
                vanished = True
                break
        if not vanished:
            findings.append(
                Finding(
                    "DiameterNotVanishing",
                    ERROR,
                    f"running max-norm product stayed >= {DIAMETER_PRODUCT_TOL} "
                    f"through {DIAMETER_MAX_LEVELS} levels",
                    "schedule",
                )
            )
    if spec.alpha_plus >= 0.5:
        findings.append(
            Finding(
                "HalfNormExceeded",
                WARNING,
                f"sup op_norm {spec.alpha_plus:.6g} >= 1/2 voids the random-translation "
                "exact-dimension hypothesis",
                "schedule",
            )
        )
    return findings


def require_invariants(spec: SystemSpec,
                       codes=("ContractionViolated", "NonsingularityViolated")) -> tuple:
    """``spec.findings``, after raising the first of them whose code is in
    ``codes`` as its ContractionViolated or NonsingularityViolated."""
    for finding in spec.findings:
        if finding.code in codes:
            finding.raise_if_invariant()
    return spec.findings


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _require_keys(obj: dict, allowed: set, required: set, path: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing field(s) {sorted(missing)}")


_KIND_NAMES = {int: "an integer", list: "a list", dict: "an object"}


def _typed(obj: dict, key: str, kind, path: str, required: bool = False):
    """obj[key] checked to be a ``kind`` (a bool is not an integer).

    An absent or null optional field is None.
    """
    value = obj.get(key)
    if value is None and not required:
        return None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected {_KIND_NAMES[kind]}")
    return value


def _vector(value, d: int, path: str) -> np.ndarray:
    arr = _float_array(value)
    if arr is None or arr.shape != (d,) or not np.isfinite(arr).all():
        raise ConfigError(f"{path}: expected a length-{d} vector of finite numbers")
    return arr


def _vectors(values, d: int, path: str):
    """Length-d vectors: a list of them as a tuple, an object of them as a
    dict by string key; None stays None."""
    if values is None:
        return None
    if isinstance(values, dict):
        return {str(key): _vector(v, d, f"{path}[{key!r}]") for key, v in values.items()}
    return tuple(_vector(v, d, f"{path}[{j}]") for j, v in enumerate(values))


def _build(cls, path: str, **fields):
    """``cls(**fields)``, with a ConfigError it raises prefixed by ``path``."""
    try:
        return cls(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _box(obj, d: int, path: str) -> Box:
    _require_keys(obj, {"lo", "hi"}, {"lo", "hi"}, path)
    return _build(Box, path, lo=_vector(obj["lo"], d, f"{path}.lo"),
                  hi=_vector(obj["hi"], d, f"{path}.hi"))


def _parse_level(obj, d: int, path: str) -> LevelSpec:
    _require_keys(obj, {"branch_count", "maps", "digits"}, {"branch_count", "maps"}, path)
    n = _typed(obj, "branch_count", int, path, required=True)
    maps = _typed(obj, "maps", list, path, required=True)
    stack = _float_array(maps)
    if stack is None or stack.shape[1:] != (d, d) or d > MAX_DIM or not np.isfinite(stack).all():
        for j, rows in enumerate(maps):  # name the first map that is not d x d and finite
            try:
                m = as_map(rows)
            except (DimensionMismatch, ValueError, TypeError, OverflowError) as exc:
                raise ConfigError(f"{path}.maps[{j}]: {exc}") from exc
            if len(m) != d:
                raise ConfigError(f"{path}.maps[{j}]: expected a {d}x{d} matrix")
    digits = _typed(obj, "digits", list, path)
    array = None if digits is None else _float_array(digits)
    if array is not None and array.shape[1:] == (d,) and np.isfinite(array).all():
        digits = array
    else:  # name the first digit that is not a length-d vector, if any
        _vectors(digits, d, f"{path}.digits")
    return _build(LevelSpec, path, branch_count=n, maps=stack, digits=digits)


def parse_structure(document) -> SystemSpec:
    """Schema-check a config document into a SystemSpec without invariant checks.

    ``document`` is a JSON text or an already-decoded object. Use this when
    the caller wants to run validate() on structurally sound but possibly
    degenerate systems.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    _require_keys(
        document,
        {"name", "dim", "seed_region", "schedule", "translations"},
        {"dim", "seed_region", "schedule", "translations"},
        "$",
    )
    d = _typed(document, "dim", int, "$", required=True)
    if d < 1:
        raise ConfigError("$.dim: expected a positive integer")

    seed_region = _box(document["seed_region"], d, "$.seed_region")

    sch = document["schedule"]
    _require_keys(
        sch,
        {"kind", "levels", "block_base", "block_ratio", "period"},
        {"kind", "levels"},
        "$.schedule",
    )
    levels = tuple(
        _parse_level(lvl, d, f"$.schedule.levels[{i}]")
        for i, lvl in enumerate(_typed(sch, "levels", list, "$.schedule", required=True))
    )
    ints = {key: _typed(sch, key, int, "$.schedule")
            for key in ("block_base", "block_ratio", "period")}
    schedule = _build(Schedule, "$.schedule", kind=sch["kind"], levels=levels, **ints)

    tr = document["translations"]
    _require_keys(
        tr,
        {"kind", "alphabet", "region", "seed", "table"},
        {"kind"},
        "$.translations",
    )
    alphabet = _vectors(_typed(tr, "alphabet", list, "$.translations"), d,
                        "$.translations.alphabet")
    region = None
    if tr.get("region") is not None:
        region = _box(tr["region"], d, "$.translations.region")
    table = _vectors(_typed(tr, "table", dict, "$.translations"), d, "$.translations.table")
    seed = _typed(tr, "seed", int, "$.translations")
    translations = _build(TranslationScheme, "$.translations", kind=tr["kind"],
                          alphabet=alphabet, seed=seed, region=region, table=table)

    if translations.kind == "digit_grid":
        for i, lvl in enumerate(levels):
            if lvl.digits is None:
                raise ConfigError(
                    f"$.schedule.levels[{i}]: digit_grid translations need digits at every level"
                )

    return SystemSpec(
        dim=d,
        schedule=schedule,
        translations=translations,
        seed_region=seed_region,
        name=document.get("name", ""),
    )


def parse_spec(document) -> SystemSpec:
    """parse_structure plus enforcement of the standing assumptions.

    Raises ContractionViolated / NonsingularityViolated (by finding code) on
    error-severity findings other than the diameter heuristic, which only
    estimators care about.
    """
    spec = parse_structure(document)
    require_invariants(spec)
    return spec


# ---------------------------------------------------------------------------
# Bundled fixtures
# ---------------------------------------------------------------------------

def fixture_names() -> list:
    files = resources.files("morandim.fixtures")
    return sorted(p.name[: -len(".json")] for p in files.iterdir() if p.name.endswith(".json"))


def fixture_document(name: str) -> dict:
    path = resources.files("morandim.fixtures").joinpath(f"{name}.json")
    if not path.is_file():
        raise ConfigError(f"unknown fixture {name!r}; available: {', '.join(fixture_names())}")
    return json.loads(path.read_text())


def fixture(name: str) -> SystemSpec:
    """Load a bundled fixture config by name (structure only, not validated)."""
    return parse_structure(fixture_document(name))


# ---------------------------------------------------------------------------
# Deterministic word hashing for translation assignment
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """splitmix64 finalizer (scalar)."""
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def mix64_batch(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array."""
    x = (x + np.uint64(_GOLDEN)).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hash_to_unit(h: np.ndarray, axis: int) -> np.ndarray:
    """Map hash values to [0, 1) doubles, one independent stream per axis."""
    mixed = mix64_batch(h ^ np.uint64(_mix64(axis + 1)))
    return (mixed >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
