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
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Optional

import numpy as np

from .errors import ERROR, WARNING, ConfigError, Finding
from .linalg import SINGULAR_DET_TOL, Matrix, op_norm, singular_values

SCHEDULE_KINDS = ("constant", "periodic", "explicit_prefix_then_periodic", "geometric_blocks")
TRANSLATION_KINDS = ("digit_grid", "finite_alphabet", "random_iid", "explicit")

# Diameter heuristic: the running product of per-level max op-norms must
# drop below this within DIAMETER_MAX_LEVELS levels, else the basic-set
# diameters are judged non-vanishing.
DIAMETER_PRODUCT_TOL = 1e-3
DIAMETER_MAX_LEVELS = 10_000


@dataclass(frozen=True)
class LevelSpec:
    """One level of the schedule: n_k maps and optional per-branch translations."""

    branch_count: int
    maps: tuple
    digits: Optional[tuple] = None

    def __post_init__(self):
        if self.branch_count < 2:
            raise ConfigError(f"branch_count must be >= 2, got {self.branch_count}")
        if len(self.maps) != self.branch_count:
            raise ConfigError(
                f"level has {len(self.maps)} maps but branch_count {self.branch_count}"
            )
        if self.digits is not None and len(self.digits) != self.branch_count:
            raise ConfigError(
                f"level has {len(self.digits)} digits but branch_count {self.branch_count}"
            )

    @property
    def dim(self) -> int:
        return self.maps[0].dim

    @cached_property
    def op_norms(self) -> tuple:
        """Each map's op norm, taken once per parsed level and read by
        ``validate``, ``alpha_bounds`` and the attractor sampler."""
        return tuple(op_norm(m) for m in self.maps)

    @cached_property
    def log_dets(self) -> tuple:
        """Each map's log |det|, -inf for a zero determinant, taken once per
        parsed level and read by the engines and the cut-set lister."""
        return tuple(math.log(abs(det)) if det else -math.inf
                     for det in map(Matrix.det, self.maps))

    def maps_all_identical(self) -> bool:
        return all(m == self.maps[0] for m in self.maps[1:])

    def maps_all_diagonal(self) -> bool:
        return all(m.is_diagonal() for m in self.maps)


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
    def dim(self) -> int:
        return len(self.lo)

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

    def level(self, k: int) -> LevelSpec:
        return self.schedule.level(k)

    def branch_count(self, k: int) -> int:
        return self.schedule.level(k).branch_count


def alpha_bounds(spec: SystemSpec) -> AlphaBounds:
    """sup alpha_1 and inf alpha_d over the finitely many distinct levels."""
    plus = 0.0
    minus = math.inf
    for lvl in spec.schedule.levels:
        for m, nrm in zip(lvl.maps, lvl.op_norms):
            plus = max(plus, nrm)
            sv = singular_values(m)
            minus = min(minus, sv.values[-1])
    return AlphaBounds(alpha_plus=plus, alpha_minus=minus)


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
    level_norm = []  # each level's max op-norm
    for idx, lvl in enumerate(levels):
        level_norm.append(0.0)
        for j, (m, nrm) in enumerate(zip(lvl.maps, lvl.op_norms)):
            where = f"levels[{idx}].maps[{j}]"
            level_norm[-1] = max(level_norm[-1], nrm)
            if nrm >= 1.0:
                findings.append(
                    Finding("ContractionViolated", ERROR, f"op_norm {nrm:.6g} >= 1", where)
                )
            if abs(m.det()) <= SINGULAR_DET_TOL:
                findings.append(
                    Finding("NonsingularityViolated", ERROR, "matrix is singular", where)
                )
    if not any(f.code == "ContractionViolated" for f in findings):
        level_log_norm = [math.log(nrm) if nrm > 0.0 else -math.inf for nrm in level_norm]
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
    sup_norm = max(level_norm, default=0.0)
    if sup_norm >= 0.5:
        findings.append(
            Finding(
                "HalfNormExceeded",
                WARNING,
                f"sup op_norm {sup_norm:.6g} >= 1/2 voids the random-translation "
                "exact-dimension hypothesis",
                "schedule",
            )
        )
    return findings


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
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # an int past the float range overflows
        arr = None
    if arr is None or arr.shape != (d,) or not np.isfinite(arr).all():
        raise ConfigError(f"{path}: expected a length-{d} vector of finite numbers")
    return arr


def _parse_level(obj, d: int, path: str) -> LevelSpec:
    _require_keys(obj, {"branch_count", "maps", "digits"}, {"branch_count", "maps"}, path)
    n = _typed(obj, "branch_count", int, path, required=True)
    maps = []
    for j, rows in enumerate(_typed(obj, "maps", list, path, required=True)):
        try:
            maps.append(Matrix.from_rows(rows))
        except Exception as exc:
            raise ConfigError(f"{path}.maps[{j}]: {exc}") from exc
        if maps[-1].dim != d:
            raise ConfigError(f"{path}.maps[{j}]: expected a {d}x{d} matrix")
    digits = _typed(obj, "digits", list, path)
    if digits is not None:
        digits = tuple(_vector(v, d, f"{path}.digits[{j}]") for j, v in enumerate(digits))
    try:
        return LevelSpec(branch_count=n, maps=tuple(maps), digits=digits)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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

    reg = document["seed_region"]
    _require_keys(reg, {"lo", "hi"}, {"lo", "hi"}, "$.seed_region")
    seed_region = Box(_vector(reg["lo"], d, "$.seed_region.lo"),
                      _vector(reg["hi"], d, "$.seed_region.hi"))

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
    try:
        schedule = Schedule(kind=sch["kind"], levels=levels, **ints)
    except ConfigError as exc:
        raise ConfigError(f"$.schedule: {exc}") from exc

    tr = document["translations"]
    _require_keys(
        tr,
        {"kind", "alphabet", "region", "seed", "table"},
        {"kind"},
        "$.translations",
    )
    alphabet = _typed(tr, "alphabet", list, "$.translations")
    if alphabet is not None:
        alphabet = tuple(
            _vector(v, d, f"$.translations.alphabet[{j}]") for j, v in enumerate(alphabet)
        )
    region = None
    if tr.get("region") is not None:
        _require_keys(tr["region"], {"lo", "hi"}, {"lo", "hi"}, "$.translations.region")
        region = Box(
            _vector(tr["region"]["lo"], d, "$.translations.region.lo"),
            _vector(tr["region"]["hi"], d, "$.translations.region.hi"),
        )
    table = _typed(tr, "table", dict, "$.translations")
    if table is not None:
        table = {
            str(word): _vector(vec, d, f"$.translations.table[{word!r}]")
            for word, vec in table.items()
        }
    seed = _typed(tr, "seed", int, "$.translations")
    try:
        translations = TranslationScheme(
            kind=tr["kind"], alphabet=alphabet, seed=seed, region=region, table=table
        )
    except ConfigError as exc:
        raise ConfigError(f"$.translations: {exc}") from exc

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
    for f in validate(spec):
        f.raise_if_invariant()
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
