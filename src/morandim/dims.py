"""Critical-value estimators over the level tree.

The limit quantities are replaced by trend classification over explicit
epsilon / depth schedules.  For a candidate exponent s the cut-set cost
series is classified "above the critical value" when its running maximum
stabilizes early (the limsup evidence dies out) and "below" when new
records keep forming late in the schedule or the tail blows past the
absolute threshold; net-measure series mirror this with running minima.
Bisection then pins the classification boundary.  Every report carries the
schedule, thresholds, and per-probe trace that produced it, and a run that
cannot classify consistently returns an IndeterminateTrend report with the
widest bracket instead of an estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, InapplicableEstimator
from .symbolic import DEFAULT_NODE_BUDGET, make_engine
from .system import (
    Box,
    LevelSpec,
    Schedule,
    SystemSpec,
    TranslationScheme,
    alpha_bounds,
    validate,
)

THETA_LOW = 1e-3
THETA_HIGH = 1e3
_LOG_THETA_LOW = math.log(THETA_LOW)
_LOG_THETA_HIGH = math.log(THETA_HIGH)

# Trend split: a series whose global extremum sits in the late region keeps
# setting records, i.e. the limit evidence is still growing.
_TREND_SPLIT = 1.0 / 3.0

ABOVE = 1
BELOW = -1
INDETERMINATE = 0


@dataclass
class NetMeasureTable:
    """One net-measure DP evaluation at exponent s with depths in [k, K]."""

    s: float
    k: int
    K: int
    value: float
    log_value: float
    truncated: bool = False


@dataclass
class DimensionReport:
    """Estimator output: estimate, bisection bracket, and diagnostics."""

    quantity: str
    estimate: float | None
    bracket: tuple
    schedule: dict
    flags: list = field(default_factory=list)
    trace: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "estimate": self.estimate,
            "bracket": [self.bracket[0], self.bracket[1]],
            "schedule": self.schedule,
            "flags": list(self.flags),
            "trace": list(self.trace),
        }


def _classify_limsup(xs, vals) -> int:
    """Trend class of a log-cost series whose limit criterion is a limsup."""
    if len(vals) < 3:
        return INDETERMINATE
    vals = np.asarray(vals, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if float(vals.max() - vals.min()) < 1e-12:
        return INDETERMINATE  # flat series carries no trend evidence
    span = xs[-1] - xs[0]
    rho = float((xs[int(np.argmax(vals))] - xs[0]) / span)
    tail = vals[xs >= xs[0] + (2.0 / 3.0) * span]
    tmax = float(tail.max()) if tail.size else float(vals[-1])
    if tmax > _LOG_THETA_HIGH and rho >= _TREND_SPLIT:
        return BELOW
    if tmax < _LOG_THETA_LOW and rho < _TREND_SPLIT:
        return ABOVE
    return BELOW if rho >= _TREND_SPLIT else ABOVE


def _classify_liminf(xs, vals) -> int:
    """Trend class of a log net-measure series (liminf criterion).

    Above the critical value, deeper windows keep revealing cheaper covers,
    so the global minimum drifts late; below it, costs only grow.  This is
    the limsup rule on the negated series: the thresholds are mirror images
    (log 1e-3 == -log 1e3 exactly) and the classes swap.
    """
    return -_classify_limsup(xs, -np.asarray(vals, dtype=float))


def _check_soundness(probes) -> bool:
    """Classified-above must be upward closed, classified-below downward."""
    belows = [s for s, c in probes if c == BELOW]
    aboves = [s for s, c in probes if c == ABOVE]
    return not belows or not aboves or max(belows) < min(aboves)


def _bisect(classify, lo: float, hi: float, tol: float, trace: list):
    """Bisection with three-way probes; returns (estimate, bracket, flags)."""
    flags = []
    probes = []

    def probe(s):
        c = classify(s)
        probes.append((s, c))
        trace.append({"s": s, "class": {ABOVE: "above", BELOW: "below",
                                        INDETERMINATE: "indeterminate"}[c]})
        return c

    # Extend hi while everything up there still classifies below.
    top = probe(hi)
    while top == BELOW and hi < 64.0:
        lo = hi
        hi = hi * 2.0
        top = probe(hi)
    if top == BELOW:
        flags.append("upper_endpoint_below")
        return None, (lo, hi), flags

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        c = probe(mid)
        if c == INDETERMINATE:
            width = hi - lo
            for alt in (mid - width / 8.0, mid + width / 8.0):
                if lo < alt < hi:
                    c = probe(alt)
                    if c != INDETERMINATE:
                        mid = alt
                        break
        if c == BELOW:
            lo = mid
        elif c == ABOVE:
            hi = mid
        else:
            flags.append("indeterminate_trend")
            return None, (lo, hi), flags

    if not _check_soundness(probes):
        flags.append("indeterminate_trend")
        flags.append("classification_not_monotone")
        return None, (lo, hi), flags
    return 0.5 * (lo + hi), (lo, hi), flags


def _finding_flags(spec: SystemSpec) -> list:
    out = []
    for f in validate(spec):
        f.raise_if_invariant()
        out.append(f"{f.severity}:{f.code}")
    return out


def default_eps_log_schedule(spec: SystemSpec, engine_kind: str) -> list:
    """log epsilon_j = 4j * log(alpha_plus); deep for aggregated engines,
    short for the budgeted generic walker."""
    log_ap = math.log(alpha_bounds(spec).alpha_plus)
    count = {"uniform": 96, "diagonal": 48}.get(engine_kind, 12)
    return [4.0 * j * log_ap for j in range(1, count + 1)]


def estimate_sstar(spec: SystemSpec, tol: float = 0.02, eps_schedule=None,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> DimensionReport:
    """Critical exponent of cut-set cost sums, by trend-classified bisection.

    ``eps_schedule`` takes plain epsilon values in (0,1), strictly
    decreasing; by default a geometric schedule in alpha_plus is used whose
    length adapts to the engine (aggregated engines afford far deeper
    trees than the generic walker).
    """
    flags = _finding_flags(spec)
    engine = make_engine(spec)
    if eps_schedule is not None:
        log_eps = [math.log(e) for e in eps_schedule]
        if any(b >= a for a, b in zip(log_eps, log_eps[1:])):
            raise ValueError("eps_schedule must be strictly decreasing")
    else:
        log_eps = default_eps_log_schedule(spec, engine.kind)
    xs_all = [-le for le in log_eps]
    trace = []
    saw_truncation = []

    def classify(s):
        sums, complete, _ = engine.schedule_log_sums(s, log_eps, node_budget)
        if not all(complete):
            saw_truncation.append(True)
        xs = [x for x, ok in zip(xs_all, complete) if ok]
        vals = [v for v, ok in zip(sums, complete) if ok]
        return _classify_limsup(xs, vals)

    est, bracket, bflags = _bisect(classify, 0.0, spec.dim + 1.0, tol, trace)
    flags += bflags
    if saw_truncation:
        flags.append("budget_truncated")
    schedule = {
        "kind": "geometric_eps",
        "log_eps": [float(v) for v in log_eps],
        "theta_low": THETA_LOW,
        "theta_high": THETA_HIGH,
        "node_budget": node_budget,
        "engine": engine.kind,
    }
    return DimensionReport("s_star", est, bracket, schedule, flags, trace)


def net_measure(spec: SystemSpec, s: float, k: int, K: int,
                node_budget: int = DEFAULT_NODE_BUDGET) -> NetMeasureTable:
    """Exact infimum of phi^s cover costs over cylinder depths in [k, K].

    Dynamic program on the level tree: leaves at depth K cost their own
    phi, inner nodes at depth >= k take the cheaper of covering themselves
    or their children, shallower nodes must pass to children.
    """
    if not 1 <= k <= K:
        raise ValueError("need 1 <= k <= K")
    (item,) = make_engine(spec).net_measure_series(s, [(k, K)], node_budget)
    if item is None:
        raise BudgetExceeded(f"net-measure window [{k}, {K}] does not fit the node budget")
    log_v, truncated = item
    try:
        value = math.exp(log_v)
    except OverflowError:
        value = math.inf
    return NetMeasureTable(s=float(s), k=k, K=K, value=value,
                           log_value=log_v, truncated=truncated)


def default_depth_schedule(spec: SystemSpec, engine, node_budget: int) -> list:
    if engine.kind in ("uniform", "diagonal"):
        return [(2 * j, 2 * j + 48) for j in range(1, 49)]
    cap = engine.max_depth_within(node_budget)
    delta = max(2, cap - 16)
    return [(2 * j, min(2 * j + delta, cap)) for j in range(1, 9) if 2 * j < cap]


def estimate_sA(spec: SystemSpec, tol: float = 0.02, depth_schedule=None,
                node_budget: int = DEFAULT_NODE_BUDGET) -> DimensionReport:
    """Critical exponent of the net measure, by trend-classified bisection
    over a schedule of (min depth, horizon) windows."""
    flags = _finding_flags(spec)
    engine = make_engine(spec)
    if depth_schedule is None:
        depth_schedule = default_depth_schedule(spec, engine, node_budget)
    trace = []
    saw_truncation = []

    def classify(s):
        xs, vals = [], []
        series = engine.net_measure_series(s, depth_schedule, node_budget)
        for (k, _), item in zip(depth_schedule, series):
            if item is None:
                saw_truncation.append(True)
                continue
            log_v, truncated = item
            if truncated:
                saw_truncation.append(True)
            xs.append(float(k))
            vals.append(log_v)
        return _classify_liminf(xs, vals)

    est, bracket, bflags = _bisect(classify, 0.0, spec.dim + 1.0, tol, trace)
    flags += bflags
    if saw_truncation:
        flags.append("budget_truncated")
    schedule = {
        "kind": "depth_windows",
        "windows": [[int(k), int(K)] for k, K in depth_schedule],
        "theta_low": THETA_LOW,
        "theta_high": THETA_HIGH,
        "node_budget": node_budget,
        "engine": engine.kind,
    }
    return DimensionReport("s_A", est, bracket, schedule, flags, trace)


def _decreasing_root(f, hi: float, tol: float, trace=None):
    """Bracket (lo, hi) of width <= tol around the zero of a decreasing f.

    The search starts on [0, hi] and doubles hi (up to 64) while f(hi) > 0.
    Bisection probes go to ``trace`` as {"s", "log_p"} entries when given.
    """
    lo = 0.0
    while f(hi) > 0.0 and hi < 64.0:
        lo, hi = hi, hi * 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        v = f(mid)
        if trace is not None:
            trace.append({"s": mid, "log_p": v})
        if v > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _stationary_spec(level: LevelSpec) -> SystemSpec:
    d = level.dim
    return SystemSpec(
        dim=d,
        schedule=Schedule(kind="constant", levels=(level,)),
        translations=TranslationScheme(kind="explicit", table={}),
        seed_region=Box(np.zeros(d), np.ones(d)),
    )


def pressure_root(level: LevelSpec, tol: float = 1e-7, max_depth: int | None = None,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> DimensionReport:
    """Root of the per-level growth rate p(s) = 1 for one stationary family.

    p(s) is estimated by the ratio (S_{k2}/S_{k1})^(1/(k2-k1)) of depth
    sums, which cancels the bounded prefactor; p is strictly decreasing in
    s, so plain bisection is sound.
    """
    if level.branch_count < 2:
        raise InapplicableEstimator("pressure root needs at least 2 maps")
    spec = _stationary_spec(level)
    flags = _finding_flags(spec)
    engine = make_engine(spec)
    if max_depth is None:
        max_depth = 96 if engine.kind in ("uniform", "diagonal") else max(
            8, engine.max_depth_within(node_budget)
        )
    k1 = max(1, max_depth // 2)
    k2 = max_depth
    trace = []

    def log_p(s):
        s1, s2 = engine.level_log_sums(s, (k1, k2))
        return (s2 - s1) / (k2 - k1)

    lo, hi = _decreasing_root(log_p, level.dim + 1.0, tol, trace)
    schedule = {"kind": "pressure_ratio", "depths": [k1, k2], "engine": engine.kind}
    return DimensionReport("falconer", 0.5 * (lo + hi), (lo, hi), schedule, flags, trace)


def _scalar_ratios(spec: SystemSpec) -> dict:
    """Per distinct level, the list of scalar contraction ratios.

    Raises InapplicableEstimator naming the offending level when any map is
    not scalar.
    """
    ratios = {}
    for idx, lvl in enumerate(spec.schedule.distinct_levels()):
        for j, m in enumerate(lvl.maps):
            if not m.is_scalar():
                raise InapplicableEstimator(
                    f"levels[{idx}].maps[{j}] is not a scalar matrix; "
                    "the product-equation dimensions need scalar maps"
                )
        ratios[idx] = [abs(float(m.entries[0, 0])) for m in lvl.maps]
    return ratios


def _moran_root(spec: SystemSpec, ratios: dict, occ: dict) -> float:
    """Root d of prod_i sum_j c_ij^d = 1, level i taken occ[i] times."""
    def f(dd):
        return math.fsum(
            cnt * math.log(math.fsum(c ** dd for c in ratios[idx]))
            for idx, cnt in occ.items()
        )

    lo, hi = _decreasing_root(f, spec.dim + 1.0, 1e-12)
    return 0.5 * (lo + hi)


def moran_dk(spec: SystemSpec, k: int) -> float:
    """Unique root of prod_{i<=k} sum_j c_ij^d = 1 for scalar systems."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ratios = _scalar_ratios(spec)
    occ = {}
    for i in range(1, k + 1):
        idx = spec.schedule.level_index(i)
        occ[idx] = occ.get(idx, 0) + 1
    return _moran_root(spec, ratios, occ)


def moran_dims(spec: SystemSpec, k_max: int = 200):
    """Tail extrema of the per-depth roots d_k; returns (d_lower, d_upper) reports.

    d_lower takes the min over the tail window [k_max/2, k_max], d_upper the
    max; the full d_k trace rides along in both reports.
    """
    ratios = _scalar_ratios(spec)
    occ = {}
    trace = []
    d_ks = []
    for k in range(1, k_max + 1):
        idx = spec.schedule.level_index(k)
        occ[idx] = occ.get(idx, 0) + 1
        d_ks.append(_moran_root(spec, ratios, occ))
        trace.append({"k": k, "d_k": d_ks[-1]})

    w0 = max(0, k_max // 2 - 1)
    window = d_ks[w0:]
    schedule = {"kind": "moran_trace", "k_max": k_max, "window_start": w0 + 1}
    lower = DimensionReport("moran_lower", min(window), (min(window), min(window)),
                            schedule, [], trace)
    upper = DimensionReport("moran_upper", max(window), (max(window), max(window)),
                            schedule, [], trace)
    return lower, upper
