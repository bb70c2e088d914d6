"""Critical-value estimators over the level tree.

Every critical value here is where a quantity decreasing in s crosses a
threshold, and one bisection, ``_bisect``, finds them all.  It asks a
classifier whether a probe s lies above or below the critical value; each
classifier records its own evidence in the report's trace.

* s* and s_A replace their limits by trend classification over explicit
  epsilon / depth schedules.  The cut-set cost series at s is "above" when
  its global maximum sits in the first third of the schedule (the limsup
  evidence dies out) and "below" when it sits later (new records keep
  forming); net-measure series mirror this with running minima.  A probe
  left indeterminate, with both its nearby alternatives, ends the search
  with no estimate, flagged ``indeterminate_trend``.
* The stationary pressure root and the Moran product-equation roots classify
  by the sign of their decreasing function: below while it is positive.
  Like the engine-backed estimators, the Moran roots refuse a system with a
  map that does not contract or is singular.

The search doubles its upper end while the probe there is below, up to 64.
A critical value above that gets no estimate, flagged
``upper_endpoint_below``, whichever estimator asked.  The Moran roots d_k
come from one pass over levels 1..k_max, which checks k_max once: below 1
raises ``ValueError`` and above 10^4 ``BudgetExceeded``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, InapplicableEstimator
from .symbolic import _MAX_CHAIN_DEPTH, DEFAULT_NODE_BUDGET, make_engine
from .system import SystemSpec, alpha_bounds, validate

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


@dataclass
class DimensionReport:
    """Estimator output: estimate, bisection bracket, and diagnostics."""

    quantity: str
    estimate: float | None
    bracket: tuple
    schedule: dict
    flags: list = field(default_factory=list)
    trace: list = field(default_factory=list)


def _classify_limsup(xs, vals) -> int:
    """Trend class of a log-cost series whose limit criterion is a limsup."""
    if len(vals) < 3:
        return INDETERMINATE
    vals = np.asarray(vals, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if float(vals.max() - vals.min()) < 1e-12:
        return INDETERMINATE  # flat series carries no trend evidence
    rho = float((xs[int(np.argmax(vals))] - xs[0]) / (xs[-1] - xs[0]))
    return BELOW if rho >= _TREND_SPLIT else ABOVE


def _classify_liminf(xs, vals) -> int:
    """Trend class of a log net-measure series (liminf criterion).

    Above the critical value, deeper windows keep revealing cheaper covers,
    so the global minimum drifts late; below it, costs only grow.  This is
    the limsup rule on the negated series with the classes swapped.
    """
    return -_classify_limsup(xs, -np.asarray(vals, dtype=float))


def _bisect(classify, lo: float, hi: float, tol: float):
    """Bisection with three-way probes; returns (estimate, bracket, flags).

    ``classify(s)`` returns ABOVE, BELOW or INDETERMINATE.  A below probe
    becomes the lower end and an above probe the upper end, and later probes
    fall strictly inside, so every below probe ends at or under lo and every
    above probe at or over hi (save the top probe of a search that gives up
    at 64).
    """
    # Any such tol ends the search: it also stops once the midpoint leaves (lo, hi).
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    # Extend hi while everything up there still classifies below.
    top = classify(hi)
    while top == BELOW and hi < 64.0:
        lo = hi
        hi = hi * 2.0
        top = classify(hi)
    if top == BELOW:
        return None, (lo, hi), ["upper_endpoint_below"]

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        c = classify(mid)
        if c == INDETERMINATE:
            width = hi - lo
            for alt in (mid - width / 8.0, mid + width / 8.0):
                if lo < alt < hi:
                    c = classify(alt)
                    if c != INDETERMINATE:
                        mid = alt
                        break
        if c == BELOW:
            lo = mid
        elif c == ABOVE:
            hi = mid
        else:
            return None, (lo, hi), ["indeterminate_trend"]
    return 0.5 * (lo + hi), (lo, hi), []


def _sign_class(value: float) -> int:
    """Class of a probe from a function that decreases in s through zero at the root."""
    return BELOW if value > 0.0 else ABOVE


_CLASS_NAMES = {ABOVE: "above", BELOW: "below", INDETERMINATE: "indeterminate"}


def _trend_estimate(quantity: str, rule, xs, series, schedule: dict, spec: SystemSpec,
                    engine, tol: float, node_budget: int) -> DimensionReport:
    """Bisect on the trend ``rule`` of ``series(s)``, one log value per point
    of ``xs`` or None where the node budget cut it, and build the report."""
    trace = []
    truncated = False

    def classify(s):
        nonlocal truncated
        kept = [(x, v) for x, v in zip(xs, series(s)) if v is not None]
        truncated = truncated or len(kept) < len(xs)
        c = rule([x for x, _ in kept], [v for _, v in kept])
        trace.append({"s": s, "class": _CLASS_NAMES[c]})
        return c

    est, bracket, flags = _bisect(classify, 0.0, spec.dim + 1.0, tol)
    flags = list(engine.flags) + flags + (["budget_truncated"] if truncated else [])
    schedule = {**schedule, "node_budget": node_budget, "engine": engine.kind}
    return DimensionReport(quantity, est, bracket, schedule, flags, trace)


def default_eps_log_schedule(spec: SystemSpec, engine_kind: str) -> list:
    """log epsilon_j = 4j * log(alpha_plus); deep for aggregated engines,
    short for the budgeted generic walker."""
    log_ap = math.log(alpha_bounds(spec).alpha_plus)
    count = {"uniform": 96, "diagonal": 48}.get(engine_kind, 12)
    return [4.0 * j * log_ap for j in range(1, count + 1)]


def estimate_sstar(spec: SystemSpec, tol: float = 0.02, eps_schedule=None,
                   node_budget: int = DEFAULT_NODE_BUDGET, engine=None) -> DimensionReport:
    """Critical exponent of cut-set cost sums, by trend-classified bisection.

    ``eps_schedule`` takes plain epsilon values in (0,1), strictly
    decreasing; by default a geometric schedule in alpha_plus is used whose
    length adapts to the engine (aggregated engines afford far deeper
    trees than the generic walker).  ``engine`` is ``make_engine(spec)``,
    built here when not given.
    """
    if eps_schedule is not None:
        eps_schedule = list(eps_schedule)
        if not eps_schedule:
            raise ValueError("eps_schedule is empty")
        for i, e in enumerate(eps_schedule):
            if not 0.0 < e < 1.0:
                raise ValueError(f"eps_schedule[{i}] = {e} lies outside (0, 1)")
            if i and e >= eps_schedule[i - 1]:
                raise ValueError(f"eps_schedule must be strictly decreasing; "
                                 f"eps_schedule[{i}] = {e} is not")
        log_eps = [math.log(e) for e in eps_schedule]
    if engine is None:
        engine = make_engine(spec)
    if eps_schedule is None:
        log_eps = default_eps_log_schedule(spec, engine.kind)

    def series(s):
        sums, complete, _ = engine.schedule_log_sums(s, log_eps, node_budget)
        return [v if ok else None for v, ok in zip(sums, complete)]

    schedule = {"kind": "geometric_eps", "log_eps": [float(v) for v in log_eps]}
    return _trend_estimate("s_star", _classify_limsup, [-le for le in log_eps], series,
                           schedule, spec, engine, tol, node_budget)


def _check_window(k: int, K: int) -> None:
    if not 1 <= k <= K:
        raise ValueError(f"need 1 <= k <= K, got the window ({k}, {K})")


def net_measure(spec: SystemSpec, s: float, k: int, K: int,
                node_budget: int = DEFAULT_NODE_BUDGET) -> NetMeasureTable:
    """Exact infimum of phi^s cover costs over cylinder depths in [k, K].

    Dynamic program on the level tree: leaves at depth K cost their own
    phi, inner nodes at depth >= k take the cheaper of covering themselves
    or their children, shallower nodes must pass to children.  Raises
    BudgetExceeded when the tree through depth K, root included, holds more
    than ``node_budget`` nodes: classes on the lattice, words on the generic
    walker (the chain engine is not budgeted).
    """
    _check_window(k, K)
    (log_v,) = make_engine(spec).net_measure_series(s, [(k, K)], node_budget)
    if log_v is None:
        raise BudgetExceeded(f"net-measure window [{k}, {K}] does not fit the node budget")
    try:
        value = math.exp(log_v)
    except OverflowError:
        value = math.inf
    return NetMeasureTable(s=float(s), k=k, K=K, value=value, log_value=log_v)


def default_depth_schedule(spec: SystemSpec, engine, node_budget: int) -> list:
    if engine.kind in ("uniform", "diagonal"):
        return [(2 * j, 2 * j + 48) for j in range(1, 49)]
    cap = engine.max_depth_within(node_budget)
    delta = max(2, cap - 16)
    return [(2 * j, min(2 * j + delta, cap)) for j in range(1, 9) if 2 * j < cap]


def estimate_sA(spec: SystemSpec, tol: float = 0.02, depth_schedule=None,
                node_budget: int = DEFAULT_NODE_BUDGET, engine=None) -> DimensionReport:
    """Critical exponent of the net measure, by trend-classified bisection
    over a schedule of (min depth, horizon) windows.

    A window whose tree through its horizon does not fit ``node_budget`` is
    left out of every probe and the report is flagged ``budget_truncated``.
    An empty ``depth_schedule`` raises ValueError; the default one raises
    BudgetExceeded when ``node_budget`` is too small for any window on the
    generic engine.  ``engine`` is ``make_engine(spec)``, built here when
    not given.
    """
    if depth_schedule is not None:
        depth_schedule = list(depth_schedule)
        if not depth_schedule:
            raise ValueError("depth_schedule is empty")
        for k, K in depth_schedule:
            _check_window(k, K)
    if engine is None:
        engine = make_engine(spec)
    if depth_schedule is None:
        depth_schedule = default_depth_schedule(spec, engine, node_budget)
    if not depth_schedule:
        raise BudgetExceeded(f"no net-measure depth window fits the node budget {node_budget}")

    def series(s):
        return engine.net_measure_series(s, depth_schedule, node_budget)

    schedule = {"kind": "depth_windows",
                "windows": [[int(k), int(K)] for k, K in depth_schedule]}
    return _trend_estimate("s_A", _classify_liminf, [float(k) for k, _ in depth_schedule],
                           series, schedule, spec, engine, tol, node_budget)


def pressure_root(spec: SystemSpec, tol: float = 1e-7,
                  node_budget: int = DEFAULT_NODE_BUDGET, engine=None) -> DimensionReport:
    """Root of the per-level growth rate p(s) = 1 for a stationary family.

    p(s) is estimated by the ratio (S_{k2}/S_{k1})^(1/(k2-k1)) of depth
    sums, which cancels the bounded prefactor; p is strictly decreasing in
    s, so plain bisection is sound.  k2 is 96, or the deepest depth whose
    class tree, root included, fits ``node_budget``, and k1 is k2 // 2;
    raises BudgetExceeded when that leaves k2 below 2.  A schedule that is
    not constant raises InapplicableEstimator before anything is built or
    validated.  ``engine`` is ``make_engine(spec)``, built here when not given.
    """
    if spec.schedule.kind != "constant":
        raise InapplicableEstimator("the pressure root needs a stationary (constant) schedule")
    if engine is None:
        engine = make_engine(spec)
    k2 = engine.max_depth_within(node_budget, 96)
    if k2 < 2:
        raise BudgetExceeded(f"pressure depths need k2 >= 2; the node budget {node_budget} "
                             f"gives k2 = {k2}")
    k1 = k2 // 2
    trace = []

    def classify(s):
        s1, s2 = engine.level_log_sums(s, (k1, k2))
        log_p = (s2 - s1) / (k2 - k1)
        trace.append({"s": s, "log_p": log_p})
        return _sign_class(log_p)

    est, bracket, flags = _bisect(classify, 0.0, spec.dim + 1.0, tol)
    schedule = {"kind": "pressure_ratio", "depths": [k1, k2], "engine": engine.kind}
    return DimensionReport("falconer", est, bracket, schedule, list(engine.flags) + flags,
                           trace)


def _scalar_ratios(spec: SystemSpec) -> dict:
    """Per distinct level, the list of scalar contraction ratios.

    Raises InapplicableEstimator naming the offending level when any map is
    not scalar.
    """
    ratios = {}
    for idx, lvl in enumerate(spec.schedule.levels):
        for j, m in enumerate(lvl.maps):
            if not m.is_scalar():
                raise InapplicableEstimator(
                    f"levels[{idx}].maps[{j}] is not a scalar matrix; "
                    "the product-equation dimensions need scalar maps"
                )
        ratios[idx] = [abs(float(m.entries[0, 0])) for m in lvl.maps]
    return ratios


def _moran_roots(spec: SystemSpec, k_max: int, depths) -> list:
    """Roots d_k of prod_{i<=k} sum_j c_ij^d = 1, None above 64, for the k of
    ``depths`` that lie in 1..k_max, in increasing k; one pass over the levels."""
    if k_max < 1:
        raise ValueError("k must be >= 1")
    if k_max > _MAX_CHAIN_DEPTH:
        raise BudgetExceeded(f"Moran depth {k_max} exceeds {_MAX_CHAIN_DEPTH}")
    ratios = _scalar_ratios(spec)
    for finding in validate(spec):  # as make_engine: no roots for a broken invariant
        finding.raise_if_invariant()
    occ = {}  # distinct level -> its occurrences among levels 1..k

    def classify(dd):
        return _sign_class(math.fsum(
            cnt * math.log(math.fsum(c ** dd for c in ratios[idx]))
            for idx, cnt in occ.items()
        ))

    roots = []
    for k in range(1, k_max + 1):
        level = spec.schedule.level_index(k)
        occ[level] = occ.get(level, 0) + 1
        if k in depths:
            roots.append(_bisect(classify, 0.0, spec.dim + 1.0, 1e-12)[0])
    return roots


def moran_dk(spec: SystemSpec, k: int) -> float | None:
    """Unique root of prod_{i<=k} sum_j c_ij^d = 1 for scalar systems, or
    None when it lies above 64.  Raises ValueError for k below 1 and
    BudgetExceeded for k above 10^4."""
    return _moran_roots(spec, k, (k,))[0]


def moran_dims(spec: SystemSpec, k_max: int = 200):
    """Tail extrema of the per-depth roots d_k, each ``moran_dk(spec, k)`` bit
    for bit; returns (d_lower, d_upper) reports.

    d_lower takes the min over the tail window [k_max/2, k_max], d_upper the
    max; the full d_k trace rides along in both reports.  A d_k above 64 is
    None, and one in the window leaves both reports without an estimate or
    bracket, flagged ``upper_endpoint_below``.  Raises ValueError for
    ``k_max`` below 1 and BudgetExceeded above 10^4.
    """
    d_ks = _moran_roots(spec, k_max, range(1, k_max + 1))
    trace = [{"k": k, "d_k": d} for k, d in enumerate(d_ks, start=1)]

    w0 = max(0, k_max // 2 - 1)
    window = d_ks[w0:]
    schedule = {"kind": "moran_trace", "k_max": k_max, "window_start": w0 + 1}
    flags = ["upper_endpoint_below"] if None in window else []
    ends = (None, None) if flags else (min(window), max(window))
    return tuple(DimensionReport(q, e, (e, e), schedule, list(flags), trace)
                 for q, e in zip(("moran_lower", "moran_upper"), ends))
