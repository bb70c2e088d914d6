import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from morandim.dims import (
    _bisect,
    _classify_liminf,
    _classify_limsup,
    _sign_class,
    ABOVE,
    BELOW,
    INDETERMINATE,
    default_depth_schedule,
    estimate_sA,
    estimate_sstar,
    moran_dims,
    moran_dk,
    net_measure,
    pressure_root,
)
from morandim.errors import BudgetExceeded, InapplicableEstimator, NonsingularityViolated
from morandim.linalg import Matrix, op_norm
from morandim.symbolic import DEFAULT_NODE_BUDGET, GenericEngine, Word, make_engine, product
from morandim.system import (
    Box,
    LevelSpec,
    Schedule,
    SystemSpec,
    TranslationScheme,
    fixture,
)

S_SIM = math.log(2) / math.log(3)


# ---------------------------------------------------------------------------
# net measure
# ---------------------------------------------------------------------------

def test_net_measure_middle_thirds_similarity():
    mt = fixture("middle_thirds")
    assert net_measure(mt, S_SIM, 1, 6).value == pytest.approx(1.0, abs=1e-12)


def test_net_measure_middle_thirds_leaf_cover():
    mt = fixture("middle_thirds")
    assert net_measure(mt, 1.0, 1, 2).value == pytest.approx(4 / 9)


def _random_contraction(rng, d=2):
    while True:
        m = Matrix(rng.uniform(-0.6, 0.6, (d, d)))
        if 0.15 < op_norm(m) < 0.9 and abs(m.det()) > 1e-3:
            return m


def _random_spec(rng, n_levels):
    levels = []
    for _ in range(n_levels):
        n = int(rng.integers(2, 4))
        levels.append(LevelSpec(n, tuple(_random_contraction(rng) for _ in range(n))))
    return SystemSpec(2, Schedule("explicit_prefix_then_periodic", tuple(levels), period=1),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(2), np.ones(2)))


def _brute_cover_min(spec, s, k, K):
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

    n1 = spec.branch_count(1)
    root_opts = [options((j,), 1) for j in range(1, n1 + 1)]
    return min(sum(c) for c in itertools.product(*root_opts))


def test_net_measure_matches_bruteforce_enumeration():
    rng = np.random.default_rng(314)
    for trial in range(12):
        n_levels = 2 if trial % 2 == 0 else 3
        spec = _random_spec(rng, n_levels)
        s = float(rng.uniform(0.2, 2.5))
        dp = net_measure(spec, s, 1, n_levels).value
        bf = _brute_cover_min(spec, s, 1, n_levels)
        assert dp == pytest.approx(bf, abs=1e-12)


def test_net_measure_monotonicity():
    spec = fixture("example_5_4")
    for s in (0.9, 1.2, 1.5):
        vals_K = [net_measure(spec, s, 2, K).log_value for K in (4, 6, 8, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(vals_K, vals_K[1:]))
        vals_k = [net_measure(spec, s, k, 10).log_value for k in (1, 2, 3, 4)]
        assert all(a <= b + 1e-12 for a, b in zip(vals_k, vals_k[1:]))
    vals_s = [net_measure(spec, s, 2, 8).log_value for s in (0.8, 1.1, 1.4, 1.7)]
    assert all(a > b for a, b in zip(vals_s, vals_s[1:]))


def test_net_measure_argument_check():
    with pytest.raises(ValueError):
        net_measure(fixture("middle_thirds"), 1.0, 3, 2)


def test_net_measure_raises_on_singular_system():
    with pytest.raises(NonsingularityViolated):
        net_measure(fixture("example_5_2"), 1.0, 1, 3)


@pytest.mark.parametrize("name,kind,budget", [
    ("middle_thirds", "uniform", DEFAULT_NODE_BUDGET),
    ("random_diag_pair", "diagonal", DEFAULT_NODE_BUDGET),
    ("example_5_3", "generic", 3000),
])
def test_net_measure_series_matches_single_windows(name, kind, budget):
    spec = fixture(name)
    engine = make_engine(spec)
    assert engine.kind == kind
    windows = default_depth_schedule(spec, engine, budget)
    for s in (0.6, 1.1, 1.7):
        series = engine.net_measure_series(s, windows, budget)
        assert len(series) == len(windows)
        for (k, K), item in zip(windows, series):
            table = net_measure(spec, s, k, K, node_budget=budget)
            assert item == table.log_value


@pytest.mark.parametrize("name", ["middle_thirds", "example_5_4", "sierpinski_carpet",
                                  "similarity_pair", "diag_triple", "scalar_blocks",
                                  "random_affine", "random_diag_pair"])
def test_aggregated_net_measure_matches_generic_walk(name):
    spec = fixture(name)
    windows = [(1, 4), (2, 6), (3, 6), (5, 6), (4, 4)]
    for s in (0.6, 1.1, 1.7):
        fast = make_engine(spec).net_measure_series(s, windows, DEFAULT_NODE_BUDGET)
        walk = GenericEngine(spec).net_measure_series(s, windows, DEFAULT_NODE_BUDGET)
        for a, b in zip(fast, walk):
            assert a == pytest.approx(b, rel=1e-9)


def test_net_measure_window_over_budget_raises():
    spec = fixture("random_diag_pair")
    assert make_engine(spec).kind == "diagonal"
    with pytest.raises(BudgetExceeded):
        net_measure(spec, 1.0, 2, 50, node_budget=100)


# ---------------------------------------------------------------------------
# pressure root
# ---------------------------------------------------------------------------

def test_pressure_root_similarity_pair():
    rep = pressure_root(fixture("similarity_pair"))
    assert rep.estimate == pytest.approx(S_SIM, abs=1e-6)


def test_pressure_root_four_half_maps():
    lvl = LevelSpec(4, (Matrix.diagonal([0.5, 0.5]),) * 4)
    rep = pressure_root(dataclasses.replace(fixture("similarity_pair"),
                                            schedule=Schedule("constant", (lvl,))))
    assert rep.estimate == pytest.approx(2.0, abs=1e-6)


def test_pressure_root_diag_triple():
    rep = pressure_root(fixture("diag_triple"))
    assert rep.estimate == pytest.approx(1 + math.log(1.5) / math.log(4), abs=1e-6)


def test_pressure_root_refuses_a_periodic_schedule_before_it_validates(monkeypatch):
    # the second level does not contract, yet the schedule is what is blamed
    mt = fixture("middle_thirds")
    bad = LevelSpec(2, (Matrix.diagonal([1.5]),) * 2)
    spec = dataclasses.replace(mt, schedule=Schedule("periodic", (mt.schedule.levels[0], bad)))
    monkeypatch.setattr("morandim.dims.make_engine", lambda spec: pytest.fail("built"))
    with pytest.raises(InapplicableEstimator, match=r"stationary \(constant\) schedule"):
        pressure_root(spec)


# ---------------------------------------------------------------------------
# Moran product-equation roots
# ---------------------------------------------------------------------------

def _scalar_two_phase():
    a = LevelSpec(2, (Matrix.diagonal([0.25]),) * 2)
    b = LevelSpec(3, (Matrix.diagonal([1 / 3]),) * 3)
    return SystemSpec(1, Schedule("periodic", (a, b)),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(1), np.ones(1)))


def test_moran_dk_values():
    spec = _scalar_two_phase()
    assert moran_dk(spec, 1) == pytest.approx(0.5, abs=1e-9)
    assert moran_dk(spec, 2) == pytest.approx(math.log(6) / math.log(12), abs=1e-9)
    third = SystemSpec(1, Schedule("constant",
                                   (LevelSpec(2, (Matrix.diagonal([1 / 3]),) * 2),)),
                       TranslationScheme("explicit", table={}),
                       Box(np.zeros(1), np.ones(1)))
    assert moran_dk(third, 1) == pytest.approx(S_SIM, abs=1e-9)


def test_moran_dk_rejects_non_scalar():
    with pytest.raises(InapplicableEstimator, match="levels"):
        moran_dk(fixture("example_5_4"), 3)


@pytest.mark.parametrize("k, error, match", [
    (10_001, BudgetExceeded, "Moran depth 10001 exceeds 10000"),
    (0, ValueError, "k must be >= 1"),
    (-2, ValueError, "k must be >= 1"),
])
def test_moran_depth_outside_1_to_the_chain_cap_is_rejected(k, error, match):
    spec = fixture("scalar_blocks")
    with pytest.raises(error, match=match):
        moran_dk(spec, k)
    with pytest.raises(error, match=match):
        moran_dims(spec, k_max=k)


def test_moran_dims_constant_schedule():
    third = SystemSpec(1, Schedule("constant",
                                   (LevelSpec(2, (Matrix.diagonal([1 / 3]),) * 2),)),
                       TranslationScheme("explicit", table={}),
                       Box(np.zeros(1), np.ones(1)))
    lower, upper = moran_dims(third, k_max=40)
    assert lower.estimate == pytest.approx(S_SIM, abs=1e-9)
    assert upper.estimate == pytest.approx(S_SIM, abs=1e-9)


def test_moran_dims_blocks_ordering_and_bounds():
    lower, upper = moran_dims(fixture("scalar_blocks"), k_max=200)
    assert lower.estimate < upper.estimate
    assert 0.5 <= lower.estimate <= 1.0
    assert 0.5 <= upper.estimate <= 1.0
    d_upper_true = (math.log(2) + 2 * math.log(3)) / (math.log(4) + 2 * math.log(3))
    assert upper.estimate == pytest.approx(d_upper_true, abs=1e-9)


def test_moran_dims_kmax_one():
    lower, upper = moran_dims(_scalar_two_phase(), k_max=1)
    assert lower.estimate == upper.estimate == pytest.approx(0.5, abs=1e-9)


def _near_one_then_small():
    # d_1 = log 2 / -log 0.99 = 68.97; once the 0.1 level joins, d_k drops below 1
    near_one = LevelSpec(2, (Matrix.diagonal([0.99]),) * 2)
    small = LevelSpec(2, (Matrix.diagonal([0.1]),) * 2)
    return SystemSpec(1, Schedule("periodic", (near_one, small)),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(1), np.ones(1)))


def test_moran_dims_null_when_a_root_in_the_window_is_above_64():
    spec = _near_one_then_small()
    assert moran_dk(spec, 1) is None
    d_2 = 2 * math.log(2) / -(math.log(0.99) + math.log(0.1))
    assert moran_dk(spec, 2) == pytest.approx(d_2, abs=1e-9)
    for k_max in (1, 2):  # window starts at d_1
        reports = moran_dims(spec, k_max=k_max)
        assert [r.trace[0]["d_k"] for r in reports] == [None, None]
        for rep in reports:
            assert rep.estimate is None and rep.flags == ["upper_endpoint_below"]
    lower, upper = moran_dims(spec, k_max=4)  # window d_2..d_4
    assert lower.trace[0]["d_k"] is None
    assert lower.estimate == pytest.approx(d_2, abs=1e-9) and upper.estimate < 1.0
    assert lower.flags == upper.flags == []


@pytest.mark.parametrize("make_spec, K", [
    (lambda: fixture("scalar_blocks"), 200),
    (_scalar_two_phase, 12),
    (_near_one_then_small, 12),
])
def test_moran_dk_is_the_one_pass_trace_bit_for_bit(make_spec, K):
    spec = make_spec()
    trace = moran_dims(spec, k_max=K)[0].trace
    assert [row["k"] for row in trace] == list(range(1, K + 1))
    # list equality holds a None only against a None
    assert [moran_dk(spec, k) for k in range(1, K + 1)] == [row["d_k"] for row in trace]


# ---------------------------------------------------------------------------
# trend classification and the critical-value estimators
# ---------------------------------------------------------------------------

def test_classifier_basic_shapes():
    xs = list(range(12))
    growing = [0.5 * x for x in xs]
    decaying = [-0.5 * x for x in xs]
    assert _classify_limsup(xs, growing) == BELOW
    assert _classify_limsup(xs, decaying) == ABOVE
    assert _classify_limsup(xs, [1.0] * 12) == INDETERMINATE
    assert _classify_limsup(xs[:2], [0.0, 1.0]) == INDETERMINATE
    assert _classify_liminf(xs, growing) == BELOW
    assert _classify_liminf(xs, decaying) == ABOVE


def test_classify_limsup_is_the_extremum_position_rule():
    rng = np.random.default_rng(2024)
    for _ in range(400):
        n = int(rng.integers(3, 25))
        xs = np.cumsum(rng.uniform(0.1, 3.0, n))
        # offsets and spreads put tails on both sides of log 1e-3 and log 1e3
        vals = rng.uniform(-20, 20) + rng.normal(0, 10.0 ** rng.uniform(-2, 1.5), n)
        rho = (xs[np.argmax(vals)] - xs[0]) / (xs[-1] - xs[0])
        assert _classify_limsup(xs, vals) == (BELOW if rho >= 1 / 3 else ABOVE)
    for n in (0, 1, 2):
        assert _classify_limsup(np.arange(n), rng.normal(size=n)) == INDETERMINATE
    for level in (-20.0, 0.0, 20.0):
        assert _classify_limsup(np.arange(12), np.full(12, level)) == INDETERMINATE


def test_estimate_sstar_middle_thirds():
    rep = estimate_sstar(fixture("middle_thirds"), tol=0.02)
    assert rep.estimate == pytest.approx(S_SIM, abs=0.02)
    assert rep.bracket[0] <= rep.estimate <= rep.bracket[1]
    assert rep.bracket[1] - rep.bracket[0] <= 0.02 + 1e-12


def test_estimate_sA_middle_thirds():
    rep = estimate_sA(fixture("middle_thirds"), tol=0.02)
    assert rep.estimate == pytest.approx(S_SIM, abs=0.02)


def test_estimate_sstar_scalar_blocks_matches_d_upper():
    rep = estimate_sstar(fixture("scalar_blocks"), tol=0.02)
    _, upper = moran_dims(fixture("scalar_blocks"), k_max=200)
    assert abs(rep.estimate - upper.estimate) <= 0.05


def test_estimators_raise_on_singular_system():
    with pytest.raises(NonsingularityViolated):
        estimate_sstar(fixture("example_5_2"))


def test_estimator_indeterminate_on_degenerate_diameters():
    rep = estimate_sstar(fixture("example_5_1"))
    assert rep.estimate is None
    assert "indeterminate_trend" in rep.flags
    assert "error:DiameterNotVanishing" in rep.flags


def test_report_json_shape():
    rep = estimate_sstar(fixture("middle_thirds"))
    obj = dataclasses.asdict(rep)
    assert set(obj) == {"quantity", "estimate", "bracket", "schedule", "flags", "trace"}
    assert obj["quantity"] == "s_star"
    assert len(obj["bracket"]) == 2


def test_bisection_soundness_recorded_in_trace():
    rep = estimate_sstar(fixture("example_5_4"), tol=0.05)
    classes = {t["s"]: t["class"] for t in rep.trace}
    belows = [s for s, c in classes.items() if c == "below"]
    aboves = [s for s, c in classes.items() if c == "above"]
    assert max(belows) < min(aboves)


def test_reports_of_one_engine_do_not_share_a_flags_list():
    spec = fixture("example_5_1")  # a DiameterNotVanishing finding in both reports
    engine = make_engine(spec)
    finding_flags = list(engine.flags)
    sa = estimate_sA(spec, engine=engine)
    ss = estimate_sstar(spec, engine=engine)
    assert "error:DiameterNotVanishing" in finding_flags
    assert ss.flags[:len(finding_flags)] == sa.flags[:len(finding_flags)] == finding_flags
    assert ss.flags is not sa.flags
    assert engine.flags == finding_flags
    ss.flags.append("x")
    assert "x" not in sa.flags and "x" not in engine.flags


def test_estimator_budget_truncation_flagged():
    rep = estimate_sstar(fixture("example_5_3"), node_budget=2_000)
    assert rep.estimate is None or "budget_truncated" in rep.flags or rep.estimate > 0


def test_estimate_sstar_user_schedule():
    mt = fixture("middle_thirds")
    eps = [3.0 ** -(2 * j) for j in range(1, 13)]
    rep = estimate_sstar(mt, tol=0.02, eps_schedule=eps)
    assert rep.estimate == pytest.approx(S_SIM, abs=0.02)
    with pytest.raises(ValueError):
        estimate_sstar(mt, eps_schedule=[0.1, 0.2])


def _no_engine_work(monkeypatch):
    import morandim.dims as dims

    def refuse(spec):
        raise AssertionError("an engine was built before the arguments were checked")

    monkeypatch.setattr(dims, "make_engine", refuse)


# one fixture per engine: the chain, the lattice and the generic walker
ENGINE_FIXTURES = ("middle_thirds", "random_diag_pair", "example_5_3")


@pytest.mark.parametrize("name", ENGINE_FIXTURES)
@pytest.mark.parametrize("eps, match", [
    ([], "eps_schedule is empty"),
    ([1.5, 0.5, 0.1, 0.01], r"eps_schedule\[0\] = 1.5 lies outside \(0, 1\)"),
    ([0.5, 0.1, 0.0], r"eps_schedule\[2\] = 0.0 lies outside"),
    ([0.5, math.nan], r"eps_schedule\[1\] = nan lies outside"),
    ([0.5, 0.1, 0.1], r"strictly decreasing; eps_schedule\[2\] = 0.1 is not"),
])
def test_estimate_sstar_rejects_a_bad_eps_schedule_up_front(monkeypatch, name, eps, match):
    spec = fixture(name)
    _no_engine_work(monkeypatch)
    with pytest.raises(ValueError, match=match):
        estimate_sstar(spec, eps_schedule=eps)


@pytest.mark.parametrize("name", ENGINE_FIXTURES)
@pytest.mark.parametrize("windows, bad", [
    ([], None),
    ([(3, 2)], (3, 2)),
    ([(0, 4)], (0, 4)),
    ([(1, 3), (5, 4)], (5, 4)),
])
def test_estimate_sA_rejects_a_window_outside_1_to_K_up_front(monkeypatch, name, windows, bad):
    spec = fixture(name)
    _no_engine_work(monkeypatch)
    match = ("depth_schedule is empty" if bad is None
             else re.escape(f"need 1 <= k <= K, got the window {bad}"))
    for schedule in (windows, (w for w in windows)):  # a generator is read once, like a list
        with pytest.raises(ValueError, match=match):
            estimate_sA(spec, depth_schedule=schedule)
    if bad is not None:
        with pytest.raises(ValueError, match=match):
            net_measure(spec, 1.0, *bad)


def test_estimate_sA_reads_a_generator_schedule_as_its_list():
    spec = fixture("middle_thirds")
    windows = [(2 * j, 2 * j + 20) for j in range(1, 9)]
    assert (estimate_sA(spec, depth_schedule=(w for w in windows))
            == estimate_sA(spec, depth_schedule=windows))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_estimators_reject_a_tol_that_is_not_finite_and_positive(tol):
    mt = fixture("middle_thirds")
    for estimate in (estimate_sstar, estimate_sA):
        with pytest.raises(ValueError, match="tol"):
            estimate(mt, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        pressure_root(mt, tol=tol)


def test_tiny_tol_stops_when_the_bracket_cannot_split():
    est, (lo, hi), flags = _bisect(lambda s: _sign_class(0.3 - s), 0.0, 1.0, 1e-300)
    assert lo < 0.3 <= hi and 0.5 * (lo + hi) in (lo, hi)  # no float strictly inside
    assert est == 0.5 * (lo + hi) and flags == []
    mt = fixture("middle_thirds")
    rep = estimate_sstar(mt, tol=1e-300)
    assert len(rep.trace) < 80
    assert rep.bracket[0] <= math.log(2) / math.log(3) <= rep.bracket[1]
    root = pressure_root(mt, tol=1e-300)
    assert abs(root.estimate - math.log(2) / math.log(3)) < 1e-9


# ---------------------------------------------------------------------------
# one bisection for every critical value
# ---------------------------------------------------------------------------

def _reference_decreasing_root(f, hi, tol):
    """The pressure and Moran bisection this package used to run on its own.

    Bracket (lo, hi) around the zero of a decreasing f on [0, hi], doubling
    hi while f(hi) > 0 up to 64, and bisecting whatever bracket that leaves.
    """
    lo = 0.0
    while f(hi) > 0.0 and hi < 64.0:
        lo, hi = hi, hi * 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _linear(root, slope):
    return lambda s: slope * (root - s)


def _log_sum(ratios):
    """log sum_j c_j^s, decreasing through zero at the similarity dimension."""
    return lambda s: math.log(math.fsum(c ** s for c in ratios))


def test_bisect_with_the_sign_class_matches_the_reference_root():
    pytest.importorskip("hypothesis")
    from hypothesis import given, strategies as st

    decreasing = st.one_of(
        st.builds(_linear, st.floats(1e-3, 200.0), st.floats(1e-3, 1e3)),
        st.builds(_log_sum, st.lists(st.floats(0.01, 0.999), min_size=2, max_size=5)),
    )

    @given(decreasing, st.floats(0.5, 8.0), st.sampled_from([1e-2, 1e-7, 1e-12, 1e-300]))
    def check(f, hi, tol):
        lo_ref, hi_ref = _reference_decreasing_root(f, hi, tol)
        est, bracket, flags = _bisect(lambda s: _sign_class(f(s)), 0.0, hi, tol)
        if f(hi_ref) <= 0.0:  # the doubling reached the root
            assert bracket == (lo_ref, hi_ref) and flags == []
            assert est == 0.5 * (lo_ref + hi_ref)
        else:  # the root lies above the last doubling, which reached 64
            assert hi_ref >= 64.0
            assert est is None and flags == ["upper_endpoint_below"]
        if f(64.0) <= 0.0:  # a root at or below 64 is always found
            assert est is not None

    check()


def test_bisect_brackets_every_probe_whatever_the_classifier():
    # each class is drawn per probe and kept for that s, so a classifier may
    # contradict itself across probes; the bracket must still separate them
    pytest.importorskip("hypothesis")
    from hypothesis import given, strategies as st

    @given(st.data(), st.floats(0.0, 4.0), st.floats(1e-3, 8.0),
           st.sampled_from([0.5, 1e-3, 1e-9]))
    def check(data, lo, width, tol):
        classes = {}

        def classify(s):
            if s not in classes:
                classes[s] = data.draw(st.sampled_from([ABOVE, BELOW, INDETERMINATE]))
            return classes[s]

        est, (b_lo, b_hi), flags = _bisect(classify, lo, lo + width, tol)
        belows = [s for s, c in classes.items() if c == BELOW]
        aboves = [s for s, c in classes.items() if c == ABOVE]
        if flags == ["upper_endpoint_below"]:  # every probe doubled hi, up to 64
            assert est is None and not aboves and max(belows) == b_hi >= 64.0
            return
        assert b_lo < b_hi
        assert all(s <= b_lo for s in belows) and all(b_hi <= s for s in aboves)
        if flags:
            assert est is None and flags == ["indeterminate_trend"]
        else:
            assert est == 0.5 * (b_lo + b_hi)

    check()


def test_pressure_root_above_64_is_flagged():
    lvl = LevelSpec(2, (Matrix.diagonal([0.99]),) * 2)  # root 68.97
    rep = pressure_root(dataclasses.replace(fixture("middle_thirds"),
                                            schedule=Schedule("constant", (lvl,))))
    assert rep.estimate is None and "upper_endpoint_below" in rep.flags
    assert rep.trace[0]["s"] == 2.0 and rep.trace[0]["log_p"] > 0.0  # the first probe: d + 1
