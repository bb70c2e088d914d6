import collections
import itertools
import math
import re
import sys
import warnings

import numpy as np
import pytest

from morandim import symbolic
from morandim.dims import (default_depth_schedule, default_eps_log_schedule, estimate_sA,
                           estimate_sstar)
from morandim.errors import BudgetExceeded, MoranDimError, NonsingularityViolated
from morandim.linalg import Matrix, sv2_batch
from morandim.svf import branch_index, log_phi_from_logs
from morandim.symbolic import (
    _STOP_SNAP,
    _bucket_log_sums,
    _log_counts,
    CutSet,
    DiagonalEngine,
    GenericEngine,
    UniformEngine,
    Word,
    cutset,
    cutset_sum,
    iter_cutset_words,
    _log_row_sums,
    logsumexp,
    make_engine,
    product,
)
from morandim.system import (
    Box,
    LevelSpec,
    Schedule,
    SystemSpec,
    TranslationScheme,
    alpha_bounds,
    fixture,
    fixture_names,
)

S_SIM = math.log(2) / math.log(3)


def test_product_empty_word_is_identity():
    spec = fixture("example_5_4")
    node = product(spec, Word(()))
    assert np.allclose(node.product.entries, np.eye(2))
    assert node.sv.values == pytest.approx((1.0, 1.0))


def test_product_example_5_4_depth2():
    spec = fixture("example_5_4")
    node = product(spec, Word((1, 2)))
    assert np.allclose(node.product.entries, np.diag([1 / 81, 1 / 9]))


def test_product_hand_oracle_two_levels():
    levels = (
        LevelSpec(2, (Matrix.from_rows([[0.5, 0.5], [0.0, 0.5]]),) * 2),
        LevelSpec(2, (Matrix.from_rows([[0.5, 0.0], [0.5, 0.5]]),) * 2),
    )
    spec = SystemSpec(2, Schedule("periodic", levels),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(2), np.ones(2)))
    node = product(spec, Word((1, 2)))
    assert np.allclose(node.product.entries, [[0.5, 0.25], [0.25, 0.25]])


def test_cutset_middle_thirds_depth5():
    c = cutset(fixture("middle_thirds"), 0.5, 3.0 ** -5)
    assert c.word_count() == 32
    assert all(g.depth == 5 for g in c.groups)


def test_cutset_example_5_4_depth2():
    c = cutset(fixture("example_5_4"), 4 / 3, 9.0 ** -2)
    assert c.m == 2
    assert c.word_count() == 27


def test_cutset_large_epsilon_stops_at_depth1():
    for name in ("middle_thirds", "example_5_4", "random_diag_pair", "example_5_3"):
        spec = fixture(name)
        c = cutset(spec, 0.9, 0.95)
        assert c.word_count() == spec.branch_count(1)
        assert all(g.depth == 1 for g in c.groups)


def test_cutset_sum_values():
    mt = fixture("middle_thirds")
    assert cutset_sum(cutset(mt, S_SIM, 3.0 ** -5)) == pytest.approx(1.0, abs=1e-12)
    assert cutset_sum(cutset(mt, 1.0, 3.0 ** -5)) == pytest.approx(32 / 243)
    c54 = cutset(fixture("example_5_4"), 4 / 3, 9.0 ** -2)
    assert cutset_sum(c54) == pytest.approx(27 * 3 ** (-10 / 3), rel=1e-9)


def test_cutset_rejects_bad_arguments():
    mt = fixture("middle_thirds")
    with pytest.raises(ValueError):
        cutset(mt, 0.5, 1.5)
    with pytest.raises(ValueError):
        cutset(mt, 0.0, 0.1)
    with pytest.raises(ValueError):
        cutset(mt, 0.5, 0.1, node_budget=0)


FIXTURES_FOR_STRUCTURE = (
    ("middle_thirds", 0.7, 0.01),
    ("example_5_4", 1.2, 1e-3),
    ("random_diag_pair", 0.7, 0.005),
    ("example_5_3", 1.1, 0.01),
    ("sierpinski_carpet", 1.5, 0.02),
)


@pytest.mark.parametrize("name,s,eps", FIXTURES_FOR_STRUCTURE)
def test_antichain_covers_random_infinite_words(name, s, eps):
    spec = fixture(name)
    words = [w.digits for w, _ in cutset(spec, s, eps).entries()]
    depth_max = max(len(w) for w in words) + 3
    rng = np.random.default_rng(55)
    for _ in range(100):
        tail = tuple(int(rng.integers(1, spec.branch_count(k) + 1))
                     for k in range(1, depth_max + 1))
        hits = sum(1 for w in words if tail[: len(w)] == w)
        assert hits == 1


@pytest.mark.parametrize("name,s,eps", FIXTURES_FOR_STRUCTURE)
def test_two_sided_alpha_bound(name, s, eps):
    spec = fixture(name)
    ab = alpha_bounds(spec)
    c = cutset(spec, s, eps)
    lo = math.log(ab.alpha_minus) + math.log(eps)
    for g in c.groups:
        assert g.log_alpha_m <= math.log(eps) + 1e-9
        assert g.log_alpha_m > lo - 1e-9


@pytest.mark.parametrize("name,s,eps", FIXTURES_FOR_STRUCTURE)
def test_engine_sums_match_independent_walker(name, s, eps):
    spec = fixture(name)
    c = cutset(spec, s, eps)
    walker = math.fsum(math.exp(lp) for _, lp in iter_cutset_words(spec, s, eps))
    assert cutset_sum(c) == pytest.approx(walker, rel=1e-10)


def test_word_singular_value_sandwich():
    spec = fixture("example_5_3")
    ab = alpha_bounds(spec)
    rng = np.random.default_rng(77)
    cache = {}
    for _ in range(50):
        k = int(rng.integers(1, 9))
        w = Word(tuple(int(rng.integers(1, spec.branch_count(j) + 1))
                       for j in range(1, k + 1)))
        node = product(spec, w, cache)
        assert node.sv.values[-1] >= ab.alpha_minus ** k * (1 - 1e-9)
        assert node.sv.values[0] <= ab.alpha_plus ** k * (1 + 1e-9)


def test_cutset_sum_deterministic_across_runs():
    spec = fixture("example_5_3")
    a = cutset_sum(cutset(spec, 1.1, 0.004))
    b = cutset_sum(cutset(spec, 1.1, 0.004))
    assert a == b


def test_truncation_flags_instead_of_failing():
    spec = fixture("example_5_3")
    c = cutset(spec, 1.1, 1e-6, node_budget=200)
    assert c.truncated
    assert c.node_budget_used <= 200 * 2 + 2


def test_tie_case_stops():
    # alpha_m exactly equal to epsilon stops at that word
    mt = fixture("middle_thirds")
    c = cutset(mt, 0.5, 3.0 ** -3)
    assert c.word_count() == 8
    assert all(g.depth == 3 for g in c.groups)


# ---------------------------------------------------------------------------
# the generic engine's cached level tree
# ---------------------------------------------------------------------------

TREE_BUDGET = 3000  # example_5_3 reaches depth 9 within it
# windows within the horizon, one whose min depth is within it and one past
# it: both of the last two are None, and no window carries a flag
TREE_WINDOWS = [(2, 4), (4, 6), (6, 9), (8, 12), (10, 12)]


def _generic_engine():
    engine = make_engine(fixture("example_5_3"))
    assert isinstance(engine, GenericEngine)
    return engine


def test_cached_tree_probes_match_fresh_engines():
    shared = _generic_engine()
    for s in (0.6, 1.2, 1.37, 2.5):
        got = shared.net_measure_series(s, TREE_WINDOWS, TREE_BUDGET)
        assert got == _generic_engine().net_measure_series(s, TREE_WINDOWS, TREE_BUDGET)
        assert got[3:] == [None, None]
        assert all(isinstance(v, float) for v in got[:3])
        within = shared.net_measure_series(s, TREE_WINDOWS[:3], TREE_BUDGET)
        assert within == _generic_engine().net_measure_series(s, TREE_WINDOWS[:3], TREE_BUDGET)
        assert within == got[:3]


def test_cached_tree_serves_shallower_and_deeper_requests():
    engine = _generic_engine()
    engine.net_measure_series(1.2, [(1, 3), (2, 4)], 100)
    deeper = engine.net_measure_series(1.2, TREE_WINDOWS, TREE_BUDGET)
    assert deeper == _generic_engine().net_measure_series(1.2, TREE_WINDOWS, TREE_BUDGET)
    shallower = engine.net_measure_series(1.2, TREE_WINDOWS, 500)
    assert shallower == _generic_engine().net_measure_series(1.2, TREE_WINDOWS, 500)


def test_cached_tree_level_sums_match_fresh_engine():
    engine = _generic_engine()
    engine.net_measure_series(1.2, TREE_WINDOWS, TREE_BUDGET)
    for depths in ((3, 9, 5), (4, 11)):
        assert (engine.level_log_sums(1.3, depths)
                == _generic_engine().level_log_sums(1.3, depths))


def test_estimate_sA_expands_each_depth_once(monkeypatch):
    calls = collections.Counter()
    expand = GenericEngine._expand

    def counted(self, Q, log_scale, log_det, k):
        calls[k] += 1
        return expand(self, Q, log_scale, log_det, k)

    monkeypatch.setattr(GenericEngine, "_expand", counted)
    rep = estimate_sA(fixture("example_5_3"), node_budget=TREE_BUDGET)
    assert len(rep.trace) > 1
    horizon = max(K for _, K in rep.schedule["windows"])
    assert dict(calls) == {k: 1 for k in range(1, horizon + 1)}


def _einsum_expand(engine, Q, log_scale, log_det, k):
    """Reference expansion of (N, d, d) products: einsum products, singular
    values from the SVD, log singular values beside the log scales."""
    mats, logdets, _ = engine._level_maps(k)
    n, d = mats.shape[0], mats.shape[1]
    raw = np.einsum("nij,mjk->nmik", Q, mats).reshape(-1, d, d)
    svs = np.linalg.svd(raw, compute_uv=False)
    log_scale = np.repeat(log_scale, n) + np.log(svs[:, 0])
    log_det = np.repeat(log_det, n) + np.tile(logdets, Q.shape[0])
    logs = log_scale[:, None] + np.log(svs / svs[:, :1])
    if d == 2:  # the smaller value comes from the carried log |det|
        logs[:, 1] = log_det - log_scale
    return raw / svs[:, :1, None], log_scale, log_det, logs


@pytest.mark.parametrize("d", [1, 2, 3])
def test_matmul_expansion_matches_einsum(d):
    rng = np.random.default_rng(100 + d)
    maps = tuple(Matrix(rng.uniform(-0.6, 0.6, (d, d)) + 0.3 * np.eye(d)) for _ in range(3))
    spec = SystemSpec(d, Schedule("constant", (LevelSpec(3, maps),)),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(d), np.ones(d)))
    engine = GenericEngine(spec)
    for rows in (1, 40, 40, 40, 40):  # one row: the root's expansion
        Q = rng.normal(size=(rows, d, d))
        log_scale, log_det = rng.normal(size=rows), rng.normal(size=rows)
        want = _einsum_expand(engine, Q, log_scale, log_det, 1)
        # the engine keeps the products as (d, d, N) entry columns and the
        # log singular values as (d, N) rows
        got = engine._expand(np.ascontiguousarray(Q.transpose(1, 2, 0)), log_scale, log_det, 1)
        got = (np.moveaxis(got[0], -1, 0), got[1], got[2], got[3].T)
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("name, kind", [("example_5_3", "generic"),
                                        ("random_diag_pair", "diagonal"),
                                        ("example_5_4", "uniform")])
def test_log_singular_values_are_contiguous_d_by_n(name, kind):
    """The level stores, the pruned walks and the stop records hand out log
    singular values as C-contiguous (d, N) arrays, axis 0 the singular-value
    index, never as a transposed view."""
    spec = fixture(name)
    engine = make_engine(spec)
    assert engine.kind == kind
    d, seen = spec.dim, collections.Counter()

    def check(logs, where):
        assert logs.ndim == 2 and logs.shape[0] == d and logs.flags.c_contiguous, where
        seen[where] += 1

    if kind != "uniform":
        walk = engine._walk

        def checked_walk(visit, m, log_stop, node_budget):
            def checked_visit(depth, logs, la, *rest):
                check(logs, "visit")
                assert np.array_equal(la, logs[m - 1])
                return visit(depth, logs, la, *rest)
            return walk(checked_visit, m, log_stop, node_budget)

        engine._walk = checked_walk
        for logs in engine._levels(4):  # the generic walk reads these, then expands its own
            if kind == "diagonal":  # column views of one (d, sum C_t) store, each row contiguous
                assert logs.base is engine._flat and logs.strides[1] == logs.itemsize
                logs = engine._flat
            check(logs, "level")
    log_eps = default_eps_log_schedule(spec, kind)[:6]
    for s in (0.5, 1.5):
        m = branch_index(s, d)
        check(engine._sstar_stops(s, log_eps, 3000).logs, "stops")
        check(engine._record_stops(m, np.array(log_eps[-1:]), 3000, True).logs, "stops")
        if kind != "uniform":  # a budget of one node: nothing stops
            rec = engine._record_stops(m, np.array(log_eps[-1:]), 1, False)
            check(rec.logs, "stops")
            assert rec.logs.shape == (d, 0)
    assert seen["stops"] == (4 if kind == "uniform" else 6)
    assert (kind == "uniform") == (seen["visit"] == 0)


def _shifted_log_row_sums(x):
    """Reference row logsumexp shifted by the row max (the pre-fold helper)."""
    mx = x.max(axis=1)
    return mx + np.log(np.exp(x - mx[:, None]).sum(axis=1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_log_row_sums_matches_reference(n):
    rng = np.random.default_rng(200 + n)
    x = rng.uniform(-5.0, 5.0, (64, n))
    got = _log_row_sums(x)
    assert got.shape == (64,)
    assert not np.shares_memory(got, x)
    assert np.max(np.abs(got - np.log(np.exp(x).sum(axis=1)))) <= 1e-13
    # rows offset by -1000 or +1000 under- or overflow the unshifted
    # reference; with n > 1 each row also spreads over more than 800
    wide = rng.uniform(-100.0, 100.0, (64, n)) + rng.choice([-1000.0, 1000.0], (64, 1))
    if n > 1:
        wide[:, 1] = wide[:, 0] - 850.0
        wide[3, 1] = -math.inf
    want = _shifted_log_row_sums(wide)
    assert np.all(np.isfinite(want))
    with np.errstate(over="ignore", divide="ignore"):
        assert not np.all(np.isfinite(np.log(np.exp(wide).sum(axis=1))))
    got = _log_row_sums(wide)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def _logaddexp_fold(grouped, out=None):
    """Reference: the ``np.logaddexp`` fold that ``_log_row_sums`` was
    before it took whole-array ufuncs."""
    n = grouped.shape[-1]
    if out is None:
        out = np.empty(grouped.shape[:-1])
    if n == 1:
        out[...] = grouped[..., 0]
        return out
    np.logaddexp(grouped[..., 0], grouped[..., 1], out=out)
    for j in range(2, n):
        np.logaddexp(out, grouped[..., j], out=out)
    return out


# |_log_row_sums - _logaddexp_fold| <= FOLD_REL * max(1, |reference|): each pairwise
# step differs by about an ulp (numpy's SIMD exp against libm's), so three steps
# stay far below this (2.7e-16 was the largest seen), and a wrong step far above it
FOLD_REL = 1e-14


def test_log_row_sums_matches_the_logaddexp_fold():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # spreads beyond 800 (exp underflows there), exact ties, and -inf entries
    values = st.one_of(st.floats(-1200.0, 1200.0), st.floats(-3.0, 3.0),
                       st.sampled_from([-850.0, -1.0, 0.0, 2.5, 900.0]), st.just(-math.inf))

    @settings(max_examples=_examples(400))
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(values, min_size=n, max_size=n),
                                                        min_size=1, max_size=12)),
           st.sampled_from([0.0, -1000.0, 1000.0]))
    def check(rows, offset):
        x = np.array(rows) + offset
        want = _logaddexp_fold(x)
        got = _log_row_sums(x)
        out = np.full(len(rows), np.nan)
        assert _log_row_sums(x, out=out) is out
        assert out.tobytes() == got.tobytes()
        assert np.array_equal(got == -math.inf, want == -math.inf)
        got, want = got[want > -math.inf], want[want > -math.inf]
        assert np.all(np.abs(got - want) <= FOLD_REL * np.maximum(1.0, np.abs(want)))

    check()


def test_log_row_sums_adds_minus_infinity_without_warnings():
    x = np.array([[-math.inf, -math.inf, -math.inf, -math.inf],
                  [-math.inf, -math.inf, 5.0, -math.inf],
                  [2.0, -math.inf, -math.inf, -math.inf],
                  [-math.inf, 3.0, -math.inf, 3.0]])
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        for n in (2, 3, 4):
            got = _log_row_sums(x[:, :n])
            assert got[0] == -math.inf
            assert got[1] == (5.0 if n > 2 else -math.inf)
            assert got[2] == 2.0
            assert got[3] == (3.0 + math.log(2.0) if n == 4 else 3.0)


def _word_levels(spec, depth, s, cache):
    """Per-depth log phi^s vectors from per-word products, lexicographic order;
    ``cache`` holds the products across calls."""
    levels = []
    for t in range(1, depth + 1):
        ranges = [range(1, spec.branch_count(j) + 1) for j in range(1, t + 1)]
        levels.append(np.array([product(spec, Word(w), cache).log_phi(s)
                                for w in itertools.product(*ranges)]))
    return levels


def _reference_net_measure(spec, levels, k, K):
    """The window DP reduced all the way to depth 1 with the shifted helper."""
    v = levels[K - 1]
    for t in range(K - 1, 0, -1):
        child = _shifted_log_row_sums(v.reshape(-1, spec.branch_count(t + 1)))
        v = np.minimum(levels[t - 1], child) if t >= k else child
    mx = v.max()
    return mx + math.log(np.exp(v - mx).sum())


def _check_net_measure_series(spec, budget, windows, engine=None, tol=1e-12):
    if engine is None:
        engine = make_engine(spec)
        assert isinstance(engine, GenericEngine)
    horizon = max(K for _, K in windows)
    cache = {}
    for s in (0.0, 0.5, 1.37, 2.5, 3.5):
        levels = _word_levels(spec, horizon, s, cache)
        got = engine.net_measure_series(s, windows, budget)
        for (k, K), item in zip(windows, got):
            assert item is not None
            want = _reference_net_measure(spec, levels, k, K)
            assert abs(item - want) <= tol * max(1.0, abs(want)), (s, k, K)


def test_generic_net_measure_series_matches_full_depth_dp():
    # example_5_3 reaches depth 9 within TREE_BUDGET; k = 1 and k = K windows
    windows = [(1, 9), (1, 4), (1, 1), (3, 3), (9, 9), (2, 7), (5, 9)]
    _check_net_measure_series(fixture("example_5_3"), TREE_BUDGET, windows)


def test_generic_net_measure_series_on_mixed_branching():
    # LevelSpec rejects one-map levels, so this generated system mixes 2- and
    # 3-map levels; the one-column fold is covered by the kernel test above
    rng = np.random.default_rng(314)

    def shear():
        a, b = rng.uniform(0.2, 0.45, 2)
        return Matrix.from_rows([[a, rng.uniform(-0.2, 0.2)], [0.0, b]])

    levels = (LevelSpec(2, (shear(), shear())), LevelSpec(3, (shear(), shear(), shear())),
              LevelSpec(2, (shear(), shear())))
    spec = SystemSpec(2, Schedule("periodic", levels),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(2), np.ones(2)))
    windows = [(1, 8), (1, 2), (2, 2), (2, 5), (4, 8), (8, 8)]
    _check_net_measure_series(spec, 10_000, windows)


# ---------------------------------------------------------------------------
# pruned walks over the kept tree, and live buckets, on generated systems
# ---------------------------------------------------------------------------

KEPT_DEPTH = 3
# decreasing; the smallest prunes the small-map words at depth 2, inside the kept levels
GEN_EPS = (0.3, 0.15, 0.08, 0.04, 0.02)
GEN_S = (0.3, 0.9, 1.0, 1.4, 2.0, 2.6, 3.5)


def _map_with_svs(rng, d, lo, hi):
    """A d x d matrix whose singular values lie in [lo, hi]."""
    u, _ = np.linalg.qr(rng.normal(size=(d, d)))
    v, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return Matrix(u @ np.diag(rng.uniform(lo, hi, d)) @ v.T)


def _generated_system(d, branches, seed, diagonal=False):
    """A periodic system (constant when ``diagonal``) with one level per entry of
    ``branches``.  Each level's first map has singular values in [0.1, 0.12],
    its second in [0.4, 0.5] and the others in [0.1, 0.5]: every word of the
    first maps stops by depth 2 at epsilon 0.02, every word of the second lives
    through depth 4, and every word stops by depth 6."""
    rng = np.random.default_rng(seed)

    def make(j):
        lo, hi = ((0.1, 0.12), (0.4, 0.5))[j] if j < 2 else (0.1, 0.5)
        return Matrix(np.diag(rng.uniform(lo, hi, d))) if diagonal else _map_with_svs(rng, d, lo, hi)

    levels = tuple(LevelSpec(n, tuple(make(j) for j in range(n))) for n in branches)
    return SystemSpec(d, Schedule("constant" if diagonal else "periodic", levels),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(d), np.ones(d)))


def _examples(ci_count):
    """A property's example count: ``ci_count`` under the ``ci`` profile of
    ``conftest.py`` (400 examples), scaled with the loaded profile's own count,
    so ``thorough`` (2000) runs five times as many."""
    from hypothesis import settings
    return ci_count * settings.default.max_examples // 400


def _walk_budgets(spec):
    """Budgets that trip the pruned walk at depth 2, at depth 3 (inside the kept
    levels, with a pruned frontier) and never, past the kept levels."""
    n1, n2 = spec.branch_count(1), spec.branch_count(2)
    return (n1 + 1, n1 + n1 * n2 + 1, 20_000)


def _generated_systems(st, diagonal=False):
    return st.builds(_generated_system, st.sampled_from([1, 2, 3]),
                     st.lists(st.sampled_from([2, 3]), min_size=1 if diagonal else 2,
                              max_size=1 if diagonal else 3),
                     st.integers(0, 2 ** 32 - 1), st.just(diagonal))


def test_pruned_walks_on_the_kept_tree_match_fresh_walks():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=_examples(60))
    @given(_generated_systems(st), st.sampled_from(GEN_S))
    def check(spec, s):
        log_eps = [math.log(e) for e in GEN_EPS]
        kept = GenericEngine(spec)
        kept.level_log_sums(1.0, [KEPT_DEPTH])
        assert len(kept._tree_logs) == KEPT_DEPTH
        for budget in _walk_budgets(spec):
            assert (kept.schedule_log_sums(s, log_eps, budget)
                    == GenericEngine(spec).schedule_log_sums(s, log_eps, budget))
            for le in log_eps[::2]:
                assert (kept.cutset_groups(s, le, budget)
                        == GenericEngine(spec).cutset_groups(s, le, budget))
        groups, truncated, _ = kept.cutset_groups(s, log_eps[-1], 20_000)
        assert not truncated and max(g.depth for g in groups) > KEPT_DEPTH

    check()


def test_engine_sums_match_independent_walker_on_generated_systems():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=_examples(60))
    @given(st.one_of(_generated_systems(st), _generated_systems(st, diagonal=True)),
           st.sampled_from(GEN_S), st.booleans())
    def check(spec, s, keep_tree):
        engine = make_engine(spec)
        if keep_tree and isinstance(engine, GenericEngine):
            engine.level_log_sums(1.0, [KEPT_DEPTH])
        walker = [math.log(math.fsum(math.exp(lp) for _, lp in iter_cutset_words(spec, s, e)))
                  for e in GEN_EPS]
        assert cutset_sum(cutset(spec, s, GEN_EPS[-1])) == pytest.approx(
            math.exp(walker[-1]), rel=1e-10)
        for budget in _walk_budgets(spec):
            sums, complete, _ = engine.schedule_log_sums(
                s, [math.log(e) for e in GEN_EPS], budget)
            if isinstance(engine, GenericEngine):  # the small budgets cut short the 0.02 bucket
                assert all(complete) == (budget == 20_000)
            for got, want, ok in zip(sums, walker, complete):
                if ok:
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    check()


def _check_stops_against_oracle(spec, s):
    """Each bucket of the s* sums, and the cut-set's word count at each depth,
    against the word walker, at every epsilon of GEN_EPS and at one within
    the stop snap of 1, where every depth-1 word stops."""
    eps_list = (1 - 1e-13, *GEN_EPS)
    sums, complete, _ = make_engine(spec).schedule_log_sums(
        s, [math.log(e) for e in eps_list], symbolic.DEFAULT_NODE_BUDGET)
    assert all(complete)
    for eps, got in zip(eps_list, sums):
        words = list(iter_cutset_words(spec, s, eps))
        assert got == pytest.approx(math.log(math.fsum(math.exp(lp) for _, lp in words)),
                                    rel=1e-10, abs=1e-10)
        per_depth = collections.Counter()
        for g in cutset(spec, s, eps).groups:
            per_depth[g.depth] += g.count
        assert per_depth == collections.Counter(len(w) for w, _ in words)


@pytest.mark.parametrize("s", [0.7, 1.3])
@pytest.mark.parametrize("name", ["middle_thirds", "random_diag_pair", "example_5_3"])
def test_stops_near_epsilon_one_match_the_word_walker(name, s):
    _check_stops_against_oracle(fixture(name), s)


def test_stops_near_epsilon_one_match_the_word_walker_on_generated_systems():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=_examples(40))
    @given(st.one_of(_generated_systems(st), _generated_systems(st, diagonal=True)),
           st.sampled_from(GEN_S))
    def check(spec, s):
        _check_stops_against_oracle(spec, s)

    check()


def _all_bucket_schedule_sums(engine, s, log_eps_list, node_budget):
    """``schedule_log_sums`` with its bucket loop over every bucket at every
    depth, on the same walk: the reference for the live-bucket range.  Its
    (depth, bucket) groups go through the same ``_bucket_log_sums``, so the
    sums are equal exactly when the same edges land in the same buckets."""
    m = branch_index(s, engine.d)
    le = np.asarray(log_eps_list)
    groups, bucket = [], []

    def visit(depth, logs, la, parent_la, count):
        pa = np.repeat(parent_la, engine._arity(depth))
        terms = log_phi_from_logs(logs, s) + _log_counts(count)
        for i, eps_i in enumerate(le):
            mask = (la <= eps_i + _STOP_SNAP) & (pa > eps_i + _STOP_SNAP)
            if np.any(mask):
                groups.append(terms[mask])
                bucket.append(i)

    frontier_la, nodes = engine._walk(visit, m, float(le[-1]), node_budget)
    terms = np.concatenate(groups) if groups else np.empty(0)
    sums = _bucket_log_sums(terms, bucket, [0, *itertools.accumulate(map(len, groups))], le.size)
    return sums, [frontier_la <= float(v) for v in le], nodes


def test_live_buckets_match_all_bucket_reference():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=_examples(60))
    @given(st.one_of(_generated_systems(st), _generated_systems(st, diagonal=True)),
           st.sampled_from(GEN_S), st.sampled_from([3, 30, 20_000]))
    def check(spec, s, budget):
        engine = make_engine(spec)
        for log_eps in ([math.log(e) for e in GEN_EPS],
                        default_eps_log_schedule(spec, engine.kind)[:24]):
            assert (engine.schedule_log_sums(s, log_eps, budget)
                    == _all_bucket_schedule_sums(engine, s, log_eps, budget))

    check()


def test_bucket_log_sums_match_two_level_logsumexp():
    """The one-reduction bucket sums against a logsumexp of each group, then
    of each bucket's group sums, on generated groups with empty buckets,
    one-row groups and spreads past 800.

    The bound comes from the error of the fold, not from a measurement (u is
    the unit roundoff, n a bucket's rows, L its exact logsumexp).  Each term
    is shifted by the bucket max M to x <= 0, rounded by at most u|x|, and
    exponentiated within 4 ulps; as |x| e^x <= 1/e and the largest term is
    exp(0) = 1, the terms' errors stay below 5nu of their sum S >= 1, and
    adding n positive terms costs (n - 1)u more.  log S then errs by at most
    6nu plus 4 ulps of log S <= log n, and M + log S rounds by u|L|: at most
    u(10n + |L|) all told.  The reference makes such errors at each of its
    two levels, and logsumexp passes an input's error on with a weight of at
    most 1, so the two sides differ by at most 3u(10n + |L| + 1), which is
    below u(30n + 6) max(1, |L|).  Under the ``ci`` profile the largest
    measured difference is 2.0 u max(1, |L|), at up to 32 rows a bucket;
    the test reports it to Hypothesis as its target."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st, target

    u = np.finfo(float).eps / 2
    groups = st.lists(st.tuples(st.integers(0, 4), st.lists(
        st.floats(-900.0, 0.0), min_size=1, max_size=4)), max_size=8)

    @settings(max_examples=_examples(400))
    @given(groups, st.integers(0, 2), st.floats(-1000.0, 1000.0))
    def check(groups, spare, offset):
        n = max((i for i, _ in groups), default=-1) + 1 + spare
        bucket = [i for i, _ in groups]
        terms = np.array([offset + v for _, rows in groups for v in rows])
        bounds = [0, *itertools.accumulate(len(rows) for _, rows in groups)]
        got = _bucket_log_sums(terms, bucket, bounds, n)
        per_bucket = [[] for _ in range(n)]
        for i, a, b in zip(bucket, bounds, bounds[1:]):
            per_bucket[i].append(logsumexp(terms[a:b]))
        worst = 0.0
        for i, (g, want) in enumerate(zip(got, map(logsumexp, per_bucket))):
            if not per_bucket[i]:
                assert g == want == -math.inf
                continue
            rows = sum(b - a for j, a, b in zip(bucket, bounds, bounds[1:]) if j == i)
            scale = u * max(1.0, abs(want))
            assert abs(g - want) <= (30 * rows + 6) * scale
            worst = max(worst, abs(g - want) / scale)
        target(worst, label="difference in units of u max(1, |L|)")

    check()


@pytest.mark.parametrize("name, budget", [("random_diag_pair", symbolic.DEFAULT_NODE_BUDGET),
                                          ("example_5_3", 3000)])
def test_stop_records_take_logs_of_stopping_counts_only(monkeypatch, name, budget):
    """The s* record takes the logs of its stopping edges' counts, not of
    every edge the walk visits."""
    taken = []
    log_counts = symbolic._log_counts

    def counted(count):
        taken.append(count.size)
        return log_counts(count)

    monkeypatch.setattr(symbolic, "_log_counts", counted)
    spec = fixture(name)
    engine = make_engine(spec)
    log_eps = default_eps_log_schedule(spec, engine.kind)
    for s in (0.7, 1.5):
        taken.clear()
        rows = engine._sstar_stops(s, log_eps, budget).logs.shape[1]
        assert rows > 0 and sum(taken) == rows


CHAIN_FIXTURES = ["diag_triple", "example_5_1", "example_5_4", "middle_thirds",
                  "random_affine", "scalar_blocks", "sierpinski_carpet", "similarity_pair"]


@pytest.mark.parametrize("name", CHAIN_FIXTURES)
def test_chain_replay_gives_its_level_sums(name):
    """On the chain every bucket is one row, so the replay's sums are the
    level sums at the recorded depths, bit for bit."""
    spec = fixture(name)
    engine = make_engine(spec)
    assert isinstance(engine, UniformEngine)
    log_eps = default_eps_log_schedule(spec, engine.kind)
    budget = symbolic.DEFAULT_NODE_BUDGET
    for s in [j + side for j in range(1, spec.dim + 1) for side in (-0.25, 0.25)]:
        depths = engine._sstar_stops(s, log_eps, budget).depth
        assert engine.schedule_log_sums(s, log_eps, budget)[0] == engine.level_log_sums(s, depths)


@pytest.mark.parametrize("name", ["random_diag_pair", "example_5_3"])
def test_class_tree_replay_of_an_empty_record(name):
    """At a budget of one node nothing is expanded: every bucket is -inf and
    incomplete, and the replay raises no floating-point warning."""
    spec = fixture(name)
    engine = make_engine(spec)
    log_eps = default_eps_log_schedule(spec, engine.kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums, complete, nodes = engine.schedule_log_sums(1.5, log_eps, 1)
    assert sums == [-math.inf] * len(log_eps)
    assert not any(complete) and nodes == 0


def test_recorded_walks_replay_the_sums_of_fresh_engines():
    """One engine serves every probe of a shuffled run over all branch
    indices, two schedules and two budgets; each probe must equal the same
    probe on a fresh engine, bit for bit."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    def calls(spec):
        d = spec.dim
        exponents = [m - 0.4 for m in range(1, d + 1)] + [float(d), d + 0.7]
        # the second schedule shares the first's last scale, so only the buckets differ
        schedules = ([math.log(e) for e in GEN_EPS], [math.log(e) for e in GEN_EPS[::2]])
        budgets = _walk_budgets(spec)[1:]
        return st.permutations(list(itertools.product(exponents, schedules, budgets)))

    @settings(max_examples=_examples(60))
    @given(st.one_of(_generated_systems(st), _generated_systems(st, diagonal=True))
           .flatmap(lambda spec: st.tuples(st.just(spec), calls(spec))))
    def check(case):
        spec, probes = case
        shared = make_engine(spec)
        for s, log_eps, budget in probes:
            assert (shared.schedule_log_sums(s, log_eps, budget)
                    == type(shared)(spec).schedule_log_sums(s, log_eps, budget))

    check()


def test_worker_counts_give_the_same_bits(monkeypatch):
    """Chunks of 4 columns split every level past the first few over the
    workers, and a short switch interval interleaves them.  ``workers`` is set
    on the engine, under the CPU cap that ``dims --threads`` applies, so three
    workers run on any machine.  Every quantity must equal the serial
    engine's, bit for bit: the pruned walks of a fresh engine (which expand
    their own frontiers), then the kept levels and the net-measure windows."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    monkeypatch.setattr(symbolic, "_CHUNK", 4)
    windows = [(1, 6), (2, 5), (3, 6), (6, 6), (4, 9)]
    log_eps = [math.log(e) for e in GEN_EPS]

    def run(spec, s, workers):
        # the generated diagonal systems are the constant ones
        engine = (DiagonalEngine if spec.schedule.kind == "constant" else GenericEngine)(spec)
        engine.workers = workers
        try:
            walks = [(engine.schedule_log_sums(s, log_eps, budget),
                      [engine.cutset_groups(s, le, budget) for le in log_eps[::2]])
                     for budget in _walk_budgets(spec)]
            levels = engine._levels(6)
            nets = [engine.net_measure_series(s, windows, budget) for budget in (40, 20_000)]
            # a level wider than one chunk starts the pool
            assert (engine._pool is not None) == (workers > 1
                                                  and max(logs.shape[1] for logs in levels) > 4)
        finally:
            engine.close()
        return walks, [logs.tobytes() for logs in levels], nets

    @settings(max_examples=_examples(40))
    @given(st.one_of(_generated_systems(st), _generated_systems(st, diagonal=True),
                     st.builds(_repeating_system, st.sampled_from([1, 2, 3]),
                               st.lists(st.sampled_from(REPEAT_PATTERNS), min_size=2,
                                        max_size=3),
                               st.integers(0, 2 ** 32 - 1))),
           st.sampled_from(GEN_S))
    def check(spec, s):
        serial = run(spec, s, 1)
        assert run(spec, s, 2) == serial
        assert run(spec, s, 3) == serial

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        check()
    finally:
        sys.setswitchinterval(interval)


# |net_measure_series - the same DP on _logaddexp_fold| <= NET_ULPS ulps of max(1,
# |reference|): a window's DP takes at most a few dozen fold steps of about an ulp
# each (2 ulps was the largest seen, on example_5_3)
NET_ULPS = 32


def _check_net_series_against_the_logaddexp_fold(engine, s, windows, budget):
    got = engine.net_measure_series(s, windows, budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbolic, "_log_row_sums", _logaddexp_fold)
        want = engine.net_measure_series(s, windows, budget)
    assert [g is None for g in got] == [w is None for w in want]
    for g, w in zip(got, want):
        if w is not None:
            assert abs(g - w) <= NET_ULPS * np.spacing(max(1.0, abs(w))), (s, g, w)


def test_net_measure_series_of_class_tree_fixtures_match_the_logaddexp_fold():
    checked = []
    for name in fixture_names():
        try:
            engine = make_engine(fixture(name))
        except MoranDimError:  # a fixture that fails validation
            continue
        if isinstance(engine, symbolic._ClassTree):
            windows = default_depth_schedule(engine.spec, engine, symbolic.DEFAULT_NODE_BUDGET)
            for s in (0.5, 1.0, 1.25, 1.5, 2.0):
                _check_net_series_against_the_logaddexp_fold(
                    engine, s, windows, symbolic.DEFAULT_NODE_BUDGET)
            checked.append(name)
    assert checked == ["example_5_3", "random_diag_pair"]


def test_net_measure_series_of_generated_systems_match_the_logaddexp_fold():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    windows = [(1, 6), (2, 5), (3, 6), (6, 6), (4, 9)]

    @settings(max_examples=_examples(40))
    @given(st.one_of(_generated_systems(st), _generated_systems(st, diagonal=True),
                     st.builds(_repeating_system, st.sampled_from([1, 2, 3]),
                               st.lists(st.sampled_from(REPEAT_PATTERNS), min_size=2,
                                        max_size=3),
                               st.integers(0, 2 ** 32 - 1))),
           st.sampled_from(GEN_S))
    def check(spec, s):
        # the generated diagonal systems are the constant ones
        engine = (DiagonalEngine if spec.schedule.kind == "constant" else GenericEngine)(spec)
        for budget in (40, 20_000):
            _check_net_series_against_the_logaddexp_fold(engine, s, windows, budget)

    check()


def test_estimate_sstar_walks_once_per_branch_index(monkeypatch):
    walks = []
    walk = DiagonalEngine._walk

    def counted(self, visit, m, log_stop, node_budget):
        walks.append(m)
        return walk(self, visit, m, log_stop, node_budget)

    monkeypatch.setattr(DiagonalEngine, "_walk", counted)
    spec = fixture("random_diag_pair")
    rep = estimate_sstar(spec)
    assert rep.schedule["engine"] == "diagonal" and rep.estimate is not None
    indices = {branch_index(p["s"], spec.dim) for p in rep.trace}
    assert sorted(walks) == sorted(indices)
    assert len(rep.trace) > len(indices)


def test_estimate_sstar_records_the_chain_once_per_branch_index(monkeypatch):
    records = []
    record = UniformEngine._record_stops

    def counted(self, m, le, node_budget, exact):
        records.append(m)
        return record(self, m, le, node_budget, exact)

    monkeypatch.setattr(UniformEngine, "_record_stops", counted)
    spec = fixture("middle_thirds")
    rep = estimate_sstar(spec)
    assert rep.schedule["engine"] == "uniform" and rep.estimate is not None
    indices = {branch_index(p["s"], spec.dim) for p in rep.trace}
    assert sorted(records) == sorted(indices)
    assert len(rep.trace) > len(indices)


class _PerDepthChain:
    """Reference: the chain engine's loop before it extended in blocks, one
    depth at a time with one ``sv2_batch`` call or SVD per depth, and its
    stop scan one depth at a time."""

    def __init__(self, spec):
        self.spec, self.d = spec, spec.dim
        self.counts, self.log_svs = [1], [np.zeros(spec.dim)]
        self.chain, self.log_scale, self.log_det = np.eye(spec.dim), 0.0, 0.0

    def extend(self, t):
        while len(self.counts) <= t:
            lvl = self.spec.level(len(self.counts))
            raw = self.chain @ lvl.maps[0].entries
            scale = float(np.max(np.abs(raw)))
            self.chain = raw / scale
            self.log_scale += math.log(scale)
            self.log_det += math.log(abs(lvl.maps[0].det()))
            if self.d == 2:
                s1, _ = sv2_batch(self.chain[None])
                l1 = self.log_scale + math.log(float(s1[0]))
                logs = np.array([l1, self.log_det - l1])
            else:
                logs = self.log_scale + np.log(np.linalg.svd(self.chain, compute_uv=False))
            self.counts.append(self.counts[-1] * lvl.branch_count)
            self.log_svs.append(logs)

    def level_log_sums(self, s, depths):
        self.extend(max(depths))
        lph = log_phi_from_logs(np.stack([self.log_svs[t] for t in depths], axis=1), s).tolist()
        return [math.log(self.counts[t]) + v for t, v in zip(depths, lph)]

    def log_svs_at(self, t):
        self.extend(t)
        return self.log_svs[t]

    def stop_depths(self, m, le):
        depths, t = [], 1
        for v in le:
            while self.log_svs_at(t)[m - 1] > v + _STOP_SNAP:
                t += 1
            depths.append(t)
        return depths


def _chain_system(d, kind, branches, seed):
    """A chain system (one repeated map per level) on a ``kind`` schedule, one
    level per entry of ``branches``, with singular values in [0.2, 0.9]."""
    rng = np.random.default_rng(seed)
    levels = tuple(LevelSpec(n, (_map_with_svs(rng, d, 0.2, 0.9),) * n) for n in branches)
    if kind == "constant":
        levels = levels[:1]
    extra = {"periodic": {},
             "explicit_prefix_then_periodic": {"period": len(levels) - 1},
             "geometric_blocks": {"block_base": 3, "block_ratio": 2}}.get(kind, {})
    return SystemSpec(d, Schedule(kind, levels, **extra), TranslationScheme("explicit", table={}),
                      Box(np.zeros(d), np.ones(d)))


def test_block_extension_matches_the_per_depth_chain():
    """Depths asked for in any order, through level sums and stop records,
    give the per-depth loop's logs, word counts, sums and stops bit for bit."""
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    kinds = ["constant", "periodic", "explicit_prefix_then_periodic", "geometric_blocks"]
    # a request: a list of depths for level_log_sums, or a descending schedule for the stops
    requests = st.lists(st.one_of(
        st.lists(st.integers(1, 320), min_size=1, max_size=4),
        st.lists(st.floats(-60.0, -0.05), min_size=1, max_size=5, unique=True)
        .map(lambda v: np.array(sorted(v, reverse=True)))), min_size=1, max_size=4)

    # the normalized running product soon repeats its values, so few generated
    # systems reach a value whose np.log differs from math.log in the last
    # bit; at these two, depths 13 and 5 do
    @settings(max_examples=_examples(60))
    @given(st.sampled_from([1, 2, 3]), st.sampled_from(kinds),
           st.lists(st.sampled_from([2, 3]), min_size=2, max_size=3),
           st.integers(0, 2 ** 32 - 1), st.sampled_from(GEN_S), requests)
    @example(2, "periodic", [2, 3], 108, 1.0, [[20]])
    @example(2, "geometric_blocks", [3, 2], 48, 1.0, [np.array([-3.0])])
    def check(d, kind, branches, seed, s, reqs):
        spec = _chain_system(d, kind, branches, seed)
        engine, ref = make_engine(spec), _PerDepthChain(spec)
        assert isinstance(engine, UniformEngine)
        for req in [[5], [300], [70], *reqs]:
            if isinstance(req, list):
                got = engine.level_log_sums(s, req)
                assert np.array(got).tobytes() == np.array(ref.level_log_sums(s, req)).tobytes()
                continue
            for m in range(1, d + 1):
                want = ref.stop_depths(m, req)
                for exact in (False, True):
                    rec = engine._record_stops(m, req, 1, exact)
                    assert rec.depth == want and rec.nodes == want[-1]
                    assert rec.logs.tobytes() == np.stack([ref.log_svs[t] for t in want],
                                                          axis=1).tobytes()
                    counts = [ref.counts[t] for t in want]
                    if exact:
                        assert rec.counts == counts
                    else:
                        assert rec.counts.tobytes() == np.array(
                            [math.log(c) for c in counts]).tobytes()
        T = len(engine._counts) - 1
        ref.extend(T)
        assert engine._logs.flags.c_contiguous and engine._logs.shape == (d, T + 1)
        assert engine._logs.tobytes() == np.stack(ref.log_svs[:T + 1], axis=1).tobytes()
        assert engine._counts == ref.counts[:T + 1]

    check()


def test_the_chain_depth_cap_holds_on_every_call(monkeypatch):
    """A depth past the cap raises before any depth is computed, so a second
    call on the same engine raises too, through the level sums and through
    the stop scan."""
    engine = make_engine(fixture("middle_thirds"))
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            engine.level_log_sums(0.5, [symbolic._MAX_CHAIN_DEPTH + 1])
        assert len(engine._counts) == 1 and engine._logs.shape == (1, 1)
    monkeypatch.setattr(symbolic, "_MAX_CHAIN_DEPTH", 20)
    engine = make_engine(fixture("middle_thirds"))  # alpha_1 = 3^-t
    assert engine.level_log_sums(S_SIM, [20]) == pytest.approx([0.0], abs=1e-9)
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            engine._record_stops(1, np.array([-21 * math.log(3)]), 1, False)
        assert len(engine._counts) == 21


@pytest.mark.parametrize("name, kind", [("middle_thirds", "uniform"),
                                        ("random_diag_pair", "diagonal"),
                                        ("example_5_3", "generic")])
def test_level_log_sums_take_any_iterable_and_reject_depths_below_1(name, kind):
    spec = fixture(name)
    engine = make_engine(spec)
    assert engine.kind == kind
    built = {"uniform": lambda: len(engine._counts) - 1,
             "diagonal": lambda: len(engine._logs) - 1,
             "generic": lambda: len(engine._tree_logs)}[kind]
    for bad in ([0], [3, 0, 2], (t for t in (2, -1))):
        with pytest.raises(ValueError, match="depths must be >= 1"):
            engine.level_log_sums(1.1, bad)
        assert built() == 0
    assert engine.level_log_sums(1.1, iter([])) == engine.level_log_sums(1.1, []) == []
    want = make_engine(spec).level_log_sums(1.1, [3, 1, 4])
    assert engine.level_log_sums(1.1, (t for t in (3, 1, 4))) == want


# ---------------------------------------------------------------------------
# the composition lattice against the word walk on the same systems
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("M", [2, 3, 4, 5])
def test_lattice_levels_are_in_row_sort_order(M):
    """The closed-form ranks put each level's classes, and each class's
    children, where a lexicographic row sort of the children puts them."""
    maps = tuple(Matrix(np.diag([0.1 + 0.05 * j, 0.4 - 0.05 * j])) for j in range(M))
    spec = SystemSpec(2, Schedule("constant", (LevelSpec(M, maps),)),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(2), np.ones(2)))
    engine = DiagonalEngine(spec)
    comps = np.zeros((1, M), dtype=np.int64)
    for t in range(12):
        children = np.repeat(comps, M, axis=0) + np.tile(np.eye(M, dtype=np.int64),
                                                         (comps.shape[0], 1))
        comps, inverse = np.unique(children, axis=0, return_inverse=True)
        assert np.array_equal(engine.child_rows(t), inverse.reshape(-1, M))
    assert np.array_equal(engine._comps, comps)


def test_lattice_flat_log_phi_matches_the_per_level_one():
    """The lattice's levels are column views of one store, and log phi^s
    taken over the store in one call is, level by level, the per-level one
    bit for bit, also after the store has grown in steps."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=_examples(60))
    @given(_generated_systems(st, diagonal=True), st.sampled_from(GEN_S),
           st.lists(st.integers(1, 40), min_size=1, max_size=3))
    def check(spec, s, depths):
        engine = DiagonalEngine(spec)
        for depth in depths:
            got = engine._log_phis(depth, s)
            levels = engine._levels(depth)
            assert len(got) == len(levels) == depth
            for lph, logs in zip(got, levels):
                assert logs.base is engine._flat
                want = log_phi_from_logs(np.ascontiguousarray(logs), s)
                assert lph.tobytes() == want.tobytes()

    check()


def _prefix_counts(spec, s, epsilon):
    """(distinct nonempty prefixes, distinct choice-count vectors of them) of
    the cut-set words, from the independent word walker: the nodes a pruned
    walk expands over words and over the lattice."""
    words = [w.digits for w, _ in iter_cutset_words(spec, s, epsilon)]
    prefixes = {w[:j] for w in words for j in range(1, len(w) + 1)}
    n = spec.branch_count(1)
    return len(prefixes), len({tuple(p.count(i) for i in range(1, n + 1)) for p in prefixes})


def test_lattice_matches_the_word_walk_on_generated_diagonal_systems():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    windows = [(1, 6), (1, 1), (2, 5), (3, 6), (6, 6)]
    depths = [1, 2, 4, 6]
    budget = 20_000  # the word tree through depth 6 holds at most 1,093 nodes

    def close(a, b):
        return all(abs(x - y) <= 1e-10 for x, y in zip(a, b)) and len(a) == len(b)

    @settings(max_examples=_examples(60))
    @given(_generated_systems(st, diagonal=True), st.sampled_from(GEN_S))
    def check(spec, s):
        lattice, words = DiagonalEngine(spec), GenericEngine(spec)
        assert close(lattice.level_log_sums(s, depths), words.level_log_sums(s, depths))
        nets = [lattice.net_measure_series(s, windows, budget),
                words.net_measure_series(s, windows, budget)]
        assert None not in nets[0] + nets[1]
        assert close(*nets)
        log_eps = [math.log(e) for e in GEN_EPS]
        (sums_l, done_l, _), (sums_w, done_w, _) = (
            engine.schedule_log_sums(s, log_eps, budget) for engine in (lattice, words))
        assert done_l == done_w == [True] * len(GEN_EPS)
        assert close(sums_l, sums_w)
        for eps, le in zip(GEN_EPS, log_eps):
            (groups_l, cut_l, nodes_l), (groups_w, cut_w, nodes_w) = (
                engine.cutset_groups(s, le, budget) for engine in (lattice, words))
            assert not cut_l and not cut_w
            assert sum(g.count for g in groups_l) == len(groups_w)
            assert (nodes_w, nodes_l) == _prefix_counts(spec, s, eps)

    check()


@pytest.mark.parametrize("name", ["random_diag_pair", "example_5_3"])
def test_net_measure_horizon_is_the_deepest_window_that_fits(name):
    """A window is evaluated exactly when the classes through its K, root
    included, fit the budget, and the tree is built only that deep."""
    spec = fixture(name)
    for K in range(2, 7):
        if name == "random_diag_pair":  # t + 1 choice-count vectors at depth t
            budget = sum(t + 1 for t in range(K + 1))
        else:
            budget = sum(math.prod(spec.branch_count(j) for j in range(1, t + 1))
                         for t in range(K + 1))
        engine = make_engine(spec)
        assert engine.max_depth_within(budget) == K
        assert engine.max_depth_within(budget - 1) == K - 1
        got = engine.net_measure_series(1.1, [(1, K), (K, K), (1, K + 1), (K + 1, K + 1)],
                                        budget)
        assert None not in got[:2] and got[2:] == [None, None]
        built = engine._tree_logs if name == "example_5_3" else engine._logs[1:]
        assert len(built) == K


# ---------------------------------------------------------------------------
# the generic walker's classes over each level's distinct maps
# ---------------------------------------------------------------------------

class _WordEngine(GenericEngine):
    """The generic walker with every map its own class: one class per word,
    the unmerged reference for levels that repeat a map."""

    def _level_maps(self, k):
        maps = self.spec.level(k).maps
        return (np.stack([m.entries for m in maps]),
                np.array([math.log(abs(m.det())) for m in maps]),
                np.ones(len(maps), dtype=np.int64))


# which of a level's distinct maps each branch takes: every pattern but the
# last two repeats a map, fully or in part
REPEAT_PATTERNS = ((0, 0), (0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 0), (0, 1), (0, 1, 2))


def _repeating_system(d, patterns, seed):
    """A periodic system with one level per pattern; level j's branch i takes
    its distinct map patterns[j][i].  Every map has singular values in
    [0.1, 0.5], so every word stops by depth 6 at epsilon 0.02."""
    rng = np.random.default_rng(seed)
    levels = []
    for pattern in patterns:
        maps = [_map_with_svs(rng, d, 0.1, 0.5) for _ in range(max(pattern) + 1)]
        levels.append(LevelSpec(len(pattern), tuple(maps[i] for i in pattern)))
    return SystemSpec(d, Schedule("periodic", tuple(levels)),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(d), np.ones(d)))


def test_merged_classes_match_the_word_tree_on_repeating_systems():
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st

    windows = [(1, 6), (1, 1), (2, 5), (3, 6), (6, 6)]

    @settings(max_examples=_examples(40))
    @given(st.builds(_repeating_system, st.sampled_from([1, 2, 3]),
                     st.lists(st.sampled_from(REPEAT_PATTERNS), min_size=2, max_size=3),
                     st.integers(0, 2 ** 32 - 1)),
           st.sampled_from(GEN_S), st.booleans())
    def check(spec, s, keep_tree):
        assume(any(len(set(lvl.maps)) < lvl.branch_count for lvl in spec.schedule.levels))
        merged, words = GenericEngine(spec), _WordEngine(spec)
        if keep_tree:
            merged.level_log_sums(1.0, [KEPT_DEPTH])
        # the windows against the per-word DP; the tree through depth 6 holds
        # at most 1,093 words
        _check_net_measure_series(spec, 20_000, windows, engine=merged, tol=1e-10)
        log_eps = [math.log(e) for e in GEN_EPS]
        walker = [list(iter_cutset_words(spec, s, e)) for e in GEN_EPS]
        sums, complete, _ = merged.schedule_log_sums(s, log_eps, 20_000)
        assert complete == [True] * len(GEN_EPS)
        for got, cut in zip(sums, walker):
            want = math.log(math.fsum(math.exp(lp) for _, lp in cut))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
        for le, cut in zip(log_eps, walker):
            groups, truncated, _ = merged.cutset_groups(s, le, 20_000)
            assert not truncated and sum(g.count for g in groups) == len(cut)
        # the walks pay the words of the unmerged walk, also when a budget cuts them short
        for budget in _walk_budgets(spec):
            got = merged.schedule_log_sums(s, log_eps, budget)
            want = words.schedule_log_sums(s, log_eps, budget)
            assert got[1:] == want[1:]
            for le in log_eps[::2]:
                (g_m, cut_m, nodes_m), (g_w, cut_w, nodes_w) = (
                    engine.cutset_groups(s, le, budget) for engine in (merged, words))
                assert (cut_m, nodes_m) == (cut_w, nodes_w)
                assert sum(g.count for g in g_m) == len(g_w)

    check()


def test_merged_word_counts_stay_exact_past_int64():
    # one level of 100 copies of a shear and one other shear: a class with
    # j copies among its t maps stands for 100^j words, past 2^63 by depth 10
    a = Matrix.from_rows([[0.5, 0.1], [0.0, 0.5]])
    b = Matrix.from_rows([[0.5, 0.0], [0.1, 0.5]])
    spec = SystemSpec(2, Schedule("constant", (LevelSpec(101, (a,) * 100 + (b,)),)),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(2), np.ones(2)))
    s, eps = 1.5, 8e-4
    c = cutset(spec, s, eps, node_budget=2 ** 70)
    assert isinstance(make_engine(spec), GenericEngine) and not c.truncated
    # the reference: the class tree over {a, b}, from plain products, in exact integers
    m, want, nodes = branch_index(s, 2), 0, 0
    stack = [(np.eye(2), 1)]
    while stack:
        prod, count = stack.pop()
        nodes += 101 * count
        for mat, mult in ((a, 100), (b, 1)):
            child = prod @ mat.entries
            if np.linalg.svd(child, compute_uv=False)[m - 1] <= eps:
                want += count * mult
            else:
                stack.append((child, count * mult))
    assert want > 2 ** 63
    assert c.word_count() == want
    assert c.node_budget_used == nodes


def test_a_level_with_minus_zero_and_zero_forms_of_a_map_builds_one_class():
    a = Matrix.from_rows([[0.5, -0.0], [0.1, 0.5]])
    b = Matrix.from_rows([[0.5, 0.0], [0.1, 0.5]])
    c = Matrix.from_rows([[0.3, 0.1], [0.0, 0.4]])
    spec = SystemSpec(2, Schedule("constant", (LevelSpec(3, (a, c, b)),)),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(2), np.ones(2)))
    mats, _, mults = GenericEngine(spec)._level_maps(1)
    assert mats.shape == (2, 2, 2) and mults.tolist() == [2, 1]


# ---------------------------------------------------------------------------
# the generic walker's quotient by a signed-permutation symmetry of its maps
# ---------------------------------------------------------------------------

# signed permutation matrices whose conjugations have order 2, 2, 2 (d = 2)
# and 2, 4, 3 (d = 3): the orbit of a generic map holds that many maps
SYMMETRIES = (
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]]),
    np.array([[0.0, -1.0], [1.0, 0.0]]),
    np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
)


def _commuting_map(rng, P):
    """a*I + b*P, which conjugation by P maps to itself exactly: it only
    relabels and negates entries.  Its singular values, |a + b*lambda| over
    the eigenvalues lambda of P, lie in [0.25, 0.5]."""
    return Matrix(rng.uniform(0.35, 0.4) * np.eye(len(P)) + rng.uniform(-0.1, 0.1) * P)


def _symmetric_system(P, prefix, shapes, seed):
    """An explicit-prefix system symmetric under conjugation by P.

    Level 1 lists ``prefix`` maps that commute with P, the first twice.
    Each later level, one per (fixed, copies) entry of ``shapes``, holds the
    orbit of one generic map under the conjugation, listed ``copies`` times
    while the level stays within 5 maps, and ``fixed`` maps that commute
    with P, in shuffled order.  Every map has singular values in [0.25, 0.5],
    so every word stops by depth 6 at epsilon 0.02, and the tree through
    depth 6 holds at most 11,718 words."""
    rng = np.random.default_rng(seed)
    pre = [_commuting_map(rng, P) for _ in range(prefix)]
    levels = [LevelSpec(prefix + 1, (*pre, pre[0]))]
    for fixed, copies in shapes:
        orbit = [_map_with_svs(rng, len(P), 0.25, 0.5)]
        while (image := Matrix(P @ orbit[-1].entries @ P.T)) != orbit[0]:
            orbit.append(image)
        if len(orbit) * copies + fixed > 5:
            copies = 1
        maps = orbit * copies + [_commuting_map(rng, P) for _ in range(fixed)]
        levels.append(LevelSpec(len(maps), tuple(maps[i] for i in rng.permutation(len(maps)))))
    return SystemSpec(len(P), Schedule("explicit_prefix_then_periodic", tuple(levels),
                                       period=len(shapes)),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(len(P)), np.ones(len(P))))


def test_quotient_matches_the_word_tree_on_symmetric_systems():
    """The tree quotiented by a symmetry of the maps against the word tree.

    Word counts, nodes, completeness, truncation and which windows fit are
    exact.  The sums may move by rounding only, within a bound fixed before
    this test first ran: 64 u * max(1, |want|) for d = 2 and 4096 u *
    max(1, |want|) for d = 3, u = 2^-53.  For d = 2 a mirrored node's log
    sigma_1 is bit for bit its image's, and its log sigma_2 adds the log
    |det|s of its maps, each within an ulp of its mirror image's: at most
    12 u through depth 6, and the sums over merged rows change order.  For
    d = 3 the mirrored products come from reordered three-term sums and
    LAPACK's SVD, which move log sigma_i by about u * t * sigma_1 / sigma_i,
    and sigma_1 / sigma_3 is at most 2^6 through depth 6 for these maps.
    """
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    windows = [(1, 6), (1, 1), (2, 5), (3, 6), (6, 6)]

    def close(got, want, d):
        if math.isinf(want):
            return got == want
        return abs(got - want) <= (64 if d == 2 else 4096) * 2.0 ** -53 * max(1.0, abs(want))

    @settings(max_examples=_examples(40))
    @given(st.builds(_symmetric_system, st.sampled_from(SYMMETRIES), st.sampled_from([1, 2]),
                     st.lists(st.tuples(st.sampled_from([0, 1]), st.sampled_from([1, 2])),
                              min_size=1, max_size=2),
                     st.integers(0, 2 ** 32 - 1)),
           st.sampled_from(GEN_S), st.booleans())
    def check(spec, s, keep_tree):
        d = spec.dim
        merged, words = GenericEngine(spec), _WordEngine(spec)
        k, P = merged._quotient
        # depth 2 keeps the generic map's orbit as one class, and each fixed map
        assert k == 2 and merged._arity(2) == 1 + sum(
            Matrix(P @ m.entries @ P.T) == m for m in set(spec.level(2).maps))
        if keep_tree:
            merged.level_log_sums(1.0, [KEPT_DEPTH])
        for got, want in zip(merged.level_log_sums(s, range(1, 7)),
                             words.level_log_sums(s, range(1, 7))):
            assert close(got, want, d)
        for budget in (20_000, 200):
            got = merged.net_measure_series(s, windows, budget)
            want = words.net_measure_series(s, windows, budget)
            assert [g is None for g in got] == [w is None for w in want]
            assert all(close(g, w, d) for g, w in zip(got, want) if w is not None)
        log_eps = [math.log(e) for e in GEN_EPS]
        for budget in _walk_budgets(spec):
            (got, complete, nodes), (want, *rest) = (
                engine.schedule_log_sums(s, log_eps, budget) for engine in (merged, words))
            assert [complete, nodes] == rest
            assert all(close(g, w, d) for g, w in zip(got, want))
            for le in log_eps[::2]:
                (g_m, cut_m, nodes_m), (g_w, cut_w, nodes_w) = (
                    engine.cutset_groups(s, le, budget) for engine in (merged, words))
                assert (cut_m, nodes_m) == (cut_w, nodes_w)
                per_depth = [collections.Counter(), collections.Counter()]
                for tally, groups in zip(per_depth, (g_m, g_w)):
                    for g in groups:
                        tally[g.depth] += g.count
                assert per_depth[0] == per_depth[1]

    check()


def test_asymmetric_systems_keep_one_class_per_distinct_map():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=_examples(40))
    @given(st.one_of(_generated_systems(st),
                     st.builds(_repeating_system, st.sampled_from([1, 2, 3]),
                               st.lists(st.sampled_from(REPEAT_PATTERNS), min_size=2, max_size=3),
                               st.integers(0, 2 ** 32 - 1))))
    def check(spec):
        engine = GenericEngine(spec)
        assert symbolic._find_quotient(spec) is None
        for t in range(1, 7):
            mats, _, mults = engine._level_maps(t)
            want = collections.Counter(spec.level(t).maps)
            assert [Matrix(m) for m in mats] == list(want)
            assert mults.tolist() == list(want.values())

    check()


def test_example_5_3_is_quotiented_by_the_coordinate_swap_at_depth_2():
    engine = make_engine(fixture("example_5_3"))
    k, P = engine._quotient
    assert k == 2 and np.array_equal(P, [[0.0, 1.0], [1.0, 0.0]])
    # level 1 is three copies of I/3, then the two shears, mirror images, at every level
    assert [engine._level_maps(t)[2].tolist() for t in (1, 2, 3, 4)] == [[3], [2], [1, 1],
                                                                          [1, 1]]


# ---------------------------------------------------------------------------
# the level-by-level cut-set word walk against the depth-first one
# ---------------------------------------------------------------------------

def _depth_first_cutset_words(spec, s, epsilon):
    """The depth-first walk ``iter_cutset_words`` replaced, one product per
    word: each word's stopped children in digit order, then its live ones,
    depth first.  The reference for the words, their order and their bits."""
    d = spec.dim
    m = branch_index(s, d)
    log_eps = math.log(epsilon)

    def log_svs_of(Q, log_scale, log_det):
        if d == 1:
            return np.array([log_scale + math.log(abs(Q[0, 0]))])
        if d == 2:
            s1, _ = sv2_batch(Q[None])
            l1 = log_scale + math.log(float(s1[0]))
            return np.array([l1, log_det - l1])
        return log_scale + np.log(np.linalg.svd(Q, compute_uv=False))

    stack = [((), np.eye(d), 0.0, 0.0)]
    while stack:
        digits, Q, log_scale, log_det = stack.pop()
        lvl = spec.level(len(digits) + 1)
        pending = []
        for j, mat in enumerate(lvl.maps, start=1):
            raw = Q @ mat.entries
            scale = float(np.max(np.abs(raw)))
            Q2 = raw / scale
            ls2 = log_scale + math.log(scale)
            ld2 = log_det + math.log(abs(mat.det()))
            logs = log_svs_of(Q2, ls2, ld2)
            if logs[m - 1] <= log_eps + _STOP_SNAP:
                yield Word(digits + (j,)), float(log_phi_from_logs(logs, s))
            else:
                pending.append((digits + (j,), Q2, ls2, ld2))
        stack.extend(reversed(pending))


def test_level_walk_matches_the_depth_first_walk_on_generated_systems():
    """Same words, same order and the same log phi bits, for d = 1, 2 and 3,
    mixed branch counts, periodic and constant schedules, every branch index
    and s above d."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=_examples(60))
    @given(st.one_of(_generated_systems(st), _generated_systems(st, diagonal=True)))
    def check(spec):
        for s, eps in itertools.product(GEN_S, GEN_EPS):
            assert (list(iter_cutset_words(spec, s, eps))
                    == list(_depth_first_cutset_words(spec, s, eps)))

    check()


@pytest.mark.parametrize("name,s,eps", [*FIXTURES_FOR_STRUCTURE, ("example_5_3", 0.4, 0.02)])
def test_level_walk_matches_the_depth_first_walk_on_fixtures(name, s, eps):
    spec = fixture(name)
    got = list(iter_cutset_words(spec, s, eps))
    assert got == list(_depth_first_cutset_words(spec, s, eps))
    if name == "example_5_3" and s == 0.4:  # depth-first is not lexicographic here
        assert [w.digits for w, _ in got] != sorted(w.digits for w, _ in got)


@pytest.mark.parametrize("d,seed", [(3, 4), (4, 12)])
def test_level_walk_keeps_the_bits_of_math_log(d, seed):
    # with numpy 2.4 on an AVX-512 x86-64 CPU, np.log of some of these
    # systems' rescale factors differs from math.log in the last bit, so a
    # vectorised log of the scales shows here
    spec = _generated_system(d, [3, 2, 3], seed)
    for s, eps in itertools.product(GEN_S, GEN_EPS):
        assert (list(iter_cutset_words(spec, s, eps))
                == list(_depth_first_cutset_words(spec, s, eps)))


@pytest.mark.parametrize("cap", [127, 128])
def test_word_cap_raises_before_the_first_word(monkeypatch, cap):
    # middle_thirds at epsilon 1e-3 stops every word at depth 7: 128 words
    monkeypatch.setattr(symbolic, "_WORD_ENUM_CAP", cap)
    words = iter_cutset_words(fixture("middle_thirds"), 0.6, 1e-3)
    if cap < 128:
        with pytest.raises(BudgetExceeded):
            next(words)
    else:
        assert len(list(words)) == 128


def test_word_walk_on_a_singular_map_raises_before_any_product(monkeypatch):
    singular = LevelSpec(2, (Matrix(np.diag([0.5, 0.5])), Matrix(np.diag([0.0, 0.5]))))
    third = Matrix(np.eye(2) / 3)
    later = SystemSpec(2, Schedule("periodic", (LevelSpec(2, (third, third)), singular)),
                       TranslationScheme("explicit", table={}), Box(np.zeros(2), np.ones(2)))
    products = []
    monkeypatch.setattr(symbolic, "sv2_batch", lambda raw: products.append(raw))
    for spec, where in ((fixture("example_5_2"), "levels[0]"), (later, "levels[1]")):
        words = iter_cutset_words(spec, 1.0, 0.1)
        with pytest.raises(NonsingularityViolated, match=rf"^{re.escape(where)}\.maps\[1\]: "):
            next(words)
    assert products == []


# ---------------------------------------------------------------------------
# the net-measure window sweep against one window at a time
# ---------------------------------------------------------------------------

def test_window_sweep_matches_single_window_calls():
    """Shuffled and repeated windows, k == K windows and windows past the
    horizon, on the lattice and on the generic walker: each entry must equal
    a one-window call on a fresh engine, bit for bit."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    windows = (st.lists(st.tuples(st.integers(1, 9), st.integers(0, 4)), min_size=1, max_size=6)
               .map(lambda ws: [(k, k + n) for k, n in ws])
               .flatmap(lambda ws: st.permutations(ws + ws[:2])))

    @settings(max_examples=_examples(60))
    @given(st.one_of(_generated_systems(st), _generated_systems(st, diagonal=True)),
           st.sampled_from(GEN_S), st.sampled_from([40, 400, 4000]), windows)
    def check(spec, s, budget, wins):
        shared = make_engine(spec)
        got = shared.net_measure_series(s, wins, budget)
        assert len(got) == len(wins)
        for w, item in zip(wins, got):
            assert item == type(shared)(spec).net_measure_series(s, [w], budget)[0]

    check()
