import collections
import itertools
import json
import math
import pathlib
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from morandim import symbolic
from morandim.dims import (_bisect, _sign_class, default_depth_schedule,
                           default_eps_log_schedule, estimate_sA, estimate_sstar, pressure_root)
from morandim.errors import BudgetExceeded, MoranDimError, NonsingularityViolated
from morandim.linalg import sv2_batch
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
    SCHEDULE_KINDS,
    Box,
    LevelSpec,
    Schedule,
    SystemSpec,
    TranslationScheme,
    alpha_bounds,
    fixture,
    fixture_names,
    parse_spec,
)

S_SIM = math.log(2) / math.log(3)


def test_product_empty_word_is_identity():
    spec = fixture("example_5_4")
    node = product(spec, Word(()))
    assert np.allclose(node.product, np.eye(2))
    assert np.exp(node.log_svs) == pytest.approx((1.0, 1.0))


def test_product_example_5_4_depth2():
    spec = fixture("example_5_4")
    node = product(spec, Word((1, 2)))
    assert np.allclose(node.product, np.diag([1 / 81, 1 / 9]))


def test_product_of_a_deep_word_is_read_in_the_log_domain():
    # (1/27)^40 is far below the 1e-14 det tolerance of an input map; the
    # logs of the diagonal product are sums of 40 logs, within 1e-9
    spec = fixture("example_5_4")
    w = Word(tuple(1 + k % 3 for k in range(40)))
    moduli = [spec.level(k).moduli[j - 1] for k, j in enumerate(w.digits, start=1)]
    want = sorted((math.fsum(math.log(m[i]) for m in moduli) for i in range(2)), reverse=True)
    assert product(spec, w).log_svs == pytest.approx(want, rel=0, abs=1e-9)
    with pytest.raises(NonsingularityViolated, match=r"^levels\[0\]\.maps\[1\]: "):
        product(fixture("example_5_2"), Word((1,)))


def test_product_hand_oracle_two_levels():
    levels = (
        LevelSpec(2, (np.array([[0.5, 0.5], [0.0, 0.5]]),) * 2),
        LevelSpec(2, (np.array([[0.5, 0.0], [0.5, 0.5]]),) * 2),
    )
    spec = SystemSpec(2, Schedule("periodic", levels),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(2), np.ones(2)))
    node = product(spec, Word((1, 2)))
    assert np.allclose(node.product, [[0.5, 0.25], [0.25, 0.25]])


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
        assert math.exp(node.log_svs[-1]) >= ab.alpha_minus ** k * (1 - 1e-9)
        assert math.exp(node.log_svs[0]) <= ab.alpha_plus ** k * (1 + 1e-9)


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
    with pytest.raises(BudgetExceeded, match=f"truncated at {c.node_budget_used} nodes"):
        c.rows()


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

    def counted(self, Q, log_scale, log_det, k, **kwargs):
        calls[k] += 1
        return expand(self, Q, log_scale, log_det, k, **kwargs)

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
    maps = tuple(rng.uniform(-0.6, 0.6, (d, d)) + 0.3 * np.eye(d) for _ in range(3))
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
    """The level stores and the pruned walks hand out log singular values as
    C-contiguous (d, N) arrays, axis 0 the singular-value index, never as a
    transposed view; a stop record at branch index m keeps rows 1..m, (m, N)."""
    spec = fixture(name)
    engine = make_engine(spec)
    assert engine.kind == kind
    d, seen = spec.dim, collections.Counter()

    def check(logs, where, rows=d):
        assert logs.ndim == 2 and logs.shape[0] == rows and logs.flags.c_contiguous, where
        seen[where] += 1

    if kind != "uniform":
        walk = engine._walk

        def checked_walk(visit, m, log_stop, node_budget):
            def checked_visit(depth, logs, parent_la, live, count_of):
                check(logs, "visit")
                assert live.dtype == bool and live.shape == parent_la.shape
                assert logs.shape[1] == parent_la.size * engine._arity(depth)
                return visit(depth, logs, parent_la, live, count_of)
            return walk(checked_visit, m, log_stop, node_budget)

        engine._walk = checked_walk
        for logs in engine._levels(4):  # the generic walk reads these, then expands its own
            check(logs, "level")
    log_eps = default_eps_log_schedule(spec, kind)[:6]
    for s in (0.5, 1.5):
        m = branch_index(s, d)
        check(engine._sstar_stops(s, log_eps, 3000).logs, "stops", m)
        check(engine._record_stops(m, np.array(log_eps[-1:]), 3000, True).logs, "stops", m)
        if kind != "uniform":  # a budget of one node: nothing stops
            rec = engine._record_stops(m, np.array(log_eps[-1:]), 1, False)
            check(rec.logs, "stops", m)
            assert rec.logs.shape == (m, 0)
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
        return np.array([[a, rng.uniform(-0.2, 0.2)], [0.0, b]])

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
    return u @ np.diag(rng.uniform(lo, hi, d)) @ v.T


def _generated_system(d, branches, seed, diagonal=False):
    """A periodic system (constant when ``diagonal``) with one level per entry of
    ``branches``.  Each level's first map has singular values in [0.1, 0.12],
    its second in [0.4, 0.5] and the others in [0.1, 0.5]: every word of the
    first maps stops by depth 2 at epsilon 0.02, every word of the second lives
    through depth 4, and every word stops by depth 6."""
    rng = np.random.default_rng(seed)

    def make(j):
        lo, hi = ((0.1, 0.12), (0.4, 0.5))[j] if j < 2 else (0.1, 0.5)
        return np.diag(rng.uniform(lo, hi, d)) if diagonal else _map_with_svs(rng, d, lo, hi)

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
        kept._levels(KEPT_DEPTH)
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
            engine._levels(KEPT_DEPTH)
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

    def visit(depth, logs, parent_la, live, count_of):
        arity = engine._arity(depth)
        pa, edges = np.repeat(parent_la, arity), np.flatnonzero(np.repeat(live, arity))
        la = logs[m - 1]
        for i, eps_i in enumerate(le):
            stop = edges[(la[edges] <= eps_i + _STOP_SNAP) & (pa[edges] > eps_i + _STOP_SNAP)]
            if stop.size:
                groups.append(log_phi_from_logs(logs[:, stop], s) + _log_counts(count_of(stop)))
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
    their own frontiers), then the kept levels and the net-measure windows
    of the DP, run directly, and on a multiplicative system of the product
    path too (``net_measure_series`` there folds nothing).

    The pool must start exactly when some call has handed ``_blocks`` more
    than one chunk of columns, checked after the walks, ``_levels(6)`` and
    the DP.  Those widths are not the widths of ``_levels(6)``: the DP builds
    the tree down to its deepest window, K = 9 (on ``_repeating_system(1,
    [(0, 0), (0, 0), (0, 1, 0)], 0)`` its 8 classes at depth 9 start the
    pool, while no level through depth 6 holds more than 4), and the
    lattice takes log phi^s over all its levels in one call.  Runs with and
    without a pool must both occur."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    monkeypatch.setattr(symbolic, "_CHUNK", 4)
    windows = [(1, 6), (2, 5), (3, 6), (6, 6), (4, 9)]
    log_eps = [math.log(e) for e in GEN_EPS]
    pools = set()  # whether a pool started, over the runs with more than one worker

    def run(spec, s, workers):
        # the generated diagonal systems are the constant ones
        engine = (DiagonalEngine if spec.schedule.kind == "constant" else GenericEngine)(spec)
        engine.workers = workers
        chunked, blocks = [0], engine._blocks  # every width handed to _blocks
        engine._blocks = lambda n, fn: chunked.append(n) or blocks(n, fn)

        def check_pool():
            assert (engine._pool is not None) == (workers > 1 and max(chunked) > 4)

        try:
            # on a multiplicative system net_measure_series builds no level and
            # starts no pool, so the walks below still run on a fresh engine
            nets = [engine.net_measure_series(s, windows, budget)
                    for budget in (40, 20_000) if spec.multiplicative]
            assert _built_depth(engine) == 0 and engine._pool is None
            walks = [(engine.schedule_log_sums(s, log_eps, budget),
                      [engine.cutset_groups(s, le, budget) for le in log_eps[::2]])
                     for budget in _walk_budgets(spec)]
            check_pool()
            levels = engine._levels(6)
            check_pool()
            nets += [engine._net_measure_dp(s, windows, budget) for budget in (40, 20_000)]
            check_pool()
            if workers > 1:
                pools.add(engine._pool is not None)
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
        # the DP starts the pool on this one (see above), always run
        check.hypothesis.inner_test(_repeating_system(1, [(0, 0), (0, 0), (0, 1, 0)], 0), 0.3)
        check()
    finally:
        sys.setswitchinterval(interval)
    assert pools == {False, True}


def test_scratch_sub_chunks_give_the_same_bits(monkeypatch):
    """A build's deepest level, taken 1 or 3 parents at a time inside chunks
    of 4, has the log singular values of whole chunks, bit for bit, on one
    worker and on three; so does every shallower level."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    monkeypatch.setattr(symbolic, "_CHUNK", 4)

    @settings(max_examples=_examples(30))
    @given(_generated_systems(st), st.sampled_from([1, 3]), st.integers(1, 5))
    def check(spec, workers, depth):
        def build(sub):
            monkeypatch.setattr(symbolic, "_SCRATCH_CHUNK", sub)
            engine = GenericEngine(spec)
            engine.workers = workers
            try:
                return [x.tobytes() for x in engine._levels(depth)]
            finally:
                engine.close()

        whole = build(4)
        assert build(1) == whole and build(3) == whole

    check()


# |the net-measure DP - the same DP on _logaddexp_fold| <= NET_ULPS ulps of max(1,
# |reference|): a window's DP takes at most a few dozen fold steps of about an ulp
# each (2 ulps was the largest seen, on example_5_3).  The DP runs directly, so a
# multiplicative system, whose net_measure_series folds nothing, checks it too.
NET_ULPS = 32


def _check_net_series_against_the_logaddexp_fold(engine, s, windows, budget):
    got = engine._net_measure_dp(s, windows, budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbolic, "_log_row_sums", _logaddexp_fold)
        want = engine._net_measure_dp(s, windows, budget)
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


def test_lattice_dp_of_a_system_that_is_not_multiplicative_matches_the_logaddexp_fold():
    """Four diagonal maps that order their coordinates both ways: the lattice
    answers ``net_measure_series`` by its DP."""
    maps = tuple(np.diag(c) for c in ((0.3, 0.2), (0.25, 0.3), (0.2, 0.25), (0.3, 0.3)))
    spec = SystemSpec(2, Schedule("constant", (LevelSpec(4, maps),)),
                      TranslationScheme("explicit", table={}), Box(np.zeros(2), np.ones(2)))
    engine = make_engine(spec)
    assert isinstance(engine, DiagonalEngine) and not spec.multiplicative
    windows = [(1, 8), (2, 5), (3, 8), (8, 8)]
    for s in (0.5, 1.0, 1.4, 2.5):
        for budget in (40, 20_000):
            _check_net_series_against_the_logaddexp_fold(engine, s, windows, budget)
            assert (engine.net_measure_series(s, windows, budget)
                    == engine._net_measure_dp(s, windows, budget))


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
            raw = self.chain @ lvl.array[0]
            scale = float(np.max(np.abs(raw)))
            self.chain = raw / scale
            self.log_scale += math.log(scale)
            self.log_det += math.log(abs(np.linalg.det(lvl.array[0])))
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
                    assert rec.logs.tobytes() == np.stack([ref.log_svs[t][:m] for t in want],
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
    maps = tuple(np.diag([0.1 + 0.05 * j, 0.4 - 0.05 * j]) for j in range(M))
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


def _comb_rank(comp):
    """The lexicographic rank of a composition, by ``math.comb``."""
    M, rank, left = len(comp), 0, sum(comp)
    for i, c in enumerate(comp):
        p = M - i
        rank += math.comb(left + p - 1, p - 1) - math.comb(left - c + p - 1, p - 1)
        left -= c
    return rank


@pytest.mark.parametrize("M", [2, 3, 5])
def test_composition_ranks_match_math_comb(M):
    """Ranks and level widths read off the lattice's one binomial table,
    which grows with depth, are the ``math.comb`` values of random
    compositions, exactly."""
    rng = np.random.default_rng(M)
    maps = tuple(np.diag([0.1 + 0.05 * j, 0.4 - 0.05 * j]) for j in range(M))
    engine = DiagonalEngine(SystemSpec(2, Schedule("constant", (LevelSpec(M, maps),)),
                                       TranslationScheme("explicit", table={}),
                                       Box(np.zeros(2), np.ones(2))))
    built = []
    real = symbolic._binomials
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbolic, "_binomials", lambda rows, M: built.append(rows) or real(rows, M))
        engine._extend(60 if M < 5 else 25)
    assert len(built) <= 6 and built == sorted(built)  # grown by doubling, never per level
    binom = engine._binom
    for total in (0, 1, 7, len(binom) - M):
        cuts = np.sort(rng.integers(0, total + 1, size=(40, M - 1)), axis=1)
        comps = np.diff(np.column_stack([np.zeros(40, dtype=np.int64), cuts,
                                         np.full(40, total)]), axis=1)
        rank, width = symbolic._composition_ranks(comps, binom)
        assert rank.tolist() == [_comb_rank(c) for c in comps.tolist()]
        assert width == math.comb(total + M - 1, M - 1)


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
        # the two DPs: on a multiplicative system net_measure_series builds no tree
        nets = [lattice._net_measure_dp(s, windows, budget),
                words._net_measure_dp(s, windows, budget)]
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
    """A DP window is evaluated exactly when the classes through its K, root
    included, fit the budget, and the DP builds the tree only that deep.
    ``random_diag_pair`` is multiplicative, so ``net_measure_series`` answers
    every window there by the level products and builds nothing; the DP
    then runs directly."""
    spec = fixture(name)
    for K in range(2, 7):
        windows = [(1, K), (K, K), (1, K + 1), (K + 1, K + 1)]
        if name == "random_diag_pair":  # t + 1 choice-count vectors at depth t
            budget = sum(t + 1 for t in range(K + 1))
        else:
            budget = sum(math.prod(spec.branch_count(j) for j in range(1, t + 1))
                         for t in range(K + 1))
        engine = make_engine(spec)
        assert engine.max_depth_within(budget) == K
        assert engine.max_depth_within(budget - 1) == K - 1
        got = engine.net_measure_series(1.1, windows, budget)
        if spec.multiplicative:
            assert None not in got and _built_depth(engine) == 0
        else:
            assert None not in got[:2] and got[2:] == [None, None]
            assert _built_depth(engine) == K
        dp = engine._net_measure_dp(1.1, windows, budget)
        assert None not in dp[:2] and dp[2:] == [None, None]
        assert _built_depth(engine) == K


def test_a_chain_answers_every_window_at_a_budget_of_one_node():
    """The chain is not budgeted: each window gets its least level sum."""
    shear = LevelSpec(2, (np.array([[0.5, 0.25], [0.0, 0.4]]),) * 2)
    for spec in (fixture("middle_thirds"), SystemSpec(
            2, Schedule("constant", (shear,)), TranslationScheme("explicit", table={}),
            Box(np.zeros(2), np.ones(2)))):
        windows = [(1, 5), (3, 9), (9, 9), (2, 40)]
        for s in (0.3, 0.63, 1.5):
            engine = make_engine(spec)
            assert isinstance(engine, UniformEngine)
            got = engine.net_measure_series(s, windows, 1)
            sums = make_engine(spec).level_log_sums(s, range(1, 41))
            assert got == [min(sums[k - 1:K]) for k, K in windows]


def _built_depth(engine):
    """How deep a class-tree engine has built its unpruned levels."""
    return len(engine._tree_logs if isinstance(engine, GenericEngine) else engine._logs[1:])


# ---------------------------------------------------------------------------
# the net measure of a multiplicative system: the least level product
# ---------------------------------------------------------------------------

# |product path - DP| <= PRODUCT_UNITS units u = 2^-53 of max(1, |DP|), stated
# before the first run: both routes round once per depth (the running sum of
# up to nine per-level log sums, the DP's fold), each by an ulp of partial sums
# that can be some ten times |v|, so a few hundred units was the expected
# scale; 400 generated systems (18,504 values) measured at most 28
PRODUCT_UNITS = 4096
# moduli on a coarse grid, so maps tie on coordinates and scalar maps are common
MODULI = (0.1, 0.15, 0.2, 0.3, 0.4, 0.45)


def _multiplicative_system(d, kind, branches, seed):
    """A system of diagonal maps, one level per entry of ``branches``, whose
    coordinates keep one order of moduli (a random permutation of the axes)
    in every map: ties, scalar maps and negative entries included.  ``kind``
    is the schedule kind; a constant schedule keeps the first level only."""
    rng = np.random.default_rng(seed)
    axes = rng.permutation(d)

    def make():
        moduli = np.full(d, rng.choice(MODULI)) if rng.random() < 0.25 else \
            -np.sort(-rng.choice(MODULI, d))
        entries = np.empty(d)
        entries[axes] = moduli * rng.choice((-1.0, 1.0), d)
        return np.diag(entries)

    levels = tuple(LevelSpec(n, tuple(make() for _ in range(n))) for n in branches)
    if kind == "constant":
        schedule = Schedule(kind, levels[:1])
    elif kind == "explicit_prefix_then_periodic":
        schedule = Schedule(kind, levels, period=int(rng.integers(1, len(levels) + 1)))
    elif kind == "geometric_blocks":
        schedule = Schedule(kind, levels, block_base=int(rng.integers(1, 4)),
                            block_ratio=int(rng.integers(2, 4)))
    else:
        schedule = Schedule(kind, levels)
    return SystemSpec(d, schedule, TranslationScheme("explicit", table={}),
                      Box(np.zeros(d), np.ones(d)))


def test_the_product_path_equals_the_dp_on_multiplicative_systems():
    """Constant systems go to the lattice and the others to the walker; at
    every exponent, s > d included, and both budgets, the product path
    answers every window, builds no level, and is within PRODUCT_UNITS of
    the DP on every window the DP evaluates."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    windows = [(1, 6), (1, 1), (2, 5), (3, 6), (6, 6), (4, 9)]

    @settings(max_examples=_examples(60))
    @given(st.builds(_multiplicative_system, st.sampled_from([1, 2, 3]),
                     st.sampled_from(SCHEDULE_KINDS),
                     st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3),
                     st.integers(0, 2 ** 32 - 1)))
    def check(spec):
        assert spec.multiplicative
        engine = (DiagonalEngine if spec.schedule.kind == "constant" else GenericEngine)(spec)
        probes = [(s, budget) for s in (0.0, *GEN_S) for budget in (40, 20_000)]
        products = [engine.net_measure_series(s, windows, budget) for s, budget in probes]
        assert _built_depth(engine) == 0
        for (s, budget), got in zip(probes, products):
            assert None not in got
            for g, w in zip(got, engine._net_measure_dp(s, windows, budget)):
                if w is not None:
                    assert abs(g - w) <= PRODUCT_UNITS * 2.0 ** -53 * max(1.0, abs(w)), \
                        (s, budget, g, w)

    check()


def _tree_level_sum(engine, s, t):
    """A class tree's own level sum at depth t, over its built levels, on any system."""
    return logsumexp(engine._log_phi(engine._levels(t)[t - 1], s) + engine._log_mults(t))


def test_the_lattice_tree_sums_equal_the_level_products():
    """The tree route beside the products (C4 reads the products): on
    ``random_diag_pair``, ``pressure_root`` builds no level, the lattice's
    own sums are within PRODUCT_UNITS of ``level_log_sums`` at every depth
    it reads, t = 1..96, and a root bisected from the tree sums lies within
    one tol of ``pressure_root``'s, where the two classify a probe alike
    unless its log p lies within their rounding of 0."""
    spec = fixture("random_diag_pair")
    engine = make_engine(spec)
    assert isinstance(engine, DiagonalEngine) and spec.multiplicative
    tol = 1e-7
    report = pressure_root(spec, tol=tol, engine=engine)
    assert len(engine._logs) == 1 and report.estimate is not None
    k1, k2 = report.schedule["depths"]
    assert (k1, k2) == (48, 96)
    for s in (0.3, 0.9, 1.25, report.estimate, 1.8, 2.6):
        for t, got in enumerate(engine.level_log_sums(s, range(1, 97)), start=1):
            want = _tree_level_sum(engine, s, t)
            assert abs(got - want) <= PRODUCT_UNITS * 2.0 ** -53 * max(1.0, abs(want)), (s, t)

    def classify(s):
        return _sign_class((_tree_level_sum(engine, s, k2) - _tree_level_sum(engine, s, k1))
                           / (k2 - k1))

    estimate, _, flags = _bisect(classify, 0.0, spec.dim + 1.0, tol)
    assert flags == [] and abs(estimate - report.estimate) <= tol


def test_falconer_ratio_of_random_diag_pair_is_its_log_z():
    """``random_diag_pair`` repeats one level of two diagonal maps whose
    coordinates share one order, so S_t = t log Z: the ratio falconer reads,
    (S_96 - S_48) / 48, is log Z taken by hand within PRODUCT_UNITS, and
    reading it builds no level of the lattice."""
    spec = fixture("random_diag_pair")
    engine = make_engine(spec)
    assert isinstance(engine, DiagonalEngine) and spec.multiplicative
    pairs = [(0.4584, 0.2917), (0.4114, 0.2595)]

    def hand_phi(a, b, s):
        return a ** s if s <= 1 else a * b ** (s - 1) if s <= 2 else (a * b) ** (s / 2)

    for s in (0.3, 0.9, 1.25, 1.8, 2.6):
        want = math.log(math.fsum(hand_phi(a, b, s) for a, b in pairs))
        s48, s96 = engine.level_log_sums(s, [48, 96])
        got = (s96 - s48) / 48
        assert abs(got - want) <= PRODUCT_UNITS * 2.0 ** -53 * max(1.0, abs(want)), (s, got, want)
    assert len(engine._logs) == 1


def test_walker_level_products_build_no_level():
    """``periodic_scalar_d1`` (d = 1, on the generic walker) is multiplicative:
    its depth-200 level sum is the sum of log Z_j over levels 1..200, taken
    by hand, within PRODUCT_UNITS, and no level of its word tree is built."""
    doc = json.loads((pathlib.Path(__file__).parent / "golden"
                      / "periodic_scalar_d1.json").read_text())
    spec = parse_spec(doc)
    engine = make_engine(spec)
    assert isinstance(engine, GenericEngine) and spec.multiplicative
    ratios = [[abs(m[0][0]) for m in lvl["maps"]] for lvl in doc["schedule"]["levels"]]
    for s in (0.3, 0.63, 1.0, 1.7):
        log_z = [math.log(math.fsum(c ** s for c in cs)) for cs in ratios]
        want = math.fsum(log_z[(t - 1) % len(ratios)] for t in range(1, 201))
        (got,) = engine.level_log_sums(s, [200])
        assert abs(got - want) <= PRODUCT_UNITS * 2.0 ** -53 * max(1.0, abs(want)), (s, got, want)
    # past the chain's depth cap the products raise, as the chain does, before any sum
    with pytest.raises(BudgetExceeded, match="level-product depth exceeds 10000"):
        engine.level_log_sums(1.0, [symbolic._MAX_CHAIN_DEPTH + 1])
    assert engine._tree_logs == []


def test_the_least_level_sum_is_not_the_net_measure_of_an_unordered_system():
    """The guard matters: the maps of level A order their coordinates both
    ways, so phi^s does not multiply, and the DP's net measure lies well
    below the least level sum over each window."""
    A = LevelSpec(2, (np.diag([0.45, 0.2]), np.diag([0.3, 0.45])))
    B = LevelSpec(3, (np.diag([0.2, 0.3]), np.diag([0.25, 0.3]), np.diag([0.3, 0.2])))
    spec = SystemSpec(2, Schedule("periodic", (A, B)), TranslationScheme("explicit", table={}),
                      Box(np.zeros(2), np.ones(2)))
    assert not spec.multiplicative
    engine = make_engine(spec)
    windows = [(2, 12), (4, 14)]
    net = engine.net_measure_series(0.75, windows, symbolic.DEFAULT_NODE_BUDGET)
    sums = engine.level_log_sums(0.75, range(1, 15))
    least = [min(sums[k - 1:K]) for k, K in windows]
    assert [round(math.exp(v), 4) for v in net] == [1.0727, 1.1150]
    assert [round(math.exp(v), 4) for v in least] == [1.1256, 1.1666]


# ---------------------------------------------------------------------------
# the generic walker's classes over each level's distinct maps
# ---------------------------------------------------------------------------

class _WordEngine(GenericEngine):
    """The generic walker with every map its own class: one class per word,
    the unmerged reference for levels that repeat a map."""

    def _level_maps(self, k):
        maps = self.spec.level(k).array
        return (maps.copy(),
                np.array([math.log(abs(np.linalg.det(m))) for m in maps]),
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
        assume(any(len(lvl.distinct[0]) < lvl.branch_count for lvl in spec.schedule.levels))
        merged, words = GenericEngine(spec), _WordEngine(spec)
        if keep_tree:
            merged._levels(KEPT_DEPTH)
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
    a = np.array([[0.5, 0.1], [0.0, 0.5]])
    b = np.array([[0.5, 0.0], [0.1, 0.5]])
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
            child = prod @ mat
            if np.linalg.svd(child, compute_uv=False)[m - 1] <= eps:
                want += count * mult
            else:
                stack.append((child, count * mult))
    assert want > 2 ** 63
    assert c.word_count() == want
    assert c.node_budget_used == nodes


def test_a_level_with_minus_zero_and_zero_forms_of_a_map_builds_one_class():
    a = np.array([[0.5, -0.0], [0.1, 0.5]])
    b = np.array([[0.5, 0.0], [0.1, 0.5]])
    c = np.array([[0.3, 0.1], [0.0, 0.4]])
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
    return rng.uniform(0.35, 0.4) * np.eye(len(P)) + rng.uniform(-0.1, 0.1) * P


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
        while not np.array_equal(image := P @ orbit[-1] @ P.T, orbit[0]):
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
        lvl = spec.level(2)
        assert k == 2 and merged._arity(2) == 1 + sum(
            np.array_equal(P @ lvl.array[j] @ P.T, lvl.array[j]) for j in lvl.distinct[0])
        if keep_tree:
            merged._levels(KEPT_DEPTH)
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
            # + 0.0 turns -0.0 into 0.0: one key for equal maps, in first-occurrence order
            want = collections.Counter((m + 0.0).tobytes() for m in spec.level(t).array)
            assert [(m + 0.0).tobytes() for m in mats] == list(want)
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
        for j, mat in enumerate(lvl.array, start=1):
            raw = Q @ mat
            scale = float(np.max(np.abs(raw)))
            Q2 = raw / scale
            ls2 = log_scale + math.log(scale)
            ld2 = log_det + math.log(abs(np.linalg.det(mat)))
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
    singular = LevelSpec(2, (np.diag([0.5, 0.5]), np.diag([0.0, 0.5])))
    third = np.eye(2) / 3
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
        for route in ("net_measure_series", "_net_measure_dp"):  # the DP on every system
            shared = make_engine(spec)
            got = getattr(shared, route)(s, wins, budget)
            assert len(got) == len(wins)
            for w, item in zip(wins, got):
                assert item == getattr(type(shared)(spec), route)(s, [w], budget)[0]

    check()


# ---------------------------------------------------------------------------
# the generic walker's stop records against a gathered-copy walk, and the
# memory of its level build
# ---------------------------------------------------------------------------

def _gathered_stops(engine, m, le, node_budget, exact):
    """The generic walker's stop record by a walk that copies what it reads:
    each kept level gathered through the indices of its kept classes, each
    edge carrying its live-word count and its parent's log alpha_m, every
    bucket tried at every depth, and past the kept levels the frontier's own
    products, re-expanded from the root along its ancestors."""
    kept, groups = engine._tree_logs, []
    idx = Q = None
    parent_la, count = np.full(1, math.inf), np.ones(1, dtype=np.int64)
    live = words = 1
    depth = nodes = 0
    frontier = -math.inf
    while parent_la.size:
        depth += 1
        n = engine.spec.branch_count(depth)
        if nodes + live * n > node_budget:
            frontier = float(parent_la.max())
            break
        nodes += live * n
        words *= n
        mults = engine._level_maps(depth)[2]
        a = mults.size
        count = np.repeat(count, a).astype(np.int64 if words < 2 ** 63 else object)
        count = count * np.tile(mults.astype(count.dtype), parent_la.size)
        if depth <= len(kept):
            logs = kept[depth - 1]
            if idx is not None:
                idx = (idx[:, None] * a + np.arange(a)).reshape(-1)
                logs = logs.take(idx, axis=1)
        else:
            if Q is None:
                Q, log_scale, log_det = engine._products(idx, depth - 1)
            Q, log_scale, log_det, logs = engine._expand(Q, log_scale, log_det, depth)
        la, pa = logs[m - 1], np.repeat(parent_la, a)
        for i, eps in enumerate(le):
            stop = np.flatnonzero((la <= eps + _STOP_SNAP) & (pa > eps + _STOP_SNAP))
            if stop.size:
                groups.append((i, depth, logs[:, stop], count[stop]))
        keep = la > le[-1] + _STOP_SNAP
        parent_la, count = la[keep], count[keep]
        if Q is not None:
            Q, log_scale, log_det = Q[..., keep], log_scale[keep], log_det[keep]
        else:
            idx = np.flatnonzero(keep) if idx is None else idx[keep]
        live = int(count.sum())
    return _stops_of(groups, engine.d, exact, [frontier <= float(v) for v in le], nodes)


def _stops_of(groups, d, exact, complete, nodes):
    """A full-width ``_Stops`` of (bucket, depth, (d, rows) logs, counts) groups."""
    counts = [c if exact else _log_counts(c) for *_, c in groups]
    return symbolic._Stops(
        [g[0] for g in groups], [g[1] for g in groups],
        [0, *itertools.accumulate(len(c) for c in counts)],
        np.concatenate([g[2] for g in groups], axis=1) if groups else np.empty((d, 0)),
        np.concatenate(counts) if groups else np.empty(0), complete, nodes)


def _check_record_against_gathered_walk(engine, m, le, node_budget, exact):
    got = engine._record_stops(m, np.asarray(le), node_budget, exact)
    want = _gathered_stops(engine, m, np.asarray(le), node_budget, exact)
    assert (got.bucket, got.depth, got.bounds, got.complete, got.nodes) == (
        want.bucket, want.depth, want.bounds, want.complete, want.nodes)
    # the record keeps rows 1..m of the reference walk's log singular values
    assert got.logs.shape == (m, want.logs.shape[1])
    assert got.logs.tobytes() == np.ascontiguousarray(want.logs[:m]).tobytes()
    assert got.counts.dtype == want.counts.dtype
    if exact:
        assert got.counts.tolist() == want.counts.tolist()
        assert all(type(c) is int for c in got.counts.tolist())
    else:
        assert got.counts.tobytes() == want.counts.tobytes()
    return got


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kept_depth, budget", [
    (21, symbolic.DEFAULT_NODE_BUDGET),  # the dims run: the s* walk fills the kept tree
    (21, 3000),                          # a walk cut short inside the kept levels
    (8, 400_000),                        # a walk past the kept horizon
])
def test_example_5_3_records_match_the_gathered_walk(m, kept_depth, budget):
    spec = fixture("example_5_3")
    engine = make_engine(spec)
    engine._levels(kept_depth)
    le = default_eps_log_schedule(spec, engine.kind)
    for exact in (False, True):
        rec = _check_record_against_gathered_walk(engine, m, le, budget, exact)
    if (m, kept_depth, budget) == (1, 21, symbolic.DEFAULT_NODE_BUDGET):
        # every kept level read, and the walk cut short before depth 22
        assert rec.nodes == 6_291_177 and max(rec.depth) == 21 and not all(rec.complete)


def test_records_match_the_gathered_walk_on_repeating_systems():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=_examples(60))
    @given(st.builds(_repeating_system, st.sampled_from([1, 2, 3]),
                     st.lists(st.sampled_from(REPEAT_PATTERNS), min_size=2, max_size=3),
                     st.integers(0, 2 ** 32 - 1)),
           st.sampled_from(GEN_S), st.sampled_from([0, 2, KEPT_DEPTH, 6]), st.booleans())
    def check(spec, s, kept_depth, exact):
        engine = GenericEngine(spec)
        if kept_depth:
            engine._levels(kept_depth)
        le = [math.log(e) for e in GEN_EPS]
        for budget in (*_walk_budgets(spec), 40):
            _check_record_against_gathered_walk(engine, branch_index(s, spec.dim), le, budget,
                                                exact)

    check()


@pytest.mark.parametrize("kept_depth", [0, 9, 10, 12])
def test_records_match_the_gathered_walk_past_int64(kept_depth):
    """101 branches over two shears, one of them 100 times: the word counts
    pass 2^63 at depth 10, so the kept levels switch to exact Python integers
    at 10 and 12, and the walk past the horizon does at 0 and 9."""
    a = np.array([[0.5, 0.1], [0.0, 0.5]])
    b = np.array([[0.5, 0.0], [0.1, 0.5]])
    spec = SystemSpec(2, Schedule("constant", (LevelSpec(101, (a,) * 100 + (b,)),)),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(2), np.ones(2)))
    engine = GenericEngine(spec)
    if kept_depth:
        engine._levels(kept_depth)
    le = [math.log(e) for e in (0.05, 4e-3, 3e-5)]
    for budget in (101 ** 4, 10 ** 30):  # cut short at depth 4, inside every kept tree; not cut
        for exact in (False, True):
            rec = _check_record_against_gathered_walk(engine, 2, le, budget, exact)
    assert rec.counts.dtype == object and max(rec.depth) > 12


def _full_width_stops(engine, m, le, node_budget, exact):
    """A stop record that keeps all d rows of log singular values: the
    chain's from its stored levels at the record's depths, a class tree's
    by its ``_walk`` with a visit that tries every bucket at every depth."""
    if isinstance(engine, UniformEngine):
        rec = UniformEngine._record_stops(engine, m, le, node_budget, exact)
        return rec._replace(logs=engine._logs.take(rec.depth, axis=1))
    groups = []

    def visit(depth, logs, parent_la, live, count_of):
        la = logs[m - 1]
        pa = np.repeat(np.where(live, parent_la, -math.inf), la.size // parent_la.size)
        for i, eps in enumerate(le):
            stop = np.flatnonzero((la <= eps + _STOP_SNAP) & (pa > eps + _STOP_SNAP))
            if stop.size:
                groups.append((i, depth, logs[:, stop], count_of(stop)))

    frontier, nodes = engine._walk(visit, m, float(le[-1]), node_budget)
    return _stops_of(groups, engine.d, exact, [frontier <= float(v) for v in le], nodes)


# on both sides of each integer, and past every d drawn
TRIM_S = (0.3, 0.95, 1.0, 1.05, 1.9, 2.0, 2.1, 2.9, 3.0, 3.2, 4.5)


def test_records_of_rows_1_to_m_replay_as_full_width_records():
    """``schedule_log_sums`` and ``cutset_groups`` over the records, which
    keep log singular values 1..m, equal bit for bit the same replays over
    full-width records of the same walks, on chains, lattices and walkers."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    systems = st.one_of(
        st.builds(_chain_system, st.sampled_from([1, 2, 3]),
                  st.sampled_from(["constant", "periodic"]),
                  st.lists(st.sampled_from([2, 3]), min_size=2, max_size=3),
                  st.integers(0, 2 ** 32 - 1)),
        _generated_systems(st, diagonal=True), _generated_systems(st))

    @settings(max_examples=_examples(60))
    @given(systems, st.sampled_from(TRIM_S), st.booleans())
    def check(spec, s, keep_tree):
        engine, full = make_engine(spec), make_engine(spec)
        if keep_tree and isinstance(engine, GenericEngine):
            engine._levels(KEPT_DEPTH)
            full._levels(KEPT_DEPTH)
        full._record_stops = lambda *args: _full_width_stops(full, *args)
        m, le = branch_index(s, spec.dim), [math.log(e) for e in GEN_EPS]
        for budget in (*_walk_budgets(spec), 40):
            rec = engine._record_stops(m, np.asarray(le), budget, False)
            want = full._record_stops(m, np.asarray(le), budget, False)
            assert rec.logs.shape == (m, want.logs.shape[1])
            assert rec.logs.tobytes() == np.ascontiguousarray(want.logs[:m]).tobytes()
            assert (repr(engine.schedule_log_sums(s, le, budget))
                    == repr(full.schedule_log_sums(s, le, budget)))
            for x in le[::2]:
                assert (repr(engine.cutset_groups(s, x, budget))
                        == repr(full.cutset_groups(s, x, budget)))

    check()


# the build's peaks, each fixed before its build first ran: example_5_3's tree
# through depth 21 (2^20 classes' log singular values, 16 MiB).  Every level's
# products and dets, the deepest's too, peak at about 51 MiB on one worker.
# Without the deepest level's products, the kept levels, its parents' products
# and log dets (10 MiB) and a chunk of 2^15 parents' scratch (about 5 MiB) per
# worker peak at 31.3 MiB on one worker and 36.6 MiB on two; with sub-chunks of
# 2^13 parents (about 1.5 MiB of scratch per worker) they fit in 30 and 32.
LEVELS_PEAK_BOUND = {1: 30 * 2 ** 20, 2: 32 * 2 ** 20}


def _build_peak(workers):
    engine = make_engine(fixture("example_5_3"))
    engine.workers = workers
    tracemalloc.start()
    try:
        levels = engine._levels(21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        engine.close()
    assert sum(x.nbytes for x in levels) == 16 * 2 ** 20
    return peak


def test_the_level_build_holds_no_products_of_its_deepest_level():
    peak = _build_peak(1)
    assert peak <= LEVELS_PEAK_BOUND[1], f"peak {peak / 2 ** 20:.1f} MiB"


def test_the_two_worker_build_holds_one_sub_chunk_of_scratch_per_worker():
    peak = _build_peak(2)
    assert peak <= LEVELS_PEAK_BOUND[2], f"peak {peak / 2 ** 20:.1f} MiB"


# the s* record's peak, fixed before the record first ran: on example_5_3's
# kept tree through depth 21, the m = 1 record is 367,052 stopping edges, 2.8
# MiB of row-1 log singular values and 2.8 MiB of log counts.  With the logs'
# pieces dropped before the counts are joined, the join peaks at twice the
# logs plus the counts, 8.4 MiB, which fits in 10; with both rows of logs kept
# it peaks at 14.0 MiB.
RECORD_PEAK_BOUND = 10 * 2 ** 20


def test_the_sstar_record_is_never_held_twice():
    spec = fixture("example_5_3")
    engine = make_engine(spec)
    engine._levels(21)
    le = np.asarray(default_eps_log_schedule(spec, engine.kind))
    tracemalloc.start()
    try:
        rec = engine._record_stops(1, le, symbolic.DEFAULT_NODE_BUDGET, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.logs.shape == (1, 367_052)
    assert peak <= RECORD_PEAK_BOUND, f"peak {peak / 2 ** 20:.1f} MiB"
