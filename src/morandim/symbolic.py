"""Words, cylinder products, and cut-set construction over the level tree.

Every tree quantity has four entry points on each engine:
``schedule_log_sums`` (cut-set sums over an epsilon schedule),
``cutset_groups``, ``net_measure_series`` (the net-measure dynamic program
for a list of (k, K) depth windows, evaluated off one pass) and
``level_log_sums`` (per-depth sums).  ``_Engine`` replays the first two
from one stop record, which each level store writes with the other two:

* ``UniformEngine`` — every level's maps are identical, so all words at a
  depth share one product; the tree collapses to a chain with
  multiplicities, kept as one (d, T + 1) array of log singular values that
  grows in blocks of depths.  Its traversals read that array: a level sum
  gathers its columns, and the stop record (one node per epsilon) searches
  its alpha_m row.  A cover there sits at one depth, so a net-measure
  window [k, K] is the least of the level sums at depths k..K.
* ``_ClassTree`` — the traversals over a level tree of classes, for two
  level stores.  ``DiagonalEngine`` is the composition lattice of a
  stationary diagonal family: diagonal maps commute, so a class is a
  per-map choice count with a multinomial word count.  ``GenericEngine``
  has one class per word over each level's distinct maps, whose word count
  is the product of its maps' multiplicities; it is the only store that
  pays the exponential price.  Its unpruned levels do not depend on s, so
  they are expanded once per engine and reused by every probe; the pruned
  walks read them through the indices of their surviving nodes and expand
  only past them.  When a signed permutation P maps every level's multiset
  of maps onto itself by conjugation, one depth keeps one map per orbit of
  P: the subtrees under the maps of an orbit are mirror images, with the
  same singular values (see ``GenericEngine``).  That leaves every count
  and budget as it was, and sums over a merged row can move by an ulp.

The two kinds of traversal keep two budget rules.  A net-measure window is
evaluated exactly when the budget covers the tree through its horizon K,
root included, and is None otherwise; the tree is built only that deep.  A
pruned walk (the cut-set quantities) pays, per level, what it expands, and
stops before the level that would exceed the budget.  The lattice counts
its classes; the generic walker counts the words its classes stand for, so
its horizons and truncation do not depend on how often a level repeats a
map.  The stop record of an epsilon schedule visits, at each depth, only
the buckets that depth can reach.  Which edges stop in which bucket depends
on s only through the branch index m, so the s* sums record once per (m,
schedule, budget), and every probe replays it by one array reduction on
every store: a chain sum is its level sum, and a class-tree sum may differ
by an ulp from a group-by-group logsumexp, which the reports do not show.

The class tree's net-measure DP evaluates all the windows of a call in one
sweep from the deepest horizon up, over a stack with one row per window.
Each depth reduces every row's children with ``_log_row_sums``, a pairwise
fold over the children's columns in whole-array ufuncs (max + log1p(exp(min
- max)), numpy's ``logaddexp`` formula); a window joins the stack at its
horizon and leaves it at its min depth, where its row is summed weighted by
the word counts.  The fold's ``np.exp`` is numpy's SIMD kernel, so a net
measure's last bit can differ by an ulp from one CPU's SIMD extensions to
another's.  The reports carry only each probe's trend class and the
bisection bracket, which an ulp does not move unless a probe sits on a
classifier's threshold.

Every per-node array of log singular values, from the level stores
through the pruned walks and the stop record to ``log_phi_from_logs``, is a
C-contiguous (d, N) array, axis 0 the singular-value index, or a column
block of one (the lattice's levels): each index is one contiguous row, so
gathers, the alpha_m row and phi^s read contiguous memory.  The generic
walker keeps each level's products the same way, as d^2 contiguous entry
columns, (d, d, N), and expands them by elementwise multiply-adds.  The
class tree's level-wide array work (the generic expansion, each level's
log phi^s, and each depth of the net-measure fold) runs through
``_Engine._blocks`` in chunks of ``_CHUNK`` columns, and a level of more
than one chunk is split over ``workers`` threads (1 unless the caller
sets it, as ``dims --threads`` does), one contiguous block per worker.
Every chunk does the same elementwise arithmetic on its own columns, so
the bits are the same at any worker count.

``cutset_rows`` lists the cut-set words themselves, independently of the
engines, from plain products taken one depth at a time, as digit lists;
``iter_cutset_words`` yields them as ``Word`` objects.  The chain and the
lister read the singular values of their rescaled products in one step,
``_stack_log_svs``: d = 2 takes the closed form, any other d one SVD.

Equal-product aggregation is the central performance decision: the shipped
block fixtures have 9^k-size levels that reduce to O(1) work per depth.
All multiplicities are exact integers; all magnitudes live in the log
domain so depth-hundreds products stay finite.
"""
from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import BudgetExceeded, MoranDimError
from .linalg import Matrix, SingularValues, mat_mul, singular_values, sv2_batch
from .svf import branch_index, log_phi_from_logs
from .system import SystemSpec, validate

DEFAULT_NODE_BUDGET = 10_000_000
# Deepest chain and Moran depth: 10^4 levels of 9 maps' exact word counts take ~20 MB.
_MAX_CHAIN_DEPTH = 10_000
_WORD_ENUM_CAP = 200_000
_INT64_MAX = int(np.iinfo(np.int64).max)
# Stopping comparisons happen in the log domain with a relative snap so the
# tie case alpha_m == epsilon stops even when the two floats were produced
# by different arithmetic paths.
_STOP_SNAP = 1e-12
# Columns per chunk of a level's array work (``_Engine._blocks``): it bounds
# the temporaries of a wide level, and a level of one chunk is not worth a
# thread hand-off.  On example_5_3's s* and s_A job, 2^11 to 2^17 gave the
# same time within noise, and the peak RSS was 145 MB with chunks, 170 without.
_CHUNK = 1 << 15


# ---------------------------------------------------------------------------
# Words and products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Word:
    """A finite word with 1-based digits, digit j valid for level j."""

    digits: tuple

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(map(int, self.digits)))

    def __len__(self):
        return len(self.digits)

    def __str__(self):
        return "-".join(map(str, self.digits)) if self.digits else "(empty)"


def validate_word(spec: SystemSpec, w: Word) -> None:
    for j, d in enumerate(w.digits, start=1):
        n = spec.branch_count(j)
        if not 1 <= d <= n:
            raise MoranDimError(f"digit {d} at position {j} outside 1..{n}")


@dataclass
class ProductNode:
    """Cached left-to-right product T_u with its singular values."""

    word: Word
    product: Matrix
    sv: SingularValues

    def log_phi(self, s: float) -> float:
        return float(log_phi_from_logs(np.array(self.sv.log_values), float(s)))


def product(spec: SystemSpec, w: Word, cache: Optional[dict] = None) -> ProductNode:
    """The product node for ``w``; children extend parents by one multiplication.

    Pass a dict as ``cache`` to share prefix products across calls.
    """
    validate_word(spec, w)
    if cache is None:
        cache = {}
    root = cache.get(())
    if root is None:
        ident = Matrix.identity(spec.dim)
        root = ProductNode(Word(()), ident, singular_values(ident))
        cache[()] = root
    node = root
    for j, d in enumerate(w.digits, start=1):
        key = w.digits[:j]
        nxt = cache.get(key)
        if nxt is None:
            mat = mat_mul(node.product, spec.level(j).maps[d - 1])
            nxt = ProductNode(Word(key), mat, singular_values(mat))
            cache[key] = nxt
        node = nxt
    return node


# ---------------------------------------------------------------------------
# Log-domain helpers
# ---------------------------------------------------------------------------

def logsumexp(values) -> float:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return -math.inf
    m = float(arr.max())
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.exp(arr - m).sum()))


def _log_counts(count: np.ndarray) -> np.ndarray:
    """Logs of exact word counts: vectorized on int64, ``math.log`` on
    Python integers, which takes them at any size."""
    if count.dtype == object:
        return np.array([math.log(c) for c in count], dtype=float)
    return np.log(count)


def _stack_log_svs(raw: np.ndarray, log_scale: np.ndarray, log_det: np.ndarray) -> np.ndarray:
    """(d, N) log singular values of the products exp(log_scale) * raw, with
    ``raw`` an (N, d, d) stack rescaled by its largest entries: for d = 2 the
    closed form, the smaller value from log |det|; any other d one SVD."""
    if raw.shape[-1] == 2:
        # math.log element by element: np.log differs from it in the last bit on some inputs
        l1 = log_scale + np.fromiter(map(math.log, sv2_batch(raw)[0]), float, len(raw))
        return np.stack([l1, log_det - l1])
    return np.ascontiguousarray(
        (log_scale[:, None] + np.log(np.linalg.svd(raw, compute_uv=False))).T)


def _bucket_log_sums(terms: np.ndarray, bucket, bounds, n: int) -> list:
    """Logsumexp of ``terms`` per bucket in one array reduction: the rows
    bounds[g]:bounds[g + 1] of group g add into bucket[g], shifted by its
    max; a bucket that no group reaches is -inf, with no warning."""
    top, total = np.full(n, -math.inf), np.zeros(n)
    np.maximum.at(top, bucket, np.maximum.reduceat(terms, bounds[:-1]))
    shifted = np.repeat(top[bucket], np.diff(bounds))
    np.exp(np.subtract(terms, shifted, out=shifted), out=shifted)
    np.add.at(total, bucket, np.add.reduceat(shifted, bounds[:-1]))
    with np.errstate(divide="ignore"):
        return (np.log(total) + top).tolist()


def _log_row_sums(grouped: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logsumexp over the last axis of an (..., n) array, into ``out`` or a
    fresh (...) array.

    Folds the columns pairwise, left to right: the first pair is written to
    the result and every later column is added into it in place.  A pair
    (x, y) adds as max + log1p(exp(min - max)), numpy's ``logaddexp``
    formula, by whole-array ufuncs with one scratch array the size of the
    result.  ``np.exp`` runs numpy's SIMD kernel, which can differ from the
    scalar libm ``exp`` of the ``logaddexp`` ufunc in the last bit, so a sum
    can differ by an ulp from that ufunc's and from one CPU's SIMD
    extensions to another's.  A pair of -inf adds to -inf and a finite x to
    -inf gives x, without a floating-point warning.
    """
    n = grouped.shape[-1]
    if out is None:
        out = np.empty(grouped.shape[:-1])
    if n == 1:
        out[...] = grouped[..., 0]
        return out
    hi = np.empty(out.shape)
    acc = grouped[..., 0]
    for j in range(1, n):
        col = grouped[..., j]
        np.maximum(acc, col, out=hi)
        np.minimum(acc, col, out=out)
        acc = out
        with np.errstate(invalid="raise"):
            try:
                np.subtract(out, hi, out=out)
            except FloatingPointError:  # equal infinities: their gap is 0, as for any equal pair
                out[np.isnan(out)] = 0.0
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out += hi
    return out


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------

class _Stops(NamedTuple):
    """A recorded stopping walk: the stopping edges in walk order, in groups
    of one epsilon bucket at one depth; group g is rows bounds[g]:bounds[g + 1]."""

    bucket: list        # each group's epsilon bucket
    depth: list         # each group's depth
    bounds: list
    logs: np.ndarray    # (d, rows) log singular values of the stopping edges
    counts: np.ndarray  # their live-word counts: exact integers in exact mode, else logs
    complete: list      # per bucket: no word the walk left unexpanded could stop in it
    nodes: int          # nodes expanded


class _Engine:
    """The cut-set quantities, as replays of one stop record per level store.

    A level store gives the budgeted nodes per depth (``_widths``) and the
    stopping walk ``_record_stops(m, le, node_budget, exact)`` at branch
    index m over the descending log-epsilon schedule ``le``.  An edge stops
    in bucket i when its alpha_m is at most epsilon_i and its parent's is
    above; the empty word's alpha counts as +inf, so the root never stops.
    The s* record, with log live-word counts, is kept per (m, schedule,
    budget) and reduced by ``_bucket_log_sums``; ``cutset_groups`` replays
    a fresh one in exact mode, with the exact counts.
    """

    workers = 1  # threads for the class tree's level-wide array work (``_blocks``)

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.d = spec.dim
        self._stop_records = {}  # (m, log eps schedule, node_budget) -> the s* _Stops
        self._pool = None

    def _blocks(self, n: int, fn) -> None:
        """Run ``fn(lo, hi)`` over the chunks of at most ``_CHUNK`` columns
        that cover range(n); with more than one worker, a level of more than
        one chunk is split into one contiguous block of chunks per worker, on
        a thread pool started when a level first gets that wide.  A chunk
        writes only its own slices of preallocated arrays, so the bits depend
        on neither the chunks nor the workers."""
        def run(lo, hi):
            for c in range(lo, hi, _CHUNK):
                fn(c, min(c + _CHUNK, hi))

        if self.workers <= 1 or n <= _CHUNK:
            run(0, n)
            return
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        bounds = [n * i // self.workers for i in range(self.workers + 1)]
        futures = [self._pool.submit(run, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        for f in futures:  # every block ends before an error is raised
            f.exception()
        for f in futures:
            f.result()

    def close(self) -> None:
        """Stop the worker threads, if a level was wide enough to start them."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def max_depth_within(self, node_budget: int, K_cap: int = 64) -> int:
        """Deepest depth <= K_cap whose tree, root included, fits the budget."""
        depth, nodes = 0, 1
        for width in itertools.islice(self._widths(), K_cap):
            nodes += width
            if nodes > node_budget:
                break
            depth += 1
        return depth

    def _sstar_stops(self, s: float, log_eps_list, node_budget: int) -> _Stops:
        key = (branch_index(s, self.d), tuple(log_eps_list), node_budget)
        if key not in self._stop_records:
            self._stop_records[key] = self._record_stops(key[0], np.asarray(log_eps_list),
                                                         node_budget, False)
        return self._stop_records[key]

    def schedule_log_sums(self, s: float, log_eps_list, node_budget: int):
        rec = self._sstar_stops(s, log_eps_list, node_budget)
        sums = _bucket_log_sums(log_phi_from_logs(rec.logs, s) + rec.counts, rec.bucket,
                                rec.bounds, len(rec.complete))
        return sums, list(rec.complete), rec.nodes

    def level_log_sums(self, s: float, depths) -> list:
        """Log of the phi^s sum over all words at each depth of ``depths``;
        ValueError for a depth below 1, before anything is built."""
        depths = list(depths)
        if not depths:
            return []
        if min(depths) < 1:
            raise ValueError(f"depths must be >= 1, got {min(depths)}")
        return self._level_log_sums(s, depths)

    def cutset_groups(self, s: float, log_eps: float, node_budget: int):
        """One group per stopping edge, with its exact live-word count."""
        m = branch_index(s, self.d)
        rec = self._record_stops(m, np.array([log_eps]), node_budget, True)
        depths = np.repeat(rec.depth, np.diff(rec.bounds)).tolist()
        groups = [CutGroup(depth=t, count=c, log_count=math.log(c), log_phi=lph, log_alpha_m=la)
                  for t, c, lph, la in zip(depths, map(int, rec.counts),
                                           log_phi_from_logs(rec.logs, s).tolist(),
                                           rec.logs[m - 1].tolist())]
        return groups, not rec.complete[0], rec.nodes


class UniformEngine(_Engine):
    """Chain engine for schedules whose levels each hold one repeated map.

    The chain keeps one C-contiguous (d, T + 1) array of log singular
    values, column t for depth t (column 0 the root), and the exact word
    count and its log per depth.  ``_extend`` adds depths in blocks: the
    running product takes one matmul per depth, rescaled by its largest
    entry, and a block's singular values come from one ``sv2_batch`` call
    (d = 2, the smaller value from the log |det|) or one stacked SVD.
    """

    kind = "uniform"

    def __init__(self, spec: SystemSpec):
        super().__init__(spec)
        self._counts = [1]                 # exact word count per depth
        self._log_counts = np.zeros(1)     # and its log
        self._logs = np.zeros((self.d, 1))
        self._chain = np.eye(self.d)       # normalized running product
        self._log_scale = 0.0
        self._log_det = 0.0

    def _extend(self, t: int) -> None:
        """Compute depths T + 1..t in one block, or raise BudgetExceeded
        before computing any when t is past ``_MAX_CHAIN_DEPTH``."""
        T = len(self._counts) - 1
        if t <= T:
            return
        if t > _MAX_CHAIN_DEPTH:
            raise BudgetExceeded(f"chain depth exceeds {_MAX_CHAIN_DEPTH}")
        d, n, schedule = self.d, t - T, self.spec.schedule
        chains, log_scale, log_det = np.empty((n, d, d)), np.empty(n), np.empty(n)
        chain, ls, ld, count, counts = (self._chain, self._log_scale, self._log_det,
                                        self._counts[-1], [])
        for i, k in enumerate(range(T + 1, t + 1)):
            lvl = schedule.level(k)
            raw = chain @ lvl.maps[0].entries
            scale = max(map(abs, raw.ravel().tolist()))
            if scale <= 0.0:
                raise MoranDimError(f"level {k} map drives the chain product to zero")
            raw /= scale
            chains[i] = chain = raw
            ls += math.log(scale)
            ld += lvl.log_dets[0]
            log_scale[i], log_det[i] = ls, ld
            count *= lvl.branch_count
            counts.append(count)
        block = _stack_log_svs(chains, log_scale, log_det)
        self._chain, self._log_scale, self._log_det = chain, ls, ld
        self._counts += counts
        self._log_counts = np.concatenate([self._log_counts, [math.log(c) for c in counts]])
        self._logs = np.concatenate([self._logs, block], axis=1)

    def _widths(self):
        return itertools.repeat(1)

    def _record_stops(self, m: int, le: np.ndarray, node_budget: int, exact: bool) -> _Stops:
        """One group per epsilon: the chain's node at the first depth whose
        alpha_m is at most it.  The chain is not budgeted.

        The descending schedule's first depths are those of the running
        minimum of the stored alpha_m row; past the stored depths the row
        grows by blocks of its own size, from 8 up to 64 depths."""
        thr = le + _STOP_SNAP
        while thr.size and self._logs[m - 1, 1:].min(initial=math.inf) > thr[-1]:
            T = len(self._counts) - 1  # past the cap, _extend(T + 1) raises
            self._extend(max(T + 1, min(T + min(max(T, 8), 64), _MAX_CHAIN_DEPTH)))
        low = np.minimum.accumulate(self._logs[m - 1, 1:])
        depths = (np.searchsorted(-low, -thr) + 1).tolist()
        counts = [self._counts[t] for t in depths]
        return _Stops(list(range(len(le))), depths, list(range(len(le) + 1)),
                      self._logs.take(depths, axis=1),
                      counts if exact else self._log_counts.take(depths),
                      [True] * len(le), depths[-1] if depths else 1)

    def net_measure_series(self, s: float, windows, node_budget: int):
        """Net-measure log values for (k, K) windows; the chain is not budgeted.

        All words at a depth share one product, so the cheapest cover sits at
        one depth: the value is the least level sum over [k, K].
        """
        sums = self.level_log_sums(s, range(1, max(K for _, K in windows) + 1))
        return [min(sums[k - 1:K]) for k, K in windows]

    def _level_log_sums(self, s: float, depths: list) -> list:
        self._extend(max(depths))
        return (log_phi_from_logs(self._logs.take(depths, axis=1), s)
                + self._log_counts.take(depths)).tolist()


class _ClassTree(_Engine):
    """The traversals over a level tree of classes.

    A class is a set of same-depth words whose products share their
    singular values, and whose extensions by any one suffix again fall in
    one class: a word over the level's distinct maps on the generic walker,
    a choice-count vector on the composition lattice.  A subclass gives the
    budgeted nodes per depth (``_widths``), the per-depth (d, C_t) log
    singular values (``_levels``) and their log phi^s (``_log_phis``, one
    call per level unless the store overrides it), the log word count of
    each class (``_log_mults``), the children per class at a depth
    (``_arity``), a reader of their values (``_child_values(t, v)``: (lo,
    hi) to the (..., hi - lo, arity) values of the children of classes
    lo..hi - 1, over any leading axes), and a pruned walk.

    ``_walk(visit, m, log_stop, node_budget)`` walks the tree from the root,
    one level at a time, and keeps the children whose alpha_m lies above
    ``log_stop``.  Each level goes to ``visit(depth, logs, la, parent_la,
    count)``: the (d, E) log singular values of every child of every kept
    class, one column per edge, parent-major, ``_arity(depth)`` edges per
    parent; their log alpha_m; the kept parents' log alpha_m (+inf for the
    root); and the exact live word count of each edge, as int64 or as Python
    integers (the walker switches once a count could leave int64; the
    lattice always carries them).  A level costs what the subclass budgets
    for it, and one that would take the count past ``node_budget`` is not
    expanded.  Returns (max log alpha_m of the unexpanded frontier, nodes
    expanded); the walk was truncated exactly when that max is above -inf.
    ``_record_stops`` is the one pruned walk whose record ``_Engine`` replays.
    """

    def _record_stops(self, m: int, le: np.ndarray, node_budget: int, exact: bool) -> _Stops:
        """The pruned walk at branch index m down to the last epsilon of ``le``."""
        neg_le = -(le + _STOP_SNAP)  # increasing, for searchsorted
        bucket_of, depth_of, rows, counts = [], [], [], []

        def visit(depth, logs, la, parent_la, count):
            # bucket i can hold a node only if la.min() <= le[i] + snap < parent_la.max()
            lo = np.searchsorted(neg_le, -parent_la.max(), side="right")
            hi = np.searchsorted(neg_le, -la.min(), side="right")
            if lo >= hi:
                return
            pa = np.repeat(parent_la, self._arity(depth))
            for i in range(lo, hi):
                eps_i = le[i]
                # row indices: gathering by them is much cheaper than a 2-D boolean mask
                stop = np.flatnonzero((la <= eps_i + _STOP_SNAP) & (pa > eps_i + _STOP_SNAP))
                if stop.size:
                    bucket_of.append(i)
                    depth_of.append(depth)
                    rows.append(logs.take(stop, axis=1))
                    counts.append(count.take(stop) if exact else _log_counts(count.take(stop)))

        frontier_la, nodes = self._walk(visit, m, float(le[-1]), node_budget)
        return _Stops(bucket_of, depth_of, [0, *itertools.accumulate(len(c) for c in counts)],
                      np.concatenate(rows, axis=1) if rows else np.empty((self.d, 0)),
                      np.concatenate(counts) if rows else np.empty(0),
                      [frontier_la <= float(v) for v in le], nodes)

    def net_measure_series(self, s: float, windows, node_budget: int):
        """Net-measure log values for (k, K) windows, None for a window whose
        tree through K, root included, does not fit the budget.

        The tree is built to the deepest K that fits.  One sweep runs the
        min-recursion from the deepest K up to the shallowest k over a stack
        of one row per window: a window joins at its K, each depth folds
        every row's children with ``_log_row_sums``, and a window leaves at
        its k, where the DP would only add children together, so its value
        is the logsumexp of its depth-k row weighted by the classes' word
        counts.  Leaving rows are sliced off when they head the stack, as on
        the default schedules, whose deeper windows join and leave first.
        """
        horizon = self.max_depth_within(node_budget, max(K for _, K in windows))
        logphi = self._log_phis(horizon, s)  # logphi[t - 1]: per-class log phi^s at depth t
        out = [None] * len(windows)
        joins, leaves = {}, collections.Counter()
        for i, (k, K) in enumerate(windows):
            if K <= horizon:
                joins.setdefault(K, []).append((i, k))
                leaves[k] += 1
        if not joins:
            return out
        rows, v = [], None  # the stacked windows' (index, k), and their (rows, C_t) values
        for t in range(max(joins), min(leaves) - 1, -1):
            lph = logphi[t - 1]
            if rows:
                children = self._child_values(t, v)
                v = np.empty((len(rows), lph.size))

                def fold(lo, hi):
                    _log_row_sums(children(lo, hi), out=v[:, lo:hi])
                    np.minimum(lph[lo:hi], v[:, lo:hi], out=v[:, lo:hi])

                self._blocks(lph.size, fold)
            if t in joins:
                new = np.broadcast_to(lph, (len(joins[t]), lph.size))
                v = np.concatenate([v, new]) if rows else new
                rows += joins[t]
            if t in leaves:
                log_mults, n = self._log_mults(t), leaves[t]
                prefix = all(k == t for _, k in rows[:n])
                gone = range(n) if prefix else [j for j, (_, k) in enumerate(rows) if k == t]
                for j in gone:
                    out[rows[j][0]] = logsumexp(v[j] + log_mults)
                if prefix:
                    rows, v = rows[n:], v[n:]
                else:
                    left = [j for j, (_, k) in enumerate(rows) if k != t]
                    rows, v = [rows[j] for j in left], v[left]
        return out

    def _level_log_sums(self, s: float, depths: list) -> list:
        levels = self._levels(max(depths))
        return [logsumexp(self._log_phi(levels[t - 1], s) + self._log_mults(t)) for t in depths]

    def _log_phis(self, depth: int, s: float) -> list:
        """Per-class log phi^s at depths 1..depth, one array per depth."""
        return [self._log_phi(logs, s) for logs in self._levels(depth)]

    def _log_phi(self, logs: np.ndarray, s: float) -> np.ndarray:
        """Per-class log phi^s of (d, C) log singular values."""
        out = np.empty(logs.shape[1])

        def chunk(lo, hi):
            out[lo:hi] = log_phi_from_logs(logs[:, lo:hi], s)

        self._blocks(logs.shape[1], chunk)
        return out


def _composition_ranks(comps: np.ndarray):
    """Lexicographic ranks of (R, M) compositions of one total t, and how
    many compositions of t there are.

    Those before c agree with it up to some part i and are smaller there;
    with r_i of the total left for the p_i = M - i parts from i on, they
    number C(r_i + p_i - 1, p_i - 1) - C(r_i - c_i + p_i - 1, p_i - 1).
    """
    M = comps.shape[1]
    total = int(comps[0].sum())
    k = M - 1 - np.arange(M)                       # p_i - 1
    rem = total - np.cumsum(comps, axis=1) + comps  # r_i
    # binom[n, j] = C(n, j), column by column: C(n, j) sums C(m, j - 1) over m < n
    binom = np.ones((total + M, M), dtype=np.int64)
    for j in range(1, M):
        binom[0, j] = 0
        np.cumsum(binom[:-1, j - 1], out=binom[1:, j])
    rank = (binom[rem + k, k] - binom[rem - comps + k, k]).sum(axis=1)
    return rank, int(binom[total + M - 1, M - 1])


class DiagonalEngine(_ClassTree):
    """Composition-lattice level store for stationary families of diagonal maps.

    Diagonal maps commute per axis, so a word's product depends only on how
    many times each map was chosen: the classes are the count vectors, and
    class c's children are c + e_j.  The lattice is extended level by level
    on demand and cached independently of the exponent: per depth the (d,
    C_t) log singular values, the log multinomial word counts, and the
    (C_t, M) map from each class to its children's rows.  The levels' log
    singular values are column blocks of one C-contiguous array, and
    ``_levels`` hands out views of them, so a net-measure probe takes log
    phi^s of every level in one call (``_log_phis``).  Pruned walks carry
    exact integer live-word counts per class.
    """

    kind = "diagonal"

    def __init__(self, spec: SystemSpec):
        super().__init__(spec)
        lvl = spec.schedule.levels[0]
        self.n_maps = lvl.branch_count
        self.log_c = np.array(
            [[math.log(abs(m.entries[i, i])) for i in range(self.d)] for m in lvl.maps]
        )  # (M, d)
        self._comps = np.zeros((1, self.n_maps), dtype=np.int64)  # the deepest level's classes
        # every level's (d, C_t) log singular values side by side in one array
        # with spare columns: level t is columns bounds[t]:bounds[t + 1], and
        # _logs[t] a view of them
        self._flat, self._bounds = np.zeros((self.d, 1)), [0, 1]
        self._logs = [self._flat]
        self._log_mult = [np.zeros(1)]
        self._child_idx = []  # child_idx[t][i, j] = row of class i + e_j at depth t + 1
        self._log_fact = np.zeros(1)

    def _extend(self, t: int) -> None:
        while len(self._logs) <= t:
            cur, M = self._comps, self.n_maps
            children = np.repeat(cur, M, axis=0) + np.tile(np.eye(M, dtype=np.int64),
                                                           (cur.shape[0], 1))
            rank, width = _composition_ranks(children)
            nxt = np.empty((width, M), dtype=np.int64)
            nxt[rank] = children  # every class of the next level is some class's child
            a, b = self._bounds[-1], self._bounds[-1] + width
            if b > self._flat.shape[1]:  # double the columns: appends copy O(1) per column
                flat = np.empty((self.d, 2 * b))
                flat[:, :a] = self._flat[:, :a]
                self._flat = flat
                self._logs = [flat[:, lo:hi] for lo, hi in zip(self._bounds, self._bounds[1:])]
            self._flat[:, a:b] = -np.sort(-(nxt.astype(float) @ self.log_c), axis=1).T
            self._comps = nxt
            self._child_idx.append(rank.reshape(cur.shape[0], M))
            self._bounds.append(b)
            self._logs.append(self._flat[:, a:b])
            self._log_mult.append(self._log_multinomials(nxt))

    def child_rows(self, t: int) -> np.ndarray:
        self._extend(t + 1)
        return self._child_idx[t]

    def _log_multinomials(self, comps: np.ndarray) -> np.ndarray:
        t = int(comps[0].sum())
        if self._log_fact.size <= t:
            ln = np.concatenate([[0.0], np.log(np.arange(1, t + 1, dtype=float))])
            self._log_fact = np.cumsum(ln)
        return self._log_fact[t] - self._log_fact[comps].sum(axis=1)

    def _widths(self):
        t = 0
        while True:
            t += 1
            yield math.comb(t + self.n_maps - 1, self.n_maps - 1)

    def _arity(self, depth: int) -> int:
        return self.n_maps

    def _levels(self, depth: int) -> list:
        self._extend(depth)
        return self._logs[1:depth + 1]

    def _log_phis(self, depth: int, s: float) -> list:
        """Per-class log phi^s at depths 1..depth, from one pass over the store."""
        self._extend(depth)
        b = self._bounds
        flat = self._log_phi(self._flat[:, 1:b[depth + 1]], s)
        return [flat[lo - 1:hi - 1] for lo, hi in zip(b[1:depth + 1], b[2:depth + 2])]

    def _log_mults(self, t: int) -> np.ndarray:
        self._extend(t)
        return self._log_mult[t]

    def _child_values(self, t: int, v: np.ndarray):
        rows = self.child_rows(t)
        return lambda lo, hi: v.take(rows[lo:hi], axis=-1)

    def _walk(self, visit, m: int, log_stop: float, node_budget: float):
        """The pruned walk (see ``_ClassTree``): the kept children merge
        into their classes, adding up their parents' live word counts."""
        idx = np.zeros(1, dtype=np.intp)     # kept classes of the current depth
        count = np.ones(1, dtype=object)     # live words in each kept class
        parent_la = np.full(1, math.inf)     # the root never stops
        depth = nodes = 0
        while idx.size > 0:
            child = self.child_rows(depth)[idx].reshape(-1)
            mark = np.zeros(self._logs[depth + 1].shape[1], dtype=bool)
            mark[child] = True  # child rows are ranks below the level width
            classes = np.flatnonzero(mark)
            if nodes + classes.size > node_budget:
                return float(np.max(parent_la)), nodes
            inverse = np.cumsum(mark)[child] - 1
            depth += 1
            nodes += classes.size
            logs = self._logs[depth].take(child, axis=1)
            la = logs[m - 1]
            count = np.repeat(count, self.n_maps)  # per edge
            visit(depth, logs, la, parent_la, count)
            keep = la > log_stop + _STOP_SNAP
            merged = np.zeros(classes.size, dtype=object)
            np.add.at(merged, inverse[keep], count[keep])
            live = np.flatnonzero(merged)
            idx, count = classes[live], merged[live]
            parent_la = self._logs[depth][m - 1, idx]
        return -math.inf, nodes


def _merge_orbits(mults: collections.Counter, P: np.ndarray) -> collections.Counter:
    """``mults`` with each orbit of conjugation by P merged into its first
    map, which takes the orbit's summed multiplicity; ``mults`` must be
    closed under the conjugation."""
    out = collections.Counter(mults)
    for m in mults:
        if m in out:  # not merged into an earlier map's orbit
            image = Matrix(P @ m.entries @ P.T)
            while image != m:
                out[m] += out.pop(image)
                image = Matrix(P @ image.entries @ P.T)
    return out


def _find_quotient(spec: SystemSpec):
    """The symmetry ``GenericEngine`` quotients its tree by: (k, P) for a
    signed permutation matrix P whose conjugation M -> P M P^T maps every
    level's multiset of maps onto itself and moves some map, with k the
    first depth holding a map it moves; None when there is none, or when k
    would lie past ``_MAX_CHAIN_DEPTH``.  Only d = 2 and d = 3 are searched
    (4 and 24 candidates, as P and -P conjugate alike).

    Conjugation by P only moves and negates entries, so the tests are exact
    float comparisons, which count -0.0 equal to 0.0, on (n, d, d) arrays.
    Of several such P, the one leaving the fewest classes per distinct map
    at its depth k is taken, the first found on a tie.
    """
    d = spec.dim
    if not 2 <= d <= 3:
        return None
    mats = [np.stack([m.entries for m in lvl.maps]) for lvl in spec.schedule.levels]

    def sorted_rows(x):  # equal multisets of maps give equal arrays
        flat = x.reshape(len(x), -1)
        return flat[np.lexsort(flat.T[::-1])]

    canon = [sorted_rows(x) for x in mats]
    best, best_ratio = None, 1.0
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1.0, -1.0), repeat=d - 1):
            P = np.array((1.0, *signs))[:, None] * np.eye(d)[list(perm)]
            images = [P @ x @ P.T for x in mats]
            moved = {i for i, (x, y) in enumerate(zip(mats, images)) if not np.array_equal(x, y)}
            if not moved or not all(np.array_equal(sorted_rows(y), c)
                                    for y, c in zip(images, canon)):
                continue
            # past the chain's depth cap k is left unquotiented: no walk reaches it
            k = next((t for t in range(1, _MAX_CHAIN_DEPTH + 1)
                      if spec.schedule.level_index(t) in moved), None)
            if k is None:
                continue
            mults = collections.Counter(spec.level(k).maps)
            ratio = len(_merge_orbits(mults, P)) / len(mults)
            if ratio < best_ratio:
                best, best_ratio = (k, P), ratio
    return best


class GenericEngine(_ClassTree):
    """Budgeted vectorized level-by-level expansion for heterogeneous systems.

    A class is a word over each level's distinct maps (``_level_maps``):
    words that differ only in which copy of a repeated map they chose have
    equal products, and so do all their extensions.  A class stands for the
    product of its maps' multiplicities in words.  Node i's children sit at
    i*a .. i*a + a - 1 of the next level, for a level of a distinct maps.
    A level's unit-norm products are d^2 entry columns, (d, d, N), and its
    log singular values a (d, N) array.  The unpruned tree is expanded once
    per engine and its levels are kept (``_levels``); the pruned ``_walk``
    reads them.

    A symmetry of the maps merges classes further (``_find_quotient``, at
    construction).  Let P be a signed permutation matrix whose conjugation
    maps every level's multiset of maps onto itself, and k the first depth
    with a map B = P A P^T != A.  Every map above depth k commutes with P,
    and conjugation by P permutes each deeper level's multiset, so for every
    prefix u and suffix v, T_{uBv} = P T_{uAv'} P^T for the suffix v' of the
    conjugated maps.  P is orthogonal, so the subtree under uB has the
    singular values, word for word, of the subtree under uA, and depth k
    keeps one map per orbit with the orbit's summed multiplicity; phi^s
    depends only on singular values (Falconer 1988, Lemma 2.1).

    The budget counts words, not classes: ``_widths`` gives the words per
    depth, and a pruned walk pays the words its expanded classes stand for.
    So horizons, depth windows and truncation are those of the word tree,
    whatever a level repeats and whatever the quotient merges.
    """

    kind = "generic"

    def __init__(self, spec: SystemSpec):
        super().__init__(spec)
        self._level_cache = {}
        self._log_mult_cache = {}
        self._tree_logs = []  # unpruned levels kept across probes, see _levels
        self._quotient = _find_quotient(spec)

    def _level_maps(self, k: int):
        """Level k's distinct maps in first-occurrence order: their (a, d, d)
        matrices, log |det|s and int64 multiplicities.

        At the quotient depth (see the class docstring), the maps are one per
        orbit of the symmetry.  For d = 2 a mirrored subtree's level logs are
        bit for bit those of the subtree it mirrors when its maps' float
        determinants are their images' (as for example_5_3's shears): each
        product entry is a two-term sum taken in the other order, and
        ``sv2_batch`` is symmetric under the swap and the sign flips.  A
        fold of two equal columns gave x + log1p(1) = x + log 2, which the
        merged class now adds through its multiplicity, so only a sum over
        a row that holds other classes too can move, by an ulp: the
        stop-record replay, ``CutSet.log_sum`` and a net-measure window's
        last logsumexp.  For d = 3 the three-term sums change order, so
        values move by ulps.
        """
        if k not in self._level_cache:
            lvl = self.spec.level(k)
            mults = collections.Counter(lvl.maps)
            if self._quotient is not None and k == self._quotient[0]:
                mults = _merge_orbits(mults, self._quotient[1])
            mats = np.stack([m.entries for m in mults])
            log_det = dict(zip(lvl.maps[::-1], lvl.log_dets[::-1]))  # first occurrence wins
            logdets = np.array([log_det[m] for m in mults])
            self._level_cache[k] = (mats, logdets, np.array(list(mults.values()), dtype=np.int64))
        return self._level_cache[k]

    def _arity(self, depth: int) -> int:
        return self._level_maps(depth)[2].size

    def _expand(self, Q, log_scale, log_det, k: int):
        """Children of every node through level k's distinct maps, rescaled to
        unit norm, with their (d, N) descending log singular values.

        Q holds the N parents as (d, d, N) entry columns, and so do the
        children: entry (r, c) of child i*a + j is the multiply-add
        sum_k Q[r, k] * M_j[k, c], in k order.  Parents [lo, hi) make children
        [lo*a, hi*a), chunk by chunk (``_blocks``).
        """
        mats, logdets, _ = self._level_maps(k)
        a, d, N = mats.shape[0], self.d, Q.shape[-1]
        raw = np.empty((d, d, N * a))
        logs = np.empty((d, N * a))
        # for d <= 2 the log scale is the largest log singular value itself
        scale = logs[0] if d <= 2 else np.empty(N * a)
        det = np.empty(N * a)

        def chunk(lo, hi):
            kids = slice(lo * a, hi * a)
            cols = raw[..., kids]
            # one map at a time: a scalar times a parent column, written to
            # every a-th child column (a broadcast over the short map axis is
            # ten times slower)
            out = cols.reshape(d, d, hi - lo, a)
            term = np.empty(hi - lo)
            for j, M in enumerate(mats):
                for r in range(d):
                    for c in range(d):
                        np.multiply(Q[r, 0, lo:hi], M[0, c], out=out[r, c, :, j])
                        for k in range(1, d):
                            np.multiply(Q[r, k, lo:hi], M[k, c], out=term)
                            out[r, c, :, j] += term
            stack = np.moveaxis(cols, -1, 0)  # (B, d, d) view for the per-matrix kernels
            if d == 1:
                a1 = np.abs(cols[0, 0])
            elif d == 2:
                a1, _ = sv2_batch(stack)
            else:
                a1 = np.linalg.svd(stack, compute_uv=False)[:, 0]
            log_a1 = np.log(a1).reshape(-1, a)
            for j in range(a):
                np.add(log_scale[lo:hi], log_a1[:, j], out=scale[kids][j::a])
                np.add(log_det[lo:hi], logdets[j], out=det[kids][j::a])
            cols /= a1
            if d == 2:  # the smaller value from the log |det|, as in UniformEngine
                np.subtract(det[kids], scale[kids], out=logs[1, kids])
            elif d > 2:
                np.add(scale[kids], np.log(np.linalg.svd(stack, compute_uv=False)).T,
                       out=logs[:, kids])

        self._blocks(N, chunk)
        return raw, scale, det, logs

    def _products(self, idx, depth: int):
        """Unit-norm (d, d, N) product columns, log scales and log dets of the
        depth-``depth`` nodes ``idx`` (all of them when None), expanded from
        the root along their ancestors only."""
        wants = []  # the nodes wanted at depths depth, depth - 1, ..., 1
        for t in range(depth, 0, -1):
            wants.append(idx)
            if idx is not None:
                idx = np.unique(idx // self._arity(t))
        Q, log_scale, log_det = np.eye(self.d)[..., None], np.zeros(1), np.zeros(1)
        parents = np.zeros(1, dtype=np.intp)
        for t, want in enumerate(reversed(wants), start=1):
            Q, log_scale, log_det, _ = self._expand(Q, log_scale, log_det, t)
            if want is not None:
                a = self._arity(t)
                rows = np.searchsorted((parents[:, None] * a + np.arange(a)).reshape(-1), want)
                Q, log_scale, log_det = Q[..., rows], log_scale[rows], log_det[rows]
                parents = want
        return Q, log_scale, log_det

    def _walk(self, visit, m: int, log_stop: float, node_budget: float):
        """The pruned walk (see ``_ClassTree``) over classes, paying words.

        Levels the engine keeps (``_levels``) are read, not expanded: the walk
        carries the indices of its kept nodes into the level (None while the
        whole level is kept, which is then read as it is).  Past the kept
        levels it expands its own frontier, whose products it first
        re-expands from the root along the frontier's ancestors.  A level
        costs its parents' live words times its branch count.
        """
        kept = self._tree_logs
        idx = Q = None
        parent_la = np.full(1, math.inf)    # the root never stops
        count = np.ones(1, dtype=np.int64)  # live words in each kept class
        live = words = 1                    # live words, and all words, at this depth
        depth = nodes = 0
        while parent_la.size > 0:
            depth += 1
            n = self.spec.branch_count(depth)
            if nodes + live * n > node_budget:
                return float(np.max(parent_la)), nodes
            nodes += live * n
            words *= n
            mults = self._level_maps(depth)[2]
            a = mults.size
            # a count never exceeds the words at its depth; past int64, exact Python integers
            count = np.repeat(count, a).astype(np.int64 if words <= _INT64_MAX else object,
                                               copy=False)
            if a < n:  # the level repeats a map
                count *= np.tile(mults.astype(count.dtype), parent_la.size)
            if depth <= len(kept):
                logs = kept[depth - 1]
                if idx is not None:
                    idx = (idx[:, None] * a + np.arange(a)).reshape(-1)
                    logs = logs.take(idx, axis=1)
            else:
                if Q is None:
                    Q, log_scale, log_det = self._products(idx, depth - 1)
                Q, log_scale, log_det, logs = self._expand(Q, log_scale, log_det, depth)
            la = logs[m - 1]
            visit(depth, logs, la, parent_la, count)
            keep = la > log_stop + _STOP_SNAP
            if not keep.all():
                la, count = la[keep], count[keep]
                if Q is not None:
                    Q, log_scale, log_det = Q[..., keep], log_scale[keep], log_det[keep]
                else:
                    idx = np.nonzero(keep)[0] if idx is None else idx[keep]
            parent_la = la
            live = int(count.sum())
        return -math.inf, nodes

    def _widths(self):
        width, t = 1, 0
        while True:
            t += 1
            width *= self.spec.branch_count(t)
            yield width

    def _levels(self, depth: int) -> list:
        """Per-depth (d, N_t) log singular values of the unpruned class tree, depths 1..depth.

        The levels do not depend on s: they are expanded once per engine and
        sliced by later requests; a deeper request expands from the root again.
        """
        if depth > len(self._tree_logs):
            Q, log_scale, log_det = np.eye(self.d)[..., None], np.zeros(1), np.zeros(1)
            levels = []
            for t in range(1, depth + 1):
                Q, log_scale, log_det, logs = self._expand(Q, log_scale, log_det, t)
                levels.append(logs)
            self._tree_logs = levels
        return self._tree_logs[:depth]

    def _log_mults(self, t: int) -> np.ndarray:
        """Log word counts of the depth-t classes, kept per depth: they do
        not depend on s, and every probe asks for the same depths."""
        if t not in self._log_mult_cache:
            out = np.zeros(1)
            for j in range(1, t + 1):
                out = (out[:, None] + np.log(self._level_maps(j)[2])).reshape(-1)
            self._log_mult_cache[t] = out
        return self._log_mult_cache[t]

    def _child_values(self, t: int, v: np.ndarray):
        mults = self._level_maps(t + 1)[2]
        grouped = v.reshape(*v.shape[:-1], -1, mults.size)
        if mults.max() == 1:
            return lambda lo, hi: grouped[..., lo:hi, :]
        log_mults = np.log(mults)
        return lambda lo, hi: grouped[..., lo:hi, :] + log_mults


def make_engine(spec: SystemSpec):
    """Validate the system and pick the cheapest sound engine for it.

    Every engine the estimators and ``cutset`` use comes from here, so this
    is where a system is validated: a contraction or nonsingularity finding
    is raised, and ``engine.flags`` lists every finding as the
    ``severity:code`` strings that reports carry.
    """
    flags = []
    for finding in validate(spec):
        finding.raise_if_invariant()
        flags.append(f"{finding.severity}:{finding.code}")
    levels = spec.schedule.levels
    if all(lvl.maps_all_identical() for lvl in levels):
        engine = UniformEngine(spec)
    elif spec.schedule.kind == "constant" and levels[0].maps_all_diagonal():
        engine = DiagonalEngine(spec)
    else:
        engine = GenericEngine(spec)
    engine.flags = flags
    return engine


# ---------------------------------------------------------------------------
# Cut-sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutGroup:
    """A bundle of cut-set words sharing depth, product magnitudes, and cost."""

    depth: int
    count: int
    log_count: float
    log_phi: float
    log_alpha_m: float


@dataclass
class CutSet:
    """The stopping family for (s, epsilon) with per-group log costs."""

    spec: SystemSpec
    s: float
    m: int
    epsilon: float
    groups: list
    truncated: bool
    node_budget_used: int

    def word_count(self) -> int:
        return sum(g.count for g in self.groups)

    def log_sum(self) -> float:
        return logsumexp([g.log_count + g.log_phi for g in self.groups])

    def rows(self) -> tuple:
        """``cutset_rows`` of this cut-set: its words' digit lists in
        depth-first order, and their log phi^s.

        Raises BudgetExceeded at once when the cut-set was truncated by its
        node budget or holds more than ``_WORD_ENUM_CAP`` words.
        """
        if self.truncated:
            raise BudgetExceeded(
                f"cut-set truncated at {self.node_budget_used} nodes; no words to enumerate"
            )
        if self.word_count() > _WORD_ENUM_CAP:
            raise BudgetExceeded(f"cut-set enumeration exceeds {_WORD_ENUM_CAP} words")
        return cutset_rows(self.spec, self.s, self.epsilon)

    def entries(self) -> Iterator[tuple]:
        """``rows`` as the (Word, log_phi) pairs of ``iter_cutset_words``."""
        rows, log_phi = self.rows()
        return zip(map(Word, rows), log_phi)


def cutset_rows(spec: SystemSpec, s: float, epsilon: float) -> tuple:
    """The cut-set words and their log phi^s, found one depth at a time:
    ``(rows, log_phi)``, the words' digit lists and a list of floats.

    Independent of the engines: plain per-word products with rescaling.
    Each depth takes every live word's children in one batched product,
    rescales them by their largest entries and reads their singular values
    in one call; the words that stop are kept, the others carried on.  The
    words come out in depth-first order: a live word's stopped children in
    digit order, then the words below its live children, in digit order.
    Every live word has a cut-set word below it, so the walk raises
    BudgetExceeded as soon as its stopped and live words exceed
    ``_WORD_ENUM_CAP``, and NonsingularityViolated for a singular map
    before it takes any product.  Intended for dumps and small-system tests.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if s <= 0:
        raise ValueError("cut-sets need s > 0")
    for finding in validate(spec):
        if finding.code == "NonsingularityViolated":
            finding.raise_if_invariant()
    d = spec.dim
    m = branch_index(s, d)
    log_eps = math.log(epsilon)
    digit_type = np.min_scalar_type(max(lvl.branch_count for lvl in spec.schedule.levels))
    Q, log_scale, log_det = np.eye(d)[None], np.zeros(1), np.zeros(1)  # the live words' products
    digits = np.zeros((1, 0), dtype=digit_type)                        # and their digits
    stopped = []  # per depth: the stopped words' digits and log phi^s
    emitted = depth = 0
    while len(Q):
        depth += 1
        lvl = spec.level(depth)
        n = lvl.branch_count
        raw = (Q[:, None] @ np.stack([mat.entries for mat in lvl.maps])).reshape(-1, d, d)
        scale = np.abs(raw).max(axis=(1, 2))
        raw /= scale[:, None, None]
        # math.log element by element: np.log differs from it in the last bit on some inputs
        log_scale = np.repeat(log_scale, n) + np.fromiter(map(math.log, scale), float, len(scale))
        log_det = np.repeat(log_det, n) + np.tile(lvl.log_dets, len(Q))
        logs = _stack_log_svs(raw, log_scale, log_det)
        words = np.empty((len(raw), depth), dtype=digit_type)
        words[:, :-1] = np.repeat(digits, n, axis=0)
        words[:, -1] = np.tile(np.arange(1, n + 1, dtype=digit_type), len(Q))
        stop = logs[m - 1] <= log_eps + _STOP_SNAP
        idx, keep = np.flatnonzero(stop), np.flatnonzero(~stop)
        emitted += idx.size
        if emitted + keep.size > _WORD_ENUM_CAP:
            raise BudgetExceeded(f"cut-set enumeration exceeds {_WORD_ENUM_CAP} words")
        if idx.size:
            stopped.append((words[idx], log_phi_from_logs(logs[:, idx], s)))
        Q, log_scale, log_det, digits = raw[keep], log_scale[keep], log_det[keep], words[keep]
    # depth-first order: by the parent's digits, zero-padded (0 sorts before
    # every digit, so a word's stopped children come before the words below
    # its live ones), then by the last digit; the padding is only in the sort key
    key = np.concatenate([
        np.column_stack([w[:, :-1], np.zeros((len(w), depth - w.shape[1]), w.dtype), w[:, -1]])
        for w, _ in stopped])
    order = np.lexsort(key.T[::-1])
    rows = [row for w, _ in stopped for row in w.tolist()]
    log_phi = np.concatenate([v for _, v in stopped])
    return [rows[i] for i in order.tolist()], log_phi[order].tolist()


def iter_cutset_words(spec: SystemSpec, s: float, epsilon: float) -> Iterator[tuple]:
    """The cut-set words with their log costs: ``cutset_rows`` as (Word,
    log_phi) pairs, in the same depth-first order.  It raises what
    ``cutset_rows`` raises before the first pair.  ``cutset --out`` formats
    its dump rows from ``cutset_rows`` itself, in this order."""
    rows, log_phi = cutset_rows(spec, s, epsilon)
    yield from zip(map(Word, rows), log_phi)


def cutset(spec: SystemSpec, s: float, epsilon: float,
           node_budget: int = DEFAULT_NODE_BUDGET) -> CutSet:
    """Build the stopping family: descend while alpha_m > epsilon, emit the
    first word where it drops to <= epsilon (ties stop)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if s <= 0:
        raise ValueError("cut-sets need s > 0")
    if node_budget < 1:
        raise ValueError("node_budget must be >= 1")
    engine = make_engine(spec)
    m = branch_index(s, spec.dim)
    groups, truncated, nodes = engine.cutset_groups(s, math.log(epsilon), node_budget)
    return CutSet(
        spec=spec,
        s=float(s),
        m=m,
        epsilon=float(epsilon),
        groups=groups,
        truncated=truncated,
        node_budget_used=nodes,
    )


def cutset_sum(c: CutSet) -> float:
    """Sum of phi^s over the cut-set, by exact summation in a fixed order."""
    return math.fsum(math.exp(g.log_count + g.log_phi) for g in c.groups)
