"""Words, cylinder products, and cut-set construction over the level tree.

Every tree quantity has four entry points on each engine:
``schedule_log_sums`` (cut-set sums over an epsilon schedule),
``cutset_groups``, ``net_measure_series`` (the net-measure dynamic program
for a list of (k, K) depth windows, evaluated off one pass) and
``level_log_sums`` (per-depth sums).  ``_Engine`` replays the first two
from one stop record, which each level store writes with the other two:

* ``UniformEngine`` — every level's maps are identical, so all words at a
  depth share one product; the tree collapses to a chain with
  multiplicities, and its traversals are loops over its depths (its stop
  record is one node per epsilon).  A cover there sits at one depth, so a
  net-measure window [k, K] is the least of the level sums at depths k..K.
* ``_ClassTree`` — the traversals over a level tree of classes, for two
  level stores.  ``DiagonalEngine`` is the composition lattice of a
  stationary diagonal family: diagonal maps commute, so a class is a
  per-map choice count with a multinomial word count.  ``GenericEngine``
  has one class per word over each level's distinct maps, whose word count
  is the product of its maps' multiplicities; it is the only store that
  pays the exponential price.  Its unpruned levels do not depend on s, so
  they are expanded once per engine and reused by every probe; the pruned
  walks read them through the indices of their surviving nodes and expand
  only past them.

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
schedule, budget) and every probe replays that record, with the same bits a
fresh walk would give; ``cutset_groups`` replays an exact-count record.

The class tree's net-measure DP evaluates all the windows of a call in one
sweep from the deepest horizon up, over a stack with one row per window.
Each depth reduces every row's children with ``_log_row_sums``, a fold of
``np.logaddexp`` over the children's columns; a window joins the stack at
its horizon and leaves it at its min depth, where its row is summed
weighted by the word counts.

``iter_cutset_words`` lists the cut-set words themselves, independently of
the engines, from plain products taken one depth at a time.

Equal-product aggregation is the central performance decision: the shipped
block fixtures have 9^k-size levels that reduce to O(1) work per depth.
All multiplicities are exact integers; all magnitudes live in the log
domain so depth-hundreds products stay finite.
"""
from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field
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


def common_prefix(u: Word, v: Word) -> Word:
    """Longest shared initial word of u and v."""
    out = []
    for a, b in zip(u.digits, v.digits):
        if a != b:
            break
        out.append(a)
    return Word(tuple(out))


@dataclass
class ProductNode:
    """Cached left-to-right product T_u with its singular values."""

    word: Word
    product: Matrix
    sv: SingularValues
    log_phi_cache: dict = field(default_factory=dict)

    def log_phi(self, s: float) -> float:
        key = float(s)
        if key not in self.log_phi_cache:
            self.log_phi_cache[key] = float(
                log_phi_from_logs(np.array(self.sv.log_values), key)
            )
        return self.log_phi_cache[key]


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


def _log_row_sums(grouped: np.ndarray) -> np.ndarray:
    """Logsumexp over the last axis of an (..., n) array, as a fresh (...) array.

    Folds ``np.logaddexp`` over the n columns: the first pair allocates the
    result and every later column is added into it in place.
    """
    n = grouped.shape[-1]
    if n == 1:
        return grouped[..., 0].copy()
    out = np.logaddexp(grouped[..., 0], grouped[..., 1])
    for j in range(2, n):
        np.logaddexp(out, grouped[..., j], out=out)
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
    logs: np.ndarray    # (rows, d) log singular values of the stopping edges
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
    budget); ``cutset_groups`` replays a fresh one in exact mode, with the
    exact counts.
    """

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.d = spec.dim
        self._stop_records = {}  # (m, log eps schedule, node_budget) -> the s* _Stops

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
        terms = log_phi_from_logs(rec.logs, s) + rec.counts
        buckets = [[] for _ in rec.complete]
        for i, a, b in zip(rec.bucket, rec.bounds, rec.bounds[1:]):
            buckets[i].append(logsumexp(terms[a:b]))
        return [logsumexp(b) for b in buckets], list(rec.complete), rec.nodes

    def cutset_groups(self, s: float, log_eps: float, node_budget: int):
        """One group per stopping edge, with its exact live-word count."""
        m = branch_index(s, self.d)
        rec = self._record_stops(m, np.array([log_eps]), node_budget, True)
        depths = np.repeat(rec.depth, np.diff(rec.bounds)).tolist()
        groups = [CutGroup(depth=t, count=c, log_count=math.log(c), log_phi=lph, log_alpha_m=la)
                  for t, c, lph, la in zip(depths, map(int, rec.counts),
                                           log_phi_from_logs(rec.logs, s).tolist(),
                                           rec.logs[:, m - 1].tolist())]
        return groups, not rec.complete[0], rec.nodes


class UniformEngine(_Engine):
    """Chain engine for schedules whose levels each hold one repeated map."""

    kind = "uniform"

    def __init__(self, spec: SystemSpec):
        super().__init__(spec)
        self._counts = [1]            # exact word count per depth
        self._log_svs = [np.zeros(self.d)]
        self._chain = np.eye(self.d)  # normalized running product
        self._log_scale = 0.0
        self._log_det = 0.0

    def _extend(self, t: int) -> None:
        while len(self._counts) <= t:
            k = len(self._counts)
            lvl = self.spec.level(k)
            mat = lvl.maps[0].entries
            raw = self._chain @ mat
            scale = float(np.max(np.abs(raw)))
            if scale <= 0.0:
                raise MoranDimError(f"level {k} map drives the chain product to zero")
            self._chain = raw / scale
            self._log_scale += math.log(scale)
            self._log_det += math.log(abs(lvl.maps[0].det()))
            if self.d == 2:
                s1, _ = sv2_batch(self._chain[None])
                l1 = self._log_scale + math.log(float(s1[0]))
                logs = np.array([l1, self._log_det - l1])
            else:
                vals = np.linalg.svd(self._chain, compute_uv=False)
                logs = self._log_scale + np.log(vals)
            self._counts.append(self._counts[-1] * lvl.branch_count)
            self._log_svs.append(logs)
            if k > _MAX_CHAIN_DEPTH:
                raise BudgetExceeded(f"chain depth exceeds {_MAX_CHAIN_DEPTH}")

    def log_svs_at(self, t: int) -> np.ndarray:
        self._extend(t)
        return self._log_svs[t]

    def _widths(self):
        return itertools.repeat(1)

    def _record_stops(self, m: int, le: np.ndarray, node_budget: int, exact: bool) -> _Stops:
        """One group per epsilon: the chain's node at the first depth whose
        alpha_m is at most it.  The chain is not budgeted."""
        depths, t = [], 1
        for v in le:
            while self.log_svs_at(t)[m - 1] > v + _STOP_SNAP:
                t += 1
            depths.append(t)
        counts = [self._counts[t] for t in depths]
        return _Stops(list(range(len(le))), depths, list(range(len(le) + 1)),
                      np.stack([self._log_svs[t] for t in depths]),
                      counts if exact else np.array([math.log(c) for c in counts]),
                      [True] * len(le), t)

    def schedule_log_sums(self, s: float, log_eps_list, node_budget: int):
        """The s* replay as the level sums at the recorded depths."""
        rec = self._sstar_stops(s, log_eps_list, node_budget)
        return self.level_log_sums(s, rec.depth), list(rec.complete), rec.nodes

    def net_measure_series(self, s: float, windows, node_budget: int):
        """Net-measure log values for (k, K) windows; the chain is not budgeted.

        All words at a depth share one product, so the cheapest cover sits at
        one depth: the value is the least level sum over [k, K].
        """
        sums = self.level_log_sums(s, range(1, max(K for _, K in windows) + 1))
        return [min(sums[k - 1:K]) for k, K in windows]

    def level_log_sums(self, s: float, depths):
        self._extend(max(depths))
        lph = log_phi_from_logs(np.stack([self._log_svs[t] for t in depths]), s).tolist()
        return [math.log(self._counts[t]) + v for t, v in zip(depths, lph)]


class _ClassTree(_Engine):
    """The traversals over a level tree of classes.

    A class is a set of same-depth words whose products share their
    singular values, and whose extensions by any one suffix again fall in
    one class: a word over the level's distinct maps on the generic walker,
    a choice-count vector on the composition lattice.  A subclass gives the
    budgeted nodes per depth (``_widths``), the per-depth (C_t, d) log
    singular values (``_levels``), the log word count of each class
    (``_log_mults``), the children per class at a depth (``_arity``) and
    their values (``_child_values``, over any leading axes), and a pruned
    walk.

    ``_walk(visit, m, log_stop, node_budget)`` walks the tree from the root,
    one level at a time, and keeps the children whose alpha_m lies above
    ``log_stop``.  Each level goes to ``visit(depth, logs, la, parent_la,
    count)``: the (E, d) log singular values of every child of every kept
    class, one row per edge, parent-major, ``_arity(depth)`` edges per
    parent; their log alpha_m; the kept parents' log alpha_m (+inf for the
    root); and the exact live word count of each edge, as int64 or as Python
    integers (the walker switches once a count could leave int64; the
    lattice always carries them).  A level costs what the subclass budgets
    for it, and one that would take the count past ``node_budget`` is not
    expanded.  Returns (truncated, max log alpha_m of the unexpanded
    frontier, nodes expanded).

    ``_record_stops`` is the one pruned walk whose record both cut-set
    quantities replay (see ``_Engine``).
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
            weight = count if exact else _log_counts(count)
            for i in range(lo, hi):
                eps_i = le[i]
                # row indices: gathering by them is much cheaper than a 2-D boolean mask
                stop = np.flatnonzero((la <= eps_i + _STOP_SNAP) & (pa > eps_i + _STOP_SNAP))
                if stop.size:
                    bucket_of.append(i)
                    depth_of.append(depth)
                    rows.append(logs.take(stop, axis=0))
                    counts.append(weight.take(stop))

        _, frontier_la, nodes = self._walk(visit, m, float(le[-1]), node_budget)
        return _Stops(bucket_of, depth_of, [0, *itertools.accumulate(len(c) for c in counts)],
                      np.concatenate(rows) if rows else np.empty((0, self.d)),
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
        counts.
        """
        horizon = self.max_depth_within(node_budget, max(K for _, K in windows))
        logphi = [np.asarray(log_phi_from_logs(logs, s), dtype=float).reshape(-1)
                  for logs in self._levels(horizon)]  # logphi[t - 1]: per-class log phi^s at depth t
        out = [None] * len(windows)
        fits = [(i, k, K) for i, (k, K) in enumerate(windows) if K <= horizon]
        if not fits:
            return out
        rows, v = [], None  # the stacked windows' (index, k), and their (rows, C_t) values
        for t in range(max(K for _, _, K in fits), min(k for _, k, _ in fits) - 1, -1):
            if rows:
                v = _log_row_sums(self._child_values(t, v))
                np.minimum(logphi[t - 1], v, out=v)
            joining = [(i, k) for i, k, K in fits if K == t]
            if joining:
                new = np.broadcast_to(logphi[t - 1], (len(joining), logphi[t - 1].size))
                v = np.concatenate([v, new]) if rows else new
                rows += joining
            if any(k == t for _, k in rows):
                log_mults = self._log_mults(t)
                for (i, k), row in zip(rows, v):
                    if k == t:
                        out[i] = logsumexp(row + log_mults)
                left = [j for j, (_, k) in enumerate(rows) if k != t]
                rows, v = [rows[j] for j in left], v[left]
        return out

    def level_log_sums(self, s: float, depths):
        levels = self._levels(max(depths))
        out = []
        for t in depths:
            terms = np.asarray(log_phi_from_logs(levels[t - 1], s)).reshape(-1)
            out.append(logsumexp(terms + self._log_mults(t)))
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
    on demand and cached independently of the exponent: per depth the (C_t,
    d) log singular values, the log multinomial word counts, and the
    (C_t, M) map from each class to its children's rows.  Pruned walks carry
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
        self._logs = [np.zeros((1, self.d))]
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
            self._comps = nxt
            self._child_idx.append(rank.reshape(cur.shape[0], M))
            self._logs.append(-np.sort(-(nxt.astype(float) @ self.log_c), axis=1))
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

    def _log_mults(self, t: int) -> np.ndarray:
        self._extend(t)
        return self._log_mult[t]

    def _child_values(self, t: int, v: np.ndarray) -> np.ndarray:
        return v[..., self.child_rows(t)]

    def _walk(self, visit, m: int, log_stop: float, node_budget: float):
        """The pruned walk (see ``_ClassTree``): the kept children merge
        into their classes, adding up their parents' live word counts."""
        idx = np.zeros(1, dtype=np.intp)     # kept classes of the current depth
        count = np.ones(1, dtype=object)     # live words in each kept class
        parent_la = np.full(1, math.inf)     # the root never stops
        depth = nodes = 0
        while idx.size > 0:
            child = self.child_rows(depth)[idx].reshape(-1)
            mark = np.zeros(len(self._logs[depth + 1]), dtype=bool)
            mark[child] = True  # child rows are ranks below the level width
            classes = np.flatnonzero(mark)
            if nodes + classes.size > node_budget:
                return True, float(np.max(parent_la)), nodes
            inverse = np.cumsum(mark)[child] - 1
            depth += 1
            nodes += classes.size
            logs = self._logs[depth][child]
            la = logs[:, m - 1]
            count = np.repeat(count, self.n_maps)  # per edge
            visit(depth, logs, la, parent_la, count)
            keep = la > log_stop + _STOP_SNAP
            merged = np.zeros(classes.size, dtype=object)
            np.add.at(merged, inverse[keep], count[keep])
            live = np.flatnonzero(merged)
            idx, count = classes[live], merged[live]
            parent_la = self._logs[depth][idx, m - 1]
        return False, -math.inf, nodes


class GenericEngine(_ClassTree):
    """Budgeted vectorized level-by-level expansion for heterogeneous systems.

    A class is a word over each level's distinct maps (``_level_maps``):
    words that differ only in which copy of a repeated map they chose have
    equal products, and so do all their extensions.  A class stands for the
    product of its maps' multiplicities in words.  Node i's children sit at
    i*a .. i*a + a - 1 of the next level, for a level of a distinct maps.
    The unpruned tree is expanded once per engine and its levels are kept
    (``_levels``); the pruned ``_walk`` reads them.

    The budget counts words, not classes: ``_widths`` gives the words per
    depth, and a pruned walk pays the words its expanded classes stand for.
    So horizons, depth windows and truncation are those of the word tree,
    whatever a level repeats.
    """

    kind = "generic"

    def __init__(self, spec: SystemSpec):
        super().__init__(spec)
        self._level_cache = {}
        self._tree_logs = []  # unpruned levels kept across probes, see _levels

    def _level_maps(self, k: int):
        """Level k's distinct maps in first-occurrence order: their (a, d, d)
        matrices, log |det|s and int64 multiplicities."""
        if k not in self._level_cache:
            mults = collections.Counter(self.spec.level(k).maps)
            mats = np.stack([m.entries for m in mults])
            logdets = np.array([math.log(abs(m.det())) for m in mults])
            self._level_cache[k] = (mats, logdets, np.array(list(mults.values()), dtype=np.int64))
        return self._level_cache[k]

    def _arity(self, depth: int) -> int:
        return self._level_maps(depth)[2].size

    def _expand(self, Q, log_scale, log_det, k: int):
        """Children of every node through level k's distinct maps, rescaled to unit norm."""
        mats, logdets, _ = self._level_maps(k)
        n, d, N = mats.shape[0], self.d, Q.shape[0]
        # one (N*d, d) @ (d, n*d) product: every row of every Q times the maps side by side
        side = mats.transpose(1, 0, 2).reshape(d, n * d)
        raw = (Q.reshape(-1, d) @ side).reshape(N, d, n, d).transpose(0, 2, 1, 3).reshape(-1, d, d)
        log_det = np.repeat(log_det, n) + np.tile(logdets, N)
        if d == 1:
            a1 = np.abs(raw[:, 0, 0])
        elif d == 2:
            a1, _ = sv2_batch(raw)
        else:
            a1 = np.linalg.svd(raw, compute_uv=False)[:, 0]
        log_scale = np.repeat(log_scale, n) + np.log(a1)
        raw /= a1[:, None, None]
        return raw, log_scale, log_det

    def _log_svs(self, Q, log_scale, log_det) -> np.ndarray:
        """(N, d) descending log singular values of a level."""
        if self.d == 1:
            return log_scale[:, None]
        if self.d == 2:
            return np.stack([log_scale, log_det - log_scale], axis=1)
        return log_scale[:, None] + np.log(np.linalg.svd(Q, compute_uv=False))

    def _products(self, idx, depth: int):
        """Unit-norm products, log scales and log dets of the depth-``depth``
        nodes ``idx`` (all of them when None), expanded from the root along
        their ancestors only."""
        wants = []  # the nodes wanted at depths depth, depth - 1, ..., 1
        for t in range(depth, 0, -1):
            wants.append(idx)
            if idx is not None:
                idx = np.unique(idx // self._arity(t))
        Q, log_scale, log_det = np.eye(self.d)[None], np.zeros(1), np.zeros(1)
        parents = np.zeros(1, dtype=np.intp)
        for t, want in enumerate(reversed(wants), start=1):
            Q, log_scale, log_det = self._expand(Q, log_scale, log_det, t)
            if want is not None:
                a = self._arity(t)
                rows = np.searchsorted((parents[:, None] * a + np.arange(a)).reshape(-1), want)
                Q, log_scale, log_det = Q[rows], log_scale[rows], log_det[rows]
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
                return True, float(np.max(parent_la)), nodes
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
                    logs = np.take(logs, idx, axis=0)
            else:
                if Q is None:
                    Q, log_scale, log_det = self._products(idx, depth - 1)
                Q, log_scale, log_det = self._expand(Q, log_scale, log_det, depth)
                logs = self._log_svs(Q, log_scale, log_det)
            la = logs[:, m - 1]
            visit(depth, logs, la, parent_la, count)
            keep = la > log_stop + _STOP_SNAP
            if not keep.all():
                la, count = la[keep], count[keep]
                if Q is not None:
                    Q, log_scale, log_det = Q[keep], log_scale[keep], log_det[keep]
                else:
                    idx = np.nonzero(keep)[0] if idx is None else idx[keep]
            parent_la = la
            live = int(count.sum())
        return False, -math.inf, nodes

    def _widths(self):
        width, t = 1, 0
        while True:
            t += 1
            width *= self.spec.branch_count(t)
            yield width

    def _levels(self, depth: int) -> list:
        """Per-depth (N_t, d) log singular values of the unpruned class tree, depths 1..depth.

        The levels do not depend on s: they are expanded once per engine and
        sliced by later requests; a deeper request expands from the root again.
        """
        if depth > len(self._tree_logs):
            Q, log_scale, log_det = np.eye(self.d)[None], np.zeros(1), np.zeros(1)
            levels = []
            for t in range(1, depth + 1):
                Q, log_scale, log_det = self._expand(Q, log_scale, log_det, t)
                levels.append(self._log_svs(Q, log_scale, log_det))
            self._tree_logs = levels
        return self._tree_logs[:depth]

    def _log_mults(self, t: int) -> np.ndarray:
        out = np.zeros(1)
        for j in range(1, t + 1):
            out = (out[:, None] + np.log(self._level_maps(j)[2])).reshape(-1)
        return out

    def _child_values(self, t: int, v: np.ndarray) -> np.ndarray:
        mults = self._level_maps(t + 1)[2]
        grouped = v.reshape(*v.shape[:-1], -1, mults.size)
        return grouped + np.log(mults) if mults.max() > 1 else grouped


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

    def entries(self) -> Iterator[tuple]:
        """Enumerate (Word, log_phi) pairs via an independent recursive walk.

        Raises BudgetExceeded at once when the cut-set was truncated by its
        node budget or holds more than ``_WORD_ENUM_CAP`` words.
        """
        if self.truncated:
            raise BudgetExceeded(
                f"cut-set truncated at {self.node_budget_used} nodes; no words to enumerate"
            )
        if self.word_count() > _WORD_ENUM_CAP:
            raise BudgetExceeded(f"cut-set enumeration exceeds {_WORD_ENUM_CAP} words")
        return iter_cutset_words(self.spec, self.s, self.epsilon)


def iter_cutset_words(spec: SystemSpec, s: float, epsilon: float) -> Iterator[tuple]:
    """The cut-set words with their log costs, found one depth at a time.

    Independent of the engines: plain per-word products with rescaling.
    Each depth takes every live word's children in one batched product,
    rescales them by their largest entries and reads their singular values
    in one call; the words that stop are kept, the others carried on.  The
    words come out in depth-first order: a live word's stopped children in
    digit order, then the words below its live children, in digit order.
    Every live word has a cut-set word below it, so the walk raises
    BudgetExceeded as soon as its stopped and live words exceed
    ``_WORD_ENUM_CAP``, before the first word is yielded.  Intended for
    dumps and small-system tests.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if s <= 0:
        raise ValueError("cut-sets need s > 0")
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
        log_det = np.repeat(log_det, n) + np.tile([math.log(abs(mat.det())) for mat in lvl.maps],
                                                  len(Q))
        if d <= 2:
            a1 = np.abs(raw[:, 0, 0]) if d == 1 else sv2_batch(raw)[0]
            l1 = log_scale + np.fromiter(map(math.log, a1), float, len(a1))
            logs = l1[:, None] if d == 1 else np.stack([l1, log_det - l1], axis=1)
        else:
            logs = log_scale[:, None] + np.log(np.linalg.svd(raw, compute_uv=False))
        words = np.empty((len(raw), depth), dtype=digit_type)
        words[:, :-1] = np.repeat(digits, n, axis=0)
        words[:, -1] = np.tile(np.arange(1, n + 1, dtype=digit_type), len(Q))
        stop = logs[:, m - 1] <= log_eps + _STOP_SNAP
        idx, keep = np.flatnonzero(stop), np.flatnonzero(~stop)
        emitted += idx.size
        if emitted + keep.size > _WORD_ENUM_CAP:
            raise BudgetExceeded(f"cut-set enumeration exceeds {_WORD_ENUM_CAP} words")
        if idx.size:
            stopped.append((words[idx], log_phi_from_logs(logs[idx], s)))
        Q, log_scale, log_det, digits = raw[keep], log_scale[keep], log_det[keep], words[keep]
    # depth-first order: by the parent's digits, zero-padded (0 sorts before
    # every digit, so a word's stopped children come before the words below
    # its live ones), then by the last digit; the padding is dropped on the way out
    key = np.concatenate([
        np.column_stack([w[:, :-1], np.zeros((len(w), depth - w.shape[1]), w.dtype), w[:, -1]])
        for w, _ in stopped])
    lph = np.concatenate([v for _, v in stopped])
    for i in np.lexsort(key.T[::-1]):
        row = key[i].tolist()
        yield Word((*filter(None, row[:-1]), row[-1])), float(lph[i])


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
