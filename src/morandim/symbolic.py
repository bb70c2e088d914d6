"""Words, cylinder products, and cut-set construction over the level tree.

Three traversal engines back every tree quantity.  Each offers the same
four entry points: ``schedule_log_sums`` (cut-set sums over an epsilon
schedule), ``cutset_groups``, ``net_measure_series`` (the net-measure
dynamic program for a list of (k, K) depth windows, evaluated off one
pass) and ``level_log_sums`` (per-depth sums).

* ``UniformEngine``   — every level's maps are identical, so all words at a
  depth share one product; the tree collapses to a chain with multiplicities.
* ``DiagonalEngine``  — stationary diagonal families commute per axis, so
  words collapse to per-map choice counts with multinomial multiplicities.
* ``GenericEngine``   — vectorized level-by-level expansion with a node
  budget; the only engine that pays the exponential price.  All four
  entry points run one shared walk that expands the tree level by level,
  hands each level to a visitor, and keeps the children whose alpha_m lies
  above a stop value.

Equal-product aggregation is the central performance decision: the shipped
block fixtures have 9^k-size levels that reduce to O(1) work per depth.
All multiplicities are exact Python integers; all magnitudes live in the
log domain so depth-hundreds products stay finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np

from .errors import BudgetExceeded, MoranDimError
from .linalg import Matrix, SingularValues, mat_mul, singular_values, sv2_batch
from .svf import branch_index, log_phi_from_logs
from .system import SystemSpec

DEFAULT_NODE_BUDGET = 10_000_000
_MAX_CHAIN_DEPTH = 1_000_000
_WORD_ENUM_CAP = 200_000
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
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))

    def __len__(self):
        return len(self.digits)

    def __str__(self):
        return "-".join(str(d) for d in self.digits) if self.digits else "(empty)"


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
    m = float(np.max(arr))
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.sum(np.exp(arr - m))))


def _log_row_sums(grouped: np.ndarray) -> np.ndarray:
    """Row-wise logsumexp of an (N, n) array."""
    mx = grouped.max(axis=1)
    return mx + np.log(np.exp(grouped - mx[:, None]).sum(axis=1))


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------

class UniformEngine:
    """Chain engine for schedules whose levels each hold one repeated map."""

    kind = "uniform"

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.d = spec.dim
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
            if self.d == 1:
                logs = np.array([self._log_scale + math.log(abs(self._chain[0, 0]))])
                self._chain = np.eye(1)
                self._log_scale = logs[0]
            elif self.d == 2:
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

    def count_at(self, t: int) -> int:
        self._extend(t)
        return self._counts[t]

    def log_svs_at(self, t: int) -> np.ndarray:
        self._extend(t)
        return self._log_svs[t]

    def stop_depth(self, m: int, log_eps: float) -> int:
        t = 1
        while True:
            if self.log_svs_at(t)[m - 1] <= log_eps + _STOP_SNAP:
                return t
            t += 1

    def cutset_groups(self, s: float, log_eps: float, node_budget: int):
        m = branch_index(s, self.d)
        t = self.stop_depth(m, log_eps)
        count = self.count_at(t)
        grp = CutGroup(
            depth=t,
            count=count,
            log_count=math.log(count),
            log_phi=float(log_phi_from_logs(self.log_svs_at(t), s)),
            log_alpha_m=float(self.log_svs_at(t)[m - 1]),
            log_alpha_m_parent=float(self.log_svs_at(t - 1)[m - 1]),
        )
        return [grp], False, t

    def schedule_log_sums(self, s: float, log_eps_list, node_budget: int):
        m = branch_index(s, self.d)
        depths = []
        t = 1
        for le in log_eps_list:
            while self.log_svs_at(t)[m - 1] > le + _STOP_SNAP:
                t += 1
            depths.append(t)
        return self.level_log_sums(s, depths), [True] * len(depths), t

    def net_measure_series(self, s: float, windows, node_budget: int):
        """Net-measure values for (k, K) windows; the chain never truncates."""
        K_max = max(K for _, K in windows)
        self._extend(K_max)
        lph = log_phi_from_logs(np.stack(self._log_svs[: K_max + 1]), s).tolist()
        log_n = [0.0] + [math.log(self.spec.branch_count(t)) for t in range(1, K_max + 1)]
        out = []
        for k, K in windows:
            v = lph[K]
            for t in range(K - 1, -1, -1):
                child = log_n[t + 1] + v
                v = min(lph[t], child) if t >= k else child
            out.append((v, False))
        return out

    def level_log_sums(self, s: float, depths):
        return [
            math.log(self.count_at(t)) + float(log_phi_from_logs(self.log_svs_at(t), s))
            for t in depths
        ]


class DiagonalEngine:
    """Choice-count engine for stationary families of diagonal maps.

    Diagonal maps commute per axis, so a word reduces to how many times
    each map was chosen; per-axis log products are linear in those counts.
    The composition lattice (one row per count vector, per depth) is cached
    independently of the exponent, and every per-exponent pass is a
    vectorized sweep over it.  Multiplicities stay exact integers on the
    small cut-set path and live in the log domain on the schedule path.
    """

    kind = "diagonal"

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.d = spec.dim
        lvl = spec.schedule.levels[0]
        self.n_maps = lvl.branch_count
        self.log_c = np.array(
            [[math.log(abs(m.entries[i, i])) for i in range(self.d)] for m in lvl.maps]
        )  # (M, d)
        self._comps = [np.zeros((1, self.n_maps), dtype=np.int64)]
        self._child_idx = []  # child_idx[t][i, j] = row of comps[t][i]+e_j in comps[t+1]
        self._log_fact = np.zeros(1)

    # -- composition lattice -------------------------------------------------
    def _extend_lattice(self, t: int) -> None:
        while len(self._comps) <= t:
            cur = self._comps[-1]
            M = self.n_maps
            stacked = np.repeat(cur, M, axis=0)
            bump = np.tile(np.eye(M, dtype=np.int64), (cur.shape[0], 1))
            children = stacked + bump
            nxt, inverse = np.unique(children, axis=0, return_inverse=True)
            self._comps.append(nxt)
            self._child_idx.append(inverse.reshape(cur.shape[0], M))

    def comps_at(self, t: int) -> np.ndarray:
        self._extend_lattice(t)
        return self._comps[t]

    def child_rows(self, t: int) -> np.ndarray:
        self._extend_lattice(t + 1)
        return self._child_idx[t]

    def _log_svs_of(self, comps: np.ndarray) -> np.ndarray:
        """(C, d) descending log singular values for composition rows."""
        prods = comps.astype(float) @ self.log_c
        return -np.sort(-prods, axis=1)

    def _log_factorials(self, n: int) -> np.ndarray:
        if self._log_fact.size <= n:
            ln = np.concatenate([[0.0], np.log(np.arange(1, n + 1, dtype=float))])
            self._log_fact = np.cumsum(ln)
        return self._log_fact

    def _log_multinomials(self, comps: np.ndarray) -> np.ndarray:
        t = int(comps[0].sum())
        lf = self._log_factorials(t)
        return lf[t] - lf[comps].sum(axis=1)

    # -- cut-sets ------------------------------------------------------------
    def cutset_groups(self, s: float, log_eps: float, node_budget: int):
        m = branch_index(s, self.d)
        groups, truncated, nodes = [], False, 0
        frontier = {(0,) * self.n_maps: 1}  # comp -> exact alive word count
        depth = 0
        while frontier:
            depth += 1
            children = {}
            for comp in sorted(frontier):
                count = frontier[comp]
                parent_la = float(self._log_svs_of(np.asarray([comp]))[0, m - 1])
                for j in range(self.n_maps):
                    child = tuple(c + (1 if i == j else 0) for i, c in enumerate(comp))
                    logs = self._log_svs_of(np.asarray([child]))[0]
                    la = float(logs[m - 1])
                    if la <= log_eps + _STOP_SNAP:
                        groups.append(
                            CutGroup(
                                depth=depth,
                                count=count,
                                log_count=math.log(count),
                                log_phi=float(log_phi_from_logs(logs, s)),
                                log_alpha_m=la,
                                log_alpha_m_parent=parent_la,
                            )
                        )
                    else:
                        children[child] = children.get(child, 0) + count
            nodes += len(children)
            if nodes > node_budget:
                truncated = True
                break
            frontier = children
        return _merge_groups(groups), truncated, nodes

    def schedule_log_sums(self, s: float, log_eps_list, node_budget: int):
        m = branch_index(s, self.d)
        le = np.asarray(log_eps_list)   # decreasing
        neg_le = -(le + _STOP_SNAP)     # increasing, for searchsorted
        J = len(le)
        buckets = np.full(J, -math.inf)
        log_eps_min = float(le[-1])
        nodes = 0
        frontier_alpha_max = -math.inf  # stays -inf unless the budget cuts the walk

        t = 0
        alive = np.array([True])
        log_counts = np.zeros(1)
        parent_la = self._log_svs_of(self.comps_at(0))[:, m - 1]
        while alive.any():
            child_rows = self.child_rows(t)
            child_comps = self.comps_at(t + 1)
            child_logs = self._log_svs_of(child_comps)
            child_la = child_logs[:, m - 1]
            child_lph = np.asarray(log_phi_from_logs(child_logs, s))
            # edges from alive parents
            src = np.nonzero(alive)[0]
            rows = child_rows[src]                      # (A, M)
            e_parent_la = np.repeat(parent_la[src], self.n_maps)
            e_child = rows.reshape(-1)
            e_terms = np.repeat(log_counts[src], self.n_maps) + child_lph[e_child]
            e_child_la = child_la[e_child]
            i_lo = np.searchsorted(neg_le, -e_parent_la, side="right")
            i_hi = np.searchsorted(neg_le, -e_child_la, side="right")
            for b in range(J):
                mask = (i_lo <= b) & (b < i_hi)
                if mask.any():
                    buckets[b] = np.logaddexp(buckets[b], logsumexp(e_terms[mask]))
            # propagate alive mass to children
            cont = e_child_la > log_eps_min + _STOP_SNAP
            child_counts = np.full(child_comps.shape[0], -math.inf)
            np.logaddexp.at(child_counts, e_child[cont], e_terms[cont] - child_lph[e_child[cont]])
            alive = child_counts > -math.inf
            nodes += int(alive.sum())
            if nodes > node_budget and alive.any():
                frontier_alpha_max = float(child_la[alive].max())
                break
            log_counts = child_counts
            parent_la = child_la
            t += 1
        complete = [frontier_alpha_max <= float(l) for l in le]
        return [float(v) for v in buckets], complete, nodes

    # -- net measure and level sums -------------------------------------------
    def net_measure_series(self, s: float, windows, node_budget: int):
        """Net-measure values for (k, K) windows over the composition lattice.

        A window whose lattice states through depth K exceed the budget is
        None.
        """
        K_max = max(K for _, K in windows)
        states = np.cumsum([self.comps_at(t).shape[0] for t in range(K_max + 1)])
        lph = [np.asarray(log_phi_from_logs(self._log_svs_of(self.comps_at(t)), s))
               for t in range(K_max + 1)]
        out = []
        for k, K in windows:
            if states[K] > node_budget:
                out.append(None)
                continue
            v = lph[K]
            for t in range(K - 1, -1, -1):
                child = _log_row_sums(v[self.child_rows(t)])
                v = np.minimum(lph[t], child) if t >= k else child
            out.append((float(v[0]), False))
        return out

    def level_log_sums(self, s: float, depths):
        out = []
        for t in depths:
            comps = self.comps_at(t)
            logs = self._log_svs_of(comps)
            terms = self._log_multinomials(comps) + np.asarray(log_phi_from_logs(logs, s))
            out.append(logsumexp(terms))
        return out


class GenericEngine:
    """Budgeted vectorized level-by-level expansion for heterogeneous systems.

    Every traversal is one ``_walk`` with its own per-level visitor.
    """

    kind = "generic"

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.d = spec.dim
        self._level_cache = {}

    def _level_maps(self, k: int):
        if k not in self._level_cache:
            lvl = self.spec.level(k)
            mats = np.stack([m.entries for m in lvl.maps])
            logdets = np.array([math.log(abs(m.det())) for m in lvl.maps])
            self._level_cache[k] = (mats, logdets)
        return self._level_cache[k]

    def _expand(self, Q, log_scale, log_det, k: int):
        """Children of every node through level k's maps, rescaled to unit norm."""
        mats, logdets = self._level_maps(k)
        n = mats.shape[0]
        raw = np.einsum("nij,mjk->nmik", Q, mats).reshape(-1, self.d, self.d)
        log_det = np.repeat(log_det, n) + np.tile(logdets, Q.shape[0])
        if self.d == 1:
            a1 = np.abs(raw[:, 0, 0])
        elif self.d == 2:
            a1, _ = sv2_batch(raw)
        else:
            a1 = np.linalg.svd(raw, compute_uv=False)[:, 0]
        log_scale = np.repeat(log_scale, n) + np.log(a1)
        return raw / a1[:, None, None], log_scale, log_det

    def _log_svs(self, Q, log_scale, log_det) -> np.ndarray:
        """(N, d) descending log singular values of a level."""
        if self.d == 1:
            return log_scale[:, None]
        if self.d == 2:
            return np.stack([log_scale, log_det - log_scale], axis=1)
        return log_scale[:, None] + np.log(np.linalg.svd(Q, compute_uv=False))

    def _walk(self, visit, m: int = 1, log_stop: float = -math.inf,
              node_budget: float = math.inf, max_depth: float = math.inf):
        """Expand the tree from the root, one level at a time.

        Each level goes to ``visit(depth, logs, la, parent_la)``: its (N, d)
        log singular values, its log alpha_m, and the log alpha_m of the
        parents it was expanded from (one per parent).  Children with
        alpha_m above ``log_stop`` are kept; without a stop value the level
        is kept whole, uncopied.  A level that would take the count of
        expanded nodes past ``node_budget`` is not expanded.  Returns
        (truncated, max log alpha_m of the unexpanded frontier, nodes).
        """
        Q, log_scale, log_det = np.eye(self.d)[None], np.zeros(1), np.zeros(1)
        parent_la = np.zeros(1)
        depth = nodes = 0
        while Q.shape[0] > 0 and depth < max_depth:
            depth += 1
            if nodes + Q.shape[0] * self.spec.branch_count(depth) > node_budget:
                return True, float(np.max(parent_la)), nodes
            Q, log_scale, log_det = self._expand(Q, log_scale, log_det, depth)
            nodes += log_scale.size
            logs = self._log_svs(Q, log_scale, log_det)
            la = logs[:, m - 1]
            visit(depth, logs, la, parent_la)
            if log_stop > -math.inf:
                keep = la > log_stop + _STOP_SNAP
                Q, log_scale, log_det, la = Q[keep], log_scale[keep], log_det[keep], la[keep]
            parent_la = la
        return False, -math.inf, nodes

    def schedule_log_sums(self, s: float, log_eps_list, node_budget: int):
        m = branch_index(s, self.d)
        le = np.asarray(log_eps_list)
        buckets = [[] for _ in le]

        def visit(depth, logs, la, parent_la):
            pa = np.repeat(parent_la, self.spec.branch_count(depth))
            lph = log_phi_from_logs(logs, s)
            for i, eps_i in enumerate(le):
                mask = (la <= eps_i + _STOP_SNAP) & (pa > eps_i + _STOP_SNAP)
                if np.any(mask):
                    buckets[i].append(logsumexp(lph[mask]))

        _, frontier_la, nodes = self._walk(visit, m, float(le[-1]), node_budget)
        return [logsumexp(b) for b in buckets], [frontier_la <= float(l) for l in le], nodes

    def cutset_groups(self, s: float, log_eps: float, node_budget: int):
        m = branch_index(s, self.d)
        groups = []

        def visit(depth, logs, la, parent_la):
            pa = np.repeat(parent_la, self.spec.branch_count(depth))
            lph = log_phi_from_logs(logs, s)
            for i in np.nonzero(la <= log_eps + _STOP_SNAP)[0]:
                groups.append(CutGroup(depth=depth, count=1, log_count=0.0,
                                       log_phi=float(lph[i]), log_alpha_m=float(la[i]),
                                       log_alpha_m_parent=float(pa[i])))

        truncated, _, nodes = self._walk(visit, m, log_eps, node_budget)
        return groups, truncated, nodes

    def max_depth_within(self, node_budget: int, K_cap: int = 64) -> int:
        total, t = 1, 0
        width = 1
        while t < K_cap:
            width *= self.spec.level(t + 1).branch_count
            if total + width > node_budget:
                break
            total += width
            t += 1
        return max(t, 1)

    def net_measure_series(self, s: float, windows, node_budget: int):
        """Net-measure values for (k, K) windows off one tree expansion.

        The tree is expanded once, to the deepest horizon that fits the
        budget; a window whose min depth lies beyond it is None, and a
        window cut short or sharing a truncated expansion is flagged
        truncated.
        """
        logphi = []  # logphi[t - 1]: per-node log phi^s at depth t

        def visit(depth, logs, la, parent_la):
            logphi.append(np.asarray(log_phi_from_logs(logs, s), dtype=float).reshape(-1))

        # the root counts as one node of the budget
        truncated, _, _ = self._walk(visit, node_budget=node_budget - 1,
                                     max_depth=max(K for _, K in windows))
        out = []
        for k, K in windows:
            Kw = min(K, len(logphi))
            if Kw < k:
                out.append(None)
                continue
            v = logphi[Kw - 1]
            for t in range(Kw - 1, 0, -1):
                child = _log_row_sums(v.reshape(-1, self.spec.branch_count(t + 1)))
                v = np.minimum(logphi[t - 1], child) if t >= k else child
            out.append((logsumexp(v), truncated or Kw < K))
        return out

    def level_log_sums(self, s: float, depths):
        want = {int(t) for t in depths}
        out = {}

        def visit(depth, logs, la, parent_la):
            if depth in want:
                out[depth] = logsumexp(np.asarray(log_phi_from_logs(logs, s)).reshape(-1))

        self._walk(visit, max_depth=max(want))
        return [out[t] for t in depths]


def make_engine(spec: SystemSpec):
    """Pick the cheapest sound engine for this system."""
    levels = spec.schedule.distinct_levels()
    if all(lvl.maps_all_identical() for lvl in levels):
        return UniformEngine(spec)
    if spec.schedule.kind == "constant" and levels[0].maps_all_diagonal():
        return DiagonalEngine(spec)
    return GenericEngine(spec)


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
    log_alpha_m_parent: float


def _merge_groups(groups):
    merged = {}
    for g in groups:
        key = (g.depth, round(g.log_phi, 12), round(g.log_alpha_m, 12),
               round(g.log_alpha_m_parent, 12))
        if key in merged:
            cnt = merged[key].count + g.count
            g = replace(g, count=cnt, log_count=math.log(cnt))
        merged[key] = g
    return list(merged.values())


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

    def entries(self, max_words: int = _WORD_ENUM_CAP) -> Iterator[tuple]:
        """Enumerate (Word, log_phi) pairs via an independent recursive walk.

        Raises BudgetExceeded at once when the cut-set holds more than
        ``max_words`` words.
        """
        if self.word_count() > max_words:
            raise BudgetExceeded(f"cut-set enumeration exceeds {max_words} words")
        return iter_cutset_words(self.spec, self.s, self.epsilon, max_words)


def iter_cutset_words(spec: SystemSpec, s: float, epsilon: float,
                      max_words: int = _WORD_ENUM_CAP) -> Iterator[tuple]:
    """Depth-first enumeration of the cut-set words with their log costs.

    Independent of the engines: plain per-word products with rescaling.
    Intended for dumps and small-system tests; raises BudgetExceeded past
    ``max_words`` emitted words.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if s <= 0:
        raise ValueError("cut-sets need s > 0")
    d = spec.dim
    m = branch_index(s, d)
    log_eps = math.log(epsilon)
    emitted = 0

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
        depth = len(digits) + 1
        lvl = spec.level(depth)
        # push children in reverse so emission order is digit-ascending
        pending = []
        for j in range(1, lvl.branch_count + 1):
            mat = lvl.maps[j - 1]
            raw = Q @ mat.entries
            scale = float(np.max(np.abs(raw)))
            Q2 = raw / scale
            ls2 = log_scale + math.log(scale)
            ld2 = log_det + math.log(abs(mat.det()))
            logs = log_svs_of(Q2, ls2, ld2)
            if logs[m - 1] <= log_eps + _STOP_SNAP:
                emitted += 1
                if emitted > max_words:
                    raise BudgetExceeded(
                        f"cut-set enumeration exceeds {max_words} words"
                    )
                yield Word(digits + (j,)), float(log_phi_from_logs(logs, s))
            else:
                pending.append((digits + (j,), Q2, ls2, ld2))
        stack.extend(reversed(pending))


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
