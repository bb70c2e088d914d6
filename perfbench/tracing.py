"""Per-layer spans and counts, recorded from outside the program.

The tracer patches names where the program looks them up (module
attributes and engine instances) and leaves the package source untouched.
Two kinds of timer exist:

* spans, kept with their interval and parent, for calls that contain other
  traced calls (the CLI entry, estimators, engine traversals, parsing);
* leaf timers, kept as per-name totals, for small hot calls that contain no
  span (``sv2_batch``, ``log_phi_from_logs``, ``box_count``, the cut-set
  word walk).  A leaf adds its duration to the enclosing span, so self time
  stays exact without one record per call.

Parents are tracked per thread.  A span opened on a thread with no open span
(the ``cmd_dims`` pool threads) takes the running ``cli.main`` span as its
parent, so ``cli.self_s`` excludes estimator time.  Two pool threads run at
once on ``dims`` jobs, so layer sums can exceed the pass's wall time.
"""
from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

ENGINE_METHODS = {
    "schedule_log_sums": "symbolic.schedule_sums",
    "net_measure_log": "symbolic.net_measure",
    "net_measure_series": "symbolic.net_measure",
    "level_log_sums": "symbolic.level_sums",
    "cutset_groups": "symbolic.cutset_groups",
}

ESTIMATORS = {
    "estimate_sstar": "dims.estimate_sstar",
    "estimate_sA": "dims.estimate_sA",
    "pressure_root": "dims.pressure_root",
    "moran_dims": "dims.moran_dims",
}

# Names ``morandim.cli`` imports, with the span each call is recorded under.
CLI_IMPORTS = {
    "fixture_document": "system.parse",
    "parse_structure": "system.parse",
    "validate": "system.validate",
    "cutset": "symbolic.cutset",
    "sample_cloud": "attractor.sample",
    "default_scales": "attractor.fit",
    "select_scales": "attractor.fit",
    "boxdim_fit": "attractor.fit",
    "render": "attractor.render",
    "write_pgm": "attractor.render",
    **ESTIMATORS,
}


class Tracer:
    """Spans, leaf totals and counters for one worker process."""

    def __init__(self):
        self.spans = []  # [name, t0, t1, parent index or None, leaf seconds]
        self.leaf_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(int))  # job index -> name -> n
        self.missing = []
        self.box_keys = set()
        self.engine_methods_seen = set()
        self.job = 0
        self._root = None
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.in_leaf = False
        return self._local.stack

    def _open(self, name):
        st = self._stack()
        with self._lock:
            idx = len(self.spans)
            parent = st[-1] if st else self._root
            self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        st.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name, n=1):
        with self._lock:
            self.counts[self.job][name] += n

    def span(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                self.count(counter)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def leaf(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._stack()
            outer = not self._local.in_leaf
            self._local.in_leaf = True
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._local.in_leaf = not outer
                with self._lock:
                    self.leaf_s[name] += dt
                    parent = st[-1] if st else self._root
                    if outer and parent is not None:
                        self.spans[parent][4] += dt
            if after is not None:
                after(res, args)
            return res
        return wrapper

    def leaf_generator(self, name, gen_fn, counter):
        """Time only the work inside ``next()``, not the consumer's loop body."""
        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            it = iter(gen_fn(*args, **kwargs))
            step = self.leaf(name, next)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                self.count(counter)
                yield item
        return wrapper

    def run_root(self, name, fn, *args):
        """Run one job under a root span that pool-thread spans attach to."""
        idx = self._open(name)
        self._root = idx
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._root = None
            self.job += 1

    # -- patching ------------------------------------------------------------

    def patch(self, module, attr, make):
        """Replace ``module.attr`` by ``make(original)``; record a missing target."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make(orig))

    def _wrap_engine(self, engine):
        for meth, name in ENGINE_METHODS.items():
            bound = getattr(engine, meth, None)
            if bound is not None:
                self.engine_methods_seen.add(meth)
                setattr(engine, meth, self._engine_method(meth, name, bound))
        return engine

    def _engine_method(self, meth, name, bound):
        timed = self.span(name, bound)

        @functools.wraps(bound)
        def wrapper(*args, **kwargs):
            try:
                res = timed(*args, **kwargs)
            except Exception as exc:
                # estimate_sA skips a window whose tree does not fit the budget
                if meth == "net_measure_log" and type(exc).__name__ == "BudgetExceeded":
                    self.count("net_measure_calls")
                    self.count("net_windows")
                    self.count("net_windows_missing")
                raise
            if meth == "schedule_log_sums":
                self.count("schedule_sums_calls")
                self.count("schedule_sums_nodes", int(res[2]))
                self.count("schedule_points", len(res[1]))
                self.count("schedule_points_complete", sum(1 for ok in res[1] if ok))
            elif meth == "net_measure_log":
                self.count("net_measure_calls")
                self.count("net_windows")
            elif meth == "net_measure_series":
                self.count("net_measure_calls")
                self.count("net_windows", len(res))
                self.count("net_windows_missing", sum(1 for item in res if item is None))
            return res
        return wrapper

    def install(self):
        """Patch every traced name; absent names are recorded in ``missing``."""
        import morandim.attractor as attractor
        import morandim.cli as cli
        import morandim.dims as dims
        import morandim.symbolic as symbolic

        def engine_factory(orig):
            return self._after(self.span("symbolic.make_engine", orig, "engine_builds"),
                               self._wrap_engine)

        def bisect(orig):
            def wrapper(classify, *args, **kwargs):
                return orig(self._after(classify, lambda c: self.count("probes")),
                            *args, **kwargs)
            return wrapper

        def box_after(res, args):
            self.count("box_count_calls")
            with self._lock:
                self.box_keys.add((self.job, id(args[0]), float(args[1])))

        self.patch(dims, "make_engine", engine_factory)
        self.patch(symbolic, "make_engine", engine_factory)
        self.patch(dims, "validate",
                   lambda f: self.span("system.validate", f, "validate_calls"))
        self.patch(dims, "_bisect", bisect)
        self.patch(symbolic, "sv2_batch", lambda f: self.leaf(
            "linalg.sv2", f, lambda res, a: self.count("sv2_rows", int(res[0].size))))
        self.patch(symbolic, "log_phi_from_logs", lambda f: self.leaf(
            "svf.log_phi", f, lambda res, a: self.count("log_phi_rows", int(res.size))))
        self.patch(symbolic, "iter_cutset_words", lambda f: self.leaf_generator(
            "symbolic.enum", f, "words_emitted"))
        self.patch(attractor, "box_count",
                   lambda f: self.leaf("attractor.box_count", f, box_after))
        for attr, name in CLI_IMPORTS.items():
            counter = "validate_calls" if attr == "validate" else None
            self.patch(cli, attr, lambda f, name=name, counter=counter:
                       self.span(name, f, counter))
        self.patch(cli, "sample_cloud", lambda f: self._after(
            f, lambda cloud: self.count("points", int(cloud.count))))

    @staticmethod
    def _after(fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            after(res)
            return res
        return wrapper
