"""Command-line surface: validate, dims, boxdim, render, cutset.

One JSON object per line on stdout (``--pretty`` indents them).  Exit
codes are a stable contract: 0 success, 1 unreadable/invalid config or
argument, 2 inapplicable estimator or invariant error, 3 budget exhaustion
or an indeterminate trend, 4 internal error (a defect).  Errors are one
JSON line on stderr.  Seeded commands are byte-reproducible.

``main`` builds its parser on its first call and reuses it for every later
call in the process.  It loads the spec and starts the manifest clock once,
then calls the command's ``handler(spec, label, args, started)``.  A command
that writes files does so in one step, ``_save``, which writes each file
whole and then the manifest beside them, before anything is printed.
Reports and findings are serialized from their field dicts (``vars``).  A
config file is decoded once, by ``parse_structure``, and a name repeated in
``--which`` runs, prints and is written once.

``dims`` runs s*, s_A and ``falconer`` on one engine, built once.
``dims --threads N`` splits the generic and lattice class trees' level-wide
array work over min(N, usable CPUs) threads; every output is byte-identical
at any N, and the other commands accept the flag and run in one thread.
``cutset --out`` formats its rows straight from the digit lists and log
phi^s of ``CutSet.rows``, one ``%`` format per row, in the depth-first order
and with the bytes of ``iter_cutset_words``.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time

from . import __version__, dims
from .attractor import (boxdim_fit, default_scales, occupied_pixels, render, sample_cloud,
                        saturated, select_scales, write_pgm)
from .dims import estimate_sA, estimate_sstar, moran_dims, pressure_root
from .errors import (BudgetExceeded, ConfigError, ContractionViolated, DimensionMismatch,
                     InapplicableEstimator, MoranDimError, NonsingularityViolated)
from .symbolic import DEFAULT_NODE_BUDGET, cutset
from .system import fixture_document, parse_structure, require_invariants, validate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INAPPLICABLE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

ESTIMATORS = ("sstar", "sa", "falconer", "moran")


def _names(text: str) -> list:
    return list(dict.fromkeys(w.strip() for w in text.split(",") if w.strip()))


def _floats(text: str) -> list:
    return [float(v) for v in text.split(",")]


def _emit(obj, pretty: bool) -> None:
    print(json.dumps(obj, indent=2) if pretty else json.dumps(obj, separators=(",", ":")))


def _write_file(path, data) -> None:
    """Write ``path`` whole or not at all: ``data``, a string or a function that
    writes a named file, goes to a temp file in the same directory, which is
    renamed over ``path`` once complete."""
    tmp = f"{path}.{os.getpid()}.tmp"  # a stale temp file left by a killed run is overwritten
    try:
        if callable(data):
            data(tmp)
        else:
            with open(tmp, "w") as f:
                f.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load_spec(args):
    if args.fixture:
        return parse_structure(fixture_document(args.fixture)), f"fixture:{args.fixture}"
    if not args.config:
        raise ConfigError("pass a config path or --fixture NAME")
    try:
        with open(args.config) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_structure(text), args.config


def _cloud(spec, args):
    """The sampled attractor; a map that does not contract leaves none to sample."""
    require_invariants(spec, ("ContractionViolated",))
    return sample_cloud(spec, depth=args.depth, mode="auto", count=args.count, seed=args.seed)


def _save(out_dir, files, args, label, started, overrides) -> None:
    """Make ``out_dir``, write each (path, data) of ``files`` whole in order, then
    the ``manifest.json`` beside them that records the run.  A path that is
    there and not a regular file is refused first, by ``stat``: a FIFO is never opened."""
    manifest = os.path.join(out_dir, "manifest.json")
    for path in [path for path, _ in files] + [manifest]:
        if os.path.exists(path) and not os.path.isfile(path):
            raise ConfigError(f"--out: {path} exists and is not a regular file")
    os.makedirs(out_dir, exist_ok=True)
    for path, data in files:
        _write_file(path, data)
    _write_file(manifest, _json_text({
        "command": args.command,
        "config": label,
        "overrides": overrides,
        "seed": args.seed,
        "outputs": sorted(path for path, _ in files),
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 6),
    }))


def cmd_validate(spec, label, args, started) -> int:
    findings = validate(spec)
    errors = sum(1 for f in findings if f.severity == "error")
    _emit({"config": label, "findings": [vars(f) for f in findings], "errors": errors,
           "warnings": sum(1 for f in findings if f.severity == "warning")}, args.pretty)
    return EXIT_INAPPLICABLE if errors else EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_dims(spec, label, args, started) -> int:
    """Run the ``--which`` estimators one after another and print their
    reports in ``--which`` order.

    s*, s_A and ``falconer`` share one engine, built once, which raises a
    broken invariant.  It gets min(--threads, usable CPUs) workers, whose
    threads, if a level was wide enough to start them, stop when the
    estimators end.  s_A runs first, so the pruned walks of s* read the
    level tree it keeps, and ``falconer`` runs after both: it takes their
    engine, or, run alone, builds it once its schedule check has passed.
    Each estimator runs once, and errors are raised in ``--which`` order,
    as if each estimator had run alone.
    """
    which, tol, budget = _names(args.which), args.tol, args.node_budget
    engine = None

    def run(name):
        nonlocal engine
        if name == "moran":
            return list(moran_dims(spec, k_max=args.depth))
        if name == "falconer":
            dims.require_stationary(spec)  # a schedule error comes before an invariant's
            estimate, probe_tol = pressure_root, max(tol * 1e-4, 1e-9)
        else:
            estimate, probe_tol = (estimate_sstar if name == "sstar" else estimate_sA), tol
        if engine is None:
            engine = dims.make_engine(spec)  # raises a broken invariant: no engine for it
            engine.workers = min(args.threads or 1, _usable_cpus())
        return [estimate(spec, tol=probe_tol, node_budget=budget, engine=engine)]

    results = {}
    try:
        for name in sorted(which, key=("sa", "sstar", "falconer", "moran").index):
            try:
                results[name] = run(name)
            except MoranDimError as exc:
                results[name] = exc
    finally:
        if engine is not None:
            engine.close()
    reports = []
    for name in which:
        if isinstance(results[name], MoranDimError):
            raise results[name]
        reports.extend(results[name])

    objs = [vars(rep) for rep in reports]
    if args.out:  # every file is written before anything is printed
        _save(args.out, [(os.path.join(args.out, f"{obj['quantity']}.json"), _json_text(obj))
                         for obj in objs], args, label, started,
              {"which": args.which, "tol": tol, "node_budget": budget})
    for obj in objs:
        _emit(obj, args.pretty)
    return EXIT_BUDGET if any(rep.estimate is None for rep in reports) else EXIT_OK


def cmd_boxdim(spec, label, args, started) -> int:
    depth = args.depth
    cloud = _cloud(spec, args)
    source = f"--scales {args.scales}" if args.scales else f"--depth {depth}"
    try:  # a depth too shallow for default scales, or a scale too fine for the int64 grid key
        scales = (_floats(args.scales) if args.scales
                  else select_scales(cloud, default_scales(spec, depth)))
        curve = boxdim_fit(cloud, scales)
    except ValueError as exc:
        raise ConfigError(f"boxdim {source}: {exc}") from exc
    report = {
        "quantity": "boxdim_slope",
        "estimate": curve.slope,
        "bracket": [curve.slope, curve.slope],
        "schedule": {"scales": curve.scales, "depth": depth, "count": cloud.count,
                     "seed": args.seed, "mode": cloud.mode,
                     "trunc_error": cloud.trunc_error},
        "flags": ["sample_saturated"] if any(saturated(cloud, c) for c in curve.counts) else [],
        "trace": [{"epsilon": e, "count": c} for e, c in zip(curve.scales, curve.counts)],
        "r2": curve.r2,
        "intercept": curve.intercept,
    }
    if args.out:  # every file is written before anything is printed
        csv = "epsilon,count,log_inv_eps,log_count\n" + "".join(
            f"{e!r},{c},{math.log(1.0 / e)!r},{math.log(c)!r}\n"
            for e, c in zip(curve.scales, curve.counts))
        _save(args.out, [(os.path.join(args.out, "curve.csv"), csv),
                         (os.path.join(args.out, "report.json"), _json_text(report))],
              args, label, started, {"depth": depth, "count": args.count, "scales": args.scales})
    _emit(report, args.pretty)
    return EXIT_OK


def cmd_render(spec, label, args, started) -> int:
    if spec.dim != 2:
        raise DimensionMismatch(f"render needs a 2-dimensional system, got d={spec.dim}")
    cloud = _cloud(spec, args)
    try:  # a sampled point past the float range
        raster = render(cloud, args.resolution)
    except ValueError as exc:
        raise ConfigError(f"render: {exc}") from exc
    # every file is written before anything is printed
    _save(os.path.dirname(args.out) or ".", [(args.out, lambda tmp: write_pgm(raster, tmp))],
          args, label, started,
          {"depth": args.depth, "resolution": args.resolution, "count": args.count})
    _emit({"command": "render", "out": args.out, "resolution": args.resolution,
           "occupied_pixels": occupied_pixels(raster), "depth": args.depth,
           "count": cloud.count, "seed": args.seed}, args.pretty)
    return EXIT_OK


def cmd_cutset(spec, label, args, started) -> int:
    c = cutset(spec, args.s, args.epsilon, node_budget=args.node_budget)
    if args.out:  # checks truncation and the word cap, then writes every file before printing
        rows, log_phi = c.rows()
        fmt = {n: "-".join(["%d"] * n) + f",{n},%r\n" for n in set(map(len, rows))}
        csv = "word,depth,log_phi\n" + "".join(
            fmt[len(row)] % (*row, lph) for row, lph in zip(rows, log_phi))
        _save(os.path.dirname(args.out) or ".", [(args.out, csv)], args, label, started,
              {"s": c.s, "epsilon": c.epsilon, "node_budget": args.node_budget})
    log_sum = c.log_sum()
    _emit({"config": label, "s": c.s, "m": c.m, "epsilon": c.epsilon,
           "word_count": c.word_count(), "log_sum": log_sum if math.isfinite(log_sum) else None,
           "truncated": c.truncated, "node_budget_used": c.node_budget_used}, args.pretty)
    return EXIT_BUDGET if c.truncated else EXIT_OK


def _arg(convert, ok, what, keep_text=False):
    """An argparse ``type`` that requires ``ok(convert(text))``; ``keep_text``
    returns the text itself, for list flags the manifest records as given."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return text if keep_text else value
    return parse


_COUNT = _arg(int, lambda v: v >= 1, "an integer >= 1")
_POSITIVE = _arg(float, lambda v: 0.0 < v < math.inf, "finite and > 0")

# Every flag once: option string, argparse type, help.
_FLAGS = {
    "which": ("--which", _arg(_names, lambda v: v and set(v) <= set(ESTIMATORS),
                              f"a comma list from {','.join(ESTIMATORS)}", True), "estimators"),
    "tol": ("--tol", _POSITIVE, "bisection bracket width"),
    "depth": ("--depth", _COUNT, "coding depth (boxdim, render) or Moran k_max (dims)"),
    "count": ("--count", _COUNT, "sample size when full enumeration does not fit"),
    "seed": ("--seed", _arg(int, lambda v: v >= 0, "an integer >= 0"), "sampling seed"),
    "scales": ("--scales", _arg(_floats, lambda v: len(set(v)) >= 2 and all(
        0.0 < e < math.inf for e in v), "two or more distinct positive finite numbers", True),
        "box-count scales instead of the automatic ones"),
    "resolution": ("--resolution", _COUNT, "raster side in pixels"),
    "threads": ("--threads", int, "dims: threads for the class tree's level-wide array work, "
                "at most the usable CPUs; outputs are byte-identical at any value, and 1 or "
                "less is serial (boxdim, render: accepted and ignored)"),
    "node_budget": ("--node-budget", _COUNT, "tree nodes a walk may expand"),
    "out": ("--out", None, "output directory (dims, boxdim) or file (render, cutset)"),
    "s": ("--s", _POSITIVE, "exponent of the cut-set"),
    "epsilon": ("--epsilon", _arg(float, lambda v: 0.0 < v < 1.0, "in (0, 1)"), "cut-set scale"),
}

# Per subcommand: handler and {flag: default}, besides the config, --fixture
# and --pretty that all take.  A default of ``...`` marks a required flag.
_COMMANDS = {
    "validate": (cmd_validate, {}),
    "dims": (cmd_dims, {"which": "sstar,sa", "tol": 0.02, "depth": 200, "seed": None,
                        "threads": None, "node_budget": DEFAULT_NODE_BUDGET, "out": None}),
    "boxdim": (cmd_boxdim, {"depth": 10, "count": 200_000, "seed": 7, "scales": None,
                            "threads": None, "out": None}),
    "render": (cmd_render, {"depth": 8, "count": 200_000, "seed": 7, "resolution": 512,
                            "threads": None, "out": "render.pgm"}),
    "cutset": (cmd_cutset, {"s": ..., "epsilon": ...,
                            "node_budget": DEFAULT_NODE_BUDGET, "seed": None, "out": None}),
}


class _Parser(argparse.ArgumentParser):
    """Argument errors become ConfigErrors: exit 1 with one JSON line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one."""
    p = _Parser(prog="morandim", description="Dimension estimators and attractor tools "
                "for level-dependent affine contraction systems")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, defaults) in _COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False,  # `dims --s 1` must not set --seed
                            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sp.set_defaults(func=fn)
        sp.add_argument("config", nargs="?", help="path to a JSON config")
        sp.add_argument("--fixture", help="bundled fixture name instead of a config path")
        sp.add_argument("--pretty", action="store_true", help="indent the JSON output")
        for dest, default in defaults.items():
            flag, kind, text = _FLAGS[dest]
            sp.add_argument(flag, type=kind, help=text, required=default is ...,
                            default=None if default is ... else default)
    return p


# JSON error tag and exit code per exception kind, first match wins.  The last
# entry catches defects, which still end in one JSON line, never a traceback.
_FAILURES = (
    (ConfigError, "config", EXIT_CONFIG),
    ((InapplicableEstimator, ContractionViolated, NonsingularityViolated, DimensionMismatch),
     "inapplicable", EXIT_INAPPLICABLE),
    (BudgetExceeded, "budget", EXIT_BUDGET),
    (MoranDimError, "invalid", EXIT_INAPPLICABLE),
    (OSError, "config", EXIT_CONFIG),  # a config or --out path that cannot be used
    (MemoryError, "budget", EXIT_BUDGET),  # an allocation the machine refuses
    (Exception, "internal", EXIT_INTERNAL),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        spec, label = _load_spec(args)
        return args.func(spec, label, args, time.monotonic())
    except Exception as exc:
        error, code = next((e, c) for kind, e, c in _FAILURES if isinstance(exc, kind))
        message = f"{type(exc).__name__}: {exc}" if code == EXIT_INTERNAL else str(exc)
        print(json.dumps({"error": error, "message": message}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
