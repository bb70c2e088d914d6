"""Command-line surface: validate, dims, boxdim, render, cutset.

One JSON object per line on stdout (``--pretty`` indents them).  Exit
codes are a stable contract: 0 success, 1 unreadable/invalid config,
2 inapplicable estimator or invariant error, 3 budget exhaustion or an
indeterminate trend.  Seeded commands are byte-reproducible; every file
output gets a manifest written beside it.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from . import __version__
from .attractor import (
    boxdim_fit,
    default_scales,
    occupied_pixels,
    render,
    sample_cloud,
    select_scales,
    write_pgm,
)
from .dims import estimate_sA, estimate_sstar, moran_dims, pressure_root
from .errors import (
    BudgetExceeded,
    ConfigError,
    ContractionViolated,
    DimensionMismatch,
    InapplicableEstimator,
    MoranDimError,
    NonsingularityViolated,
)
from .symbolic import DEFAULT_NODE_BUDGET, cutset
from .system import fixture_document, parse_structure, validate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INAPPLICABLE = 2
EXIT_BUDGET = 3


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, indent=2, sort_keys=False))
    else:
        print(json.dumps(obj, separators=(",", ":"), sort_keys=False))


def _load_spec(args):
    if args.fixture:
        doc = fixture_document(args.fixture)
        label = f"fixture:{args.fixture}"
    else:
        if not args.config:
            raise ConfigError("pass a config path or --fixture NAME")
        try:
            with open(args.config) as f:
                doc = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        label = args.config
    return parse_structure(doc), label


def _thread_count(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("MORAN_DIM_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _write_manifest(out_dir, command, label, overrides, seed, outputs, started):
    manifest = {
        "command": command,
        "config": label,
        "overrides": overrides,
        "seed": seed,
        "outputs": sorted(outputs),
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def _node_budget(args) -> int:
    if args.node_budget is None:
        return DEFAULT_NODE_BUDGET
    if args.node_budget < 1:
        raise ConfigError(f"--node-budget must be >= 1, got {args.node_budget}")
    return args.node_budget


def cmd_validate(args) -> int:
    spec, label = _load_spec(args)
    findings = validate(spec)
    result = {
        "config": label,
        "findings": [f.to_dict() for f in findings],
        "errors": sum(1 for f in findings if f.severity == "error"),
        "warnings": sum(1 for f in findings if f.severity == "warning"),
    }
    _emit(result, args.pretty)
    return EXIT_INAPPLICABLE if result["errors"] else EXIT_OK


def cmd_dims(args) -> int:
    spec, label = _load_spec(args)
    started = time.monotonic()
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    known = {"sstar", "sa", "falconer", "moran"}
    bad = set(which) - known
    if bad:
        raise ConfigError(f"unknown estimator(s) {sorted(bad)}; choose from {sorted(known)}")

    budget = _node_budget(args)
    tol = args.tol

    def run(name):
        if name == "sstar":
            return [estimate_sstar(spec, tol=tol, node_budget=budget)]
        if name == "sa":
            return [estimate_sA(spec, tol=tol, node_budget=budget)]
        if name == "falconer":
            if spec.schedule.kind != "constant":
                raise InapplicableEstimator(
                    "the pressure root needs a stationary (constant) schedule"
                )
            return [pressure_root(spec.schedule.levels[0], tol=max(tol * 1e-4, 1e-9))]
        if name == "moran":
            lower, upper = moran_dims(spec, k_max=args.depth or 200)
            return [lower, upper]
        raise AssertionError(name)

    reports = []
    with ThreadPoolExecutor(max_workers=_thread_count(args)) as pool:
        futures = [pool.submit(run, name) for name in which]
        for fut in futures:
            reports.extend(fut.result())

    indeterminate = False
    outputs = []
    for rep in reports:
        obj = rep.to_json_dict()
        _emit(obj, args.pretty)
        if rep.estimate is None:
            indeterminate = True
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{rep.quantity}.json")
            with open(path, "w") as f:
                json.dump(obj, f, indent=2)
                f.write("\n")
            outputs.append(path)
    if args.out:
        _write_manifest(args.out, "dims", label,
                        {"which": args.which, "tol": tol, "node_budget": budget},
                        args.seed, outputs, started)
    return EXIT_BUDGET if indeterminate else EXIT_OK


def cmd_boxdim(args) -> int:
    spec, label = _load_spec(args)
    started = time.monotonic()
    depth = args.depth or 10
    count = args.count or 200_000
    seed = args.seed if args.seed is not None else 7
    cloud = sample_cloud(spec, depth=depth, mode="auto", count=count, seed=seed)
    if args.scales:
        scales = [float(v) for v in args.scales.split(",")]
    else:
        scales = select_scales(cloud, default_scales(spec, depth))
    curve = boxdim_fit(cloud, scales)
    report = {
        "quantity": "boxdim_slope",
        "estimate": curve.slope,
        "bracket": [curve.slope, curve.slope],
        "schedule": {"scales": curve.scales, "depth": depth, "count": cloud.count,
                     "seed": seed, "mode": cloud.mode,
                     "trunc_error": cloud.trunc_error},
        "flags": [],
        "trace": [{"epsilon": e, "count": c} for e, c in zip(curve.scales, curve.counts)],
        "r2": curve.r2,
        "intercept": curve.intercept,
    }
    _emit(report, args.pretty)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        csv_path = os.path.join(args.out, "curve.csv")
        with open(csv_path, "w") as f:
            f.write("epsilon,count,log_inv_eps,log_count\n")
            for e, c in zip(curve.scales, curve.counts):
                f.write(f"{e!r},{c},{math.log(1.0 / e)!r},{math.log(c)!r}\n")
        json_path = os.path.join(args.out, "report.json")
        with open(json_path, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        _write_manifest(args.out, "boxdim", label,
                        {"depth": depth, "count": count, "scales": args.scales},
                        seed, [csv_path, json_path], started)
    return EXIT_OK


def cmd_render(args) -> int:
    spec, label = _load_spec(args)
    started = time.monotonic()
    if spec.dim != 2:
        raise DimensionMismatch(f"render needs a 2-dimensional system, got d={spec.dim}")
    depth = args.depth or 8
    seed = args.seed if args.seed is not None else 7
    count = args.count or 200_000
    cloud = sample_cloud(spec, depth=depth, mode="auto", count=count, seed=seed)
    resolution = args.resolution or 512
    raster = render(cloud, resolution)
    out_path = args.out or "render.pgm"
    out_dir = os.path.dirname(out_path) or "."
    os.makedirs(out_dir, exist_ok=True)
    write_pgm(raster, out_path)
    _emit({
        "command": "render",
        "out": out_path,
        "resolution": resolution,
        "occupied_pixels": occupied_pixels(raster),
        "depth": depth,
        "count": cloud.count,
        "seed": seed,
    }, args.pretty)
    _write_manifest(out_dir, "render", label,
                    {"depth": depth, "resolution": resolution, "count": count},
                    seed, [out_path], started)
    return EXIT_OK


def cmd_cutset(args) -> int:
    spec, label = _load_spec(args)
    started = time.monotonic()
    if args.s is None or args.epsilon is None:
        raise ConfigError("cutset needs --s and --epsilon")
    if not 0.0 < args.epsilon < 1.0:
        raise ConfigError(f"--epsilon must lie in (0, 1), got {args.epsilon}")
    if not 0.0 < args.s < math.inf:
        raise ConfigError(f"--s must be positive and finite, got {args.s}")
    budget = _node_budget(args)
    c = cutset(spec, args.s, args.epsilon, node_budget=budget)
    # checks truncation and the word cap before any output
    rows = c.entries() if args.out else ()
    log_sum = c.log_sum()
    summary = {
        "config": label,
        "s": c.s,
        "m": c.m,
        "epsilon": c.epsilon,
        "word_count": c.word_count(),
        "log_sum": log_sum if math.isfinite(log_sum) else None,
        "truncated": c.truncated,
        "node_budget_used": c.node_budget_used,
    }
    _emit(summary, args.pretty)
    if args.out:
        out_dir = os.path.dirname(args.out) or "."
        os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w") as f:
            f.write("word,depth,log_phi\n")
            for word, lph in rows:
                f.write(f"{word},{len(word)},{lph!r}\n")
        _write_manifest(out_dir, "cutset", label,
                        {"s": c.s, "epsilon": c.epsilon, "node_budget": budget},
                        args.seed, [args.out], started)
    return EXIT_BUDGET if c.truncated else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="morandim",
        description="Dimension estimators and attractor tools for level-dependent "
                    "affine contraction systems",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("validate", cmd_validate),
        ("dims", cmd_dims),
        ("boxdim", cmd_boxdim),
        ("render", cmd_render),
        ("cutset", cmd_cutset),
    ]:
        sp = sub.add_parser(name)
        sp.set_defaults(func=fn)
        sp.add_argument("config", nargs="?", help="path to a JSON config")
        sp.add_argument("--fixture", help="bundled fixture name instead of a config path")
        sp.add_argument("--which", default="sstar,sa",
                        help="comma list from sstar,sa,falconer,moran (dims)")
        sp.add_argument("--tol", type=float, default=0.02)
        sp.add_argument("--depth", type=int)
        sp.add_argument("--count", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--scales", help="comma list of epsilon scales (boxdim)")
        sp.add_argument("--resolution", type=int)
        sp.add_argument("--threads", type=int)
        sp.add_argument("--node-budget", type=int, dest="node_budget")
        sp.add_argument("--pretty", action="store_true")
        sp.add_argument("--out", help="output directory (dims/boxdim) or file (render/cutset)")
        sp.add_argument("--s", type=float, help="exponent for the cutset dump")
        sp.add_argument("--epsilon", type=float, help="scale for the cutset dump")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except (InapplicableEstimator, ContractionViolated, NonsingularityViolated,
            DimensionMismatch) as exc:
        print(json.dumps({"error": "inapplicable", "message": str(exc)}), file=sys.stderr)
        return EXIT_INAPPLICABLE
    except BudgetExceeded as exc:
        print(json.dumps({"error": "budget", "message": str(exc)}), file=sys.stderr)
        return EXIT_BUDGET
    except MoranDimError as exc:
        print(json.dumps({"error": "invalid", "message": str(exc)}), file=sys.stderr)
        return EXIT_INAPPLICABLE


if __name__ == "__main__":
    sys.exit(main())
