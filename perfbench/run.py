"""Time-to-estimate benchmark of morandim over three workloads.

    python3 perfbench/run.py --workload NAME|all [--seed 7] [--seconds 30] [--trace 0|1]

Workloads (see ``workloads.py``): ``generic_tree``, ``aggregated_sweep``,
``attractor_sampling``; ``all`` runs the three in turn.  The loop is
closed: one job at a time from one process.  Each pass over a workload's jobs runs in a fresh worker process,
and passes repeat until ``--seconds`` would be exceeded (at least two
untraced passes, or one round of an untraced and a traced pass).
``--seed`` becomes ``--seed`` of the ``attractor_sampling`` jobs; the other
workloads are deterministic.

Every job's output is checked (``workloads.check``), and the data files of
all passes of one run must be byte-identical.  Times are taken only from
outside the program.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics of ``layers.py``, including the tracing
overhead (traced minus untraced median ``wall_s``).  The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

No machine-wide measurement is taken: no perf counters, no cache drops.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_SETUPS = 7
# A single generic_tree pass takes over 20 s and its time varies by ~10% from
# pass to pass on a shared 2-core machine, so an untraced run reports the
# median of at least two passes even when that outlasts --seconds.
MIN_ROUNDS = 2
MAX_ROUNDS = 40
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def _run_worker(args, work, tag, trace, deadline, setup_only=False):
    out = os.path.join(work, tag)
    result = os.path.join(work, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", out, "--trace", str(trace),
           "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {tag} passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {tag} exited {proc.returncode}: {proc.stderr[-3000:]}")
    with open(result) as f:
        return json.load(f), out


def _digest(path):
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except OSError:
        return None


def _verify(args, res, out, first_digests):
    """Problems per job of one pass, including byte-identity with pass 1."""
    entries = workloads.jobs(args.workload, out, args.seed)
    results = [(job_id, argv, files, r) for (job_id, argv, files), r in zip(entries, res["jobs"])]
    problems = workloads.check(args.workload, results)
    for job_id, _, files, _ in results:
        digests = [_digest(p) for p in files]
        if job_id not in first_digests:
            first_digests[job_id] = digests
        elif digests != first_digests[job_id]:
            problems[job_id].append("data output differs from the run's first pass")
    return problems


def _machine():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown"
    return nproc, commit


def _spread(values):
    return f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)  # job paths are relative to the repository root
    if not os.path.isfile(os.path.join("src", "morandim", "cli.py")):
        print(f"perfbench: no morandim source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    return max(run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
               for name in workloads.NAMES)


def run_workload(args):
    """Run one workload for ``args.seconds``; print its block and JSON line."""
    deadline = time.monotonic() + DEADLINE_S
    # fixed-length names keep the paths the jobs print, and so their byte
    # counts, the same from run to run
    os.makedirs(".perfbench_work", exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=".perfbench_work")
    untraced, traced, setups = [], [], []
    attempted = failed = 0
    failures = []
    first_digests = {}
    try:
        start = time.monotonic()
        rounds = 0
        while True:
            t_round = time.monotonic()
            for trace in ((0, 1) if args.trace else (0,)):
                tag = f"pass{rounds:02d}-{trace}"
                res, out = _run_worker(args, work, tag, trace, deadline)
                problems = _verify(args, res, out, first_digests)
                shutil.rmtree(out, ignore_errors=True)
                attempted += len(res["jobs"])
                for job_id, probs in problems.items():
                    if probs:
                        failed += 1
                        failures.append(f"{tag} {job_id}: {'; '.join(probs)}")
                (traced if trace else untraced).append(res)
                setups.append(res["setup_s"])
            rounds += 1
            last = time.monotonic() - t_round
            enough = rounds >= (1 if args.trace else MIN_ROUNDS)
            if ((enough and time.monotonic() - start + last > args.seconds)
                    or rounds >= MAX_ROUNDS or time.monotonic() + last > deadline):
                break
        while not args.trace and len(setups) < MIN_SETUPS:
            res, _ = _run_worker(args, work, f"setup{len(setups):02d}", 0, deadline,
                                 setup_only=True)
            setups.append(res["setup_s"])
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    nproc, commit = _machine()
    jobs_per_pass = len(untraced[0]["jobs"])
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)}+{len(traced)} traced, {jobs_per_pass} jobs per pass, "
          "closed loop: one job at a time, one fresh worker process per pass")
    print(f"machine: nproc={nproc} os.cpu_count={os.cpu_count()} "
          f"python={platform.python_version()} numpy={untraced[0]['numpy']} "
          f"commit={commit}; no machine-wide measurement taken "
          "(no perf counters, no cache drops)")
    for line in failures:
        print(f"FAILED {line}")
    print(f"failed_frac = {failed / attempted:.4g} ratio ({failed} of {attempted} jobs)")

    metrics = {}
    walls = [r["wall_s"] for r in untraced]
    if not args.trace:
        samples = {"wall_s": walls, "setup_s": setups,
                   "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]}
        for name, unit in END_TO_END:
            value = statistics.median(samples[name])
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit} ({_spread(samples[name])})")
        print("pass wall_s: " + " ".join(f"{w:.4f}" for w in walls))
        cpu = [r["user_s"] + r["sys_s"] for r in untraced]
        print(f"worker cpu_s = {statistics.median(cpu):.4g} s ({_spread(cpu)})")
    else:
        metrics = _layer_metrics(args, traced, walls)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def _print_targets(args, per_job):
    """Per-job counts behind the seed-commit targets in reference.json."""
    targets = workloads.REFERENCE["targets"]
    builds = targets["symbolic.engine_builds"]
    boxes = targets["attractor.box_count_distinct_frac"]
    seen = {}
    for (job_id, argv, _), counts in zip(workloads.jobs(args.workload, "", args.seed), per_job):
        if job_id.startswith(builds["job_kind"] + ":") and "sstar,sa" in argv:
            seen[job_id] = counts["engine_builds"]
        if job_id == boxes["job"] and counts["box_count_calls"]:
            frac = counts["box_count_distinct"] / counts["box_count_calls"]
            print(f"target attractor.box_count_distinct_frac on {job_id}: {frac:.4g} "
                  f"(seed commit {boxes['seed_value']}: {boxes['why']})")
    if seen:
        print(f"target symbolic.engine_builds per job: {seen} "
              f"(seed commit {builds['seed_value']}: {builds['why']})")


def _layer_metrics(args, traced, walls):
    units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
    per_pass = [r["layers"] for r in traced]
    metrics = {}
    for name, unit, _, _ in layers.PER_LAYER:
        vals = [p["values"][name] for p in per_pass if name in p["values"]]
        if vals:
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    overhead = traced_wall - statistics.median(walls)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": units["trace.overhead_s"]}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, reason in sorted(per_pass[0]["absent"].items()):
        print(f"{name} absent: {reason}")
    if per_pass[0]["zero_base"]:
        print("ratios at their vacuous value, zero base: " + ", ".join(per_pass[0]["zero_base"]))
    if per_pass[0]["missing_targets"]:
        print("patch targets not found: " + ", ".join(per_pass[0]["missing_targets"]))
    _print_targets(args, per_pass[0]["per_job"])
    print(f"tracing overhead: traced wall_s {traced_wall:.4g} s minus untraced "
          f"{statistics.median(walls):.4g} s = {overhead:.4g} s")
    print("note: layer sums add the time of both cmd_dims pool threads, so on "
          "dims jobs they can exceed wall_s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
