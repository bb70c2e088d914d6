"""One pass of a workload in a fresh process.

Measures set-up (importing ``morandim`` and loading and parsing the
workload's fixtures), then calls ``morandim.cli.main(argv)`` once per job
with stdout and stderr captured, and writes a JSON result file.  With
``--trace 1`` the tracer is installed after set-up and before the first job.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR \
        --trace 0|1 --result FILE [--setup-only]
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _run_job(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # any crash is a failed job, reported with its traceback
            rc = "exception"
            traceback.print_exc()
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, HERE)
    import workloads

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import morandim.cli
    from morandim.system import fixture_document, parse_structure
    for name in workloads.fixtures(args.workload):
        parse_structure(fixture_document(name))
    setup_s = time.perf_counter() - t0

    import numpy
    result = {"setup_s": setup_s, "numpy": numpy.__version__}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        os.makedirs(args.out, exist_ok=True)
        job_results = []
        job_list = workloads.jobs(args.workload, args.out, args.seed)
        start = time.perf_counter()
        for _, argv, _ in job_list:
            tj = time.perf_counter()
            if tracer is None:
                res = _run_job(morandim.cli.main, argv)
            else:
                res = tracer.run_root("cli.main", _run_job, morandim.cli.main, argv)
            res["seconds"] = time.perf_counter() - tj
            job_results.append(res)
        result["wall_s"] = time.perf_counter() - start
        ru = resource.getrusage(resource.RUSAGE_SELF)
        result.update(peak_rss_mb=ru.ru_maxrss / 1024.0, user_s=ru.ru_utime,
                      sys_s=ru.ru_stime, jobs=job_results)
        if tracer is not None:
            from layers import summarize
            out_bytes = sum(os.path.getsize(p) for _, _, files in job_list for p in files
                            if os.path.exists(p))
            out_bytes += sum(len(r["stdout"].encode()) + len(r["stderr"].encode())
                             for r in job_results)
            result["layers"] = summarize(tracer, out_bytes)
    with open(args.result, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
