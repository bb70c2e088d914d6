"""Compare the CLI outputs of two source trees, job by job.

    python3 tools/compare_outputs.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the ``src`` directories of two checkouts (each
holding a ``morandim`` package).  Every job runs as a fresh
``python -m morandim.cli`` with ``PYTHONPATH`` set to one tree's ``src``, in
its own empty directory, so both sides write to the same relative paths.
The jobs are every job of ``perfbench/workloads.jobs`` at seed 7, the
``attractor_sampling`` jobs at seeds 11 and 29 as well, and the ``EXTRA``
jobs below.  For each job the two sides must agree on the exit code,
stdout, stderr (the job directory's path replaced by ``<job>``), the sha256
of every file the job leaves, and every ``manifest.json`` less its
``wall_time_s``.  Prints one line per job that differs, then a summary, and
exits 1 if any job differs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

SEEDS = {"attractor_sampling": (7, 11, 29)}
EXTRA = [
    ("dims:all_four", ["dims", "--fixture", "middle_thirds", "--which",
                       "sstar,sa,falconer,moran", "--out", "out/dims"]),
    ("dims:repeated_which", ["dims", "--fixture", "middle_thirds", "--which", "sstar,sstar",
                             "--out", "out/dims"]),
    ("dims:d1_periodic", ["dims", "d1.json", "--which", "sstar,sa", "--out", "out/dims"]),
    ("dims:lattice_shared", ["dims", "--fixture", "random_diag_pair", "--which",
                             "sa,falconer,sstar", "--threads", "2"]),
    ("dims:generic_falconer_sstar", ["dims", "--fixture", "example_5_3", "--which",
                                     "falconer,sstar"]),
    ("dims:singular_falconer", ["dims", "--fixture", "example_5_2", "--which", "falconer"]),
    ("validate:pretty", ["validate", "--fixture", "example_5_2", "--pretty"]),
    ("validate:bad_json", ["validate", "bad.json"]),
    ("validate:double_encoded", ["validate", "double.json"]),
    ("cutset:middle_thirds", ["cutset", "--fixture", "middle_thirds", "--s", "0.5",
                              "--epsilon", "0.012", "--out", "out/cut.csv"]),
    ("cutset:d1_periodic", ["cutset", "d1.json", "--s", "0.6", "--epsilon", "1e-3",
                            "--out", "out/cut.csv"]),
]


def job_list():
    """[(job id, argv)] of every job, in run order."""
    out = []
    for workload in workloads.NAMES:
        for seed in SEEDS.get(workload, (7,)):
            out += [(f"{job_id}@{seed}", argv)
                    for job_id, argv, _ in workloads.jobs(workload, "out", seed)]
    return out + EXTRA


def inputs(base_src):
    """{file name: text} of the configs the extra jobs read."""
    with open(os.path.join(base_src, "morandim", "fixtures", "middle_thirds.json")) as f:
        middle_thirds = json.load(f)
    with open(os.path.join(ROOT, "tests", "golden", "periodic_scalar_d1.json")) as f:
        d1 = f.read()  # distinct scalar maps at d = 1, one of them negative
    return {"bad.json": '{"dim": 1,', "double.json": json.dumps(json.dumps(middle_thirds)),
            "d1.json": d1}


def run(src, argv, job_dir, files):
    """One job in ``job_dir``: its exit code, stdout, stderr and left files."""
    os.makedirs(job_dir)
    for name, text in files.items():
        with open(os.path.join(job_dir, name), "w") as f:
            f.write(text)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "morandim.cli", *argv], cwd=job_dir, env=env,
                          capture_output=True, text=True, timeout=900)
    left = {}
    for parent, _, names in os.walk(job_dir):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as f:
                data = f.read()
            if name == "manifest.json":
                manifest = json.loads(data)
                manifest.pop("wall_time_s", None)
                left[os.path.relpath(path, job_dir)] = manifest
            else:
                left[os.path.relpath(path, job_dir)] = hashlib.sha256(data).hexdigest()
    return {"exit code": proc.returncode, "stdout": proc.stdout.replace(job_dir, "<job>"),
            "stderr": proc.stderr.replace(job_dir, "<job>"), "files": left}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base_src")
    p.add_argument("head_src")
    args = p.parse_args(argv)
    files = inputs(args.base_src)
    jobs = job_list()
    differ = []
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as work:
        for i, (job_id, job_argv) in enumerate(jobs):
            base, head = (run(src, job_argv, os.path.join(work, side, str(i)), files)
                          for side, src in (("base", args.base_src), ("head", args.head_src)))
            fields = [f"{key} {base[key]} -> {head[key]}" if key == "exit code" else key
                      for key in base if base[key] != head[key]]
            if fields:
                differ.append(job_id)
                print(f"DIFFERS {job_id} ({' '.join(job_argv)}): {', '.join(fields)}")
    print(f"{len(jobs)} jobs, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
