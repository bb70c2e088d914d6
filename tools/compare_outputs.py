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
exits 1 if any job differs.  It first checks that each side imports
``morandim`` from its own tree (an installed copy must not shadow it), and
exits 2 if not.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
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
    ("dims:lattice_sa_budget", ["dims", "--fixture", "random_diag_pair", "--which", "sa",
                                "--node-budget", "3000"]),
    ("dims:d2_ordered_periodic", ["dims", "ordered.json", "--which", "sstar,sa"]),
    ("dims:generic_falconer_sstar", ["dims", "--fixture", "example_5_3", "--which",
                                     "falconer,sstar"]),
    ("dims:singular_falconer", ["dims", "--fixture", "example_5_2", "--which", "falconer"]),
    # the s* walks of a kept tree: m = 1 cut short by the budget after the kept
    # depth 9, m = 2 past it to depth 11
    ("dims:generic_walk_budget", ["dims", "--fixture", "example_5_3", "--which", "sa,sstar",
                                  "--node-budget", "3000"]),
    # kept through depth 8; the m = 2 walk drops the thin maps' words and reaches depth 11
    ("dims:generic_walk_past_kept", ["dims", "thin.json", "--which", "falconer,sa,sstar",
                                     "--node-budget", "20000"]),
    # a d = 3 walker system: s* probes at s = 4, 2 and 1 walk at m = 3, 2 and 1,
    # and cut-sets at m = 2 and past d
    ("dims:generic_d3", ["dims", "generic_d3.json", "--which", "sstar,sa",
                         "--node-budget", "1000000"]),
    ("cutset:generic_d3_m2", ["cutset", "generic_d3.json", "--s", "1.5", "--epsilon", "0.01",
                              "--out", "out/cut.csv"]),
    ("cutset:generic_d3_past_d", ["cutset", "generic_d3.json", "--s", "3.5", "--epsilon",
                                  "0.01", "--out", "out/cut.csv"]),
    ("validate:pretty", ["validate", "--fixture", "example_5_2", "--pretty"]),
    ("validate:bad_json", ["validate", "bad.json"]),
    ("validate:double_encoded", ["validate", "double.json"]),
    ("cutset:middle_thirds", ["cutset", "--fixture", "middle_thirds", "--s", "0.5",
                              "--epsilon", "0.012", "--out", "out/cut.csv"]),
    ("cutset:d1_periodic", ["cutset", "d1.json", "--s", "0.6", "--epsilon", "1e-3",
                            "--out", "out/cut.csv"]),
    ("dims:repeated_signed_zero_shears", ["dims", "shears.json", "--which", "sstar,sa"]),
    ("dims:moran_non_scalar_fixture", ["dims", "--fixture", "example_5_4", "--which", "moran"]),
    ("dims:moran_non_scalar_later", ["dims", "later_non_scalar.json", "--which", "moran"]),
    ("validate:singular_later", ["validate", "singular_later.json"]),
    ("dims:lattice_dp", ["dims", "lattice4.json", "--which", "sa", "--node-budget", "1000000"]),
    # the tree route of level_log_sums, on a lattice that is not multiplicative
    ("dims:lattice4_falconer", ["dims", "lattice4.json", "--which", "falconer",
                                "--node-budget", "100000"]),
    ("dims:chain_non_multiplicative", ["dims", "chain_shear.json", "--which",
                                       "sstar,sa,falconer"]),
    *((f"validate:bad_map_{name}", ["validate", f"bad_map_{name}.json"])
      for name in ("non_square", "wrong_d", "nine_by_nine", "string_entry", "1e999")),
    # sampled clouds over several blocks of points: every word of an explicit
    # table, random codes whose count is no multiple of the block, d = 1 and
    # d = 3, given scales, and points off the seed box that render clips
    ("boxdim:explicit_scales", ["boxdim", "explicit.json", "--depth", "9", "--scales",
                                "0.3,0.1,0.03,0.01", "--out", "out/box"]),
    ("render:explicit", ["render", "explicit.json", "--depth", "9", "--resolution", "200",
                         "--out", "out/render.pgm"]),
    ("boxdim:alphabet_count_50001", ["boxdim", "alphabet.json", "--depth", "12", "--count",
                                     "50001", "--seed", "3", "--out", "out/box"]),
    ("render:alphabet_clipped", ["render", "alphabet.json", "--depth", "12", "--count", "50001",
                                 "--seed", "3", "--resolution", "300",
                                 "--out", "out/render.pgm"]),
    ("boxdim:d1_random_iid", ["boxdim", "iid_d1.json", "--depth", "16", "--count", "50001",
                              "--seed", "11", "--out", "out/box"]),
    ("boxdim:d3_digit_grid", ["boxdim", "grid_d3.json", "--depth", "8", "--out", "out/box"]),
    ("boxdim:d3_digit_grid_scales", ["boxdim", "grid_d3.json", "--depth", "8", "--scales",
                                     "0.25,0.125,0.0625,0.03125", "--out", "out/box"]),
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
    # periodic d = 2 diagonal levels whose coordinates keep one order of moduli
    # (ties and a negative entry included), so the generic walker serves them
    # as a multiplicative system
    ordered = {"dim": 2, "seed_region": {"lo": [0, 0], "hi": [1, 1]},
               "schedule": {"kind": "periodic", "levels": [
                   {"branch_count": 2, "maps": [[[0.5, 0], [0, 0.5]], [[-0.4, 0], [0, 0.3]]]},
                   {"branch_count": 3, "maps": [[[0.3, 0], [0, 0.2]], [[0.25, 0], [0, 0.25]],
                                                [[0.45, 0], [0, -0.1]]]}]},
               "translations": {"kind": "explicit", "table": {}}}
    z = -0.0
    # a level of I/3 three times and one of two shears twice each, with zeros of
    # either sign: equal maps, and a coordinate swap that takes one shear to the other
    shears = dict(ordered, schedule={"kind": "periodic", "levels": [
        {"branch_count": 3, "maps": [[[1 / 3, 0], [z, 1 / 3]], [[1 / 3, z], [0, 1 / 3]],
                                     [[1 / 3, 0], [0, 1 / 3]]]},
        {"branch_count": 4, "maps": [[[0.4, 0.2], [0, 0.4]], [[0.4, 0], [0.2, 0.4]],
                                     [[0.4, 0.2], [z, 0.4]], [[0.4, z], [0.2, 0.4]]]}]})
    # scalar maps (one with -0.0 off the diagonal) until levels[1].maps[2]
    later_non_scalar = dict(ordered, schedule={"kind": "periodic", "levels": [
        {"branch_count": 2, "maps": [[[0.25, z], [0, 0.25]], [[-1 / 3, 0], [0, -1 / 3]]]},
        {"branch_count": 4, "maps": [[[0.25, 0], [0, 0.25]], [[0.25, 0], [0, 0.25]],
                                     [[0.25, 0], [0, 0.2]], [[0.25, 0.01], [0, 0.25]]]}]})
    # levels[1].maps[1] neither contracts nor is invertible, levels[1].maps[2] is singular
    singular_later = dict(ordered, schedule={"kind": "periodic", "levels": [
        {"branch_count": 2, "maps": [[[0.5, 0], [0, 0.5]], [[0.5, 0], [0, 0.25]]]},
        {"branch_count": 3, "maps": [[[0.5, 0], [0, 0.5]], [[0.3, 1.2], [0.1, 0.4]],
                                     [[0.5, 0], [0, 0.0]]]}]})
    # four diagonal maps whose coordinates are ordered both ways: the lattice's DP
    lattice4 = dict(ordered, schedule={"kind": "constant", "levels": [
        {"branch_count": 4, "maps": [[[a, 0.0], [0.0, b]] for a, b in
                                     ((0.3, 0.2), (0.25, 0.3), (0.2, 0.25), (0.3, 0.3))]}]})
    # one map near 1/2 and two whose second singular value is below 1/100: a
    # constant generic level whose m = 2 cut-sets stop the thin maps' words early
    thin = dict(ordered, schedule={"kind": "constant", "levels": [
        {"branch_count": 3, "maps": [[[0.5, 0.1], [0, 0.45]], [[0.3, 0], [0.1, 0.002]],
                                     [[0.2, 0.05], [0, 0.001]]]}]})
    # three 3 x 3 maps with singular values near 0.5, 0.3 and 0.2, with no
    # symmetry for the walker to merge
    generic_d3 = {"dim": 3, "seed_region": {"lo": [0, 0, 0], "hi": [1, 1, 1]},
                  "schedule": {"kind": "constant", "levels": [{"branch_count": 3, "maps": [
                      [[0.45, 0.1, 0], [0, 0.3, 0.05], [0, 0, 0.2]],
                      [[0.3, 0, 0], [0.1, 0.45, 0], [0, 0.05, 0.2]],
                      [[0.2, 0, 0.05], [0, 0.2, 0], [0.1, 0, 0.45]]]}]},
                  "translations": {"kind": "explicit", "table": {}}}
    # one shear twice: a chain whose phi^s does not multiply along words
    chain_shear = dict(ordered, schedule={"kind": "constant", "levels": [
        {"branch_count": 2, "maps": [[[0.5, 0.25], [0, 0.4]]] * 2}]})
    # a level whose second map the parser names: not square, not d x d, 9 x 9
    # at "dim": 9, a string entry, and an entry 1e999, which JSON reads as inf
    nine = [[0.5 * (i == j) for j in range(9)] for i in range(9)]
    bad_maps = {name: dict(ordered, dim=dim, seed_region={"lo": [0] * dim, "hi": [1] * dim},
                           schedule={"kind": "constant", "levels": [
                               {"branch_count": 2, "maps": [good, bad]}]})
                for name, dim, good, bad in (
                    ("non_square", 2, [[0.5, 0], [0, 0.5]], [[0.5, 0, 0], [0, 0.5, 0]]),
                    ("wrong_d", 2, [[0.5, 0], [0, 0.5]], [[0.5]]),
                    ("nine_by_nine", 9, nine, nine),
                    ("string_entry", 2, [[0.5, 0], [0, 0.5]], [[0.5, "x"], [0, 0.5]]),
                    ("1e999", 2, [[0.5, 0], [0, 0.5]], [[0.5, 0], [0, "1e999"]]))}
    unit2 = {"lo": [0, 0], "hi": [1, 1]}
    # three maps, each word's translation read from a table of every word to
    # depth 9: 19,683 points
    words = [w for t in range(1, 10) for w in itertools.product((1, 2, 3), repeat=t)]
    explicit = {"dim": 2, "seed_region": unit2, "schedule": {"kind": "constant", "levels": [
        {"branch_count": 3, "maps": [[[1 / 3, 0], [0, 0.3]]] * 3}]},
        "translations": {"kind": "explicit", "table": {
            "-".join(map(str, w)): [(w[-1] - 1) / 3, (w[-1] * len(w)) % 3 * 0.3]
            for w in words}}}
    # 4^12 words, past the enumeration budget; negative translations take the
    # points below the seed box
    alphabet = {"dim": 2, "seed_region": unit2, "schedule": {"kind": "constant", "levels": [
        {"branch_count": 4, "maps": [[[0.45, 0.1], [0, 0.4]]] * 4}]},
        "translations": {"kind": "finite_alphabet", "seed": 5, "alphabet": [
            [0, 0], [0.7, -0.2], [-0.25, 0.6], [0.65, 0.75]]}}
    iid_d1 = {"dim": 1, "seed_region": {"lo": [0], "hi": [1]}, "schedule": {
        "kind": "constant",
        "levels": [{"branch_count": 3, "maps": [[[0.3]], [[0.3]], [[-0.25]]]}]},
        "translations": {"kind": "random_iid", "seed": 9, "region": {"lo": [0], "hi": [0.7]}}}
    grid_d3 = {"dim": 3, "seed_region": {"lo": [0, 0, 0], "hi": [1, 1, 1]}, "schedule": {
        "kind": "constant", "levels": [{"branch_count": 4,
                                        "maps": [[[0.5, 0, 0], [0, 0.4, 0], [0, 0, 0.3]]] * 4,
                                        "digits": [[0, 0, 0], [0.5, 0, 0], [0, 0.6, 0],
                                                   [0.5, 0.6, 0.7]]}]},
        "translations": {"kind": "digit_grid"}}
    return {"bad.json": '{"dim": 1,', "double.json": json.dumps(json.dumps(middle_thirds)),
            "explicit.json": json.dumps(explicit), "alphabet.json": json.dumps(alphabet),
            "iid_d1.json": json.dumps(iid_d1), "grid_d3.json": json.dumps(grid_d3),
            "d1.json": d1, "ordered.json": json.dumps(ordered),
            "shears.json": json.dumps(shears),
            "later_non_scalar.json": json.dumps(later_non_scalar),
            "singular_later.json": json.dumps(singular_later),
            "lattice4.json": json.dumps(lattice4), "chain_shear.json": json.dumps(chain_shear),
            "thin.json": json.dumps(thin), "generic_d3.json": json.dumps(generic_d3),
            **{f"bad_map_{name}.json": json.dumps(doc).replace('"1e999"', "1e999")
               for name, doc in bad_maps.items()}}


def imported_from(src, cwd):
    """The directory ``morandim`` is imported from with PYTHONPATH at ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", "import morandim; print(morandim.__file__)"],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    return os.path.dirname(os.path.realpath(proc.stdout.strip())) if proc.returncode == 0 else None


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
    differ = []
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as work:
        for src in (args.base_src, args.head_src):
            want = os.path.realpath(os.path.join(src, "morandim"))
            got = imported_from(src, work)
            if got != want:
                print(f"{src}: morandim imports from {got}, not {want}", file=sys.stderr)
                return 2
        files, jobs = inputs(args.base_src), job_list()
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
