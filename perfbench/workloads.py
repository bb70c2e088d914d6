"""Job lists and correctness checks of the three workloads.

Every job is one ``morandim.cli.main(argv)`` call.  Checks use the bounds of
``tests/test_acceptance.py`` unchanged (criterion numbers C1..C12 there);
reference values from the seed commit live in ``reference.json``.
"""
from __future__ import annotations

import json
import math
import os

TOL = 0.02
THREADS = "2"
REFERENCE = json.load(open(os.path.join(os.path.dirname(__file__), "reference.json")))
BOX_TARGET = (5 * math.log(3) + 3 * math.log(2)) / (6 * math.log(3))

NON_GENERIC = ("middle_thirds", "example_5_4", "sierpinski_carpet", "similarity_pair",
               "diag_triple", "random_diag_pair", "scalar_blocks", "random_affine")
CONSTANT = ("diag_triple", "middle_thirds", "random_affine", "random_diag_pair",
            "sierpinski_carpet", "similarity_pair")
CUTSETS = (("middle_thirds", "0.7", "0.01"), ("example_5_4", "1.2", "1e-3"),
           ("random_diag_pair", "0.7", "0.005"), ("example_5_3", "1.1", "0.01"),
           ("sierpinski_carpet", "1.5", "0.02"))
VALIDATE = {"example_5_1": (2, "DiameterNotVanishing"),
            "example_5_2": (2, "NonsingularityViolated"),
            "middle_thirds": (0, None)}
# C5 closed forms of the stationary pressure roots
FALCONER_CLOSED = {"similarity_pair": math.log(2) / math.log(3),
                   "diag_triple": 1 + math.log(1.5) / math.log(4)}
STATIONARY = ("similarity_pair", "diag_triple", "random_diag_pair")

NAMES = ("generic_tree", "aggregated_sweep", "attractor_sampling")


def _dims(fixture, which):
    return ["dims", "--fixture", fixture, "--which", which, "--tol", str(TOL),
            "--threads", THREADS]


def jobs(workload, out, seed):
    """[(job id, argv, data files the job writes)] for one pass into ``out``."""
    if workload == "generic_tree":
        return [("dims:example_5_3", _dims("example_5_3", "sstar,sa"), [])]
    if workload == "aggregated_sweep":
        out_jobs = [(f"dims:{f}", _dims(f, "sstar,sa"), []) for f in NON_GENERIC]
        out_jobs += [(f"falconer:{f}", _dims(f, "falconer"), []) for f in CONSTANT]
        out_jobs.append(("moran:scalar_blocks", _dims("scalar_blocks", "moran"), []))
        for f, s, eps in CUTSETS:
            path = os.path.join(out, f"cutset_{f}.csv")
            out_jobs.append((f"cutset:{f}", ["cutset", "--fixture", f, "--s", s,
                                             "--epsilon", eps, "--out", path], [path]))
        out_jobs += [(f"validate:{f}", ["validate", "--fixture", f], []) for f in VALIDATE]
        return out_jobs
    if workload == "attractor_sampling":
        out_jobs = []
        for f in ("example_5_4", "random_affine"):
            d = os.path.join(out, f"boxdim_{f}")
            out_jobs.append((f"boxdim:{f}", ["boxdim", "--fixture", f, "--seed", str(seed),
                                             "--out", d],
                             [os.path.join(d, "curve.csv"), os.path.join(d, "report.json")]))
        for f, depth, res in (("sierpinski_carpet", "5", "243"), ("example_5_4", "10", "729")):
            path = os.path.join(out, f"render_{f}", "render.pgm")
            out_jobs.append((f"render:{f}", ["render", "--fixture", f, "--depth", depth,
                                             "--resolution", res, "--seed", str(seed),
                                             "--out", path], [path]))
        return out_jobs
    raise ValueError(f"unknown workload {workload!r}")


def fixtures(workload):
    """Fixture names a workload's jobs load, parsed once in set-up."""
    names = []
    for _, argv, _ in jobs(workload, "", 0):
        name = argv[argv.index("--fixture") + 1]
        if name not in names:
            names.append(name)
    return names


def _lines(result):
    return [json.loads(line) for line in result["stdout"].splitlines() if line.strip()]


def _by_quantity(result):
    return {obj["quantity"]: obj for obj in _lines(result)}


def _check_dims(job_id, result, found, problems):
    reps = _by_quantity(result)
    for q in ("s_star", "s_A"):
        if reps.get(q, {}).get("estimate") is None:
            problems.append(f"{q} has no estimate")
            return
    ss, sa = reps["s_star"]["estimate"], reps["s_A"]["estimate"]
    found[job_id] = (ss, sa)
    fixture = job_id.split(":", 1)[1]
    if fixture == "example_5_4":  # C1
        if abs(ss - 4 / 3) > 0.05 or abs(sa - 7 / 6) > 0.05:
            problems.append(f"C1: s*={ss}, s_A={sa} not within 0.05 of 4/3, 7/6")
    if fixture == "example_5_3":  # C3 and agreement with the seed commit
        ref = REFERENCE["example_5_3"]
        if not sa <= ss + 2 * TOL:
            problems.append(f"C3: s_A={sa} > s*={ss} + 2 tol")
        if abs(ss - ref["s_star"]) > 2 * TOL or abs(sa - ref["s_A"]) > 2 * TOL:
            problems.append(f"s*={ss}, s_A={sa} off the seed values {ref} by > 2 tol")


def _check_boxdim(job_id, result, files, problems):
    rep = _lines(result)[0]
    slope, r2 = rep["estimate"], rep["r2"]
    if job_id == "boxdim:example_5_4":  # C2
        if abs(slope - BOX_TARGET) > 0.08 or r2 < 0.98:
            problems.append(f"C2: slope={slope}, r2={r2}")
    else:  # C11
        sa = REFERENCE["random_affine"]["s_A"]
        if slope < sa - 0.1:
            problems.append(f"C11: slope={slope} < s_A - 0.1 = {sa - 0.1}")
    with open(files[0]) as f:
        rows = f.read().splitlines()[1:]
    if len(rows) != len(rep["trace"]):
        problems.append("curve.csv row count differs from the reported trace")
    with open(files[1]) as f:
        if json.load(f) != rep:
            problems.append("report.json differs from the printed report")


def _check_render(job_id, result, files, problems):
    rep = _lines(result)[0]
    with open(files[0], "rb") as f:
        data = f.read()
    res = rep["resolution"]
    header = f"P5\n{res} {res}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + res * res:
        problems.append("malformed P5 file")
        return
    occupied = sum(1 for b in data[len(header):] if b)
    if occupied != rep["occupied_pixels"] or occupied == 0:
        problems.append(f"{occupied} occupied pixels, report says {rep['occupied_pixels']}")
    if job_id == "render:sierpinski_carpet" and occupied != 8 ** 5:
        problems.append(f"depth-5 carpet covers {occupied} pixels, not 8^5")


def check(workload, results):
    """{job id: [problem, ...]} for one pass; an empty list means correct."""
    problems = {}
    found = {}
    for job_id, argv, files, result in results:
        p = problems.setdefault(job_id, [])
        kind, fixture = job_id.split(":", 1)
        expect_rc = VALIDATE[fixture][0] if kind == "validate" else 0
        if result["rc"] != expect_rc:
            p.append(f"exit code {result['rc']}, expected {expect_rc}: {result['stderr'][-300:]}")
            continue
        try:
            if kind == "dims":
                _check_dims(job_id, result, found, p)
            elif kind == "falconer":
                root = _lines(result)[0]["estimate"]
                found[job_id] = root
                if fixture in FALCONER_CLOSED and abs(root - FALCONER_CLOSED[fixture]) > 1e-6:
                    p.append(f"C5: root {root} vs closed form {FALCONER_CLOSED[fixture]}")
            elif kind == "moran":
                found[job_id] = _by_quantity(result)["moran_upper"]["estimate"]
            elif kind == "cutset":
                summary = _lines(result)[0]
                with open(files[0]) as f:
                    rows = sum(1 for _ in f) - 1
                if summary["truncated"] or rows != summary["word_count"]:
                    p.append(f"{rows} CSV rows, word_count {summary['word_count']}, "
                             f"truncated {summary['truncated']}")
            elif kind == "validate":
                codes = {f["code"] for f in _lines(result)[0]["findings"]}
                want = VALIDATE[fixture][1]
                if (want is None and codes) or (want is not None and want not in codes):
                    p.append(f"findings {sorted(codes)}, expected {want}")
            elif kind == "boxdim":
                _check_boxdim(job_id, result, files, p)
            elif kind == "render":
                _check_render(job_id, result, files, p)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError, OSError) as exc:
            p.append(f"unreadable output: {exc!r}")
    if workload == "aggregated_sweep":
        for fixture in STATIONARY:  # C4
            key = f"dims:{fixture}"
            root = found.get(f"falconer:{fixture}")
            if key in found and root is not None:
                worst = max(abs(v - root) for v in found[key])
                if worst > 0.02:
                    problems[key].append(f"C4: estimate {worst} from the pressure root")
        upper = found.get("moran:scalar_blocks")
        if "dims:scalar_blocks" in found and upper is not None:  # C8
            diff = abs(found["dims:scalar_blocks"][0] - upper)
            if diff > 0.05:
                problems["dims:scalar_blocks"].append(f"C8: |s* - d_upper| = {diff}")
    return problems
