"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
"""
import dataclasses
import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from morandim.attractor import boxdim_fit, default_scales, sample_cloud, select_scales
from morandim.dims import (
    estimate_sA,
    estimate_sstar,
    moran_dims,
    net_measure,
    pressure_root,
)
from morandim.linalg import Matrix, mat_mul, op_norm
from morandim.svf import phi
from morandim.symbolic import Word, cutset, cutset_sum, product
from morandim.system import (
    Box,
    LevelSpec,
    Schedule,
    SystemSpec,
    TranslationScheme,
    alpha_bounds,
    fixture,
)

CLI = [sys.executable, "-m", "morandim.cli"]
TOL = 0.02
BOX_TARGET = (5 * math.log(3) + 3 * math.log(2)) / (6 * math.log(3))


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_01_example_5_4_critical_values():
    t0 = time.monotonic()
    proc = run_cli("dims", "--fixture", "example_5_4", "--which", "sstar,sa",
                   "--tol", str(TOL))
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    reps = {json.loads(l)["quantity"]: json.loads(l)
            for l in proc.stdout.strip().splitlines()}
    s_star = reps["s_star"]["estimate"]
    s_a = reps["s_A"]["estimate"]
    ok = (abs(s_star - 4 / 3) <= 0.05 and abs(s_a - 7 / 6) <= 0.05
          and elapsed <= 60.0)
    report("C1", ok,
           f"s*={s_star:.4f} (target 4/3), s_A={s_a:.4f} (target 7/6), "
           f"{elapsed:.1f}s <= 60s")


def test_criterion_02_example_5_4_box_dimension():
    t0 = time.monotonic()
    proc = run_cli("boxdim", "--fixture", "example_5_4")
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout.strip())
    slope, r2 = rep["estimate"], rep["r2"]
    ok = abs(slope - BOX_TARGET) <= 0.08 and r2 >= 0.98 and elapsed <= 120.0
    report("C2", ok,
           f"slope={slope:.4f} (target {BOX_TARGET:.4f}), r2={r2:.4f}, "
           f"{elapsed:.1f}s <= 120s")


ORDERING_FIXTURES = (
    "middle_thirds", "example_5_3", "example_5_4", "sierpinski_carpet",
    "similarity_pair", "diag_triple", "random_diag_pair", "scalar_blocks",
    "random_affine",
)


def test_criterion_03_ordering_sA_below_sstar():
    gaps = {}
    ok = True
    for name in ORDERING_FIXTURES:
        spec = fixture(name)
        budget = 400_000 if name == "example_5_3" else 10_000_000
        ss = estimate_sstar(spec, tol=TOL, node_budget=budget).estimate
        sa = estimate_sA(spec, tol=TOL, node_budget=budget).estimate
        gaps[name] = (sa, ss)
        if not sa <= ss + 2 * TOL:
            ok = False
    sa54, ss54 = gaps["example_5_4"]
    strict_gap = ss54 - sa54
    ok = ok and strict_gap >= 0.10
    report("C3", ok,
           f"s_A <= s* + 2 tol on {len(ORDERING_FIXTURES)} fixtures; "
           f"example_5_4 gap {strict_gap:.3f} >= 0.10")


STATIONARY = ("similarity_pair", "diag_triple", "random_diag_pair")


def test_criterion_04_stationary_consistency():
    worst = 0.0
    for name in STATIONARY:
        spec = fixture(name)
        root = pressure_root(spec).estimate
        ss = estimate_sstar(spec, tol=TOL).estimate
        sa = estimate_sA(spec, tol=TOL).estimate
        worst = max(worst, abs(ss - root), abs(sa - root))
    report("C4", worst <= 0.02,
           f"max |estimate - pressure root| = {worst:.4f} <= 0.02 over "
           f"{len(STATIONARY)} stationary fixtures")


def test_criterion_05_closed_form_pressure_roots():
    pair = pressure_root(fixture("similarity_pair")).estimate
    quad = pressure_root(dataclasses.replace(fixture("similarity_pair"), schedule=Schedule(
        "constant", (LevelSpec(4, (Matrix.diagonal([0.5, 0.5]),) * 4),)))).estimate
    triple = pressure_root(fixture("diag_triple")).estimate
    errs = (abs(pair - math.log(2) / math.log(3)),
            abs(quad - 2.0),
            abs(triple - (1 + math.log(1.5) / math.log(4))))
    report("C5", max(errs) <= 1e-6,
           f"closed-form root errors {tuple(f'{e:.2e}' for e in errs)} <= 1e-6")


def _random_contraction(rng):
    while True:
        m = Matrix(rng.uniform(-0.6, 0.6, (2, 2)))
        if 0.15 < op_norm(m) < 0.9 and abs(m.det()) > 1e-3:
            return m


def _random_spec(rng, n_levels):
    levels = []
    for _ in range(n_levels):
        n = int(rng.integers(2, 4))
        levels.append(LevelSpec(n, tuple(_random_contraction(rng) for _ in range(n))))
    return SystemSpec(2, Schedule("explicit_prefix_then_periodic", tuple(levels),
                                  period=1),
                      TranslationScheme("explicit", table={}),
                      Box(np.zeros(2), np.ones(2)))


def _brute_cover_min(spec, s, k, K):
    cache = {}

    def options(word, depth):
        node = product(spec, Word(word), cache)
        costs = []
        if depth >= k:
            costs.append(math.exp(node.log_phi(s)))
        if depth < K:
            child_opts = [options(word + (j,), depth + 1)
                          for j in range(1, spec.branch_count(depth + 1) + 1)]
            for combo in itertools.product(*child_opts):
                costs.append(sum(combo))
        return costs

    root_opts = [options((j,), 1) for j in range(1, spec.branch_count(1) + 1)]
    return min(sum(c) for c in itertools.product(*root_opts))


def test_criterion_06_net_measure_oracle_equivalence():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for trial in range(50):
        n_levels = 2 if trial % 2 == 0 else 3
        spec = _random_spec(rng, n_levels)
        s = float(rng.uniform(0.2, 2.5))
        dp = net_measure(spec, s, 1, n_levels).value
        bf = _brute_cover_min(spec, s, 1, n_levels)
        worst = max(worst, abs(dp - bf))
    report("C6", worst <= 1e-12,
           f"DP vs exhaustive cover enumeration: worst |diff| = {worst:.2e} "
           "over 50 random 2- and 3-level systems")


def test_criterion_07_phi_property_suite():
    rng = np.random.default_rng(424242)
    exponents = (0.3, 1.0, 1.5, 2.0, 2.7)
    violations = 0
    for _ in range(1000):
        a, b = _random_contraction(rng), _random_contraction(rng)
        ab = mat_mul(a, b)
        for s in exponents:
            if phi(ab, s) > phi(a, s) * phi(b, s) * (1 + 1e-9):
                violations += 1
    for _ in range(200):
        m = _random_contraction(rng)
        if op_norm(m) >= 1.0:
            continue
        grid = sorted(rng.uniform(0.05, 2.8, 5))
        vals = [phi(m, s) for s in grid]
        if not all(x > y for x, y in zip(vals, vals[1:])):
            violations += 1
        for brk in (1, 2):
            lo, hi = phi(m, brk - 1e-9), phi(m, brk + 1e-9)
            if abs(hi - lo) > 1e-7 * lo:
                violations += 1
    report("C7", violations == 0,
           f"{violations} violations across submultiplicativity (1000 pairs x "
           "5 exponents), monotonicity, and breakpoint continuity")


def test_criterion_08_moran_scalar_cross_check():
    spec = fixture("scalar_blocks")
    _, upper = moran_dims(spec, k_max=200)
    ss = estimate_sstar(spec, tol=TOL).estimate
    diff = abs(ss - upper.estimate)
    report("C8", diff <= 0.05,
           f"|s* - d_upper| = {diff:.4f} <= 0.05 "
           f"(s*={ss:.4f}, d_upper={upper.estimate:.4f})")


CUTSET_FIXTURES = (
    ("middle_thirds", 0.7, 0.01),
    ("example_5_4", 1.2, 1e-3),
    ("random_diag_pair", 0.7, 0.005),
    ("example_5_3", 1.1, 0.01),
    ("sierpinski_carpet", 1.5, 0.02),
)


def test_criterion_09_cutset_structural_suite():
    violations = 0
    rng = np.random.default_rng(99)
    for name, s, eps in CUTSET_FIXTURES:
        spec = fixture(name)
        c = cutset(spec, s, eps)
        words = [w.digits for w, _ in c.entries()]
        depth_max = max(len(w) for w in words) + 3
        for _ in range(100):
            tail = tuple(int(rng.integers(1, spec.branch_count(k) + 1))
                         for k in range(1, depth_max + 1))
            if sum(1 for w in words if tail[: len(w)] == w) != 1:
                violations += 1
        ab = alpha_bounds(spec)
        for g in c.groups:
            if not (math.log(ab.alpha_minus) + math.log(eps) - 1e-9
                    < g.log_alpha_m <= math.log(eps) + 1e-9):
                violations += 1
    report("C9", violations == 0,
           f"{violations} violations of the antichain/cover property and "
           "two-sided bound across 5 fixtures x 100 random words")


def test_criterion_10_validation_fixtures():
    results = {}
    for name in ("example_5_1", "example_5_2", "middle_thirds"):
        proc = run_cli("validate", "--fixture", name)
        obj = json.loads(proc.stdout.strip())
        results[name] = (proc.returncode, {f["code"] for f in obj["findings"]})
    ok = (results["example_5_1"][0] == 2
          and "DiameterNotVanishing" in results["example_5_1"][1]
          and results["example_5_2"][0] == 2
          and "NonsingularityViolated" in results["example_5_2"][1]
          and results["middle_thirds"][0] == 0
          and not results["middle_thirds"][1])
    report("C10", ok, f"exit codes/findings: { {k: v[0] for k, v in results.items()} }"
                      " == {example_5_1: 2, example_5_2: 2, middle_thirds: 0}")


def test_criterion_11_random_translation_boxdim():
    spec = fixture("random_affine")
    assert op_norm(spec.schedule.levels[0].maps[0]) < 0.5
    sa = estimate_sA(spec, tol=TOL).estimate
    passes = 0
    slopes = []
    for seed in range(5):
        cloud = sample_cloud(spec, 12, mode="random_codes", count=100_000,
                             seed=seed)
        scales = select_scales(cloud, default_scales(spec, 12))
        curve = boxdim_fit(cloud, scales)
        slopes.append(curve.slope)
        if curve.slope >= sa - 0.1:
            passes += 1
    report("C11", passes >= 4,
           f"boxdim slope >= s_A - 0.1 in {passes}/5 seeded runs "
           f"(s_A={sa:.3f}, slopes={[round(s, 3) for s in slopes]})")


def test_criterion_12_determinism(tmp_path):
    outputs = {}
    for threads in ("1", "8"):
        for attempt in ("x", "y"):
            tag = f"{threads}{attempt}"
            out_dims = tmp_path / f"dims{tag}"
            p1 = run_cli("dims", "--fixture", "example_5_4", "--which", "sstar,sa",
                         "--threads", threads, "--out", str(out_dims))
            out_box = tmp_path / f"box{tag}"
            p2 = run_cli("boxdim", "--fixture", "example_5_4", "--depth", "8",
                         "--count", "50000", "--seed", "7", "--threads", threads,
                         "--out", str(out_box))
            pgm = tmp_path / f"render{tag}.pgm"
            p3 = run_cli("render", "--fixture", "sierpinski_carpet", "--depth", "5",
                         "--resolution", "243", "--seed", "7",
                         "--threads", threads, "--out", str(pgm))
            assert p1.returncode == p2.returncode == p3.returncode == 0
            outputs[tag] = (
                p1.stdout,
                (out_dims / "s_star.json").read_bytes(),
                (out_dims / "s_A.json").read_bytes(),
                (out_box / "curve.csv").read_bytes(),
                (out_box / "report.json").read_bytes(),
                pgm.read_bytes(),
            )
    baseline = outputs["1x"]
    ok = all(outputs[tag] == baseline for tag in ("1y", "8x", "8y"))
    report("C12", ok,
           "byte-identical JSON/CSV/P5 outputs across reruns at --threads 1 and 8")
