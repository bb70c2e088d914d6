import functools
import math

import numpy as np
import pytest

from helpers import random_contraction
from morandim.linalg import singular_values
from morandim.svf import branch_index, log_phi, phi
from morandim.system import alpha_bounds, fixture
from morandim.symbolic import Word, product

D = np.diag([1 / 9, 1 / 3])


def test_phi_diagonal_values():
    assert phi(D, 1.5) == pytest.approx(1 / 9)
    assert phi(D, 0.5) == pytest.approx(3 ** -0.5)
    assert phi(D, 3.0) == pytest.approx((1 / 27) ** 1.5)
    assert phi(D, 0.0) == 1.0


def test_phi_rejects_negative_exponent():
    with pytest.raises(ValueError):
        phi(D, -0.1)


def test_log_phi_values():
    assert log_phi(D, 1.5) == pytest.approx(math.log(1 / 9), abs=1e-12)
    half = np.diag([0.5, 0.5])
    assert log_phi(half, 2.0) == pytest.approx(2 * math.log(0.5), abs=1e-12)


def test_log_phi_deep_power_stays_finite():
    m = D
    for _ in range(199):
        m = m @ D
    lp = log_phi(m, 1.0)
    assert lp == pytest.approx(200 * math.log(1 / 3), rel=1e-12)
    assert math.isfinite(lp)


def test_branch_index():
    assert branch_index(0.5, 2) == 1
    assert branch_index(1.0, 2) == 1
    assert branch_index(1.2, 2) == 2
    assert branch_index(2.0, 2) == 2
    assert branch_index(2.5, 2) == 2  # clamped above ambient


# entries in (-0.7, 0.7), op norm below 0.95, |det| above 1e-6
_random_contraction = functools.partial(random_contraction, entry=0.7, norms=(0.0, 0.95),
                                        min_det=1e-6)


EXPONENTS = (0.3, 1.0, 1.5, 2.0, 2.7)


def test_submultiplicativity_1000_pairs():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = _random_contraction(rng)
        b = _random_contraction(rng)
        ab = a @ b
        for s in EXPONENTS:
            assert phi(ab, s) <= phi(a, s) * phi(b, s) * (1 + 1e-9)


def test_strict_monotonicity_in_s():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = _random_contraction(rng)
        if singular_values(m)[0] >= 1.0:
            continue
        grid = sorted(rng.uniform(0.05, 2.8, 6))
        vals = [phi(m, s) for s in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_integer_breakpoint_continuity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = _random_contraction(rng)
        for brk in (1, 2):
            lo = phi(m, brk - 1e-9)
            hi = phi(m, brk + 1e-9)
            assert hi == pytest.approx(lo, rel=1e-7)


def test_sandwich_bound_on_words():
    spec = fixture("example_5_4")
    ab = alpha_bounds(spec)
    rng = np.random.default_rng(10)
    cache = {}
    for _ in range(50):
        k = int(rng.integers(1, 8))
        w = Word(tuple(int(rng.integers(1, spec.branch_count(j) + 1))
                       for j in range(1, k + 1)))
        node = product(spec, w, cache)
        for s in (0.7, 1.3, 1.9):
            val = math.exp(node.log_phi(s))
            assert ab.alpha_minus ** (s * k) * (1 - 1e-9) <= val
            assert val <= ab.alpha_plus ** (s * k) * (1 + 1e-9)
