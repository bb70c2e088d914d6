import functools
import math

import numpy as np
import pytest

from helpers import random_contraction, reference_log_svs, reference_op_norm
from morandim.errors import DimensionMismatch, NonsingularityViolated
from morandim.linalg import (dets, log_singular_values, op_norm, op_norms, singular_values,
                             sv2_batch)
from morandim.svf import log_phi, log_phi_from_logs, phi
from morandim.system import fixture, fixture_names


def test_singular_values_diagonal():
    sv = singular_values(np.diag([1 / 9, 1 / 3]))
    assert sv == pytest.approx((1 / 3, 1 / 9))


def test_singular_values_scalar():
    sv = singular_values(np.diag([0.5, 0.5]))
    assert sv == pytest.approx((0.5, 0.5))


def test_singular_values_shear_oracle():
    # quadratic-formula eigenvalues of T^T T for [[.5,.5],[0,.5]]
    sv = singular_values([[0.5, 0.5], [0.0, 0.5]])
    assert type(sv) is tuple and all(type(v) is float for v in sv)
    assert sv[0] == pytest.approx(0.809017, abs=1e-6)
    assert sv[1] == pytest.approx(0.309017, abs=1e-6)


def test_singular_values_and_phi_are_inf_past_the_float_range():
    # 1.5e308 * sqrt(2) times an orthogonal map: sigma_1 = sigma_2 = 2.12e308
    a = 1.5e308
    m = [[a, a], [a, -a]]
    assert op_norm(m) == math.inf
    assert singular_values(m) == (math.inf, math.inf)
    assert phi(m, 1.0) == math.inf and phi(m, 2.0) == math.inf
    # phi^(1/2) = sqrt(sigma_1) is finite and carries exp's bits
    assert phi(m, 0.5) == math.exp(0.5 * (math.log(a) + 0.5 * math.log(2.0)))


def test_singular_matrix_rejected():
    with pytest.raises(NonsingularityViolated):
        singular_values([[0.0, 0.0], [0.0, 0.5]])


def test_a_subnormal_pivot_is_rejected_without_a_warning():
    # numpy's det warns on this map; pyproject turns a warning into an error
    with pytest.raises(NonsingularityViolated, match=r"near-singular"):
        singular_values([[0.0, 0.0], [2.2250738585e-309, 0.25]])


def test_op_norm_values():
    assert op_norm(np.diag([1 / 9, 1 / 3])) == pytest.approx(1 / 3)
    assert op_norm(np.diag([0.5, 0.5])) == pytest.approx(0.5)
    assert op_norm([[0.5, 0.5], [0.0, 0.5]]) == pytest.approx(0.809017, abs=1e-6)


@pytest.mark.parametrize("fn", [op_norm, log_singular_values, singular_values,
                                lambda m: log_phi(m, 1.0), lambda m: phi(m, 1.0)],
                         ids=["op_norm", "log_singular_values", "singular_values", "log_phi",
                              "phi"])
def test_matrix_validation(fn):
    with pytest.raises(DimensionMismatch, match=r"^matrix must be square, got shape \(1, 2\)$"):
        fn([[1.0, 2.0]])
    with pytest.raises(DimensionMismatch, match=r"^dim must be in \[1, 8\], got 9$"):
        fn(np.eye(9))
    with pytest.raises(ValueError, match=r"^matrix entries must be finite$"):
        fn([[math.inf]])


# entries in (-0.7, 0.7), op norm below 0.95, |det| above 1e-6
_random_contraction = functools.partial(random_contraction, entry=0.7, norms=(0.0, 0.95),
                                        min_det=1e-6)


def test_sv_product_matches_det_1000():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        m = _random_contraction(rng)
        sv = singular_values(m)
        prod = sv[0] * sv[1]
        assert prod == pytest.approx(abs(np.linalg.det(m)), rel=1e-9)


def test_op_norm_submultiplicative():
    rng = np.random.default_rng(202)
    for _ in range(300):
        a = _random_contraction(rng)
        b = _random_contraction(rng)
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) * (1 + 1e-12)


def test_orthogonal_invariance():
    rng = np.random.default_rng(303)
    for _ in range(200):
        m = _random_contraction(rng)
        theta = rng.uniform(0, 2 * math.pi)
        q = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        rotated = q.T @ m @ q
        assert np.allclose(singular_values(rotated), singular_values(m), rtol=1e-9)


def test_higher_dimension_svd_path():
    rng = np.random.default_rng(404)
    m = np.diag([0.5, 0.4, 0.3]) @ (np.eye(3) + 0.1 * rng.uniform(-1, 1, (3, 3)))
    sv = singular_values(m)
    ref = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(sv, ref, rtol=1e-10)


def test_one_by_one_singular_value_is_the_entry_bit_for_bit():
    # a 1 x 1 matrix goes through the SVD path: rescaled to +-1, whose
    # singular value is exactly 1.0, at any magnitude
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.example(1e300)
    @hypothesis.example(-1e-300)
    @hypothesis.example(5e-324)
    @hypothesis.example(-1.7976931348623157e308)
    @hypothesis.given(hypothesis.strategies.floats(allow_nan=False, allow_infinity=False)
                      .filter(bool))
    def check(x):
        m = [[x]]
        assert op_norm(m) == abs(x)
        assert log_singular_values(m) == (math.log(abs(x)),)

    check()


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _reference_exp(x: float) -> float:
    """``math.exp(x)``, or inf where it raises OverflowError past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _check_reference_bits(stack):
    """``op_norms``, ``op_norm``, ``log_singular_values``, ``singular_values``,
    ``log_phi`` and ``phi`` of an (n, d, d) stack carry the per-matrix
    reference's bits, ``singular_values`` and ``phi`` inf where its exp is
    past the float range; a singular matrix raises where the reference finds
    a zero singular value, and ``singular_values`` where |det| <= 1e-14."""
    want = [reference_op_norm(m) for m in stack]
    assert op_norms(stack).tobytes() == _bits(want)
    for m, norm in zip(stack, want):
        assert _bits(op_norm(m)) == _bits(norm)
        logs = reference_log_svs(m)
        if logs is None:
            for fn in (log_singular_values, singular_values, lambda m: log_phi(m, 1.0)):
                with pytest.raises(NonsingularityViolated):
                    fn(m)
            continue
        assert _bits(log_singular_values(m)) == _bits(logs)
        if abs(dets(m)) <= 1e-14:
            with pytest.raises(NonsingularityViolated):
                singular_values(m)
        else:
            assert _bits(singular_values(m)) == _bits([_reference_exp(v) for v in logs])
        d = len(m)
        for s in (0.5, 1.0, 1.5, d, d + 0.5):
            want_log = float(log_phi_from_logs(np.array(logs), s))
            assert _bits(log_phi(m, s)) == _bits(want_log)
            assert _bits(phi(m, s)) == _bits(_reference_exp(want_log))


@pytest.mark.parametrize("name", fixture_names())
def test_singular_values_keep_the_reference_bits_on_every_fixture(name):
    for lvl in fixture(name).schedule.levels:
        _check_reference_bits(lvl.array)


def test_singular_values_keep_the_reference_bits_on_a_wide_random_stack():
    """At d = 2, np.hypot gives other bits than math.hypot on about 0.5% of
    random maps, so a largest singular value taken through ``sv2_batch``
    fails here (checked below)."""
    rng = np.random.default_rng(505)
    stack = rng.uniform(-1.0, 1.0, (3000, 2, 2))
    _check_reference_bits(stack)
    scale = np.abs(stack).max(axis=(1, 2))
    assert (scale * sv2_batch(stack / scale[:, None, None])[0]).tobytes() != \
        op_norms(stack).tobytes()


def test_singular_values_keep_the_reference_bits_on_generated_maps():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, strategies as st

    entries = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324]),
                        st.floats(-1.7e308, 1.7e308),
                        st.floats(-2.0, 2.0), st.floats(-1e-290, 1e-290))

    @example([[[0.0, 1e-300], [-0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
    @example([[[0.0, 0.0], [1.5e308, 1.5e308]]])  # the op norm is past the float range
    # sigma_1 and phi^1 are past the float range, the map nonsingular: both are inf
    @example([[[1.5e308, 1.5e308], [1.5e308, -1.5e308]]])
    @given(st.integers(1, 3).flatmap(
        lambda d: st.lists(st.one_of(st.just([[0.0] * d] * d),
                                     st.lists(st.lists(entries, min_size=d, max_size=d),
                                              min_size=d, max_size=d)),
                           min_size=1, max_size=6)))
    def check(maps):
        _check_reference_bits(np.array(maps, dtype=float))

    check()
