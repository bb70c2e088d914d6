import math

import numpy as np
import pytest

from morandim.errors import DimensionMismatch, NonsingularityViolated
from morandim.linalg import Matrix, log_singular_values, mat_mul, op_norm, singular_values


def test_mat_mul_diagonal():
    a = Matrix.diagonal([1 / 9, 1 / 3])
    assert np.allclose(mat_mul(a, a).entries, np.diag([1 / 81, 1 / 9]))


def test_mat_mul_identity():
    m = Matrix.from_rows([[0.3, 0.1], [0.2, 0.4]])
    assert np.allclose(mat_mul(Matrix.identity(2), m).entries, m.entries)


def test_mat_mul_hand_oracle():
    a = Matrix.from_rows([[0.5, 0.5], [0.0, 0.5]])
    b = Matrix.from_rows([[0.5, 0.0], [0.5, 0.5]])
    assert np.allclose(mat_mul(a, b).entries, [[0.5, 0.25], [0.25, 0.25]])


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_mul(Matrix.identity(2), Matrix.identity(3))


def test_singular_values_diagonal():
    sv = singular_values(Matrix.diagonal([1 / 9, 1 / 3]))
    assert sv.values == pytest.approx((1 / 3, 1 / 9))


def test_singular_values_scalar():
    sv = singular_values(Matrix.diagonal([0.5, 0.5]))
    assert sv.values == pytest.approx((0.5, 0.5))


def test_singular_values_shear_oracle():
    # quadratic-formula eigenvalues of T^T T for [[.5,.5],[0,.5]]
    sv = singular_values(Matrix.from_rows([[0.5, 0.5], [0.0, 0.5]]))
    assert sv.values[0] == pytest.approx(0.809017, abs=1e-6)
    assert sv.values[1] == pytest.approx(0.309017, abs=1e-6)


def test_singular_matrix_rejected():
    with pytest.raises(NonsingularityViolated):
        singular_values(Matrix.from_rows([[0.0, 0.0], [0.0, 0.5]]))


def test_op_norm_values():
    assert op_norm(Matrix.diagonal([1 / 9, 1 / 3])) == pytest.approx(1 / 3)
    assert op_norm(Matrix.diagonal([0.5, 0.5])) == pytest.approx(0.5)
    assert op_norm(Matrix.from_rows([[0.5, 0.5], [0.0, 0.5]])) == pytest.approx(
        0.809017, abs=1e-6
    )


def test_matrix_validation():
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        Matrix(np.eye(9))
    with pytest.raises(ValueError):
        Matrix.from_rows([[math.inf]])


def _random_contraction(rng, d=2):
    while True:
        m = Matrix(rng.uniform(-0.7, 0.7, (d, d)))
        if op_norm(m) < 0.95 and abs(m.det()) > 1e-6:
            return m


def test_sv_product_matches_det_1000():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        m = _random_contraction(rng)
        sv = singular_values(m)
        prod = sv.values[0] * sv.values[1]
        assert prod == pytest.approx(abs(m.det()), rel=1e-9)


def test_op_norm_submultiplicative():
    rng = np.random.default_rng(202)
    for _ in range(300):
        a = _random_contraction(rng)
        b = _random_contraction(rng)
        assert op_norm(mat_mul(a, b)) <= op_norm(a) * op_norm(b) * (1 + 1e-12)


def test_orthogonal_invariance():
    rng = np.random.default_rng(303)
    for _ in range(200):
        m = _random_contraction(rng)
        theta = rng.uniform(0, 2 * math.pi)
        q = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        rotated = Matrix(q.T @ m.entries @ q)
        assert np.allclose(
            singular_values(rotated).values, singular_values(m).values, rtol=1e-9
        )


def test_higher_dimension_svd_path():
    rng = np.random.default_rng(404)
    m = Matrix(np.diag([0.5, 0.4, 0.3]) @ (np.eye(3) + 0.1 * rng.uniform(-1, 1, (3, 3))))
    sv = singular_values(m)
    ref = np.linalg.svd(m.entries, compute_uv=False)
    assert np.allclose(sv.values, ref, rtol=1e-10)


def test_equal_matrices_hash_equal():
    # -0.0 == 0.0, so a map and its image under a sign flip that negates a
    # zero entry are one key in a dict or Counter
    a = Matrix.from_rows([[0.5, -0.0], [0.0, 0.5]])
    b = Matrix.from_rows([[0.5, 0.0], [-0.0, 0.5]])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Matrix.from_rows([[0.5, 0.0], [0.0, 0.5]])}) == 1


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
        m = Matrix([[x]])
        assert op_norm(m) == abs(x)
        assert log_singular_values(m) == (math.log(abs(x)),)

    check()
