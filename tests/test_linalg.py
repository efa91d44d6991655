import math

import numpy as np
import pytest

from vardiag import (
    DimensionMismatch,
    NotPositiveDefinite,
    cholesky_lower,
    log_det_spd,
    spd_inverse,
)


def random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m.T @ m + np.eye(n)


class TestCholesky:
    def test_diagonal_case(self):
        out = cholesky_lower([[4.0, 0.0], [0.0, 9.0]])
        assert np.array_equal(out, [[2.0, 0.0], [0.0, 3.0]])

    def test_hand_factorization(self):
        # [[4,2],[2,3]] = L L' with L = [[2,0],[1,sqrt(2)]]
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        out = cholesky_lower(a)
        assert np.allclose(out, [[2.0, 0.0], [1.0, math.sqrt(2.0)]], rtol=0, atol=1e-15)
        assert np.abs(out @ out.T - a).max() < 1e-14

    def test_indefinite_raises(self):
        # determinant 1 - 4 = -3 < 0
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower([[1.0, 2.0], [2.0, 1.0]])

    def test_singular_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower([[1.0, 1.0], [1.0, 1.0]])

    def test_reconstruction_on_random_spd(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 5, 17):
            a = random_spd(rng, n)
            lower = cholesky_lower(a)
            assert np.tril(lower).tolist() == lower.tolist()
            assert (np.diag(lower) > 0).all()
            err = np.abs(lower @ lower.T - a).max()
            assert err <= 1e-10 * np.abs(a).max()

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 6)
        assert cholesky_lower(a).tolist() == cholesky_lower(a).tolist()

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            cholesky_lower(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            cholesky_lower([[1.0, 0.5], [0.0, 1.0]])


class TestLogDet:
    def test_identity_is_zero(self):
        for n in (1, 3, 8):
            assert log_det_spd(np.eye(n)) == 0.0

    def test_diagonal(self):
        assert abs(log_det_spd(np.diag([2.0, 3.0])) - math.log(6.0)) < 1e-14

    def test_two_by_two(self):
        # det = 4*3 - 2*2 = 8
        assert abs(log_det_spd([[4.0, 2.0], [2.0, 3.0]]) - math.log(8.0)) < 1e-14

    def test_inverse_cancels(self):
        rng = np.random.default_rng(4)
        for n in (2, 4, 9):
            a = random_spd(rng, n)
            assert abs(log_det_spd(a) + log_det_spd(spd_inverse(a))) < 1e-8


class TestSpdInverse:
    def test_identity(self):
        assert np.allclose(spd_inverse(np.eye(3)), np.eye(3), rtol=0, atol=1e-14)

    def test_diagonal_reciprocal(self):
        out = spd_inverse(np.diag([2.0, 4.0]))
        assert np.allclose(out, np.diag([0.5, 0.25]), rtol=0, atol=1e-15)

    def test_adjugate_over_determinant(self):
        out = spd_inverse([[4.0, 2.0], [2.0, 3.0]])
        expect = np.array([[3.0, -2.0], [-2.0, 4.0]]) / 8.0
        assert np.abs(out - expect).max() < 1e-14

    def test_contract_on_random_spd(self):
        rng = np.random.default_rng(5)
        for n in (2, 6, 20):
            a = random_spd(rng, n)
            err = np.abs(spd_inverse(a) @ a - np.eye(n)).max()
            assert err < 1e-8

    def test_propagates_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            spd_inverse([[0.0, 0.0], [0.0, 0.0]])
