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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, bad, where):
        a = np.eye(2)
        a[where] = a[where[::-1]] = bad
        for route in (cholesky_lower, spd_inverse, log_det_spd):
            with pytest.raises(NotPositiveDefinite, match="non-finite"):
                route(a)


class TestStacks:
    """A stack is factored matrix by matrix, each against its own scale."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_member_fails_the_stack(self, bad):
        stack = np.stack([np.eye(3)] * 4)
        stack[2, 0, 1] = stack[2, 1, 0] = bad
        for route in (cholesky_lower, spd_inverse):
            with pytest.raises(NotPositiveDefinite, match="non-finite"):
                route(stack)

    def test_stack_equals_each_member(self):
        rng = np.random.default_rng(6)
        stack = np.stack([random_spd(rng, 5) * scale for scale in (1e-6, 1.0, 1e6)])
        lower = cholesky_lower(stack)
        inverse = spd_inverse(stack)
        for member, low, inv in zip(stack, lower, inverse):
            assert np.abs(low - cholesky_lower(member)).max() <= 1e-12 * np.abs(low).max()
            assert np.abs(inv - spd_inverse(member)).max() <= 1e-12 * np.abs(inv).max()
        assert (inverse == np.swapaxes(inverse, -1, -2)).all()

    @staticmethod
    def _solve_numpy1(solve):
        """``solve`` with numpy < 2 semantics: a ``b`` one axis short is a stack of vectors."""
        def legacy(a, b):
            a, b = np.asarray(a), np.asarray(b)
            if b.ndim == a.ndim - 1:
                return solve(a, b[..., None])[..., 0]
            return solve(a, b)
        return legacy

    # stacks of 1 and of n members broadcast against an (n, n) right-hand side under numpy < 2
    @pytest.mark.parametrize("numpy1", [False, True])
    @pytest.mark.parametrize("members", [1, 2, 3, 32])
    def test_inverse_of_stack_of_any_length(self, members, numpy1, monkeypatch):
        rng = np.random.default_rng(members)
        stack = np.stack([random_spd(rng, 3) for _ in range(members)])
        expect = np.stack([np.linalg.inv(member) for member in stack])
        if numpy1:
            monkeypatch.setattr(np.linalg, "solve", self._solve_numpy1(np.linalg.solve))
        inverse = spd_inverse(stack)
        assert inverse.shape == stack.shape
        for inv, ref in zip(inverse, expect):
            assert np.abs(inv - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(7)
        stack = np.stack([random_spd(rng, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
        assert cholesky_lower(stack).shape == (2, 3, 3, 3)
        assert spd_inverse(stack).shape == (2, 3, 3, 3)

    # [[1, 1], [1, 1 + eps]] has last squared pivot eps, so its own floor is 1e-12 * (1 + eps)
    @staticmethod
    def _near_singular(eps, scale=1.0):
        return scale * np.array([[1.0, 1.0], [1.0, 1.0 + eps]])

    def test_one_member_below_its_own_floor_fails_the_stack(self):
        # the failing member is the large one: its pivot is far above the others' floors
        stack = np.stack([np.eye(2), self._near_singular(1e-14, 1e6), 2.0 * np.eye(2)])
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(stack)
        with pytest.raises(NotPositiveDefinite):
            spd_inverse(stack)
        # the failing member is the small one next to members 1e6 larger
        stack = np.stack([1e6 * np.eye(2), self._near_singular(1e-14), 1e6 * np.eye(2)])
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(stack)

    def test_member_above_its_own_floor_passes_beside_larger_members(self):
        # squared pivot 1e-9 clears this member's floor but not a 1e6-larger one's
        stack = np.stack([1e6 * np.eye(2), self._near_singular(1e-9)])
        lower = cholesky_lower(stack)
        assert abs(lower[1, 1, 1] ** 2 - 1e-9) < 1e-15

    def test_symmetry_is_judged_per_member(self):
        skewed = np.array([[1.0, 0.5], [0.5 + 1e-8, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            cholesky_lower(np.stack([1e6 * np.eye(2), skewed]))
        # the same absolute skew is rounding noise in a member of scale 1e6
        cholesky_lower(np.stack([1e6 * np.eye(2) + (skewed - np.diag([1.0, 1.0])), np.eye(2)]))


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
