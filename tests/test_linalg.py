import numpy as np
import pytest

from beamfield import SingularMatrixError, right_pseudo_inverse, solve

from conftest import random_complex


class TestSolve:
    def test_identity_system(self):
        rng = np.random.default_rng(6)
        b = random_complex(rng, (4, 2))
        assert np.allclose(solve(np.eye(4), b), b, rtol=0, atol=0)

    def test_diagonal_inverse(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        x = solve(a, np.eye(2))
        assert np.allclose(x, np.diag([0.5, 0.25]), rtol=1e-15)

    def test_residual_random_6x6(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, (6, 6)) + 6 * np.eye(6)
        b = random_complex(rng, (6, 3))
        x = solve(a, b)
        residual = np.linalg.norm(a @ x - b)
        assert residual <= 1e-10 * np.linalg.norm(b)

    def test_singular_raises_with_pivot(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        with pytest.raises(SingularMatrixError) as exc:
            solve(a, np.eye(2))
        assert exc.value.pivot_index == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            solve(np.ones((2, 3)), np.ones((2, 1)))

    def test_rhs_row_mismatch(self):
        with pytest.raises(ValueError, match="rhs has 3 rows"):
            solve(np.eye(2), np.ones((3, 1)))

    def test_rejects_nonfinite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="NaN"):
            solve(bad, np.ones((2, 1)))

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, (8, 8)) + 8 * np.eye(8)
        b = random_complex(rng, (8, 8))
        x1 = solve(a, b)
        x2 = solve(a.copy(), b.copy())
        assert np.array_equal(x1, x2)


class TestRightPseudoInverse:
    def test_closed_form_row(self):
        # H = [[1, 1]]: H^H (H H^H)^-1 = [[0.5], [0.5]].
        w = right_pseudo_inverse(np.array([[1.0, 1.0]]))
        assert np.allclose(w, [[0.5], [0.5]], rtol=1e-15)

    def test_identity(self):
        assert np.allclose(right_pseudo_inverse(np.eye(4)), np.eye(4), rtol=1e-14)

    def test_product_residual_3x64(self):
        rng = np.random.default_rng(9)
        h = random_complex(rng, (3, 64))
        w = right_pseudo_inverse(h)
        assert np.linalg.norm(h @ w - np.eye(3)) <= 1e-9

    def test_product_residual_sweep(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(m, 65))
            h = random_complex(rng, (m, n))
            w = right_pseudo_inverse(h)
            err = np.linalg.norm(h @ w - np.eye(m)) / np.linalg.norm(np.eye(m))
            assert err <= 1e-9

    def test_rank_deficient_context(self):
        h = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
        with pytest.raises(SingularMatrixError, match="not separable"):
            right_pseudo_inverse(h)

    def test_tall_rejected(self):
        with pytest.raises(ValueError, match="rows <= cols"):
            right_pseudo_inverse(np.ones((3, 2)))
