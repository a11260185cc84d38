import numpy as np
import pytest

from beamfield import ZfInfeasibleError, right_pseudo_inverse

from conftest import random_complex


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
        with pytest.raises(ZfInfeasibleError, match="not separable"):
            right_pseudo_inverse(h)

    def test_tall_rejected(self):
        with pytest.raises(ValueError, match="rows <= cols"):
            right_pseudo_inverse(np.ones((3, 2)))

    @pytest.mark.parametrize("rows, pivot", [
        (lambda g: [g[0], 2 * g[0]], 1),
        (lambda g: [g[0], g[1], g[0]], 2),
        (lambda g: [g[0], g[0], g[1]], 1),
        (lambda g: [g[1], g[0], 3 * g[0]], 2),
        (lambda g: [5 * g[0], g[1], g[0]], 2),
        (lambda g: [g[0], g[1], g[0] + g[1]], 2),
        (lambda g: [g[0], g[1], g[2], 2 * g[1]], 3),
        (lambda g: [0 * g[0], g[1]], 0),
    ], ids=["g0,2g0", "g0,g1,g0", "g0,g0,g1", "g1,g0,3g0", "5g0,g1,g0", "g0,g1,g0+g1",
            "g0,g1,g2,2g1", "0,g1"])
    def test_pivot_names_first_dependent_row(self, rows, pivot):
        rng = np.random.default_rng(12)
        g = random_complex(rng, (3, 16))
        with pytest.raises(ZfInfeasibleError, match=f"user {pivot} is not separable") as exc:
            right_pseudo_inverse(np.vstack(rows(g)))
        assert exc.value.pivot_index == pivot

    def test_rejects_nonfinite(self):
        bad = np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="NaN"):
            right_pseudo_inverse(bad)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        h = random_complex(rng, (8, 64))
        assert np.array_equal(right_pseudo_inverse(h), right_pseudo_inverse(h.copy()))
