import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        with pytest.raises(ZfInfeasibleError, match=f"user {pivot} is not separable"):
            right_pseudo_inverse(np.vstack(rows(g)))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3)], ids=["1-D", "3-D"])
    def test_rejects_a_non_matrix(self, shape):
        with pytest.raises(ValueError, match="expected a 2-D matrix"):
            right_pseudo_inverse(np.ones(shape))

    def test_rejects_nonfinite(self):
        bad = np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="NaN"):
            right_pseudo_inverse(bad)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        h = random_complex(rng, (8, 64))
        assert np.array_equal(right_pseudo_inverse(h), right_pseudo_inverse(h.copy()))


@settings(max_examples=300, deadline=None)
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 70)),
       exponents=st.lists(st.integers(-170, 150), min_size=8, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_a_returned_inverse_has_no_zero_column(shape, exponents, seed):
    # The rank test alone decides feasibility: a returned W0 has full column
    # rank, so zf_precoder never divides by a zero column norm.
    m, n = shape
    h = random_complex(np.random.default_rng(seed), shape) \
        * 10.0 ** np.array(exponents[:m], dtype=float)[:, None]
    try:
        w = right_pseudo_inverse(h)
    except ValueError:  # ZfInfeasibleError, or a tall matrix
        return
    with np.errstate(over="ignore"):  # an overflowing norm is inf, still not zero
        assert np.all(np.linalg.norm(w, axis=0) > 0)
