"""Complex linear algebra for the zero-forcing precoder.

Matrices are plain 2-D ``numpy.ndarray`` of ``complex128``.  The right
pseudo-inverse comes from a QR factorisation of ``h^H`` (``numpy.linalg``),
so the Gram matrix ``h h^H`` is never formed.  Because ``h h^H = R^H R``,
``|R[k, k]|^2`` is the energy of row ``k`` left after projecting out the
rows before it; rank deficiency is declared at the first ``k`` where that
energy falls below ``RANK_EPS`` times the largest row energy.
"""

import numpy as np

from .errors import ZfInfeasibleError

# Residual row energy threshold relative to the largest row energy; far
# below any physically meaningful channel conditioning in this simulator.
RANK_EPS = 1e-12


def right_pseudo_inverse(h):
    """Right pseudo-inverse ``h^H (h h^H)^-1`` of a wide full-row-rank matrix.

    This is the core of the zero-forcing precoder: the result satisfies
    ``h @ right_pseudo_inverse(h) == I`` up to numerical residual.  With
    ``h^H = Q R`` it equals ``Q R^-H``.  Raises :class:`ZfInfeasibleError`
    naming the first row (user) not separable from the rows before it.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={h.ndim}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix contains NaN or Inf entries")
    m, n = h.shape
    if m > n:
        raise ValueError(f"matrix must have rows <= cols, got {m}x{n}")
    q, r = np.linalg.qr(h.conj().T)
    residual = np.abs(np.diag(r)) ** 2
    threshold = RANK_EPS * np.max(np.sum(np.abs(h) ** 2, axis=1)) if m else 0.0
    deficient = np.flatnonzero((residual < threshold) | (residual == 0))
    if deficient.size:
        raise ZfInfeasibleError(
            f"ZF infeasible: user {deficient[0]} is not separable from the users before it "
            "(colinear effective channels)"
        )
    return np.linalg.solve(r, q.conj().T).conj().T
