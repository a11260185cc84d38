"""Deterministic complex linear algebra for precoding and channel estimation.

Matrices are plain 2-D ``numpy.ndarray`` of ``complex128`` in row-major
order.  The solver is a direct Gaussian elimination with partial pivoting:
every system in the simulator is at most 32 x 32 (users x users after
receive combining), where elimination is both stable and easy to audit.
Rank deficiency is declared when a pivot drops below ``RANK_EPS`` times
the largest entry of the original matrix.
"""

import numpy as np

from .errors import SingularMatrixError

# Pivot threshold relative to the largest initial entry; far below any
# physically meaningful channel conditioning in this simulator.
RANK_EPS = 1e-12


def as_complex_matrix(a):
    """Coerce input to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def solve(a, b):
    """Solve ``a @ x = b`` by Gaussian elimination with partial pivoting.

    ``a`` must be square; ``b`` may have any number of right-hand-side
    columns.  Raises :class:`SingularMatrixError` (carrying the failing
    pivot index) when a pivot falls below ``RANK_EPS`` times the largest
    entry of the original ``a``.
    """
    a = as_complex_matrix(a).copy()
    b = as_complex_matrix(b).copy()
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    if b.shape[0] != n:
        raise ValueError(f"rhs has {b.shape[0]} rows, expected {n}")

    threshold = RANK_EPS * np.max(np.abs(a)) if n else 0.0

    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if np.abs(a[p, k]) < threshold or a[p, k] == 0:
            raise SingularMatrixError(
                f"matrix is singular to working precision (pivot {k})", pivot_index=k
            )
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= np.outer(factors, a[k, k:])
        b[k + 1:] -= np.outer(factors, b[k])

    x = np.zeros_like(b)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def right_pseudo_inverse(h):
    """Right pseudo-inverse ``h^H (h h^H)^-1`` of a wide full-row-rank matrix.

    This is the core of the zero-forcing precoder: the result satisfies
    ``h @ right_pseudo_inverse(h) == I`` up to numerical residual.
    """
    h = as_complex_matrix(h)
    m, n = h.shape
    if m > n:
        raise ValueError(f"matrix must have rows <= cols, got {m}x{n}")
    hh = h @ h.conj().T
    try:
        inv = solve(hh, np.eye(m, dtype=np.complex128))
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"ZF infeasible: users not separable (pivot {exc.pivot_index})",
            pivot_index=exc.pivot_index,
        ) from exc
    return h.conj().T @ inv
