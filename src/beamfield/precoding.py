"""Zero-forcing precoding with per-user maximum-ratio receive combining.

Each user's receive antennas are collapsed to a single stream by the
dominant left singular vector of its channel block, from one
``numpy.linalg.svd`` over the stack of every user's block; a run stacks
the CSI estimates of a whole link block of scenarios into one call.
The precoder is the right pseudo-inverse of the resulting effective user
channel, with every stream scaled to an equal share of the given total
transmit power.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannelError
from .linalg import right_pseudo_inverse


@dataclass(frozen=True)
class PrecodingMatrix:
    """Transmit precoder: one column per user stream.

    ``w`` is (n_active_tx x n_streams); the squared Frobenius norm equals
    the total transmit power, split equally across streams.
    """

    w: np.ndarray

    @property
    def n_streams(self):
        return self.w.shape[1]


def _canonical_phase(v):
    """``v`` with its phase turned so its largest-magnitude component is real
    and non-negative.

    The factor is one numpy scalar division per user: ``np.abs(p) / p``
    over an array of pivots rounds differently in the last bit.
    """
    pivot = int(np.argmax(np.abs(v)))
    return v * (abs(v[pivot]) / v[pivot])


def combining_vectors(h_est):
    """Per-user maximum-ratio combiners, one unit-norm vector per user.

    Each is the dominant left singular vector of the user's block, from
    one ``np.linalg.svd`` over the (users x antennas_per_ue x n_tx) ``h``.
    numpy decomposes a stack one matrix at a time, so ``h_est`` may stack
    the estimates of many scenarios (with one ``antennas_per_ue``): each
    user's combiner equals that of its own scenario's call bit for bit.
    """
    u, s, _ = np.linalg.svd(h_est.h, full_matrices=False)
    if np.any(s[:, 0] == 0.0):
        raise DegenerateChannelError("user channel block is identically zero")
    return [_canonical_phase(u[k, :, 0]) for k in range(h_est.n_users)]


def effective_user_channel(h, combiners):
    """Stack c_k^H H_k rows into the (n_users x n_tx) effective channel."""
    return np.vstack([c.conj() @ block for c, block in zip(combiners, h.h, strict=True)])


def zf_precoder(h_est, combiners, total_power):
    """Zero-forcing precoder from the estimated channel.

    W0 = G^H (G G^H)^-1 for the effective user channel G that
    ``combiners`` (:func:`combining_vectors` of the same estimate) make,
    then each column is scaled to carry total_power / n_users watts.
    For a single user this degenerates to maximum-ratio transmission.
    """
    if not total_power > 0:
        raise ValueError(f"total_power must be positive, got {total_power}")
    g = effective_user_channel(h_est, combiners)
    w0 = right_pseudo_inverse(g)
    per_stream = total_power / h_est.n_users
    # right_pseudo_inverse returns only a full-column-rank W0: no column is zero.
    column_norms = np.linalg.norm(w0, axis=0)
    w = w0 * (np.sqrt(per_stream) / column_norms)[None, :]
    return PrecodingMatrix(w=w)


def effective_channel(h_true, precoder, combiners):
    """Post-combining effective channel G W (n_users x n_users).

    With perfect CSI the off-diagonal entries vanish to numerical
    precision; with noisy CSI they quantify residual inter-user
    interference.
    """
    g = effective_user_channel(h_true, combiners)
    return g @ precoder.w

