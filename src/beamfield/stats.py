"""Statistics over heat maps: averaging, cut extraction, decay fits, summaries.

Validation applies two of their rules before any map exists, without
loading numpy: :func:`cut_column` reads the grid's axes, which are tuples
of floats, and :func:`_fit_rows` is the decay fit's row rule.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace

from . import _numpy_on_first_use

np = _numpy_on_first_use(globals())

# How far a cut's x may lie from a grid column's and still select it (m).
_COLUMN_TOL = 1e-9


@dataclass(frozen=True)
class CutProfile:
    """Field samples along one grid column (fixed x), ordered by distance.

    ``distances`` are the y coordinates of the column's points, i.e. the
    range from the array plane at y = 0.
    """

    distances: np.ndarray
    fields: np.ndarray

    def __post_init__(self):
        if self.distances.shape != self.fields.shape:
            raise ValueError("distances and fields must have matching shapes")
        if np.any(np.diff(self.distances) < 0):
            raise ValueError("samples must be sorted by ascending distance")
        if np.any(self.fields < 0):
            raise ValueError("field samples must be non-negative")

    @property
    def samples(self):
        """(distance, field) pairs, ascending distance."""
        return list(zip(self.distances.tolist(), self.fields.tolist()))


@dataclass(frozen=True)
class SummaryStats:
    """Order statistics of one heat map, named by the keys of its ``summary.json`` entry.

    Fields are in V/m but ``max_position_m``, the (x, y) of the maximum in
    m; p95 is nearest-rank.
    """

    max_vpm: float
    max_position_m: tuple
    min_vpm: float
    mean_vpm: float
    p95_vpm: float


def average_heatmaps(maps):
    """Pointwise arithmetic mean of heat maps sharing one grid.

    Addends are sorted per grid point before summation, so the result is
    exactly invariant under permutations of the input list.
    """
    if not maps:
        raise ValueError("cannot average an empty list of heat maps")
    first = maps[0]
    for m in maps[1:]:
        if first.grid != m.grid:
            raise ValueError("heat maps must share an identical grid")
    stack = np.stack([m.values for m in maps])
    # Sorted in place: the stack is this function's own copy of the maps.
    stack.sort(axis=0)
    mean = stack.sum(axis=0) / len(maps)
    return replace(first, values=mean, scenario_id="average")


def cut_column(grid, x):
    """Index of the probe-grid column at ``x``, matched to within 1e-9 m.

    Raises ValueError naming the columns on either side when none matches;
    the message is short however many columns the grid has.  The axis
    ascends, and rounding keeps ``v - x`` monotone in ``v``, so the columns
    within the tolerance are one run, found by bisection.
    """
    xs = grid.x_values
    i = bisect.bisect_left(xs, -_COLUMN_TOL, key=lambda v: v - x)
    if i < len(xs) and xs[i] - x <= _COLUMN_TOL:
        return i
    i = bisect.bisect_left(xs, x)
    nearest = " and ".join(f"{v:g}" for v in xs[max(i - 1, 0):i + 1])
    raise ValueError(
        f"{x:g} is not a grid column (nearest: {nearest}; "
        f"columns {xs[0]:g} to {xs[-1]:g} in steps of {grid.spacing:g})"
    )


def extract_cut(heatmap, x):
    """Column of the heat map at a fixed x, as a distance-ordered profile."""
    col = cut_column(heatmap.grid, x)
    rows = heatmap.as_grid_rows()
    return CutProfile(distances=np.array(heatmap.grid.y_values, dtype=float),
                      fields=rows[:, col].copy())


def fit_decay(profile, min_distance=None):
    """Least-squares power-law fit log(field) = exponent * log(distance) + c.

    Returns (exponent, r_squared).  ``min_distance`` drops samples closer
    than the array's far-field radius, where the 1/d law does not bind.
    """
    rows = _fit_rows(profile.distances.tolist(), profile.fields.tolist(), min_distance)
    d, f = (np.array(column) for column in zip(*rows))
    log_d = np.log(d)
    log_f = np.log(f)
    slope, intercept = np.polyfit(log_d, log_f, 1)
    predicted = slope * log_d + intercept
    ss_res = float(np.sum((log_f - predicted) ** 2))
    ss_tot = float(np.sum((log_f - np.mean(log_f)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r_squared


def _fit_rows(distances, fields, min_distance):
    """The (distance, field) samples :func:`fit_decay` fits, from plain sequences.

    Keeps the samples at or beyond ``min_distance`` (all when None); raises
    ValueError unless at least 3 remain, all positive.
    """
    rows = [(d, f) for d, f in zip(distances, fields)
            if min_distance is None or d >= min_distance]
    if len(rows) < 3:
        raise ValueError(f"need at least 3 samples to fit a decay law, got {len(rows)}")
    if any(d <= 0 or f <= 0 for d, f in rows):
        raise ValueError("decay fit requires strictly positive distances and fields")
    return rows


def summary(heatmap):
    """Exact order statistics of a heat map (nearest-rank p95, no interpolation)."""
    v = heatmap.values
    idx = int(np.argmax(v))
    grid = heatmap.grid
    iy, ix = divmod(idx, len(grid.x_values))
    rank = max(int(np.ceil(0.95 * v.size)), 1)
    p95 = float(np.sort(v)[rank - 1])
    return SummaryStats(
        max_vpm=float(v[idx]),
        max_position_m=(float(grid.x_values[ix]), float(grid.y_values[iy])),
        min_vpm=float(v.min()),
        mean_vpm=float(v.mean()),
        p95_vpm=p95,
    )
