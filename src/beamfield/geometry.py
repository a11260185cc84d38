"""Room, transmit array, user placements, probe grid and the built-in scenarios.

Coordinate convention: the array face lies in the x-z plane at y = 0 with
boresight along +y.  The room footprint is x in [-width/2, +width/2],
y in [0, length], z in [0, height]; the floor is z = 0.

:func:`build_array` and :func:`build_grid` read the ``array`` and ``grid``
sections of a run configuration, whose defaults (the paper's 16 x 8 panel,
central 8 x 8 active, and 56-point probe grid) are written only there.
Every geometry value is plain floats: element positions and UE antennas
are (x, y, z) tuples, the probe grid's axes tuples of floats.  Validation
and a run read the same values, so validation loads no numpy; arrays are
made where gains are computed (``ProbeGrid.points`` and
:func:`~beamfield.channel.propagation_gains`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import _numpy_on_first_use

np = _numpy_on_first_use(globals())

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: Height of the array centre, the probe plane and the UE antennas (m).
DEFAULT_MOUNT_HEIGHT_M = 1.5

#: Largest probe grid.
MAX_GRID_POINTS = 1_000_000

#: Most probe x active-element field gains a run computes: the largest grid
#: at 64 active elements.  A run holds one block of them at a time.
MAX_GAIN_ENTRIES = MAX_GRID_POINTS * 64

#: Largest transmit array; the paper's panel has 128 elements.
MAX_ARRAY_ELEMENTS = 4096

#: Most receive antennas per user; the paper's UEs have 4.
MAX_UE_ANTENNAS = 64

# Slack of the room's boundary tests, far above the rounding of positions (m).
_BOUNDARY_TOL = 1e-9


def wavelength(frequency_hz):
    """Free-space wavelength in metres."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return SPEED_OF_LIGHT / frequency_hz


@dataclass(frozen=True)
class Room:
    """Rectangular indoor room with per-surface amplitude reflection coefficients.

    Reflection coefficients are real, in [-1, 0]; ``wall_reflection``
    applies to the four vertical walls (scalar or per-wall 4-sequence in
    order x-low, x-high, y-low, y-high).

    The array face lies in the y = 0 wall plane, so that wall's image
    source coincides with the array itself and scales the direct path by
    (1 + coefficient), a crude stand-in for the panel/wall interaction of
    a wall-mounted array.  Set the y-low coefficient to 0 to model a
    fully occluded back wall instead.
    """

    length_y: float = 15.0
    width_x: float = 7.5
    height_z: float = 3.0
    wall_reflection: float | tuple = -0.6
    floor_reflection: float = -0.4
    ceiling_reflection: float = -0.4

    def __post_init__(self):
        if min(self.length_y, self.width_x, self.height_z) <= 0:
            raise ValueError("room dimensions must be positive")
        for coeff in (*self.wall_reflections(), self.floor_reflection, self.ceiling_reflection):
            if not -1.0 <= coeff <= 0.0:
                raise ValueError(f"reflection coefficient {coeff} outside [-1, 0]")

    def wall_reflections(self):
        """Coefficients for the four walls: (x-low, x-high, y-low, y-high)."""
        w = self.wall_reflection
        if not isinstance(w, (tuple, list)):
            return (float(w),) * 4
        w = tuple(float(v) for v in w)
        if len(w) != 4:
            raise ValueError("wall_reflection must be a scalar or a 4-sequence")
        return w

    def contains(self, point):
        """True if the (x, y, z) point lies inside the room (boundary inclusive)."""
        x, y, z = point
        tol = _BOUNDARY_TOL
        return (abs(x) <= self.width_x / 2 + tol and -tol <= y <= self.length_y + tol
                and -tol <= z <= self.height_z + tol)

    def require_inside(self, points, what):
        """Raise ValueError naming, as ``what``, the first of the (x, y, z) rows
        ``points`` outside.

        Numbers print as the shortest text that reads back as the same
        float, so a point just beyond the boundary slack never prints as
        the bound it breaks.
        """
        outside = next((p for p in points if not self.contains(p)), None)
        if outside is not None:
            x, y, z = (_exact(v) for v in outside)
            raise ValueError(f"{what} at ({x}, {y}, {z}) lies outside the room (|x| <= "
                             f"{_exact(self.width_x / 2)}, 0 <= y <= {_exact(self.length_y)}, "
                             f"0 <= z <= {_exact(self.height_z)})")


def _exact(v):
    """``repr`` of the float ``v``, with no ``.0`` on a whole number: 5, 3.000000002."""
    return repr(float(v)).removesuffix(".0")


@dataclass(frozen=True)
class ArrayGeometry:
    """Planar transmit array in the x-z plane, boresight along +y.

    ``element_positions`` is a tuple of (x, y, z) tuples in row-major grid
    order; ``active_mask``, a tuple of bools, selects the transmitting subset.
    """

    element_positions: tuple
    active_mask: tuple

    @property
    def n_active(self):
        return sum(self.active_mask)

    def active_positions(self):
        """Positions of the active elements, a list of (x, y, z) tuples."""
        return [p for p, on in zip(self.element_positions, self.active_mask) if on]

    def aperture(self):
        """Largest distance between active elements (metres).

        The diagonal of their bounding box, which is that distance for the
        rectangular active blocks :func:`build_array` makes.
        """
        return math.sqrt(sum((high - low) * (high - low)
                             for low, high in _box(self.active_positions())))


def _box(points):
    """Per axis, the least and greatest coordinate of the (x, y, z) rows ``points``."""
    return [(min(axis), max(axis)) for axis in zip(*points)]


@dataclass(frozen=True)
class Scenario:
    """User placement for one beamforming case."""

    id: str
    ue_positions: tuple
    antennas_per_ue: int = 4

    def __post_init__(self):
        if not 1 <= len(self.ue_positions) <= 8:
            raise ValueError("scenario must place between 1 and 8 users")
        if not 1 <= self.antennas_per_ue <= MAX_UE_ANTENNAS:
            raise ValueError(f"antennas_per_ue must be between 1 and {MAX_UE_ANTENNAS}")

    @property
    def n_users(self):
        return len(self.ue_positions)


@dataclass(frozen=True)
class ProbeGrid:
    """Regular lattice of probe positions at a fixed height.

    The axes ``x_values`` and ``y_values`` are the whole lattice; the
    points, their count and the step derive from them.  Points are
    ordered row-major: y ascending, x ascending within each row, so
    serialized artifacts are byte-for-byte reproducible.  A grid row is
    one y value.  The axes are tuples of floats, so two grids are equal
    (``==``) when their axes and height are.
    """

    x_values: tuple
    y_values: tuple
    probe_height: float

    @property
    def points(self):
        """The probe positions in grid order, an (n_points, 3) array built on each access."""
        gx, gy = np.meshgrid(self.x_values, self.y_values)
        return np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, self.probe_height)])

    @property
    def n_points(self):
        return len(self.x_values) * len(self.y_values)

    @property
    def spacing(self):
        """The x-axis step; the y-axis step on a one-column grid; 1 m on a single point."""
        axis = self.x_values if len(self.x_values) > 1 else self.y_values
        return float(axis[1] - axis[0]) if len(axis) > 1 else 1.0

    def rows(self, start, stop):
        """The sub-grid of grid rows ``start`` to ``stop`` (y_values[start:stop])."""
        return replace(self, y_values=self.y_values[start:stop])


@dataclass(frozen=True)
class ArraySection:
    """A planar array of ``rows`` x ``cols`` elements ``spacing`` apart.

    ``active`` is ``"all"`` or ``"central-8x8"`` (the central 64 elements).
    """

    rows: int = 16
    cols: int = 8
    # Half a wavelength at the 2.63 GHz carrier; the usual array design point (m).
    spacing: float = 0.057
    center: tuple = (0.0, 0.0, DEFAULT_MOUNT_HEIGHT_M)
    active: str = "central-8x8"


@dataclass(frozen=True)
class GridSection:
    """A rectangular probe lattice: its extents, step and height (m)."""

    x_min: float = -3.0
    x_max: float = 3.0
    y_min: float = 1.0
    y_max: float = 8.0
    spacing: float = 1.0
    height: float = DEFAULT_MOUNT_HEIGHT_M


def build_array(section=ArraySection()):
    """Build the planar array ``section`` describes, centred at its ``center``.

    Rows run along z, columns along x; element order is row-major.  Either
    ``active`` policy makes the active elements one rectangular block.  A
    coordinate is (index - (n - 1) / 2) * spacing + centre.
    """
    rows, cols, spacing = section.rows, section.cols, section.spacing
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if rows * cols > MAX_ARRAY_ELEMENTS:
        raise ValueError(f"array: {rows * cols} elements exceed the {MAX_ARRAY_ELEMENTS} budget")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    cx, cy, cz = (float(v) for v in section.center)

    xs = [(c - (cols - 1) / 2.0) * spacing + cx for c in range(cols)]
    zs = [(r - (rows - 1) / 2.0) * spacing + cz for r in range(rows)]
    positions = tuple((x, cy, z) for z in zs for x in xs)

    if section.active == "all":
        active = (True,) * (rows * cols)
    elif section.active == "central-8x8":
        if rows < 8 or cols < 8:
            raise ValueError(
                f"central-8x8 needs at least an 8x8 array, got {rows}x{cols}"
            )
        r0 = rows // 2 - 4
        c0 = cols // 2 - 4
        active = tuple(r0 <= r < r0 + 8 and c0 <= c < c0 + 8
                       for r in range(rows) for c in range(cols))
    else:
        raise ValueError(f"unknown active policy {section.active!r}")
    return ArrayGeometry(element_positions=positions, active_mask=active)


# UE coordinates (x, y) of the eight built-in single/multi-user cases.
_STANDARD_UE_LAYOUTS = (
    ((0.0, 8.0),),
    ((-3.0, 4.0),),
    ((3.0, 2.0),),
    ((-3.0, 4.0), (3.0, 2.0)),
    ((0.0, 8.0), (0.0, 4.0)),
    ((0.0, 8.0), (-3.0, 4.0)),
    ((0.0, 8.0), (3.0, 2.0)),
    ((0.0, 8.0), (-3.0, 4.0), (3.0, 2.0)),
)


def standard_scenarios():
    """The eight built-in beamforming scenarios, ids "1" through "8"."""
    return [Scenario(id=str(i + 1), ue_positions=layout)
            for i, layout in enumerate(_STANDARD_UE_LAYOUTS)]


def grid_size_bound(section):
    """Upper bound of the point count of the :func:`build_grid` lattice of ``section``.

    Computed from the extents alone, so budgets are checked before
    anything is allocated.
    """
    g = section
    if g.x_max < g.x_min or g.y_max < g.y_min:
        raise ValueError("grid extent must satisfy x_max >= x_min and y_max >= y_min")
    if g.spacing <= 0:
        raise ValueError("spacing must be positive")
    return ((g.x_max - g.x_min) / g.spacing + 1) * ((g.y_max - g.y_min) / g.spacing + 1)


def build_grid(section=GridSection(), room=None):
    """Build the probe lattice ``section`` describes, endpoints inclusive.

    The default call reproduces the 7 x 8 = 56-point measurement grid.
    When ``room`` is given the grid must lie inside it.
    """
    g = section
    n_points = grid_size_bound(g)
    if n_points > MAX_GRID_POINTS:
        raise ValueError(f"grid: about {n_points:.3g} points exceed the {MAX_GRID_POINTS} budget")

    xs = _lattice_axis(g.x_min, g.x_max, g.spacing)
    ys = _lattice_axis(g.y_min, g.y_max, g.spacing)

    if room is not None:
        room.require_inside([(g.x_min, g.y_min, g.height), (g.x_max, g.y_max, g.height)],
                            "grid corner")
    return ProbeGrid(xs, ys, float(g.height))


def _lattice_axis(lo, hi, step):
    """lo + step * i for the i that keep the axis within hi (and 1e-9 steps beyond)."""
    n = math.floor((hi - lo) / step + 1e-9) + 1
    return tuple(lo + step * i for i in range(n))


def ue_antenna_positions(scenario, cfg):
    """3-D positions of every receive antenna, grouped per user.

    Each user carries ``antennas_per_ue`` vertical dipoles in a half-wavelength
    line along x centred on the user position, all at the UE height; the
    channel config ``cfg`` gives both.  A list of n_users * antennas_per_ue
    (x, y, z) tuples.
    """
    lam = wavelength(cfg.carrier_frequency)
    m = scenario.antennas_per_ue
    offsets = [(i - (m - 1) / 2.0) * (lam / 2.0) for i in range(m)]
    z = float(cfg.ue_height)
    return [(float(x) + offset, float(y), z)
            for x, y in scenario.ue_positions for offset in offsets]


def far_field_distance(aperture_m, wavelength_m):
    """Fraunhofer distance 2 D^2 / lambda for aperture D."""
    return 2.0 * aperture_m ** 2 / wavelength_m
