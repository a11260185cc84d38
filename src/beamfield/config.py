"""Run configuration: the :class:`RunConfig` dataclasses, YAML loading and validation.

``RunConfig()`` is the only source of defaults.  ``from_dict`` starts each
section from that instance and replaces just the keys a document sets, so
``configs/paper-defaults.yaml`` only spells the defaults out.  The allowed
keys are the dataclass fields, and each value is coerced to the type of
its default: booleans must be YAML booleans, integers must be integral,
and numbers may also come as strings, because YAML 1.1 reads ``1e-4`` as
one.  Unknown keys and mistyped values raise :class:`ConfigError` naming
the offending path.  ``validate`` reports everything else as findings and
never raises.
"""

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np
import yaml

from .channel import MODE_IMAGE_1, PATTERN_COSINE, ChannelModelConfig
from .errors import ConfigError
from .geometry import (
    DEFAULT_ELEMENT_SPACING_M,
    DEFAULT_MOUNT_HEIGHT_M,
    MAX_GAIN_ENTRIES,
    Room,
    Scenario,
    build_array,
    build_grid,
    far_field_distance,
    grid_size_bound,
    standard_scenarios,
    wavelength,
)
from .ofdm import MAX_SAMPLES_PER_STREAM, OfdmConfig
from .stats import CutProfile, fit_decay

EXPORT_FORMATS = ("ascii", "csv", "json", "svg")


@dataclass(frozen=True)
class ArraySection:
    rows: int = 16
    cols: int = 8
    spacing: float = DEFAULT_ELEMENT_SPACING_M
    center: tuple = (0.0, 0.0, DEFAULT_MOUNT_HEIGHT_M)
    active: str = "central-8x8"


@dataclass(frozen=True)
class GridSection:
    x_min: float = -3.0
    x_max: float = 3.0
    y_min: float = 1.0
    y_max: float = 8.0
    spacing: float = 1.0
    height: float = DEFAULT_MOUNT_HEIGHT_M


@dataclass(frozen=True)
class RunConfig:
    """Everything a full simulation run needs, seed included."""

    seed: int = 1234
    scenario_ids: tuple = tuple(str(i) for i in range(1, 9))
    custom_scenarios: tuple = ()
    tx_power_w: float = 1.0
    formats: tuple = EXPORT_FORMATS
    workers: int = 1
    output_dir: str = "out"
    room: Room = field(default_factory=Room)
    array: ArraySection = field(default_factory=ArraySection)
    # Calibrated link operating point: first-order reflections decorrelate
    # users that share a bearing (two users on the boresight axis are nearly
    # colinear in pure LoS), and this CSI quality / noise level pair puts
    # every built-in scenario at an uncoded BER of 1e-2 or better with the
    # more-users-worse ordering clearly resolved.
    channel: ChannelModelConfig = field(
        default_factory=lambda: ChannelModelConfig(mode="image-order-1", csi_snr_db=40.0)
    )
    ofdm: OfdmConfig = field(
        default_factory=lambda: OfdmConfig(noise_snr_db=64.0, frames=4)
    )
    grid: GridSection = field(default_factory=GridSection)
    calibration: float = 1.0
    cut_x: float = 0.0
    fit_exclude_near_field: bool = True
    svg_vmax: float = None

    def build_array(self):
        return build_array(
            rows=self.array.rows,
            cols=self.array.cols,
            spacing=self.array.spacing,
            center=self.array.center,
            active_selection=self.array.active,
        )

    def fit_min_distance(self, array):
        """Shortest cut distance the decay fit keeps, or None to keep them all.

        With ``fit_exclude_near_field`` it is the array's far-field distance:
        nearer samples do not follow the 1/d law.
        """
        if not self.fit_exclude_near_field:
            return None
        return far_field_distance(array.aperture(),
                                  wavelength(self.channel.carrier_frequency))

    def build_grid(self):
        g = self.grid
        return build_grid(g.x_min, g.x_max, g.y_min, g.y_max, g.spacing, g.height,
                          room=self.room)

    def available_scenarios(self):
        """Standard scenarios plus any custom ones, keyed by id."""
        table = {s.id: s for s in standard_scenarios(total_tx_power=self.tx_power_w)}
        for s in self.custom_scenarios:
            table[s.id] = replace(s, total_tx_power=self.tx_power_w)
        return table

    def selected_scenarios(self):
        table = self.available_scenarios()
        missing = [sid for sid in self.scenario_ids if sid not in table]
        if missing:
            raise ConfigError(f"unknown scenario ids: {', '.join(missing)}")
        return [table[sid] for sid in self.scenario_ids]


def derive_seed(base_seed, scenario_index, stream):
    """Deterministic per-scenario, per-stage integer seed."""
    ss = np.random.SeedSequence([int(base_seed), int(scenario_index), int(stream)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _coerce(value, kind, path):
    """``value`` as ``kind`` (bool, int, float or str), or a ConfigError."""
    if kind in (bool, str):
        if isinstance(value, kind):
            return value
    elif not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if kind is float:
                return number
            if number.is_integer():
                return value if isinstance(value, int) else int(number)
    raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")


def _sequence(value, path, length=None):
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        size = "a list" if length is None else f"a list of {length} values"
        raise ConfigError(f"{path}: expected {size}, got {value!r}")
    return value


def _floats(value, path, length):
    return tuple(_coerce(v, float, f"{path}[{i}]")
                 for i, v in enumerate(_sequence(value, path, length)))


# Field values of a custom scenario entry that does not set them.
_CUSTOM_SCENARIO = Scenario(id="", ue_positions=((0.0, 0.0),))


def _custom_scenarios(value, path):
    entries = _sequence(value or [], path)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry or "ue_positions" not in entry:
            raise ConfigError(f"{path}[{i}]: needs 'id' and 'ue_positions'")
    return tuple(_section(_CUSTOM_SCENARIO, entry, f"{path}[{i}]")
                 for i, entry in enumerate(entries))


def _formats(value, path):
    bad = [f for f in _sequence(value, path) if f not in EXPORT_FORMATS]
    if bad:
        raise ConfigError(f"{path}: unknown entries {bad}; valid: {list(EXPORT_FORMATS)}")
    return tuple(sorted(set(value)))


# Fields whose document form is not a scalar of their default's type.
_IRREGULAR = {
    (RunConfig, "scenario_ids"): lambda v, path: tuple(str(s) for s in _sequence(v, path)),
    (RunConfig, "custom_scenarios"): _custom_scenarios,
    (RunConfig, "formats"): _formats,
    (RunConfig, "svg_vmax"): lambda v, path: None if v is None else _coerce(v, float, path),
    (Room, "wall_reflection"): lambda v, path: (
        _floats(v, path, 4) if isinstance(v, (list, tuple)) else _coerce(v, float, path)),
    (ArraySection, "center"): lambda v, path: _floats(v, path, 3),
    (Scenario, "id"): lambda v, path: str(v),
    (Scenario, "ue_positions"): lambda v, path: tuple(
        _floats(p, f"{path}[{k}]", 2) for k, p in enumerate(_sequence(v, path))),
}

# Field names the document spells differently.
_DOC_KEYS = {"scenario_ids": "scenarios"}

# Set by the run (per-scenario seeds, the run's power), never by a document.
_DERIVED_FIELDS = {"rng_seed", "total_tx_power"}


def _section(defaults, doc, path):
    """``defaults`` (a dataclass instance) with the fields ``doc`` sets replaced."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config root'}: expected a mapping")
    keys = {_DOC_KEYS.get(f.name, f.name): f.name for f in fields(defaults)
            if f.name not in _DERIVED_FIELDS}
    unknown = set(doc) - set(keys)
    if unknown:
        where = f"{path}: unknown keys" if path else "unknown top-level keys:"
        raise ConfigError(f"{where} {sorted(unknown, key=str)}")
    overrides = {}
    for key, value in doc.items():
        name = keys[key]
        where = f"{path}.{key}" if path else key
        default = getattr(defaults, name)
        irregular = _IRREGULAR.get((type(defaults), name))
        if irregular:
            overrides[name] = irregular(value, where)
        elif is_dataclass(default):
            overrides[name] = _section(default, {} if value is None else value, where)
        else:
            overrides[name] = _coerce(value, type(default), where)
    try:
        return replace(defaults, **overrides)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def from_dict(raw):
    """Build a :class:`RunConfig` from a parsed YAML document.

    Every key the document leaves out keeps its value in ``RunConfig()``.
    """
    if isinstance(raw, dict) and "seed" not in raw:
        raise ConfigError("seed: required (runs must be reproducible)")
    return _section(RunConfig(), raw, "")


# libyaml's parser where PyYAML was built with it: the same safe constructor
# and the same values as ``yaml.SafeLoader``, several times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def read_yaml(path):
    """Parse a YAML config file; an empty file is an empty mapping."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    return raw if raw is not None else {}


def load_config(path):
    """Load and build a run configuration from a YAML file."""
    return from_dict(read_yaml(path))


@dataclass(frozen=True)
class ValidationReport:
    """Findings from configuration validation; empty means runnable."""

    findings: tuple

    @property
    def ok(self):
        return not self.findings


# Scenario ids become part of artifact file names.
_ID_FORBIDDEN = ("/", "\\", "\0")

# +inf has a meaning here: perfect CSI and a noiseless receiver.
_INF_ALLOWED = {"channel.csi_snr_db", "ofdm.noise_snr_db"}


def _nonfinite(obj, path=""):
    """Findings for every float field (or float in a tuple field) that is not finite."""
    findings = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        where = f"{path}.{f.name}" if path else f.name
        if is_dataclass(value):
            findings += _nonfinite(value, where)
            continue
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v) \
                    and not (v > 0 and where in _INF_ALLOWED):
                findings.append(f"{where}: must be finite, got {v}")
    return findings


def validate(config):
    """Check a configuration without mutating or raising.

    Accepts either a built :class:`RunConfig` or a parsed document (the
    form the CLI reads from disk); returns a report whose findings each
    name the offending field.
    """
    if not isinstance(config, RunConfig):
        try:
            config = from_dict(config)
        except ConfigError as exc:
            return ValidationReport(findings=(str(exc),))

    findings = _nonfinite(config)
    if not config.scenario_ids:
        findings.append("scenarios: expected a non-empty list of scenario ids")
    if config.seed < 0:
        findings.append("seed: must be non-negative")
    if config.workers < 1:
        findings.append("workers: must be >= 1")
    if config.calibration <= 0:
        findings.append("calibration: must be positive")
    if config.tx_power_w <= 0:
        findings.append("tx_power_w: must be positive")
    if config.svg_vmax is not None and config.svg_vmax <= 0:
        findings.append("svg_vmax: must be positive")
    for i, scenario in enumerate(config.custom_scenarios):
        if not scenario.id or any(c in scenario.id for c in _ID_FORBIDDEN):
            findings.append(f"custom_scenarios[{i}].id: {scenario.id!r} cannot name artifact "
                            "files: ids must be non-empty, without '/', '\\' or NUL")
    ofdm = config.ofdm
    per_symbol, unit = ((ofdm.fft_size, "FFT bins") if ofdm.time_domain
                        else (ofdm.active_subcarriers, "active subcarriers"))
    samples = ofdm.frames * ofdm.symbols_per_frame * per_symbol
    if samples > MAX_SAMPLES_PER_STREAM:
        findings.append(f"ofdm: {samples:.3g} samples per stream (frames x OFDM symbols x "
                        f"{unit}) exceed the {MAX_SAMPLES_PER_STREAM:.0e} budget")
    if findings:
        # The checks below assume finite values, a positive power and a scenario.
        return ValidationReport(findings=tuple(findings))

    # Scenario references and UE placement.
    room = config.room
    table = config.available_scenarios()
    for sid in config.scenario_ids:
        if sid not in table:
            findings.append(f"scenarios: id {sid!r} is not defined")
            continue
        for ux, uy in table[sid].ue_positions:
            if not room.in_footprint(ux, uy):
                findings.append(
                    f"scenario {sid}: UE at ({ux:g}, {uy:g}) lies outside the "
                    f"room footprint (|x| <= {room.width_x / 2:g}, 0 <= y <= {room.length_y:g})"
                )

    # Geometry: the memory budgets, from the extents, before the grid is built.
    g = config.grid
    try:
        array = config.build_array()
        points = grid_size_bound(g.x_min, g.x_max, g.y_min, g.y_max, g.spacing)
    except ValueError as exc:
        findings.append(str(exc))
        return ValidationReport(findings=tuple(findings))
    over_budget = []
    if points * array.n_active > MAX_GAIN_ENTRIES:
        over_budget.append(
            f"grid: about {points:.3g} points x {array.n_active} active elements "
            f"exceed the {MAX_GAIN_ENTRIES:.3g}-entry field-gain budget")
    if ofdm.time_domain and array.n_active * ofdm.frame_samples > MAX_SAMPLES_PER_STREAM:
        over_budget.append(
            f"ofdm: the time-domain transmit block, {array.n_active} active elements x "
            f"{ofdm.frame_samples} frame_samples, exceeds the "
            f"{MAX_SAMPLES_PER_STREAM:.0e} budget")
    if over_budget:
        return ValidationReport(findings=tuple(findings + over_budget))
    # Zero-forcing inverts the users x active-elements channel from the right.
    for sid in config.scenario_ids:
        if sid in table and table[sid].n_users > array.n_active:
            findings.append(
                f"scenario {sid}: {table[sid].n_users} users exceed the {array.n_active} "
                "active array elements; zero-forcing needs at least one element per user")

    # Grid and array inside the room, no coincidence.
    try:
        grid = config.build_grid()
    except ValueError as exc:
        findings.append(str(exc))
        return ValidationReport(findings=tuple(findings))

    inside = room.contains(array.element_positions)
    if not inside.all():
        first = tuple(float(v) for v in array.element_positions[np.argmin(inside)])
        findings.append(f"array: element at {first} lies outside the room")
    # Probe points are (x, y, height) over the lattice axes: compare per axis, in
    # O(elements) memory rather than with a points x elements difference.
    tx = array.active_positions()
    if np.any(np.isin(tx[:, 0], grid.x_values) & np.isin(tx[:, 1], grid.y_values)
              & (tx[:, 2] == grid.probe_height)):
        findings.append("grid: a probe point coincides exactly with a transmit element")
    xs = grid.x_values
    if not np.any(np.abs(xs - config.cut_x) <= 1e-9):
        i = int(np.searchsorted(xs, config.cut_x))
        nearest = " and ".join(f"{x:g}" for x in xs[max(i - 1, 0):i + 1])
        findings.append(
            f"cut_x: {config.cut_x:g} is not a grid column (nearest: {nearest}; "
            f"columns {xs[0]:g} to {xs[-1]:g} in steps of {grid.spacing:g})"
        )
    # The decay fit of the cut column: fit_decay itself judges the rows, with
    # a unit field on each, or 0 where the cosine pattern lights no ray. It
    # lights a row only from a source behind it: an element, or in image mode
    # its y-low wall image at -y (the y-high image always lies beyond the room).
    ys = grid.y_values
    lit = np.ones(ys.size)
    if config.channel.element_pattern == PATTERN_COSINE:
        behind = tx[:, 1]
        if config.channel.mode == MODE_IMAGE_1 and room.wall_reflections()[2] != 0.0:
            behind = np.concatenate([behind, -behind])
        lit = (ys > behind.min()).astype(float)
    min_distance = config.fit_min_distance(array)
    try:
        fit_decay(CutProfile(config.cut_x, ys, lit), min_distance)
    except ValueError as exc:
        rows = "" if min_distance is None else \
            f" at or beyond the {min_distance:.3g} m far-field distance"
        unlit = "" if lit.all() else \
            f"; the cosine pattern gives no field at y <= {behind.min():g} m"
        findings.append(f"grid: the decay fit cannot run on the cut rows{rows}: {exc}{unlit}")

    return ValidationReport(findings=tuple(findings))
