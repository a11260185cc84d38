"""Run configuration: the :class:`RunConfig` dataclasses, YAML loading and validation.

A :class:`RunConfig` is its layers' configurations: ``room``, ``array``,
``grid``, ``channel`` and ``ofdm`` are the layer dataclasses, whose own
defaults are the paper's campaign, and ``RunConfig()`` adds the run's
seed, scenarios, scales and outputs.  ``from_dict`` starts each section
from that instance and replaces just the keys a document sets, so
``configs/paper-defaults.yaml`` only spells the defaults out.  Every
dataclass field is its own document key, and each value is coerced to the
type of its default: booleans must be YAML booleans, integers must be
integral, and numbers may also come as strings, because YAML 1.1 reads
``1e-4`` as one.  A scenario id is a string or an integer, never the
boolean YAML 1.1 makes of an unquoted ``on`` or ``no``.  Unknown keys, mistyped values and a retired key
(``_RETIRED``) at any value but the one it is still read at raise
:class:`ConfigError` naming the offending path.  ``validate`` returns
everything else as a tuple of findings and never raises.  A
:class:`RunConfig` built in Python meets the same rules: :func:`checked`
reads it through its document form, once per run.  The findings come
from the geometry the builders make, which is plain floats, so validation
loads no numpy unless a UE antenna may sit at the array.  A config with
no finding also gets its :class:`Plan`: the array, grid, scenarios and
fit distance validation built and checked, which is all a run reads.
"""

import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import yaml

from . import _numpy_on_first_use
from .channel import ChannelModelConfig, generate_channel, lit_above, may_reach_unit_gain
from .errors import ConfigError
from .geometry import (
    MAX_GAIN_ENTRIES,
    ArrayGeometry,
    ArraySection,
    GridSection,
    ProbeGrid,
    Room,
    Scenario,
    build_array,
    build_grid,
    far_field_distance,
    grid_size_bound,
    standard_scenarios,
    ue_antenna_positions,
    wavelength,
)
from .ofdm import MAX_SAMPLES_PER_STREAM, OfdmConfig
from .stats import _fit_rows, cut_column

np = _numpy_on_first_use(globals())

EXPORT_FORMATS = ("ascii", "csv", "json", "svg")


@dataclass(frozen=True)
class RunConfig:
    """Everything a full simulation run needs, seed included."""

    seed: int = 1234
    scenarios: tuple = tuple(s.id for s in standard_scenarios())
    custom_scenarios: tuple = ()
    tx_power_w: float = 1.0
    formats: tuple = EXPORT_FORMATS
    output_dir: str = "out"
    room: Room = field(default_factory=Room)
    array: ArraySection = field(default_factory=ArraySection)
    channel: ChannelModelConfig = field(default_factory=ChannelModelConfig)
    ofdm: OfdmConfig = field(default_factory=OfdmConfig)
    grid: GridSection = field(default_factory=GridSection)
    calibration: float = 1.0
    cut_x: float = 0.0
    fit_exclude_near_field: bool = True
    svg_vmax: float = None


@dataclass(frozen=True)
class Plan:
    """What a run executes: a checked config, the geometry and the scenarios
    (in run order) its validation built, and the shortest cut distance the
    decay fit keeps, or None to keep them all."""

    config: RunConfig
    array: ArrayGeometry
    grid: ProbeGrid
    scenarios: tuple
    min_distance: float


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


def _scenario_id(value, path):
    """A scenario id, a string or an integer, as text.

    YAML 1.1 reads an unquoted ``on`` or ``no`` as a boolean, ``~`` as null
    and ``1.50`` as the float 1.5, whose text is not what the user wrote.
    """
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ConfigError(f"{path}: expected a scenario id (a string or an integer), "
                          f"got {value!r}; quote it")
    return str(value)


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
    (RunConfig, "scenarios"): lambda v, path: tuple(
        _scenario_id(s, f"{path}[{k}]") for k, s in enumerate(_sequence(v, path))),
    (RunConfig, "custom_scenarios"): _custom_scenarios,
    (RunConfig, "formats"): _formats,
    (RunConfig, "svg_vmax"): lambda v, path: None if v is None else _coerce(v, float, path),
    (Room, "wall_reflection"): lambda v, path: (
        _floats(v, path, 4) if isinstance(v, (list, tuple)) else _coerce(v, float, path)),
    (ArraySection, "center"): lambda v, path: _floats(v, path, 3),
    (Scenario, "id"): _scenario_id,
    (Scenario, "ue_positions"): lambda v, path: tuple(
        _floats(p, f"{path}[{k}]", 2) for k, p in enumerate(_sequence(v, path))),
}

# Keys that set nothing any more, by document path: each is read, and dropped,
# only at the one value (of exactly that type) that every run now means.
_RETIRED = {"workers": (1, "runs are serial"),
            "ofdm.time_domain": (False, "the BER path is the flat k x k one")}


def _retired(where, value):
    """True for a retired key at its one value; a ConfigError at any other."""
    if where not in _RETIRED:
        return False
    accepted, reason = _RETIRED[where]
    if type(value) is not type(accepted) or value != accepted:
        raise ConfigError(f"{where}: retired, {reason}; remove the key (got {value!r})")
    return True


def _section(defaults, doc, path):
    """``defaults`` (a dataclass instance) with the fields ``doc`` sets replaced."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config root'}: expected a mapping")
    doc = {key: value for key, value in doc.items()
           if not _retired(f"{path}.{key}" if path else key, value)}
    unknown = set(doc) - {f.name for f in fields(defaults)}
    if unknown:
        where = f"{path}: unknown keys" if path else "unknown top-level keys:"
        raise ConfigError(f"{where} {sorted(unknown, key=str)}")
    overrides = {}
    for name, value in doc.items():
        where = f"{path}.{name}" if path else name
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


def _rejecting_repeated_keys(loader):
    """``loader`` whose mappings reject a key they repeat, naming it and its line.

    PyYAML keeps the last of a repeated key's values, so ``seed: 1`` then
    ``seed: 2`` would run with seed 2.  Keys a ``<<`` merge brings in are
    not repeats: the mapping's own keys override them, as YAML defines.
    """
    class Loader(loader):
        def __init__(self, stream):
            super().__init__(stream)
            self.checked = set()

        def flatten_mapping(self, node):
            # Merging rewrites node.value, so each mapping is checked once, before that.
            if node not in self.checked:
                self.checked.add(node)
                lines = {}
                for key_node, _ in node.value:
                    if (not isinstance(key_node, yaml.ScalarNode)
                            or key_node.tag == "tag:yaml.org,2002:merge"):
                        continue
                    key, line = self.construct_object(key_node), key_node.start_mark.line + 1
                    if key in lines:
                        raise yaml.constructor.ConstructorError(
                            problem=f"line {line}: key {key!r} is repeated "
                                    f"(first on line {lines[key]})")
                    lines[key] = line
            super().flatten_mapping(node)

    return Loader


# libyaml's parser where PyYAML was built with it: the same safe constructor
# and the same values as ``yaml.SafeLoader``, several times faster.
_YAML_LOADER = _rejecting_repeated_keys(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def read_yaml(path):
    """Parse a YAML config file; an empty file is an empty mapping.

    Malformed YAML, a repeated key included, raises :class:`ConfigError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    return raw if raw is not None else {}


def load_config(path):
    """Load and build a run configuration from a YAML file."""
    return from_dict(read_yaml(path))


# Scenario ids become part of artifact file names; the longest of them,
# heatmap_scenario_<id>.json, must fit in a 255-byte file name.
_ID_FORBIDDEN = ("/", "\\", "\0")
_ID_MAX_BYTES = 255 - len("heatmap_scenario_.json")


# +inf has a meaning here: perfect CSI and a noiseless receiver.
_INF_ALLOWED = {"channel.csi_snr_db", "ofdm.noise_snr_db"}

# Largest finite SNR magnitude.  Within it 10^(SNR/10) and its inverse stay
# inside 1e-300..1e300, so the noise variances made from them are finite and
# non-zero; 10^310 overflows a float and 10^-400 rounds to 0.
MAX_SNR_DB = 3000.0

# Largest value of calibration and tx_power_w, and the inverse of the smallest.
# A map value is calibration * sqrt(tx_power_w) times its value at unit scales,
# so it stays within a factor 1e150 of that, and the stream powers summed under
# the root within 1e100: far from overflowing a float or rounding to 0.
MAX_SCALE = 1e100


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


def checked(config):
    """The :class:`Plan` a run executes for ``config``, and its findings; never raises.

    ``config`` is a built :class:`RunConfig` or a parsed document (the form
    the CLI reads from disk).  A built config is read through its document
    form, ``dataclasses.asdict``, so it meets the same type and shape rules
    as a file: ``ArraySection(rows=16.0)`` reads as 16 rows and ``seed=1.5``
    is a finding.  Returns the plan, None whenever there is a finding, and
    the findings, a tuple of strings that each name the offending field.
    """
    if isinstance(config, RunConfig):
        config = asdict(config)
    try:
        config = from_dict(config)
    except ConfigError as exc:
        return None, (str(exc),)
    return _plan(config)


def validate(config):
    """The findings of :func:`checked`; empty when the configuration can run."""
    return checked(config)[1]


def _plan(config):
    """:func:`checked` of a RunConfig that :func:`from_dict` built."""
    findings = _nonfinite(config)
    if not config.scenarios:
        findings.append("scenarios: expected a non-empty list of scenario ids")
    if config.seed < 0:
        findings.append("seed: must be non-negative")
    # render.scale_top owns the rule; validate loads no renderer, and
    # _nonfinite above finds a vmax that is not finite.
    if config.svg_vmax is not None and config.svg_vmax <= 0:
        findings.append("svg_vmax: must be positive")
    builtin = {s.id for s in standard_scenarios()}
    for i, scenario in enumerate(config.custom_scenarios):
        try:
            size = len(scenario.id.encode("utf-8"))
        except UnicodeEncodeError:
            size = math.inf  # a lone surrogate has no UTF-8 form, so no file name holds it
        if not scenario.id or any(c in scenario.id for c in _ID_FORBIDDEN) \
                or size > _ID_MAX_BYTES:
            findings.append(f"custom_scenarios[{i}].id: {scenario.id!r} cannot name artifact "
                            f"files: ids must be non-empty, at most {_ID_MAX_BYTES} UTF-8 "
                            "bytes long, without '/', '\\' or NUL")
        if scenario.id in builtin:
            findings.append(f"custom_scenarios[{i}].id: {scenario.id!r} is a built-in "
                            "scenario id")
    # Artifact file names carry the id, so each scenario is defined once and runs once.
    for sid, n in Counter(s.id for s in config.custom_scenarios).items():
        if n > 1:
            findings.append(f"custom_scenarios: id {sid!r} is defined {n} times")
    for sid, n in Counter(config.scenarios).items():
        if n > 1:
            findings.append(f"scenarios: id {sid!r} is listed {n} times")
    ofdm = config.ofdm
    samples = ofdm.frames * ofdm.slots_per_frame
    if samples > MAX_SAMPLES_PER_STREAM:
        findings.append(f"ofdm: {samples:.3g} samples per stream (frames x OFDM symbols x "
                        f"active subcarriers) exceed the {MAX_SAMPLES_PER_STREAM:.0e} budget")
    if findings:
        # The checks below assume finite values and a scenario.
        return None, tuple(findings)

    for where, snr in (("channel.csi_snr_db", config.channel.csi_snr_db),
                       ("ofdm.noise_snr_db", config.ofdm.noise_snr_db)):
        if math.isfinite(snr) and abs(snr) > MAX_SNR_DB:
            findings.append(f"{where}: must lie between {-MAX_SNR_DB:g} and {MAX_SNR_DB:g} "
                            f"dB, or be +inf; got {snr:g}")
    for where, scale in (("calibration", config.calibration),
                         ("tx_power_w", config.tx_power_w)):
        if not 1 / MAX_SCALE <= scale <= MAX_SCALE:
            findings.append(f"{where}: must lie between {1 / MAX_SCALE:g} and "
                            f"{MAX_SCALE:g}; got {scale!r}")
    if not math.isfinite(wavelength(config.channel.carrier_frequency)):
        # UE antennas sit half a wavelength apart: none has a position.
        findings.append(f"channel.carrier_frequency: {config.channel.carrier_frequency:g} Hz "
                        "has no finite wavelength")
        return None, tuple(findings)
    room = config.room
    # An image ray is at most twice the room's diagonal long; its square must be finite.
    rays_fit = math.isfinite(4.0 * (room.width_x * room.width_x + room.length_y * room.length_y
                                    + room.height_z * room.height_z))
    if not rays_fit:
        findings.append(f"room: {room.width_x:g} x {room.length_y:g} x {room.height_z:g} m "
                        "is too large: the squared image-ray lengths overflow")
    # Scenario references, and every UE antenna inside the room.
    table = {s.id: s for s in (*standard_scenarios(), *config.custom_scenarios)}
    placed = {}
    for sid in config.scenarios:
        if sid not in table:
            findings.append(f"scenarios: id {sid!r} is not defined")
            continue
        antennas = ue_antenna_positions(table[sid], config.channel)
        try:
            room.require_inside(antennas, f"scenario {sid}: UE antenna")
        except ValueError as exc:
            findings.append(str(exc))
        else:
            placed[sid] = antennas

    # Geometry: the memory budgets, from the extents, before the grid is built.
    try:
        array = build_array(config.array)
        points = grid_size_bound(config.grid)
    except ValueError as exc:
        findings.append(str(exc))
        return None, tuple(findings)
    tx = array.active_positions()
    if points * len(tx) > MAX_GAIN_ENTRIES:
        findings.append(
            f"grid: about {points:.3g} points x {len(tx)} active elements "
            f"exceed the {MAX_GAIN_ENTRIES:.3g}-entry field-gain budget")
        return None, tuple(findings)
    # Zero-forcing inverts the users x active-elements channel from the right.
    for sid in config.scenarios:
        if sid in table and table[sid].n_users > len(tx):
            findings.append(
                f"scenario {sid}: {table[sid].n_users} users exceed the {len(tx)} "
                "active array elements; zero-forcing needs at least one element per user")

    # Grid and array inside the room, no coincidence.
    try:
        grid = build_grid(config.grid, room=room)
        room.require_inside(array.element_positions, "array: element")
    except ValueError as exc:
        findings.append(str(exc))
        return None, tuple(findings)

    # The element pattern lights every user: it lights only y > lit_y.
    lit_y = lit_above(tx, room, config.channel)
    for sid in config.scenarios:
        for u, (_, y) in enumerate(table[sid].ue_positions if sid in table else ()):
            if y <= lit_y:
                findings.append(f"scenario {sid}: user {u} at y = {y:g} m gets no field: "
                                f"the cosine pattern lights only y > {lit_y:g} m")
    # A UE antenna at the array: a gain >= 1 or a ray of length 0 stops the
    # run.  One screen over every placed antenna; only when it cannot rule
    # that out are the channels generated (in a room whose squared ray
    # lengths are finite), so the findings are exact.
    ch = config.channel
    if placed and rays_fit and may_reach_unit_gain(
            tx, [a for antennas in placed.values() for a in antennas], room, ch):
        for sid in placed:
            try:
                generate_channel(array, [table[sid]], room, ch)
            except ValueError as exc:
                findings.append(f"scenario {sid}: {exc}")
    # Probe points are (x, y, height) over the lattice axes: exact membership per
    # axis, in O(axis + elements) memory rather than a points x elements difference.
    on_x, on_y = set(grid.x_values), set(grid.y_values)
    if any(x in on_x and y in on_y and z == grid.probe_height for x, y, z in tx):
        findings.append("grid: a probe point coincides exactly with a transmit element")
    try:
        cut_column(grid, config.cut_x)
    except ValueError as exc:
        findings.append(f"cut_x: {exc}")
    # The decay fit of the cut column: fit_decay's own row rule judges the
    # rows, with a unit field on each, or 0 where the pattern lights no ray.
    ys = grid.y_values
    lit = [1.0 if y > lit_y else 0.0 for y in ys]
    # Nearer than the far-field distance the field does not follow the 1/d law.
    min_distance = far_field_distance(array.aperture(), wavelength(ch.carrier_frequency)) \
        if config.fit_exclude_near_field else None
    try:
        _fit_rows(ys, lit, min_distance)
    except ValueError as exc:
        rows = "" if min_distance is None else \
            f" at or beyond the {min_distance:.3g} m far-field distance"
        unlit = "" if all(lit) else \
            f"; the cosine pattern gives no field at y <= {lit_y:g} m"
        findings.append(f"grid: the decay fit cannot run on the cut rows{rows}: {exc}{unlit}")

    if findings:
        return None, tuple(findings)
    return Plan(config, array, grid, tuple(table[sid] for sid in config.scenarios),
                min_distance), ()
