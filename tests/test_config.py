import contextlib
import dataclasses
import io
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfield import ConfigError, RunConfig, config, load_config, validate
from beamfield.cli import main as cli_main
from beamfield.config import ValidationReport, from_dict, read_yaml
from beamfield.geometry import MAX_GAIN_ENTRIES, MAX_GRID_POINTS

CONFIG_PATH = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "paper-defaults.yaml")

# The default campaign with every key spelled out, as the benchmark writes it.
EXPLICIT = {
    "seed": 1234,
    "scenarios": [str(i) for i in range(1, 9)],
    "custom_scenarios": [],
    "tx_power_w": 1.0,
    "formats": ["ascii", "csv", "json", "svg"],
    "workers": 1,
    "output_dir": "out",
    "calibration": 1.0,
    "cut_x": 0.0,
    "fit_exclude_near_field": True,
    "svg_vmax": None,
    "room": {
        "length_y": 15.0, "width_x": 7.5, "height_z": 3.0,
        "wall_reflection": -0.6, "floor_reflection": -0.4, "ceiling_reflection": -0.4,
    },
    "array": {
        "rows": 16, "cols": 8, "spacing": 0.057,
        "center": [0.0, 0.0, 1.5], "active": "central-8x8",
    },
    "channel": {
        "mode": "image-order-1", "carrier_frequency": 2.63e9, "csi_snr_db": 40.0,
        "element_pattern": "isotropic", "ue_height": 1.5,
    },
    "ofdm": {
        "subcarrier_spacing": 15000.0, "sample_rate": 61.44e6, "fft_size": 4096,
        "active_subcarriers": 2664, "frame_samples": 65536, "noise_snr_db": 64.0,
        "frames": 4, "time_domain": False,
    },
    "grid": {
        "x_min": -3.0, "x_max": 3.0, "y_min": 1.0, "y_max": 8.0,
        "spacing": 1.0, "height": 1.5,
    },
}


def schema(obj):
    """{document key: default} for a config dataclass, sections nested."""
    keys = {}
    for f in dataclasses.fields(obj):
        if f.name == "rng_seed":
            continue
        value = getattr(obj, f.name)
        key = "scenarios" if f.name == "scenario_ids" else f.name
        keys[key] = schema(value) if dataclasses.is_dataclass(value) else value
    return keys


class TestSingleSourceOfTruth:
    def test_paper_defaults_file_is_the_default_config(self):
        assert load_config(CONFIG_PATH) == RunConfig()

    def test_explicit_mapping_builds_the_default_config(self):
        expected = schema(RunConfig())
        assert set(EXPLICIT) == set(expected)
        for key, value in expected.items():
            if isinstance(value, dict):
                assert set(EXPLICIT[key]) == set(value), key
        assert from_dict(EXPLICIT) == RunConfig()

    def test_infinite_snrs_mean_perfect_csi_and_no_noise(self):
        doc = {"seed": 1, "channel": {"csi_snr_db": math.inf},
               "ofdm": {"noise_snr_db": math.inf}}
        assert validate(doc).ok
        doc["ofdm"]["noise_snr_db"] = -math.inf
        assert validate(doc).findings == ("ofdm.noise_snr_db: must be finite, got -inf",)


# Each document passed validation, was read as something else, or crashed.
BAD_DOCUMENTS = [
    ("nan-noise-snr", "seed: 1\nofdm: {noise_snr_db: .nan}\n", "ofdm.noise_snr_db"),
    ("nan-csi-snr", "seed: 1\nchannel: {csi_snr_db: .nan}\n", "channel.csi_snr_db"),
    ("inf-calibration", "seed: 1\ncalibration: .inf\n", "calibration: must be finite"),
    ("inf-carrier", "seed: 1\nchannel: {carrier_frequency: .inf}\n",
     "channel.carrier_frequency"),
    ("string-bool", 'seed: 1\nofdm: {time_domain: "false"}\n', "ofdm.time_domain"),
    ("yes-no-string", 'seed: 1\nfit_exclude_near_field: "no"\n', "fit_exclude_near_field"),
    ("fractional-frames", "seed: 1\nofdm: {frames: 2.5}\n", "ofdm.frames"),
    ("short-position", "seed: 1\ncustom_scenarios: [{id: x, ue_positions: [[1]]}]\n",
     "custom_scenarios[0].ue_positions[0]"),
    ("list-root", "- seed: 1\n", "config root"),
    ("yaml-syntax", "seed: [1\n", "not valid YAML"),
    ("seed-path", "seed: abc\n", "finding: seed: expected int, got 'abc'"),
    ("grid-budget", "seed: 1\ngrid: {spacing: 1e-4}\n", "budget"),
    ("nan-grid-spacing", "seed: 1\ngrid: {spacing: .nan}\n", "grid.spacing"),
    ("array-budget", "seed: 1\narray: {rows: 100000, cols: 100000}\n", "budget"),
    ("zero-fft-size", "seed: 1\nofdm: {fft_size: 0}\n", "fft_size"),
    ("frames-budget", "seed: 1\nofdm: {frames: 100000000}\n", "budget"),
    ("frame-samples-budget", "seed: 1\nofdm: {frame_samples: 409600000}\n", "budget"),
    ("time-domain-budget", "seed: 1\nofdm: {frames: 200, time_domain: true}\n", "FFT bins"),
    ("ue-antennas", "seed: 1\ncustom_scenarios: [{id: x, ue_positions: [[0, 4]], "
     "antennas_per_ue: 1000000000}]\n", "custom_scenarios[0]: antennas_per_ue"),
    ("gain-budget", "seed: 1\narray: {rows: 32, cols: 64, spacing: 0.04, active: all}\n"
     "grid: {spacing: 0.008}\n", "field-gain budget"),
    ("time-domain-block", "seed: 1\nofdm: {time_domain: true, frames: 1, "
     "frame_samples: 622592}\n", "time-domain transmit block"),
    ("cut-x-off-grid", "seed: 1\ngrid: {spacing: 0.0065, y_max: 1.0}\n",
     "cut_x: 0 is not a grid column"),
    ("more-users-than-elements", "seed: 1\nscenarios: [\"4\"]\narray: {rows: 1, cols: 1, "
     "active: all}\nfit_exclude_near_field: false\n",
     "scenario 4: 2 users exceed the 1 active array elements"),
    ("array-outside-room", "seed: 1\narray: {center: [0, -1, 1.5]}\n",
     "finding: array: element at (-0.1995, -1.0, 1.0725) lies outside the room\n"),
    ("decay-fit-beyond-the-grid", "seed: 1\ngrid: {y_min: 1.0, y_max: 2.0}\n",
     "finding: grid: the decay fit cannot run on the cut rows at or beyond the 5.59 m "
     "far-field distance: need at least 3 samples to fit a decay law, got 0\n"),
    ("decay-fit-zero-distance", "seed: 1\nfit_exclude_near_field: false\ngrid: {y_min: 0.0}\n",
     "finding: grid: the decay fit cannot run on the cut rows: "
     "decay fit requires strictly positive distances and fields\n"),
    ("decay-fit-behind-a-cosine-array", "seed: 1\narray: {center: [0, 3, 1.5]}\n"
     "channel: {mode: los-only, element_pattern: cosine}\nfit_exclude_near_field: false\n",
     "finding: grid: the decay fit cannot run on the cut rows: decay fit requires strictly "
     "positive distances and fields; the cosine pattern gives no field at y <= 3 m\n"),
    ("negative-svg-vmax", "seed: 1\nsvg_vmax: -1\n", "finding: svg_vmax: must be positive\n"),
    ("zero-svg-vmax", "seed: 1\nsvg_vmax: 0\n", "finding: svg_vmax: must be positive\n"),
    ("negative-rates", "seed: 1\nofdm: {sample_rate: -61.44e6, subcarrier_spacing: -15000.0}\n",
     "ofdm: subcarrier_spacing must be positive"),
    ("slash-id", "seed: 1\nscenarios: [a/b]\n"
     "custom_scenarios: [{id: a/b, ue_positions: [[0, 4]]}]\n",
     "custom_scenarios[0].id: 'a/b' cannot name artifact files"),
    ("backslash-id", 'seed: 1\ncustom_scenarios: [{id: "a\\\\b", ue_positions: [[0, 4]]}]\n',
     "custom_scenarios[0].id"),
    ("nul-id", 'seed: 1\ncustom_scenarios: [{id: "a\\0b", ue_positions: [[0, 4]]}]\n',
     "custom_scenarios[0].id"),
    ("empty-id", 'seed: 1\ncustom_scenarios: [{id: "", ue_positions: [[0, 4]]}]\n',
     "custom_scenarios[0].id: '' cannot name artifact files"),
]


@pytest.mark.parametrize("text,expected", [case[1:] for case in BAD_DOCUMENTS],
                         ids=[case[0] for case in BAD_DOCUMENTS])
def test_bad_document_is_a_finding(tmp_path, capsys, text, expected):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert cli_main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    output = captured.out + captured.err
    assert expected in output
    assert output.startswith(("finding: ", "error: "))
    if expected != "not valid YAML":
        assert not validate(yaml.safe_load(text)).ok


def _placement_sweep_document(n_scenarios=96):
    """A campaign document with many seeded custom placements of 1-8 users."""
    rng = np.random.default_rng(5)
    custom = [{"id": f"p{i + 1:02d}",
               "ue_positions": rng.uniform((-3.5, 1.0), (3.5, 14.0), (i % 8 + 1, 2))
               .round(3).tolist()}
              for i in range(n_scenarios)]
    doc = dict(EXPLICIT, seed=9, custom_scenarios=custom, scenarios=[c["id"] for c in custom])
    return yaml.safe_dump(doc, sort_keys=True)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("text", [
    *(pytest.param(case[1], id=case[0]) for case in BAD_DOCUMENTS),
    pytest.param(_read(CONFIG_PATH), id="paper-defaults"),
    pytest.param(_placement_sweep_document(), id="placement-sweep"),
])
def test_libyaml_loader_reads_what_the_python_loader_reads(tmp_path, capsys, monkeypatch, text):
    chosen = config._YAML_LOADER
    if yaml.__with_libyaml__:
        assert chosen is yaml.CSafeLoader
    path = tmp_path / "doc.yaml"
    path.write_text(text)
    outcomes = []
    for loader in (yaml.SafeLoader, chosen):
        monkeypatch.setattr(config, "_YAML_LOADER", loader)
        try:
            outcomes.append(repr(read_yaml(path)))  # repr: NaN equals NaN
        except ConfigError as exc:
            assert "not valid YAML" in str(exc)
            assert cli_main(["validate", "--config", str(path)]) == 1
            assert "not valid YAML" in capsys.readouterr().err
            outcomes.append("not valid YAML")
    assert outcomes[0] == outcomes[1]


def test_grid_budget_is_checked_before_allocating():
    tracemalloc.start()
    try:
        report = validate({"seed": 1, "grid": {"spacing": 1e-4}})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert any("budget" in f for f in report.findings)
    assert peak < 1 << 20


def test_budgets_keep_the_default_array_and_time_domain_frame():
    # 64 active elements fit over every grid the point budget allows.
    assert MAX_GAIN_ENTRIES == MAX_GRID_POINTS * 64
    assert validate({"seed": 1, "grid": {"spacing": 0.1}}).ok
    assert validate({"seed": 1, "ofdm": {"time_domain": True}}).ok


def test_gain_budget_is_checked_before_allocating():
    tracemalloc.start()
    try:
        report = validate({"seed": 1, "grid": {"spacing": 0.008},
                           "array": {"rows": 32, "cols": 64, "spacing": 0.04,
                                     "active": "all"}})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert any("field-gain budget" in f for f in report.findings)
    assert peak < 1 << 20


def test_cut_x_finding_stays_short_on_a_fine_grid():
    # 923 columns in one row: listing them all made a 7377-character line.
    # One row is also too few for the decay fit, which is the second finding.
    report = validate({"seed": 1, "grid": {"spacing": 0.0065, "y_max": 1.0}})
    finding, fit = report.findings
    assert fit.startswith("grid: the decay fit cannot run on the cut rows")
    assert finding.startswith("cut_x: 0 is not a grid column")
    assert "-0.0035 and 0.003" in finding
    assert len(finding) < 200


def test_symbol_budget_leaves_room_for_long_runs():
    # 200 frames on the flat path are 8.5e6 slots per stream, 50x the default run.
    assert validate({"seed": 1, "ofdm": {"frames": 200}}).ok


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, st.text(max_size=8))
_MIXED = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4))
_TYPED = {bool: st.booleans(), int: st.integers(), float: _FLOATS, str: st.text(max_size=12)}
# Well-typed values for keys whose default's type says too little.
_TYPED_KEYS = {
    "seed": st.integers(min_value=0),
    "scenarios": st.lists(st.sampled_from(["1", "5", "8", "x"]), max_size=3),
    "custom_scenarios": st.lists(
        st.fixed_dictionaries({
            "id": st.one_of(st.text(max_size=3), st.integers()),
            "ue_positions": st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=9),
        }),
        max_size=2,
    ),
    "formats": st.lists(st.sampled_from(["ascii", "csv", "json", "svg"])),
    "svg_vmax": st.one_of(st.none(), _FLOATS),
    "center": st.lists(_FLOATS, min_size=3, max_size=3),
    "active": st.sampled_from(["all", "central-8x8", "corner"]),
    "mode": st.sampled_from(["los-only", "image-order-1", "ray-traced"]),
    "element_pattern": st.sampled_from(["isotropic", "cosine", "dipole"]),
}


def _document(keys, mixed, required=()):
    """Mappings over ``keys``; with ``mixed`` any value may be of any type."""
    values = {}
    for key, default in keys.items():
        if isinstance(default, dict):
            value = _document(default, mixed)
        else:
            value = _TYPED_KEYS.get(key, _TYPED.get(type(default), _MIXED))
        values[key] = st.one_of(value, _MIXED) if mixed else value
    return st.fixed_dictionaries({k: values.pop(k) for k in required}, optional=values)


# Well-typed documents get past from_dict more often and so exercise validate.
_DOCUMENTS = st.one_of(_document(schema(RunConfig()), mixed=False, required=("seed",)),
                       _document(schema(RunConfig()), mixed=True))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_DOCUMENTS)
def test_any_document_gives_a_config_error_or_a_report(doc):
    try:
        from_dict(doc)
    except ConfigError:
        pass
    assert isinstance(validate(doc), ValidationReport)


# One scenario on a narrowband link over a small grid: about 12 ms a run.
# The values straddle what validate must catch: grids that end before the
# far-field distance (0.69, 2.75 or 5.59 m for the three element spacings),
# rows at y = 0, rows at or behind an array that the cosine pattern leaves
# unlit, off-grid cuts, non-positive colour scales, and arrays with fewer
# active elements than a scenario has users (or too few for central-8x8).
_RUNNABLE = st.fixed_dictionaries({
    "seed": st.integers(0, 3),
    "scenarios": st.lists(st.sampled_from([str(i) for i in range(1, 9)]),
                          min_size=1, max_size=1),
    "formats": st.sampled_from([["csv"], ["ascii", "svg"]]),
    "fit_exclude_near_field": st.booleans(),
    "cut_x": st.sampled_from([0.0, 0.0, -1.0, 1.0, 0.5]),
    "svg_vmax": st.sampled_from([None, None, None, 3.0, 0.5, 0.0, -1.0]),
    "calibration": st.sampled_from([0.5, 1.0]),
    "array": st.fixed_dictionaries({
        "rows": st.sampled_from([1, 2, 8, 16]),
        "cols": st.sampled_from([1, 2, 8]),
        "active": st.sampled_from(["all", "central-8x8"]),
        "spacing": st.sampled_from([0.02, 0.04, 0.057]),
        "center": st.sampled_from([[0.0, 0.0, 1.5], [0.0, 1.0, 1.5], [0.0, 3.0, 1.5]]),
    }),
    "room": st.fixed_dictionaries({"wall_reflection": st.sampled_from([-0.6, 0.0])}),
    "channel": st.fixed_dictionaries({
        "mode": st.sampled_from(["los-only", "image-order-1"]),
        "element_pattern": st.sampled_from(["isotropic", "cosine"]),
    }),
    "ofdm": st.just({"sample_rate": 960000.0, "fft_size": 64, "active_subcarriers": 48,
                     "frame_samples": 1024, "frames": 1}),
    "grid": st.fixed_dictionaries({
        "x_min": st.sampled_from([-2.0, -1.0, 0.0]),
        "x_max": st.sampled_from([0.0, 1.0, 2.0]),
        "y_min": st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        "y_max": st.sampled_from([2.0, 4.0, 8.0, 12.0]),
        "spacing": st.sampled_from([0.5, 1.0, 2.0]),
    }),
})


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_RUNNABLE)
def test_a_document_that_validates_runs(doc):
    if not validate(doc).ok:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli_main(["run", "--config", path, "--out", os.path.join(tmp, "out")])
    assert status == 0
