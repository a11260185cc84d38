import contextlib
import copy
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

from beamfield import (
    ArraySection,
    ChannelModelConfig,
    ConfigError,
    GridSection,
    OfdmConfig,
    Room,
    RunConfig,
    Scenario,
    build_array,
    build_grid,
    config,
    far_field_distance,
    generate_channel,
    load_config,
    run,
    standard_scenarios,
    validate,
    verify_manifest,
    wavelength,
)
from beamfield.channel import may_reach_unit_gain, propagation_gains
from beamfield.cli import main as cli_main
from beamfield.config import from_dict, read_yaml
from beamfield.geometry import MAX_GAIN_ENTRIES, MAX_GRID_POINTS, ue_antenna_positions

CONFIG_PATH = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "paper-defaults.yaml")

# The default campaign with every key spelled out, as the benchmark writes it.
EXPLICIT = {
    "seed": 1234,
    "scenarios": [str(i) for i in range(1, 9)],
    "custom_scenarios": [],
    "tx_power_w": 1.0,
    "formats": ["ascii", "csv", "json", "svg"],
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
        "frames": 4,
    },
    "grid": {
        "x_min": -3.0, "x_max": 3.0, "y_min": 1.0, "y_max": 8.0,
        "spacing": 1.0, "height": 1.5,
    },
}


def _assert_plan_is_built_directly(plan):
    """The plan's array, grid, scenarios and fit distance are what the public
    builders make of its config."""
    cfg = plan.config
    array = build_array(cfg.array)
    table = {s.id: s for s in (*standard_scenarios(), *cfg.custom_scenarios)}
    far_field = far_field_distance(array.aperture(), wavelength(cfg.channel.carrier_frequency))
    assert plan.array == array
    assert plan.grid == build_grid(cfg.grid, room=cfg.room)
    assert plan.scenarios == tuple(table[sid] for sid in cfg.scenarios)
    assert plan.min_distance == (far_field if cfg.fit_exclude_near_field else None)


def schema(obj):
    """{document key: default} for a config dataclass, sections nested."""
    keys = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        keys[f.name] = schema(value) if dataclasses.is_dataclass(value) else value
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

    def test_each_section_default_is_its_class_default(self):
        config = RunConfig()
        for name, cls in (("room", Room), ("array", ArraySection), ("grid", GridSection),
                          ("channel", ChannelModelConfig), ("ofdm", OfdmConfig)):
            assert getattr(config, name) == cls(), name

    def test_the_builders_default_to_the_run_config(self):
        plan, findings = config.checked(RunConfig())
        assert findings == () and plan.config == RunConfig()
        assert (plan.array, plan.grid, plan.scenarios) == \
            (build_array(), build_grid(), tuple(standard_scenarios()))

    def test_every_document_key_names_a_field(self):
        def unnamed(doc, obj, path):
            names = {f.name for f in dataclasses.fields(obj)}
            missing = [f"{path}{key}" for key in doc if key not in names]
            for key, value in doc.items():
                if isinstance(value, dict) and key in names:
                    missing += unnamed(value, getattr(obj, key), f"{path}{key}.")
            return missing

        assert unnamed(read_yaml(CONFIG_PATH), RunConfig(), "") == []

    def test_retired_keys_at_their_one_value_still_load(self):
        # The benchmark's workloads spell out both retired keys at these values.
        doc = copy.deepcopy(EXPLICIT)
        doc["workers"] = 1
        doc["ofdm"]["time_domain"] = False
        assert from_dict(doc) == RunConfig()
        assert validate(doc) == ()

    @pytest.mark.parametrize("doc,finding", [
        ({"workers": 2}, "workers: retired, runs are serial; remove the key (got 2)"),
        ({"workers": True}, "workers: retired, runs are serial; remove the key (got True)"),
        ({"ofdm": {"time_domain": True}}, "ofdm.time_domain: retired, the BER path is the "
         "flat k x k one; remove the key (got True)"),
        ({"ofdm": {"time_domain": "false"}}, "ofdm.time_domain: retired, the BER path is "
         "the flat k x k one; remove the key (got 'false')"),
    ], ids=["workers-2", "workers-true", "time-domain-true", "time-domain-string"])
    def test_retired_keys_at_any_other_value_are_one_finding(self, doc, finding):
        assert validate(dict(doc, seed=1)) == (finding,)

    def test_retired_fields_are_gone(self):
        with pytest.raises(TypeError):
            RunConfig(workers=1)
        with pytest.raises(TypeError):
            OfdmConfig(time_domain=False)

    def test_infinite_snrs_mean_perfect_csi_and_no_noise(self):
        doc = {"seed": 1, "channel": {"csi_snr_db": math.inf},
               "ofdm": {"noise_snr_db": math.inf}}
        assert validate(doc) == ()
        doc["ofdm"]["noise_snr_db"] = -math.inf
        assert validate(doc) == ("ofdm.noise_snr_db: must be finite, got -inf",)


def _element_on_the_grid(spacing, height=1.3005):
    """An active element at (0, 0, 1.3005) m and, at ``height``, a probe row at y = 0."""
    return (f"seed: 1\narray: {{center: [0.1995, 0, 1.5]}}\n"
            f"grid: {{y_min: 0, height: {height!r}, spacing: {spacing}}}\n")


# Each document passed validation, was read as something else, or crashed.
BAD_DOCUMENTS = [
    ("nan-noise-snr", "seed: 1\nofdm: {noise_snr_db: .nan}\n", "ofdm.noise_snr_db"),
    ("nan-csi-snr", "seed: 1\nchannel: {csi_snr_db: .nan}\n", "channel.csi_snr_db"),
    ("inf-calibration", "seed: 1\ncalibration: .inf\n", "calibration: must be finite"),
    ("huge-calibration", "seed: 1\ncalibration: 1.0e+308\n",
     "finding: calibration: must lie between 1e-100 and 1e+100; got 1e+308\n"),
    ("tiny-tx-power", "seed: 1\ntx_power_w: 1.0e-320\n",
     "finding: tx_power_w: must lie between 1e-100 and 1e+100; got 1e-320\n"),
    ("inf-carrier", "seed: 1\nchannel: {carrier_frequency: .inf}\n",
     "channel.carrier_frequency"),
    ("string-bool", 'seed: 1\nfit_exclude_near_field: "false"\n', "fit_exclude_near_field"),
    ("yes-no-string", 'seed: 1\nfit_exclude_near_field: "no"\n', "fit_exclude_near_field"),
    ("fractional-frames", "seed: 1\nofdm: {frames: 2.5}\n", "ofdm.frames"),
    ("short-position", "seed: 1\ncustom_scenarios: [{id: x, ue_positions: [[1]]}]\n",
     "custom_scenarios[0].ue_positions[0]"),
    ("list-root", "- seed: 1\n", "config root"),
    ("yaml-syntax", "seed: [1\n", "not valid YAML"),
    # PyYAML keeps the last value of a repeated key: these ran with seed 2 and 3 frames.
    ("repeated-key", "seed: 1\nseed: 2\n",
     "not valid YAML: line 2: key 'seed' is repeated (first on line 1)\n"),
    ("repeated-nested-key", "seed: 1\nofdm: {frames: 1, frames: 3}\n",
     "not valid YAML: line 2: key 'frames' is repeated (first on line 2)\n"),
    ("seed-path", "seed: abc\n", "finding: seed: expected int, got 'abc'"),
    ("grid-budget", "seed: 1\ngrid: {spacing: 1e-4}\n", "budget"),
    ("nan-grid-spacing", "seed: 1\ngrid: {spacing: .nan}\n", "grid.spacing"),
    ("array-budget", "seed: 1\narray: {rows: 100000, cols: 100000}\n", "budget"),
    ("zero-fft-size", "seed: 1\nofdm: {fft_size: 0}\n", "fft_size"),
    ("frames-budget", "seed: 1\nofdm: {frames: 100000000}\n", "budget"),
    ("frame-samples-budget", "seed: 1\nofdm: {frame_samples: 409600000}\n", "budget"),
    ("ue-antennas", "seed: 1\ncustom_scenarios: [{id: x, ue_positions: [[0, 4]], "
     "antennas_per_ue: 1000000000}]\n", "custom_scenarios[0]: antennas_per_ue"),
    ("gain-budget", "seed: 1\narray: {rows: 32, cols: 64, spacing: 0.04, active: all}\n"
     "grid: {spacing: 0.008}\n", "field-gain budget"),
    ("cut-x-off-grid", "seed: 1\ngrid: {spacing: 0.0065, y_max: 1.0}\n",
     "cut_x: 0 is not a grid column"),
    ("more-users-than-elements", "seed: 1\nscenarios: [\"4\"]\narray: {rows: 1, cols: 1, "
     "active: all}\nfit_exclude_near_field: false\n",
     "scenario 4: 2 users exceed the 1 active array elements"),
    ("array-outside-room", "seed: 1\narray: {center: [0, -1, 1.5]}\n",
     "finding: array: element at (-0.1995, -1, 1.0725) lies outside the room "
     "(|x| <= 3.75, 0 <= y <= 15, 0 <= z <= 3)\n"),
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
    ("user-behind-a-cosine-array", "seed: 1\narray: {center: [0, 3, 1.5]}\n"
     "channel: {mode: los-only, element_pattern: cosine}\nscenarios: ['3']\n",
     "finding: scenario 3: user 0 at y = 2 m gets no field: the cosine pattern lights only "
     "y > 3 m\n"),
    ("user-behind-a-cosine-array-without-a-back-wall-image",
     "seed: 1\narray: {center: [0, 3, 1.5]}\nroom: {wall_reflection: [-0.6, -0.6, 0, -0.6]}\n"
     "channel: {mode: image-order-1, element_pattern: cosine}\nscenarios: ['3']\n",
     "finding: scenario 3: user 0 at y = 2 m gets no field: the cosine pattern lights only "
     "y > 3 m\n"),
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
    ("long-id", "seed: 1\ncustom_scenarios: [{id: " + "x" * 234 + ", ue_positions: [[0, 4]]}]\n",
     "finding: custom_scenarios[0].id: '" + "x" * 234 + "' cannot name artifact files: ids "
     "must be non-empty, at most 233 UTF-8 bytes long"),
    ("selected-id-twice", "seed: 1\nscenarios: ['1', '8', '1']\n",
     "finding: scenarios: id '1' is listed 2 times\n"),
    ("custom-id-twice", "seed: 1\nscenarios: [a]\ncustom_scenarios: [{id: a, ue_positions: "
     "[[0, 4]]}, {id: a, ue_positions: [[1, 4]]}]\n",
     "finding: custom_scenarios: id 'a' is defined 2 times\n"),
    ("custom-id-is-built-in", "seed: 1\nscenarios: ['1']\ncustom_scenarios: [{id: '1', "
     "ue_positions: [[2.5, 6]]}]\n",
     "finding: custom_scenarios[0].id: '1' is a built-in scenario id\n"),
    ("csi-snr-overflow", "seed: 1\nchannel: {csi_snr_db: 3100}\n",
     "finding: channel.csi_snr_db: must lie between -3000 and 3000 dB, or be +inf; got 3100\n"),
    ("csi-snr-underflow", "seed: 1\nchannel: {csi_snr_db: -4000}\n",
     "finding: channel.csi_snr_db: must lie between -3000 and 3000 dB, or be +inf; got -4000\n"),
    ("noise-snr-overflow", "seed: 1\nofdm: {noise_snr_db: -4000}\n",
     "finding: ofdm.noise_snr_db: must lie between -3000 and 3000 dB, or be +inf; got -4000\n"),
    ("ue-below-the-floor", "seed: 1\nscenarios: ['1']\nchannel: {ue_height: -5}\n",
     "finding: scenario 1: UE antenna at (-0.0854921458174905, 8, -5) lies outside the room "
     "(|x| <= 3.75, 0 <= y <= 15, 0 <= z <= 3)\n"),
    ("ue-above-the-ceiling", "seed: 1\nscenarios: ['1']\nchannel: {ue_height: 1e6}\n",
     "finding: scenario 1: UE antenna at (-0.0854921458174905, 8, 1000000) lies outside "
     "the room"),
    ("ue-antennas-a-wavelength-apart", "seed: 1\nscenarios: ['1']\n"
     "channel: {carrier_frequency: 1e-200}\n",
     "finding: scenario 1: UE antenna at (-2.248443435e+208, 8, 1.5) lies outside the "
     "room"),
    ("no-finite-wavelength", "seed: 1\nchannel: {carrier_frequency: 1e-310}\n",
     "finding: channel.carrier_frequency: 1e-310 Hz has no finite wavelength\n"),
    ("room-overflow", "seed: 1\nroom: {length_y: 1e300, width_x: 1e300}\n",
     "finding: room: 1e+300 x 1e+300 x 3 m is too large: the squared image-ray lengths "
     "overflow\n"),
    ("retired-workers", "seed: 1\nworkers: 2\n", "finding: workers: retired"),
    ("retired-workers-bool", "seed: 1\nworkers: true\n", "finding: workers: retired"),
    ("retired-time-domain", "seed: 1\nofdm: {time_domain: true}\n",
     "finding: ofdm.time_domain: retired"),
    # YAML 1.1 reads on and no as booleans and 1.50 as 1.5: they ran as
    # scenarios "True", "False" and "1.5".
    ("boolean-id-on", "seed: 1\nscenarios: [on]\n"
     "custom_scenarios: [{id: on, ue_positions: [[1, 5]]}]\n",
     "finding: scenarios[0]: expected a scenario id (a string or an integer), got True"),
    ("boolean-id-no", "seed: 1\nscenarios: ['no']\n"
     "custom_scenarios: [{id: no, ue_positions: [[1, 5]]}]\n",
     "finding: custom_scenarios[0].id: expected a scenario id (a string or an integer), "
     "got False"),
    ("float-id", "seed: 1\nscenarios: ['1.50']\n"
     "custom_scenarios: [{id: 1.50, ue_positions: [[1, 5]]}]\n",
     "finding: custom_scenarios[0].id: expected a scenario id (a string or an integer), "
     "got 1.5"),
    # A UE antenna 1 mm in front of the array, and one on active element 27.
    ("ue-at-the-array", "seed: 1\nscenarios: [near]\n"
     "custom_scenarios: [{id: near, ue_positions: [[0, 0.001]]}]\n"
     "channel: {ue_height: 1.5285}\n",
     "finding: scenario near: passive propagation produced a gain >= 1; a receive antenna "
     "is implausibly close to the array\n"),
    ("ue-on-an-element", "seed: 1\nscenarios: [elem]\n"
     "custom_scenarios: [{id: elem, ue_positions: [[-0.0285, 0]], antennas_per_ue: 1}]\n"
     "channel: {ue_height: 1.4715}\n",
     "finding: scenario elem: a probe/receive point coincides with a transmit element\n"),
    # A short and a long lattice axis: 7 and 61 columns.
    ("probe-on-an-element-7-columns", _element_on_the_grid(1.0),
     "finding: grid: a probe point coincides exactly with a transmit element\n"),
    ("probe-on-an-element-61-columns", _element_on_the_grid(0.1),
     "finding: grid: a probe point coincides exactly with a transmit element\n"),
    # libyaml composes by recursion in C: 40 000 levels killed the process.
    ("block-nesting-beyond-the-limit",
     "seed: 1\nformats:\n" + "- " * config._MAX_NESTING + "x\n",
     f"not valid YAML: collections nested more than {config._MAX_NESTING} deep\n"),
    # The file was decoded as UTF-8 before the YAML reader saw it: exit 2, no file named.
    ("bad-byte", b"seed: 1\nformats: [\xff]\n", "bad.yaml: not valid YAML: "),
]


def _alias_chain(levels=7, width=10, anchor="a"):
    """A flow list whose item k holds ``width`` aliases of item k - 1, anchored
    as ``anchor`` and k: at the defaults its repr is 58 MB, from under 400
    bytes of YAML."""
    items = [f"&{anchor}0 [" + ", ".join(["x"] * width) + "]"]
    items += [f"&{anchor}{k} [" + ", ".join([f"*{anchor}{k - 1}"] * width) + "]"
              for k in range(1, levels)]
    return "[" + ", ".join(items) + "]"


def _nested(depth):
    """A flow list ``depth`` levels deep."""
    return "[" * depth + "x" + "]" * depth


# Documents whose values were echoed whole: a finding of 58 MB, or a
# RecursionError while the message was formatted.  The loader parity test
# below does not read them: it reprs each loaded document, PyYAML's own
# composer recurses in Python and its parser is quadratic in flow depth.
HOSTILE_DOCUMENTS = [
    ("alias-chain-formats", f"seed: 1\nformats: {_alias_chain()}\n",
     "finding: formats: unknown entries [['x', 'x', "),
    ("alias-chain-seed", f"seed: {_alias_chain()}\n", "finding: seed: expected int, got [["),
    ("alias-chain-scenarios", f"seed: 1\nscenarios: [{_alias_chain()}]\n",
     "finding: scenarios[0]: expected a scenario id (a string or an integer), got [["),
    ("alias-chain-ue-positions",
     f"seed: 1\ncustom_scenarios: [{{id: a, ue_positions: [{_alias_chain()}]}}]\n",
     "finding: custom_scenarios[0].ue_positions[0]: expected a list of 2 values, got [["),
    ("alias-chain-workers", f"seed: 1\nworkers: {_alias_chain()}\n",
     "finding: workers: retired, runs are serial; remove the key (got [["),
    ("nesting-3000-deep", f"seed: 1\nformats: {_nested(3000)}\n",
     "finding: formats: unknown entries [[[[[["),
    # With the mapping around it, the list nests one level less than the limit, or one more.
    ("nesting-at-the-limit", f"seed: 1\nformats: {_nested(config._MAX_NESTING - 1)}\n",
     "finding: formats: unknown entries [[[[[["),
    ("flow-nesting-beyond-the-limit", f"seed: 1\nformats: {_nested(config._MAX_NESTING)}\n",
     f"not valid YAML: collections nested more than {config._MAX_NESTING} deep\n"),
]


def _write(path, text):
    """A case's document into ``path``: str as UTF-8, bytes as they are."""
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))


def _assert_short(output):
    """Under 1 KB, and no traceback."""
    assert len(output.encode("utf-8")) < 1024
    assert "Traceback" not in output


@pytest.mark.parametrize("text,expected", [case[1:] for case in BAD_DOCUMENTS + HOSTILE_DOCUMENTS],
                         ids=[case[0] for case in BAD_DOCUMENTS + HOSTILE_DOCUMENTS])
def test_bad_document_is_a_finding(tmp_path, capsys, text, expected):
    path = tmp_path / "bad.yaml"
    _write(path, text)
    assert cli_main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    output = captured.out + captured.err
    assert expected in output
    assert output.startswith(("finding: ", "error: "))
    if "not valid YAML" not in expected:
        plan, findings = config.checked(read_yaml(path))
        assert findings != () and plan is None
    _assert_short(output)


@pytest.mark.parametrize("text,expected", [case[1:] for case in BAD_DOCUMENTS + HOSTILE_DOCUMENTS],
                         ids=[case[0] for case in BAD_DOCUMENTS + HOSTILE_DOCUMENTS])
def test_bad_document_does_not_run(tmp_path, capsys, text, expected):
    path = tmp_path / "bad.yaml"
    _write(path, text)
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert expected in captured.err
    _assert_short(captured.out + captured.err)
    assert not (tmp_path / "out").exists()


def test_a_ue_antenna_near_the_array_but_not_at_it_runs(tmp_path):
    doc = {"seed": 1, "scenarios": ["near"], "formats": ["csv"], "ofdm": {"frames": 1},
           "custom_scenarios": [{"id": "near", "ue_positions": [[0, 0.03]]}],
           "channel": {"ue_height": 1.5285}}
    cfg = from_dict(doc)
    (near,) = cfg.custom_scenarios
    array = build_array(cfg.array)
    (channel,) = generate_channel(array, [near], cfg.room, cfg.channel)
    h = channel.h
    # The screen cannot clear it; the exact channel does: its largest gain is 0.122.
    assert may_reach_unit_gain(array.active_positions(),
                               ue_antenna_positions(near, cfg.channel), cfg.room, cfg.channel)
    assert 0.12 < np.abs(h).max() < 0.13
    assert validate(doc) == ()
    run(cfg, out_dir=str(tmp_path))
    assert verify_manifest(str(tmp_path)) == []


def test_a_custom_id_of_233_utf8_bytes_runs(tmp_path):
    # heatmap_scenario_<id>.json, the longest artifact name, fits in 255 bytes.
    # The limit counts UTF-8 bytes: 116 two-byte characters and one more byte.
    sid = "\u00e9" * 116 + "x"
    doc = {"seed": 1, "formats": ["json"], "ofdm": {"frames": 1}, "scenarios": [sid],
           "custom_scenarios": [{"id": sid, "ue_positions": [[0, 4]]}]}
    assert validate(doc) == ()
    run(doc, out_dir=str(tmp_path))
    assert verify_manifest(str(tmp_path)) == []
    doc["scenarios"] = [sid + "x"]
    doc["custom_scenarios"][0]["id"] = sid + "x"
    assert validate(doc) == (f"custom_scenarios[0].id: {sid + 'x'!r} cannot name artifact "
                             "files: ids must be non-empty, at most 233 UTF-8 bytes long, "
                             "without '/', '\\' or NUL",)


def test_a_custom_id_without_a_utf8_form_does_not_run(tmp_path):
    # A lone surrogate, which only a Python document can hold, names no file.
    doc = {"seed": 1, "formats": ["json"], "ofdm": {"frames": 1}, "scenarios": ["\ud800"],
           "custom_scenarios": [{"id": "\ud800", "ue_positions": [[0, 4]]}]}
    assert validate(doc) == ("custom_scenarios[0].id: '\\ud800' cannot name artifact "
                             "files: ids must be non-empty, at most 233 UTF-8 bytes long, "
                             "without '/', '\\' or NUL",)
    with pytest.raises(ConfigError, match="configuration invalid"):
        run(doc, out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


# Configs built in Python that break a rule the document parser enforces, and
# the parser's own text for it; a float row count is read as the integer it is.
BUILT_CONFIGS = [
    ("float-seed", RunConfig(seed=1.5), "seed: expected int, got 1.5"),
    ("string-scenarios", RunConfig(scenarios="12"), "scenarios: expected a list, got '12'"),
    ("unknown-format", RunConfig(formats=("png",)), "formats: unknown entries ['png']"),
    ("string-formats", RunConfig(formats="csv"), "formats: expected a list, got 'csv'"),
    ("string-flag", RunConfig(fit_exclude_near_field="no"),
     "fit_exclude_near_field: expected bool, got 'no'"),
    ("float-frames", RunConfig(ofdm=OfdmConfig(frames=2.5)),
     "ofdm.frames: expected int, got 2.5"),
    ("float-rows", RunConfig(array=ArraySection(rows=16.0)), None),
]


@pytest.mark.parametrize("built, finding", [case[1:] for case in BUILT_CONFIGS],
                         ids=[case[0] for case in BUILT_CONFIGS])
def test_a_built_config_meets_the_document_rules(tmp_path, built, finding):
    plan, findings = config.checked(built)
    assert findings == validate(dataclasses.asdict(built))
    assert (plan is None) == (findings != ())
    if finding is None:
        assert findings == ()
        assert plan.config == RunConfig()
        _assert_plan_is_built_directly(plan)
        # It runs as the document rules read it: the manifest of 16 integer rows.
        small = {"scenarios": ("1",), "formats": ("json",), "ofdm": OfdmConfig(frames=1)}
        manifests = [run(dataclasses.replace(c, **small), out_dir=str(tmp_path / name)).artifacts
                     for name, c in (("float", built), ("int", RunConfig()))]
        assert manifests[0] == manifests[1]
    else:
        assert len(findings) == 1 and findings[0].startswith(finding), findings
        with pytest.raises(ConfigError, match="configuration invalid"):
            run(built, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


def test_a_scenario_selected_twice_on_the_command_line_does_not_run(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", "1", "--scenario", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: configuration invalid:\n" \
        "finding: scenarios: id '1' is listed 2 times\n"
    assert not out.exists()


@pytest.mark.parametrize("section,key", [("channel", "csi_snr_db"), ("ofdm", "noise_snr_db")])
@pytest.mark.parametrize("snr_db", [-config.MAX_SNR_DB, config.MAX_SNR_DB])
def test_snrs_at_the_range_edges_run(tmp_path, section, key, snr_db):
    # pytest turns a RuntimeWarning from an overflowing power into an error.
    doc = {"seed": 1, "scenarios": ["8"], "formats": ["csv"],
           "channel": {}, "ofdm": {"sample_rate": 960000.0, "fft_size": 64,
                                   "active_subcarriers": 48, "frame_samples": 1024}}
    doc[section][key] = snr_db
    assert validate(doc) == ()
    manifest = run(from_dict(doc), out_dir=str(tmp_path))
    assert verify_manifest(str(tmp_path)) == []
    assert "ber.csv" in manifest.paths()


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
        assert issubclass(chosen, yaml.CSafeLoader)
    path = tmp_path / "doc.yaml"
    _write(path, text)
    outcomes = []
    for loader in (config._rejecting_repeated_keys(yaml.SafeLoader), chosen):
        monkeypatch.setattr(config, "_YAML_LOADER", loader)
        try:
            outcomes.append(repr(read_yaml(path)))  # repr: NaN equals NaN
        except ConfigError as exc:
            assert "not valid YAML" in str(exc)
            assert cli_main(["validate", "--config", str(path)]) == 1
            assert "not valid YAML" in capsys.readouterr().err
            outcomes.append("not valid YAML")
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("loader", [config._rejecting_repeated_keys(yaml.SafeLoader),
                                    config._YAML_LOADER], ids=["python", "chosen"])
def test_a_merge_key_yields_to_the_mapping_s_own_keys(tmp_path, monkeypatch, loader):
    # A << merge repeats no key: the mapping's own keys override what it
    # merges, and the first of several merged mappings wins.
    monkeypatch.setattr(config, "_YAML_LOADER", loader)
    path = tmp_path / "merge.yaml"
    path.write_text("fine: &fine {spacing: 0.5, x_min: -3}\nwide: &wide {x_min: -3.5, y_min: 0}\n"
                    "grid: {<<: [*fine, *wide], spacing: 0.25}\n"
                    "reused: {<<: *fine, spacing: 1.0}\n")
    doc = read_yaml(path)
    assert doc["grid"] == {"spacing": 0.25, "x_min": -3, "y_min": 0}
    assert doc["reused"] == {"spacing": 1.0, "x_min": -3}


def test_grid_budget_is_checked_before_allocating():
    tracemalloc.start()
    try:
        findings = validate({"seed": 1, "grid": {"spacing": 1e-4}})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert any("budget" in f for f in findings)
    assert peak < 1 << 20


def test_validating_a_grid_near_the_point_budget_holds_only_its_axes():
    # 726 x 1363 = 989 538 points; validation reads the lattice axes alone.
    doc = {"seed": 1, "cut_x": -3.7,
           "grid": {"x_min": -3.7, "x_max": 3.7, "y_min": 1, "y_max": 14.9, "spacing": 0.0102}}
    tracemalloc.start()
    try:
        findings = validate(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert findings == ()
    assert peak < 2 << 20


def test_budgets_keep_the_default_array():
    # 64 active elements fit over every grid the point budget allows.
    assert MAX_GAIN_ENTRIES == MAX_GRID_POINTS * 64
    assert validate({"seed": 1, "grid": {"spacing": 0.1}}) == ()


def test_gain_budget_is_checked_before_allocating():
    tracemalloc.start()
    try:
        findings = validate({"seed": 1, "grid": {"spacing": 0.008},
                             "array": {"rows": 32, "cols": 64, "spacing": 0.04,
                                       "active": "all"}})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert any("field-gain budget" in f for f in findings)
    assert peak < 1 << 20


def test_cut_x_finding_stays_short_on_a_fine_grid():
    # 923 columns in one row: listing them all made a 7377-character line.
    # One row is also too few for the decay fit, which is the second finding.
    finding, fit = validate({"seed": 1, "grid": {"spacing": 0.0065, "y_max": 1.0}})
    assert fit.startswith("grid: the decay fit cannot run on the cut rows")
    assert finding.startswith("cut_x: 0 is not a grid column")
    assert "-0.0035 and 0.003" in finding
    assert len(finding) < 200


@pytest.mark.parametrize("spacing", [1.0, 0.1])
def test_a_probe_row_a_nanometre_off_the_element_is_no_finding(spacing):
    assert validate(yaml.safe_load(_element_on_the_grid(spacing, 1.3005 + 1e-9))) == ()


def test_symbol_budget_leaves_room_for_long_runs():
    # 200 frames on the flat path are 8.5e6 slots per stream, 50x the default run.
    assert validate({"seed": 1, "ofdm": {"frames": 200}}) == ()


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
    findings = validate(doc)
    assert isinstance(findings, tuple)
    assert all(isinstance(f, str) for f in findings)


# YAML text, not Python objects: flow values that may be alias chains or
# nest deep, under RunConfig's keys and a retired one, with perhaps one byte
# that is not UTF-8 or not allowed in YAML.  The nests stay far below the
# depth at which libyaml crashed, so the test runs in this process.
_YAML_SCALARS = st.sampled_from(["1", "-3", "2.5", "1e-4", ".nan", ".inf", "true", "no", "~",
                                 "''", "x", "csv", "'1'", '"\\u00e9"', "2001-12-14"])
_YAML_KEYS = st.sampled_from(["id", "ue_positions", "frames", "time_domain", "spacing", "mode",
                              "zz"])
_YAML_VALUES = st.recursive(
    st.one_of(_YAML_SCALARS,
              st.builds(_nested, st.sampled_from([2, 64, 1500, config._MAX_NESTING])),
              st.builds(_alias_chain, st.integers(1, 7), st.integers(1, 10),
                        st.sampled_from(["a", "b", "c"]))),
    lambda values: st.one_of(
        st.lists(values, max_size=4).map(lambda items: "[" + ", ".join(items) + "]"),
        st.lists(st.tuples(_YAML_KEYS, values), max_size=3).map(
            lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}")),
    max_leaves=6)


@st.composite
def _yaml_texts(draw):
    keys = draw(st.lists(st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]
                                         + ["workers"]), unique=True, max_size=4))
    seed = draw(st.just("1") | _YAML_VALUES)
    data = "".join(f"{key}: {value}\n" for key, value in
                   [("seed", seed)] + [(key, draw(_YAML_VALUES)) for key in keys]).encode()
    if not draw(st.booleans()):
        return data
    at = draw(st.integers(0, len(data)))
    byte = draw(st.sampled_from([b"\x00", b"\x80", b"\xc3", b"\xfe", b"\xff"]))
    return data[:at] + byte + data[at:]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_yaml_texts())
def test_any_yaml_text_gives_a_short_report(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.yaml")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["validate", "--config", path])
    assert code in (0, 1)
    _assert_short(out.getvalue() + err.getvalue())


def test_the_python_loader_reports_a_nest_too_deep_for_it(tmp_path, monkeypatch):
    # PyYAML's own composer recurses in Python: 1 000 levels exceed the recursion limit.
    monkeypatch.setattr(config, "_YAML_LOADER", config._rejecting_repeated_keys(yaml.SafeLoader))
    path = tmp_path / "deep.yaml"
    _write(path, "seed: 1\nformats:\n" + "- " * 1000 + "x\n")
    with pytest.raises(ConfigError, match="not valid YAML: maximum recursion depth"):
        read_yaml(path)


def test_a_utf16_document_with_a_byte_order_mark_is_read(tmp_path):
    path = tmp_path / "utf16.yaml"
    path.write_bytes("seed: 7\nscenarios: ['\u00e9']\n".encode("utf-16"))
    assert read_yaml(path) == {"seed": 7, "scenarios": ["\u00e9"]}


# Users of the built-in scenarios, and the y of the nearest one.
_USERS = {"1": (1, 8.0), "2": (1, 4.0), "3": (1, 2.0), "4": (2, 2.0), "5": (2, 4.0),
          "6": (2, 4.0), "7": (2, 2.0), "8": (3, 2.0)}
_WAVELENGTH = 299_792_458.0 / 2.63e9


def _far_field(rows, cols, spacing):
    """2 D^2 / lambda of a rows x cols active block, D its diagonal."""
    return 2.0 * spacing ** 2 * ((rows - 1) ** 2 + (cols - 1) ** 2) / _WAVELENGTH


@st.composite
def _runnable(draw):
    """One scenario on a narrowband link over a small grid, valid by construction.

    About 12 ms a run.  The array is any of the drawn sizes and policies;
    central-8x8 only where the array has 8 x 8 elements.  Arrays of fewer
    than 8 active elements carry one user: two users on one symmetry axis
    of a 2-element array see identical channels.  The cosine pattern
    lights nothing behind the array, so its users and grid rows lie in
    front of it, and at least 3 rows lie at or beyond the fit cutoff; the
    cut is a grid column.
    """
    rows = draw(st.sampled_from([1, 2, 8, 16]))
    cols = draw(st.sampled_from([1, 2, 8]))
    active = draw(st.sampled_from(["all", "central-8x8"] if min(rows, cols) >= 8 else ["all"]))
    spacing = draw(st.sampled_from([0.02, 0.04, 0.057]))
    center_y = draw(st.sampled_from([0.0, 1.0, 3.0]))
    n_active = 64 if active == "central-8x8" else rows * cols
    pattern = draw(st.sampled_from(["isotropic", "cosine"]))
    scenario = draw(st.sampled_from([
        s for s, (n, nearest) in _USERS.items()
        if (n == 1 or n_active >= 8) and (pattern == "isotropic" or nearest > center_y)]))

    step = draw(st.sampled_from([0.5, 1.0, 2.0]))
    x_min = draw(st.sampled_from([-2.0, -1.0, 0.0]))
    x_max = draw(st.sampled_from([0.0, 1.0, 2.0]))
    y_min = draw(st.sampled_from([y for y in (0.5, 1.0, 2.0, 4.0) if y > center_y]))
    side = 8 if active == "central-8x8" else None
    cutoff = _far_field(side or rows, side or cols, spacing)

    def kept_rows(y_max, exclude):
        ys = [y_min + k * step for k in range(int((y_max - y_min) / step + 1e-9) + 1)]
        # A margin keeps rows clear of rounding at the cutoff.
        return sum(1 for y in ys if not exclude or y >= cutoff * (1 + 1e-6))

    exclude = draw(st.booleans()) and kept_rows(15.0, True) >= 3
    y_max = draw(st.sampled_from([y for y in (4.0, 8.0, 12.0, 15.0)
                                  if kept_rows(y, exclude) >= 3]))
    columns = [x_min + j * step for j in range(int((x_max - x_min) / step + 1e-9) + 1)]
    return {
        "seed": draw(st.integers(0, 3)),
        "scenarios": [scenario],
        "formats": draw(st.sampled_from([["csv"], ["ascii", "svg"]])),
        "fit_exclude_near_field": exclude,
        "cut_x": draw(st.sampled_from(columns)),
        "svg_vmax": draw(st.sampled_from([None, None, 3.0, 0.5])),
        "calibration": draw(st.sampled_from([0.5, 1.0])),
        "array": {"rows": rows, "cols": cols, "active": active, "spacing": spacing,
                  "center": [0.0, center_y, 1.5]},
        "room": {"wall_reflection": draw(st.sampled_from([-0.6, 0.0]))},
        "channel": {"mode": draw(st.sampled_from(["los-only", "image-order-1"])),
                    "element_pattern": pattern},
        "ofdm": {"sample_rate": 960000.0, "fft_size": 64, "active_subcarriers": 48,
                 "frame_samples": 1024, "frames": 1},
        "grid": {"x_min": x_min, "x_max": x_max, "y_min": y_min, "y_max": y_max,
                 "spacing": step},
    }


_RUNNABLE = _runnable()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_RUNNABLE)
def test_a_document_that_validates_runs(doc):
    plan, findings = config.checked(doc)
    assert findings == ()
    _assert_plan_is_built_directly(plan)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli_main(["run", "--config", path, "--out", os.path.join(tmp, "out")])
    assert status == 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_RUNNABLE)
def test_a_loaded_config_is_its_own_document_form(doc):
    # A run reads a built config through asdict, so a loaded one must come back unchanged.
    loaded = from_dict(doc)
    assert from_dict(dataclasses.asdict(loaded)) == loaded


def _set(doc, path, value):
    """A deep copy of ``doc`` with the dotted ``path`` set to ``value``."""
    doc = copy.deepcopy(doc)
    *sections, key = path.split(".")
    target = doc
    for section in sections:
        target = target.setdefault(section, {})
    target[key] = value
    return doc


def _small_array(doc, rows, cols, active):
    array = dict(doc["array"], rows=rows, cols=cols, active=active)
    return dict(doc, array=array)


def _user_at_the_array_face(doc):
    """One user at the y of the array face, and a cosine pattern with no wall images."""
    y = doc["array"]["center"][1]
    doc = _set(doc, "custom_scenarios", [{"id": "u", "ue_positions": [[0.0, y]]}])
    doc = _set(doc, "scenarios", ["u"])
    doc = _set(doc, "channel.mode", "los-only")
    return _set(doc, "channel.element_pattern", "cosine")


# Each breaks one rule of a runnable document: (name, mutate, the finding's start).
MUTATIONS = [
    ("negative-seed", lambda d: _set(d, "seed", -1), "seed: must be non-negative"),
    ("infinite-calibration", lambda d: _set(d, "calibration", math.inf),
     "calibration: must be finite"),
    ("zero-svg-vmax", lambda d: _set(d, "svg_vmax", 0.0), "svg_vmax: must be positive"),
    ("undefined-scenario", lambda d: _set(d, "scenarios", ["nine"]),
     "scenarios: id 'nine' is not defined"),
    ("scenario-listed-twice", lambda d: _set(d, "scenarios", d["scenarios"] * 2),
     "scenarios: id '{scenario}' is listed 2 times"),
    ("slash-in-custom-id", lambda d: _set(d, "custom_scenarios",
                                          [{"id": "a/b", "ue_positions": [[0, 4]]}]),
     "custom_scenarios[0].id"),
    ("frames-budget", lambda d: _set(d, "ofdm.frames", 20_000), "ofdm: 1.54e+07 samples"),
    ("csi-snr-overflow", lambda d: _set(d, "channel.csi_snr_db", 3100.0),
     "channel.csi_snr_db: must lie between -3000 and 3000 dB"),
    ("csi-snr-underflow", lambda d: _set(d, "channel.csi_snr_db", -4000.0),
     "channel.csi_snr_db: must lie between -3000 and 3000 dB"),
    ("noise-snr-overflow", lambda d: _set(d, "ofdm.noise_snr_db", -4000.0),
     "ofdm.noise_snr_db: must lie between -3000 and 3000 dB"),
    ("no-finite-wavelength", lambda d: _set(d, "channel.carrier_frequency", 1e-310),
     "channel.carrier_frequency: 1e-310 Hz has no finite wavelength"),
    ("room-overflow", lambda d: _set(d, "room.length_y", 1e300),
     "room: 7.5 x 1e+300 x 3 m is too large"),
    ("ue-below-the-floor", lambda d: _set(d, "channel.ue_height", -0.5),
     "scenario {scenario}: UE antenna at"),
    ("ue-above-the-ceiling", lambda d: _set(d, "channel.ue_height", 3.5),
     "scenario {scenario}: UE antenna at"),
    ("central-8x8-on-a-small-array", lambda d: _small_array(d, 2, 2, "central-8x8"),
     "central-8x8 needs at least an 8x8 array, got 2x2"),
    # Scenario 6 puts its users at y >= 4, in front of every drawn array.
    ("more-users-than-elements",
     lambda d: _set(_small_array(d, 1, 1, "all"), "scenarios", ["6"]),
     "scenario 6: 2 users exceed the 1 active array elements"),
    ("grid-outside-the-room", lambda d: _set(d, "grid.x_max", 4.0), "grid corner at (4, "),
    ("array-outside-the-room", lambda d: _set(d, "array.center", [0.0, -1.0, 1.5]),
     "array: element at"),
    ("user-at-the-array-face", _user_at_the_array_face,
     "scenario u: user 0 at y = "),
    ("cut-x-between-columns",
     lambda d: _set(d, "cut_x", d["cut_x"] + d["grid"]["spacing"] / 2),
     "cut_x: "),
    ("two-grid-rows", lambda d: _set(d, "grid.y_max", d["grid"]["y_min"] + d["grid"]["spacing"]),
     "grid: the decay fit cannot run on the cut rows"),
]


@pytest.mark.parametrize("mutate,expected", [m[1:] for m in MUTATIONS],
                         ids=[m[0] for m in MUTATIONS])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(doc=_RUNNABLE)
def test_breaking_one_rule_gives_exactly_its_finding(doc, mutate, expected):
    plan, findings = config.checked(mutate(doc))
    assert len(findings) == 1 and plan is None, findings
    assert findings[0].startswith(expected.format(scenario=doc["scenarios"][0])), findings


def test_a_point_outside_the_room_gets_one_message_from_every_site():
    # A UE antenna, a transmit point and a grid corner at the same place.
    where = "at (5, 4, 1.5) lies outside the room (|x| <= 3.75, 0 <= y <= 15, 0 <= z <= 3)"
    doc = {"seed": 1, "scenarios": ["s"],
           "custom_scenarios": [{"id": "s", "ue_positions": [[5.0, 4.0]], "antennas_per_ue": 1}]}
    assert validate(doc) == (f"scenario s: UE antenna {where}",)
    room = Room()
    user = Scenario(id="s", ue_positions=((5.0, 4.0),), antennas_per_ue=1)
    calls = [
        lambda: generate_channel(build_array(), [user], room, ChannelModelConfig()),
        lambda: propagation_gains([(5.0, 4.0, 1.5)], [(0.0, 4.0, 1.5)], 2.63e9, room,
                                  "image-order-1", "isotropic"),
        lambda: build_grid(GridSection(5.0, 5.0, 4.0, 4.0, 1.0, 1.5), room=room),
    ]
    messages = []
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        messages.append(str(exc.value))
    assert messages == [f"UE antenna {where}", f"transmit point {where}", f"grid corner {where}"]
