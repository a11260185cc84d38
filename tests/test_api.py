"""The package exports the pipeline; helpers only tests call live in ``tests/``."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import beamfield
from beamfield import (
    ArrayGeometry,
    BerReport,
    ChannelMatrix,
    ChannelModelConfig,
    ComplianceReport,
    CutProfile,
    OfdmConfig,
    PrecodingMatrix,
    ProbeGrid,
    Room,
    Scenario,
    build_array,
    build_grid,
    check,
    combining_vectors,
    estimate_csi,
    extract_cut,
    generate_channel,
    min_compliant_distance,
    transmit_frame,
    zf_precoder,
)
from beamfield.channel import lit_above, may_reach_unit_gain, propagation_gains
from beamfield.geometry import ue_antenna_positions
from beamfield.runner import run_links
from beamfield.stats import SummaryStats
from test_config import CONFIG_PATH, _placement_sweep_document
from test_golden import INPUTS

PUBLIC = [
    "ArrayGeometry", "ArraySection", "BeamfieldError", "BerReport", "ChannelMatrix",
    "ChannelModelConfig", "ComplianceReport", "ConfigError", "CutProfile",
    "DEFAULT_LIMITS_VPM", "DegenerateChannelError", "GridSection", "HeatMap", "OfdmConfig",
    "PrecodingMatrix", "ProbeGrid", "Room", "RunConfig", "Scenario",
    "UnknownRegionError", "ZfInfeasibleError",
    "average_heatmaps", "build_array", "build_grid", "check", "combining_vectors",
    "compute_heatmap", "effective_channel", "estimate_csi", "extract_cut",
    "far_field_distance", "fit_decay", "from_dict", "generate_channel", "heatmaps",
    "load_config", "min_compliant_distance", "probe_gains", "right_pseudo_inverse",
    "run", "standard_scenarios", "summary", "transmit_frame", "validate",
    "verify_manifest", "wavelength", "zf_precoder",
]

# Names only tests called (now in field_oracle.py), a constant nothing read,
# alternatives no pipeline path reached (the configurable limit table and the
# bit-level 64-QAM mapper and demapper next to the index path), and second
# owners of a rule: the 2-D room test, the error ZF infeasibility re-labelled,
# the matrix check only the pseudo-inverse called and the CLI's copy of the
# document's seed, scenario and format rules; a wrapper over the findings
# tuple and a second spelling of the noiseless receiver.
REMOVED = ("los_gain", "element_field", "superpose_fields", "power_to_field",
           "field_to_power", "FREE_SPACE_IMPEDANCE", "interference_ratio",
           "DEFAULT_CARRIER_HZ", "_field_gains", "LimitTable", "map_64qam",
           "demap_64qam", "_index_bits", "_BIT_WEIGHTS", "_BIT_SHIFTS",
           "in_footprint", "SingularMatrixError", "as_complex_matrix", "_apply_overrides",
           "ValidationReport", "_noise_power")


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = sorted(info.name for info in pkgutil.iter_modules(beamfield.__path__))


def _modules():
    yield beamfield
    for info in pkgutil.iter_modules(beamfield.__path__):
        yield importlib.import_module(f"beamfield.{info.name}")


def _field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def test_all_names_the_pipeline():
    assert beamfield.__all__ == PUBLIC
    assert all(hasattr(beamfield, name) for name in PUBLIC)


def test_every_name_is_the_object_its_home_module_defines():
    assert sorted(beamfield._HOME) == sorted(PUBLIC)
    for name in PUBLIC:
        home = importlib.import_module(f"beamfield.{beamfield._HOME[name]}")
        obj = getattr(beamfield, name)
        assert obj is getattr(home, name), name
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name


def test_a_name_rebound_in_its_home_module_reads_as_rebound(monkeypatch):
    # The benchmark's tracer rebinds layer functions and then restores them.
    original = beamfield.run
    monkeypatch.setattr(beamfield.runner, "run", lambda *a, **k: None)
    assert beamfield.run is beamfield.runner.run is not original
    monkeypatch.undo()
    assert beamfield.run is original
    assert "run" not in vars(beamfield)


def test_dir_lists_every_export_and_unknown_names_raise():
    assert set(PUBLIC) <= set(dir(beamfield))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        beamfield.no_such_name  # noqa: B018


def test_star_import_binds_every_export():
    namespace = {}
    exec("from beamfield import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == \
        {name: getattr(beamfield, name) for name in PUBLIC}


def _launch(*args, env=None):
    """A fresh ``python *args`` on this checkout, with ``env`` set over this process's own
    environment (a None value unsets its variable)."""
    env = {**os.environ, **(env or {})}
    env = {key: value for key, value in env.items() if value is not None}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_every_layer_module_resolves_after_importing_the_cli():
    # A fresh process: this one has imported every layer already.
    script = ("import sys, beamfield, beamfield.cli\n"
              "assert 'beamfield.runner' not in sys.modules\n"
              f"for layer in {LAYERS!r}:\n"
              "    assert getattr(beamfield, layer) is sys.modules['beamfield.' + layer]\n")
    result = _launch("-c", script)
    assert result.returncode == 0, result.stderr[-2000:]


_NEAR_FINDING = ("finding: scenario near: passive propagation produced a gain >= 1; a "
                 "receive antenna is implausibly close to the array\n")


# The benchmark's three workloads, as the golden inputs keep them.
_WORKLOADS = {name: path for name, path in INPUTS.items() if name != "paper-defaults"}


# A verb, its document or config path (None: no --config) and the start of its
# output.  The launch the benchmark times, on a 0.1 m grid (61 lattice columns);
# a cosine pattern (the lit_above screen); 96 custom scenarios (the unit-gain
# screen over 1 728 antennas); the paper's defaults; the scenarios verb; a UE
# antenna 1 mm from the array, whose exact check, and only that, loads numpy;
# and the benchmark's workloads.
@pytest.mark.parametrize("verb, document, output", [
    ("validate", "seed: 1\ngrid: {spacing: 0.1}\nofdm: {frames: 1}\n", "configuration OK"),
    ("validate", "seed: 1\nchannel: {element_pattern: cosine}\n", "configuration OK"),
    ("validate", _placement_sweep_document(), "configuration OK"),
    ("validate", CONFIG_PATH, "configuration OK"),
    ("scenarios", None, "id  users"),
    ("validate", "seed: 1\nscenarios: [near]\ncustom_scenarios: [{id: near, ue_positions: "
     "[[0, 0.001]]}]\nchannel: {ue_height: 1.5285}\n", _NEAR_FINDING),
    *(("validate", path, "configuration OK") for path in _WORKLOADS.values()),
], ids=["fine-grid", "cosine", "placement-sweep", "paper-defaults", "scenarios", "ue-at-the-array",
        *(f"golden-{name}" for name in _WORKLOADS)])
def test_a_validate_launch_loads_no_run_only_module(tmp_path, verb, document, output):
    args = [verb]
    if document in (CONFIG_PATH, *_WORKLOADS.values()):
        args += ["--config", document]
    elif document is not None:
        path = tmp_path / "doc.yaml"
        path.write_text(document)
        args += ["--config", str(path)]
    result = _launch("-X", "importtime", "-m", "beamfield.cli", *args)
    assert result.returncode == (1 if output == _NEAR_FINDING else 0), result.stderr[-2000:]
    assert result.stdout.startswith(output)
    loaded = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
              if line.startswith("import time:") and "|" in line}
    assert "beamfield.config" in loaded
    run_only = {"beamfield.runner", "beamfield.render", "beamfield.compliance",
                "beamfield.field", "beamfield.precoding", "beamfield.linalg", "hashlib"}
    if output != _NEAR_FINDING:
        run_only.add("numpy")
    assert loaded & run_only == set()


def test_the_geometry_and_its_screens_load_no_numpy():
    # The builders make plain tuples, and the screens read them as rows;
    # numpy is loaded only where gains are computed.
    script = ("import sys\n"
              "from beamfield.channel import ChannelModelConfig, lit_above, may_reach_unit_gain\n"
              "from beamfield.geometry import (Room, build_array, build_grid,\n"
              "                                standard_scenarios, ue_antenna_positions)\n"
              "room, cfg = Room(), ChannelModelConfig(element_pattern='cosine')\n"
              "tx = build_array().active_positions()\n"
              "assert build_grid(room=room).n_points == 56\n"
              "rx = [p for s in standard_scenarios() for p in ue_antenna_positions(s, cfg)]\n"
              "assert lit_above(tx, room, cfg) == 0.0\n"
              "assert not may_reach_unit_gain(tx, rx, room, cfg)\n"
              "assert 'numpy' not in sys.modules\n")
    result = _launch("-c", script)
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.mark.parametrize("preset, threads", [(None, "1"), ("2", "2")], ids=["unset", "preset"])
def test_a_run_launch_defaults_to_one_openblas_thread(tmp_path, preset, threads):
    # The BER path's small complex products slow down when OpenBLAS threads
    # contend for few cores; an explicit setting still wins.
    path = tmp_path / "one.yaml"
    path.write_text("seed: 1\nscenarios: ['1']\nformats: [csv]\nofdm: {frames: 1}\n")
    script = ("import os, sys\nfrom beamfield import cli\n"
              "assert cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'])\n")
    result = _launch("-c", script, str(path), str(tmp_path / "out"),
                     env={"OPENBLAS_NUM_THREADS": preset})
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.splitlines()[-1] == threads


def test_the_openblas_thread_count_changes_no_byte(tmp_path):
    # A link block's stacked SVD and each scenario's QR run through LAPACK;
    # the placement sweep's blocks stack 32 users into one SVD.
    manifests = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        result = _launch("-m", "beamfield.cli", "run", "--config", INPUTS["placement-sweep"],
                         "--out", str(out), env={"OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == 0, result.stderr[-2000:]
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


def test_test_only_helpers_stay_out_of_the_package():
    for module in _modules():
        assert [name for name in REMOVED if hasattr(module, name)] == [], module.__name__


def test_fields_nothing_reads_stay_deleted():
    assert _field_names(ArrayGeometry) == ["element_positions", "active_mask"]
    assert "carrier_frequency" not in inspect.signature(build_array).parameters
    assert _field_names(CutProfile) == ["distances", "fields"]
    # The axes are the lattice; points, count and step derive from them.
    assert _field_names(ProbeGrid) == ["x_values", "y_values", "probe_height"]
    assert "exceedance_mask" not in _field_names(ComplianceReport)
    assert _field_names(PrecodingMatrix) == ["w"]
    assert not hasattr(PrecodingMatrix, "total_power")
    # The run seed and RunConfig.tx_power_w own the seeds and the power.
    assert "rng_seed" not in _field_names(ChannelModelConfig) + _field_names(OfdmConfig)
    assert _field_names(Scenario) == ["id", "ue_positions", "antennas_per_ue"]
    assert _field_names(BerReport) == ["per_ue_ber", "bits_tested"]


def test_a_result_is_stated_once():
    # A channel's counts are its shape: users x antennas per user x elements.
    assert _field_names(ChannelMatrix) == ["h"]
    cm = ChannelMatrix(h=np.zeros((3, 2, 5), dtype=complex))
    assert (cm.n_users, cm.antennas_per_ue) == cm.h.shape[:2] == (3, 2)
    assert not hasattr(ChannelMatrix, "ue_block")
    # The summary and compliance results carry the keys their records write.
    assert _field_names(SummaryStats) == ["max_vpm", "max_position_m", "min_vpm",
                                          "mean_vpm", "p95_vpm"]
    assert "limit_vpm" in _field_names(ComplianceReport)
    assert "limit" not in _field_names(ComplianceReport)


def _parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_signatures_take_what_the_pipeline_passes():
    # One built-in limit table, one cut, combiners from the caller, fixed tolerances.
    assert _parameters(check) == ["heatmap", "region"]
    assert _parameters(min_compliant_distance) == ["profile", "region"]
    assert _parameters(combining_vectors) == ["h_est"]
    assert _parameters(zf_precoder) == ["h_est", "combiners", "total_power"]
    assert _parameters(estimate_csi) == ["true_channel", "cfg", "seed"]
    # A default seed or power would be a hidden second owner of the value.
    for fn in (zf_precoder, estimate_csi, transmit_frame):
        assert all(p.default is inspect.Parameter.empty
                   for p in inspect.signature(fn).parameters.values()), fn.__name__
    assert _parameters(extract_cut) == ["heatmap", "x"]
    assert _parameters(Room.contains) == ["self", "point"]
    assert _parameters(Room.require_inside) == ["self", "points", "what"]
    assert not hasattr(Room, "in_footprint")
    # The run's room is config.room; the array is built once per run.  The link
    # stages take the scenarios together, so a block of them shares one call.
    assert _parameters(run_links) == ["config", "scenarios", "array"]
    assert _parameters(generate_channel) == ["array", "scenarios", "room", "cfg"]
    # A builder reads its config section, which owns the defaults.
    assert _parameters(build_array) == ["section"]
    assert _parameters(build_grid) == ["section", "room"]
    # Names the benchmark binds by keyword.
    assert _parameters(transmit_frame) == ["precoder", "h_true", "combiners", "cfg", "seed"]
    assert _parameters(propagation_gains) == ["tx_points", "rx_points", "frequency", "room",
                                              "mode", "pattern"]
    # The ray model's screens and the UE antennas read the run's channel config.
    assert _parameters(lit_above) == ["tx_points", "room", "cfg"]
    assert _parameters(may_reach_unit_gain) == ["tx_points", "rx_points", "room", "cfg"]
    assert _parameters(ue_antenna_positions) == ["scenario", "cfg"]


def test_no_stage_function_defaults_the_ray_model():
    # The run's ChannelModelConfig and RunConfig own these values; a default
    # would hand a caller who leaves one out physics the run does not use.
    # build_grid() builds the run's grid, so its room alone stays optional.
    owned = {"mode", "pattern", "frequency", "room", "height", "cfg", "calibration"}
    for module in (beamfield.channel, beamfield.geometry, beamfield.field):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            defaulted = {p.name for p in inspect.signature(fn).parameters.values()
                         if p.default is not inspect.Parameter.empty} & owned
            assert defaulted == ({"room"} if fn is build_grid else set()), name


def test_the_oracle_does_not_import_the_code_it_checks():
    path = os.path.join(os.path.dirname(__file__), "field_oracle.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported <= {"cmath", "math"}
