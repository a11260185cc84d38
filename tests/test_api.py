"""The package exports the pipeline; helpers only tests call live in ``tests/``."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil

import beamfield
from beamfield import (
    ArrayGeometry,
    BerReport,
    ChannelModelConfig,
    ComplianceReport,
    CutProfile,
    OfdmConfig,
    PrecodingMatrix,
    Room,
    Scenario,
    build_array,
    check,
    combining_vectors,
    estimate_csi,
    extract_cut,
    min_compliant_distance,
    transmit_frame,
    zf_precoder,
)
from beamfield.channel import propagation_gains

PUBLIC = [
    "ArrayGeometry", "BeamfieldError", "BerReport", "ChannelMatrix",
    "ChannelModelConfig", "ComplianceReport", "ConfigError", "CutProfile",
    "DEFAULT_LIMITS_VPM", "DegenerateChannelError", "HeatMap", "OfdmConfig",
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
# owners of a rule: the 2-D room test and the error ZF infeasibility re-labelled.
REMOVED = ("los_gain", "element_field", "superpose_fields", "power_to_field",
           "field_to_power", "FREE_SPACE_IMPEDANCE", "interference_ratio",
           "DEFAULT_CARRIER_HZ", "_field_gains", "LimitTable", "map_64qam",
           "demap_64qam", "_index_bits", "_BIT_WEIGHTS", "_BIT_SHIFTS",
           "in_footprint", "SingularMatrixError")


def _modules():
    yield beamfield
    for info in pkgutil.iter_modules(beamfield.__path__):
        yield importlib.import_module(f"beamfield.{info.name}")


def _field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def test_all_names_the_pipeline():
    assert beamfield.__all__ == PUBLIC
    assert all(hasattr(beamfield, name) for name in PUBLIC)


def test_test_only_helpers_stay_out_of_the_package():
    for module in _modules():
        assert [name for name in REMOVED if hasattr(module, name)] == [], module.__name__


def test_fields_nothing_reads_stay_deleted():
    assert _field_names(ArrayGeometry) == ["element_positions", "active_mask"]
    assert "carrier_frequency" not in inspect.signature(build_array).parameters
    assert "axis" not in _field_names(CutProfile)
    assert "exceedance_mask" not in _field_names(ComplianceReport)
    assert _field_names(PrecodingMatrix) == ["w"]
    assert not hasattr(PrecodingMatrix, "total_power")
    # The run seed and RunConfig.tx_power_w own the seeds and the power.
    assert "rng_seed" not in _field_names(ChannelModelConfig) + _field_names(OfdmConfig)
    assert _field_names(Scenario) == ["id", "ue_positions", "antennas_per_ue"]
    assert _field_names(BerReport) == ["per_ue_ber", "bits_tested"]


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
    # Names the benchmark binds by keyword.
    assert _parameters(transmit_frame) == ["precoder", "h_true", "combiners", "cfg", "seed"]
    assert _parameters(propagation_gains) == ["tx_points", "rx_points", "frequency", "room",
                                              "mode", "pattern"]


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
