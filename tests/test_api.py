"""The package exports the pipeline; helpers only tests call live in ``tests/``."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil

import beamfield
from beamfield import ArrayGeometry, ComplianceReport, CutProfile, build_array

PUBLIC = [
    "ArrayGeometry", "BeamfieldError", "BerReport", "ChannelMatrix",
    "ChannelModelConfig", "ComplianceReport", "ConfigError", "CutProfile",
    "DEFAULT_LIMITS_VPM", "DegenerateChannelError", "HeatMap", "LimitTable",
    "OfdmConfig", "PrecodingMatrix", "ProbeGrid", "Room", "RunConfig", "Scenario",
    "SingularMatrixError", "UnknownRegionError", "ZfInfeasibleError",
    "average_heatmaps", "build_array", "build_grid", "check", "combining_vectors",
    "compute_heatmap", "demap_64qam", "effective_channel", "estimate_csi",
    "extract_cut", "far_field_distance", "fit_decay", "from_dict",
    "generate_channel", "load_config", "map_64qam", "min_compliant_distance",
    "probe_gains", "right_pseudo_inverse", "run", "standard_scenarios", "summary",
    "transmit_frame", "validate", "verify_manifest", "wavelength", "zf_precoder",
]

# Names only tests called (now in field_oracle.py), and a constant nothing read.
REMOVED = ("los_gain", "element_field", "superpose_fields", "power_to_field",
           "field_to_power", "FREE_SPACE_IMPEDANCE", "interference_ratio",
           "DEFAULT_CARRIER_HZ", "_field_gains")


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
