"""Massive-MIMO downlink beamforming and indoor RF-EMF exposure simulator.

Pipeline per scenario: generate the propagation channel, estimate CSI
from pilots, build the zero-forcing precoder with per-user receive
combining, transmit OFDM/64-QAM frames for the uncoded BER, and
superpose the radiated fields over a probe grid into an RMS E-field heat
map.  Heat maps feed the statistics (averaging, cuts, decay fits) and
the regulatory compliance checks.

Importing the package loads none of its layers. Each exported name, and
each layer module (``beamfield.runner``), loads its module on first use
(PEP 562), so ``beamfield validate`` loads only ``config``,
``geometry``, ``channel``, ``ofdm``, ``stats`` and ``errors``.
"""

import importlib

__version__ = "0.1.0"

# The layer module that defines each exported name; ``__all__`` lists them sorted.
_HOMES = {
    "channel": ("ChannelMatrix", "ChannelModelConfig", "estimate_csi", "generate_channel"),
    "compliance": ("DEFAULT_LIMITS_VPM", "ComplianceReport", "check",
                   "min_compliant_distance"),
    "config": ("RunConfig", "from_dict", "load_config", "validate"),
    "errors": ("BeamfieldError", "ConfigError", "DegenerateChannelError",
               "UnknownRegionError", "ZfInfeasibleError"),
    "field": ("HeatMap", "compute_heatmap", "heatmaps", "probe_gains"),
    "geometry": ("ArrayGeometry", "ArraySection", "GridSection", "ProbeGrid", "Room",
                 "Scenario", "build_array", "build_grid", "far_field_distance",
                 "standard_scenarios", "wavelength"),
    "linalg": ("right_pseudo_inverse",),
    "ofdm": ("BerReport", "OfdmConfig", "transmit_frame"),
    "precoding": ("PrecodingMatrix", "combining_vectors", "effective_channel",
                  "zf_precoder"),
    "runner": ("run", "verify_manifest"),
    "stats": ("CutProfile", "average_heatmaps", "extract_cut", "fit_decay", "summary"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)
_MODULES = frozenset(_HOMES) | {"cli", "render"}


def __getattr__(name):
    # Not cached in the package: a name rebound in its home module (the
    # benchmark's tracer does so) reads through here as rebound.
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _MODULES)
