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

Those layers load numpy on first use.  Each binds
``np = _numpy_on_first_use(globals())``, a stand-in that imports numpy
when the layer first reads an attribute of it and then rebinds the
layer's ``np`` to numpy itself, so every later ``np.<name>`` costs what
an eager import would.  Geometry values are plain floats (tuples of
positions and axes), and arrays are made only where gains are computed,
so a ``beamfield validate`` or ``beamfield scenarios`` launch loads no
numpy at all.  ``beamfield run``, the one launch that does, loads it
when it imports ``beamfield.runner``, whose run-only layers import numpy
eagerly; a library caller loads it with the first array it builds.  Only
a document whose unit-gain screen cannot clear a UE antenna at the array
loads numpy during validation, for the exact channel check.
"""

import importlib
import sys

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


class _DeferredNumpy:
    """numpy's stand-in in one module's globals until the module first uses it."""

    __slots__ = ("_namespace",)

    def __init__(self, namespace):
        self._namespace = namespace

    def __getattr__(self, name):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


def _numpy_on_first_use(namespace):
    """The ``np`` of the module whose globals are ``namespace``: numpy once it is
    loaded, else a stand-in that loads it on first use and puts it in its place."""
    return sys.modules.get("numpy") or _DeferredNumpy(namespace)


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
