"""Massive-MIMO downlink beamforming and indoor RF-EMF exposure simulator.

Pipeline per scenario: generate the propagation channel, estimate CSI
from pilots, build the zero-forcing precoder with per-user receive
combining, transmit OFDM/64-QAM frames for the uncoded BER, and
superpose the radiated fields over a probe grid into an RMS E-field heat
map.  Heat maps feed the statistics (averaging, cuts, decay fits) and
the regulatory compliance checks.
"""

from .channel import (
    ChannelMatrix,
    ChannelModelConfig,
    estimate_csi,
    generate_channel,
)
from .compliance import (
    DEFAULT_LIMITS_VPM,
    ComplianceReport,
    check,
    min_compliant_distance,
)
from .config import RunConfig, from_dict, load_config, validate
from .errors import (
    BeamfieldError,
    ConfigError,
    DegenerateChannelError,
    UnknownRegionError,
    ZfInfeasibleError,
)
from .field import HeatMap, compute_heatmap, heatmaps, probe_gains
from .geometry import (
    ArrayGeometry,
    ProbeGrid,
    Room,
    Scenario,
    build_array,
    build_grid,
    far_field_distance,
    standard_scenarios,
    wavelength,
)
from .linalg import right_pseudo_inverse
from .ofdm import BerReport, OfdmConfig, transmit_frame
from .precoding import (
    PrecodingMatrix,
    combining_vectors,
    effective_channel,
    zf_precoder,
)
from .runner import run, verify_manifest
from .stats import CutProfile, average_heatmaps, extract_cut, fit_decay, summary

__version__ = "0.1.0"

__all__ = [
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
