"""Heat-map comparison against regional RF-EMF exposure limits.

Limits are flat V/m scalars per region.  ``DEFAULT_LIMITS_VPM`` is the
table: the ICNIRP general-public level of 41 V/m and the stricter
national limits of Italy (6 V/m) and Poland (7 V/m).  The 41 V/m is
ICNIRP 1998's (Health Physics 74(4), Table 7) 1.375 sqrt(f) V/m, f in
MHz, for 400-2000 MHz, taken near 900 MHz; for 2-300 GHz, the band of
the 2.63 GHz carrier, that table gives 61 V/m.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnknownRegionError

DEFAULT_LIMITS_VPM = {"ICNIRP": 41.0, "Italy": 6.0, "Poland": 7.0}


def _limit(region):
    """The region's limit in V/m; UnknownRegionError names the known regions."""
    try:
        return DEFAULT_LIMITS_VPM[region]
    except KeyError:
        known = ", ".join(sorted(DEFAULT_LIMITS_VPM))
        raise UnknownRegionError(
            f"unknown region {region!r}; known regions: {known}"
        ) from None


@dataclass(frozen=True)
class ComplianceReport:
    """Exceedance statistics of one heat map against one regional limit.

    The fields are keys of its ``compliance_<region>.json``.
    ``worst_margin_db`` is 20 log10(max_field / limit_vpm); -inf for an
    all-zero map.  Negative or -inf margin means fully compliant.
    """

    region: str
    limit_vpm: float
    exceed_count: int
    exceed_fraction: float
    worst_margin_db: float

    @property
    def compliant(self):
        return self.exceed_count == 0


def check(heatmap, region):
    """Pointwise comparison of a heat map against a regional limit."""
    limit = _limit(region)
    count = int(np.count_nonzero(heatmap.values > limit))
    peak = float(heatmap.values.max())
    margin = -math.inf if peak == 0.0 else 20.0 * math.log10(peak / limit)
    return ComplianceReport(
        region=region,
        limit_vpm=limit,
        exceed_count=count,
        exceed_fraction=count / heatmap.values.size,
        worst_margin_db=margin,
    )


def min_compliant_distance(profile, region):
    """Smallest sampled distance of the cut beyond which it stays under the limit.

    Returns 0.0 when no sample exceeds, and +inf when even the farthest
    sample exceeds.
    """
    limit = _limit(region)
    exceeding = profile.distances[profile.fields > limit]
    if not exceeding.size:
        return 0.0
    beyond = profile.distances[profile.distances > exceeding.max()]
    return float(beyond.min()) if beyond.size else math.inf
