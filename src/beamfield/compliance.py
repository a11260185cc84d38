"""Heat-map comparison against regional RF-EMF exposure limits.

Limits are flat V/m scalars per region.  The built-in table carries the
general-public reference levels relevant at this band: the ICNIRP
guideline value of 41 V/m and the stricter national limits of Italy
(6 V/m) and Poland (7 V/m).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownRegionError

DEFAULT_LIMITS_VPM = {"ICNIRP": 41.0, "Italy": 6.0, "Poland": 7.0}


@dataclass(frozen=True)
class LimitTable:
    """Region label -> RMS field limit in V/m."""

    entries: dict = field(default_factory=lambda: dict(DEFAULT_LIMITS_VPM))

    def __post_init__(self):
        if any(v <= 0 for v in self.entries.values()):
            raise ValueError("all limits must be positive")

    def limit(self, region):
        try:
            return self.entries[region]
        except KeyError:
            known = ", ".join(sorted(self.entries))
            raise UnknownRegionError(
                f"unknown region {region!r}; known regions: {known}"
            ) from None


@dataclass(frozen=True)
class ComplianceReport:
    """Exceedance statistics of one heat map against one regional limit.

    ``worst_margin_db`` is 20 log10(max_field / limit); -inf for an
    all-zero map.  Negative or -inf margin means fully compliant.
    """

    region: str
    limit: float
    exceed_count: int
    exceed_fraction: float
    worst_margin_db: float

    @property
    def compliant(self):
        return self.exceed_count == 0


def check(heatmap, region, limits=None):
    """Pointwise comparison of a heat map against a regional limit."""
    limits = limits if limits is not None else LimitTable()
    limit = limits.limit(region)
    count = int(np.count_nonzero(heatmap.values > limit))
    peak = float(heatmap.values.max()) if heatmap.values.size else 0.0
    margin = -math.inf if peak == 0.0 else 20.0 * math.log10(peak / limit)
    return ComplianceReport(
        region=region,
        limit=limit,
        exceed_count=count,
        exceed_fraction=count / heatmap.values.size,
        worst_margin_db=margin,
    )


def min_compliant_distance(profiles, region, limits=None):
    """Smallest sampled distance beyond which every profile stays under the limit.

    Returns 0.0 when no sample exceeds, and +inf when even the farthest
    sample of some profile exceeds.
    """
    if not profiles:
        raise ValueError("need at least one cut profile")
    limits = limits if limits is not None else LimitTable()
    limit = limits.limit(region)

    worst = -math.inf
    all_distances = []
    for p in profiles:
        all_distances.append(p.distances)
        exceeding = p.distances[p.fields > limit]
        if exceeding.size:
            worst = max(worst, float(exceeding.max()))
    if worst == -math.inf:
        return 0.0
    candidates = np.concatenate(all_distances)
    beyond = candidates[candidates > worst]
    return float(beyond.min()) if beyond.size else math.inf
