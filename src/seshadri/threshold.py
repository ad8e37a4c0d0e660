"""Szemberg's floor bound and the k beyond which it beats the generic bound.

For fixed r, the floor bound floor(sqrt(k/r)) loses to the main bound's
generic value sqrt((r+2)/(r+3)) * sqrt(k/r) at small k and wins from
some k on.  This module needs only the exact kernel's isqrt and the
sub-generic test, so a process that only scans for that threshold loads
neither the bound layer nor the Pell solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import _public
from .exact import isqrt
from .inequalities import is_subgeneric

__all__ = _public(__name__)


def szemberg_floor_bound(k: int, r: int) -> int:
    """floor(sqrt(k/r)): the largest integer j with j^2 * r <= k."""
    if k < 1 or r < 1:
        raise ValueError(f"need k, r >= 1, got k={k}, r={r}")
    return isqrt(k // r)


@dataclass(frozen=True)
class ThresholdScan:
    """Result of the floor-vs-generic dominance scan for fixed r."""

    r: int
    k_cap: int
    threshold: Optional[int]  # minimal N <= k_cap dominating through k_cap
    last_failure: int  # k = 1 always fails (its floor is 0), so there is one
    band_cutoff: int  # every k >= band_cutoff provably dominates
    stable_beyond_cap: bool  # k_cap window covers all possible failures


def dominance_scan(r: int, k_cap: int) -> ThresholdScan:
    """Find the last k <= k_cap where the floor bound loses, and certify the tail.

    Bands: on j^2 r <= k < (j+1)^2 r the floor is j, so k fails exactly
    when (r+2) k > j^2 r (r+3).  The failures of a band are therefore its
    upper part, and a band holds a failure iff its last k does.  That k,
    (j+1)^2 r - 1, fails iff r j^2 - 2r(r+2) j - (r+2)(r-1) < 0.  With
    x = r + 2 the larger root of that quadratic is
    x + sqrt(x^2 + x (r-1)/r), and since 0 < x (r-1)/r < 2x + 1 it lies
    strictly between 2x and 2x + 1; the smaller root is negative.  So
    the bands j <= 2r + 4 all fail at their end, and no k from
    band_cutoff = r (2r + 5)^2 on fails: band_cutoff - 1 is the last
    failure there is.  Below the cutoff, the last failure up to k_cap is
    k_cap itself or, when k_cap dominates, the end of the band below
    k_cap's.  The cost is a few big-int steps whatever r and k_cap are.
    """
    if r < 2:
        raise ValueError(f"dominance scan needs r >= 2, got {r}")
    if k_cap < 1:
        raise ValueError(f"need k_cap >= 1, got {k_cap}")
    band_cutoff = r * (2 * r + 5) ** 2
    # The floor bound j at k_cap is the ratio d*k/sum(m) at d = j, sum(m) = k.
    j = szemberg_floor_bound(k_cap, r)
    if k_cap >= band_cutoff:
        last_failure = band_cutoff - 1
    elif not is_subgeneric(j * j * k_cap, k_cap, r):
        # band 0 fails at every k >= 1, so k_cap's band is band 1 or above
        last_failure = j * j * r - 1
    else:
        last_failure = k_cap
    threshold = None if last_failure == k_cap else last_failure + 1
    return ThresholdScan(r, k_cap, threshold, last_failure, band_cutoff, k_cap + 1 >= band_cutoff)
