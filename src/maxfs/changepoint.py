"""First abrupt change in the mean of a descending score series.

The removal heuristics sort candidate scores from largest to smallest
and ask how many leading entries stand apart from the rest: that head
of the ranked list is the batch to delete. We answer with an exact
single change-point search: the cut is the split that minimises the
within-segment squared error of the two pieces, as MATLAB's
`findchangepts` places one change by default. Every series that is not
flat is cut: a clean two-level step has SSE2 = 0, and a linear decay is
cut near its middle, where SSE2 is about SST / 4, SST = sum_i (s_i -
mean(s))^2 the one-segment error. The cut is invariant under positive
rescaling.

A flat series, whose drop s[0] - s[-1] is within FLAT_TOL of its
largest magnitude, contains no change at all and gives p = 1: group
removal stays conservative there, and ties between equally implicated
candidates are broken by rank, not resolved by removing the whole tied
block.
"""
from __future__ import annotations

import numpy as np

FLAT_TOL = 1e-12

# a ranking (`core.rank_candidates`) rounds its scores to a multiple of
# TIE_TOL * (1 + the largest |score| it ranks): scores that only rounding
# noise tells apart tie, and ties go to the lower index. A series rising
# by no more than that step is still descending
TIE_TOL = 1e-9


def first_mean_change(scores) -> int:
    """Count of leading elements before the first abrupt mean change.

    Returns the best cut p in [1, len-1] (`best_cut`), or p = 1 for a
    flat series, which admits no cut. Raises ValueError unless `scores`
    is a nonempty, finite 1-d series that rises nowhere by more than
    TIE_TOL * (1 + max|s|).
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("score series must be a nonempty 1-d array")
    if not np.all(np.isfinite(s)):
        raise ValueError("score series must be finite")
    top = float(np.abs(s).max())
    if np.any(np.diff(s) > TIE_TOL * (1.0 + top)):
        raise ValueError("score series must be sorted in descending order")
    # a flat series up to floating-point jitter has no change to find
    if s[0] - s[-1] <= FLAT_TOL * top:
        return 1
    # scaling by a power of two is exact and keeps the squares clear of
    # underflow and overflow
    return best_cut(np.ldexp(s, -np.frexp(top)[1]))[0]


def best_cut(s: np.ndarray) -> tuple[int, float]:
    """Exact minimiser of two-segment squared error over all cuts.

    Returns (p, SSE2) with 1 <= p <= len(s)-1; ties take the smallest p.
    Uses prefix sums of the centred series, O(len): a cut at p explains
    c_p^2 L / (p (L - p)) of SST, c_p the sum of the first p centred
    entries, and SSE2(p) is the rest.
    """
    s = np.asarray(s, dtype=float)
    L = s.size
    if L < 2:
        return 1, 0.0
    d = s - s.mean()
    heads = np.arange(1, L, dtype=float)
    c = np.cumsum(d)[:-1]
    explained = c * c * L / (heads * (L - heads))
    p = int(np.argmax(explained)) + 1
    return p, max(float(d @ d) - float(explained[p - 1]), 0.0)
