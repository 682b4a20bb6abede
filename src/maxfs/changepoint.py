"""First abrupt change in the mean of a descending score series.

The removal heuristics sort candidate scores from largest to smallest
and ask how many leading entries stand apart from the rest: that head
of the ranked list is the batch to delete. We answer with an exact
single change-point search: for every cut position the within-segment
squared error of the two pieces is computed, and the best cut is kept
when it explains enough of the series' spread. A cut at p with
two-segment squared error SSE2(p) is accepted iff

    SSE2(p) < beta * SST,    SST = sum_i (s_i - mean(s))^2 = L * Var(s)

SST is the one-segment error of the same L entries, so both sides are
totals on one scale: the test is invariant under positive rescaling and
does not drift with the length of the series. At beta = 1 (the default)
the best cut of every series that is not flat is accepted, as MATLAB's
`findchangepts` does by default; a smaller beta requires the cut to
explain at least a share 1 - beta of the spread, and beta = 0 refuses
every cut. A clean two-level step has SSE2 = 0; a linear decay is cut
near its middle, where SSE2 is about SST / 4.

When no cut is accepted the caller should peel a single element, so the
fallback result is p = 1. A flat series, whose drop s[0] - s[-1] is
within FLAT_TOL of its largest magnitude, contains no change at all and
falls back to p = 1 too: group removal stays conservative there, and
ties between equally implicated candidates are broken by rank, not
resolved by removing the whole tied block.
"""
from __future__ import annotations

import numpy as np

FLAT_TOL = 1e-12


def first_mean_change(scores, beta: float = 1.0) -> int:
    """Count of leading elements before the first abrupt mean change.

    Returns p in [1, len-1] when the best cut is accepted; p = 1
    otherwise (a flat series included: it admits no cut). Raises
    ValueError unless `scores` is a nonempty, finite, descending 1-d
    series and beta >= 0.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("score series must be a nonempty 1-d array")
    if not np.all(np.isfinite(s)):
        raise ValueError("score series must be finite")
    if np.any(np.diff(s) > 1e-9):
        raise ValueError("score series must be sorted in descending order")
    if not beta >= 0:  # written so that NaN fails too
        raise ValueError("beta must be nonnegative")
    # a flat series up to floating-point jitter has no change to find;
    # a descending series has its largest magnitude at one of its ends
    top = max(abs(s[0]), abs(s[-1]))
    if s[0] - s[-1] <= FLAT_TOL * top:
        return 1
    # scaling by a power of two is exact and keeps the squares clear of
    # underflow and overflow
    s = np.ldexp(s, -np.frexp(top)[1])
    p, sse2 = best_cut(s)
    d = s - s.mean()
    return p if sse2 < beta * float(d @ d) else 1


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
