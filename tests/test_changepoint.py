"""Mean-change detection on descending score series."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxfs.changepoint import best_cut, first_mean_change

from conftest import brute_force_cut


@pytest.mark.parametrize(
    "scores,expected",
    [
        ([5.0], 1),
        ([2.0, 1.0], 1),
        ([10.0, 10.0, 10.0, 1.0, 1.0, 1.0], 3),
        ([9.8, 9.6, 9.5, 9.4, 9.3, 0.2, 0.1], 5),
        ([6.0, 5.0, 4.0, 3.0, 2.0, 1.0], 3),   # smooth decay: cut at its middle
        ([3.0, 3.0, 3.0, 3.0], 1),             # constant: no change exists
        ([100.0, 1.0], 1),
        ([7.0, 7.0, 7.0, 6.9999999999, 7.0, 7.0], 1),  # jitter, not structure
        ([80.0, 75.0, 69.0, 61.0, 60.0], 2),   # cuts at 2 and 3 tie: the first wins
    ],
)
def test_known_series(scores, expected):
    assert first_mean_change(scores) == expected


def test_scale_invariance():
    rng = np.random.default_rng(42)
    for _ in range(200):
        size = int(rng.integers(2, 30))
        s = np.sort(rng.uniform(0.1, 50.0, size=size))[::-1]
        p = first_mean_change(s)
        for factor in (1e-13, 1e-6, 1e3, 1e8):
            assert first_mean_change(s * factor) == p


def test_matches_brute_force_on_random_series():
    rng = np.random.default_rng(20260816)
    for _ in range(300):
        size = int(rng.integers(1, 40))
        s = np.sort(rng.uniform(0.0, 100.0, size=size))[::-1]
        assert first_mean_change(s) == brute_force_cut(s)


def test_step_position_and_contrast():
    # a clean step is cut exactly at its edge wherever it sits
    for p in range(1, 9):
        s = np.array([10.0] * p + [1.0] * (9 - p))
        assert first_mean_change(s) == p


def test_cut_never_exceeds_length():
    rng = np.random.default_rng(1)
    for _ in range(100):
        size = int(rng.integers(1, 15))
        s = np.sort(rng.uniform(0, 10, size=size))[::-1]
        assert 1 <= first_mean_change(s) <= size


def test_best_cut_minimizes_two_segment_error():
    s = np.array([10.0, 9.0, 8.0, 2.0, 1.0])
    p, sse = best_cut(s)
    assert p == 3
    # direct recomputation of the reported error
    head, tail = s[:p], s[p:]
    direct = np.sum((head - head.mean()) ** 2) + np.sum((tail - tail.mean()) ** 2)
    assert abs(sse - direct) <= 1e-12


def test_validation():
    with pytest.raises(ValueError):
        first_mean_change([])
    with pytest.raises(ValueError):
        first_mean_change([1.0, 2.0], beta=-0.5)
    with pytest.raises(ValueError):
        first_mean_change([5.0, 5.0, 1.0, 1.0], beta=np.nan)  # NaN fails `beta < 0`
    with pytest.raises(ValueError):
        first_mean_change([1.0, np.nan])
    with pytest.raises(ValueError):
        first_mean_change([1.0, 2.0, 1.5])  # not descending


def test_beta_controls_sensitivity():
    s = [10.0, 10.0, 1.0, 1.0]
    assert first_mean_change(s, beta=1.0) == 2
    # beta = 0 refuses every cut
    assert first_mean_change(s, beta=0.0) == 1
    # the decay's best cut at 3 leaves SSE2 = 4 of SST = 17.5
    decay = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
    assert first_mean_change(decay, beta=0.25) == 3
    assert first_mean_change(decay, beta=0.2) == 1
    for beta in (0.0, 0.2, 0.25, 0.5, 1.0, 2.0):
        assert first_mean_change(decay, beta=beta) == brute_force_cut(decay, beta)


def test_flat_guard_is_relative_to_the_largest_magnitude():
    s = np.array([3.0, 3.0, 1.0, 1.0])
    for factor in (1e-200, 1e-13, 1.0, 1e13, 1e200):
        assert first_mean_change(s * factor) == 2
        assert first_mean_change(-s[::-1] * factor) == 2
    assert first_mean_change([1.0 + 1e-13, 1.0, 1.0]) == 1
    assert first_mean_change(np.zeros(4)) == 1


descending = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, width=64),
    min_size=1,
    max_size=30,
).map(lambda v: np.sort(np.asarray(v))[::-1])


@settings(max_examples=80, deadline=None)
@given(descending)
def test_property_matches_brute_force(s):
    assert first_mean_change(s) == brute_force_cut(s)


@settings(max_examples=60, deadline=None)
@given(descending)
def test_property_cut_in_range(s):
    p = first_mean_change(s)
    assert 1 <= p <= s.size
