"""Mean-change detection on descending score series."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxfs.changepoint import TIE_TOL, best_cut, first_mean_change

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
        first_mean_change([1.0, np.nan])
    with pytest.raises(ValueError):
        first_mean_change([1.0, 2.0, 1.5])  # not descending


def test_descending_check_is_relative_to_the_largest_magnitude():
    # a one-ulp rise at 1e6 is rounding noise on the ranking's tie grid
    assert first_mean_change([1e6, 1e6 * (1 + 1e-15), 5.0]) == 2
    # a rise above TIE_TOL * (1 + max|s|) is not
    top = 1e6 * (1 + 1e-15)
    with pytest.raises(ValueError, match="descending"):
        first_mean_change([1e6, 1e6 + 2 * TIE_TOL * (1 + top), 5.0])


def test_beta_controls_sensitivity():
    # the cut has no sensitivity setting: every series that is not flat
    # is cut at its best split
    s = [10.0, 10.0, 1.0, 1.0]
    assert first_mean_change(s) == 2
    decay = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
    assert first_mean_change(decay) == brute_force_cut(decay) == 3


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
