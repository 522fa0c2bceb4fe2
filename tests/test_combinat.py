import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interfere.combinat import (
    as_occupation,
    bounded_subvectors,
    enumerate_occupations,
    enumerate_subsets,
    factorial_product,
    indicator,
    occupation_from_modes,
    subtract_indicator,
    support,
)
from interfere.errors import (
    BudgetExceededError,
    IndexOutOfRangeError,
    OccupationOverflowError,
)


def test_enumerate_occupations_two_modes():
    assert enumerate_occupations(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_enumerate_occupations_single_particle():
    assert enumerate_occupations(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_enumerate_occupations_count():
    assert len(enumerate_occupations(4, 3)) == 20  # C(6, 3)
    # sparse: two particles in 50 modes, leading mode's count first
    pairs = itertools.combinations_with_replacement(range(50), 2)
    expected = sorted(tuple((a == s) + (b == s) for s in range(50)) for a, b in pairs)
    assert enumerate_occupations(50, 2) == expected[::-1]
    assert len(expected) == math.comb(51, 2)


def test_enumerate_occupations_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_occupations(30, 10)
    # cap is configurable
    assert len(enumerate_occupations(3, 2, max_patterns=6)) == 6


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=6))
def test_enumerate_occupations_properties(n, total):
    patterns = enumerate_occupations(n, total)
    assert len(patterns) == math.comb(total + n - 1, n - 1)
    assert len(set(patterns)) == len(patterns)
    assert all(sum(p) == total for p in patterns)
    assert all(len(p) == n for p in patterns)


def test_enumerate_subsets_examples():
    assert enumerate_subsets(3, 0) == [()]
    assert enumerate_subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert len(enumerate_subsets(4, 2)) == 6


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=8))
def test_enumerate_subsets_counts(n, m):
    if m > n:
        with pytest.raises(ValueError):
            enumerate_subsets(n, m)
        return
    subsets = enumerate_subsets(n, m)
    assert len(subsets) == math.comb(n, m)
    assert all(all(1 <= s <= n for s in sub) for sub in subsets)
    assert all(tuple(sorted(set(sub))) == sub for sub in subsets)


def test_union_of_all_sizes_is_power_set():
    total = sum(len(enumerate_subsets(5, m)) for m in range(6))
    assert total == 2**5


def test_subtract_indicator_examples():
    assert subtract_indicator((2, 1), (1,)) == (1, 1)
    assert subtract_indicator((1, 0), (2,)) is None
    assert subtract_indicator((1, 1), (1, 2)) == (0, 0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5),
    st.data(),
)
def test_subtract_indicator_undefined_iff_empty_mode(counts, data):
    n = len(counts)
    size = data.draw(st.integers(min_value=0, max_value=n))
    alpha = tuple(sorted(data.draw(st.permutations(range(1, n + 1)))[:size]))
    result = subtract_indicator(tuple(counts), alpha)
    hits_empty_mode = any(counts[m - 1] == 0 for m in alpha)
    assert (result is None) == hits_empty_mode
    if result is not None:
        assert sum(result) == sum(counts) - size


def test_bounded_subvectors_examples():
    assert bounded_subvectors((1, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert bounded_subvectors((2, 0)) == [(0, 0), (1, 0)]
    assert bounded_subvectors((0, 0, 0)) == [(0, 0, 0)]


def test_bounded_subvectors_count():
    counts = (3, 0, 1, 2)
    expected = 1
    for c in counts:
        expected *= min(c, 1) + 1
    assert len(bounded_subvectors(counts)) == expected


def test_factorial_product():
    assert factorial_product((1, 1, 1)) == 1
    assert factorial_product((3, 2)) == 12
    assert factorial_product((0, 0)) == 1
    with pytest.raises(OccupationOverflowError):
        factorial_product((21,))


def test_as_occupation_validation():
    assert as_occupation([1, 0, 2]) == (1, 0, 2)
    with pytest.raises(ValueError):
        as_occupation([-1, 0])
    with pytest.raises(ValueError):
        as_occupation([1.5])


def test_support_and_indicator():
    assert support((0, 2, 0, 1)) == (2, 4)
    assert indicator((1, 3), 4) == (1, 0, 1, 0)
    with pytest.raises(ValueError):
        indicator((2, 2), 3)
    assert occupation_from_modes((2, 2), 3) == (0, 2, 0)
    with pytest.raises(IndexOutOfRangeError):
        occupation_from_modes((4,), 3)
