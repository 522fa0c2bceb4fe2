import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interfere.errors import SizeLimitError
from interfere.matrixcore import submatrix_by_occupation
from interfere.permdet import (
    determinant,
    determinant_many,
    occupation_permanent,
    permanent,
    permanent_many,
    permanent_naive,
    relative_error,
)

from helpers import naive_determinant, naive_permanent, random_disk_matrix


def test_permanent_identity():
    value = permanent(np.eye(3))
    assert value.value == 1.0
    assert not value.shape_convention_applied


def test_permanent_all_ones():
    assert np.isclose(permanent(np.ones((3, 3))).value, 6.0)


def test_permanent_2x2_definition():
    assert permanent([[1, 2], [3, 4]]).value == 10.0


def test_permanent_empty_matrix():
    value = permanent(np.empty((0, 0)))
    assert value.value == 1.0
    assert value.shape_convention_applied


def test_permanent_non_square_is_zero():
    value = permanent(np.ones((2, 3)))
    assert value.value == 0.0
    assert value.shape_convention_applied


def test_permanent_matches_naive_6x6():
    rng = np.random.default_rng(101)
    a = random_disk_matrix(rng, 6)
    fast = permanent(a).value
    slow = permanent_naive(a).value
    assert relative_error(fast, slow) <= 1e-10


def test_permanent_matches_plain_loop_oracle():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        a = random_disk_matrix(rng, n)
        assert relative_error(permanent(a).value, naive_permanent(a)) <= 1e-10


def test_permanent_size_cap():
    with pytest.raises(SizeLimitError):
        permanent(np.zeros((21, 21)))
    # configurable
    assert permanent(np.eye(21), size_cap=21).value == pytest.approx(1.0)


def test_permanent_naive_trivial_cases():
    assert permanent_naive(np.empty((0, 0))).value == 1.0
    assert permanent_naive([[4.2]]).value == 4.2
    assert np.isclose(permanent_naive(np.ones((4, 4))).value, 24.0)


def test_permanent_naive_size_cap():
    with pytest.raises(SizeLimitError):
        permanent_naive(np.eye(10))


def test_permanent_zero_row_and_column():
    a = np.ones((4, 4), dtype=complex)
    a[2, :] = 0.0
    assert permanent(a).value == 0.0
    b = np.ones((4, 4), dtype=complex)
    b[:, 1] = 0.0
    assert permanent(b).value == 0.0
    assert determinant(a).value == 0.0


def test_permanent_permutation_invariance():
    rng = np.random.default_rng(31)
    a = random_disk_matrix(rng, 5)
    reference = permanent(a).value
    for trial in range(5):
        p = np.eye(5)[rng.permutation(5)]
        q = np.eye(5)[rng.permutation(5)]
        assert relative_error(permanent(p @ a @ q).value, reference) <= 1e-12


def test_determinant_identity_and_2x2():
    assert determinant(np.eye(5)).value == pytest.approx(1.0)
    assert determinant([[1, 2], [3, 4]]).value == pytest.approx(-2.0)


def test_determinant_non_square_convention():
    value = determinant(np.ones((2, 3)))
    assert value.value == 0.0
    assert value.shape_convention_applied


def test_determinant_empty_matrix():
    value = determinant(np.empty((0, 0)))
    assert value.value == 1.0
    assert value.shape_convention_applied


def test_determinant_matches_plain_loop_oracle():
    rng = np.random.default_rng(17)
    for n in range(1, 6):
        a = random_disk_matrix(rng, n)
        assert relative_error(determinant(a).value, naive_determinant(a)) <= 1e-10


def test_determinant_row_swap_flips_sign():
    rng = np.random.default_rng(3)
    a = random_disk_matrix(rng, 4)
    swapped = a.copy()
    swapped[[0, 2]] = swapped[[2, 0]]
    d0 = determinant(a).value
    d1 = determinant(swapped).value
    assert np.isclose(d0, -d1)
    assert np.isclose(abs(d0), abs(d1))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_row_scaling_linearity(n, seed, scale):
    rng = np.random.default_rng(seed)
    a = random_disk_matrix(rng, n)
    scaled = a.copy()
    scaled[0] *= scale
    assert np.isclose(permanent(scaled).value, scale * permanent(a).value, atol=1e-12)
    assert np.isclose(
        determinant(scaled).value, scale * determinant(a).value, atol=1e-12
    )


def test_occupation_permanent_matches_expansion():
    rng = np.random.default_rng(55)
    for trial in range(40):
        n = int(rng.integers(1, 5))
        a = random_disk_matrix(rng, n)
        total = int(rng.integers(0, 6))
        rows = tuple(np.random.default_rng(trial).multinomial(total, np.ones(n) / n))
        cols = tuple(
            np.random.default_rng(1000 + trial).multinomial(total, np.ones(n) / n)
        )
        direct = occupation_permanent(a, rows, cols).value
        expanded = permanent(submatrix_by_occupation(a, rows, cols)).value
        assert relative_error(direct, expanded) <= 1e-10
        if total <= 6:
            oracle = naive_permanent(submatrix_by_occupation(a, rows, cols))
            assert relative_error(direct, oracle) <= 1e-10


def test_occupation_permanent_conventions():
    a = np.ones((2, 2))
    zero = occupation_permanent(a, (0, 0), (0, 0))
    assert zero.value == 1.0 and zero.shape_convention_applied
    uneven = occupation_permanent(a, (1, 0), (1, 1))
    assert uneven.value == 0.0 and uneven.shape_convention_applied
    with pytest.raises(SizeLimitError):
        occupation_permanent(np.ones((1, 1)), (21,), (21,))
    with pytest.raises(ValueError):
        occupation_permanent(a, (1,), (1, 1))


def test_permanent_many_matches_scalar():
    # batch 1 tabulates all columns at once; 200 matrices of order 6
    # tabulate 4 columns and walk 2; past 4096 matrices every column is walked
    rng = np.random.default_rng(9)
    cases = [(n, 7) for n in (0, 1, 2, 3, 5)] + [(9, 1), (6, 200), (4, 4100)]
    for n, count in cases:
        mats = np.stack([random_disk_matrix(rng, n) for _ in range(count)])
        batch = permanent_many(mats)
        assert batch.shape == (count,)
        for k in range(count):
            assert relative_error(batch[k], permanent_naive(mats[k]).value) <= 1e-12


def _mp_permanent(a):
    """Ryser's formula over every column subset in 50-digit arithmetic."""
    n = a.shape[0]
    with mpmath.workdps(50):
        entries = [[mpmath.mpc(complex(x)) for x in row] for row in a]
        total = mpmath.mpc(0)
        for size in range(1, n + 1):
            for cols in itertools.combinations(range(n), size):
                term = mpmath.fprod(mpmath.fsum(row[c] for c in cols) for row in entries)
                total += term if (n - size) % 2 == 0 else -term
        return complex(total)


def test_permanent_matches_mpmath():
    # a batch of 64 tabulates 6 columns, so from n = 7 on it also walks
    rng = np.random.default_rng(41)
    for n in range(4, 11):
        mats = np.stack([random_disk_matrix(rng, n) for _ in range(2)])
        batch = permanent_many(np.repeat(mats, 32, axis=0))
        for k, a in enumerate(mats):
            reference = _mp_permanent(a)
            assert relative_error(permanent(a).value, reference) <= 1e-12
            assert relative_error(batch[32 * k], reference) <= 1e-12


def test_determinant_many_matches_scalar():
    rng = np.random.default_rng(19)
    mats = np.stack([random_disk_matrix(rng, 4) for _ in range(5)])
    batch = determinant_many(mats)
    for k in range(5):
        assert relative_error(batch[k], determinant(mats[k]).value) <= 1e-12
    assert np.allclose(determinant_many(np.empty((3, 0, 0))), 1.0)


def test_relative_error_handles_near_zero():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1e-14, 0.0) == 1e-14
    assert relative_error(2e10, 1e10) == 0.5


def test_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        permanent(np.array([[np.inf, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        determinant(np.array([[np.nan, 1.0], [0.0, 1.0]]))


def test_large_cancellation_stays_clean():
    # HOM-style cancellation: permanent of the balanced coupler is 0
    u = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    assert permanent(u).value == 0.0
    assert occupation_permanent(u, (1, 1), (1, 1)).value == 0.0
