"""The whole-row amplitude engine behind ProbabilityCache.

The multiplicity Ryser kernel ``occupation_permanent`` is the independent
oracle here; the cache itself must never call it on its hot paths.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interfere import transition
from interfere.combinat import enumerate_occupations, factorial_product
from interfere.errors import DimensionMismatchError, SizeLimitError
from interfere.genfunc import gf_truncated_series
from interfere.identities import sweep_signed_convolution
from interfere.matrixcore import haar_random_unitary
from interfere.permdet import occupation_permanent
from interfere.transition import (
    ProbabilityCache,
    _PatternIndex,
    output_distribution,
    transition_triple,
)


def oracle_boson(a, i, n):
    amp = occupation_permanent(a, n, i).value
    return abs(amp) ** 2 / (factorial_product(n) * factorial_product(i))


def oracle_classical(a, i, n):
    weights = np.abs(a) ** 2
    return occupation_permanent(weights, n, i).value.real / factorial_product(n)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the cache's calls into the multiplicity kernel."""
    calls = []
    kernel = transition._occupation_permanent

    def counted(*args):
        calls.append(args[1:3])
        return kernel(*args)

    monkeypatch.setattr(transition, "_occupation_permanent", counted)
    return calls


def test_pattern_index_factorials_and_lowering():
    for n_modes in range(1, 6):
        index = _PatternIndex(n_modes)
        for total in range(7):
            patterns = index.patterns(total)
            assert patterns == enumerate_occupations(n_modes, total)
            assert index.counts(total).tolist() == [list(p) for p in patterns]
            facts = [float(factorial_product(p)) for p in patterns]
            assert index.factorials(total).tolist() == facts
            if total == 0:
                continue
            below = enumerate_occupations(n_modes, total - 1)
            lower = index.lower(total)
            assert lower.shape == (n_modes, len(patterns))
            for k in range(n_modes):
                for p, pattern in enumerate(patterns):
                    if pattern[k] == 0:
                        assert lower[k, p] == len(below)
                    else:
                        less = pattern[:k] + (pattern[k] - 1,) + pattern[k + 1 :]
                        assert below[lower[k, p]] == less


def kernel_scale(a, i, n):
    """Bound on |per(A_{n,i})| / n! that also sizes the kernel's rounding.

    The multiplicity kernel sums 2^|i| Ryser terms, each at most the
    product of the absolute row (or, transposed, column) sums of A_{n,i};
    near-cancelling permanents are only that accurate, so relative
    agreement is measured against this scale, not the value itself.
    """
    w = np.abs(a)
    i, n = np.array(i), np.array(n)
    rows = np.prod((w @ i) ** n)
    cols = np.prod((n @ w) ** i)
    return max(rows, cols) / factorial_product(tuple(n))


@st.composite
def matrix_and_input(draw):
    n_modes = draw(st.integers(min_value=1, max_value=4))
    size = n_modes**2
    modulus = st.one_of(st.just(0.0), st.floats(0.1, 1.0))
    moduli = draw(st.lists(modulus, min_size=size, max_size=size))
    phases = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=size, max_size=size))
    a = np.array(moduli) * np.exp(1j * np.array(phases))
    total = draw(st.integers(min_value=0, max_value=5))
    modes = draw(st.lists(st.integers(0, n_modes - 1), min_size=total, max_size=total))
    i = tuple(modes.count(s) for s in range(n_modes))
    return a.reshape(n_modes, n_modes), i


@settings(max_examples=60, deadline=None)
@given(matrix_and_input())
def test_rows_match_the_multiplicity_kernel(case):
    a, i = case
    cache = ProbabilityCache(a)
    ratio = factorial_product(i)
    for n in enumerate_occupations(len(i), sum(i)):
        b_scale = kernel_scale(a, i, n) ** 2 * factorial_product(n) / ratio
        assert abs(cache.boson(i, n) - oracle_boson(a, i, n)) <= 1e-12 * b_scale
        c_scale = kernel_scale(np.abs(a) ** 2, i, n)
        assert abs(cache.classical(i, n) - oracle_classical(a, i, n)) <= 1e-12 * c_scale


def _exact_amplitude(m, i, n):
    # per(A_{n,i}) / n! as a permutation sum at working precision
    rows = [s for s, c in enumerate(n) for _ in range(c)]
    cols = [s for s, c in enumerate(i) for _ in range(c)]
    total = mpmath.mpc(0)
    for perm in itertools.permutations(cols):
        term = mpmath.mpc(1)
        for r, c in zip(rows, perm):
            term *= m[r][c]
        total += term
    return total / factorial_product(n)


def test_amplitudes_are_no_less_accurate_than_the_kernel():
    engine_worst = kernel_worst = 0.0
    with mpmath.workdps(50):
        for seed in range(8):
            u = haar_random_unitary(3, seed).matrix
            exact_entries = [[mpmath.mpc(complex(z)) for z in row] for row in u]
            cache = ProbabilityCache(u)
            for total in (3, 4):
                patterns = enumerate_occupations(3, total)
                for i in patterns:
                    row = cache._boson_amps.row(i)
                    for n, amp in zip(patterns, row):
                        exact = _exact_amplitude(exact_entries, i, n)
                        kernel = occupation_permanent(u, n, i).value / factorial_product(n)
                        engine_worst = max(engine_worst, float(abs(complex(amp) - exact) / abs(exact)))
                        kernel_worst = max(kernel_worst, float(abs(kernel - exact) / abs(exact)))
    assert engine_worst <= kernel_worst
    assert engine_worst <= 1e-12


def test_sweeps_never_call_the_kernel(kernel_calls):
    u = haar_random_unitary(3, 17)
    reports = sweep_signed_convolution(u, 4)
    assert len(reports) == sum(math.comb(t + 2, 2) ** 2 for t in range(5))
    assert all(r.passed for r in reports)
    gf_truncated_series(u, [0.2, 0.3, 0.1], [0.3, 0.1, 0.2], 5)
    for stats in ("boson", "classical"):
        output_distribution(u, (2, 0, 1), stats)
    assert kernel_calls == []


def test_rows_over_the_cap_fall_back_to_pairs(kernel_calls, monkeypatch):
    u = haar_random_unitary(3, 4)
    i, outputs = (1, 2, 0), enumerate_occupations(3, 3)
    rows = ProbabilityCache(u)
    expected = [(rows.boson(i, n), rows.classical(i, n)) for n in outputs]
    assert kernel_calls == []
    monkeypatch.setattr(transition, "ROW_SIZE_CAP", 3 * len(outputs))
    assert ProbabilityCache(u).boson(i, outputs[0]) == expected[0][0]
    assert kernel_calls == []  # 3 modes times 10 patterns is at the cap
    monkeypatch.setattr(transition, "ROW_SIZE_CAP", 3 * len(outputs) - 1)
    pairs = ProbabilityCache(u)
    for n, (b, c) in zip(outputs, expected):
        assert pairs.boson(i, n) == pytest.approx(b, rel=1e-12, abs=1e-15)
        assert pairs.classical(i, n) == pytest.approx(c, rel=1e-12, abs=1e-15)
    assert len(kernel_calls) == 2 * len(outputs)
    pairs.boson(i, outputs[0])  # memoized: no further kernel call
    assert len(kernel_calls) == 2 * len(outputs)


def test_ten_modes_eight_particles():
    u = haar_random_unitary(10, 3)
    cache = ProbabilityCache(u)
    i = (1, 1, 1, 1, 1, 1, 1, 1, 0, 0)
    for n in [(0, 0, 1, 1, 1, 1, 1, 1, 1, 1), (2, 0, 0, 3, 0, 1, 0, 0, 2, 0), (0,) * 9 + (8,)]:
        b_scale = kernel_scale(u.matrix, i, n) ** 2 * factorial_product(n)
        assert abs(cache.boson(i, n) - oracle_boson(u.matrix, i, n)) <= 1e-12 * b_scale
        c_scale = kernel_scale(np.abs(u.matrix) ** 2, i, n)
        assert abs(cache.classical(i, n) - oracle_classical(u.matrix, i, n)) <= 1e-12 * c_scale
    triple = transition_triple(u, i, (0, 0, 1, 1, 1, 1, 1, 1, 1, 1))
    assert triple.boson == cache.boson(i, (0, 0, 1, 1, 1, 1, 1, 1, 1, 1))


def test_single_particle_boson_equals_fermion_bit_for_bit():
    for seed in range(3):
        u = haar_random_unitary(4, seed)
        cache = ProbabilityCache(u)
        for a, b in itertools.product(range(4), repeat=2):
            i = tuple(int(s == a) for s in range(4))
            n = tuple(int(s == b) for s in range(4))
            entry = complex(u.matrix[b, a])
            assert cache.boson(i, n) == cache.fermion(i, n)
            assert cache.fermion(i, n) == entry.real * entry.real + entry.imag * entry.imag


def test_fermion_rejects_an_overflowed_determinant():
    with np.errstate(over="ignore", invalid="ignore"):
        cache = ProbabilityCache(np.array([[1e200, 1e200], [1e200, -1e200]]))
        with pytest.raises(FloatingPointError):
            cache.fermion((1, 1), (1, 1))


def test_cache_misses_check_patterns():
    cache = ProbabilityCache(haar_random_unitary(3, 2))
    integral = cache.classical((1.0, 1.0, 0.0), (0.0, 1.0, 1.0))
    assert integral == ProbabilityCache(haar_random_unitary(3, 2)).classical((1, 1, 0), (0, 1, 1))
    assert cache.boson((1, 1, 0), (1, 0, 0)) == 0.0
    assert cache.classical((3, 0, 0), (0, 1, 1)) == 0.0
    with pytest.raises(DimensionMismatchError):
        cache.boson((1, 0), (1, 0))
    with pytest.raises(ValueError):
        cache.classical((1, -1, 1), (1, 0, 0))
    with pytest.raises(SizeLimitError):
        cache.boson((21, 0, 0), (0, 0, 21))
