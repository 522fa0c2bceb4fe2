import numpy as np
import pytest

from interfere.errors import BudgetExceededError, SingularDenominatorError
from interfere.genfunc import gf_closed_form, gf_minor_expansion, gf_truncated_series
from interfere.matrixcore import (
    balanced_beamsplitter,
    fourier_matrix,
    haar_random_unitary,
    validate_unitary,
)
from interfere.permdet import relative_error
from interfere.transition import boson_prob


def test_all_evaluators_at_origin():
    u = haar_random_unitary(3, 4)
    zeros = [0.0, 0.0, 0.0]
    assert gf_closed_form(u, zeros, zeros) == pytest.approx(1.0, abs=1e-15)
    assert gf_minor_expansion(u, zeros, zeros) == pytest.approx(1.0, abs=1e-15)
    value, tail = gf_truncated_series(u, zeros, zeros, 0)
    assert value == 1.0 and tail == 0.0


def test_closed_form_with_zero_output_duals():
    u = haar_random_unitary(4, 21)
    x = [0.7, 0.0, 0.0, 0.0]
    z = [0.0, 0.0, 0.0, 0.0]
    assert gf_closed_form(u, x, z) == pytest.approx(1.0, abs=1e-14)
    value, _ = gf_truncated_series(u, x, z, 5)
    assert value == pytest.approx(1.0, abs=1e-14)


def test_minor_expansion_single_mode():
    u = validate_unitary([[1.0]])
    a, b = 0.5, 0.4
    assert gf_minor_expansion(u, [a], [b]) == pytest.approx(1.0 / (1.0 - a * b))
    phase = validate_unitary([[np.exp(0.3j)]])
    assert gf_minor_expansion(phase, [a], [b]) == pytest.approx(1.0 / (1.0 - a * b))


def test_minor_expansion_matches_closed_form():
    u = haar_random_unitary(4, 3)
    duals = [0.25] * 4
    g1 = gf_closed_form(u, duals, duals)
    g2 = gf_minor_expansion(u, duals, duals)
    assert relative_error(g1, g2) <= 1e-12


def test_minor_expansion_matches_closed_form_asymmetric_duals():
    rng = np.random.default_rng(14)
    for n, seed in ((2, 5), (3, 6), (5, 7), (6, 8)):
        u = haar_random_unitary(n, seed)
        for _ in range(5):
            x = rng.uniform(0.0, 0.9, n)
            z = rng.uniform(0.0, 0.9, n)
            g1 = gf_closed_form(u, x, z)
            g2 = gf_minor_expansion(u, x, z)
            assert relative_error(g1, g2) <= 1e-12


def test_series_approaches_closed_form():
    u = haar_random_unitary(3, 11)
    duals = [0.3, 0.3, 0.3]
    closed = gf_closed_form(u, duals, duals)
    value, tail = gf_truncated_series(u, duals, duals, 14)
    assert abs(value - closed) <= 1e-6
    assert tail >= 0.0


def test_series_beamsplitter_cutoff10():
    bs = balanced_beamsplitter()
    duals = [0.2, 0.2]
    closed = gf_closed_form(bs, duals, duals)
    value, _ = gf_truncated_series(bs, duals, duals, 10)
    assert abs(value - closed) <= 1e-6


def test_series_is_monotone_in_cutoff():
    u = fourier_matrix(3)
    duals = [0.35, 0.2, 0.1]
    values = [
        gf_truncated_series(u, duals, duals, cutoff)[0] for cutoff in range(7)
    ]
    closed = gf_closed_form(u, duals, duals)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-15
    assert values[-1] <= closed + 1e-12


def test_coefficient_extraction_by_finite_differences():
    # mixed second partial in (x1, z1) at the origin picks out the
    # single-particle 1 -> 1 probability
    u = haar_random_unitary(3, 29)
    h = 1e-3
    corners = []
    for sx in (1.0, -1.0):
        for sz in (1.0, -1.0):
            x = [sx * h, 0.0, 0.0]
            z = [sz * h, 0.0, 0.0]
            corners.append(sx * sz * gf_closed_form(u, x, z))
    mixed = sum(corners) / (4.0 * h * h)
    expected = boson_prob(u, (1, 0, 0), (1, 0, 0))
    assert abs(mixed - expected) <= 1e-6


def test_domain_gates():
    u = balanced_beamsplitter()
    with pytest.raises(ValueError):
        gf_closed_form(u, [1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        gf_minor_expansion(u, [0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        gf_truncated_series(u, [0.2, np.nan], [0.2, 0.2], 3)
    with pytest.raises(ValueError):
        gf_truncated_series(u, [0.2, 0.2], [0.2, 0.2], -1)


def test_singular_denominator():
    u = validate_unitary([[1.0]])
    edge = 1.0 - 3e-15
    with pytest.raises(SingularDenominatorError):
        gf_closed_form(u, [edge], [edge])
    with pytest.raises(SingularDenominatorError):
        gf_minor_expansion(u, [edge], [edge])


def test_series_budget_gate():
    u = haar_random_unitary(4, 2)
    with pytest.raises(BudgetExceededError):
        gf_truncated_series(u, [0.1] * 4, [0.1] * 4, 14, max_patterns=1000)


def test_tail_bound_is_advisory_but_sane():
    u = haar_random_unitary(2, 13)
    duals = [0.25, 0.25]
    closed = gf_closed_form(u, duals, duals)
    for cutoff in (6, 10):
        value, tail = gf_truncated_series(u, duals, duals, cutoff)
        assert tail >= 0.0
        assert np.isfinite(tail)
        # the estimate should not be absurdly smaller than the true tail
        assert abs(closed - value) <= max(tail * 1e3, 1e-9)


def test_closed_form_rejects_a_complex_denominator():
    # For real duals det(I - U† Z U X) is real for every square U.  This
    # non-unitary matrix nearly cancels it (|det| ~ 3 from entries ~ 1e7),
    # so rounding leaves an imaginary part near 1e-6 of |det|.
    a = 4000.0 * np.array([[1.0, 1.0], [1j, 1j + 1e-3]])
    with pytest.raises(SingularDenominatorError, match="imaginary"):
        gf_closed_form(a, [0.5, 0.5], [0.5, 0.5])
    # a unitary keeps the imaginary part at rounding level
    u = haar_random_unitary(3, 8)
    assert gf_closed_form(u, [0.5, 0.2, 0.7], [0.3, 0.9, 0.1]) > 0.0
