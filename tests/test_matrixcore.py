import json
import math

import mpmath
import numpy as np
import pytest

from interfere.errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    IndexOutOfRangeError,
    NotSquareError,
    NotUnitaryError,
)
from interfere.matrixcore import (
    balanced_beamsplitter,
    classical_matrix,
    fourier_matrix,
    haar_random_unitary,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    minor_keep,
    permutation_matrix,
    save_matrix,
    submatrix_by_occupation,
    unitarity_residual,
    unitary_dilation,
    validate_unitary,
)


def test_validate_unitary_identity():
    u = validate_unitary(np.eye(3), tol=1e-12)
    assert u.unitarity_residual == 0.0
    assert u.n == 3


def test_validate_unitary_beamsplitter_rows():
    m = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    u = validate_unitary(m, tol=1e-12)
    assert u.unitarity_residual <= 1e-15


def test_validate_unitary_rejects_scaled_matrix():
    with pytest.raises(NotUnitaryError) as err:
        validate_unitary([[1, 0], [0, 2]], tol=1e-12)
    assert err.value.residual == pytest.approx(3.0)


def test_validate_unitary_rejects_rectangular():
    with pytest.raises(NotSquareError):
        validate_unitary(np.ones((2, 3)))
    with pytest.raises(ValueError):
        validate_unitary(np.eye(2), tol=0.0)


def test_unitary_matrix_is_immutable():
    u = balanced_beamsplitter()
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 5.0


def test_fourier_matrix_size_one():
    u = fourier_matrix(1)
    assert np.allclose(u.matrix, [[1.0]])


def test_fourier_matrix_size_two():
    expected = np.array([[-1, 1], [1, 1]]) / math.sqrt(2)
    assert np.allclose(fourier_matrix(2).matrix, expected, atol=1e-15)


def test_fourier_matrix_entries_are_correctly_rounded():
    # 1.0 / math.sqrt(3) rounds twice, to one ulp above 1/sqrt(3)
    with mpmath.workdps(50):
        for n in range(1, 13):
            m = fourier_matrix(n).matrix
            scale = float(1 / mpmath.sqrt(n))
            worst = 0.0
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    if k * l % n == 0:
                        assert m[k - 1, l - 1] == complex(scale, 0.0)
                    exact = mpmath.expjpi(mpmath.mpf(-2 * k * l) / n) / mpmath.sqrt(n)
                    worst = max(worst, float(abs(m[k - 1, l - 1] - exact)))
            assert worst <= 6e-16  # about 3e-15 when k*l is not reduced first


def test_fourier_matrix_three_is_tightly_unitary():
    u = fourier_matrix(3)
    assert u.unitarity_residual <= 1e-14
    assert np.allclose(np.abs(u.matrix), 1 / math.sqrt(3))


def test_balanced_beamsplitter_entries():
    u = balanced_beamsplitter()
    assert np.allclose(np.abs(u.matrix) ** 2, 0.5)
    assert np.allclose(u.matrix, np.array([[1, 1], [1, -1]]) / math.sqrt(2))


def test_permutation_matrix_routing():
    u = permutation_matrix([2, 3, 1])
    vec = np.array([1.0, 0.0, 0.0])
    assert np.allclose(u.matrix @ vec, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        permutation_matrix([1, 1])


def test_haar_scalar_is_phase():
    u = haar_random_unitary(1, 123)
    assert abs(abs(u.matrix[0, 0]) - 1.0) <= 1e-12


def test_haar_determinism():
    a = haar_random_unitary(4, 7)
    b = haar_random_unitary(4, 7)
    assert np.array_equal(a.matrix, b.matrix)
    c = haar_random_unitary(4, 8)
    assert not np.array_equal(a.matrix, c.matrix)


def test_haar_unitarity_residual():
    u = haar_random_unitary(5, 42)
    measured = unitarity_residual(u.matrix)
    assert measured <= 1e-12
    assert u.unitarity_residual == measured


def test_classical_matrix_values():
    assert np.allclose(classical_matrix(balanced_beamsplitter()), 0.5)
    assert np.allclose(classical_matrix(validate_unitary(np.eye(3))), np.eye(3))
    assert np.allclose(classical_matrix(fourier_matrix(3)), 1.0 / 3.0)


def test_classical_matrix_doubly_stochastic():
    for seed in range(5):
        w = classical_matrix(haar_random_unitary(5, seed))
        assert np.all(w >= 0.0)
        assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_submatrix_identity_occupation():
    a = np.arange(4).reshape(2, 2) + 0j
    assert np.array_equal(submatrix_by_occupation(a, (1, 1), (1, 1)), a)


def test_submatrix_column_duplication():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    out = submatrix_by_occupation(a, (1, 1), (2, 0))
    assert np.array_equal(out, np.array([[1, 1], [3, 3]]))


def test_submatrix_row_selection():
    a = np.arange(9).reshape(3, 3) + 0j
    out = submatrix_by_occupation(a, (0, 2, 1), (1, 1, 1))
    assert np.array_equal(out, a[[1, 1, 2], :])


def test_submatrix_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        submatrix_by_occupation(np.eye(2), (1, 1, 0), (1, 1))


def test_minor_keep_block():
    a = np.arange(9).reshape(3, 3) + 0j
    out = minor_keep(a, (1, 2), (2, 3))
    assert np.array_equal(out, a[np.ix_([0, 1], [1, 2])])


def test_minor_keep_empty():
    out = minor_keep(np.eye(3), (), ())
    assert out.shape == (0, 0)


def test_minor_keep_principal():
    a = np.arange(16).reshape(4, 4) + 0j
    out = minor_keep(a, (1, 3), (1, 3))
    assert np.array_equal(out, a[np.ix_([0, 2], [0, 2])])


def test_minor_keep_bounds():
    with pytest.raises(IndexOutOfRangeError):
        minor_keep(np.eye(3), (1, 4), (1, 2))
    with pytest.raises(ValueError):
        minor_keep(np.eye(3), (2, 1), (1, 2))


def test_occupation_and_minor_agree_on_indicator_patterns():
    rng = np.random.default_rng(77)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rows = (0, 1, 0, 1)  # support beta = {2, 4}
    cols = (1, 0, 1, 0)  # support alpha = {1, 3}
    by_occ = submatrix_by_occupation(a, rows, cols)
    by_minor = minor_keep(a, (2, 4), (1, 3))
    assert np.array_equal(by_occ, by_minor)


def test_dilation_of_zero_matrix():
    v, eps = unitary_dilation(np.zeros((2, 2)))
    assert eps == 1.0
    assert np.allclose(v.matrix[:2, :2], 0.0)
    assert v.unitarity_residual <= 1e-12


def test_dilation_of_identity():
    v, eps = unitary_dilation(np.eye(2))
    assert np.allclose(v.matrix[:2, :2], eps * np.eye(2), atol=1e-12)
    assert eps == pytest.approx(1.0 / (2.0 * math.sqrt(2) + 1.0))


def test_dilation_random_matrix_properties():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    v, eps = unitary_dilation(a, 6)
    assert np.abs(v.matrix[:3, :3] - eps * a).max() <= 1e-12
    assert v.unitarity_residual <= 1e-12
    assert eps <= 1.0 / np.linalg.norm(a, 2)


def test_dilation_padding_beyond_minimum():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v, eps = unitary_dilation(a, 7)
    assert v.n == 7
    assert np.abs(v.matrix[:2, :2] - eps * a).max() <= 1e-12
    assert v.unitarity_residual <= 1e-12


def test_dilation_size_gate():
    with pytest.raises(DimensionTooSmallError):
        unitary_dilation(np.eye(3), 5)
    with pytest.raises(NotSquareError):
        unitary_dilation(np.ones((2, 3)))


def test_matrix_json_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    path = tmp_path / "matrix.json"
    save_matrix(path, a)
    assert np.array_equal(load_matrix(path), a)
    doc = matrix_to_json(a)
    assert doc["rows"] == 3 and doc["cols"] == 2
    assert np.array_equal(matrix_from_json(doc), a)


def test_matrix_json_rejects_malformed(tmp_path):
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"cols": 2, "entries": []})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[1e400, 0]]}))
    with pytest.raises(ValueError):
        load_matrix(path)
