"""Permanent and determinant kernels with degenerate-shape conventions.

Conventions applied uniformly: the permanent or determinant of a 0x0
matrix is 1 (empty product), and that of a non-square matrix is 0.  Both
cases set ``shape_convention_applied`` on the returned value.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import SizeLimitError
from .matrixcore import as_complex_matrix

DEFAULT_SIZE_CAP = 20
NAIVE_SIZE_CAP = 9


class MatrixFunctionValue(NamedTuple):
    """Result of a permanent/determinant evaluation.

    ``shape_convention_applied`` records whether a degenerate-shape rule
    (0x0 -> 1, non-square -> 0) produced the value instead of the kernel.
    """

    value: complex
    shape_convention_applied: bool


def relative_error(x, y) -> float:
    """|x - y| / max(1, |x|, |y|); stays finite for near-zero values."""
    x = complex(x)
    y = complex(y)
    return abs(x - y) / max(1.0, abs(x), abs(y))


class _Kahan:
    """Compensated accumulator for complex values."""

    __slots__ = ("total", "carry")

    def __init__(self):
        self.total = 0.0 + 0.0j
        self.carry = 0.0 + 0.0j

    def add(self, value):
        y = value - self.carry
        t = self.total + y
        self.carry = (t - self.total) - y
        self.total = t


def _ryser_gray(a: np.ndarray) -> complex:
    # Ryser inclusion-exclusion; Gray-code order so each subset step
    # updates the row-sum vector with a single column add/subtract.
    n = a.shape[0]
    cols = np.ascontiguousarray(a.T)
    row = np.zeros(n, dtype=np.complex128)
    acc = _Kahan()
    gray = 0
    sign = 1.0
    for k in range(1, 1 << n):
        bit = (k & -k).bit_length() - 1
        mask = 1 << bit
        gray ^= mask
        if gray & mask:
            row += cols[bit]
        else:
            row -= cols[bit]
        sign = -sign
        acc.add(sign * row.prod())
    total = acc.total
    if n % 2:
        total = -total
    return complex(total)


def permanent(a, *, size_cap: int = DEFAULT_SIZE_CAP) -> MatrixFunctionValue:
    """Permanent of a complex matrix via Ryser's formula.

    Gray-code subset updates give O(2^n * n) cost; the outer sum is
    accumulated with compensated summation because the 2^n terms are
    strongly cancelling.  Matrices larger than ``size_cap`` are rejected
    rather than silently running for hours.
    """
    m = as_complex_matrix(a)
    rows, cols = m.shape
    if rows == 0 and cols == 0:
        return MatrixFunctionValue(1.0 + 0.0j, True)
    if rows != cols:
        return MatrixFunctionValue(0.0 + 0.0j, True)
    if rows > size_cap:
        raise SizeLimitError(f"permanent of size {rows} exceeds cap {size_cap}")
    if rows == 1:
        return MatrixFunctionValue(complex(m[0, 0]), False)
    if rows == 2:
        return MatrixFunctionValue(
            complex(m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0]), False
        )
    return MatrixFunctionValue(_ryser_gray(m), False)


def permanent_naive(a, *, size_cap: int = NAIVE_SIZE_CAP) -> MatrixFunctionValue:
    """Brute-force permanent: sum of products over all permutations.

    Deliberately independent of the Ryser kernel so the two can be
    checked against each other.  Capped at ``size_cap`` (default 9).
    """
    m = as_complex_matrix(a)
    rows, cols = m.shape
    if rows == 0 and cols == 0:
        return MatrixFunctionValue(1.0 + 0.0j, True)
    if rows != cols:
        return MatrixFunctionValue(0.0 + 0.0j, True)
    if rows > size_cap:
        raise SizeLimitError(f"naive permanent capped at {size_cap}, got {rows}")
    perms = np.array(list(itertools.permutations(range(rows))), dtype=np.intp)
    products = np.prod(m[np.arange(rows), perms], axis=1)
    return MatrixFunctionValue(complex(products.sum()), False)


def determinant(a) -> MatrixFunctionValue:
    """Determinant with the same shape conventions as :func:`permanent`.

    Square inputs go through LAPACK's LU factorization with partial
    pivoting (numpy.linalg.det), O(n^3).
    """
    m = as_complex_matrix(a)
    rows, cols = m.shape
    if rows == 0 and cols == 0:
        return MatrixFunctionValue(1.0 + 0.0j, True)
    if rows != cols:
        return MatrixFunctionValue(0.0 + 0.0j, True)
    value = complex(np.linalg.det(m))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise FloatingPointError("determinant overflowed double precision")
    return MatrixFunctionValue(value, False)


@functools.lru_cache(maxsize=4096)
def _multiplicity_table(r_counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    # All multiplicity vectors v <= r_counts plus their signed binomial
    # weights (-1)^|v| * prod C(r_s, v_s), one row per subset class.
    grids = np.indices([c + 1 for c in r_counts])
    vecs = grids.reshape(len(r_counts), -1).T.astype(np.float64)
    coeff = np.ones(vecs.shape[0])
    for col, c in enumerate(r_counts):
        lookup = np.array([math.comb(c, v) for v in range(c + 1)], dtype=np.float64)
        coeff *= lookup[vecs[:, col].astype(np.intp)]
    parity = vecs.sum(axis=1).astype(np.intp) % 2
    return vecs, np.where(parity == 1, -coeff, coeff)


def occupation_permanent(
    a,
    row_occ: Sequence[int],
    col_occ: Sequence[int],
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> MatrixFunctionValue:
    """Permanent of the row/column-repeated submatrix of ``a``.

    Equals ``permanent(submatrix_by_occupation(a, row_occ, col_occ))`` but
    runs Ryser directly over multiplicity vectors: choosing ``v_s`` copies
    of row ``s`` contributes a binomial weight, so the cost is
    O(prod(occ_s + 1) * n) on the cheaper side instead of O(2^t * t).
    Degenerate shapes follow the module conventions (unequal totals give
    a non-square repetition, hence 0).
    """
    m = as_complex_matrix(a)
    rows = tuple(int(c) for c in row_occ)
    cols = tuple(int(c) for c in col_occ)
    if len(rows) != m.shape[0] or len(cols) != m.shape[1]:
        raise ValueError("occupation lengths must match the matrix shape")
    if any(c < 0 for c in rows) or any(c < 0 for c in cols):
        raise ValueError("occupations must be non-negative")
    total = sum(rows)
    if total == 0 and sum(cols) == 0:
        return MatrixFunctionValue(1.0 + 0.0j, True)
    if total != sum(cols):
        return MatrixFunctionValue(0.0 + 0.0j, True)
    if total > size_cap:
        raise SizeLimitError(
            f"occupation permanent of size {total} exceeds cap {size_cap}"
        )

    # Loop subsets on the side with the smaller multiplicity product.
    def weight(occ):
        w = 1
        for c in occ:
            w *= c + 1
        return w

    if weight(cols) < weight(rows):
        m = m.T
        rows, cols = cols, rows

    r_support = [s for s, c in enumerate(rows) if c > 0]
    c_support = [s for s, c in enumerate(cols) if c > 0]
    block = np.ascontiguousarray(m[np.ix_(r_support, c_support)])
    r_counts = tuple(rows[s] for s in r_support)
    c_counts = np.array([cols[s] for s in c_support], dtype=np.float64)

    vecs, signed_coeff = _multiplicity_table(r_counts)
    sums = vecs @ block
    terms = signed_coeff * np.prod(sums ** c_counts[None, :], axis=1)
    value = complex(math.fsum(terms.real), math.fsum(terms.imag))
    if total % 2:
        value = -value
    return MatrixFunctionValue(value, False)


def permanent_many(mats: np.ndarray) -> np.ndarray:
    """Permanents of a stack of equal-sized square matrices.

    ``mats`` has shape (batch, n, n); returns shape (batch,).  Same
    Gray-code Ryser recursion as the scalar kernel, vectorized over the
    batch axis with elementwise compensated accumulation.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("expected shape (batch, n, n)")
    batch, n, _ = mats.shape
    if n == 0:
        return np.ones(batch, dtype=np.complex128)
    if n == 1:
        return mats[:, 0, 0].copy()
    row = np.zeros((batch, n), dtype=np.complex128)
    total = np.zeros(batch, dtype=np.complex128)
    carry = np.zeros(batch, dtype=np.complex128)
    gray = 0
    sign = 1.0
    for k in range(1, 1 << n):
        bit = (k & -k).bit_length() - 1
        mask = 1 << bit
        gray ^= mask
        if gray & mask:
            row += mats[:, :, bit]
        else:
            row -= mats[:, :, bit]
        sign = -sign
        term = sign * row.prod(axis=1)
        y = term - carry
        t = total + y
        carry = (t - total) - y
        total = t
    if n % 2:
        total = -total
    return total


def determinant_many(mats: np.ndarray) -> np.ndarray:
    """Determinants of a stack of equal-sized square matrices."""
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("expected shape (batch, n, n)")
    if mats.shape[1] == 0:
        return np.ones(mats.shape[0], dtype=np.complex128)
    return np.linalg.det(mats)
