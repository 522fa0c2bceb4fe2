"""Permanent and determinant kernels with degenerate-shape conventions.

One chunked Ryser kernel serves :func:`permanent` and
:func:`permanent_many`, one matrix or a stack of them; the multiplicity
Ryser kernel of :func:`occupation_permanent` handles row/column-repeated
submatrices without expanding them.  :func:`permanent_naive` is the
independent permutation-sum oracle.  Determinants go through LAPACK.

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


# A step of _ryser evaluates batch * 2^c terms for the largest c <= n that
# keeps this bound: one matrix tabulates 12 columns, a batch above 4096 none.
_CHUNK_TERMS = 1 << 12


def _ryser(mats: np.ndarray) -> np.ndarray:
    # Ryser inclusion-exclusion over a (batch, n, n) stack.  The row sums
    # of all 2^c subsets of the lowest c columns are tabulated once; the
    # other n - c columns are walked in Gray-code order, each step adding
    # or subtracting one column to every tabulated sum and evaluating 2^c
    # terms per matrix with one product and one signed reduction.  Step
    # totals are accumulated with elementwise compensated summation
    # because the 2^n terms are strongly cancelling.
    batch, n, _ = mats.shape
    c = min(n, max(0, (_CHUNK_TERMS // max(batch, 1)).bit_length() - 1))
    # rows first, so the product over rows multiplies contiguous slabs
    cols = mats.transpose(2, 1, 0)[..., None]
    sums = np.zeros((n, batch, 1 << c), dtype=np.complex128)
    signs = np.ones(1 << c)
    for bit in range(c):
        half = 1 << bit
        sums[:, :, half : 2 * half] = sums[:, :, :half] + cols[bit]
        signs[half : 2 * half] = -signs[:half]
    total = np.zeros(batch, dtype=np.complex128)
    carry = np.zeros(batch, dtype=np.complex128)
    gray = 0
    for k in range(1 << (n - c)):
        if k:
            bit = (k & -k).bit_length() - 1
            gray ^= 1 << bit
            if gray >> bit & 1:
                sums += cols[c + bit]
            else:
                sums -= cols[c + bit]
        # the Gray code flips one high column per step: odd steps hold odd subsets
        term = (sums.prod(axis=0) * signs).sum(axis=1)
        y = (-term if k & 1 else term) - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return -total if n % 2 else total


def permanent(a, *, size_cap: int = DEFAULT_SIZE_CAP) -> MatrixFunctionValue:
    """Permanent of a complex matrix via Ryser's formula.

    O(2^n * n) cost in the chunked Ryser kernel shared with
    :func:`permanent_many`: 2^12 subset terms per vectorized step, step
    totals accumulated with compensated summation.  1x1 and 2x2 matrices
    use their closed forms.  Matrices larger than ``size_cap`` are
    rejected rather than silently running for hours.
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
    return MatrixFunctionValue(complex(_ryser(m[None])[0]), False)


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

    return MatrixFunctionValue(_occupation_permanent(m, rows, cols), False)


def _occupation_permanent(m: np.ndarray, rows: tuple[int, ...], cols: tuple[int, ...]) -> complex:
    # The kernel of occupation_permanent for a checked complex matrix and
    # non-negative counts of equal total t, 1 <= t <= the size cap.  Loop
    # subsets on the side with the smaller multiplicity product.
    r_support = [s for s, c in enumerate(rows) if c > 0]
    c_support = [s for s, c in enumerate(cols) if c > 0]
    if math.prod(cols[s] + 1 for s in c_support) < math.prod(rows[s] + 1 for s in r_support):
        m = m.T
        rows, cols = cols, rows
        r_support, c_support = c_support, r_support
    block = np.ascontiguousarray(m[np.ix_(r_support, c_support)])
    r_counts = tuple(rows[s] for s in r_support)
    c_counts = np.array([cols[s] for s in c_support], dtype=np.float64)

    vecs, signed_coeff = _multiplicity_table(r_counts)
    sums = vecs @ block
    terms = signed_coeff * np.prod(sums ** c_counts[None, :], axis=1)
    value = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return -value if sum(rows) % 2 else value


def permanent_many(mats: np.ndarray) -> np.ndarray:
    """Permanents of a stack of equal-sized square matrices.

    ``mats`` has shape (batch, n, n); returns shape (batch,).  Same
    chunked Ryser kernel as :func:`permanent`, vectorized over the batch
    axis; the larger the batch, the fewer subset terms per matrix each
    step tabulates.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("expected shape (batch, n, n)")
    return _ryser(mats)


def determinant_many(mats: np.ndarray) -> np.ndarray:
    """Determinants of a stack of equal-sized square matrices."""
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("expected shape (batch, n, n)")
    if mats.shape[1] == 0:
        return np.ones(mats.shape[0], dtype=np.complex128)
    return np.linalg.det(mats)


def _subset_pairs(n_modes: int, size: int):
    """The size-m subsets of range(n_modes), one per row of an index array,
    and the positions (first, second) of every ordered pair of them,
    first major."""
    combos = list(itertools.combinations(range(n_modes), size))
    subsets = np.array(combos, dtype=np.intp).reshape(len(combos), size)
    pos = np.arange(len(combos))
    return subsets, np.repeat(pos, len(combos)), np.tile(pos, len(combos))
