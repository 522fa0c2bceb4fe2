"""Complex-matrix construction, validation, and submatrix machinery.

Matrices are dense complex128 numpy arrays.  Mode indices in every
public signature are 1-based; conversion to array indices stays inside
this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combinat import as_occupation, as_subset
from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    NotSquareError,
    NotUnitaryError,
)

DEFAULT_UNITARY_TOL = 1e-12


def as_complex_matrix(data) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    m = np.array(data, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """A validated unitary with its measured unitarity residual."""

    matrix: np.ndarray
    unitarity_residual: float

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def matrix_of(u) -> np.ndarray:
    """Unwrap a UnitaryMatrix or coerce array-like input."""
    if isinstance(u, UnitaryMatrix):
        return u.matrix
    return as_complex_matrix(u)


def unitarity_residual(m: np.ndarray) -> float:
    """Max-norm of M†M - I."""
    n = m.shape[0]
    return float(np.abs(m.conj().T @ m - np.eye(n)).max())


def validate_unitary(m, tol: float = DEFAULT_UNITARY_TOL) -> UnitaryMatrix:
    """Gate a matrix behind a unitarity check.

    Returns the wrapped matrix with its residual when max|M†M - I| <= tol,
    raises NotUnitaryError otherwise.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    mat = as_complex_matrix(m)
    if mat.shape[0] != mat.shape[1]:
        raise NotSquareError(f"expected square matrix, got shape {mat.shape}")
    residual = unitarity_residual(mat)
    if residual > tol:
        raise NotUnitaryError(residual, tol)
    return UnitaryMatrix(mat, residual)


def _inv_sqrt(n: int) -> float:
    """1/sqrt(n) correctly rounded (1.0 / math.sqrt(n) rounds twice)."""
    _, exp = math.frexp(1.0 / math.sqrt(n))
    shift = 53 - exp
    # floor(2 * 2^shift / sqrt(n)) in exact integer arithmetic, then halved
    # with rounding to the nearest 53-bit mantissa
    twice = math.isqrt((4 << (2 * shift)) // n)
    return math.ldexp((twice + 1) // 2, -shift)


def fourier_matrix(n: int) -> UnitaryMatrix:
    """The n-mode Fourier interferometer, entries exp(-2*pi*i*k*l/n)/sqrt(n).

    Row/column indices k, l run from 1 to n.  The exponent k*l is reduced
    mod n first, so phases that are exactly 1 carry no rounding residue,
    and the scale is the correctly rounded 1/sqrt(n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(1, n + 1)
    phase = np.exp(-2j * np.pi * (np.outer(k, k) % n) / n)
    return validate_unitary(phase * _inv_sqrt(n), tol=1e-14)


def balanced_beamsplitter() -> UnitaryMatrix:
    """The fixed 2x2 balanced coupler (1/sqrt(2)) [[1, 1], [1, -1]]."""
    m = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2)
    return validate_unitary(m)


def permutation_matrix(targets: Sequence[int]) -> UnitaryMatrix:
    """Permutation interferometer routing mode s to targets[s-1] (1-based)."""
    targets = [int(t) for t in targets]
    n = len(targets)
    if sorted(targets) != list(range(1, n + 1)):
        raise ValueError(f"{targets} is not a permutation of 1..{n}")
    m = np.zeros((n, n), dtype=np.complex128)
    for source, target in enumerate(targets, start=1):
        m[target - 1, source - 1] = 1.0
    return validate_unitary(m)


def haar_random_unitary(n: int, seed: int) -> UnitaryMatrix:
    """Haar-distributed random unitary, deterministic per (n, seed).

    Samples an n x n matrix of independent standard complex Gaussians and
    orthonormalizes it by QR; the phase ambiguity is fixed by forcing the
    triangular factor's diagonal to be real and positive.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return validate_unitary(q)


def classical_matrix(u) -> np.ndarray:
    """Doubly stochastic matrix of squared moduli of a unitary's entries."""
    m = matrix_of(u)
    return np.abs(m) ** 2


def submatrix_by_occupation(a, row_occ: Sequence[int], col_occ: Sequence[int]) -> np.ndarray:
    """Repeat each row/column by its occupation count, dropping zeros.

    Row s of the result set comes from occupation ``row_occ[s]`` and
    likewise for columns; the result has sum(row_occ) rows and
    sum(col_occ) columns and may be non-square.
    """
    m = as_complex_matrix(a)
    rows = as_occupation(row_occ)
    cols = as_occupation(col_occ)
    if len(rows) != m.shape[0] or len(cols) != m.shape[1]:
        raise DimensionMismatchError(
            f"occupations of lengths {len(rows)}x{len(cols)} do not match "
            f"matrix shape {m.shape}"
        )
    return np.repeat(np.repeat(m, rows, axis=0), cols, axis=1)


def minor_keep(a, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """Submatrix keeping exactly the listed 1-based rows and columns.

    Empty subsets yield the 0x0 matrix.
    """
    m = as_complex_matrix(a)
    r = as_subset(rows, m.shape[0])
    c = as_subset(cols, m.shape[1])
    if not r or not c:
        return np.zeros((len(r), len(c)), dtype=np.complex128)
    return m[np.ix_([i - 1 for i in r], [j - 1 for j in c])]


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    # Principal square root of a Hermitian PSD matrix; tiny negative
    # eigenvalues from rounding are clipped to zero.
    h = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def unitary_dilation(a, size: int | None = None) -> tuple[UnitaryMatrix, float]:
    """Embed a scaled copy of an arbitrary square matrix inside a unitary.

    Returns (V, epsilon) where V is unitary of dimension ``size``
    (default 2N) whose top-left N x N block equals epsilon * a.  The
    scale epsilon = 1/(2*||a||_F + 1) guarantees a strict contraction
    without computing the spectral norm, so the complementary blocks
    I - eps^2 A A† and I - eps^2 A† A are well conditioned.
    """
    m = as_complex_matrix(a)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected square matrix, got shape {m.shape}")
    if size is None:
        size = 2 * n
    if size < 2 * n:
        raise DimensionTooSmallError(
            f"dilation size {size} is below the minimum {2 * n}"
        )
    eps = 1.0 / (2.0 * float(np.linalg.norm(m)) + 1.0)
    t = eps * m
    eye = np.eye(n, dtype=np.complex128)
    upper_defect = _psd_sqrt(eye - t @ t.conj().T)
    lower_defect = _psd_sqrt(eye - t.conj().T @ t)
    v = np.block([[t, upper_defect], [-lower_defect, t.conj().T]])
    if size > 2 * n:
        full = np.eye(size, dtype=np.complex128)
        full[: 2 * n, : 2 * n] = v
        v = full
    return validate_unitary(v, tol=1e-12), eps


def matrix_to_json(a) -> dict:
    """Serialize a matrix to the CLI's JSON document format."""
    m = as_complex_matrix(a)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def matrix_from_json(doc: dict) -> np.ndarray:
    """Parse the CLI's JSON matrix document; unitarity is not assumed."""
    try:
        rows = int(doc["rows"])
        cols = int(doc["cols"])
        entries = doc["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix document: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if len(entries) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries, got {len(entries)}"
        )
    flat = [complex(float(re), float(im)) for re, im in entries]
    return as_complex_matrix(np.array(flat).reshape(rows, cols))


def load_matrix(path) -> np.ndarray:
    """Read a matrix JSON file (row-major [re, im] pairs)."""
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


def save_matrix(path, a) -> None:
    """Write a matrix in the JSON document format."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(a), fh)
        fh.write("\n")
