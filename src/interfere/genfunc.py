"""Generating function of the bosonic transition probabilities.

Three independent evaluation routes for cross-validation: a closed
reciprocal-determinant form, an explicit signed sum over minor pairs,
and direct truncation of the defining power series in the dual
variables.  The dual variables live in [0,1) per mode; the closed form
also tolerates slightly negative values, which the finite-difference
checks in the test suite rely on.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .combinat import enumerate_occupations
from .errors import BudgetExceededError, SingularDenominatorError
from .matrixcore import matrix_of
from .permdet import _subset_pairs, determinant_many
from .transition import ProbabilityCache

SINGULAR_EPS = 1e-14
IMAG_TOL = 1e-12


def _dual_vector(values: Sequence[float], n: int, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"{name} must have one component per mode ({n})")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} components must be finite")
    if np.any(v >= 1.0):
        raise ValueError(f"{name} components must be strictly below 1")
    return v


def gf_closed_form(u, x: Sequence[float], z: Sequence[float]) -> float:
    """Evaluate the generating function as a reciprocal determinant.

    g(x, z) = 1 / det(I - U† Z U X) with X = diag(x), Z = diag(z).  For
    real duals the determinant is real for any square U (U† Z U is
    Hermitian), so an imaginary part beyond ``IMAG_TOL`` relative to
    max(1, |det|) is rounding error large enough to distrust the real part
    as well, and raises instead of being dropped.
    """
    m = matrix_of(u)
    n = m.shape[0]
    xv = _dual_vector(x, n, "x")
    zv = _dual_vector(z, n, "z")
    core = np.eye(n) - (m.conj().T * zv) @ (m * xv)
    den = complex(np.linalg.det(core))
    if abs(den) < SINGULAR_EPS:
        raise SingularDenominatorError(
            f"|det| = {abs(den):.3e} below {SINGULAR_EPS:.0e}"
        )
    if abs(den.imag) > IMAG_TOL * max(1.0, abs(den)):
        raise SingularDenominatorError(
            f"det = {den:.6e} has an imaginary part beyond rounding "
            f"(tolerance {IMAG_TOL:.0e} of max(1, |det|))"
        )
    return 1.0 / den.real


def gf_minor_expansion(u, x: Sequence[float], z: Sequence[float]) -> float:
    """Evaluate the generating function through its minor expansion.

    The reciprocal is the signed sum over all equal-size subset pairs
    (alpha, beta) of [Z]_beta |det U[beta, alpha]|^2 [X]_alpha, where the
    bracketed factors are products of the selected dual components.
    """
    m = matrix_of(u)
    n = m.shape[0]
    xv = _dual_vector(x, n, "x")
    zv = _dual_vector(z, n, "z")
    terms = []
    for size in range(n + 1):
        # all (beta rows, alpha cols) pairs in one batched determinant
        subsets, rows, cols = _subset_pairs(n, size)
        minors = m[subsets[rows][:, :, None], subsets[cols][:, None, :]]
        dets = np.abs(determinant_many(minors)) ** 2
        weights = np.prod(zv[subsets], axis=1)[rows] * np.prod(xv[subsets], axis=1)[cols]
        sign = -1.0 if size % 2 else 1.0
        terms.extend((sign * dets * weights).tolist())
    recip = math.fsum(terms)
    if abs(recip) < SINGULAR_EPS:
        raise SingularDenominatorError(
            f"|reciprocal| = {abs(recip):.3e} below {SINGULAR_EPS:.0e}"
        )
    return 1.0 / recip


def gf_truncated_series(
    u,
    x: Sequence[float],
    z: Sequence[float],
    cutoff: int,
    *,
    max_patterns: int = 10**6,
) -> tuple[float, float]:
    """Partial sum of the defining series up to a total particle number.

    Sums B_n^(i) x^i z^n over every pattern pair with equal totals at
    most ``cutoff``.  Also returns a crude geometric tail estimate
    (pattern count at the next level times r^(cutoff+1) / (1-r) with
    r = max|x| * max|z|); the estimate is advisory only, with no claimed
    tightness.
    """
    m = matrix_of(u)
    n = m.shape[0]
    xv = _dual_vector(x, n, "x")
    zv = _dual_vector(z, n, "z")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    total_pairs = sum(
        math.comb(t + n - 1, n - 1) ** 2 for t in range(cutoff + 1)
    )
    if total_pairs > max_patterns:
        raise BudgetExceededError(
            f"{total_pairs} series terms exceed the cap of {max_patterns}"
        )
    cache = ProbabilityCache(m)
    terms = [1.0]  # vacuum
    for t in range(1, cutoff + 1):
        patterns = enumerate_occupations(n, t, max_patterns=max_patterns)
        arr = np.array(patterns, dtype=np.float64)
        xw = np.prod(xv**arr, axis=1)
        zw = np.prod(zv**arr, axis=1)
        for ii, i in enumerate(patterns):
            if xw[ii] == 0.0:
                continue
            for nn, out in enumerate(patterns):
                w = xw[ii] * zw[nn]
                if w == 0.0:
                    continue
                terms.append(cache.boson(i, out) * w)
    value = math.fsum(terms)

    r = float(np.max(np.abs(xv)) * np.max(np.abs(zv))) if n else 0.0
    if r >= 1.0:
        tail = math.inf
    elif r == 0.0:
        tail = 0.0
    else:
        next_count = math.comb(cutoff + n, n - 1) ** 2
        tail = next_count * r ** (cutoff + 1) / (1.0 - r)
    return value, tail
