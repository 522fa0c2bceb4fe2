"""Occupation-vector arithmetic and enumeration over interferometer modes.

Occupation vectors are plain tuples of non-negative per-mode counts.
Mode subsets are tuples of strictly increasing indices numbered from 1,
matching the user-facing convention everywhere in this package.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    OccupationOverflowError,
)

DEFAULT_PATTERN_CAP = 10**6
MAX_FACTORIAL_COUNT = 20


def as_occupation(counts: Sequence[int]) -> tuple[int, ...]:
    """Validate and normalize a per-mode count sequence to a tuple."""
    occ = []
    for c in counts:
        ci = int(c)
        if ci != c:
            raise ValueError(f"occupation counts must be integers, got {c!r}")
        if ci < 0:
            raise ValueError(f"occupation counts must be non-negative, got {c}")
        occ.append(ci)
    return tuple(occ)


def as_subset(modes: Sequence[int], n_modes: int) -> tuple[int, ...]:
    """Validate a strictly increasing 1-based mode subset."""
    sub = tuple(int(m) for m in modes)
    for m in sub:
        if not 1 <= m <= n_modes:
            raise IndexOutOfRangeError(f"mode {m} outside [1..{n_modes}]")
    if any(a >= b for a, b in zip(sub, sub[1:])):
        raise ValueError(f"subset must be strictly increasing, got {sub}")
    return sub


def support(counts: Sequence[int]) -> tuple[int, ...]:
    """1-based indices of the modes with non-zero count."""
    return tuple(s + 1 for s, c in enumerate(counts) if c > 0)


def indicator(modes: Sequence[int], n_modes: int) -> tuple[int, ...]:
    """0/1 occupation vector with ones at the given 1-based modes."""
    occ = occupation_from_modes(modes, n_modes)
    if any(c > 1 for c in occ):
        raise ValueError(f"duplicate modes in {tuple(modes)}")
    return occ


def occupation_from_modes(modes: Sequence[int], n_modes: int) -> tuple[int, ...]:
    """Occupation vector placing one particle per listed 1-based mode.

    Repeated modes are allowed and accumulate.
    """
    occ = [0] * n_modes
    for m in modes:
        mi = int(m)
        if not 1 <= mi <= n_modes:
            raise IndexOutOfRangeError(f"mode {mi} outside [1..{n_modes}]")
        occ[mi - 1] += 1
    return tuple(occ)


def enumerate_occupations(
    n_modes: int, total: int, *, max_patterns: int = DEFAULT_PATTERN_CAP
) -> list[tuple[int, ...]]:
    """All length-``n_modes`` count vectors summing to ``total``.

    Ordered with the leading mode taking the largest count first, e.g.
    (2,0), (1,1), (0,2); there are C(total+n-1, n-1) of them.  Raises
    BudgetExceededError before enumerating if the count exceeds
    ``max_patterns``.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if total < 0:
        raise ValueError("total must be >= 0")
    count = math.comb(total + n_modes - 1, n_modes - 1)
    if count > max_patterns:
        raise BudgetExceededError(
            f"{count} patterns for {total} particles in {n_modes} modes "
            f"exceeds the cap of {max_patterns}"
        )
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, modes_left: int):
        if remaining == 0:
            out.append(prefix + (0,) * modes_left)
            return
        if modes_left == 1:
            out.append(prefix + (remaining,))
            return
        for c in range(remaining, -1, -1):
            rec(prefix + (c,), remaining - c, modes_left - 1)

    rec((), total, n_modes)
    return out


def enumerate_subsets(n_modes: int, size: int) -> list[tuple[int, ...]]:
    """All C(n, m) mode subsets of the given size, lexicographic, 1-based."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if not 0 <= size <= n_modes:
        raise ValueError(f"subset size {size} outside [0..{n_modes}]")
    return list(itertools.combinations(range(1, n_modes + 1), size))


def subtract_indicator(
    counts: Sequence[int], modes: Sequence[int]
) -> tuple[int, ...] | None:
    """Remove one particle from each listed mode, or None if impossible.

    None marks the undefined case (some listed mode is empty); callers
    drop such terms, since occupation counts cannot go negative.
    """
    occ = as_occupation(counts)
    sub = as_subset(modes, len(occ))
    if len(sub) != len(set(sub)):
        raise DimensionMismatchError("subset modes must be unique")
    result = list(occ)
    for m in sub:
        result[m - 1] -= 1
        if result[m - 1] < 0:
            return None
    return tuple(result)


def bounded_subvectors(counts: Sequence[int]) -> list[tuple[int, ...]]:
    """All 0/1 vectors bounded componentwise by min(count, 1), lexicographic."""
    occ = as_occupation(counts)
    return list(itertools.product(*[range(min(c, 1) + 1) for c in occ]))


def factorial_product(counts: Sequence[int]) -> int:
    """Product of the factorials of the per-mode counts."""
    occ = as_occupation(counts)
    result = 1
    for c in occ:
        if c > MAX_FACTORIAL_COUNT:
            raise OccupationOverflowError(
                f"count {c} exceeds exact-arithmetic cap {MAX_FACTORIAL_COUNT}"
            )
        result *= math.factorial(c)
    return result
