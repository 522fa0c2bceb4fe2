"""Bosonic, fermionic, and classical transition probabilities.

For an interferometer U, the probability of sending the occupation
pattern ``i`` to the pattern ``n`` is |per(U_{n,i})|^2 / (n! i!) for
bosons, |det(U_{n,i})|^2 for fermions, and per(M_{n,i}) / n! for fully
distinguishable particles, where M holds the squared moduli of U and
U_{n,i} repeats rows/columns by occupation.  Probabilities vanish
whenever the particle totals differ; that case never touches a kernel.

Boson and classical values are filled a whole output row at a time; see
:class:`ProbabilityCache`.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .combinat import as_occupation, enumerate_occupations, support
from .errors import BudgetExceededError, DimensionMismatchError, SizeLimitError
from .matrixcore import matrix_of
from .permdet import DEFAULT_SIZE_CAP, _occupation_permanent

STATISTICS = ("boson", "fermion", "classical")
DEFAULT_PARTICLE_BUDGET = 8
# A row takes memory in proportion to the mode count times its patterns, the
# size of its lowering map.  Inputs whose row would exceed this are evaluated
# one pair at a time instead: in 10 modes from 11 particles on, and with 2
# particles from 126 modes on.  The rows of 10 particles in 10 modes raise
# peak RSS by about 90 MB for their boson and classical values together.
ROW_SIZE_CAP = 10**6
_FACTORIALS = np.array(
    [math.factorial(c) for c in range(DEFAULT_SIZE_CAP + 1)], dtype=np.float64
)


class TransitionTriple(NamedTuple):
    """The (bosonic, fermionic, classical) probabilities of one transition."""

    boson: float
    fermion: float
    classical: float


def _pattern(m: np.ndarray, occ) -> tuple[int, ...]:
    p = as_occupation(occ)
    if len(p) != m.shape[0]:
        raise DimensionMismatchError(
            f"pattern of length {len(p)} does not match the "
            f"{m.shape[0]}-mode interferometer"
        )
    return p


def _pattern_pair(m: np.ndarray, input_occ, output_occ):
    return _pattern(m, input_occ), _pattern(m, output_occ)


def _factorial(occ: tuple[int, ...]) -> int:
    """n! of checked counts."""
    return math.prod(map(math.factorial, occ))


def _fermion_value(m: np.ndarray, i, n) -> float:
    if any(c > 1 for c in i) or any(c > 1 for c in n):
        return 0.0
    if sum(i) != sum(n):
        return 0.0
    rows = [s - 1 for s in support(n)]
    cols = [s - 1 for s in support(i)]
    if not rows:
        return 1.0
    if len(rows) == 1:
        # a 1x1 determinant is its entry; numpy's LU-based det may round it
        amp = complex(m[rows[0], cols[0]])
    else:
        amp = complex(np.linalg.det(m[np.ix_(rows, cols)]))
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise FloatingPointError("determinant overflowed double precision")
    # the same squared modulus as the boson rows, so one-particle B and F agree bit for bit
    return amp.real * amp.real + amp.imag * amp.imag


def _boson_values(amps: np.ndarray, i_factorial: int, n_factorials: np.ndarray) -> np.ndarray:
    # B = (n!/i!) |a|^2 for amplitudes a = per(U_{n,i}) / n!
    return n_factorials / i_factorial * (amps.real * amps.real + amps.imag * amps.imag)


def _classical_values(amps: np.ndarray, i_factorial: int, n_factorials: np.ndarray) -> np.ndarray:
    # C = a for amplitudes a = per(M_{n,i}) / n! of the squared moduli
    return amps.real


def boson_prob(u, input_occ: Sequence[int], output_occ: Sequence[int]) -> float:
    """Bosonic transition probability |per(U_{n,i})|^2 / (n! i!)."""
    m = matrix_of(u)
    i, n = _pattern_pair(m, input_occ, output_occ)
    return ProbabilityCache(m).boson(i, n)


def fermion_prob(u, input_occ: Sequence[int], output_occ: Sequence[int]) -> float:
    """Fermionic transition probability |det(U_{n,i})|^2.

    Patterns with any occupation above one describe states that do not
    exist for fermions and get probability 0.
    """
    m = matrix_of(u)
    i, n = _pattern_pair(m, input_occ, output_occ)
    return _fermion_value(m, i, n)


def classical_prob(u, input_occ: Sequence[int], output_occ: Sequence[int]) -> float:
    """Transition probability for fully distinguishable particles.

    per(M_{n,i}) / n! with M the squared-modulus matrix.  The output
    factorial alone normalizes the distribution: summed over outputs it
    gives exactly 1, and it reproduces the independent-routing law
    C_n^(i) = sum_k C_k^(j) C_{n-k}^(i-j) for every input split.  On
    one-particle-per-mode patterns this coincides with dividing by both
    factorials.
    """
    m = matrix_of(u)
    i, n = _pattern_pair(m, input_occ, output_occ)
    return ProbabilityCache(m).classical(i, n)


def transition_triple(
    u, input_occ: Sequence[int], output_occ: Sequence[int]
) -> TransitionTriple:
    """All three statistics for one (input, output) pattern pair."""
    m = matrix_of(u)
    i, n = _pattern_pair(m, input_occ, output_occ)
    cache = ProbabilityCache(m)
    return TransitionTriple(cache.boson(i, n), cache.fermion(i, n), cache.classical(i, n))


def output_distribution(
    u,
    input_occ: Sequence[int],
    statistics: str,
    *,
    particle_budget: int = DEFAULT_PARTICLE_BUDGET,
) -> dict[tuple[int, ...], float]:
    """Probabilities over every output pattern with the input's total.

    Keys are output occupation tuples in enumeration order; for each
    statistics the values sum to 1 up to numerical noise.  Fermionic
    inputs must be 0/1 patterns (anything else has no fermionic state to
    propagate).
    """
    if statistics not in STATISTICS:
        raise ValueError(f"statistics must be one of {STATISTICS}, got {statistics!r}")
    m = matrix_of(u)
    i = _pattern(m, input_occ)
    total = sum(i)
    if total > particle_budget:
        raise BudgetExceededError(
            f"{total} particles exceed the budget of {particle_budget}"
        )
    if statistics == "fermion" and any(c > 1 for c in i):
        raise ValueError("fermionic input occupations must be 0 or 1")
    cache = ProbabilityCache(m)
    prob = {
        "boson": cache.boson,
        "fermion": cache.fermion,
        "classical": cache.classical,
    }[statistics]
    outputs = enumerate_occupations(len(i), total)
    return {n: prob(i, n) for n in outputs}


class _PatternIndex:
    """Occupation patterns of each total over a fixed number of modes.

    ``patterns(t)`` lists the patterns of total t in the order of
    :func:`enumerate_occupations` and ``factorials(t)`` holds their n!
    products as floats.  ``lower(t)`` is an (N, count) array whose entry
    [k, p] is the position of pattern p less one particle in mode k among
    the patterns of total t - 1, or count(t - 1) when mode k of p is
    empty.  Each table is built once, on first use.
    """

    def __init__(self, n_modes: int):
        self.n_modes = n_modes
        self._patterns: dict[int, list[tuple[int, ...]]] = {}
        self._keys: dict[int, list[bytes]] = {}
        self._factorials: dict[int, np.ndarray] = {}
        self._lower: dict[int, np.ndarray] = {}

    def count(self, total: int) -> int:
        return math.comb(total + self.n_modes - 1, self.n_modes - 1)

    def patterns(self, total: int) -> list[tuple[int, ...]]:
        pats = self._patterns.get(total)
        if pats is None:
            pats = self._patterns[total] = enumerate_occupations(self.n_modes, total)
        return pats

    def keys(self, total: int) -> list[bytes]:
        """The bytes of each pattern's counts, one byte per mode."""
        keys = self._keys.get(total)
        if keys is None:
            keys = self._keys[total] = list(map(bytes, self.patterns(total)))
        return keys

    def counts(self, total: int) -> np.ndarray:
        """The patterns of the total as a (count, N) uint8 array."""
        flat = np.frombuffer(b"".join(self.keys(total)), dtype=np.uint8)
        return flat.reshape(-1, self.n_modes)

    def factorials(self, total: int) -> np.ndarray:
        facts = self._factorials.get(total)
        if facts is None:
            facts = self._factorials[total] = np.prod(_FACTORIALS[self.counts(total)], axis=1)
        return facts

    def lower(self, total: int) -> np.ndarray:
        lower = self._lower.get(total)
        if lower is None:
            # Each pattern q of total - 1 plus one particle in mode k is a
            # pattern p of the total, looked up by its counts as bytes;
            # then lower[k, p] = q.  Entries no q reaches keep count(t - 1).
            position = dict(zip(self.keys(total), itertools.count()))
            below = self.counts(total - 1)
            raised = below + np.eye(self.n_modes, dtype=np.uint8)[:, None]
            keys = raised.view(np.dtype((np.void, self.n_modes))).ravel().tolist()
            cols = np.fromiter(map(position.__getitem__, keys), dtype=np.intp, count=len(keys))
            lower = np.full((self.n_modes, len(position)), len(below), dtype=np.intp)
            modes = np.arange(self.n_modes)[:, None]
            lower[modes, cols.reshape(self.n_modes, -1)] = np.arange(len(below))
            self._lower[total] = lower
        return lower


@functools.lru_cache(maxsize=4)
def _pattern_index(n_modes: int) -> _PatternIndex:
    """The pattern tables of one mode count, shared by the caches of that size.

    They depend on nothing else, and callers only read them once built.
    They outlive the caches: those of 10 particles in 10 modes, the largest
    a row may need there, hold about 47 MB.
    """
    return _PatternIndex(n_modes)


class _AmplitudeRows:
    """Memoized rows a(i, .) = per(A_{., i}) / n! over all outputs of total |i|."""

    def __init__(self, a: np.ndarray, index: _PatternIndex):
        self.a = a
        self.index = index
        self._rows = {(0,) * a.shape[0]: np.ones(1, dtype=a.dtype)}

    def row(self, i: tuple[int, ...]) -> np.ndarray:
        row = self._rows.get(i)
        if row is None:
            j = max(s for s, c in enumerate(i) if c)  # highest occupied input mode
            below = i[:j] + (i[j] - 1,) + i[j + 1 :]
            padded = np.append(self.row(below), 0)
            lowered = padded[self.index.lower(sum(i))]
            row = (self.a[:, j, None] * lowered).sum(axis=0)
            self._rows[i] = row
        return row


class ProbabilityCache:
    """Memoized transition values for one fixed matrix.

    Works for any square complex matrix; the cached quantities are the
    permanent/determinant ratios of the occupation submatrices, which
    are probabilities exactly when the matrix is unitary.  Patterns must
    be occupation tuples.

    Boson and classical values are filled one whole output row at a
    time.  The first lookup for an input i computes the amplitudes
    a(i, n) = per(A_{n,i}) / n!, the coefficients of z^n in
    prod_j (sum_k A[k, j] z_k)^{i_j}, for every output n of total |i|.
    Expanding that product one particle at a time (as SLOS does; Heurtel
    et al., "Strong simulation of linear optical processes",
    arXiv:2206.10549) gives the column-Laplace recurrence

        a(i, n) = sum_k A[k, j] a(i - e_j, n - e_k),    a(0, 0) = 1,

    with j the highest occupied input mode.  Rows are memoized by input,
    so a new row is N vectorized products on its parent's row, through
    per-total pattern tables and "one particle less in mode k" maps that
    depend only on the mode count and are shared by the caches of that
    size.  Then B = (n!/i!) |a|^2 with A = U, and C = a with
    A = |U|^2.  A row whose patterns times N exceed ``ROW_SIZE_CAP`` is
    not built; its pairs are evaluated one at a time by the multiplicity
    Ryser kernel of :func:`occupation_permanent`, called on the checked
    counts without the public function's input checks; that function
    otherwise serves only as the independent test oracle.  Fermion values
    are per-pair determinants.
    """

    def __init__(self, matrix):
        self.matrix = matrix_of(matrix)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise DimensionMismatchError("cache requires a square matrix")
        index = _pattern_index(self.n)
        self._boson_amps = _AmplitudeRows(self.matrix, index)
        self._classical_amps = _AmplitudeRows(np.abs(self.matrix) ** 2, index)
        self._boson: dict[tuple, dict[tuple, float]] = {}
        self._fermion: dict[tuple, float] = {}
        self._classical: dict[tuple, dict[tuple, float]] = {}
        # each input's checked counts, and their factorial product when the
        # total is within the amplitude cap
        self._inputs: dict[tuple, tuple[tuple[int, ...], int | None]] = {}

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def boson(self, i: tuple, n: tuple) -> float:
        try:
            return self._boson[i][n]
        except KeyError:
            return self._row_miss(self._boson, self._boson_amps, _boson_values, i, n)

    def fermion(self, i: tuple, n: tuple) -> float:
        key = (i, n)
        value = self._fermion.get(key)
        if value is None:
            value = _fermion_value(self.matrix, i, n)
            self._fermion[key] = value
        return value

    def classical(self, i: tuple, n: tuple) -> float:
        try:
            return self._classical[i][n]
        except KeyError:
            return self._row_miss(
                self._classical, self._classical_amps, _classical_values, i, n
            )

    def _row_miss(self, table, amps: _AmplitudeRows, values, i, n) -> float:
        # A new input, unequal totals, or a pair of a row too large to build.
        # The caller's tuples stay the keys: validated copies would double
        # the memory of a row filled pair by pair.  An input is checked once,
        # when first seen; the output on every miss.
        entry = self._inputs.get(i)
        if entry is None:
            occ = _pattern(self.matrix, i)
            fits = sum(occ) <= DEFAULT_SIZE_CAP
            entry = self._inputs[i] = (occ, _factorial(occ) if fits else None)
        occ_i, i_factorial = entry
        occ_n = _pattern(self.matrix, n)
        total = sum(occ_i)
        if total != sum(occ_n):
            return 0.0
        if i_factorial is None:
            raise SizeLimitError(
                f"{total} particles exceed the amplitude cap of {DEFAULT_SIZE_CAP}"
            )
        row = table.get(i)
        if row is None:
            row = table[i] = {}
            index = amps.index
            if self.n * index.count(total) <= ROW_SIZE_CAP:
                filled = values(amps.row(occ_i), i_factorial, index.factorials(total))
                row.update(zip(index.patterns(total), filled.tolist()))
        value = row.get(n)
        if value is None:
            n_factorial = float(_factorial(occ_n))
            amp = _occupation_permanent(amps.a, occ_n, occ_i) / n_factorial
            pair = values(np.array([amp]), i_factorial, np.array([n_factorial]))
            value = row[n] = pair.item()
        return value
