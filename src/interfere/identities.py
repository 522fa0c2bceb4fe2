"""Machine verification of the permanent/determinant identities.

Every check evaluates one exact identity in floating point and reports a
scale-normalized residual: |raw| / (sum of absolute term magnitudes + 1).
A check passes when the residual is at or below its tolerance.  Signed
sums are accumulated with exact (fsum) summation because the identities
cancel to zero by construction.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .combinat import as_occupation, enumerate_occupations, occupation_from_modes
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    DimensionTooSmallError,
    SizeLimitError,
    UnsupportedPatternError,
)
from .matrixcore import matrix_of, unitary_dilation
from .permdet import _subset_pairs, determinant_many, permanent_many
from .transition import DEFAULT_PARTICLE_BUDGET, ProbabilityCache, _pattern_pair

DEFAULT_TOLERANCE = 1e-10
DEFAULT_TIE_EPS = 1e-10
COROLLARY1_SIZE_CAP = 8
MUIR_SIZE_CAP = 10


@dataclass
class IdentityReport:
    """Outcome of one identity evaluation."""

    identity_name: str
    residual: float
    raw_residual: float
    term_count: int
    normalizer: float
    passed: bool
    input_occ: tuple | None = None
    output_occ: tuple | None = None
    details: dict = field(default_factory=dict)


class Naturalness(enum.Enum):
    NATURAL = "Natural"
    ANTINATURAL = "Antinatural"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class NaturalnessLabel:
    """Ordering class of a two-particle transition plus its B - F gap."""

    label: Naturalness
    difference: float


def _report(name, raw, terms, tol, i=None, n=None, details=None) -> IdentityReport:
    normalizer = float(math.fsum(abs(t) for t in terms) + 1.0)
    residual = float(abs(raw)) / normalizer
    return IdentityReport(
        identity_name=name,
        residual=residual,
        raw_residual=float(raw),
        term_count=len(terms),
        normalizer=normalizer,
        passed=bool(residual <= tol),
        input_occ=None if i is None else tuple(i),
        output_occ=None if n is None else tuple(n),
        details=details or {},
    )


def _check_budget(i, n, budget):
    if sum(i) > budget or sum(n) > budget:
        raise BudgetExceededError(
            f"pattern totals {sum(i)}/{sum(n)} exceed the budget of {budget}"
        )


def _vacuum_report(name, cache, tol, i, n) -> IdentityReport:
    # For the all-zero pair the identity asserts unit transmission
    # instead of a vanishing sum.
    b = cache.boson(i, n)
    f = cache.fermion(i, n)
    raw = abs(b - 1.0) + abs(f - 1.0)
    return _report(name, raw, [b, f], tol, i, n)


def _lemma2_vacuum(name, cache, tol, i, n) -> IdentityReport:
    b = cache.boson(i, n)
    return _report(name, b - 1.0, [b], tol, i, n)


def _support_table(p) -> list[list[tuple[tuple, tuple]]]:
    """Per size m, the pairs (indicator, p - indicator) over the m-subsets
    of p's support, in ``itertools.combinations`` order."""
    supp = [s for s, c in enumerate(p) if c]
    table = []
    for size in range(len(supp) + 1):
        entries = []
        for sel in itertools.combinations(supp, size):
            ind = [0] * len(p)
            for s in sel:
                ind[s] = 1
            entries.append((tuple(ind), tuple(c - o for c, o in zip(p, ind))))
        table.append(entries)
    return table


def _signed_convolution(name, cache, weight, vacuum, pairs, tol) -> list[IdentityReport]:
    """Reports of the signed convolution for each (i, n) in ``pairs``.

    j and k run over the 0/1 sub-patterns of i and n with |j| = |k|; each
    term is (-1)^|j| weight(j, k) B_(n-k)^(i-j).  Theorem 1 weighs by the
    fermion probability F_k^(j), Lemma 2 by |det U[beta, alpha]|^2 of
    the same subsets.  The all-zero pair gets ``vacuum`` instead.  Each
    pattern's subset table is built once per call.
    """
    table = functools.lru_cache(maxsize=None)(_support_table)
    boson = cache.boson
    reports = []
    for i, n in pairs:
        if not any(i) and not any(n):
            reports.append(vacuum(name, cache, tol, i, n))
            continue
        ti, tn = table(i), table(n)
        terms = []
        append = terms.append
        for size in range(min(len(ti), len(tn))):
            sign = -1.0 if size % 2 else 1.0
            for j, i_red in ti[size]:
                for k, n_red in tn[size]:
                    append(sign * weight(j, k) * boson(i_red, n_red))
        reports.append(_report(name, math.fsum(terms), terms, tol, i, n))
    return reports


def _pattern_pairs(n_modes: int, max_total: int):
    """Every (input, output) pair of equal total up to ``max_total``, input major."""
    for t in range(max_total + 1):
        patterns = enumerate_occupations(n_modes, t)
        yield from itertools.product(patterns, repeat=2)


def _minor_weights(m: np.ndarray, max_size: int) -> dict[tuple, float]:
    """|det U[beta, alpha]|^2 for every pair of equal-size mode subsets up
    to ``max_size``, keyed by the indicators (alpha, beta), from one
    batched determinant call per size."""
    n_modes = m.shape[0]
    weights = {}
    for size in range(min(max_size, n_modes) + 1):
        subsets, rows, cols = _subset_pairs(n_modes, size)
        dets = determinant_many(m[subsets[rows][:, :, None], subsets[cols][:, None, :]])
        if not np.all(np.isfinite(dets)):
            raise FloatingPointError("determinant overflowed double precision")
        indicators = [tuple(int(s in sub) for s in range(n_modes)) for sub in subsets.tolist()]
        for beta, alpha, d in zip(rows.tolist(), cols.tolist(), dets.tolist()):
            weights[indicators[alpha], indicators[beta]] = abs(d) ** 2
    return weights


def _lemma2_reports(m, cache, pairs, max_size, tol) -> list[IdentityReport]:
    weights = _minor_weights(m, max_size)
    return _signed_convolution(
        "lemma2", cache, lambda j, k: weights[j, k], _lemma2_vacuum, pairs, tol
    )


def check_theorem1(
    u,
    input_occ: Sequence[int],
    output_occ: Sequence[int],
    *,
    tol: float = DEFAULT_TOLERANCE,
    cache: ProbabilityCache | None = None,
    budget: int = DEFAULT_PARTICLE_BUDGET,
) -> IdentityReport:
    """Signed convolution of fermionic and bosonic transition probabilities.

    For any unitary, summing (-1)^|j| F_k^(j) B_(n-k)^(i-j) over all
    sub-patterns vanishes exactly; the all-zero pair instead satisfies
    B = F = 1.
    """
    m = matrix_of(u)
    i, n = _pattern_pair(m, input_occ, output_occ)
    _check_budget(i, n, budget)
    if cache is None:
        cache = ProbabilityCache(m)
    return _signed_convolution(
        "theorem1", cache, cache.fermion, _vacuum_report, [(i, n)], tol
    )[0]


def check_theorem2(
    a,
    input_occ: Sequence[int],
    output_occ: Sequence[int],
    *,
    tol: float = DEFAULT_TOLERANCE,
    cache: ProbabilityCache | None = None,
    budget: int = DEFAULT_PARTICLE_BUDGET,
) -> IdentityReport:
    """The same signed convolution for an arbitrary square complex matrix.

    Terms are |det(A_{k,j})|^2 |per(A_{n-k,i-j})|^2 over the factorial
    normalizations, with non-square blocks counting as zero and negative
    occupations dropped.  Only the 0/1 (j, k) sub-patterns are evaluated:
    every skipped term carries a repeated-row determinant or a non-square
    block and is identically zero.
    """
    m = matrix_of(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError("theorem2 needs a square matrix")
    i, n = _pattern_pair(m, input_occ, output_occ)
    _check_budget(i, n, budget)
    if cache is None:
        cache = ProbabilityCache(m)
    if sum(i) != sum(n):
        # every term carries a non-square block; the identity is 0 = 0
        return _report("theorem2", 0.0, [0.0], tol, i, n)
    return _signed_convolution(
        "theorem2", cache, cache.fermion, _vacuum_report, [(i, n)], tol
    )[0]


def check_theorem2_dilation(
    a,
    input_occ: Sequence[int],
    output_occ: Sequence[int],
    *,
    tol: float = DEFAULT_TOLERANCE,
    size: int | None = None,
    budget: int = DEFAULT_PARTICLE_BUDGET,
) -> IdentityReport:
    """Cross-check of :func:`check_theorem2` through a unitary embedding.

    Embeds the scaled matrix in a unitary (top-left block), zero-pads the
    patterns onto the extra modes, and runs the unitary convolution check
    there.  The report carries the embedding scale in ``details``.
    """
    m = matrix_of(a)
    i, n = _pattern_pair(m, input_occ, output_occ)
    v, eps = unitary_dilation(m, size)
    pad = v.n - len(i)
    padded_i = tuple(i) + (0,) * pad
    padded_n = tuple(n) + (0,) * pad
    report = check_theorem1(v, padded_i, padded_n, tol=tol, budget=budget)
    report.identity_name = "theorem2-dilation"
    report.input_occ = i
    report.output_occ = n
    report.details["epsilon"] = eps
    report.details["dilation_size"] = v.n
    return report


def check_lemma2(
    u,
    input_occ: Sequence[int],
    output_occ: Sequence[int],
    *,
    tol: float = DEFAULT_TOLERANCE,
    cache: ProbabilityCache | None = None,
    budget: int = DEFAULT_PARTICLE_BUDGET,
) -> IdentityReport:
    """Minor-weighted recurrence of the bosonic transition probabilities.

    Sums (-1)^m |det U[beta, alpha]|^2 B with both patterns lowered by
    one particle on the subset modes, over all equal-size subset pairs;
    terms whose lowering would drive a count negative are dropped.
    Evaluated through a table of explicit minors rather than the fermion
    probabilities, so it stays an independent route from
    :func:`check_theorem1`.
    """
    m = matrix_of(u)
    i, n = _pattern_pair(m, input_occ, output_occ)
    _check_budget(i, n, budget)
    if cache is None:
        cache = ProbabilityCache(m)
    max_size = min(sum(c > 0 for c in i), sum(c > 0 for c in n))
    return _lemma2_reports(m, cache, [(i, n)], max_size, tol)[0]


def _subset_pair_sum(a, *, permanental_only_principal: bool):
    """Batched det/per products over subset pairs, grouped by size."""
    n = a.shape[0]
    all_idx = np.arange(n, dtype=np.intp)
    terms = []
    for size in range(n + 1):
        idx, first, second = _subset_pairs(n, size)
        comp = np.array(
            [np.setdiff1d(all_idx, row, assume_unique=True) for row in idx],
            dtype=np.intp,
        ).reshape(len(idx), n - size)
        sign = -1.0 if size % 2 else 1.0
        if permanental_only_principal:
            # principal minors: det on (alpha, alpha), per on the complement
            dets = determinant_many(a[idx[:, :, None], idx[:, None, :]])
            pers = permanent_many(a[comp[:, :, None], comp[:, None, :]])
            terms.extend((sign * dets * pers).tolist())
        else:
            rows, cols = idx[first], idx[second]
            crows, ccols = comp[first], comp[second]
            dets = np.abs(determinant_many(a[rows[:, :, None], cols[:, None, :]])) ** 2
            pers = (
                np.abs(permanent_many(a[crows[:, :, None], ccols[:, None, :]])) ** 2
            )
            terms.extend((sign * dets * pers).tolist())
    return terms


def check_corollary1(a, *, tol: float = DEFAULT_TOLERANCE) -> IdentityReport:
    """Signed sum of squared minors against squared permanental minors.

    For every pair of equal-size subsets (alpha, beta), the product
    |det A[alpha, beta]|^2 |per A[alpha^c, beta^c]|^2 enters with sign
    (-1)^|alpha|; the total vanishes for any square complex matrix.
    """
    m = matrix_of(a)
    n = m.shape[0]
    if n != m.shape[1]:
        raise DimensionMismatchError("corollary1 needs a square matrix")
    if n > COROLLARY1_SIZE_CAP:
        raise SizeLimitError(f"corollary1 capped at {COROLLARY1_SIZE_CAP}, got {n}")
    terms = _subset_pair_sum(m, permanental_only_principal=False)
    return _report("corollary1", math.fsum(terms), terms, tol)


def check_muir(a, *, tol: float = DEFAULT_TOLERANCE) -> IdentityReport:
    """Muir's recurrence between principal minors and permanental minors.

    Sums (-1)^m det(A[alpha]) per(A[alpha^c]) over all principal subsets.
    The terms are complex; the report's raw residual is the magnitude of
    the complex total.
    """
    m = matrix_of(a)
    n = m.shape[0]
    if n != m.shape[1]:
        raise DimensionMismatchError("muir needs a square matrix")
    if n > MUIR_SIZE_CAP:
        raise SizeLimitError(f"muir capped at {MUIR_SIZE_CAP}, got {n}")
    terms = _subset_pair_sum(m, permanental_only_principal=True)
    raw = complex(
        math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
    )
    return _report("muir", abs(raw), terms, tol)


def _lowered_by_total(n) -> dict[int, list[tuple[tuple, tuple]]]:
    """The pairs (k, n - k) over every sub-pattern k <= n, grouped by |k|,
    each group in pattern enumeration order."""
    groups: dict[int, list] = {}
    for k in itertools.product(*[range(c, -1, -1) for c in n]):
        groups.setdefault(sum(k), []).append((k, tuple(a - b for a, b in zip(n, k))))
    return groups


def _classical_convolution_report(cache, i, n, j, i_rest, lowered, tol) -> IdentityReport:
    # lowered: the pairs (k, n - k) over the sub-patterns k <= n with |k| = |j|
    classical = cache.classical
    terms = [classical(i, n)]
    for k, n_rest in lowered:
        terms.append(-classical(j, k) * classical(i_rest, n_rest))
    raw = math.fsum(terms)
    return _report("classical-convolution", raw, terms, tol, i, n, details={"split": j})


def check_classical_convolution(
    u,
    input_occ: Sequence[int],
    output_occ: Sequence[int],
    split: Sequence[int],
    *,
    tol: float = DEFAULT_TOLERANCE,
    cache: ProbabilityCache | None = None,
    budget: int = DEFAULT_PARTICLE_BUDGET,
) -> IdentityReport:
    """Convolution law for distinguishable particles.

    Splitting the input pattern as j + (i - j) and summing the products
    of the partial classical probabilities over all intermediate output
    patterns reproduces the full classical probability.
    """
    m = matrix_of(u)
    i, n = _pattern_pair(m, input_occ, output_occ)
    j = as_occupation(split)
    if len(j) != len(i):
        raise DimensionMismatchError("split pattern has the wrong length")
    if any(a > b for a, b in zip(j, i)):
        raise ValueError("split pattern must be componentwise at most the input")
    _check_budget(i, n, budget)
    if cache is None:
        cache = ProbabilityCache(m)
    i_rest = tuple(a - b for a, b in zip(i, j))
    lowered = _lowered_by_total(n).get(sum(j), [])
    return _classical_convolution_report(cache, i, n, j, i_rest, lowered, tol)


def check_two_particle(
    u,
    in_modes: Sequence[int],
    out_modes: Sequence[int],
    *,
    tol: float = DEFAULT_TOLERANCE,
    cache: ProbabilityCache | None = None,
) -> IdentityReport:
    """Two-particle complementarity: B + F equals twice the classical value.

    The bunching deficit of bosons relative to classical particles is
    exactly the antibunching excess of fermions.  Also cross-checks the
    explicit entry-level form of 2C built from products of squared
    moduli.
    """
    m = matrix_of(u)
    if len(in_modes) != 2 or len(out_modes) != 2:
        raise UnsupportedPatternError("two-particle check needs mode pairs")
    if in_modes[0] == in_modes[1] or out_modes[0] == out_modes[1]:
        raise UnsupportedPatternError(
            "two-particle complementarity needs one particle per chosen mode"
        )
    n_modes = m.shape[0]
    i = occupation_from_modes(in_modes, n_modes)
    n = occupation_from_modes(out_modes, n_modes)
    if cache is None:
        cache = ProbabilityCache(m)
    b = cache.boson(i, n)
    f = cache.fermion(i, n)
    c = cache.classical(i, n)
    raw = b + f - 2.0 * c
    terms = [b, f, -2.0 * c]
    # entry-level route to 2C, independent of the permanent kernel
    w = np.abs(m) ** 2
    (a1, a2), (c1, c2) = [int(s) - 1 for s in in_modes], [
        int(s) - 1 for s in out_modes
    ]
    explicit = float(2.0 * (w[c1, a1] * w[c2, a2] + w[c1, a2] * w[c2, a1]))
    explicit_raw = b + f - explicit
    explicit_residual = abs(explicit_raw) / (b + f + explicit + 1.0)
    report = _report(
        "two-particle",
        raw,
        terms,
        tol,
        i,
        n,
        details={"explicit_residual": explicit_residual},
    )
    report.passed = bool(report.passed and explicit_residual <= tol)
    return report


def check_three_particle(
    u,
    in_modes: Sequence[int],
    out_modes: Sequence[int],
    *,
    tol: float = DEFAULT_TOLERANCE,
    cache: ProbabilityCache | None = None,
) -> IdentityReport:
    """Three-particle relations on distinct mode triples.

    Verifies (a) the alternating four-block convolution vanishes, (b) the
    three-particle B - F difference equals the classically weighted sum
    of two-particle differences, and (c) the permanent's Laplace
    expansion of the classical probability for each fixed output mode.
    The report's residual is the worst of the three.
    """
    m = matrix_of(u)
    n_modes = m.shape[0]
    if n_modes < 3:
        raise DimensionTooSmallError("three-particle check needs N >= 3")
    ins = tuple(int(s) for s in in_modes)
    outs = tuple(int(s) for s in out_modes)
    if len(ins) != 3 or len(set(ins)) != 3 or len(outs) != 3 or len(set(outs)) != 3:
        raise UnsupportedPatternError("three-particle check needs distinct triples")
    if cache is None:
        cache = ProbabilityCache(m)

    def occ(modes):
        return occupation_from_modes(modes, n_modes)

    def rest(modes, drop):
        return tuple(s for s in modes if s != drop)

    i3, n3 = occ(ins), occ(outs)
    b3, f3, c3 = cache.boson(i3, n3), cache.fermion(i3, n3), cache.classical(i3, n3)

    # (a) alternating sum over 0/1/2/3-particle exchanges
    alt_terms = [b3, -f3]
    for s_in in ins:
        for s_out in outs:
            one_i, one_n = occ([s_in]), occ([s_out])
            two_i, two_n = occ(rest(ins, s_in)), occ(rest(outs, s_out))
            alt_terms.append(-cache.boson(two_i, two_n) * cache.fermion(one_i, one_n))
            alt_terms.append(cache.boson(one_i, one_n) * cache.fermion(two_i, two_n))
    alt_raw = math.fsum(alt_terms)
    alt_norm = math.fsum(abs(t) for t in alt_terms) + 1.0
    alt_residual = abs(alt_raw) / alt_norm

    # (b) B - F as the classically weighted two-particle differences
    diff_terms = [b3, -f3]
    for s_in in ins:
        for s_out in outs:
            c1 = cache.classical(occ([s_in]), occ([s_out]))
            two_i, two_n = occ(rest(ins, s_in)), occ(rest(outs, s_out))
            d2 = cache.boson(two_i, two_n) - cache.fermion(two_i, two_n)
            diff_terms.append(-c1 * d2)
    diff_raw = math.fsum(diff_terms)
    diff_norm = math.fsum(abs(t) for t in diff_terms) + 1.0
    diff_residual = abs(diff_raw) / diff_norm

    # (c) Laplace expansion of the classical probability, one output fixed
    laplace_residual = 0.0
    for s_out in outs:
        lap_terms = [c3]
        for s_in in ins:
            lap_terms.append(
                -cache.classical(occ([s_in]), occ([s_out]))
                * cache.classical(occ(rest(ins, s_in)), occ(rest(outs, s_out)))
            )
        lap_raw = math.fsum(lap_terms)
        lap_norm = math.fsum(abs(t) for t in lap_terms) + 1.0
        laplace_residual = max(laplace_residual, abs(lap_raw) / lap_norm)

    residual = max(alt_residual, diff_residual, laplace_residual)
    return IdentityReport(
        identity_name="three-particle",
        residual=residual,
        raw_residual=alt_raw,
        term_count=len(alt_terms) + len(diff_terms) + 4 * len(outs),
        normalizer=alt_norm,
        passed=residual <= tol,
        input_occ=i3,
        output_occ=n3,
        details={
            "alternating_residual": alt_residual,
            "difference_residual": diff_residual,
            "laplace_residual": laplace_residual,
        },
    )


def check_sum_difference_system(
    u,
    upto: int,
    *,
    tol: float = DEFAULT_TOLERANCE,
    cache: ProbabilityCache | None = None,
) -> list[IdentityReport]:
    """Sum/difference constraints on the leading modes, one per count.

    With S = B + F and D = B - F for one particle per leading mode:
    D vanishes for one particle, S equals twice the classical value for
    two, D obeys the classically weighted recursion for three, and S
    obeys the four-particle recursion with the fermion-pair correction.
    The one- and two-particle interferometer-dependent complements
    (S = 2|U11|^2 and the entry-level D formula) are checked alongside.
    """
    m = matrix_of(u)
    n_modes = m.shape[0]
    if not 1 <= upto <= 4:
        raise ValueError("upto must be between 1 and 4")
    if n_modes < upto:
        raise DimensionTooSmallError(
            f"sum-difference up to {upto} particles needs N >= {upto}"
        )
    if cache is None:
        cache = ProbabilityCache(m)

    def occ(modes):
        return occupation_from_modes(modes, n_modes)

    def bf(modes_in, modes_out):
        i, n = occ(modes_in), occ(modes_out)
        return cache.boson(i, n), cache.fermion(i, n)

    reports = []
    b1, f1 = bf([1], [1])
    reports.append(_report("sum-difference:D1", b1 - f1, [b1, f1], tol, occ([1]), occ([1])))
    s1_expected = 2.0 * abs(m[0, 0]) ** 2
    reports.append(
        _report(
            "sum-difference:S1-explicit",
            (b1 + f1) - s1_expected,
            [b1, f1, s1_expected],
            tol,
            occ([1]),
            occ([1]),
        )
    )
    if upto >= 2:
        modes = [1, 2]
        b2, f2 = bf(modes, modes)
        c2 = cache.classical(occ(modes), occ(modes))
        reports.append(
            _report(
                "sum-difference:S12",
                (b2 + f2) - 2.0 * c2,
                [b2, f2, 2.0 * c2],
                tol,
                occ(modes),
                occ(modes),
            )
        )
        d12_expected = 4.0 * (
            m[0, 0] * m[1, 1] * np.conj(m[0, 1]) * np.conj(m[1, 0])
        ).real
        reports.append(
            _report(
                "sum-difference:D12-explicit",
                (b2 - f2) - d12_expected,
                [b2, f2, d12_expected],
                tol,
                occ(modes),
                occ(modes),
            )
        )
    if upto >= 3:
        modes = [1, 2, 3]
        b3, f3 = bf(modes, modes)
        terms = [b3, -f3]
        for s_in in modes:
            for s_out in modes:
                c1 = cache.classical(occ([s_in]), occ([s_out]))
                rest_in = [s for s in modes if s != s_in]
                rest_out = [s for s in modes if s != s_out]
                db, df = bf(rest_in, rest_out)
                terms.append(-c1 * (db - df))
        reports.append(
            _report(
                "sum-difference:D123",
                math.fsum(terms),
                terms,
                tol,
                occ(modes),
                occ(modes),
            )
        )
    if upto >= 4:
        modes = [1, 2, 3, 4]
        b4, f4 = bf(modes, modes)
        terms = [b4, f4]
        for s_in in modes:
            for s_out in modes:
                c1 = cache.classical(occ([s_in]), occ([s_out]))
                rest_in = [s for s in modes if s != s_in]
                rest_out = [s for s in modes if s != s_out]
                sb, sf = bf(rest_in, rest_out)
                terms.append(-c1 * (sb + sf))
        for pair_in in itertools.combinations(modes, 2):
            for pair_out in itertools.combinations(modes, 2):
                rest_in = [s for s in modes if s not in pair_in]
                rest_out = [s for s in modes if s not in pair_out]
                bb = cache.boson(occ(rest_in), occ(rest_out))
                ff = cache.fermion(occ(pair_in), occ(pair_out))
                terms.append(bb * ff)
        reports.append(
            _report(
                "sum-difference:S1234",
                math.fsum(terms),
                terms,
                tol,
                occ(modes),
                occ(modes),
            )
        )
    return reports


def check_single_mode_bunching(
    u,
    n_particles: int,
    mode: int,
    *,
    tol: float = DEFAULT_TOLERANCE,
    budget: int = DEFAULT_PARTICLE_BUDGET,
    cache: ProbabilityCache | None = None,
) -> IdentityReport:
    """Bosons confined to a single mode behave classically.

    Sending n particles into one mode and collecting all n from one mode
    gives the single-particle probability raised to the n-th power.  For
    n = 2 the split-output multinomial instance (both particles in, one
    kept and one moved to a neighbor mode) is checked as well.
    """
    m = matrix_of(u)
    n_modes = m.shape[0]
    if not 1 <= mode <= n_modes:
        raise ValueError(f"mode {mode} outside [1..{n_modes}]")
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    if n_particles > budget:
        raise BudgetExceededError(
            f"{n_particles} particles exceed the budget of {budget}"
        )
    if cache is None:
        cache = ProbabilityCache(m)
    i = tuple(n_particles if s == mode - 1 else 0 for s in range(n_modes))
    b = cache.boson(i, i)
    expected = float(abs(m[mode - 1, mode - 1]) ** (2 * n_particles))
    raw = b - expected
    details = {}
    passed_extra = True
    if n_particles == 2 and n_modes >= 2:
        other = 1 if mode != 1 else 2
        out = tuple(
            1 if s in (mode - 1, other - 1) else 0 for s in range(n_modes)
        )
        mixed = cache.boson(i, out)
        mixed_expected = float(
            2.0 * abs(m[mode - 1, mode - 1]) ** 2 * abs(m[other - 1, mode - 1]) ** 2
        )
        mixed_residual = abs(mixed - mixed_expected) / (
            mixed + mixed_expected + 1.0
        )
        details["mixed_residual"] = mixed_residual
        passed_extra = mixed_residual <= tol
    report = _report(
        "single-mode-bunching", raw, [b, expected], tol, i, i, details=details
    )
    report.passed = bool(report.passed and passed_extra)
    return report


def classify_transition(
    u,
    input_occ: Sequence[int],
    output_occ: Sequence[int],
    *,
    tie_eps: float = DEFAULT_TIE_EPS,
    cache: ProbabilityCache | None = None,
) -> NaturalnessLabel:
    """Order the three statistics of a two-particle, one-per-mode transition.

    Natural when B < C < F beyond the tie width, antinatural when the
    ordering is reversed, boundary otherwise.  Other pattern shapes are
    rejected: the classification is defined only for this case.
    """
    m = matrix_of(u)
    i, n = _pattern_pair(m, input_occ, output_occ)
    for occ in (i, n):
        if sum(occ) != 2 or any(c > 1 for c in occ):
            raise UnsupportedPatternError(
                "classification needs two particles, one per mode, on both sides"
            )
    if cache is None:
        cache = ProbabilityCache(m)
    b = cache.boson(i, n)
    f = cache.fermion(i, n)
    c = cache.classical(i, n)
    if b < c - tie_eps and c < f - tie_eps:
        label = Naturalness.NATURAL
    elif b > c + tie_eps and c > f + tie_eps:
        label = Naturalness.ANTINATURAL
    else:
        label = Naturalness.BOUNDARY
    return NaturalnessLabel(label=label, difference=b - f)


def sweep_signed_convolution(
    matrix,
    max_total: int,
    *,
    tol: float = DEFAULT_TOLERANCE,
    name: str = "theorem1",
) -> list[IdentityReport]:
    """Run the signed-convolution check over every pattern pair at once.

    Shares one probability cache and the per-pattern subset tables
    across the whole sweep, which keeps the full-budget sweeps of the
    acceptance suite within their runtime caps.  Reports come out in
    pattern enumeration order and match :func:`check_theorem1` /
    :func:`check_theorem2` term for term.
    """
    m = matrix_of(matrix)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError("sweep needs a square matrix")
    cache = ProbabilityCache(m)
    pairs = _pattern_pairs(m.shape[0], max_total)
    return _signed_convolution(name, cache, cache.fermion, _vacuum_report, pairs, tol)


def sweep_lemma2(
    u,
    max_total: int,
    *,
    tol: float = DEFAULT_TOLERANCE,
) -> list[IdentityReport]:
    """Run :func:`check_lemma2` over every pattern pair within budget.

    One cache, one minor table and the per-pattern subset tables serve
    the whole sweep.
    """
    m = matrix_of(u)
    cache = ProbabilityCache(m)
    pairs = _pattern_pairs(m.shape[0], max_total)
    return _lemma2_reports(m, cache, pairs, max_total, tol)


def sweep_classical_convolution(
    u, max_total: int, *, tol: float = DEFAULT_TOLERANCE
) -> list[IdentityReport]:
    """Run :func:`check_classical_convolution` over every pattern pair
    within budget and every split j <= i of the input.

    Reports come out pair by pair in the order of the other sweeps, the
    splits of a pair in ``itertools.product`` order.  One cache serves
    the sweep; each total's sub-pattern tables and input splits are
    built once.
    """
    m = matrix_of(u)
    cache = ProbabilityCache(m)
    reports = []
    for t in range(max_total + 1):
        patterns = enumerate_occupations(m.shape[0], t)
        lowered = {n: _lowered_by_total(n) for n in patterns}
        for i in patterns:
            splits = [
                (j, tuple(a - b for a, b in zip(i, j)))
                for j in itertools.product(*[range(c + 1) for c in i])
            ]
            for n in patterns:
                by_total = lowered[n]
                for j, i_rest in splits:
                    reports.append(
                        _classical_convolution_report(
                            cache, i, n, j, i_rest, by_total[sum(j)], tol
                        )
                    )
    return reports
