import itertools
import math

import numpy as np
import pytest

from interfere.combinat import enumerate_occupations
from interfere.errors import (
    BudgetExceededError,
    DimensionTooSmallError,
    SizeLimitError,
    UnsupportedPatternError,
)
from interfere.identities import (
    Naturalness,
    check_classical_convolution,
    check_corollary1,
    check_lemma2,
    check_muir,
    check_single_mode_bunching,
    check_sum_difference_system,
    check_theorem1,
    check_theorem2,
    check_theorem2_dilation,
    check_three_particle,
    check_two_particle,
    classify_transition,
    sweep_classical_convolution,
    sweep_lemma2,
    sweep_signed_convolution,
)
from interfere.matrixcore import (
    balanced_beamsplitter,
    fourier_matrix,
    haar_random_unitary,
    permutation_matrix,
)
from interfere.transition import (
    ProbabilityCache,
    boson_prob,
    classical_prob,
    fermion_prob,
)

from helpers import naive_determinant, naive_permanent, random_disk_matrix, random_pattern

BS = balanced_beamsplitter()
F3 = fourier_matrix(3)
TOL = 1e-10


# ---------------------------------------------------------------------------
# lemma2 / theorem1: the signed convolution


def test_lemma2_vacuum():
    report = check_lemma2(BS, (0, 0), (0, 0))
    assert report.passed
    assert report.term_count == 1
    assert report.raw_residual == 0.0


def test_lemma2_hong_ou_mandel():
    report = check_lemma2(BS, (1, 1), (1, 1))
    assert report.residual <= 1e-12
    assert report.term_count == 6


def test_lemma2_haar_pattern():
    u = haar_random_unitary(4, 91)
    report = check_lemma2(u, (1, 1, 1, 0), (0, 1, 1, 1))
    assert report.residual <= 1e-10


def test_theorem1_single_particle_is_exact():
    u = haar_random_unitary(3, 5)
    report = check_theorem1(u, (1, 0, 0), (0, 0, 1))
    assert report.term_count == 2
    assert report.raw_residual == 0.0


def test_theorem1_hong_ou_mandel_six_terms():
    report = check_theorem1(BS, (1, 1), (1, 1))
    assert report.term_count == 6
    assert report.residual <= 1e-12
    # 0 - (1/4 + 1/4 + 1/4 + 1/4) + 1 = 0
    assert report.normalizer == pytest.approx(3.0, abs=1e-12)


def test_theorem1_fourier_three_particles():
    report = check_theorem1(F3, (1, 1, 1), (1, 1, 1))
    assert report.residual <= 1e-12


def test_theorem1_vacuum():
    report = check_theorem1(F3, (0, 0, 0), (0, 0, 0))
    assert report.passed and report.raw_residual == 0.0


def test_theorem1_budget_gate():
    with pytest.raises(BudgetExceededError):
        check_theorem1(BS, (9, 0), (9, 0))


def test_theorem1_matches_lemma2_term_for_term():
    # the two formulations evaluate the same sum through different code
    u = haar_random_unitary(3, 33)
    rng = np.random.default_rng(2)
    for _ in range(10):
        t = int(rng.integers(1, 4))
        i = random_pattern(rng, 3, t)
        n = random_pattern(rng, 3, t)
        r1 = check_theorem1(u, i, n)
        r2 = check_lemma2(u, i, n)
        assert r1.term_count == r2.term_count
        assert abs(r1.raw_residual - r2.raw_residual) <= 1e-14


def test_theorem1_randomized_sweep_small():
    for n_modes, seed in ((2, 0), (3, 1), (4, 2)):
        u = haar_random_unitary(n_modes, seed)
        reports = sweep_signed_convolution(u, 3)
        assert all(r.passed for r in reports)
        assert max(r.residual for r in reports) <= TOL


def test_sweep_matches_single_checks():
    u = haar_random_unitary(3, 77)
    for sweep, check in ((sweep_signed_convolution, check_theorem1), (sweep_lemma2, check_lemma2)):
        reports = {(r.input_occ, r.output_occ): r for r in sweep(u, 2)}
        rng = np.random.default_rng(0)
        for _ in range(8):
            t = int(rng.integers(0, 3))
            i = random_pattern(rng, 3, t)
            n = random_pattern(rng, 3, t)
            single = check(u, i, n)
            swept = reports[(i, n)]
            assert single.raw_residual == swept.raw_residual
            assert single.term_count == swept.term_count


def test_lemma2_never_reads_the_fermion_cache(monkeypatch):
    # lemma2 weighs by its own minor table, so it stays independent of theorem1
    def refuse(self, i, n):
        raise AssertionError("lemma2 read a fermion probability")

    monkeypatch.setattr(ProbabilityCache, "fermion", refuse)
    u = haar_random_unitary(3, 4)
    assert all(r.passed for r in sweep_lemma2(u, 3))
    for i, n in (((0, 0, 0), (0, 0, 0)), ((1, 1, 0), (0, 1, 1)), ((2, 1, 0), (1, 1, 1))):
        assert check_lemma2(u, i, n).passed


def test_theorem1_swap_symmetry():
    # replacing F B with B F term-by-term leaves the (vanishing) sum intact
    u = haar_random_unitary(4, 51)
    cache = ProbabilityCache(u)
    from interfere.combinat import bounded_subvectors

    def swapped_sum(i, n):
        terms = []
        for j in bounded_subvectors(i):
            for k in bounded_subvectors(n):
                if sum(j) != sum(k):
                    continue
                i_red = tuple(a - b for a, b in zip(i, j))
                n_red = tuple(a - b for a, b in zip(n, k))
                sign = -1.0 if sum(j) % 2 else 1.0
                terms.append(sign * cache.boson(j, k) * cache.fermion(i_red, n_red))
        return math.fsum(terms)

    for i, n in (((1, 1, 0, 0), (0, 0, 1, 1)), ((1, 1, 1, 0), (1, 0, 1, 1))):
        direct = check_theorem1(u, i, n, cache=cache).raw_residual
        assert abs(direct - swapped_sum(i, n)) <= 1e-12


# ---------------------------------------------------------------------------
# theorem2 and the dilation route


def test_theorem2_zero_matrix():
    report = check_theorem2(np.zeros((2, 2)), (1, 1), (1, 1))
    assert report.passed
    assert report.raw_residual == 0.0


def test_theorem2_identity_cancellation():
    report = check_theorem2(np.eye(2), (1, 1), (1, 1))
    assert report.residual <= 1e-15
    # 1 - 2 + 1 = 0 over the surviving blocks; |terms| sum to 4
    assert report.normalizer == pytest.approx(5.0, abs=1e-12)


def test_theorem2_random_collision_free():
    rng = np.random.default_rng(8)
    a = random_disk_matrix(rng, 4)
    report = check_theorem2(a, (1, 1, 1, 1), (1, 1, 1, 1))
    assert report.residual <= TOL


def test_theorem2_multi_occupancy_patterns():
    rng = np.random.default_rng(18)
    a = random_disk_matrix(rng, 3)
    for i, n in (((2, 1, 0), (1, 1, 1)), ((3, 0, 0), (1, 1, 1)), ((2, 0, 2), (0, 2, 2))):
        report = check_theorem2(a, i, n)
        assert report.residual <= TOL, (i, n, report.residual)


def test_theorem2_brute_force_cross_check():
    # reproduce the convolution with the permutation-sum kernels only
    rng = np.random.default_rng(28)
    a = random_disk_matrix(rng, 3)
    i, n = (1, 1, 1), (1, 1, 1)
    import itertools

    total = 0.0
    for j in itertools.product((0, 1), repeat=3):
        for k in itertools.product((0, 1), repeat=3):
            if sum(j) != sum(k):
                continue
            if any(jj > ii for jj, ii in zip(j, i)):
                continue
            if any(kk > nn for kk, nn in zip(k, n)):
                continue
            rows = [s for s, c in enumerate(k) if c]
            cols = [s for s, c in enumerate(j) if c]
            det = naive_determinant(a[np.ix_(rows, cols)]) if rows else 1.0
            rrows = [s for s, c in enumerate(n) for _ in range(c - k[s])]
            rcols = [s for s, c in enumerate(i) for _ in range(c - j[s])]
            per = naive_permanent(a[np.ix_(rrows, rcols)]) if rrows else 1.0
            total += (-1) ** sum(j) * abs(det) ** 2 * abs(per) ** 2
    report = check_theorem2(a, i, n)
    assert abs(total - report.raw_residual) <= 1e-12


def test_theorem2_dilation_agreement():
    rng = np.random.default_rng(38)
    for _ in range(5):
        a = random_disk_matrix(rng, 3)
        direct = check_theorem2(a, (1, 1, 1), (1, 0, 2))
        embedded = check_theorem2_dilation(a, (1, 1, 1), (1, 0, 2))
        assert direct.passed and embedded.passed
        assert embedded.details["dilation_size"] == 6
        assert 0.0 < embedded.details["epsilon"] <= 1.0


# ---------------------------------------------------------------------------
# corollary1 and muir


def test_corollary1_scalar_two_term_cancellation():
    report = check_corollary1(np.array([[2.0 + 1.0j]]))
    assert report.raw_residual == 0.0
    assert report.term_count == 2


def test_corollary1_identity():
    report = check_corollary1(np.eye(3))
    assert report.residual <= 1e-15


def test_corollary1_random():
    rng = np.random.default_rng(48)
    report = check_corollary1(random_disk_matrix(rng, 5))
    assert report.residual <= TOL


def test_corollary1_size_cap():
    with pytest.raises(SizeLimitError):
        check_corollary1(np.eye(9))


def test_muir_scalar_and_2x2():
    report = check_muir(np.array([[1.7 - 0.3j]]))
    assert report.raw_residual == 0.0
    a, b, c, d = 1.3, -0.2 + 1j, 0.8j, 2.0 - 1j
    report = check_muir(np.array([[a, b], [c, d]]))
    assert report.residual <= 1e-15


def test_muir_random():
    rng = np.random.default_rng(58)
    report = check_muir(random_disk_matrix(rng, 6))
    assert report.residual <= TOL


def test_muir_size_cap():
    with pytest.raises(SizeLimitError):
        check_muir(np.eye(11))


# ---------------------------------------------------------------------------
# classical convolution


def test_classical_convolution_degenerate_splits():
    u = haar_random_unitary(3, 14)
    i, n = (1, 1, 1), (0, 2, 1)
    zero = check_classical_convolution(u, i, n, (0, 0, 0))
    assert zero.raw_residual == 0.0
    full = check_classical_convolution(u, i, n, i)
    assert full.raw_residual == 0.0


def test_classical_convolution_hom_split():
    report = check_classical_convolution(BS, (1, 1), (1, 1), (1, 0))
    # 1/2 == 1/2*1/2 + 1/2*1/2
    assert report.residual <= 1e-15


def test_classical_convolution_multi_occupancy():
    u = haar_random_unitary(3, 24)
    rng = np.random.default_rng(4)
    for _ in range(10):
        t = int(rng.integers(1, 5))
        i = random_pattern(rng, 3, t)
        n = random_pattern(rng, 3, t)
        split = tuple(int(rng.integers(0, c + 1)) for c in i)
        report = check_classical_convolution(u, i, n, split)
        assert report.residual <= TOL, (i, n, split)


def test_classical_convolution_rejects_oversized_split():
    with pytest.raises(ValueError):
        check_classical_convolution(BS, (1, 0), (1, 0), (2, 0))


def test_classical_sweep_matches_single_checks():
    u = haar_random_unitary(3, 8)
    swept = sweep_classical_convolution(u, 2)
    singles = [
        check_classical_convolution(u, i, n, split)
        for t in range(3)
        for i in enumerate_occupations(3, t)
        for n in enumerate_occupations(3, t)
        for split in itertools.product(*[range(c + 1) for c in i])
    ]
    assert len(swept) == len(singles)
    for a, b in zip(swept, singles):
        assert (a.input_occ, a.output_occ, a.details) == (b.input_occ, b.output_occ, b.details)
        assert (a.raw_residual, a.term_count, a.normalizer) == (b.raw_residual, b.term_count, b.normalizer)
        assert a.passed and b.passed


# ---------------------------------------------------------------------------
# few-particle physical relations


def test_two_particle_hom():
    report = check_two_particle(BS, (1, 2), (1, 2))
    assert report.residual <= 1e-12
    assert report.details["explicit_residual"] <= 1e-12


def test_two_particle_fourier_values():
    report = check_two_particle(F3, (1, 2), (1, 2))
    assert report.residual <= 1e-12
    b = boson_prob(F3, (1, 1, 0), (1, 1, 0))
    f = fermion_prob(F3, (1, 1, 0), (1, 1, 0))
    c = classical_prob(F3, (1, 1, 0), (1, 1, 0))
    assert b == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert f == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert c == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_two_particle_haar_pairs():
    u = haar_random_unitary(5, 71)
    rng = np.random.default_rng(6)
    for _ in range(12):
        a, b = sorted(rng.choice(5, size=2, replace=False) + 1)
        c, d = sorted(rng.choice(5, size=2, replace=False) + 1)
        report = check_two_particle(u, (a, b), (c, d))
        assert abs(report.raw_residual) <= 1e-12


def test_two_particle_bunching_excess_equals_antibunching_excess():
    u = haar_random_unitary(4, 81)
    cache = ProbabilityCache(u)
    for pair_in, pair_out in (((1, 2), (3, 4)), ((2, 4), (1, 3))):
        report = check_two_particle(u, pair_in, pair_out, cache=cache)
        from interfere.combinat import occupation_from_modes

        i = occupation_from_modes(pair_in, 4)
        n = occupation_from_modes(pair_out, 4)
        bunching = cache.classical(i, n) - cache.boson(i, n)
        antibunching = cache.fermion(i, n) - cache.classical(i, n)
        assert abs((bunching - antibunching) + report.raw_residual) <= 1e-15


def test_two_particle_rejects_repeated_mode_within_a_side():
    with pytest.raises(UnsupportedPatternError):
        check_two_particle(BS, (1, 1), (1, 2))


def test_three_particle_fourier():
    report = check_three_particle(F3, (1, 2, 3), (1, 2, 3))
    assert report.residual <= 1e-12
    # B - F = 1/3 - 1 = -2/3, reproduced by the weighted two-particle sum
    b = boson_prob(F3, (1, 1, 1), (1, 1, 1))
    f = fermion_prob(F3, (1, 1, 1), (1, 1, 1))
    assert b - f == pytest.approx(-2.0 / 3.0, abs=1e-12)


def test_three_particle_permutation_matrix():
    u = permutation_matrix([3, 1, 2])
    report = check_three_particle(u, (1, 2, 3), (1, 2, 3))
    assert report.residual <= 1e-15


def test_three_particle_haar():
    u = haar_random_unitary(4, 61)
    report = check_three_particle(u, (1, 2, 3), (2, 3, 4))
    assert report.residual <= TOL
    assert set(report.details) == {
        "alternating_residual",
        "difference_residual",
        "laplace_residual",
    }


def test_three_particle_input_validation():
    with pytest.raises(DimensionTooSmallError):
        check_three_particle(BS, (1, 2, 2), (1, 2, 2))
    with pytest.raises(UnsupportedPatternError):
        check_three_particle(F3, (1, 2, 2), (1, 2, 3))


# ---------------------------------------------------------------------------
# sum/difference system and single-mode bunching


def test_sum_difference_single_particle_exact():
    u = haar_random_unitary(4, 3)
    reports = check_sum_difference_system(u, 1)
    by_name = {r.identity_name: r for r in reports}
    assert by_name["sum-difference:D1"].raw_residual == 0.0
    assert by_name["sum-difference:S1-explicit"].residual <= 1e-15


def test_sum_difference_beamsplitter_d12():
    reports = check_sum_difference_system(BS, 2)
    by_name = {r.identity_name: r for r in reports}
    d12 = by_name["sum-difference:D12-explicit"]
    assert d12.residual <= 1e-12
    # D = B - F = 0 - 1 = -1 equals the entry formula
    b = boson_prob(BS, (1, 1), (1, 1))
    f = fermion_prob(BS, (1, 1), (1, 1))
    assert b - f == pytest.approx(-1.0, abs=1e-12)
    m = BS.matrix
    entry_form = 4.0 * (m[0, 0] * m[1, 1] * np.conj(m[0, 1]) * np.conj(m[1, 0])).real
    assert entry_form == pytest.approx(-1.0, abs=1e-12)


def test_sum_difference_haar_full_system():
    for seed in (11, 12, 13):
        u = haar_random_unitary(4, seed)
        reports = check_sum_difference_system(u, 4)
        assert len(reports) == 6
        assert all(r.residual <= TOL for r in reports), [
            (r.identity_name, r.residual) for r in reports
        ]


def test_sum_difference_gates():
    with pytest.raises(DimensionTooSmallError):
        check_sum_difference_system(BS, 3)
    with pytest.raises(ValueError):
        check_sum_difference_system(BS, 5)


def test_single_mode_bunching_trivial():
    u = haar_random_unitary(3, 9)
    report = check_single_mode_bunching(u, 1, 2)
    assert report.raw_residual == 0.0


def test_single_mode_bunching_beamsplitter_pair():
    report = check_single_mode_bunching(BS, 2, 1)
    assert report.passed
    assert boson_prob(BS, (2, 0), (2, 0)) == pytest.approx(0.25, abs=1e-12)
    assert report.details["mixed_residual"] <= 1e-12


def test_single_mode_bunching_haar():
    u = haar_random_unitary(3, 19)
    for n in (2, 3):
        for mode in (1, 2, 3):
            report = check_single_mode_bunching(u, n, mode)
            assert report.residual <= TOL


def test_single_mode_bunching_budget():
    with pytest.raises(BudgetExceededError):
        check_single_mode_bunching(BS, 9, 1)


# ---------------------------------------------------------------------------
# naturalness classification


def test_classify_hom_is_natural():
    label = classify_transition(BS, (1, 1), (1, 1))
    assert label.label is Naturalness.NATURAL
    assert label.difference == pytest.approx(-1.0, abs=1e-12)


def test_classify_fourier_is_natural():
    label = classify_transition(F3, (1, 1, 0), (1, 1, 0))
    assert label.label is Naturalness.NATURAL
    assert label.difference == pytest.approx(-2.0 / 9.0, abs=1e-12)


def test_classify_permutation_is_boundary():
    u = permutation_matrix([1, 2])
    label = classify_transition(u, (1, 1), (1, 1))
    assert label.label is Naturalness.BOUNDARY


def test_classify_depends_only_on_ordering():
    # same orderings on scaled matrices produce the same label
    u = haar_random_unitary(3, 123)
    label = classify_transition(u, (1, 1, 0), (0, 1, 1))
    b = boson_prob(u, (1, 1, 0), (0, 1, 1))
    c = classical_prob(u, (1, 1, 0), (0, 1, 1))
    f = fermion_prob(u, (1, 1, 0), (0, 1, 1))
    if b < c < f:
        assert label.label is Naturalness.NATURAL
    elif b > c > f:
        assert label.label is Naturalness.ANTINATURAL
    else:
        assert label.label is Naturalness.BOUNDARY


def test_classify_rejects_other_shapes():
    with pytest.raises(UnsupportedPatternError):
        classify_transition(F3, (1, 1, 1), (1, 1, 1))
    with pytest.raises(UnsupportedPatternError):
        classify_transition(BS, (2, 0), (1, 1))


# ---------------------------------------------------------------------------
# full-budget sweeps at reduced scale


def test_lemma2_sweep():
    u = haar_random_unitary(3, 2)
    reports = sweep_lemma2(u, 2)
    assert all(r.passed for r in reports)
    assert len(reports) == 1 + 9 + 36
