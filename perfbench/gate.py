"""Correctness gate applied to every benchmark job, outside the timed region.

Each check takes what the program returned and the job that produced it,
and returns a list of problems (empty when the output is correct) plus a
few totals the traced run reports.  Expected values come from closed forms
and brute-force references written here, never from the program itself.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

RESIDUAL_TOL = 1e-10
GF_TOL = 1e-10
PERMANENT_REL_TOL = 1e-8
GLYNN_CHUNK = 4096  # sign vectors per vectorized Glynn step

# Identity suites of `verify --suite all`, in the order the CLI emits them.
ALL_SUITES = (
    "lemma2",
    "theorem1",
    "theorem2",
    "corollary1",
    "muir",
    "classical-convolution",
    "two-particle",
    "three-particle",
    "sum-difference",
    "single-mode-bunching",
)


def expected_record_counts(suites, n_modes: int, budget: int) -> list[tuple[str, int]]:
    """Closed-form number of report records per suite, in emission order.

    Pattern pairs with equal totals t <= budget number
    sum_t C(t+N-1, N-1)^2.  The classical convolution has one record per
    (input i, output n, split j <= i); summing prod(i_s + 1) over inputs of
    total t counts pairs of N-vectors with total t, C(t+2N-1, 2N-1).
    """
    n = n_modes
    per_total = [math.comb(t + n - 1, n - 1) for t in range(budget + 1)]
    pairs = sum(c * c for c in per_total)
    splits = sum(
        per_total[t] * math.comb(t + 2 * n - 1, 2 * n - 1) for t in range(budget + 1)
    )
    upto = min(n, 4)
    table = {
        "lemma2": pairs,
        "theorem1": pairs,
        "theorem2": pairs,
        "corollary1": 1,
        "muir": 1,
        "classical-convolution": splits,
        "two-particle": math.comb(n, 2) ** 2,
        "three-particle": math.comb(n, 3) ** 2,
        "sum-difference": 2 + 2 * (upto >= 2) + (upto >= 3) + (upto >= 4),
        "single-mode-bunching": min(budget, 4) * n,
    }
    return [(s, table[s]) for s in suites if table[s]]


def check_verify(rc: int, out: str, err: str, suites, n_modes: int, budget: int):
    """Gate for one `verify` invocation: exit code, record count, pass flags."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    records = []
    for line_no, line in enumerate(out.splitlines(), 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            problems.append(f"line {line_no} is not JSON")
    suite_of = (r.get("identity", "").split(":")[0] for r in records)
    groups = [(name, len(list(run))) for name, run in itertools.groupby(suite_of)]
    expected = expected_record_counts(suites, n_modes, budget)
    if groups != expected:
        problems.append(f"record counts {groups} != expected {expected}")
    worst = 0.0
    terms = 0
    for r in records:
        residual = r.get("residual")
        if r.get("passed") is not True:
            problems.append(f"record not passed: {r.get('identity')} {r.get('input')} {r.get('output')}")
        if not isinstance(residual, (int, float)) or not residual <= RESIDUAL_TOL:
            problems.append(f"residual {residual!r} above {RESIDUAL_TOL}")
        else:
            worst = max(worst, float(residual))
        if r.get("n_modes") != n_modes:
            problems.append(f"n_modes {r.get('n_modes')!r} != {n_modes}")
        terms += int(r.get("term_count", 0))
    summary = f"{sum(c for _, c in expected)} checks, 0 failed"
    if err.strip().splitlines()[-1:] != [summary]:
        problems.append(f"stderr summary {err.strip()!r} != {summary!r}")
    stats = {"reports": len(records), "terms": terms, "worst_residual": worst}
    return problems[:5], stats


def check_gf(rc: int, out: str, err: str, cutoff: int):
    """Gate for one `gf` invocation: the closed form, minor expansion and
    truncated series must agree."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    lines = out.splitlines()
    if len(lines) != 1:
        return [f"expected one record, got {len(lines)} lines"], {}
    try:
        rec = json.loads(lines[0])
        closed = float(rec["closed_form"])
        minor = float(rec["minor_expansion"])
        series = float(rec["truncated_series"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed gf record: {exc}"], {}
    if not abs(closed - minor) <= GF_TOL:
        problems.append(f"closed {closed!r} and minor {minor!r} differ")
    if not 0.0 < series <= closed + GF_TOL:
        problems.append(f"series {series!r} outside (0, closed {closed!r}]")
    if rec.get("cutoff") != cutoff:
        problems.append(f"cutoff {rec.get('cutoff')!r} != {cutoff}")
    return problems, {}


def brute_permanent(a: np.ndarray) -> complex:
    """Permutation-sum permanent, for small matrices."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    return complex(np.prod(a[np.arange(n), perms], axis=1).sum())


def glynn_permanent(a: np.ndarray) -> complex:
    """Permanent by Glynn's formula (Glynn 2010), vectorized over chunks of
    sign vectors: per(A) = 2^(1-n) sum_d (prod_k d_k) prod_j (d @ A)_j over
    d in {+1, -1}^n with d_1 = +1.  A different formula and summation order
    from the package's Gray-code Ryser kernel, so the two agree only when
    both are right."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    count = 1 << (n - 1)
    bits = np.arange(n - 1)
    partial = []
    for lo in range(0, count, GLYNN_CHUNK):
        k = np.arange(lo, min(lo + GLYNN_CHUNK, count))
        signs = np.ones((len(k), n))
        signs[:, 1:] = 1 - 2 * ((k[:, None] >> bits) & 1)
        partial.append((np.prod(signs, axis=1) * np.prod(signs @ a, axis=1)).sum())
    total = complex(math.fsum(p.real for p in partial), math.fsum(p.imag for p in partial))
    return total / count


def occupation_reference(a, row_occ, col_occ) -> complex:
    """Brute-force permanent of `a` with rows and columns repeated by
    occupation; 0 when the totals differ or are zero."""
    rows = np.repeat(np.arange(len(row_occ)), row_occ)
    cols = np.repeat(np.arange(len(col_occ)), col_occ)
    if len(rows) != len(cols) or len(rows) == 0:
        return 0j
    return brute_permanent(np.asarray(a)[np.ix_(rows, cols)])


def permanent_rel_err(value: complex, reference: complex) -> float:
    return abs(complex(value) - reference) / abs(reference)


def check_permanent(result, reference: complex):
    """Gate for one `permanent` call against its Glynn reference."""
    problems = []
    if getattr(result, "shape_convention_applied", True):
        problems.append("shape convention applied to a square matrix")
    err = permanent_rel_err(result.value, reference)
    if not err <= PERMANENT_REL_TOL:
        problems.append(f"relative error {err:.3e} above {PERMANENT_REL_TOL}")
    return problems, {"rel_err": err}


def check_samples(samples):
    """Gate for the sampled occupation_permanent values of one traced job:
    each must match the brute-force reference to PERMANENT_REL_TOL.  A zero
    reference (unequal or zero totals, a shape convention) is skipped.
    Returns (problems, worst relative error)."""
    problems, worst = [], 0.0
    for a, rows, cols, value in samples:
        ref = occupation_reference(a, rows, cols)
        if ref == 0:
            continue
        err = permanent_rel_err(value, ref)
        worst = max(worst, err)
        if not err <= PERMANENT_REL_TOL:
            problems.append(f"occupation_permanent{rows, cols} relative error {err:.3e}")
    return problems, worst
