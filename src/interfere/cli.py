"""Command-line front end.

Subcommands: compute (one transition triple), verify (identity suites),
scan (mode-pair sweeps with naturalness labels), gf (generating-function
evaluations), embed (unitary-embedding cross-check).  Output is
newline-delimited JSON or CSV with numbers rendered to 15 significant
digits, so identical invocations produce byte-identical reports.

Exit codes: 0 all checks passed, 1 an identity check failed, 2 malformed
input, 3 a budget or size cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import identities
from .combinat import enumerate_subsets, occupation_from_modes
from .errors import (
    BudgetExceededError,
    InterferenceError,
    SizeLimitError,
)
from .genfunc import gf_closed_form, gf_minor_expansion, gf_truncated_series
from .identities import (
    IdentityReport,
    check_corollary1,
    check_muir,
    check_single_mode_bunching,
    check_sum_difference_system,
    check_theorem2_dilation,
    check_three_particle,
    check_two_particle,
    classify_transition,
    sweep_classical_convolution,
    sweep_lemma2,
    sweep_signed_convolution,
)
from .matrixcore import (
    UnitaryMatrix,
    balanced_beamsplitter,
    fourier_matrix,
    haar_random_unitary,
    load_matrix,
    permutation_matrix,
    validate_unitary,
)
from .transition import ProbabilityCache, transition_triple

SUITE_ORDER = (
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
MAX_MODES = 10
PROBABILITY_SLACK = 1e-9


class CliInputError(Exception):
    """Malformed command-line input; carries the offending flag."""

    def __init__(self, flag: str, message: str):
        super().__init__(f"{flag}: {message}")
        self.flag = flag


@dataclass
class ScenarioConfig:
    matrix_source: str
    particle_budget: int
    tolerance: float
    output_format: str
    unitary_tol: float


def _fmt(value: float) -> str:
    return format(float(value), ".15g")


def _round15(value: float) -> float:
    return float(_fmt(value))


def _render_probability(value: float) -> tuple[float, bool]:
    """Clamp to [0, 1] within slack; report an anomaly beyond it."""
    v = float(value)
    if -PROBABILITY_SLACK <= v <= 1.0 + PROBABILITY_SLACK:
        return min(max(v, 0.0), 1.0), False
    return v, True


def _parse_occupation(text: str, flag: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliInputError(flag, f"invalid occupation list {text!r}") from exc
    if any(c < 0 for c in counts):
        raise CliInputError(flag, f"occupation counts must be non-negative: {text!r}")
    return counts


def _parse_duals(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise CliInputError(flag, f"invalid real list {text!r}") from exc
    for v in values:
        if not 0.0 <= v < 1.0:
            raise CliInputError(flag, f"dual variables must lie in [0, 1), got {v}")
    return values


def _build_matrix(source: str) -> np.ndarray:
    """Resolve a matrix source token to a raw (unvalidated) matrix."""
    if source == "beamsplitter":
        return balanced_beamsplitter().matrix
    if source.startswith("fourier:"):
        try:
            n = int(source.split(":", 1)[1])
        except ValueError as exc:
            raise CliInputError("--matrix", f"bad fourier spec {source!r}") from exc
        if n < 1:
            raise CliInputError("--matrix", "fourier size must be >= 1")
        return fourier_matrix(n).matrix
    if source.startswith("permutation:"):
        try:
            targets = [int(p) for p in source.split(":", 1)[1].split(",")]
        except ValueError as exc:
            raise CliInputError("--matrix", f"bad permutation spec {source!r}") from exc
        try:
            return permutation_matrix(targets).matrix
        except ValueError as exc:
            raise CliInputError("--matrix", str(exc)) from exc
    if source.startswith("haar:"):
        parts = source.split(":")
        if len(parts) != 3:
            raise CliInputError("--matrix", f"expected haar:N:SEED, got {source!r}")
        try:
            n, seed = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise CliInputError("--matrix", f"expected haar:N:SEED, got {source!r}") from exc
        if n < 1:
            raise CliInputError("--matrix", "haar size must be >= 1")
        return haar_random_unitary(n, seed).matrix
    if source.startswith("file:"):
        path = source.split(":", 1)[1]
        try:
            return load_matrix(path)
        except OSError as exc:
            raise CliInputError("--matrix", f"cannot read {path!r}: {exc}") from exc
        except ValueError as exc:
            raise CliInputError("--matrix", f"bad matrix file {path!r}: {exc}") from exc
    raise CliInputError(
        "--matrix",
        f"unknown source {source!r}; use beamsplitter, fourier:N, "
        "permutation:SPEC, haar:N:SEED, or file:PATH",
    )


def _unitary_from_config(config: ScenarioConfig) -> UnitaryMatrix:
    raw = _build_matrix(config.matrix_source)
    u = validate_unitary(raw, tol=config.unitary_tol)  # raises NotUnitaryError
    if u.n > MAX_MODES:
        raise BudgetExceededError(
            f"--matrix: {u.n} modes exceed the supported cap of {MAX_MODES}"
        )
    return u


def _config_from_args(args) -> ScenarioConfig:
    if args.budget < 1:
        raise CliInputError("--budget", "budget must be >= 1")
    if args.tolerance <= 0:
        raise CliInputError("--tolerance", "tolerance must be positive")
    return ScenarioConfig(
        matrix_source=args.matrix,
        particle_budget=args.budget,
        tolerance=args.tolerance,
        output_format=args.format,
        unitary_tol=args.unitary_tol,
    )


def _occupation_token(occ) -> str:
    if occ is None:
        return "-"
    return ".".join(str(c) for c in occ)


def _report_record(report: IdentityReport, n_modes: int) -> dict:
    record = {
        "identity": report.identity_name,
        "n_modes": n_modes,
        "input": list(report.input_occ) if report.input_occ is not None else None,
        "output": list(report.output_occ) if report.output_occ is not None else None,
        "residual": _round15(report.residual),
        "raw_residual": _round15(report.raw_residual),
        "term_count": report.term_count,
        "normalizer": _round15(report.normalizer),
        "passed": report.passed,
    }
    if report.details:
        record["details"] = {
            k: (_round15(v) if isinstance(v, float) else v)
            for k, v in sorted(report.details.items())
        }
    return record


def _emit_reports(reports, n_modes: int, config: ScenarioConfig, out) -> None:
    if config.output_format == "csv":
        out.write("identity,N,input,output,residual,passed\n")
        for r in reports:
            out.write(
                f"{r.identity_name},{n_modes},{_occupation_token(r.input_occ)},"
                f"{_occupation_token(r.output_occ)},{_fmt(r.residual)},"
                f"{str(r.passed).lower()}\n"
            )
    else:
        for r in reports:
            out.write(json.dumps(_report_record(r, n_modes)) + "\n")


def cmd_compute(args, out=None) -> int:
    out = out or sys.stdout
    config = _config_from_args(args)
    u = _unitary_from_config(config)
    input_occ = _parse_occupation(args.input, "--in")
    output_occ = _parse_occupation(args.output, "--out")
    for flag, occ in (("--in", input_occ), ("--out", output_occ)):
        if len(occ) != u.n:
            raise CliInputError(
                flag, f"pattern has {len(occ)} modes but the matrix has {u.n}"
            )
        if sum(occ) > config.particle_budget:
            raise BudgetExceededError(
                f"{flag}: {sum(occ)} particles exceed the budget of "
                f"{config.particle_budget}"
            )
    if any(c > 1 for c in input_occ) or any(c > 1 for c in output_occ):
        print(
            "note: occupations above 1 have no fermionic state; F = 0",
            file=sys.stderr,
        )
    triple = transition_triple(u, input_occ, output_occ)
    label = None
    if (
        sum(input_occ) == 2
        and max(input_occ) == 1
        and sum(output_occ) == 2
        and max(output_occ) == 1
    ):
        label = classify_transition(u, input_occ, output_occ).label.value
    values = {}
    anomalies = []
    for key, value in zip(("boson", "fermion", "classical"), triple):
        shown, anomalous = _render_probability(value)
        values[key] = _round15(shown)
        if anomalous:
            anomalies.append(key)
    if config.output_format == "csv":
        out.write("input,output,B,F,C,label\n")
        out.write(
            f"{_occupation_token(input_occ)},{_occupation_token(output_occ)},"
            f"{_fmt(values['boson'])},{_fmt(values['fermion'])},"
            f"{_fmt(values['classical'])},{label or '-'}\n"
        )
    else:
        record = {
            "input": list(input_occ),
            "output": list(output_occ),
            "boson": values["boson"],
            "fermion": values["fermion"],
            "classical": values["classical"],
            "label": label,
        }
        if anomalies:
            record["numeric_anomaly"] = anomalies
        out.write(json.dumps(record) + "\n")
    return 0


def _suite_reports(name: str, u: UnitaryMatrix, config: ScenarioConfig):
    budget = config.particle_budget
    tol = config.tolerance
    if name == "lemma2":
        return sweep_lemma2(u, budget, tol=tol)
    if name == "theorem1":
        return sweep_signed_convolution(u, budget, tol=tol, name="theorem1")
    if name == "theorem2":
        return sweep_signed_convolution(u.matrix, budget, tol=tol, name="theorem2")
    if name == "corollary1":
        return [check_corollary1(u.matrix, tol=tol)]
    if name == "muir":
        return [check_muir(u.matrix, tol=tol)]
    if name == "classical-convolution":
        return sweep_classical_convolution(u, budget, tol=tol)
    if name == "two-particle":
        if u.n < 2:
            return []
        cache = ProbabilityCache(u.matrix)
        pairs = enumerate_subsets(u.n, 2)
        return [
            check_two_particle(u, in_modes, out_modes, tol=tol, cache=cache)
            for in_modes in pairs
            for out_modes in pairs
        ]
    if name == "three-particle":
        if u.n < 3:
            return []
        cache = ProbabilityCache(u.matrix)
        triples = enumerate_subsets(u.n, 3)
        return [
            check_three_particle(u, ins, outs, tol=tol, cache=cache)
            for ins in triples
            for outs in triples
        ]
    if name == "sum-difference":
        return check_sum_difference_system(u, min(u.n, 4), tol=tol)
    if name == "single-mode-bunching":
        cache = ProbabilityCache(u.matrix)
        return [
            check_single_mode_bunching(
                u, k, mode, tol=tol, budget=budget, cache=cache
            )
            for k in range(1, min(budget, 4) + 1)
            for mode in range(1, u.n + 1)
        ]
    raise CliInputError("--suite", f"unknown identity suite {name!r}")


def cmd_verify(args, out=None) -> int:
    out = out or sys.stdout
    config = _config_from_args(args)
    u = _unitary_from_config(config)
    names = SUITE_ORDER if args.suite == "all" else tuple(args.suite.split(","))
    for name in names:
        if name not in SUITE_ORDER:
            raise CliInputError("--suite", f"unknown identity suite {name!r}")
    if not names:
        raise CliInputError("--suite", "suite list is empty")
    reports = [r for name in names for r in _suite_reports(name, u, config)]
    _emit_reports(reports, u.n, config, out)
    failures = sum(1 for r in reports if not r.passed)
    print(
        f"{len(reports)} checks, {failures} failed",
        file=sys.stderr,
    )
    return 1 if failures else 0


def cmd_scan(args, out=None) -> int:
    out = out or sys.stdout
    config = _config_from_args(args)
    u = _unitary_from_config(config)
    particles = args.particles
    if particles < 1:
        raise CliInputError("--particles", "particle count must be >= 1")
    if particles > config.particle_budget:
        raise BudgetExceededError(
            f"--particles: {particles} exceeds the budget of {config.particle_budget}"
        )
    if particles > u.n:
        raise CliInputError(
            "--particles", f"{particles} one-per-mode particles need N >= {particles}"
        )
    cache = ProbabilityCache(u.matrix)
    subsets = enumerate_subsets(u.n, particles)
    rows = []
    for in_modes in subsets:
        i = occupation_from_modes(in_modes, u.n)
        for out_modes in subsets:
            n = occupation_from_modes(out_modes, u.n)
            b = cache.boson(i, n)
            f = cache.fermion(i, n)
            c = cache.classical(i, n)
            if particles == 2:
                label = classify_transition(u, i, n, cache=cache).label.value
            else:
                label = "-"
            rows.append((in_modes, out_modes, b, f, c, b + f, b - f, label))
    if config.output_format == "csv":
        out.write("in,out,B,F,C,S,D,label\n")
        for in_modes, out_modes, b, f, c, s, d, label in rows:
            in_tok = "+".join(str(m) for m in in_modes)
            out_tok = "+".join(str(m) for m in out_modes)
            out.write(
                f"{in_tok},{out_tok},{_fmt(b)},{_fmt(f)},{_fmt(c)},"
                f"{_fmt(s)},{_fmt(d)},{label}\n"
            )
    else:
        for in_modes, out_modes, b, f, c, s, d, label in rows:
            out.write(
                json.dumps(
                    {
                        "in": list(in_modes),
                        "out": list(out_modes),
                        "B": _round15(b),
                        "F": _round15(f),
                        "C": _round15(c),
                        "S": _round15(s),
                        "D": _round15(d),
                        "label": label,
                    }
                )
                + "\n"
            )
    return 0


def cmd_gf(args, out=None) -> int:
    out = out or sys.stdout
    config = _config_from_args(args)
    u = _unitary_from_config(config)
    x = _parse_duals(args.x, "--x")
    z = _parse_duals(args.z, "--z")
    for flag, v in (("--x", x), ("--z", z)):
        if len(v) != u.n:
            raise CliInputError(flag, f"needs {u.n} components, got {len(v)}")
    closed = gf_closed_form(u, x, z)
    minor = gf_minor_expansion(u, x, z)
    series, tail = gf_truncated_series(u, x, z, args.cutoff)
    record = {
        "closed_form": _round15(closed),
        "minor_expansion": _round15(minor),
        "truncated_series": _round15(series),
        "cutoff": args.cutoff,
        "tail_bound_advisory": _round15(tail) if math.isfinite(tail) else "inf",
        "delta_closed_minor": _round15(abs(closed - minor)),
        "delta_closed_series": _round15(abs(closed - series)),
        "delta_minor_series": _round15(abs(minor - series)),
    }
    out.write(json.dumps(record) + "\n")
    return 0


def cmd_embed(args, out=None) -> int:
    out = out or sys.stdout
    config = _config_from_args(args)
    matrix = _build_matrix(config.matrix_source)
    if matrix.shape[0] != matrix.shape[1]:
        raise CliInputError("--matrix", "embedding needs a square matrix")
    n = matrix.shape[0]
    input_occ = _parse_occupation(args.input, "--in")
    output_occ = _parse_occupation(args.output, "--out")
    for flag, occ in (("--in", input_occ), ("--out", output_occ)):
        if len(occ) != n:
            raise CliInputError(
                flag, f"pattern has {len(occ)} modes but the matrix has {n}"
            )
        if sum(occ) > config.particle_budget:
            raise BudgetExceededError(
                f"{flag}: {sum(occ)} particles exceed the budget of "
                f"{config.particle_budget}"
            )
    direct = identities.check_theorem2(
        matrix, input_occ, output_occ, tol=config.tolerance,
        budget=config.particle_budget,
    )
    embedded = check_theorem2_dilation(
        matrix, input_occ, output_occ, tol=config.tolerance, size=args.size,
        budget=config.particle_budget,
    )
    record = {
        "input": list(input_occ),
        "output": list(output_occ),
        "epsilon": _round15(embedded.details["epsilon"]),
        "dilation_size": embedded.details["dilation_size"],
        "direct_residual": _round15(direct.residual),
        "direct_passed": direct.passed,
        "dilation_residual": _round15(embedded.residual),
        "dilation_passed": embedded.passed,
        "consistent": direct.passed == embedded.passed,
    }
    out.write(json.dumps(record) + "\n")
    return 0 if (direct.passed and embedded.passed) else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--matrix", required=True, help="matrix source: beamsplitter | fourier:N | permutation:SPEC | haar:N:SEED | file:PATH")
    parser.add_argument("--budget", type=int, default=4, help="particle budget (default 4)")
    parser.add_argument("--tolerance", type=float, default=1e-10, help="identity tolerance (default 1e-10)")
    parser.add_argument("--format", choices=("json", "csv"), default="json", help="output format (default json)")
    parser.add_argument("--unitary-tol", type=float, default=1e-12, help="unitarity validation tolerance (default 1e-12)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interfere",
        description=(
            "Bosonic/fermionic/classical transition probabilities in linear "
            "interferometers and machine checks of the underlying "
            "permanent/determinant identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="one transition triple (B, F, C)")
    _add_common(p)
    p.add_argument("--in", dest="input", required=True, help="input occupations, e.g. 1,0,2")
    p.add_argument("--out", dest="output", required=True, help="output occupations")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="run identity suites over all patterns in budget")
    _add_common(p)
    p.add_argument("--suite", default="all", help="comma list of suites or 'all'")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="sweep one-per-mode transitions and label them")
    _add_common(p)
    p.add_argument("--particles", type=int, default=2, help="particles, one per mode (default 2)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("gf", help="three generating-function evaluations")
    _add_common(p)
    p.add_argument("--x", required=True, help="input dual variables, e.g. 0.3,0.3")
    p.add_argument("--z", required=True, help="output dual variables")
    p.add_argument("--cutoff", type=int, default=10, help="series truncation (default 10)")
    p.set_defaults(func=cmd_gf)

    p = sub.add_parser("embed", help="unitary-embedding cross-check of the matrix identity")
    _add_common(p)
    p.add_argument("--in", dest="input", required=True, help="input occupations")
    p.add_argument("--out", dest="output", required=True, help="output occupations")
    p.add_argument("--size", type=int, default=None, help="dilation dimension (default 2N)")
    p.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, SizeLimitError) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except InterferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
