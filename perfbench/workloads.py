"""Seeded workloads and the program entry points they drive.

A workload is an endless, seed-determined sequence of jobs.  Jobs come in
blocks with a fixed size mix, shuffled within the block, so every run of a
workload has the same mix whatever its seed; the seed picks the Haar
seeds, dual variables, matrices and order.  The program receives only the
generated argv or matrices.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Callable, Iterator

import numpy as np

import gate


@dataclass(frozen=True)
class Job:
    kind: str  # "verify", "gf" or "permanent"
    size: int  # modes for CLI jobs, matrix order for permanent jobs
    argv: tuple[str, ...] = ()
    suites: tuple[str, ...] = ()
    budget: int = 0
    cutoff: int = 0
    matrix: np.ndarray | None = None
    reference: complex = 0j


@dataclass(frozen=True)
class Workload:
    name: str
    block: tuple[int, ...]  # job sizes of one block, before shuffling
    make: Callable[[np.random.Generator, int], Job]
    trace_blocks: int  # blocks the traced run replays

    def jobs(self, seed: int) -> Iterator[Job]:
        rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])
        while True:
            for size in rng.permutation(self.block):
                yield self.make(rng, int(size))


def _haar_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _verify_job(suites: tuple[str, ...], budget: int):
    def make(rng, n_modes):
        argv = (
            "verify",
            "--suite", ",".join(suites) if suites != gate.ALL_SUITES else "all",
            "--budget", str(budget),
            "--matrix", f"haar:{n_modes}:{_haar_seed(rng)}",
        )
        return Job("verify", n_modes, argv, suites=suites, budget=budget)

    return make


GF_CUTOFF = 7


def _gf_job(rng, n_modes):
    x = ",".join(repr(float(v)) for v in rng.uniform(0.05, 0.4, n_modes))
    z = ",".join(repr(float(v)) for v in rng.uniform(0.05, 0.4, n_modes))
    argv = (
        "gf", "--cutoff", str(GF_CUTOFF),
        "--matrix", f"haar:{n_modes}:{_haar_seed(rng)}",
        "--x", x, "--z", z,
    )
    return Job("gf", n_modes, argv, cutoff=GF_CUTOFF)


def _permanent_job(rng, n):
    """A dense complex Gaussian matrix and its Glynn-formula reference."""
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    return Job("permanent", n, matrix=a, reference=gate.glynn_permanent(a))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "convolution-sweep",
            block=(3, 3, 3, 4),
            make=_verify_job(("theorem1", "theorem2"), 4),
            trace_blocks=10,
        ),
        Workload(
            "all-suites",
            block=(3, 3, 3, 3, 4),
            make=_verify_job(gate.ALL_SUITES, 3),
            trace_blocks=8,
        ),
        Workload(
            "gf-series",
            block=(3,),
            make=_gf_job,
            trace_blocks=40,
        ),
        Workload(
            "large-permanent",
            block=(12,) * 4 + (13,) * 4 + (14,) * 4 + (15,) * 4 + (16,) * 3 + (18,),
            make=_permanent_job,
            trace_blocks=2,
        ),
    )
}
WORKLOAD_NAMES = tuple(WORKLOADS)


class Program:
    """The public entry points of an imported ``interfere`` package.

    Attributes are looked up at call time, so a tracer that rebinds
    ``interfere.cli.main`` or ``interfere.permanent`` is picked up.
    """

    def __init__(self, package, cli_module):
        self.package = package
        self.cli = cli_module

    def run(self, job: Job):
        """Run one job; returns (wall seconds, CPU seconds, output).  The CPU
        time is the whole process's, so it would also count any thread the
        job started."""
        if job.kind == "permanent":
            t0, c0 = perf_counter(), process_time()
            result = self.package.permanent(job.matrix)
            return perf_counter() - t0, process_time() - c0, result
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0, c0 = perf_counter(), process_time()
            rc = self.cli.main(list(job.argv))
            dt, cpu = perf_counter() - t0, process_time() - c0
        return dt, cpu, (rc, out.getvalue(), err.getvalue())


def check(job: Job, output):
    """Apply the correctness gate for the job's kind; returns (problems, stats)."""
    if job.kind == "permanent":
        return gate.check_permanent(output, job.reference)
    rc, out, err = output
    if job.kind == "verify":
        problems, stats = gate.check_verify(rc, out, err, job.suites, job.size, job.budget)
    else:
        problems, stats = gate.check_gf(rc, out, err, job.cutoff)
    return problems, {**stats, "bytes_out": len(out.encode())}
