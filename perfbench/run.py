"""Benchmark of the interfere package: one workload per run, from a seed.

    python3 perfbench/run.py --workload convolution-sweep --seed 1 --seconds 15 --trace 0

Run from the repository root.  Each run is one process and one client in
a closed loop: the next job starts when the previous one has returned.
The program is driven only through ``interfere.cli.main(argv)`` (stdout
captured) and ``interfere.permanent``; every job's output goes through the
correctness gate outside the timed region.

``--trace 0`` reports the end-to-end metrics of an untraced timed pass,
in CPU time scaled by the host-speed probe of hostspeed.py.
``--trace 1`` replays a fixed prefix of the same job sequence, each job
once untraced and once under the span tracer, and reports the per-layer
metrics.  The last line of stdout is the JSON result; the line before it
records provenance.  The exit code is 0 only when every job passed.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads; child processes inherit the pin.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# The CLI's suite thread pool: INTERFERE_THREADS overrides --threads, so pin
# it too, or a multi-suite verify job would run its suites on worker threads.
INTERFERE_THREADS = "1"
os.environ["INTERFERE_THREADS"] = INTERFERE_THREADS

import argparse
import ctypes
import glob
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
import hostspeed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 1
HELDOUT_SEED = 20231229  # confirm a claimed gain here, not only on seeds used while writing it
MIN_JOBS = 100  # job_cpu_p90_ms needs at least ten jobs beyond the 90th percentile
SETUP_LAUNCHES = 10  # spread over the timed pass, so host speed phases average out
PROBE_SHARE = 0.05  # host-speed probes take this share of the pass's job CPU time
OVERRUN = 3.0  # a timed pass stops after OVERRUN * --seconds even below MIN_JOBS


def _fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def launch_setup() -> tuple[float, float]:
    """Wall and CPU (user + system) seconds of one fresh interpreter
    importing the CLI and building its parser."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import interfere.cli; interfere.cli.build_parser()"
    )
    t0, c0 = perf_counter(), _children_cpu()
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True, timeout=60,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0, _children_cpu() - c0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_pass(program, jobs, seconds: float, block: int):
    """Closed loop over whole blocks until `seconds` of job time and MIN_JOBS
    jobs are done, so every pass has the workload's exact size mix.

    Between jobs, the set-up launches and the host-speed probes are spread
    evenly over the pass.  They, job generation and the gate are excluded
    from the pass wall time.
    Returns (job wall times, job CPU times, failures, pass wall time,
    set-up launch (wall, CPU) times, probe CPU times).
    """
    latencies, cpu_times, failures, setups, probes = [], [], [], [], []
    untimed = job_cpu = probe_cpu = 0.0
    start = perf_counter()
    while True:
        busy = perf_counter() - start - untimed
        done = (busy >= seconds and len(latencies) >= MIN_JOBS) or busy >= OVERRUN * seconds
        if done and len(latencies) % block == 0:
            break
        t = perf_counter()
        if len(setups) < SETUP_LAUNCHES and busy >= len(setups) * seconds / SETUP_LAUNCHES:
            setups.append(launch_setup())
        job = next(jobs)
        untimed += perf_counter() - t
        dt, cpu, output = program.run(job)
        t = perf_counter()
        problems, _ = workloads.check(job, output)
        if problems:
            failures.append((job.argv or job.size, problems))
        latencies.append(dt)
        cpu_times.append(cpu)
        job_cpu += cpu
        while probe_cpu < PROBE_SHARE * job_cpu:
            probes.append(hostspeed.probe())
            probe_cpu += probes[-1]
        untimed += perf_counter() - t
    wall = perf_counter() - start - untimed
    while len(setups) < SETUP_LAUNCHES:
        setups.append(launch_setup())
    return latencies, cpu_times, failures, wall, setups, probes


def end_to_end(program, workload, seed: int, seconds: float):
    """One timed pass.  Times are CPU times, which leave out the spells in
    which the host runs another tenant on this core, divided by a factor
    for the host's slowdown that the interleaved probe measures
    (hostspeed.py).  The unscaled CPU and wall-clock figures are returned
    separately.
    Returns (jobs, failures, metrics, unscaled figures)."""
    launch_setup()  # warms the bytecode cache; not counted
    jobs = workload.jobs(seed)
    program.run(next(workload.jobs(seed)))  # warm-up job, untimed
    latencies, cpu_times, failures, wall, setups, probes = timed_pass(
        program, jobs, seconds, len(workload.block))
    n = len(latencies)
    factor = hostspeed.scale(probes)
    if n < MIN_JOBS:
        print(f"perfbench: only {n} jobs; job_cpu_p90_ms has fewer than "
              "ten jobs beyond it", file=sys.stderr)
    cpu = {
        "setup_s": statistics.median(c for _, c in setups),
        "jobs_per_cpu_s": n / math.fsum(cpu_times),
        "job_cpu_p50_ms": 1e3 * statistics.median(cpu_times),
        "job_cpu_p90_ms": 1e3 * percentile(cpu_times, 0.9),
    }
    metrics = {
        "setup_s": (cpu["setup_s"] / factor, "s"),
        "jobs_per_cpu_s": (cpu["jobs_per_cpu_s"] * factor, "jobs/s"),
        "job_cpu_p50_ms": (cpu["job_cpu_p50_ms"] / factor, "ms"),
        "job_cpu_p90_ms": (cpu["job_cpu_p90_ms"] / factor, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    unscaled = {
        "host_slowdown": hostspeed.slowdown(probes),
        "scale_factor": factor,
        "probes": len(probes),
        "cpu": cpu,
        "wall_clock": {
            "setup_s": statistics.median(w for w, _ in setups),
            "jobs_per_s": n / wall,
            "job_p50_ms": 1e3 * statistics.median(latencies),
            "job_p90_ms": 1e3 * percentile(latencies, 0.9),
        },
    }
    return n, failures, metrics, unscaled


def traced(program, package, workload, seed: int):
    """Replay the first trace_blocks blocks of the job sequence, each job once
    untraced and once traced (alternating which goes first), and derive the
    per-layer metrics from the spans."""
    tracer = Tracer(package)
    jobs = workload.jobs(seed)
    n_jobs = workload.trace_blocks * len(workload.block)
    program.run(next(workload.jobs(seed)))  # warm-up job, untimed
    plain_s = traced_s = 0.0
    failures = []
    totals = {"reports": 0, "terms": 0, "worst_residual": 0.0, "bytes_out": 0, "rel_err": 0.0}
    for k in range(n_jobs):
        job = next(jobs)
        for under_trace in ((False, True) if k % 2 == 0 else (True, False)):
            sampled = len(tracer.samples)
            if under_trace:
                tracer.install()
            try:
                dt, _, output = program.run(job)
            finally:
                tracer.uninstall()
            problems, stats = workloads.check(job, output)
            sample_problems, worst = gate.check_samples(tracer.samples[sampled:])
            problems = problems + sample_problems
            totals["rel_err"] = max(totals["rel_err"], worst)
            if problems:
                failures.append((job.argv or job.size, problems))
            if not under_trace:
                plain_s += dt
                continue
            traced_s += dt
            for key in ("reports", "terms", "bytes_out"):
                totals[key] += stats.get(key, 0)
            for key in ("worst_residual", "rel_err"):
                totals[key] = max(totals[key], stats.get(key, 0.0))

    tracer.save(TRACE_DIR / f"trace-{workload.name}.npz")
    return 2 * n_jobs, failures, layer_metrics(tracer.summary(), tracer.counts, totals, traced_s, plain_s)


def layer_metrics(summary, counts, totals, traced_s: float, plain_s: float):
    """Per-layer metrics of one traced pass.

    Self times are shares of the traced wall time in percent; together with
    trace.other_pct (time outside every span) they add up to 100.
    """
    pct = 100.0 / traced_s
    self_s = summary["layer_self_s"]
    calls = summary["calls"]
    incl = summary["inclusive_s"]
    occ_calls = calls["permdet.occupation_permanent"]
    lookups = sum(counts[f"lookup.{s}"] for s in ("boson", "fermion", "classical"))
    prob_lookups = counts["lookup.boson"] + counts["lookup.classical"]
    kernel_terms = counts["occupation_permanent.terms"] + counts["permanent.terms"] + counts["batched.terms"]
    kernel_s = (
        incl["permdet.occupation_permanent"] + incl["permdet.permanent"] + incl["permdet.permanent_many"]
    )
    m = {
        "permdet.occupation_permanent.calls": (occ_calls, "count"),
        "permdet.occupation_permanent.pct": (pct * incl["permdet.occupation_permanent"], "%"),
        "permdet.occupation_permanent.terms": (counts["occupation_permanent.terms"], "count"),
        "permdet.terms_per_s": (kernel_terms / kernel_s if kernel_s else 0.0, "terms/s"),
        "permdet.permanent.calls": (calls["permdet.permanent"], "count"),
        "permdet.permanent.pct": (pct * incl["permdet.permanent"], "%"),
        "permdet.permanent.terms": (counts["permanent.terms"], "count"),
        "permdet.batched.terms": (counts["batched.terms"], "count"),
        "permdet.det.calls": (calls["permdet.determinant"] + calls["permdet.determinant_many"], "count"),
        "permdet.max_rel_err": (totals["rel_err"], "ratio"),
        "transition.lookups": (lookups, "count"),
        "transition.miss_ratio": (occ_calls / prob_lookups if prob_lookups else 0.0, "ratio"),
        "identities.calls": (summary["layer_calls"]["identities"], "count"),
        "identities.reports": (totals["reports"], "count"),
        "identities.terms": (totals["terms"], "count"),
        "identities.worst_residual": (totals["worst_residual"], "ratio"),
        "combinat.calls": (summary["layer_calls"]["combinat"], "count"),
        "matrixcore.calls": (summary["layer_calls"]["matrixcore"], "count"),
        "genfunc.calls": (summary["layer_calls"]["genfunc"], "count"),
        "cli.bytes_out": (totals["bytes_out"], "bytes"),
    }
    for layer, seconds in self_s.items():
        m[f"{layer}.self_pct"] = (pct * seconds, "%")
    m["trace.other_pct"] = (pct * (traced_s - summary["root_s"]), "%")
    m["trace.overhead"] = (traced_s / plain_s - 1.0, "ratio")
    m["trace.wall_s"] = (traced_s, "s")
    m["trace.spans"] = (summary["spans"], "count")
    return m


def provenance(seed: int, workload: str, trace: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads": _openblas_threads(),
        "interfere_threads_pinned": int(INTERFERE_THREADS),
        "commit": _commit(),
    }


def _openblas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit() -> str:
    """The checked-out commit if .git is present, else a digest of src/."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "interfere" / "__init__.py").is_file():
        return _fail_setup(f"no interfere package under {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return _fail_setup(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return _fail_setup("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import interfere
    import interfere.cli

    program = workloads.Program(interfere, interfere.cli)
    workload = workloads.WORKLOADS[args.workload]
    info = provenance(args.seed, args.workload, args.trace)
    if args.trace:
        attempted, failures, metrics = traced(program, interfere, workload, args.seed)
    else:
        attempted, failures, metrics, info["unscaled"] = end_to_end(
            program, workload, args.seed, args.seconds)
    for where, problems in failures[:5]:
        print(f"perfbench: FAILED {where}: {problems}", file=sys.stderr)
    info["fail_frac"] = len(failures) / attempted
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
