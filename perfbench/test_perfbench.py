"""Tests of the benchmark itself: the gate catches corrupted outputs, and a
traced run's self times account for its wall time.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import gate
import hostspeed
import run
import workloads
from tracer import LAYERS, Tracer

sys.path.insert(0, str(run.SRC))
import interfere  # noqa: E402
import interfere.cli  # noqa: E402

PROGRAM = workloads.Program(interfere, interfere.cli)


def _verify_job(n_modes=3, budget=2, suites=("theorem1", "theorem2")):
    make = workloads._verify_job(suites, budget)
    return make(np.random.default_rng(5), n_modes)


@pytest.fixture(scope="module")
def verify_output():
    job = _verify_job()
    output = PROGRAM.run(job)[-1]
    return job, output


def _edit_records(output, edit):
    rc, out, err = output
    records = [json.loads(line) for line in out.splitlines()]
    records = edit(records)
    return rc, "".join(json.dumps(r) + "\n" for r in records), err


def test_clean_verify_output_passes(verify_output):
    job, output = verify_output
    problems, stats = workloads.check(job, output)
    assert problems == []
    assert stats["reports"] == 2 * sum(c for _, c in gate.expected_record_counts(("theorem1",), 3, 2))


def test_all_suites_closed_form_matches_program():
    job = _verify_job(n_modes=3, budget=2, suites=gate.ALL_SUITES)
    output = PROGRAM.run(job)[-1]
    assert workloads.check(job, output)[0] == []


def test_gate_flags_flipped_passed(verify_output):
    job, output = verify_output

    def flip(records):
        records[len(records) // 2]["passed"] = False
        return records

    assert workloads.check(job, _edit_records(output, flip))[0]


def test_gate_flags_dropped_record(verify_output):
    job, output = verify_output
    corrupted = _edit_records(output, lambda records: records[:-1])
    assert workloads.check(job, corrupted)[0]


def test_gate_flags_large_residual(verify_output):
    job, output = verify_output

    def inflate(records):
        records[3]["residual"] = 1e-6
        return records

    assert workloads.check(job, _edit_records(output, inflate))[0]


def test_gate_flags_perturbed_permanent():
    job = workloads._permanent_job(np.random.default_rng(3), 12)
    result = PROGRAM.run(job)[-1]
    assert workloads.check(job, result)[0] == []
    perturbed = result._replace(value=result.value * (1 + 1e-6))
    assert workloads.check(job, perturbed)[0]


def test_gate_flags_gf_disagreement():
    job = workloads._gf_job(np.random.default_rng(4), 3)
    rc, out, err = PROGRAM.run(job)[-1]
    assert workloads.check(job, (rc, out, err))[0] == []
    record = json.loads(out)
    record["minor_expansion"] *= 1 + 1e-6
    assert workloads.check(job, (rc, json.dumps(record) + "\n", err))[0]


def test_gate_flags_perturbed_sampled_kernel_value():
    job = workloads._gf_job(np.random.default_rng(4), 3)
    tracer = Tracer(interfere)
    tracer.install()
    try:
        assert workloads.check(job, PROGRAM.run(job)[-1])[0] == []
    finally:
        tracer.uninstall()
    assert tracer.samples
    assert gate.check_samples(tracer.samples)[0] == []
    a, rows, cols, value = tracer.samples[0]
    assert gate.check_samples([(a, rows, cols, value * (1 + 1e-6))])[0]


def test_occupation_reference_matches_kernel_orientation():
    a = np.random.default_rng(6).standard_normal((3, 3)) + 0j
    rows, cols = (2, 0, 1), (1, 1, 1)
    value = interfere.occupation_permanent(a, rows, cols).value
    assert gate.permanent_rel_err(value, gate.occupation_reference(a, rows, cols)) < 1e-12


def test_glynn_reference_matches_brute_force():
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert gate.permanent_rel_err(gate.glynn_permanent(a), gate.brute_permanent(a)) < 1e-12


def test_workload_jobs_repeat_for_a_seed():
    for workload in workloads.WORKLOADS.values():
        a = [j.argv or j.matrix.tobytes() for _, j in zip(range(6), workload.jobs(9))]
        b = [j.argv or j.matrix.tobytes() for _, j in zip(range(6), workload.jobs(9))]
        c = [j.argv or j.matrix.tobytes() for _, j in zip(range(6), workload.jobs(10))]
        assert a == b
        assert a != c


def test_self_times_and_remainder_add_up_to_wall():
    tracer = Tracer(interfere)
    jobs = [
        _verify_job(n_modes=3, budget=2, suites=gate.ALL_SUITES),
        workloads._gf_job(np.random.default_rng(1), 3),
        workloads._permanent_job(np.random.default_rng(2), 12),
    ]
    wall = 0.0
    tracer.install()
    try:
        for job in jobs:
            dt, _, output = PROGRAM.run(job)
            assert workloads.check(job, output)[0] == []
            wall += dt
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    remainder = wall - summary["root_s"]
    self_total = sum(summary["layer_self_s"].values())
    assert remainder >= 0.0
    assert self_total + remainder == pytest.approx(wall, rel=1e-9)
    assert all(v >= 0.0 for v in summary["layer_self_s"].values())
    assert set(summary["layer_self_s"]) == set(LAYERS)
    assert summary["calls"]["cli.main"] == 2
    assert summary["calls"]["permdet.permanent"] == 1


def test_uninstall_restores_every_binding():
    before = (interfere.cli.main, interfere.permanent, interfere.transition.ProbabilityCache.boson)
    tracer = Tracer(interfere)
    tracer.install()
    assert interfere.cli.main is not before[0]
    tracer.uninstall()
    after = (interfere.cli.main, interfere.permanent, interfere.transition.ProbabilityCache.boson)
    assert after == before


def test_nearest_rank_percentile_leaves_ten_beyond_p90():
    values = list(range(100))
    p90 = run.percentile(values, 0.9)
    assert sum(v > p90 for v in values) == 10


def test_host_scale_is_a_power_of_the_probe_slowdown():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale([ref, ref]) == pytest.approx(1.0)
    assert hostspeed.scale([ref, 3 * ref]) == pytest.approx(2.0 ** hostspeed.SENSITIVITY)
    assert hostspeed.probe() > 0.0
