"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench

The layer test runs one traced pass of every workload (about a minute).
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tamper  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("invariants", "certify", "verify")


@pytest.fixture(scope="module")
def P():
    return run.load_plhtpy()


@pytest.fixture(scope="module")
def speed():
    return run.Speed()


def input_digest(jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(f"{job.id}\n{job.expect}\n{job.describe()}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(P, workload):
    build = workloads.BUILDERS[workload]
    first = input_digest(build(P, 7))
    assert input_digest(build(P, 7)) == first
    assert input_digest(build(P, 8)) != first


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_lists_have_100_jobs(P, workload):
    jobs = workloads.BUILDERS[workload](P, 3)
    assert len(jobs) >= 100
    assert len({j.id for j in jobs}) == len(jobs)


def small_jobs(P, n=8):
    jobs = workloads.build_invariants(P, 5)
    return sorted((j for j in jobs if j.kind in ("euler", "pi0")),
                  key=lambda j: j.id)[:n]


def test_planted_wrong_verdict_is_caught(P, speed):
    jobs = small_jobs(P)
    jobs[3].expect = "chi=999"
    tally = run.Tally(workloads.KNOWN_DEFECTS)
    _, _, digest, complete = run.run_pass(jobs, tally, math.inf, speed)
    assert complete and digest
    assert (tally.attempted, tally.failed, tally.unexpected) == (len(jobs), 1, 1)
    assert jobs[3].id in tally.first_wrong and "chi=999" in tally.first_wrong


def test_timeout_and_crash_count_as_failures(speed):
    run.signal.signal(run.signal.SIGALRM, run._alarm)

    def slow():
        time.sleep(2)
        return "done", ""

    def crash():
        raise KeyError("boom")
    jobs = [workloads.Job("slow", "slow", tuple, slow, "done", str,
                          budget_s=0.05),
            workloads.Job("crash", "crash", tuple, crash, "done", str)]
    tally = run.Tally(set())
    run.run_pass(jobs, tally, math.inf, speed)
    assert tally.failed == 2 and tally.by_class == {"slow": [1, 1],
                                                    "crash": [1, 1]}
    assert "timeout" in tally.first_wrong


def test_known_defect_counts_but_is_flagged():
    klass = next(iter(workloads.KNOWN_DEFECTS))
    job = workloads.Job("forged", "verify_cert", tuple, None, "reject", str,
                        klass)
    tally = run.Tally(workloads.KNOWN_DEFECTS)
    tally.record(job, "ok", "reject", "")
    tally.record(job, "wrong", "pass", "no problems")
    assert (tally.attempted, tally.failed, tally.unexpected) == (2, 1, 0)
    assert tally.by_class == {klass: [2, 1]}
    # a crash or timeout is not the known defect
    tally.record(job, "exception", None, "KeyError: 1")
    tally.record(job, "timeout", None, "over budget")
    assert (tally.failed, tally.unexpected) == (3, 2)


def test_forged_partition_is_never_unexpected(P, speed):
    jobs = [j for j in workloads.build_verify(P, 2)
            if j.klass == "forged_partition"][:2]
    tally = run.Tally(workloads.KNOWN_DEFECTS)
    run.run_pass(jobs, tally, math.inf, speed)
    # pass (the defect) or reject (once it is fixed): either way not
    # unexpected
    assert tally.attempted == len(jobs) and tally.unexpected == 0


def test_tracer_rebinds_every_alias(P):
    originals = (P.linalg.solve_linear, P.homology.smith_normal_form,
                 P.homology.HomologyData.__init__)
    t = tr.Tracer()
    t.install()
    try:
        assert P.homology.solve_linear is P.linalg.solve_linear
        assert P.homology.solve_linear.__bench_original__ is originals[0]
        assert P.fungroup.smith_normal_form is P.homology.smith_normal_form
        assert P.fungroup.unimodular_inverse is P.homology.unimodular_inverse
        assert P.fungroup.smith_normal_form.__bench_original__ is originals[1]
        P.homology.homology(workloads.subdivided(P, "disk", 1)[0], 1)
        assert t.probes["linalg.solve_linear"].calls > 0
        assert t.probes["homology.HomologyData.__init__"].extra["desc"] > 0
    finally:
        t.uninstall()
    assert (P.linalg.solve_linear, P.homology.smith_normal_form,
            P.homology.HomologyData.__init__) == originals
    assert P.homology.solve_linear is originals[0]
    assert P.fungroup.smith_normal_form is originals[1]


def test_pairs_count_when_the_disjointness_check_raises(P):
    K, _ = workloads.subdivided(P, "disk", 0)
    text = tamper.overlap_scx(P, K, random.Random(1))
    t = tr.Tracer()
    t.install()
    try:
        with pytest.raises(P.errors.PlhtpyError):
            P.scx.load_complex(text, check_disjoint=True)
    finally:
        t.uninstall()
    probe = t.probes["complexes.check_pairwise_disjoint"]
    assert probe.calls == 1 and probe.extra["pairs"] > 0
    assert 0 < tr.layer_values(t, 1)[
        "complexes.check_pairwise_disjoint.lp_per_pair"] <= 1


def test_tracing_keeps_the_verdict_digest(P, speed):
    jobs = small_jobs(P, 6) + [j for j in workloads.build_verify(P, 4)
                               if j.kind == "validate"][:6]
    plain = run.run_pass(jobs, run.Tally(set()), math.inf, speed)[2]
    t = tr.Tracer()
    t.install()
    try:
        traced = run.run_pass(jobs, run.Tally(set()), math.inf, speed, t)[2]
    finally:
        t.uninstall()
    assert traced == plain
    assert t.spans and all(s[1] == 0 or s[1] < s[0] for s in t.spans)


# Layer expectations, one traced pass per workload.  "light" means at most
# LIGHT of the heaviest workload's per-pass value.
LIGHT = 0.2
HOMOLOGY = ["homology.smith_normal_form.calls",
            "homology.smith_normal_form.self_s",
            "homology.unimodular_inverse.total_s",
            "homology.HomologyData.__init__.solves",
            "homology.chain_complex.total_s", "homology.verify_les.total_s",
            "fungroup.Presentation.__init__.total_s",
            "fungroup.Abelianization.__init__.calls",
            "fungroup.Hurewicz1.__init__.total_s",
            "fungroup.group_verdict.total_s"]
VALIDATION = ["complexes.validate.total_s",
              "complexes.check_pairwise_disjoint.total_s",
              "linalg.convex_positions_intersect.calls",
              "subdivision.verify_normal.total_s"]
LOCATION = ["complexes.Complex.try_locate.calls", "plmaps.PLMap.evaluate.calls"]
PRODUCER = ["plmaps.subdivide_map.total_s", "plmaps.minimal_carrier.calls",
            "plmaps.carrier_face.calls",
            "plmaps.simplicial_approximation.total_s",
            "plmaps.simplicialize_rel.total_s",
            "subdivision.barycentric_subdivide.total_s",
            "subdivision.extend_normal.total_s",
            "cylinders.cylinder_retraction.total_s",
            "cylinders.extend_homotopy.total_s",
            "scx.emit_scx.bytes", "certio.dumps.bytes"]
VERIFIER = ["plmaps.verify_certificate.total_s",
            "scx.parse_scx.self_s", "certio.cert_from_obj.total_s",
            "certio.homeo_from_obj.total_s"]
SHARED_VERIFIER = ["subdivision.verify_subdivision.total_s",
                   "subdivision.relative_volume.calls",
                   "linalg.mat_rank.calls"]

# metric group -> (heavy workloads, light workloads)
EXPECT = [
    (HOMOLOGY, ("invariants",), ("certify", "verify")),
    # extend_normal re-checks its input with verify_normal, so the LP and
    # verify_normal read well above zero on certify too
    (VALIDATION, ("verify",), ("invariants",)),
    (LOCATION, ("certify", "verify"), ("invariants",)),
    (PRODUCER, ("certify",), ("invariants", "verify")),
    (VERIFIER, ("verify",), ("invariants", "certify")),
    # light, not zero, on certify: the same verify_normal input check
    (SHARED_VERIFIER, ("verify",), ("invariants", "certify")),
]


@pytest.fixture(scope="module")
def layer_values(P, speed):
    out = {}
    for w in WORKLOADS:
        jobs = workloads.BUILDERS[w](P, 11)
        t = tr.Tracer()
        t.install()
        try:
            run.run_pass(jobs, run.Tally(set()), math.inf, speed, t)
        finally:
            t.uninstall()
        out[w] = tr.layer_values(t, 1)
    return out


@pytest.mark.parametrize("group", range(len(EXPECT)))
def test_layers_heavy_and_light(layer_values, group):
    metrics, heavy, light = EXPECT[group]
    for m in metrics:
        top = max(layer_values[w][m] for w in heavy)
        for w in heavy:
            assert layer_values[w][m] > 0, (m, w)
        for w in light:
            assert layer_values[w][m] <= LIGHT * top, (m, w, layer_values[w][m])


def test_every_layer_metric_is_reported(layer_values):
    names = {m for m, _ in tr.LAYER_METRICS}
    for w in WORKLOADS:
        assert set(layer_values[w]) == names - {"trace.overhead_ratio"}
