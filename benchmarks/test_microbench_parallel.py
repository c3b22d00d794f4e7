"""Staged profile of the vectorized kernel and the persistent worker pool.

Two questions, answered separately so a regression is attributable:

1. **Kernel vs dict** (`test_stage_profile`): one second-iteration
   instance pass, decomposed into stages — the dict reference pass,
   then the vectorized engine's interning/prepare/score/merge costs.
   The kernel-vs-dict ratio is measured on one machine within one
   process, so unlike raw wall-clock it is stable enough to carry a
   hard floor (`KERNEL_FLOOR`) everywhere, core count be damned.
2. **Pool speedup** (`test_parallel_speedup_curve`): full cold aligns
   at 1/2/4 workers through the persistent fork-once pool (instance,
   relation *and* class passes all ride it).  Speedups are meaningless
   below :data:`MIN_CORES_FOR_SPEEDUP` cores, so the ``speedup_4w``
   floor is attached only on capable machines — the same policy as the
   replica microbench — and the committed `BENCH_parallel.json` from a
   small box records the curve informationally.

Every timed run is checked for score equality against the sequential
engine, so the benchmark doubles as an exactness check at scale.

``test_parallel_smoke_two_workers`` is a fast 2-worker smoke intended
for CI (`pytest benchmarks/test_microbench_parallel.py -k smoke`).
"""

from __future__ import annotations

import os
import time

import pytest

from helpers import save_bench_json, save_bench_text
from repro import ParisConfig, align
from repro.core.equivalence import instance_equivalence_pass
from repro.core.functionality import FunctionalityOracle
from repro.core.literal_index import LiteralIndex
from repro.core.matrix import SubsumptionMatrix
from repro.core.store import EquivalenceStore
from repro.core.subrelations import subrelation_pass
from repro.core.vectorized import HAVE_NUMPY, VectorizedKernel
from repro.core.view import EquivalenceView
from repro.datasets import yago_dbpedia_pair
from repro.literals import IdentitySimilarity

#: Worker counts on the speedup curve.
WORKER_COUNTS = (2, 4)

#: Cores needed before a multi-worker speedup floor is meaningful.
MIN_CORES_FOR_SPEEDUP = 4

#: `speedup_4w` floor on machines meeting the core gate (the PR 6
#: acceptance bar; used to be "don't regress 1.0x").
POOL_FLOOR = 2.0

#: Kernel-vs-dict floor, gated on every machine: both sides run in one
#: process on the same box, so the ratio survives noisy runners.  The
#: kernel measures >10x here; 4x leaves slack for hostile hardware.
KERNEL_FLOOR = 4.0

#: Workload size (persons/works) for both benches.
SCALE = (3000, 1500)


def _second_pass_inputs(num_persons, num_works, seed):
    """Inputs for a second-iteration instance pass over a synthetic KB pair.

    The pass runs against a filled previous-iteration view and computed
    relation matrices — the compute-dominated shape of every iteration
    after the bootstrap (a bootstrap pass over an empty store is too
    cheap to say much about the kernel).
    """
    pair = yago_dbpedia_pair(num_persons=num_persons, num_works=num_works, seed=seed)
    similarity = IdentitySimilarity()
    literals2 = LiteralIndex(pair.ontology2, similarity)
    literals1 = LiteralIndex(pair.ontology1, similarity)
    fun1 = FunctionalityOracle(pair.ontology1)
    fun2 = FunctionalityOracle(pair.ontology2)
    view = EquivalenceView(EquivalenceStore(), literals2, literals1)
    rel12 = SubsumptionMatrix.bootstrap(0.1)
    rel21 = SubsumptionMatrix.bootstrap(0.1)
    bootstrap = instance_equivalence_pass(
        pair.ontology1, pair.ontology2, view, fun1, fun2, rel12, rel21, 0.1
    )
    view = EquivalenceView(bootstrap.restricted_to_maximal(), literals2, literals1)
    rel12 = subrelation_pass(
        pair.ontology1, pair.ontology2, view,
        truncation_threshold=0.1, max_pairs=10_000, bootstrap_theta=0.1,
    )
    rel21 = subrelation_pass(
        pair.ontology2, pair.ontology1, view,
        truncation_threshold=0.1, max_pairs=10_000, reverse=True,
        bootstrap_theta=0.1,
    )
    return (
        pair.ontology1,
        pair.ontology2,
        view,
        fun1,
        fun2,
        rel12,
        rel21,
        0.1,
    )


def _scores(store):
    return {(left, right): p for left, right, p in store.items()}


def _result_scores(result):
    return {
        "instances": _scores(result.instances),
        "relations12": _scores(result.relations12),
        "relations21": _scores(result.relations21),
        "classes12": _scores(result.classes12),
        "classes21": _scores(result.classes21),
    }


@pytest.mark.skipif(not HAVE_NUMPY, reason="kernel stage profile requires numpy")
def test_stage_profile():
    """Where one instance pass spends its time, dict vs kernel.

    Stages, DMR-XPath-style (one row per cost center so a regression
    names its culprit): the dict reference pass; then the kernel's
    interning (build), pass preparation (view/matrix lowering), the
    array scoring itself, and the merge back into an
    `EquivalenceStore`.
    """
    inputs = _second_pass_inputs(*SCALE, seed=11)
    ontology1, ontology2, view, fun1, fun2, rel12, rel21, theta = inputs

    def measure():
        started = time.perf_counter()
        sequential = instance_equivalence_pass(*inputs)
        dict_seconds = time.perf_counter() - started
        expected = _scores(sequential)
        assert expected, "workload produced no equivalences"

        started = time.perf_counter()
        kernel = VectorizedKernel(
            ontology1, ontology2, fun1, fun2, view._right_index, view._left_index
        )
        build_seconds = time.perf_counter() - started
        started = time.perf_counter()
        prepared = kernel.prepare_pass(view.store, rel12, rel21)
        prepare_seconds = time.perf_counter() - started
        started = time.perf_counter()
        scored = kernel.score_ids(kernel.ordered_ids, prepared, theta)
        score_seconds = time.perf_counter() - started
        started = time.perf_counter()
        store = EquivalenceStore()
        store.update(kernel.entries_for(*scored))
        merge_seconds = time.perf_counter() - started

        # The kernel must not buy its speed with drift: bit-equal scores.
        assert _scores(store) == expected
        return dict_seconds, build_seconds, prepare_seconds, score_seconds, merge_seconds

    # A single sample can be poisoned by a scheduler stall or a GC burst
    # mid-stage; re-measure on a floor miss and keep the best attempt
    # rather than failing on one noisy reading.
    for _attempt in range(3):
        timings = measure()
        dict_seconds, build_seconds, prepare_seconds, score_seconds, merge_seconds = timings
        kernel_seconds = prepare_seconds + score_seconds + merge_seconds
        kernel_speedup = dict_seconds / kernel_seconds
        if kernel_speedup >= KERNEL_FLOOR:
            break
    rows = [
        f"{'stage':>16}  {'seconds':>8}",
        f"{'dict pass':>16}  {dict_seconds:>8.3f}",
        f"{'kernel build':>16}  {build_seconds:>8.3f}   (amortized across passes)",
        f"{'kernel prepare':>16}  {prepare_seconds:>8.3f}",
        f"{'kernel score':>16}  {score_seconds:>8.3f}",
        f"{'kernel merge':>16}  {merge_seconds:>8.3f}",
        f"kernel vs dict: {kernel_speedup:.1f}x (prepare+score+merge)",
    ]
    save_bench_text("microbench_parallel_stages", "\n".join(rows))

    test_stage_profile.metrics = {
        "dict_pass_seconds": {
            "value": dict_seconds,
            "higher_is_better": False,
            "informational": True,
        },
        "kernel_pass_seconds": {
            "value": kernel_seconds,
            "higher_is_better": False,
            "informational": True,
        },
        "kernel_speedup_vs_dict": {
            "value": kernel_speedup,
            "higher_is_better": True,
            "informational": True,
            "floor": KERNEL_FLOOR,
        },
    }
    assert kernel_speedup >= KERNEL_FLOOR, (
        f"vectorized kernel only {kernel_speedup:.2f}x over the dict pass "
        f"(floor {KERNEL_FLOOR}x)"
    )


def test_parallel_speedup_curve():
    """Full cold aligns at 1/2/4 workers through the persistent pool."""
    pair = yago_dbpedia_pair(num_persons=SCALE[0], num_works=SCALE[1], seed=11)

    started = time.perf_counter()
    baseline = align(pair.ontology1, pair.ontology2, ParisConfig(workers=1))
    sequential_seconds = time.perf_counter() - started
    expected = _result_scores(baseline)
    assert expected["instances"], "workload produced no equivalences"

    rows = [f"{'workers':>7}  {'seconds':>8}  {'speedup':>7}"]
    rows.append(f"{1:>7}  {sequential_seconds:>8.3f}  {1.0:>7.2f}")
    speedups = {}
    for workers in WORKER_COUNTS:
        started = time.perf_counter()
        result = align(pair.ontology1, pair.ontology2, ParisConfig(workers=workers))
        seconds = time.perf_counter() - started
        got = _result_scores(result)
        for surface, scores in expected.items():
            assert got[surface] == scores, surface
        speedups[workers] = sequential_seconds / seconds
        rows.append(f"{workers:>7}  {seconds:>8.3f}  {speedups[workers]:>7.2f}")

    cores = os.cpu_count() or 1
    floored = cores >= MIN_CORES_FOR_SPEEDUP
    rows.append(f"(cpu cores: {cores}; speedup floor {'on' if floored else 'off'})")
    save_bench_text("microbench_parallel", "\n".join(rows))
    save_bench_json(
        "parallel",
        {
            # Wall-clock numbers stay informational (machine-bound);
            # the two gates are the kernel-vs-dict floor (held
            # everywhere — same-box ratio) and the 4-worker pool floor
            # (held only where >= MIN_CORES_FOR_SPEEDUP cores make it
            # physically possible).  Exactness is gated separately by
            # this bench's score checks and tests/test_vectorized.py.
            "sequential_seconds": {
                "value": sequential_seconds,
                "higher_is_better": False,
                "informational": True,
            },
            **{
                f"speedup_{workers}w": {
                    "value": speedups[workers],
                    "higher_is_better": True,
                    "informational": True,
                    **(
                        {"floor": POOL_FLOOR}
                        if floored and workers == max(WORKER_COUNTS)
                        else {}
                    ),
                }
                for workers in WORKER_COUNTS
            },
            **getattr(test_stage_profile, "metrics", {}),
        },
    )

    if os.environ.get("BENCH_RELAX_WALLCLOCK") == "1":
        # bench-track mode: record the curve + JSON artifact, but skip
        # the wall-clock assertion — shared CI runners meet the core
        # floor yet suffer noisy-neighbor stalls, the exact flakiness
        # the tier-1 jobs exclude this file for.
        return
    if floored:
        best = max(speedups.values())
        assert best >= POOL_FLOOR, (
            f"expected >={POOL_FLOOR}x speedup on a {cores}-core machine, "
            f"best was {best:.2f}x"
        )
    else:
        pytest.skip(
            f"speedup assertion needs >= {MIN_CORES_FOR_SPEEDUP} cores, "
            f"machine has {cores}; curve recorded for the record"
        )


def test_parallel_smoke_two_workers():
    """CI smoke: a full align on the 2-worker pool, exact against
    ``workers=1`` on every scored surface, modest workload."""
    pair = yago_dbpedia_pair(num_persons=300, num_works=150, seed=11)
    sequential = align(pair.ontology1, pair.ontology2, ParisConfig(workers=1))
    pooled = align(pair.ontology1, pair.ontology2, ParisConfig(workers=2))
    expected = _result_scores(sequential)
    got = _result_scores(pooled)
    for surface, scores in expected.items():
        assert got[surface] == scores, surface
    assert expected["instances"]
