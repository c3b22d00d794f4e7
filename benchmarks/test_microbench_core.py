"""Kernel-vs-dict floor for one instance pass.

``test_stage_profile`` times one second-iteration instance pass on the
dict reference code and on the vectorized kernel (prepare, score and
merge; the kernel's build is amortized across passes and left out).
Both sides run on one machine within one process, so unlike raw
wall-clock the ratio is stable enough to carry a hard floor
(``KERNEL_FLOOR``) everywhere.  Where each layer of a whole align
spends its time is ``perfbench/run.py --trace 1``'s job.
"""

from __future__ import annotations

import time

from repro.core.equivalence import instance_equivalence_pass
from repro.core.functionality import FunctionalityOracle
from repro.core.literal_index import LiteralIndex
from repro.core.matrix import SubsumptionMatrix
from repro.core.store import EquivalenceStore
from repro.core.subrelations import subrelation_pass
from repro.core.vectorized import VectorizedKernel
from repro.core.view import EquivalenceView
from repro.datasets import yago_dbpedia_pair
from repro.literals import IdentitySimilarity

RELATION_PASS = dict(truncation_threshold=0.1, max_pairs=10_000, bootstrap_theta=0.1)


#: Kernel-vs-dict floor, gated on every machine: both sides run in one
#: process on the same box, so the ratio survives noisy runners.  The
#: kernel measures >10x here; 4x leaves slack for hostile hardware.
KERNEL_FLOOR = 4.0

#: Workload size (persons/works) of the stage profile.
STAGE_SCALE = (3000, 1500)


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
    rel12 = subrelation_pass(pair.ontology1, pair.ontology2, view, **RELATION_PASS)
    rel21 = subrelation_pass(pair.ontology2, pair.ontology1, view, reverse=True, **RELATION_PASS)
    return pair.ontology1, pair.ontology2, view, fun1, fun2, rel12, rel21, 0.1


def test_stage_profile():
    """One instance pass on the dict reference and on the kernel: the
    kernel must score bit-equal entries at least ``KERNEL_FLOOR`` times
    faster (prepare + score + merge; the build is amortized)."""
    inputs = _second_pass_inputs(*STAGE_SCALE, seed=11)
    ontology1, ontology2, view, fun1, fun2, rel12, rel21, theta = inputs

    def measure():
        started = time.perf_counter()
        sequential = instance_equivalence_pass(*inputs)
        dict_seconds = time.perf_counter() - started
        expected = list(sequential.items())
        assert expected, "workload produced no equivalences"

        kernel = VectorizedKernel(
            ontology1, ontology2, fun1, fun2, view._right_index, view._left_index
        )
        started = time.perf_counter()
        prepared = kernel.prepare_pass(view.store, rel12, rel21)
        scored = kernel.score_ids(kernel.ordered_ids, prepared, theta)
        store = EquivalenceStore()
        store.update(kernel.entries_for(*scored))
        kernel_seconds = time.perf_counter() - started

        # The kernel must not buy its speed with drift: bit-equal scores.
        assert list(store.items()) == expected
        return dict_seconds, kernel_seconds

    # A single sample can be poisoned by a scheduler stall or a GC burst
    # mid-stage; re-measure on a floor miss (up to three attempts)
    # rather than failing on one noisy reading.
    for _attempt in range(3):
        dict_seconds, kernel_seconds = measure()
        kernel_speedup = dict_seconds / kernel_seconds
        if kernel_speedup >= KERNEL_FLOOR:
            break
    assert kernel_speedup >= KERNEL_FLOOR, (
        f"vectorized kernel only {kernel_speedup:.2f}x over the dict pass "
        f"(floor {KERNEL_FLOOR}x; dict {dict_seconds:.3f}s, "
        f"kernel {kernel_seconds:.3f}s)"
    )
