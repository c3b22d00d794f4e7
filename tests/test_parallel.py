"""Tests for the worker-pool route of the PARIS passes.

The route's guarantee: for any worker count and task split, the pooled
passes produce scores *equal* to the sequential passes, filled in the
same insertion order.  These tests enforce it on the unit level (task
partitioners, one instance pass, warm-frontier scoring) and
end-to-end on the integration fixtures (``workers=4`` against the
session-cached sequential results).  Every route that the pool does not
cover must run in process, without forking — the relation pass among
them, for every worker count.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager

import pytest

from repro import ParisAligner, ParisConfig, align
from repro.core import aligner as aligner_module
from repro.core.equivalence import instance_equivalence_pass
from repro.core.functionality import FunctionalityOracle
from repro.core.literal_index import LiteralIndex
from repro.core.matrix import SubsumptionMatrix
from repro.core.parallel import (
    WorkerPool,
    _run_pool_task,
    even_ranges,
    parallel_subrelation_pass,
)
from repro.core.store import EquivalenceStore
from repro.core.subrelations import subrelation_pass
from repro.core.vectorized import HAVE_NUMPY
from repro.core.view import EquivalenceView
from repro.literals import IdentitySimilarity

#: The pool runs only where ``fork`` exists; elsewhere every pass takes
#: the sequential route, so the equalities below hold trivially.
FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

needs_kernel = pytest.mark.skipif(not HAVE_NUMPY, reason="kernel requires numpy")
needs_pool = pytest.mark.skipif(
    not (HAVE_NUMPY and FORK_AVAILABLE), reason="the pool requires numpy and fork"
)


def store_scores(store):
    """All stored scores as a comparable dict keyed on (left, right)."""
    return {(left, right): p for left, right, p in store.items()}


def reverse_scores(store):
    """Scores read through the backward direction of the store."""
    scores = {}
    for left, right, _p in store.items():
        for other, p in store.equals_of_right(right).items():
            scores[(other, right)] = p
    return scores


@contextmanager
def pass_aligner(ontology1, ontology2, workers, **config):
    """An aligner whose kernel is built, so every pass can ride its pool.

    Relation and class passes reuse a fresh kernel but never build one
    (in a run, the instance pass before them does), so build it here.
    """
    aligner = ParisAligner(ontology1, ontology2, ParisConfig(workers=workers, **config))
    aligner._kernel_for()
    try:
        yield aligner
    finally:
        aligner.close()


def fork_state(aligner):
    """The state a pool forks with, as the aligner builds it."""
    return (
        aligner.ontology1,
        aligner.ontology2,
        aligner.literals2,
        aligner.literals1,
        aligner._kernel,
    )


class InlinePool:
    """:class:`WorkerPool`'s task protocol run in the calling thread:
    the same payloads, task ranges and task function, without a fork."""

    def __init__(self, workers, state):
        self.workers = workers
        self.state = state
        self.passes = 0

    def run_pass(self, payload, tasks):
        self.passes += 1
        cache = {}
        return [_run_pool_task(self.state, payload, cache, task) for task in tasks]


#: Where the pooled passes run their tasks: ``process`` on forked
#: :class:`WorkerPool` workers, ``thread`` on an :class:`InlinePool` in
#: the calling thread, which checks the task split and the task-order
#: merge apart from the fork.
BACKENDS = ("process", pytest.param("thread", marks=needs_kernel))


@contextmanager
def backend_aligner(ontology1, ontology2, workers, backend):
    """``(aligner, pooled)``: an aligner whose pooled passes run on
    ``backend``, and a callable telling whether the pooled route ran
    (the process route needs numpy and fork; otherwise it falls back to
    the sequential passes)."""
    with pass_aligner(ontology1, ontology2, workers) as aligner:
        if backend == "thread":
            inline = InlinePool(workers, fork_state(aligner))
            aligner._ensure_pool = lambda kernel: inline
            yield aligner, lambda: inline.passes > 0
        else:
            yield aligner, lambda: aligner._pool is not None


def pooled_route_expected(backend):
    return backend == "thread" or (FORK_AVAILABLE and HAVE_NUMPY)


@pytest.fixture(scope="module")
def pass_inputs():
    """Frozen first-iteration inputs over a mid-sized benchmark pair."""
    from repro.datasets import yago_dbpedia_pair

    pair = yago_dbpedia_pair(num_persons=120, num_works=60, seed=17)
    similarity = IdentitySimilarity()
    view = EquivalenceView(
        EquivalenceStore(),
        LiteralIndex(pair.ontology2, similarity),
        LiteralIndex(pair.ontology1, similarity),
    )
    return (
        pair.ontology1,
        pair.ontology2,
        view,
        FunctionalityOracle(pair.ontology1),
        FunctionalityOracle(pair.ontology2),
        SubsumptionMatrix.bootstrap(0.1),
        SubsumptionMatrix.bootstrap(0.1),
        0.1,
    )


def pooled_instance_pass(pass_inputs, workers):
    """One instance pass through the aligner's routing."""
    ontology1, ontology2, view, _fun1, _fun2, rel12, rel21, _theta = pass_inputs
    with pass_aligner(ontology1, ontology2, workers) as aligner:
        return aligner._instance_pass(view, rel12, rel21)


@needs_kernel
class TestPartitioner:
    """The pool's task splits: ``VectorizedKernel.task_ranges`` for
    instance tasks, ``even_ranges`` for relation and class tasks."""

    @pytest.fixture(scope="class")
    def kernel_pass(self, pass_inputs):
        ontology1, ontology2, view, _fun1, _fun2, rel12, rel21, _theta = pass_inputs
        with pass_aligner(ontology1, ontology2, 1) as aligner:
            kernel = aligner._kernel_for()
            return kernel, kernel.prepare_pass(view.store, rel12, rel21)

    def test_covers_all_instances_exactly_once(self, kernel_pass):
        kernel, prepared = kernel_pass
        for num_tasks in (1, 3, 16, 10_000):
            ranges = kernel.task_ranges(kernel.ordered_ids, prepared, num_tasks)
            covered = [index for lo, hi in ranges for index in range(lo, hi)]
            assert covered == list(range(len(kernel.ordered_ids)))

    def test_deterministic_and_sorted(self, kernel_pass):
        kernel, prepared = kernel_pass
        first = kernel.task_ranges(kernel.ordered_ids, prepared, 12)
        assert first == kernel.task_ranges(kernel.ordered_ids, prepared, 12)
        names = [
            kernel.table1[node_id].name
            for lo, hi in first
            for node_id in kernel.ordered_ids[lo:hi]
        ]
        assert names == sorted(names)

    def test_explicit_shard_size(self):
        assert even_ranges(10, 4) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert even_ranges(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_empty_input(self, kernel_pass):
        kernel, prepared = kernel_pass
        assert even_ranges(0, 4) == []
        assert kernel.task_ranges(kernel.ordered_ids[:0], prepared, 4) == []


class TestParallelPass:
    def test_single_worker_matches_sequential_bitwise(self, pass_inputs):
        sequential = instance_equivalence_pass(*pass_inputs)
        in_process = pooled_instance_pass(pass_inputs, workers=1)
        assert list(in_process.items()) == list(sequential.items())

    @needs_pool
    def test_sharded_single_worker_matches_sequential(self, pass_inputs):
        """One pool worker running many shards merges them in task order."""
        ontology1, ontology2, view, _fun1, _fun2, rel12, rel21, theta = pass_inputs
        sequential = instance_equivalence_pass(*pass_inputs)
        with pass_aligner(ontology1, ontology2, 1) as aligner:
            kernel = aligner._kernel
            prepared = kernel.prepare_pass(view.store, rel12, rel21)
            payload = {
                "kind": "instances",
                "prepared": prepared,
                "theta": theta,
                "ids": kernel.ordered_ids,
            }
            tasks = kernel.task_ranges(kernel.ordered_ids, prepared, 7)
            store = EquivalenceStore(theta)
            with WorkerPool(1, fork_state(aligner)) as pool:
                for result in pool.run_pass(payload, tasks):
                    store.update(kernel.entries_for(*result))
        assert len(tasks) > 1
        assert list(store.items()) == list(sequential.items())

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_backends_match_sequential_exactly(self, pass_inputs, backend, workers):
        ontology1, ontology2, view, _fun1, _fun2, rel12, rel21, _theta = pass_inputs
        sequential = instance_equivalence_pass(*pass_inputs)
        with backend_aligner(ontology1, ontology2, workers, backend) as (aligner, pooled):
            store = aligner._instance_pass(view, rel12, rel21)
            assert pooled() == pooled_route_expected(backend)
        # Same entries in the same insertion order, not just equal sets.
        assert list(store.items()) == list(sequential.items())

    def test_both_directions_filled(self, pass_inputs):
        sequential = instance_equivalence_pass(*pass_inputs)
        pooled = pooled_instance_pass(pass_inputs, workers=2)
        assert reverse_scores(pooled) == reverse_scores(sequential)

    def test_shard_size_does_not_change_scores(self, pass_inputs, monkeypatch):
        baseline = pooled_instance_pass(pass_inputs, workers=2)
        for shards_per_worker in (1, 7, 1000):
            monkeypatch.setattr(aligner_module, "SHARDS_PER_WORKER", shards_per_worker)
            other = pooled_instance_pass(pass_inputs, workers=2)
            assert list(other.items()) == list(baseline.items())

    def test_maximal_assignment_identical(self, pass_inputs):
        sequential = instance_equivalence_pass(*pass_inputs)
        pooled = pooled_instance_pass(pass_inputs, workers=4)
        assert pooled.maximal_assignment() == sequential.maximal_assignment()
        assert pooled.maximal_assignment(reverse=True) == sequential.maximal_assignment(
            reverse=True
        )

    def test_invalid_worker_count_rejected(self, pass_inputs):
        with pytest.raises(ValueError):
            ParisConfig(workers=0)
        with pytest.raises(ValueError):
            WorkerPool(0, ())

    def test_empty_ontology(self, pass_inputs):
        from repro.rdf.ontology import Ontology

        _, ontology2, view, _fun1, _fun2, rel12, rel21, _theta = pass_inputs
        with pass_aligner(Ontology("empty"), ontology2, 2) as aligner:
            store = aligner._instance_pass(view, rel12, rel21)
        assert len(store) == 0


def matrix_scores(matrix, sub_ontology):
    """Explicit entries plus per-sub defaults, for exact comparison.

    Defaults are enumerated over *every* relation of the sub-side
    ontology, not just those with explicit entries — a relation whose
    whole row is the no-evidence bootstrap default (``set_sub_default``
    only) must also compare equal between sequential and pooled runs.
    """
    return (
        {(sub, sup): p for sub, sup, p in matrix.items()},
        {
            relation: matrix.sub_default(relation)
            for relation in sub_ontology.relations(include_inverses=True)
        },
    )


@pytest.fixture(scope="module")
def relation_pass_inputs(pass_inputs):
    """Relation-pass inputs over a *filled* view (bootstrap equivalences),
    so Eq. 12 has real evidence to aggregate."""
    ontology1, ontology2, view, fun1, fun2, rel12, rel21, theta = pass_inputs
    bootstrap = instance_equivalence_pass(*pass_inputs)
    filled_view = EquivalenceView(
        bootstrap.restricted_to_maximal(),
        view._right_index,
        view._left_index,
    )
    return ontology1, ontology2, filled_view


class TestParallelRelationPass:
    """The relation pass runs in process for every worker count: on the
    kernel when the aligner has one, on the dict reference otherwise,
    bit-identical to the sequential relation pass either way."""

    def kwargs(self):
        return dict(truncation_threshold=0.1, max_pairs=10_000, bootstrap_theta=0.1)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_single_worker_matches_sequential_bitwise(self, relation_pass_inputs, reverse):
        ontology1, ontology2, view = relation_pass_inputs
        first, second = (ontology2, ontology1) if reverse else (ontology1, ontology2)
        sequential = subrelation_pass(first, second, view, reverse=reverse, **self.kwargs())
        fallback = parallel_subrelation_pass(
            first, second, view, reverse=reverse, **self.kwargs()
        )
        assert matrix_scores(fallback, first) == matrix_scores(sequential, first)

    @needs_kernel
    def test_sharded_single_worker_matches_sequential(self, relation_pass_inputs):
        """A single-worker run scores the relation pass on its kernel."""
        ontology1, ontology2, view = relation_pass_inputs
        sequential = subrelation_pass(ontology1, ontology2, view, **self.kwargs())
        with pass_aligner(ontology1, ontology2, 1) as aligner:
            kernel_pass = parallel_subrelation_pass(
                ontology1, ontology2, view, kernel=aligner._kernel, **self.kwargs()
            )
        assert list(kernel_pass.items()) == list(sequential.items())
        assert matrix_scores(kernel_pass, ontology1) == matrix_scores(sequential, ontology1)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_backends_match_sequential(self, relation_pass_inputs, backend, workers, reverse):
        """``workers >= 2`` runs the relation pass in process, never on
        the pool, and equals the ``workers=1`` pass."""
        ontology1, ontology2, view = relation_pass_inputs
        first = ontology2 if reverse else ontology1
        with backend_aligner(ontology1, ontology2, workers, backend) as (aligner, ran):
            parallel = aligner._relation_pass(view, reverse=reverse)
            assert not ran()
        with pass_aligner(ontology1, ontology2, 1) as aligner:
            single = aligner._relation_pass(view, reverse=reverse)
        second = ontology1 if reverse else ontology2
        sequential = subrelation_pass(first, second, view, reverse=reverse, **self.kwargs())
        assert list(parallel.items()) == list(single.items()) == list(sequential.items())
        assert matrix_scores(parallel, first) == matrix_scores(single, first)
        assert matrix_scores(single, first) == matrix_scores(sequential, first)

    def test_full_align_with_workers_matches_sequential(self, person_pair, person_result):
        """End-to-end: every pass on the pool, exact."""
        parallel = align(person_pair.ontology1, person_pair.ontology2, ParisConfig(workers=2))
        assert store_scores(parallel.instances) == store_scores(person_result.instances)
        assert matrix_scores(parallel.relations12, person_pair.ontology1) == matrix_scores(
            person_result.relations12, person_pair.ontology1
        )
        assert matrix_scores(parallel.relations21, person_pair.ontology2) == matrix_scores(
            person_result.relations21, person_pair.ontology2
        )


class TestScoredSubsets:
    """Warm-pass frontier scoring: every route returns the sequential
    entries in input order."""

    def test_matches_sequential_scoring(self, pass_inputs, monkeypatch):
        from repro.core.equivalence import ordered_instances, score_instances

        # Lower the size gates so a 40-instance frontier takes the kernel
        # and the pool instead of the small-frontier dict route.
        monkeypatch.setattr(aligner_module, "POOL_MIN_FRONTIER", 0)
        monkeypatch.setattr(aligner_module, "KERNEL_REBUILD_MIN_FRONTIER", 0)
        ontology1, ontology2, view, _fun1, _fun2, rel12, rel21, _theta = pass_inputs
        subset = ordered_instances(ontology1.instances)[:40]
        sequential = score_instances(subset, *pass_inputs)
        for workers, scoring in [(1, "auto"), (2, "auto"), (2, "dict")]:
            aligner = ParisAligner(
                ontology1, ontology2, ParisConfig(workers=workers, scoring=scoring)
            )
            try:
                assert aligner._score_frontier(subset, view, rel12, rel21) == sequential
            finally:
                aligner.close()


class TestConfigKnobs:
    def test_defaults_are_sequential(self):
        assert ParisConfig().workers == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ParisConfig(workers=0)


class TestIntegrationFixtures:
    """workers=4 matches the session-cached sequential results exactly."""

    def test_person_fixture_exact(self, person_pair, person_result):
        config = ParisConfig(workers=4)
        parallel = align(person_pair.ontology1, person_pair.ontology2, config)
        assert store_scores(parallel.instances) == store_scores(person_result.instances)
        assert parallel.assignment12 == person_result.assignment12
        assert parallel.assignment21 == person_result.assignment21

    def test_kb_fixture_exact(self, kb_pair, kb_result):
        config = ParisConfig(max_iterations=4, convergence_threshold=0.0, workers=4)
        parallel = align(kb_pair.ontology1, kb_pair.ontology2, config)
        assert store_scores(parallel.instances) == store_scores(kb_result.instances)
        assert parallel.assignment12 == kb_result.assignment12
        assert parallel.converged == kb_result.converged


class TestSequentialRoutesDoNotFork:
    """Passes the pool does not take run in process: a small warm pass,
    negative evidence and ``scoring="dict"`` never fork, whatever the
    worker count."""

    @staticmethod
    def forbid_fork(monkeypatch):
        def no_fork():
            raise AssertionError("a sequential route forked a process")

        monkeypatch.setattr(os, "fork", no_fork)

    @staticmethod
    def served_scores(service):
        state = service.state
        return [
            list(matrix.items())
            for matrix in (
                state.store,
                state.relations12,
                state.relations21,
                state.classes12,
                state.classes21,
            )
        ]

    def test_small_delta_with_workers_never_forks(self, monkeypatch):
        from repro.datasets.incremental import family_pair, family_triples
        from repro.service import AlignmentService, Delta

        delta = Delta(remove1=(family_triples([3], 0)[0],))
        services = [
            AlignmentService.cold_start(*family_pair(60), ParisConfig(workers=workers))
            for workers in (1, 2)
        ]
        self.forbid_fork(monkeypatch)
        for service in services:
            service.apply_delta(delta)
        sequential, pooled = services
        assert self.served_scores(pooled) == self.served_scores(sequential)

    @pytest.mark.parametrize(
        "config",
        [dict(scoring="dict"), dict(use_negative_evidence=True)],
        ids=["dict", "negative-evidence"],
    )
    def test_uncovered_configs_align_in_process(self, person_pair, monkeypatch, config):
        reference = align(person_pair.ontology1, person_pair.ontology2, ParisConfig(**config))
        self.forbid_fork(monkeypatch)
        pooled = align(
            person_pair.ontology1, person_pair.ontology2, ParisConfig(workers=2, **config)
        )
        assert store_scores(pooled.instances) == store_scores(reference.instances)
