"""Process parallelism for the PARIS passes (Section 5.1).

The instance (Eq. 13) and class (Eq. 17) passes have two routes.  The
sequential reference code — the dict passes, or the in-process
vectorized kernel for Eq. 13 — runs by default.  With
``ParisConfig.workers >= 2`` on a platform that can ``fork``, the
persistent fork-once :class:`WorkerPool` runs the pass instead:
workers inherit the ontologies and the kernel through copy-on-write
memory, tasks are bare ``(lo, hi)`` index ranges and results come back
as compact score arrays, so nothing re-pickles an ontology.  Pooled
results merge in task order, which fills the store in the sequential
insertion order, so both routes are bit-identical.  The relation pass
(Eq. 12, :func:`parallel_subrelation_pass`) runs in process for every
worker count, on the kernel when there is one.  The design rationale
and the bit-identity argument live in ``docs/architecture.md``
(section "The core: one pass, three engines"); the guarantee is
enforced by ``tests/test_parallel.py`` /
``tests/test_parallel_properties.py`` / ``tests/test_vectorized.py``.
"""

from __future__ import annotations

import math
import multiprocessing
import queue as queue_module
import traceback
from typing import List, Optional, Sequence, Tuple

from ..rdf.ontology import Ontology
from ..rdf.terms import Relation
from .matrix import SubsumptionMatrix
from .subclasses import closed_classes_of, score_classes
from .subrelations import apply_relation_scores, subrelation_pass
from .vectorized import VectorizedKernel
from .view import EquivalenceView

#: Pool tasks per worker.  Several small tasks per worker smooth out
#: skew (a range of hub instances with many statements costs more than
#: one of leaves) without drowning the pass in task overhead.
SHARDS_PER_WORKER = 4


def parallel_subrelation_pass(
    ontology1: Ontology,
    ontology2: Ontology,
    view: EquivalenceView,
    truncation_threshold: float,
    max_pairs: int,
    reverse: bool = False,
    bootstrap_theta: float = 0.0,
    kernel: Optional[VectorizedKernel] = None,
) -> SubsumptionMatrix[Relation]:
    """One direction of the Eq. 12 relation pass, in process.

    With ``kernel`` (built over this ontology pair) the rows come from
    :meth:`VectorizedKernel.relation_scores`; without it the dict
    reference :func:`.subrelations.subrelation_pass` runs.  Both fill
    the matrix through :func:`.subrelations.apply_relation_scores` in
    relation registration order with the same floats, so the routes are
    bit-identical.  The relation pass has no pool route for any worker
    count.
    """
    if kernel is None:
        return subrelation_pass(
            ontology1,
            ontology2,
            view,
            truncation_threshold,
            max_pairs,
            reverse=reverse,
            bootstrap_theta=bootstrap_theta,
        )
    matrix: SubsumptionMatrix[Relation] = SubsumptionMatrix()
    apply_relation_scores(
        matrix,
        kernel.relation_scores(view, reverse, max_pairs),
        truncation_threshold,
        bootstrap_theta,
    )
    return matrix


# ----------------------------------------------------------------------
# the persistent worker pool
# ----------------------------------------------------------------------

#: Read-only run state handed to forked pool workers: set immediately
#: before the fork, cleared right after, inherited via copy-on-write.
_POOL_FORK_STATE: Optional[tuple] = None

#: How long the parent waits between result polls before re-checking
#: that its workers are still alive (a crashed worker would otherwise
#: hang the pass forever).
_POOL_POLL_SECONDS = 2.0


def even_ranges(total: int, num_tasks: int) -> List[Tuple[int, int]]:
    """``num_tasks`` contiguous ``(lo, hi)`` ranges covering ``total``."""
    if total <= 0:
        return []
    num_tasks = max(1, min(num_tasks, total))
    step = math.ceil(total / num_tasks)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _run_pool_task(state: tuple, payload: dict, cache: dict, span: Tuple[int, int]):
    """Execute one ``(lo, hi)`` task against the fork-inherited state."""
    ontology1, ontology2, literals2, literals1, kernel = state
    lo, hi = span
    kind = payload["kind"]
    if kind == "instances":
        return kernel.score_ids(
            payload["ids"][lo:hi], payload["prepared"], payload["theta"]
        )
    # Class tasks score with the dict code against a store rebuilt once
    # per pass from the shipped id arrays (both row orderings preserved
    # — see EquivalenceStore.backward_items).
    if kind != "classes":
        raise ValueError(f"unknown pool task kind {kind!r}")
    view = cache.get("view")
    if view is None:
        store = kernel.rebuild_store(payload["store"], payload["threshold"])
        view = EquivalenceView(store, literals2, literals1)
        cache["view"] = view
    reverse = payload["reverse"]
    first, second = (ontology2, ontology1) if reverse else (ontology1, ontology2)
    classes = cache.get("classes")
    if classes is None:
        # The inherited set object iterates identically in parent
        # and child, so index ranges address the same classes.
        classes = list(first.classes)
        cache["classes"] = classes
    closure = cache.get("closure")
    if closure is None:
        closure = closed_classes_of(second)
        cache["closure"] = closure
    return score_classes(
        classes[lo:hi],
        first,
        view,
        closure,
        payload["max_instances"],
        reverse=reverse,
    )


def _pool_worker_main(worker_index: int, task_queue, result_queue) -> None:
    """Worker loop: consume pass broadcasts and tasks until told to stop."""
    state = _POOL_FORK_STATE
    payload: Optional[dict] = None
    cache: dict = {}
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "pass":
            payload = message[2]
            cache = {}
            continue
        _kind, task_id, span = message
        try:
            result = _run_pool_task(state, payload, cache, span)
        except BaseException:
            result_queue.put((worker_index, task_id, traceback.format_exc(), None))
        else:
            result_queue.put((worker_index, task_id, None, result))


class WorkerPool:
    """Fork-once worker pool for the whole fixpoint (zero re-pickling).

    Workers are forked at construction and inherit ``state`` — the
    ontologies, literal indexes and the vectorized kernel — through
    copy-on-write memory.  :meth:`run_pass` broadcasts one small
    per-pass payload, feeds ``(lo, hi)`` index-range tasks to whichever
    worker is free, and returns results **in task order** regardless of
    completion order, so pool scheduling can never perturb downstream
    float accumulation.

    The pool requires the ``fork`` start method: forked workers share
    the parent's hash seed and object identities, which is what makes
    their dict/set iteration orders — and hence their floats — exactly
    equal to an in-process run.
    """

    def __init__(self, workers: int, state: tuple, versions: Optional[tuple] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError("WorkerPool requires the fork start method")
        context = multiprocessing.get_context("fork")
        self.workers = workers
        #: Ontology versions the forked state was built from; owners
        #: compare against their kernel's to detect a stale pool.
        self.versions = versions
        self._task_queues = [context.SimpleQueue() for _ in range(workers)]
        self._results = context.Queue()
        self._closed = False
        global _POOL_FORK_STATE
        _POOL_FORK_STATE = state
        try:
            self._processes = [
                context.Process(
                    target=_pool_worker_main,
                    args=(index, self._task_queues[index], self._results),
                    daemon=True,
                )
                for index in range(workers)
            ]
            for process in self._processes:
                process.start()
        finally:
            _POOL_FORK_STATE = None

    def run_pass(self, payload: dict, tasks: Sequence[Tuple[int, int]]) -> List:
        """Broadcast ``payload``, run ``tasks``, return results in task order."""
        from ..obs.trace import span

        with span(
            "pool.run_pass",
            kind=payload.get("kind"),
            tasks=len(tasks),
            workers=self.workers,
        ):
            return self._run_pass(payload, tasks)

    def _run_pass(self, payload: dict, tasks: Sequence[Tuple[int, int]]) -> List:
        if self._closed:
            raise RuntimeError("pool is closed")
        for task_queue in self._task_queues:
            task_queue.put(("pass", None, payload))
        results: List = [None] * len(tasks)
        pending = list(range(len(tasks) - 1, -1, -1))
        inflight = 0
        for worker_index in range(self.workers):
            if not pending:
                break
            task_id = pending.pop()
            self._task_queues[worker_index].put(("task", task_id, tasks[task_id]))
            inflight += 1
        while inflight:
            try:
                worker_index, task_id, error, result = self._results.get(
                    timeout=_POOL_POLL_SECONDS
                )
            except queue_module.Empty:
                dead = [p.pid for p in self._processes if not p.is_alive()]
                if dead:
                    self.close()
                    raise RuntimeError(f"pool worker(s) died: pids {dead}")
                continue
            inflight -= 1
            if error is not None:
                self.close()
                raise RuntimeError(f"pool worker task failed:\n{error}")
            results[task_id] = result
            if pending:
                task_id = pending.pop()
                self._task_queues[worker_index].put(("task", task_id, tasks[task_id]))
                inflight += 1
        return results

    def close(self) -> None:
        """Stop the workers; idempotent, safe after worker death."""
        if self._closed:
            return
        self._closed = True
        for task_queue in self._task_queues:
            try:
                task_queue.put(("stop",))
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=5)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        self._results.cancel_join_thread()
        self._results.close()
        for task_queue in self._task_queues:
            task_queue.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
