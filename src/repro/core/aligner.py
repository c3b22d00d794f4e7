"""The PARIS fixpoint driver (Section 5.1).

One run alternates two steps until convergence:

1. **Instance pass** — recompute ``Pr(x ≡ x')`` for all instances from
   the previous iteration's equivalences (Eq. 13 / Eq. 14).  The very
   first pass is bootstrapped purely by clamped literal equivalences
   and the uniform relation prior ``θ``.
2. **Relation pass** — recompute ``Pr(r ⊆ r')`` in both directions from
   the fresh instance equivalences (Eq. 12).

Convergence is declared when fewer than ``convergence_threshold`` of
the instances change their maximal assignment (Section 6.1).  After the
fixpoint, class inclusions are computed once (Eq. 17, Section 4.3).

Every pass has one route, in the calling process.  The instance and
relation passes run on the vectorized kernel
(:mod:`repro.core.vectorized`) unless negative evidence (Eq. 14) is on;
the dict passes are the Eq. 14 route and the reference the kernel is
held bit-identical to (``tests/test_vectorized.py``).  The class pass
(Eq. 17) runs the dict code.  The paper runs its passes "in parallel on
all available processors" (Section 5.1); a worker pool did so here
until it measured below 1.2x on every recorded run
(``docs/architecture.md``).

One loop, :meth:`ParisAligner._fixpoint`, drives every run: it owns the
iteration count, timing, the ``pass.*`` spans, the snapshots and the
stop decision, and reads one pass state (:mod:`repro.core.pass_state`)
between passes.  On the kernel route that state is the kernel's id
arrays, so no dict store is built until the run ends.

Incremental service mode
------------------------
Besides the cold batch run, the aligner offers a **warm-start
fixpoint** (:meth:`ParisAligner.warm_align`) for the long-running
alignment service (:mod:`repro.service`): after a delta batch touched
the ontologies, iteration 0 starts from the previous run's
:class:`EquivalenceStore` and relation matrices, and each pass
re-scores only the *dirty frontier* — instances whose inputs (own
statements, 1-hop neighbours' equivalents, relation rows,
functionalities, literal candidates) changed — while every other row
keeps its previous value.  The frontier expands along 1-hop
neighbourhoods of whatever each pass actually changed, so the warm run
converges to the same numeric fixpoint a cold ``score_stationarity``
run reaches, at a fraction of the work for small deltas.  Its passes
run in the same loop as the cold ones, over a
:class:`~repro.core.pass_state.FrontierPassState` that answers from
each pass's change log in O(frontier).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..obs.trace import Span, root_span, span
from ..rdf.ontology import Ontology
from ..rdf.terms import Node, Relation, Resource
from .config import ParisConfig
from .equivalence import instance_equivalence_pass, ordered_instances, score_instances
from .functionality import FunctionalityOracle
from .incremental import IncrementalRelationPass, RestrictedViewMaintainer
from .literal_index import LiteralIndex
from .matrix import SubsumptionMatrix
from .pass_state import FrontierPassState, KernelPassState, StorePassState
from .result import AlignmentResult, IterationSnapshot
from .store import EquivalenceStore
from .subclasses import IncrementalClassPass, subclass_pass
from .subrelations import parallel_subrelation_pass
from .vectorized import KernelView, VectorizedKernel
from .view import EquivalenceView

#: Warm passes without a new minimum per-pass change before the loop
#: declares a limit cycle (see :meth:`ParisAligner._fixpoint`).  A
#: converging run improves its minimum (near-)every pass, so the window
#: only triggers on genuinely stuck dynamics.
WARM_STALL_WINDOW = 10

#: A stale vectorized kernel is rebuilt for a warm pass only when the
#: dirty frontier is at least this large: the rebuild is O(corpus),
#: while a small frontier is cheaper to score on the dict path (which
#: is bit-identical, so mixing engines across passes is safe).
KERNEL_REBUILD_MIN_FRONTIER = 512


class ParisAligner:
    """Aligns two ontologies with the PARIS probabilistic fixpoint.

    Parameters
    ----------
    ontology1, ontology2:
        The two input ontologies.  Following the paper's assumption
        (Section 3), neither may contain internal duplicates; entities
        are only ever matched *across* the two.
    config:
        Algorithm settings; defaults reproduce the paper's setup
        (θ = 0.1, strict literal identity, positive evidence only,
        maximal-assignment restriction, 10 000-pair cap).

    Examples
    --------
    >>> from repro import ParisAligner, ParisConfig
    >>> result = ParisAligner(onto1, onto2).align()   # doctest: +SKIP
    >>> result.instance_pairs(threshold=0.5)          # doctest: +SKIP
    """

    def __init__(
        self,
        ontology1: Ontology,
        ontology2: Ontology,
        config: Optional[ParisConfig] = None,
    ) -> None:
        if ontology1.name == ontology2.name:
            raise ValueError("the two ontologies must have distinct names")
        self.ontology1 = ontology1
        self.ontology2 = ontology2
        self.config = config or ParisConfig()
        # Functionalities are computed upfront (Section 5.1): the
        # no-internal-duplicates assumption means they never change.
        self.fun1 = FunctionalityOracle(ontology1, self.config.functionality)
        self.fun2 = FunctionalityOracle(ontology2, self.config.functionality)
        # Literal equivalences are clamped (Section 5.3): index once.
        similarity = self.config.literal_similarity
        self.literals2 = LiteralIndex(ontology2, similarity)
        self.literals1 = LiteralIndex(ontology1, similarity)
        #: Vectorized scoring kernel, built lazily and rebuilt when the
        #: ontology versions move (see _kernel_for / _warm_kernel).
        self._kernel: Optional[VectorizedKernel] = None
        #: Root span of the most recent align()/warm_align() run — the
        #: live staged profile `/stats` serves as ``last_align_profile``.
        self._last_align_span: Optional[Span] = None

    @property
    def last_profile(self) -> Optional[dict]:
        """JSON-ready span tree of the most recent cold/warm align."""
        node = self._last_align_span
        return node.to_dict() if node is not None else None

    # ------------------------------------------------------------------
    # engine selection (vectorized kernel or dict reference)
    # ------------------------------------------------------------------

    def _kernel_allowed(self) -> bool:
        # Eq. 14 reads arbitrary statements per surviving candidate;
        # the kernel only covers the positive-evidence traversal.
        return not self.config.use_negative_evidence

    def _kernel_for(self) -> Optional[VectorizedKernel]:
        """The current kernel, (re)built if the ontologies moved."""
        if not self._kernel_allowed():
            return None
        kernel = self._kernel
        if kernel is None or not kernel.fresh():
            kernel = self._kernel = self.new_kernel(rebuild=kernel is not None)
        return kernel

    def new_kernel(self, rebuild: bool = False) -> VectorizedKernel:
        """A kernel over the ontologies as they are now, which this
        aligner does not keep (``_kernel_for`` keeps its own)."""
        with span("kernel.build", nodes1=len(self.ontology1.instances), rebuild=rebuild):
            return VectorizedKernel(
                self.ontology1,
                self.ontology2,
                self.fun1,
                self.fun2,
                self.literals2,
                self.literals1,
            )

    def _warm_kernel(self, frontier_size: int) -> Optional[VectorizedKernel]:
        """Kernel for a warm pass: never rebuilt for a small frontier
        (the O(corpus) rebuild would dwarf the frontier's scoring
        cost); the dict path is bit-identical, so ``None`` is safe."""
        if not self._kernel_allowed():
            return None
        kernel = self._kernel
        if kernel is not None and kernel.fresh():
            return kernel
        if frontier_size < KERNEL_REBUILD_MIN_FRONTIER:
            return None
        return self._kernel_for()

    # ------------------------------------------------------------------

    def make_view(self, view_store: EquivalenceStore) -> EquivalenceView:
        """Wrap an (already restricted) store with the literal indexes."""
        return EquivalenceView(view_store, self.literals2, self.literals1)

    def _view(
        self, store: EquivalenceStore, assignments: Optional[tuple] = None
    ) -> EquivalenceView:
        """The view the passes read of ``store`` (Section 5.2
        restriction); ``assignments`` are the store's maximal
        assignments when known."""
        if self.config.restrict_to_maximal_assignment:
            store = store.restricted_to_maximal(assignments)
        return self.make_view(store)

    def _empty_state(self):
        """The pass state before the first pass, on this run's route."""
        kernel = self._kernel_for()
        if kernel is None:
            return StorePassState(EquivalenceStore(self.config.theta))
        return KernelPassState.empty(kernel, self.config.theta)

    def _pass_view(self, state) -> Union[EquivalenceView, KernelView]:
        """What the next passes read of ``state``."""
        view = state.view(self.config.restrict_to_maximal_assignment)
        return self.make_view(view) if isinstance(view, EquivalenceStore) else view

    def _instance_pass(
        self,
        view: Union[EquivalenceView, KernelView],
        rel12: SubsumptionMatrix[Relation],
        rel21: SubsumptionMatrix[Relation],
    ):
        """One instance pass, as a pass state: on the vectorized kernel
        (:meth:`VectorizedKernel.score_ids`), whose arrays list the
        pairs in the dict pass's emission order, or on the dict
        reference pass when the kernel is off (negative evidence)."""
        config = self.config
        kernel = self._kernel_for()
        if kernel is None:
            return StorePassState(
                instance_equivalence_pass(
                    self.ontology1,
                    self.ontology2,
                    view,
                    self.fun1,
                    self.fun2,
                    rel12,
                    rel21,
                    config.theta,
                    config.use_negative_evidence,
                )
            )
        with span("kernel.prepare"):
            prepared = kernel.prepare_pass(view, rel12, rel21)
        with span("kernel.score"):
            scored = kernel.score_ids(kernel.ordered_ids, prepared, config.theta)
        return KernelPassState(kernel, *scored, config.theta)

    def _relation_pass(
        self, view: Union[EquivalenceView, KernelView], reverse: bool = False
    ) -> SubsumptionMatrix[Relation]:
        """One direction of the relation pass: on the vectorized kernel
        wherever the instance pass uses it, on the dict reference
        otherwise (bit-identical either way)."""
        config = self.config
        first, second = (
            (self.ontology2, self.ontology1) if reverse else (self.ontology1, self.ontology2)
        )
        return parallel_subrelation_pass(
            first,
            second,
            view,
            truncation_threshold=config.theta,
            max_pairs=config.max_pairs_per_relation,
            reverse=reverse,
            bootstrap_theta=config.theta,
            kernel=self._kernel_for(),
        )

    def _class_pass(
        self, view: EquivalenceView, reverse: bool = False
    ) -> SubsumptionMatrix[Resource]:
        """One direction of the Eq. 17 class pass (dict code)."""
        config = self.config
        first, second = (
            (self.ontology2, self.ontology1) if reverse else (self.ontology1, self.ontology2)
        )
        return subclass_pass(
            first,
            second,
            view,
            truncation_threshold=config.theta,
            max_instances=config.max_pairs_per_relation,
            reverse=reverse,
        )

    def _score_frontier(
        self,
        ordered_dirty: List[Resource],
        view: EquivalenceView,
        rel12: SubsumptionMatrix[Relation],
        rel21: SubsumptionMatrix[Relation],
    ) -> List[Tuple[Resource, Resource, float]]:
        """Score a warm pass's dirty frontier (entries in input order).

        Routes to the kernel when it is fresh (or worth rebuilding);
        the dict path covers everything else bit-identically.
        """
        config = self.config
        kernel = self._warm_kernel(len(ordered_dirty))
        if kernel is None:
            return score_instances(
                ordered_dirty,
                self.ontology1,
                self.ontology2,
                view,
                self.fun1,
                self.fun2,
                rel12,
                rel21,
                config.theta,
                config.use_negative_evidence,
            )
        with span("kernel.prepare"):
            prepared = kernel.prepare_pass(view.store, rel12, rel21)
        with span("kernel.score"):
            scored = kernel.score_ids(kernel.ids_for(ordered_dirty), prepared, config.theta)
        with span("kernel.merge"):
            return kernel.entries_for(*scored)

    def _fixpoint(self, state, passes, relations, warm: bool = False):
        """Iterate the passes from ``state`` to the fixpoint (Section 5.1).

        One iteration runs each ``(name, step)`` of ``passes`` in a
        ``name`` span; a step maps the pass state (and its span) to the
        next.  ``relations()`` gives the relation matrices a snapshot
        records.  The stop decision comes from the config:

        * the paper's rule: fewer than ``convergence_threshold`` of the
          left instances changed their maximal assignment, or, under
          ``detect_cycles``, the assignment repeats the one two passes
          earlier (a period-2 oscillation between equally plausible
          matches);
        * numeric stationarity, under ``score_stationarity`` and always
          on the warm route: no score moved by more than
          ``warm_tolerance``.  Cold runs suspend the cycle checks here.
          Warm runs under ``detect_cycles`` also stop when the scores
          return to where they stood two passes earlier, or when the
          largest change sets no new minimum for
          :data:`WARM_STALL_WINDOW` passes (longer-period and
          intermittent limit cycles); a converging run trips neither.

        Returns ``(last state, converged, snapshots)``.
        """
        config = self.config
        stationarity = warm or config.score_stationarity
        limit = config.warm_max_iterations if warm else config.max_iterations
        # The snapshot chain's base: empty for a cold run, the pre-delta
        # assignments for a warm one.
        base12, base21 = state.assignments() if config.keep_snapshots else ({}, {})
        snapshots: List[IterationSnapshot] = []
        previous = two_ago = state
        best_change, stalled_passes = float("inf"), 0
        converged = False
        for iteration in range(1, limit + 1):
            started = time.perf_counter()
            for name, step in passes:
                with span(name, iteration=iteration) as pass_span:
                    state = step(state, pass_span)
            # A cold run's first pass has no estimate before it to compare.
            compared = warm or iteration > 1
            change = state.change_from(previous) if compared and not warm else None
            stop = False
            if not stationarity:
                stop = (change is not None and change < config.convergence_threshold) or (
                    config.detect_cycles and iteration > 2 and state.same_targets(two_ago)
                )
            elif compared:
                difference = state.max_difference(previous)
                stop = difference <= config.warm_tolerance
                if warm and config.detect_cycles and not stop:
                    if difference < best_change:
                        best_change, stalled_passes = difference, 0
                    else:
                        stalled_passes += 1
                    stop = stalled_passes >= WARM_STALL_WINDOW or state.scores_cycled(
                        previous, config.warm_tolerance
                    )
            duration = time.perf_counter() - started
            if config.keep_snapshots:
                delta12, delta21 = state.assignment_deltas(previous)
                relations12, relations21 = relations()
                head = not snapshots
                snapshots.append(
                    IterationSnapshot(
                        index=iteration,
                        duration_seconds=duration,
                        change_fraction=change,
                        num_equivalences=len(state),
                        assignment12_delta=delta12,
                        assignment21_delta=delta21,
                        relations12=relations12,
                        relations21=relations21,
                        previous=None if head else snapshots[-1],
                        base12=base12 if head else {},
                        base21=base21 if head else {},
                    )
                )
            two_ago, previous = previous, state
            if stop:
                converged = True
                break
        return state, converged, snapshots

    def align(self) -> AlignmentResult:
        """Run the fixpoint and return the full alignment."""
        config = self.config
        theta = config.theta
        # Bootstrap: Pr(r ⊆ r') = θ for all cross-ontology relation
        # pairs in the very first step (Section 5.1) — or the
        # name-informed prior if the Section 7 extension is enabled.
        if config.use_name_prior:
            from .priors import name_prior_matrix

            rel12: SubsumptionMatrix[Relation] = name_prior_matrix(
                self.ontology1, self.ontology2, theta, config.name_prior_max
            )
            rel21: SubsumptionMatrix[Relation] = name_prior_matrix(
                self.ontology2, self.ontology1, theta, config.name_prior_max
            )
        else:
            rel12 = SubsumptionMatrix.bootstrap(theta)
            rel21 = SubsumptionMatrix.bootstrap(theta)
        with root_span(
            "align.cold", instances=len(self.ontology1.instances)
        ) as profile:
            self._last_align_span = profile
            state = self._empty_state()
            view = self._pass_view(state)

            def instance_pass(state, pass_span):
                pass_span.annotate(frontier=len(self.ontology1.instances))
                return self._instance_pass(view, rel12, rel21).dampened(
                    state, config.dampening
                )

            def relation_pass(state, _pass_span):
                # Relation pass uses the fresh equivalences ("These two
                # steps are iterated until convergence", Section 5.1).
                # The second round uses the computed values and no longer
                # θ.  The view it reads also serves the next instance pass.
                nonlocal view, rel12, rel21
                view = self._pass_view(state)
                rel12 = self._relation_pass(view)
                rel21 = self._relation_pass(view, reverse=True)
                return state

            state, converged, snapshots = self._fixpoint(
                state,
                (("pass.instance", instance_pass), ("pass.relation", relation_pass)),
                lambda: (rel12, rel21),
            )
            # The run's dict objects, built once from the last state.
            store = state.to_store()
            assignment12, assignment21 = state.assignments()
            # Classes are aligned once, from the final assignment
            # (Section 4.3 / 5.1: "In a last step, the equivalences between
            # classes are computed by Equation (17)").
            view = self._view(store, (assignment12, assignment21))
            with span("pass.class"):
                classes12 = self._class_pass(view)
                classes21 = self._class_pass(view, reverse=True)
            return AlignmentResult(
                left_name=self.ontology1.name,
                right_name=self.ontology2.name,
                instances=store,
                assignment12=assignment12,
                assignment21=assignment21,
                relations12=rel12,
                relations21=rel21,
                classes12=classes12,
                classes21=classes21,
                converged=converged,
                iterations=snapshots,
            )

    # ------------------------------------------------------------------
    # warm-start fixpoint (incremental service mode)
    # ------------------------------------------------------------------

    def _instance_subjects(self, relation: Relation) -> Iterable[Resource]:
        """Instances with a ``relation``-statement (literal subjects of
        inverse relations are skipped — only instances get re-scored)."""
        return (
            subject
            for subject in self.ontology1.subjects(relation)
            if isinstance(subject, Resource)
        )

    def warm_align(
        self,
        store: EquivalenceStore,
        rel12_cache: IncrementalRelationPass,
        rel21_cache: IncrementalRelationPass,
        dirty_instances: Iterable[Resource] = (),
        seed_nodes1: Iterable[Node] = (),
        seed_nodes2: Iterable[Node] = (),
        delta_statements1: Iterable[Tuple[Relation, Node, Node]] = (),
        delta_statements2: Iterable[Tuple[Relation, Node, Node]] = (),
        view_maintainer: Optional[RestrictedViewMaintainer] = None,
        class12_cache: Optional[IncrementalClassPass] = None,
        class21_cache: Optional[IncrementalClassPass] = None,
    ) -> AlignmentResult:
        """Resume the fixpoint from a previous run's state after a delta.

        Parameters
        ----------
        store:
            The previous run's instance equivalences (iteration-0
            state).  Each pass folds its touched rows back into it, in
            place (O(frontier) per pass, no O(store) copy), and the
            result's ``instances`` is this store.  Pass a copy to keep
            the original.
        rel12_cache, rel21_cache:
            Incremental relation matrices built over the previous state
            (see :class:`repro.core.incremental.IncrementalRelationPass`);
            refreshed in place as the warm passes proceed.
        dirty_instances:
            Left instances whose scores must be recomputed — delta
            statement endpoints, 1-hop neighbours of changed literals,
            left equivalents of touched right nodes (the service's
            delta layer computes this frontier).  May include former
            instances that lost all statements; their rows are cleared.
        seed_nodes1, seed_nodes2:
            Left/right nodes whose *equivalents-view* changed at delta
            time without their own scores moving — literals with
            shifted candidate sets, and equivalents of touched
            opposite-side resources.  They seed the relation-cache
            refresh of the first pass.
        delta_statements1, delta_statements2:
            Applied data-statement changes ``(relation, subject,
            object)`` per ontology, for targeted relation-row updates.
        view_maintainer:
            A resident :class:`RestrictedViewMaintainer` over ``store``:
            the restricted view and both maximal assignments are then
            *updated* from the touched rows instead of rebuilt from all
            pairs.  ``None`` builds a fresh one.
        class12_cache, class21_cache:
            Resident :class:`~repro.core.subclasses.IncrementalClassPass`
            caches; when given, only class rows whose member rows moved
            are recomputed after the fixpoint.  ``None`` falls back to
            a full :func:`subclass_pass` per direction.

        Each pass refreshes the relation matrices incrementally, expands
        the frontier to the instances whose relation rows moved beyond
        ``config.warm_tolerance``, re-scores the frontier against the
        current view and commits exactly those rows as one
        :class:`~repro.core.pass_state.FrontierPassState` (through a
        copy-on-write :class:`~repro.core.store.OverlayStore`).  The
        next frontier is the 1-hop neighbourhood of whatever the pass
        moved.  The loop (:meth:`_fixpoint`) is the cold one, stopping
        at numeric stationarity, i.e. the criterion of a cold
        ``score_stationarity`` run — the reference this method is
        equality-tested against (``tests/test_warm_start.py``) — or on
        the score-level cycle checks under ``config.detect_cycles``.
        Falls back to full passes when the frontier exceeds
        ``config.warm_full_pass_fraction`` of the instances, when
        negative evidence is enabled (its penalty term reads arbitrary
        statements, defeating frontier tracking), or when a relation
        row's *default* flipped (which re-prices every unmatched
        relation pair at once).
        """
        with root_span("align.warm") as profile:
            self._last_align_span = profile
            config = self.config
            tolerance = config.warm_tolerance
            restrict = config.restrict_to_maximal_assignment
            maintainer = view_maintainer or RestrictedViewMaintainer(store)
            if maintainer.store is not store:
                raise ValueError("view_maintainer must maintain the store being warmed")
            view_store = maintainer.view_store if restrict else store
            dirty: Set[Resource] = set(dirty_instances)
            # Nodes whose view rows moved, in change-log order (dicts used
            # as sets): the order the relation caches refresh them in.
            changed_left: Dict[Node, None] = dict.fromkeys(seed_nodes1)
            changed_right: Dict[Node, None] = dict.fromkeys(seed_nodes2)
            pending12: Iterable[Tuple[Relation, Node, Node]] = list(delta_statements1)
            pending21: Iterable[Tuple[Relation, Node, Node]] = list(delta_statements2)
            # Members whose view rows moved at all (any non-zero change):
            # the exact invalidation set of the class-row caches.
            changed_members1: Set[Resource] = set()
            changed_members2: Set[Resource] = set()
            pairs_touched = 0

            def warm_pass(previous, pass_span):
                nonlocal dirty, changed_left, changed_right, pending12, pending21
                nonlocal pairs_touched
                view = self.make_view(view_store)
                changes12 = rel12_cache.refresh(view, changed_left, pending12)
                changes21 = rel21_cache.refresh(view, changed_right, pending21)
                pending12 = pending21 = ()
                full_pass = config.use_negative_evidence
                for relation, row_change in changes12.items():
                    # A left relation's row prices statements of exactly its
                    # subjects (Eq. 13 reads rel12[r, ·] and rel21[·, r]
                    # only for relations r of the instance being scored).
                    if row_change.max_delta > tolerance:
                        dirty.update(self._instance_subjects(relation))
                for _relation2, row_change in changes21.items():
                    if row_change.max_delta <= tolerance:
                        continue
                    if row_change.default_changed:
                        full_pass = True
                        continue
                    for relation in row_change.changed_supers:
                        dirty.update(self._instance_subjects(relation))
                instances = self.ontology1.instances
                if full_pass or len(dirty) >= config.warm_full_pass_fraction * len(instances):
                    dirty |= instances
                ordered_dirty = ordered_instances(dirty)
                pass_span.annotate(frontier=len(ordered_dirty))
                entries = self._score_frontier(
                    ordered_dirty, view, rel12_cache.matrix, rel21_cache.matrix
                )
                state = FrontierPassState(store, maintainer, restrict, ordered_dirty, entries)
                state = state.dampened(previous, config.dampening).commit()
                pairs_touched += state.pairs_touched
                changed_left = {}
                changed_right = {}
                for (left, right), (old_p, new_p) in state.log.items():
                    changed_members1.add(left)
                    changed_members2.add(right)
                    if abs(new_p - old_p) > tolerance:
                        changed_left[left] = None
                        changed_right[right] = None
                # Next frontier: 1-hop neighbourhood of every node whose
                # view row moved — their Eq. 13 inputs are now stale.
                dirty = {
                    other
                    for node in changed_left
                    for _relation, other in self.ontology1.statements_about(node)
                    if isinstance(other, Resource)
                }
                pass_span.annotate(max_change=round(state.max_difference(previous), 9))
                return state

            state, converged, snapshots = self._fixpoint(
                FrontierPassState(store, maintainer, restrict),
                (("pass.warm", warm_pass),),
                # Copies: the cache matrices keep mutating in place on
                # later passes (and later deltas).
                lambda: (rel12_cache.matrix.copy(), rel21_cache.matrix.copy()),
                warm=True,
            )
            final_view = self.make_view(view_store)
            if changed_left or changed_right:
                # Non-stationary exit (cycle break or iteration cap): the
                # last pass's view changes were never folded into the
                # relation caches.  Refresh now so the returned matrices —
                # and the caches a resident service reuses for the *next*
                # delta — reflect the final store, exactly as the batch
                # path recomputes its matrices after the last instance
                # pass.  (On a stationary exit both sets are empty.)
                rel12_cache.refresh(final_view, changed_left)
                rel21_cache.refresh(final_view, changed_right)
            with span("pass.class", incremental=class12_cache is not None):
                if class12_cache is not None:
                    class12_cache.invalidate_members(changed_members1)
                    classes12 = class12_cache.matrix(final_view)
                else:
                    classes12 = self._class_pass(final_view)
                if class21_cache is not None:
                    class21_cache.invalidate_members(changed_members2)
                    classes21 = class21_cache.matrix(final_view)
                else:
                    classes21 = self._class_pass(final_view, reverse=True)
            assignment12, assignment21 = state.assignments()
            return AlignmentResult(
                left_name=self.ontology1.name,
                right_name=self.ontology2.name,
                instances=store,
                assignment12=assignment12,
                assignment21=assignment21,
                relations12=rel12_cache.matrix,
                relations21=rel21_cache.matrix,
                classes12=classes12,
                classes21=classes21,
                converged=converged,
                iterations=snapshots,
                pairs_touched=pairs_touched,
            )


def align(
    ontology1: Ontology,
    ontology2: Ontology,
    config: Optional[ParisConfig] = None,
) -> AlignmentResult:
    """Convenience wrapper: ``ParisAligner(o1, o2, config).align()``."""
    return ParisAligner(ontology1, ontology2, config).align()
