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
held bit-identical to (``tests/test_vectorized.py``).  Between passes
the cold loop reads one pass state (:mod:`repro.core.pass_state`): on
the kernel route the kernel's id arrays, so no dict store is built
until the run ends.  The class pass (Eq. 17) runs the dict code.  The
paper runs its passes "in parallel on all available processors"
(Section 5.1); a worker pool did so here until it measured below 1.2x
on every recorded run (``docs/architecture.md``).

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
run reaches, at a fraction of the work for small deltas.
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
from .incremental import (
    IncrementalRelationPass,
    RestrictedViewMaintainer,
    current_assignments,
)
from .literal_index import LiteralIndex
from .matrix import SubsumptionMatrix
from .pass_state import KernelPassState, StorePassState
from .result import AlignmentResult, IterationSnapshot
from .store import EquivalenceStore
from .subclasses import IncrementalClassPass, subclass_pass
from .subrelations import parallel_subrelation_pass
from .vectorized import KernelView, VectorizedKernel
from .view import EquivalenceView

#: Warm passes without a new minimum per-pass change before the loop
#: declares a limit cycle (see :meth:`ParisAligner.warm_align`).  A
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
        snapshots: List[IterationSnapshot] = []
        converged = False
        with root_span(
            "align.cold", instances=len(self.ontology1.instances)
        ) as profile:
            self._last_align_span = profile
            # The state of the previous pass and of the one before (the
            # period-2 cycle check); all of them start empty.
            state = previous = two_ago = self._empty_state()
            view = self._pass_view(state)
            for iteration in range(1, config.max_iterations + 1):
                started = time.perf_counter()
                with span(
                    "pass.instance",
                    iteration=iteration,
                    frontier=len(self.ontology1.instances),
                ):
                    state = self._instance_pass(view, rel12, rel21).dampened(
                        state, config.dampening
                    )
                change = state.change_from(previous) if iteration > 1 else None
                stationary = (
                    config.score_stationarity
                    and iteration > 1
                    and state.max_difference(previous) <= config.warm_tolerance
                )
                cycle = (
                    config.detect_cycles
                    and not config.score_stationarity
                    and iteration > 2
                    and state.same_targets(two_ago)
                )
                # Relation pass uses the fresh equivalences ("These two
                # steps are iterated until convergence", Section 5.1).  The
                # second round uses the computed values and no longer θ.
                # The view it reads also serves the next instance pass.
                with span("pass.relation", iteration=iteration):
                    view = self._pass_view(state)
                    rel12 = self._relation_pass(view)
                    rel21 = self._relation_pass(view, reverse=True)
                duration = time.perf_counter() - started
                if config.keep_snapshots:
                    delta12, delta21 = state.assignment_deltas(previous)
                    snapshots.append(
                        IterationSnapshot(
                            index=iteration,
                            duration_seconds=duration,
                            change_fraction=change,
                            num_equivalences=len(state),
                            assignment12_delta=delta12,
                            assignment21_delta=delta21,
                            relations12=rel12,
                            relations21=rel21,
                            previous=snapshots[-1] if snapshots else None,
                        )
                    )
                two_ago, previous = previous, state
                if config.score_stationarity:
                    # Numeric stationarity replaces both the assignment
                    # criterion and cycle detection (warm-start reference
                    # mode; see the config docstring).
                    if stationary:
                        converged = True
                        break
                    continue
                if change is not None and change < config.convergence_threshold:
                    converged = True
                    break
                if cycle:
                    # Period-2 oscillation between equally plausible
                    # matches: the fixpoint will not settle further.
                    converged = True
                    break
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
        mutate_store: bool = False,
    ) -> AlignmentResult:
        """Resume the fixpoint from a previous run's state after a delta.

        Parameters
        ----------
        store:
            The previous run's instance equivalences (iteration-0
            state).  Copied up front unless ``mutate_store`` is set; the
            result's ``instances`` is the working store either way.
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
            A resident :class:`RestrictedViewMaintainer` over ``store``
            (requires ``mutate_store=True``): the restricted view is
            then *updated* from the touched rows instead of rebuilt
            from all pairs each pass.  ``None`` builds a fresh one.
        class12_cache, class21_cache:
            Resident :class:`~repro.core.subclasses.IncrementalClassPass`
            caches; when given, only class rows whose member rows moved
            are recomputed after the fixpoint.  ``None`` falls back to
            a full :func:`subclass_pass` per direction.
        mutate_store:
            Fold each pass's touched rows back into ``store`` itself
            (O(frontier) per pass, no O(store) copy).  The resident
            service sets this; one-shot callers keep the default, which
            copies once up front.

        Each pass re-scores the dirty frontier against the current
        view and replaces exactly those rows **through a copy-on-write
        overlay** (:class:`~repro.core.store.OverlayStore`): the store
        copy, the restricted-view rebuild and the store diff of earlier
        revisions are all replaced by O(frontier) work on the touched
        rows.  The relation matrices refresh incrementally, then the
        frontier expands to the 1-hop neighbourhood of whatever changed
        beyond ``config.warm_tolerance``.  Convergence is numeric
        stationarity, i.e. the same criterion as a cold
        ``score_stationarity`` run — which is the reference this method
        is equality-tested against (``tests/test_warm_start.py``).
        Falls back to full passes when the frontier exceeds
        ``config.warm_full_pass_fraction`` of the instances, when
        negative evidence is enabled (its penalty term reads arbitrary
        statements, defeating frontier tracking), or when a relation
        row's *default* flipped (which re-prices every unmatched
        relation pair at once).

        On noisy inputs whose fixpoint oscillates (the case the batch
        path's cycle detection handles), stationarity never arrives;
        with ``config.detect_cycles`` the warm loop stops early on two
        signals, both at the *score* level (scores can oscillate under
        a perfectly stable maximal assignment, so the batch path's
        assignment check is not enough):

        * a period-2 cycle — the view store returns to where it stood
          two passes earlier (within ``warm_tolerance``), checked over
          the last two passes' change logs instead of a full diff;
        * a stall — the per-pass maximum change fails to set a new
          minimum for :data:`WARM_STALL_WINDOW` consecutive passes,
          which catches longer-period and intermittent limit cycles.

        A genuinely converging run trips neither: its changes shrink
        (near-)geometrically until the stationarity criterion fires.
        """
        with root_span("align.warm") as profile:
            self._last_align_span = profile
            config = self.config
            theta = config.theta
            tolerance = config.warm_tolerance
            force_full = config.use_negative_evidence
            dirty: Set[Resource] = set(dirty_instances)
            changed_left: Set[Node] = set(seed_nodes1)
            changed_right: Set[Node] = set(seed_nodes2)
            pending12: Iterable[Tuple[Relation, Node, Node]] = list(delta_statements1)
            pending21: Iterable[Tuple[Relation, Node, Node]] = list(delta_statements2)
            working = store if mutate_store else store.copy()
            maintainer: Optional[RestrictedViewMaintainer] = None
            if config.restrict_to_maximal_assignment:
                maintainer = view_maintainer or RestrictedViewMaintainer(working)
                if maintainer.store is not working:
                    raise ValueError(
                        "view_maintainer must maintain the store being warmed "
                        "(pass mutate_store=True for a resident maintainer)"
                    )
                view_store = maintainer.view_store
            else:
                view_store = working
            snapshots: List[IterationSnapshot] = []
            # Snapshot chain base: the pre-delta assignments.  Each pass's
            # snapshot then stores only its assignment delta, so a resident
            # service with keep_snapshots on pays O(frontier) per pass, not
            # O(matched) copies.
            snap_prev12: Dict[Resource, Tuple[Resource, float]] = {}
            snap_prev21: Dict[Resource, Tuple[Resource, float]] = {}
            if config.keep_snapshots:
                snap_prev12, snap_prev21 = current_assignments(maintainer, working)
            previous_log: Optional[Dict[Tuple[Resource, Resource], Tuple[float, float]]] = None
            # Members whose view rows moved at all (any non-zero change):
            # the exact invalidation set of the class-row caches.
            changed_members1: Set[Resource] = set()
            changed_members2: Set[Resource] = set()
            pairs_touched = 0
            best_change = float("inf")
            stalled_passes = 0
            converged = False
            for iteration in range(1, config.warm_max_iterations + 1):
                started = time.perf_counter()
                with span("pass.warm", iteration=iteration) as pass_span:
                    view = self.make_view(view_store)
                    changes12 = rel12_cache.refresh(view, changed_left, pending12)
                    changes21 = rel21_cache.refresh(view, changed_right, pending21)
                    pending12 = pending21 = ()
                    full_pass = force_full
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
                    if full_pass or len(dirty) >= config.warm_full_pass_fraction * len(
                        instances
                    ):
                        dirty |= instances
                    ordered_dirty = ordered_instances(dirty)
                    # The frontier is only known after expansion — annotate
                    # late so the span line still carries it.
                    pass_span.annotate(frontier=len(ordered_dirty))
                    entries = self._score_frontier(
                        ordered_dirty, view, rel12_cache.matrix, rel21_cache.matrix
                    )
                    overlay = working.overlay()
                    for x in ordered_dirty:
                        overlay.clear_left(x)
                    if config.dampening > 0.0:
                        self._blend_rows(working, overlay, ordered_dirty, entries)
                    else:
                        overlay.update(entries)
                    # View maintenance replaces the old full restricted-view
                    # rebuild + full store diff: only the touched rows (and the
                    # rights they mention) are reconsidered.
                    if maintainer is not None:
                        view_changes = maintainer.apply(overlay)
                    else:
                        view_changes = {
                            (left, right): (old, new)
                            for left, right, old, new in overlay.row_changes()
                        }
                    pairs_touched += overlay.pairs_touched + len(view_changes)
                    max_change = 0.0
                    changed_left = set()
                    changed_right = set()
                    for (left, right), (old_p, new_p) in view_changes.items():
                        delta = abs(new_p - old_p)
                        max_change = max(max_change, delta)
                        changed_members1.add(left)
                        changed_members2.add(right)
                        if delta > tolerance:
                            changed_left.add(left)
                            changed_right.add(right)
                    # Next frontier: 1-hop neighbourhood of every node whose
                    # view row moved — their Eq. 13 inputs are now stale.
                    dirty = set()
                    for node in changed_left:
                        for _relation, other in self.ontology1.statements_about(node):
                            if isinstance(other, Resource):
                                dirty.add(other)
                    working = overlay.commit()
                    pass_span.annotate(max_change=round(max_change, 9))
                duration = time.perf_counter() - started
                if max_change < best_change:
                    best_change = max_change
                    stalled_passes = 0
                else:
                    stalled_passes += 1
                cycle = config.detect_cycles and (
                    stalled_passes >= WARM_STALL_WINDOW
                    or (
                        previous_log is not None
                        and self._view_cycled(
                            previous_log, view_changes, view_store, tolerance
                        )
                    )
                )
                previous_log = view_changes
                if config.keep_snapshots:
                    assignment12, assignment21 = current_assignments(maintainer, working)
                    snapshots.append(
                        IterationSnapshot.capture(
                            index=iteration,
                            duration_seconds=duration,
                            change_fraction=None,
                            num_equivalences=len(working),
                            assignment12=assignment12,
                            assignment21=assignment21,
                            # Copies: the cache matrices keep mutating in
                            # place on later passes (and later deltas).
                            relations12=rel12_cache.matrix.copy(),
                            relations21=rel21_cache.matrix.copy(),
                            previous=snapshots[-1] if snapshots else None,
                            previous12=snap_prev12,
                            previous21=snap_prev21,
                        )
                    )
                    snap_prev12, snap_prev21 = assignment12, assignment21
                if max_change <= tolerance:
                    converged = True
                    break
                if cycle:
                    # Oscillation between equally plausible states:
                    # stationarity will never arrive (the same situation
                    # the batch path's cycle detection stops).
                    converged = True
                    break
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
            final_assignment12, final_assignment21 = current_assignments(maintainer, working)
            return AlignmentResult(
                left_name=self.ontology1.name,
                right_name=self.ontology2.name,
                instances=working,
                assignment12=final_assignment12,
                assignment21=final_assignment21,
                relations12=rel12_cache.matrix,
                relations21=rel21_cache.matrix,
                classes12=classes12,
                classes21=classes21,
                converged=converged,
                iterations=snapshots,
                pairs_touched=pairs_touched,
            )

    @staticmethod
    def _view_cycled(
        previous_log: Dict[Tuple[Resource, Resource], Tuple[float, float]],
        current_log: Dict[Tuple[Resource, Resource], Tuple[float, float]],
        view_store: EquivalenceStore,
        tolerance: float,
    ) -> bool:
        """Period-2 check from change logs: is the (already updated)
        view within ``tolerance`` of where it stood two passes ago?
        Entries outside both logs did not move in either pass, so the
        union of logged keys carries the whole difference."""
        for key in previous_log.keys() | current_log.keys():
            if key in previous_log:
                two_ago = previous_log[key][0]
            else:
                two_ago = current_log[key][0]
            left, right = key
            if abs(view_store.get(left, right) - two_ago) > tolerance:
                return False
        return True

    def _blend_rows(
        self,
        old_store: EquivalenceStore,
        new_store,
        dirty: List[Resource],
        entries: List[Tuple[Resource, Resource, float]],
    ) -> None:
        """Dampening for re-scored rows only.

        An untouched row blends to itself (``f·p + (1−f)·p = p``), so
        the warm pass only needs to blend the rows it replaced.
        ``new_store`` is the pass's working store — an
        :class:`~repro.core.store.OverlayStore` in the warm loop.
        """
        factor = self.config.dampening
        fresh: Dict[Resource, Dict[Resource, float]] = {}
        for left, right, probability in entries:
            fresh.setdefault(left, {})[right] = probability
        for left in dirty:
            old_row = old_store.equals_of(left)
            new_row = fresh.get(left, {})
            for right in old_row.keys() | new_row.keys():
                blended = factor * old_row.get(right, 0.0) + (1.0 - factor) * new_row.get(
                    right, 0.0
                )
                if blended >= new_store.truncation_threshold:
                    new_store.set(left, right, blended)


def align(
    ontology1: Ontology,
    ontology2: Ontology,
    config: Optional[ParisConfig] = None,
) -> AlignmentResult:
    """Convenience wrapper: ``ParisAligner(o1, o2, config).align()``."""
    return ParisAligner(ontology1, ontology2, config).align()
