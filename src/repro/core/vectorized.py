"""Interned-ID vectorized kernel for Eq. 13 and Eq. 12.

The dict passes in :mod:`repro.core.equivalence` (Eq. 13) and
:mod:`repro.core.subrelations` (Eq. 12) walk the optimized Section 5.2
traversals one Python statement at a time.  This module freezes the
same traversals into flat numpy arrays so a whole pass runs as a
handful of vectorized gathers:

* **Interning** — every node with a data statement gets a dense integer
  id per ontology (:meth:`Ontology.nodes_with_statements` order), every
  relation (inverses included) likewise.
* **Static CSR** — per ontology, the ``statements_about`` adjacency is
  stored as ``indptr``/``rel``/``other`` arrays frozen in the *exact*
  iteration order of the dict traversal.  The right ontology's CSR
  keeps only resource-valued "other" slots (the dict path skips literal
  ``x'`` candidates).  Functionality vectors are indexed by relation
  id.  All of this is rebuilt only when :attr:`Ontology.version` moves.
* **Per-pass arrays** — a pass reads the previous iteration's view as
  a :class:`KernelView`: id-array rows in both directions, which the
  cold fixpoint builds from the previous pass's arrays
  (:mod:`repro.core.pass_state`) and :meth:`VectorizedKernel.lower_rows`
  builds from a dict store (the warm path's view).
  :meth:`VectorizedKernel.prepare_pass` joins its forward rows with the
  clamped literal candidates into one candidate CSR and lowers the two
  relation matrices into dense ``[sub_id, super_id]`` grids honouring
  per-sub defaults.
* **Eq. 12** — :meth:`VectorizedKernel.relation_scores` scores one
  direction of the relation pass.  Its static arrays, built once per
  direction and ``max_pairs`` cap, are the capped statements of each
  relation in :meth:`Ontology.pairs` order and a sorted
  ``(x', y') → r'`` match table over the other ontology (``r'`` in
  ``relations_of(x')`` order, literal objects kept).  Per pass the
  view's rows of that direction plus the literal candidates become a
  candidate CSR that, unlike the Eq. 13 one, keeps statement-less
  candidates: they match nothing but still count in the Eq. 12
  denominator.  :meth:`VectorizedKernel.relation_terms` stops before
  the scores, at the per-statement terms and their sums, which a
  service attach reads into its relation caches.

Bit-exactness with the dict path
--------------------------------
The kernel reproduces the dict engine's floats *bit for bit*, which is
what lets the aligner mix it with the dict passes (negative evidence,
small warm frontiers) without disturbing any equality guarantee:

* every factor is computed by the same left-to-right IEEE operations
  (``1 - (s·fun⁻¹)·p``) element-wise, with the same ``> 0`` guards;
* per ``(x, x')`` products fold factors in traversal order via
  ``np.multiply.reduceat`` over a stable sort — the same grouping of
  multiplications as the sequential loop;
* the dict path's running clamp ``max(product·factor, 1e-12)`` is
  equivalent to clamping once at the end: factors lie in ``[0, 1)``
  (factors ``>= 1`` are skipped), so the product sequence is
  non-increasing and the first dip below the clamp is also the final
  unclamped value — once clamped, ``max(1e-12·f, 1e-12)`` stays at
  exactly ``1e-12`` forever.  ``np.maximum(product, 1e-12)`` therefore
  yields the identical float;
* candidates are emitted in first-touch traversal order per instance,
  so downstream stores fill in the same insertion order (later passes
  accumulate floats over store dict order);
* Eq. 12 expands statement × x-candidates × y-candidates in the dict
  loop's nested order, folds each statement's denominator and matched
  products with ``np.multiply.reduceat``, and sums per ``(r, r')`` with
  ``np.bincount(weights=…)``, which adds sequentially in statement
  order; rows come out in relation order with ``r'`` in first-touch
  order, so the matrix fills exactly like
  :func:`~repro.core.subrelations.subrelation_pass`.

``tests/test_vectorized.py`` asserts the equality property.  numpy is a
declared requirement of the package.  Negative evidence (Eq. 14) stays
on the dict path: its penalty term reads arbitrary statements and is
applied per surviving candidate by the caller.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..rdf.ontology import Ontology
from ..rdf.terms import Literal, Node, Relation, Resource
from .equivalence import _MIN_FACTOR, ordered_instances
from .functionality import FunctionalityOracle
from .literal_index import LiteralIndex
from .matrix import SubsumptionMatrix
from .store import EquivalenceStore
from .view import EquivalenceView

#: Target number of innermost (level-3) expansion entries per chunk;
#: bounds the transient flat arrays to tens of MB regardless of corpus
#: size or hub fan-in.
CHUNK_BUDGET = 2_000_000


def _ragged(starts, counts):
    """Flat gather positions for ragged rows ``[starts[i], starts[i]+counts[i])``.

    Returns ``(positions, segment_ids)`` where ``segment_ids[k]`` is the
    row index that produced ``positions[k]``; concatenation order is row
    order — exactly the nested-loop visitation order of the dict path.
    """
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    seg = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    prefix = np.cumsum(counts) - counts
    pos = starts[seg] + (np.arange(total, dtype=np.int64) - prefix[seg])
    return pos, seg


def _budget_bounds(cost):
    """Contiguous ``(lo, hi)`` row ranges of at most ``CHUNK_BUDGET``
    total ``cost`` each (a row costlier than the budget gets its own)."""
    if len(cost) == 0:
        return []
    cumulative = np.cumsum(cost)
    total = int(cumulative[-1])
    if total <= CHUNK_BUDGET:
        return [(0, len(cost))]
    bounds = [0]
    target = CHUNK_BUDGET
    while target < total:
        cut = int(np.searchsorted(cumulative, target, side="left")) + 1
        if cut <= bounds[-1]:
            cut = bounds[-1] + 1
        if cut >= len(cost):
            break
        bounds.append(cut)
        target = int(cumulative[cut - 1]) + CHUNK_BUDGET
    bounds.append(len(cost))
    return list(zip(bounds[:-1], bounds[1:]))


def _csr_subset(indptr, keep):
    """The ``indptr`` of a CSR once the slots where ``keep`` is false go."""
    rows = len(indptr) - 1
    owner = np.repeat(np.arange(rows, dtype=np.int64), np.diff(indptr))
    subset = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep], minlength=rows), out=subset[1:])
    return subset


def _literal_csr(table, literals: LiteralIndex, targets: Dict[Node, int]):
    """Clamped candidates of each literal of ``table`` (resources get
    none) as ``(indptr, ids, probs)``; ids index ``targets``, with
    ``len(targets)`` standing for a candidate without statements."""
    missing = len(targets)
    indptr = [0]
    ids: List[int] = []
    probs: List[float] = []
    for node in table:
        if isinstance(node, Literal):
            for candidate, probability in literals.candidates(node):
                ids.append(targets.get(candidate, missing))
                probs.append(probability)
        indptr.append(len(ids))
    return (
        np.array(indptr, dtype=np.int64),
        np.array(ids, dtype=np.int64),
        np.array(probs, dtype=np.float64),
    )


def _statement_csr(ontology: Ontology, table, relations, nodes):
    """``(indptr, rel, other)`` of every node of ``table``'s data
    statements, in :meth:`Ontology.statements_about` order; relations
    and nodes as their ids in ``relations`` and ``nodes``."""
    indptr = [0]
    rel: List[int] = []
    other: List[int] = []
    for node in table:
        for relation, obj in ontology.statements_about(node):
            rel.append(relations[relation])
            other.append(nodes[obj])
        indptr.append(len(rel))
    return (
        np.array(indptr, dtype=np.int64),
        np.array(rel, dtype=np.int64),
        np.array(other, dtype=np.int64),
    )


def _group_starts(sorted_keys):
    """Start index of each run of equal values in ``sorted_keys``."""
    return np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))


def _rows(owner, other, probs, entries, size):
    """``(starts, counts, ids, probs)`` rows over ``size`` owner ids:
    each owner's ``other``/``probs`` in ``entries`` order."""
    owners = owner[entries]
    order = entries[np.argsort(owners, kind="stable")]
    counts = np.bincount(owners, minlength=size)
    return np.cumsum(counts) - counts, counts, other[order], probs[order]


def _name_ranks(table) -> np.ndarray:
    """Rank of each node's name in Python ``str`` order: the tie rule
    of :func:`~repro.core.store.best_counterpart` as an array.
    Literals, which never enter an assignment, rank as the empty name."""
    names = [node.name if isinstance(node, Resource) else "" for node in table]
    ranks = np.empty(len(names), dtype=np.int64)
    ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return ranks


class KernelView:
    """One pass's view of the instance equivalences as kernel id rows.

    :meth:`rows` gives ``(starts, counts, ids, probs)`` for one
    direction: forward, over left node ids, each left's right
    counterparts; backward, over right node ids, each right's left
    ones.  Row ``i`` is ``ids[starts[i]:starts[i] + counts[i]]`` in the
    order the equivalent dict view's row yields them, which is the
    order the passes fold floats in.  A counterpart without statements
    reads as the other side's node count.
    """

    __slots__ = ("forward", "backward")

    def __init__(self, forward, backward) -> None:
        self.forward = forward
        self.backward = backward

    def rows(self, reverse: bool = False):
        return self.backward if reverse else self.forward


#: What the kernel passes read: kernel rows, or a dict view or store
#: that :meth:`VectorizedKernel.lower_rows` lowers first.
ViewInput = Union[KernelView, EquivalenceView, EquivalenceStore]


class PreparedPass:
    """Per-pass candidate CSR + dense relation grids: small arrays
    proportional to the matched pairs and literal candidates, never to
    the ontologies."""

    __slots__ = (
        "view_starts",
        "view_counts",
        "flat_ids",
        "flat_probs",
        "m12",
        "m21",
        "level3_cost",
    )

    def __init__(self, view_starts, view_counts, flat_ids, flat_probs, m12, m21, level3_cost):
        self.view_starts = view_starts
        self.view_counts = view_counts
        self.flat_ids = flat_ids
        self.flat_probs = flat_probs
        self.m12 = m12
        self.m21 = m21
        self.level3_cost = level3_cost


class RelationSide:
    """Static Eq. 12 arrays of one direction (sub side → super side).

    ``stmt_rel``/``stmt_x``/``stmt_y`` are the first ``max_pairs``
    statements of each sub relation in :meth:`Ontology.pairs` order
    (relations in registration order), relation ``r``'s statements at
    ``stmt_indptr[r]:stmt_indptr[r + 1]``; ``lit_*`` is the CSR of every
    sub-side literal's clamped candidates, ``len(super_nodes)`` standing
    in for a candidate without statements; ``match_*`` is the
    ``(x', y') → r'`` table of the super side, keys ``x'·width + y'``
    sorted, each key's ``r'`` in ``relations_of(x')`` order.
    """

    __slots__ = (
        "sub_table",
        "sub_nodes",
        "sub_node_table",
        "super_table",
        "super_nodes",
        "width",
        "stmt_rel",
        "stmt_indptr",
        "stmt_x",
        "stmt_y",
        "lit_indptr",
        "lit_ids",
        "lit_probs",
        "match_keys",
        "match_start",
        "match_count",
        "match_rel",
    )


class RelationTerms:
    """One direction of Eq. 12 before its reduction to scores.

    ``den_terms[s]`` is statement ``s``'s denominator term (0.0 when no
    counterpart pair has a positive probability) over the statements of
    ``side``; ``num_stmt``/``num_sup``/``num_terms`` are its numerator
    terms ``(s, r', 1 − ∏)``, statement by statement, each statement's
    ``r'`` in first-touch order — the order of the dicts
    :func:`~repro.core.subrelations.statement_terms` returns.
    ``denominators[r]`` sums relation ``r``'s statements in statement
    order, and ``row_sub``/``row_sup``/``numerators`` are the ``(r, r')``
    sums, rows in relation order and each ``r'`` in first-touch order:
    the running sums of the dict sweep, bit for bit.
    """

    __slots__ = (
        "side",
        "den_terms",
        "num_stmt",
        "num_sup",
        "num_terms",
        "denominators",
        "row_sub",
        "row_sup",
        "numerators",
    )


class VectorizedKernel:
    """Frozen statement arrays for one ontology pair (one `version` each).

    Built by :class:`~repro.core.aligner.ParisAligner` for every run
    without negative evidence, and rebuilt when an ontology version
    moves.
    """

    def __init__(
        self,
        ontology1: Ontology,
        ontology2: Ontology,
        fun1: FunctionalityOracle,
        fun2: FunctionalityOracle,
        literals_of_right: LiteralIndex,
        literals_of_left: LiteralIndex,
    ) -> None:
        self.ontology1 = ontology1
        self.ontology2 = ontology2
        self.versions = (ontology1.version, ontology2.version)
        self.literals_of_right = literals_of_right
        self.literals_of_left = literals_of_left
        #: Eq. 12 static arrays per ``(reverse, max_pairs)``, built on
        #: the first relation pass that needs them.
        self._relation_sides: Dict[Tuple[bool, int], RelationSide] = {}

        # -- node interners (iteration order of nodes_with_statements) --
        self.nodes1: Dict[Node, int] = {}
        self.table1: List[Node] = []
        for node in ontology1.nodes_with_statements():
            self.nodes1[node] = len(self.table1)
            self.table1.append(node)
        self.nodes2: Dict[Node, int] = {}
        self.table2: List[Node] = []
        for node in ontology2.nodes_with_statements():
            self.nodes2[node] = len(self.table2)
            self.table2.append(node)
        self.n1 = len(self.table1)
        self.n2 = len(self.table2)

        # -- relation interners (both directions carry statements) -----
        self.rels1: Dict[Relation, int] = {}
        self.rel_table1: List[Relation] = []
        for relation in ontology1.relations(include_inverses=True):
            self.rels1[relation] = len(self.rel_table1)
            self.rel_table1.append(relation)
        self.rels2: Dict[Relation, int] = {}
        self.rel_table2: List[Relation] = []
        for relation in ontology2.relations(include_inverses=True):
            self.rels2[relation] = len(self.rel_table2)
            self.rel_table2.append(relation)
        self.inv2 = np.array(
            [self.rels2[relation.inverse] for relation in self.rel_table2],
            dtype=np.int64,
        )

        # -- functionality vectors indexed by relation id ---------------
        self.inv_fun1 = np.array(
            fun1.inverse_fun_values(self.rel_table1), dtype=np.float64
        )
        self.inv_fun2 = np.array(
            fun2.inverse_fun_values(self.rel_table2), dtype=np.float64
        )

        # -- outer CSR: statements_about order, left ontology -----------
        self.indptr1, self.stmt_rel1, self.stmt_other1 = _statement_csr(
            ontology1, self.table1, self.rels1, self.nodes1
        )

        # -- the same CSR of the right side (Eq. 12 reads all of it) ----
        self.all_indptr2, self.all_rel2, self.all_other2 = _statement_csr(
            ontology2, self.table2, self.rels2, self.nodes2
        )

        # -- inner CSR: resource-valued statements of the right side ----
        # (the dict path skips literal x' candidates)
        self.is_literal2 = np.array(
            [isinstance(node, Literal) for node in self.table2], dtype=bool
        )
        resource = ~self.is_literal2[self.all_other2]
        indptr2 = _csr_subset(self.all_indptr2, resource)
        # one more empty row: id n2 stands for a candidate without
        # statements, which scores nothing
        self.indptr2 = np.append(indptr2, indptr2[-1])
        self.stmt_rel2 = self.all_rel2[resource]
        self.stmt_other2 = self.all_other2[resource]

        # -- clamped literal candidates (static for the whole run) ------
        # Eq. 12's forward side keeps the statement-less ones too.
        self._literal_csr1 = _literal_csr(self.table1, literals_of_right, self.nodes2)
        lit_indptr, lit_ids, lit_probs = self._literal_csr1
        known = lit_ids < self.n2  # no statements -> no Eq. 13 contribution
        self.lit_indptr = _csr_subset(lit_indptr, known)
        self.lit_ids = lit_ids[known]
        self.lit_probs = lit_probs[known]
        self.lit_counts = self.lit_indptr[1:] - self.lit_indptr[:-1]
        self.is_literal1 = np.array(
            [isinstance(node, Literal) for node in self.table1], dtype=bool
        )

        # -- canonical full-pass traversal (sorted instance order) ------
        self.ordered_nodes: List[Resource] = ordered_instances(ontology1.instances)
        self.ordered_ids = self.ids_for(self.ordered_nodes)

    # ------------------------------------------------------------------

    def fresh(self) -> bool:
        """Whether the frozen arrays still match the ontologies."""
        return self.versions == (self.ontology1.version, self.ontology2.version)

    def ids_for(self, instances: Sequence[Resource]):
        """Interned ids of ``instances`` (-1 for statement-less ones)."""
        nodes1 = self.nodes1
        return np.array(
            [nodes1.get(instance, -1) for instance in instances], dtype=np.int64
        )

    @cached_property
    def name_rank1(self) -> np.ndarray:
        """Name rank of each left node (see :func:`_name_ranks`)."""
        return _name_ranks(self.table1)

    @cached_property
    def name_rank2(self) -> np.ndarray:
        """Name rank of each right node."""
        return _name_ranks(self.table2)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def view_of(self, x, xp, probs, entries) -> KernelView:
        """The :class:`KernelView` of the pairs ``(x[e], xp[e], probs[e])``
        for ``e`` in ``entries``; each row keeps ``entries`` order."""
        return KernelView(
            _rows(x, xp, probs, entries, self.n1), _rows(xp, x, probs, entries, self.n2)
        )

    def lower_rows(self, store: EquivalenceStore, reverse: bool = False):
        """One direction of a dict store's rows as :meth:`KernelView.rows`
        arrays, each row in its dict order.  Rows of nodes without
        statements are dropped (the passes never read them);
        counterparts without statements read as the other side's node
        count."""
        if reverse:
            sub_index, super_index, size, missing = self.nodes2, self.nodes1, self.n2, self.n1
        else:
            sub_index, super_index, size, missing = self.nodes1, self.nodes2, self.n1, self.n2
        subs: List[int] = []
        lengths: List[int] = []
        ids: List[int] = []
        probs: List[float] = []
        for node, row in store.rows(reverse):
            sub = sub_index.get(node)
            if sub is None:
                continue
            subs.append(sub)
            lengths.append(len(row))
            ids.extend([super_index.get(candidate, missing) for candidate in row])
            probs.extend(row.values())
        subs_a = np.array(subs, dtype=np.int64)
        lengths_a = np.array(lengths, dtype=np.int64)
        starts = np.zeros(size, dtype=np.int64)
        counts = np.zeros(size, dtype=np.int64)
        starts[subs_a] = np.cumsum(lengths_a) - lengths_a
        counts[subs_a] = lengths_a
        return (
            starts,
            counts,
            np.array(ids, dtype=np.int64),
            np.array(probs, dtype=np.float64),
        )

    def _view_rows(self, view: ViewInput, reverse: bool):
        if isinstance(view, KernelView):
            return view.rows(reverse)
        if isinstance(view, EquivalenceView):
            view = view.store
        return self.lower_rows(view, reverse)

    # ------------------------------------------------------------------

    def prepare_pass(
        self,
        view: ViewInput,
        rel12: SubsumptionMatrix[Relation],
        rel21: SubsumptionMatrix[Relation],
    ) -> PreparedPass:
        """Lower one pass's view + relation matrices to arrays.

        The candidate CSR concatenates the static literal-candidate
        arrays with the view's forward rows (each in its row order, so
        the factor fold visits candidates exactly as
        ``view.equivalents`` yields them).
        """
        n1 = self.n1
        row_starts, row_counts, row_ids, row_probs = self._view_rows(view, False)
        offset = len(self.lit_ids)
        flat_ids = np.concatenate((self.lit_ids, row_ids))
        flat_probs = np.concatenate((self.lit_probs, row_probs))
        view_starts = np.where(self.is_literal1, self.lit_indptr[:-1], offset + row_starts)
        view_counts = np.where(self.is_literal1, self.lit_counts, row_counts)

        m12 = self._dense(rel12, self.rel_table1, self.rels2, len(self.rel_table2))
        m21 = self._dense(rel21, self.rel_table2, self.rels1, len(self.rel_table1))

        # Projected level-3 work per left node, for instance chunking:
        # cost(x) = sum over statements (r, y) of sum over candidates y'
        # of |statements(y')|.
        tcounts_flat = self.indptr2[flat_ids + 1] - self.indptr2[flat_ids]
        weight = np.zeros(n1, dtype=np.int64)
        pos, seg = _ragged(view_starts, view_counts)
        if len(pos):
            np.add.at(weight, seg, tcounts_flat[pos])
        cost = np.zeros(n1, dtype=np.int64)
        if len(self.stmt_other1):
            spos, sseg = _ragged(self.indptr1[:-1], self.indptr1[1:] - self.indptr1[:-1])
            np.add.at(cost, sseg, weight[self.stmt_other1[spos]])
        return PreparedPass(view_starts, view_counts, flat_ids, flat_probs, m12, m21, cost)

    @staticmethod
    def _dense(matrix, sub_table, super_index, num_supers):
        dense = np.empty((len(sub_table), num_supers), dtype=np.float64)
        for i, sub in enumerate(sub_table):
            dense[i, :] = matrix.sub_default(sub)
            for sup, score in matrix.supers_of(sub).items():
                j = super_index.get(sup)
                if j is not None:
                    dense[i, j] = score
        return dense

    # ------------------------------------------------------------------

    def score_ids(self, x_ids, prepared: PreparedPass, truncation_threshold: float):
        """Positive-evidence scores for a block of interned instances.

        Returns ``(x_id, x'_id, score)`` arrays with scores ``>=``
        ``truncation_threshold``, in the dict engine's emission order
        (instances in input order, candidates in first-touch order).
        """
        chunks: List[Tuple] = []
        for lo, hi in self._chunk_bounds(x_ids, prepared):
            chunk = self._score_chunk(x_ids[lo:hi], prepared, truncation_threshold)
            if chunk is not None:
                chunks.append(chunk)
        if not chunks:
            empty_i = np.empty(0, dtype=np.int64)
            return empty_i, empty_i.copy(), np.empty(0, dtype=np.float64)
        return (
            np.concatenate([c[0] for c in chunks]),
            np.concatenate([c[1] for c in chunks]),
            np.concatenate([c[2] for c in chunks]),
        )

    def _chunk_bounds(self, x_ids, prepared: PreparedPass):
        """Split a block on instance boundaries by projected level-3 work."""
        return _budget_bounds(
            np.where(x_ids >= 0, prepared.level3_cost[np.maximum(x_ids, 0)], 0)
        )

    def _score_chunk(self, x_ids, prepared: PreparedPass, truncation_threshold: float):
        ids = x_ids[x_ids >= 0]
        if len(ids) == 0:
            return None
        # level 1: statements r(x, y) of each instance
        pos1, seg1 = _ragged(self.indptr1[ids], self.indptr1[ids + 1] - self.indptr1[ids])
        if len(pos1) == 0:
            return None
        r1 = self.stmt_rel1[pos1]
        y = self.stmt_other1[pos1]
        # level 2: candidates (y', p) of each y
        pos2, seg2 = _ragged(prepared.view_starts[y], prepared.view_counts[y])
        if len(pos2) == 0:
            return None
        y_prime = prepared.flat_ids[pos2]
        prob_y = prepared.flat_probs[pos2]
        r1_2 = r1[seg2]
        slot_2 = seg1[seg2]
        # level 3: statements r'(x', y') of each candidate
        pos3, seg3 = _ragged(
            self.indptr2[y_prime], self.indptr2[y_prime + 1] - self.indptr2[y_prime]
        )
        if len(pos3) == 0:
            return None
        rel2 = self.inv2[self.stmt_rel2[pos3]]
        x_prime = self.stmt_other2[pos3]
        r1_3 = r1_2[seg3]
        p3 = prob_y[seg3]
        slot = slot_2[seg3]
        # the two Eq. 13 factors, with the dict path's > 0 guards
        s21 = prepared.m21[rel2, r1_3]
        s12 = prepared.m12[r1_3, rel2]
        factor = np.where(
            s21 > 0.0, 1.0 - s21 * self.inv_fun1[r1_3] * p3, 1.0
        ) * np.where(s12 > 0.0, 1.0 - s12 * self.inv_fun2[rel2] * p3, 1.0)
        mask = factor < 1.0
        if not mask.any():
            return None
        factor = factor[mask]
        key = slot[mask] * np.int64(self.n2) + x_prime[mask]
        # ordered product fold per (x, x') — stable sort keeps traversal
        # order inside each group, reduceat multiplies left-to-right
        perm = np.argsort(key, kind="stable")
        sorted_key = key[perm]
        starts = _group_starts(sorted_key)
        products = np.multiply.reduceat(factor[perm], starts)
        scores = 1.0 - np.maximum(products, _MIN_FACTOR)
        group_keys = sorted_key[starts]
        first_touch = perm[starts]
        emit = first_touch.argsort(kind="stable")
        emit = emit[scores[emit] >= truncation_threshold]
        if len(emit) == 0:
            return None
        emitted_keys = group_keys[emit]
        return ids[emitted_keys // self.n2], emitted_keys % self.n2, scores[emit]

    # ------------------------------------------------------------------

    def entries_for(self, x_out, xp_out, scores):
        """Map compact id arrays back to ``(x, x', score)`` term tuples."""
        table1 = self.table1
        table2 = self.table2
        return [
            (table1[x], table2[xp], score)
            for x, xp, score in zip(x_out.tolist(), xp_out.tolist(), scores.tolist())
        ]

    def score_entries(
        self,
        instances: Sequence[Resource],
        prepared: PreparedPass,
        truncation_threshold: float,
    ) -> List[Tuple[Resource, Resource, float]]:
        """Term-level convenience wrapper over :meth:`score_ids`."""
        return self.entries_for(
            *self.score_ids(self.ids_for(instances), prepared, truncation_threshold)
        )

    # ------------------------------------------------------------------
    # Eq. 12: the relation pass
    # ------------------------------------------------------------------

    def relation_scores(
        self, view: ViewInput, reverse: bool, max_pairs: int
    ) -> List[Tuple[Relation, Optional[Dict[Relation, float]]]]:
        """One direction of Eq. 12: ``(r, {r': score} or None)`` per sub
        relation, in relation order with ``r'`` in first-touch order —
        exactly what :func:`~repro.core.subrelations.score_relation`
        returns relation by relation, ready for
        :func:`~repro.core.subrelations.apply_relation_scores`."""
        terms = self.relation_terms(view, reverse, max_pairs)
        side = terms.side
        denominator = terms.denominators[terms.row_sub]
        keep = denominator > 0.0
        scores = np.minimum(1.0, terms.numerators[keep] / denominator[keep])
        super_table = side.super_table
        rows: Dict[int, Dict[Relation, float]] = {}
        for r, r2, score in zip(
            terms.row_sub[keep].tolist(), terms.row_sup[keep].tolist(), scores.tolist()
        ):
            rows.setdefault(r, {})[super_table[r2]] = score
        return [
            (relation, rows.get(index, {}) if denominator > 0.0 else None)
            for index, (relation, denominator) in enumerate(
                zip(side.sub_table, terms.denominators.tolist())
            )
        ]

    def relation_terms(self, view: ViewInput, reverse: bool, max_pairs: int) -> RelationTerms:
        """One direction of Eq. 12 as per-statement terms and their sums
        (see :class:`RelationTerms`)."""
        side = self._relation_side(reverse, max_pairs)
        starts, counts, cand_ids, cand_probs = self._relation_candidates(
            side, view, reverse
        )
        x_start, x_count = starts[side.stmt_x], counts[side.stmt_x]
        y_start, y_count = starts[side.stmt_y], counts[side.stmt_y]
        num_supers = len(side.super_table)
        den_terms = np.zeros(len(side.stmt_rel), dtype=np.float64)
        numerator_parts: List[Tuple] = []
        touched = 0
        for lo, hi in _budget_bounds(x_count * y_count):
            # statement × x-candidates × y-candidates, the dict loop's order
            local, stmt = _ragged(
                np.zeros(hi - lo, dtype=np.int64), x_count[lo:hi] * y_count[lo:hi]
            )
            if len(local) == 0:
                continue
            ny = y_count[lo:hi][stmt]
            ix = local // ny
            pos_x = x_start[lo:hi][stmt] + ix
            pos_y = y_start[lo:hi][stmt] + (local - ix * ny)
            pair_probability = cand_probs[pos_x] * cand_probs[pos_y]
            valid = pair_probability > 0.0
            if not valid.any():
                continue
            stmt = stmt[valid] + lo
            factor = 1.0 - pair_probability[valid]
            firsts = _group_starts(stmt)
            den_terms[stmt[firsts]] = 1.0 - np.multiply.reduceat(factor, firsts)
            # matched (x', y') pairs, each expanded to its r' list
            if len(side.match_keys) == 0:
                continue
            query = cand_ids[pos_x[valid]] * side.width + cand_ids[pos_y[valid]]
            slot = np.minimum(
                np.searchsorted(side.match_keys, query), len(side.match_keys) - 1
            )
            hits = np.where(side.match_keys[slot] == query, side.match_count[slot], 0)
            pos_m, entry = _ragged(side.match_start[slot], hits)
            if len(pos_m) == 0:
                continue
            key = stmt[entry] * num_supers + side.match_rel[pos_m]
            perm = np.argsort(key, kind="stable")
            sorted_key = key[perm]
            groups = _group_starts(sorted_key)
            products = np.multiply.reduceat(factor[entry][perm], groups)
            group_key = sorted_key[groups]
            numerator_parts.append(
                (
                    group_key // num_supers,
                    group_key % num_supers,
                    1.0 - products,
                    touched + perm[groups],
                )
            )
            touched += len(pos_m)
        terms = RelationTerms()
        terms.side = side
        terms.den_terms = den_terms
        # per r: statements add up in statement order (zeros change nothing)
        terms.denominators = np.bincount(
            side.stmt_rel, weights=den_terms, minlength=len(side.sub_table)
        ).astype(np.float64, copy=False)
        if numerator_parts:
            # first-touch order is statement-major, so it is also the
            # order each (r, r') sum must add its statements in
            first_touch = np.concatenate([part[3] for part in numerator_parts])
            order = np.argsort(first_touch, kind="stable")
            terms.num_stmt, terms.num_sup, terms.num_terms = (
                np.concatenate([part[k] for part in numerator_parts])[order]
                for k in range(3)
            )
            keys, first, inverse = np.unique(
                side.stmt_rel[terms.num_stmt] * num_supers + terms.num_sup,
                return_index=True,
                return_inverse=True,
            )
            sums = np.bincount(inverse.ravel(), weights=terms.num_terms, minlength=len(keys))
            emit = np.argsort(first, kind="stable")
            terms.row_sub = keys[emit] // num_supers
            terms.row_sup = keys[emit] % num_supers
            terms.numerators = sums[emit]
        else:
            empty = np.empty(0, dtype=np.int64)
            terms.num_stmt = terms.num_sup = terms.row_sub = terms.row_sup = empty
            terms.num_terms = terms.numerators = np.empty(0, dtype=np.float64)
        return terms

    def _relation_candidates(self, side: RelationSide, view: ViewInput, reverse: bool):
        """This pass's candidate CSR over the sub side's nodes:
        ``(starts, counts, ids, probs)``, literal nodes reading the
        static literal candidates and resources their view row (the
        backward rows when ``reverse``), in row order."""
        row_starts, row_counts, row_ids, row_probs = self._view_rows(view, reverse)
        is_literal = self.is_literal2 if reverse else self.is_literal1
        lit_starts = side.lit_indptr[:-1]
        return (
            np.where(is_literal, lit_starts, len(side.lit_ids) + row_starts),
            np.where(is_literal, np.diff(side.lit_indptr), row_counts),
            np.concatenate((side.lit_ids, row_ids)),
            np.concatenate((side.lit_probs, row_probs)),
        )

    def _relation_side(self, reverse: bool, max_pairs: int) -> RelationSide:
        key = (reverse, max_pairs)
        side = self._relation_sides.get(key)
        if side is None:
            side = self._relation_sides[key] = self._build_relation_side(reverse, max_pairs)
        return side

    def _build_relation_side(self, reverse: bool, max_pairs: int) -> RelationSide:
        side = RelationSide()
        if reverse:
            sub_onto = self.ontology2
            side.sub_table, side.sub_nodes = self.rel_table2, self.nodes2
            side.super_table, side.super_nodes = self.rel_table1, self.nodes1
            side.sub_node_table = self.table2
        else:
            sub_onto = self.ontology1
            side.sub_table, side.sub_nodes = self.rel_table1, self.nodes1
            side.super_table, side.super_nodes = self.rel_table2, self.nodes2
            side.sub_node_table = self.table1
        sub_nodes, super_nodes = side.sub_nodes, side.super_nodes
        side.width = len(super_nodes) + 1

        # -- the capped statements of every sub relation ----------------
        rel_counts: List[int] = []
        xs: List[int] = []
        ys: List[int] = []
        for relation in side.sub_table:
            pairs = list(islice(sub_onto.pairs(relation), max_pairs))
            xs.extend([sub_nodes[x] for x, _y in pairs])
            ys.extend([sub_nodes[y] for _x, y in pairs])
            rel_counts.append(len(pairs))
        counts = np.array(rel_counts, dtype=np.int64)
        side.stmt_rel = np.repeat(np.arange(len(side.sub_table), dtype=np.int64), counts)
        side.stmt_indptr = np.concatenate(([0], np.cumsum(counts)))
        side.stmt_x = np.array(xs, dtype=np.int64)
        side.stmt_y = np.array(ys, dtype=np.int64)

        # -- clamped literal candidates, statement-less ones kept -------
        side.lit_indptr, side.lit_ids, side.lit_probs = (
            _literal_csr(self.table2, self.literals_of_left, super_nodes)
            if reverse
            else self._literal_csr1
        )

        # -- the (x', y') → r' match table of the super side ------------
        # Its statements_about CSR lists each x' in relations_of order,
        # which the stable sort keeps within each (x', y') key.
        if reverse:
            indptr, rel, other = self.indptr1, self.stmt_rel1, self.stmt_other1
        else:
            indptr, rel, other = self.all_indptr2, self.all_rel2, self.all_other2
        owner = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
        keys = owner * side.width + other
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = _group_starts(sorted_keys) if len(keys) else np.empty(0, dtype=np.int64)
        side.match_keys = sorted_keys[starts]
        side.match_start = starts
        side.match_count = np.diff(np.append(starts, len(keys))).astype(np.int64)
        side.match_rel = rel[order]
        return side
