"""Sub-relation pass (Section 4.2, Eq. 12).

For relations ``r`` of the first ontology and ``r'`` of the second::

              Σ_{r(x,y)} (1 − ∏_{r'(x',y')} (1 − Pr(x≡x')·Pr(y≡y')))
  Pr(r⊆r') = ──────────────────────────────────────────────────────────
              Σ_{r(x,y)} (1 − ∏_{x',y'}    (1 − Pr(x≡x')·Pr(y≡y')))

The numerator counts statements of ``r`` whose matched counterpart pair
is connected by ``r'`` in the other ontology; the denominator normalizes
by the statements of ``r`` that have *any* counterpart pair at all.

Implementation notes (Section 5.2):

* the pass walks each statement ``r(x, y)`` once, looks up the known
  equivalents of ``x`` and ``y``, and updates every ``r'`` that holds
  between any counterpart pair — all ``r'`` scores for a given ``r``
  are produced in one sweep;
* the number of statements examined per relation is capped
  (``max_pairs_per_relation``, paper value 10 000);
* with the maximal-assignment restriction each node has at most one
  counterpart, which is what makes the sweep cheap.

:func:`subrelation_pass` is the **reference** implementation.  Cold
aligns score Eq. 12 through :func:`parallel_subrelation_pass` on the
vectorized kernel
(:meth:`repro.core.vectorized.VectorizedKernel.relation_scores`),
which ``tests/test_vectorized.py`` holds bit-identical to
:func:`subrelation_pass`; the dict pass runs only under negative
evidence, where the aligner builds no kernel.
:func:`statement_terms` is called by :func:`score_relation` and by the
warm path's :class:`~repro.core.incremental.IncrementalRelationPass`:
by its refreshes, for each statement a delta dirties, and by its
kernel-less constructor, the tests' oracle.  A service attach fills
that cache from the kernel
(:meth:`~repro.core.vectorized.VectorizedKernel.relation_terms`) and
calls it for no statement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from ..rdf.ontology import Ontology
from ..rdf.terms import Node, Relation
from .matrix import SubsumptionMatrix
from .view import EquivalenceView

if TYPE_CHECKING:
    from .vectorized import VectorizedKernel


def statement_terms(
    x: Node,
    y: Node,
    ontology2: Ontology,
    view: EquivalenceView,
    reverse: bool = False,
) -> Tuple[float, Dict[Relation, float]]:
    """The Eq. 12 contribution of one statement ``r(x, y)``.

    Returns ``(denominator_term, {r': numerator_term})``: the statement
    adds ``denominator_term`` to every row denominator of its relation
    and ``numerator_term`` to the numerator of each matched ``r'``.
    Both the batch pass below and the incremental relation pass
    (:mod:`repro.core.incremental`) sum exactly these terms, which is
    what makes the incremental row maintenance equivalent to a fresh
    sweep.
    """
    x_equals = list(view.equivalents(x, reverse=reverse))
    if not x_equals:
        return 0.0, {}
    y_equals = list(view.equivalents(y, reverse=reverse))
    if not y_equals:
        return 0.0, {}
    denominator_product = 1.0
    matched_products: Dict[Relation, float] = {}
    for x_prime, prob_x in x_equals:
        # One index probe per x': its row's keys are relations_of(x')
        # in order, and each value is objects(r', x').
        row = ontology2.relation_objects(x_prime).items()
        for y_prime, prob_y in y_equals:
            pair_probability = prob_x * prob_y
            if pair_probability <= 0.0:
                continue
            denominator_product *= 1.0 - pair_probability
            for relation2, objects in row:
                if y_prime in objects:
                    matched_products[relation2] = matched_products.get(
                        relation2, 1.0
                    ) * (1.0 - pair_probability)
    return 1.0 - denominator_product, {
        relation2: 1.0 - product for relation2, product in matched_products.items()
    }


def score_relation(
    relation: Relation,
    ontology1: Ontology,
    ontology2: Ontology,
    view: EquivalenceView,
    max_pairs: int,
    reverse: bool = False,
) -> Optional[Dict[Relation, float]]:
    """Scores ``Pr(relation ⊆ r')`` against every relation of ``ontology2``.

    Returns ``None`` when Eq. 12 has no evidence for ``relation`` (its
    statements have no matched counterpart pair — a zero denominator):
    the relation's inclusion probabilities are then *unknown* rather
    than zero, and the caller keeps them at the bootstrap prior.

    Parameters
    ----------
    reverse:
        When ``True``, ``relation`` belongs to the right ontology and
        equivalents are looked up right-to-left; ``ontology1`` is then
        the right ontology and ``ontology2`` the left one.
    """
    numerators: Dict[Relation, float] = {}
    denominator = 0.0
    examined = 0
    for x, y in ontology1.pairs(relation):
        if examined >= max_pairs:
            break
        examined += 1
        denominator_term, numerator_terms = statement_terms(
            x, y, ontology2, view, reverse=reverse
        )
        denominator += denominator_term
        for relation2, term in numerator_terms.items():
            numerators[relation2] = numerators.get(relation2, 0.0) + term
    if denominator <= 0.0:
        return None
    return {
        relation2: min(1.0, numerator / denominator)
        for relation2, numerator in numerators.items()
    }


def apply_relation_scores(
    matrix: SubsumptionMatrix[Relation],
    scored: Iterable[Tuple[Relation, Optional[Dict[Relation, float]]]],
    truncation_threshold: float,
    bootstrap_theta: float,
) -> None:
    """Fold scored rows into ``matrix`` (also the kernel route's)."""
    for relation, scores in scored:
        if scores is None:
            # No evidence: the relation stays at the bootstrap prior so
            # entities reachable only through it can still be matched
            # in the next iteration (see score_relation).
            matrix.set_sub_default(relation, bootstrap_theta)
            continue
        for relation2, score in scores.items():
            if score >= truncation_threshold:
                matrix.set(relation, relation2, score)


def subrelation_pass(
    ontology1: Ontology,
    ontology2: Ontology,
    view: EquivalenceView,
    truncation_threshold: float,
    max_pairs: int,
    reverse: bool = False,
    bootstrap_theta: float = 0.0,
) -> SubsumptionMatrix[Relation]:
    """Compute ``Pr(r ⊆ r')`` for every relation ``r`` of ``ontology1``.

    Schema relations (``rdf:type`` etc.) are excluded: the paper aligns
    the schema through Eq. 12/17, not by matching the RDFS vocabulary
    against itself.  Note that ``Pr(r ⊆ r)`` is *not* pinned to 1 — the
    paper computes it as a contingent quantity even for shared relation
    names (Section 4.2).
    """
    matrix: SubsumptionMatrix[Relation] = SubsumptionMatrix()
    for relation in ontology1.relations(include_inverses=True):
        scores = score_relation(relation, ontology1, ontology2, view, max_pairs, reverse=reverse)
        apply_relation_scores(matrix, ((relation, scores),), truncation_threshold, bootstrap_theta)
    return matrix


def parallel_subrelation_pass(
    ontology1: Ontology,
    ontology2: Ontology,
    view: EquivalenceView,
    truncation_threshold: float,
    max_pairs: int,
    reverse: bool = False,
    bootstrap_theta: float = 0.0,
    kernel: Optional["VectorizedKernel"] = None,
) -> SubsumptionMatrix[Relation]:
    """One direction of the Eq. 12 relation pass, as the aligner runs it.

    With ``kernel`` (built over this ontology pair) the rows come from
    :meth:`VectorizedKernel.relation_scores`; without it
    :func:`subrelation_pass` runs.  Both fill the matrix through
    :func:`apply_relation_scores` in relation registration order with
    the same floats, so the routes are bit-identical.  Both run in the
    calling process; profilers wrap this function by name as the
    relation-pass layer.
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
