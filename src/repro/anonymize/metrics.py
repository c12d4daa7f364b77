"""Quality and privacy metrics for anonymized relations.

Figure 2 of the paper compares anonymization methods by the number of
distinct generalization sequences; this module adds the standard
complementary metrics so the anonymizers can be studied as a substrate in
their own right:

- :func:`distinct_sequences` — Figure 2's measure;
- :func:`verify_k_anonymity` — hard check with a detailed error;
- :func:`discernibility` — the classic cost metric (sum of squared class
  sizes; lower is better);
- :func:`generalization_precision` — Sweeney-style precision: 1 minus the
  mean normalized generalization height (1.0 = original data);
- :func:`sequence_entropy` — entropy of the class-size distribution, the
  quantity the paper's MaxEnt method heuristically maximizes;
- :func:`l_diversity` — the extension metric of Machanavajjhala et al.
  [10] the paper cites: minimum number of distinct sensitive values per
  class.
"""

from __future__ import annotations

import math

from repro.anonymize.base import GeneralizedRelation, node_depth
from repro.errors import AnonymizationError


def distinct_sequences(generalized: GeneralizedRelation) -> int:
    """Number of distinct generalization sequences (Figure 2's y-axis)."""
    return generalized.distinct_sequences


def verify_k_anonymity(generalized: GeneralizedRelation, k: int) -> None:
    """Raise :class:`AnonymizationError` when any class is smaller than k."""
    for eq_class in generalized.classes:
        if eq_class.size < k:
            raise AnonymizationError(
                f"class {eq_class.describe()} has {eq_class.size} < {k} records"
            )


def discernibility(generalized: GeneralizedRelation) -> int:
    """The discernibility metric: sum of squared class sizes."""
    return sum(eq_class.size**2 for eq_class in generalized.classes)


def generalization_precision(generalized: GeneralizedRelation) -> float:
    """Sweeney's precision metric, 1.0 for ungeneralized data.

    For each QID cell, the distortion is the generalization height climbed
    from the record's own leaf, normalized by that leaf's depth (so
    unbalanced hierarchies are scored per record, as in Sweeney's Prec
    metric); precision is one minus the mean distortion over all cells.
    """
    from repro.data.vgh import IntervalHierarchy

    qid_count = len(generalized.qids)
    record_count = len(generalized.source)
    if qid_count == 0 or record_count == 0:
        return 1.0
    positions = generalized.source.schema.positions(generalized.qids)
    distortion = 0.0
    for eq_class in generalized.classes:
        for name, value, position in zip(
            generalized.qids, eq_class.sequence, positions
        ):
            hierarchy = generalized.hierarchies[name]
            value_depth = node_depth(hierarchy, value)
            for index in eq_class.indices:
                original = generalized.source[index][position]
                if isinstance(hierarchy, IntervalHierarchy):
                    leaf_depth = hierarchy.height + 1  # the point level
                else:
                    leaf_depth = hierarchy.depth_of(original)
                if leaf_depth == 0:
                    continue
                climbed = max(leaf_depth - value_depth, 0)
                distortion += climbed / leaf_depth
    return 1.0 - distortion / (qid_count * record_count)


def sequence_entropy(generalized: GeneralizedRelation) -> float:
    """Shannon entropy (bits) of the distribution of records over classes."""
    total = len(generalized.source)
    if total == 0:
        return 0.0
    entropy = 0.0
    for eq_class in generalized.classes:
        probability = eq_class.size / total
        if probability > 0:
            entropy -= probability * math.log2(probability)
    return entropy


def l_diversity(generalized: GeneralizedRelation, sensitive: str) -> int:
    """Minimum count of distinct *sensitive* values over all classes.

    The l-diversity extension [10]: a release is l-diverse when every
    equivalence class contains at least l distinct sensitive values.
    Returns 0 for an empty release.
    """
    position = generalized.source.schema.position(sensitive)
    minimum = None
    for eq_class in generalized.classes:
        values = {
            generalized.source[index][position] for index in eq_class.indices
        }
        if minimum is None or len(values) < minimum:
            minimum = len(values)
    return minimum or 0
