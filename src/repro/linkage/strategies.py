"""Labeling strategies for pairs the SMC budget never reaches (Section V-B).

The paper analyzes three strategies:

1. **Maximize precision** — leftover pairs are labeled non-match. SMC
   answers are exact, so there are no false positives and precision is
   100%; recall suffers when true matches are left over. "Since privacy is
   our primary concern, we choose to follow the first strategy" — it is
   the library default too.
2. **Maximize recall** — leftover pairs are labeled match. No true match is
   missed, but the claims are unverified and precision may collapse,
   violating the privacy of irrelevant individuals.
3. **Maximize precision and recall** — pairs for the SMC step are selected
   at random and the (generalization, label) observations train a
   classifier ``c3`` that labels the leftover class pairs. The paper
   argues, and our ablation benchmark confirms, that anonymized data is too
   coarse for ``c3`` to attain both high precision and recall.

Strategies see the unknown class pairs as ``(left, right)`` class
positions into the shared code tables (:mod:`repro.linkage.codes`): the
leftovers, and an :class:`SMCSample` of what the SMC step learned about
the class pairs it leased. They return the leftovers they *claim* as
matches; evaluation later verifies those claims against ground truth.
"""

from __future__ import annotations

import abc
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigurationError
from repro.linkage.codes import CodeTables
from repro.linkage.heuristics import MinAvgFirst, SelectionHeuristic
from repro.obs import NOOP_TELEMETRY, Telemetry


class SMCSample(NamedTuple):
    """The SMC step's observations, one row per leased class pair.

    ``pairs`` is an ``(n, 2)`` array of class positions; ``compared`` and
    ``matches`` count the record pairs compared and matched in each.
    """

    pairs: np.ndarray
    compared: np.ndarray
    matches: np.ndarray


class LeftoverStrategy(abc.ABC):
    """Decides the fate of unknown class pairs beyond the SMC allowance."""

    name: str = "abstract"
    #: Strategy 3 needs an unbiased SMC sample to train on.
    requires_random_selection: bool = False

    @abc.abstractmethod
    def claim_matches(
        self,
        leftovers: np.ndarray,
        sample: SMCSample,
        tables: CodeTables,
        telemetry: Telemetry = NOOP_TELEMETRY,
    ) -> np.ndarray:
        """Row indices of the *leftovers* to claim (unverified) as matches.

        *leftovers* is an ``(n, 2)`` array of class positions into
        *tables*. *telemetry* records scoring work for strategies that rank
        class pairs.
        """


def check_selection(
    allowance: float,
    heuristic: SelectionHeuristic,
    strategy: LeftoverStrategy,
) -> None:
    """Raise :class:`ConfigurationError` for settings no run can honour.

    The allowance is a fraction of |D1 x D2|, and a strategy that trains
    on the SMC sample needs random selection (paper Section V-B).
    """
    if not 0.0 <= allowance <= 1.0:
        raise ConfigurationError(
            f"SMC allowance {allowance} must be a fraction in [0, 1]"
        )
    if strategy.requires_random_selection and heuristic.name != "random":
        raise ConfigurationError(
            f"strategy {strategy.name!r} trains on the SMC sample and "
            "requires the 'random' selection heuristic (paper Section V-B)"
        )


class MaximizePrecision(LeftoverStrategy):
    """Strategy 1: leftovers are non-matches; precision is always 100%."""

    name = "maximize-precision"

    def claim_matches(self, leftovers, sample, tables, telemetry=NOOP_TELEMETRY):
        return np.empty(0, dtype=np.intp)


class MaximizeRecall(LeftoverStrategy):
    """Strategy 2: leftovers are matches; recall is 100%, precision is not."""

    name = "maximize-recall"

    def claim_matches(self, leftovers, sample, tables, telemetry=NOOP_TELEMETRY):
        return np.arange(len(leftovers))


class LearnedClassifier(LeftoverStrategy):
    """Strategy 3: train ``c3`` on the SMC step's labeled sample.

    The classifier is a one-dimensional threshold on the average expected
    distance of the class pair (the same feature space the heuristics
    use — all that anonymized data exposes). Every compared record pair is
    a training example carrying its class pair's score; the threshold
    minimizing training error is selected by a sweep over candidate cuts.

    As the paper predicts (record pairs inside one class pair are
    indistinguishable, and there are at least k^2 of them per group), the
    classifier cannot separate matches from non-matches well; the ablation
    benchmark quantifies that.
    """

    name = "learned-classifier"
    requires_random_selection = True

    def claim_matches(self, leftovers, sample, tables, telemetry=NOOP_TELEMETRY):
        if not len(sample.pairs) or not len(leftovers):
            return np.empty(0, dtype=np.intp)
        examples = zip(  # (score, positives, negatives)
            _average_scores(sample.pairs, tables, telemetry).tolist(),
            sample.matches.tolist(),
            (sample.compared - sample.matches).tolist(),
        )
        threshold = self._best_threshold(list(examples))
        if threshold is None:
            return np.empty(0, dtype=np.intp)
        scores = _average_scores(leftovers, tables, telemetry)
        return np.flatnonzero(scores <= threshold)

    @staticmethod
    def _best_threshold(examples) -> float | None:
        """Threshold on the score minimizing training error.

        Classifies ``score <= t`` as match. Candidate cuts are the observed
        scores; ``None`` (claim nothing) is returned when no cut beats the
        all-non-match classifier, mirroring strategy 1's safe default.
        """
        if not examples:
            return None
        examples = sorted(examples)
        total_positives = sum(positives for _, positives, _ in examples)
        total_negatives = sum(negatives for _, _, negatives in examples)
        # Baseline: claim nothing, err on every positive.
        best_errors = total_positives
        best_threshold = None
        seen_positives = 0
        seen_negatives = 0
        for score, positives, negatives in examples:
            seen_positives += positives
            seen_negatives += negatives
            # Claiming everything up to `score`: errors are the negatives
            # claimed plus the positives beyond the cut.
            errors = seen_negatives + (total_positives - seen_positives)
            if errors < best_errors:
                best_errors = errors
                best_threshold = score
        return best_threshold


def _average_scores(
    pairs: np.ndarray, tables: CodeTables, telemetry: Telemetry
) -> np.ndarray:
    """minAvgFirst's score of each class pair in *pairs*."""
    telemetry.counter("select.pairs_scored").add(len(pairs))
    return MinAvgFirst().score_array(
        tables.expected_for_pairs(pairs[:, 0], pairs[:, 1])
    )


STRATEGIES = {
    strategy.name: strategy
    for strategy in (MaximizePrecision(), MaximizeRecall(), LearnedClassifier())
}


def strategy_by_name(name: str) -> LeftoverStrategy:
    """Look up a strategy by name (see :data:`STRATEGIES`)."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}"
        ) from None
