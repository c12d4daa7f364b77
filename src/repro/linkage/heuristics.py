"""Selection heuristics for the SMC step (paper Sections V-C and VI).

When the SMC allowance cannot relabel every unknown pair, the order in
which class pairs are fed to the SMC protocols decides recall. The paper
evaluates three heuristics built on expected distances:

- ``minFirst`` — "minimum attribute-wise expected distance first";
- ``maxLast`` — "maximum attribute-wise expected distance last";
- ``minAvgFirst`` — "minimum average attribute-wise expected distance
  first" (the best performer on over-perturbed data sets, Figure 4).

``random`` selection is included both as an ablation baseline and because
strategy 3 of Section V-B (the learned classifier) requires an unbiased
training sample.

All heuristics sort class pairs ascending by a score; ties break towards
smaller class pairs (cheaper certainty first) and then deterministically by
class position ``(left, right)`` in the input relations, so runs are
reproducible. A class pair whose classes do not belong to the given
relations is a :class:`~repro.errors.ConfigurationError`.

Ordering gathers per-attribute expected-distance matrices through the
shared code tables (:mod:`repro.linkage.codes`) and reduces hundreds of
thousands of class pairs to one ``np.lexsort``.
"""

from __future__ import annotations

import abc
import random
from collections.abc import Sequence

import numpy as np

from repro._rng import make_random
from repro.anonymize.base import GeneralizedRelation
from repro.linkage.blocking import ClassPair
from repro.linkage.codes import CodeTables
from repro.linkage.distances import MatchRule
from repro.obs import NOOP_TELEMETRY, Telemetry


class SelectionHeuristic(abc.ABC):
    """Orders unknown class pairs for SMC consumption."""

    name: str = "abstract"

    def order(
        self,
        unknown: Sequence[ClassPair],
        rule: MatchRule,
        left: GeneralizedRelation,
        right: GeneralizedRelation,
        telemetry: Telemetry = NOOP_TELEMETRY,
    ) -> list[ClassPair]:
        """Return *unknown* in consumption order (best candidates first)."""
        if not unknown:
            return []
        with telemetry.span(
            "select.score.numpy", heuristic=self.name, pairs=len(unknown)
        ):
            telemetry.counter("select.pairs_scored").add(len(unknown))
            telemetry.emit_progress(
                "select", 0, len(unknown), unit="pairs", heuristic=self.name
            )
            tables = CodeTables(rule, left, right)
            left_idx, right_idx = tables.pair_positions(unknown)
            scores = self.score_array(
                tables.expected_for_pairs(left_idx, right_idx)
            )
            sizes = tables.left_sizes[left_idx] * tables.right_sizes[right_idx]
            # lexsort keys run least- to most-significant: score, then
            # size, then (left, right) class position.
            order = np.lexsort((right_idx, left_idx, sizes, scores))
            telemetry.emit_progress(
                "select",
                len(unknown),
                len(unknown),
                unit="pairs",
                heuristic=self.name,
            )
            return [unknown[position] for position in order.tolist()]

    @abc.abstractmethod
    def score(self, vector: tuple[float, ...]) -> float:
        """Map a per-attribute expected-distance vector to a sort key."""

    def score_array(self, matrix):
        """Vectorized :meth:`score` over a ``(pairs, attributes)`` matrix.

        The base implementation applies :meth:`score` row by row so custom
        subclasses stay correct; the built-in heuristics override it with
        numpy reductions that reproduce the scalar floating-point results
        exactly.
        """
        return np.array(
            [self.score(tuple(row)) for row in matrix.tolist()],
            dtype=np.float64,
        )


class MinFirst(SelectionHeuristic):
    """Pairs whose *closest* attribute looks closest go first."""

    name = "minFirst"

    def score(self, vector: tuple[float, ...]) -> float:
        return min(vector)

    def score_array(self, matrix):
        return matrix.min(axis=1)


class MaxLast(SelectionHeuristic):
    """Pairs whose *farthest* attribute looks farthest go last."""

    name = "maxLast"

    def score(self, vector: tuple[float, ...]) -> float:
        return max(vector)

    def score_array(self, matrix):
        return matrix.max(axis=1)


class MinAvgFirst(SelectionHeuristic):
    """Pairs with the lowest average expected distance go first."""

    name = "minAvgFirst"

    def score(self, vector: tuple[float, ...]) -> float:
        return sum(vector) / len(vector)

    def score_array(self, matrix):
        # Accumulate columns left to right so the float result matches the
        # scalar ``sum(vector) / len(vector)`` bit for bit.
        total = matrix[:, 0].copy()
        for column in range(1, matrix.shape[1]):
            total += matrix[:, column]
        return total / matrix.shape[1]


class RandomSelection(SelectionHeuristic):
    """Uniformly random order (ablation baseline; required by strategy 3)."""

    name = "random"

    def __init__(self, seed: int | random.Random | None = None):
        self._rng = make_random(seed)

    def order(self, unknown, rule, left, right, telemetry=NOOP_TELEMETRY):
        with telemetry.span(
            "select.shuffle", heuristic=self.name, pairs=len(unknown)
        ):
            shuffled = list(unknown)
            self._rng.shuffle(shuffled)
            telemetry.emit_progress(
                "select",
                len(shuffled),
                len(shuffled),
                unit="pairs",
                heuristic=self.name,
            )
            return shuffled

    def score(self, vector: tuple[float, ...]) -> float:  # pragma: no cover
        return 0.0


def average_expected_scores(
    pairs: Sequence[ClassPair],
    rule: MatchRule,
    left: GeneralizedRelation,
    right: GeneralizedRelation,
    telemetry: Telemetry = NOOP_TELEMETRY,
) -> list[float]:
    """Average expected-distance score per class pair (minAvgFirst's score).

    Shared by the learned leftover classifier (strategy 3), which both
    trains and predicts on this one feature.
    """
    if not pairs:
        return []
    telemetry.counter("select.pairs_scored").add(len(pairs))
    tables = CodeTables(rule, left, right)
    matrix = tables.expected_for_pairs(*tables.pair_positions(pairs))
    return MinAvgFirst().score_array(matrix).tolist()


HEURISTICS = {
    heuristic.name: heuristic
    for heuristic in (MinFirst(), MaxLast(), MinAvgFirst())
}


def heuristic_by_name(name: str, seed: int | None = None) -> SelectionHeuristic:
    """Look up a heuristic by its paper name (``random`` takes a seed)."""
    if name == "random":
        return RandomSelection(seed)
    try:
        return HEURISTICS[name]
    except KeyError:
        raise KeyError(
            f"unknown heuristic {name!r}; choose from "
            f"{sorted(HEURISTICS)} or 'random'"
        ) from None
