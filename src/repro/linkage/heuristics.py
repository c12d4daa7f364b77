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

Heuristics order class positions over the shared code tables
(:mod:`repro.linkage.codes`). All of them sort class pairs ascending by a
score; ties break towards smaller class pairs (cheaper certainty first)
and then deterministically by class id ``(left, right)`` — a published
view's own ids, a relation's class positions — so runs are reproducible.
Ordering gathers per-attribute expected-distance matrices and reduces
hundreds of thousands of class pairs to one ``np.lexsort``.
"""

from __future__ import annotations

import abc
import random

import numpy as np

from repro._rng import make_random
from repro.linkage.codes import CodeTables
from repro.obs import NOOP_TELEMETRY, Telemetry


class SelectionHeuristic(abc.ABC):
    """Orders unknown class pairs for SMC consumption."""

    name: str = "abstract"

    def order(
        self,
        unknown: np.ndarray,
        tables: CodeTables,
        telemetry: Telemetry = NOOP_TELEMETRY,
    ) -> np.ndarray:
        """Consumption order of *unknown* (best candidates first).

        *unknown* is an ``(n, 2)`` array of ``(left, right)`` class
        positions into *tables*; the result lists its row indices in the
        order the SMC step consumes them.
        """
        if not len(unknown):
            return np.empty(0, dtype=np.intp)
        with telemetry.span(
            "select.score.numpy", heuristic=self.name, pairs=len(unknown)
        ):
            telemetry.counter("select.pairs_scored").add(len(unknown))
            telemetry.emit_progress(
                "select", 0, len(unknown), unit="pairs", heuristic=self.name
            )
            left, right = unknown[:, 0], unknown[:, 1]
            scores = self.score_array(tables.expected_for_pairs(left, right))
            sizes = tables.left_sizes[left] * tables.right_sizes[right]
            # lexsort keys run least- to most-significant: score, then
            # size, then (left, right) class id.
            order = np.lexsort(
                (tables.right_ids[right], tables.left_ids[left], sizes, scores)
            )
            telemetry.emit_progress(
                "select",
                len(unknown),
                len(unknown),
                unit="pairs",
                heuristic=self.name,
            )
            return order

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

    def order(self, unknown, tables, telemetry=NOOP_TELEMETRY):
        # Shuffling the row indices draws exactly what shuffling the
        # row-major class pairs themselves would.
        with telemetry.span(
            "select.shuffle", heuristic=self.name, pairs=len(unknown)
        ):
            order = list(range(len(unknown)))
            self._rng.shuffle(order)
            telemetry.emit_progress(
                "select",
                len(order),
                len(order),
                unit="pairs",
                heuristic=self.name,
            )
            return np.array(order, dtype=np.intp)

    def score(self, vector: tuple[float, ...]) -> float:  # pragma: no cover
        return 0.0


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
