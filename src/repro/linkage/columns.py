"""Columnar record storage and the budget lease the SMC step consumes.

The SMC step never needs whole records: it compares the match rule's
attributes of the first ``take`` record pairs of a class pair, in
row-major order (record pairs inside a class pair are indistinguishable
from the anonymized views, so any fixed order will do). This module holds
the two pieces every layer shares for that work:

- :class:`RecordColumns` — the attributes of a record sequence encoded
  once, column by column: ``float64`` arrays for continuous attributes
  and integer codes into a first-seen vocabulary for categorical ones;
- :class:`BlockLease` — one budget lease, ``(left rows, right rows,
  take)``, with each class given as row indices into its side's columns;
  :func:`plan_leases` turns the SMC allowance into the takes.

Codes are local to one :class:`RecordColumns`; :func:`shared_codes` puts
two sides' codes into one vocabulary covering both before they are
compared.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from repro.data.schema import Relation, Schema
from repro.errors import ConfigurationError, ProtocolError


class BlockLease(NamedTuple):
    """Compare the first *take* record pairs of a class pair, row-major.

    ``left_rows``/``right_rows`` index the class's records in the left and
    right :class:`RecordColumns`. A lease only ever touches the first
    ``min(take, len(right_rows))`` right rows, so a caller may pass just
    those.
    """

    left_rows: np.ndarray
    right_rows: np.ndarray
    take: int


def plan_leases(
    sized_items: Sequence[int], budget: int
) -> tuple[list[int], int]:
    """Greedy prefix budget leases over item sizes.

    Returns ``(takes, consumed)`` where ``takes[i] = min(remaining,
    sized_items[i])`` stops as soon as the budget is exhausted —
    ``len(takes)`` items received a (possibly partial, only ever the
    last) lease and the rest received nothing.
    """
    takes: list[int] = []
    remaining = budget
    for size in sized_items:
        if remaining <= 0:
            break
        take = min(remaining, size)
        takes.append(take)
        remaining -= take
    return takes, budget - remaining


def check_leases(leases: Sequence[BlockLease]) -> None:
    """Raise :class:`ProtocolError` unless every take fits its class pair."""
    for lease in leases:
        pairs = len(lease.left_rows) * len(lease.right_rows)
        if not 1 <= lease.take <= pairs:
            raise ProtocolError(
                f"lease take {lease.take} is outside 1..{pairs}, the "
                "record pairs of its class pair"
            )


def lease_shape(lease: BlockLease) -> tuple[int, int, int]:
    """``(rows, columns, remainder)`` of the block *lease* touches.

    The lease covers ``rows`` left rows against the first ``columns``
    right rows; when ``remainder`` is non-zero the last left row stops
    after ``remainder`` right rows.
    """
    right_count = len(lease.right_rows)
    if lease.take < right_count:
        return 1, lease.take, 0
    full_rows, remainder = divmod(lease.take, right_count)
    return full_rows + (1 if remainder else 0), right_count, remainder


class RecordColumns:
    """Attributes of a record sequence, stored column-wise.

    Continuous columns are ``float64`` arrays. Categorical columns are
    ``int32`` codes into a vocabulary listing each distinct value once, in
    first-seen order, so :meth:`values` gives back the original objects.
    """

    def __init__(
        self,
        names: Sequence[str],
        arrays: Sequence[np.ndarray],
        vocabularies: Sequence[tuple | None],
    ):
        self.names = tuple(names)
        self.arrays = tuple(arrays)
        #: Per column: the code → value table, or ``None`` when continuous.
        self.vocabularies = tuple(vocabularies)
        self._index = {name: position for position, name in enumerate(self.names)}

    @classmethod
    def encode(
        cls, schema: Schema, names: Sequence[str], columns: Iterable[Sequence]
    ) -> RecordColumns:
        """Encode *columns*, one value sequence per name, per *schema*."""
        arrays = []
        vocabularies = []
        for name, column in zip(names, columns):
            if schema[name].is_continuous:
                arrays.append(np.array(column, dtype=np.float64))
                vocabularies.append(None)
            else:
                vocabulary: dict = {}
                codes = np.fromiter(
                    (vocabulary.setdefault(value, len(vocabulary)) for value in column),
                    dtype=np.int32,
                    count=len(column),
                )
                arrays.append(codes)
                vocabularies.append(tuple(vocabulary))
        return cls(names, arrays, vocabularies)

    @classmethod
    def from_relation(cls, relation: Relation, names: Sequence[str]) -> RecordColumns:
        """Encode the *names* columns of every record of *relation*."""
        records = relation.records
        return cls.encode(
            relation.schema,
            names,
            (
                [record[position] for record in records]
                for position in relation.schema.positions(names)
            ),
        )

    @classmethod
    def from_rows(
        cls, schema: Schema, names: Sequence[str], rows: Sequence[Sequence]
    ) -> RecordColumns:
        """Encode *rows*, value tuples aligned with *names*."""
        return cls.encode(
            schema,
            names,
            ([row[position] for row in rows] for position in range(len(names))),
        )

    def positions(self, names: Sequence[str]) -> tuple[int, ...]:
        """Column positions of *names*; :class:`ConfigurationError` if absent."""
        try:
            return tuple(self._index[name] for name in names)
        except KeyError as error:
            raise ConfigurationError(
                f"attribute {error.args[0]!r} is not among the encoded "
                f"columns {self.names}"
            ) from None

    def is_continuous(self, position: int) -> bool:
        """True when column *position* holds ``float64`` values."""
        return self.vocabularies[position] is None

    def values(self, row: int, positions: Sequence[int]) -> tuple:
        """The values of *row* in the columns at *positions*.

        Categorical values come back as the original objects; continuous
        ones as Python floats.
        """
        values = []
        for position in positions:
            code = self.arrays[position][row]
            vocabulary = self.vocabularies[position]
            values.append(float(code) if vocabulary is None else vocabulary[code])
        return tuple(values)


def shared_codes(
    left: RecordColumns, right: RecordColumns, left_position: int, right_position: int
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' codes of one categorical attribute in a shared vocabulary.

    Left codes keep their values; a right value the left side also holds
    takes the left code, and a right-only value a fresh code past the left
    vocabulary, so equal codes mean equal values across the two sides.
    """
    left_vocabulary = {
        value: code for code, value in enumerate(left.vocabularies[left_position])
    }
    offset = len(left_vocabulary)
    remap = np.fromiter(
        (
            left_vocabulary.get(value, offset + code)
            for code, value in enumerate(right.vocabularies[right_position])
        ),
        dtype=np.int32,
        count=len(right.vocabularies[right_position]),
    )
    return left.arrays[left_position], remap[right.arrays[right_position]]
