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
  take)``, with each class given as row indices into its side's columns,
  and :class:`LeaseBatch`, a batch of them as arrays (what
  :func:`check_leases` and the SMC oracles work on);
  :func:`plan_leases` turns the SMC allowance into the takes. A lease's
  matches come back as one ``(m, 2)`` :data:`OFFSET_DTYPE` array of
  ``(left_offset, right_offset)`` rows in row-major order
  (:func:`offset_pairs`), and :func:`cross_offsets` lists whole class
  pairs' offset pairs in that order.

Codes are local to one :class:`RecordColumns`; :func:`shared_codes` puts
two sides' codes into one vocabulary covering both before they are
compared.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.data.schema import Relation, Schema
from repro.errors import ConfigurationError, ProtocolError

#: Element type of a lease's matched offsets and of ``(class_id, offset)``
#: handles: offsets index into one class, and views keep ids below 2**31.
OFFSET_DTYPE = np.int32


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
    sizes = np.asarray(sized_items, dtype=np.int64)
    before = np.cumsum(sizes) - sizes
    # Item i is leased while budget remains after the items before it.
    leased = int(np.searchsorted(before, budget))
    takes = np.minimum(budget - before[:leased], sizes[:leased]).tolist()
    return takes, sum(takes)


def run_offsets(counts: np.ndarray) -> np.ndarray:
    """``0..count - 1`` for each of *counts*, concatenated (:data:`OFFSET_DTYPE`)."""
    starts = (np.cumsum(counts) - counts).astype(OFFSET_DTYPE)
    return np.arange(int(counts.sum()), dtype=OFFSET_DTYPE) - np.repeat(starts, counts)


def cross_offsets(left_sizes: np.ndarray, right_sizes: np.ndarray) -> np.ndarray:
    """Every ``(left offset, right offset)`` pair of class pairs of
    *left_sizes* by *right_sizes* records, class pair by class pair and
    row-major within one, as an ``(n, 2)`` :data:`OFFSET_DTYPE` array."""
    counts = left_sizes * right_sizes
    widths = np.repeat(right_sizes.astype(OFFSET_DTYPE), counts)
    return np.stack(np.divmod(run_offsets(counts), widths), axis=1)


def offset_pairs(flat: Sequence[int]) -> np.ndarray:
    """``[l0, r0, l1, r1, ...]`` as an ``(m, 2)`` :data:`OFFSET_DTYPE` array."""
    return np.array(flat, dtype=OFFSET_DTYPE).reshape(-1, 2)


@dataclass(frozen=True, slots=True)
class LeaseBatch:
    """A batch of budget leases as arrays, one entry per lease.

    Lease ``i`` is the :class:`BlockLease` of left rows
    ``left_rows[left_starts[i]:left_starts[i] + left_counts[i]]``, the
    right rows spelled the same way, and take ``takes[i]``; leases may
    share rows. A holder passes its class row index
    (:class:`~repro.anonymize.base.ClassRows`) as the row array and the
    leased classes' starts and sizes, so no lease is built one at a time.
    Iterating yields the :class:`BlockLease` views.
    """

    left_rows: np.ndarray
    left_starts: np.ndarray
    left_counts: np.ndarray
    right_rows: np.ndarray
    right_starts: np.ndarray
    right_counts: np.ndarray
    takes: np.ndarray

    @classmethod
    def of(cls, leases: Sequence[BlockLease] | LeaseBatch) -> LeaseBatch:
        """*leases* as a batch (a batch is returned as it is)."""
        if isinstance(leases, LeaseBatch):
            return leases
        sides = []
        for side in ("left_rows", "right_rows"):
            arrays = [np.asarray(getattr(lease, side)) for lease in leases]
            counts = np.fromiter(map(len, arrays), np.int64, len(arrays))
            rows = np.concatenate(arrays) if arrays else np.empty(0)
            sides += (rows.astype(np.intp, copy=False), np.cumsum(counts) - counts, counts)
        takes = np.fromiter((lease.take for lease in leases), np.int64, len(leases))
        return cls(*sides, takes)

    def __len__(self) -> int:
        return len(self.takes)

    def __getitem__(self, index: slice) -> LeaseBatch:
        """The leases at *index* (a slice), sharing the row arrays."""
        return LeaseBatch(
            self.left_rows,
            self.left_starts[index],
            self.left_counts[index],
            self.right_rows,
            self.right_starts[index],
            self.right_counts[index],
            self.takes[index],
        )

    def __iter__(self):
        for left_start, left_count, right_start, right_count, take in zip(
            self.left_starts.tolist(),
            self.left_counts.tolist(),
            self.right_starts.tolist(),
            self.right_counts.tolist(),
            self.takes.tolist(),
        ):
            yield BlockLease(
                self.left_rows[left_start : left_start + left_count],
                self.right_rows[right_start : right_start + right_count],
                take,
            )


def check_leases(
    leases: LeaseBatch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(rows, columns, remainders)`` of the blocks *leases* touch.

    Lease ``i`` covers ``rows[i]`` left rows against the first
    ``columns[i]`` right rows; when ``remainders[i]`` is non-zero its last
    left row stops after that many right rows. Raises
    :class:`ProtocolError` unless every take fits its class pair.
    """
    takes, right_counts = leases.takes, leases.right_counts
    pairs = leases.left_counts * right_counts
    bad = np.flatnonzero((takes < 1) | (takes > pairs))
    if len(bad):
        raise ProtocolError(
            f"lease take {takes[bad[0]]} is outside 1..{pairs[bad[0]]}, the "
            "record pairs of its class pair"
        )
    full_rows, remainders = np.divmod(takes, right_counts)
    short = takes < right_counts
    rows = np.where(short, 1, full_rows + (remainders > 0))
    columns = np.where(short, takes, right_counts)
    return rows, columns, np.where(short, 0, remainders)


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
