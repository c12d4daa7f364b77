"""The blocking step (paper Section IV).

Blocking applies the slack decision rule to every pair of equivalence
classes across the two anonymized relations. Because the rule depends only
on the generalization sequences, a single decision covers
``|C_left| * |C_right|`` record pairs at once — the paper's observation
"we do not need to repeat the process for pairs generalized to the same
sequences" taken to its logical end.

Two implementation notes:

- per attribute, the number of *distinct* generalized values is far smaller
  than the number of classes, so the kernel encodes distinct values as
  integer codes, turns the per-attribute slack verdicts into dense
  matrices over value pairs and evaluates whole chunks of the class-pair
  cross product with fancy indexing + boolean reductions (see
  :mod:`repro.linkage.codes` and DESIGN.md);
- non-match class pairs are only counted (there can be hundreds of
  thousands); match and unknown class pairs are kept as ``(left, right)``
  class positions, since the SMC step and the result reporting need them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anonymize.base import GeneralizedRelation
from repro.errors import ConfigurationError
from repro.linkage.codes import CodeTables
from repro.linkage.distances import MatchRule
from repro.obs import NOOP_TELEMETRY, Telemetry

#: Chunk budget for the kernel: at most this many cross-product cells are
#: materialized at once per per-attribute intermediate (uint8/bool), so
#: peak extra memory is a few multiples of this, independent of corpus size.
DEFAULT_CHUNK_CELLS = 1 << 22


@dataclass
class BlockingResult:
    """Outcome of the blocking step, by class position.

    ``matched`` and ``unknown`` are ``(n, 2)`` intp arrays of ``(left
    index, right index)`` class positions into ``tables.left.classes`` /
    ``tables.right.classes``, in row-major order; ``nonmatch_pairs`` is a
    record-pair count. ``tables`` are the code tables the verdicts came
    from (and ``tables.rule`` the rule that decided them), so later steps
    score the unknown pairs without encoding the classes again.
    ``blocking_efficiency`` is the paper's metric: the fraction of record
    pairs permanently decided (M or N) by the slack rule.
    """

    tables: CodeTables
    matched: np.ndarray
    unknown: np.ndarray
    nonmatch_pairs: int
    total_pairs: int
    elapsed_seconds: float = 0.0

    def record_pairs(self, positions: np.ndarray) -> int:
        """Record pairs covered by the ``(n, 2)`` class *positions*."""
        sizes = (
            self.tables.left_sizes[positions[:, 0]]
            * self.tables.right_sizes[positions[:, 1]]
        )
        return int(sizes.sum())

    @property
    def matched_pairs(self) -> int:
        """Record pairs certainly matched by blocking (all true matches)."""
        return self.record_pairs(self.matched)

    @property
    def unknown_pairs(self) -> int:
        """Record pairs left undecided, i.e. the SMC step's workload."""
        return self.record_pairs(self.unknown)

    @property
    def decided_pairs(self) -> int:
        """Record pairs labeled M or N by the slack rule."""
        return self.matched_pairs + self.nonmatch_pairs

    @property
    def blocking_efficiency(self) -> float:
        """Fraction of all record pairs decided in the blocking step."""
        if self.total_pairs == 0:
            return 1.0
        return self.decided_pairs / self.total_pairs

    @property
    def sufficient_allowance(self) -> float:
        """The SMC allowance (fraction) that guarantees 100% recall.

        The paper's observation under Figure 8: blocking efficiency
        "indicates the sufficient SMC allowance to achieve 100% recall".
        """
        if self.total_pairs == 0:
            return 0.0
        return self.unknown_pairs / self.total_pairs


def check_rule_covers_qids(
    rule: MatchRule,
    left: GeneralizedRelation,
    right: GeneralizedRelation,
) -> None:
    """Raise unless every rule attribute is a QID of both sides.

    *left* and *right* are anonymized relations or published views.
    """
    for name in rule.names:
        if name not in left.qids or name not in right.qids:
            raise ConfigurationError(
                f"rule attribute {name!r} is not a QID of both relations; "
                f"left={left.qids}, right={right.qids}"
            )


def publish_blocking_metrics(
    telemetry: Telemetry, result: BlockingResult
) -> None:
    """Mirror one blocking result into the metrics registry."""
    if not telemetry.enabled:
        return
    tables = result.tables
    class_pairs = len(tables.left_sizes) * len(tables.right_sizes)
    telemetry.counter("blocking.class_pairs").add(class_pairs)
    telemetry.counter("blocking.matched_class_pairs").add(len(result.matched))
    telemetry.counter("blocking.unknown_class_pairs").add(len(result.unknown))
    telemetry.counter("blocking.matched_record_pairs").add(result.matched_pairs)
    telemetry.counter("blocking.nonmatch_record_pairs").add(
        result.nonmatch_pairs
    )
    telemetry.counter("blocking.unknown_record_pairs").add(result.unknown_pairs)


def block(
    rule: MatchRule,
    left: GeneralizedRelation,
    right: GeneralizedRelation,
    *,
    chunk_cells: int = DEFAULT_CHUNK_CELLS,
    telemetry: Telemetry = NOOP_TELEMETRY,
) -> BlockingResult:
    """Run the blocking step over two anonymized relations or views.

    *left* and *right* are anything with ``.qids`` and ``.classes`` whose
    classes carry ``.sequence`` and ``.size``: the library's anonymized
    relations or the querying party's published views
    (:mod:`repro.protocol`). The kernel decides every class pair;
    *chunk_cells* bounds its peak intermediate size.

    *telemetry* records the blocking phase as a span (whose duration
    becomes ``elapsed_seconds``) with a nested kernel span, plus the
    M/N/U pair tallies in the metrics registry.
    """
    check_rule_covers_qids(rule, left, right)
    class_pairs = len(left.classes) * len(right.classes)
    with telemetry.span("blocking", class_pairs=class_pairs) as span:
        with telemetry.span("blocking.kernel.numpy"):
            tables = CodeTables(rule, left, right)
            matched, unknown, nonmatch_pairs = _decide(
                tables, chunk_cells, telemetry
            )
    result = BlockingResult(
        tables,
        matched,
        unknown,
        nonmatch_pairs,
        total_pairs=int(tables.left_sizes.sum()) * int(tables.right_sizes.sum()),
        elapsed_seconds=span.duration,
    )
    publish_blocking_metrics(telemetry, result)
    return result


def _decide(
    tables: CodeTables, chunk_cells: int, telemetry: Telemetry
) -> tuple[np.ndarray, np.ndarray, int]:
    """The blocking kernel: verdict matrices + chunked reductions.

    Returns the matched and unknown class positions (row-major) and the
    non-match record-pair count.

    Per attribute the verdict matrix is split into two boolean tables
    (``verdict == 1`` and ``verdict == 2``) and, when the result fits the
    *chunk_cells* budget, column-gathered over the right classes once —
    after that every chunk of left classes needs only single-axis row
    gathers, which are far cheaper than a broadcast ``[rows, cols]`` fancy
    index. Left classes are processed in chunks sized so the
    ``(rows, n_right)`` intermediates stay within *chunk_cells* cells; per
    chunk the per-attribute tables reduce into ``nonmatch = any(v == 1)``
    / ``match = all(v == 2)`` masks. Non-match mass is accumulated as the
    bilinear form ``left_sizes @ mask @ right_sizes`` without
    materializing pairs; matched/unknown class pairs come out of
    ``np.argwhere`` in row-major order.
    """
    left_count = len(tables.left_sizes)
    right_count = len(tables.right_sizes)
    empty = np.empty((0, 2), dtype=np.intp)
    if not left_count or not right_count:
        return empty, empty, 0
    left_codes = tables.left_codes
    left_sizes = tables.left_sizes
    right_sizes = tables.right_sizes
    # Per attribute: (nonmatch_table, match_table, right_codes_or_None).
    # A None third element means the tables are already column-gathered to
    # ``(left_values, n_right)``; otherwise they stay in value space
    # (too large to expand within the cell budget) and each chunk gathers
    # columns after rows.
    attribute_tables = []
    for attr_position, r_codes in enumerate(tables.right_codes):
        verdict_matrix = tables.verdict_matrix(attr_position)
        nonmatch_table = verdict_matrix == 1
        match_table = verdict_matrix == 2
        if nonmatch_table.shape[0] * right_count <= chunk_cells:
            attribute_tables.append(
                (nonmatch_table[:, r_codes], match_table[:, r_codes], None)
            )
        else:
            attribute_tables.append((nonmatch_table, match_table, r_codes))
    rows_per_chunk = max(1, chunk_cells // right_count)
    total_chunks = -(-left_count // rows_per_chunk)
    nonmatch_total = 0
    chunks = 0
    matched = [empty]
    unknown = [empty]
    for start in range(0, left_count, rows_per_chunk):
        chunks += 1
        stop = min(start + rows_per_chunk, left_count)
        nonmatch = None
        all_match = None
        for (nonmatch_table, match_table, r_codes), l_codes in zip(
            attribute_tables, left_codes
        ):
            rows = l_codes[start:stop]
            if r_codes is None:
                nonmatch_chunk = nonmatch_table[rows]
                match_chunk = match_table[rows]
            else:
                nonmatch_chunk = nonmatch_table[rows][:, r_codes]
                match_chunk = match_table[rows][:, r_codes]
            if nonmatch is None:
                # Fancy indexing copies, so in-place |=/&= below is safe.
                nonmatch = nonmatch_chunk
                all_match = match_chunk
            else:
                nonmatch |= nonmatch_chunk
                all_match &= match_chunk
        nonmatch_total += int(left_sizes[start:stop] @ (nonmatch @ right_sizes))
        undecided = ~(nonmatch | all_match)
        for found, mask in ((matched, all_match), (unknown, undecided)):
            positions = np.argwhere(mask)
            positions[:, 0] += start
            found.append(positions)
        telemetry.emit_progress("blocking", chunks, total_chunks, unit="chunks")
    telemetry.counter("blocking.kernel_chunks").add(chunks)
    telemetry.histogram("blocking.chunk_rows").observe(rows_per_chunk)
    return np.concatenate(matched), np.concatenate(unknown), nonmatch_total
