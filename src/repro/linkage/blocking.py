"""The blocking step (paper Section IV).

Blocking applies the slack decision rule to every pair of equivalence
classes across the two anonymized relations. Because the rule depends only
on the generalization sequences, a single decision covers
``|C_left| * |C_right|`` record pairs at once — the paper's observation
"we do not need to repeat the process for pairs generalized to the same
sequences" taken to its logical end.

Three implementation notes:

- per attribute, the number of *distinct* generalized values is far smaller
  than the number of classes, so attribute-level slack verdicts are
  memoized over value pairs and the class-pair loop reduces to dictionary
  lookups;
- non-match class pairs are only counted (there can be hundreds of
  thousands); match and unknown class pairs are kept, since the SMC step
  and the result reporting need them;
- two interchangeable engines evaluate the class-pair cross product: the
  scalar reference loop (``engine="python"``) and a numpy kernel
  (``engine="numpy"``) that encodes distinct values as integer codes,
  turns the verdict tables into dense matrices and evaluates whole chunks
  of the cross product with fancy indexing + boolean reductions (see
  :mod:`repro.linkage.codes` and DESIGN.md). ``engine="auto"`` picks the
  kernel above a class-pair threshold. Both engines produce bit-identical
  results — the parity test suite enforces it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.anonymize.base import EquivalenceClass, GeneralizedRelation
from repro.errors import ConfigurationError
from repro.linkage.distances import MatchRule
from repro.linkage.expected import normalized_expected_distance
from repro.linkage.slack import attribute_slack
from repro.obs import NOOP_TELEMETRY, Telemetry

if TYPE_CHECKING:
    import numpy as np

    from repro.linkage.codes import CodeTables

#: Recognized values of the ``engine`` parameter.
ENGINES = ("auto", "python", "numpy")

#: ``engine="auto"`` switches to the numpy kernel at this many class pairs.
#: Below it the kernel's array setup outweighs the scalar loop's cost.
AUTO_NUMPY_THRESHOLD = 10_000

#: Chunk budget for the numpy kernel: at most this many cross-product cells
#: are materialized at once per per-attribute intermediate (uint8/bool), so
#: peak extra memory is a few multiples of this, independent of corpus size.
DEFAULT_CHUNK_CELLS = 1 << 22

#: ``repro.obs.compare.SYNTHETIC_SLOWDOWN_ENV``, spelled out so checking
#: whether the hook is set needs no import.
_SYNTHETIC_SLOWDOWN_ENV = "REPRO_OBS_SYNTHETIC_SLOWDOWN"


def numpy_available() -> bool:
    """True when the numpy kernel can run in this environment."""
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        return False
    return True


def validate_engine(engine: str) -> str:
    """Validate an ``engine`` name against :data:`ENGINES` and return it.

    The one place the membership check lives: :class:`LinkageConfig`,
    :class:`repro.bench.config.BenchConfig` and :func:`resolve_engine`
    all call it, so the error message (and the accepted set) can never
    drift between layers.
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    return engine


def resolve_engine(engine: str, class_pairs: int) -> str:
    """Resolve an ``engine`` argument to ``"python"`` or ``"numpy"``.

    ``"auto"`` picks numpy when it is importable and the workload reaches
    :data:`AUTO_NUMPY_THRESHOLD` class pairs; an explicit ``"numpy"``
    without numpy installed is a configuration error.
    """
    validate_engine(engine)
    if engine == "python":
        return "python"
    available = numpy_available()
    if engine == "numpy":
        if not available:  # pragma: no cover - numpy is a hard dependency
            raise ConfigurationError(
                "engine='numpy' requires numpy; install it or use "
                "engine='python'"
            )
        return "numpy"
    if available and class_pairs >= AUTO_NUMPY_THRESHOLD:
        return "numpy"
    return "python"


@dataclass(frozen=True)
class ClassPair:
    """A pair of equivalence classes, one from each side."""

    left: EquivalenceClass
    right: EquivalenceClass

    @property
    def size(self) -> int:
        """Number of record pairs this class pair covers."""
        return self.left.size * self.right.size

    def describe(self) -> str:
        """Human-readable rendering for reports and examples."""
        return f"{self.left.describe()} x {self.right.describe()}"


@dataclass
class BlockingResult:
    """Outcome of the blocking step.

    ``matched`` and ``unknown`` hold class pairs; ``nonmatch_pairs`` is a
    record-pair count. ``blocking_efficiency`` is the paper's metric: the
    fraction of record pairs permanently decided (M or N) by the slack
    rule.
    """

    rule: MatchRule
    total_pairs: int
    matched: list[ClassPair] = field(default_factory=list)
    unknown: list[ClassPair] = field(default_factory=list)
    nonmatch_pairs: int = 0
    elapsed_seconds: float = 0.0
    #: Which engine produced this result ("python" or "numpy").
    engine: str = "python"

    @property
    def matched_pairs(self) -> int:
        """Record pairs certainly matched by blocking (all true matches)."""
        return sum(pair.size for pair in self.matched)

    @property
    def unknown_pairs(self) -> int:
        """Record pairs left undecided, i.e. the SMC step's workload."""
        return sum(pair.size for pair in self.unknown)

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


def _attribute_verdicts(
    rule: MatchRule,
    left: GeneralizedRelation,
    right: GeneralizedRelation,
    left_positions: list[int],
    right_positions: list[int],
) -> list[dict]:
    """Per attribute: ``(left_value, right_value) -> verdict`` tables.

    Verdicts are small ints: 0 = undecided, 1 = certain non-match,
    2 = certainly within threshold. Tables are built eagerly over the
    *distinct* generalized values on each side, which is tiny compared to
    the number of class pairs the main loop visits.
    """
    tables: list[dict] = []
    for attr_position, attribute in enumerate(rule.attributes):
        left_values = {
            eq_class.sequence[left_positions[attr_position]]
            for eq_class in left.classes
        }
        right_values = {
            eq_class.sequence[right_positions[attr_position]]
            for eq_class in right.classes
        }
        threshold = attribute.effective_threshold
        table = {}
        for left_value in left_values:
            for right_value in right_values:
                infimum, supremum = attribute_slack(
                    attribute, left_value, right_value
                )
                if infimum > threshold:
                    verdict = 1
                elif supremum <= threshold:
                    verdict = 2
                else:
                    verdict = 0
                table[(left_value, right_value)] = verdict
        tables.append(table)
    return tables


def check_rule_covers_qids(
    rule: MatchRule,
    left: GeneralizedRelation,
    right: GeneralizedRelation,
) -> None:
    """Raise unless every rule attribute is a QID of both relations."""
    for name in rule.names:
        if name not in left.qids or name not in right.qids:
            raise ConfigurationError(
                f"rule attribute {name!r} is not a QID of both relations; "
                f"left={left.qids}, right={right.qids}"
            )


def apply_synthetic_slowdown(span) -> None:
    """Pad *span* per the ``REPRO_OBS_SYNTHETIC_SLOWDOWN`` hook.

    CI's perf-gate negative control: sleeps until the blocking phase has
    taken ``slowdown`` times its real duration. Shared by the serial
    :func:`block` and the pipeline's sharded blocking so the gate's
    self-test works under every executor.
    """
    # Without the hook set, return before the import: its first call
    # would otherwise pad the very span it measures.
    if not os.environ.get(_SYNTHETIC_SLOWDOWN_ENV):
        return
    # Imported per call so ``python -m repro.obs.compare`` never finds
    # its target pre-imported via ``import repro``.
    from repro.obs.compare import synthetic_slowdown

    slowdown = synthetic_slowdown("blocking")
    if slowdown > 1.0:
        time.sleep((slowdown - 1.0) * span.duration)


def publish_blocking_metrics(
    telemetry: Telemetry,
    result: BlockingResult | ClassPairVerdicts,
    class_pairs: int,
    resolved: str,
) -> None:
    """Mirror one blocking result into the metrics registry.

    Shared by the library and the querying party, so both entry points
    publish the same ``blocking.*`` counters.
    """
    if not telemetry.enabled:
        return
    telemetry.gauge("blocking.engine").set(resolved)
    telemetry.counter("blocking.class_pairs").add(class_pairs)
    telemetry.counter("blocking.matched_class_pairs").add(len(result.matched))
    telemetry.counter("blocking.unknown_class_pairs").add(len(result.unknown))
    telemetry.counter("blocking.matched_record_pairs").add(result.matched_pairs)
    telemetry.counter("blocking.nonmatch_record_pairs").add(result.nonmatch_pairs)
    telemetry.counter("blocking.unknown_record_pairs").add(result.unknown_pairs)


def block(
    rule: MatchRule,
    left: GeneralizedRelation,
    right: GeneralizedRelation,
    *,
    engine: str = "auto",
    chunk_cells: int = DEFAULT_CHUNK_CELLS,
    telemetry: Telemetry = NOOP_TELEMETRY,
) -> BlockingResult:
    """Run the blocking step over two anonymized relations.

    *engine* selects the cross-product evaluator (see :data:`ENGINES` and
    :func:`resolve_engine`); *chunk_cells* bounds the numpy kernel's peak
    intermediate size. Both engines return bit-identical results: the same
    ``matched`` / ``unknown`` class pairs in the same order and the same
    ``nonmatch_pairs`` count.

    *telemetry* records the blocking phase as a span (whose duration
    becomes ``elapsed_seconds``) with a nested kernel span, plus the
    M/N/U pair tallies and the engine choice in the metrics registry.

    This is the single-process evaluator; the staged pipeline
    (:mod:`repro.pipeline`) shards the same kernels across executors and
    reconciles to a bit-identical result.
    """
    check_rule_covers_qids(rule, left, right)
    class_pairs = len(left.classes) * len(right.classes)
    resolved = resolve_engine(engine, class_pairs)
    result = BlockingResult(
        rule=rule,
        total_pairs=len(left.source) * len(right.source),
        engine=resolved,
    )
    with telemetry.span(
        "blocking", engine=resolved, class_pairs=class_pairs
    ) as span:
        with telemetry.span(f"blocking.kernel.{resolved}"):
            if resolved == "numpy":
                _block_numpy(rule, left, right, result, chunk_cells, telemetry)
            else:
                _block_python(rule, left, right, result, telemetry)
        apply_synthetic_slowdown(span)
    result.elapsed_seconds = span.duration
    publish_blocking_metrics(telemetry, result, class_pairs, resolved)
    return result


def _block_python(
    rule: MatchRule,
    left: GeneralizedRelation,
    right: GeneralizedRelation,
    result: BlockingResult,
    telemetry: Telemetry = NOOP_TELEMETRY,
) -> None:
    """The scalar reference engine: memoized dict lookups per class pair."""
    left_positions = [left.qids.index(name) for name in rule.names]
    right_positions = [right.qids.index(name) for name in rule.names]
    tables = _attribute_verdicts(rule, left, right, left_positions, right_positions)
    # Right-side per-attribute value vectors, extracted once.
    right_columns = [
        [
            eq_class.sequence[right_positions[attr_position]]
            for eq_class in right.classes
        ]
        for attr_position in range(len(rule))
    ]
    right_classes = right.classes
    right_count = len(right_classes)
    attr_range = range(len(rule))
    nonmatch_pairs = 0
    matched = result.matched
    unknown = result.unknown
    left_total = len(left.classes)
    for left_index, left_class in enumerate(left.classes):
        left_size = left_class.size
        # Bind this left class's value into each attribute table: the inner
        # loop then does one dict lookup per attribute.
        row_tables = [
            (
                tables[attr_position],
                left_class.sequence[left_positions[attr_position]],
                right_columns[attr_position],
            )
            for attr_position in attr_range
        ]
        for right_index in range(right_count):
            certain = True
            nonmatch = False
            for table, left_value, column in row_tables:
                verdict = table[(left_value, column[right_index])]
                if verdict == 1:
                    nonmatch = True
                    break
                if verdict == 0:
                    certain = False
            if nonmatch:
                nonmatch_pairs += left_size * right_classes[right_index].size
            elif certain:
                matched.append(ClassPair(left_class, right_classes[right_index]))
            else:
                unknown.append(ClassPair(left_class, right_classes[right_index]))
        telemetry.emit_progress(
            "blocking", left_index + 1, left_total, unit="left classes"
        )
    result.nonmatch_pairs = nonmatch_pairs


@dataclass
class ClassPairVerdicts:
    """Positional blocking verdicts from the numpy kernel.

    ``matched`` and ``unknown`` are ``(n, 2)`` arrays of ``(left index,
    right index)`` class positions in row-major order; ``nonmatch_pairs``
    is a record-pair count. ``tables`` are the code tables the verdicts
    came from, so a caller can score the unknown pairs without encoding
    the classes again.
    """

    tables: CodeTables
    matched: np.ndarray
    unknown: np.ndarray
    nonmatch_pairs: int

    def _record_pairs(self, positions: np.ndarray) -> int:
        sizes = (
            self.tables.left_sizes[positions[:, 0]]
            * self.tables.right_sizes[positions[:, 1]]
        )
        return int(sizes.sum())

    @property
    def matched_pairs(self) -> int:
        """Record pairs certainly matched by blocking."""
        return self._record_pairs(self.matched)

    @property
    def unknown_pairs(self) -> int:
        """Record pairs left undecided."""
        return self._record_pairs(self.unknown)


def block_positions(
    rule: MatchRule,
    left,
    right,
    *,
    chunk_cells: int = DEFAULT_CHUNK_CELLS,
    telemetry: Telemetry = NOOP_TELEMETRY,
) -> ClassPairVerdicts:
    """The vectorized engine: codes + verdict matrices + chunked reductions.

    *left* and *right* are anything with ``.qids`` and ``.classes`` whose
    classes carry ``.sequence`` and ``.size``: anonymized relations here,
    published views in :mod:`repro.protocol`.

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
    ``np.argwhere`` in row-major order — exactly the scalar engine's
    append order.
    """
    import numpy as np

    from repro.linkage.codes import CodeTables

    tables = CodeTables(rule, left, right)
    left_count = len(left.classes)
    right_count = len(right.classes)
    empty = np.empty((0, 2), dtype=np.intp)
    if not left_count or not right_count:
        return ClassPairVerdicts(tables, empty, empty, 0)
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
    return ClassPairVerdicts(
        tables,
        np.concatenate(matched),
        np.concatenate(unknown),
        nonmatch_total,
    )


def _block_numpy(
    rule: MatchRule,
    left: GeneralizedRelation,
    right: GeneralizedRelation,
    result: BlockingResult,
    chunk_cells: int,
    telemetry: Telemetry = NOOP_TELEMETRY,
) -> None:
    """Fill *result* from :func:`block_positions` over two relations."""
    import numpy as np

    verdicts = block_positions(
        rule, left, right, chunk_cells=chunk_cells, telemetry=telemetry
    )
    left_array = np.empty(len(left.classes), dtype=object)
    left_array[:] = left.classes
    right_array = np.empty(len(right.classes), dtype=object)
    right_array[:] = right.classes
    for pairs, positions in (
        (result.matched, verdicts.matched),
        (result.unknown, verdicts.unknown),
    ):
        pairs.extend(
            map(
                ClassPair,
                left_array[positions[:, 0]],
                right_array[positions[:, 1]],
            )
        )
    result.nonmatch_pairs = verdicts.nonmatch_pairs


class ExpectedDistanceCache:
    """Expected-distance vectors for class pairs, memoized per attribute.

    The selection heuristics of Section V-C all rank class pairs by
    functions of the per-attribute expected distances; value-pair level
    memoization makes scoring hundreds of thousands of class pairs cheap.
    """

    def __init__(self, rule: MatchRule, left: GeneralizedRelation, right: GeneralizedRelation):
        self._rule = rule
        self._left_positions = [left.qids.index(name) for name in rule.names]
        self._right_positions = [right.qids.index(name) for name in rule.names]
        self._cache: list[dict] = [dict() for _ in rule.attributes]

    def vector(self, pair: ClassPair) -> tuple[float, ...]:
        """Per-attribute normalized expected distances for *pair*."""
        scores = []
        for attr_position, attribute in enumerate(self._rule.attributes):
            left_value = pair.left.sequence[self._left_positions[attr_position]]
            right_value = pair.right.sequence[self._right_positions[attr_position]]
            cache = self._cache[attr_position]
            key = (left_value, right_value)
            score = cache.get(key)
            if score is None:
                score = normalized_expected_distance(
                    attribute, left_value, right_value
                )
                cache[key] = score
            scores.append(score)
        return tuple(scores)
