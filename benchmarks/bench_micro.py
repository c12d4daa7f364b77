"""Micro-benchmarks of the primitives the macro experiments stand on.

These are classic pytest-benchmark targets (many rounds, statistics):
Paillier operations, the slack decision rule, the blocking engine and the
ground-truth oracle. They put concrete per-operation numbers behind the
cost-model discussion in DESIGN.md.

``TestBlockingEngines`` additionally races the scalar and numpy blocking
engines over synthetic corpora at several class-count scales and records
the measurements in ``BENCH_blocking.json`` at the repository root
(override the path with ``REPRO_BENCH_BLOCKING_OUT``). Scales are merged
into the existing file rather than overwriting it, so a quick-mode run no
longer wipes the full-scale numbers; every run also appends one
provenance-stamped record (timestamp, git SHA, machine) to
``BENCH_history.jsonl`` (override with ``REPRO_BENCH_HISTORY_OUT``) — the
input to ``python -m repro.obs.compare`` and the CI perf gate.
"""

import gc
import json
import os
import platform
import random
from pathlib import Path

import pytest

from repro.anonymize.base import EquivalenceClass, GeneralizedRelation
from repro.crypto.paillier import PaillierKeyPair
from repro.data.schema import Attribute, Relation, Schema
from repro.data.vgh import CategoricalHierarchy, Interval, IntervalHierarchy
from repro.linkage.blocking import block
from repro.linkage.distances import MatchAttribute, MatchRule
from repro.linkage.slack import slack_decision
from repro.obs import Telemetry


@pytest.fixture(scope="module")
def keys():
    return PaillierKeyPair.generate(1024, random.Random(1))


@pytest.fixture(scope="module")
def rng():
    return random.Random(2)


class TestPaillierMicro:
    def test_encrypt(self, benchmark, keys, rng):
        benchmark(keys.public_key.encrypt, 123456, rng)

    def test_decrypt(self, benchmark, keys, rng):
        ciphertext = keys.public_key.encrypt(123456, rng)
        benchmark(keys.private_key.decrypt, ciphertext)

    def test_homomorphic_add(self, benchmark, keys, rng):
        a = keys.public_key.encrypt(1, rng)
        b = keys.public_key.encrypt(2, rng)
        benchmark(lambda: a + b)

    def test_scalar_multiply(self, benchmark, keys, rng):
        a = keys.public_key.encrypt(3, rng)
        benchmark(lambda: a * 987654321)


class TestLinkageMicro:
    def test_slack_decision(self, benchmark, data):
        rule = data.rule()
        left, right = data.anonymized()
        left_sequence = left.classes[0].sequence
        right_sequence = right.classes[0].sequence
        benchmark(slack_decision, rule, left_sequence, right_sequence)

    def test_blocking_step(self, benchmark, data):
        rule = data.rule()
        left, right = data.anonymized()
        result = benchmark.pedantic(
            block, args=(rule, left, right), rounds=3, iterations=1
        )
        assert result.total_pairs == data.pair.total_pairs

    def test_blocking_step_numpy(self, benchmark, data):
        rule = data.rule()
        left, right = data.anonymized()
        result = benchmark.pedantic(
            block,
            args=(rule, left, right),
            kwargs={"engine": "numpy"},
            rounds=3,
            iterations=1,
        )
        assert result.engine == "numpy"
        assert result.total_pairs == data.pair.total_pairs

    def test_ground_truth_oracle(self, benchmark, data):
        from repro.linkage.ground_truth import GroundTruth

        rule = data.rule()

        def build_and_count():
            return GroundTruth(
                rule, data.pair.left, data.pair.right
            ).total_matches()

        total = benchmark.pedantic(build_and_count, rounds=3, iterations=1)
        assert total >= data.pair.planted_matches

    def test_plaintext_oracle_compare(self, benchmark, data):
        from repro.crypto.smc.oracle import CountingPlaintextOracle

        rule = data.rule()
        oracle = CountingPlaintextOracle(rule, data.pair.left.schema)
        left_record = data.pair.left[0]
        right_record = data.pair.right[0]
        benchmark(oracle.compare, left_record, right_record)

    def test_secure_comparison_1024_bit(self, benchmark, keys):
        from repro.crypto.smc.channel import SMCSession
        from repro.crypto.smc.comparison import secure_within_threshold

        session = SMCSession(keys, rng=3)
        benchmark.pedantic(
            secure_within_threshold,
            args=(session, 40.0, 37.0, 3.7),
            rounds=5,
            iterations=1,
        )


#: The anonymizer's k sweep: k=1 and 2 split thousands of tiny partitions
#: (per-split overhead dominates), 32 is the paper's operating point and
#: 256 leaves few, large partitions (per-record counting dominates).
ANONYMIZE_K_SWEEP = (1, 2, 8, 32, 256)


class TestAnonymizeKSweep:
    @pytest.mark.parametrize("k", ANONYMIZE_K_SWEEP)
    def test_max_entropy_tds(self, benchmark, data, k):
        from repro.anonymize import MaxEntropyTDS

        relation = data.pair.left
        qids = data.config.qids()
        anonymizer = MaxEntropyTDS(data.hierarchies)
        generalized = benchmark.pedantic(
            anonymizer.anonymize, args=(relation, qids, k), rounds=3, iterations=1
        )
        assert generalized.is_k_anonymous(k)


# ---------------------------------------------------------------------------
# Blocking-engine race: scalar loop vs numpy kernel, tracked across PRs.
# ---------------------------------------------------------------------------

#: (left classes, right classes) per scale; the largest carries the
#: acceptance assertion on the vectorized kernel's speedup. Quick mode
#: (``REPRO_BENCH_BLOCKING_QUICK=1``, used by the CI smoke job) runs only
#: the smallest scale and drops the floor assertion — shared runners are
#: too noisy for a ratio guarantee.
BLOCKING_QUICK = os.environ.get("REPRO_BENCH_BLOCKING_QUICK") == "1"
BLOCKING_SCALES = (
    ((150, 150),) if BLOCKING_QUICK else ((150, 150), (500, 500), (1500, 1500))
)
SPEEDUP_FLOOR_AT_LARGEST = 10.0

_BENCH_EDUCATION = CategoricalHierarchy(
    "education",
    {"ANY": {f"G{g}": [f"v{g}_{i}" for i in range(5)] for g in range(6)}},
)
_BENCH_AGE = IntervalHierarchy.equi_width("age", 0.0, 256.0, 8.0, levels=4)
_BENCH_HIERARCHIES = {"education": _BENCH_EDUCATION, "age": _BENCH_AGE}
_BENCH_SCHEMA = Schema(
    [Attribute.categorical("education"), Attribute.continuous("age")]
)
_BENCH_QIDS = ("education", "age")


_BENCH_EDU_LEAVES = tuple(f"v{g}_{i}" for g in range(6) for i in range(5))
_BENCH_EDU_GROUPS = tuple(f"G{g}" for g in range(6))
_BENCH_AGE_LEAVES = tuple(
    node for node in _BENCH_AGE.nodes if node.width <= 8.0
) + tuple(Interval.point(float(value)) for value in range(0, 256, 3))
_BENCH_AGE_MIDS = tuple(
    node for node in _BENCH_AGE.nodes if 8.0 < node.width <= 64.0
)


def _synthetic_generalized(n_classes: int, seed: int) -> GeneralizedRelation:
    """A random generalized relation with *n_classes* equivalence classes.

    The level mix mirrors the paper's operating regime: most classes sit
    at leaf/point generalizations (high blocking efficiency), a minority
    at mid levels and a few at the root, so the verdict tables contain all
    three labels. Class size is fixed at 4 records.
    """
    rng = random.Random(seed)
    classes = []
    for index in range(n_classes):
        level = rng.random()
        if level < 0.85:
            sequence = (
                rng.choice(_BENCH_EDU_LEAVES),
                rng.choice(_BENCH_AGE_LEAVES),
            )
        elif level < 0.97:
            sequence = (
                rng.choice(_BENCH_EDU_GROUPS),
                rng.choice(_BENCH_AGE_MIDS),
            )
        else:
            sequence = ("ANY", rng.choice(_BENCH_AGE.nodes))
        classes.append(
            EquivalenceClass(sequence, tuple(range(index * 4, index * 4 + 4)))
        )
    source = Relation(_BENCH_SCHEMA, [("v0_0", 1.0)] * (n_classes * 4))
    return GeneralizedRelation(
        source, _BENCH_QIDS, _BENCH_HIERARCHIES, classes, k=1
    )


def _bench_rule() -> MatchRule:
    return MatchRule(
        [
            MatchAttribute("education", _BENCH_EDUCATION, 0.5),
            MatchAttribute("age", _BENCH_AGE, 0.05),
        ]
    )


def _merge_scales(existing: list[dict], fresh: list[dict]) -> list[dict]:
    """Overlay *fresh* per-scale measurements onto *existing* ones.

    Keyed by ``(left_classes, right_classes)``: a re-measured scale
    replaces its old record, unmeasured scales survive — so a quick-mode
    run updates the smallest scale without wiping the full-scale numbers.
    """
    merged = {
        (record["left_classes"], record["right_classes"]): record
        for record in existing
    }
    for record in fresh:
        merged[(record["left_classes"], record["right_classes"])] = record
    return [merged[key] for key in sorted(merged)]


@pytest.fixture(scope="module")
def blocking_engine_results():
    """Collects per-scale measurements; writes the JSON file on teardown."""
    results = []
    yield results
    if not results:
        return
    repo_root = Path(__file__).resolve().parent.parent
    out = os.environ.get(
        "REPRO_BENCH_BLOCKING_OUT", str(repo_root / "BENCH_blocking.json")
    )
    existing: list[dict] = []
    existing_executors: list[dict] = []
    try:
        with open(out) as handle:
            previous = json.load(handle)
        if previous.get("benchmark") == "blocking-engines":
            existing = previous.get("scales") or []
            existing_executors = previous.get("executors") or []
    except (OSError, json.JSONDecodeError):
        pass
    payload = {
        "benchmark": "blocking-engines",
        "python_version": platform.python_version(),
        "scales": _merge_scales(existing, results),
    }
    if existing_executors:
        payload["executors"] = existing_executors
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    # The history record keeps only this run's actual measurements (not
    # the merged file) so each entry reflects one machine and one moment.
    from repro.obs.compare import append_history, history_record

    history_out = os.environ.get(
        "REPRO_BENCH_HISTORY_OUT", str(repo_root / "BENCH_history.jsonl")
    )
    append_history(
        history_out,
        history_record(
            {
                "benchmark": "blocking-engines",
                "python_version": platform.python_version(),
                "scales": results,
            }
        ),
    )


class TestBlockingEngines:
    @pytest.mark.parametrize(
        "scale", BLOCKING_SCALES, ids=lambda scale: f"{scale[0]}x{scale[1]}"
    )
    def test_engine_race(self, scale, blocking_engine_results):
        n_left, n_right = scale
        left = _synthetic_generalized(n_left, seed=100 + n_left)
        right = _synthetic_generalized(n_right, seed=200 + n_right)
        rule = _bench_rule()
        # Keep the collector out of the timed regions: both engines allocate
        # tens of thousands of ClassPair objects per run, and a gen-2 pass
        # landing inside one engine's run would skew the ratio.
        # One recording run per engine captures kernel metrics for the
        # payload (chunk counts etc.); the timed best-of runs stay on the
        # zero-overhead no-op telemetry. ``elapsed_seconds`` itself is the
        # blocking span's duration either way.
        telemetry = Telemetry()
        gc.collect()
        gc.disable()
        try:
            scalar = min(
                (block(rule, left, right, engine="python") for _ in range(2)),
                key=lambda result: result.elapsed_seconds,
            )
            vectorized = min(
                (block(rule, left, right, engine="numpy") for _ in range(5)),
                key=lambda result: result.elapsed_seconds,
            )
            block(rule, left, right, engine="numpy", telemetry=telemetry)
        finally:
            gc.enable()
        kernel_metrics = telemetry.metrics.snapshot()
        # Parity sanity before trusting the timings.
        assert scalar.nonmatch_pairs == vectorized.nonmatch_pairs
        assert len(scalar.matched) == len(vectorized.matched)
        assert len(scalar.unknown) == len(vectorized.unknown)
        class_pairs = n_left * n_right
        speedup = scalar.elapsed_seconds / max(
            vectorized.elapsed_seconds, 1e-12
        )
        blocking_engine_results.append(
            {
                "left_classes": n_left,
                "right_classes": n_right,
                "class_pairs": class_pairs,
                "record_pairs": scalar.total_pairs,
                "unknown_class_pairs": len(scalar.unknown),
                "python": {
                    "seconds": scalar.elapsed_seconds,
                    "class_pairs_per_sec": class_pairs / scalar.elapsed_seconds,
                },
                "numpy": {
                    "seconds": vectorized.elapsed_seconds,
                    "class_pairs_per_sec": class_pairs
                    / max(vectorized.elapsed_seconds, 1e-12),
                    "kernel_chunks": kernel_metrics["counters"].get(
                        "blocking.kernel_chunks", 0
                    ),
                    "chunk_rows": kernel_metrics["histograms"].get(
                        "blocking.chunk_rows"
                    ),
                },
                "speedup": speedup,
            }
        )
        if scale == BLOCKING_SCALES[-1] and not BLOCKING_QUICK:
            assert speedup >= SPEEDUP_FLOOR_AT_LARGEST, (
                f"numpy engine only {speedup:.1f}x faster at {scale}"
            )


# ---------------------------------------------------------------------------
# Pipeline-executor race: serial vs thread vs process shard execution.
# ---------------------------------------------------------------------------

#: One scale per run; quick mode shrinks it for the CI smoke job. The
#: scalar engine is raced (per-shard work is pure Python, so processes
#: can actually parallelize it past the GIL) on a fixed shard count.
EXECUTOR_RACE_SCALE = (150, 150) if BLOCKING_QUICK else (400, 400)
EXECUTOR_RACE_SHARDS = 4


def _run_block_stage(executor: str, shards: int, rule, left, right):
    from types import SimpleNamespace

    from repro.pipeline import BlockStage, RunContext

    context = RunContext(
        config=SimpleNamespace(rule=rule, engine="python"),
        executor_name=executor,
        shards=shards,
    )
    try:
        return BlockStage().run(context, left, right)
    finally:
        context.close()


@pytest.fixture(scope="module")
def pipeline_executor_results():
    """Collects executor-race measurements; merges them into the JSON file.

    Shares ``BENCH_blocking.json`` with the engine race above under an
    ``executors`` section, each fixture preserving the other's section,
    and appends the same provenance-stamped record to the history file.
    """
    results = []
    yield results
    if not results:
        return
    repo_root = Path(__file__).resolve().parent.parent
    out = os.environ.get(
        "REPRO_BENCH_BLOCKING_OUT", str(repo_root / "BENCH_blocking.json")
    )
    existing_scales: list[dict] = []
    existing_executors: list[dict] = []
    try:
        with open(out) as handle:
            previous = json.load(handle)
        if previous.get("benchmark") == "blocking-engines":
            existing_scales = previous.get("scales") or []
            existing_executors = previous.get("executors") or []
    except (OSError, json.JSONDecodeError):
        pass
    payload = {
        "benchmark": "blocking-engines",
        "python_version": platform.python_version(),
        "scales": existing_scales,
        "executors": _merge_scales(existing_executors, results),
    }
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    from repro.obs.compare import append_history, history_record

    history_out = os.environ.get(
        "REPRO_BENCH_HISTORY_OUT", str(repo_root / "BENCH_history.jsonl")
    )
    append_history(
        history_out,
        history_record(
            {
                "benchmark": "blocking-engines",
                "python_version": platform.python_version(),
                "executors": results,
            }
        ),
    )


class TestPipelineExecutors:
    def test_executor_race(self, pipeline_executor_results):
        n_left, n_right = EXECUTOR_RACE_SCALE
        left = _synthetic_generalized(n_left, seed=100 + n_left)
        right = _synthetic_generalized(n_right, seed=200 + n_right)
        rule = _bench_rule()
        reference = block(rule, left, right, engine="python")
        timings = {}
        outputs = {}
        gc.collect()
        gc.disable()
        try:
            for executor in ("serial", "thread", "process"):
                best = min(
                    (
                        _run_block_stage(
                            executor, EXECUTOR_RACE_SHARDS, rule, left, right
                        )
                        for _ in range(2)
                    ),
                    key=lambda result: result.elapsed_seconds,
                )
                timings[executor] = {"seconds": best.elapsed_seconds}
                outputs[executor] = best
        finally:
            gc.enable()
        # Reconciliation invariant: every execution plan is bit-identical
        # to the plain serial blocking pass.
        for result in outputs.values():
            assert result.nonmatch_pairs == reference.nonmatch_pairs
            assert [
                (pair.left.sequence, pair.right.sequence)
                for pair in result.matched
            ] == [
                (pair.left.sequence, pair.right.sequence)
                for pair in reference.matched
            ]
            assert len(result.unknown) == len(reference.unknown)
        process_speedup = timings["serial"]["seconds"] / max(
            timings["process"]["seconds"], 1e-12
        )
        pipeline_executor_results.append(
            {
                "left_classes": n_left,
                "right_classes": n_right,
                "shards": EXECUTOR_RACE_SHARDS,
                "cpu_count": os.cpu_count(),
                "engine": "python",
                "timings": timings,
                "process_speedup": process_speedup,
            }
        )
        # A wall-clock win needs real cores; single-CPU runners (and the
        # noisy quick-mode smoke job) record honest numbers without the
        # ratio guarantee.
        if not BLOCKING_QUICK and (os.cpu_count() or 1) >= 2:
            assert process_speedup > 1.0, (
                f"process executor slower than serial "
                f"({process_speedup:.2f}x) with {os.cpu_count()} CPUs"
            )
