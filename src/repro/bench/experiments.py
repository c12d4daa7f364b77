"""One driver per table and figure of the paper's evaluation.

Every function returns an :class:`~repro.bench.runner.ExperimentTable`
whose rows regenerate the corresponding figure's series. Shape assertions
(who wins, monotonicity, crossover locations) live in ``benchmarks/``;
EXPERIMENTS.md records paper-versus-measured values produced by the
``repro-bench`` CLI.
"""

from __future__ import annotations

import random

from repro.bench.config import (
    ALLOWANCE_SWEEP,
    K_SWEEP,
    QID_SWEEP,
    THETA_SWEEP,
    ExperimentData,
)
from repro.bench.runner import ExperimentTable, as_percent
from repro.linkage.heuristics import HEURISTICS, RandomSelection
from repro.linkage.hybrid import HybridLinkage, LinkageConfig
from repro.linkage.metrics import evaluate
from repro.linkage.strategies import STRATEGIES

HEURISTIC_ORDER = ("maxLast", "minFirst", "minAvgFirst")


def _recall(data: ExperimentData, result, theta=None, qid_count=None) -> float:
    """Recall of a strategy-1 run: verified matches over true matches.

    With the maximize-precision strategy nothing unverified is claimed, so
    recall needs no per-class ground-truth pricing — just the totals.
    """
    total = data.ground_truth(theta, qid_count).total_matches()
    if total == 0:
        return 1.0
    return result.verified_match_pairs / total


def _run(
    data: ExperimentData,
    *,
    k=None,
    theta=None,
    qid_count=None,
    allowance=None,
    heuristic=None,
    strategy=None,
    algorithm: str = "maxent",
):
    """One hybrid run at a sweep point, reusing cached blocking."""
    rule = data.rule(theta, qid_count)
    config = LinkageConfig(
        rule,
        allowance=data.config.allowance if allowance is None else allowance,
        heuristic=heuristic or HEURISTICS["minAvgFirst"],
        strategy=strategy or STRATEGIES["maximize-precision"],
        telemetry=data.telemetry,
    )
    left, right = data.anonymized(k, qid_count, algorithm)
    blocking = data.blocking(k, theta, qid_count, algorithm)
    return HybridLinkage(config).run_from_blocking(blocking, left, right)


# ---------------------------------------------------------------------------
# Tables I & II + the Section III walk-through.
# ---------------------------------------------------------------------------


def toy_example() -> ExperimentTable:
    """The 6x6 worked example: 6 matched, 12 mismatched, 18 unknown."""
    from repro.anonymize.base import EquivalenceClass, GeneralizedRelation
    from repro.data.hierarchies import toy_education_vgh, toy_work_hrs_vgh
    from repro.data.schema import Attribute, Relation, Schema
    from repro.data.vgh import Interval
    from repro.linkage.blocking import block
    from repro.linkage.distances import MatchAttribute, MatchRule

    schema = Schema(
        [Attribute.categorical("education"), Attribute.continuous("work_hrs")]
    )
    r = Relation(
        schema,
        [("Masters", 35), ("Masters", 36), ("Masters", 36),
         ("9th", 28), ("10th", 22), ("12th", 33)],
    )
    s = Relation(
        schema,
        [("Masters", 36), ("Masters", 35), ("Bachelors", 27),
         ("11th", 33), ("11th", 22), ("12th", 27)],
    )
    hierarchies = {
        "education": toy_education_vgh(), "work_hrs": toy_work_hrs_vgh(),
    }
    r_prime = GeneralizedRelation(
        r, ("education", "work_hrs"), hierarchies,
        [
            EquivalenceClass(("Masters", Interval(35, 37)), (0, 1, 2)),
            EquivalenceClass(("Secondary", Interval(1, 35)), (3, 4, 5)),
        ],
        k=3,
    )
    s_prime = GeneralizedRelation(
        s, ("education", "work_hrs"), hierarchies,
        [
            EquivalenceClass(("Masters", Interval(35, 37)), (0, 1)),
            EquivalenceClass(("ANY", Interval(1, 35)), (2, 3)),
            EquivalenceClass(("Senior Sec.", Interval(1, 35)), (4, 5)),
        ],
        k=2,
    )
    rule = MatchRule(
        [
            MatchAttribute("education", hierarchies["education"], 0.5),
            MatchAttribute("work_hrs", hierarchies["work_hrs"], 0.2),
        ]
    )
    result = block(rule, r_prime, s_prime)
    rows = (
        ("matched (M)", result.matched_pairs, 6),
        ("mismatched (N)", result.nonmatch_pairs, 12),
        ("unknown (U)", result.unknown_pairs, 18),
        ("blocking efficiency %", as_percent(result.blocking_efficiency), 50.0),
    )
    return ExperimentTable(
        "toy",
        "Section III worked example (Tables I & II)",
        ("quantity", "measured", "paper"),
        rows,
    )


# ---------------------------------------------------------------------------
# Section VI prose: SMC and non-crypto step timings.
# ---------------------------------------------------------------------------


def smc_timing(
    key_bits: int = 1024, samples: int = 5, data: ExperimentData | None = None
) -> ExperimentTable:
    """Per-attribute secure distance cost, plus the non-crypto steps.

    The paper (2.8 GHz PC, 2008): 0.43 s per continuous attribute at
    1024-bit keys; anonymization 2.02/2.03 s; blocking 1.35 s; all
    non-crypto work together ≈ 13 secure comparisons.

    The key's fixed-base randomizer table is built (and reported) before
    the secure distance is timed, so that row is steady-state.

    Next to the full protocol, the online rows time the blinded threshold
    comparison and the equality test once Alice's ciphertexts exist —
    Bob's steps plus the querying party's decryption or zero test — which
    is what each further pair of a left record costs inside a budget
    lease.
    """
    from repro.crypto.smc.comparison import (
        default_magnitude_bound,
        finish_within_threshold,
    )
    from repro.crypto.smc.euclidean import alice_encrypts, secure_squared_distance
    from repro.crypto.smc.hamming import alice_sends_hash, finish_equality
    from repro.crypto.paillier import PaillierKeyPair
    from repro.crypto.smc.channel import SMCSession

    data = data or ExperimentData()
    telemetry = data.telemetry
    rng = random.Random(4242)
    with telemetry.span("timing.keygen", key_bits=key_bits) as keygen_span:
        key_pair = PaillierKeyPair.generate(key_bits, rng)
    keygen_seconds = keygen_span.duration
    with telemetry.span("timing.randomizer_table") as table_span:
        key_pair.public_key.randomizer_table
    session = SMCSession(key_pair, rng=rng)
    with telemetry.span("timing.secure_distance", samples=samples) as dist_span:
        for sample in range(samples):
            secure_squared_distance(session, 40.0 + sample, 37.0)
    distance_seconds = dist_span.duration / samples
    # Section III's Work-Hrs example threshold (theta * normFactor = 19.6).
    alice_value, threshold = 40.0, 19.6
    alice = alice_encrypts(session, alice_value)
    with telemetry.span("timing.online_threshold", samples=samples) as online_span:
        for sample in range(samples):
            bob_value = 37.0 + sample
            finish_within_threshold(
                session,
                alice,
                bob_value,
                threshold,
                default_magnitude_bound(alice_value, bob_value, threshold),
            )
    online_seconds = online_span.duration / samples
    # Bob blinds a reused E(h_a) over its table (built on arrival, as in
    # a lease) and the querying party runs the zero test; half the pairs
    # are equal, so both outcomes of the zero test are timed.
    alice_hash = alice_sends_hash(session, "Masters")
    with telemetry.span("timing.online_equality", samples=samples) as equality_span:
        for sample in range(samples):
            finish_equality(session, alice_hash, ("Masters", "9th")[sample % 2])
    equality_seconds = equality_span.duration / samples

    from repro.anonymize import MaxEntropyTDS
    from repro.linkage.blocking import block

    qids = data.config.qids()
    anonymizer = MaxEntropyTDS(data.hierarchies)
    # Build the cached D1/D2 pair first, so the row times anonymization
    # alone and not the records' generation on first access.
    pair = data.pair
    with telemetry.span("timing.anonymize", k=data.config.k) as anon_span:
        left = anonymizer.anonymize(pair.left, qids, data.config.k)
        right = anonymizer.anonymize(pair.right, qids, data.config.k)
    anonymize_seconds = anon_span.duration
    blocking = block(data.rule(), left, right, telemetry=telemetry)
    blocking_seconds = blocking.elapsed_seconds
    non_crypto = anonymize_seconds + blocking_seconds
    equivalent = non_crypto / distance_seconds if distance_seconds else 0.0
    rows = (
        (f"keygen ({key_bits}-bit)", round(keygen_seconds, 4), "-"),
        ("randomizer table build (s)", round(table_span.duration, 4), "-"),
        ("secure distance / attribute (s)", round(distance_seconds, 4), 0.43),
        (
            "blinded comparison, online / pair (s)",
            round(online_seconds, 4),
            "-",
        ),
        ("equality test, online / pair (s)", round(equality_seconds, 4), "-"),
        ("anonymize both sides (s)", round(anonymize_seconds, 3), 4.05),
        ("blocking step (s)", round(blocking_seconds, 3), 1.35),
        ("non-crypto ≈ N secure comparisons", round(equivalent, 1), 13),
    )
    return ExperimentTable(
        "timing",
        f"Section VI cost accounting ({len(qids)} QIDs, "
        f"{len(data.pair.left)} records/side)",
        ("quantity", "measured", "paper (2008)"),
        rows,
    )


# ---------------------------------------------------------------------------
# Figure 2: anonymization methods, distinct generalizations vs k.
# ---------------------------------------------------------------------------


def fig2_anonymizers(
    data: ExperimentData | None = None, k_values=K_SWEEP
) -> ExperimentTable:
    """Distinct generalization sequences per algorithm and k."""
    data = data or ExperimentData()
    rows = []
    for k in k_values:
        row = [k]
        for algorithm in ("tds", "maxent", "datafly"):
            left, _ = data.anonymized(k, algorithm=algorithm)
            row.append(left.distinct_sequences)
        rows.append(tuple(row))
    return ExperimentTable(
        "fig2",
        "Figure 2: # distinct generalizations vs k (D1 side)",
        ("k", "TDS", "Entropy (ours)", "DataFly"),
        tuple(rows),
    )


# ---------------------------------------------------------------------------
# Figures 3 & 4: anonymity requirement k.
# ---------------------------------------------------------------------------


def fig3_blocking_vs_k(
    data: ExperimentData | None = None, k_values=K_SWEEP
) -> ExperimentTable:
    """Blocking efficiency vs k."""
    data = data or ExperimentData()
    rows = tuple(
        (k, as_percent(data.blocking(k).blocking_efficiency))
        for k in k_values
    )
    return ExperimentTable(
        "fig3",
        "Figure 3: blocking efficiency vs anonymity requirement k",
        ("k", "blocking efficiency %"),
        rows,
    )


def fig4_recall_vs_k(
    data: ExperimentData | None = None, k_values=K_SWEEP
) -> ExperimentTable:
    """Recall vs k for the three heuristics."""
    data = data or ExperimentData()
    rows = []
    for k in k_values:
        row = [k]
        for name in HEURISTIC_ORDER:
            result = _run(data, k=k, heuristic=HEURISTICS[name])
            row.append(as_percent(_recall(data, result)))
        rows.append(tuple(row))
    return ExperimentTable(
        "fig4",
        "Figure 4: recall % vs anonymity requirement k",
        ("k",) + HEURISTIC_ORDER,
        tuple(rows),
    )


# ---------------------------------------------------------------------------
# Figure 5: matching thresholds.
# ---------------------------------------------------------------------------


def fig5_recall_vs_theta(
    data: ExperimentData | None = None, thetas=THETA_SWEEP
) -> ExperimentTable:
    """Recall vs theta, plus the (flat) blocking efficiency column."""
    data = data or ExperimentData()
    rows = []
    for theta in thetas:
        row = [theta]
        for name in HEURISTIC_ORDER:
            result = _run(data, theta=theta, heuristic=HEURISTICS[name])
            row.append(as_percent(_recall(data, result, theta=theta)))
        row.append(as_percent(data.blocking(theta=theta).blocking_efficiency))
        rows.append(tuple(row))
    return ExperimentTable(
        "fig5",
        "Figure 5: recall % vs matching threshold theta",
        ("theta",) + HEURISTIC_ORDER + ("blocking eff %",),
        tuple(rows),
    )


# ---------------------------------------------------------------------------
# Figures 6 & 7: number of quasi-identifiers.
# ---------------------------------------------------------------------------


def fig6_blocking_vs_qids(
    data: ExperimentData | None = None, counts=QID_SWEEP
) -> ExperimentTable:
    """Blocking efficiency vs the number of QIDs (top-q of the paper set)."""
    data = data or ExperimentData()
    rows = tuple(
        (count, as_percent(data.blocking(qid_count=count).blocking_efficiency))
        for count in counts
    )
    return ExperimentTable(
        "fig6",
        "Figure 6: blocking efficiency vs number of QIDs",
        ("QIDs", "blocking efficiency %"),
        rows,
    )


def fig7_recall_vs_qids(
    data: ExperimentData | None = None, counts=QID_SWEEP
) -> ExperimentTable:
    """Recall vs the number of QIDs for the three heuristics."""
    data = data or ExperimentData()
    rows = []
    for count in counts:
        row = [count]
        for name in HEURISTIC_ORDER:
            result = _run(data, qid_count=count, heuristic=HEURISTICS[name])
            row.append(as_percent(_recall(data, result, qid_count=count)))
        rows.append(tuple(row))
    return ExperimentTable(
        "fig7",
        "Figure 7: recall % vs number of QIDs",
        ("QIDs",) + HEURISTIC_ORDER,
        tuple(rows),
    )


# ---------------------------------------------------------------------------
# Figure 8: SMC allowance.
# ---------------------------------------------------------------------------


def fig8_recall_vs_allowance(
    data: ExperimentData | None = None, allowances=ALLOWANCE_SWEEP
) -> ExperimentTable:
    """Recall vs SMC allowance; also reports the sufficient allowance."""
    data = data or ExperimentData()
    blocking = data.blocking()
    rows = []
    for allowance in allowances:
        row = [as_percent(allowance)]
        for name in HEURISTIC_ORDER:
            result = _run(data, allowance=allowance, heuristic=HEURISTICS[name])
            row.append(as_percent(_recall(data, result)))
        rows.append(tuple(row))
    title = (
        "Figure 8: recall % vs SMC allowance "
        f"(sufficient allowance: {as_percent(blocking.sufficient_allowance)}%, "
        f"blocking efficiency: {as_percent(blocking.blocking_efficiency)}%)"
    )
    return ExperimentTable(
        "fig8", title, ("allowance %",) + HEURISTIC_ORDER, tuple(rows)
    )


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md).
# ---------------------------------------------------------------------------


def ablation_strategies(data: ExperimentData | None = None) -> ExperimentTable:
    """Section V-B strategies 1-3 at the default operating point."""
    data = data or ExperimentData()
    rows = []
    for name in ("maximize-precision", "maximize-recall", "learned-classifier"):
        strategy = STRATEGIES[name]
        heuristic = (
            RandomSelection(seed=7)
            if strategy.requires_random_selection
            else HEURISTICS["minAvgFirst"]
        )
        result = _run(data, strategy=strategy, heuristic=heuristic)
        evaluation = evaluate(
            result,
            data.rule(),
            data.pair.left,
            data.pair.right,
            data.ground_truth(),
        )
        rows.append(
            (
                name,
                as_percent(evaluation.precision),
                as_percent(evaluation.recall),
                result.claimed_pairs,
            )
        )
    return ExperimentTable(
        "ablation-strategies",
        "Ablation: leftover labeling strategies (Section V-B)",
        ("strategy", "precision %", "recall %", "claimed pairs"),
        tuple(rows),
    )


def ablation_selection(data: ExperimentData | None = None) -> ExperimentTable:
    """Expected-distance heuristics vs random selection."""
    data = data or ExperimentData()
    rows = []
    for name in HEURISTIC_ORDER:
        result = _run(data, heuristic=HEURISTICS[name])
        rows.append((name, as_percent(_recall(data, result))))
    result = _run(data, heuristic=RandomSelection(seed=11))
    rows.append(("random", as_percent(_recall(data, result))))
    return ExperimentTable(
        "ablation-selection",
        "Ablation: selection heuristics vs random (default settings)",
        ("selection", "recall %"),
        tuple(rows),
    )


def ablation_anonymizers_blocking(
    data: ExperimentData | None = None,
) -> ExperimentTable:
    """Blocking efficiency per anonymization algorithm at default k."""
    data = data or ExperimentData()
    rows = []
    for algorithm in ("maxent", "tds", "datafly", "mondrian", "incognito"):
        blocking = data.blocking(algorithm=algorithm)
        left, _ = data.anonymized(algorithm=algorithm)
        rows.append(
            (
                algorithm,
                left.distinct_sequences,
                as_percent(blocking.blocking_efficiency),
            )
        )
    return ExperimentTable(
        "ablation-anonymizers",
        "Ablation: anonymizer choice vs blocking efficiency (k=32)",
        ("algorithm", "distinct sequences", "blocking efficiency %"),
        tuple(rows),
    )


def ablation_noise(data: ExperimentData | None = None) -> ExperimentTable:
    """The other sanitization family: random noise addition [9], [12].

    Matching directly on additively perturbed data makes *real* errors —
    noise is dirt, not imprecision — so precision and recall both fall as
    the noise level rises, while the hybrid method holds 100% precision
    at any privacy level. A reduced record sample keeps the noisy
    cross-product matching affordable at full scale.
    """
    from repro.anonymize.noise import noisy_linkage_baseline

    data = data or ExperimentData()
    rule = data.rule()
    cap = 4000
    left = data.pair.left
    right = data.pair.right
    if len(left) > cap:
        left = left.take(range(cap))
        right = right.take(range(cap))
    rows = []
    for level in (0.0, 0.02, 0.05, 0.1, 0.2):
        outcome = noisy_linkage_baseline(
            rule, left, right, noise_level=level, seed=data.config.seed
        )
        rows.append(
            (
                level,
                as_percent(outcome.evaluation.precision),
                as_percent(outcome.evaluation.recall),
                as_percent(outcome.evaluation.f1),
            )
        )
    return ExperimentTable(
        "ablation-noise",
        "Ablation: random-noise sanitization vs noise level (no SMC)",
        ("noise level", "precision %", "recall %", "F1 %"),
        tuple(rows),
    )


def baselines(data: ExperimentData | None = None) -> ExperimentTable:
    """Hybrid vs pure-SMC, pure-sanitization, and secure token blocking."""
    from repro.linkage.baselines import (
        pure_sanitization_linkage,
        pure_smc_linkage,
    )
    from repro.linkage.secure_blocking import secure_token_blocking

    data = data or ExperimentData()
    rule = data.rule()
    left, right = data.anonymized()
    truth = data.ground_truth()
    hybrid = _run(data)
    hybrid_eval = evaluate(hybrid, rule, data.pair.left, data.pair.right, truth)
    smc = pure_smc_linkage(rule, data.pair.left, data.pair.right, truth)
    sanitized = pure_sanitization_linkage(rule, left, right, truth)
    tokens = secure_token_blocking(
        rule, data.pair.left, data.pair.right, rng=data.config.seed
    )
    total_true = truth.total_matches()
    token_recall = (
        len(tokens.matched_pairs) / total_true if total_true else 1.0
    )
    rows = (
        (
            "hybrid (ours)",
            as_percent(hybrid_eval.precision),
            as_percent(hybrid_eval.recall),
            hybrid.smc_invocations,
        ),
        (
            "pure SMC",
            as_percent(smc.evaluation.precision),
            as_percent(smc.evaluation.recall),
            smc.smc_invocations,
        ),
        (
            "pure sanitization",
            as_percent(sanitized.evaluation.precision),
            as_percent(sanitized.evaluation.recall),
            sanitized.smc_invocations,
        ),
        (
            "secure token blocking [6]",
            100.0,
            as_percent(token_recall),
            tokens.smc_invocations,
        ),
    )
    return ExperimentTable(
        "baselines",
        "Hybrid vs the baseline families (default settings)",
        ("method", "precision %", "recall %", "SMC invocations"),
        rows,
    )


#: Experiment id -> driver taking the shared :class:`ExperimentData`.
EXPERIMENTS = {
    "toy": lambda data: toy_example(),
    "timing": lambda data: smc_timing(data=data),
    "fig2": fig2_anonymizers,
    "fig3": fig3_blocking_vs_k,
    "fig4": fig4_recall_vs_k,
    "fig5": fig5_recall_vs_theta,
    "fig6": fig6_blocking_vs_qids,
    "fig7": fig7_recall_vs_qids,
    "fig8": fig8_recall_vs_allowance,
    "ablation-strategies": ablation_strategies,
    "ablation-selection": ablation_selection,
    "ablation-anonymizers": ablation_anonymizers_blocking,
    "ablation-noise": ablation_noise,
    "baselines": baselines,
}
