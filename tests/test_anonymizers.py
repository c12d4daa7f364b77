"""Tests for the four anonymization algorithms.

Shared invariants run against every algorithm via parametrization; the
algorithm-specific behaviors (DataFly suppression, TDS benefit gating, the
MaxEnt ordering of Figure 2, Mondrian multidimensional cuts) get dedicated
tests.
"""

import pytest

from repro.anonymize import DataFly, MaxEntropyTDS, Mondrian, TDS
from repro.anonymize.base import max_generalization_depth
from repro.anonymize.maxent import branch_entropy
from repro.anonymize.metrics import (
    discernibility,
    distinct_sequences,
    generalization_precision,
    l_diversity,
    sequence_entropy,
    verify_k_anonymity,
)
from repro.anonymize.tds import class_entropy
from repro.data.adult import generate_adult
from repro.data.hierarchies import ADULT_QID_ORDER, adult_hierarchies
from repro.data.schema import Relation
from repro.data.vgh import CategoricalHierarchy, Interval, IntervalHierarchy
from repro.errors import AnonymizationError

QIDS = ADULT_QID_ORDER[:5]
ALGORITHMS = [DataFly, TDS, MaxEntropyTDS, Mondrian]


@pytest.fixture(scope="module")
def catalog():
    return adult_hierarchies()


@pytest.fixture(scope="module")
def relation():
    return generate_adult(600, seed=21)


def make(algorithm, catalog):
    return algorithm(catalog)


class TestSharedInvariants:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_covers_all_records(self, algorithm, catalog, relation):
        generalized = make(algorithm, catalog).anonymize(relation, QIDS, 16)
        covered = sorted(
            index
            for eq_class in generalized.classes
            for index in eq_class.indices
        )
        assert covered == list(range(len(relation)))

    @pytest.mark.parametrize("algorithm", [TDS, MaxEntropyTDS, Mondrian])
    def test_k_anonymous(self, algorithm, catalog, relation):
        generalized = make(algorithm, catalog).anonymize(relation, QIDS, 16)
        verify_k_anonymity(generalized, 16)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_generalizations_are_accurate(self, algorithm, catalog, relation):
        """Every record's original value lies in its generalized value."""
        generalized = make(algorithm, catalog).anonymize(relation, QIDS, 16)
        positions = relation.schema.positions(QIDS)
        for eq_class in generalized.classes:
            for name, value, position in zip(
                QIDS, eq_class.sequence, positions
            ):
                hierarchy = catalog[name]
                for index in eq_class.indices:
                    original = relation[index][position]
                    if isinstance(hierarchy, IntervalHierarchy):
                        assert value.contains(float(original)) or (
                            value.hi == float(original) == hierarchy.root.hi
                        )
                    else:
                        assert original in hierarchy.leaf_set(value)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_monotone_in_k(self, algorithm, catalog, relation):
        """Fewer distinct sequences as k grows (Figure 2's x-axis trend)."""
        anonymizer = make(algorithm, catalog)
        counts = [
            distinct_sequences(anonymizer.anonymize(relation, QIDS, k))
            for k in (4, 32, 128)
        ]
        assert counts[0] >= counts[1] >= counts[2]

    @pytest.mark.parametrize("algorithm", [TDS, MaxEntropyTDS, Mondrian])
    def test_k_equals_n_fully_generalizes(self, algorithm, catalog, relation):
        generalized = make(algorithm, catalog).anonymize(
            relation, QIDS, len(relation)
        )
        assert len(generalized.classes) == 1

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bad_k_rejected(self, algorithm, catalog, relation):
        anonymizer = make(algorithm, catalog)
        with pytest.raises(AnonymizationError):
            anonymizer.anonymize(relation, QIDS, 0)
        with pytest.raises(AnonymizationError):
            anonymizer.anonymize(relation, QIDS, len(relation) + 1)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_unknown_qid_rejected(self, algorithm, catalog, relation):
        anonymizer = make(algorithm, catalog)
        with pytest.raises(AnonymizationError):
            anonymizer.anonymize(relation, ("age", "favorite_color"), 4)



def _with_first_value(relation, attribute, value):
    """*relation* with record 0's *attribute* replaced by *value*."""
    position = relation.schema.position(attribute)
    first = list(relation.records[0])
    first[position] = value
    return Relation(
        relation.schema, (tuple(first),) + relation.records[1:], validate=False
    )


class TestOutOfDomainValues:
    """Every anonymizer refuses a raw value outside its VGH the same way.

    Without the shared domain check, Mondrian crashed with a bare
    ``KeyError`` on an unknown category and published an age interval
    outside the root for 95 or 16, and DataFly raised ``HierarchyError``.
    """

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        "attribute, value",
        [("workclass", "Never-worked"), ("education", "Secondary"),
         ("age", 95), ("age", 16)],
    )
    def test_rejected(self, algorithm, attribute, value, catalog):
        relation = _with_first_value(generate_adult(200, 3), attribute, value)
        with pytest.raises(AnonymizationError):
            make(algorithm, catalog).anonymize(relation, QIDS, 4)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_root_upper_bound_absorbed(self, algorithm, catalog):
        """``value == root.hi`` is in the domain, as in ``leaf_for``."""
        age_root = catalog["age"].root
        relation = _with_first_value(generate_adult(200, 3), "age", age_root.hi)
        generalized = make(algorithm, catalog).anonymize(relation, QIDS, 4)
        assert generalized.is_k_anonymous()


class TestMaxEntropyTDS:
    def test_k_one_recovers_original_relation(self, catalog, relation):
        """Paper scenario (1): k=1 publishes exact values."""
        generalized = MaxEntropyTDS(catalog).anonymize(relation, QIDS, 1)
        for eq_class in generalized.classes:
            age = eq_class.sequence[0]
            assert isinstance(age, Interval) and age.is_point
        # As many sequences as distinct QID projections.
        projections = {
            tuple(record[relation.schema.position(name)] for name in QIDS)
            for record in relation
        }
        assert distinct_sequences(generalized) == len(projections)

    def test_beats_tds_and_datafly_on_distinct_sequences(
        self, catalog, relation
    ):
        """The Figure 2 ordering at moderate k."""
        k = 8
        maxent = MaxEntropyTDS(catalog).anonymize(relation, QIDS, k)
        tds = TDS(catalog).anonymize(relation, QIDS, k)
        datafly = DataFly(catalog).anonymize(relation, QIDS, k)
        assert distinct_sequences(maxent) >= distinct_sequences(tds)
        assert distinct_sequences(maxent) > distinct_sequences(datafly)

    def test_branch_entropy(self):
        assert branch_entropy([5, 5]) == pytest.approx(1.0)
        assert branch_entropy([10]) == 0.0
        assert branch_entropy([]) == 0.0
        assert branch_entropy([1, 1, 1, 1]) == pytest.approx(2.0)


class TestTDS:
    def test_requires_class_attribute(self, catalog, relation):
        projected = relation.project(QIDS)
        with pytest.raises(AnonymizationError):
            TDS(catalog).anonymize(projected, QIDS, 8)

    def test_class_entropy(self):
        assert class_entropy(["a", "a", "b", "b"]) == pytest.approx(1.0)
        assert class_entropy(["a", "a"]) == 0.0
        assert class_entropy([]) == 0.0

    def test_stops_when_no_gain(self, catalog):
        """With a constant class label nothing is beneficial: stay at roots."""
        from repro.data.schema import Relation

        base = generate_adult(100, seed=3)
        records = [
            record[:-1] + ("<=50K",) for record in base.records
        ]
        constant = Relation(base.schema, records, validate=False)
        generalized = TDS(catalog).anonymize(constant, QIDS, 2)
        assert len(generalized.classes) == 1
        sequence = generalized.classes[0].sequence
        assert sequence[1] == "ANY"  # workclass stuck at the root


class TestDataFly:
    def test_full_domain_generalization(self, catalog, relation):
        """All records share one generalization level per attribute."""
        generalized = DataFly(catalog).anonymize(relation, QIDS, 16)
        root_sequence = tuple(catalog[name].root for name in QIDS)
        depths_seen = {}
        from repro.anonymize.base import node_depth

        for eq_class in generalized.classes:
            if eq_class.sequence == root_sequence:
                continue  # the suppression class
            for name, value in zip(QIDS, eq_class.sequence):
                depths_seen.setdefault(name, set()).add(
                    node_depth(catalog[name], value)
                )
        for name, depths in depths_seen.items():
            assert len(depths) == 1, name

    def test_suppression_bounded_by_k(self, catalog, relation):
        k = 16
        generalized = DataFly(catalog).anonymize(relation, QIDS, k)
        root_sequence = tuple(catalog[name].root for name in QIDS)
        violators = [
            eq_class
            for eq_class in generalized.classes
            if eq_class.size < k
        ]
        # Any undersized class must be the all-roots suppression class.
        for eq_class in violators:
            assert eq_class.sequence == root_sequence
            assert eq_class.size <= k

    def test_k_one_keeps_original_values(self, catalog, relation):
        generalized = DataFly(catalog).anonymize(relation, QIDS, 1)
        age = generalized.classes[0].sequence[0]
        assert isinstance(age, Interval) and age.is_point


class TestMondrian:
    def test_multidimensional_intervals(self, catalog, relation):
        """Different classes may carry different, non-VGH age intervals."""
        generalized = Mondrian(catalog).anonymize(relation, QIDS, 8)
        age_hierarchy = catalog["age"]
        age_values = {
            eq_class.sequence[0] for eq_class in generalized.classes
        }
        assert len(age_values) > 1
        off_grid = [
            value
            for value in age_values
            if not value.is_point and not age_hierarchy.is_node(value)
        ]
        assert off_grid, "expected data-dependent (non-VGH) cuts"

    def test_tighter_than_vgh_methods(self, catalog, relation):
        """Mondrian's local recoding yields at least as many sequences."""
        k = 16
        mondrian = Mondrian(catalog).anonymize(relation, QIDS, k)
        datafly = DataFly(catalog).anonymize(relation, QIDS, k)
        assert distinct_sequences(mondrian) >= distinct_sequences(datafly)


class TestAnonymizationMetrics:
    @pytest.fixture(scope="class")
    def generalized(self, catalog, relation):
        return MaxEntropyTDS(catalog).anonymize(relation, QIDS, 16)

    def test_discernibility_bounds(self, generalized, relation):
        value = discernibility(generalized)
        assert len(relation) <= value <= len(relation) ** 2

    def test_precision_in_unit_interval(self, generalized, catalog, relation):
        precision = generalization_precision(generalized)
        assert 0.0 <= precision <= 1.0
        # Ungeneralized data has precision 1.
        from repro.anonymize.base import identity_generalization

        exact = identity_generalization(relation, QIDS, catalog)
        assert generalization_precision(exact) == pytest.approx(1.0)

    def test_sequence_entropy_bounds(self, generalized):
        entropy = sequence_entropy(generalized)
        assert entropy >= 0.0

    def test_l_diversity(self, generalized):
        diversity = l_diversity(generalized, "income")
        assert 1 <= diversity <= 2  # binary sensitive attribute

    def test_verify_k_anonymity_raises(self, catalog, relation):
        generalized = MaxEntropyTDS(catalog).anonymize(relation, QIDS, 16)
        with pytest.raises(AnonymizationError):
            verify_k_anonymity(generalized, 10_000)

    def test_max_generalization_depth(self, catalog):
        assert max_generalization_depth(catalog["age"]) == catalog["age"].height + 1
        education = catalog["education"]
        assert isinstance(education, CategoricalHierarchy)
        assert max_generalization_depth(education) == education.height
