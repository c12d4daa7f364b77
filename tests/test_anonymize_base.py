"""Tests for the anonymization base machinery."""

import pytest

from repro.anonymize.base import (
    EquivalenceClass,
    GeneralizedRelation,
    generalize_value,
    group_by_sequence,
    identity_generalization,
    max_generalization_depth,
    node_depth,
)
from repro.data.hierarchies import toy_education_vgh, toy_work_hrs_vgh
from repro.data.schema import Attribute, Relation, Schema
from repro.data.vgh import Interval
from repro.errors import AnonymizationError


@pytest.fixture(scope="module")
def hierarchies():
    return {"education": toy_education_vgh(), "work_hrs": toy_work_hrs_vgh()}


@pytest.fixture(scope="module")
def relation():
    schema = Schema(
        [Attribute.categorical("education"), Attribute.continuous("work_hrs")]
    )
    return Relation(
        schema,
        [("Masters", 35), ("Masters", 36), ("9th", 28), ("10th", 22)],
    )


class TestGeneralizeValue:
    def test_categorical_depths(self, hierarchies):
        education = hierarchies["education"]
        assert generalize_value(education, "Masters", 0) == "ANY"
        assert generalize_value(education, "Masters", 2) == "Grad School"

    def test_continuous_point_level(self, hierarchies):
        work_hrs = hierarchies["work_hrs"]
        deepest = max_generalization_depth(work_hrs)
        assert deepest == work_hrs.height + 1
        assert generalize_value(work_hrs, 36, deepest) == Interval.point(36.0)
        assert generalize_value(work_hrs, 36, deepest - 1) == Interval(35, 37)

    def test_node_depth_point(self, hierarchies):
        work_hrs = hierarchies["work_hrs"]
        assert node_depth(work_hrs, Interval.point(36.0)) == work_hrs.height + 1
        assert node_depth(work_hrs, Interval(35, 37)) == 2

    def test_node_depth_foreign_interval_rejected(self, hierarchies):
        with pytest.raises(AnonymizationError):
            node_depth(hierarchies["work_hrs"], Interval(2, 7))


class TestGeneralizedRelation:
    def test_exact_cover_required(self, relation, hierarchies):
        with pytest.raises(AnonymizationError):
            GeneralizedRelation(
                relation,
                ("education", "work_hrs"),
                hierarchies,
                [EquivalenceClass(("ANY", Interval(1, 99)), (0, 1, 2))],
                k=1,
            )

    def test_double_cover_rejected(self, relation, hierarchies):
        classes = [
            EquivalenceClass(("ANY", Interval(1, 99)), (0, 1, 2, 3)),
            EquivalenceClass(("ANY", Interval(1, 99)), (3,)),
        ]
        with pytest.raises(AnonymizationError):
            GeneralizedRelation(
                relation, ("education", "work_hrs"), hierarchies, classes, k=1
            )

    def test_minimum_class_size(self, relation, hierarchies):
        generalized = identity_generalization(
            relation, ("education", "work_hrs"), hierarchies
        )
        assert generalized.minimum_class_size == 1
        assert generalized.is_k_anonymous(1)
        assert not generalized.is_k_anonymous(2)


class TestGroupBySequence:
    def test_grouping(self, relation):
        sequences = [("a",), ("b",), ("a",), ("b",)]
        classes = group_by_sequence(relation, sequences)
        by_sequence = {eq.sequence: eq.indices for eq in classes}
        assert by_sequence == {("a",): (0, 2), ("b",): (1, 3)}

    def test_length_mismatch(self, relation):
        with pytest.raises(AnonymizationError):
            group_by_sequence(relation, [("a",)])


class TestIdentityGeneralization:
    def test_k_is_one(self, relation, hierarchies):
        generalized = identity_generalization(
            relation, ("education", "work_hrs"), hierarchies
        )
        assert generalized.k == 1

    def test_values_are_exact(self, relation, hierarchies):
        generalized = identity_generalization(
            relation, ("education", "work_hrs"), hierarchies
        )
        for eq_class in generalized.classes:
            education, hours = eq_class.sequence
            for index in eq_class.indices:
                assert relation[index][0] == education
                assert Interval.point(float(relation[index][1])) == hours
