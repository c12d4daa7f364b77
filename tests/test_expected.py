"""Tests for expected distances (Equations 1-8), incl. Monte Carlo checks."""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.hierarchies import (
    adult_hierarchies,
    toy_education_vgh,
    toy_work_hrs_vgh,
)
from repro.data.vgh import CategoricalHierarchy, Interval, IntervalHierarchy
from repro.linkage.codes import CodeTables
from repro.linkage.distances import MatchAttribute, MatchRule
from repro.linkage.expected import (
    categorical_expected_distance,
    continuous_expected_square_distance,
    expected_distance_vector,
    normalized_expected_distance,
    pairwise_expected_distances,
)
from repro.linkage.slack import attribute_slack


@pytest.fixture(scope="module")
def education():
    return toy_education_vgh()


class TestCategoricalExpected:
    def test_equation_5_formula(self, education):
        # V = {11th, 12th}, W = {11th, 12th}: 1 - 2/(2*2) = 0.5.
        value = categorical_expected_distance(
            education, "Senior Sec.", "Senior Sec."
        )
        assert value == pytest.approx(0.5)

    def test_disjoint_sets_give_one(self, education):
        assert categorical_expected_distance(
            education, "Masters", "Senior Sec."
        ) == 1.0

    def test_equal_singletons_give_zero(self, education):
        assert categorical_expected_distance(education, "9th", "9th") == 0.0

    def test_root_vs_leaf(self, education):
        # |V|=7 leaves, W={Masters}, overlap 1: 1 - 1/7.
        value = categorical_expected_distance(education, "ANY", "Masters")
        assert value == pytest.approx(1 - 1 / 7)

    def test_matches_monte_carlo(self, education):
        rng = random.Random(17)
        for left, right in [
            ("ANY", "Senior Sec."), ("Secondary", "University"),
            ("Grad School", "ANY"),
        ]:
            left_set = sorted(education.leaf_set(left))
            right_set = sorted(education.leaf_set(right))
            samples = 40_000
            hits = sum(
                rng.choice(left_set) != rng.choice(right_set)
                for _ in range(samples)
            )
            estimate = hits / samples
            exact = categorical_expected_distance(education, left, right)
            assert estimate == pytest.approx(exact, abs=0.01)


class TestContinuousExpected:
    def test_equation_8_known_value(self):
        # Two unit intervals [0,1] apart by 0: E[(V-W)^2] = 1/6 for iid U[0,1].
        value = continuous_expected_square_distance(Interval(0, 1), Interval(0, 1))
        assert value == pytest.approx(1 / 6)

    def test_point_intervals_collapse_to_square(self):
        value = continuous_expected_square_distance(
            Interval.point(3), Interval.point(7)
        )
        assert value == pytest.approx(16)

    def test_point_against_interval(self):
        # E[(a - W)^2] for W ~ U[0, 2], a = 0: E[W^2] = 4/3.
        value = continuous_expected_square_distance(
            Interval.point(0), Interval(0, 2)
        )
        assert value == pytest.approx(4 / 3)

    def test_never_negative_on_identical_intervals(self):
        assert continuous_expected_square_distance(
            Interval(5, 5.0000001), Interval(5, 5.0000001)
        ) >= 0

    @settings(max_examples=30)
    @given(
        st.integers(0, 60), st.integers(1, 30),
        st.integers(0, 60), st.integers(1, 30),
    )
    def test_matches_monte_carlo(self, a1, w1, a2, w2):
        left = Interval(a1, a1 + w1)
        right = Interval(a2, a2 + w2)
        exact = continuous_expected_square_distance(left, right)
        rng = random.Random(a1 * 1000 + a2)
        samples = 20_000
        total = 0.0
        for _ in range(samples):
            v = rng.uniform(left.lo, left.hi)
            w = rng.uniform(right.lo, right.hi)
            total += (v - w) ** 2
        estimate = total / samples
        # Standard error scales with the magnitude of the distances.
        tolerance = max(0.05 * exact, 0.5)
        assert estimate == pytest.approx(exact, abs=tolerance)


class TestNormalizedExpected:
    def test_continuous_normalization(self):
        work_hrs = toy_work_hrs_vgh()
        attribute = MatchAttribute("work_hrs", work_hrs, 0.2)
        score = normalized_expected_distance(
            attribute, Interval(1, 35), Interval(37, 99)
        )
        assert 0.0 <= score <= 1.0

    def test_categorical_passthrough(self, education):
        attribute = MatchAttribute("education", education, 0.5)
        assert normalized_expected_distance(attribute, "9th", "9th") == 0.0
        assert normalized_expected_distance(
            attribute, "Masters", "Senior Sec."
        ) == 1.0

    def test_vector(self, education):
        work_hrs = toy_work_hrs_vgh()
        attributes = (
            MatchAttribute("education", education, 0.5),
            MatchAttribute("work_hrs", work_hrs, 0.2),
        )
        vector = expected_distance_vector(
            attributes,
            ("Masters", Interval(35, 37)),
            ("Masters", Interval(35, 37)),
        )
        assert len(vector) == 2
        assert vector[0] == 0.0
        assert vector[1] > 0.0

    def test_identical_points_score_zero(self):
        work_hrs = toy_work_hrs_vgh()
        attribute = MatchAttribute("work_hrs", work_hrs, 0.2)
        assert normalized_expected_distance(
            attribute, Interval.point(40), Interval.point(40)
        ) == 0.0


# ---------------------------------------------------------------------------
# The numpy code tables equal the scalar rules bit for bit.
# ---------------------------------------------------------------------------

ADULT = adult_hierarchies()
ADULT_CATEGORICAL = sorted(
    name for name, hierarchy in ADULT.items()
    if isinstance(hierarchy, CategoricalHierarchy)
)
#: A domain of width 10, so drawn intervals often span all of it.
NARROW = IntervalHierarchy.equi_width("narrow", 0, 10, 2, 2)


def _view(name, values):
    """A one-attribute published side whose classes hold *values*."""
    return SimpleNamespace(
        qids=(name,),
        classes=[SimpleNamespace(sequence=(value,), size=1) for value in values],
    )


def _tables(attribute, left_values, right_values):
    return CodeTables(
        MatchRule([attribute]),
        _view(attribute.name, left_values),
        _view(attribute.name, right_values),
    )


def _assert_bitwise(matrix, expected):
    expected = np.array(expected, dtype=np.float64).reshape(matrix.shape)
    assert matrix.dtype == np.float64
    assert (matrix.view(np.int64) == expected.view(np.int64)).all()


@st.composite
def categorical_sides(draw):
    """A categorical attribute and two distinct-value lists over every level
    of one Adult hierarchy (the tables' inputs are distinct values)."""
    name = draw(st.sampled_from(ADULT_CATEGORICAL))
    nodes = st.sampled_from(ADULT[name].nodes)
    left = draw(st.lists(nodes, min_size=1, max_size=8, unique=True))
    right = draw(st.lists(nodes, min_size=1, max_size=8, unique=True))
    threshold = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    return MatchAttribute(name, ADULT[name], threshold), left, right


@st.composite
def continuous_sides(draw):
    """Interval values for the narrow domain and Adult's age, including
    points, raw numbers, coinciding intervals and intervals wider than the
    domain."""
    hierarchy = draw(st.sampled_from([NARROW, ADULT["age"]]))
    bound = st.floats(-200.0, 300.0, allow_nan=False).map(lambda x: round(x, 2))

    def value(lo, width, kind):
        if kind == "raw":
            return lo
        if kind == "point":
            return Interval.point(lo)
        return Interval(lo, lo + width)

    one = st.builds(
        value, bound, st.floats(0.0, 400.0).map(lambda x: round(x, 1)),
        st.sampled_from(["raw", "point", "interval"]),
    )
    nodes = st.sampled_from(hierarchy.nodes)
    left = draw(st.lists(one | nodes, min_size=1, max_size=8, unique=True))
    right = draw(st.lists(one | nodes, min_size=0, max_size=6, unique=True))
    # Right values that coincide with left ones exercise the clamp at 0.
    for item in draw(st.lists(st.sampled_from(left), max_size=4)):
        if item not in right:
            right.append(item)
    if not right:
        right = [hierarchy.root]
    return MatchAttribute(hierarchy.name, hierarchy, 0.1), left, right


class TestTablesMatchScalar:
    @given(sides=categorical_sides())
    @settings(max_examples=120, deadline=None)
    def test_categorical_expected_and_verdicts(self, sides):
        attribute, left, right = sides
        tables = _tables(attribute, left, right)
        _assert_bitwise(
            tables.expected_matrix(0),
            [normalized_expected_distance(attribute, l, r) for l in left for r in right],
        )
        threshold = attribute.effective_threshold
        verdicts = [
            1 if low > threshold else 2 if high <= threshold else 0
            for low, high in (
                attribute_slack(attribute, l, r) for l in left for r in right
            )
        ]
        assert tables.verdict_matrix(0).tolist() == np.reshape(
            verdicts, (len(left), len(right))
        ).tolist()

    @pytest.mark.parametrize("name", ADULT_CATEGORICAL)
    def test_every_adult_level(self, name):
        """Every node against every node, for each Adult hierarchy."""
        hierarchy = ADULT[name]
        nodes = list(hierarchy.nodes)
        attribute = MatchAttribute(name, hierarchy, 0.0)
        matrix = pairwise_expected_distances(attribute, nodes, nodes)
        _assert_bitwise(
            matrix,
            [categorical_expected_distance(hierarchy, l, r) for l in nodes for r in nodes],
        )

    @given(sides=continuous_sides())
    @settings(max_examples=120, deadline=None)
    def test_continuous_expected(self, sides):
        attribute, left, right = sides
        _assert_bitwise(
            _tables(attribute, left, right).expected_matrix(0),
            [normalized_expected_distance(attribute, l, r) for l in left for r in right],
        )

    def test_continuous_clamps(self):
        """Coinciding intervals clamp at 0, domain-wide ones at 1.0."""
        attribute = MatchAttribute("narrow", NARROW, 0.1)
        left = [Interval(0.1, 0.7), Interval(-50.0, 60.0), 3.0]
        right = [Interval(0.1, 0.7), Interval(-50.0, 60.0), Interval(3.0, 3.0)]
        matrix = pairwise_expected_distances(attribute, left, right)
        _assert_bitwise(
            matrix,
            [normalized_expected_distance(attribute, l, r) for l in left for r in right],
        )
        assert matrix[1, 1] == 1.0 and matrix[2, 2] == 0.0
