"""Budget leases: the oracle kernels and the bridge against a scalar loop.

A lease ``(left rows, right rows, take)`` compares the first ``take``
record pairs of a class pair in row-major order. Every backend and the
in-process bridge must return exactly the matches the scalar per-pair
``BoundMatchRule.matches`` loop finds, in that loop's order, as one
``(m, 2)`` ``int32`` array per lease, and bill exactly ``take``
invocations per lease.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymize import MaxEntropyTDS
from repro.crypto.smc import oracle as oracle_module
from repro.crypto.smc.oracle import (
    CountingPlaintextOracle,
    PaillierSMCOracle,
    SMCOracle,
)
from repro.data.adult import adult_schema, generate_adult
from repro.data.hierarchies import ADULT_QID_ORDER
from repro.data.schema import Relation
from repro.errors import ProtocolError
from repro.linkage.columns import BlockLease, RecordColumns
from repro.protocol import DataHolder, SMCBridge


def scalar_matches(rule, schema, left_records, right_records, take):
    """The matching offsets among the first *take* pairs, one at a time."""
    bound = rule.bind(schema)
    matches = []
    for position in range(take):
        left_offset, right_offset = divmod(position, len(right_records))
        if bound.matches(
            left_records[left_offset], right_records[right_offset]
        ):
            matches.append((left_offset, right_offset))
    return matches


def offsets_of(matches):
    """One lease's ``(m, 2)`` ``int32`` result as offset tuples."""
    assert isinstance(matches, np.ndarray)
    assert matches.dtype == np.int32
    assert matches.shape == (len(matches), 2)
    return [tuple(row) for row in matches.tolist()]


def per_lease(results):
    """A ``compare_block`` result as one list of offset tuples per lease."""
    return [offsets_of(matches) for matches in results]


def billable(rule):
    """Attribute comparisons a real backend runs per record pair."""
    return sum(
        1
        for attribute in rule
        if attribute.is_continuous or attribute.is_string or attribute.threshold < 1
    )


@pytest.fixture(scope="module")
def adult_sides(adult_rule):
    relation = generate_adult(120, seed=23)
    left = relation.take(range(60))
    right = relation.take(range(60, 120))
    return (
        left,
        right,
        RecordColumns.from_relation(left, adult_rule.names),
        RecordColumns.from_relation(right, adult_rule.names),
    )


#: (left rows, right rows, take): the shapes a lease can cut from its
#: class pair. Rows are scattered, as an anonymizer's classes are.
LEASE_CASES = {
    "take below the right class size": (range(3, 60, 7), range(1, 60, 5), 5),
    "take spanning whole rows": (range(3, 60, 7), range(1, 60, 5), 36),
    "partial last row": (range(3, 60, 7), range(1, 60, 5), 12 * 3 + 7),
    "full class pair": (range(3, 60, 7), range(1, 60, 5), 9 * 12),
    "single pair": ([4], [9], 1),
    "one-record right class": (range(0, 60, 4), [33], 11),
}


@pytest.mark.parametrize("case", sorted(LEASE_CASES))
def test_counting_kernel_equals_scalar_loop(case, adult_rule, adult_sides):
    left, right, left_columns, right_columns = adult_sides
    left_rows, right_rows, take = LEASE_CASES[case]
    oracle = CountingPlaintextOracle(adult_rule, adult_schema())
    [matches] = oracle.compare_block(
        left_columns,
        right_columns,
        [BlockLease(np.array(left_rows), np.array(right_rows), take)],
    )
    expected = scalar_matches(
        adult_rule,
        adult_schema(),
        [left[row] for row in left_rows],
        [right[row] for row in right_rows],
        take,
    )
    assert offsets_of(matches) == expected
    assert oracle.invocations == take
    assert oracle.attribute_comparisons == take * billable(adult_rule)


def test_several_leases_in_one_call(adult_rule, adult_sides):
    """A batch answers per lease, in lease order, billing the sum."""
    left, right, left_columns, right_columns = adult_sides
    leases = [
        BlockLease(np.array(rows_l), np.array(rows_r), take)
        for rows_l, rows_r, take in LEASE_CASES.values()
    ]
    batch = CountingPlaintextOracle(adult_rule, adult_schema())
    results = batch.compare_block(left_columns, right_columns, leases)
    single = CountingPlaintextOracle(adult_rule, adult_schema())
    assert per_lease(results) == [
        offsets_of(single.compare_block(left_columns, right_columns, [lease])[0])
        for lease in leases
    ]
    assert batch.invocations == single.invocations == sum(
        lease.take for lease in leases
    )


def test_lease_may_carry_only_the_right_rows_it_touches(
    adult_rule, adult_sides
):
    """Passing the first ``min(take, size)`` right rows changes nothing."""
    _, __, left_columns, right_columns = adult_sides
    left_rows = np.arange(0, 60, 3)
    right_rows = np.arange(1, 60, 2)
    for take in (1, 7, 29, 30, 31, 95):
        full = CountingPlaintextOracle(adult_rule, adult_schema())
        trimmed = CountingPlaintextOracle(adult_rule, adult_schema())
        assert per_lease(
            full.compare_block(
                left_columns,
                right_columns,
                [BlockLease(left_rows, right_rows, take)],
            )
        ) == per_lease(
            trimmed.compare_block(
                left_columns,
                right_columns,
                [BlockLease(left_rows, right_rows[:take], take)],
            )
        )


def test_values_on_one_side_only(toy_schema, toy_relations):
    """Codes from two vocabularies are compared in one shared vocabulary.

    ``9th``/``10th`` appear only on the left and ``Bachelors``/``11th``
    only on the right; ``10th`` and ``11th`` hold the same local code on
    their sides and ``("10th", 22)`` meets ``("11th", 22)`` in age, so
    comparing local codes would report a false match.
    """
    from repro.data.hierarchies import toy_education_vgh, toy_work_hrs_vgh
    from repro.linkage.distances import MatchAttribute, MatchRule

    rule = MatchRule(
        [
            MatchAttribute("education", toy_education_vgh(), 0.5),
            MatchAttribute("work_hrs", toy_work_hrs_vgh(), 0.2),
        ]
    )
    left_relation, right_relation = toy_relations
    left = RecordColumns.from_relation(left_relation, rule.names)
    right = RecordColumns.from_relation(right_relation, rule.names)
    assert left.vocabularies[0].index("10th") == right.vocabularies[0].index("11th")
    rows = np.arange(6)
    lease = BlockLease(rows, rows, 36)
    counting = CountingPlaintextOracle(rule, toy_schema)
    looped = CountingPlaintextOracle(rule, toy_schema)
    expected = scalar_matches(
        rule, toy_schema, list(left_relation), list(right_relation), 36
    )
    assert per_lease(counting.compare_block(left, right, [lease])) == [expected]
    assert per_lease(
        SMCOracle.compare_block(looped, left, right, [lease])
    ) == [expected]
    assert (4, 4) not in expected


CITIES = ("Oslo", "Lima", "Pune", "Kyiv", "Baku")


@st.composite
def lease_inputs(draw):
    """Two toy relations over partly shared vocabularies plus one lease."""

    def side(count):
        vocabulary = st.lists(st.sampled_from(CITIES), min_size=1, unique=True)
        cities = st.sampled_from(draw(vocabulary))
        return [
            (draw(cities), draw(st.integers(min_value=0, max_value=12)))
            for _ in range(count)
        ]

    left_count = draw(st.integers(min_value=1, max_value=8))
    right_count = draw(st.integers(min_value=1, max_value=8))
    left_rows = draw(st.permutations(range(left_count)))
    right_rows = draw(st.permutations(range(right_count)))
    take = draw(st.integers(min_value=1, max_value=left_count * right_count))
    return side(left_count), side(right_count), left_rows, right_rows, take


@settings(max_examples=60, deadline=None)
@given(lease_inputs(), st.sampled_from([0.0, 0.5, 1.0]))
def test_kernel_parity_property(case, city_threshold):
    from repro.data.schema import Attribute, Schema
    from repro.data.vgh import CategoricalHierarchy, IntervalHierarchy
    from repro.linkage.distances import MatchAttribute, MatchRule

    left_values, right_values, left_rows, right_rows, take = case
    schema = Schema([Attribute.categorical("city"), Attribute.continuous("age")])
    rule = MatchRule(
        [
            MatchAttribute(
                "city", CategoricalHierarchy("city", {"ANY": list(CITIES)}),
                city_threshold,
            ),
            MatchAttribute(
                "age", IntervalHierarchy.from_tree("age", (0, 20)), 0.1
            ),
        ]
    )
    left_relation = Relation(schema, left_values)
    right_relation = Relation(schema, right_values)
    left = RecordColumns.from_relation(left_relation, rule.names)
    right = RecordColumns.from_relation(right_relation, rule.names)
    lease = BlockLease(np.array(left_rows), np.array(right_rows), take)
    expected = scalar_matches(
        rule,
        schema,
        [left_values[row] for row in left_rows],
        [right_values[row] for row in right_rows],
        take,
    )
    for oracle in (
        CountingPlaintextOracle(rule, schema),
        _Looping(rule, schema),
    ):
        assert per_lease(oracle.compare_block(left, right, [lease])) == [expected]
        assert oracle.invocations == take


class _Looping(CountingPlaintextOracle):
    """The counting backend forced onto the base per-pair loop."""

    compare_block = SMCOracle.compare_block


#: The columns of the relations ``join_inputs`` draws.
JOIN_ATTRIBUTES = ("city", "sex", "age", "hours", "name")

#: Rule shapes the counting join must handle, as (attribute, threshold)
#: lists over the ``JOIN_ATTRIBUTES`` columns: only the first two and the
#: exact name have a categorical join key, no attribute constrains the
#: sixth one at all, and ``name`` with a threshold of 1 or more is an edit
#: budget.
JOIN_RULES = {
    "categorical only": [("city", 0.0), ("sex", 0.5)],
    "categorical and continuous": [("city", 0.0), ("age", 0.1)],
    "continuous only": [("age", 0.1)],
    "two continuous": [("age", 0.1), ("hours", 0.2)],
    "loose categorical": [("city", 1.0), ("age", 0.15)],
    "no constraining attribute": [("city", 1.0), ("sex", 2.0)],
    "exact string": [("name", 0.0), ("age", 0.1)],
    "edit budget": [("sex", 0.0), ("name", 1.0), ("age", 0.15)],
    "edit budget only": [("name", 2.0)],
}

#: Names whose edit distances span 0 to 4 (``ann``/``anne`` 1, ``jon``/
#: ``joan`` 1, ``john``/``joan`` 2, ``ann``/``jon`` 2, ``anne``/``jon`` 3).
NAMES = ("ann", "anne", "jon", "john", "joan", "")


def join_rule(shape):
    from repro.data.strings import PrefixHierarchy
    from repro.data.vgh import CategoricalHierarchy, IntervalHierarchy
    from repro.linkage.distances import MatchAttribute, MatchRule

    hierarchies = {
        "city": CategoricalHierarchy("city", {"ANY": list(CITIES)}),
        "sex": CategoricalHierarchy("sex", {"ANY": ["F", "M"]}),
        "age": IntervalHierarchy.from_tree("age", (0, 20)),
        "hours": IntervalHierarchy.from_tree("hours", (0, 10)),
        "name": PrefixHierarchy("name", max_length=6),
    }
    return MatchRule(
        MatchAttribute(name, hierarchies[name], threshold)
        for name, threshold in JOIN_RULES[shape]
    )


@st.composite
def join_inputs(draw):
    """Two relations with few distinct values and several leases over them.

    Leases draw their rows from the same small relations, so they share
    rows and join keys; takes range from one pair to the whole class pair.
    """

    def record():
        return (
            draw(st.sampled_from(CITIES[:3])),
            draw(st.sampled_from(["F", "M"])),
            draw(st.integers(min_value=0, max_value=6)) / 2,
            draw(st.sampled_from([0.0, 1.5, 1.9, 2.0, 2.1, 3.5])),
            draw(st.sampled_from(NAMES)),
        )

    def rows(count, most):
        return st.lists(
            st.integers(0, count - 1), min_size=1, max_size=most, unique=True
        )

    left_count = draw(st.integers(min_value=1, max_value=9))
    right_count = draw(st.integers(min_value=1, max_value=9))
    left = [record() for _ in range(left_count)]
    right = [record() for _ in range(right_count)]
    leases = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        left_rows = draw(rows(left_count, 5))
        right_rows = draw(rows(right_count, 6))
        pairs = len(left_rows) * len(right_rows)
        take = draw(st.integers(min_value=1, max_value=pairs))
        leases.append(BlockLease(np.array(left_rows), np.array(right_rows), take))
    return left, right, leases


@settings(max_examples=150, deadline=None)
@given(
    join_inputs(),
    st.sampled_from(sorted(JOIN_RULES)),
    st.sampled_from(
        [
            (oracle_module._GROUP_PAIRS, oracle_module._SLICE_CANDIDATES),
            (1, 1),
            (4, 3),
            (9, 7),
        ]
    ),
)
def test_join_equals_the_base_loop_over_many_leases(case, shape, bounds):
    """One call over several leases answers as the per-pair loop does.

    *bounds* shrinks the join's lease groups and candidate slices, so the
    small drawn leases also cross group and slice boundaries.
    """
    from unittest import mock

    from repro.data.schema import Attribute, Schema

    left_values, right_values, leases = case
    schema = Schema(
        [
            Attribute.categorical("city"),
            Attribute.categorical("sex"),
            Attribute.continuous("age"),
            Attribute.continuous("hours"),
            Attribute.categorical("name"),
        ]
    )
    rule = join_rule(shape)
    left = RecordColumns.from_rows(schema, JOIN_ATTRIBUTES, left_values)
    right = RecordColumns.from_rows(schema, JOIN_ATTRIBUTES, right_values)
    looped = _Looping(rule, schema)
    expected = per_lease(looped.compare_block(left, right, leases))
    group_pairs, slice_candidates = bounds
    with mock.patch.multiple(
        oracle_module,
        _GROUP_PAIRS=group_pairs,
        _SLICE_CANDIDATES=slice_candidates,
    ):
        joined = CountingPlaintextOracle(rule, schema)
        assert per_lease(joined.compare_block(left, right, leases)) == expected
    assert joined.invocations == looped.invocations
    assert joined.attribute_comparisons == looped.attribute_comparisons
    if shape == "no constraining attribute":
        assert sum(map(len, expected)) == looped.invocations


@pytest.mark.parametrize("oracle_class", [CountingPlaintextOracle, _Looping])
def test_empty_lease_list(oracle_class, adult_rule, adult_sides):
    _, __, left_columns, right_columns = adult_sides
    oracle = oracle_class(adult_rule, adult_schema())
    assert oracle.compare_block(left_columns, right_columns, []) == []
    assert oracle.invocations == oracle.attribute_comparisons == 0


def test_join_key_of_many_wide_vocabularies():
    """Five categorical columns whose code ranges multiply past 2**64.

    Each side holds 4,096 distinct values per column, so the shared
    vocabularies have 8,192 = 2**13 codes each and a plain mixed-radix key
    would need 65 bits. Right row 0 agrees with left row 0 on four columns
    and holds a right-only value (shared code 4,096) in the first; its
    mixed-radix key exceeds left row 0's by exactly 4,096 * 2**52 = 2**64,
    so an int64 key that wrapped would report the pair as a match.
    """
    from repro.data.hierarchies import toy_education_vgh
    from repro.data.schema import Attribute, Schema
    from repro.linkage.distances import MatchAttribute, MatchRule

    names = [f"c{column}" for column in range(5)]
    schema = Schema([Attribute.categorical(name) for name in names])
    rule = MatchRule(MatchAttribute(name, toy_education_vgh(), 0.0) for name in names)
    count = 4_096

    def values(side, row):
        return tuple(f"{side}{column}-{row}" for column in range(5))

    left_rows = [values("L", row) for row in range(count)]
    right_rows = [values("R", row) for row in range(count)]
    right_rows[0] = ("R0-0",) + left_rows[0][1:]
    right_rows[1] = left_rows[1]
    left = RecordColumns.from_rows(schema, names, left_rows)
    right = RecordColumns.from_rows(schema, names, right_rows)
    leases = [BlockLease(np.arange(64), np.arange(64), 64 * 64)]
    joined = CountingPlaintextOracle(rule, schema).compare_block(left, right, leases)
    looped = _Looping(rule, schema).compare_block(left, right, leases)
    assert per_lease(joined) == per_lease(looped) == [[(1, 1)]]


def test_join_memory_is_bounded_without_a_categorical_key():
    """A continuous-only rule on one 2,000 x 2,000 lease with few matches.

    Every leased pair is a join candidate, but the join expands them a
    bounded slice at a time: peak traced allocation stays under 2 MB, where
    one dense float matrix of the lease alone would take 32 MB.
    """
    import tracemalloc

    from repro.data.schema import Attribute, Schema
    from repro.data.vgh import IntervalHierarchy
    from repro.linkage.distances import MatchAttribute, MatchRule

    schema = Schema([Attribute.continuous("x")])
    rule = MatchRule(
        [MatchAttribute("x", IntervalHierarchy.from_tree("x", (0, 20_000)), 1e-5)]
    )
    size = 2_000
    left_values = np.arange(size) * 10.0
    right_values = left_values + np.where(np.arange(size) % 100 == 0, 0.1, 5.0)
    left = RecordColumns(["x"], [left_values], [None])
    right = RecordColumns(["x"], [right_values], [None])
    lease = BlockLease(np.arange(size), np.arange(size), size * size)
    oracle = CountingPlaintextOracle(rule, schema)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        [matches] = oracle.compare_block(left, right, [lease])
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert offsets_of(matches) == [(row, row) for row in range(0, size, 100)]
    assert oracle.invocations == size * size
    assert peak < 2 * 2**20, f"compare_block peaked at {peak / 2**20:.1f} MB"


def test_paillier_matches_counting_on_the_same_leases(adult_rule, adult_sides):
    _, __, left_columns, right_columns = adult_sides
    leases = [
        BlockLease(np.arange(0, 60, 7), np.arange(2, 60, 9), 4),
        BlockLease(np.arange(5, 60, 11), np.arange(0, 60, 13), 7),
        BlockLease(np.array([12, 40]), np.array([12, 40, 41]), 6),
    ]
    paillier = PaillierSMCOracle(adult_rule, adult_schema(), key_bits=256, rng=5)
    counting = CountingPlaintextOracle(adult_rule, adult_schema())
    assert per_lease(
        paillier.compare_block(left_columns, right_columns, leases)
    ) == per_lease(counting.compare_block(left_columns, right_columns, leases))
    assert paillier.invocations == counting.invocations == 17


#: One lease per shape a result can take: no pair matches (an empty
#: ``(0, 2)`` result), a take below the right class size, and a take that
#: stops one pair into its last row, where it finds its match.
PARITY_LEASES = {
    "no match": (range(0, 60, 7), range(2, 60, 9), 10),
    "take below the right class size": ([34, 4], [41, 7, 28, 5, 12, 56], 3),
    "partial last row": ([2, 3, 34], [41, 5, 51, 21, 38], 11),
}


def test_backends_return_the_same_offset_arrays(adult_rule, adult_sides):
    """Scalar loop, counting kernel and Paillier answer in one format."""
    left, right, left_columns, right_columns = adult_sides
    leases = [
        BlockLease(np.array(left_rows), np.array(right_rows), take)
        for left_rows, right_rows, take in PARITY_LEASES.values()
    ]
    expected = [
        scalar_matches(
            adult_rule,
            adult_schema(),
            [left[row] for row in left_rows],
            [right[row] for row in right_rows],
            take,
        )
        for left_rows, right_rows, take in PARITY_LEASES.values()
    ]
    assert expected == [[], [(0, 0)], [(2, 0)]]
    backends = {
        "scalar loop": _Looping(adult_rule, adult_schema()),
        "counting kernel": CountingPlaintextOracle(adult_rule, adult_schema()),
        "paillier": PaillierSMCOracle(
            adult_rule, adult_schema(), key_bits=256, rng=7
        ),
    }
    for name, oracle in backends.items():
        results = oracle.compare_block(left_columns, right_columns, leases)
        assert [matches.shape for matches in results] == [
            (len(matches), 2) for matches in expected
        ], name
        assert per_lease(results) == expected, name
        assert oracle.invocations == sum(lease.take for lease in leases), name


def alice_steps(rule, left, right, leases):
    """What the short-circuiting Paillier protocol must send, per party.

    Walks every leased pair in row-major order through the plaintext rule,
    stopping at the first failing attribute as the oracle does. Returns
    the distinct ``(left row, attribute)`` pairs reached — Alice's steps
    when each left row is encrypted once per call — and the number of
    attribute comparisons, one Bob→query ciphertext each.
    """
    left_positions = left.positions(rule.names)
    right_positions = right.positions(rule.names)
    reached = set()
    outgoing = 0
    for lease in leases:
        for position in range(lease.take):
            left_offset, right_offset = divmod(position, len(lease.right_rows))
            row = int(lease.left_rows[left_offset])
            left_values = left.values(row, left_positions)
            right_values = right.values(
                int(lease.right_rows[right_offset]), right_positions
            )
            for index, (attribute, a, b) in enumerate(
                zip(rule, left_values, right_values)
            ):
                reached.add((row, index))
                outgoing += 1
                if attribute.is_continuous:
                    if abs(a - b) > attribute.effective_threshold:
                        break
                elif a != b:
                    break
    return reached, outgoing


#: Multi-row leases over ``adult_sides`` whose pairs reach every depth of
#: the rule (left row 34 meets its one true match, right row 41). Row 34
#: opens the second lease too, so one call sees it in two leases; the
#: second lease stops one pair into its last row.
REUSE_LEASES = (
    ([34, 4, 5, 22, 8], [41, 7, 28, 5, 12, 56], 30),
    ([2, 34, 3], [5, 51, 21, 38, 41], 11),
    ([1, 8, 22], [18, 56, 12, 0], 10),
)


@pytest.mark.parametrize("hide_distances", [True, False])
def test_paillier_encrypts_each_left_row_once_per_call(
    hide_distances, adult_rule, adult_sides
):
    _, __, left_columns, right_columns = adult_sides
    leases = [
        BlockLease(np.array(left_rows), np.array(right_rows), take)
        for left_rows, right_rows, take in REUSE_LEASES
    ]
    paillier = PaillierSMCOracle(
        adult_rule,
        adult_schema(),
        key_bits=256,
        hide_distances=hide_distances,
        rng=31,
    )
    counting = CountingPlaintextOracle(adult_rule, adult_schema())
    operations = paillier.session.transcript.operations
    messages = paillier.session.transcript.messages
    results = per_lease(
        paillier.compare_block(left_columns, right_columns, leases)
    )
    assert results == per_lease(
        counting.compare_block(left_columns, right_columns, leases)
    )
    assert (0, 0) in results[0]
    assert paillier.invocations == counting.invocations == 51

    reached, outgoing = alice_steps(
        adult_rule, left_columns, right_columns, leases
    )
    assert {index for _, index in reached} == set(range(len(adult_rule)))
    # Per pair, the short-circuit bills fewer comparisons than the
    # counting backend's flat ``take * billable``.
    assert paillier.attribute_comparisons == outgoing
    assert outgoing < counting.attribute_comparisons
    # Alice's step: E(a^2), E(-2a) for a continuous attribute, E(h_a) for
    # a categorical one, once per reached (left row, attribute).
    attributes = list(adult_rule)
    assert operations["encrypt"] == sum(
        2 if attributes[index].is_continuous else 1 for _, index in reached
    )
    # Every ciphertext Bob forwards is re-randomized exactly once.
    assert operations["rerandomize"] == operations["decrypt"] == outgoing
    assert paillier.session.transcript.messages - messages == len(
        reached
    ) + outgoing


@pytest.mark.parametrize("take", [0, -1, 9 * 12 + 1])
def test_take_outside_the_class_pair_rejected(take, adult_rule, adult_sides):
    _, __, left_columns, right_columns = adult_sides
    left_rows, right_rows, _ = LEASE_CASES["full class pair"]
    good = BlockLease(np.array(left_rows), np.array(right_rows), 1)
    bad = BlockLease(np.array(left_rows), np.array(right_rows), take)
    for oracle in (
        CountingPlaintextOracle(adult_rule, adult_schema()),
        _Looping(adult_rule, adult_schema()),
    ):
        with pytest.raises(ProtocolError):
            oracle.compare_block(left_columns, right_columns, [good, bad])
        assert oracle.invocations == 0


class TestBridgeParity:
    @pytest.fixture(scope="class")
    def holders(self, adult_pair, adult_hierarchy_catalog):
        qids = ADULT_QID_ORDER[:5]
        alice = DataHolder("alice", adult_pair.left)
        bob = DataHolder("bob", adult_pair.right)
        left_view = alice.publish(MaxEntropyTDS(adult_hierarchy_catalog), qids, 8)
        right_view = bob.publish(MaxEntropyTDS(adult_hierarchy_catalog), qids, 8)
        return alice, bob, left_view, right_view

    def test_compare_many_equals_scalar_loop_over_handles(
        self, holders, adult_rule, adult_pair
    ):
        alice, bob, left_view, right_view = holders
        leases = []
        for left_class, right_class in zip(
            left_view.classes[:6], right_view.classes[3:9]
        ):
            size = left_class.size * right_class.size
            for take in sorted({1, right_class.size - 1 or 1, size // 2 + 1, size}):
                leases.append((left_class.class_id, right_class.class_id, take))
        bridge = SMCBridge(alice, bob, adult_rule)
        results = bridge.compare_many(np.array(leases, dtype=np.int64))
        assert len(results) == len(leases)
        schema = adult_pair.left.schema
        for (left_class, right_class, take), offsets in zip(leases, results):
            left_size = left_view.classes[left_class].size
            right_size = right_view.classes[right_class].size
            left_records = [
                adult_pair.left[index]
                for index in alice.resolve(
                    [(left_class, offset) for offset in range(left_size)]
                )
            ]
            right_records = [
                adult_pair.right[index]
                for index in bob.resolve(
                    [(right_class, offset) for offset in range(right_size)]
                )
            ]
            assert offsets_of(offsets) == scalar_matches(
                adult_rule, schema, left_records, right_records, take
            )
        takes = sum(take for *_, take in leases)
        assert bridge.invocations == takes
        assert bridge.oracle.attribute_comparisons == takes * billable(adult_rule)
