"""The code-table split equals the scalar reference loop, class for class.

``TopDownSpecializer`` counts each candidate's child sizes over integer
value codes and per-node child tables, and Mondrian's categorical cuts
use the same lookup. Against the dict-of-lists loop in
``tests/reference.py`` every anonymizer must publish the same
``(sequence, indices)`` classes in the same order: on random Adult
subsets and QID subsets, with a prefix-generalized surname attribute as
in ``benchmarks/bench_strings.py``, over k in {1, 2, 3, 5, 32} and with
``specialize_points`` on and off.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.anonymize import TDS, MaxEntropyTDS, Mondrian
from repro.data.adult import generate_adult
from repro.data.hierarchies import ADULT_QID_ORDER, adult_hierarchies
from repro.data.schema import Attribute, Relation, Schema
from repro.data.strings import PrefixHierarchy

from reference import ReferenceMondrian, reference_topdown

SURNAMES = (
    "smith", "smythe", "johnson", "johansen", "brown", "braun", "jones",
    "jonas", "lee", "li", "clark", "clarke", "garcia", "miller",
)
CATALOG = {
    **adult_hierarchies(),
    "surname": PrefixHierarchy("surname", max_length=16),
}
ALL_QIDS = ADULT_QID_ORDER + ("surname",)


def _with_surnames(count: int, seed: int) -> Relation:
    """*count* Adult records plus a surname column, some of them typo'd."""
    adult = generate_adult(count, seed)
    rng = random.Random(seed)
    surnames = []
    for _ in range(count):
        name = rng.choice(SURNAMES)
        if rng.random() < 0.3:
            position = rng.randrange(len(name))
            name = name[:position] + rng.choice("aeiost") + name[position + 1:]
        surnames.append(name)
    schema = Schema(
        list(adult.schema.attributes) + [Attribute.categorical("surname")]
    )
    return Relation(
        schema,
        [record + (name,) for record, name in zip(adult.records, surnames)],
        validate=False,
    )


@st.composite
def anonymization_inputs(draw):
    count = draw(st.integers(min_value=32, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    qids = draw(
        st.lists(st.sampled_from(ALL_QIDS), min_size=1, max_size=5, unique=True)
    )
    k = draw(st.sampled_from([1, 2, 3, 5, 32]))
    return _with_surnames(count, seed), tuple(qids), k


def _classes(generalized):
    return [(eq_class.sequence, eq_class.indices) for eq_class in generalized.classes]


@settings(max_examples=100, deadline=None)
@given(
    anonymization_inputs(),
    st.sampled_from(["tds", "maxent", "maxent-l2"]),
    st.booleans(),
)
def test_topdown_matches_reference(case, algorithm, specialize_points):
    relation, qids, k = case
    if algorithm == "tds":
        anonymizer = TDS(CATALOG, specialize_points=specialize_points)
    else:
        diversity = 2 if algorithm == "maxent-l2" else 1
        assume(diversity <= len(set(relation.column("income"))))
        anonymizer = MaxEntropyTDS(
            CATALOG, specialize_points=specialize_points, diversity=diversity
        )
    assert _classes(anonymizer.anonymize(relation, qids, k)) == reference_topdown(
        anonymizer, relation, qids, k
    )


@settings(max_examples=60, deadline=None)
@given(anonymization_inputs())
def test_mondrian_matches_reference(case):
    relation, qids, k = case
    assert _classes(Mondrian(CATALOG).anonymize(relation, qids, k)) == _classes(
        ReferenceMondrian(CATALOG).anonymize(relation, qids, k)
    )
