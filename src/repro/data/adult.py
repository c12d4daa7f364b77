"""The UCI Adult data set: file loader and synthetic generator.

The paper's experiments run on the Adult data set with records carrying
missing values removed (30,162 records remain). This environment has no
network access and no copy of the raw file, so we provide two sources:

- :func:`load_adult` parses the original ``adult.data`` format, so anyone
  with the real file reproduces on the original data unchanged;
- :func:`generate_adult` synthesizes records over the *real* Adult domains
  with marginal distributions matched to the published Adult statistics and
  mild realistic dependencies (education→occupation, age→marital status).

What the paper's experiments exercise is the distributional *skew* over
quasi-identifier combinations — it determines equivalence class sizes,
blocking efficiency and heuristic ordering — and the generator preserves
that skew (see DESIGN.md §4, substitution 1).
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate

from repro._rng import make_random
from repro.data import hierarchies as h
from repro.data.schema import Attribute, Relation, Schema
from repro.errors import SchemaError

#: Number of complete records in the real Adult data set, as in the paper.
ADULT_COMPLETE_RECORDS = 30_162


def adult_schema() -> Schema:
    """The schema of our Adult relation.

    The eight quasi-identifier attributes come first, in the paper's
    ``top-q`` order; ``hours_per_week`` and ``income`` are non-QID payload.
    """
    return Schema(
        [
            Attribute.continuous("age"),
            Attribute.categorical("workclass"),
            Attribute.categorical("education"),
            Attribute.categorical("marital_status"),
            Attribute.categorical("occupation"),
            Attribute.categorical("race"),
            Attribute.categorical("sex"),
            Attribute.categorical("native_country"),
            Attribute.continuous("hours_per_week"),
            Attribute.categorical("income"),
        ]
    )


# ---------------------------------------------------------------------------
# Marginal distributions (approximate frequencies in the complete-record
# subset of the real Adult data set).
# ---------------------------------------------------------------------------

_WORKCLASS_WEIGHTS = {
    "Private": 0.7368,
    "Self-emp-not-inc": 0.0833,
    "Local-gov": 0.0684,
    "State-gov": 0.0422,
    "Self-emp-inc": 0.0357,
    "Federal-gov": 0.0312,
    "Without-pay": 0.0024,
}

_EDUCATION_WEIGHTS = {
    "HS-grad": 0.3266,
    "Some-college": 0.2219,
    "Bachelors": 0.1675,
    "Masters": 0.0541,
    "Assoc-voc": 0.0437,
    "11th": 0.0352,
    "Assoc-acdm": 0.0334,
    "10th": 0.0268,
    "7th-8th": 0.0182,
    "Prof-school": 0.0180,
    "9th": 0.0150,
    "12th": 0.0127,
    "Doctorate": 0.0122,
    "5th-6th": 0.0100,
    "1st-4th": 0.0047,
    "Preschool": 0.0014,
}

_MARITAL_WEIGHTS = {
    "Married-civ-spouse": 0.4610,
    "Never-married": 0.3275,
    "Divorced": 0.1358,
    "Separated": 0.0312,
    "Widowed": 0.0302,
    "Married-spouse-absent": 0.0124,
    "Married-AF-spouse": 0.0007,
}

_OCCUPATION_WEIGHTS = {
    "Prof-specialty": 0.1341,
    "Craft-repair": 0.1336,
    "Exec-managerial": 0.1318,
    "Adm-clerical": 0.1240,
    "Sales": 0.1194,
    "Other-service": 0.1062,
    "Machine-op-inspct": 0.0656,
    "Transport-moving": 0.0520,
    "Handlers-cleaners": 0.0449,
    "Farming-fishing": 0.0328,
    "Tech-support": 0.0303,
    "Protective-serv": 0.0212,
    "Priv-house-serv": 0.0046,
    "Armed-Forces": 0.0003,
}

_RACE_WEIGHTS = {
    "White": 0.8551,
    "Black": 0.0935,
    "Asian-Pac-Islander": 0.0303,
    "Amer-Indian-Eskimo": 0.0096,
    "Other": 0.0115,
}

_SEX_WEIGHTS = {"Male": 0.6751, "Female": 0.3249}

# The US dominates; the long tail is spread over the remaining 40 countries
# proportionally to rough Adult frequencies (Mexico and the Philippines
# noticeably ahead of the rest).
_COUNTRY_HEAD = {
    "United-States": 0.9130,
    "Mexico": 0.0205,
    "Philippines": 0.0063,
    "Germany": 0.0044,
    "Puerto-Rico": 0.0037,
    "Canada": 0.0036,
    "India": 0.0033,
    "El-Salvador": 0.0033,
    "Cuba": 0.0030,
    "England": 0.0028,
}

# Education tier → multiplicative boost per occupation group. Tiers follow
# the education VGH (Secondary vs University).
_UNIVERSITY_EDUCATIONS = frozenset(
    {
        "Some-college",
        "Assoc-voc",
        "Assoc-acdm",
        "Bachelors",
        "Masters",
        "Prof-school",
        "Doctorate",
    }
)

_WHITE_COLLAR = frozenset(
    {"Exec-managerial", "Prof-specialty", "Adm-clerical", "Sales", "Tech-support"}
)
_BLUE_COLLAR = frozenset(
    {
        "Craft-repair",
        "Machine-op-inspct",
        "Handlers-cleaners",
        "Transport-moving",
        "Farming-fishing",
    }
)


def _age_weights() -> list[float]:
    """Right-skewed age weights over 17..90, peaking in the mid-30s."""
    weights = []
    for age in range(h.AGE_MIN, h.AGE_MAX):
        if age < 23:
            weight = 0.4 + 0.1 * (age - h.AGE_MIN)
        elif age <= 45:
            weight = 1.0
        else:
            weight = max(0.02, 1.0 * (0.93 ** (age - 45)))
        weights.append(weight)
    return weights


def _country_weights() -> dict[str, float]:
    head_total = sum(_COUNTRY_HEAD.values())
    tail = [
        country
        for country in h.NATIVE_COUNTRY_VALUES
        if country not in _COUNTRY_HEAD
    ]
    tail_weight = (1.0 - head_total) / len(tail)
    weights = dict(_COUNTRY_HEAD)
    for country in tail:
        weights[country] = tail_weight
    return weights


def _occupation_weights(university: bool) -> dict[str, float]:
    """Occupation weights for one education tier.

    University-educated people skew white-collar; secondary-educated people
    skew blue-collar and service — matching the direction of the real
    Adult dependency without modeling the exact joint.
    """
    weights = {}
    for occupation, base in _OCCUPATION_WEIGHTS.items():
        if occupation in _WHITE_COLLAR:
            factor = 1.9 if university else 0.55
        elif occupation in _BLUE_COLLAR:
            factor = 0.45 if university else 1.7
        else:
            factor = 0.8 if university else 1.3
        weights[occupation] = base * factor
    return weights


def _marital_band(age: int) -> int:
    """Which of the four age bands conditions marital status."""
    if age < 25:
        return 0
    if age < 32:
        return 1
    if age > 60:
        return 2
    return 3


def _marital_weights(band: int) -> dict[str, float]:
    """Marital-status weights for one age band (young adults rarely married)."""
    weights = dict(_MARITAL_WEIGHTS)
    if band == 0:
        weights["Never-married"] *= 6.0
        weights["Married-civ-spouse"] *= 0.25
        weights["Widowed"] *= 0.02
        weights["Divorced"] *= 0.15
    elif band == 1:
        weights["Never-married"] *= 1.8
        weights["Widowed"] *= 0.1
    elif band == 2:
        weights["Widowed"] *= 6.0
        weights["Never-married"] *= 0.4
    return weights


class _Draw:
    """A categorical distribution with its cumulative weights built once.

    ``draw`` evaluates ``values[bisect(cum, random() * total, 0, n - 1)]``
    with ``total = cum[-1] + 0.0``: the expression ``random.choices(values,
    weights=..., k=1)`` evaluates on CPython 3.10–3.13, over the same
    ``itertools.accumulate`` sums. Each draw therefore consumes one
    ``random()`` and picks the value ``rng.choices`` would, which keeps the
    seeded records ``tests/test_adult.py`` pins.
    """

    __slots__ = ("values", "cum", "total", "hi")

    def __init__(self, weights: dict) -> None:
        self.values = list(weights)
        self.cum = list(accumulate(weights[value] for value in self.values))
        self.total = self.cum[-1] + 0.0
        self.hi = len(self.cum) - 1

    def draw(self, random_float) -> object:
        """One value, given the generator's bound ``random`` method."""
        return self.values[bisect(self.cum, random_float() * self.total, 0, self.hi)]


def _sample_hours(rng: random.Random) -> int:
    """Weekly work hours: a spike at 40 with realistic spread."""
    roll = rng.random()
    if roll < 0.47:
        return 40
    if roll < 0.62:
        return rng.randint(35, 39)
    if roll < 0.80:
        return rng.randint(41, 55)
    if roll < 0.92:
        return rng.randint(20, 34)
    if roll < 0.97:
        return rng.randint(56, 80)
    return rng.randint(1, 19)


def _sample_income(rng: random.Random, age: int, education: str) -> str:
    """Binary income class with the real data's education/age gradient."""
    probability = 0.08
    if education in {"Bachelors"}:
        probability = 0.33
    elif education in {"Masters", "Prof-school", "Doctorate"}:
        probability = 0.55
    elif education in {"Some-college", "Assoc-voc", "Assoc-acdm"}:
        probability = 0.18
    elif education == "HS-grad":
        probability = 0.13
    if 35 <= age <= 60:
        probability *= 1.5
    elif age < 26:
        probability *= 0.2
    probability = min(probability, 0.95)
    return ">50K" if rng.random() < probability else "<=50K"


def generate_adult(
    count: int = ADULT_COMPLETE_RECORDS,
    seed: int | random.Random | None = None,
) -> Relation:
    """Generate *count* synthetic Adult records.

    The output is deterministic in *seed* and conforms to
    :func:`adult_schema`; every categorical value is a leaf of the matching
    VGH in :mod:`repro.data.hierarchies`, so anonymization never meets an
    out-of-domain value.
    """
    rng = make_random(seed)
    random_float = rng.random
    age = _Draw(dict(zip(range(h.AGE_MIN, h.AGE_MAX), _age_weights())))
    education = _Draw(_EDUCATION_WEIGHTS)
    workclass = _Draw(_WORKCLASS_WEIGHTS)
    race = _Draw(_RACE_WEIGHTS)
    sex = _Draw(_SEX_WEIGHTS)
    country = _Draw(_country_weights())
    occupation_tiers = [_Draw(_occupation_weights(tier)) for tier in (False, True)]
    occupation_by_education = {
        value: occupation_tiers[value in _UNIVERSITY_EDUCATIONS]
        for value in _EDUCATION_WEIGHTS
    }
    marital_bands = [_Draw(_marital_weights(band)) for band in range(4)]
    marital_by_age = {
        value: marital_bands[_marital_band(value)] for value in age.values
    }
    records = []
    for _ in range(count):
        record_age = age.draw(random_float)
        record_education = education.draw(random_float)
        records.append(
            (
                record_age,
                workclass.draw(random_float),
                record_education,
                marital_by_age[record_age].draw(random_float),
                occupation_by_education[record_education].draw(random_float),
                race.draw(random_float),
                sex.draw(random_float),
                country.draw(random_float),
                _sample_hours(rng),
                _sample_income(rng, record_age, record_education),
            )
        )
    return Relation(adult_schema(), records, validate=False)


# ---------------------------------------------------------------------------
# Real-file loader.
# ---------------------------------------------------------------------------

# Column positions in the original ``adult.data`` file.
_RAW_COLUMNS = (
    "age",
    "workclass",
    "fnlwgt",
    "education",
    "education_num",
    "marital_status",
    "occupation",
    "relationship",
    "race",
    "sex",
    "capital_gain",
    "capital_loss",
    "hours_per_week",
    "native_country",
    "income",
)


def load_adult(path: str) -> Relation:
    """Load the original UCI ``adult.data`` (or ``adult.test``) file.

    Records containing missing values (``?``) are dropped, exactly as in the
    paper ("we first removed all tuples with missing values"). The result
    conforms to :func:`adult_schema`.
    """
    schema = adult_schema()
    position = {name: index for index, name in enumerate(_RAW_COLUMNS)}
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip().rstrip(".")
            if not line or line.startswith("|"):
                continue
            fields = [field.strip() for field in line.split(",")]
            if len(fields) != len(_RAW_COLUMNS):
                raise SchemaError(
                    f"malformed adult.data line with {len(fields)} fields: {line!r}"
                )
            if "?" in fields:
                continue
            records.append(
                (
                    int(fields[position["age"]]),
                    fields[position["workclass"]],
                    fields[position["education"]],
                    fields[position["marital_status"]],
                    fields[position["occupation"]],
                    fields[position["race"]],
                    fields[position["sex"]],
                    fields[position["native_country"]],
                    int(fields[position["hours_per_week"]]),
                    fields[position["income"]].rstrip("."),
                )
            )
    return Relation(schema, records)
