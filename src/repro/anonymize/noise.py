"""Random noise addition — the *other* sanitization family.

The paper's introduction names two sanitization traditions: generalization
(k-anonymity, the one its blocking step builds on) and "random noise
addition [9], [12]" in the Agrawal–Srikant style. Noise addition is *not*
compatible with the hybrid method — and implementing it makes the reason
concrete, which is why it is here:

- a noisy value is **imprecise AND inaccurate**: the original value need
  not lie in any set derivable from the published value, so there are no
  sound specialization sets, no ``sdl``/``sds`` bounds, and any blocking
  decision made on noisy data can be *wrong* (the paper's Section IV
  distinction: "anonymized data is not dirty but imprecise, which is the
  reason why precision is 100%");
- Kargupta et al. [12] showed spectral filtering reconstructs much of the
  original data from additively perturbed releases, so the privacy story
  is shakier too.

:class:`NoiseAddition` perturbs continuous attributes with seeded
Gaussian noise (categorical attributes are randomized-response flipped);
:func:`noisy_linkage_baseline` matches directly on the perturbed values.
The benchmark built on these shows precision falling with the noise
level — the accuracy cliff the hybrid method exists to avoid.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro._rng import make_random
from repro.data.schema import Relation
from repro.data.vgh import IntervalHierarchy
from repro.errors import AnonymizationError
from repro.linkage.distances import MatchRule
from repro.linkage.ground_truth import GroundTruth
from repro.linkage.metrics import Evaluation


class NoiseAddition:
    """Additive Gaussian perturbation of continuous attributes.

    Parameters
    ----------
    hierarchies:
        Used only for domain ranges (noise scales with the range) and to
        clamp perturbed values back into the domain.
    noise_level:
        Standard deviation of the Gaussian noise as a fraction of each
        attribute's domain range (Agrawal–Srikant parameterize the same
        way). ``0.1`` on age (range 74) is sigma ≈ 7.4 years.
    flip_probability:
        Randomized response for categorical attributes: with this
        probability the value is replaced by a uniform draw from the
        attribute's observed domain.
    """

    def __init__(
        self,
        hierarchies,
        *,
        noise_level: float = 0.1,
        flip_probability: float = 0.0,
    ):
        if noise_level < 0 or not 0.0 <= flip_probability <= 1.0:
            raise AnonymizationError("bad perturbation parameters")
        self.hierarchies = dict(hierarchies)
        self.noise_level = noise_level
        self.flip_probability = flip_probability

    def perturb(
        self,
        relation: Relation,
        attributes: Sequence[str],
        seed: int | random.Random | None = None,
    ) -> Relation:
        """Return a perturbed copy of *relation*."""
        rng = make_random(seed)
        positions = relation.schema.positions(attributes)
        plans = []
        for name, position in zip(attributes, positions):
            hierarchy = self.hierarchies.get(name)
            if isinstance(hierarchy, IntervalHierarchy):
                sigma = self.noise_level * hierarchy.domain_range
                plans.append(("noise", position, sigma, hierarchy))
            else:
                domain = sorted(relation.distinct_values(name))
                plans.append(("flip", position, self.flip_probability, domain))
        records = []
        for record in relation:
            row = list(record)
            for kind, position, parameter, extra in plans:
                if kind == "noise":
                    noisy = row[position] + rng.gauss(0.0, parameter)
                    hierarchy = extra
                    noisy = min(max(noisy, hierarchy.root.lo), hierarchy.root.hi - 1)
                    row[position] = round(noisy, 3)
                elif parameter > 0 and rng.random() < parameter:
                    row[position] = rng.choice(extra)
            records.append(tuple(row))
        return Relation(relation.schema, records, validate=False)


@dataclass(frozen=True)
class NoisyLinkageOutcome:
    """Result of matching directly on perturbed relations."""

    noise_level: float
    evaluation: Evaluation


def noisy_linkage_baseline(
    rule: MatchRule,
    left: Relation,
    right: Relation,
    *,
    noise_level: float = 0.1,
    flip_probability: float = 0.0,
    seed: int | random.Random | None = None,
) -> NoisyLinkageOutcome:
    """Perturb both sides and match on the noisy values.

    Every pair the rule accepts *on the noisy data* is claimed as a
    match; ground truth prices those claims. Unlike the hybrid method's
    blocking, claims here can be false positives (noise is dirt, not
    imprecision), so precision degrades with the noise level.
    """
    rng = make_random(seed)
    hierarchies = {attribute.name: attribute.hierarchy for attribute in rule}
    sanitizer = NoiseAddition(
        hierarchies,
        noise_level=noise_level,
        flip_probability=flip_probability,
    )
    names = list(rule.names)
    noisy_left = sanitizer.perturb(left, names, rng)
    noisy_right = sanitizer.perturb(right, names, rng)
    true_matches = GroundTruth(rule, left, right).match_codes()
    claimed = GroundTruth(rule, noisy_left, noisy_right).match_codes()
    evaluation = Evaluation(
        true_matches=len(true_matches),
        verified_matches=0,
        claimed_pairs=len(claimed),
        claimed_true_matches=int(np.isin(claimed, true_matches).sum()),
    )
    return NoisyLinkageOutcome(noise_level=noise_level, evaluation=evaluation)
