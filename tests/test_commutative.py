"""Tests for SRA commutative encryption and the private equality join."""

import random

import pytest

from repro.crypto.commutative import (
    CommutativeKey,
    generate_safe_prime,
    hash_to_group,
    private_equality_groups,
    private_equality_join,
)
from repro.crypto.primes import is_probable_prime
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def prime():
    return generate_safe_prime(96, random.Random(31))


@pytest.fixture(scope="module")
def keys(prime):
    rng = random.Random(32)
    return (
        CommutativeKey.generate(prime, rng),
        CommutativeKey.generate(prime, rng),
    )


class TestSafePrime:
    def test_structure(self, prime):
        assert is_probable_prime(prime)
        assert is_probable_prime((prime - 1) // 2)


class TestCommutativeKey:
    def test_round_trip(self, keys, prime):
        key, _ = keys
        element = hash_to_group("Masters", prime)
        assert key.decrypt(key.encrypt(element)) == element

    def test_commutativity(self, keys, prime):
        key_a, key_b = keys
        element = hash_to_group(("Masters", 35), prime)
        assert key_a.encrypt(key_b.encrypt(element)) == key_b.encrypt(
            key_a.encrypt(element)
        )

    def test_element_out_of_group_rejected(self, keys, prime):
        key, _ = keys
        with pytest.raises(CryptoError):
            key.encrypt(0)
        with pytest.raises(CryptoError):
            key.encrypt(prime)

    def test_hash_to_group_deterministic(self, prime):
        assert hash_to_group("x", prime) == hash_to_group("x", prime)
        assert hash_to_group("x", prime) != hash_to_group("y", prime)


class TestPrivateEqualityJoin:
    def test_finds_exact_matches(self, prime):
        left = ["ann", "bob", "cid", "dee"]
        right = ["bob", "eve", "ann"]
        matches = private_equality_join(left, right, prime, random.Random(3))
        assert sorted(matches) == [(0, 2), (1, 0)]

    def test_handles_duplicates(self, prime):
        left = ["x", "x"]
        right = ["x"]
        matches = private_equality_join(left, right, prime, random.Random(4))
        assert sorted(matches) == [(0, 0), (1, 0)]

    def test_no_matches(self, prime):
        matches = private_equality_join(
            ["a"], ["b"], prime, random.Random(5)
        )
        assert matches == []

    def test_tuples_as_values(self, prime):
        left = [("Masters", 35), ("9th", 28)]
        right = [("9th", 28)]
        matches = private_equality_join(left, right, prime, random.Random(6))
        assert matches == [(1, 0)]

    def test_groups_are_the_join_grouped_by_value(self, prime):
        left = ["x", "y", "x", "z", "y", "w"]
        right = ["y", "x", "q", "x", "y"]
        groups = private_equality_groups(left, right, prime, random.Random(7))
        assert groups == [([0, 2], [1, 3]), ([1, 4], [0, 4])]
        assert private_equality_join(left, right, prime, random.Random(7)) == [
            (left_index, right_index)
            for left_index in range(len(left))
            for lefts, rights in groups
            if left_index in lefts
            for right_index in rights
        ]
