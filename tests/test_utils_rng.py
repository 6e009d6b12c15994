"""Tests for repro.utils.rng."""

import numpy as np

from repro.utils.rng import as_generator, stable_component_seed


class TestAsGenerator:
    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).random(5)
        b = as_generator(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        gen = as_generator(seq)
        assert isinstance(gen, np.random.Generator)


class TestStableComponentSeed:
    def test_deterministic(self):
        assert stable_component_seed(3, "client", 1) == stable_component_seed(3, "client", 1)

    def test_component_sensitivity(self):
        assert stable_component_seed(3, "client", 1) != stable_component_seed(3, "client", 2)

    def test_master_seed_sensitivity(self):
        assert stable_component_seed(3, "x") != stable_component_seed(4, "x")

    def test_none_master_seed(self):
        assert isinstance(stable_component_seed(None, "x"), int)

    def test_in_valid_range(self):
        value = stable_component_seed(123, "anything", 42, "deep")
        assert 0 <= value < 2**31 - 1
