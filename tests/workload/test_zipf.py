"""Unit tests for the Zipf sampler."""

import random

import pytest

from repro.workload.zipf import ZipfSampler


class TestValidation:
    def test_domain_must_be_positive(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)

    def test_skew_must_be_non_negative(self):
        with pytest.raises(ValueError):
            ZipfSampler(5, -0.5)

    def test_probability_index_bounds(self):
        sampler = ZipfSampler(3)
        with pytest.raises(IndexError):
            sampler.probability(3)
        with pytest.raises(IndexError):
            sampler.probability(-1)


class TestDistribution:
    def test_samples_within_domain(self):
        sampler = ZipfSampler(10, 1.0)
        rng = random.Random(1)
        assert all(0 <= sampler.sample(rng) < 10 for _ in range(500))

    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(20, 1.2)
        total = sum(sampler.probability(i) for i in range(20))
        assert total == pytest.approx(1.0)

    def test_zero_skew_is_uniform(self):
        sampler = ZipfSampler(4, 0.0)
        probs = [sampler.probability(i) for i in range(4)]
        assert all(p == pytest.approx(0.25) for p in probs)

    def test_skew_prefers_low_indices(self):
        sampler = ZipfSampler(10, 1.0)
        assert sampler.probability(0) > sampler.probability(9)

    def test_higher_skew_is_more_concentrated(self):
        mild = ZipfSampler(10, 0.5)
        steep = ZipfSampler(10, 2.0)
        assert steep.probability(0) > mild.probability(0)

    def test_empirical_frequencies_match(self):
        sampler = ZipfSampler(5, 1.0)
        rng = random.Random(42)
        counts = [0] * 5
        n = 20_000
        for _ in range(n):
            s = sampler.sample(rng)
            counts[s] += 1
        for i in range(5):
            assert counts[i] / n == pytest.approx(
                sampler.probability(i), abs=0.02
            )

    def test_deterministic_given_seed(self):
        sampler = ZipfSampler(10, 1.0)
        rng_a, rng_b = random.Random(7), random.Random(7)
        a = [sampler.sample(rng_a) for _ in range(20)]
        b = [sampler.sample(rng_b) for _ in range(20)]
        assert a == b
