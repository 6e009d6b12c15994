"""Tests for the heterogeneity partitioners."""

import numpy as np
import pytest

from repro.data.batching import BatchSampler
from repro.data.partition import (
    Heterogeneity,
    partition_dataset,
    partition_extreme,
    partition_mild,
    partition_uniform,
)


def total_size(shards):
    return sum(len(s) for s in shards)


class TestUniformPartition:
    def test_covers_dataset(self, tiny_dataset):
        shards = partition_uniform(tiny_dataset, 10, seed=0)
        assert len(shards) == 10
        assert total_size(shards) == len(tiny_dataset)

    def test_every_client_sees_most_classes(self, tiny_dataset):
        shards = partition_uniform(tiny_dataset, 5, seed=0)
        for shard in shards:
            present = (shard.class_counts() > 0).sum()
            assert present >= 8

    def test_roughly_equal_sizes(self, tiny_dataset):
        shards = partition_uniform(tiny_dataset, 10, seed=0)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 10

    def test_single_client_gets_everything(self, tiny_dataset):
        shards = partition_uniform(tiny_dataset, 1, seed=0)
        assert len(shards) == 1 and len(shards[0]) == len(tiny_dataset)


class TestMildPartition:
    def test_covers_dataset(self, tiny_dataset):
        shards = partition_mild(tiny_dataset, 10, seed=0)
        assert total_size(shards) == len(tiny_dataset)

    def test_clients_see_many_classes(self, tiny_dataset):
        shards = partition_mild(tiny_dataset, 10, seed=0)
        for shard in shards:
            assert (shard.class_counts() > 0).sum() >= 6

    def test_shares_are_skewed_but_bounded(self):
        from repro.data.datasets import make_synthetic_mnist

        data = make_synthetic_mnist(1000, seed=0)
        shards = partition_mild(data, 10, seed=0)
        # Per class, one client holds ~5% and another ~15%.
        for cls in range(10):
            class_total = int((data.labels == cls).sum())
            per_client = np.array([int((s.labels == cls).sum()) for s in shards])
            assert per_client.min() <= 0.08 * class_total
            assert per_client.max() >= 0.12 * class_total

    def test_needs_two_clients(self, tiny_dataset):
        with pytest.raises(ValueError):
            partition_mild(tiny_dataset, 1)


class TestExtremePartition:
    def test_covers_dataset(self, tiny_dataset):
        shards = partition_extreme(tiny_dataset, 10, seed=0)
        assert total_size(shards) == len(tiny_dataset)

    def test_at_most_three_classes_per_client(self):
        # 2 shards of a label-sorted dataset give each client at most ~2
        # classes (3 when a shard straddles a class boundary).
        from repro.data.datasets import make_synthetic_mnist

        data = make_synthetic_mnist(1000, seed=0)
        shards = partition_extreme(data, 10, seed=0)
        for shard in shards:
            assert (shard.class_counts() > 0).sum() <= 4

    def test_more_heterogeneous_than_uniform(self):
        from repro.data.datasets import make_synthetic_mnist

        data = make_synthetic_mnist(1000, seed=0)
        uniform = partition_uniform(data, 10, seed=0)
        extreme = partition_extreme(data, 10, seed=0)

        def mean_classes(shards):
            return np.mean([(s.class_counts() > 0).sum() for s in shards])

        assert mean_classes(extreme) < mean_classes(uniform)

    def test_too_small_dataset_rejected(self):
        from repro.data.datasets import make_synthetic_mnist

        data = make_synthetic_mnist(15, seed=0)
        with pytest.raises(ValueError):
            partition_extreme(data, 10)


class TestPartitionDispatch:
    @pytest.mark.parametrize("regime", ["uniform", "mild", "extreme"])
    def test_string_regimes(self, tiny_dataset, regime):
        shards = partition_dataset(tiny_dataset, 5, regime, seed=0)
        assert len(shards) == 5

    def test_enum_regime(self, tiny_dataset):
        shards = partition_dataset(tiny_dataset, 4, Heterogeneity.UNIFORM, seed=0)
        assert len(shards) == 4

    def test_unknown_regime(self, tiny_dataset):
        with pytest.raises(ValueError):
            partition_dataset(tiny_dataset, 4, "chaotic")

    def test_deterministic_given_seed(self, tiny_dataset):
        a = partition_dataset(tiny_dataset, 5, "extreme", seed=3)
        b = partition_dataset(tiny_dataset, 5, "extreme", seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.labels, y.labels)


class TestBatchSampler:
    def test_sample_shapes(self, tiny_dataset):
        sampler = BatchSampler(tiny_dataset, batch_size=16, seed=0)
        images, labels = sampler.sample()
        assert images.shape == (16, 28, 28)
        assert labels.shape == (16,)

    def test_small_dataset_samples_with_replacement(self, tiny_dataset):
        small = tiny_dataset.subset(np.arange(4))
        sampler = BatchSampler(small, batch_size=16, seed=0)
        images, labels = sampler.sample()
        assert images.shape[0] == 16

    def test_invalid_batch_size(self, tiny_dataset):
        with pytest.raises(ValueError):
            BatchSampler(tiny_dataset, batch_size=0)

    def test_deterministic(self, tiny_dataset):
        a = BatchSampler(tiny_dataset, batch_size=8, seed=1).sample()[1]
        b = BatchSampler(tiny_dataset, batch_size=8, seed=1).sample()[1]
        np.testing.assert_array_equal(a, b)
