"""Stochastic mini-batch sampling for gradient estimation."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.datasets import Dataset
from repro.utils.rng import as_generator
from repro.utils.validation import require


class BatchSampler:
    """Draws random mini-batches from a client's local dataset.

    Each call to :meth:`sample` draws ``batch_size`` indices uniformly
    with replacement when the dataset is smaller than the batch, without
    replacement otherwise — matching the "draw a random batch from the
    local data-generating distribution" gradient estimator (Equation 2).
    """

    def __init__(self, dataset: Dataset, batch_size: int = 32, *, seed=0) -> None:
        require(batch_size >= 1, "batch_size must be positive")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self._rng = as_generator(seed)

    def sample(self) -> Tuple[np.ndarray, np.ndarray]:
        """One mini-batch ``(images, labels)``."""
        n = len(self.dataset)
        replace = n < self.batch_size
        idx = self._rng.choice(n, size=min(self.batch_size, n) if not replace else self.batch_size,
                               replace=replace)
        return self.dataset.images[idx], self.dataset.labels[idx]
