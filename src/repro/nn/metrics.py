"""Classification metrics."""

from __future__ import annotations

import numpy as np


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of predictions matching the labels."""
    preds = np.asarray(predictions).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if preds.shape != y.shape:
        raise ValueError(f"shape mismatch: predictions {preds.shape} vs labels {y.shape}")
    if y.size == 0:
        raise ValueError("cannot compute accuracy on empty arrays")
    return float((preds == y).mean())
