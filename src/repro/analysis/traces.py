"""Accuracy/loss trace statistics.

These functions formalise how we read a training curve:

- :func:`moving_average` smooths the per-round accuracy (single-batch
  stochastic gradients make raw curves noisy),
- :func:`classify_trace` labels a smoothed curve as ``"converging"``,
  ``"diverging"``, ``"stagnant"`` or ``"unstable"``, matching the
  vocabulary the paper uses when describing Figures 2a and 3, and
- :func:`summarize_history` bundles the numbers ``repro compare`` prints
  per rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.learning.history import TrainingHistory

#: Relative drop below a curve's recent peak (twice that below its
#: global peak) past which a curve that ends above chance is "unstable".
_STABILITY_TOLERANCE = 0.15


def moving_average(values: Sequence[float], window: int = 5) -> List[float]:
    """Centered-tail moving average with a warm-up (same length as input)."""
    if window < 1:
        raise ValueError("window must be positive")
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return []
    out = np.empty_like(arr)
    for i in range(arr.size):
        lo = max(0, i - window + 1)
        out[i] = arr[lo : i + 1].mean()
    return out.tolist()


@dataclass(frozen=True)
class TraceSummary:
    """Summary statistics of one accuracy trace."""

    final: float
    best: float
    smoothed_final: float
    chance_level: float
    classification: str


def classify_trace(
    accuracies: Sequence[float],
    *,
    chance_level: float = 0.1,
    window: int = 5,
) -> str:
    """Classify an accuracy trace.

    Returns one of:

    - ``"converging"`` — the smoothed accuracy ends above chance and its
      last quarter does not drop much below its own maximum,
    - ``"unstable"`` — ends above chance but with large swings late in
      training (the paper's description of MD-GEOM in Figures 2a/3b),
    - ``"stagnant"`` — never clearly exceeds chance level,
    - ``"diverging"`` — exceeded chance at some point but ends close to
      (or below) chance again, i.e. the model was destroyed by the
      attack (the paper's description of the mean-based rules under the
      sign flip).
    """
    accs = list(accuracies)
    if not accs:
        raise ValueError("cannot classify an empty trace")
    smooth = moving_average(accs, window=window)
    peak = max(smooth)
    final = smooth[-1]
    above = 1.5 * chance_level
    if peak <= above:
        return "stagnant"
    if final <= above:
        return "diverging"
    # Instability = the curve ends noticeably below its own (recent) peak;
    # a monotone rise is never flagged, no matter how steep.
    tail = smooth[max(0, len(smooth) - max(3, len(smooth) // 4)) :]
    drop_from_recent_peak = (max(tail) - final) / max(peak, 1e-12)
    drop_from_global_peak = (peak - final) / max(peak, 1e-12)
    if (
        drop_from_recent_peak > _STABILITY_TOLERANCE
        or drop_from_global_peak > 2 * _STABILITY_TOLERANCE
    ):
        return "unstable"
    return "converging"


def summarize_history(
    history: TrainingHistory, *, num_classes: int = 10, window: int = 5
) -> TraceSummary:
    """Summary of a :class:`TrainingHistory` accuracy trace."""
    accs = history.accuracies()
    if not accs:
        raise ValueError("history has no recorded rounds")
    chance = 1.0 / num_classes
    smooth = moving_average(accs, window=window)
    return TraceSummary(
        final=accs[-1],
        best=max(accs),
        smoothed_final=smooth[-1],
        chance_level=chance,
        classification=classify_trace(accs, chance_level=chance, window=window),
    )
