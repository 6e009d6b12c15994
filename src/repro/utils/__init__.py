"""Shared utilities: RNG management, validation and logging.

These helpers are intentionally dependency-light so every other
subpackage (geometry, aggregation, agreement, learning) can rely on them
without import cycles.
"""

from repro.utils.rng import RngFactory, as_generator, spawn_generators
from repro.utils.validation import (
    ensure_matrix,
    require,
    validate_byzantine_bound,
)
from repro.utils.logging import get_logger

__all__ = [
    "RngFactory",
    "as_generator",
    "spawn_generators",
    "ensure_matrix",
    "require",
    "validate_byzantine_bound",
    "get_logger",
]
