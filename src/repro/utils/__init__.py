"""Shared utilities: RNG management, validation and logging.

These helpers are intentionally dependency-light so every other
subpackage (geometry, aggregation, agreement, learning) can rely on them
without import cycles.
"""

from repro.utils.rng import as_generator
from repro.utils.validation import (
    ensure_matrix,
    require,
    validate_byzantine_bound,
)
from repro.utils.logging import get_logger

__all__ = [
    "as_generator",
    "ensure_matrix",
    "require",
    "validate_byzantine_bound",
    "get_logger",
]
