"""Minimal structured logging used by long-running experiments.

The library defaults to silent operation (tests and benchmarks should
not spam stdout); experiment runners opt into progress logging by
raising the level of the ``repro`` logger.
"""

from __future__ import annotations

import logging
from typing import Optional

_ROOT_NAME = "repro"
_configured = False


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """Return a library logger, configuring the root handler on first use."""
    global _configured
    if not _configured:
        root = logging.getLogger(_ROOT_NAME)
        if not root.handlers:
            handler = logging.StreamHandler()
            handler.setFormatter(
                logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
            )
            root.addHandler(handler)
        root.setLevel(logging.WARNING)
        _configured = True
    if name is None or name == _ROOT_NAME:
        return logging.getLogger(_ROOT_NAME)
    if name.startswith(f"{_ROOT_NAME}."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")
