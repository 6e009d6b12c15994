"""Deterministic random-number management.

Every stochastic component in the library (datasets, clients, attacks,
Weiszfeld perturbations, sampling of ``S_geo``) takes either a seed or a
:class:`numpy.random.Generator`.  Centralising the conversion logic here
keeps experiments reproducible: a single integer seed fans out into an
independent stream per client / per component via
``stable_component_seed``.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    Parameters
    ----------
    seed:
        ``None`` (non-deterministic), an integer seed, an existing
        generator (returned unchanged), or a ``SeedSequence``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def stable_component_seed(master_seed: Optional[int], *components: object) -> int:
    """Derive a stable 32-bit seed from a master seed and component labels.

    The labels are folded via a small explicit FNV-1a style mix, not
    Python's per-run string hashing, so the result is stable across
    interpreter invocations.
    """
    acc = np.uint64(1469598103934665603)
    prime = np.uint64(1099511628211)
    base = 0 if master_seed is None else int(master_seed)
    data = repr((base, components)).encode("utf-8")
    for byte in data:
        acc = np.uint64(acc ^ np.uint64(byte))
        acc = np.uint64((int(acc) * int(prime)) % (2**64))
    return int(acc % np.uint64(2**31 - 1))
