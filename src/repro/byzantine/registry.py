"""Name-based registry of attack models."""

from __future__ import annotations

from typing import Dict, Type

from repro.byzantine.base import GradientAttack
from repro.byzantine.crash import CrashAttack
from repro.byzantine.label_flip import LabelFlipAttack
from repro.byzantine.magnitude import MagnitudeAttack
from repro.byzantine.omniscient import OppositeOfMeanAttack
from repro.byzantine.random_noise import GaussianNoiseAttack, RandomVectorAttack
from repro.byzantine.sign_flip import SignFlipAttack
from repro.byzantine.timing import (
    AdaptiveDelayAttack,
    SelectiveDelayAttack,
    WithholdThenRushAttack,
)

_REGISTRY: Dict[str, Type[GradientAttack]] = {
    "sign-flip": SignFlipAttack,
    "crash": CrashAttack,
    "gaussian-noise": GaussianNoiseAttack,
    "random-vector": RandomVectorAttack,
    "magnitude": MagnitudeAttack,
    "opposite-mean": OppositeOfMeanAttack,
    "label-flip": LabelFlipAttack,
    "withhold-rush": WithholdThenRushAttack,
    "selective-delay": SelectiveDelayAttack,
    "adaptive-delay": AdaptiveDelayAttack,
}


def available_attacks() -> list[str]:
    """Sorted list of registered attack names."""
    return sorted(_REGISTRY)


def make_attack(name: str, **kwargs) -> GradientAttack:
    """Instantiate the attack registered under ``name``."""
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown attack {name!r}; available: {available_attacks()}")
    return _REGISTRY[key](**kwargs)
