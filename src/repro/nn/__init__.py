"""Pure-NumPy neural-network substrate.

The paper trains its models with TensorFlow; this reproduction replaces
that dependency with a small, explicit NumPy implementation of exactly
the pieces the experiments need:

- layers with hand-written backward passes (:mod:`repro.nn.layers`),
- softmax + categorical cross-entropy loss (:mod:`repro.nn.losses`),
- a :class:`~repro.nn.model.Sequential` container exposing *flat*
  parameter and gradient vectors — the representation the aggregation
  and agreement layers operate on,
- an SGD optimiser with the global-round learning-rate decay the paper
  uses (:mod:`repro.nn.optimizers`), and
- the two architectures of the evaluation: a 3-layer MLP for the
  MNIST-like task and a small convolutional "CifarNet" for the
  CIFAR-like task (:mod:`repro.nn.architectures`).
"""

from repro.nn.layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU
from repro.nn.losses import softmax, softmax_cross_entropy
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD
from repro.nn.architectures import build_cifarnet, build_mlp
from repro.nn.metrics import accuracy

__all__ = [
    "Conv2D",
    "Dense",
    "Flatten",
    "Layer",
    "MaxPool2D",
    "ReLU",
    "SGD",
    "Sequential",
    "accuracy",
    "build_cifarnet",
    "build_mlp",
    "softmax",
    "softmax_cross_entropy",
]
