"""Model architectures used in the paper's evaluation.

- :func:`build_mlp` — the 3-layer MultiLayer Perceptron the paper trains
  on MNIST.

Each model starts from image-shaped input: the MLP's first layer is a
:class:`~repro.nn.layers.Flatten`, and CifarNet flattens after its
convolutions, so the learning loops hand every model the images as
they are.
- :func:`build_cifarnet` — a medium-sized convolutional network ("CifarNet")
  for the CIFAR-like task: two conv/pool blocks followed by two dense
  layers.  Kept deliberately small so the decentralized experiments with
  10 clients remain laptop-scale, but structurally it exercises every
  layer type (convolution, pooling, flatten, dense).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.model import Sequential
from repro.utils.rng import as_generator


def build_mlp(
    input_dim: int = 28 * 28,
    hidden_sizes: Sequence[int] = (128, 64),
    num_classes: int = 10,
    *,
    seed=0,
) -> Sequential:
    """3-layer MLP (two hidden ReLU layers + softmax output).

    The first layer flattens each input to its ``input_dim`` features,
    as the paper's MLP consumes MNIST, so the model takes image-shaped
    and already flat batches alike.  ``Flatten`` has no parameters: the
    flat parameter and gradient vectors hold the dense layers only.
    """
    if input_dim < 1 or num_classes < 2:
        raise ValueError("input_dim must be positive and num_classes >= 2")
    if len(hidden_sizes) == 0:
        raise ValueError("MLP needs at least one hidden layer")
    rng = as_generator(seed)
    layers = [Flatten()]
    previous = input_dim
    for width in hidden_sizes:
        if width < 1:
            raise ValueError("hidden layer widths must be positive")
        layers.append(Dense(previous, int(width), rng=rng))
        layers.append(ReLU())
        previous = int(width)
    layers.append(Dense(previous, num_classes, rng=rng))
    return Sequential(layers, name="mlp")


def build_cifarnet(
    input_shape: Tuple[int, int, int] = (32, 32, 3),
    num_classes: int = 10,
    *,
    conv_channels: Sequence[int] = (8, 16),
    dense_width: int = 64,
    seed=0,
) -> Sequential:
    """Small convolutional network for the CIFAR-like task.

    Architecture: ``[Conv3x3 -> ReLU -> MaxPool2]`` per entry of
    ``conv_channels``, then ``Flatten -> Dense -> ReLU -> Dense``.
    """
    h, w, c = input_shape
    if min(h, w, c) < 1 or num_classes < 2:
        raise ValueError("invalid input_shape or num_classes")
    rng = as_generator(seed)
    layers = []
    in_channels = c
    spatial_h, spatial_w = h, w
    for out_channels in conv_channels:
        layers.append(Conv2D(in_channels, int(out_channels), kernel_size=3, padding=1, rng=rng))
        layers.append(ReLU())
        layers.append(MaxPool2D(pool_size=2))
        in_channels = int(out_channels)
        spatial_h //= 2
        spatial_w //= 2
        if spatial_h < 1 or spatial_w < 1:
            raise ValueError("too many conv/pool blocks for the input resolution")
    layers.append(Flatten())
    flat_dim = spatial_h * spatial_w * in_channels
    layers.append(Dense(flat_dim, int(dense_width), rng=rng))
    layers.append(ReLU())
    layers.append(Dense(int(dense_width), num_classes, rng=rng))
    return Sequential(layers, name="cifarnet")
