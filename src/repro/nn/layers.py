"""Neural-network layers with explicit forward/backward passes.

Every layer follows the same contract:

- ``forward(x, training)`` consumes a batch and caches whatever the
  backward pass needs,
- ``backward(grad_output)`` consumes the gradient w.r.t. the layer's
  output, accumulates parameter gradients into ``self.grads`` and
  returns the gradient w.r.t. the layer's input,
- ``params`` / ``grads`` are dictionaries of NumPy arrays with matching
  keys, so the model can expose flat parameter/gradient vectors.

The convolution uses the im2col formulation: the input windows are
unfolded into a matrix so the convolution becomes a single GEMM, which
is the standard way to keep NumPy convolutions fast (vectorise the loop,
as the HPC guides insist).
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple

import numpy as np


class Layer(abc.ABC):
    """Base class for all layers."""

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}

    @abc.abstractmethod
    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        """Compute the layer output for a batch ``x``."""
        raise NotImplementedError

    @abc.abstractmethod
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and return the input gradient."""
        raise NotImplementedError

    def zero_grads(self) -> None:
        """Reset accumulated parameter gradients to zero."""
        for key, value in self.params.items():
            self.grads[key] = np.zeros_like(value)

    @property
    def num_parameters(self) -> int:
        """Total number of scalar parameters in this layer."""
        return int(sum(p.size for p in self.params.values()))


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("in_features and out_features must be positive")
        generator = rng if rng is not None else np.random.default_rng(0)
        # He initialisation: suited to the ReLU activations used throughout.
        scale = np.sqrt(2.0 / in_features)
        self.params["W"] = generator.normal(0.0, scale, size=(in_features, out_features))
        self.params["b"] = np.zeros(out_features)
        self.zero_grads()
        self._cache_x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.params["W"].shape[0]:
            raise ValueError(
                f"Dense expected input of shape (batch, {self.params['W'].shape[0]}), got {x.shape}"
            )
        self._cache_x = x if training else None
        return x @ self.params["W"] + self.params["b"]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_x is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        x = self._cache_x
        self.grads["W"] += x.T @ grad_output
        self.grads["b"] += grad_output.sum(axis=0)
        return grad_output @ self.params["W"].T


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        return grad_output * self._mask


class Flatten(Layer):
    """Reshape ``(batch, ...)`` to ``(batch, features)``."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._shape)


# ---------------------------------------------------------------------------
# Convolution via im2col
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, kernel: int, stride: int, pad: int) -> Tuple[np.ndarray, int, int]:
    """Unfold ``(batch, h, w, c)`` into ``(batch * oh * ow, kernel*kernel*c)``."""
    batch, h, w, c = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)), mode="constant")
    oh = (h + 2 * pad - kernel) // stride + 1
    ow = (w + 2 * pad - kernel) // stride + 1
    # Gather all kernel-window views with stride tricks, then reorder.
    shape = (batch, oh, ow, kernel, kernel, c)
    strides = (
        x.strides[0],
        x.strides[1] * stride,
        x.strides[2] * stride,
        x.strides[1],
        x.strides[2],
        x.strides[3],
    )
    windows = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    cols = windows.reshape(batch * oh * ow, kernel * kernel * c)
    return np.ascontiguousarray(cols), oh, ow


def _col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
    oh: int,
    ow: int,
) -> np.ndarray:
    """Fold column gradients back onto the (padded) input, then un-pad."""
    batch, h, w, c = input_shape
    padded = np.zeros((batch, h + 2 * pad, w + 2 * pad, c), dtype=cols.dtype)
    cols6 = cols.reshape(batch, oh, ow, kernel, kernel, c)
    for ky in range(kernel):
        for kx in range(kernel):
            padded[:, ky : ky + stride * oh : stride, kx : kx + stride * ow : stride, :] += (
                cols6[:, :, :, ky, kx, :]
            )
    if pad:
        return padded[:, pad:-pad, pad:-pad, :]
    return padded


class Conv2D(Layer):
    """2-D convolution over channels-last inputs ``(batch, h, w, c)``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        *,
        stride: int = 1,
        padding: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) < 1 or padding < 0:
            raise ValueError("invalid Conv2D hyper-parameters")
        generator = rng if rng is not None else np.random.default_rng(0)
        fan_in = kernel_size * kernel_size * in_channels
        scale = np.sqrt(2.0 / fan_in)
        self.params["W"] = generator.normal(
            0.0, scale, size=(fan_in, out_channels)
        )
        self.params["b"] = np.zeros(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.zero_grads()
        self._cache = None

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ValueError(
                f"Conv2D expected (batch, h, w, {self.in_channels}), got {x.shape}"
            )
        cols, oh, ow = _im2col(x, self.kernel_size, self.stride, self.padding)
        out = cols @ self.params["W"] + self.params["b"]
        out = out.reshape(x.shape[0], oh, ow, self.out_channels)
        self._cache = (x.shape, cols, oh, ow) if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        input_shape, cols, oh, ow = self._cache
        batch = input_shape[0]
        grad_flat = grad_output.reshape(batch * oh * ow, self.out_channels)
        self.grads["W"] += cols.T @ grad_flat
        self.grads["b"] += grad_flat.sum(axis=0)
        grad_cols = grad_flat @ self.params["W"].T
        return _col2im(
            grad_cols, input_shape, self.kernel_size, self.stride, self.padding, oh, ow
        )


class MaxPool2D(Layer):
    """Max pooling over channels-last inputs with a square window."""

    def __init__(self, pool_size: int = 2, *, stride: Optional[int] = None) -> None:
        super().__init__()
        if pool_size < 1:
            raise ValueError("pool_size must be positive")
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else int(pool_size)
        self._cache = None

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"MaxPool2D expects (batch, h, w, c), got {x.shape}")
        batch, h, w, c = x.shape
        k, s = self.pool_size, self.stride
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        shape = (batch, oh, ow, k, k, c)
        strides = (
            x.strides[0],
            x.strides[1] * s,
            x.strides[2] * s,
            x.strides[1],
            x.strides[2],
            x.strides[3],
        )
        windows = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
        windows = windows.reshape(batch, oh, ow, k * k, c)
        arg = windows.argmax(axis=3)
        out = np.take_along_axis(windows, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
        self._cache = (x.shape, arg, oh, ow) if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        input_shape, arg, oh, ow = self._cache
        batch, h, w, c = input_shape
        k, s = self.pool_size, self.stride
        grad_input = np.zeros(input_shape, dtype=grad_output.dtype)
        # Scatter each output gradient back to the argmax position.
        ky = arg // k
        kx = arg % k
        b_idx, oy_idx, ox_idx, c_idx = np.indices((batch, oh, ow, c))
        y_idx = oy_idx * s + ky
        x_idx = ox_idx * s + kx
        np.add.at(grad_input, (b_idx, y_idx, x_idx, c_idx), grad_output)
        return grad_input
