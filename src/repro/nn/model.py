"""Sequential model with flat parameter / gradient views.

The collaborative-learning layer exchanges *flat vectors*: a client's
stochastic gradient is the concatenation of all parameter gradients, and
a model update sets all parameters from one flat vector.  The
:class:`Sequential` container therefore exposes

- :meth:`get_flat_parameters` / :meth:`set_flat_parameters`,
- :meth:`gradient` — loss + flat gradient for a batch, and
- :meth:`predict` / :meth:`evaluate_accuracy` for the reporting loop.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.nn.layers import Layer
from repro.nn.losses import softmax_cross_entropy


class Sequential:
    """A feed-forward stack of layers trained with softmax cross-entropy."""

    def __init__(self, layers: Sequence[Layer], name: str = "model") -> None:
        if not layers:
            raise ValueError("a model needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.name = name

    # -- forward / backward ---------------------------------------------------
    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        """Logits for a batch of inputs."""
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_logits: np.ndarray) -> None:
        """Back-propagate a gradient w.r.t. the logits through every layer."""
        grad = grad_logits
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def zero_grads(self) -> None:
        """Clear accumulated gradients in every layer."""
        for layer in self.layers:
            layer.zero_grads()

    # -- flat parameter interface ----------------------------------------------
    @property
    def num_parameters(self) -> int:
        """Total scalar parameter count across all layers."""
        return int(sum(layer.num_parameters for layer in self.layers))

    def _parameter_items(self):
        for layer in self.layers:
            for key in sorted(layer.params):
                yield layer, key

    def get_flat_parameters(self) -> np.ndarray:
        """All parameters concatenated into one ``(num_parameters,)`` vector."""
        chunks = [layer.params[key].ravel() for layer, key in self._parameter_items()]
        if not chunks:
            return np.empty(0)
        return np.concatenate(chunks)

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        """Load parameters from a flat vector (inverse of ``get_flat_parameters``)."""
        vec = np.asarray(flat, dtype=np.float64).reshape(-1)
        if vec.shape[0] != self.num_parameters:
            raise ValueError(
                f"expected {self.num_parameters} parameters, got {vec.shape[0]}"
            )
        offset = 0
        for layer, key in self._parameter_items():
            size = layer.params[key].size
            layer.params[key] = vec[offset : offset + size].reshape(layer.params[key].shape).copy()
            offset += size

    def get_flat_gradients(self) -> np.ndarray:
        """Accumulated gradients concatenated in the same order as parameters."""
        chunks = [layer.grads[key].ravel() for layer, key in self._parameter_items()]
        if not chunks:
            return np.empty(0)
        return np.concatenate(chunks)

    # -- training-facing helpers ------------------------------------------------
    def gradient(self, images: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
        """Loss and flat gradient of the mean cross-entropy on a batch."""
        self.zero_grads()
        logits = self.forward(images, training=True)
        loss, grad_logits = softmax_cross_entropy(logits, labels)
        self.backward(grad_logits)
        return loss, self.get_flat_gradients()

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Predicted class labels for a batch."""
        logits = self.forward(images, training=False)
        return np.argmax(logits, axis=1)

    def evaluate_accuracy(
        self, images: np.ndarray, labels: np.ndarray, *, batch_size: int = 256
    ) -> float:
        """Classification accuracy computed in mini-batches."""
        y = np.asarray(labels).reshape(-1)
        if y.size == 0:
            raise ValueError("cannot evaluate accuracy on an empty set")
        correct = 0
        for start in range(0, y.shape[0], batch_size):
            stop = start + batch_size
            preds = self.predict(images[start:stop])
            correct += int((preds == y[start:stop]).sum())
        return correct / y.shape[0]
