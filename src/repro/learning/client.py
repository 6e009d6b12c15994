"""Client abstraction shared by the centralized and decentralized loops."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.byzantine.base import GradientAttack
from repro.data.batching import BatchSampler
from repro.data.datasets import Dataset
from repro.nn.model import Sequential


class Client:
    """A learning participant with a local dataset and a local model.

    Parameters
    ----------
    client_id:
        Stable integer id; doubles as the node id in the network
        simulation.
    dataset:
        The client's local training shard.
    model:
        The client's model instance.  In the centralized loop every
        client's parameters are overwritten with the global weights each
        round; in the decentralized loop the instance persists and is
        updated with the client's own agreed aggregate.
    batch_size:
        Mini-batch size of the stochastic gradient estimate.
    attack:
        When set, the client is Byzantine and its *shared* gradient is
        produced by the attack (its honestly computed gradient is still
        available to the attack as ``own_vector``).
    """

    def __init__(
        self,
        client_id: int,
        dataset: Dataset,
        model: Sequential,
        *,
        batch_size: int = 32,
        attack: Optional[GradientAttack] = None,
        seed=0,
    ) -> None:
        if client_id < 0:
            raise ValueError("client_id must be non-negative")
        self.client_id = int(client_id)
        self.dataset = dataset
        self.model = model
        self.attack = attack
        self._sampler = BatchSampler(dataset, batch_size=batch_size, seed=seed)
        self.last_loss: float = float("nan")

    @property
    def is_byzantine(self) -> bool:
        """Whether this client is configured with an attack."""
        return self.attack is not None

    def compute_gradient(self, parameters: np.ndarray) -> Tuple[float, np.ndarray]:
        """Honest stochastic gradient at the given (flat) parameters.

        The client loads ``parameters`` into its model, draws a random
        mini-batch from its local shard and returns the mean
        cross-entropy loss and the flat gradient — Equation (2) of the
        paper.
        """
        self.model.set_flat_parameters(parameters)
        images, labels = self._sampler.sample()
        loss, grad = self.model.gradient(images, labels)
        self.last_loss = loss
        return loss, grad

    def local_parameters(self) -> np.ndarray:
        """Current flat parameters of the client's own model."""
        return self.model.get_flat_parameters()

    def apply_update(self, new_parameters: np.ndarray) -> None:
        """Overwrite the client's model parameters."""
        self.model.set_flat_parameters(new_parameters)


def attack_name(clients: Iterable[Client]) -> Optional[str]:
    """Name of the first Byzantine client's attack, for the run's history."""
    return next((c.attack.name for c in clients if c.is_byzantine), None)
