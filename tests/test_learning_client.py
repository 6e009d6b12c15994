"""Tests for the Client abstraction and training history records."""

import numpy as np
import pytest

from repro.byzantine.sign_flip import SignFlipAttack
from repro.learning.client import Client
from repro.learning.history import RoundRecord, TrainingHistory
from repro.nn.architectures import build_mlp


@pytest.fixture
def client(tiny_dataset):
    model = build_mlp(tiny_dataset.feature_dim, hidden_sizes=(16,), num_classes=10, seed=0)
    return Client(0, tiny_dataset, model, batch_size=8, seed=0)


class TestClient:
    def test_honest_by_default(self, client):
        assert not client.is_byzantine

    def test_byzantine_with_attack(self, tiny_dataset):
        model = build_mlp(tiny_dataset.feature_dim, hidden_sizes=(16,), num_classes=10, seed=0)
        byz = Client(1, tiny_dataset, model, attack=SignFlipAttack(), seed=0)
        assert byz.is_byzantine

    def test_compute_gradient_shapes(self, client):
        params = client.local_parameters()
        loss, grad = client.compute_gradient(params)
        assert np.isfinite(loss)
        assert grad.shape == params.shape
        assert client.last_loss == loss

    def test_gradient_loads_given_parameters(self, client):
        zeros = np.zeros_like(client.local_parameters())
        client.compute_gradient(zeros)
        np.testing.assert_allclose(client.local_parameters(), zeros)

    def test_apply_update(self, client):
        new = np.ones_like(client.local_parameters())
        client.apply_update(new)
        np.testing.assert_allclose(client.local_parameters(), new)

    def test_evaluate_accuracy_range(self, client, tiny_dataset):
        acc = client.model.evaluate_accuracy(tiny_dataset.images[:50], tiny_dataset.labels[:50])
        assert 0.0 <= acc <= 1.0

    def test_negative_id_rejected(self, tiny_dataset):
        model = build_mlp(tiny_dataset.feature_dim, hidden_sizes=(8,), num_classes=10)
        with pytest.raises(ValueError):
            Client(-1, tiny_dataset, model)

    def test_stochastic_gradients_differ_between_calls(self, client):
        params = client.local_parameters()
        _, g1 = client.compute_gradient(params)
        _, g2 = client.compute_gradient(params)
        assert not np.allclose(g1, g2)

    def test_cifar_style_client_without_flatten(self):
        from repro.data.datasets import make_synthetic_cifar10
        from repro.nn.architectures import build_cifarnet

        data = make_synthetic_cifar10(60, seed=0)
        model = build_cifarnet((32, 32, 3), 10, conv_channels=(2, 4), dense_width=8, seed=0)
        client = Client(0, data, model, batch_size=4, seed=0)
        loss, grad = client.compute_gradient(client.local_parameters())
        assert np.isfinite(loss) and grad.shape == (model.num_parameters,)


class TestTrainingHistory:
    def make_history(self):
        history = TrainingHistory(
            setting="centralized", aggregation="box-geom", attack="sign-flip",
            heterogeneity="mild", num_clients=10, num_byzantine=1,
        )
        for r, acc in enumerate([0.2, 0.5, 0.4]):
            history.append(RoundRecord(round_index=r, accuracy=acc, loss=1.0 - acc))
        return history

    def test_traces(self):
        history = self.make_history()
        assert history.accuracies() == [0.2, 0.5, 0.4]
        assert history.losses() == [pytest.approx(0.8), pytest.approx(0.5), pytest.approx(0.6)]

    def test_final_and_best(self):
        history = self.make_history()
        assert history.final_accuracy() == pytest.approx(0.4)
        assert history.best_accuracy() == pytest.approx(0.5)

    def test_out_of_order_append_rejected(self):
        history = self.make_history()
        with pytest.raises(ValueError):
            history.append(RoundRecord(round_index=0, accuracy=0.1, loss=1.0))

    def test_empty_history_nan(self):
        history = TrainingHistory(
            setting="centralized", aggregation="mean", attack=None,
            heterogeneity="uniform", num_clients=2, num_byzantine=0,
        )
        assert np.isnan(history.final_accuracy())
        assert np.isnan(history.best_accuracy())

    def test_summary_fields(self):
        from repro.analysis.reporting import run_summary

        summary = run_summary(self.make_history(), None)
        assert summary == {
            "final_accuracy": pytest.approx(0.4),
            "best_accuracy": pytest.approx(0.5),
            "final_loss": pytest.approx(0.6),
            "rounds": 3,
        }
