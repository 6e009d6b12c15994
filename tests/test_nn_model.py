"""Tests for losses, the Sequential model, optimiser and architectures."""

import numpy as np
import pytest

from repro.nn.architectures import build_cifarnet, build_mlp
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import one_hot, softmax, softmax_cross_entropy
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD


class TestLosses:
    def test_softmax_rows_sum_to_one(self, rng):
        probs = softmax(rng.normal(size=(6, 10)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_stability_large_logits(self):
        probs = softmax(np.array([[1000.0, 1000.0, -1000.0]]))
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs[0, :2], 0.5, atol=1e-9)

    def test_one_hot(self):
        out = one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_uniform_prediction(self):
        logits = np.zeros((4, 10))
        loss, _ = softmax_cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(10.0), rel=1e-6)

    def test_gradient_matches_numerical(self, rng):
        logits = rng.normal(size=(3, 5))
        labels = np.array([0, 3, 2])
        _, grad = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        num = np.zeros_like(logits)
        for i in range(3):
            for j in range(5):
                plus = logits.copy(); plus[i, j] += eps
                minus = logits.copy(); minus[i, j] -= eps
                num[i, j] = (softmax_cross_entropy(plus, labels)[0] - softmax_cross_entropy(minus, labels)[0]) / (2 * eps)
        np.testing.assert_allclose(grad, num, atol=1e-5)

    def test_batch_mismatch(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((3, 4)), np.zeros(2, dtype=int))


class TestSequential:
    def make_model(self, rng):
        return Sequential([Dense(6, 8, rng=rng), ReLU(), Dense(8, 3, rng=rng)])

    def test_flat_parameter_round_trip(self, rng):
        model = self.make_model(rng)
        flat = model.get_flat_parameters()
        assert flat.shape == (model.num_parameters,)
        model.set_flat_parameters(np.zeros_like(flat))
        assert np.all(model.get_flat_parameters() == 0.0)
        model.set_flat_parameters(flat)
        np.testing.assert_allclose(model.get_flat_parameters(), flat)

    def test_set_flat_parameters_wrong_length(self, rng):
        model = self.make_model(rng)
        with pytest.raises(ValueError):
            model.set_flat_parameters(np.zeros(3))

    def test_gradient_descent_reduces_loss(self, rng):
        model = self.make_model(rng)
        x = rng.normal(size=(32, 6))
        y = rng.integers(0, 3, size=32)
        params = model.get_flat_parameters()
        loss0, grad = model.gradient(x, y)
        for _ in range(60):
            params = params - 0.5 * grad
            model.set_flat_parameters(params)
            loss, grad = model.gradient(x, y)
        assert loss < loss0 * 0.7

    def test_gradient_matches_numerical(self, rng):
        model = Sequential([Dense(4, 3, rng=rng)])
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        _, grad = model.gradient(x, y)
        flat = model.get_flat_parameters()
        eps = 1e-6
        num = np.zeros_like(flat)
        for k in range(flat.size):
            for sign, store in ((1, "plus"), (-1, "minus")):
                pass
            plus = flat.copy(); plus[k] += eps
            model.set_flat_parameters(plus)
            lp = softmax_cross_entropy(model.forward(x, training=False), y)[0]
            minus = flat.copy(); minus[k] -= eps
            model.set_flat_parameters(minus)
            lm = softmax_cross_entropy(model.forward(x, training=False), y)[0]
            num[k] = (lp - lm) / (2 * eps)
        model.set_flat_parameters(flat)
        np.testing.assert_allclose(grad, num, atol=1e-5)

    def test_predict_and_accuracy(self, rng):
        model = self.make_model(rng)
        x = rng.normal(size=(10, 6))
        preds = model.predict(x)
        assert preds.shape == (10,)
        assert set(np.unique(preds)).issubset({0, 1, 2})
        acc = model.evaluate_accuracy(x, preds)
        assert acc == pytest.approx(1.0)

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_evaluate_accuracy_empty_rejected(self, rng):
        model = self.make_model(rng)
        with pytest.raises(ValueError):
            model.evaluate_accuracy(np.zeros((0, 6)), np.zeros(0))


class TestSGD:
    def test_step_direction(self):
        sgd = SGD(learning_rate=0.1)
        out = sgd.step(np.array([1.0, 1.0]), np.array([1.0, -1.0]), 0)
        np.testing.assert_allclose(out, [0.9, 1.1])

    def test_decay_schedule(self):
        sgd = SGD(learning_rate=0.1, total_rounds=10)
        assert sgd.effective_learning_rate(0) == pytest.approx(0.1)
        assert sgd.effective_learning_rate(10) < 0.1
        assert sgd.decay() == pytest.approx(0.01)

    def test_no_decay_without_total_rounds(self):
        sgd = SGD(learning_rate=0.1)
        assert sgd.effective_learning_rate(100) == pytest.approx(0.1)

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SGD().step(np.zeros(3), np.zeros(4))

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            SGD().effective_learning_rate(-1)


class TestArchitectures:
    def test_mlp_structure(self):
        model = build_mlp(49, hidden_sizes=(16, 8), num_classes=10, seed=0)
        out = model.forward(np.zeros((2, 49)), training=False)
        assert out.shape == (2, 10)

    def test_mlp_deterministic_given_seed(self):
        a = build_mlp(20, hidden_sizes=(8,), seed=3).get_flat_parameters()
        b = build_mlp(20, hidden_sizes=(8,), seed=3).get_flat_parameters()
        np.testing.assert_allclose(a, b)

    def test_mlp_invalid_hidden(self):
        with pytest.raises(ValueError):
            build_mlp(10, hidden_sizes=())

    def test_mlp_image_and_flat_input_bitwise_equal(self, rng):
        # The MLP flattens its own input, so the learning loops hand it
        # the images as they are; flat and image-shaped batches must give
        # the same bits.
        model = build_mlp(7 * 7, hidden_sizes=(16, 8), num_classes=10, seed=0)
        images = rng.normal(size=(20, 7, 7, 1))
        flat = images.reshape(20, -1)
        labels = rng.integers(0, 10, size=20)
        np.testing.assert_array_equal(
            model.forward(images, training=False), model.forward(flat, training=False)
        )
        loss_images, grad_images = model.gradient(images, labels)
        loss_flat, grad_flat = model.gradient(flat, labels)
        assert loss_images == loss_flat
        np.testing.assert_array_equal(grad_images, grad_flat)
        assert grad_images.shape == (model.num_parameters,)
        assert model.evaluate_accuracy(images, labels, batch_size=8) == (
            model.evaluate_accuracy(flat, labels, batch_size=8)
        )

    def test_cifarnet_forward(self):
        model = build_cifarnet((16, 16, 3), 10, conv_channels=(4, 8), dense_width=16, seed=0)
        out = model.forward(np.zeros((2, 16, 16, 3)), training=False)
        assert out.shape == (2, 10)

    def test_cifarnet_too_many_pools(self):
        with pytest.raises(ValueError):
            build_cifarnet((4, 4, 3), 10, conv_channels=(4, 8, 16, 32))

class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(3), np.zeros(4))
