"""Tests for the NumPy neural-network layers, including gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU


def numerical_gradient(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        plus = fn()
        x[idx] = orig - eps
        minus = fn()
        x[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 3, rng=rng)
        out = layer.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)

    def test_forward_linear(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        expected = x @ layer.params["W"] + layer.params["b"]
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_input_gradient_check(self, rng):
        layer = Dense(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        upstream = rng.normal(size=(2, 3))
        layer.zero_grads()
        layer.forward(x)
        grad_x = layer.backward(upstream)
        num = numerical_gradient(lambda: float((layer.forward(x, training=False) * upstream).sum()), x)
        np.testing.assert_allclose(grad_x, num, atol=1e-5)

    def test_weight_gradient_check(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        upstream = rng.normal(size=(4, 2))
        layer.zero_grads()
        layer.forward(x)
        layer.backward(upstream)
        num_w = numerical_gradient(
            lambda: float((layer.forward(x, training=False) * upstream).sum()),
            layer.params["W"],
        )
        np.testing.assert_allclose(layer.grads["W"], num_w, atol=1e-5)
        num_b = numerical_gradient(
            lambda: float((layer.forward(x, training=False) * upstream).sum()),
            layer.params["b"],
        )
        np.testing.assert_allclose(layer.grads["b"], num_b, atol=1e-5)

    def test_backward_before_forward_raises(self, rng):
        layer = Dense(2, 2, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_wrong_input_dim(self, rng):
        layer = Dense(3, 2, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((4, 5)))

    def test_num_parameters(self, rng):
        layer = Dense(4, 3, rng=rng)
        assert layer.num_parameters == 4 * 3 + 3

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Dense(0, 3)


class TestReLU:
    def test_forward(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])

    def test_backward_masks_negative(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 3.0]]))
        grad = layer.backward(np.array([[5.0, 5.0]]))
        np.testing.assert_allclose(grad, [[0.0, 5.0]])

    def test_no_parameters(self):
        assert ReLU().num_parameters == 0


class TestFlatten:
    def test_round_trip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(3, 4, 4, 2))
        out = layer.forward(x)
        assert out.shape == (3, 32)
        back = layer.backward(out)
        assert back.shape == x.shape
        np.testing.assert_allclose(back, x)


class TestConv2D:
    def test_forward_shape_same_padding(self, rng):
        layer = Conv2D(3, 8, kernel_size=3, padding=1, rng=rng)
        out = layer.forward(rng.normal(size=(2, 8, 8, 3)))
        assert out.shape == (2, 8, 8, 8)

    def test_forward_shape_valid_padding(self, rng):
        layer = Conv2D(1, 4, kernel_size=3, padding=0, rng=rng)
        out = layer.forward(rng.normal(size=(2, 6, 6, 1)))
        assert out.shape == (2, 4, 4, 4)

    def test_known_convolution_value(self):
        layer = Conv2D(1, 1, kernel_size=3, padding=0)
        layer.params["W"] = np.ones((9, 1))
        layer.params["b"] = np.zeros(1)
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out = layer.forward(x)
        # Top-left window sums 0+1+2+4+5+6+8+9+10 = 45.
        assert out[0, 0, 0, 0] == pytest.approx(45.0)

    def test_input_gradient_check(self, rng):
        layer = Conv2D(2, 3, kernel_size=3, padding=1, rng=rng)
        x = rng.normal(size=(1, 5, 5, 2))
        upstream = rng.normal(size=(1, 5, 5, 3))
        layer.zero_grads()
        layer.forward(x)
        grad_x = layer.backward(upstream)
        num = numerical_gradient(
            lambda: float((layer.forward(x, training=False) * upstream).sum()), x, eps=1e-5
        )
        np.testing.assert_allclose(grad_x, num, atol=1e-4)

    def test_weight_gradient_check(self, rng):
        layer = Conv2D(1, 2, kernel_size=3, padding=1, rng=rng)
        x = rng.normal(size=(2, 4, 4, 1))
        upstream = rng.normal(size=(2, 4, 4, 2))
        layer.zero_grads()
        layer.forward(x)
        layer.backward(upstream)
        num_w = numerical_gradient(
            lambda: float((layer.forward(x, training=False) * upstream).sum()),
            layer.params["W"],
            eps=1e-5,
        )
        np.testing.assert_allclose(layer.grads["W"], num_w, atol=1e-4)

    def test_wrong_channel_count(self, rng):
        layer = Conv2D(3, 4, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 8, 8, 1)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            Conv2D(0, 3)
        with pytest.raises(ValueError):
            Conv2D(1, 1, kernel_size=3, padding=-1)


class TestMaxPool2D:
    def test_forward_values(self):
        layer = MaxPool2D(pool_size=2)
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, :, :, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_backward_routes_to_argmax(self):
        layer = MaxPool2D(pool_size=2)
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        layer.forward(x)
        grad = layer.backward(np.ones((1, 2, 2, 1)))
        assert grad.sum() == pytest.approx(4.0)
        assert grad[0, 1, 1, 0] == pytest.approx(1.0)  # position of value 5
        assert grad[0, 0, 0, 0] == pytest.approx(0.0)

    def test_input_gradient_check(self, rng):
        layer = MaxPool2D(pool_size=2)
        x = rng.normal(size=(1, 4, 4, 2))
        upstream = rng.normal(size=(1, 2, 2, 2))
        layer.forward(x)
        grad_x = layer.backward(upstream)
        num = numerical_gradient(
            lambda: float((layer.forward(x, training=False) * upstream).sum()), x, eps=1e-6
        )
        np.testing.assert_allclose(grad_x, num, atol=1e-4)

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            MaxPool2D(pool_size=0)

    def test_rejects_non_4d_input(self):
        with pytest.raises(ValueError):
            MaxPool2D().forward(np.zeros((2, 4, 4)))
