"""Gradient and value tests for conv2d / pooling primitives."""

import tracemalloc

import numpy as np
import pytest
from scipy import signal

from repro.nn import Tensor, avg_pool2d, conv2d, max_pool2d, ops, preserve_float64

from .helpers import check_gradient

RNG = np.random.default_rng(11)


class TestConv2dForward:
    def test_matches_scipy_correlate(self):
        x = RNG.normal(size=(1, 1, 8, 8))
        w = RNG.normal(size=(1, 1, 3, 3))
        with preserve_float64():
            out = conv2d(Tensor(x), Tensor(w)).numpy()
        expected = signal.correlate2d(x[0, 0], w[0, 0], mode="valid")
        np.testing.assert_allclose(out[0, 0], expected, rtol=1e-5)

    def test_multichannel_sums_over_input_channels(self):
        x = RNG.normal(size=(2, 3, 6, 6))
        w = RNG.normal(size=(4, 3, 3, 3))
        with preserve_float64():
            out = conv2d(Tensor(x), Tensor(w)).numpy()
        expected = np.zeros((2, 4, 4, 4))
        for n in range(2):
            for f in range(4):
                for c in range(3):
                    expected[n, f] += signal.correlate2d(x[n, c], w[f, c], mode="valid")
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_output_shape_with_stride_and_padding(self):
        x = Tensor(np.zeros((1, 1, 9, 9)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        assert conv2d(x, w, stride=2, padding=1).shape == (1, 2, 5, 5)

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.0, -2.0]))
        out = conv2d(x, w, b).numpy()
        np.testing.assert_allclose(out[0, 0], 1.0)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((4, 4))), Tensor(np.zeros((1, 1, 3, 3))))

    # The no-graph path streams rows through a column buffer of
    # ``ops._COL_CHUNK_BYTES``; the graph path builds the whole batch.
    # ``step`` rows fit the patched budget, so the batch sizes put the
    # last chunk at every boundary case.  These tests draw from their
    # own generator, so the module RNG stream the tests below see is
    # unchanged.
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (1, 2), (2, 2)])
    @pytest.mark.parametrize("batch", [1, 2, 3, 4, 10])
    def test_streamed_rows_equal_whole_batch(self, monkeypatch, batch, stride, padding):
        step = 3  # batch sizes 1, step - 1, step, step + 1, 3 * step + 1
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, 3, 9, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        out_h = (9 + 2 * padding - 3) // stride + 1
        out_w = (8 + 2 * padding - 3) // stride + 1
        row_bytes = 3 * 3 * 3 * out_h * out_w * 4
        monkeypatch.setattr(ops, "_COL_CHUNK_BYTES", step * row_bytes + row_bytes // 2)
        graph = conv2d(Tensor(x, requires_grad=True), Tensor(w), Tensor(b), stride, padding)
        streamed = conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding)
        assert streamed.shape == graph.shape
        assert np.array_equal(streamed.numpy(), graph.numpy())

    def test_row_larger_than_budget_streams_one_row_at_a_time(self, monkeypatch):
        monkeypatch.setattr(ops, "_COL_CHUNK_BYTES", 1)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 2, 7, 7)).astype(np.float32)
        w = rng.normal(size=(3, 2, 5, 5)).astype(np.float32)
        graph = conv2d(Tensor(x, requires_grad=True), Tensor(w), padding=2)
        streamed = conv2d(Tensor(x), Tensor(w), padding=2)
        assert np.array_equal(streamed.numpy(), graph.numpy())

    def test_streamed_column_buffer_stays_small(self):
        """A conv2-shaped call at 320 rows (one bench batch) allocates
        less than a tenth of the whole-batch column matrix: its output
        plus one chunk of columns."""
        batch, c_in, size, c_out, k = 320, 10, 28, 20, 5
        n_loc = (size - k + 1) ** 2
        whole_batch_cols = batch * c_in * k * k * n_loc * 4
        x = Tensor(np.ones((batch, c_in, size, size), dtype=np.float32))
        w = Tensor(np.full((c_out, c_in, k, k), 0.01, dtype=np.float32))
        tracemalloc.start()
        try:
            conv2d(x, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole_batch_cols / 10, (peak, whole_batch_cols)


class TestConv2dGradients:
    def test_grad_wrt_input(self):
        w = Tensor(RNG.normal(size=(2, 1, 3, 3)))
        check_gradient(lambda t: conv2d(t, w), RNG.normal(size=(1, 1, 5, 5)))

    def test_grad_wrt_input_padded_strided(self):
        w = Tensor(RNG.normal(size=(2, 2, 3, 3)))
        check_gradient(
            lambda t: conv2d(t, w, stride=2, padding=1), RNG.normal(size=(1, 2, 6, 6))
        )

    def test_grad_wrt_weight(self):
        x = Tensor(RNG.normal(size=(2, 2, 5, 5)))
        check_gradient(lambda t: conv2d(x, t), RNG.normal(size=(3, 2, 3, 3)))

    def test_grad_wrt_bias(self):
        # float64 operands from its own generator, as check_gradient treats
        # its argument: float32 x and w put the numerical gradient off by
        # ~1e-2, passing or failing with whatever drew from RNG before.
        rng = np.random.default_rng(17)
        with preserve_float64():
            x = Tensor(rng.normal(size=(2, 1, 4, 4)))
            w = Tensor(rng.normal(size=(2, 1, 3, 3)))
        check_gradient(lambda t: conv2d(x, w, t), rng.normal(size=(2,)))


class TestMaxPool:
    def test_forward_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2).numpy()
        np.testing.assert_allclose(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_odd_size_cropped(self):
        x = Tensor(np.zeros((1, 1, 5, 5)))
        assert max_pool2d(x, 2).shape == (1, 1, 2, 2)

    def test_too_large_window_raises(self):
        with pytest.raises(ValueError):
            max_pool2d(Tensor(np.zeros((1, 1, 2, 2))), 3)

    def test_gradient(self):
        # Unique values avoid tie ambiguity at the argmax.
        x = RNG.permutation(np.arange(64.0)).reshape(1, 1, 8, 8)
        check_gradient(lambda t: max_pool2d(t, 2), x)

    def test_gradient_routes_to_argmax_only(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0, 1, 1] = 5.0
        t = Tensor(x, requires_grad=True)
        max_pool2d(t, 2).sum().backward()
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 1, 1] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_overlapping_stride(self):
        x = RNG.permutation(np.arange(36.0)).reshape(1, 1, 6, 6)
        check_gradient(lambda t: max_pool2d(t, 3, stride=1), x)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [2, 3])
    def test_inference_path_matches_argmax_path(self, kernel, stride):
        # Few distinct values make ties; odd, unequal sides crop at the
        # bottom/right; the NaN must win its windows on both paths.
        x = RNG.integers(-3, 4, size=(2, 3, 11, 9)).astype(np.float32)
        x[1, 2, 4, 4] = np.nan  # inside a window for every kernel and stride
        fast = max_pool2d(Tensor(x), kernel, stride=stride).numpy()
        argmax = max_pool2d(Tensor(x, requires_grad=True), kernel, stride=stride).numpy()
        assert np.isnan(fast).any()
        np.testing.assert_array_equal(fast, argmax)


class TestAvgPool:
    def test_forward_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = avg_pool2d(Tensor(x), 2).numpy()
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_gradient(self):
        check_gradient(lambda t: avg_pool2d(t, 2), RNG.normal(size=(2, 2, 4, 4)))

    def test_too_large_window_raises(self):
        with pytest.raises(ValueError):
            avg_pool2d(Tensor(np.zeros((1, 1, 2, 2))), 4)
