"""Unit tests for the autograd Tensor: every op's gradient is verified
against central finite differences."""

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, concat, no_grad, preserve_float64, stack

from .helpers import check_gradient

RNG = np.random.default_rng(7)


class TestBasics:
    def test_construction_casts_to_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32

    def test_float64_downcast_by_default(self):
        t = Tensor(np.array([1.0, 2.0], dtype=np.float64))
        assert t.dtype == np.float32

    def test_float64_preserved_under_context(self):
        with preserve_float64():
            t = Tensor(np.array([1.0, 2.0], dtype=np.float64))
        assert t.dtype == np.float64
        # Policy is restored on exit.
        assert Tensor(np.array([1.0], dtype=np.float64)).dtype == np.float32

    def test_explicit_dtype_wins(self):
        t = Tensor(np.array([1.0, 2.0], dtype=np.float64), dtype=np.float64)
        assert t.dtype == np.float64

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6

    def test_item_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_detach_cuts_graph(self):
        t = Tensor([1.0], requires_grad=True)
        d = (t * 2).detach()
        assert not d.requires_grad

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError):
            t.backward()

    def test_seed_gradient_shape_checked(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = t * 2
        with pytest.raises(ValueError):
            out.backward(np.ones(3))

    def test_no_grad_blocks_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2
        assert not out.requires_grad

    def test_gradient_accumulates_across_backward_calls(self):
        t = Tensor([1.0, 1.0], requires_grad=True)
        (t * 3).sum().backward()
        (t * 3).sum().backward()
        np.testing.assert_allclose(t.grad, [6.0, 6.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))


class TestArithmeticGradients:
    def test_add(self):
        check_gradient(lambda t: t + 3.0, RNG.normal(size=(3, 4)))

    def test_add_broadcast(self):
        other = Tensor(RNG.normal(size=(4,)))
        check_gradient(lambda t: t + other, RNG.normal(size=(3, 4)))

    def test_broadcast_grad_shape_for_second_operand(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0), rtol=1e-5)

    def test_sub(self):
        check_gradient(lambda t: 5.0 - t, RNG.normal(size=(2, 3)))

    def test_mul(self):
        other = Tensor(RNG.normal(size=(2, 3)))
        check_gradient(lambda t: t * other, RNG.normal(size=(2, 3)))

    def test_div(self):
        other = Tensor(RNG.normal(size=(2, 3)) + 3.0)
        check_gradient(lambda t: t / other, RNG.normal(size=(2, 3)))

    def test_rdiv(self):
        check_gradient(lambda t: 2.0 / t, RNG.normal(size=(2, 3)) + 3.0)

    def test_pow(self):
        check_gradient(lambda t: t**3, RNG.normal(size=(5,)) + 2.0)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg(self):
        check_gradient(lambda t: -t, RNG.normal(size=(4,)))


class TestTranscendentalGradients:
    def test_exp(self):
        check_gradient(lambda t: t.exp(), RNG.normal(size=(3, 3)))

    def test_log(self):
        check_gradient(lambda t: t.log(), RNG.uniform(0.5, 3.0, size=(3, 3)))

    def test_sqrt(self):
        check_gradient(lambda t: t.sqrt(), RNG.uniform(0.5, 3.0, size=(4,)))

    def test_abs(self):
        check_gradient(lambda t: t.abs(), RNG.normal(size=(4,)) + 2.0)

    def test_tanh(self):
        check_gradient(lambda t: t.tanh(), RNG.normal(size=(3, 3)))

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid(), RNG.normal(size=(3, 3)))

    def test_sigmoid_stable_for_large_inputs(self):
        out = Tensor(np.array([1000.0, -1000.0])).sigmoid()
        np.testing.assert_allclose(out.numpy(), [1.0, 0.0], atol=1e-12)

    def test_clip(self):
        check_gradient(lambda t: t.clip(-0.5, 0.5), RNG.normal(size=(10,)))


class TestReductionGradients:
    def test_sum_all(self):
        check_gradient(lambda t: t.sum(), RNG.normal(size=(3, 4)))

    def test_sum_axis(self):
        check_gradient(lambda t: t.sum(axis=0), RNG.normal(size=(3, 4)))

    def test_sum_axis_keepdims(self):
        check_gradient(lambda t: t.sum(axis=1, keepdims=True), RNG.normal(size=(3, 4)))

    def test_sum_negative_axis(self):
        check_gradient(lambda t: t.sum(axis=-1), RNG.normal(size=(2, 3, 4)))

    def test_mean(self):
        check_gradient(lambda t: t.mean(), RNG.normal(size=(3, 4)))

    def test_mean_axis(self):
        check_gradient(lambda t: t.mean(axis=(1, 2)), RNG.normal(size=(2, 3, 4)))

    def test_max_all(self):
        # Use distinct values so the max is unique and differentiable.
        x = np.arange(12.0).reshape(3, 4)
        check_gradient(lambda t: t.max(), x)

    def test_max_axis(self):
        x = RNG.permutation(np.arange(12.0)).reshape(3, 4)
        check_gradient(lambda t: t.max(axis=1), x)

    def test_max_ties_split_gradient(self):
        t = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5, 0.0])


class TestShapeGradients:
    def test_reshape(self):
        check_gradient(lambda t: t.reshape(6, 2) * 2.0, RNG.normal(size=(3, 4)))

    def test_flatten(self):
        check_gradient(lambda t: t.flatten() * 2.0, RNG.normal(size=(2, 3, 4)))

    def test_transpose(self):
        other = Tensor(RNG.normal(size=(4, 3)))
        check_gradient(lambda t: t.T * other, RNG.normal(size=(3, 4)))

    def test_transpose_axes(self):
        check_gradient(
            lambda t: t.transpose(2, 0, 1) * 1.5, RNG.normal(size=(2, 3, 4))
        )

    def test_getitem_slice(self):
        check_gradient(lambda t: t[1:, :2] * 3.0, RNG.normal(size=(3, 4)))

    def test_getitem_fancy(self):
        idx = (np.array([0, 1, 1]), np.array([2, 0, 0]))
        # Repeated index (1, 0) must accumulate gradient twice.
        t = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        t[idx].sum().backward()
        assert t.grad[1, 0] == pytest.approx(2.0)
        assert t.grad[0, 2] == pytest.approx(1.0)


class TestMatmulGradients:
    def test_matmul_2d(self):
        other = Tensor(RNG.normal(size=(4, 5)))
        check_gradient(lambda t: t @ other, RNG.normal(size=(3, 4)))

    def test_matmul_grad_wrt_second(self):
        a = Tensor(RNG.normal(size=(3, 4)))
        check_gradient(lambda t: a @ t, RNG.normal(size=(4, 5)))

    def test_matmul_1d_2d(self):
        other = Tensor(RNG.normal(size=(4, 5)))
        check_gradient(lambda t: t @ other, RNG.normal(size=(4,)))

    def test_matmul_2d_1d(self):
        vec = Tensor(RNG.normal(size=(4,)))
        check_gradient(lambda t: t @ vec, RNG.normal(size=(3, 4)))

    def test_matmul_values(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).numpy(), a @ b)


class TestConcatStack:
    def test_concat_values(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((1, 2)))
        assert concat([a, b], axis=0).shape == (3, 2)

    def test_concat_gradient(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        (concat([a, b], axis=1) * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 2), 2.0))

    def test_stack_gradient(self):
        a = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 3.0, 3.0])

    def test_as_tensor_idempotent(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t


class TestGraphMechanics:
    def test_diamond_graph_accumulates(self):
        # f = (t*2) + (t*3) -> df/dt = 5.
        t = Tensor([1.0], requires_grad=True)
        ((t * 2) + (t * 3)).sum().backward()
        np.testing.assert_allclose(t.grad, [5.0])

    def test_deep_chain_does_not_overflow(self):
        t = Tensor([1.0], requires_grad=True)
        out = t
        for _ in range(2000):
            out = out + 0.001
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0])

    def test_reused_tensor_in_product(self):
        t = Tensor([3.0], requires_grad=True)
        (t * t).sum().backward()
        np.testing.assert_allclose(t.grad, [6.0])


def test_no_grad_is_thread_local():
    """A worker thread's no_grad must not disable recording elsewhere
    (the daemon's scoring thread and a wedged one it replaced call
    ``predict()`` concurrently)."""
    import threading

    from repro.nn.tensor import is_grad_enabled, no_grad

    entered = threading.Event()
    release = threading.Event()

    def worker():
        with no_grad():
            entered.set()
            release.wait(timeout=5.0)

    t = threading.Thread(target=worker)
    t.start()
    try:
        assert entered.wait(timeout=5.0)
        assert is_grad_enabled()
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        assert (x * 2).requires_grad
    finally:
        release.set()
        t.join()
    assert is_grad_enabled()
