"""Autograd core: arithmetic, shape ops, reductions, gradcheck."""

import threading

import numpy as np
import pytest

from portraitflow.numerics import Tensor, concat, grad_check, no_grad, precision
from portraitflow.numerics.tensor import _unbroadcast


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose((eye @ m).numpy(), [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_basis_selection():
    row = Tensor([[1.0, 0.0]])
    col = Tensor([[5.0], [7.0]])
    assert np.allclose((row @ col).numpy(), [[5.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ValueError) as exc:
        Tensor(np.zeros((3, 4))) @ Tensor(np.zeros((5, 2)))
    assert "(3, 4)" in str(exc.value) and "(5, 2)" in str(exc.value)


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    params = {
        "a": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
        "b": Tensor(rng.standard_normal((4, 2)), requires_grad=True),
    }
    err = grad_check(lambda p: (p["a"] @ p["b"]).square().sum(), params)
    assert err <= 1e-5


def test_gradcheck_quadratic_hand_values():
    params = {"x": Tensor([1.0, 2.0], requires_grad=True)}
    with precision("f64"):
        loss = params["x"].square().sum()
        loss.backward()
    # d/dx sum(x^2) = 2x
    assert np.allclose(params["x"].grad, [2.0, 4.0])
    err = grad_check(lambda p: p["x"].square().sum(), params)
    assert err <= 1e-7


def test_gradcheck_constant_function_gives_exact_zero():
    params = {"x": Tensor([3.0], requires_grad=True)}
    err = grad_check(lambda p: Tensor(1.5) * Tensor(2.0), params)
    assert err == 0.0


def test_gradcheck_rejects_bad_eps():
    params = {"x": Tensor([1.0], requires_grad=True)}
    with pytest.raises(ValueError):
        grad_check(lambda p: p["x"].sum(), params, eps=1e-2)


def test_gradient_accumulates_for_shared_parameters():
    x = Tensor([2.0], requires_grad=True)
    loss = (x * 3.0 + x * 5.0).sum()
    loss.backward()
    assert np.allclose(x.grad, [8.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_unbroadcast_sums_added_axes():
    g = np.ones((3, 4, 5))
    assert _unbroadcast(g, (5,)).tolist() == [12.0] * 5
    assert _unbroadcast(g, (1, 5)).shape == (1, 5)


def _random_tensor(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


OP_CASES = [
    ("add_broadcast", lambda p: (p["a"] + p["b"]).square().sum(),
     {"a": (3, 4), "b": (4,)}),
    ("sub", lambda p: (p["a"] - p["b"]).square().sum(), {"a": (2, 3), "b": (2, 3)}),
    ("mul_broadcast", lambda p: (p["a"] * p["b"]).sum(), {"a": (2, 1, 4), "b": (3, 4)}),
    ("neg", lambda p: (-p["a"]).square().sum(), {"a": (5,)}),
    ("matmul_batched", lambda p: (p["a"] @ p["b"]).square().sum(),
     {"a": (2, 3, 4), "b": (4, 2)}),
    ("reshape", lambda p: p["a"].reshape(6).square().sum(), {"a": (2, 3)}),
    ("transpose", lambda p: p["a"].transpose((1, 0, 2)).square().sum(), {"a": (2, 3, 2)}),
    ("narrow", lambda p: p["a"].narrow(1, 1, 2).square().sum(), {"a": (3, 4)}),
    ("sum_axis", lambda p: p["a"].sum(axis=0).square().sum(), {"a": (3, 4)}),
    ("mean_axis", lambda p: p["a"].mean(axis=1).square().sum(), {"a": (3, 4)}),
    ("concat", lambda p: concat([p["a"], p["b"]], axis=1).square().sum(),
     {"a": (2, 3), "b": (2, 2)}),
]


@pytest.mark.parametrize("name,fn,shapes", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_backward_matches_finite_differences(name, fn, shapes):
    # property: every primitive's backward agrees with central differences
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = {k: _random_tensor(rng, s) for k, s in shapes.items()}
        assert grad_check(fn, params) <= 1e-4, f"{name} failed at seed {seed}"


def test_no_grad_and_precision_are_per_thread():
    entered, release = threading.Event(), threading.Event()
    seen = {}

    def hold():
        with no_grad(), precision("f64"):
            a = Tensor(np.ones(2), requires_grad=True)
            seen["parents"], seen["dtype"] = len((a * a)._parents), a.data.dtype
            entered.set()
            release.wait(10)

    worker = threading.Thread(target=hold)
    worker.start()
    try:
        assert entered.wait(10)
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        assert len((a * b)._parents) == 2
        assert a.data.dtype == np.float32
    finally:
        release.set()
        worker.join()
    assert seen == {"parents": 0, "dtype": np.float64}


def test_op_sequence_is_deterministic():
    def run(seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 4)))
        loss = ((a @ b) * a + b).square().mean()
        loss.backward()
        return loss.numpy().copy(), a.grad.copy()

    loss1, grad1 = run(11)
    loss2, grad2 = run(11)
    assert np.array_equal(loss1, loss2)
    assert np.array_equal(grad1, grad2)
