"""Autograd core: arithmetic, shape ops, reductions, gradcheck."""

import threading
import weakref

import numpy as np
import pytest

from portraitflow.numerics import (
    Tensor,
    grad_check,
    layer_norm,
    linear,
    no_grad,
    precision,
)
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


def test_matmul_rejects_a_1d_operand():
    for a, b in (((3,), (3, 4)), ((2, 3), (3,))):
        with pytest.raises(ValueError, match="2d"):
            Tensor(np.zeros(a)) @ Tensor(np.zeros(b))


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


def test_gradient_accumulates_for_shared_parameters():
    x = Tensor([2.0], requires_grad=True)
    loss = (x * 3.0 + x * 5.0).sum()
    loss.backward()
    assert np.allclose(x.grad, [8.0])


def test_constant_leaf_keeps_no_gradient():
    rng = np.random.default_rng(1)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    const = Tensor(rng.standard_normal((4, 3)))
    scale = Tensor(rng.standard_normal((4, 2)))
    loss = (linear(const, w, Tensor(np.zeros(2))) * scale).square().sum()
    loss.backward()
    assert const.grad is None and scale.grad is None
    assert w.grad is not None and np.abs(w.grad).max() > 0


ALIAS_CASES = [
    # an input feeding two linears and an additive path: its first gradient
    # arrives from whichever consumer runs first, and later ones add to it
    ("linear_product_plus_input",
     lambda p, lin1, lin2: (lin1 * lin2 + p["x"]).square().sum()),
    ("input_plus_linear_then_product",
     lambda p, lin1, lin2: ((p["x"] + lin1) * lin2).square().sum()),
    ("sum_of_all_three",
     lambda p, lin1, lin2: (lin1 + p["x"] + lin2).square().sum()),
    # reshape views of an add's gradient meet that add's input again
    ("reshape_plus_its_own_input",
     lambda p, lin1, lin2: ((p["x"] + lin1).reshape(2, 12).reshape(2, 3, 4)
                            + p["x"]).square().sum()),
    # layer_norm hands its upstream gradient to the bias unchanged
    ("layer_norm_bias_is_input",
     lambda p, lin1, lin2: (layer_norm(lin1, lin2, p["x"]) * lin1).square().sum()),
]


@pytest.mark.parametrize("name,combine", ALIAS_CASES, ids=[c[0] for c in ALIAS_CASES])
def test_aliased_input_gradient_matches_finite_differences(name, combine):
    def fn(p):
        lin1 = linear(p["x"], p["w1"], p["b1"])
        lin2 = linear(p["x"], p["w2"], p["b2"])
        return combine(p, lin1, lin2)

    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = {"x": _random_tensor(rng, (2, 3, 4)),
                  "w1": _random_tensor(rng, (4, 4)), "b1": _random_tensor(rng, (4,)),
                  "w2": _random_tensor(rng, (4, 4)), "b2": _random_tensor(rng, (4,))}
        assert grad_check(fn, params) <= 1e-4, f"{name} failed at seed {seed}"


def test_second_backward_over_shared_subgraph_counts_once():
    x = Tensor([1.0], requires_grad=True)
    y = x * 2.0
    y.sum().backward()
    assert y.grad is None and np.allclose(x.grad, [2.0])
    (y * 3.0).sum().backward()
    # 2 from the first loss plus 6 from the second; a stale y.grad gives 10
    assert np.allclose(x.grad, [8.0])


def test_backward_frees_intermediate_grads_and_keeps_leaf_grads():
    rng = np.random.default_rng(2)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    x = Tensor(rng.standard_normal((4, 3)))
    h = linear(x, w, b)
    s = (h * h).reshape(8)
    loss = (s + h.reshape(8)).sum()
    loss.backward()
    assert all(node.grad is None for node in (h, s, loss))
    assert w.grad is not None and b.grad is not None and x.grad is None


def test_op_result_data_no_backward_reads_is_freed_while_the_graph_lives():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 3)))
    params = {"w": _random_tensor(rng, (2, 3)), "b": _random_tensor(rng, (3,))}
    freed = []

    def fn(p):
        h = x * p["w"]
        y = h + p["b"]  # the add's backward reads shapes only
        freed.append(weakref.ref(h.data))
        del h
        # only the constant's gradient would read y's data, and it takes none
        s = y * Tensor(2.0)
        freed.append(weakref.ref(y.data))
        del y
        return s.square().sum()

    loss = fn(params)
    assert [ref() for ref in freed] == [None, None]
    loss.backward()
    assert np.allclose(params["w"].grad, 8.0 * (x.data * params["w"].data + params["b"].data)
                       * x.data, rtol=1e-5)
    assert grad_check(fn, params) <= 1e-6


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_backward_from_a_constant_sends_nothing():
    c = Tensor(2.0)
    c.backward()
    assert c.grad is None


def test_backward_from_a_leaf_gives_it_a_unit_gradient():
    x = Tensor([3.0], requires_grad=True)
    x.backward()
    assert np.array_equal(x.grad, [1.0])


def test_requires_grad_is_fixed_when_a_tensor_is_built():
    # a leaf's node is made by the constructor, so a flag set later would
    # mark a leaf that no gradient reaches
    x = Tensor([3.0], requires_grad=True)
    assert x.requires_grad and not (x * 2.0).requires_grad
    with pytest.raises(AttributeError):
        Tensor([3.0]).requires_grad = True


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
    ("matmul_batched", lambda p: (p["a"] @ p["b"]).square().sum(),
     {"a": (2, 3, 4), "b": (4, 2)}),
    ("reshape", lambda p: p["a"].reshape(6).square().sum(), {"a": (2, 3)}),
    ("transpose", lambda p: p["a"].transpose((1, 0, 2)).square().sum(), {"a": (2, 3, 2)}),
    ("narrow", lambda p: p["a"].narrow(1, 1, 2).square().sum(), {"a": (3, 4)}),
    ("sum_axis", lambda p: p["a"].sum(axis=0).square().sum(), {"a": (3, 4)}),
    ("mean_axis", lambda p: p["a"].mean(axis=1).square().sum(), {"a": (3, 4)}),
]


@pytest.mark.parametrize("name,fn,shapes", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_backward_matches_finite_differences(name, fn, shapes):
    # property: every primitive's backward agrees with central differences
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = {k: _random_tensor(rng, s) for k, s in shapes.items()}
        assert grad_check(fn, params) <= 1e-4, f"{name} failed at seed {seed}"


def test_unknown_precision_rejected():
    with pytest.raises(ValueError, match="unknown dtype 'f16'"):
        with precision("f16"):
            pass


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
