"""Optimizers over flat master storage: the same bits as per-tensor updates,
one owner per tensor, and state that loads only where it fits."""

import contextlib
import gc

import numpy as np
import pytest

from canopyheights import nn, optim
from canopyheights import train as tr
from canopyheights.tensor import Tensor

SHAPES = {"w": (3, 4), "alpha": (), "b": (5,), "k": (2, 2, 3), "s": ()}


def registry(seed=0):
    rng = np.random.default_rng(seed)
    return {name: Tensor(rng.normal(size=shape), requires_grad=True)
            for name, shape in SHAPES.items()}


def set_grads(params, rng, dtype=np.float32, none=("alpha",)):
    """Random gradients of ``dtype``; the names in ``none`` get none."""
    for name, t in params.items():
        g = rng.normal(size=t.data.shape).astype(dtype)
        t.grad = None if name in none else g


def reference_adamw_step(data, m, v, grads, t, lr, b1=0.9, b2=0.999,
                         eps=1e-8, weight_decay=0.01):
    """AdamW tensor by tensor, as the optimizer computed it before its
    storage was flat."""
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for k, g in grads.items():
        if g is None:
            continue
        m[k] = b1 * m[k] + (1 - b1) * g
        v[k] = b2 * v[k] + (1 - b2) * g * g
        mhat = m[k] / bc1
        vhat = v[k] / bc2
        data[k] -= lr * (mhat / (np.sqrt(vhat) + eps)
                         + weight_decay * data[k])


class TestFlatStorage:
    def test_tensors_become_views_of_one_master_vector(self):
        params = registry()
        before = {k: t.data.copy() for k, t in params.items()}
        opt = optim.SGD(params, lr=0.1)
        assert opt.master.dtype == np.float64
        assert opt.master.flags.c_contiguous
        assert opt.master.size == sum(a.size for a in before.values())
        for k, t in params.items():
            assert t.data.base is opt.master
            assert t.data.shape == before[k].shape
            np.testing.assert_array_equal(t.data, before[k])

    def test_a_held_tensor_cannot_be_taken_over_again(self):
        params = registry()
        opt = optim.SGD(params, lr=0.1)
        with pytest.raises(ValueError, match="b is already held"):
            optim.AdamW({"b": params["b"]})
        with pytest.raises(ValueError, match="already held"):
            optim.SGD({"x": params["w"], "y": Tensor(np.zeros(2))}, lr=0.1)
        twice = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError, match="y is already held"):
            optim.SGD({"x": twice, "y": twice}, lr=0.1)
        # once its optimizer is gone, a tensor is free again
        del opt
        gc.collect()
        assert optim.AdamW(params).master.size == 31

    def test_sgd_over_views_equals_the_per_tensor_update(self):
        params = registry()
        ref = {k: t.data.copy() for k, t in params.items()}
        opt = optim.SGD(params, lr=0.03)
        rng = np.random.default_rng(1)
        for _ in range(3):
            set_grads(params, rng)
            for k, t in params.items():
                if t.grad is not None:
                    ref[k] -= opt.lr * t.grad
            opt.step()
        for k, t in params.items():
            assert t.data.tobytes() == ref[k].tobytes()


class TestAdamW:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_step_is_the_per_tensor_formula_bit_for_bit(self, dtype):
        params = registry()
        data = {k: t.data.copy() for k, t in params.items()}
        m = {k: np.zeros_like(a) for k, a in data.items()}
        v = {k: np.zeros_like(a) for k, a in data.items()}
        opt = optim.AdamW(params, lr=1e-3)
        rng = np.random.default_rng(2)
        for step in range(1, 6):
            opt.lr = 1e-3 * step
            set_grads(params, rng, dtype)
            reference_adamw_step(data, m, v,
                                 {k: t.grad for k, t in params.items()},
                                 step, opt.lr)
            opt.step()
        for k, t in params.items():
            assert t.data.tobytes() == data[k].tobytes(), k
            assert opt.m[k].tobytes() == m[k].tobytes(), k
            assert opt.v[k].tobytes() == v[k].tobytes(), k
        # the tensor without a gradient is left exactly as it was
        start = registry()["alpha"].data
        assert params["alpha"].data.tobytes() == start.tobytes()
        assert opt.m["alpha"] == 0 and opt.v["alpha"] == 0

    def test_a_gradient_of_another_shape_raises(self):
        params = registry()
        opt = optim.AdamW(params)
        set_grads(params, np.random.default_rng(3), none=())
        params["b"].grad = np.ones(4, np.float32)
        with pytest.raises(ValueError, match="gradient of b"):
            opt.step()

    def test_state_round_trips_through_load_state(self):
        params = registry()
        opt = optim.AdamW(params)
        rng = np.random.default_rng(4)
        for _ in range(2):
            set_grads(params, rng)
            opt.step()
        state = {k: a.copy() for k, a in opt.state_arrays().items()}
        fresh = optim.AdamW(registry(seed=5))
        fresh.load_state(state)
        assert fresh.t == 2
        for k in SHAPES:
            np.testing.assert_array_equal(fresh.m[k], opt.m[k])
            np.testing.assert_array_equal(fresh.v[k], opt.v[k])
            assert fresh.m[k].base is fresh.m["w"].base

    @pytest.mark.parametrize("name, arr", [
        ("adam_m.nope", np.zeros(3)),
        ("adam_v.b", np.zeros(1)),
        ("adam_m.alpha", np.zeros(2)),
    ])
    def test_load_state_rejects_moments_that_fit_no_parameter(self, name,
                                                              arr):
        opt = optim.AdamW(registry())
        state = {"adam_t": np.asarray(9), "adam_m.w": np.ones((3, 4)),
                 name: arr}
        with pytest.raises(ValueError, match=name):
            opt.load_state(state)
        assert opt.t == 0 and not opt.m["w"].any()


class TestCheckpointsAndWorkingCopies:
    def test_load_checkpoint_writes_through_to_the_master(self, tmp_path):
        saved = nn.init_bn(3)
        saved.gamma.data[...] = [0.5, 1.5, 2.5]
        saved.beta.data[...] = [-1.0, 0.0, 1.0]
        path = tr.save_checkpoint(str(tmp_path), 0, saved, None)
        model = nn.init_bn(3)
        opt = optim.SGD(optim.collect_tensors(model), lr=0.5)
        tr.load_checkpoint(path, model)
        np.testing.assert_array_equal(opt.master,
                                      [0.5, 1.5, 2.5, -1.0, 0.0, 1.0])
        model.gamma.grad = np.ones(3, np.float32)
        model.beta.grad = np.full(3, 2.0, np.float32)
        opt.step()
        np.testing.assert_array_equal(model.gamma.data, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(model.beta.data, [-2.0, -1.0, 0.0])

    def test_working_copies_are_one_cast_and_the_views_come_back(self):
        params = registry()
        extra = {"c": Tensor(np.linspace(0, 1, 7), requires_grad=True)}
        optimizers = [optim.AdamW(params), optim.SGD(extra, lr=0.1)]
        held = {k: t.data for k, t in {**params, **extra}.items()}
        for fail in (False, True):
            with (pytest.raises(RuntimeError) if fail
                  else contextlib.nullcontext()):
                with tr._working_copies(optimizers):
                    for opt in optimizers:
                        cast = opt.master.astype(np.float32)
                        for t, view in zip(opt.params.values(),
                                           opt.views(cast)):
                            assert t.data.dtype == np.float32
                            assert t.data.tobytes() == view.tobytes()
                    if fail:
                        raise RuntimeError("inside the block")
            for k, t in {**params, **extra}.items():
                assert t.data is held[k]

