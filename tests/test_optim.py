import numpy as np
import pytest

from framecmd.autodiff import Parameter
from framecmd.corpus import LabelVocab
from framecmd.model import ModelConfig, build_model
from framecmd.optim import OPTIMIZERS, Adam, Sgd

from oracles import AdamOracle, SgdOracle

VOCAB = LabelVocab(frames=("Bringing", "Motion", "Taking"),
                   element_types=("Goal", "Theme"))


def test_zero_gradient_no_update():
    p = Parameter("p", np.array([1.0, -2.0]))
    opt = Adam([p])
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert opt.step_count == 1


def test_first_step_magnitude_is_lr():
    # bias-corrected m/sqrt(v) equals sign(g) on the first step
    p = Parameter("p", np.zeros(3))
    g = np.array([0.5, -3.0, 1e-3])
    p.grad[...] = g
    opt = Adam([p], lr=1e-3)
    opt.step()
    np.testing.assert_allclose(p.data, -1e-3 * np.sign(g), rtol=1e-4)


def test_gradients_zeroed_after_step():
    p = Parameter("p", np.zeros(2))
    p.grad[...] = [1.0, 1.0]
    Adam([p]).step()
    np.testing.assert_array_equal(p.grad, [0.0, 0.0])


def test_deterministic_runs():
    def run():
        rng = np.random.default_rng(4)
        p = Parameter("p", np.array([1.0, 2.0, 3.0]))
        opt = Adam([p], lr=0.01)
        for _ in range(50):
            p.grad += rng.normal(size=3)    # in place: p.grad is a view
            opt.step()
        return p.data.copy()

    first = run()
    np.testing.assert_array_equal(first, run())
    assert not np.array_equal(first, [1.0, 2.0, 3.0])


def test_sgd_step():
    p = Parameter("p", np.array([1.0]))
    p.grad[...] = [0.5]
    Sgd([p], lr=0.1).step()
    np.testing.assert_allclose(p.data, [0.95])


def test_optimizers_by_name():
    # TrainConfig rejects any other name (tests/test_pipeline.py).
    p = Parameter("p", np.zeros(1))
    assert OPTIMIZERS == {"adam": Adam, "sgd": Sgd}
    assert isinstance(OPTIMIZERS["adam"]([p]), Adam)
    assert isinstance(OPTIMIZERS["sgd"]([p]), Sgd)


@pytest.mark.parametrize("flat,oracle,lr", [(Adam, AdamOracle, 1e-2),
                                           (Sgd, SgdOracle, 0.1)])
def test_flat_optimizer_matches_per_parameter_reference(flat, oracle, lr):
    """The same random gradients for 50 steps on a 3L-ATT model give
    bit-identical parameters."""
    a = build_model(ModelConfig(), VOCAB).parameters()
    b = build_model(ModelConfig(), VOCAB).parameters()
    opt_a, opt_b = flat(a, lr=lr), oracle(b, lr=lr)
    rng = np.random.default_rng(6)
    for _ in range(50):
        for pa, pb in zip(opt_a.params, opt_b.params):
            g = rng.normal(size=pa.data.shape)
            pa.grad[...] = g
            pb.grad[...] = g
        opt_a.step()
        opt_b.step()
    for pa, pb in zip(opt_a.params, opt_b.params):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.data, pb.data)
        assert not pa.grad.any()


@pytest.mark.parametrize("flat", [Adam, Sgd])
def test_parameters_are_views_of_the_flat_buffers(flat):
    params = build_model(ModelConfig(), VOCAB).parameters()
    before = {p.name: p.data.copy() for p in params}
    opt = flat(params)
    assert opt.data.size == sum(p.data.size for p in params)
    for p in params:
        assert np.shares_memory(p.data, opt.data)
        assert np.shares_memory(p.grad, opt.grad)
        np.testing.assert_array_equal(p.data, before[p.name])
    params[0].grad[...] = 1.0
    opt.step()
    assert not np.array_equal(params[0].data, before[params[0].name])
