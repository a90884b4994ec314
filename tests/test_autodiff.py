import re
from pathlib import Path

import numpy as np
import pytest

from framecmd import autodiff as ad
from framecmd.autodiff import Parameter
from framecmd.gradcheck import grad_check


def test_softmax_uniform():
    p = ad.softmax(ad.constant([0.0, 0.0]))
    np.testing.assert_allclose(p.data, [0.5, 0.5])


def test_softmax_shift_invariance():
    x = np.array([0.3, -1.2, 2.0, 0.0])
    p1 = ad.softmax(ad.constant(x)).data
    p2 = ad.softmax(ad.constant(x + 1000.0)).data
    np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_softmax_analytic():
    p = ad.softmax(ad.constant([np.log(2.0), 0.0])).data
    np.testing.assert_allclose(p, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_sums_to_one_positive():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = ad.softmax(ad.constant(rng.normal(0, 5, 8))).data
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p > 0)


def test_cross_entropy_one_hot():
    probs = ad.constant([0.0, 1.0, 0.0])
    assert float(ad.cross_entropy(probs, 1).data) == 0.0


def test_cross_entropy_uniform_16():
    probs = ad.constant(np.full(16, 1 / 16))
    np.testing.assert_allclose(float(ad.cross_entropy(probs, 3).data),
                               np.log(16), atol=1e-12)


def test_cross_entropy_quarter():
    probs = ad.constant([0.25, 0.75])
    np.testing.assert_allclose(float(ad.cross_entropy(probs, 0).data),
                               np.log(4), atol=1e-12)


def test_cross_entropy_index_out_of_range():
    with pytest.raises(IndexError):
        ad.cross_entropy(ad.constant([1.0]), 2)


def test_backward_softmax_ce_identity():
    # d(CE(softmax(z)), gold)/dz == p - onehot(gold)
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = Parameter("z", rng.normal(0, 2, 6))
        p = ad.softmax(z)
        loss = ad.cross_entropy(p, 2)
        ad.backward(loss)
        expected = p.data.copy()
        expected[2] -= 1.0
        np.testing.assert_allclose(z.grad, expected, atol=1e-12)


def test_backward_parameter_used_twice():
    # loss = (w.x)^2-ish through two paths; grads sum over both uses.
    w = Parameter("w", np.array([0.3, -0.7]))
    x = ad.constant([1.0, 2.0])
    a = ad.dot(w, x)
    b = ad.dot(w, x)
    loss = ad.mul(a, b)
    ad.backward(loss)
    eps = 1e-6
    numeric = np.zeros(2)
    for i in range(2):
        for sign in (1, -1):
            w2 = w.data.copy()
            w2[i] += sign * eps
            numeric[i] += sign * float(np.dot(w2, x.data)) ** 2
    numeric /= 2 * eps
    np.testing.assert_allclose(w.grad, numeric, atol=1e-8)


@pytest.mark.parametrize("a_first", [True, False])
def test_backward_node_consumed_upstream_and_downstream(a_first):
    # a feeds both b = tanh(a) and c = a * b, and b feeds c: a's
    # gradient is complete only after c and then b have run. A traversal
    # that runs a as soon as c hands it a gradient gets it wrong for one
    # of the two parent orders of c.
    w = Parameter("w", np.array([0.4, -1.3, 0.9]))
    a = ad.tanh(w)
    b = ad.tanh(a)
    c = ad.mul(a, b) if a_first else ad.mul(b, a)
    loss = ad.dot(c, ad.constant(np.ones(3)))
    ad.backward(loss)
    a_grad = b.data + a.data * (1.0 - b.data ** 2)
    np.testing.assert_allclose(a.grad, a_grad, rtol=1e-14)
    np.testing.assert_allclose(w.grad, a_grad * (1.0 - a.data ** 2),
                               rtol=1e-14)


def test_backward_releases_each_closure_after_running_it():
    # What a closure saved for the backward pass is freed as soon as the
    # closure has run, so a graph is differentiated once.
    w = Parameter("w", np.array([0.4, -1.3]))
    a = ad.tanh(w)
    loss = ad.dot(a, a)
    ad.backward(loss)
    assert a.bwd is None and loss.bwd is None
    grad = w.grad.copy()
    ad.backward(loss)
    np.testing.assert_array_equal(w.grad, grad)


def test_backward_constant_loss():
    w = Parameter("w", np.array([1.0, 2.0]))
    loss = ad.constant(3.0)
    ad.backward(loss)
    np.testing.assert_array_equal(w.grad, [0.0, 0.0])


def test_backward_rejects_non_scalar():
    with pytest.raises(ValueError):
        ad.backward(ad.constant([1.0, 2.0]))


def test_no_grad_builds_no_graph():
    w = Parameter("w", np.array([1.0]))
    with ad.no_grad():
        out = ad.mul(w, w)
    assert out.parents == ()
    assert out.bwd is None


def test_grad_check_fails_when_errors_are_nan():
    # epsilon = 0 makes every central difference 0/0.
    w = Parameter("w", np.array([0.3, -0.7]))
    with np.errstate(divide="ignore", invalid="ignore"):
        err = grad_check(lambda: ad.dot(w, w), [w], epsilon=0.0)
    assert not err < 1e-4


def test_only_autodiff_links_graph_nodes():
    # Every op joins the graph through ad.node, the one writer of a
    # tensor's parents and backward closure.
    assigns = re.compile(r"\.(?:parents|bwd)\s*[-+*/|&]?=(?!=)")
    package = Path(ad.__file__).parent
    offenders = [f"{path.name}:{lineno}"
                 for path in sorted(package.glob("*.py"))
                 if path.name != "autodiff.py"
                 for lineno, line in enumerate(
                     path.read_text(encoding="utf-8").splitlines(), 1)
                 if assigns.search(line)]
    assert offenders == []


def test_forward_purity():
    rng = np.random.default_rng(2)
    w = Parameter("w", rng.normal(size=(3, 3)))
    x = ad.constant(rng.normal(size=3))
    r1 = ad.tanh(ad.matvec(w, x)).data
    r2 = ad.tanh(ad.matvec(w, x)).data
    np.testing.assert_array_equal(r1, r2)
