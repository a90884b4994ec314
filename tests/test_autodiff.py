import ast
import re
from pathlib import Path

import numpy as np
import pytest

from framecmd import autodiff as ad
from framecmd import layers as L
from framecmd.autodiff import Parameter
from framecmd.gradcheck import grad_check

import graph_ops as G
from oracles import softmax_oracle


def fused(logits, gold):
    """The fused softmax cross-entropy at weight 1 and its
    probabilities, read back from its gradient p - onehot(gold)."""
    z = Parameter("z", np.asarray(logits, dtype=float))
    loss = L.softmax_cross_entropy(z, gold, 1.0)
    ad.backward(loss)
    p = z.grad.copy()
    p[gold] += 1.0
    return float(loss.data), p


def test_softmax_uniform():
    _, p = fused([0.0, 0.0], 0)
    np.testing.assert_allclose(p, [0.5, 0.5])


def test_softmax_shift_invariance():
    x = np.array([0.3, -1.2, 2.0, 0.0])
    _, p1 = fused(x, 2)
    _, p2 = fused(x + 1000.0, 2)
    np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_softmax_analytic():
    _, p = fused([np.log(2.0), 0.0], 0)
    np.testing.assert_allclose(p, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_sums_to_one_positive():
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = rng.normal(0, 5, 8)
        # gold at the largest logit, whose p >= 1/8 survives p - 1 + 1
        _, p = fused(z, int(np.argmax(z)))
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p > 0)


def test_cross_entropy_one_hot():
    # exp(-1000) is 0 in float64: the probabilities are exactly [0, 1, 0]
    assert fused([-1000.0, 0.0, -1000.0], 1)[0] == 0.0


def test_cross_entropy_uniform_16():
    np.testing.assert_allclose(fused(np.zeros(16), 3)[0], np.log(16),
                               atol=1e-12)


def test_cross_entropy_quarter():
    # logits [0, ln 3] give the probabilities [1/4, 3/4]
    np.testing.assert_allclose(fused([0.0, np.log(3.0)], 0)[0], np.log(4),
                               atol=1e-12)


def test_cross_entropy_index_out_of_range():
    with pytest.raises(IndexError):
        L.softmax_cross_entropy(ad.constant([1.0]), 2, 1.0)


def test_backward_softmax_ce_identity():
    # d(CE(softmax(z)), gold)/dz == p - onehot(gold)
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = Parameter("z", rng.normal(0, 2, 6))
        ad.backward(L.softmax_cross_entropy(z, 2, 1.0))
        expected = np.array(softmax_oracle(z.data.tolist()))
        expected[2] -= 1.0
        np.testing.assert_allclose(z.grad, expected, atol=1e-12)


def test_backward_parameter_used_twice():
    # loss = (w.x)^2-ish through two paths; grads sum over both uses.
    w = Parameter("w", np.array([0.3, -0.7]))
    x = ad.constant([1.0, 2.0])
    a = G.dot(w, x)
    b = G.dot(w, x)
    loss = G.mul(a, b)
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
    a = G.tanh(w)
    b = G.tanh(a)
    c = G.mul(a, b) if a_first else G.mul(b, a)
    loss = G.dot(c, ad.constant(np.ones(3)))
    ad.backward(loss)
    a_grad = b.data + a.data * (1.0 - b.data ** 2)
    np.testing.assert_allclose(a.grad, a_grad, rtol=1e-14)
    np.testing.assert_allclose(w.grad, a_grad * (1.0 - a.data ** 2),
                               rtol=1e-14)


def test_backward_releases_each_closure_after_running_it():
    # What a closure saved for the backward pass is freed as soon as the
    # closure has run, so a graph is differentiated once.
    w = Parameter("w", np.array([0.4, -1.3]))
    a = G.tanh(w)
    loss = G.dot(a, a)
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
        out = G.mul(w, w)
    assert out.parents == ()
    assert out.bwd is None


def test_grad_check_fails_when_errors_are_nan():
    # epsilon = 0 makes every central difference 0/0.
    w = Parameter("w", np.array([0.3, -0.7]))
    with np.errstate(divide="ignore", invalid="ignore"):
        err = grad_check(lambda: G.dot(w, w), [w], epsilon=0.0)
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


def test_every_op_has_a_caller_in_the_package():
    # An autodiff or layers function that nothing in the package calls
    # is dead code; graph builders only tests use live in graph_ops.
    package = Path(ad.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    defined = {f.name for name in ("autodiff.py", "layers.py")
               for f in trees[name].body if isinstance(f, ast.FunctionDef)}
    # A call counts only as a bare name or through the modules' own
    # names, so that np.stack(...) is no caller of a package `stack`.
    package_names = {"ad", "autodiff", "L", "layers"}
    called = {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
              for tree in trees.values() for n in ast.walk(tree)
              if isinstance(n, ast.Call) and (
                  isinstance(n.func, ast.Name)
                  or isinstance(n.func, ast.Attribute)
                  and isinstance(n.func.value, ast.Name)
                  and n.func.value.id in package_names)}
    assert defined - called == set()


def test_forward_purity():
    rng = np.random.default_rng(2)
    w = L.AffineParams("w", 3, 3, seed=0)
    w.W.data[...] = rng.normal(size=(3, 3))
    x = ad.constant(rng.normal(size=3))
    r1 = G.tanh(L.affine(x, w)).data
    r2 = G.tanh(L.affine(x, w)).data
    np.testing.assert_array_equal(r1, r2)
