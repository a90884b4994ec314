"""Optimizers over named parameter collections.

An optimizer keeps every parameter it trains in one flat `data` array
and every gradient in one flat `grad` array, so a step is a few
whole-array numpy operations instead of a dozen per parameter. At
construction it copies the parameters, in the order given, into those
arrays and rebinds each Parameter's `data` and `grad` as views into
them. From then on a parameter and its gradient must be updated in
place (`p.data[...] = x`, `p.grad += g`) and never rebound: a rebound
array is no longer seen by the optimizer. The newest optimizer built
over a parameter owns it.
"""

from __future__ import annotations

import numpy as np


def flatten(params):
    """Copy params, in order, into one flat data and one flat grad array
    and rebind each Parameter's data and grad as views into them.

    Returns (params as a list, data, grad)."""
    params = list(params)
    size = sum(p.data.size for p in params)
    data = np.empty(size)
    grad = np.empty(size)
    off = 0
    for p in params:
        n, shape = p.data.size, p.data.shape
        data[off:off + n] = p.data.reshape(-1)
        grad[off:off + n] = p.grad.reshape(-1)
        p.data = data[off:off + n].reshape(shape)
        p.grad = grad[off:off + n].reshape(shape)
        off += n
    return params, data, grad


class Adam:
    """Adam with bias correction, with Kingma and Ba's constants
    (arXiv:1412.6980). Gradients are zeroed after each step."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr=1e-3):
        self.params, self.data, self.grad = flatten(params)
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        # Preallocated temporaries: a step allocates nothing.
        self._s1 = np.empty_like(self.data)
        self._s2 = np.empty_like(self.data)

    def step(self):
        """m = b1 m + (1-b1) g; v = b2 v + ((1-b2) g) g;
        data -= lr m_hat / (sqrt(v_hat) + eps), each operation in that
        order, so a step rounds exactly like one parameter at a time."""
        self.step_count += 1
        t = self.step_count
        g, m, v, s1, s2 = self.grad, self.m, self.v, self._s1, self._s2
        m *= self.BETA1
        np.multiply(g, 1 - self.BETA1, out=s1)
        m += s1
        v *= self.BETA2
        np.multiply(g, 1 - self.BETA2, out=s1)
        s1 *= g
        v += s1
        np.divide(m, 1 - self.BETA1 ** t, out=s1)
        s1 *= self.lr
        np.divide(v, 1 - self.BETA2 ** t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.EPS
        s1 /= s2
        self.data -= s1
        g.fill(0.0)


class Sgd:
    """Plain gradient descent, selectable via config."""

    def __init__(self, params, lr=0.1):
        self.params, self.data, self.grad = flatten(params)
        self.lr = lr
        self.step_count = 0

    def step(self):
        self.step_count += 1
        self.data -= self.lr * self.grad
        self.grad.fill(0.0)


# The optimizers a TrainConfig may name.
OPTIMIZERS = {"adam": Adam, "sgd": Sgd}
