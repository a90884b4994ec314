"""Optimizers over named parameter collections."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam with bias correction. Gradients are zeroed after each step."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = sorted(params, key=lambda p: p.name)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self):
        self.step_count += 1
        t = self.step_count
        for p in self.params:
            g = p.grad
            m = self.m[p.name] = self.beta1 * self.m[p.name] + (1 - self.beta1) * g
            v = self.v[p.name] = self.beta2 * self.v[p.name] + (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.zero_grad()


class Sgd:
    """Plain gradient descent, selectable via config."""

    def __init__(self, params, lr=0.1):
        self.params = sorted(params, key=lambda p: p.name)
        self.lr = lr
        self.step_count = 0

    def step(self):
        self.step_count += 1
        for p in self.params:
            p.data -= self.lr * p.grad
            p.zero_grad()


# The optimizers a TrainConfig may name.
OPTIMIZERS = {"adam": Adam, "sgd": Sgd}


def make_optimizer(params, name="adam", lr=1e-3):
    if name not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer: {name}")
    return OPTIMIZERS[name](params, lr=lr)
