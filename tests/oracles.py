"""Independent scalar-loop transcriptions of the layer formulas, and
per-parameter reference optimizers.

The layer oracles are deliberately written with explicit Python loops
and math.* calls so they share no code path with the vectorized
implementations they check. The optimizers step one parameter at a
time, each with its own moment arrays, which the flat-buffer optimizers
must reproduce bit for bit.
"""

import math

import numpy as np


def sigmoid_scalar(x):
    return 1.0 / (1.0 + math.exp(-x))


def lstm_cell_oracle(x, h, c, W, U, b):
    """W, U, b: dicts over gates i/f/o/g of list-of-list weights."""
    hidden = len(b["i"])

    def pre(gate, j):
        total = b[gate][j]
        for k in range(len(x)):
            total += W[gate][j][k] * x[k]
        for k in range(hidden):
            total += U[gate][j][k] * h[k]
        return total

    h_new, c_new = [], []
    for j in range(hidden):
        i = sigmoid_scalar(pre("i", j))
        f = sigmoid_scalar(pre("f", j))
        o = sigmoid_scalar(pre("o", j))
        g = math.tanh(pre("g", j))
        cj = f * c[j] + i * g
        c_new.append(cj)
        h_new.append(o * math.tanh(cj))
    return h_new, c_new


def bilstm_oracle(seq, fwd, bwd):
    """seq: list of input vectors; fwd/bwd: (W, U, b) dict triples."""
    hidden = len(fwd[2]["i"])
    h, c = [0.0] * hidden, [0.0] * hidden
    fstates = []
    for x in seq:
        h, c = lstm_cell_oracle(x, h, c, *fwd)
        fstates.append(h)
    h, c = [0.0] * hidden, [0.0] * hidden
    bstates = []
    for x in reversed(seq):
        h, c = lstm_cell_oracle(x, h, c, *bwd)
        bstates.append(h)
    bstates.reverse()
    return [f + b for f, b in zip(fstates, bstates)]


def attention_oracle(queries, keys, W1, W2, v):
    """Additive attention; returns (contexts, weight rows)."""
    att_dim = len(v)
    contexts, rows = [], []
    for q in queries:
        scores = []
        for k in keys:
            s = 0.0
            for a in range(att_dim):
                pre = 0.0
                for j in range(len(q)):
                    pre += W1[a][j] * q[j]
                for j in range(len(k)):
                    pre += W2[a][j] * k[j]
                s += v[a] * math.tanh(pre)
            scores.append(s)
        m = max(scores)
        exps = [math.exp(s - m) for s in scores]
        z = sum(exps)
        weights = [e / z for e in exps]
        ctx = [0.0] * len(keys[0])
        for w, k in zip(weights, keys):
            for j in range(len(k)):
                ctx[j] += w * k[j]
        contexts.append(ctx)
        rows.append(weights)
    return contexts, rows


def highway_oracle(x, W_h, b_h, W_t, b_t):
    n = len(x)
    out = []
    for j in range(n):
        hj = b_h[j]
        tj = b_t[j]
        for k in range(n):
            hj += W_h[j][k] * x[k]
            tj += W_t[j][k] * x[k]
        hj = math.tanh(hj)
        tj = sigmoid_scalar(tj)
        out.append(tj * hj + (1.0 - tj) * x[j])
    return out


def softmax_oracle(logits):
    m = max(logits)
    exps = [math.exp(z - m) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


def cross_entropy_oracle(probs, gold):
    return -math.log(max(probs[gold], 1e-12))


class AdamOracle:
    """Adam with bias correction, one parameter at a time."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = sorted(params, key=lambda p: p.name)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self):
        self.step_count += 1
        t = self.step_count
        for p in self.params:
            g = p.grad
            m = self.m[p.name] = (self.beta1 * self.m[p.name]
                                  + (1 - self.beta1) * g)
            v = self.v[p.name] = (self.beta2 * self.v[p.name]
                                  + (1 - self.beta2) * g * g)
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.zero_grad()


class SgdOracle:
    """Plain gradient descent, one parameter at a time."""

    def __init__(self, params, lr=0.1):
        self.params = sorted(params, key=lambda p: p.name)
        self.lr = lr

    def step(self):
        for p in self.params:
            p.data -= self.lr * p.grad
            p.zero_grad()
