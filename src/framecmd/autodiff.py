"""Minimal reverse-mode autodiff over float64 numpy arrays.

The graph is built dynamically: every op returns a Tensor that remembers
its parents and a closure propagating the output gradient to them.
Python overhead per node, not arithmetic, dominates at the sizes used
here (hidden sizes in the tens, sentences of ~10 tokens). So the
network layers in `layers` are fused ops: each builds one or two nodes
over whole gate stacks or query-key matrices and writes its backward
pass by hand, using `accumulate` to feed its inputs' gradients. The
elementwise ops below remain for the heads, the loss and tests. 64-bit
precision makes finite-difference gradient checks exact enough to be
useful.
"""

from __future__ import annotations

import numpy as np

# Module-level switches. ``grad_enabled`` is toggled by no_grad() to make
# pure-forward evaluation (e.g. finite differences) cheap; ``check_finite``
# is a debug aid that validates every op output. ``dtype`` is float64 in
# normal operation; the gradient checker temporarily raises it to
# extended precision where float64 finite differences are noise-limited.
grad_enabled = True
check_finite = False
dtype = np.float64


class no_grad:
    """Context manager disabling graph construction."""

    def __enter__(self):
        global grad_enabled
        self._prev = grad_enabled
        grad_enabled = False
        return self

    def __exit__(self, *exc):
        global grad_enabled
        grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "parents", "bwd")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.parents = parents
        self.bwd = None
        if check_finite and not np.all(np.isfinite(self.data)):
            raise FloatingPointError("non-finite value in tensor")

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Parameter(Tensor):
    """Named trainable tensor with a persistent gradient buffer."""

    __slots__ = ("name",)

    def __init__(self, name, data):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


def constant(data):
    return Tensor(data)


def accumulate(t, g):
    """Add g to t's gradient. The buffer is t's own copy, so it is
    updated in place; g must already have t's shape."""
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def add(a, b):
    out = Tensor(a.data + b.data)
    if grad_enabled:
        out.parents = (a, b)

        def bwd(g):
            accumulate(a, g)
            accumulate(b, g)

        out.bwd = bwd
    return out


def mul(a, b):
    """Elementwise product; shapes must match or one operand be scalar."""
    out = Tensor(a.data * b.data)
    if grad_enabled:
        out.parents = (a, b)

        def bwd(g):
            ga = g * b.data
            gb = g * a.data
            if a.data.ndim == 0:
                ga = np.sum(ga)
            if b.data.ndim == 0:
                gb = np.sum(gb)
            accumulate(a, ga)
            accumulate(b, gb)

        out.bwd = bwd
    return out


def scale(a, c):
    """Multiply by a plain float/ndarray constant (no gradient for c)."""
    c = np.asarray(c, dtype=np.float64)
    out = Tensor(a.data * c)
    if grad_enabled:
        out.parents = (a,)

        def bwd(g):
            accumulate(a, g * c)

        out.bwd = bwd
    return out


def matvec(w, x):
    """(m, n) @ (n,) -> (m,)."""
    out = Tensor(w.data @ x.data)
    if grad_enabled:
        out.parents = (w, x)

        def bwd(g):
            accumulate(w, np.outer(g, x.data))
            accumulate(x, w.data.T @ g)

        out.bwd = bwd
    return out


def dot(a, b):
    out = Tensor(np.dot(a.data, b.data))
    if grad_enabled:
        out.parents = (a, b)

        def bwd(g):
            accumulate(a, g * b.data)
            accumulate(b, g * a.data)

        out.bwd = bwd
    return out


def tanh(a):
    t = np.tanh(a.data)
    out = Tensor(t)
    if grad_enabled:
        out.parents = (a,)

        def bwd(g):
            accumulate(a, g * (1.0 - t * t))

        out.bwd = bwd
    return out


def concat(parts):
    parts = list(parts)
    out = Tensor(np.concatenate([p.data for p in parts]))
    if grad_enabled:
        out.parents = tuple(parts)
        sizes = [p.data.shape[0] for p in parts]

        def bwd(g):
            off = 0
            for p, n in zip(parts, sizes):
                accumulate(p, g[off:off + n])
                off += n

        out.bwd = bwd
    return out


def getrow(m, i):
    out = Tensor(m.data[i])
    if grad_enabled:
        out.parents = (m,)

        def bwd(g):
            if m.grad is None:
                m.grad = np.zeros(m.data.shape)
            m.grad[i] += g

        out.bwd = bwd
    return out


def softmax(v):
    """Stable softmax over a 1-d tensor."""
    z = v.data - np.max(v.data)
    e = np.exp(z)
    p = e / np.sum(e)
    out = Tensor(p)
    if grad_enabled:
        out.parents = (v,)

        def bwd(g):
            accumulate(v, (g - np.dot(g, p)) * p)

        out.bwd = bwd
    return out


def cross_entropy(probs, gold_index):
    """-ln(p[gold]) with the probability clamped to >= 1e-12."""
    if not 0 <= gold_index < probs.data.shape[0]:
        raise IndexError(f"gold index {gold_index} out of range")
    pg = probs.data[gold_index]
    clamped = max(pg, 1e-12)
    out = Tensor(-np.log(clamped))
    if grad_enabled:
        out.parents = (probs,)

        def bwd(g):
            gv = np.zeros_like(probs.data)
            if pg >= 1e-12:
                gv[gold_index] = -g / pg
            accumulate(probs, gv)

        out.bwd = bwd
    return out


def mean_of(scalars):
    scalars = list(scalars)
    n = len(scalars)
    out = Tensor(sum(s.data for s in scalars) / n)
    if grad_enabled:
        out.parents = tuple(scalars)

        def bwd(g):
            for s in scalars:
                accumulate(s, g / n)

        out.bwd = bwd
    return out


def backward(loss):
    """Populate gradients of every node reachable from a scalar loss.

    Gradients sum over multiple uses of the same tensor. Parameters not
    reached by the graph keep whatever is in their buffer (zeros after
    zero_grad), satisfying the zero-gradient-for-unreached contract.
    """
    if loss.data.ndim != 0:
        raise ValueError("backward requires a scalar loss")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.asarray(1.0)
    for node in reversed(topo):
        if node.bwd is not None and node.grad is not None:
            node.bwd(node.grad)
