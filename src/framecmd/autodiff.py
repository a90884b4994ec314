"""Minimal reverse-mode autodiff over float64 numpy arrays.

The graph is built dynamically. Every op computes its output array and
ends in `node(data, parents, bwd)`, where `bwd(g)` propagates the
output gradient g to the parents. `node` is the only code that links a
tensor into the graph: with gradients on it records the parents, the
closure and a creation index; under `no_grad`, or over constants only,
it returns a bare Tensor. A node is always made after its parents, so
running nodes in decreasing creation index runs every consumer of a
tensor before the tensor itself. `backward` therefore needs no
topological sort: it runs each non-leaf node reachable from the loss
once, newest first. Leaves (Parameters, constants, `no_grad` outputs)
have no closure and are never visited.

Python overhead per node, not arithmetic, dominates at the sizes used
here (hidden sizes in the tens, sentences of ~10 tokens). So the
network layers in `layers` are fused ops: each builds one node over a
whole LSTM run or query-key matrix and writes its backward pass by
hand, using `accumulate` to feed its inputs' gradients. The ops below
only join, slice and add those nodes' outputs.
64-bit precision makes finite-difference gradient checks exact enough
to be useful.

A Parameter's `data` and `grad` become views into an optimizer's flat
buffers when one is built over it (see `optim`). Update them in place
(`accumulate` does, as do `p.data[...] = x` and `p.grad += g`) and
never rebind them, or the optimizer no longer sees the parameter.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools

import numpy as np

# Module-level switches. ``grad_enabled`` is toggled by no_grad() to make
# pure-forward evaluation (e.g. finite differences) cheap. ``dtype`` is
# float64 in normal operation; the gradient checker temporarily raises it
# to extended precision where float64 finite differences are
# noise-limited. ``stages`` is None, except while the gradient checker
# perturbs weights (`reusing`): then `model.forward` keeps each stage's
# last key and output in it, as a (key, output) pair, for reuse.
grad_enabled = True
dtype = np.float64
stages = None

_creation = itertools.count()


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


@contextlib.contextmanager
def reusing():
    """Let train-mode `model.forward` calls reuse the outputs of stages
    whose inputs are unchanged: for grad_check, which bumps `version`s."""
    global stages
    prev, stages = stages, {}
    try:
        yield
    finally:
        stages = prev


class Tensor:
    """An array in the graph. A bare Tensor is a leaf; `node` makes the
    non-leaf ones, which alone carry a `bwd` closure and an `index`."""

    __slots__ = ("data", "grad", "parents", "bwd", "index")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.parents = parents
        self.bwd = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Parameter(Tensor):
    """Named trainable tensor with a persistent gradient buffer. Under an
    optimizer, data and grad are views into its flat buffers: update
    them in place, never rebind them. `version` counts the gradient
    checker's writes to data (see `reusing`)."""

    __slots__ = ("name", "version")

    def __init__(self, name, data):
        super().__init__(data)
        self.name = name
        self.version = 0
        self.grad = np.zeros(self.data.shape)

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


def constant(data):
    return Tensor(data)


def needs_grad(t):
    """Whether t takes a gradient: a Parameter or a graph node. Other
    leaves (constants, `no_grad` outputs) do not."""
    return t.bwd is not None or isinstance(t, Parameter)


def node(data, parents, bwd):
    """The output `data` of an op over the tensors `parents`; `bwd(g)`
    propagates the output gradient g to them with `accumulate`. Under
    `no_grad`, or when no parent needs a gradient (an op over constants
    only), the result is a bare Tensor, a constant, and `bwd` is
    dropped."""
    out = Tensor(data)
    if grad_enabled and any(needs_grad(p) for p in parents):
        out.parents = parents
        out.bwd = bwd
        out.index = next(_creation)
    return out


def accumulate(t, g):
    """Add g to t's gradient. The buffer is t's own copy, so it is
    updated in place; g must already have t's shape."""
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def accumulate_at(t, i, g):
    """Add g into t's gradient at index i: a basic index (an int, a
    slice or a tuple of them), which names each entry once, or index
    arrays, whose repeated entries each add their share."""
    if t.grad is None:
        t.grad = np.zeros(t.data.shape)
    if all(isinstance(k, (int, slice))
           for k in (i if isinstance(i, tuple) else (i,))):
        t.grad[i] += g
    else:
        np.add.at(t.grad, i, g)


def accumulate_parts(parts, g):
    """Add to each of `parts`, which lie side by side along g's last
    axis, its own slice of g; returns what is left of g past them."""
    off = 0
    for p in parts:
        n = p.data.shape[-1]
        accumulate(p, g[..., off:off + n])
        off += n
    return g[..., off:]


def add(a, b):
    def bwd(g):
        accumulate(a, g)
        accumulate(b, g)

    return node(a.data + b.data, (a, b), bwd)


def concat(parts):
    """Join along the last axis, so (d,) parts give a vector and (B, d)
    parts a (B, sum of d) matrix."""
    parts = tuple(parts)
    return node(np.concatenate([p.data for p in parts], axis=-1), parts,
                lambda g: accumulate_parts(parts, g))


def getrow(m, i):
    """m.data[i] for any integer index: a row, the rows of an index
    array (a batch of label lookups, repeats allowed) or a gather by a
    tuple of index arrays."""
    def bwd(g):
        accumulate_at(m, i, g)

    return node(m.data[i], (m,), bwd)


def backward(loss):
    """Populate gradients of every node reachable from a scalar loss.

    Runs each reachable non-leaf node once, in decreasing creation
    index: every consumer of a node was made after it, so its gradient
    is complete when its own closure runs. Gradients sum over multiple
    uses of the same tensor. Parameters not reached by the graph keep
    whatever is in their buffer (zeros after zero_grad), satisfying the
    zero-gradient-for-unreached contract.

    Each closure is dropped once it has run, which frees the arrays it
    saved while the rest of the pass runs; so a graph is differentiated
    once (a second call only sets loss.grad).
    """
    if loss.data.ndim != 0:
        raise ValueError("backward requires a scalar loss")
    loss.grad = np.asarray(1.0)
    if loss.bwd is None:
        return
    pending = [(-loss.index, loss)]
    queued = {loss.index}
    while pending:
        out = heapq.heappop(pending)[1]
        out.bwd(out.grad)
        out.bwd = None
        for p in out.parents:
            if p.bwd is not None and p.index not in queued:
                queued.add(p.index)
                heapq.heappush(pending, (-p.index, p))
