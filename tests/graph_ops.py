"""Small elementwise graph builders for the tests: the engine's own
tests build graphs from them, and layer tests reduce a layer's output
to a scalar loss. The package needs none of them; like every op, each
joins the graph through `autodiff.node`."""

import numpy as np

from framecmd import autodiff as ad


def mul(a, b):
    """Elementwise product; shapes must match or one operand be scalar."""
    def bwd(g):
        ga = g * b.data
        gb = g * a.data
        if a.data.ndim == 0:
            ga = np.sum(ga)
        if b.data.ndim == 0:
            gb = np.sum(gb)
        ad.accumulate(a, ga)
        ad.accumulate(b, gb)

    return ad.node(a.data * b.data, (a, b), bwd)


def dot(a, b):
    def bwd(g):
        ad.accumulate(a, g * b.data)
        ad.accumulate(b, g * a.data)

    return ad.node(np.dot(a.data, b.data), (a, b), bwd)


def tanh(a):
    t = np.tanh(a.data)

    def bwd(g):
        ad.accumulate(a, g * (1.0 - t * t))

    return ad.node(t, (a,), bwd)


def stack(parts):
    """Stack equal-shaped tensors along a new leading axis."""
    parts = tuple(parts)

    def bwd(g):
        for p, gp in zip(parts, g):
            ad.accumulate(p, gp)

    return ad.node(np.array([p.data for p in parts]), parts, bwd)
