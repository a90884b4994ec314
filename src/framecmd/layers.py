"""Network building blocks: LSTM cell, bidirectional recurrence,
additive attention, highway connection, and parameter initialization.

The LSTM step, attention and highway are fused autodiff ops: each
computes its output with whole-array numpy arithmetic in its inputs'
dtype and adds one or two graph nodes through `autodiff.node`, each
with a hand-written backward pass, instead of a node per gate, score
or elementwise product."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter

GATES = ("i", "f", "o", "g")


def init_params(shape, seed, scheme, name=""):
    """Deterministic initial tensor for a parameter.

    schemes: glorot_uniform (weights), zeros (biases),
    forget_bias_one (LSTM forget-gate bias). The RNG stream is derived
    from (seed, name) so every parameter is independent and stable.
    """
    shape = tuple(int(s) for s in shape)
    if scheme == "zeros":
        return np.zeros(shape)
    if scheme == "forget_bias_one":
        return np.ones(shape)
    if scheme == "glorot_uniform":
        if len(shape) == 2:
            fan_out, fan_in = shape
        else:
            fan_in = fan_out = shape[0]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed)] + list(name.encode("utf-8"))))
        return rng.uniform(-bound, bound, shape)
    raise ValueError(f"unknown init scheme: {scheme}")


class LstmCellParams:
    """Per-gate weights of one LSTM cell.

    Standard parameterization: for gate x in {i, f, o, g},
    pre-activation = W_x input + U_x hidden + b_x; i, f, o pass through
    the logistic sigmoid, g through tanh; c' = f*c + i*g, h' = o*tanh(c').
    """

    def __init__(self, prefix, input_dim, hidden_dim, seed):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.W = {}
        self.U = {}
        self.b = {}
        for gate in GATES:
            wname = f"{prefix}.W_{gate}"
            uname = f"{prefix}.U_{gate}"
            bname = f"{prefix}.b_{gate}"
            self.W[gate] = Parameter(
                wname, init_params((hidden_dim, input_dim), seed,
                                   "glorot_uniform", wname))
            self.U[gate] = Parameter(
                uname, init_params((hidden_dim, hidden_dim), seed,
                                   "glorot_uniform", uname))
            bscheme = "forget_bias_one" if gate == "f" else "zeros"
            self.b[gate] = Parameter(
                bname, init_params((hidden_dim,), seed, bscheme, bname))

    def parameters(self):
        for gate in GATES:
            yield self.W[gate]
            yield self.U[gate]
            yield self.b[gate]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_cell_forward(x, h, c, params):
    """One LSTM step; returns (h', c'). Pure function of its inputs.

    The gates' weights are stacked in GATES order inside the call, so
    every gate comes from one pre-activation z = W x + U h + b
    (Appleyard et al., arXiv:1604.01946). The step is two graph nodes:
    c', whose backward pass does all the weight, input and state work
    of the four gates at once, and h' = o * tanh(c'), its child, which
    hands the output gate's pre-activation gradient to c'. Backward
    reads the per-gate Parameters and re-stacks them, so no stacked
    copy of the weights outlives the call.
    """
    H = params.hidden_dim
    if x.data.shape[0] != params.input_dim or h.data.shape[0] != H:
        raise ValueError("LSTM cell dimension mismatch")
    W, U, b = params.W, params.U, params.b
    xd, hd, cd = x.data, h.data, c.data
    z = (np.concatenate([W[k].data for k in GATES]) @ xd
         + np.concatenate([U[k].data for k in GATES]) @ hd
         + np.concatenate([b[k].data for k in GATES]))
    ifo = _sigmoid(z[:3 * H])
    i, f, o = ifo[:H], ifo[H:2 * H], ifo[2 * H:]
    g = np.tanh(z[3 * H:])
    dz_o = None  # output-gate pre-activation gradient, set by h'.bwd

    def c_bwd(gc):
        dz = np.concatenate([gc * g * i * (1.0 - i),
                             gc * cd * f * (1.0 - f),
                             np.zeros(H) if dz_o is None else dz_o,
                             gc * i * (1.0 - g * g)])
        dW = np.outer(dz, xd)
        dU = np.outer(dz, hd)
        for k, gate in enumerate(GATES):
            rows = slice(k * H, (k + 1) * H)
            ad.accumulate(W[gate], dW[rows])
            ad.accumulate(U[gate], dU[rows])
            ad.accumulate(b[gate], dz[rows])
        ad.accumulate(x, dz @ np.concatenate([W[k].data for k in GATES]))
        ad.accumulate(h, dz @ np.concatenate([U[k].data for k in GATES]))
        ad.accumulate(c, gc * f)

    c_new = ad.node(f * cd + i * g,
                    (x, h, c, *W.values(), *U.values(), *b.values()), c_bwd)
    tc = np.tanh(c_new.data)

    def h_bwd(gh):
        nonlocal dz_o
        dz_o = gh * tc * o * (1.0 - o)
        ad.accumulate(c_new, gh * o * (1.0 - tc * tc))

    return ad.node(o * tc, (c_new,), h_bwd), c_new


def lstm_run(seq, params):
    """Unroll an LSTM from zero states over a list of input tensors;
    returns the hidden states."""
    h = ad.constant(np.zeros(params.hidden_dim))
    c = ad.constant(np.zeros(params.hidden_dim))
    states = []
    for x in seq:
        h, c = lstm_cell_forward(x, h, c, params)
        states.append(h)
    return states


def bilstm_forward(seq, fwd, bwd):
    """Bidirectional LSTM over a list of input tensors.

    Returns (states, last_fwd, last_bwd) where states[t] is the
    concatenation of the forward state at t and the backward state at t;
    both directions start from zero states.
    """
    if len(seq) < 1:
        raise ValueError("empty sequence")
    f_states = lstm_run(seq, fwd)
    b_states = list(reversed(lstm_run(list(reversed(seq)), bwd)))
    states = [ad.concat([f, b]) for f, b in zip(f_states, b_states)]
    return states, f_states[-1], b_states[0]


class AttentionParams:
    """Additive attention: score(q, k) = v . tanh(W1 q + W2 k)."""

    def __init__(self, prefix, query_dim, key_dim, att_dim, seed):
        self.W1 = Parameter(f"{prefix}.W1", init_params(
            (att_dim, query_dim), seed, "glorot_uniform", f"{prefix}.W1"))
        self.W2 = Parameter(f"{prefix}.W2", init_params(
            (att_dim, key_dim), seed, "glorot_uniform", f"{prefix}.W2"))
        self.v = Parameter(f"{prefix}.v", init_params(
            (att_dim,), seed, "glorot_uniform", f"{prefix}.v"))

    def parameters(self):
        return [self.W1, self.W2, self.v]


def attention(queries, keys, params):
    """Attend each query over the keys (values = keys).

    All queries are scored at once as one graph node (Bahdanau et al.,
    arXiv:1409.0473): P = softmax(tanh(Q W1^T (+) K W2^T) v) row-wise
    and C = P K, where (+) adds every query row to every key row. One
    getrow per query then yields its context. Returns (contexts,
    weights): the context tensors and the softmax rows as a Q x T
    array. Self-attention (`queries is keys`) feeds each state's query
    and key gradients back in one step.
    """
    W1, W2, v = params.W1, params.W2, params.v
    Qm = np.stack([q.data for q in queries])
    Km = Qm if queries is keys else np.stack([k.data for k in keys])
    S = np.tanh((Qm @ W1.data.T)[:, None, :] + (Km @ W2.data.T)[None, :, :])
    E = S @ v.data
    P = np.exp(E - E.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)

    def bwd(gC):
        dP = gC @ Km.T
        dE = P * (dP - np.sum(dP * P, axis=1, keepdims=True))
        ad.accumulate(v, np.tensordot(dE, S, axes=2))
        dPre = dE[:, :, None] * v.data * (1.0 - S * S)
        dA = dPre.sum(axis=1)
        dB = dPre.sum(axis=0)
        ad.accumulate(W1, dA.T @ Qm)
        ad.accumulate(W2, dB.T @ Km)
        dQ = dA @ W1.data
        dK = P.T @ gC + dB @ W2.data
        if queries is keys:
            dK += dQ
        else:
            for q, dq in zip(queries, dQ):
                ad.accumulate(q, dq)
        for k, dk in zip(keys, dK):
            ad.accumulate(k, dk)

    inputs = (tuple(keys) if queries is keys
              else tuple(queries) + tuple(keys))
    C = ad.node(P @ Km, inputs + (W1, W2, v), bwd)
    return [ad.getrow(C, q) for q in range(len(queries))], P


class HighwayParams:
    """Gated bypass y = T(x)*H(x) + (1 - T(x))*x with square transforms.

    Gate bias starts at -2 so the connection initially favors carrying
    the input through unchanged.
    """

    def __init__(self, prefix, dim, seed):
        self.W_h = Parameter(f"{prefix}.W_h", init_params(
            (dim, dim), seed, "glorot_uniform", f"{prefix}.W_h"))
        self.b_h = Parameter(f"{prefix}.b_h", np.zeros(dim))
        self.W_t = Parameter(f"{prefix}.W_t", init_params(
            (dim, dim), seed, "glorot_uniform", f"{prefix}.W_t"))
        self.b_t = Parameter(f"{prefix}.b_t", np.full(dim, -2.0))

    def parameters(self):
        return [self.W_h, self.b_h, self.W_t, self.b_t]


def highway(x, params):
    """y = t*h + (1 - t)*x with h = tanh(W_h x + b_h) and
    t = sigmoid(W_t x + b_t), as one graph node."""
    W_h, b_h, W_t, b_t = params.W_h, params.b_h, params.W_t, params.b_t
    if W_h.data.shape[0] != W_h.data.shape[1]:
        raise ValueError("highway transform must be square")
    if x.data.shape[0] != W_h.data.shape[1]:
        raise ValueError("highway input dimension mismatch")
    xd = x.data
    h = np.tanh(W_h.data @ xd + b_h.data)
    t = _sigmoid(W_t.data @ xd + b_t.data)

    def bwd(g):
        dzh = g * t * (1.0 - h * h)
        dzt = g * (h - xd) * t * (1.0 - t)
        ad.accumulate(W_h, np.outer(dzh, xd))
        ad.accumulate(b_h, dzh)
        ad.accumulate(W_t, np.outer(dzt, xd))
        ad.accumulate(b_t, dzt)
        ad.accumulate(x, g * (1.0 - t) + dzh @ W_h.data + dzt @ W_t.data)

    return ad.node(t * h + (1.0 - t) * xd, (x, W_h, b_h, W_t, b_t), bwd)


class AffineParams:
    def __init__(self, prefix, out_dim, in_dim, seed):
        self.W = Parameter(f"{prefix}.W", init_params(
            (out_dim, in_dim), seed, "glorot_uniform", f"{prefix}.W"))
        self.b = Parameter(f"{prefix}.b", np.zeros(out_dim))

    def parameters(self):
        return [self.W, self.b]


def affine(x, params):
    return ad.add(ad.matvec(params.W, x), params.b)
