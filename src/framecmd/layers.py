"""Network building blocks: LSTM cell, bidirectional recurrence,
additive attention, highway connection, decoder input, affine head,
cross-entropy loss, and parameter initialization.

The LSTM step, attention, highway, decoder input, affine head and loss
are fused autodiff ops: each computes its output with whole-array numpy
arithmetic in its inputs' dtype and adds one or two graph nodes through
`autodiff.node`, each with a hand-written backward pass, instead of a
node per gate, score or elementwise product.

A batch of B sentences right-padded to T steps passes between layers as
one (T, B, d) tensor. `lstm_run` unrolls an LSTM over one: the encoder,
or a decoder whose input `decoder_input` builds for all steps at once;
only greedy decoding runs `lstm_cell_forward` step by step. Within a
step every op works on (B, d) rows, one per sentence, so weight
gradients are dZ^T X products over the rows. The sequence ops
(bilstm_forward, attention) take each sentence's length, so that a
padded batch computes every sentence as that sentence alone would."""

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

    def stacked(self):
        return StackedCell(self)


class StackedCell:
    """An LSTM cell with its gate weights stacked once in GATES order:
    Ws (4H x d), Us (4H x H), bs (4H). A forward pass takes one per cell
    and runs all its steps on it, so it stacks each cell once, not once
    per step. The weights must not change during the pass and its
    backward pass, which nothing does: the optimizer steps after
    backward, the gradient check perturbs between passes. W, U and b
    are the cell's per-gate Parameters, which are the ones trained,
    named and saved.

    The cell is also a graph node, `node`, whose parents are those
    Parameters. Each step's backward pass hands it the step's
    pre-activation gradient dZ and inputs x and h (`rows`); the node is
    older than every step, so backward runs it after all of them, and
    it forms each weight gradient once for the whole pass: dW = dZ^T X,
    dU = dZ^T H and db = sum dZ over every row of every step
    (Appleyard et al., arXiv:1604.01946). A cell therefore serves one
    graph: stack it again for the next one."""

    def __init__(self, cell):
        self.input_dim = cell.input_dim
        self.hidden_dim = cell.hidden_dim
        self.W, self.U, self.b = cell.W, cell.U, cell.b
        self.Ws, self.Us, self.bs = (
            np.concatenate([p[k].data for k in GATES])
            for p in (cell.W, cell.U, cell.b))
        self.rows = []          # (dZ, x, h) of each step, by c_bwd
        self.node = ad.node(
            np.zeros(0), (*self.W.values(), *self.U.values(),
                          *self.b.values()), self._weight_grads)

    def stacked(self):
        return self

    def _weight_grads(self, _):
        dZ, X, Hs = (np.vstack(part) for part in zip(*self.rows))
        self.rows = []
        dW, dU, db = dZ.T @ X, dZ.T @ Hs, dZ.sum(axis=0)
        H = self.hidden_dim
        for k, gate in enumerate(GATES):
            gate_rows = slice(k * H, (k + 1) * H)
            ad.accumulate(self.W[gate], dW[gate_rows])
            ad.accumulate(self.U[gate], dU[gate_rows])
            ad.accumulate(self.b[gate], db[gate_rows])


_EXP_MAX = np.log(np.finfo(np.float64).max)     # exp of it is finite


def _sigmoid(z):
    # -z is clamped only where exp(-z) would overflow, which numpy warns
    # about; the result there is 0 either way, to within 1e-308.
    return 1.0 / (1.0 + np.exp(np.minimum(-z, _EXP_MAX)))


def lstm_cell_forward(x, h, c, params):
    """One LSTM step; returns (h', c'). Pure function of its inputs.

    x, h and c are (d,), (H,), (H,) vectors or, for a batch of B rows,
    (B, d), (B, H), (B, H) matrices; every row is an independent step.
    params is an LstmCellParams or, to stack its weights once for many
    steps, its StackedCell. Every gate comes from one pre-activation
    z = x Ws^T + h Us^T + bs (Appleyard et al., arXiv:1604.01946). The
    step is two graph nodes: c', whose backward pass does the input and
    state work of the four gates at once and hands its pre-activation
    gradient dZ to the cell's node, which forms the weight gradients of
    all steps together, and h' = o * tanh(c'), its child, which hands
    the output gate's pre-activation gradient to c'.
    """
    cell = params.stacked()
    H = cell.hidden_dim
    if x.data.shape[-1] != cell.input_dim or h.data.shape[-1] != H:
        raise ValueError("LSTM cell dimension mismatch")
    xd, hd, cd = x.data, h.data, c.data
    z = xd @ cell.Ws.T + hd @ cell.Us.T + cell.bs
    ifo = _sigmoid(z[..., :3 * H])
    i, f, o = ifo[..., :H], ifo[..., H:2 * H], ifo[..., 2 * H:]
    g = np.tanh(z[..., 3 * H:])
    dz_o = None  # output-gate pre-activation gradient, set by h'.bwd

    def c_bwd(gc):
        dz = np.concatenate([gc * g * i * (1.0 - i),
                             gc * cd * f * (1.0 - f),
                             np.zeros_like(gc) if dz_o is None else dz_o,
                             gc * i * (1.0 - g * g)], axis=-1)
        cell.rows.append((dz, xd, hd))
        if ad.needs_grad(x):        # not an input constant
            ad.accumulate(x, dz @ cell.Ws)
        if ad.needs_grad(h):        # not the zero initial state
            ad.accumulate(h, dz @ cell.Us)
        if ad.needs_grad(c):
            ad.accumulate(c, gc * f)

    c_new = ad.node(f * cd + i * g, (x, h, c, cell.node), c_bwd)
    tc = np.tanh(c_new.data)

    def h_bwd(gh):
        nonlocal dz_o
        dz_o = gh * tc * o * (1.0 - o)
        ad.accumulate(c_new, gh * o * (1.0 - tc * tc))

    return ad.node(o * tc, (c_new,), h_bwd), c_new


def lstm_run(X, params):
    """Unroll an LSTM from zero states over the steps of X, (T, B, d);
    returns the hidden states stacked, (T, B, H)."""
    cell = params.stacked()
    h = c = ad.constant(np.zeros(X.data.shape[1:-1] + (cell.hidden_dim,)))
    states = []
    for t in range(X.data.shape[0]):
        h, c = lstm_cell_forward(ad.getrow(X, t), h, c, cell)
        states.append(h)
    return ad.stack(states)


def _reversal(T, B, lengths):
    """Indexes into (T, B, d) steps: the order that reverses each
    sentence within its own length and leaves its padding in place, and
    each sentence's last step. The order is its own inverse, so it also
    puts reversed states back in token order."""
    n = np.full(B, T) if lengths is None else np.asarray(lengths)
    t = np.arange(T)[:, None]
    batch = np.arange(B)
    return (np.where(t < n, n - 1 - t, t), batch), (n - 1, batch)


def bilstm_forward(X, fwd, bwd, lengths=None):
    """Bidirectional LSTM over X, (T, B, d): B sentences right-padded to
    T steps, with the given lengths (default: all T).

    Returns (states, last_fwd, last_bwd): states (T, B, 2H) joins the
    forward and backward state of each step, and last_fwd / last_bwd
    (B, H) are each sentence's final forward state (at its last token)
    and final backward state (at its first token). Both directions
    start from zero states. The backward direction reads each sentence
    reversed within its own length through one gather, so it starts at
    the sentence's last token and no step needs a mask; padding steps
    only follow a sentence's own steps.
    """
    T, B = X.data.shape[:2]
    if T < 1:
        raise ValueError("empty sequence")
    order, last = _reversal(T, B, lengths)
    f_states = lstm_run(X, fwd)
    b_states = lstm_run(ad.getrow(X, order), bwd)
    return (ad.concat([f_states, ad.getrow(b_states, order)]),
            ad.getrow(f_states, last), ad.getrow(b_states, last))


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


def attention(queries, keys, params, lengths=None):
    """Attend each query over the keys (values = keys).

    keys is (Tk, B, dk): B sentences right-padded to Tk steps, with the
    given lengths (default: all Tk). queries is the keys themselves
    (self-attention, `queries is keys`), or one query (dq,) or matrix
    of queries (Tq, dq) shared by every sentence. All queries are
    scored at once as one graph node (Bahdanau et al.,
    arXiv:1409.0473): P = softmax(tanh(Q W1^T (+) K W2^T) v) over each
    sentence's own keys (padded keys get weight 0) and C = P K, where
    (+) adds every query row to every key row. Returns (contexts,
    weights): the contexts, (Tk, B, dk) for self-attention, (B, dk) for
    one query and (Tq, B, dk) for a matrix, and the softmax rows as a
    (B, Tq, Tk) array.
    """
    W1, W2, v = params.W1, params.W2, params.v
    Km = keys.data.swapaxes(0, 1)       # batch-major (B, Tk, dk)
    # Shared queries are one query set (1, Tq, dq) for every sentence.
    Qb = Km if queries is keys else queries.data.reshape(
        1, -1, queries.data.shape[-1])
    S = np.tanh((Qb @ W1.data.T)[:, :, None, :]
                + (Km @ W2.data.T)[:, None, :, :])
    E = S @ v.data
    if lengths is not None and min(lengths) < len(keys.data):  # padding
        own = np.arange(len(keys.data)) < np.asarray(lengths)[:, None, None]
        E = np.where(own, E, -np.inf)
    P = np.exp(E - E.max(axis=-1, keepdims=True))
    P /= P.sum(axis=-1, keepdims=True)

    def bwd(gC):
        gC = gC.reshape(-1, *gC.shape[-2:]).swapaxes(0, 1)  # (B, Tq, dk)
        dP = gC @ Km.swapaxes(1, 2)
        dE = P * (dP - np.sum(dP * P, axis=-1, keepdims=True))
        ad.accumulate(v, np.tensordot(dE, S, axes=3))
        dPre = dE[..., None] * v.data * (1.0 - S * S)
        dA = dPre.sum(axis=2)
        if queries is not keys:
            dA = dA.sum(axis=0, keepdims=True)
        dB = dPre.sum(axis=1)
        ad.accumulate(W1, dA.reshape(-1, dA.shape[-1]).T
                      @ Qb.reshape(-1, Qb.shape[-1]))
        ad.accumulate(W2, dB.reshape(-1, dB.shape[-1]).T
                      @ Km.reshape(-1, Km.shape[-1]))
        dQ = dA @ W1.data
        dK = P.swapaxes(1, 2) @ gC + dB @ W2.data
        if queries is keys:
            dK += dQ
        else:
            ad.accumulate(queries, dQ.reshape(queries.data.shape))
        ad.accumulate(keys, dK.swapaxes(0, 1))

    C = (P @ Km).swapaxes(0, 1)         # (Tq, B, dk)
    if queries is not keys:
        C = C.reshape(queries.data.shape[:-1] + C.shape[1:])
    inputs = (keys,) if queries is keys else (queries, keys)
    return ad.node(C, inputs + (W1, W2, v), bwd), P


def decoder_input(parts, table, rows, mask=None):
    """A decoder's input as one graph node: the parts side by side along
    the last axis, then the label embeddings table[rows], all times the
    dropout mask if given. (T, B, d) parts and (T, B) rows give every
    step at once; (B, d) parts and (B,) rows give one step."""
    data = np.concatenate([p.data for p in parts] + [table.data[rows]],
                          axis=-1)
    if mask is not None:
        data = data * mask

    def bwd(g):
        if mask is not None:
            g = g * mask
        off = 0
        for p in parts:
            n = p.data.shape[-1]
            ad.accumulate(p, g[..., off:off + n])
            off += n
        ad.accumulate_at(table, rows, g[..., off:])

    return ad.node(data, (*parts, table), bwd)


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
    t = sigmoid(W_t x + b_t), as one graph node over every row of x,
    e.g. the (T, B, d) states of a batch."""
    W_h, b_h, W_t, b_t = params.W_h, params.b_h, params.W_t, params.b_t
    if W_h.data.shape[0] != W_h.data.shape[1]:
        raise ValueError("highway transform must be square")
    if x.data.shape[-1] != W_h.data.shape[1]:
        raise ValueError("highway input dimension mismatch")
    xd = x.data
    h = np.tanh(xd @ W_h.data.T + b_h.data)
    t = _sigmoid(xd @ W_t.data.T + b_t.data)

    def bwd(g):
        dzh = g * t * (1.0 - h * h)
        dzt = g * (h - xd) * t * (1.0 - t)
        rows = xd.reshape(-1, xd.shape[-1])
        dzh_rows, dzt_rows = dzh.reshape(rows.shape), dzt.reshape(rows.shape)
        ad.accumulate(W_h, dzh_rows.T @ rows)
        ad.accumulate(b_h, dzh_rows.sum(axis=0))
        ad.accumulate(W_t, dzt_rows.T @ rows)
        ad.accumulate(b_t, dzt_rows.sum(axis=0))
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
    """x W^T + b over the last axis of x, as one graph node."""
    W, b = params.W, params.b
    xd = x.data

    def bwd(g):
        rows = g.reshape(-1, g.shape[-1])
        ad.accumulate(W, rows.T @ xd.reshape(rows.shape[0], -1))
        ad.accumulate(b, rows.sum(axis=0))
        ad.accumulate(x, g @ W.data)

    return ad.node(xd @ W.data.T + b.data, (x, W, b), bwd)


def softmax_cross_entropy(logits, gold, weights):
    """sum(weights * -log softmax(logits)[gold]) as one graph node.

    logits is (..., n); gold (integer labels) and weights have its
    leading shape. The log-softmax goes through log-sum-exp, with no
    clamp, so a confidently wrong row keeps its full gradient,
    weight * (softmax - onehot). A row with weight 0 (padding) adds
    nothing and gets an exactly zero gradient.
    """
    z = logits.data
    n = z.shape[-1]
    gold = np.asarray(gold)
    if gold.shape != z.shape[:-1] or np.any((gold < 0) | (gold >= n)):
        raise IndexError("gold labels out of range or misshapen")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1)
    picked = np.take_along_axis(shifted, gold[..., None], axis=-1)[..., 0]
    weights = np.asarray(weights)

    def bwd(g):
        onehot = gold[..., None] == np.arange(n)
        d = e / total[..., None] - onehot
        ad.accumulate(logits, (g * weights)[..., None] * d)

    return ad.node(np.sum(weights * (np.log(total) - picked)), (logits,), bwd)
