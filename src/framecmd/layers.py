"""Network building blocks: LSTM cell, bidirectional recurrence,
additive attention, highway connection, decoder input, affine head,
cross-entropy loss, and parameter initialization.

The LSTM run, attention, highway, decoder input, affine head and loss
are fused autodiff ops: each computes its output with whole-array numpy
arithmetic in its inputs' dtype and adds one graph node through
`autodiff.node`, with a hand-written backward pass, instead of a node
per step, gate, score or elementwise product.

A batch of B sentences right-padded to T steps passes between layers as
one (T, B, d) tensor. `lstm_run` unrolls an LSTM over one as a single
node: a decoder, whose input `decoder_input` builds for all steps at
once, or the encoder, whose two directions `bilstm_forward` lays side
by side, (T, 2, B, d), and runs as one recurrence. Each step, greedy
decoding's too, is one `lstm_cell_forward` call on views of an
LstmCell's stacked gate weights, over (B, d) rows, one per sentence,
so weight gradients are dZ^T X products over the rows. The sequence ops
(bilstm_forward, attention) take each sentence's length, so that a
padded batch computes every sentence as that sentence alone would."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter

GATES = ("i", "f", "o", "g")


def seeded_rng(seed, name):
    """The random generator of (seed, name), seed a non-negative integer
    and name a string. Its SeedSequence entropy is one uint32 array:
    the seed as 32-bit words, low word first, then the name's UTF-8
    bytes. That is how numpy reads `[seed] + list(name.encode())`, but
    a list is converted element by element, about 5x slower."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0; got {seed}")
    words = [(seed >> k) & 0xFFFFFFFF
             for k in range(0, max(seed.bit_length(), 1), 32)]
    return np.random.default_rng(np.random.SeedSequence(
        np.array(words + list(name.encode("utf-8")), dtype=np.uint32)))


def init_params(shape, seed, name, blocks=None):
    """The weight `name`'s Glorot-uniform values, as the blocks `blocks`
    (default: [name]) that split its rows evenly, each drawn from the
    random stream of (seed, its name) with its own (fan_out, fan_in), or
    n both ways for n values; when seed is None, zeros that nothing
    writes to, for a weight that `model.load_checkpoint` overwrites."""
    data = np.zeros(shape)
    if seed is None:
        return data
    blocks = blocks or [name]
    cols = data.shape[1:][-1:]      # a matrix's columns; none for a vector
    for block, w in zip(blocks, data.reshape((len(blocks), -1) + cols)):
        fan_out, fan_in = w.shape if w.ndim == 2 else w.shape * 2
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = seeded_rng(seed, block).uniform(-bound, bound, w.shape)
    return data


def glorot(name, shape, seed, blocks=None):
    """The weight Parameter `name`, drawn by init_params."""
    return Parameter(name, init_params(shape, seed, name, blocks))


class Layer:
    """A layer's weights: its Parameter attributes."""

    def parameters(self):
        """The Parameter attributes, in the order they were assigned."""
        return [v for v in vars(self).values() if isinstance(v, Parameter)]


class LstmCell(Layer):
    """One LSTM cell, its gates stacked in GATES order: the Parameters
    `<prefix>.W` (4H x d), `<prefix>.U` (4H x H) and `<prefix>.b` (4H).
    Gate x's rows of z = W input + U hidden + b are its pre-activation;
    i, f, o pass through the logistic sigmoid, g through tanh;
    c' = f*c + i*g, h' = o*tanh(c'). With directions (the encoder's fwd
    and bwd), one cell per direction runs side by side and each
    Parameter gains a leading direction axis, row 0 forward. `init_params`
    draws W and U as stacks of gate blocks, named `<stream>.W_<gate>`
    (`U_`), the stream being the prefix or `<prefix>.<direction>`. The
    bias starts at 0, and at 1 in the forget gate's block.
    """

    def __init__(self, prefix, input_dim, hidden_dim, seed, directions=()):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        streams = [f"{prefix}.{d}" for d in directions] or [prefix]
        lead = (len(directions),) if directions else ()
        for part, cols in (("W", input_dim), ("U", hidden_dim)):
            setattr(self, part, glorot(
                f"{prefix}.{part}", lead + (4 * hidden_dim, cols), seed,
                [f"{s}.{part}_{gate}" for s in streams for gate in GATES]))
        b = np.zeros(lead + (4 * hidden_dim,))
        b[..., hidden_dim:2 * hidden_dim] = 1.0
        self.b = Parameter(f"{prefix}.b", b)


class CellView:
    """An LstmCell's weights as `lstm_cell_forward` reads them, taken
    once per run for step inputs of shape x_shape: Wt (d x 4H) and Ut
    (H x 4H), W and U transposed, and b, shaped to broadcast over a
    step's rows; with a direction axis, each has it in front. All are
    views of the Parameters' arrays, so no weight is copied."""

    def __init__(self, cell, x_shape):
        if (x_shape[-1] != cell.input_dim
                or tuple(x_shape[:-2]) != cell.W.data.shape[:-2]):
            raise ValueError("LSTM cell dimension mismatch")
        self.Wt = cell.W.data.swapaxes(-1, -2)
        self.Ut = cell.U.data.swapaxes(-1, -2)
        self.b = cell.b.data[:, None] if cell.b.data.ndim == 2 else cell.b.data
        # Only for benchmarks/tracing.py, which names a step's layer by
        # W["i"].name; to be removed by ROADMAP item 1.
        self.W = {"i": cell.W}


_EXP_MAX = np.log(np.finfo(np.float64).max)     # exp of it is finite


def _sigmoid(z):
    # -z is clamped only where exp(-z) would overflow, which numpy warns
    # about; the result there is 0 either way, to within 1e-308. The
    # ops are 1 / (1 + exp(min(-z, _EXP_MAX))), in place on one array.
    s = np.negative(z)
    np.minimum(s, _EXP_MAX, out=s)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def lstm_cell_forward(x, h, c, view):
    """One LSTM step on arrays with a CellView, building no graph;
    returns (h', c', (ifo, g, tanh c')), the last for the backward pass.

    x, h and c are (B, d), (B, H) and (B, H) rows, each an independent
    step, or (d,), (H,) and (H,) vectors; with a direction axis,
    (2, B, .). Every gate comes from one pre-activation
    z = x W^T + h U^T + b (Appleyard et al., arXiv:1604.01946).
    """
    H = view.Ut.shape[-2]
    z = x @ view.Wt
    z += h @ view.Ut
    z += view.b
    ifo = _sigmoid(z[..., :3 * H])
    i, f, o = ifo[..., :H], ifo[..., H:2 * H], ifo[..., 2 * H:]
    g = np.tanh(z[..., 3 * H:])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (ifo, g, tc)


def lstm_run(X, cell):
    """Unroll an LstmCell from zero states over the steps of X, (T, B, d),
    or (T, 2, B, d) for a cell with directions; returns the hidden
    states, (T, B, H) or (T, 2, B, H), as one graph node.

    The forward pass calls `lstm_cell_forward` per step on one CellView.
    The backward pass runs back through time by hand: h_t's gradient is
    its output's plus dz_{t+1} U, c_t's is c_{t+1}'s times f_{t+1} plus
    h_t's through tanh, and X gets dz_t W at step t. Each weight
    gradient is formed once over every row of every step and added to
    its Parameter whole: dW = dZ^T X, dU = dZ^T H, db = sum dZ, so the
    weights must not change before the backward pass.
    """
    xs = X.data
    view = CellView(cell, xs.shape[1:])
    zero = np.zeros(xs.shape[1:-1] + (cell.hidden_dim,), xs.dtype)
    steps = [(zero, zero, None)]        # (h, c, cache) after each step
    for x in xs:
        steps.append(lstm_cell_forward(x, steps[-1][0], steps[-1][1], view))
    out = np.array([s[0] for s in steps[1:]])

    def bwd(gS):
        H = cell.hidden_dim
        W, U = cell.W.data, cell.U.data
        rows = []           # (dZ, x, h) of each step, newest first
        dh = dc = None      # what step t + 1 hands back to h_t and c_t
        x_grad = ad.needs_grad(X)
        for t in range(len(xs) - 1, -1, -1):
            (h, c, _), (ifo, g, tc) = steps[t], steps[t + 1][2]
            i, f, o = ifo[..., :H], ifo[..., H:2 * H], ifo[..., 2 * H:]
            gh = gS[t] if dh is None else gS[t] + dh
            gc = gh * o * (1.0 - tc * tc)
            if dc is not None:
                gc = dc + gc
            dz = np.concatenate([gc * g * i * (1.0 - i),
                                 gc * c * f * (1.0 - f),
                                 gh * tc * o * (1.0 - o),
                                 gc * i * (1.0 - g * g)], axis=-1)
            rows.append((dz, xs[t], h))
            if x_grad:
                ad.accumulate_at(X, t, dz @ W)
            if t:           # the initial states are zero constants
                dh, dc = dz @ U, gc * f
        # Join the rows along B; with directions, one block per direction.
        dZ, Xr, Hr = (np.concatenate(part, axis=-2) for part in zip(*rows))
        dZt = dZ.swapaxes(-1, -2)
        ad.accumulate(cell.W, dZt @ Xr)
        ad.accumulate(cell.U, dZt @ Hr)
        ad.accumulate(cell.b, dZ.sum(axis=-2))

    return ad.node(out, (X, cell.W, cell.U, cell.b), bwd)


def bilstm_forward(X, cell, lengths=None):
    """Bidirectional LSTM by a cell with directions (fwd, bwd) over X,
    (T, B, d): B sentences right-padded to T steps, with the given
    lengths (default: all T).

    Returns the states (T, B, 2H): the forward and backward state of
    each step side by side, so a sentence's final forward state is
    `[:H]` at its last token and its final backward state `[H:]` at
    its first token. The backward direction reads each sentence
    reversed within its own length, so it starts at the sentence's last
    token and no step needs a mask; padding steps only follow a
    sentence's own steps. One gather lays both directions' inputs side
    by side, (T, 2, B, d), for one `lstm_run` that steps both at once.
    """
    T, B = X.data.shape[:2]
    if T < 1:
        raise ValueError("empty sequence")
    n = np.full(B, T) if lengths is None else np.asarray(lengths)
    t = np.arange(T)[:, None]
    batch = np.arange(B)
    # Step t of the backward direction reads token n - 1 - t, or the
    # padding step t itself; the order is its own inverse, so it also
    # puts the backward states back in token order.
    reverse = np.where(t < n, n - 1 - t, t)                     # (T, B)
    order = np.stack([np.broadcast_to(t, (T, B)), reverse], axis=1)
    states = lstm_run(ad.getrow(X, (order, batch)), cell)   # (T, 2, B, H)
    return ad.concat([ad.getrow(states, (slice(None), 0)),
                      ad.getrow(states, (reverse, 1, batch))])


class AttentionParams(Layer):
    """Additive attention: score(q, k) = v . tanh(W1 q + W2 k)."""

    def __init__(self, prefix, query_dim, key_dim, att_dim, seed):
        self.W1 = glorot(f"{prefix}.W1", (att_dim, query_dim), seed)
        self.W2 = glorot(f"{prefix}.W2", (att_dim, key_dim), seed)
        self.v = glorot(f"{prefix}.v", (att_dim,), seed)


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
    if lengths is not None and min(lengths) < len(keys.data):   # padding
        own = np.arange(len(keys.data)) < np.asarray(lengths)[:, None, None]
        E = np.where(own, E, -np.inf)
    P = np.exp(E - E.max(axis=-1, keepdims=True))
    P /= P.sum(axis=-1, keepdims=True)

    def bwd(gC):
        gC = gC.reshape(-1, *gC.shape[-2:]).swapaxes(0, 1)  # (B, Tq, dk)
        dP = gC @ Km.swapaxes(1, 2)
        dE = P * (dP - np.sum(dP * P, axis=-1, keepdims=True))
        ad.accumulate(v, (dE.reshape(1, -1) @ S.reshape(-1, S.shape[-1]))[0])
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
        ad.accumulate_at(table, rows, ad.accumulate_parts(parts, g))

    return ad.node(data, (*parts, table), bwd)


class HighwayParams(Layer):
    """Gated bypass y = T(x)*H(x) + (1 - T(x))*x with square transforms.

    Gate bias starts at -2 so the connection initially favors carrying
    the input through unchanged.
    """

    def __init__(self, prefix, dim, seed):
        self.W_h = glorot(f"{prefix}.W_h", (dim, dim), seed)
        self.b_h = Parameter(f"{prefix}.b_h", np.zeros(dim))
        self.W_t = glorot(f"{prefix}.W_t", (dim, dim), seed)
        self.b_t = Parameter(f"{prefix}.b_t", np.full(dim, -2.0))


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


class AffineParams(Layer):
    def __init__(self, prefix, out_dim, in_dim, seed):
        self.W = glorot(f"{prefix}.W", (out_dim, in_dim), seed)
        self.b = Parameter(f"{prefix}.b", np.zeros(out_dim))


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


def gold_index(gold, shape):
    """Each gold label's index into the flattened logits of `shape`;
    IndexError unless gold has their leading shape, labels in range."""
    gold = np.asarray(gold)
    n = shape[-1]
    if gold.shape != shape[:-1] or gold.min() < 0 or gold.max() >= n:
        raise IndexError("gold labels out of range or misshapen")
    return np.arange(gold.size) * n + gold.reshape(-1)


def softmax_cross_entropy(logits, gold, weights, at_gold=None):
    """sum(weights * -log softmax(logits)[gold]) as one graph node.

    logits is (..., n); gold (integer labels) and weights have its
    leading shape; at_gold, if given, is gold's `gold_index`. The
    log-softmax goes through log-sum-exp, with no clamp, so a
    confidently wrong row keeps its full gradient, weight * (softmax -
    onehot). A row with weight 0 (padding) adds nothing and gets an
    exactly zero gradient.
    """
    z = np.ascontiguousarray(logits.data)   # so reshape(-1) is a view
    if at_gold is None:
        at_gold = gold_index(gold, z.shape)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1)
    picked = shifted.reshape(-1)[at_gold].reshape(total.shape)
    weights = np.asarray(weights)

    def bwd(g):
        d = e / total[..., None]
        d.reshape(-1)[at_gold] -= 1.0
        ad.accumulate(logits, (g * weights)[..., None] * d)

    return ad.node((weights * (np.log(total) - picked)).sum(), (logits,), bwd)
