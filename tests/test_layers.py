import numpy as np
import pytest

from framecmd import autodiff as ad
from framecmd import layers as L
from framecmd.gradcheck import grad_check

import graph_ops as G
from oracles import (attention_oracle, bilstm_oracle, cross_entropy_oracle,
                     highway_oracle, lstm_cell_oracle, softmax_oracle)


BIDI = ("fwd", "bwd")


def random_cell(rng, input_dim, hidden_dim, prefix="cell", directions=()):
    cell = L.LstmCell(prefix, input_dim, hidden_dim, seed=0,
                      directions=directions)
    for p in cell.parameters():
        p.data = rng.normal(0, 0.5, p.data.shape)
    return cell


def direction(cell, k, prefix):
    """A one-direction cell holding direction k of a two-direction cell."""
    one = L.LstmCell(prefix, cell.input_dim, cell.hidden_dim, seed=0)
    for p, q in zip(one.parameters(), cell.parameters()):
        p.data = q.data[k].copy()
    return one


def two_direction_cell(rng, input_dim, hidden_dim, shared):
    """A random two-direction cell "l" and one-direction cells "f" and
    "b" holding its directions; with shared, both directions hold the
    same weights and "f" serves as both."""
    cell = random_cell(rng, input_dim, hidden_dim, "l", BIDI)
    if shared:
        for p in cell.parameters():
            p.data[1] = p.data[0]
    fwd = direction(cell, 0, "f")
    return cell, fwd, fwd if shared else direction(cell, 1, "b")


def assert_per_direction_grads(together, apart, shared):
    """The gradients (by name) of a run of two_direction_cell's "l"
    match the runs of "f" and "b": the input's, and each direction's
    weights' those of its own cell, or, shared, their sum those of "f",
    which served both runs."""
    np.testing.assert_allclose(together["x"], apart["x"], rtol=0, atol=1e-12)
    for part in "WUb":
        g = together[f"l.{part}"]
        pairs = ([(g[0] + g[1], apart[f"f.{part}"])] if shared else
                 [(g[0], apart[f"f.{part}"]), (g[1], apart[f"b.{part}"])])
        for got, want in pairs:
            assert want.any()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                       err_msg=part)


def final_states(states, lengths):
    """Each sentence's final forward state (at its last token) and final
    backward state (at its first token), read from bilstm_forward's
    (T, B, 2H) states."""
    H = states.data.shape[-1] // 2
    last, batch = np.asarray(lengths) - 1, np.arange(len(lengths))
    return (ad.getrow(states, (last, batch, slice(None, H))),
            ad.getrow(states, (0, batch, slice(H, None))))


def step(x, h, c, cell):
    """One array step of a single cell; returns (h', c')."""
    x = np.asarray(x, float)
    h, c, _ = L.lstm_cell_forward(x, np.asarray(h, float),
                                  np.asarray(c, float),
                                  L.CellView(cell, x.shape))
    return h, c


def cell_dicts(cell, k=None):
    """The oracle's per-gate W, U and b: the gate slices of the stacked
    weights (of direction k)."""
    H = cell.hidden_dim
    return tuple({g: (p.data if k is None else p.data[k])[
        j * H:(j + 1) * H].tolist() for j, g in enumerate(L.GATES)}
        for p in cell.parameters())


class TestLstmCell:
    def test_all_zero(self):
        cell = L.LstmCell("c", 2, 3, seed=0)
        for p in cell.parameters():
            p.data = np.zeros_like(p.data)
        h, c = step([0.0, 0.0], np.zeros(3), np.zeros(3), cell)
        np.testing.assert_array_equal(h, np.zeros(3))
        np.testing.assert_array_equal(c, np.zeros(3))

    def test_carry_half(self):
        # zero weights/biases, c=1: c' = 0.5, h' = 0.5*tanh(0.5)
        cell = L.LstmCell("c", 1, 1, seed=0)
        for p in cell.parameters():
            p.data = np.zeros_like(p.data)
        h, c = step([0.0], [0.0], [1.0], cell)
        np.testing.assert_allclose(c, [0.5], atol=1e-12)
        np.testing.assert_allclose(h, [0.5 * np.tanh(0.5)], atol=1e-12)
        np.testing.assert_allclose(h, [0.231059], atol=1e-6)

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            cell = random_cell(rng, 3, 4)
            x = rng.normal(size=3)
            h0 = rng.normal(size=4)
            c0 = rng.normal(size=4)
            h, c = step(x, h0, c0, cell)
            eh, ec = lstm_cell_oracle(x.tolist(), h0.tolist(), c0.tolist(),
                                      *cell_dicts(cell))
            np.testing.assert_allclose(h, eh, atol=1e-10)
            np.testing.assert_allclose(c, ec, atol=1e-10)

    def test_dimension_mismatch(self):
        cell = L.LstmCell("c", 3, 4, seed=0)
        with pytest.raises(ValueError):
            step([1.0], np.zeros(4), np.zeros(4), cell)
        with pytest.raises(ValueError):
            L.lstm_run(ad.constant(np.zeros((2, 1, 1))), cell)


class TestBilstm:
    def test_t1_is_concat_of_single_steps(self):
        rng = np.random.default_rng(8)
        cell = random_cell(rng, 3, 2, "l", BIDI)
        x = rng.normal(size=3)
        states = L.bilstm_forward(ad.constant(x[None, None]), cell)
        hf, _ = step(x, np.zeros(2), np.zeros(2), direction(cell, 0, "f"))
        hb, _ = step(x, np.zeros(2), np.zeros(2), direction(cell, 1, "b"))
        np.testing.assert_allclose(states.data[0, 0],
                                   np.concatenate([hf, hb]), atol=1e-14)

    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(9)
        cell = random_cell(rng, 3, 2, "s", BIDI)
        for p in cell.parameters():     # the same weights both ways
            p.data[1] = p.data[0]
        a, b = rng.normal(size=3), rng.normal(size=3)
        X = ad.constant(np.array([a, b, a])[:, None])
        states = L.bilstm_forward(X, cell)
        states = states.data[:, 0]
        T = 3
        for t in range(T):
            np.testing.assert_allclose(states[t, :2],
                                       states[T - 1 - t, 2:],
                                       atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            cell = random_cell(rng, 2, 3, "l", BIDI)
            seq = [rng.normal(size=2) for _ in range(3)]
            states = L.bilstm_forward(ad.constant(np.array(seq)[:, None]),
                                      cell)
            expected = bilstm_oracle([v.tolist() for v in seq],
                                     cell_dicts(cell, 0), cell_dicts(cell, 1))
            for got, exp in zip(states.data[:, 0], expected):
                np.testing.assert_allclose(got, exp, atol=1e-10)

    def test_empty_sequence(self):
        cell = L.LstmCell("c", 2, 2, seed=0, directions=BIDI)
        with pytest.raises(ValueError):
            L.bilstm_forward(ad.constant(np.zeros((0, 1, 2))), cell)

    def test_cell_without_two_directions_rejected(self):
        # A one-direction cell would broadcast over both directions.
        for directions in ((), ("a", "b", "c")):
            cell = L.LstmCell("c", 3, 4, seed=0, directions=directions)
            with pytest.raises(ValueError):
                L.bilstm_forward(ad.constant(np.zeros((2, 1, 3))), cell)

    @pytest.mark.parametrize("shared", [False, True])
    def test_stacked_directions_match_a_per_direction_unroll(self, shared):
        """One recurrence over both directions gives what a run of each
        direction alone gives: states, final states and the gradients of
        the input and of every weight, on a padded batch and with the
        same weights both ways."""
        rng = np.random.default_rng(34)
        cell, fwd, bwd = two_direction_cell(rng, 2, 3, shared)
        lengths = [4, 2, 3]
        T, B, H = 4, 3, 3
        X = ad.Parameter("x", rng.normal(size=(T, B, 2)))
        params = [X] + cell.parameters() + fwd.parameters() + (
            [] if shared else bwd.parameters())
        heads = [(rng.integers(0, n, rows), rng.random(rows))
                 for n, rows in ((2 * H, (T, B)), (H, (B,)), (H, (B,)))]

        def run(outputs):
            for p in params:
                p.zero_grad()
            loss = None
            for out, (gold, weights) in zip(outputs, heads):
                term = L.softmax_cross_entropy(out, gold, weights)
                loss = term if loss is None else ad.add(loss, term)
            ad.backward(loss)
            return ([out.data for out in outputs],
                    {p.name: p.grad.copy() for p in params})

        batch = np.arange(B)
        n = np.array(lengths)
        # step t of the backward direction reads token n - 1 - t
        order = np.array([[k - 1 - t if t < k else t for k in lengths]
                          for t in range(T)])
        f = L.lstm_run(X, fwd)
        b = L.lstm_run(ad.getrow(X, (order, batch)), bwd)
        apart = run([ad.concat([f, ad.getrow(b, (order, batch))]),
                     ad.getrow(f, (n - 1, batch)),
                     ad.getrow(b, (n - 1, batch))])
        states = L.bilstm_forward(X, cell, lengths)
        together = run([states, *final_states(states, lengths)])
        for got, want in zip(together[0], apart[0]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert_per_direction_grads(together[1], apart[1], shared)


class TestAttention:
    @staticmethod
    def params(rng, qd, kd, att):
        p = L.AttentionParams("a", qd, kd, att, seed=0)
        p.W1.data = rng.normal(size=p.W1.data.shape)
        p.W2.data = rng.normal(size=p.W2.data.shape)
        p.v.data = rng.normal(size=p.v.data.shape)
        return p

    def test_identical_keys_uniform_weights(self):
        rng = np.random.default_rng(11)
        p = self.params(rng, 3, 3, 4)
        key = rng.normal(size=3)
        keys = ad.constant(np.array([key for _ in range(5)])[:, None])
        ctx, w = L.attention(ad.constant(rng.normal(size=3)), keys, p)
        np.testing.assert_allclose(w[0, 0], np.full(5, 0.2), atol=1e-12)
        np.testing.assert_allclose(ctx.data[0], key, atol=1e-12)

    def test_single_key(self):
        rng = np.random.default_rng(12)
        p = self.params(rng, 3, 3, 4)
        key = rng.normal(size=3)
        ctx, w = L.attention(ad.constant(rng.normal(size=3)),
                             ad.constant(key[None, None]), p)
        np.testing.assert_allclose(w[0], [[1.0]], atol=1e-15)
        np.testing.assert_allclose(ctx.data[0], key, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = self.params(rng, 2, 2, 3)
            queries = np.array([rng.normal(size=2) for _ in range(3)])
            keys = np.array([rng.normal(size=2) for _ in range(4)])
            _, w = L.attention(ad.constant(queries),
                               ad.constant(keys[:, None]), p)
            np.testing.assert_allclose(w[0].sum(axis=1), np.ones(3),
                                       atol=1e-9)

    def test_matches_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = self.params(rng, 2, 3, 4)
            queries = [rng.normal(size=2) for _ in range(2)]
            keys = [rng.normal(size=3) for _ in range(3)]
            ctx, w = L.attention(ad.constant(np.array(queries)),
                                 ad.constant(np.array(keys)[:, None]), p)
            ectx, ew = attention_oracle(
                [q.tolist() for q in queries], [k.tolist() for k in keys],
                p.W1.data.tolist(), p.W2.data.tolist(), p.v.data.tolist())
            np.testing.assert_allclose(w[0], ew, atol=1e-10)
            for got, exp in zip(ctx.data[:, 0], ectx):
                np.testing.assert_allclose(got, exp, atol=1e-10)


class TestHighway:
    def test_carry_limit(self):
        rng = np.random.default_rng(15)
        p = L.HighwayParams("h", 4, seed=0)
        p.W_h.data = rng.normal(size=(4, 4))
        p.b_t.data = np.full(4, -50.0)
        x = rng.normal(size=4)
        y = L.highway(ad.constant(x), p)
        assert np.max(np.abs(y.data - x)) < 1e-12

    def test_zero_weights_halves_input(self):
        p = L.HighwayParams("h", 3, seed=0)
        for q in p.parameters():
            q.data = np.zeros_like(q.data)
        x = np.array([0.4, -1.0, 2.0])
        y = L.highway(ad.constant(x), p)
        np.testing.assert_allclose(y.data, 0.5 * x, atol=1e-12)

    def test_gate_bias_initialized_negative(self):
        p = L.HighwayParams("h", 3, seed=0)
        np.testing.assert_array_equal(p.b_t.data, np.full(3, -2.0))

    def test_matches_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            p = L.HighwayParams("h", 3, seed=0)
            for q in p.parameters():
                q.data = rng.normal(size=q.data.shape)
            x = rng.normal(size=3)
            y = L.highway(ad.constant(x), p)
            exp = highway_oracle(x.tolist(), p.W_h.data.tolist(),
                                 p.b_h.data.tolist(), p.W_t.data.tolist(),
                                 p.b_t.data.tolist())
            np.testing.assert_allclose(y.data, exp, atol=1e-10)

    def test_non_square_rejected(self):
        p = L.HighwayParams("h", 3, seed=0)
        with pytest.raises(ValueError):
            L.highway(ad.constant(np.zeros(4)), p)


class TestFusedGradients:
    """Hand-written backward passes against central differences, with
    the inputs as Parameters so their gradients are checked too."""

    @pytest.mark.parametrize("every_h", [True, False])
    def test_two_chained_lstm_steps(self, every_h):
        # Without a loss on the first h, the first step's gradient comes
        # only back through time, from the second step.
        from framecmd.autodiff import Parameter
        rng = np.random.default_rng(18)
        cell = random_cell(rng, 3, 4, "two")
        X = Parameter("x", rng.normal(size=(2, 1, 3)))
        gold = rng.integers(0, 4, (2, 1))
        weights = np.array([[1.0 if every_h else 0.0], [0.7]])

        def fwd():
            return L.softmax_cross_entropy(L.lstm_run(X, cell), gold,
                                           weights)

        assert grad_check(fwd, list(cell.parameters()) + [X]) < 1e-4

    @pytest.mark.parametrize("self_attention", [True, False])
    def test_attention(self, self_attention):
        from framecmd.autodiff import Parameter
        rng = np.random.default_rng(19)
        p = TestAttention.params(rng, 3, 3, 4)
        keys = Parameter("k", np.array([rng.normal(size=3)
                                        for t in range(4)])[:, None])
        queries = (keys if self_attention
                   else Parameter("q", rng.normal(size=(1, 3))))
        weights = [ad.constant(rng.normal(size=3))
                   for _ in range(queries.data.shape[0])]

        def fwd():
            contexts, _ = L.attention(queries, keys, p)
            loss = ad.constant(0.0)
            for q, w in enumerate(weights):
                ctx = ad.getrow(contexts, (q, 0))
                loss = ad.add(loss, G.dot(ctx, w))
            return loss

        params = p.parameters() + [keys] + (
            [] if self_attention else [queries])
        assert grad_check(fwd, params) < 1e-4

    def test_highway(self):
        from framecmd.autodiff import Parameter
        rng = np.random.default_rng(20)
        p = L.HighwayParams("hw", 4, seed=0)
        for q in p.parameters():
            q.data = rng.normal(size=q.data.shape)
        x = Parameter("x", rng.normal(size=4))
        w = ad.constant(rng.normal(size=4))

        def fwd():
            return G.dot(L.highway(x, p), w)

        assert grad_check(fwd, p.parameters() + [x]) < 1e-4

    def test_no_graph_under_no_grad(self):
        rng = np.random.default_rng(21)
        cell = random_cell(rng, 3, 3)
        att = TestAttention.params(rng, 3, 3, 2)
        hw = L.HighwayParams("hw", 3, seed=0)
        x = ad.Parameter("x", rng.normal(size=(2, 1, 3)))
        with ad.no_grad():
            states = L.lstm_run(x, cell)
            contexts, _ = L.attention(states, states, att)
            y = L.highway(x, hw)
        for t in [states, y, contexts]:
            assert type(t) is ad.Tensor
            assert t.parents == ()
            assert t.bwd is None


class TestInitParams:
    def test_glorot_bound(self):
        t = L.init_params((4, 4), seed=0, name="w")
        bound = np.sqrt(6 / 8)
        assert np.all(np.abs(t) <= bound)
        assert np.any(np.abs(t) > 0)

    def test_deterministic_per_name_seed(self):
        a = L.init_params((3, 3), 5, "x")
        b = L.init_params((3, 3), 5, "x")
        c = L.init_params((3, 3), 5, "y")
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestGradCheckHarness:
    def test_linear_model_exact(self):
        from framecmd.autodiff import Parameter
        w = Parameter("w", np.array([0.5, -1.5, 2.0]))
        x = np.array([1.0, 2.0, 3.0])

        def fwd():
            return G.dot(w, ad.constant(x))

        assert grad_check(fwd, [w]) < 1e-10

    def test_corrupted_gradient_detected(self, doubled_gradients):
        from framecmd.autodiff import Parameter
        w = Parameter("w", np.array([0.5, -1.5, 2.0]))
        x = np.array([1.0, 2.0, 3.0])

        def fwd():
            return G.dot(w, ad.constant(x))

        err = grad_check(fwd, [w])
        assert err > 0.1
        np.testing.assert_allclose(err, 1 / 3, atol=1e-6)

    def test_layer_composition(self):
        from framecmd.autodiff import Parameter
        rng = np.random.default_rng(17)
        cell = random_cell(rng, 3, 4, "gc")
        hw = L.HighwayParams("hw", 4, seed=3)
        x = rng.normal(size=3)

        def fwd():
            h = ad.getrow(L.lstm_run(ad.constant(x[None, None]), cell),
                          (0, 0))
            y = L.highway(h, hw)
            return G.dot(y, y)

        params = list(cell.parameters()) + hw.parameters()
        assert grad_check(fwd, params) < 1e-4


class TestSoftmaxCrossEntropy:
    def test_confidently_wrong_row_keeps_its_gradient(self):
        # A probability clamp would give a loss of about 27.6 here and a
        # gradient of exactly zero; log-sum-exp keeps both.
        z = ad.Parameter("z", np.array([0.0, 40.0]))
        loss = L.softmax_cross_entropy(z, 0, 1.0)
        np.testing.assert_allclose(float(loss.data), 40.0, atol=1e-12)
        ad.backward(loss)
        np.testing.assert_allclose(z.grad, [-1.0, 1.0], atol=1e-12)

    def test_matches_oracle_weighted_sum(self):
        rng = np.random.default_rng(22)
        z = rng.normal(0, 3, (4, 3, 5))
        gold = rng.integers(0, 5, (4, 3))
        weights = rng.random((4, 3))
        got = float(L.softmax_cross_entropy(ad.constant(z), gold,
                                            weights).data)
        expected = sum(weights[t, b] * cross_entropy_oracle(
            softmax_oracle(z[t, b].tolist()), int(gold[t, b]))
            for t in range(4) for b in range(3))
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_zero_weight_rows_get_zero_gradient(self):
        rng = np.random.default_rng(23)
        z = ad.Parameter("z", rng.normal(size=(3, 2, 4)))
        weights = np.array([[1.0, 0.5], [1.0, 0.0], [0.0, 0.0]])
        ad.backward(L.softmax_cross_entropy(z, np.zeros((3, 2), int),
                                            weights))
        assert np.all(z.grad[weights == 0.0] == 0.0)
        assert np.all(z.grad[weights > 0.0] != 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(24)
        z = ad.Parameter("z", rng.normal(0, 2, (3, 2, 4)))
        gold = rng.integers(0, 4, (3, 2))
        weights = rng.random((3, 2))
        assert grad_check(lambda: L.softmax_cross_entropy(z, gold, weights),
                          [z]) < 1e-4

    @pytest.mark.parametrize("gold", [3, -1, [0, 1]])
    def test_bad_gold_rejected(self, gold):
        with pytest.raises(IndexError):
            L.softmax_cross_entropy(ad.constant([0.0, 1.0, 2.0]), gold, 1.0)


class TestRowBatches:
    """Every batched op computes each row as its unbatched form does."""

    def test_lstm_cell_rows(self):
        rng = np.random.default_rng(25)
        cell = random_cell(rng, 3, 4)
        x, h, c = (rng.normal(size=(5, n)) for n in (3, 4, 4))
        hb, cb = step(x, h, c, cell)
        for r in range(5):
            h1, c1 = step(x[r], h[r], c[r], cell)
            np.testing.assert_allclose(hb[r], h1, atol=1e-12)
            np.testing.assert_allclose(cb[r], c1, atol=1e-12)

    def test_highway_rows(self):
        rng = np.random.default_rng(26)
        p = L.HighwayParams("hw", 4, seed=0)
        x = rng.normal(size=(3, 4))
        y = L.highway(ad.constant(x), p)
        for r in range(3):
            np.testing.assert_allclose(
                y.data[r], L.highway(ad.constant(x[r]), p).data, atol=1e-12)

    def test_bilstm_sentences_of_their_own_lengths(self):
        rng = np.random.default_rng(27)
        cell = random_cell(rng, 2, 3, "l", BIDI)
        lengths = [2, 4, 1]
        X = rng.normal(size=(4, 3, 2))     # padding rows hold noise too
        states = L.bilstm_forward(ad.constant(X), cell, lengths)
        last_f, last_b = final_states(states, lengths)
        for b, n in enumerate(lengths):
            one = L.bilstm_forward(ad.constant(X[:n, b:b + 1]), cell)
            one_f, one_b = final_states(one, [n])
            np.testing.assert_allclose(states.data[:n, b], one.data[:, 0],
                                       atol=1e-12)
            np.testing.assert_allclose(last_f.data[b], one_f.data[0],
                                       atol=1e-12)
            np.testing.assert_allclose(last_b.data[b], one_b.data[0],
                                       atol=1e-12)

    @pytest.mark.parametrize("self_attention", [True, False])
    def test_attention_masks_padded_keys(self, self_attention):
        rng = np.random.default_rng(28)
        p = TestAttention.params(rng, 3, 3, 4)
        lengths = [3, 1, 2]
        keys = ad.constant(rng.normal(size=(3, 3, 3)))
        queries = keys if self_attention else ad.constant(
            rng.normal(size=3))                     # shared by the batch
        ctx, w = L.attention(queries, keys, p, lengths)
        assert w.shape == (3, 3 if self_attention else 1, 3)
        for b, n in enumerate(lengths):
            own = ad.constant(keys.data[:n, b:b + 1])
            q1 = own if self_attention else queries
            ctx1, w1 = L.attention(q1, own, p)
            np.testing.assert_allclose(w[b, :w1.shape[1], :n], w1[0],
                                       atol=1e-12)
            assert np.all(w[b, :, n:] == 0.0)
            if self_attention:      # (T, B, dk) contexts
                got, one = ctx.data[:n, b], ctx1.data[:, 0]
            else:                   # (B, dk): one per sentence
                got, one = ctx.data[b], ctx1.data[0]
            np.testing.assert_allclose(got, one, atol=1e-12)

    def test_decoder_input_matches_concat_lookup_and_mask(self):
        rng = np.random.default_rng(29)
        table = ad.Parameter("emb", rng.normal(size=(4, 2)))
        a, b = (ad.constant(rng.normal(size=(2, 3, n))) for n in (2, 3))
        rows = np.array([[1, 3, 1], [0, 2, 2]])     # (T, B): every step
        mask = rng.random((2, 3, 7))
        x = L.decoder_input([a, b], table, rows, mask)
        expected = np.concatenate([a.data, b.data, table.data[rows]],
                                  axis=-1) * mask
        np.testing.assert_array_equal(x.data, expected)
        step = L.decoder_input([ad.getrow(a, 1), ad.getrow(b, 1)], table,
                               rows[1], mask[1])    # one step
        np.testing.assert_array_equal(step.data, expected[1])


class TestLstmRun:
    """`lstm_run` is one graph node per run: its forward pass steps with
    `lstm_cell_forward`, its backward pass runs back through time."""

    @staticmethod
    def cross_entropy(states, rng, weights=None):
        """A loss on every h: a cross-entropy over each state's entries
        with fixed random labels and row weights."""
        rows = states.data.shape[:-1]
        gold = rng.integers(0, states.data.shape[-1], rows)
        weights = rng.random(rows) if weights is None else weights
        return L.softmax_cross_entropy(states, gold, weights)

    def test_gradients_at_one_step(self):
        rng = np.random.default_rng(35)
        cell = random_cell(rng, 3, 4, "one")
        X = ad.Parameter("x", rng.normal(size=(1, 2, 3)))

        def fwd():
            return self.cross_entropy(L.lstm_run(X, cell),
                                      np.random.default_rng(0))

        assert grad_check(fwd, list(cell.parameters()) + [X]) < 1e-4

    def test_gradients_on_a_padded_batch(self):
        # Padding steps come after a sentence's own and carry no loss,
        # so the input's padding rows get an exactly zero gradient.
        rng = np.random.default_rng(36)
        cell = random_cell(rng, 3, 4, "pad")
        X = ad.Parameter("x", rng.normal(size=(4, 3, 3)))
        own = np.arange(4)[:, None] < np.array([4, 1, 3])
        weights = own * rng.random(own.shape)

        def fwd():
            return self.cross_entropy(L.lstm_run(X, cell),
                                      np.random.default_rng(0), weights)

        assert grad_check(fwd, list(cell.parameters()) + [X]) < 1e-4
        X.zero_grad()
        ad.backward(fwd())
        assert np.all(X.grad[~own] == 0.0)
        assert np.all(X.grad[own] != 0.0)

    @pytest.mark.parametrize("shared", [False, True])
    def test_two_cells_match_two_one_cell_runs(self, shared):
        """A two-direction cell, two cells side by side, gives each
        direction's own run: states and the gradients of the input and
        of every weight. With the same weights both ways, the directions'
        weight gradients add up to those of one cell run twice."""
        rng = np.random.default_rng(37)
        cell, a, b = two_direction_cell(rng, 3, 4, shared)
        X = ad.Parameter("x", rng.normal(size=(3, 2, 2, 3)))
        params = [X] + cell.parameters() + a.parameters() + (
            [] if shared else b.parameters())

        def grads(runs):
            for p in params:
                p.zero_grad()
            rng = np.random.default_rng(0)
            loss = None
            for states in runs:
                term = self.cross_entropy(states, rng)
                loss = term if loss is None else ad.add(loss, term)
            ad.backward(loss)
            return ([s.data for s in runs],
                    {p.name: p.grad.copy() for p in params})

        pair = L.lstm_run(X, cell)
        together = grads([ad.getrow(pair, (slice(None), k)) for k in (0, 1)])
        apart = grads([L.lstm_run(ad.getrow(X, (slice(None), k)), one)
                       for k, one in enumerate((a, b))])
        for got, want in zip(together[0], apart[0]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert_per_direction_grads(together[1], apart[1], shared)

    def test_steps_through_the_module_step(self, monkeypatch):
        # One `lstm_cell_forward` call per step, looked up as a module
        # global, on a cell that carries its layer's parameter names.
        rng = np.random.default_rng(39)
        cell = random_cell(rng, 3, 4, "layer9.cell")
        seen = []
        step_fn = L.lstm_cell_forward

        def counting(x, h, c, view):
            seen.append(view.W["i"].name)
            return step_fn(x, h, c, view)

        monkeypatch.setattr(L, "lstm_cell_forward", counting)
        L.lstm_run(ad.constant(rng.normal(size=(5, 2, 3))), cell)
        assert seen == ["layer9.cell.W"] * 5


class TestBatchedGradients:
    """Batched backward passes against central differences, with padded
    sentences and the inputs as Parameters. Each output feeds a
    cross-entropy over its last axis with fixed random labels and row
    weights, so every entry of it carries gradient."""

    @staticmethod
    def loss_of(outputs, rng):
        heads = []
        for out in outputs:
            rows = out.data.shape[:-1]
            heads.append((out, rng.integers(0, out.data.shape[-1], rows),
                          rng.random(rows)))

        def loss():
            total = None
            for out, gold, weights in heads:
                term = L.softmax_cross_entropy(out, gold, weights)
                total = term if total is None else ad.add(total, term)
            return total

        return loss

    def test_bilstm_with_lengths(self):
        from framecmd.autodiff import Parameter
        rng = np.random.default_rng(30)
        cell = random_cell(rng, 2, 3, "l", BIDI)
        X = Parameter("x", np.array([rng.normal(size=(3, 2))
                                     for t in range(4)]))

        def fwd_fn():
            states = L.bilstm_forward(X, cell, [4, 2, 3])
            return self.loss_of([states, *final_states(states, [4, 2, 3])],
                                np.random.default_rng(0))()

        params = cell.parameters() + [X]
        assert grad_check(fwd_fn, params) < 1e-4

    @pytest.mark.parametrize("self_attention", [True, False])
    def test_attention_with_lengths(self, self_attention):
        from framecmd.autodiff import Parameter
        rng = np.random.default_rng(31)
        p = TestAttention.params(rng, 3, 3, 4)
        keys = Parameter("k", np.array([rng.normal(size=(2, 3))
                                        for t in range(3)]))
        queries = keys if self_attention else Parameter(
            "q", rng.normal(size=3))                # shared by the batch

        def fwd_fn():
            contexts, _ = L.attention(queries, keys, p, [3, 2])
            return self.loss_of([contexts], np.random.default_rng(0))()

        params = p.parameters() + [keys] + (
            [] if self_attention else [queries])
        assert grad_check(fwd_fn, params) < 1e-4

    def test_lstm_highway_decoder_input_rows(self):
        from framecmd.autodiff import Parameter
        rng = np.random.default_rng(32)
        cell = random_cell(rng, 5, 3, "rows")
        hw = L.HighwayParams("hw", 3, seed=1)
        table = Parameter("emb", rng.normal(size=(4, 2)))
        a = Parameter("a", rng.normal(size=(2, 2, 3)))     # T = 2
        mask = rng.random((2, 2, 5))

        def fwd_fn():
            # three rows look up the same label row: their gradients add
            x = L.decoder_input([L.highway(a, hw)], table,
                                np.array([[2, 2], [2, 0]]), mask)
            # a second run over the last step also feeds x's gradient
            return self.loss_of([L.lstm_run(x, cell),
                                 L.lstm_run(ad.getrow(x, slice(1, None)),
                                            cell)],
                                np.random.default_rng(0))()

        params = list(cell.parameters()) + hw.parameters() + [table, a]
        assert grad_check(fwd_fn, params) < 1e-4
