import contextlib
import errno
import io
import os

import numpy as np
import pytest

from framecmd import autodiff as ad
from framecmd import cli
from framecmd import layers as L
from framecmd.autodiff import Parameter
from framecmd.corpus import (AnnotatedSentence, FrameAnnotation, LabelVocab,
                             label_vocab)
from framecmd.embeddings import embed_sentence, random_embeddings
from framecmd.gradcheck import grad_check
from framecmd import model as model_module
from framecmd.model import (CheckpointError, GoldBatch, Model, ModelConfig,
                            ModelOutput, ParsedCommand, _dropout_mask,
                            build_model, decode_output, forward, gold_labels,
                            joint_loss, load_checkpoint, predict,
                            predict_many, save_checkpoint, sentence_labels)
from framecmd.optim import Adam

from oracles import cross_entropy_oracle, softmax_oracle

PRESETS = [("2L", True), ("2L", False), ("3L", True), ("3L", False)]
VOCAB = LabelVocab(frames=("Bringing", "Motion", "Taking"),
                   element_types=("Goal", "Theme"))


def small_config(variant="3L", attention=True, dropout=0.0):
    return ModelConfig(variant=variant, attention=attention, embedding_dim=6,
                       hidden_size=5, decoder_hidden=5, attention_size=4,
                       label_embedding_dim=3, dropout=dropout, seed=0)


def sentence():
    return AnnotatedSentence(
        id="s0", tokens=("take", "the", "book", "to", "the", "kitchen"),
        frame=FrameAnnotation("Bringing", (0, 0),
                              (("Theme", (1, 2)), ("Goal", (3, 5)))))


def embedded(tokens=None):
    toks = tokens or list(sentence().tokens)
    table = random_embeddings(toks + ["pad"], dim=6, seed=0)
    return table, embed_sentence(table, toks)


class TestBuildModel:
    def test_head_dims(self):
        vocab = LabelVocab(frames=tuple(f"F{i}" for i in range(16)),
                           element_types=("Goal", "Theme"))
        m = build_model(small_config(), vocab)
        assert m.ad_head.W.data.shape[0] == 16
        assert m.l2_head.W.data.shape[0] == 3          # plain IOB
        assert m.l3_head.W.data.shape[0] == 3          # 2 types + O

    def test_3l_has_more_parameters(self):
        m2 = build_model(small_config("2L"), VOCAB)
        m3 = build_model(small_config("3L"), VOCAB)
        assert m3.num_parameters() > m2.num_parameters()

    def test_deterministic_init(self):
        a = build_model(small_config(), VOCAB)
        b = build_model(small_config(), VOCAB)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            np.testing.assert_array_equal(pa.data, pb.data)

    @pytest.mark.parametrize("seed", [0, 42, 2**32 - 1, 2**32, 2**64 + 5])
    def test_init_follows_the_seed_formula(self, seed):
        # The spec: a weight's generator is seeded with the seed followed
        # by the parameter name's UTF-8 bytes; biases are constants. An
        # LSTM weight is its gate blocks, each drawn as its own tensor
        # under its per-gate stream name, <stream>.W_<gate> (U_, b_).
        biases = {"b_f": 1.0, "b_t": -2.0}     # LSTM forget, highway gate
        streams = {"layer1": ["layer1.fwd", "layer1.bwd"],
                   "layer2.cell": ["layer2.cell"],
                   "layer3.cell": ["layer3.cell"]}

        def expected(name, shape):
            last = name.rsplit(".", 1)[1]
            if last.startswith("b"):
                return np.full(shape, biases.get(last, 0.0))
            fan_out, fan_in = shape if len(shape) == 2 else shape * 2
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            rng = np.random.default_rng(np.random.SeedSequence(
                [seed] + list(name.encode("utf-8"))))
            return rng.uniform(-bound, bound, shape)

        for variant, attention in PRESETS:
            m = build_model(ModelConfig(variant=variant, attention=attention,
                                        seed=seed), VOCAB)
            for p in m.parameters():
                prefix, part = p.name.rsplit(".", 1)
                if prefix not in streams:
                    np.testing.assert_array_equal(
                        p.data, expected(p.name, p.data.shape), p.name)
                    continue
                per_stream = p.data.reshape((len(streams[prefix]),) + (
                    p.data.shape[-1 if part == "b" else -2:]))
                for stream, stacked in zip(streams[prefix], per_stream):
                    for gate, block in zip("ifog", np.split(stacked, 4)):
                        name = f"{stream}.{part}_{gate}"
                        np.testing.assert_array_equal(
                            block, expected(name, block.shape), name)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="seed"):
            ModelConfig(seed=-1)
        with pytest.raises(ValueError):
            L.init_params((2, 3), -1, "W")

    def test_unique_parameter_names(self):
        m = build_model(small_config(), VOCAB)
        names = [p.name for p in m.parameters()]
        assert len(names) == len(set(names))

    def test_no_attention_parameters_without_attention(self):
        m = build_model(small_config(attention=False), VOCAB)
        assert not any("att" in p.name for p in m.parameters())

    @pytest.mark.parametrize("variant", ["2L", "3L"])
    @pytest.mark.parametrize("attention", [True, False])
    def test_parameter_names_per_architecture(self, variant, attention):
        def cell(prefix):
            return {f"{prefix}.{m}" for m in "WUb"}

        expected = cell("layer1") | cell("layer2.cell") | {
            "ad_head.W", "ad_head.b", "layer2.label_emb", "layer2.head.W",
            "layer2.head.b"}
        if attention:
            expected |= {"att1.W1", "att1.W2", "att1.v", "att1.ad_query"}
        if variant == "3L":
            expected |= cell("layer3.cell") | {
                "highway.W_h", "highway.b_h", "highway.W_t", "highway.b_t",
                "layer3.label_emb", "layer3.head.W", "layer3.head.b"}
            if attention:
                expected |= {"att3.W1", "att3.W2", "att3.v"}
        m = build_model(small_config(variant, attention), VOCAB)
        names = [p.name for p in m.parameters()]
        assert len(names) == len(expected)
        assert set(names) == expected

    @pytest.mark.parametrize("variant", ["2L", "3L"])
    @pytest.mark.parametrize("attention", [True, False])
    def test_every_parameter_of_the_model_is_listed(self, variant,
                                                    attention):
        # A Parameter the model holds but does not list would never be
        # trained or saved.
        def reachable(obj):
            if isinstance(obj, Parameter):
                yield obj
            elif isinstance(obj, dict):
                for v in obj.values():
                    yield from reachable(v)
            elif hasattr(obj, "__dict__") and not isinstance(obj, type):
                for v in vars(obj).values():
                    yield from reachable(v)

        m = build_model(small_config(variant, attention), VOCAB)
        held = {id(p) for part in vars(m).values() for p in reachable(part)}
        assert held == {id(p) for p in m.parameters()}


class TestForward:
    def test_output_shapes_3l(self):
        m = build_model(small_config(), VOCAB)
        _, emb = embedded()
        out = forward(m, emb, mode="infer")
        # one sentence is a batch of one: (B, n) and (T, B, n)
        assert out.ad_logits.data.shape == (1, 3)
        assert out.seq2_logits.data.shape == (6, 1, 3)
        assert out.seq2_labels.shape == (6, 1)
        assert out.seq3_logits.data.shape == (6, 1, 3)

    def test_output_shapes_2l(self):
        m = build_model(small_config("2L"), VOCAB)
        _, emb = embedded()
        out = forward(m, emb, mode="infer")
        assert out.seq2_logits.data.shape == (6, 1, 5)
        assert out.seq3_logits is None

    def test_attention_maps(self):
        m = build_model(small_config(), VOCAB)
        _, emb = embedded()
        out = forward(m, emb, mode="infer")
        assert set(out.attention_maps) == {"ad", "layer2", "layer3"}
        assert out.attention_maps["ad"].shape == (1, 1, 6)
        assert out.attention_maps["layer2"].shape == (1, 6, 6)
        for mat in out.attention_maps.values():
            np.testing.assert_allclose(mat.sum(axis=-1), 1.0, atol=1e-9)

    def test_no_attention_maps_when_off(self):
        m = build_model(small_config(attention=False), VOCAB)
        _, emb = embedded()
        assert forward(m, emb, mode="infer").attention_maps is None

    def test_train_requires_gold(self):
        m = build_model(small_config(), VOCAB)
        _, emb = embedded()
        with pytest.raises(ValueError):
            forward(m, emb, mode="train")

    @pytest.mark.parametrize("variant", ["2L", "3L"])
    def test_teacher_forcing_consistency(self, variant):
        # feeding the model's own greedy labels as gold reproduces
        # infer-mode logits exactly
        m = build_model(small_config(variant), VOCAB)
        _, emb = embedded()
        infer = forward(m, emb, mode="infer")
        frame, _, seq3 = sentence_labels(sentence(), VOCAB, variant)
        forced = GoldBatch([(frame, tuple(infer.seq2_labels[:, 0].tolist()),
                             seq3)])
        trained = forward(m, emb, gold=forced, mode="train")
        np.testing.assert_array_equal(trained.ad_logits.data,
                                      infer.ad_logits.data)
        np.testing.assert_array_equal(trained.seq2_logits.data,
                                      infer.seq2_logits.data)

    @pytest.mark.parametrize("variant,mode,calls", [
        ("3L", "train", 3), ("3L", "infer", 2),
        ("2L", "train", 2), ("2L", "infer", 1)])
    def test_every_lstm_but_greedy_decoding_runs_through_lstm_run(
            self, monkeypatch, variant, mode, calls):
        # The encoder (one run over both directions), the teacher-forced
        # layer-2 decoder and the layer-3 decoder (both modes) are
        # lstm_run calls; greedy layer-2 decoding steps by hand.
        from framecmd import layers
        seen = []
        run = layers.lstm_run

        def counting(X, *cells):
            seen.append(cells)
            return run(X, *cells)

        monkeypatch.setattr(layers, "lstm_run", counting)
        m = build_model(small_config(variant), VOCAB)
        _, emb = embedded()
        gold = gold_labels(sentence(), VOCAB, variant)
        forward(m, emb, gold=gold, mode=mode)
        assert len(seen) == calls
        assert seen[0] == (m.l1,)
        assert ((m.l2_cell,) in seen) == (mode == "train")

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_steps_read_the_stacked_parameters_in_place(self, monkeypatch,
                                                        mode):
        # Every step of the three LSTMs, greedy decoding's too, reads
        # views of its cell's Parameters, here the optimizer's flat
        # buffers: no run or step copies a weight.
        seen = []
        step = L.lstm_cell_forward

        def recording(x, h, c, view):
            seen.append(view)
            return step(x, h, c, view)

        monkeypatch.setattr(L, "lstm_cell_forward", recording)
        m = build_model(small_config(), VOCAB)
        Adam(m.parameters())
        _, emb = embedded()
        forward(m, emb, gold=gold_labels(sentence(), VOCAB, "3L"), mode=mode)
        T = len(sentence().tokens)
        assert len(seen) == 3 * T
        for k, cell in enumerate((m.l1, m.l2_cell, m.l3_cell)):
            for view in seen[k * T:(k + 1) * T]:
                for got, param in ((view.Wt, cell.W), (view.Ut, cell.U),
                                   (view.b, cell.b)):
                    assert np.shares_memory(got, param.data)

    def test_forward_purity(self):
        m = build_model(small_config(), VOCAB)
        _, emb = embedded()
        a = forward(m, emb, mode="infer")
        b = forward(m, emb, mode="infer")
        np.testing.assert_array_equal(a.ad_logits.data, b.ad_logits.data)
        np.testing.assert_array_equal(a.seq2_labels, b.seq2_labels)


class TestJointLoss:
    @staticmethod
    def stub_output(model, labels, confidence=60.0):
        """A batch of one whose heads are sure of `labels`, one
        sentence's label triple."""
        frame, seq2, seq3 = labels

        def onehot(size, idx):
            z = np.full(size, -confidence)
            z[idx] = confidence
            return z

        def steps(size, labels):    # (T, 1, size): a batch of one
            return ad.constant(np.array([onehot(size, i)
                                         for i in labels])[:, None])

        n2 = len(model.seq2_alphabet)
        return ModelOutput(
            lengths=np.array([len(seq2)]),
            ad_logits=ad.constant(onehot(len(model.vocab.frames),
                                         frame)[None]),
            seq2_logits=steps(n2, seq2),
            seq2_labels=np.array(seq2)[:, None],
            seq3_logits=steps(len(model.vocab.ac_labels), seq3)
            if seq3 else None)

    def test_perfect_prediction_zero_loss(self):
        # Each head's cross-entropy is zero where its logits are sure of
        # the gold labels.
        m = build_model(small_config(), VOCAB)
        labels = sentence_labels(sentence(), VOCAB, "3L")
        out, gold = self.stub_output(m, labels), GoldBatch([labels])
        for logits, target, weights in (
                (out.ad_logits, gold.frames, [1.0]),
                (out.seq2_logits, gold.seq2, gold.weights),
                (out.seq3_logits, gold.seq3, gold.weights)):
            loss = L.softmax_cross_entropy(logits, target, weights)
            assert float(loss.data) < 1e-12

    @pytest.mark.parametrize("variant", ["2L", "3L"])
    def test_uniform_loss_is_the_loss_of_zero_heads(self, variant):
        m = build_model(small_config(variant), VOCAB)
        heads = [m.ad_head, m.l2_head] + ([m.l3_head] if variant == "3L"
                                          else [])
        for head in heads:
            for p in head.parameters():
                p.data[...] = 0.0       # every label equally likely
        gold = gold_labels(sentence(), VOCAB, variant)
        _, emb = embedded()
        loss = joint_loss(forward(m, emb, gold=gold, mode="train"), gold)
        np.testing.assert_allclose(float(loss.data), m.uniform_loss(),
                                   rtol=1e-12)

    def test_uniform_ad_over_16(self):
        vocab = LabelVocab(frames=tuple(f"F{i}" for i in range(16)),
                           element_types=("Goal", "Theme"))
        m = build_model(small_config(), vocab)
        for p in m.ad_head.parameters():
            p.data[...] = 0.0           # every frame equally likely
        s = sentence()
        s = AnnotatedSentence(s.id, s.tokens,
                              FrameAnnotation("F3", (0, 0), s.frame.elements))
        _, emb = embedded()
        out = forward(m, emb, gold=gold_labels(s, vocab, "3L"), mode="train")
        np.testing.assert_allclose(float(out.losses[0].data), np.log(16),
                                   atol=1e-9)

    def test_matches_hand_computed_sum(self):
        # Forward's own logits, spread by head weights drawn wide, scored
        # by the scalar-loop oracle.
        rng = np.random.default_rng(33)
        m = build_model(small_config(), VOCAB)
        for head in (m.ad_head, m.l2_head, m.l3_head):
            for p in head.parameters():
                p.data[...] = rng.normal(0, 2, p.data.shape)
        frame, seq2, seq3 = sentence_labels(sentence(), VOCAB, "3L")
        gold = GoldBatch([(frame, seq2, seq3)])
        _, emb = embedded()
        out = forward(m, emb, gold=gold, mode="train")
        ad_z = out.ad_logits.data[0]
        z2, z3 = out.seq2_logits.data[:, 0], out.seq3_logits.data[:, 0]
        assert np.ptp(ad_z) > 1.0
        expected = cross_entropy_oracle(softmax_oracle(ad_z.tolist()), frame)
        expected += np.mean([cross_entropy_oracle(
            softmax_oracle(z.tolist()), g) for z, g in zip(z2, seq2)])
        expected += np.mean([cross_entropy_oracle(
            softmax_oracle(z.tolist()), g) for z, g in zip(z3, seq3)])
        np.testing.assert_allclose(float(joint_loss(out, gold).data),
                                   expected, atol=1e-10)

    def test_length_mismatch(self):
        m = build_model(small_config(), VOCAB)
        _, emb = embedded()
        frame, seq2, seq3 = labels = sentence_labels(sentence(), VOCAB, "3L")
        out = forward(m, emb, gold=GoldBatch([labels]), mode="train")
        with pytest.raises(ValueError):
            joint_loss(out, GoldBatch([(frame, seq2[:-1], seq3)]))
        with pytest.raises(ValueError):
            joint_loss(out, GoldBatch([(frame, seq2[:-1], seq3[:-1])]))

    def test_scores_only_the_gold_its_forward_pass_was_given(self):
        # A train-mode output was teacher-forced on its own gold labels:
        # an equal GoldBatch that is another object is refused, and so
        # is an infer-mode output, which has no losses.
        m = build_model(small_config(), VOCAB)
        _, emb = embedded()
        labels = sentence_labels(sentence(), VOCAB, "3L")
        gold = GoldBatch([labels])
        out = forward(m, emb, gold=gold, mode="train")
        assert out.gold is gold and len(out.losses) == 3
        joint_loss(out, gold)
        with pytest.raises(ValueError):
            joint_loss(out, GoldBatch([labels]))
        infer = forward(m, emb, gold=gold, mode="infer")
        assert infer.gold is None and infer.losses is None
        for other in (gold, None):
            with pytest.raises(ValueError):
                joint_loss(infer, other)

    def test_gold_labels_is_a_batch_of_one(self):
        for variant in ("2L", "3L"):
            gold = gold_labels(sentence(), VOCAB, variant)
            frame, seq2, seq3 = sentence_labels(sentence(), VOCAB, variant)
            assert isinstance(gold, GoldBatch)
            assert gold.frames.tolist() == [frame]
            assert gold.lengths.tolist() == [len(seq2)]
            assert gold.seq2.T.tolist() == [list(seq2)]
            assert (gold.seq3 is None if seq3 is None
                    else gold.seq3.T.tolist() == [list(seq3)])

    def test_element_type_named_o_is_not_outside(self):
        # "O" names the outside label too, index 0 of vocab.ac_labels.
        s = AnnotatedSentence(
            id="o0", tokens=("take", "the", "book", "to", "the", "kitchen"),
            frame=FrameAnnotation("Bringing", (0, 0),
                                  (("O", (1, 2)), ("Goal", (3, 5)))))
        vocab = label_vocab([s])
        assert vocab.ac_labels == ("O", "Goal", "O")
        gold = gold_labels(s, vocab, "3L")
        assert gold.seq3[:, 0].tolist() == [0, 2, 2, 1, 1, 1]
        m = build_model(small_config(), vocab)
        labels = sentence_labels(s, vocab, "3L")
        parsed = decode_output(m, self.stub_output(m, labels), 0)
        assert parsed.elements == (("O", (1, 2)), ("Goal", (3, 5)))

    @pytest.mark.parametrize("variant", ["2L", "3L"])
    def test_gold_forms_give_the_same_loss(self, variant):
        # A GoldBatch and the same batch padded again teach and score
        # alike.
        sents = sentences_3_to_7()
        table = random_embeddings([t for s in sents for t in s.tokens], 6,
                                  seed=1)
        m = build_model(small_config(variant), VOCAB)
        emb, lengths, labels = batch_of(sents, table, variant)
        batch = GoldBatch(labels)
        np.testing.assert_array_equal(batch.lengths, lengths)

        def loss(emb, gold, lengths=None):
            return float(joint_loss(forward(m, emb, gold=gold, mode="train",
                                            lengths=lengths), gold).data)

        assert loss(emb, GoldBatch(labels), lengths) == loss(emb, batch,
                                                             batch.lengths)

    def test_mismatched_gold_lengths_raise_value_error(self):
        m = build_model(small_config(), VOCAB)
        _, emb = embedded()
        frame, seq2, seq3 = labels = sentence_labels(sentence(), VOCAB, "3L")
        out = forward(m, emb, gold=GoldBatch([labels]), mode="train")
        short = (frame, seq2[:-1], seq3[:-1])
        for bad in (GoldBatch([short]), GoldBatch([labels, labels])):
            with pytest.raises(ValueError):
                joint_loss(out, bad)
            with pytest.raises(ValueError):
                forward(m, emb, gold=bad, mode="train")
        with pytest.raises(ValueError):     # seq3 shorter than seq2
            GoldBatch([(frame, seq2, seq3[:-1])])
        with pytest.raises(ValueError):     # no type labels for layer 3
            joint_loss(out, GoldBatch([(frame, seq2, None)]))

    @pytest.mark.parametrize("field,value", [
        ("frame", 3), ("frame", -1), ("seq2", 3), ("seq2", -1),
        ("seq3", 3), ("seq3", -1)])
    def test_out_of_range_labels_raise_index_error(self, field, value):
        m = build_model(small_config(), VOCAB)      # 3 labels per head
        _, emb = embedded()
        labels = sentence_labels(sentence(), VOCAB, "3L")
        bad = dict(zip(("frame", "seq2", "seq3"), labels))
        bad[field] = value if field == "frame" else bad[field][:-1] + (value,)
        bad = GoldBatch([tuple(bad.values())])
        with pytest.raises(IndexError):
            forward(m, emb, gold=bad, mode="train")
        # The head's own cross-entropy, on forward's logits.
        out = forward(m, emb, gold=GoldBatch([labels]), mode="train")
        logits, target = {"frame": (out.ad_logits, bad.frames),
                          "seq2": (out.seq2_logits, bad.seq2),
                          "seq3": (out.seq3_logits, bad.seq3)}[field]
        with pytest.raises(IndexError):
            L.softmax_cross_entropy(logits, target, np.ones(target.shape))


class TestDecode:
    @staticmethod
    def output_from_labels(model, frame_idx, seq2_labels, seq3_idx=None):
        def onehot(size, idx):
            z = np.zeros(size)
            z[idx] = 10.0
            return z

        def steps(size, labels):    # (T, 1, size): a batch of one
            return ad.constant(np.array([onehot(size, i)
                                         for i in labels])[:, None])

        T = len(seq2_labels)
        return ModelOutput(
            lengths=np.array([T]),
            ad_logits=ad.constant(onehot(len(model.vocab.frames),
                                         frame_idx)[None]),
            seq2_logits=steps(len(model.seq2_alphabet), seq2_labels),
            seq2_labels=np.array(seq2_labels)[:, None],
            seq3_logits=None if seq3_idx is None else steps(
                len(model.vocab.ac_labels), seq3_idx))

    def test_gold_one_hots_decode_exactly(self):
        m = build_model(small_config(), VOCAB)
        out = self.output_from_labels(
            m, *sentence_labels(sentence(), VOCAB, "3L"))
        parsed = decode_output(m, out, 0)
        assert parsed == ParsedCommand("Bringing",
                                       (("Theme", (1, 2)), ("Goal", (3, 5))))

    def test_all_o_ignores_layer3(self):
        m = build_model(small_config(), VOCAB)
        o = VOCAB.iob.index("O")
        theme = VOCAB.ac_labels.index("Theme")
        out = self.output_from_labels(m, 0, [o] * 4, [theme] * 4)
        assert decode_output(m, out, 0).elements == ()

    def test_unanimous_o_span_dropped(self):
        m = build_model(small_config(), VOCAB)
        b, i = VOCAB.iob.index("B"), VOCAB.iob.index("I")
        out = self.output_from_labels(m, 0, [b, i, 0, 0], [0, 0, 0, 0])
        assert decode_output(m, out, 0).elements == ()

    def test_majority_vote_with_o_excluded(self):
        m = build_model(small_config(), VOCAB)
        b, i = VOCAB.iob.index("B"), VOCAB.iob.index("I")
        goal = VOCAB.ac_labels.index("Goal")
        out = self.output_from_labels(m, 0, [b, i, i], [0, 0, goal])
        assert decode_output(m, out, 0).elements == (("Goal", (0, 2)),)

    def test_majority_tie_lowest_index(self):
        m = build_model(small_config(), VOCAB)
        b, i = VOCAB.iob.index("B"), VOCAB.iob.index("I")
        goal = VOCAB.ac_labels.index("Goal")
        theme = VOCAB.ac_labels.index("Theme")
        out = self.output_from_labels(m, 0, [b, i], [theme, goal])
        # tie between Goal and Theme resolves to the lower index (Goal)
        assert decode_output(m, out, 0).elements == (("Goal", (0, 1)),)

    def test_argmax_invariance_under_row_shift(self):
        m = build_model(small_config(), VOCAB)
        out = self.output_from_labels(
            m, *sentence_labels(sentence(), VOCAB, "3L"))
        shifted = ModelOutput(
            lengths=out.lengths,
            ad_logits=ad.constant(out.ad_logits.data + 7.5),
            seq2_logits=ad.constant(out.seq2_logits.data + 3.0),
            seq2_labels=out.seq2_labels,
            seq3_logits=ad.constant(out.seq3_logits.data - 2.0))
        assert decode_output(m, out, 0) == decode_output(m, shifted, 0)

    def test_2l_typed_decode(self):
        m = build_model(small_config("2L"), VOCAB)
        out = self.output_from_labels(
            m, *sentence_labels(sentence(), VOCAB, "2L"))
        parsed = decode_output(m, out, 0)
        assert parsed.elements == (("Theme", (1, 2)), ("Goal", (3, 5)))


class TestTraining:
    @pytest.mark.parametrize("variant,attention", [
        ("2L", True), ("2L", False), ("3L", True), ("3L", False)])
    def test_gradients_match_finite_differences(self, variant, attention):
        m = build_model(small_config(variant, attention), VOCAB)
        _, emb = embedded()
        gold = gold_labels(sentence(), VOCAB, variant)

        def fwd():
            return joint_loss(forward(m, emb, gold=gold, mode="train"), gold)

        # subsampled heavily here; the acceptance suite runs the full check
        assert grad_check(fwd, m.parameters(), max_coords=6, seed=1) < 1e-4

    def test_loss_decreases_90_percent(self):
        m = build_model(small_config(), VOCAB)
        _, emb = embedded()
        gold = gold_labels(sentence(), VOCAB, "3L")
        opt = Adam(m.parameters(), lr=5e-3)
        first = None
        for _ in range(200):
            out = forward(m, emb, gold=gold, mode="train")
            loss = joint_loss(out, gold)
            if first is None:
                first = float(loss.data)
            ad.backward(loss)
            opt.step()
        final = float(joint_loss(
            forward(m, emb, gold=gold, mode="train"), gold).data)
        assert final <= 0.1 * first

    def test_attention_params_get_gradient_when_on(self):
        m = build_model(small_config(attention=True), VOCAB)
        _, emb = embedded()
        gold = gold_labels(sentence(), VOCAB, "3L")
        for p in m.parameters():
            p.zero_grad()
        loss = joint_loss(forward(m, emb, gold=gold, mode="train"), gold)
        ad.backward(loss)
        att = [p for p in m.parameters() if "att" in p.name]
        assert att and all(np.any(p.grad != 0) for p in att)

    def test_one_draw_gives_the_per_step_dropout_masks(self):
        shape = (7, 3, 11)
        block = _dropout_mask(shape, 0.3, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        steps = [_dropout_mask(shape[1:], 0.3, rng) for _ in range(shape[0])]
        np.testing.assert_array_equal(block, np.array(steps))

    def test_dropout_changes_training_forward_only(self):
        m = build_model(small_config(dropout=0.5), VOCAB)
        _, emb = embedded()
        gold = gold_labels(sentence(), VOCAB, "3L")
        rng = np.random.default_rng(0)
        a = forward(m, emb, gold=gold, mode="train", dropout_rng=rng)
        b = forward(m, emb, gold=gold, mode="train", dropout_rng=rng)
        assert not np.array_equal(a.ad_logits.data, b.ad_logits.data)
        c = forward(m, emb, mode="infer")
        d = forward(m, emb, mode="infer")
        np.testing.assert_array_equal(c.ad_logits.data, d.ad_logits.data)



# The stage of `forward` that reads a parameter, by its name's prefix, and
# the stages each stage feeds in train mode (the teacher-forced layer 3
# reads the gold labels, not layer 2).
STAGE_OF_PREFIX = {"layer1": "trunk", "att1": "trunk", "ad_head": "ad_head",
                   "layer2": "layer2", "highway": "layer3", "att3": "layer3",
                   "layer3": "layer3"}
DOWNSTREAM = {"trunk": ("trunk", "ad_head", "layer2", "layer3"),
              "ad_head": ("ad_head",), "layer2": ("layer2",),
              "layer3": ("layer3",)}


def layer_calls(monkeypatch, m):
    """A list that records, from now on, each call of the fused layers
    `forward` runs, named by the part of m it reads."""
    owner = {id(part): name for name, part in vars(m).items()}
    calls = []

    def counting(fn):
        def wrapper(*args):
            part = args[1] if fn.__name__ in ("lstm_run", "bilstm_forward",
                                              "highway", "affine") else args[2]
            calls.append(f"{fn.__name__}:{owner[id(part)]}")
            return fn(*args)
        return wrapper

    for name in ("bilstm_forward", "lstm_run", "attention", "highway",
                 "affine"):
        monkeypatch.setattr(L, name, counting(getattr(L, name)))
    return calls


def stage_calls(m, stages):
    """The layer calls of the given stages of a train-mode forward."""
    att = m.config.attention
    calls = {"trunk": ["bilstm_forward:l1", "lstm_run:l1"]
                       + ["attention:att1"] * (2 * att),
             "ad_head": ["affine:ad_head"],
             "layer2": ["lstm_run:l2_cell", "affine:l2_head"],
             "layer3": ["highway:hw"] + ["attention:att3"] * att + [
                 "lstm_run:l3_cell", "affine:l3_head"]}
    return sorted(c for s in stages for c in calls[s])


class TestStageReuse:
    """While grad_check perturbs weights, `forward` reruns only the
    stages a changed parameter feeds (ad.reusing)."""

    def build(self, variant, attention, dropout=0.0):
        m = build_model(small_config(variant, attention, dropout), VOCAB)
        _, emb = embedded()
        return m, emb, gold_labels(sentence(), VOCAB, variant)

    @pytest.mark.parametrize("variant,attention", PRESETS)
    def test_grad_check_gives_the_same_losses_with_reuse_held_off(
            self, monkeypatch, variant, attention):
        # Every forward pass the check makes, and so its result, is the
        # same to the bit whether stages are reused or not.
        m, emb, gold = self.build(variant, attention)

        def run():
            losses = []

            def fwd():
                losses.append(joint_loss(forward(m, emb, gold=gold,
                                                 mode="train"), gold).data)
                return ad.Tensor(losses[-1])

            return grad_check(fwd, m.parameters(), max_coords=4,
                              seed=3), losses

        err, losses = run()
        with monkeypatch.context() as mp:
            mp.setattr(ad, "reusing", contextlib.nullcontext)
            err_off, losses_off = run()
        assert err == err_off
        assert len(losses) == len(losses_off) > 4 * len(m.parameters())
        assert losses == losses_off

    @pytest.mark.parametrize("variant,attention", PRESETS)
    def test_a_bump_reruns_its_stage_and_the_stages_it_feeds(
            self, monkeypatch, variant, attention):
        m, emb, gold = self.build(variant, attention)
        stages = [s for s in DOWNSTREAM["trunk"]
                  if s != "layer3" or variant == "3L"]
        calls = layer_calls(monkeypatch, m)
        with ad.no_grad(), ad.reusing():
            forward(m, emb, gold=gold, mode="train")
            assert sorted(calls) == stage_calls(m, stages)
            for p in m.parameters():
                calls.clear()
                forward(m, emb, gold=gold, mode="train")
                assert calls == []      # nothing changed: nothing reruns
                p.version += 1
                forward(m, emb, gold=gold, mode="train")
                stage = STAGE_OF_PREFIX[p.name.partition(".")[0]]
                assert sorted(calls) == stage_calls(m, [
                    s for s in DOWNSTREAM[stage] if s in stages]), p.name

    @pytest.mark.parametrize("variant,attention", PRESETS)
    def test_a_bump_reruns_only_the_losses_of_the_heads_it_feeds(
            self, monkeypatch, variant, attention):
        # Each head's loss is a stage of forward whose key hangs off its
        # logits' stage: a layer-3 weight reruns loss.layer3 alone.
        m, emb, gold = self.build(variant, attention)
        head_of = {id(gold.frames): "ad_head", id(gold.seq2): "layer2",
                   id(gold.seq3): "layer3"}
        calls = []
        real = L.softmax_cross_entropy

        def counting(logits, target, weights):
            calls.append(head_of[id(target)])
            return real(logits, target, weights)

        monkeypatch.setattr(L, "softmax_cross_entropy", counting)
        heads = ["ad_head", "layer2"] + ["layer3"] * (variant == "3L")
        with ad.no_grad(), ad.reusing():
            forward(m, emb, gold=gold, mode="train")
            assert sorted(calls) == heads
            for p in m.parameters():
                calls.clear()
                forward(m, emb, gold=gold, mode="train")
                assert calls == []
                p.version += 1
                forward(m, emb, gold=gold, mode="train")
                stage = STAGE_OF_PREFIX[p.name.partition(".")[0]]
                assert sorted(calls) == [h for h in heads
                                         if h in DOWNSTREAM[stage]], p.name

    @pytest.mark.parametrize("variant,attention", PRESETS)
    def test_every_stage_entry_is_a_key_and_its_output(
            self, monkeypatch, variant, attention):
        m, emb, gold = self.build(variant, attention)
        kept = []
        real = ad.reusing

        @contextlib.contextmanager
        def keeping():
            with real():
                yield
                kept.append(dict(ad.stages))

        monkeypatch.setattr(ad, "reusing", keeping)
        grad_check(lambda: joint_loss(forward(m, emb, gold=gold,
                                              mode="train"), gold),
                   m.parameters(), max_coords=2, seed=3)
        (stages,) = kept
        heads = ["ad", "layer2"] + ["layer3"] * (variant == "3L")
        assert set(stages) == {"trunk", "ad_head", "layer2", *heads[2:]} | {
            f"loss.{h}" for h in heads}
        for name, entry in stages.items():
            assert type(entry) is tuple and len(entry) == 2, name
            key, output = entry
            assert type(key) is tuple and len(key) == 2, name
        for h in heads:
            assert stages[f"loss.{h}"][1].data.ndim == 0

    @pytest.mark.parametrize("variant,attention", PRESETS)
    def test_infer_mode_reruns_every_stage(self, monkeypatch, variant,
                                           attention):
        # In infer mode layer 2's logits are constants, so no gradient
        # check reads them: each forward runs every stage (greedy layer
        # 2 makes no layer call) and keeps nothing for reuse.
        m, emb, _ = self.build(variant, attention)
        stages = [s for s in ("trunk", "ad_head", "layer3")
                  if s != "layer3" or variant == "3L"]
        calls = layer_calls(monkeypatch, m)
        with ad.no_grad(), ad.reusing():
            for p in [None] + m.parameters():
                if p is not None:
                    p.version += 1
                calls.clear()
                forward(m, emb, mode="infer")
                assert sorted(calls) == stage_calls(m, stages)
                assert ad.stages == {}

    @pytest.mark.parametrize("variant,attention", PRESETS)
    def test_outside_grad_check_an_in_place_edit_changes_the_output(
            self, variant, attention):
        m, emb, gold = self.build(variant, attention)
        rng = np.random.default_rng(4)
        with ad.no_grad():
            for p in m.parameters():
                before = joint_loss(forward(m, emb, gold=gold, mode="train"),
                                    gold).data
                p.data += rng.normal(0.0, 0.5, p.data.shape)
                after = joint_loss(forward(m, emb, gold=gold, mode="train"),
                                   gold).data
                assert after != before, p.name

    @pytest.mark.parametrize("variant,attention", PRESETS)
    def test_with_a_dropout_rng_nothing_is_reused(self, monkeypatch,
                                                   variant, attention):
        m, emb, gold = self.build(variant, attention, dropout=0.3)
        stages = [s for s in DOWNSTREAM["trunk"]
                  if s != "layer3" or variant == "3L"]
        calls = layer_calls(monkeypatch, m)
        rng = np.random.default_rng(0)
        with ad.no_grad(), ad.reusing():
            for _ in range(2):
                calls.clear()
                a = joint_loss(forward(m, emb, gold=gold, mode="train",
                                       dropout_rng=rng), gold)
                assert sorted(calls) == stage_calls(m, stages)
            b = joint_loss(forward(m, emb, gold=gold, mode="train",
                                   dropout_rng=np.random.default_rng(0)), gold)
        with ad.no_grad():
            c = joint_loss(forward(m, emb, gold=gold, mode="train",
                                   dropout_rng=np.random.default_rng(0)), gold)
        assert b.data == c.data != a.data

    @pytest.mark.parametrize("variant,attention", PRESETS)
    def test_stages_partition_the_parameters(self, variant, attention):
        m = build_model(small_config(variant, attention), VOCAB)
        listed = [(s, p) for s, ps in m.stage_params.items() for p in ps]
        assert sorted(p.name for _, p in listed) == sorted(
            p.name for p in m.parameters())
        assert all(STAGE_OF_PREFIX[p.name.partition(".")[0]] == s
                   for s, p in listed)

    @pytest.mark.parametrize("variant,attention", PRESETS)
    def test_parameters_are_the_stages_sorted_by_name(self, variant,
                                                      attention):
        m = build_model(small_config(variant, attention), VOCAB)
        params = m.parameters()
        names = [p.name for p in params]
        assert names == sorted(names) and len(set(names)) == len(names)
        assert {id(p) for p in params} == {
            id(p) for ps in m.stage_params.values() for p in ps}

def reachable(loss):
    """Every tensor the graph of loss reaches, loss included."""
    seen = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


class TestGraphSize:
    def test_3l_att_training_graph_under_50_nodes_per_token(self):
        # Each layer op adds one or two nodes; building gates and
        # attention scores from scalar ops takes several times the bound.
        m = build_model(small_config(dropout=0.3), VOCAB)
        _, emb = embedded()
        gold = gold_labels(sentence(), VOCAB, "3L")
        loss = joint_loss(forward(m, emb, gold=gold, mode="train",
                                  dropout_rng=np.random.default_rng(0)),
                          gold)
        assert len(reachable(loss)) / emb.shape[0] < 50


def batch_of(sentences, table, variant):
    """Packed embeddings, lengths and each sentence's gold label triple
    of a batch."""
    embs = [embed_sentence(table, list(s.tokens)) for s in sentences]
    return (np.concatenate(embs), [len(e) for e in embs],
            [sentence_labels(s, VOCAB, variant) for s in sentences])


def sentences_3_to_7():
    """Four sentences of 3, 4, 6 and 7 tokens, in that order."""
    return [
        AnnotatedSentence("b0", ("go", "to", "kitchen"), FrameAnnotation(
            "Motion", (0, 0), (("Goal", (1, 2)),))),
        AnnotatedSentence("b1", ("take", "the", "book", "please"),
                          FrameAnnotation("Taking", (0, 0),
                                          (("Theme", (1, 2)),))),
        sentence(),
        AnnotatedSentence(
            "b3", ("bring", "the", "red", "book", "to", "the", "bed"),
            FrameAnnotation("Bringing", (0, 0),
                            (("Theme", (1, 3)), ("Goal", (4, 6))))),
    ]


ARCHITECTURES = [("2L", True), ("2L", False), ("3L", True), ("3L", False)]


class TestBatch:
    """A right-padded batch computes each sentence exactly as the
    one-sentence call does: padding never reaches a sentence's outputs,
    and the batch loss is the mean of the sentences' losses."""

    def test_without_attention_ad_reads_the_final_encoder_states(self):
        # The forward state at each sentence's last token and the
        # backward state at its first, not at the padded batch's.
        sents = sentences_3_to_7()
        table = random_embeddings([t for s in sents for t in s.tokens], 6,
                                  seed=1)
        m = build_model(small_config("2L", attention=False), VOCAB)
        emb, lengths, _ = batch_of(sents, table, "2L")
        out = forward(m, emb, lengths=lengths)
        H, start = m.config.hidden_size, 0
        for b, n in enumerate(lengths):
            h1 = L.bilstm_forward(ad.constant(emb[start:start + n, None]),
                                  m.l1).data[:, 0]
            start += n
            pooled = np.concatenate([h1[n - 1, :H], h1[0, H:]])
            np.testing.assert_allclose(
                out.ad_logits.data[b],
                m.ad_head.W.data @ pooled + m.ad_head.b.data, atol=1e-12)

    @pytest.mark.parametrize("variant,attention", ARCHITECTURES)
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_rows_match_one_sentence_runs(self, variant, attention, mode):
        sents = sentences_3_to_7()
        table = random_embeddings([t for s in sents for t in s.tokens], 6,
                                  seed=1)
        m = build_model(small_config(variant, attention), VOCAB)
        emb, lengths, golds = batch_of(sents, table, variant)
        out = forward(m, emb, gold=GoldBatch(golds), mode=mode,
                      lengths=lengths)
        T = max(lengths)
        assert out.seq2_logits.data.shape[:2] == (T, 4)
        start = 0
        for b, (n, gold) in enumerate(zip(lengths, golds)):
            one = forward(m, emb[start:start + n], gold=GoldBatch([gold]),
                          mode=mode)
            start += n
            np.testing.assert_allclose(out.ad_logits.data[b],
                                       one.ad_logits.data[0], atol=1e-12)
            np.testing.assert_allclose(out.seq2_logits.data[:n, b],
                                       one.seq2_logits.data[:, 0], atol=1e-12)
            np.testing.assert_array_equal(out.seq2_labels[:n, b],
                                          one.seq2_labels[:, 0])
            if variant == "3L":
                np.testing.assert_allclose(out.seq3_logits.data[:n, b],
                                           one.seq3_logits.data[:, 0],
                                           atol=1e-12)
            for key, w in (out.attention_maps or {}).items():
                w1 = one.attention_maps[key][0]
                np.testing.assert_allclose(w[b, :w1.shape[0], :n], w1,
                                           atol=1e-12)
                assert np.all(w[b, :, n:] == 0.0)   # padded keys

    @pytest.mark.parametrize("variant,attention", ARCHITECTURES)
    def test_gradient_is_mean_of_sentence_gradients(self, variant,
                                                    attention):
        sents = sentences_3_to_7()
        table = random_embeddings([t for s in sents for t in s.tokens], 6,
                                  seed=1)
        m = build_model(small_config(variant, attention), VOCAB)
        emb, lengths, golds = batch_of(sents, table, variant)
        for p in m.parameters():
            p.zero_grad()
        batch = GoldBatch(golds)
        loss = joint_loss(forward(m, emb, gold=batch, mode="train",
                                  lengths=lengths), batch)
        ad.backward(loss)
        batch_grads = {p.name: p.grad.copy() for p in m.parameters()}
        mean = {name: np.zeros_like(g) for name, g in batch_grads.items()}
        losses = []
        start = 0
        for n, labels in zip(lengths, golds):
            for p in m.parameters():
                p.zero_grad()
            gold = GoldBatch([labels])
            one = joint_loss(forward(m, emb[start:start + n], gold=gold,
                                     mode="train"), gold)
            start += n
            ad.backward(one)
            losses.append(float(one.data))
            for p in m.parameters():
                mean[p.name] += p.grad / len(sents)
        np.testing.assert_allclose(float(loss.data), np.mean(losses),
                                   atol=1e-12)
        for name, g in batch_grads.items():
            np.testing.assert_allclose(g, mean[name], atol=1e-12, rtol=0,
                                       err_msg=name)

    @pytest.mark.parametrize("variant,attention", ARCHITECTURES)
    def test_gradients_of_padded_batch_match_finite_differences(
            self, variant, attention):
        sents = sentences_3_to_7()[:3]      # 3, 4 and 6 tokens
        table = random_embeddings([t for s in sents for t in s.tokens], 6,
                                  seed=1)
        m = build_model(small_config(variant, attention), VOCAB)
        emb, lengths, golds = batch_of(sents, table, variant)
        batch = GoldBatch(golds)

        def fwd():
            return joint_loss(forward(m, emb, gold=batch, mode="train",
                                      lengths=lengths), batch)

        assert grad_check(fwd, m.parameters(), max_coords=6, seed=2) < 1e-4

    def test_lengths_must_cover_the_tokens(self):
        m = build_model(small_config(), VOCAB)
        _, emb = embedded()
        for lengths in ([2, 3], [6, 0], [7]):
            with pytest.raises(ValueError):
                forward(m, emb, mode="infer", lengths=lengths)


class TestBatchGraphSize:
    def test_3l_att_training_batch_under_6_nodes_per_token(self):
        # A batch shares every node of a step among its rows; at preset
        # sizes 8 sentences of one graph need a sixth of the nodes per
        # token that one sentence alone does.
        from framecmd.cli import build_configs, load_config
        from framecmd.synth import generate_synthetic
        model_cfg, _ = build_configs(load_config("3l_att"))
        sents = generate_synthetic(seed=4, n=8)
        vocab = label_vocab(sents)
        table = random_embeddings([t for s in sents for t in s.tokens],
                                  model_cfg.embedding_dim, seed=4)
        m = build_model(model_cfg, vocab)
        assert m.config.dropout > 0
        embs = [embed_sentence(table, list(s.tokens)) for s in sents]
        golds = GoldBatch(sentence_labels(s, vocab, "3L") for s in sents)
        loss = joint_loss(forward(m, np.concatenate(embs), gold=golds,
                                  mode="train", lengths=[len(e) for e in embs],
                                  dropout_rng=np.random.default_rng(0)),
                          golds)
        assert len(reachable(loss)) / sum(len(e) for e in embs) < 6

    def test_3l_att_graph_size_does_not_depend_on_length(self):
        # Every op, each LSTM run included, is one node per sequence,
        # whatever its length.
        m = build_model(small_config(), VOCAB)
        counts = []
        for n in (5, 6, 7):
            s = AnnotatedSentence(
                "s", ("go",) * (n - 2) + ("to", "kitchen"),
                FrameAnnotation("Motion", (0, 0), (("Goal", (n - 1, n - 1)),)))
            _, emb = embedded(list(s.tokens))
            gold = gold_labels(s, VOCAB, "3L")
            loss = joint_loss(forward(m, emb, gold=gold, mode="train"), gold)
            counts.append(sum(t.bwd is not None for t in reachable(loss)))
        assert np.diff(counts).tolist() == [0, 0]


class TestPredict:
    def test_overfit_parses_held_in_command(self, overfit_bundle):
        model, table = overfit_bundle["model"], overfit_bundle["table"]
        parsed = predict(model, table, ["go", "to", "the", "kitchen"])
        assert parsed == ParsedCommand("Motion", (("Goal", (1, 3)),))

    def test_empty_tokens(self):
        m = build_model(small_config(), VOCAB)
        table, _ = embedded()
        with pytest.raises(ValueError):
            predict(m, table, [])

    @pytest.mark.parametrize("variant", ["2L", "3L"])
    def test_returns_the_forward_pass_attention(self, variant):
        table, emb = embedded()
        toks = list(sentence().tokens)
        m = build_model(small_config(variant), VOCAB)
        parsed = predict(m, table, toks)
        with ad.no_grad():
            maps = forward(m, emb, mode="infer").attention_maps
        assert set(parsed.attention) == set(maps)
        for key, weights in maps.items():     # the batch's only sentence
            np.testing.assert_array_equal(parsed.attention[key], weights[0])
        plain = ParsedCommand(parsed.frame_type, parsed.elements)
        assert parsed == plain and hash(parsed) == hash(plain)
        m = build_model(small_config(variant, attention=False), VOCAB)
        assert predict(m, table, toks).attention is None

    @pytest.mark.parametrize("variant,attention", ARCHITECTURES)
    @pytest.mark.parametrize("chunk", [32, 3])
    def test_predict_many_matches_one_sentence_predict(self, variant,
                                                       attention, chunk,
                                                       monkeypatch):
        sents = sentences_3_to_7()
        table = random_embeddings([t for s in sents for t in s.tokens], 6,
                                  seed=1)
        m = build_model(small_config(variant, attention), VOCAB)
        monkeypatch.setattr(model_module, "PREDICT_CHUNK", chunk)
        many = predict_many(m, table, [list(s.tokens) for s in sents])
        assert len(many) == len(sents)
        for s, parsed in zip(sents, many):
            one = predict(m, table, list(s.tokens))
            assert parsed == one
            if attention:
                assert set(parsed.attention) == set(one.attention)
                for key, w in one.attention.items():
                    np.testing.assert_allclose(parsed.attention[key], w,
                                               atol=1e-12)
            else:
                assert parsed.attention is None
        assert predict_many(m, table, []) == []

    def test_prediction_deterministic(self):
        m = build_model(small_config(), VOCAB)
        table, _ = embedded()
        toks = list(sentence().tokens)
        assert predict(m, table, toks) == predict(m, table, toks)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = build_model(small_config(), VOCAB)
        table, _ = embedded()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, table)
        m2, t2 = load_checkpoint(path)
        assert m2.config == m.config
        assert m2.vocab == m.vocab
        for a, b in zip(sorted(m.parameters(), key=lambda p: p.name),
                        sorted(m2.parameters(), key=lambda p: p.name)):
            np.testing.assert_array_equal(a.data, b.data)
        toks = list(sentence().tokens)
        assert predict(m2, t2, toks) == predict(m, table, toks)

    def test_truncated_file(self, tmp_path):
        m = build_model(small_config(), VOCAB)
        table, _ = embedded()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, table)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 64])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_failed_save_keeps_the_old_checkpoint(self, tmp_path,
                                                  monkeypatch, capsys):
        # The writer of every file: a write that fails leaves the old
        # file and no temp file, whether save_checkpoint writes through
        # a symlink or the CLI writes any of its files.
        m = build_model(small_config(), VOCAB)
        table, _ = embedded()
        path, link = tmp_path / "m.ckpt", tmp_path / "link.ckpt"
        save_checkpoint(path, m, table)
        link.symlink_to(path.name)
        before = path.read_bytes()
        failing = []    # the files whose writes fail

        class DiskFull(io.FileIO):      # fails after the first byte
            def write(self, data):
                if self.name not in failing:
                    return super().write(data)
                super().write(bytes(data)[:1])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fail(victim):
            failing[:] = [f"{os.path.realpath(victim)}.{os.getpid()}.tmp"]

        monkeypatch.setattr(model_module, "open", DiskFull, raising=False)
        for p in m.parameters():
            p.data = p.data + 1.0
        fail(path)
        with pytest.raises(OSError):
            save_checkpoint(link, m, table)
        assert path.read_bytes() == before
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "link.ckpt", "m.ckpt"]
        failing.clear()     # the target is replaced, not the link
        save_checkpoint(link, m, table)
        assert link.is_symlink() and path.read_bytes() != before

        small = [f"--override={kv}" for kv in (
            "epochs=1", "hidden_size=4", "decoder_hidden=4",
            "embedding_dim=8", "label_embedding_dim=3")]
        train = ["train", "--corpus", str(tmp_path / "c.jsonl"), "--config",
                 "2l_no_att", "--out", str(tmp_path / "t.ckpt")] + small
        gen = ["gen-corpus", "--n", "12", "--out", str(tmp_path / "c.jsonl")]
        ev = ["eval", "--corpus", str(tmp_path / "c.jsonl"), "--ckpt",
              str(tmp_path / "t.ckpt"), "--out", str(tmp_path / "e.json")]
        # In this order, each run finds the files it reads.
        for argv, victim in [(gen, "c.jsonl"), (gen, "c.map.json"),
                             (train, "t.ckpt"), (train, "t.ckpt.history.json"),
                             (ev, "e.json"), (ev, "e.json.txt")]:
            victim = tmp_path / victim
            victim.write_bytes(b"an earlier file")
            fail(victim)
            capsys.readouterr()
            assert cli.main(argv) == 2, victim
            assert capsys.readouterr().err == (
                f"error: cannot write {victim}: {os.strerror(errno.ENOSPC)}\n")
            assert victim.read_bytes() == b"an earlier file"
            assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("variant, attention", PRESETS)
    def test_load_draws_no_initial_values(self, tmp_path, monkeypatch,
                                          variant, attention):
        m = build_model(ModelConfig(variant=variant, attention=attention),
                        VOCAB)
        table = random_embeddings(["go", "to", "the", "kitchen"], dim=50,
                                  seed=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, table)
        made = []
        real = np.random.SeedSequence

        def counting(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        m2, t2 = load_checkpoint(path)
        assert made == []
        build_model(m.config, VOCAB)        # the count sees a seeded build
        assert made
        saved = {p.name: p.data.tobytes() for p in m.parameters()}
        assert {p.name: p.data.tobytes() for p in m2.parameters()} == saved
        assert t2.dim == table.dim
        assert ({k: v.tobytes() for k, v in t2.vectors.items()}
                == {k: v.tobytes() for k, v in table.vectors.items()})
        assert t2.unk_vector.tobytes() == table.unk_vector.tobytes()

    @pytest.mark.parametrize("scale", [np.nan, np.inf, 1e200])
    def test_save_refuses_weights_training_cannot_produce(self, tmp_path,
                                                          scale):
        # 1e200 is finite, but its square overflows the parameter norm
        # that training checks after each epoch.
        m = build_model(small_config(), VOCAB)
        table, _ = embedded()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, table)
        before = path.read_bytes()
        m.ad_head.W.data[0, 0] = scale
        with pytest.raises(CheckpointError, match="parameter"):
            save_checkpoint(path, m, table)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"\x00\x01\x02 not a checkpoint\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
