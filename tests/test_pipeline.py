import random
from dataclasses import replace

import numpy as np
import pytest

from framecmd.corpus import AnnotatedSentence, FrameAnnotation, label_vocab
from framecmd.embeddings import embed_sentence, random_embeddings
from framecmd.model import (ModelConfig, ParsedCommand, build_model, forward,
                            gold_labels, joint_loss)
from framecmd import pipeline
from framecmd.pipeline import (ChainMetrics, StageMetrics, TrainConfig,
                               cross_validate, evaluate, evaluate_stagewise,
                               metrics_to_dict, report, span_f1, train)
from framecmd.synth import demo_map, generate_synthetic


def gold_stub(s):
    return ParsedCommand(s.frame.frame_type, tuple(s.frame.elements))


class TestSpanF1:
    def test_worked_example(self):
        gold = {("Goal", (1, 3)), ("Theme", (4, 4))}
        pred = {("Goal", (1, 3))}
        p, r, f1 = span_f1(gold, pred)
        assert p == 1.0
        assert r == 0.5
        np.testing.assert_allclose(f1, 2 / 3, atol=1e-12)

    def test_both_empty(self):
        assert span_f1(set(), set()) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        assert span_f1({(0, 1)}, {(2, 3)}) == (0.0, 0.0, 0.0)

    def test_precision_recall_swap(self):
        gold = {(0, 1), (2, 3), (5, 5)}
        pred = {(0, 1)}
        p1, r1, _ = span_f1(gold, pred)
        p2, r2, _ = span_f1(pred, gold)
        assert (p1, r1) == (r2, p2)

    def test_against_set_oracle(self):
        rng = random.Random(3)
        universe = [(a, a + w) for a in range(6) for w in range(3)]
        for _ in range(200):
            gold = set(rng.sample(universe, rng.randint(0, 6)))
            pred = set(rng.sample(universe, rng.randint(0, 6)))
            p, r, f1 = span_f1(gold, pred)
            tp = len(gold & pred)
            ep = tp / len(pred) if pred else (1.0 if not gold else 0.0)
            er = tp / len(gold) if gold else (1.0 if not pred else 0.0)
            ef = (2 * ep * er / (ep + er)) if ep + er else 0.0
            if not gold and not pred:
                ep = er = ef = 1.0
            np.testing.assert_allclose((p, r, f1), (ep, er, ef), atol=1e-12)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(11, 30)


class TestEvaluateStagewise:

    def test_gold_stub_is_perfect(self, corpus):
        m = evaluate_stagewise(gold_stub, corpus)
        assert (m.ad_f1, m.ai_f1, m.ac_f1) == (1.0, 1.0, 1.0)
        assert m.counts["ad"] == m.counts["ai"] == m.counts["ac"] == 30

    def test_frame_breaking_stub_gives_none_sentinels(self, corpus):
        def stub(s):
            return ParsedCommand("Nonexistent", tuple(s.frame.elements))

        m = evaluate_stagewise(stub, corpus)
        assert m.ad_f1 == 0.0
        assert m.ai_f1 is None
        assert m.ac_f1 is None
        assert m.counts == {"ad": 30, "ai": 0, "ac": 0}

    def test_spans_right_types_wrong(self, corpus):
        # correct frame and boundaries, every type wrong: AD=AI=1, AC=0
        def stub(s):
            return ParsedCommand(
                s.frame.frame_type,
                tuple(("Wrong", span) for _, span in s.frame.elements))

        m = evaluate_stagewise(stub, corpus)
        assert (m.ad_f1, m.ai_f1) == (1.0, 1.0)
        assert m.ac_f1 == 0.0

    def test_conditioning_pools_monotone(self, corpus):
        rng = random.Random(5)

        def noisy(s):
            if rng.random() < 0.4:
                return ParsedCommand("Nonexistent", ())
            if rng.random() < 0.5:
                return ParsedCommand(s.frame.frame_type, ())
            return gold_stub(s)

        m = evaluate_stagewise(noisy, corpus)
        assert m.counts["ac"] <= m.counts["ai"] <= m.counts["ad"]

    def test_ai_pool_excludes_frame_errors(self, corpus):
        # wrong frame on half the sentences; AI judged only on the
        # remainder, where the stub is span-perfect
        wrong = {s.id for i, s in enumerate(corpus) if i % 2 == 0}

        def stub(s):
            if s.id in wrong:
                return ParsedCommand("Nonexistent", ())
            return gold_stub(s)

        m = evaluate_stagewise(stub, corpus)
        assert m.counts["ai"] == len(corpus) - len(wrong)
        assert m.ai_f1 == 1.0

    def test_empty_test_set(self):
        with pytest.raises(ValueError):
            evaluate_stagewise(gold_stub, [])


@pytest.fixture(scope="module")
def setup():
    corpus = generate_synthetic(13, 20)
    vocab = label_vocab(corpus)
    table = random_embeddings([t for s in corpus for t in s.tokens],
                              dim=8, seed=0)
    cfg = ModelConfig(variant="3L", attention=True, embedding_dim=8,
                      hidden_size=6, decoder_hidden=6, attention_size=4,
                      label_embedding_dim=3, dropout=0.1, seed=3)
    return corpus, vocab, table, cfg


class TestTrain:

    def test_history_length_and_determinism(self, setup):
        corpus, vocab, table, cfg = setup
        tc = TrainConfig(epochs=3, batch_size=4, lr=1e-3, patience=0, seed=9)

        def run():
            model = build_model(cfg, vocab)
            return train(model, table, corpus, tc), model

        h1, m1 = run()
        h2, m2 = run()
        assert len(h1) == 3
        assert h1 == h2
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_loss_goes_down(self, setup):
        corpus, vocab, table, cfg = setup
        model = build_model(cfg, vocab)
        tc = TrainConfig(epochs=12, batch_size=4, lr=5e-3, patience=0, seed=1)
        history = train(model, table, corpus, tc)
        assert history[-1] < history[0]

    def test_early_stopping_caps_epochs(self, setup):
        corpus, vocab, table, cfg = setup
        model = build_model(cfg, vocab)
        # lr 0 never improves the held-out loss, so training stops after
        # patience + 1 epochs
        tc = TrainConfig(epochs=50, batch_size=4, lr=0.0, patience=2, seed=1)
        history = train(model, table, corpus, tc)
        assert len(history) <= 4

    @pytest.mark.parametrize("poison", ["nan", "lr"])
    def test_divergence_stops_before_the_step(self, setup, poison):
        """A NaN weight makes the first batch loss NaN; lr 1e9 leaves
        every value finite but blows the loss up past the bound."""
        corpus, vocab, table, cfg = setup
        model = build_model(cfg, vocab)
        lr = 1e-3
        if poison == "nan":
            model.parameters()[0].data[0] = np.nan
        else:
            lr = 1e9
        with pytest.raises(pipeline.TrainingDiverged, match="diverged"):
            train(model, table, corpus, TrainConfig(epochs=3, batch_size=4,
                                                    lr=lr, patience=0))

    def test_empty_training_set(self, setup):
        _, vocab, table, cfg = setup
        model = build_model(cfg, vocab)
        with pytest.raises(ValueError):
            train(model, table, [], TrainConfig())

    def test_one_graph_per_batch(self, setup, monkeypatch):
        corpus, vocab, table, cfg = setup
        calls = []
        original = pipeline.forward

        def counting(model, embedded, **kwargs):
            calls.append(list(kwargs["lengths"]))
            return original(model, embedded, **kwargs)

        monkeypatch.setattr(pipeline, "forward", counting)
        tc = TrainConfig(epochs=2, batch_size=8, lr=1e-3, patience=0, seed=9)
        train(build_model(cfg, vocab), table, corpus, tc)
        # 20 sentences in batches of 8, 8 and 4, per epoch
        assert [len(c) for c in calls] == [8, 8, 4] * 2
        assert sum(map(sum, calls)) == 2 * sum(len(s.tokens) for s in corpus)

    def test_history_is_mean_sentence_loss(self, setup):
        corpus, vocab, table, cfg = setup
        model = build_model(replace(cfg, dropout=0.0), vocab)
        # lr 0 leaves the weights as built, so epoch 1's mean can be
        # recomputed one sentence at a time
        tc = TrainConfig(epochs=1, batch_size=8, lr=0.0, patience=0, seed=9)
        history = train(model, table, corpus, tc)
        losses = []
        for s in corpus:
            gold = gold_labels(s, vocab, "3L")
            out = forward(model, embed_sentence(table, list(s.tokens)),
                          gold=gold, mode="train")
            losses.append(float(joint_loss(out, gold).data))
        np.testing.assert_allclose(history[0], np.mean(losses), atol=1e-12)


def tiny_2l_config():
    return ModelConfig(variant="2L", attention=False, embedding_dim=8,
                       hidden_size=4, decoder_hidden=4, attention_size=4,
                       label_embedding_dim=3, dropout=0.0, seed=0)


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("batch_size", 0), ("lr", -1e-3),
        ("lr", float("nan")), ("patience", -1), ("k", 1),
        ("optimizer", "foo")])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_accepts_bounds(self):
        TrainConfig(epochs=1, batch_size=1, lr=0.0, patience=0, k=2)


class TestEvaluate:
    def test_matches_separate_metrics(self):
        corpus = generate_synthetic(17, 12)
        vocab = label_vocab(corpus)
        table = random_embeddings([t for s in corpus for t in s.tokens],
                                  dim=8, seed=0)
        model = build_model(tiny_2l_config(), vocab)
        maps = {"house1": demo_map()}
        stage, chain = evaluate(model, table, corpus, maps)
        predict_fn = lambda s: pipeline.predict(model, table, list(s.tokens))
        assert stage == evaluate_stagewise(predict_fn, corpus)
        assert chain == ChainMetrics(
            pipeline.chain_accuracy(predict_fn, corpus, maps))
        assert evaluate(model, table, corpus) == (stage, None)

    def test_run_fold_parses_each_held_out_sentence_once(self,
                                                         predict_calls):
        corpus = generate_synthetic(17, 12)
        train_set, test_set = corpus[:8], corpus[8:]
        table = random_embeddings([t for s in corpus for t in s.tokens],
                                  dim=8, seed=0)
        tc = TrainConfig(epochs=1, batch_size=8, patience=0, seed=5, k=3)
        stage, chain = pipeline._run_fold(
            (0, train_set, test_set, tiny_2l_config(), tc,
             label_vocab(corpus), table, {"house1": demo_map()}))
        assert sorted(predict_calls) == sorted(s.tokens for s in test_set)
        assert stage.counts["ad"] == len(test_set)
        assert 0.0 <= chain.chain_accuracy <= 1.0


class TestCrossValidate:
    def test_small_end_to_end(self):
        corpus = generate_synthetic(17, 30)
        mc = ModelConfig(variant="2L", attention=False, embedding_dim=8,
                         hidden_size=5, decoder_hidden=5, attention_size=4,
                         label_embedding_dim=3, dropout=0.0, seed=0)
        tc = TrainConfig(epochs=2, batch_size=8, lr=1e-3, patience=0,
                         seed=5, k=3)
        maps = {"house1": demo_map()}
        stage, chain = cross_validate(corpus, mc, tc, maps=maps)
        assert len(stage.per_fold) == 3
        assert 0.0 <= stage.ad_f1 <= 1.0
        assert stage.counts["ad"] == 30
        assert chain is not None
        assert len(chain.per_fold) == 3
        assert 0.0 <= chain.chain_accuracy <= 1.0

    def test_pool_has_no_more_workers_than_folds(self, monkeypatch):
        # A fork pool starts every worker at once, so --jobs 64 over 3
        # folds would start 61 idle processes.
        made = []

        class InlinePool:           # records its size, starts nothing
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InlinePool)
        corpus = generate_synthetic(17, 18)
        mc = ModelConfig(variant="2L", attention=False, embedding_dim=8,
                         hidden_size=4, decoder_hidden=4, attention_size=4,
                         label_embedding_dim=3, dropout=0.0, seed=0)
        tc = TrainConfig(epochs=1, batch_size=8, lr=1e-3, patience=0,
                         seed=5, k=3)
        for jobs in (64, 2):
            cross_validate(corpus, mc, tc, jobs=jobs)
        assert made == [3, 2]

    def test_no_maps_no_chain(self):
        corpus = generate_synthetic(17, 18)
        mc = ModelConfig(variant="2L", attention=False, embedding_dim=8,
                         hidden_size=4, decoder_hidden=4, attention_size=4,
                         label_embedding_dim=3, dropout=0.0, seed=0)
        tc = TrainConfig(epochs=1, batch_size=8, lr=1e-3, patience=0,
                         seed=5, k=2)
        stage, chain = cross_validate(corpus, mc, tc)
        assert chain is None
        assert len(stage.per_fold) == 2


class TestReport:
    def test_layout(self):
        stage = StageMetrics(ad_f1=0.9629, ai_f1=0.9440, ac_f1=0.9230,
                             counts={})
        chain = ChainMetrics(chain_accuracy=0.4454)
        text = report([("2L-ATT", stage, chain)])
        lines = text.splitlines()
        assert lines[0].split() == ["Configuration", "AD", "AI", "AC",
                                    "Whole", "Chain"]
        assert lines[1].split() == ["2L-ATT", "96.29%", "94.40%", "92.30%",
                                    "44.54%"]

    def test_na_sentinels(self):
        stage = StageMetrics(ad_f1=0.0, ai_f1=None, ac_f1=None, counts={})
        text = report([("3L-ATT", stage, None)])
        assert text.splitlines()[1].split() == ["3L-ATT", "0.00%", "n/a",
                                                "n/a", "n/a"]

    def test_multiple_rows_aligned(self):
        stage = StageMetrics(ad_f1=1.0, ai_f1=1.0, ac_f1=1.0, counts={})
        text = report([("2L-NO-ATT", stage, None), ("3L-ATT", stage, None)])
        lines = text.splitlines()
        assert len(lines) == 3
        assert len({len(l) for l in lines[1:]}) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report([])


class TestMetricsToDict:
    def test_round_trippable_json(self):
        import json

        stage = StageMetrics(ad_f1=0.5, ai_f1=None, ac_f1=None,
                             counts={"ad": 4, "ai": 0, "ac": 0},
                             per_fold=((0.5, None, None),))
        chain = ChainMetrics(chain_accuracy=0.25, per_fold=(0.25,))
        doc = metrics_to_dict(stage, chain)
        parsed = json.loads(json.dumps(doc, sort_keys=True))
        assert parsed["ad_f1"] == 0.5
        assert parsed["ai_f1"] is None
        assert parsed["chain_accuracy"] == 0.25
