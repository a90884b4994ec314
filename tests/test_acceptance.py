"""Acceptance suite: one test per release criterion.

Each test prints an explicit PASS/FAIL line so the suite output doubles
as a release report. Paper-scale corpus results are out of reach without
the original dataset, so the experiments here are property-based checks
plus scaled-down training runs on the synthetic corpus.
"""

import json
import random
import time

import numpy as np
import pytest

from framecmd import autodiff as ad
from framecmd import layers as L
from framecmd.cli import main
from framecmd.corpus import (AnnotatedSentence, FrameAnnotation, decode_iob,
                             encode_iob)
from framecmd.grounding import chain_accuracy
from framecmd.model import ModelConfig, ParsedCommand, predict
from framecmd.pipeline import (TrainConfig, cross_validate,
                               evaluate_stagewise, span_f1)
from framecmd.synth import generate_synthetic

from oracles import (attention_oracle, bilstm_oracle, cross_entropy_oracle,
                     highway_oracle, lstm_cell_oracle, softmax_oracle)


def _verdict(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_gradient_fidelity(capsys):
    """All four architectures pass finite-difference checking under 60 s."""
    start = time.monotonic()
    rc = main(["gradcheck"])
    elapsed = time.monotonic() - start
    with capsys.disabled():
        ok = rc == 0 and elapsed < 60.0
        _verdict("gradient fidelity",
                 ok, f"exit code {rc}, {elapsed:.1f}s (< 60s, "
                     "max rel err < 1e-4 for 2L/3L x ATT/NO-ATT)")


def test_oracle_equivalence():
    """Every numerical building block matches a scalar-loop oracle on
    100 seeded random instances to 1e-10."""
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        # softmax + cross-entropy, one fused op; its gradient at weight 1
        # is p - onehot(k)
        z = ad.Parameter("z", rng.normal(0, 3, 6))
        ep = softmax_oracle(z.data.tolist())
        k = int(rng.integers(6))
        ce = L.softmax_cross_entropy(z, k, 1.0)
        ad.backward(ce)
        p = z.grad.copy()
        p[k] += 1.0
        worst = max(worst, float(np.max(np.abs(p - ep))))
        worst = max(worst, abs(float(ce.data) - cross_entropy_oracle(ep, k)))

        # LSTM cell and BiLSTM
        cell = L.LstmCell("l", 3, 4, seed=0, directions=("fwd", "bwd"))
        for q in cell.parameters():
            q.data = rng.normal(0, 0.5, q.data.shape)
        # The oracle's per-gate weights are gate slices of the stacked ones.
        dicts_f, dicts_b = (tuple({g: q.data[k][j * 4:(j + 1) * 4].tolist()
                                   for j, g in enumerate(L.GATES)}
                                  for q in cell.parameters())
                            for k in (0, 1))
        cell_f = L.LstmCell("f", 3, 4, seed=0)
        for q, stacked in zip(cell_f.parameters(), cell.parameters()):
            q.data = stacked.data[0]
        x = rng.normal(size=3)
        h0, c0 = rng.normal(size=4), rng.normal(size=4)
        h, cc, _ = L.lstm_cell_forward(x, h0, c0,
                                       L.CellView(cell_f, x.shape))
        eh, ec = lstm_cell_oracle(x.tolist(), h0.tolist(), c0.tolist(),
                                  *dicts_f)
        worst = max(worst, float(np.max(np.abs(h - eh))),
                    float(np.max(np.abs(cc - ec))))
        seq = [rng.normal(size=3) for _ in range(3)]
        states = L.bilstm_forward(ad.constant(np.array(seq)[:, None]), cell)
        expected = bilstm_oracle([v.tolist() for v in seq], dicts_f, dicts_b)
        for got, exp in zip(states.data[:, 0], expected):
            worst = max(worst, float(np.max(np.abs(got - exp))))

        # attention
        att = L.AttentionParams("a", 2, 3, 4, seed=0)
        att.W1.data = rng.normal(size=att.W1.data.shape)
        att.W2.data = rng.normal(size=att.W2.data.shape)
        att.v.data = rng.normal(size=att.v.data.shape)
        queries = [rng.normal(size=2) for _ in range(2)]
        keys = [rng.normal(size=3) for _ in range(3)]
        ctx, w = L.attention(ad.constant(np.array(queries)),
                             ad.constant(np.array(keys)[:, None]), att)
        ectx, ew = attention_oracle([q.tolist() for q in queries],
                                    [k.tolist() for k in keys],
                                    att.W1.data.tolist(),
                                    att.W2.data.tolist(),
                                    att.v.data.tolist())
        worst = max(worst, float(np.max(np.abs(w[0] - np.array(ew)))))
        for got, exp in zip(ctx.data[:, 0], ectx):
            worst = max(worst, float(np.max(np.abs(got - exp))))

        # highway
        hw = L.HighwayParams("h", 3, seed=0)
        for q in hw.parameters():
            q.data = rng.normal(size=q.data.shape)
        xin = rng.normal(size=3)
        y = L.highway(ad.constant(xin), hw)
        ey = highway_oracle(xin.tolist(), hw.W_h.data.tolist(),
                            hw.b_h.data.tolist(), hw.W_t.data.tolist(),
                            hw.b_t.data.tolist())
        worst = max(worst, float(np.max(np.abs(y.data - ey))))
    _verdict("oracle equivalence", worst < 1e-10,
             f"max deviation {worst:.2e} over 100 instances per op "
             "(< 1e-10)")


def test_overfit_experiment(overfit_bundle, demo_maps):
    """3L-ATT memorizes a 50-sentence corpus: 100% frames, >= 99% token
    labels, >= 95% whole chain; single worker, < 5 min, <= 300 epochs."""
    model, table = overfit_bundle["model"], overfit_bundle["table"]
    corpus = overfit_bundle["corpus"]

    parses = [predict(model, table, list(s.tokens)) for s in corpus]
    ad_acc = np.mean([p.frame_type == s.frame.frame_type
                      for s, p in zip(corpus, parses)])

    tok_correct = tok_total = 0
    for s, parse in zip(corpus, parses):
        gold = encode_iob(s, typed=True)
        pred_sentence = AnnotatedSentence(
            id=s.id, tokens=s.tokens,
            frame=FrameAnnotation(s.frame.frame_type, s.frame.lexical_unit,
                                  tuple(parse.elements)))
        pred = encode_iob(pred_sentence, typed=True)
        tok_correct += sum(g == p for g, p in zip(gold, pred))
        tok_total += len(gold)
    tok_acc = tok_correct / tok_total

    chain = chain_accuracy(parses, corpus, demo_maps)
    secs = overfit_bundle["train_seconds"]
    epochs = overfit_bundle["epochs"]

    ok = (ad_acc == 1.0 and tok_acc >= 0.99 and chain >= 0.95
          and secs < 300 and epochs <= 300)
    _verdict("overfit experiment", ok,
             f"AD {ad_acc:.0%} (=100%), token labels {tok_acc:.2%} "
             f"(>= 99%), chain {chain:.0%} (>= 95%), {epochs} epochs "
             f"(<= 300), {secs:.0f}s (< 300s)")


def test_generalization_smoke():
    """5-fold CV on 200 synthetic sentences reaches AD F1 >= 0.90 and
    chain accuracy >= 0.70 (thresholds frozen from the baseline run)."""
    corpus = generate_synthetic(seed=11, n=200)
    model_cfg = ModelConfig(variant="3L", attention=True, embedding_dim=50,
                            hidden_size=16, decoder_hidden=16,
                            attention_size=8, label_embedding_dim=8,
                            dropout=0.1, seed=11)
    train_cfg = TrainConfig(epochs=40, batch_size=8, lr=2e-3, patience=6,
                            seed=11, k=5)
    from framecmd.embeddings import random_embeddings
    from framecmd.synth import demo_map
    table = random_embeddings([t for s in corpus for t in s.tokens],
                              model_cfg.embedding_dim, seed=train_cfg.seed)
    stage, chain = cross_validate(corpus, model_cfg, train_cfg, table,
                                  maps={"house1": demo_map()})
    ok = stage.ad_f1 >= 0.90 and chain.chain_accuracy >= 0.70
    _verdict("generalization smoke test", ok,
             f"mean AD F1 {stage.ad_f1:.3f} (>= 0.90), chain accuracy "
             f"{chain.chain_accuracy:.3f} (>= 0.70), 200 sentences, "
             "5-fold, 3L-ATT")


def test_metric_protocol(synth50, demo_maps):
    """Conditioning monotonicity, the chain <= AD bound, and exact
    span_f1 agreement with a brute-force oracle."""
    rng = random.Random(123)
    frames = sorted({s.frame.frame_type for s in synth50})

    monotone_runs = 0
    chain_bound_ok = True
    for trial in range(20):
        r = random.Random(trial)
        noisy = []
        for s in synth50:
            frame = (s.frame.frame_type if r.random() < 0.6
                     else r.choice(frames))
            elements = tuple(e for e in s.frame.elements
                             if r.random() < 0.8)
            noisy.append(ParsedCommand(frame, elements))

        stage = evaluate_stagewise(noisy, synth50)
        assert stage.counts["ac"] <= stage.counts["ai"] <= stage.counts["ad"]
        monotone_runs += 1
        chain = chain_accuracy(noisy, synth50, demo_maps)
        chain_bound_ok = chain_bound_ok and chain <= stage.ad_f1 + 1e-12

    universe = [(a, a + w) for a in range(6) for w in range(3)]
    exact = True
    for _ in range(200):
        gold = set(rng.sample(universe, rng.randint(0, 6)))
        pred = set(rng.sample(universe, rng.randint(0, 6)))
        p, r, f1 = span_f1(gold, pred)
        tp = len(gold & pred)
        if not gold and not pred:
            ep = er = ef = 1.0
        else:
            ep = tp / len(pred) if pred else 0.0
            er = tp / len(gold) if gold else 0.0
            ef = 2 * ep * er / (ep + er) if ep + er else 0.0
        exact = exact and (p, r, f1) == (ep, er, ef)

    ok = monotone_runs == 20 and chain_bound_ok and exact
    _verdict("metric protocol", ok,
             f"monotone pools in {monotone_runs}/20 noisy runs, "
             f"chain <= AD bound {'held' if chain_bound_ok else 'violated'}, "
             f"span_f1 exact on 200 random cases: {exact}")


def test_iob_codec_round_trip():
    """decode(encode(x)) == x over 1,000 random valid span sets."""
    rng = random.Random(77)
    types = ["Cotheme", "Goal", "Ground", "Phenomenon", "Theme"]
    failures = 0
    for _ in range(1000):
        T = rng.randint(1, 12)
        spans = []
        pos = 0
        while pos < T:
            if rng.random() < 0.5:
                width = rng.randint(1, min(3, T - pos))
                spans.append((rng.choice(types), (pos, pos + width - 1)))
                pos += width
            pos += 1
        s = AnnotatedSentence(
            id="r", tokens=tuple(f"w{i}" for i in range(T)),
            frame=FrameAnnotation("Motion", (0, 0), tuple(spans)))
        typed = decode_iob(encode_iob(s, typed=True))
        if [(t, sp) for t, sp in typed] != spans:
            failures += 1
        plain = decode_iob(encode_iob(s, typed=False))
        if [sp for _, sp in plain] != [sp for _, sp in spans]:
            failures += 1
    _verdict("IOB codec round trip", failures == 0,
             f"{failures} failures in 1000 random span sets")


def test_determinism(tmp_path):
    """Two full `eval --cv 5` runs with the same seed write byte-identical
    metrics JSON, with any number of workers."""
    corpus = tmp_path / "det.jsonl"
    rc = main(["gen-corpus", "--n", "40", "--seed", "2",
               "--out", str(corpus)])
    assert rc == 0
    fast = ["--override", "epochs=8", "--override", "hidden_size=6",
            "--override", "decoder_hidden=6", "--override", "embedding_dim=8",
            "--override", "attention_size=4",
            "--override", "label_embedding_dim=3",
            "--override", "dropout=0.1", "--override", "patience=0"]
    outs = []
    for run, jobs in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / f"metrics_{run}.json"
        rc = main(["eval", "--corpus", str(corpus), "--config", "3l_att",
                   "--cv", "5", "--jobs", str(jobs),
                   "--maps", str(tmp_path / "det.map.json"),
                   "--out", str(out)] + fast)
        assert rc == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    _verdict("determinism", ok,
             "three eval --cv 5 runs (jobs 1, 1, 2) byte-identical: "
             f"{ok}")
