"""The four benchmark workloads.

Each workload makes its inputs from the seed alone; the package sees
only those inputs. `setup()` is what is timed as set-up (and repeated),
`run_op()` is one timed operation, and `check_op()` checks its output
outside the timed region. Every call into framecmd goes through the
module attribute (`pipeline.train`, `fc_model.predict`, ...), so a
Tracer installed around a run sees it.

Why these four:
- train-3l-att: a researcher training the full model; the only
  workload where `autodiff.backward` and `optim` do work.
- parse-3l-att: a robot's dialogue manager sending one command at a
  time and waiting for the grounded parse; no-grad forward, greedy
  decoding and grounding, no backward pass.
- cv-2l-noatt: the paper's 5-fold protocol over a process pool; no
  attention, highway or layer 3, so changes there should not move it.
- gradcheck: the finite-difference check of all four architectures;
  the only workload running 2L-ATT and 3L-NO-ATT.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from framecmd import autodiff as ad
from framecmd import cli, gradcheck, grounding, pipeline
from framecmd import model as fc_model
from framecmd.corpus import label_vocab, make_folds
from framecmd.embeddings import embed_sentence, random_embeddings
from framecmd.synth import demo_map, generate_synthetic


def _configs(preset, **train_overrides):
    """Preset model and training configs with some training fields fixed."""
    model_cfg, train_cfg = cli.build_configs(cli.load_config(preset))
    return model_cfg, replace(train_cfg, **train_overrides)


def _split(corpus, seed):
    """Fold 0 of the 5-fold split is held out; the rest trains."""
    folds = make_folds(corpus, 5, seed)
    train = [s for s in corpus if folds.assignment[s.id] != 0]
    held_out = [s for s in corpus if folds.assignment[s.id] == 0]
    return train, held_out


def _table(corpus, dim, seed):
    return random_embeddings([t for s in corpus for t in s.tokens], dim,
                             seed=seed)


def _write_map(workdir):
    path = Path(workdir) / "map.json"
    path.write_text(grounding.serialize_map(demo_map()), encoding="utf-8")
    return path


def nproc():
    return len(os.sched_getaffinity(0))


class Workload:
    name = ""
    # Workload-specific names for the common end-to-end metrics:
    # {name: (common metric, scale, unit)}.
    aliases = {}

    def warm_up(self):
        """Untimed work after set-up and before the measured operations.

        Returns (attempted, failed)."""
        return 0, 0

    def finish(self):
        """Run-level checks and named metrics: (named, attempted, failed)."""
        return {}, 0, 0

    def counters(self):
        """Cumulative per-layer counts the workload itself can observe."""
        return {}


class TrainWorkload(Workload):
    """3L-ATT at preset sizes, Adam, fixed epochs and no early stopping,
    over the training split of the synthetic corpus. One operation is
    one `pipeline.train` call on a freshly built model."""

    name = "train-3l-att"
    aliases = {"train_tok_per_s": ("items_per_s", 1.0, "tok/s")}

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.n = 20 if tiny else 200
        self.epochs = 2
        self.last_loss = None

    def setup(self):
        self.model_cfg, self.train_cfg = _configs(
            "3l_att", epochs=self.epochs, patience=0)
        corpus = generate_synthetic(self.seed, self.n)
        self.vocab = label_vocab(corpus)
        self.train_set, _ = _split(corpus, self.seed)
        self.table = _table(corpus, self.model_cfg.embedding_dim, self.seed)
        self.tokens = sum(len(s.tokens) for s in self.train_set)

    def run_op(self):
        model = fc_model.build_model(self.model_cfg, self.vocab)
        return pipeline.train(model, self.table, self.train_set,
                              self.train_cfg)

    def check_op(self, history):
        failed = sum(1 for loss in history if not math.isfinite(loss))
        if not failed and not history[-1] < history[0]:
            failed = 1
        self.last_loss = history[-1]
        return self.epochs * self.tokens, len(history), failed

    def finish(self):
        return {"train_loss": (self.last_loss, "nats")}, 0, 0


class ParseWorkload(Workload):
    """One closed-loop client parsing and grounding held-out commands
    one at a time. The 3L-ATT model is trained once per run; set-up is
    what a robot pays at start: checkpoint save and load plus the map."""

    name = "parse-3l-att"
    aliases = {"parse_ms_p50": ("op_ms_p50", 1.0, "ms"),
               "parse_ms_p99": ("op_ms_p99", 1.0, "ms"),
               "parse_tok_per_s": ("items_per_s", 1.0, "tok/s")}
    floor = 0.9             # parse_chain_acc; every baseline seed reads 1.0

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.floor = 0.0 if tiny else self.floor
        # A 10x preset learning rate reaches full held-out accuracy in
        # three epochs, which keeps each run short.
        model_cfg, train_cfg = _configs("3l_att", epochs=1 if tiny else 3,
                                        patience=0, lr=1e-2)
        # 240 held-out commands give a stable length mix; with fewer,
        # the median parse time jumps between sentence lengths by seed.
        n_train, n_held_out = (8, 12) if tiny else (160, 240)
        corpus = generate_synthetic(seed, n_train + n_held_out)
        train_set, self.held_out = corpus[:n_train], corpus[n_train:]
        self.vocab = label_vocab(corpus)
        table = _table(corpus, model_cfg.embedding_dim, seed)
        trained = fc_model.build_model(model_cfg, self.vocab)
        pipeline.train(trained, table, train_set, train_cfg)
        self._trained = (trained, table)
        self.map_path = _write_map(self.workdir)
        self.ckpt_path = self.workdir / "model.ckpt"
        self.served = 0
        self.chain_acc = None

    def setup(self):
        fc_model.save_checkpoint(self.ckpt_path, *self._trained)
        self.model, self.table = fc_model.load_checkpoint(self.ckpt_path)
        self.smap = grounding.load_map(
            self.map_path.read_text(encoding="utf-8"))
        self.entity_ids = {e.id for e in self.smap.entities}

    def _parse(self, sentence):
        tokens = list(sentence.tokens)
        parsed = fc_model.predict(self.model, self.table, tokens)
        return sentence, grounding.ground_command(parsed, tokens, self.smap)

    def warm_up(self):
        """One untimed pass over the held-out set; gives parse_chain_acc."""
        correct = failed = 0
        for s in self.held_out:
            _, grounded = self._parse(s)
            failed += self.check_op((s, grounded))[2]
            correct += grounding.chain_correct(grounded, s)
        self.chain_acc = correct / len(self.held_out)
        return len(self.held_out), failed

    def run_op(self):
        sentence = self.held_out[self.served % len(self.held_out)]
        self.served += 1
        return self._parse(sentence)

    def check_op(self, out):
        """Items are the command's tokens."""
        sentence, grounded = out
        n = len(sentence.tokens)
        ok = grounded.frame_type in self.vocab.frames
        end = -1
        for etype, (s, e), entity in sorted(grounded.groundings,
                                            key=lambda g: g[1]):
            ok = ok and end < s <= e < n
            ok = ok and etype in self.vocab.element_types
            ok = ok and (entity is None or entity in self.entity_ids)
            end = e
        return n, 1, 0 if ok else 1

    def finish(self):
        ok = self.chain_acc >= self.floor
        return ({"parse_chain_acc": (self.chain_acc, "share")},
                1, 0 if ok else 1)


def _pools_ok(ad_f1, ai_f1, ac_f1):
    if (ai_f1 is None) != (ad_f1 == 0.0):
        return False
    if ai_f1 is None:
        return ac_f1 is None
    return ac_f1 is not None or ai_f1 < 1.0


class CvWorkload(Workload):
    """`pipeline.cross_validate` on 2L-NO-ATT with k = 5, the demo map
    and one worker per core. One operation is one whole CV run."""

    name = "cv-2l-noatt"
    aliases = {"cv_s": ("op_ms_p50", 1e-3, "s")}
    floor = 0.9             # cv_chain_acc; baseline seeds read >= 0.97

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.n = 15 if tiny else 100
        self.epochs = 1 if tiny else 5
        self.floor = 0.0 if tiny else self.floor
        self.map_path = _write_map(workdir)
        self.jobs = nproc()
        self.chain_acc = None

    def setup(self):
        # A 10x preset learning rate makes five epochs enough for the
        # folds to reach full chain accuracy.
        self.model_cfg, self.train_cfg = _configs(
            "2l_no_att", epochs=self.epochs, patience=0, lr=1e-2, k=5)
        self.corpus = generate_synthetic(self.seed, self.n)
        smap = grounding.load_map(self.map_path.read_text(encoding="utf-8"))
        self.maps = {smap.id: smap}
        self.table = _table(self.corpus, self.model_cfg.embedding_dim,
                            self.seed)

    def run_op(self):
        return pipeline.cross_validate(self.corpus, self.model_cfg,
                                       self.train_cfg, maps=self.maps,
                                       table=self.table, jobs=self.jobs)

    def check_op(self, out):
        """A stage's pool is empty exactly when the stage before it got
        nothing right: no frame (AI), or no complete span set (AC)."""
        stage, chain = out
        k = self.train_cfg.k
        failed = sum(1 for fold in stage.per_fold if not _pools_ok(*fold))
        counts = stage.counts
        if (counts["ad"] != len(self.corpus) or len(stage.per_fold) != k
                or None in chain.per_fold
                or (stage.ai_f1 is None) != (counts["ai"] == 0)
                or (stage.ac_f1 is None) != (counts["ac"] == 0)):
            failed = k
        self.chain_acc = chain.chain_accuracy
        return k, k, failed

    def finish(self):
        ok = self.chain_acc >= self.floor
        return ({"cv_chain_acc": (self.chain_acc, "share")},
                1, 0 if ok else 1)


class GradcheckWorkload(Workload):
    """`gradcheck.grad_check` on all four architectures with the CLI's
    fixture (hidden 8). At most `max_coords` coordinates per parameter
    are checked, instead of 500, so one pass over all four fits in a
    few seconds; each pass still runs the long-double refinement."""

    name = "gradcheck"
    aliases = {"gradcheck_fwd_per_s": ("items_per_s", 1.0, "fwd/s")}

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.max_coords = 1 if tiny else 8
        self.forwards = self.refined = 0    # in the current operation
        self.totals = {"gradcheck.forwards": 0, "gradcheck.refined": 0}
        self.max_err = 0.0

    def setup(self):
        vocab, table, sentence = cli._gradcheck_fixture(self.seed)
        self.embedded = embed_sentence(table, list(sentence.tokens))
        self.cases = []
        for variant in ("2L", "3L"):
            for attention in (True, False):
                cfg = fc_model.ModelConfig(
                    variant=variant, attention=attention, embedding_dim=8,
                    hidden_size=8, decoder_hidden=8, attention_size=4,
                    label_embedding_dim=4, dropout=0.0, seed=self.seed)
                self.cases.append((fc_model.build_model(cfg, vocab),
                                   fc_model.gold_labels(sentence, vocab,
                                                        variant)))

    def _loss(self, model, gold):
        if not ad.grad_enabled:
            self.forwards += 1
            if ad.dtype is not np.float64:
                self.refined += 1
        out = fc_model.forward(model, self.embedded, gold=gold, mode="train")
        return fc_model.joint_loss(out, gold)

    def run_op(self):
        self.forwards = self.refined = 0
        return [gradcheck.grad_check(lambda: self._loss(model, gold),
                                     model.parameters(),
                                     max_coords=self.max_coords)
                for model, gold in self.cases]

    def check_op(self, errors):
        self.max_err = max([self.max_err] + errors)
        self.totals["gradcheck.forwards"] += self.forwards
        self.totals["gradcheck.refined"] += self.refined
        failed = sum(1 for e in errors if not e < cli.GRADCHECK_THRESHOLD)
        return self.forwards, len(errors), failed

    def finish(self):
        return {"gradcheck_max_rel_err": (self.max_err, "ratio")}, 0, 0

    def counters(self):
        return dict(self.totals)


WORKLOADS = {w.name: w for w in (TrainWorkload, ParseWorkload, CvWorkload,
                                 GradcheckWorkload)}
