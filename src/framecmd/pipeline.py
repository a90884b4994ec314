"""Training loop, stage-conditional evaluation metrics, k-fold
cross-validation harness and report rendering.

Stage conditioning: frame F1 is computed over every test sentence;
span identification is scored only on sentences whose frame was
predicted correctly; span typing only on sentences that additionally
got every (untyped) span boundary right. Later stages are thus judged
as if they had received gold input from the earlier ones.
"""

from __future__ import annotations

import math
import random
import signal
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .corpus import label_vocab, make_folds
from .embeddings import embed_sentence
from .grounding import chain_accuracy
# `predict` is re-exported here for callers that parse one sentence.
from .model import (GoldBatch, build_model, forward, joint_loss, predict,
                    predict_many, sentence_labels)
from .optim import OPTIMIZERS


# A batch loss this many times the loss of a uniform guess means the
# run has diverged: the gold labels got, in geometric mean, 1/labels**100
# of the probability. An untrained model starts near 1 times it and
# healthy runs stay there or below; Adam at lr=1e9 reaches about 5e9.
DIVERGED_LOSS_RATIO = 100.0


class TrainingDiverged(Exception):
    """A batch loss was not finite or blew up, or the squared norm of
    the gradient, or of the parameters after an epoch, was not finite."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 8
    lr: float = 1e-3
    optimizer: str = "adam"
    patience: int = 10
    seed: int = 42
    k: int = 5

    def __post_init__(self):
        for f, low in (("epochs", 1), ("batch_size", 1), ("patience", 0),
                       ("k", 2)):
            if getattr(self, f) < low:
                raise ValueError(f"{f} must be >= {low}")
        if not 0 <= self.lr < math.inf:     # 0 freezes the weights
            raise ValueError("lr must be >= 0 and finite")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0; got {self.seed}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of "
                             f"{', '.join(OPTIMIZERS)}; got {self.optimizer!r}")


@dataclass
class StageMetrics:
    ad_f1: float
    ai_f1: float | None        # None: conditioning pool was empty
    ac_f1: float | None
    counts: dict               # evaluation pool sizes per stage
    per_fold: tuple = ()       # (ad, ai, ac) triples when aggregated


@dataclass
class ChainMetrics:
    chain_accuracy: float
    per_fold: tuple = ()


# Overflow in a diverging run's arithmetic is reported once, by the
# divergence checks in `train`, not as numpy warnings.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(model, table, corpus_train, config):
    """Train in place; returns the per-epoch mean loss history.

    Sentences are shuffled each epoch with a seeded RNG and processed in
    batches: each batch is one padded graph whose loss is the mean of
    its sentences' losses, followed by one optimizer step. When
    patience > 0 and the training set is large enough, 10% is held out
    and training stops early once the held-out loss has not improved
    for `patience` consecutive epochs.

    Raises TrainingDiverged, before the step that would apply it, when a
    batch loss is not finite or above DIVERGED_LOSS_RATIO times the
    model's uniform-guess loss, or the squared gradient norm is not
    finite; and at the end of each epoch when the squared norm of the
    parameters is not finite (a weight above about 1e154), which
    catches a last step that no later batch loss checks.
    """
    if not corpus_train:
        raise ValueError("empty training set")
    rng = random.Random(config.seed)
    drop_rng = np.random.default_rng(config.seed + 1)
    cache = {}
    for s in corpus_train:
        cache[s.id] = (embed_sentence(table, list(s.tokens)),
                       sentence_labels(s, model.vocab, model.config.variant))
    opt = OPTIMIZERS[config.optimizer](model.parameters(), lr=config.lr)
    opt.grad.fill(0.0)      # after that, every step zeroes it
    loss_limit = DIVERGED_LOSS_RATIO * model.uniform_loss()

    def batch_loss(batch, dropout_rng=None):
        """Mean loss of the sentences `batch` (ids) as one graph."""
        gold = GoldBatch(cache[sid][1] for sid in batch)
        out = forward(model, np.concatenate([cache[sid][0] for sid in batch]),
                      gold=gold, mode="train", dropout_rng=dropout_rng,
                      lengths=gold.lengths)
        return joint_loss(out, gold)

    def step(batch):
        """One optimizer step; returns the batch loss. The graph is freed
        on return, before the next batch builds its own."""
        loss = batch_loss(batch, drop_rng)
        ad.backward(loss)
        value = float(loss.data)
        norm2 = float(opt.grad @ opt.grad)
        if not (value <= loss_limit and math.isfinite(norm2)):   # NaN too
            raise TrainingDiverged(
                f"training diverged in epoch {len(history) + 1}: batch "
                f"loss {value:g}, squared gradient norm {norm2:g}")
        opt.step()
        return value

    ids = [s.id for s in corpus_train]
    val_ids = []
    if config.patience > 0 and len(ids) >= 10:
        shuffled = sorted(ids)
        rng.shuffle(shuffled)
        n_val = len(ids) // 10
        val_ids = shuffled[:n_val]
        ids = shuffled[n_val:]

    batch_size = config.batch_size
    history = []
    best_val = float("inf")
    bad_epochs = 0
    for _ in range(config.epochs):
        rng.shuffle(ids)
        total = sum(step(b) * len(b) for b in _batches(ids, batch_size))
        history.append(total / len(ids))
        norm2 = float(opt.data @ opt.data)     # what the last step did
        if not math.isfinite(norm2):
            raise TrainingDiverged(
                f"training diverged in epoch {len(history)}: squared "
                f"parameter norm {norm2:g} after its last step")
        if val_ids:
            with ad.no_grad():
                total = sum(float(batch_loss(b).data) * len(b)
                            for b in _batches(val_ids, batch_size))
            val_loss = total / len(val_ids)
            if val_loss < best_val - 1e-9:
                best_val = val_loss
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs > config.patience:
                    break
    return history


def _batches(ids, size):
    return [ids[i:i + size] for i in range(0, len(ids), size)]


def _prf(tp, n_pred, n_gold):
    if n_pred == 0 and n_gold == 0:
        return 1.0, 1.0, 1.0
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def span_f1(gold, pred):
    """Exact-match precision/recall/F1 between two span sets."""
    gold = set(gold)
    pred = set(pred)
    return _prf(len(gold & pred), len(pred), len(gold))


def evaluate_stagewise(parses, sentences):
    """Stage-conditional metrics of `parses`, one ParsedCommand per
    sentence, in order."""
    if not sentences:
        raise ValueError("empty test set")
    if len(parses) != len(sentences):
        raise ValueError(f"{len(parses)} parses, {len(sentences)} sentences")
    ai_pool = [(s.frame, p) for s, p in zip(sentences, parses)
               if p.frame_type == s.frame.frame_type]
    ac_pool = [(g, p) for g, p in ai_pool
               if {e[1] for e in g.elements} == {e[1] for e in p.elements}]
    counts = {"ad": len(sentences), "ai": len(ai_pool), "ac": len(ac_pool)}
    return StageMetrics(ad_f1=len(ai_pool) / len(sentences),
                        ai_f1=_pool_f1(ai_pool, typed=False),
                        ac_f1=_pool_f1(ac_pool, typed=True), counts=counts)


def _pool_f1(pool, typed):
    """span_f1 over a pool of (gold frame, parse) pairs, None if it is
    empty: every element's span, or its (type, span) if typed, tagged
    with its pair's index, so each pair is scored as its own span set."""
    if not pool:
        return None
    gold, pred = ([(i, (t, span) if typed else span)
                   for i, pair in enumerate(pool)
                   for t, span in pair[side].elements] for side in (0, 1))
    return span_f1(gold, pred)[2]


def evaluate(model, table, sentences, maps=None):
    """Parse each sentence once and score the parses stage by stage and,
    given maps (map_id -> SemanticMap), along the whole chain.

    Returns (StageMetrics, ChainMetrics or None).
    """
    parses = predict_many(model, table, [list(s.tokens) for s in sentences])
    stage = evaluate_stagewise(parses, sentences)
    if maps is None:
        return stage, None
    return stage, ChainMetrics(chain_accuracy(parses, sentences, maps))


def _run_fold(args):
    (fold, train_set, test_set, model_cfg, train_cfg, vocab, table,
     maps) = args
    model = build_model(replace(model_cfg, seed=model_cfg.seed + fold), vocab)
    fold_train_cfg = replace(train_cfg, seed=train_cfg.seed + fold)
    train(model, table, train_set, fold_train_cfg)
    return evaluate(model, table, test_set, maps)


def cross_validate(corpus, model_cfg, train_cfg, table, maps=None, jobs=1):
    """k-fold cross-validation over the embedding table `table`: per
    fold, train on the remaining folds and evaluate on the held-out one.
    Fold seeds derive from the base seed so results are reproducible
    and independent of scheduling.

    Returns (StageMetrics, ChainMetrics or None) with per-fold values
    and means. Chain metrics require `maps` plus gold groundings.
    """
    vocab = label_vocab(corpus)
    folds = make_folds(corpus, train_cfg.k, train_cfg.seed)
    jobs_args = []
    for fold in range(train_cfg.k):
        test_set = [s for s in corpus if folds.assignment[s.id] == fold]
        train_set = [s for s in corpus if folds.assignment[s.id] != fold]
        jobs_args.append((fold, train_set, test_set, model_cfg, train_cfg,
                          vocab, table, maps))
    if jobs > 1:
        # Imported here, so commands that start no pool do not pay for it.
        import multiprocessing
        # The pool starts all its workers at once: no more than folds.
        # Its workers ignore SIGINT and take one fold at a time, and
        # leaving the block terminates them, so an interrupt ends the
        # run at once, in this process, without finishing queued folds.
        with multiprocessing.Pool(min(jobs, train_cfg.k), signal.signal,
                                  (signal.SIGINT, signal.SIG_IGN)) as pool:
            results = pool.map(_run_fold, jobs_args, chunksize=1)
    else:
        results = [_run_fold(a) for a in jobs_args]

    stage_folds = tuple((m.ad_f1, m.ai_f1, m.ac_f1) for m, _ in results)
    counts = {"ad": 0, "ai": 0, "ac": 0}
    for m, _ in results:
        for key in counts:
            counts[key] += m.counts[key]
    stage = StageMetrics(
        ad_f1=_mean([f[0] for f in stage_folds]),
        ai_f1=_mean([f[1] for f in stage_folds]),
        ac_f1=_mean([f[2] for f in stage_folds]),
        counts=counts,
        per_fold=stage_folds,
    )
    chain = None
    if maps is not None:
        chain_folds = tuple(c.chain_accuracy for _, c in results)
        chain = ChainMetrics(chain_accuracy=_mean(list(chain_folds)),
                             per_fold=chain_folds)
    return stage, chain


def _mean(values):
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def _pct(value):
    return "n/a" if value is None else f"{100.0 * value:.2f}%"


def report(rows):
    """Render results as a text table, one row per configuration.

    rows: list of (name, StageMetrics, ChainMetrics or None).
    """
    if not rows:
        raise ValueError("nothing to report")
    header = ["Configuration", "AD", "AI", "AC", "Whole Chain"]
    table_rows = [header]
    for name, stage, chain in rows:
        chain_val = chain.chain_accuracy if chain is not None else None
        table_rows.append([name, _pct(stage.ad_f1), _pct(stage.ai_f1),
                           _pct(stage.ac_f1), _pct(chain_val)])
    widths = [max(len(r[i]) for r in table_rows)
              for i in range(len(header))]
    lines = []
    for r in table_rows:
        cells = [r[0].ljust(widths[0])] + [
            r[i].rjust(widths[i]) for i in range(1, len(header))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def metrics_to_dict(stage, chain=None):
    """JSON-friendly view of evaluation results."""
    doc = {
        "ad_f1": stage.ad_f1,
        "ai_f1": stage.ai_f1,
        "ac_f1": stage.ac_f1,
        "counts": stage.counts,
    }
    if stage.per_fold:
        doc["per_fold"] = [list(f) for f in stage.per_fold]
    if chain is not None:
        doc["chain_accuracy"] = chain.chain_accuracy
        if chain.per_fold:
            doc["chain_per_fold"] = list(chain.per_fold)
    return doc
