"""Command-line entry point: train, eval, parse, gradcheck, gen-corpus."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .corpus import (AnnotatedSentence, CorpusError, FrameAnnotation,
                     label_vocab, parse_corpus, serialize_corpus)
from .embeddings import (EmbeddingError, embed_sentence, load_embeddings,
                         random_embeddings)
from .gradcheck import grad_check
from .grounding import MapError, ground_command, load_map, serialize_map
from .model import (CheckpointError, ModelConfig, build_model, decode_output,
                    forward, gold_labels, joint_loss, load_checkpoint,
                    predict, save_checkpoint)
from .pipeline import (TrainConfig, cross_validate, evaluate_stagewise,
                       metrics_to_dict, report, train)
from .synth import FRAMES, demo_map, generate_synthetic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4

GRADCHECK_THRESHOLD = 1e-4


class ConfigError(Exception):
    pass


MODEL_KEYS = {"variant", "attention", "embedding_dim", "hidden_size",
              "decoder_hidden", "attention_size", "label_embedding_dim",
              "dropout", "seed"}
TRAIN_KEYS = {"epochs", "batch_size", "lr", "optimizer", "patience", "k"}


def _parse_value(raw):
    raw = raw.strip().strip('"')
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def parse_config_text(text):
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in MODEL_KEYS | TRAIN_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(raw)
    return values


def load_config(name_or_path):
    """Read a config file; bare names resolve to the shipped presets
    (2L-ATT, 2L-NO-ATT, 3L-ATT, 3L-NO-ATT)."""
    path = Path(name_or_path)
    if path.exists():
        return parse_config_text(path.read_text(encoding="utf-8"))
    preset = name_or_path.lower().replace("-", "_")
    res = resources.files("framecmd").joinpath(f"configs/{preset}.cfg")
    if res.is_file():
        return parse_config_text(res.read_text(encoding="utf-8"))
    raise ConfigError(f"no such config file or preset: {name_or_path}")


def build_configs(values, overrides=(), seed=None):
    values = dict(values)
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"bad override (expected key=value): {ov}")
        key, raw = ov.split("=", 1)
        key = key.strip()
        if key not in MODEL_KEYS | TRAIN_KEYS:
            raise ConfigError(f"unknown override key: {key}")
        values[key] = _parse_value(raw)
    if seed is not None:
        values["seed"] = seed
    try:
        model_cfg = ModelConfig(
            **{k: v for k, v in values.items() if k in MODEL_KEYS})
        train_cfg = TrainConfig(
            seed=values.get("seed", 42),
            **{k: v for k, v in values.items() if k in TRAIN_KEYS})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    return model_cfg, train_cfg


def _read_corpus(path):
    p = Path(path)
    if not p.exists():
        raise CorpusError(f"corpus file not found: {path}")
    return parse_corpus(p.read_text(encoding="utf-8"))


def _read_map(path):
    p = Path(path)
    if not p.exists():
        raise MapError(f"map file not found: {path}")
    return load_map(p.read_text(encoding="utf-8"))


def _load_maps(paths):
    maps = {}
    for path in paths:
        smap = _read_map(path)
        maps[smap.id] = smap
    return maps


def _make_table(corpus, model_cfg, embeddings_path, seed):
    if embeddings_path:
        p = Path(embeddings_path)
        if not p.exists():
            raise EmbeddingError(f"embeddings file not found: {embeddings_path}")
        return load_embeddings(p.read_text(encoding="utf-8"))
    tokens = [t for s in corpus for t in s.tokens]
    return random_embeddings(tokens, model_cfg.embedding_dim, seed=seed)


def cmd_train(args):
    values = load_config(args.config)
    model_cfg, train_cfg = build_configs(values, args.override, args.seed)
    corpus = _read_corpus(args.corpus)
    vocab = label_vocab(corpus)
    table = _make_table(corpus, model_cfg, args.embeddings, train_cfg.seed)
    model = build_model(model_cfg, vocab)
    history = train(model, table, corpus, train_cfg)
    out = args.out or "model.ckpt"
    save_checkpoint(out, model, table)
    hist_doc = {"config": model_cfg.name, "epochs_run": len(history),
                "loss_history": history}
    Path(out + ".history.json").write_text(
        json.dumps(hist_doc, sort_keys=True) + "\n", encoding="utf-8")
    print(f"trained {model_cfg.name} for {len(history)} epochs; "
          f"final loss {history[-1]:.4f}; checkpoint written to {out}")
    return EXIT_OK


def cmd_eval(args):
    corpus = _read_corpus(args.corpus)
    maps = _load_maps(args.maps) if args.maps else None
    if args.cv:
        if not args.config:
            raise ConfigError("--cv requires --config")
        values = load_config(args.config)
        model_cfg, train_cfg = build_configs(values, args.override, args.seed)
        train_cfg = replace(train_cfg, k=args.cv)
        table = (_make_table(corpus, model_cfg, args.embeddings,
                             train_cfg.seed))
        stage, chain = cross_validate(corpus, model_cfg, train_cfg,
                                      maps=maps, table=table, jobs=args.jobs)
        name = model_cfg.name
    else:
        if not args.ckpt:
            raise ConfigError("eval needs either --ckpt or --config with --cv")
        model, table = load_checkpoint(args.ckpt)
        predict_fn = lambda s: predict(model, table, list(s.tokens))
        stage = evaluate_stagewise(predict_fn, corpus)
        chain = None
        if maps is not None:
            from .grounding import chain_accuracy
            from .pipeline import ChainMetrics
            chain = ChainMetrics(chain_accuracy(predict_fn, corpus, maps))
        name = model.config.name
    text = report([(name, stage, chain)])
    sys.stdout.write(text)
    if args.out:
        doc = {name: metrics_to_dict(stage, chain)}
        Path(args.out).write_text(json.dumps(doc, sort_keys=True) + "\n",
                                  encoding="utf-8")
        Path(args.out + ".txt").write_text(text, encoding="utf-8")
    return EXIT_OK


def cmd_parse(args):
    if not args.sentence.strip():
        print("error: empty sentence", file=sys.stderr)
        return EXIT_CONFIG
    model, table = load_checkpoint(args.ckpt)
    tokens = args.sentence.split()
    embedded = embed_sentence(table, tokens)
    with ad.no_grad():
        out = forward(model, embedded, mode="infer")
    parsed = decode_output(model, out)
    doc = {"tokens": tokens,
           "frame_type": parsed.frame_type,
           "elements": [{"type": t, "span": list(s)}
                        for t, s in parsed.elements]}
    if args.map:
        grounded = ground_command(parsed, tokens, _read_map(args.map))
        doc["groundings"] = [{"type": t, "span": list(s), "entity": e}
                             for t, s, e in grounded.groundings]
    if args.show_attention and out.attention_maps:
        doc["attention"] = {k: v.tolist()
                            for k, v in out.attention_maps.items()}
    sys.stdout.write(json.dumps(doc) + "\n")
    return EXIT_OK


def _gradcheck_fixture(seed):
    corpus = generate_synthetic(seed=seed, n=12)
    vocab = label_vocab(corpus)
    table = random_embeddings([t for s in corpus for t in s.tokens],
                              dim=8, seed=seed)
    sentence = AnnotatedSentence(
        id="gc0",
        tokens=("bring", "the", "book", "to", "kitchen"),
        frame=FrameAnnotation("Bringing", (0, 0),
                              (("Theme", (1, 2)), ("Goal", (3, 4)))),
    )
    return vocab, table, sentence


def cmd_gradcheck(args):
    vocab, table, sentence = _gradcheck_fixture(args.seed)
    embedded = embed_sentence(table, list(sentence.tokens))
    all_pass = True
    for variant in ("2L", "3L"):
        for attention in (True, False):
            cfg = ModelConfig(variant=variant, attention=attention,
                              embedding_dim=8, hidden_size=args.hidden,
                              decoder_hidden=args.hidden, attention_size=4,
                              label_embedding_dim=4, dropout=0.0,
                              seed=args.seed)
            model = build_model(cfg, vocab)
            gold = gold_labels(sentence, vocab, variant)

            def forward_fn():
                out = forward(model, embedded, gold=gold, mode="train")
                return joint_loss(out, gold)

            err = grad_check(forward_fn, model.parameters(),
                             epsilon=args.eps, corrupt=args.corrupt)
            ok = err < GRADCHECK_THRESHOLD
            all_pass = all_pass and ok
            print(f"{cfg.name}: max relative error {err:.3e} at "
                  f"eps={args.eps:g} "
                  f"({'<' if ok else '>='} {GRADCHECK_THRESHOLD:g}) "
                  f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if all_pass else 1


def cmd_gen_corpus(args):
    frames = args.frames.split(",") if args.frames else None
    try:
        sentences = generate_synthetic(args.seed, args.n, frames)
    except ValueError as exc:
        raise ConfigError(str(exc))
    out = args.out or "synth.jsonl"
    Path(out).write_text(serialize_corpus(sentences), encoding="utf-8")
    map_out = args.map_out or str(Path(out).with_suffix("")) + ".map.json"
    Path(map_out).write_text(serialize_map(demo_map()), encoding="utf-8")
    print(f"wrote {len(sentences)} sentences to {out}; demo map to {map_out}")
    return EXIT_OK


def _add_common(p):
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed (default 42)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for cross-validation folds")
    p.add_argument("--out", default=None, help="output path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="framecmd",
        description="Multi-layer LSTM semantic parser for robot commands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", default="3l_att")
    p.add_argument("--embeddings", default=None,
                   help="pre-trained embedding text file")
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VALUE")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or run k-fold CV")
    p.add_argument("--corpus", required=True)
    p.add_argument("--ckpt", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--cv", type=int, default=None, metavar="K")
    p.add_argument("--maps", action="append", default=[],
                   help="semantic map JSON (repeatable)")
    p.add_argument("--embeddings", default=None)
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VALUE")
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("parse", help="parse one sentence with a checkpoint")
    p.add_argument("ckpt")
    p.add_argument("sentence")
    p.add_argument("--map", default=None)
    p.add_argument("--show-attention", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of all architectures")
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--corrupt", action="store_true",
                   help=argparse.SUPPRESS)
    _add_common(p)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("gen-corpus", help="write a synthetic corpus + map")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--frames", default=None,
                   help="comma-separated frame subset")
    p.add_argument("--map-out", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_gen_corpus)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None:
        args.seed = 42 if args.command in ("gradcheck", "gen-corpus") else None
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, MapError, EmbeddingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT


if __name__ == "__main__":
    sys.exit(main())
