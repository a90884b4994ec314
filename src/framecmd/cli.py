"""Command-line entry point: train, eval, parse, gradcheck, gen-corpus."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

from .corpus import (AnnotatedSentence, CorpusError, FrameAnnotation,
                     label_vocab, parse_corpus, serialize_corpus)
from .embeddings import (EmbeddingError, embed_sentence, load_embeddings,
                         random_embeddings)
from .gradcheck import grad_check
from .grounding import (MapError, check_chain_data, ground_command, load_map,
                        serialize_map)
from .model import (CheckpointError, ModelConfig, WriteError, build_model,
                    forward, gold_labels, joint_loss, load_checkpoint,
                    predict, save_checkpoint, too_large, unwritable,
                    write_file)
from .pipeline import (TrainConfig, TrainingDiverged, cross_validate,
                       evaluate, metrics_to_dict, report, train)
from .synth import demo_map, generate_synthetic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4
EXIT_DIVERGED = 5
# stdout's reader went away; what a shell reports for a process that
# SIGPIPE killed.
EXIT_BROKEN_PIPE = 141
# The run was interrupted (SIGINT, Ctrl-C); what a shell reports for a
# process that SIGINT killed.
EXIT_INTERRUPTED = 130

GRADCHECK_THRESHOLD = 1e-4


class ConfigError(Exception):
    pass


# Config keys are the dataclass fields but `k`, the number of CV folds,
# which only `eval --cv K` sets; `seed` is in both sets. Each value is
# read as its field's declared type.
MODEL_KEYS = {f.name for f in fields(ModelConfig)}
TRAIN_KEYS = {f.name for f in fields(TrainConfig)}
KEY_TYPES = {**get_type_hints(ModelConfig), **get_type_hints(TrainConfig)}
del KEY_TYPES["k"]
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string"}


def _parse_item(text, where):
    """The config key and value that the text `key = value` sets;
    `where` names its source in errors."""
    key, eq, raw = (part.strip() for part in text.partition("="))
    if not eq:
        raise ConfigError(f"{where}: expected key = value; got {text!r}")
    kind = KEY_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"{where}: unknown key {key!r}")
    raw = raw.strip('"')
    if kind is bool:
        if raw.lower() in ("true", "false"):
            return key, raw.lower() == "true"
    else:
        with contextlib.suppress(ValueError):
            return key, kind(raw)   # int, float or str
    raise ConfigError(f"{where}: {key} must be {_TYPE_NAMES[kind]}; "
                      f"got {raw!r}")


# The paper's four parsers share one set of hyperparameters, the
# ModelConfig and TrainConfig defaults; a preset names the architecture.
PRESETS = {"2l_att": {"variant": "2L", "attention": True},
           "2l_no_att": {"variant": "2L", "attention": False},
           "3l_att": {"variant": "3L", "attention": True},
           "3l_no_att": {"variant": "3L", "attention": False}}


def load_config(name_or_path):
    """The config values of a file, or of a preset named 2l_att,
    2l_no_att, 3l_att or 3l_no_att (any case, - for _)."""
    path = Path(name_or_path)
    if path.exists():
        text = _read_text(path, ConfigError, "config")
        lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
        return dict(_parse_item(line, f"config line {lineno}")
                    for lineno, line in enumerate(lines, start=1) if line)
    preset = PRESETS.get(name_or_path.lower().replace("-", "_"))
    if preset is None:
        raise ConfigError(f"no such config file or preset: {name_or_path}")
    return dict(preset)


def build_configs(values, overrides=()):
    values = dict(values)
    values.update(_parse_item(ov, "--override") for ov in overrides)
    try:
        model_cfg = ModelConfig(
            **{k: v for k, v in values.items() if k in MODEL_KEYS})
        train_cfg = TrainConfig(
            **{k: v for k, v in values.items() if k in TRAIN_KEYS})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    return model_cfg, train_cfg


def _read_text(path, error, what):
    """A file's text; a file that cannot be read raises `error`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path}: {exc}")


def _read_corpus(path):
    return parse_corpus(_read_text(path, CorpusError, "corpus"))


def _read_map(path):
    return load_map(_read_text(path, MapError, "map"))


# The files each command reads and writes, by the flag or positional
# naming them; a written file maps to the suffixes of its sidecars.
# gen-corpus --map-out defaults to --out with .map.json for its suffix.
FILES = {"train": (("--corpus", "--config", "--embeddings"),
                   {"--out": (".history.json",)}),
         "eval": (("--corpus", "--config", "--embeddings", "--ckpt",
                   "--maps"), {"--out": (".txt",)}),
         "parse": (("ckpt", "--map"), {}),
         "gradcheck": ((), {}),
         "gen-corpus": ((), {"--out": (), "--map-out": ()})}


def _check_files(args):
    """Fail before any work when a file the command writes, or a sidecar
    beside it, cannot be written as a file, or is the same file as
    another that the command reads or writes."""
    reads, writes = FILES[args.command]
    named = []      # (flag, path) of each file checked so far
    for flag in reads + tuple(writes):
        if flag == "--map-out" and not args.map_out:    # --out checked
            args.map_out = str(Path(args.out).with_suffix("")) + ".map.json"
        given = getattr(args, flag.lstrip("-").replace("-", "_"))
        if given is None or flag == "--config" and not os.path.isfile(given):
            continue    # not given, or --config names a preset
        paths = given if isinstance(given, list) else [given]
        for path in paths + [given + sfx for sfx in writes.get(flag, ())]:
            if flag in writes:
                _check_out(path, flag, named)
            named.append((flag, path))


def _check_out(path, flag, others):
    """Fail when `path` cannot be written as a file (`unwritable`), or
    is the same file as another, given as (flag, path) pairs."""
    reason = unwritable(Path(path))    # Path("") is ".", a directory
    if reason:
        raise ConfigError(f"{flag}: cannot write {path}: {reason}")
    for name, given in others:
        # samefile, for hard links, raises when either file is missing.
        with contextlib.suppress(OSError, ValueError):  # ValueError: a NUL
            if given and (os.path.realpath(given) == os.path.realpath(path)
                          or os.path.samefile(given, path)):
                raise ConfigError(f"{flag}: {path} is also the {name} file; "
                                  f"one would overwrite the other")


@contextlib.contextmanager
def _allocatable():
    """Turn numpy's refusal to allocate an array that a config asks for
    (`model.too_large`) into a ConfigError. Wrapped round the building
    of the embedding table and the model, it ends such a run before any
    training."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        if not too_large(exc):
            raise
        raise ConfigError(f"config too large to allocate ({exc})")


def _make_table(corpus, model_cfg, embeddings_path, seed):
    if embeddings_path:
        table = load_embeddings(
            _read_text(embeddings_path, EmbeddingError, "embeddings"))
        if table.dim != model_cfg.embedding_dim:
            raise EmbeddingError(
                f"embeddings file {embeddings_path} has {table.dim} values "
                f"per token; the config's embedding_dim is "
                f"{model_cfg.embedding_dim}")
        return table
    tokens = [t for s in corpus for t in s.tokens]
    return random_embeddings(tokens, model_cfg.embedding_dim, seed=seed)


def cmd_train(args):
    values = load_config(args.config)
    model_cfg, train_cfg = build_configs(values, args.override)
    corpus = _read_corpus(args.corpus)
    vocab = label_vocab(corpus)
    with _allocatable():
        table = _make_table(corpus, model_cfg, args.embeddings,
                            train_cfg.seed)
        model = build_model(model_cfg, vocab)
    history = train(model, table, corpus, train_cfg)
    save_checkpoint(args.out, model, table)
    write_file(args.out + ".history.json", json.dumps(
        {"config": model_cfg.name, "epochs_run": len(history),
         "loss_history": history}, sort_keys=True).encode(), b"\n")
    print(f"trained {model_cfg.name} for {len(history)} epochs; "
          f"final loss {history[-1]:.4f}; checkpoint written to {args.out}")
    return EXIT_OK


def cmd_eval(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1; got {args.jobs}")
    if args.ckpt is not None:
        # Flags that only cross-validation reads.
        for flag, given in (("--config", args.config is not None),
                            ("--override", args.override),
                            ("--embeddings", args.embeddings is not None),
                            ("--cv", args.cv is not None),
                            ("--jobs", args.jobs != 1)):
            if given:
                raise ConfigError(f"eval --ckpt does not take {flag}; only "
                                  f"cross-validation (--cv) reads it")
    corpus = _read_corpus(args.corpus)
    maps, paths = ({} if args.maps else None), {}
    for path in args.maps:
        smap = _read_map(path)
        if smap.id in maps:
            raise MapError(f"--maps: map id {smap.id!r} is in both "
                           f"{paths[smap.id]} and {path}")
        maps[smap.id], paths[smap.id] = smap, path
    if maps is not None:
        check_chain_data(corpus, maps)      # before any training or parsing
    if args.cv is not None:
        if not args.config:
            raise ConfigError("--cv requires --config")
        if not 2 <= args.cv <= len(corpus):
            raise ConfigError(f"--cv needs 2 <= K <= {len(corpus)}, "
                              f"the corpus size; got {args.cv}")
        values = load_config(args.config)
        model_cfg, train_cfg = build_configs(values, args.override)
        train_cfg = replace(train_cfg, k=args.cv)
        with _allocatable():    # each fold builds its model first
            table = _make_table(corpus, model_cfg, args.embeddings,
                                train_cfg.seed)
            stage, chain = cross_validate(corpus, model_cfg, train_cfg,
                                          maps=maps, table=table,
                                          jobs=args.jobs)
        name = model_cfg.name
    else:
        if not args.ckpt:
            raise ConfigError("eval needs either --ckpt or --config with --cv")
        model, table = load_checkpoint(args.ckpt)
        stage, chain = evaluate(model, table, corpus, maps)
        name = model.config.name
    text = report([(name, stage, chain)])
    sys.stdout.write(text)
    if args.out:
        doc = {name: metrics_to_dict(stage, chain)}
        write_file(args.out, json.dumps(doc, sort_keys=True).encode(), b"\n")
        write_file(args.out + ".txt", text.encode())
    return EXIT_OK


def cmd_parse(args):
    """Parse SENTENCE; or, when it is "-", each line of stdin as it
    arrives, loading the checkpoint and map once. Each answer is one
    JSON line, flushed at once. A bad line ends the run with its error,
    after the answers to the lines before it."""
    stream = args.sentence == "-"
    if not (stream or args.sentence.strip()):
        raise ConfigError("empty sentence")
    if stream and sys.stdin is None:
        raise ConfigError("parse -: stdin is closed")
    model, table = load_checkpoint(args.ckpt)
    smap = _read_map(args.map) if args.map else None
    # A stdin line is decoded as the same text given as an argument is.
    lines = map(os.fsdecode, sys.stdin.buffer) if stream else [args.sentence]
    for sentence in lines:
        tokens = sentence.split()
        if not tokens:
            raise ConfigError("empty sentence")
        parsed = predict(model, table, tokens)
        doc = {"tokens": tokens,
               "frame_type": parsed.frame_type,
               "elements": [{"type": t, "span": list(s)}
                            for t, s in parsed.elements]}
        if smap is not None:
            grounded = ground_command(parsed, tokens, smap)
            doc["groundings"] = [{"type": t, "span": list(s), "entity": e}
                                 for t, s, e in grounded.groundings]
        if args.show_attention and parsed.attention:
            doc["attention"] = {k: v.tolist()
                                for k, v in parsed.attention.items()}
        sys.stdout.write(json.dumps(doc) + "\n")
        sys.stdout.flush()
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
    if not 0 < args.eps < float("inf"):
        raise ConfigError(f"--eps must be positive and finite; got {args.eps}")
    if args.hidden < 1:
        raise ConfigError(f"--hidden must be >= 1; got {args.hidden}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0; got {args.seed}")
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
            with _allocatable():
                model = build_model(cfg, vocab)
            gold = gold_labels(sentence, vocab, variant)

            def forward_fn():
                out = forward(model, embedded, gold=gold, mode="train")
                return joint_loss(out, gold)

            err = grad_check(forward_fn, model.parameters(), epsilon=args.eps)
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
    write_file(args.out, serialize_corpus(sentences).encode())
    write_file(args.map_out, serialize_map(demo_map()).encode())
    print(f"wrote {len(sentences)} sentences to {args.out}; "
          f"demo map to {args.map_out}")
    return EXIT_OK


# The characters str.splitlines() breaks at. An error message shows them
# escaped, since it quotes arguments and file contents that may hold them
# and must stay one line.
_LINE_BREAKS = {ord(c): repr(c)[1:-1]
                for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _error_line(message):
    return f"error: {str(message).translate(_LINE_BREAKS)}\n"


class _Parser(argparse.ArgumentParser):
    """A usage error ends like every other error: one `error:` line on
    stderr (no usage text), exit 2. Subcommand parsers are built from
    the same class."""

    def error(self, message):
        self.exit(EXIT_CONFIG, _error_line(f"{self.prog}: {message}"))


def build_parser():
    parser = _Parser(
        prog="framecmd",
        description="Multi-layer LSTM semantic parser for robot commands")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_training_flags(p, config):
        p.add_argument("--corpus", required=True)
        p.add_argument("--config", default=config)
        p.add_argument("--embeddings", default=None,
                       help="pre-trained embedding text file")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE")

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    add_training_flags(p, config="3l_att")
    p.add_argument("--out", default="model.ckpt", help="checkpoint path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or run k-fold CV")
    add_training_flags(p, config=None)
    p.add_argument("--ckpt", default=None)
    p.add_argument("--cv", type=int, default=None, metavar="K")
    p.add_argument("--maps", action="append", default=[],
                   help="semantic map JSON (repeatable)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for cross-validation folds")
    p.add_argument("--out", default=None, help="metrics JSON path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("parse", help="parse a sentence with a checkpoint")
    p.add_argument("ckpt")
    p.add_argument("sentence", help='the command; "-" reads one per line '
                                    'of stdin')
    p.add_argument("--map", default=None)
    p.add_argument("--show-attention", action="store_true")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of all architectures")
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("gen-corpus", help="write a synthetic corpus + map")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--frames", default=None,
                   help="comma-separated frame subset")
    p.add_argument("--map-out", default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="synth.jsonl", help="corpus path")
    p.set_defaults(fn=cmd_gen_corpus)
    return parser


# The exit code of each error a command may raise.
EXIT_CODES = {ConfigError: EXIT_CONFIG, WriteError: EXIT_CONFIG,
              CorpusError: EXIT_DATA, MapError: EXIT_DATA,
              EmbeddingError: EXIT_DATA, CheckpointError: EXIT_CHECKPOINT,
              TrainingDiverged: EXIT_DIVERGED}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_files(args)
        return args.fn(args)
    except tuple(EXIT_CODES) as exc:
        message, code = exc, EXIT_CODES[type(exc)]
    except BrokenPipeError:
        # Output still buffered would fail again at the interpreter's
        # final flush: send it nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        message = "stdout was closed before all output was written"
        code = EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        message, code = "interrupted", EXIT_INTERRUPTED
    sys.stderr.write(_error_line(message))
    return code


if __name__ == "__main__":
    sys.exit(main())
