"""Fuzzing the error contract: whatever a corpus, map, embeddings file,
config override or checkpoint holds, its loader either accepts it or
raises its documented error (exit 3, 2 or 4), never anything else.
What a loader accepts must also survive its first use. And whatever
argv and files `main()` gets, it ends with a documented exit code and
at most one stderr line.

Hypothesis runs derandomized and without an example database, so every
run tries the same inputs (conftest.py moves its caches out of the
tree)."""

import contextlib
import io
import json
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecmd import cli, pipeline
from framecmd.cli import ConfigError, build_configs, load_config
from framecmd.corpus import (CorpusError, label_vocab, parse_corpus,
                             serialize_corpus)
from framecmd.embeddings import (EmbeddingError, embed_sentence,
                                  load_embeddings, random_embeddings)
from framecmd.gradcheck import grad_check
from framecmd.grounding import (MapError, ground_element, load_map,
                                serialize_map)
from framecmd.model import (CheckpointError, ModelConfig, build_model,
                            gold_labels, load_checkpoint, save_checkpoint)
from framecmd.synth import demo_map, generate_synthetic

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=150)



json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def record():
    return {"id": "s1", "tokens": ["take", "the", "book", "to", "kitchen"],
            "map_id": "house",
            "frame": {"frame_type": "Bringing", "lexical_unit": [0, 0],
                      "elements": [{"type": "Theme", "span": [1, 2]},
                                   {"type": "Goal", "span": [3, 4]}]},
            "gold_groundings": [{"element": 0, "entity": "book1"}]}


def paths(value, prefix=()):
    """Every key or index path into a JSON document."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for k, v in items:
        yield from paths(v, prefix + (k,))


def edited(doc):
    """A strategy: doc with one of its fields (or the whole of it)
    replaced by any JSON value, or one of its fields removed."""
    def apply(edit):
        path, value, remove = edit
        if not path:
            return value
        out = json.loads(json.dumps(doc))
        parent = out
        for k in path[:-1]:
            parent = parent[k]
        if remove:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return out

    return st.tuples(st.sampled_from(list(paths(doc))), json_values,
                     st.booleans()).map(apply)


def use_corpus(sentences):
    """What training and evaluation first do with a parsed corpus."""
    for s in sentences:
        assert isinstance(s.id, str) and isinstance(s.frame.frame_type, str)
        assert all(isinstance(t, str) for t in s.tokens)
    vocab = label_vocab(sentences)
    for s in sentences:
        for variant in ("2L", "3L"):
            gold_labels(s, vocab, variant)
    assert parse_corpus(serialize_corpus(sentences)) == sentences


@FUZZ
@given(edited(record()))
def test_edited_corpus_record(rec):
    text = json.dumps(rec)
    try:
        sentences = parse_corpus(text + "\n" + text.replace('"s1"', '"s2"'))
    except CorpusError:
        return
    use_corpus(sentences)


@FUZZ
@given(st.text(max_size=80))
def test_random_corpus_text(text):
    try:
        sentences = parse_corpus(text)
    except CorpusError:
        return
    if sentences:
        use_corpus(sentences)


def use_map(smap):
    for e in smap.entities:
        assert isinstance(e.id, str) and isinstance(e.type, str)
        assert all(isinstance(r, str) for r in e.lexical_refs)
        assert e.location is None or isinstance(e.location, str)
    ground_element(["the", "book"], smap)


@FUZZ
@given(edited(json.loads(serialize_map(demo_map()))))
def test_edited_map(doc):
    try:
        smap = load_map(json.dumps(doc))
    except MapError:
        return
    use_map(smap)


@FUZZ
@given(st.text(max_size=80))
def test_random_map_text(text):
    try:
        smap = load_map(text)
    except MapError:
        return
    use_map(smap)


embedding_lines = st.lists(
    st.lists(st.sampled_from(["go", "home", "2", "3", "0.5", "-1e3", "nan",
                              "inf", "1e999", "x", ""]), max_size=5)
    .map(" ".join), max_size=4).map("\n".join)


@FUZZ
@given(st.text(max_size=60) | embedding_lines)
def test_random_embeddings_text(text):
    try:
        table = load_embeddings(text)
    except EmbeddingError:
        return
    assert table.dim >= 1
    for vec in table.vectors.values():
        assert vec.shape == (table.dim,) and np.isfinite(vec).all()
    embed_sentence(table, ["go", "home"])


override_values = st.sampled_from(
    ["1", "0", "-1", "1.5", "2e-3", "1e400", "nan", "inf", "true", "False",
     "3L", "2L", "adam", "", '"x"']) | st.text(max_size=6)


@FUZZ
@given(st.lists(st.tuples(st.sampled_from(sorted(cli.KEY_TYPES))
                          | st.text(max_size=5), override_values)
                .map("=".join) | st.text(max_size=8), max_size=3))
def test_random_overrides(overrides):
    try:
        model_cfg, train_cfg = build_configs(load_config("3l_att"),
                                             overrides)
    except ConfigError:
        return
    for cfg in (model_cfg, train_cfg):
        for key, kind in cli.KEY_TYPES.items():
            if hasattr(cfg, key):
                assert type(getattr(cfg, key)) is kind


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    corpus = generate_synthetic(seed=2, n=6)
    cfg = ModelConfig(embedding_dim=4, hidden_size=3, decoder_hidden=3,
                      attention_size=2, label_embedding_dim=2)
    model = build_model(cfg, label_vocab(corpus))
    table = random_embeddings([t for s in corpus for t in s.tokens], 4)
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save_checkpoint(path, model, table)
    return path, path.read_bytes()


damage = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("pad"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.sampled_from(["flip", "flip payload"]),
              st.floats(0, 1, exclude_max=True), st.integers(0, 7)))


def test_damaged_checkpoint(checkpoint):
    """A damaged checkpoint, truncated, padded or with one bit of its
    header or payload flipped, raises CheckpointError and no other
    error."""
    path, blob = checkpoint
    header_len = blob.index(b"\n")
    bad = path.with_name("bad.ckpt")

    @FUZZ
    @given(damage)
    def run(how):
        if how[0] == "truncate":
            data = blob[:int(how[1] * len(blob))]
        elif how[0] == "pad":
            data = blob + how[1]
        else:
            data = bytearray(blob)
            at = (int(how[1] * header_len) if how[0] == "flip" else
                  header_len + 1 + int(how[1] * (len(blob) - header_len - 1)))
            data[at] ^= 1 << how[2]
            data = bytes(data)
        bad.unlink(missing_ok=True)     # ext4 flushes one rewritten in place
        bad.write_bytes(data)
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)

    run()
    # Every header byte and the newline after it, one bit each: frame
    # names, tokens, config values and the crc32 itself included.
    for at in range(header_len + 1):
        data = bytearray(blob)
        data[at] ^= 1 << at % 8
        bad.unlink(missing_ok=True)
        bad.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)


# Fuzzing main(): random argv over the commands' words, flags and values,
# with small files, valid or random, at the paths it names and on stdin.
# Whatever comes in, main() ends in a documented way: exit 0 with nothing
# on stderr, exit 1 from a failed gradient check, or exit 2 to 5 with one
# `error:` line on stderr. The costly commands run bounded: one epoch of
# training, cross-validation without a pool, one coordinate per parameter
# in the gradient check.
MAIN_FLAGS = {
    "train": ["--corpus", "--config", "--embeddings", "--override", "--out"],
    "eval": ["--corpus", "--ckpt", "--config", "--cv", "--maps",
             "--embeddings", "--override", "--jobs", "--out"],
    "parse": ["--map", "--show-attention"],
    "gradcheck": ["--eps", "--hidden", "--seed"],
    "gen-corpus": ["--n", "--frames", "--map-out", "--seed", "--out"]}
SWITCHES = {"--show-attention", "-h"}
REQUIRED = {"train": ["--corpus"], "eval": ["--corpus"], "gen-corpus": ["--n"]}
# The flags that name files, from the cli's table, but --config: it also
# names presets, so it draws the words that hold them.
FILE_FLAGS = {flag for reads, writes in cli.FILES.values()
              for flag in (*reads, *writes)
              if flag.startswith("--")} - {"--config"}
main_files_named = st.sampled_from(
    ["good.jsonl", "good.map.json", "good.emb", "good.ckpt", "rand",
     "missing", "sub", "sub/new.out", "nodir/x", "-"])
main_words = st.sampled_from(
    ["0", "1", "2", "3", "-1", "1e-5", "nan", "inf", "3l_att", "2l_no_att",
     "epochs=1", "lr=inf", "seed=-1", "dropout=1", "hidden_size=2",
     "Bringing,Motion", "go to the kitchen", ""])
main_text = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\0"), max_size=6)
main_values = main_files_named | main_words | main_text


@st.composite
def main_argv(draw):
    """A command, its positionals for `parse`, mostly its own flags with
    values of their kind, and now and then a stray word."""
    command = draw(st.sampled_from(sorted(MAIN_FLAGS)))
    argv = [command]
    if command == "parse":
        argv += [draw(main_files_named), draw(main_words | main_text)]
    every_flag = sorted({f for fl in MAIN_FLAGS.values() for f in fl}
                        | {"-h"})
    flags = draw(st.lists(st.sampled_from(MAIN_FLAGS[command])
                          | st.sampled_from(MAIN_FLAGS[command])
                          | st.sampled_from(every_flag), max_size=4))
    often = st.sampled_from([True, True, True, False])
    if draw(often):
        flags = REQUIRED.get(command, []) + flags
    for flag in flags:
        kind = main_files_named if flag in FILE_FLAGS else main_words
        argv += [flag] if flag in SWITCHES else [
            flag, draw(kind if draw(often) else main_values)]
    if not draw(often):
        argv.insert(draw(st.integers(1, len(argv))), draw(main_values))
    return argv


@pytest.fixture(scope="module")
def main_files(tmp_path_factory):
    """The valid files main() may be given, by name, as bytes."""
    corpus = generate_synthetic(seed=3, n=4)
    tokens = sorted({t for s in corpus for t in s.tokens})
    rng = np.random.default_rng(0)
    emb = "".join(f"{t} " + " ".join(f"{v:.3f}" for v in rng.normal(size=50))
                  + "\n" for t in tokens)
    cfg = ModelConfig(embedding_dim=4, hidden_size=3, decoder_hidden=3,
                      attention_size=2, label_embedding_dim=2)
    ckpt = tmp_path_factory.mktemp("main") / "m.ckpt"
    save_checkpoint(ckpt, build_model(cfg, label_vocab(corpus)),
                    random_embeddings(tokens, 4))
    return {"good.jsonl": serialize_corpus(corpus).encode(),
            "good.map.json": serialize_map(demo_map()).encode(),
            "good.emb": emb.encode(), "good.ckpt": ckpt.read_bytes()}


def test_main_ends_in_a_documented_way(main_files, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "train", lambda model, table, corpus, cfg:
                        pipeline.train(model, table, corpus,
                                       replace(cfg, epochs=1)))
    monkeypatch.setattr(cli, "cross_validate", lambda *a, **kw:
                        pipeline.cross_validate(
                            a[0], a[1], replace(a[2], epochs=1),
                            **{**kw, "jobs": 1}))
    monkeypatch.setattr(cli, "grad_check", lambda fn, params, **kw:
                        grad_check(fn, params, max_coords=1, **kw))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    blobs = st.binary(max_size=40) | st.sampled_from(
        sorted(main_files.values())).flatmap(
            lambda b: st.integers(0, len(b)).map(lambda n: b[:n]))

    @settings(derandomize=True, database=None, deadline=5000,
              max_examples=200)
    @given(main_argv(), blobs, blobs)
    def run(argv, rand, stdin):
        # Each file is written afresh: ext4 flushes one rewritten in place.
        for name, data in {**main_files, "rand": rand}.items():
            (tmp_path / name).unlink(missing_ok=True)
            (tmp_path / name).write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdin",
                            io.TextIOWrapper(io.BytesIO(stdin)))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse: usage errors and -h
                code = exc.code
        err = err.getvalue()
        if code == 0 or (code == 1 and argv[0] == "gradcheck"):
            assert err == "", argv
        else:
            assert code in (2, 3, 4, 5), argv
            assert err.startswith("error: ") and err.endswith("\n"), argv
            assert len(err.splitlines()) == 1, (argv, err)

    run()
