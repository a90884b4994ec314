"""Fuzzing the error contract: whatever a corpus, map, embeddings file,
config override or checkpoint holds, its loader either accepts it or
raises its documented error (exit 3, 2 or 4), never anything else.
What a loader accepts must also survive its first use.

Hypothesis runs derandomized and without an example database, so every
run tries the same inputs (conftest.py moves its caches out of the
tree)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecmd import cli
from framecmd.cli import ConfigError, build_configs, load_config
from framecmd.corpus import (CorpusError, label_vocab, parse_corpus,
                             serialize_corpus)
from framecmd.embeddings import (EmbeddingError, embed_sentence,
                                  load_embeddings, random_embeddings)
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
    st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True),
              st.integers(0, 7)))


def test_damaged_checkpoint(checkpoint):
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
            data[int(how[1] * header_len)] ^= 1 << how[2]
            data = bytes(data)
        bad.write_bytes(data)
        try:
            load_checkpoint(bad)
        except CheckpointError:
            return

    run()
