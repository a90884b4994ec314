import shutil
import tempfile
import time

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from framecmd import model as fc_model
from framecmd import pipeline
from framecmd.corpus import label_vocab
from framecmd.embeddings import random_embeddings
from framecmd.model import ModelConfig, build_model
from framecmd.pipeline import TrainConfig, train
from framecmd.synth import demo_map, generate_synthetic


# Hypothesis keeps caches under ./.hypothesis even without an example
# database, and fills them while pytest collects; give it a temporary
# home for the run instead, so the tests write nothing into the tree.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="framecmd-hypothesis-")


def pytest_configure(config):
    set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture(scope="session")
def synth50():
    return generate_synthetic(seed=7, n=50)


@pytest.fixture(scope="session")
def demo_maps():
    return {"house1": demo_map()}


@pytest.fixture(scope="session")
def overfit_bundle(synth50):
    """3L-ATT model trained to convergence on the 50-sentence corpus.

    Shared across tests that need a model that actually parses; the
    training run itself is what the overfit acceptance criterion checks.
    """
    corpus = synth50
    vocab = label_vocab(corpus)
    table = random_embeddings([t for s in corpus for t in s.tokens],
                              dim=50, seed=7)
    model_cfg = ModelConfig(variant="3L", attention=True, embedding_dim=50,
                            hidden_size=16, decoder_hidden=16,
                            attention_size=8, label_embedding_dim=8,
                            dropout=0.0, seed=7)
    train_cfg = TrainConfig(epochs=100, batch_size=8, lr=2e-3, patience=0,
                            seed=7)
    model = build_model(model_cfg, vocab)
    start = time.monotonic()
    history = train(model, table, corpus, train_cfg)
    elapsed = time.monotonic() - start
    return {"model": model, "table": table, "corpus": corpus,
            "vocab": vocab, "history": history,
            "train_seconds": elapsed, "epochs": train_cfg.epochs}


@pytest.fixture
def predict_calls(monkeypatch):
    """Token tuples of every sentence parsed in the test. Every parse,
    of one sentence or of a batch (`predict_many` parses its chunks so),
    is a `predict` call."""
    calls = []
    original = fc_model.predict

    def counting(model, table, tokens):
        one = not tokens or isinstance(tokens[0], str)
        calls.extend([tuple(tokens)] if one else map(tuple, tokens))
        return original(model, table, tokens)

    monkeypatch.setattr(fc_model, "predict", counting)
    monkeypatch.setattr(pipeline, "predict", counting)
    return calls
