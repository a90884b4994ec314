"""Word embedding tables: loading the standard text format and mapping
token sequences to dense input matrices."""

from __future__ import annotations

import contextlib

import numpy as np

from .layers import seeded_rng


class EmbeddingError(Exception):
    pass


class EmbeddingTable:
    """Token -> vector mapping with a total lookup (OOV -> unk vector)."""

    def __init__(self, dim, vectors, unk_vector=None):
        self.dim = dim
        self.vectors = vectors
        if unk_vector is None:
            unk_vector = _default_unk(dim)
        self.unk_vector = np.asarray(unk_vector, dtype=np.float64)
        for tok, vec in vectors.items():
            if vec.shape != (dim,):
                raise EmbeddingError(f"vector for {tok!r} has wrong length")


def _default_unk(dim):
    return np.random.default_rng(0).uniform(-0.05, 0.05, dim)


def load_embeddings(text):
    """Read `<token> <f1> ... <fdim>` lines of text into an
    EmbeddingTable.

    A first line of exactly two integer fields is a word2vec "count
    dim" header: the vector lines after it must then be count in
    number, each of dim values. Without one, the dimension is that of
    the first vector line. Blank lines are skipped, and duplicate tokens
    keep their first occurrence.
    """
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    count = dim = None
    if len(head) == 2:
        with contextlib.suppress(ValueError):
            count, dim = map(int, head)
    start = 0 if count is None else 1
    vectors = {}
    n = 0
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split()
        token = parts[0]
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError:
            raise EmbeddingError(f"line {lineno}: non-numeric field")
        if not vec.size or not np.isfinite(vec).all():
            raise EmbeddingError(f"line {lineno}: no values, or a value "
                                 f"that is not finite")
        if dim is None:
            dim = vec.shape[0]
        if vec.shape[0] != dim:
            raise EmbeddingError(
                f"line {lineno}: expected {dim} values, got {vec.shape[0]}")
        n += 1
        if token not in vectors:
            vectors[token] = vec
    if count is not None and n != count:
        raise EmbeddingError(f"line 1: the header promises {count} vectors; "
                             f"the file holds {n}")
    if not vectors:
        raise EmbeddingError("empty embedding file")
    return EmbeddingTable(dim, vectors)


def random_embeddings(tokens, dim=50, seed=0):
    """Deterministic per-token random table, a stand-in for pre-trained
    vectors when none are supplied (each token's vector depends only on
    the token string and the seed)."""
    vectors = {}
    for tok in sorted(set(tokens)):
        vectors[tok] = seeded_rng(seed, tok).uniform(-0.5, 0.5, dim)
    return EmbeddingTable(dim, vectors)


def lookup(table, token):
    """Exact match, then lowercase match, then the unknown vector."""
    vec = table.vectors.get(token)
    if vec is None:
        vec = table.vectors.get(token.lower())
    if vec is None:
        vec = table.unk_vector
    return vec


def embed_sentence(table, tokens):
    if not tokens:
        raise ValueError("empty token sequence")
    return np.stack([lookup(table, t) for t in tokens])
