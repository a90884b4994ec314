"""Word embedding tables: loading the standard text format and mapping
token sequences to dense input matrices."""

from __future__ import annotations

import numpy as np


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

    def __len__(self):
        return len(self.vectors)

    def __contains__(self, token):
        return token in self.vectors


def _default_unk(dim):
    return np.random.default_rng(0).uniform(-0.05, 0.05, dim)


def load_embeddings(stream, expected_dim=None):
    """Read `<token> <f1> ... <fdim>` lines into an EmbeddingTable.

    The dimension is inferred from the first vector line unless
    expected_dim is given. A 2-field first line whose second field is an
    integer is treated as a "count dim" header and skipped. Duplicate
    tokens keep their first occurrence.
    """
    if isinstance(stream, (bytes, str)):
        text = stream.decode("utf-8") if isinstance(stream, bytes) else stream
    else:
        text = stream.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    dim = expected_dim
    vectors = {}
    lines = text.splitlines()
    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2:
            try:
                int(head[1])
                start = 1
            except ValueError:
                pass
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
        if token not in vectors:
            vectors[token] = vec
    if dim is None:
        raise EmbeddingError("empty embedding file")
    return EmbeddingTable(dim, vectors)


def random_embeddings(tokens, dim=50, seed=0):
    """Deterministic per-token random table, a stand-in for pre-trained
    vectors when none are supplied (each token's vector depends only on
    the token string and the seed)."""
    vectors = {}
    for tok in sorted(set(tokens)):
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed)] + list(tok.encode("utf-8"))))
        vectors[tok] = rng.uniform(-0.5, 0.5, dim)
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
