"""The two parser architectures.

2L: a bidirectional LSTM encoder whose pooled state classifies the
action frame, plus an LSTM decoder with label dependencies emitting
typed IOB tags (joint argument identification + classification).

3L: same first two layers, but the decoder emits plain IOB tags only;
a third LSTM takes the encoder states routed through highway
connections together with the decoder's IOB labels and types each
token. Optional additive self-attention feeds context vectors to every
layer and pools the encoder for frame classification.

`forward` runs a batch of B sentences as one graph, right-padded to the
longest, T tokens. Each layer hands the next one (T, B, d) tensor: the
encoder states, the attention contexts and the highway output. Every
LSTM whose inputs are known in advance is one `layers.lstm_run` node:
the encoder, both of whose directions are one run, the teacher-forced
layer-2 decoder and the layer-3 decoder (fed layer 2's labels). Greedy
layer-2 decoding, which never backpropagates, steps the same array
step, `layers.lstm_cell_forward`, and builds no graph. The heads'
logits are (B, frames) and (T, B, labels), and a single sentence is a
batch of one. A batch's gold labels are padded once, into a GoldBatch
that teacher forcing and `joint_loss` share; `joint_loss` averages the
per-sentence losses over the batch. Parameters must not change between
a forward pass and its backward pass.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import layers as L
from .autodiff import Parameter
from .corpus import LabelVocab, decode_iob, encode_iob
from .embeddings import embed_sentence

FORMAT_VERSION = 2


class CheckpointError(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "3L"
    attention: bool = True
    embedding_dim: int = 50
    hidden_size: int = 32
    decoder_hidden: int = 32
    attention_size: int = 16
    label_embedding_dim: int = 8
    dropout: float = 0.3
    seed: int = 42

    def __post_init__(self):
        if self.variant not in ("2L", "3L"):
            raise ValueError(f"unknown variant: {self.variant}")
        for f in ("embedding_dim", "hidden_size", "decoder_hidden",
                  "attention_size", "label_embedding_dim"):
            if getattr(self, f) < 1:
                raise ValueError(f"{f} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0; got {self.seed}")

    @property
    def name(self):
        return f"{self.variant}-{'ATT' if self.attention else 'NO-ATT'}"


@dataclass(frozen=True)
class ParsedCommand:
    frame_type: str
    elements: tuple  # of (element_type, (start, end))
    # The forward pass's attention weights (ModelOutput.attention_maps);
    # not part of the parse, so equality ignores them.
    attention: dict | None = field(default=None, compare=False, repr=False)


@dataclass
class ModelOutput:
    """The network's outputs for B sentences right-padded to T tokens;
    a sentence's entries past its own length are padding."""
    lengths: np.ndarray               # (B,) tokens per sentence
    ad_logits: object                 # Tensor (B, frames)
    seq2_logits: object               # Tensor (T, B, IOB or typed IOB)
    seq2_labels: np.ndarray           # (T, B) label indices fed downstream
    seq3_logits: object = None        # Tensor (T, B, element types), 3L
    attention_maps: dict | None = None  # name -> (B, queries, T) weights


class Model:
    def __init__(self, config, vocab):
        self.config = config
        self.vocab = vocab
        self._params = []
        own = self._own
        c = config
        seed = c.seed
        h1_dim = 2 * c.hidden_size
        self.seq2_alphabet = (vocab.iob if c.variant == "3L"
                              else vocab.typed_iob)
        n2 = len(self.seq2_alphabet)
        self.bos_index = n2  # extra label-embedding row for step 0

        self.l1 = own(L.LstmCell("layer1", c.embedding_dim, c.hidden_size,
                                 seed, directions=("fwd", "bwd")))
        self.ad_head = own(L.AffineParams("ad_head", len(vocab.frames),
                                          h1_dim, seed))
        if c.attention:
            self.att1 = own(L.AttentionParams("att1", h1_dim, h1_dim,
                                              c.attention_size, seed))
            self.ad_query = own(Parameter("att1.ad_query", L.init_params(
                (h1_dim,), seed, "glorot_uniform", "att1.ad_query")))

        dec_in = h1_dim + (h1_dim if c.attention else 0) + c.label_embedding_dim
        self.label_emb2 = own(Parameter("layer2.label_emb", L.init_params(
            (n2 + 1, c.label_embedding_dim), seed, "glorot_uniform",
            "layer2.label_emb")))
        self.l2_cell = own(L.LstmCell("layer2.cell", dec_in,
                                      c.decoder_hidden, seed))
        self.l2_head = own(L.AffineParams("layer2.head", n2, c.decoder_hidden,
                                          seed))

        if c.variant == "3L":
            self.hw = own(L.HighwayParams("highway", h1_dim, seed))
            if c.attention:
                self.att3 = own(L.AttentionParams("att3", h1_dim, h1_dim,
                                                  c.attention_size, seed))
            self.label_emb3 = own(Parameter("layer3.label_emb", L.init_params(
                (len(vocab.iob), c.label_embedding_dim), seed,
                "glorot_uniform", "layer3.label_emb")))
            self.l3_cell = own(L.LstmCell("layer3.cell", dec_in,
                                          c.decoder_hidden, seed))
            self.l3_head = own(L.AffineParams("layer3.head",
                                              len(vocab.ac_labels),
                                              c.decoder_hidden, seed))

    def _own(self, part):
        """Register a layer's parameters, or one Parameter, as trained
        and saved; returns the part."""
        self._params += [part] if isinstance(part, Parameter) else (
            part.parameters())
        return part

    def parameters(self):
        return list(self._params)

    def num_parameters(self):
        return sum(p.data.size for p in self.parameters())

    def uniform_loss(self):
        """The joint loss of a guess that gives every label of each head
        the same probability: ln(labels) summed over the heads."""
        heads = [self.ad_head, self.l2_head] + (
            [self.l3_head] if self.config.variant == "3L" else [])
        return sum(math.log(h.b.data.size) for h in heads)


def build_model(config, vocab):
    if not vocab.frames:
        raise ValueError("empty label vocabulary")
    return Model(config, vocab)


@dataclass(frozen=True)
class GoldLabels:
    frame: int
    seq2: tuple   # decoder label indices (IOB for 3L, typed IOB for 2L)
    seq3: tuple | None = None  # per-token element-type indices (3L)

    @functools.cached_property
    def batch(self):
        """These labels as a GoldBatch of one, built on first use."""
        return GoldBatch([self])


def gold_labels(sentence, vocab, variant):
    """Index-space gold labels for teacher forcing and the joint loss."""
    frame = vocab.frame_index(sentence.frame.frame_type)
    typed = encode_iob(sentence, typed=True)
    if variant == "2L":
        seq2 = tuple(vocab.typed_iob.index(l) for l in typed)
        return GoldLabels(frame=frame, seq2=seq2)
    plain = encode_iob(sentence, typed=False)
    seq2 = tuple(vocab.iob.index(l) for l in plain)
    # A token's type is its typed label without the B-/I- prefix.
    seq3 = tuple(vocab.ac_labels.index("O" if l == "O" else l[2:])
                 for l in typed)
    return GoldLabels(frame=frame, seq2=seq2, seq3=seq3)


class GoldBatch:
    """The gold labels of B sentences, padded once to the longest, T
    tokens, for teacher forcing and the joint loss: lengths and frames
    (B,), the label sequences seq2 and seq3 (None for 2L labels) as
    (T, B) arrays right-padded with 0, and the token loss weights
    (T, B), 1 / (B * length) per token and 0 on padding."""

    def __init__(self, golds):
        golds = list(golds)
        self.lengths = np.array([len(g.seq2) for g in golds])
        B, T = len(golds), int(self.lengths.max())
        own = np.arange(T)[:, None] < self.lengths
        self.frames = np.array([g.frame for g in golds])
        self.weights = own / (B * self.lengths)

        def padded(seqs):
            out = np.zeros((B, T), dtype=int)
            out[own.T] = list(itertools.chain.from_iterable(seqs))
            return out.T

        self.seq2 = padded(g.seq2 for g in golds)
        self.seq3 = None
        if any(g.seq3 is not None for g in golds):
            if any(g.seq3 is None or len(g.seq3) != len(g.seq2)
                   for g in golds):
                raise ValueError("gold type label length mismatch")
            self.seq3 = padded(g.seq3 for g in golds)


def _gold_batch(gold):
    """A GoldBatch, or a GoldLabels as its GoldBatch of one."""
    return gold if isinstance(gold, GoldBatch) else gold.batch


def _dropout_mask(shape, rate, rng):
    """An inverted-dropout mask, or None when dropout is off."""
    if rate <= 0.0 or rng is None:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


def forward(model, embedded, gold=None, mode="infer", dropout_rng=None,
            lengths=None):
    """Run the network over a batch of embedded sentences.

    embedded packs the sentences' token vectors one after another, an
    (N x d) matrix; lengths gives each sentence's token count (summing
    to N) and defaults to one sentence of N tokens. Inside, the batch is
    one right-padded graph over (T, B, .) tensors, and each sentence's
    padding steps come after its own steps, so they never reach its
    outputs. In train mode the layer-2 decoder is teacher-forced with
    the gold labels (a GoldBatch, or one sentence's GoldLabels); in
    infer mode it consumes its own greedy predictions, step by step,
    and its logits are constants. Dropout is applied to layer inputs
    only when a dropout_rng is supplied (training).
    """
    if mode == "train" and gold is None:
        raise ValueError("train mode requires gold labels")
    c = model.config
    rate = c.dropout if mode == "train" else 0.0
    lengths = np.asarray([embedded.shape[0]] if lengths is None else lengths)
    if lengths.sum() != embedded.shape[0] or np.any(lengths < 1):
        raise ValueError("sentence lengths do not match the embedded tokens")
    B, T = len(lengths), int(lengths.max())
    X = np.zeros((B, T, embedded.shape[1]))
    X[np.arange(T) < lengths[:, None]] = embedded
    X = X.swapaxes(0, 1)
    mask = _dropout_mask(X.shape, rate, dropout_rng)
    if mask is not None:    # the inputs are constants: no graph node
        X = X * mask

    h1, last_f, last_b = L.bilstm_forward(ad.constant(X), model.l1, lengths)
    maps = {} if c.attention else None

    if c.attention:
        sentence_vec, maps["ad"] = L.attention(model.ad_query, h1,
                                               model.att1, lengths)
        ctx2, maps["layer2"] = L.attention(h1, h1, model.att1, lengths)
        parts = [h1, ctx2]
    else:
        sentence_vec = ad.concat([last_f, last_b])
        parts = [h1]
    ad_logits = L.affine(sentence_vec, model.ad_head)

    # Row t of labels2 feeds decoder step t; row t + 1 is the label step
    # t emits: gold when teacher-forced, else that step's greedy argmax.
    labels2 = np.full((T + 1, B), model.bos_index)
    mask = _dropout_mask((T, B, model.l2_cell.input_dim), rate, dropout_rng)
    if mode == "train":
        gold = _gold_batch(gold)
        if not np.array_equal(gold.lengths, lengths):
            raise ValueError("gold label length mismatch")
        labels2[1:] = gold.seq2
        states = L.lstm_run(L.decoder_input(parts, model.label_emb2,
                                            labels2[:-1], mask), model.l2_cell)
        seq2_logits = L.affine(states, model.l2_head)
    else:   # greedy: array steps and no graph, as nothing backpropagates
        ctx = np.concatenate([p.data for p in parts], axis=-1)
        emb = model.label_emb2.data
        view = L.CellView(model.l2_cell, (B, ctx.shape[-1] + emb.shape[-1]))
        head_Wt, head_b = model.l2_head.W.data.T, model.l2_head.b.data
        h = cc = np.zeros((B, c.decoder_hidden), h1.data.dtype)
        logits = []
        for t in range(T):
            x = np.concatenate([ctx[t], emb[labels2[t]]], axis=-1)
            h, cc, _ = L.lstm_cell_forward(x, h, cc, view)
            logits.append(h @ head_Wt + head_b)
            labels2[t + 1] = np.argmax(logits[-1], axis=-1)
        seq2_logits = ad.constant(np.array(logits))

    out = ModelOutput(lengths=lengths, ad_logits=ad_logits,
                      seq2_logits=seq2_logits, seq2_labels=labels2[1:],
                      attention_maps=maps)
    if c.variant != "3L":
        return out

    routed = L.highway(h1, model.hw)     # all steps at once
    if c.attention:
        ctx3, maps["layer3"] = L.attention(routed, routed, model.att3,
                                           lengths)
        parts = [routed, ctx3]
    else:
        parts = [routed]
    mask = _dropout_mask((T, B, model.l3_cell.input_dim), rate, dropout_rng)
    states = L.lstm_run(L.decoder_input(parts, model.label_emb3,
                                        labels2[1:], mask), model.l3_cell)
    out.seq3_logits = L.affine(states, model.l3_head)
    return out


def joint_loss(output, gold):
    """Mean over the batch's sentences of each sentence's loss: the sum
    of the per-task cross-entropies, token heads averaged over the
    sentence so length does not dominate. gold is a GoldBatch, or one
    sentence's GoldLabels. Each head is one fused cross-entropy node
    over its stacked logits, weighted 1 / B per sentence, and
    1 / (B * length) per token and 0 on padding."""
    gold = _gold_batch(gold)
    B = len(output.lengths)
    if not np.array_equal(gold.lengths, output.lengths):
        raise ValueError("gold label length mismatch")
    loss = L.softmax_cross_entropy(output.ad_logits, gold.frames,
                                   np.full(B, 1 / B))
    loss = ad.add(loss, L.softmax_cross_entropy(
        output.seq2_logits, gold.seq2, gold.weights))
    if output.seq3_logits is not None:
        if gold.seq3 is None:
            raise ValueError("gold type labels missing")
        loss = ad.add(loss, L.softmax_cross_entropy(
            output.seq3_logits, gold.seq3, gold.weights))
    return loss


# Sentences per padded graph in predict_many.
PREDICT_CHUNK = 32


def predict(model, table, tokens):
    """Greedy parse of a token sequence into a frame and typed spans.

    Given a list of token sequences instead, parses them as one padded
    no-grad graph and returns their parses in order; one sentence is a
    batch of one through the same code."""
    one = not tokens or isinstance(tokens[0], str)
    batch = [tokens] if one else tokens
    if not all(batch):
        raise ValueError("empty token sequence")
    embedded = np.concatenate([embed_sentence(table, list(t)) for t in batch])
    with ad.no_grad():
        out = forward(model, embedded, mode="infer",
                      lengths=[len(t) for t in batch])
    parses = [decode_output(model, out, b) for b in range(len(batch))]
    return parses[0] if one else parses


def predict_many(model, table, token_lists):
    """Greedy parses of many token sequences, in order: one `predict`
    call, so one padded graph, per PREDICT_CHUNK sentences."""
    token_lists = list(token_lists)
    return [parse for i in range(0, len(token_lists), PREDICT_CHUNK)
            for parse in predict(model, table,
                                 token_lists[i:i + PREDICT_CHUNK])]


def decode_output(model, out, b):
    """The parse of sentence b of a batch output."""
    n = int(out.lengths[b])
    vocab = model.vocab
    frame = vocab.frames[int(np.argmax(out.ad_logits.data[b]))]
    labels = [model.seq2_alphabet[i] for i in out.seq2_labels[:n, b].tolist()]
    spans = decode_iob(labels)
    maps = out.attention_maps
    # A sentence's own queries and keys; "ad" has a single query.
    attention = (None if maps is None
                 else {k: w[b, :n, :n] for k, w in maps.items()})
    if model.config.variant == "2L":
        elements = tuple((t, s) for t, s in spans if t is not None)
        return ParsedCommand(frame_type=frame, elements=elements,
                             attention=attention)
    type_idx = np.argmax(out.seq3_logits.data[:n, b], axis=-1).tolist()
    elements = []
    for _, (s, e) in spans:
        votes = type_idx[s:e + 1]
        non_o = [v for v in votes if v != 0]
        if not non_o:
            continue  # span unanimously typed O: drop it
        counts = {}
        for v in non_o:
            counts[v] = counts.get(v, 0) + 1
        best = min(counts, key=lambda v: (-counts[v], v))
        elements.append((vocab.ac_labels[best], (s, e)))
    return ParsedCommand(frame_type=frame, elements=tuple(elements),
                         attention=attention)


def check_weights(flat):
    """Raise CheckpointError unless the parameter values `flat` (one
    vector) are weights `train` could have produced: every value
    finite, and so the squared norm of all of them, which `train`
    checks after each epoch (a weight above about 1e154 breaks it)."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = float(flat @ flat)
    if not math.isfinite(norm2):
        bad = flat.size - np.count_nonzero(np.isfinite(flat))
        raise CheckpointError(
            f"{bad} of {flat.size} parameter values are not finite" if bad
            else "the squared parameter norm overflows: weights this large "
                 "stop a training run")


def save_checkpoint(path, model, table):
    """Single file: one JSON header line, then raw little-endian float64
    data in header order (parameters, token vectors, unk vector).
    Weights that fail `check_weights` raise CheckpointError before any
    file is written."""
    params = sorted(model.parameters(), key=lambda p: p.name)
    check_weights(np.concatenate([p.data.ravel() for p in params]))
    tokens = sorted(table.vectors)
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "vocab": {"frames": list(model.vocab.frames),
                  "element_types": list(model.vocab.element_types)},
        "params": [[p.name, list(p.data.shape)] for p in params],
        "embeddings": {"dim": table.dim, "tokens": tokens},
    }
    # Write a sibling file and rename it over `path`, so an interrupted
    # save leaves any previous checkpoint as it was.
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(json.dumps(header, ensure_ascii=False).encode("utf-8"))
            f.write(b"\n")
            for p in params:
                f.write(p.data.astype("<f8").tobytes())
            for tok in tokens:
                f.write(table.vectors[tok].astype("<f8").tobytes())
            f.write(table.unk_vector.astype("<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint. Any unreadable
    file, malformed header, payload whose length is not exactly what
    the header implies, payload value that is not finite, or weights
    that fail `check_weights` raise CheckpointError.

    The model is built without its seeded initial values (`skip_init`):
    the header must name exactly the model's parameters and the payload
    must hold exactly their values, so every value comes from the
    file."""
    from .embeddings import EmbeddingTable

    try:
        with open(path, "rb") as f:
            header_line = f.readline()
            blob = f.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}")
    try:
        header = json.loads(header_line.decode("utf-8"))
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                "checkpoint format 1 (per-gate LSTM weights) is no longer "
                "read; retrain the model" if version == 1
                else "unsupported checkpoint format version")
        vocab = header["vocab"]
        with L.skip_init():
            model = build_model(ModelConfig(**header["config"]), LabelVocab(
                frames=tuple(vocab["frames"]),
                element_types=tuple(vocab["element_types"])))
        shapes = [(name, tuple(shape)) for name, shape in header["params"]]
        by_name = {p.name: p for p in model.parameters()}
        if (len(shapes) != len(by_name)
                or {name for name, _ in shapes} != set(by_name)):
            raise CheckpointError("checkpoint/config parameter set mismatch")
        dim = header["embeddings"]["dim"]
        tokens = list(header["embeddings"]["tokens"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed checkpoint header ({type(exc).__name__}: {exc})")
    for name, shape in shapes:
        if by_name[name].data.shape != shape:
            raise CheckpointError(
                f"shape mismatch for {name}: checkpoint {list(shape)}, "
                f"model {list(by_name[name].data.shape)}")
    if type(dim) is not int or dim < 1:
        raise CheckpointError(f"bad embedding dimension in header: {dim!r}")
    n_params = sum(p.data.size for p in by_name.values())
    size = n_params + (len(tokens) + 1) * dim
    if len(blob) != 8 * size:
        raise CheckpointError(
            f"checkpoint payload is {len(blob)} bytes; its header implies "
            f"{8 * size} (truncated, padded or trailing data)")
    data = np.frombuffer(blob, dtype="<f8")
    bad = data.size - np.count_nonzero(np.isfinite(data))
    if bad:
        raise CheckpointError(f"checkpoint payload: {bad} of {data.size} "
                              f"values are not finite (nan or inf)")
    check_weights(data[:n_params])
    off = 0
    for name, shape in shapes:
        p = by_name[name]
        p.data[...] = data[off:off + p.data.size].reshape(shape)
        off += p.data.size
    vectors = {}
    for tok in tokens:
        vectors[tok] = data[off:off + dim].copy()
        off += dim
    table = EmbeddingTable(dim, vectors, unk_vector=data[off:].copy())
    return model, table
