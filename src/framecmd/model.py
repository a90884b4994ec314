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
LSTM whose inputs are known in advance, the encoder and the decoders
but greedy layer 2, is one `layers.lstm_run` node; greedy decoding
steps `layers.lstm_cell_forward` and builds no graph. The heads'
logits are (B, frames) and (T, B, labels), and a single sentence is a
batch of one. A batch's gold labels are padded once, into a GoldBatch
that train mode teacher-forces and scores its heads on; `joint_loss`
adds those head losses. Parameters must not change between a forward
pass and its backward pass.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import layers as L
from .autodiff import Parameter
from .corpus import LabelVocab, decode_iob, encode_iob
from .embeddings import EmbeddingTable, embed_sentence

FORMAT_VERSION = 4
# What precedes the crc32's value in a header line, the header's last
# member; the crc32 covers the line up to and including it.
_CRC_MEMBER = b', "crc32": '


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
    gold: object = None               # train mode: the GoldBatch given
    losses: list | None = None        # and each head's loss, in order


class Model:
    """The parser network. Unless `seeded`, the weights that init_params
    draws from config.seed start at zero instead."""

    def __init__(self, config, vocab, seeded=True):
        if not vocab.frames:
            raise ValueError("empty label vocabulary")
        self.config = config
        self.vocab = vocab
        self.stage_params = {}  # the parameters each stage of forward reads
        own = self._own
        c = config
        seed = c.seed if seeded else None
        h1_dim = 2 * c.hidden_size
        self.seq2_alphabet = (vocab.iob if c.variant == "3L"
                              else vocab.typed_iob)
        n2 = len(self.seq2_alphabet)
        self.bos_index = n2  # extra label-embedding row for step 0

        self.l1 = own(L.LstmCell("layer1", c.embedding_dim, c.hidden_size,
                                 seed, directions=("fwd", "bwd")), "layer1")
        self.ad_head = own(L.AffineParams("ad_head", len(vocab.frames),
                                          h1_dim, seed), "ad_head")
        self.stage_params["att1"] = []  # without attention, AD's gather
        if c.attention:
            self.att1 = own(L.AttentionParams("att1", h1_dim, h1_dim,
                                              c.attention_size, seed), "att1")
            self.ad_query = own(L.glorot("att1.ad_query", (h1_dim,), seed),
                                "att1")

        dec_in = h1_dim + (h1_dim if c.attention else 0) + c.label_embedding_dim
        self.label_emb2 = own(L.glorot("layer2.label_emb",
                                       (n2 + 1, c.label_embedding_dim), seed),
                              "layer2")
        self.l2_cell = own(L.LstmCell("layer2.cell", dec_in,
                                      c.decoder_hidden, seed), "layer2")
        self.l2_head = own(L.AffineParams("layer2.head", n2, c.decoder_hidden,
                                          seed), "layer2.head")

        if c.variant == "3L":
            self.hw = own(L.HighwayParams("highway", h1_dim, seed), "highway")
            if c.attention:
                self.att3 = own(L.AttentionParams(
                    "att3", h1_dim, h1_dim, c.attention_size, seed), "att3")
            self.label_emb3 = own(L.glorot(
                "layer3.label_emb", (len(vocab.iob), c.label_embedding_dim),
                seed), "layer3")
            self.l3_cell = own(L.LstmCell("layer3.cell", dec_in,
                                          c.decoder_hidden, seed), "layer3")
            self.l3_head = own(L.AffineParams(
                "layer3.head", len(vocab.ac_labels), c.decoder_hidden, seed),
                "layer3.head")

    def _own(self, part, stage):
        """Register a layer's parameters, or one Parameter, as trained
        and saved and as read by `stage` of forward; returns the part."""
        params = [part] if isinstance(part, Parameter) else part.parameters()
        self.stage_params.setdefault(stage, []).extend(params)
        return part

    def parameters(self):
        """Every stage's parameters, sorted by name, the order callers keep."""
        return sorted((p for ps in self.stage_params.values() for p in ps),
                      key=lambda p: p.name)

    def num_parameters(self):
        return sum(p.data.size for p in self.parameters())

    def uniform_loss(self):
        """The joint loss of a guess that gives every label of each head
        the same probability: ln(labels) summed over the heads."""
        heads = [self.ad_head, self.l2_head] + (
            [self.l3_head] if self.config.variant == "3L" else [])
        return sum(math.log(h.b.data.size) for h in heads)


build_model = Model


def sentence_labels(sentence, vocab, variant):
    """One sentence's index-space gold labels, the triple (frame, seq2,
    seq3): decoder labels seq2 (IOB for 3L, typed IOB for 2L) and, for
    3L, per-token element-type indices seq3 (else None)."""
    frame = vocab.frame_index(sentence.frame.frame_type)
    typed = encode_iob(sentence, typed=True)
    if variant == "2L":
        return frame, tuple(vocab.typed_iob.index(l) for l in typed), None
    plain = encode_iob(sentence, typed=False)
    seq2 = tuple(vocab.iob.index(l) for l in plain)
    # 0 outside a span, else 1 + the type's index; a type may be "O".
    seq3 = tuple(0 if l == "O" else 1 + vocab.element_types.index(l[2:])
                 for l in typed)
    return frame, seq2, seq3


def gold_labels(sentence, vocab, variant):
    """One sentence's gold labels as a GoldBatch of one, for teacher
    forcing and the joint loss."""
    return GoldBatch([sentence_labels(sentence, vocab, variant)])


class GoldBatch:
    """The gold labels of B sentences, given as `sentence_labels`
    triples and padded once to the longest, T tokens: lengths and frames
    (B,), the label sequences seq2 and seq3 (None for 2L labels) as (T,
    B) arrays right-padded with 0, the loss weights frame_weights, 1 / B
    each, and weights (T, B), 1 / (B * length) per token, 0 on padding,
    and by `index` each head's labels as its loss reads them, made once."""

    def __init__(self, labels):
        frames, seq2s, seq3s = zip(*labels)
        n = self.lengths = np.array([len(s) for s in seq2s])
        self.frames = np.array(frames)
        self.frame_weights = np.full(len(frames), 1 / len(frames))
        self.weights = _padded(np.repeat(1 / (len(frames) * n), n), n)
        self.seq2 = _padded(np.concatenate(seq2s), n)
        self.seq3 = None
        if any(s is not None for s in seq3s):
            if any(s is None or len(s) != len(s2)
                   for s, s2 in zip(seq3s, seq2s)):
                raise ValueError("gold type label length mismatch")
            self.seq3 = _padded(np.concatenate(seq3s), n)
        self._index = {}

    def index(self, field, shape):
        """`layers.gold_index(getattr(self, field), shape)`, made once."""
        if (field, shape) not in self._index:
            self._index[field, shape] = L.gold_index(getattr(self, field),
                                                     shape)
        return self._index[field, shape]


def _padded(rows, lengths):
    """Packed rows, lengths[b] of them for each sentence b in turn, as a
    (T, B, ...) array right-padded with zeros to the longest, T."""
    out = np.zeros((len(lengths), lengths.max()) + rows.shape[1:],
                   rows.dtype)
    out[np.arange(out.shape[1]) < lengths[:, None]] = rows
    return out.swapaxes(0, 1)


def _dropout_mask(shape, rate, rng):
    """An inverted-dropout mask, or None when dropout is off."""
    if rate <= 0.0 or rng is None:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


def forward(model, embedded, gold=None, mode="infer", dropout_rng=None,
            lengths=None):
    """Run the network over a batch of embedded sentences, whose token
    vectors `embedded` packs one after another, (N x d); lengths gives
    each one's token count (default: one sentence of N tokens). Train
    mode teacher-forces layer 2 with gold, a GoldBatch; infer mode feeds
    it its greedy predictions. A dropout_rng drops out layer inputs.

    Each layer is a `_stage` keyed off the stage whose output it reads
    (README, "Gradient check"), and in train mode each head's loss is a
    last stage, `loss.<head>`, kept in `out.losses`. Under `ad.reusing`,
    in train mode and without dropout, a stage reuses its last output
    while its key is unchanged.
    """
    if mode == "train" and gold is None:
        raise ValueError("train mode requires gold labels")
    c = model.config
    rate = c.dropout if mode == "train" else 0.0
    n = [len(embedded)] if lengths is None else np.asarray(lengths).tolist()
    if sum(n) != len(embedded) or min(n, default=0) < 1:
        raise ValueError("sentence lengths do not match the embedded tokens")
    if mode == "train" and gold.lengths.tolist() != n:
        raise ValueError("gold label length mismatch")
    lengths = np.array(n)
    key = None
    if ad.stages is not None and mode == "train" and dropout_rng is None:
        # A key holds the inputs, so no other object takes their ids.
        key = (id(model), id(embedded), id(gold), model, embedded, gold, n,
               ad.dtype)
    h1, key1 = _stage(model, "layer1", key, lambda: _layer1(
        model, embedded, lengths, rate, dropout_rng))
    (parts, pooled, maps), key_att1 = _stage(
        model, "att1", key1, lambda: _att1(model, h1, lengths, n))
    ad_logits, key_ad = _stage(model, "ad_head", key_att1,
                               lambda: L.affine(pooled, model.ad_head))
    if mode == "train":
        labels = gold.seq2
        states2, key2 = _stage(model, "layer2", key_att1, lambda: _decoder(
            parts, model.label_emb2, np.vstack([[model.bos_index] * len(n),
                                                labels[:-1]]),
            model.l2_cell, rate, dropout_rng))
        seq2_logits, key2 = _stage(model, "layer2.head", key2,
                                   lambda: L.affine(states2, model.l2_head))
    else:
        seq2_logits, labels = _greedy(model, parts)
    out = ModelOutput(lengths=lengths, ad_logits=ad_logits,
                      seq2_logits=seq2_logits, seq2_labels=labels,
                      attention_maps=None if maps is None else dict(maps))
    if c.variant == "3L":
        routed, key3 = _stage(model, "highway", key1,
                              lambda: L.highway(h1, model.hw))
        parts = [routed]
        if c.attention:
            (ctx3, out.attention_maps["layer3"]), key3 = _stage(
                model, "att3", key3,
                lambda: L.attention(routed, routed, model.att3, n))
            parts.append(ctx3)
        states3, key3 = _stage(model, "layer3", key3, lambda: _decoder(
            parts, model.label_emb3, labels, model.l3_cell, rate,
            dropout_rng))
        out.seq3_logits, key3 = _stage(
            model, "layer3.head", key3, lambda: L.affine(states3,
                                                         model.l3_head))
    if mode != "train":
        return out
    heads = [("ad", key_ad, ad_logits, "frames", gold.frame_weights),
             ("layer2", key2, seq2_logits, "seq2", gold.weights)]
    if c.variant == "3L":
        heads.append(("layer3", key3, out.seq3_logits, "seq3", gold.weights))
    out.gold, out.losses = gold, [_stage(
        model, f"loss.{head}", up, lambda: L.softmax_cross_entropy(
            logits, getattr(gold, field), weights,
            gold.index(field, logits.data.shape)))[0]
        for head, up, logits, field, weights in heads]
    return out


def _layer1(model, embedded, lengths, rate, rng):
    """Layer 1's states h1 over the padded, dropped-out embeddings."""
    X = _padded(embedded, lengths)
    mask = _dropout_mask(X.shape, rate, rng)
    if mask is not None:    # the inputs are constants: no graph node
        X = X * mask
    return L.bilstm_forward(ad.constant(X), model.l1, lengths)


def _att1(model, h1, lengths, n):
    """Layer 2's parts, AD's input and att1's maps, over h1."""
    if not model.config.attention:
        # AD reads the final states: forward at the last token, backward
        # at the first.
        H = model.l1.hidden_dim
        rows = np.where(np.arange(2 * H) < H, lengths[:, None] - 1, 0)
        return [h1], ad.getrow(h1, (rows, np.arange(len(n))[:, None],
                                    np.arange(2 * H))), None
    pooled, ad_map = L.attention(model.ad_query, h1, model.att1, n)
    ctx2, map2 = L.attention(h1, h1, model.att1, n)
    return [h1, ctx2], pooled, {"ad": ad_map, "layer2": map2}


def _decoder(parts, table, rows, cell, rate, rng):
    """A teacher-forced decoder's states: one `lstm_run` over the parts
    and the label embeddings table[rows], (T, B) rows, dropped out."""
    mask = _dropout_mask(rows.shape + (cell.input_dim,), rate, rng)
    return L.lstm_run(L.decoder_input(parts, table, rows, mask), cell)


def _greedy(model, parts):
    """Greedy layer 2, its logits and the (T, B) labels it emits: array
    steps and no graph, as nothing backpropagates."""
    ctx = np.concatenate([p.data for p in parts], axis=-1)
    T, B = ctx.shape[:2]
    # Row t of labels feeds step t; row t + 1 is the argmax step t emits.
    labels = np.full((T + 1, B), model.bos_index)
    emb = model.label_emb2.data
    view = L.CellView(model.l2_cell, (B, ctx.shape[-1] + emb.shape[-1]))
    head_Wt, head_b = model.l2_head.W.data.T, model.l2_head.b.data
    h = cc = np.zeros((B, model.config.decoder_hidden), ctx.dtype)
    logits = []
    for t in range(T):
        x = np.concatenate([ctx[t], emb[labels[t]]], axis=-1)
        h, cc, _ = L.lstm_cell_forward(x, h, cc, view)
        logits.append(h @ head_Wt + head_b)
        labels[t + 1] = np.argmax(logits[-1], axis=-1)
    return ad.constant(np.array(logits)), labels[1:]


def _stage(model, name, up, fn):
    """fn(), the stage `name` of `forward`, and its key: None if nothing
    is reused (up is None). Else the stage's last output, in
    `ad.stages[name]`, comes again with the key stored with it while
    that holds: the upstream key `up` and its parameters' versions."""
    if up is None:
        return fn(), None
    key = (up, [p.version for p in model.stage_params.get(name, ())])
    kept = ad.stages.get(name, (None, None))
    if kept[0] != key:
        kept = ad.stages[name] = key, fn()
    return kept[1], kept[0]


def joint_loss(output, gold):
    """The batch's loss, the mean of its sentences' losses: the head
    losses of forward, (AD + layer 2) + layer 3. output must be in train
    mode and gold the very GoldBatch it was teacher-forced on, else
    ValueError: its logits mean nothing against other labels."""
    if output.losses is None or gold is not output.gold:
        raise ValueError("joint_loss takes a train-mode output and the "
                         "GoldBatch its forward pass was given")
    loss = output.losses[0]
    for term in output.losses[1:]:
        loss = ad.add(loss, term)
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
        votes = [v for v in type_idx[s:e + 1] if v != 0]
        if votes:   # else the span is unanimously typed O: drop it
            # most votes wins; sorted, a tie goes to the lowest index
            best = max(sorted(set(votes)), key=votes.count)
            elements.append((vocab.ac_labels[best], (s, e)))
    return ParsedCommand(frame_type=frame, elements=tuple(elements),
                         attention=attention)


def too_large(exc):
    """Whether exc is numpy's refusal to allocate an array: MemoryError,
    or the ValueError of a size past the address space."""
    return isinstance(exc, MemoryError) or (
        isinstance(exc, ValueError) and "array is too big" in str(exc))


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


def _listing(params):
    """A header's "params": [name, shape] of each parameter, in order."""
    return [[p.name, list(p.data.shape)] for p in params]


def save_checkpoint(path, model, table):
    """Single file: one JSON header line, then raw little-endian float64
    data in header order (parameters, token vectors, unk vector). The
    header's last member, "crc32", is the zlib.crc32 of every byte of
    the file before its value, then of the payload. Weights that fail
    `check_weights` raise CheckpointError before any file is written."""
    params = model.parameters()
    tokens = sorted(table.vectors)
    payload = np.concatenate(
        [p.data.ravel() for p in params] + [table.vectors[t] for t in tokens]
        + [table.unk_vector]).astype("<f8", copy=False)
    check_weights(payload[:sum(p.data.size for p in params)])
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "vocab": {"frames": list(model.vocab.frames),
                  "element_types": list(model.vocab.element_types)},
        "params": _listing(params),
        "embeddings": {"dim": table.dim, "tokens": tokens},
    }
    head = json.dumps(header, ensure_ascii=False).encode("utf-8")[:-1]
    head += _CRC_MEMBER
    head += b"%d}\n" % zlib.crc32(payload, zlib.crc32(head))
    write_file(path, head, payload)


class WriteError(OSError):
    """A file could not be written; any earlier file is as it was."""


def unwritable(path):
    """Why `path` cannot be written as a file, or None: its directory
    must exist, and a file there, symlinks followed, be a regular file."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        parent = os.path.dirname(os.path.realpath(path))
        return None if os.path.isdir(parent) else "no such directory"
    except OSError as exc:
        return exc.strerror
    except ValueError as exc:   # a NUL byte
        return str(exc)
    return None if stat.S_ISREG(mode) else "not a regular file"


def write_file(path, *chunks):
    """Write bytes `chunks` to `path` (symlinks followed) via a renamed
    sibling; a failure (WriteError) or interrupt keeps the old file."""
    target = os.path.realpath(path)
    reason = unwritable(target)
    if reason:
        raise WriteError(f"cannot write {path}: {reason}")
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, target)
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc.strerror or exc}")
    finally:
        with contextlib.suppress(OSError):  # renamed unless it failed
            os.unlink(tmp)


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint. Any unreadable
    file, malformed header, format other than FORMAT_VERSION, config too
    large to build, parameter listing other than the model's, payload
    whose length is not what the header implies, payload value that is
    not finite, weights that fail `check_weights`, or header and payload
    bytes whose crc32 differs from the header's raise CheckpointError,
    in that order.

    The model is built with `seeded=False`, which draws no initial
    values and touches no weight memory: the header must list exactly
    the model's parameters, in order, and the payload must hold exactly
    their values, so every value comes from the file."""
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
                f"checkpoint format {version!r} is not read by this version "
                f"(it reads format {FORMAT_VERSION}); retrain the model")
        vocab = header["vocab"]
        model = build_model(ModelConfig(**header["config"]), LabelVocab(
            frames=tuple(vocab["frames"]),
            element_types=tuple(vocab["element_types"])), seeded=False)
        params = model.parameters()
        if header["params"] != _listing(params):
            raise CheckpointError("the header's parameter names, shapes or "
                                  "order differ from its config's model")
        dim = header["embeddings"]["dim"]
        tokens = list(header["embeddings"]["tokens"])
        crc = header["crc32"]
    except (AttributeError, KeyError, TypeError, ValueError,
            MemoryError) as exc:
        if too_large(exc):
            raise CheckpointError(f"config too large to build a model ({exc})")
        raise CheckpointError(
            f"malformed checkpoint header ({type(exc).__name__}: {exc})")
    if type(dim) is not int or dim < 1:
        raise CheckpointError(f"bad embedding dimension in header: {dim!r}")
    n_params = sum(p.data.size for p in params)
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
    covered = header_line[:header_line.rfind(_CRC_MEMBER) + len(_CRC_MEMBER)]
    if zlib.crc32(blob, zlib.crc32(covered)) != crc:
        raise CheckpointError("checkpoint header or payload does not match "
                              "its crc32")
    off = 0
    for p in params:
        p.data[...] = data[off:off + p.data.size].reshape(p.data.shape)
        off += p.data.size
    vectors = data[off:].reshape(-1, dim).copy()    # the tokens', then unk
    table = EmbeddingTable(dim, dict(zip(tokens, vectors)),
                           unk_vector=vectors[-1])
    return model, table
