"""The two parser architectures.

2L: a bidirectional LSTM encoder whose pooled state classifies the
action frame, plus an LSTM decoder with label dependencies emitting
typed IOB tags (joint argument identification + classification).

3L: same first two layers, but the decoder emits plain IOB tags only;
a third LSTM takes the encoder states routed through highway
connections together with the decoder's IOB labels and types each
token. Optional additive self-attention feeds context vectors to every
layer and pools the encoder for frame classification.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import layers as L
from .autodiff import Parameter
from .corpus import LabelVocab, decode_iob, encode_iob
from .embeddings import embed_sentence

FORMAT_VERSION = 1


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
    ad_logits: object                 # Tensor over the frame inventory
    seq2_logits: list                 # per-token Tensors (IOB or typed IOB)
    seq2_labels: list                 # label indices used downstream
    seq3_logits: list | None = None   # per-token Tensors (3L only)
    attention_maps: dict | None = None


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

        self.l1_fwd = own(L.LstmCellParams("layer1.fwd", c.embedding_dim,
                                           c.hidden_size, seed))
        self.l1_bwd = own(L.LstmCellParams("layer1.bwd", c.embedding_dim,
                                           c.hidden_size, seed))
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
        self.l2_cell = own(L.LstmCellParams("layer2.cell", dec_in,
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
            self.l3_cell = own(L.LstmCellParams("layer3.cell", dec_in,
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

    def zero_grads(self):
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self):
        return sum(p.data.size for p in self.parameters())


def build_model(config, vocab):
    if not vocab.frames:
        raise ValueError("empty label vocabulary")
    return Model(config, vocab)


@dataclass(frozen=True)
class GoldLabels:
    frame: int
    seq2: tuple   # decoder label indices (IOB for 3L, typed IOB for 2L)
    seq3: tuple | None = None  # per-token element-type indices (3L)


def gold_labels(sentence, vocab, variant):
    """Index-space gold labels for teacher forcing and the joint loss."""
    frame = vocab.frame_index(sentence.frame.frame_type)
    if variant == "2L":
        typed = encode_iob(sentence, typed=True).labels
        seq2 = tuple(vocab.typed_iob.index(l) for l in typed)
        return GoldLabels(frame=frame, seq2=seq2)
    plain = encode_iob(sentence, typed=False).labels
    seq2 = tuple(vocab.iob.index(l) for l in plain)
    types = ["O"] * len(sentence.tokens)
    for etype, (s, e) in sentence.frame.elements:
        for i in range(s, e + 1):
            types[i] = etype
    seq3 = tuple(vocab.ac_labels.index(t) for t in types)
    return GoldLabels(frame=frame, seq2=seq2, seq3=seq3)


def _dropout(x, rate, rng):
    if rate <= 0.0 or rng is None:
        return x
    mask = (rng.random(x.data.shape[0]) >= rate) / (1.0 - rate)
    return ad.scale(x, mask)


def forward(model, embedded, gold=None, mode="infer", dropout_rng=None):
    """Run the network over an embedded sentence (T x d matrix).

    In train mode the decoder is teacher-forced with gold labels; in
    infer mode it consumes its own greedy predictions. Dropout is applied
    to layer inputs only when a dropout_rng is supplied (training).
    """
    if mode == "train" and gold is None:
        raise ValueError("train mode requires gold labels")
    c = model.config
    rate = c.dropout if mode == "train" else 0.0
    T = embedded.shape[0]
    inputs = [_dropout(ad.constant(embedded[t]), rate, dropout_rng)
              for t in range(T)]

    h1, last_f, last_b = L.bilstm_forward(inputs, model.l1_fwd, model.l1_bwd)
    maps = {} if c.attention else None

    if c.attention:
        pooled, w_ad = L.attention([model.ad_query], h1, model.att1)
        sentence_vec = pooled[0]
        maps["ad"] = w_ad
        ctx2, w2 = L.attention(h1, h1, model.att1)
        maps["layer2"] = w2
    else:
        sentence_vec = ad.concat([last_f, last_b])
        ctx2 = None
    ad_logits = L.affine(sentence_vec, model.ad_head)

    zeros = np.zeros(c.decoder_hidden)
    h = ad.constant(zeros)
    cc = ad.constant(zeros)
    seq2_logits = []
    seq2_labels = []
    prev = model.bos_index
    for t in range(T):
        parts = [h1[t]]
        if ctx2 is not None:
            parts.append(ctx2[t])
        parts.append(ad.getrow(model.label_emb2, prev))
        x = _dropout(ad.concat(parts), rate, dropout_rng)
        h, cc = L.lstm_cell_forward(x, h, cc, model.l2_cell)
        logits = L.affine(h, model.l2_head)
        seq2_logits.append(logits)
        label = gold.seq2[t] if mode == "train" else int(np.argmax(logits.data))
        seq2_labels.append(label)
        prev = label

    out = ModelOutput(ad_logits=ad_logits, seq2_logits=seq2_logits,
                      seq2_labels=seq2_labels, attention_maps=maps)
    if c.variant != "3L":
        return out

    hw_states = [L.highway(s, model.hw) for s in h1]
    if c.attention:
        ctx3, w3 = L.attention(hw_states, hw_states, model.att3)
        maps["layer3"] = w3
    else:
        ctx3 = None
    h = ad.constant(zeros)
    cc = ad.constant(zeros)
    seq3_logits = []
    for t in range(T):
        parts = [hw_states[t]]
        if ctx3 is not None:
            parts.append(ctx3[t])
        parts.append(ad.getrow(model.label_emb3, seq2_labels[t]))
        x = _dropout(ad.concat(parts), rate, dropout_rng)
        h, cc = L.lstm_cell_forward(x, h, cc, model.l3_cell)
        seq3_logits.append(L.affine(h, model.l3_head))
    out.seq3_logits = seq3_logits
    return out


def joint_loss(output, gold):
    """Sum of the per-task cross-entropies, token heads averaged over
    the sentence so length does not dominate."""
    T = len(output.seq2_logits)
    if len(gold.seq2) != T:
        raise ValueError("gold label length mismatch")
    loss = ad.cross_entropy(ad.softmax(output.ad_logits), gold.frame)
    h2 = ad.mean_of([ad.cross_entropy(ad.softmax(lg), gold.seq2[t])
                     for t, lg in enumerate(output.seq2_logits)])
    loss = ad.add(loss, h2)
    if output.seq3_logits is not None:
        if gold.seq3 is None or len(gold.seq3) != T:
            raise ValueError("gold type label length mismatch")
        h3 = ad.mean_of([ad.cross_entropy(ad.softmax(lg), gold.seq3[t])
                         for t, lg in enumerate(output.seq3_logits)])
        loss = ad.add(loss, h3)
    return loss


def predict(model, table, tokens):
    """Greedy parse of a token sequence into a frame and typed spans."""
    if not tokens:
        raise ValueError("empty token sequence")
    embedded = embed_sentence(table, tokens)
    with ad.no_grad():
        out = forward(model, embedded, mode="infer")
    return decode_output(model, out)


def decode_output(model, out):
    vocab = model.vocab
    frame = vocab.frames[int(np.argmax(out.ad_logits.data))]
    labels = [model.seq2_alphabet[i] for i in out.seq2_labels]
    spans = decode_iob(labels)
    if model.config.variant == "2L":
        elements = tuple((t, s) for t, s in spans if t is not None)
        return ParsedCommand(frame_type=frame, elements=elements,
                             attention=out.attention_maps)
    type_idx = [int(np.argmax(lg.data)) for lg in out.seq3_logits]
    elements = []
    for _, (s, e) in spans:
        votes = [type_idx[i] for i in range(s, e + 1)]
        non_o = [v for v in votes if v != 0]
        if not non_o:
            continue  # span unanimously typed O: drop it
        counts = {}
        for v in non_o:
            counts[v] = counts.get(v, 0) + 1
        best = min(counts, key=lambda v: (-counts[v], v))
        elements.append((vocab.ac_labels[best], (s, e)))
    return ParsedCommand(frame_type=frame, elements=tuple(elements),
                         attention=out.attention_maps)


def save_checkpoint(path, model, table):
    """Single file: one JSON header line, then raw little-endian float64
    data in header order (parameters, token vectors, unk vector)."""
    params = sorted(model.parameters(), key=lambda p: p.name)
    tokens = sorted(table.vectors)
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "vocab": {"frames": list(model.vocab.frames),
                  "element_types": list(model.vocab.element_types)},
        "params": [[p.name, list(p.data.shape)] for p in params],
        "embeddings": {"dim": table.dim, "tokens": tokens},
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, ensure_ascii=False).encode("utf-8"))
        f.write(b"\n")
        for p in params:
            f.write(p.data.astype("<f8").tobytes())
        for tok in tokens:
            f.write(table.vectors[tok].astype("<f8").tobytes())
        f.write(table.unk_vector.astype("<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint. Any unreadable
    file, malformed header, or payload whose length is not exactly what
    the header implies raises CheckpointError."""
    from .embeddings import EmbeddingTable

    try:
        with open(path, "rb") as f:
            header_line = f.readline()
            blob = f.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}")
    try:
        header = json.loads(header_line.decode("utf-8"))
        if header.get("format_version") != FORMAT_VERSION:
            raise CheckpointError("unsupported checkpoint format version")
        vocab = header["vocab"]
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
    size = sum(p.data.size for p in by_name.values()) + (len(tokens) + 1) * dim
    if len(blob) != 8 * size:
        raise CheckpointError(
            f"checkpoint payload is {len(blob)} bytes; its header implies "
            f"{8 * size} (truncated, padded or trailing data)")
    data = np.frombuffer(blob, dtype="<f8")
    off = 0
    for name, shape in shapes:
        p = by_name[name]
        p.data = data[off:off + p.data.size].reshape(shape).copy()
        off += p.data.size
    vectors = {}
    for tok in tokens:
        vectors[tok] = data[off:off + dim].copy()
        off += dim
    table = EmbeddingTable(dim, vectors, unk_vector=data[off:].copy())
    return model, table
