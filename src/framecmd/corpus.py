"""Annotated-command data model, JSONL (de)serialization, IOB codec,
label vocabularies and deterministic k-fold splitting."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field


class CorpusError(Exception):
    """Malformed or invalid corpus data."""


@dataclass(frozen=True)
class FrameAnnotation:
    frame_type: str
    lexical_unit: tuple  # (start, end), inclusive token indices
    elements: tuple      # of (element_type, (start, end))


@dataclass(frozen=True)
class AnnotatedSentence:
    id: str
    tokens: tuple
    frame: FrameAnnotation
    map_id: str | None = None
    gold_groundings: tuple | None = None  # of (element_index, entity_id)

    def __post_init__(self):
        if not self.tokens:
            raise CorpusError(f"sentence {self.id}: empty token list")
        n = len(self.tokens)
        spans = [self.frame.lexical_unit] + [s for _, s in self.frame.elements]
        for s, e in spans:
            if not (0 <= s <= e < n):
                raise CorpusError(
                    f"sentence {self.id}: span ({s},{e}) out of range for "
                    f"{n} tokens")
        covered = set()
        for _, (s, e) in self.frame.elements:
            span_set = set(range(s, e + 1))
            if covered & span_set:
                raise CorpusError(
                    f"sentence {self.id}: overlapping element spans")
            covered |= span_set
        if self.gold_groundings is not None:
            for idx, _ in self.gold_groundings:
                if not 0 <= idx < len(self.frame.elements):
                    raise CorpusError(
                        f"sentence {self.id}: gold grounding addresses "
                        f"missing element {idx}")


@dataclass(frozen=True)
class LabelSequence:
    labels: tuple
    scheme: str  # "IOB" or "IOB_TYPED"


def parse_corpus(data):
    """Parse newline-delimited JSON records into validated sentences.

    Accepts bytes or str. Order preserved; duplicate ids rejected.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    sentences = []
    seen = set()
    for lineno, line in enumerate(data.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {lineno}: malformed JSON ({exc.msg})")
        sent = _sentence_from_record(rec, lineno)
        if sent.id in seen:
            raise CorpusError(f"duplicate sentence id: {sent.id}")
        seen.add(sent.id)
        sentences.append(sent)
    return sentences


def typed(value, kind, what, optional=False):
    """value, if it is a `kind` (for int, not a bool) or, when optional,
    None; otherwise a TypeError naming `what`. Loaders use it on decoded
    JSON fields."""
    if optional and value is None:
        return None
    if not isinstance(value, kind) or (kind is int and
                                       isinstance(value, bool)):
        raise TypeError(f"{what} must be of type {kind.__name__}; "
                        f"got {value!r:.40}")
    return value


def strings(value, what):
    """A JSON list of strings as a tuple; otherwise a TypeError."""
    return tuple(typed(v, str, what) for v in typed(value, list, what))


def _span(value, what):
    if len(typed(value, list, what)) != 2:
        raise TypeError(f"{what} must be [start, end]; got {value!r:.40}")
    return tuple(typed(i, int, what) for i in value)


def _sentence_from_record(rec, lineno):
    try:
        fr = rec["frame"]
        frame = FrameAnnotation(
            frame_type=typed(fr["frame_type"], str, "frame_type"),
            lexical_unit=_span(fr["lexical_unit"], "lexical_unit"),
            elements=tuple((typed(el["type"], str, "element type"),
                            _span(el["span"], "element span"))
                           for el in typed(fr["elements"], list, "elements")),
        )
        groundings = rec.get("gold_groundings")
        if groundings is not None:
            groundings = tuple(
                (typed(g["element"], int, "grounding element"),
                 typed(g["entity"], str, "grounding entity"))
                for g in typed(groundings, list, "gold_groundings"))
        return AnnotatedSentence(
            id=typed(rec["id"], str, "id"),
            tokens=strings(rec["tokens"], "tokens"),
            frame=frame,
            map_id=typed(rec.get("map_id"), str, "map_id", optional=True),
            gold_groundings=groundings,
        )
    except (KeyError, TypeError) as exc:
        raise CorpusError(f"line {lineno}: missing or bad field ({exc})")


def serialize_corpus(sentences):
    """Inverse of parse_corpus; one compact JSON record per line."""
    lines = []
    for s in sentences:
        rec = {
            "id": s.id,
            "tokens": list(s.tokens),
            "frame": {
                "frame_type": s.frame.frame_type,
                "lexical_unit": list(s.frame.lexical_unit),
                "elements": [{"type": t, "span": list(sp)}
                             for t, sp in s.frame.elements],
            },
        }
        if s.map_id is not None:
            rec["map_id"] = s.map_id
        if s.gold_groundings is not None:
            rec["gold_groundings"] = [{"element": i, "entity": e}
                                      for i, e in s.gold_groundings]
        lines.append(json.dumps(rec, ensure_ascii=False))
    return "\n".join(lines) + ("\n" if lines else "")


def encode_iob(sentence, typed):
    """Element spans -> per-token IOB (or typed IOB) labels."""
    labels = ["O"] * len(sentence.tokens)
    for etype, (s, e) in sentence.frame.elements:
        labels[s] = f"B-{etype}" if typed else "B"
        for i in range(s + 1, e + 1):
            labels[i] = f"I-{etype}" if typed else "I"
    return LabelSequence(tuple(labels), "IOB_TYPED" if typed else "IOB")


def decode_iob(labels):
    """Labels -> sorted, non-overlapping (element_type, span) list.

    Tolerates invalid model output: an I (or I-t) that does not continue
    a compatible open segment is treated as B (or B-t). Untyped spans get
    element_type None.
    """
    if isinstance(labels, LabelSequence):
        labels = labels.labels
    spans = []
    open_type = None
    open_start = None

    def close(end):
        nonlocal open_start, open_type
        if open_start is not None:
            spans.append((open_type, (open_start, end)))
            open_start = None
            open_type = None

    for i, lab in enumerate(labels):
        if lab == "O":
            close(i - 1)
        elif lab == "B" or lab.startswith("B-"):
            close(i - 1)
            open_type = lab[2:] if lab.startswith("B-") else None
            open_start = i
        elif lab == "I" or lab.startswith("I-"):
            t = lab[2:] if lab.startswith("I-") else None
            if open_start is not None and open_type == t:
                continue
            close(i - 1)  # repair: orphan I acts as B
            open_type = t
            open_start = i
        else:
            raise CorpusError(f"unknown IOB label: {lab!r}")
    close(len(labels) - 1)
    return spans


@dataclass(frozen=True)
class LabelVocab:
    """Index spaces for the three softmax heads.

    Alphabets put O first (index 0), then the remaining labels sorted,
    so every head shares the convention that index 0 means "outside".
    """
    frames: tuple
    iob: tuple = ("O", "B", "I")
    element_types: tuple = ()

    @property
    def typed_iob(self):
        return ("O",) + tuple(sorted(
            f"{p}-{t}" for t in self.element_types for p in ("B", "I")))

    @property
    def ac_labels(self):
        return ("O",) + self.element_types

    def frame_index(self, frame_type):
        return self.frames.index(frame_type)


def label_vocab(corpus):
    """Sorted, deduplicated label inventories of a corpus."""
    if not corpus:
        raise CorpusError("empty corpus")
    frames = sorted({s.frame.frame_type for s in corpus})
    etypes = sorted({t for s in corpus for t, _ in s.frame.elements})
    return LabelVocab(frames=tuple(frames), element_types=tuple(etypes))


@dataclass(frozen=True)
class FoldAssignment:
    k: int
    assignment: dict  # sentence id -> fold index


def make_folds(corpus, k, seed):
    """Deterministic k-fold split, stratified by frame type when every
    frame has at least k examples; plain seeded shuffle otherwise."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > len(corpus):
        raise ValueError(f"k={k} exceeds corpus size {len(corpus)}")
    rng = random.Random(seed)
    by_frame = {}
    for s in corpus:
        by_frame.setdefault(s.frame.frame_type, []).append(s.id)
    stratify = all(len(ids) >= k for ids in by_frame.values())
    assignment = {}
    counter = 0
    if stratify:
        for frame in sorted(by_frame):
            ids = sorted(by_frame[frame])
            rng.shuffle(ids)
            for sid in ids:
                assignment[sid] = counter % k
                counter += 1
    else:
        ids = sorted(s.id for s in corpus)
        rng.shuffle(ids)
        for sid in ids:
            assignment[sid] = counter % k
            counter += 1
    return FoldAssignment(k=k, assignment=assignment)
