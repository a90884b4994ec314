"""Semantic maps, lexical entity linking, and whole-interpretation-chain
correctness: a parse counts only if the frame, every typed span, and
every entity link are right."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .corpus import strings, typed

# Function words ignored when matching a span against entity names.
STOPWORDS = frozenset({"the", "a", "an", "to", "in", "on", "at", "into", "from"})


class MapError(Exception):
    pass


@dataclass(frozen=True)
class Entity:
    id: str
    type: str
    lexical_refs: frozenset
    location: str | None = None


@dataclass(frozen=True)
class SemanticMap:
    id: str
    entities: tuple

    def __post_init__(self):
        ids = [e.id for e in self.entities]
        if len(ids) != len(set(ids)):
            raise MapError(f"map {self.id}: duplicate entity ids")
        known = set(ids)
        for e in self.entities:
            if not e.lexical_refs:
                raise MapError(f"entity {e.id}: empty lexical_refs")
            if e.location is not None and e.location not in known:
                raise MapError(
                    f"entity {e.id}: dangling location {e.location!r}")


def load_map(data):
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        rec = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MapError(f"malformed map JSON: {exc.msg}")
    try:
        entities = tuple(
            Entity(id=typed(e["id"], str, "entity id"),
                   type=typed(e["type"], str, "entity type"),
                   lexical_refs=frozenset(r.lower() for r in strings(
                       e["lexical_refs"], "lexical_refs")),
                   location=typed(e.get("location"), str, "location",
                                  optional=True))
            for e in typed(rec["entities"], list, "entities"))
        return SemanticMap(id=typed(rec["id"], str, "map id"),
                           entities=entities)
    except (KeyError, TypeError) as exc:
        raise MapError(f"missing or bad map field ({exc})")


def serialize_map(smap):
    rec = {"id": smap.id,
           "entities": [{"id": e.id, "type": e.type,
                         "lexical_refs": sorted(e.lexical_refs),
                         "location": e.location}
                        for e in smap.entities]}
    return json.dumps(rec, ensure_ascii=False) + "\n"


def ground_element(span_tokens, smap):
    """Link a span to an entity id, or None when nothing (or more than
    one thing) matches.

    Matching is case-insensitive: leading function words are stripped,
    then an entity matches if any of its lexical_refs equals the joined
    remaining span or any single remaining token.
    """
    toks = [t.lower() for t in span_tokens]
    while toks and toks[0] in STOPWORDS:
        toks = toks[1:]
    if not toks:
        return None
    joined = " ".join(toks)
    candidates = set(toks) | {joined}
    matches = [e.id for e in smap.entities if e.lexical_refs & candidates]
    if len(matches) == 1:
        return matches[0]
    return None


@dataclass(frozen=True)
class GroundedCommand:
    frame_type: str
    groundings: tuple  # of (element_type, span, entity id or None)


def ground_command(parsed, tokens, smap):
    """Attach entity links to every element of a parsed command."""
    groundings = tuple(
        (etype, span, ground_element(tokens[span[0]:span[1] + 1], smap))
        for etype, span in parsed.elements)
    return GroundedCommand(frame_type=parsed.frame_type, groundings=groundings)


def chain_correct(pred, gold_sentence):
    """True iff the frame, the typed span set, and every gold-grounded
    element's entity link are all correct. Elements without a gold
    grounding impose no linking constraint."""
    if gold_sentence.gold_groundings is None:
        raise ValueError(
            f"sentence {gold_sentence.id} has no gold groundings")
    if pred.frame_type != gold_sentence.frame.frame_type:
        return False
    gold_spans = {(t, tuple(s)) for t, s in gold_sentence.frame.elements}
    pred_spans = {(t, tuple(s)) for t, s, _ in pred.groundings}
    if gold_spans != pred_spans:
        return False
    linked = {(t, tuple(s)): ent for t, s, ent in pred.groundings}
    for elem_idx, entity_id in gold_sentence.gold_groundings:
        etype, span = gold_sentence.frame.elements[elem_idx]
        if linked.get((etype, tuple(span))) != entity_id:
            return False
    return True


def chain_accuracy(predict_fn, sentences, maps):
    """Fraction of sentences whose whole interpretation chain is correct.

    predict_fn(sentence) must return a ParsedCommand; maps is a dict
    map_id -> SemanticMap.
    """
    if not sentences:
        raise ValueError("empty test set")
    correct = 0
    for s in sentences:
        if s.map_id not in maps:
            raise MapError(f"sentence {s.id}: unknown map {s.map_id!r}")
        parsed = predict_fn(s)
        grounded = ground_command(parsed, list(s.tokens), maps[s.map_id])
        if chain_correct(grounded, s):
            correct += 1
    return correct / len(sentences)
