"""Synthetic command corpus: a small template grammar over six action
frames, annotated and grounded against a built-in demo semantic map.
Stands in for a real command corpus in tests and demos."""

from __future__ import annotations

import random

from .corpus import AnnotatedSentence, FrameAnnotation
from .grounding import Entity, SemanticMap

DEMO_MAP_ID = "house1"

_ROOMS = [("kitchen", "kitchen_1"), ("bedroom", "bedroom_1"),
          ("bathroom", "bathroom_1"), ("corridor", "corridor_1"),
          ("office", "office_1")]
_OBJECTS = [("book", "book_1"), ("bottle", "bottle_1"), ("mug", "mug_1"),
            ("pillow", "pillow_1"), ("towel", "towel_1"), ("plate", "plate_1")]
_FURNITURE = [("table", "table_1"), ("shelf", "shelf_1"), ("sofa", "sofa_1")]
_PERSONS = [("person", "person_1"), ("man", "man_1"), ("woman", "woman_1")]


def demo_map():
    entities = []
    for ref, eid in _ROOMS:
        entities.append(Entity(eid, "Room", frozenset([ref])))
    for ref, eid in _OBJECTS:
        entities.append(Entity(eid, "Object", frozenset([ref]),
                               location="kitchen_1"))
    for ref, eid in _FURNITURE:
        entities.append(Entity(eid, "Furniture", frozenset([ref]),
                               location="kitchen_1"))
    for ref, eid in _PERSONS:
        entities.append(Entity(eid, "Person", frozenset([ref])))
    return SemanticMap(id=DEMO_MAP_ID, entities=tuple(entities))


# Templates: (token pattern, lexical-unit span, elements). Slot names in
# braces draw from the lexicons above; element spans are written against
# the expanded token positions (all slot fills are single tokens).
_TEMPLATES = {
    "Motion": [
        (["go", "to", "the", "{room}"], (0, 0), [("Goal", (1, 3))]),
        (["move", "to", "the", "{room}"], (0, 0), [("Goal", (1, 3))]),
        (["walk", "to", "the", "{room}"], (0, 0), [("Goal", (1, 3))]),
        (["go", "into", "the", "{room}"], (0, 0), [("Goal", (1, 3))]),
    ],
    "Bringing": [
        (["bring", "the", "{obj}", "to", "the", "{room}"], (0, 0),
         [("Theme", (1, 2)), ("Goal", (3, 5))]),
        (["take", "the", "{obj}", "to", "the", "{room}"], (0, 0),
         [("Theme", (1, 2)), ("Goal", (3, 5))]),
        (["carry", "the", "{obj}", "into", "the", "{room}"], (0, 0),
         [("Theme", (1, 2)), ("Goal", (3, 5))]),
    ],
    "Taking": [
        (["take", "the", "{obj}"], (0, 0), [("Theme", (1, 2))]),
        (["grab", "the", "{obj}"], (0, 0), [("Theme", (1, 2))]),
        (["pick", "up", "the", "{obj}"], (0, 1), [("Theme", (2, 3))]),
    ],
    "Placing": [
        (["put", "the", "{obj}", "on", "the", "{furn}"], (0, 0),
         [("Theme", (1, 2)), ("Goal", (3, 5))]),
        (["place", "the", "{obj}", "on", "the", "{furn}"], (0, 0),
         [("Theme", (1, 2)), ("Goal", (3, 5))]),
    ],
    "Searching": [
        (["look", "for", "the", "{obj}", "in", "the", "{room}"], (0, 1),
         [("Phenomenon", (2, 3)), ("Ground", (4, 6))]),
        (["search", "for", "the", "{obj}", "in", "the", "{room}"], (0, 1),
         [("Phenomenon", (2, 3)), ("Ground", (4, 6))]),
        (["find", "the", "{obj}", "in", "the", "{room}"], (0, 0),
         [("Phenomenon", (1, 2)), ("Ground", (3, 5))]),
    ],
    "Following": [
        (["follow", "the", "{person}"], (0, 0), [("Cotheme", (1, 2))]),
        (["follow", "the", "{person}", "to", "the", "{room}"], (0, 0),
         [("Cotheme", (1, 2)), ("Goal", (3, 5))]),
    ],
}

FRAMES = tuple(sorted(_TEMPLATES))

_SLOT_LEXICON = {"{room}": _ROOMS, "{obj}": _OBJECTS,
                 "{furn}": _FURNITURE, "{person}": _PERSONS}


def generate_synthetic(seed, n, frames=None):
    """Generate n annotated, grounded sentences; deterministic per seed.

    Frames are dealt round-robin over the (sorted) requested subset, so
    every requested frame appears at least once when n >= |frames|.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:    # random.Random would seed on its absolute value
        raise ValueError(f"seed must be >= 0; got {seed}")
    if frames is None:
        frames = FRAMES
    frames = sorted(frames)
    if not frames:
        raise ValueError("empty frame subset")
    unknown = [f for f in frames if f not in _TEMPLATES]
    if unknown:
        raise ValueError(f"unknown frames: {unknown}")
    rng = random.Random(seed)
    sentences = []
    for i in range(n):
        frame_type = frames[i % len(frames)]
        pattern, lu, elements = rng.choice(_TEMPLATES[frame_type])
        tokens = []
        fills = {}  # token position -> entity id
        for pos, tok in enumerate(pattern):
            if tok in _SLOT_LEXICON:
                ref, eid = rng.choice(_SLOT_LEXICON[tok])
                tokens.append(ref)
                fills[pos] = eid
            else:
                tokens.append(tok)
        groundings = []
        for elem_idx, (_, (s, e)) in enumerate(elements):
            for pos in range(s, e + 1):
                if pos in fills:
                    groundings.append((elem_idx, fills[pos]))
                    break
        sentences.append(AnnotatedSentence(
            id=f"syn{i:04d}",
            tokens=tuple(tokens),
            frame=FrameAnnotation(frame_type=frame_type,
                                  lexical_unit=lu,
                                  elements=tuple((t, s) for t, s in elements)),
            map_id=DEMO_MAP_ID,
            gold_groundings=tuple(groundings),
        ))
    return sentences
