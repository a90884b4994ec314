import json
import random

import pytest

from framecmd.corpus import AnnotatedSentence, FrameAnnotation
from framecmd.grounding import (Entity, GroundedCommand, MapError,
                                SemanticMap, chain_accuracy, chain_correct,
                                ground_command, ground_element, load_map,
                                serialize_map)
from framecmd.model import ParsedCommand

DEMO = {
    "id": "house1",
    "entities": [
        {"id": "kitchen_1", "type": "Room", "lexical_refs": ["kitchen"],
         "location": None},
        {"id": "book_1", "type": "Object", "lexical_refs": ["book"],
         "location": "kitchen_1"},
    ],
}


class TestLoadMap:
    def test_demo_map(self):
        smap = load_map(json.dumps(DEMO))
        assert len(smap.entities) == 2
        assert smap.entities[1].location == "kitchen_1"

    def test_dangling_location(self):
        bad = dict(DEMO)
        bad["entities"] = [{"id": "book_1", "type": "Object",
                            "lexical_refs": ["book"], "location": "attic_9"}]
        with pytest.raises(MapError, match="book_1"):
            load_map(json.dumps(bad))

    def test_empty_entity_list(self):
        smap = load_map('{"id": "m", "entities": []}')
        assert smap.entities == ()

    def test_duplicate_id(self):
        bad = dict(DEMO)
        bad["entities"] = [DEMO["entities"][0], DEMO["entities"][0]]
        with pytest.raises(MapError, match="duplicate"):
            load_map(json.dumps(bad))

    def test_serialize_round_trip(self):
        smap = load_map(json.dumps(DEMO))
        assert load_map(serialize_map(smap)) == smap


class TestGroundElement:
    @pytest.fixture
    def smap(self):
        return load_map(json.dumps(DEMO))

    def test_strips_function_words(self, smap):
        assert ground_element(["to", "the", "kitchen"], smap) == "kitchen_1"

    def test_no_match(self, smap):
        assert ground_element(["the", "sofa"], smap) is None

    def test_ambiguity_gives_none(self):
        smap = SemanticMap("m", (
            Entity("book_1", "Object", frozenset(["book"])),
            Entity("book_2", "Object", frozenset(["book"]))))
        assert ground_element(["the", "book"], smap) is None

    def test_case_insensitive(self, smap):
        assert ground_element(["The", "KITCHEN"], smap) == "kitchen_1"

    def test_all_stopwords(self, smap):
        assert ground_element(["to", "the"], smap) is None


def gold_sentence():
    return AnnotatedSentence(
        id="g0",
        tokens=("take", "the", "book", "to", "the", "kitchen"),
        frame=FrameAnnotation("Bringing", (0, 0),
                              (("Theme", (1, 2)), ("Goal", (3, 5)))),
        map_id="house1",
        gold_groundings=((0, "book_1"), (1, "kitchen_1")))


def grounded(frame="Bringing", theme="book_1", goal="kitchen_1",
             spans=((1, 2), (3, 5))):
    return GroundedCommand(frame, (("Theme", spans[0], theme),
                                   ("Goal", spans[1], goal)))


class TestChainCorrect:
    def test_exact_match(self):
        assert chain_correct(grounded(), gold_sentence())

    def test_wrong_frame_compromises_chain(self):
        assert not chain_correct(grounded(frame="Taking"), gold_sentence())

    def test_wrong_entity(self):
        assert not chain_correct(grounded(theme="kitchen_1"), gold_sentence())

    def test_wrong_span(self):
        assert not chain_correct(grounded(spans=((1, 1), (3, 5))),
                                 gold_sentence())

    def test_ungrounded_elements_unconstrained(self):
        s = AnnotatedSentence(
            id="g1", tokens=("go", "slowly", "home"),
            frame=FrameAnnotation("Motion", (0, 0),
                                  (("Manner", (1, 1)), ("Goal", (2, 2)))),
            map_id="m", gold_groundings=())
        pred = GroundedCommand("Motion", (("Manner", (1, 1), None),
                                          ("Goal", (2, 2), "anything")))
        assert chain_correct(pred, s)

    def test_missing_gold_groundings(self):
        s = AnnotatedSentence(
            id="g2", tokens=("go",),
            frame=FrameAnnotation("Motion", (0, 0), ()))
        with pytest.raises(ValueError):
            chain_correct(GroundedCommand("Motion", ()), s)

    def test_implies_frame_and_span_f1(self):
        # chain-correct => frame correct and typed-span F1 == 1
        from framecmd.pipeline import span_f1
        rng = random.Random(21)
        gold = gold_sentence()
        for _ in range(200):
            frame = rng.choice(["Bringing", "Taking"])
            spans = rng.choice([((1, 2), (3, 5)), ((1, 1), (3, 5))])
            theme = rng.choice(["book_1", "kitchen_1", None])
            pred = grounded(frame=frame, theme=theme, spans=spans)
            if chain_correct(pred, gold):
                assert frame == gold.frame.frame_type
                typed_pred = {(t, s) for t, s, _ in pred.groundings}
                typed_gold = set(gold.frame.elements)
                assert span_f1(typed_gold, typed_pred)[2] == 1.0


def gold_parse(s):
    return ParsedCommand(s.frame.frame_type, tuple(s.frame.elements))


class TestChainAccuracy:
    def test_gold_emitting_stub(self):
        smap = load_map(json.dumps(DEMO))
        gold = gold_sentence()
        assert chain_accuracy([gold_parse(gold)], [gold],
                              {"house1": smap}) == 1.0

    def test_frame_breaking_stub(self):
        smap = load_map(json.dumps(DEMO))
        parse = ParsedCommand("WrongFrame",
                              tuple(gold_sentence().frame.elements))
        assert chain_accuracy([parse], [gold_sentence()],
                              {"house1": smap}) == 0.0

    def test_unknown_map(self):
        parse = ParsedCommand(gold_sentence().frame.frame_type, ())
        with pytest.raises(MapError):
            chain_accuracy([parse], [gold_sentence()], {})

    @pytest.mark.parametrize("n", [0, 2])
    def test_one_parse_per_sentence(self, n):
        smap = load_map(json.dumps(DEMO))
        gold = gold_sentence()
        with pytest.raises(ValueError, match="parses"):
            chain_accuracy([gold_parse(gold)] * n, [gold], {"house1": smap})


def test_ground_command_links_each_element():
    smap = load_map(json.dumps(DEMO))
    parsed = ParsedCommand("Bringing", (("Theme", (1, 2)), ("Goal", (3, 5))))
    gc = ground_command(parsed, list(gold_sentence().tokens), smap)
    assert gc.groundings == (("Theme", (1, 2), "book_1"),
                             ("Goal", (3, 5), "kitchen_1"))
