import json
import pickle
import random

import pytest

from framecmd.corpus import (AnnotatedSentence, CorpusError, FrameAnnotation,
                             LabelVocab, decode_iob, encode_iob, label_vocab,
                             make_folds, parse_corpus, serialize_corpus)

RECORD = ('{"id":"s042","tokens":["take","the","book","to","the","kitchen"],'
          '"frame":{"frame_type":"Bringing","lexical_unit":[0,0],'
          '"elements":[{"type":"Theme","span":[1,2]},'
          '{"type":"Goal","span":[3,5]}]},"map_id":"house1",'
          '"gold_groundings":[{"element":0,"entity":"book_1"},'
          '{"element":1,"entity":"kitchen_1"}]}')


def make_sentence(tokens, elements, frame_type="Bringing", lu=(0, 0)):
    return AnnotatedSentence(
        id="t0", tokens=tuple(tokens),
        frame=FrameAnnotation(frame_type, lu, tuple(elements)))


class TestParseCorpus:
    def test_single_record(self):
        corpus = parse_corpus(RECORD)
        assert len(corpus) == 1
        s = corpus[0]
        assert len(s.tokens) == 6
        assert len(s.frame.elements) == 2
        assert s.frame.elements[0] == ("Theme", (1, 2))
        assert s.gold_groundings == ((0, "book_1"), (1, "kitchen_1"))

    def test_empty_input(self):
        assert parse_corpus("") == []

    def test_overlapping_spans_rejected(self):
        rec = json.loads(RECORD)
        rec["frame"]["elements"] = [{"type": "Theme", "span": [1, 2]},
                                    {"type": "Goal", "span": [2, 4]}]
        with pytest.raises(CorpusError, match="overlap"):
            parse_corpus(json.dumps(rec))

    def test_span_out_of_range(self):
        rec = json.loads(RECORD)
        rec["frame"]["elements"] = [{"type": "Goal", "span": [3, 9]}]
        with pytest.raises(CorpusError, match="s042"):
            parse_corpus(json.dumps(rec))

    def test_duplicate_id(self):
        with pytest.raises(CorpusError, match="duplicate"):
            parse_corpus(RECORD + "\n" + RECORD)

    def test_malformed_json_reports_line(self):
        with pytest.raises(CorpusError, match="line 2"):
            parse_corpus(RECORD + "\n{not json")

    def test_unknown_extra_fields_ignored(self):
        rec = json.loads(RECORD)
        rec["extra"] = {"anything": 1}
        corpus = parse_corpus(json.dumps(rec))
        assert corpus[0].id == "s042"

    def test_grounding_addressing_missing_element(self):
        rec = json.loads(RECORD)
        rec["gold_groundings"] = [{"element": 5, "entity": "x"}]
        with pytest.raises(CorpusError, match="missing element"):
            parse_corpus(json.dumps(rec))

    def test_serialize_round_trip(self):
        corpus = parse_corpus(RECORD)
        text = serialize_corpus(corpus)
        assert parse_corpus(text) == corpus


class TestIobCodec:
    def test_encode_typed(self):
        s = make_sentence(["take", "the", "book", "to", "the", "kitchen"],
                          [("Theme", (1, 2)), ("Goal", (3, 5))])
        assert encode_iob(s, typed=True) == (
            "O", "B-Theme", "I-Theme", "B-Goal", "I-Goal", "I-Goal")

    def test_encode_no_elements(self):
        s = make_sentence(["go", "home"], [])
        assert encode_iob(s, typed=True) == ("O", "O")

    def test_encode_untyped_single_token(self):
        s = make_sentence(["book", "to", "me", "now"], [("Theme", (0, 0))])
        assert encode_iob(s, typed=False) == ("B", "O", "O", "O")

    def test_decode_inverse_of_encode(self):
        labels = ["O", "B-Theme", "I-Theme", "B-Goal", "I-Goal", "I-Goal"]
        assert decode_iob(labels) == [("Theme", (1, 2)), ("Goal", (3, 5))]

    def test_decode_repairs_orphan_i(self):
        assert decode_iob(["I-Goal", "O"]) == [("Goal", (0, 0))]

    def test_decode_repairs_type_switch(self):
        assert decode_iob(["B-Theme", "I-Goal"]) == [
            ("Theme", (0, 0)), ("Goal", (1, 1))]

    def test_decode_i_after_a_span_of_another_type(self):
        # An I-t extends only a span of type t ending at the token before.
        assert decode_iob(["B-Theme", "I-Theme", "I-Goal", "I-Goal"]) == [
            ("Theme", (0, 1)), ("Goal", (2, 3))]
        assert decode_iob(["B-Goal", "I"]) == [("Goal", (0, 0)),
                                               (None, (1, 1))]
        assert decode_iob(["B-Goal", "O", "I-Goal"]) == [("Goal", (0, 0)),
                                                         ("Goal", (2, 2))]

    def test_decode_type_is_everything_after_the_first_dash(self):
        assert decode_iob(["B-", "I-", "I"]) == [("", (0, 1)), (None, (2, 2))]
        assert decode_iob(["I-T-x", "I-T-x", "I-T"]) == [("T-x", (0, 1)),
                                                         ("T", (2, 2))]

    def test_decode_all_o(self):
        assert decode_iob(["O", "O", "O"]) == []

    def test_decode_adjacent_b(self):
        assert decode_iob(["B", "B", "I"]) == [(None, (0, 0)), (None, (1, 2))]

    def test_decode_unknown_label(self):
        with pytest.raises(CorpusError):
            decode_iob(["O", "X-Theme"])
        for label in ("Bx", "b", "-B", ""):
            with pytest.raises(CorpusError, match="unknown IOB label"):
                decode_iob(["B", label])

    def test_round_trip_property(self):
        # 1,000 random valid non-overlapping span sets survive the codec.
        rng = random.Random(99)
        types = ["Theme", "Goal", "Source", "Path"]
        for _ in range(1000):
            n = rng.randint(1, 12)
            positions = list(range(n))
            rng.shuffle(positions)
            elements = []
            used = set()
            for _ in range(rng.randint(0, 3)):
                s = rng.randrange(n)
                e = min(n - 1, s + rng.randint(0, 3))
                span = set(range(s, e + 1))
                if span & used:
                    continue
                used |= span
                elements.append((rng.choice(types), (s, e)))
            sent = make_sentence([f"w{i}" for i in range(n)], elements)
            decoded = decode_iob(encode_iob(sent, typed=True))
            assert sorted(decoded) == sorted(elements)


class TestLabelVocab:
    def test_sixteen_frames(self):
        corpus = [make_sentence(["a"], [], frame_type=f"Frame{i:02d}")
                  for i in range(16)]
        corpus = [AnnotatedSentence(id=f"s{i}", tokens=s.tokens, frame=s.frame)
                  for i, s in enumerate(corpus)]
        assert len(label_vocab(corpus).frames) == 16

    def test_typed_iob_order(self):
        s = make_sentence(["take", "the", "book", "to", "the", "kitchen"],
                          [("Theme", (1, 2)), ("Goal", (3, 5))])
        v = label_vocab([s])
        assert v.typed_iob == ("O", "B-Goal", "B-Theme", "I-Goal", "I-Theme")

    def test_typed_iob_is_computed_once(self):
        v = LabelVocab(frames=("A",), element_types=("Goal", "Theme"))
        fresh = LabelVocab(frames=("A",), element_types=("Goal", "Theme"))
        assert v.typed_iob is v.typed_iob
        # The cached alphabet changes neither equality nor the hash, and
        # a pickled copy (a CV worker's) has the same alphabet.
        assert v == fresh and hash(v) == hash(fresh)
        copy = pickle.loads(pickle.dumps(v))
        assert copy == v and hash(copy) == hash(v)
        assert copy.typed_iob == v.typed_iob

    def test_single_sentence(self):
        s = make_sentence(["go"], [], frame_type="Motion")
        v = label_vocab([s])
        assert v.frames == ("Motion",)
        assert v.element_types == ()

    def test_empty_corpus(self):
        with pytest.raises(CorpusError):
            label_vocab([])

    def test_frame_index_round_trip(self):
        v = LabelVocab(frames=("A", "B", "C"))
        for i, f in enumerate(v.frames):
            assert v.frame_index(f) == i


class TestMakeFolds:
    @staticmethod
    def corpus_of(n, frame_types=("F",)):
        return [AnnotatedSentence(
            id=f"s{i:03d}", tokens=("go",),
            frame=FrameAnnotation(frame_types[i % len(frame_types)], (0, 0), ()))
            for i in range(n)]

    def test_527_by_5(self):
        corpus = self.corpus_of(527)
        folds = make_folds(corpus, 5, seed=1)
        sizes = sorted(
            (sum(1 for f in folds.assignment.values() if f == i)
             for i in range(5)), reverse=True)
        assert sizes == [106, 106, 105, 105, 105]

    def test_deterministic(self):
        corpus = self.corpus_of(40)
        assert make_folds(corpus, 5, 3) == make_folds(corpus, 5, 3)
        assert make_folds(corpus, 5, 3) != make_folds(corpus, 5, 4)

    def test_partition(self):
        corpus = self.corpus_of(23)
        folds = make_folds(corpus, 4, 0)
        assert sorted(folds.assignment) == sorted(s.id for s in corpus)
        sizes = [sum(1 for f in folds.assignment.values() if f == i)
                 for i in range(4)]
        assert max(sizes) - min(sizes) <= 1

    def test_stratification(self):
        corpus = self.corpus_of(4, frame_types=("A", "B"))
        folds = make_folds(corpus, 2, 0)
        for fold in range(2):
            frames = {s.frame.frame_type for s in corpus
                      if folds.assignment[s.id] == fold}
            assert frames == {"A", "B"}

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            make_folds(self.corpus_of(3), 4, 0)
