import numpy as np
import pytest

from framecmd.embeddings import (EmbeddingError, embed_sentence,
                                 load_embeddings, lookup, random_embeddings)


class TestLoadEmbeddings:
    def test_basic_line(self):
        table = load_embeddings("the 0.1 -0.2 0.3\n")
        assert table.dim == 3
        np.testing.assert_allclose(lookup(table, "the"), [0.1, -0.2, 0.3])

    def test_duplicate_token_first_wins(self):
        table = load_embeddings("a 1.0 2.0\na 9.0 9.0\n")
        assert len(table.vectors) == 1
        np.testing.assert_allclose(lookup(table, "a"), [1.0, 2.0])

    def test_inconsistent_columns(self):
        with pytest.raises(EmbeddingError, match="line 2"):
            load_embeddings("a 1.0 2.0 3.0\nb 1.0 2.0\n")

    def test_non_numeric_field(self):
        with pytest.raises(EmbeddingError, match="non-numeric"):
            load_embeddings("a 1.0 oops\n")

    def test_count_dim_header_skipped(self):
        table = load_embeddings("2 3\na 1.0 2.0 3.0\nb 4.0 5.0 6.0\n")
        assert table.dim == 3
        assert len(table.vectors) == 2

    def test_two_field_first_line_with_a_token_is_a_vector(self):
        table = load_embeddings("a 1\nb 2\n")
        assert table.dim == 1
        assert sorted(table.vectors) == ["a", "b"]

    @pytest.mark.parametrize("text,line", [
        ("2 3\na 1 2\nb 3 4\n", "line 2"),     # vectors shorter than dim
        ("5 2\na 1 2\n", "line 1"),             # fewer vectors than count
        ("1 2\na 1 2\n\nb 3 4\n", "line 1"),    # more vectors than count
    ])
    def test_header_must_match_the_vectors(self, text, line):
        with pytest.raises(EmbeddingError, match=line):
            load_embeddings(text)

    def test_load_determinism(self):
        text = "a 1.0 2.0\nb 3.0 4.0\n"
        t1, t2 = load_embeddings(text), load_embeddings(text)
        assert set(t1.vectors) == set(t2.vectors)
        for tok in t1.vectors:
            np.testing.assert_array_equal(t1.vectors[tok], t2.vectors[tok])
        np.testing.assert_array_equal(t1.unk_vector, t2.unk_vector)


class TestLookup:
    @pytest.fixture
    def table(self):
        return load_embeddings("kitchen 1.0 0.0\nthe 0.5 0.5\n")

    def test_exact_match(self, table):
        np.testing.assert_allclose(lookup(table, "kitchen"), [1.0, 0.0])

    def test_lowercase_fallback(self, table):
        np.testing.assert_allclose(lookup(table, "Kitchen"), [1.0, 0.0])

    def test_oov_gets_unk(self, table):
        np.testing.assert_array_equal(lookup(table, "sofa"), table.unk_vector)
        assert np.all(np.abs(table.unk_vector) <= 0.05)


class TestEmbedSentence:
    def test_shape(self):
        table = random_embeddings(["go", "to", "the", "kitchen"], dim=50)
        mat = embed_sentence(table, ["go", "to", "the", "kitchen", "go", "to"])
        assert mat.shape == (6, 50)

    def test_all_oov(self):
        table = load_embeddings("x 1.0 2.0\n")
        mat = embed_sentence(table, ["a", "b", "c"])
        for row in mat:
            np.testing.assert_array_equal(row, table.unk_vector)

    def test_single_token(self):
        table = load_embeddings("x 1.0 2.0\n")
        mat = embed_sentence(table, ["x"])
        assert mat.shape == (1, 2)
        np.testing.assert_allclose(mat[0], lookup(table, "x"))

    def test_shape_property_random(self):
        rng = np.random.default_rng(5)
        table = random_embeddings([f"w{i}" for i in range(20)], dim=7)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            toks = [f"w{rng.integers(0, 30)}" for _ in range(n)]
            assert embed_sentence(table, toks).shape == (n, 7)

    @pytest.mark.parametrize("seed", [0, 42, 2**32 - 1, 2**32, 2**64 + 5])
    def test_random_embeddings_follow_the_seed_formula(self, seed):
        # The spec: each token's generator is seeded with the seed
        # followed by the token's UTF-8 bytes.
        tokens = ["go", "kitchen", "café", "台所", ""]
        table = random_embeddings(tokens, dim=6, seed=seed)
        for tok in tokens:
            rng = np.random.default_rng(
                np.random.SeedSequence([seed] + list(tok.encode("utf-8"))))
            np.testing.assert_array_equal(table.vectors[tok],
                                          rng.uniform(-0.5, 0.5, 6))

    def test_random_embeddings_negative_seed_raises(self):
        with pytest.raises(ValueError):
            random_embeddings(["a"], dim=3, seed=-1)

    def test_random_embeddings_deterministic(self):
        t1 = random_embeddings(["a", "b"], dim=5, seed=3)
        t2 = random_embeddings(["b", "a"], dim=5, seed=3)
        np.testing.assert_array_equal(t1.vectors["a"], t2.vectors["a"])
