from __future__ import annotations

import numpy as np
import pytest

from memgov.embedding import DEFAULT_DIMENSION, HashingEmbedder, default_embedder_for


def test_same_text_embeds_identically():
    emb = HashingEmbedder()
    a = emb.embed("null pointer crash in parser")
    b = emb.embed("null pointer crash in parser")
    assert np.array_equal(a, b)


def test_determinism_across_instances():
    a = HashingEmbedder().embed("segfault on close")
    b = HashingEmbedder().embed("segfault on close")
    assert np.array_equal(a, b)


def test_output_dtype_length_and_norm():
    emb = HashingEmbedder()
    v = emb.embed("index out of range")
    assert v.dtype == np.float32
    assert v.shape == (DEFAULT_DIMENSION,)
    assert float(np.linalg.norm(v.astype(np.float64))) == pytest.approx(1.0, abs=1e-6)


def test_empty_text_embeds_to_zero_vector():
    emb = HashingEmbedder()
    for text in ("", "   ", "\t\n", "!!! ??? ..."):
        assert float(np.linalg.norm(emb.embed(text))) == 0.0


def test_tokenization_is_case_and_punctuation_insensitive():
    emb = HashingEmbedder()
    assert np.array_equal(emb.embed("Null-Pointer!"), emb.embed("null pointer"))


def test_token_order_does_not_matter_for_single_occurrences():
    emb = HashingEmbedder()
    assert np.array_equal(emb.embed("alpha beta"), emb.embed("beta alpha"))


def test_distinct_texts_generally_differ():
    emb = HashingEmbedder()
    assert not np.array_equal(emb.embed("timeout in scheduler"), emb.embed("overflow in lexer"))


def test_custom_dimension():
    emb = HashingEmbedder(dimension=32)
    assert emb.embed("x y z").shape == (32,)
    assert emb.embedder_id == "feature-hash-32"


def test_default_embedder_for_round_trips_id():
    emb = default_embedder_for("feature-hash-128")
    assert emb is not None and emb.dimension == 128
    assert default_embedder_for("sentence-model-v9") is None


def test_invalid_dimension_rejected():
    with pytest.raises(ValueError):
        HashingEmbedder(dimension=0)
