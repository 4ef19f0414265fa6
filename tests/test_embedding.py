from __future__ import annotations

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memgov.embedding import (
    _TOKEN,
    DEFAULT_DIMENSION,
    MAX_DIMENSION,
    TOKEN_CACHE_SIZE,
    HashingEmbedder,
    default_embedder_for,
)

DISTINCT_TOKENS = " ".join(f"tok{i}" for i in range(100_000))


@pytest.mark.parametrize("dimension", [0, MAX_DIMENSION + 1, 10**10])
def test_dimension_outside_the_accepted_range_is_refused(dimension):
    with pytest.raises(ValueError, match="dimension"):
        HashingEmbedder(dimension)
    with pytest.raises(ValueError, match="dimension"):
        default_embedder_for(f"feature-hash-{dimension}")
    with pytest.raises(ValueError, match="dimension"):
        HashingEmbedder(-dimension - 1)


def test_largest_accepted_dimension_embeds():
    v = default_embedder_for(f"feature-hash-{MAX_DIMENSION}").embed("null pointer")
    assert v.shape == (MAX_DIMENSION,) and np.count_nonzero(v) == 2


def test_same_text_embeds_identically():
    emb = HashingEmbedder()
    a = emb.embed("null pointer crash in parser")
    b = emb.embed("null pointer crash in parser")
    assert np.array_equal(a, b)


def per_token_reference(text: str, dimension: int = DEFAULT_DIMENSION) -> np.ndarray:
    """Signed feature hashing one token at a time, with no cache."""
    acc = np.zeros(dimension, dtype=np.float64)
    for token in _TOKEN.findall(text.casefold()):
        value = int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "little")
        acc[value % dimension] += 1.0 if value >> 63 == 0 else -1.0
    norm = float(np.linalg.norm(acc))
    if norm > 0.0:
        acc /= norm
    return acc.astype(np.float32)


# Any code point, lone surrogates included, mixed with ASCII letters, digits
# and separators and with characters whose case folding is ASCII (Kelvin
# sign, long s) or several characters (fi ligature, dotted capital I, sharp s).
SPEC_TEXTS = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from(list("aZ09 -_.\n\u212a\u017f\ufb01\u0130\u00df\ud800\udfff")),
    ),
    max_size=80,
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(text=SPEC_TEXTS, dimension=st.sampled_from([1, 7, DEFAULT_DIMENSION]))
@example(text="\ud800 lone \udfff surrogates", dimension=DEFAULT_DIMENSION)
@example(text="\u212aelvin and \u017ftate", dimension=DEFAULT_DIMENSION)
def test_embed_matches_the_spec_reference(text, dimension):
    emb = HashingEmbedder(dimension)
    assert emb.embed(text).tobytes() == per_token_reference(text, dimension).tobytes()
    assert emb.embed(text).tobytes() == per_token_reference(text, dimension).tobytes()  # cached


def test_token_cache_stays_at_its_bound():
    emb = HashingEmbedder()
    emb.embed(" ".join(f"tok{i}" for i in range(TOKEN_CACHE_SIZE)))
    assert len(emb._cache) == TOKEN_CACHE_SIZE
    emb.embed(DISTINCT_TOKENS)
    assert 0 < len(emb._cache) <= TOKEN_CACHE_SIZE


@pytest.mark.parametrize("dimension", [DEFAULT_DIMENSION, 7])
def test_vectors_bit_identical_after_cache_empties(dimension):
    texts = [
        "null pointer crash in parser",
        "Deadlock deadlock DEADLOCK when the worker pool shuts down twice",
        "a b c d e f g h i j k l m n o p q r s t u v w x y z",
        "!!!",
    ]
    emb = HashingEmbedder(dimension)
    before = [emb.embed(t).tobytes() for t in texts]
    emb.embed(DISTINCT_TOKENS)  # fills and empties the cache
    after = [emb.embed(t).tobytes() for t in texts]
    assert before == after == [per_token_reference(t, dimension).tobytes() for t in texts]


def test_shared_cache_under_threads():
    # 4 threads x 100 texts x 200 distinct tokens = 80,000 tokens, more than
    # the cache holds, so it empties while the threads embed.
    emb = HashingEmbedder()
    texts = [[" ".join(f"w{t}x{i}x{j}" for j in range(200)) for i in range(100)] for t in range(4)]
    results = [None] * 4

    def work(t):
        results[t] = [emb.embed(text).tobytes() for text in texts[t]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(emb._cache) <= TOKEN_CACHE_SIZE
    for t in range(4):
        assert results[t] == [per_token_reference(text).tobytes() for text in texts[t]]


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
