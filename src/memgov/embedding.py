"""Text embedding interface with a deterministic default implementation.

The default embedder is signed feature hashing: case-fold, take each
maximal run of ASCII letters and digits as a token, hash each token into
one of d buckets with a stable signed hash (the 8-byte blake2b of the
token, little-endian: bucket h mod d, sign - when bit 63 is set), and
L2-normalize the nonzero sum. It is fully
deterministic across runs and platforms, which is what correctness tests
and reproducible pipelines need. Retrieval-quality deployments can plug
any provider in behind the same interface; the store's manifest records
the embedder id so stores built with different embedders are never mixed
silently.
"""

from __future__ import annotations

import hashlib
import re
import threading
from typing import Protocol

import numpy as np

DEFAULT_DIMENSION = 256
# The largest dimension HashingEmbedder accepts: embed counts tokens in 2 * d
# int64 bins, so a mistyped feature-hash-N id is refused instead of asking
# for memory on every call.
MAX_DIMENSION = 65536

_TOKEN = re.compile(r"[A-Za-z0-9]+")
# Maps every byte but ASCII [A-Za-z0-9] to a space. Every byte of a non-ASCII
# character's UTF-8 is >= 0x80, so splitting the translated UTF-8 of a text
# yields exactly _TOKEN.findall of the text, as bytes.
_NON_TOKEN_TO_SPACE = bytes(
    c if chr(c).isascii() and chr(c).isalnum() else 0x20 for c in range(256)
)

# Most entries in each HashingEmbedder's token -> code cache; a full cache is
# emptied. Above the ~58k distinct tokens of the benchmark's generated
# 135k-card corpus, so indexing it never empties the cache.
TOKEN_CACHE_SIZE = 1 << 16


class Embedder(Protocol):
    @property
    def dimension(self) -> int:
        ...

    @property
    def embedder_id(self) -> str:
        ...

    def embed(self, text: str) -> np.ndarray:
        """Return a float32 vector of length ``dimension``.

        Text with no tokens embeds to the zero vector; callers that need to
        index it must treat that as unembeddable.
        """
        ...


class HashingEmbedder:
    """Deterministic signed feature hashing at a fixed dimension."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if not 1 <= dimension <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {dimension}")
        self._dimension = dimension
        self._cache: dict[bytes, int] = {}
        self._cache_lock = threading.Lock()

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def embedder_id(self) -> str:
        return f"feature-hash-{self._dimension}"

    def _code(self, token: bytes) -> int:
        """Hash a token the cache missed and cache its code: the token's
        bucket, plus the dimension when its sign is negative."""
        value = int.from_bytes(hashlib.blake2b(token, digest_size=8).digest(), "little")
        code = value % self._dimension + self._dimension * (value >> 63)
        # Emptying rather than evicting keeps a hit one plain dict lookup;
        # the lock keeps concurrent misses from overfilling the cache.
        with self._cache_lock:
            if len(self._cache) >= TOKEN_CACHE_SIZE:
                self._cache.clear()
            self._cache[token] = code
        return code

    def embed(self, text: str) -> np.ndarray:
        # surrogatepass: a lone surrogate (JSON can carry one) is a non-token
        # character like any other, never an encoding error.
        utf8 = text.casefold().encode("utf-8", "surrogatepass")
        tokens = utf8.translate(_NON_TOKEN_TO_SPACE).split()
        get = self._cache.get
        codes = [
            code if (code := get(token)) is not None else self._code(token) for token in tokens
        ]
        counts = np.bincount(codes, minlength=2 * self._dimension)
        # Sums of +-1 are small integers, exact in any order.
        acc = (counts[: self._dimension] - counts[self._dimension :]).astype(np.float64)
        norm = float(np.linalg.norm(acc))
        if norm > 0.0:
            acc /= norm
        return acc.astype(np.float32)


def default_embedder_for(embedder_id: str) -> HashingEmbedder | None:
    """Reconstruct the default embedder from a manifest id, if it is one;
    ValueError when its dimension is out of range."""
    m = re.fullmatch(r"feature-hash-(\d+)", embedder_id)
    return HashingEmbedder(int(m.group(1))) if m else None
