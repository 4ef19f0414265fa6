"""Text embedding interface with a deterministic default implementation.

The default embedder is signed feature hashing: tokenize on
non-alphanumerics, case-fold, hash each token into one of d buckets with a
stable signed hash, and L2-normalize the nonzero result. It is fully
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

_TOKEN = re.compile(r"[A-Za-z0-9]+")

# Most entries in each HashingEmbedder's token -> slot cache; a full cache is
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
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._dimension = dimension
        self._cache: dict[str, tuple[int, float]] = {}
        self._cache_lock = threading.Lock()

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def embedder_id(self) -> str:
        return f"feature-hash-{self._dimension}"

    def _slot(self, token: str) -> tuple[int, float]:
        slot = self._cache.get(token)
        if slot is None:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            value = int.from_bytes(digest, "little")
            slot = (value % self._dimension, 1.0 if value >> 63 == 0 else -1.0)
            # Emptying rather than evicting keeps a hit one plain dict lookup;
            # the lock keeps concurrent misses from overfilling the cache.
            with self._cache_lock:
                if len(self._cache) >= TOKEN_CACHE_SIZE:
                    self._cache.clear()
                self._cache[token] = slot
        return slot

    def embed(self, text: str) -> np.ndarray:
        acc = np.zeros(self._dimension, dtype=np.float64)
        for token in _TOKEN.findall(text.casefold()):
            bucket, sign = self._slot(token)
            acc[bucket] += sign
        norm = float(np.linalg.norm(acc))
        if norm > 0.0:
            acc /= norm
        return acc.astype(np.float32)


def default_embedder_for(embedder_id: str) -> HashingEmbedder | None:
    """Reconstruct the default embedder from a manifest id, if it is one."""
    m = re.fullmatch(r"feature-hash-(\d+)", embedder_id)
    return HashingEmbedder(int(m.group(1))) if m else None
