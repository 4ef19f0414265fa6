"""The benchmark's own signed feature hashing, written from the spec the
program documents for its default embedder, so that the checks never use
the program's vectors:

  tokens = maximal runs of [A-Za-z0-9] in the case-folded text;
  h      = little-endian integer of the 8-byte blake2b digest of the UTF-8 token;
  bucket = h mod d, sign = +1 when bit 63 of h is clear, else -1;
  vector = sum of sign * e_bucket, L2-normalised (float64 here).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

DIMENSION = 256
_TOKEN = re.compile(r"[A-Za-z0-9]+")


class OwnEmbedder:
    def __init__(self, dimension: int = DIMENSION):
        self.dimension = dimension
        self._slots: dict[str, tuple[int, float]] = {}

    def _slot(self, token: str) -> tuple[int, float]:
        slot = self._slots.get(token)
        if slot is None:
            h = int.from_bytes(hashlib.blake2b(token.encode(), digest_size=8).digest(), "little")
            slot = (h % self.dimension, -1.0 if h >> 63 else 1.0)
            self._slots[token] = slot
        return slot

    def embed_many(self, texts: list[str]) -> np.ndarray:
        """Unit rows (zero rows for token-free text), float64."""
        rows, cols, signs = [], [], []
        for r, text in enumerate(texts):
            for token in _TOKEN.findall(text.casefold()):
                c, s = self._slot(token)
                rows.append(r)
                cols.append(c)
                signs.append(s)
        out = np.zeros((len(texts), self.dimension))
        np.add.at(out, (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)), signs)
        norms = np.linalg.norm(out, axis=1)
        nonzero = norms > 0
        out[nonzero] /= norms[nonzero, None]
        return out


def normalized_text(text: str) -> str:
    """Dedup's exact-duplicate key: case-folded, whitespace collapsed."""
    return " ".join(text.casefold().split())
