"""The experiential memory: indexing, search, dedup, and persistence.

Retrieval embeds only the index layer (problem summary plus signals); the
resolution layer never influences ranking. The normative ranking semantics
is an exhaustive flat scan by cosine similarity with ties broken by card id
ascending; any accelerated structure must reproduce it exactly.

On-disk layout (one directory per store), format 3:

* cards.jsonl    -- one serialized card per line, in indexing order
* vectors.bin    -- magic "MEMGIDX3", little-endian u32 count, u32
                    dimension, count*dimension little-endian float32 values
                    row-major (rows aligned with cards.jsonl), then the
                    little-endian u32 zlib.crc32 of all preceding bytes
* manifest.json  -- {format_version, dimension, count, embedder_id,
                    cards_crc32}; cards_crc32 is the zlib.crc32 of
                    cards.jsonl as 8 hex digits

A changed byte in vectors.bin or cards.jsonl raises ChecksumError at load.
CRC-32 is certain to catch any change that falls within 32 consecutive
bits, so every flipped byte; a random change spread wider than that goes
unnoticed with probability about 2^-32. The checksum guards against
accidental corruption only: it is not keyed, so it does not stop anyone who
can rewrite the files.

Format 2 (magic "MEMGIDX2", an 8-byte blake2b trailer and cards_blake2b,
the hex 8-byte blake2b of cards.jsonl) still loads; save() writes only
format 3, so re-saving a format-2 store upgrades it. A format-1 store
(magic "MEMGIDX1", an FNV-1a trailer, no cards digest) is refused with
StoreFormatError; re-run govern to rebuild it.

The cards are held as on disk: one bytearray with exactly the bytes of
cards.jsonl and the offset of each row's line end. Load reads the file into
that buffer, checks it, and finds the line ends and the leading card ids in
one pass; it decodes no card, and a card is decoded when search or browse
first returns it. A malformed card line therefore surfaces as
StoreFormatError when it is first read.

In memory, search needs one float32 (capacity, dimension) matrix and, per
row, its float64 norm and the float32 reciprocal of that norm, plus the
least and greatest norm; nothing else. The matrix is column-major, so each
coordinate's column is one contiguous run of floats. Load and save stream
vectors.bin in blocks of rows, transposing between its row-major layout and
the column-major matrix, and never hold the whole file; the on-disk format
is unchanged. Indexing a card writes its row into spare capacity, which
doubles as it fills. Every norm is finite and positive: load refuses a
zero, NaN or infinite row, and index_card a vector that is one.

Search is a filter-then-verify scan that returns exactly the hits and
similarity floats of a float64 einsum scan of every row. The filter scores
every row in float32, in place, and keeps the rows within 2 * beta of the
k-th largest float32 score, where beta bounds the float32 score's distance
from the exact one for every row, whatever the summation order. It reads
only the columns of the query's nonzero coordinates, so its cost is the
query's nonzero count times the row count; a feature-hashed query has
about 13 nonzeros of 256. It finds the k-th largest score without sorting
or partitioning every row: the k-th largest of every 32nd row's score is a
floor under it, and only the rows within 2 * beta of that floor (a few
hundred at 135,000 rows) are partitioned. Any row that reaches the exact
k-th similarity scores at least it minus beta, and the float32 k-th score
is at most it plus beta, so the candidates hold the exact top k and every
row tied with the k-th. The exact pass gathers the candidates into
row-major blocks of at most 1,024 rows and scores them with the float64
einsum; its per-row reduction is a pure function of the row, so a gathered
row scores bit-identically to the same row in an all-rows scan.
MemoryStore._candidates gives beta and the proof.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .cards import ExperienceCard, IndexLayer, card_from_dict, card_to_dict, normalized_text
from .embedding import Embedder, default_embedder_for
from .errors import (
    ChecksumError,
    DataError,
    DuplicateCardError,
    StoreFormatError,
    UnembeddableTextError,
    UnknownCardError,
)

FORMAT_VERSION = 3  # the format save() writes
DEFAULT_TOP_K = 10
DEFAULT_DEDUP_THRESHOLD = 0.95

_HEADER = 16  # magic, u32 count, u32 dimension
_CARD_ID_PREFIX = b'{"card_id": "'  # how card_to_dict lines start once dumped
_CHUNK_ROWS = 1024  # rows per block when load and save stream vectors.bin
_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64
_F32_MAX = float(np.finfo(np.float32).max)
# The filter takes a floor under the k-th largest score from every this-many
# rows' scores. At 135,000 rows, on one CPU of a 2-vCPU VM, the selection's
# median was 86 us at 32 and within 6 us of that at 16 and at 64.
_SAMPLE_STRIDE = 32


class _Crc32:
    """zlib.crc32 behind hashlib's update / digest / hexdigest surface; the
    digest is little-endian."""

    def __init__(self, data=b""):
        self.value = zlib.crc32(data)

    def update(self, data) -> None:
        self.value = zlib.crc32(data, self.value)

    def digest(self) -> bytes:
        return self.value.to_bytes(4, "little")

    def hexdigest(self) -> str:
        return f"{self.value:08x}"


@dataclass(frozen=True)
class _Format:
    magic: bytes  # vectors.bin's first 8 bytes
    trailer: int  # bytes of checksum that end vectors.bin
    checksum: Callable[..., object]  # a running checksum of its argument, as _Crc32
    cards_key: str  # the manifest key of cards.jsonl's hex checksum


_FORMATS = {
    2: _Format(b"MEMGIDX2", 8, partial(hashlib.blake2b, digest_size=8), "cards_blake2b"),
    3: _Format(b"MEMGIDX3", 4, _Crc32, "cards_crc32"),
}


@dataclass(frozen=True)
class SearchHit:
    card_id: str
    similarity: float
    preview: IndexLayer


def search_hit_to_dict(hit: SearchHit) -> dict:
    """Preview-only wire form; resolution fields are structurally absent."""
    return {
        "card_id": hit.card_id,
        "similarity": hit.similarity,
        "preview": {
            "problem_summary": hit.preview.problem_summary,
            "signals": list(hit.preview.signals),
        },
    }


def compose_index_text(card: ExperienceCard) -> str:
    """The exact text that gets embedded: summary plus signals, resolution
    layer excluded by construction."""
    return card.index.problem_summary + "\n" + "; ".join(card.index.signals)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two nonzero vectors, clamped into [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise UnembeddableTextError("cosine similarity undefined for zero-norm vectors")
    return min(1.0, max(-1.0, float(np.dot(a, b)) / (na * nb)))


def _gamma(d: int, u: float) -> float:
    """Higham's gamma_d(u) = d*u / (1 - d*u), the relative error bound of a
    d-term dot product at unit roundoff u; infinite once d*u >= 1."""
    return d * u / (1.0 - d * u) if d * u < 1.0 else np.inf


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The float64 norm of each row of a row-major block, bit-identical to
    np.linalg.norm of the row as cosine_similarity computes it, so that
    scores match that oracle exactly. The widened block is row-major too:
    vecdot's reduction order depends on the layout."""
    wide = rows.astype(np.float64, order="C")
    return np.sqrt(np.vecdot(wide, wide))


def _inverse_norms(norms: np.ndarray) -> np.ndarray:
    """fl32(1 / N) of each float64 norm N, held at float32's largest finite
    value where it would overflow; _candidates scores no row through a held
    value."""
    return np.minimum(1.0 / norms, _F32_MAX).astype(np.float32)


def _at_most(x: float) -> np.float32:
    """The greatest float32 not above x: a float32 a has a >= x exactly
    when a >= _at_most(x), and numpy compares a float32 array with it
    without widening the array."""
    y = np.float32(x)
    return y if float(y) <= x else np.nextafter(y, np.float32(-np.inf))


def _kth_largest(values: np.ndarray, k: int) -> float:
    return float(np.partition(values, len(values) - k)[len(values) - k])


def _decode_line(line: bytes | bytearray, row: int) -> ExperienceCard:
    try:
        return card_from_dict(json.loads(line))
    except (ValueError, DataError) as exc:  # ValueError covers JSON and UTF-8 faults
        raise StoreFormatError(f"cards.jsonl line {row + 1}: {exc}") from exc


def _index_lines(text: bytearray) -> tuple[array, list[str], dict[str, ExperienceCard]]:
    """Index cards.jsonl's bytes, which end with a newline, in one pass: the
    offset of each line's newline, each line's card id, and the cards
    decoded on the way. A line in the layout save() writes is not copied:
    its id is read off its start. Any other line is decoded."""
    ends = array("q")  # int64, so that no int object per row outlives its append
    ids: list[str] = []
    cards: dict[str, ExperienceCard] = {}
    # Bound methods: this loop runs once per card, 135,000 times at scale.
    find, startswith, add_end, add_id = text.find, text.startswith, ends.append, ids.append
    skip = len(_CARD_ID_PREFIX)
    start, size = 0, len(text)
    while start < size:
        end = find(b"\n", start)
        card_id = None
        if startswith(_CARD_ID_PREFIX, start):
            quote = find(b'"', start + skip, end)
            if quote >= 0:
                try:
                    card_id = text[start + skip : quote].decode("utf-8")
                except UnicodeDecodeError:
                    pass
        if card_id is None or "\\" in card_id:  # not save()'s layout, or escaped: decode it
            card = _decode_line(text[start:end], len(ids))
            card_id = card.card_id
            cards[card_id] = card
        add_end(end)
        add_id(card_id)
        start = end + 1
    return ends, ids, cards


class MemoryStore:
    """In-memory card collection with flat-scan retrieval.

    The cards are held as the bytes of cards.jsonl, and each is decoded on
    first read; decoded cards are memoised. Its vector is a row of one
    column-major float32 matrix, whose float64 row norms, their float32
    reciprocals and their extremes are kept next to it. Reads (search,
    browse) are safe to run concurrently over a loaded store; writes
    (index_card, save) require exclusive access.
    """

    def __init__(self, embedder: Embedder):
        self.embedder = embedder
        self._ids: list[str] = []
        self._text = bytearray()  # the bytes of cards.jsonl, one line per row
        self._ends = np.zeros(0, dtype=np.int64)  # offset of each row's newline in _text
        # Column-major, rows >= count: self._matrix.T is row-major (dimension, rows).
        self._matrix = np.zeros((0, embedder.dimension), dtype=np.float32, order="F")
        self._norms = np.zeros(0)  # float64 norm per matrix row
        self._inv_norms = np.zeros(0, dtype=np.float32)  # _inverse_norms(self._norms)
        self._norm_min, self._norm_max = np.inf, 0.0  # over the rows, not the capacity
        self._positions: dict[str, int] = {}  # card id -> row
        self._cards: dict[str, ExperienceCard] = {}  # decoded cards by id

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def dimension(self) -> int:
        return self.embedder.dimension

    def card_ids(self) -> list[str]:
        return list(self._ids)

    @property
    def vectors(self) -> np.ndarray:
        """Read-only row-major float32 copy of the indexed vectors, rows in
        card_ids() order."""
        rows = np.array(self._matrix[: len(self._ids)], order="C")
        rows.flags.writeable = False
        return rows

    def index_card(self, card: ExperienceCard) -> str:
        """Embed the card's index layer and add it to the store."""
        if card.card_id in self._positions:
            raise DuplicateCardError(f"card id already indexed: {card.card_id}")
        text = compose_index_text(card)
        vector = np.asarray(self.embedder.embed(text), dtype=np.float32)
        if vector.shape != (self.dimension,):
            raise DataError(
                f"embedder returned shape {vector.shape}, expected ({self.dimension},)"
            )
        self._append(card, vector)
        return card.card_id

    def _append(self, card: ExperienceCard, vector: np.ndarray) -> None:
        norm = float(_row_norms(vector[None])[0])
        if not 0.0 < norm < np.inf:
            raise UnembeddableTextError(
                f"index text of card {card.card_id!r} embeds to the zero vector or a non-finite one"
            )
        row = len(self._ids)
        if row == len(self._matrix):
            # +16 keeps capacity off a power of two: a row's stores lie
            # capacity * 4 bytes apart and would all hit the same cache sets.
            capacity = max(2 * row, 64) + 16
            matrix = np.empty((capacity, self.dimension), dtype=np.float32, order="F")
            matrix[:row] = self._matrix[:row]
            norms = np.empty(capacity)
            norms[:row] = self._norms[:row]
            inv_norms = np.empty(capacity, dtype=np.float32)
            inv_norms[:row] = self._inv_norms[:row]
            ends = np.empty(capacity, dtype=np.int64)
            ends[:row] = self._ends[:row]
            self._matrix, self._norms, self._inv_norms = matrix, norms, inv_norms
            self._ends = ends
        self._matrix[row] = vector
        self._norms[row] = norm
        self._inv_norms[row] = min(1.0 / norm, _F32_MAX)  # as _inverse_norms
        self._norm_min = min(self._norm_min, norm)
        self._norm_max = max(self._norm_max, norm)
        self._text += json.dumps(card_to_dict(card)).encode()
        self._text += b"\n"
        self._ends[row] = len(self._text) - 1
        self._positions[card.card_id] = row
        self._ids.append(card.card_id)
        self._cards[card.card_id] = card

    def _card_at(self, row: int) -> ExperienceCard:
        """Decode (once) and return the card stored in the given row."""
        card_id = self._ids[row]
        card = self._cards.get(card_id)
        if card is None:
            start = int(self._ends[row - 1]) + 1 if row else 0
            card = _decode_line(self._text[start : int(self._ends[row])], row)
            if card.card_id != card_id:
                raise StoreFormatError(
                    f"cards.jsonl line {row + 1}: card id {card.card_id!r} "
                    f"differs from indexed id {card_id!r}"
                )
            # setdefault keeps one card object per id when readers race.
            card = self._cards.setdefault(card_id, card)
        return card

    def browse(self, card_id: str) -> ExperienceCard:
        """Return the full stored card, resolution layer included."""
        row = self._positions.get(card_id)
        if row is None:
            raise UnknownCardError(f"no card with id {card_id!r}")
        return self._card_at(row)

    def search(self, query: str, k: int = DEFAULT_TOP_K) -> list[SearchHit]:
        """Top-k flat scan by cosine similarity, ties by card id ascending.

        The scan runs in two passes. The filter (_candidates) scores every
        row in float32 and keeps the rows that may reach the top k.
        The exact pass scores only those rows with einsum, whose per-row
        float64 reduction is a pure function of the row: a gathered row
        gets the same float as in a scan of all rows, rows with equal
        similarity get exactly equal floats, and the card-id tie-break
        matches a per-pair cosine_similarity scan. Of the exact scores,
        only the rows at or above the k-th largest are sorted, which keeps
        every tie across that cut. Hits and similarities are therefore
        those of an exact scan of every row.
        """
        if k < 1:
            raise DataError(f"k must be >= 1, got {k}")
        n = len(self._ids)
        if not n:
            return []
        q = np.asarray(self.embedder.embed(query), dtype=np.float64)
        qnorm = float(np.linalg.norm(q))
        if not 0.0 < qnorm < np.inf:
            raise UnembeddableTextError("query embeds to the zero vector or a non-finite one")
        picked = self._candidates(q / qnorm, qnorm, k)
        rows = picked.tolist()
        m = len(rows)
        sims = np.empty(m)
        # Gathered row-major, so that einsum reduces each row as it would in
        # a row-major matrix of every row; in blocks, so that k >= n copies
        # one block, not the matrix.
        for start in range(0, m, _CHUNK_ROWS):
            block = np.ascontiguousarray(self._matrix[picked[start : start + _CHUNK_ROWS]])
            sims[start : start + len(block)] = np.einsum("ij,j->i", block, q)
        sims /= self._norms[picked] * qnorm
        np.clip(sims, -1.0, 1.0, out=sims)
        # The k-th largest similarity, or the clip floor when every row is a hit.
        cut = np.partition(sims, m - k)[m - k] if k < m else -1.0
        top = np.flatnonzero(sims >= cut).tolist()
        top = sorted(top, key=lambda i: (-float(sims[i]), self._ids[rows[i]]))[:k]
        return [
            SearchHit(
                card_id=self._ids[rows[i]],
                similarity=float(sims[i]),
                preview=self._card_at(rows[i]).index,
            )
            for i in top
        ]

    def _candidates(self, p: np.ndarray, qnorm: float, k: int) -> np.ndarray:
        """The rows that may hold the exact top k for the unit query p =
        q / qnorm, ascending; every row when all must be scored exactly.

        Each row x is scored a = clip(fl32(fl32(x . p32) * r)) in float32,
        where p32 is p rounded to float32, N the row's stored norm and
        r = fl32(fl64(1 / N)) its stored reciprocal; the exact pass scores
        s = clip(fl64(x . q) / (N * qnorm)). Whatever the summation order or
        BLAS thread count, |a - s| <= beta for every row (Higham, Accuracy
        and Stability, section 3.1, plus Cauchy-Schwarz), with gamma_d(u) =
        d*u / (1 - d*u) and

            beta = (1 + 2^-20) * (gamma_d(2^-24) * |p32| + |p32 - p|
                                  + gamma_d(2^-53))
                   + d * (2^-149 + 2^-1074 / qnorm) / min N + 2^-40 + 2^-21.

        The first line is the rounding of the float32 dot product, of p to
        float32 and of the float64 dot product; its factor covers the
        float64 rounding of the norms, which changes each term by a
        relative (2d + 10) * 2^-53 < 2^-27 while gamma_d(2^-24) < 1, i.e.
        d < 2^23. Then 2^-149 and 2^-1074 cover underflow of the d products
        in float32 and in float64 (gradual underflow errs by at most the
        smallest subnormal per product), and 2^-40 the float64 divisions of
        the exact pass and the subtractions in the cuts below, each a few
        2^-53. These terms, beta0, bound the distance from s of the
        unrounded t = fl32(x . p32) / N, clipped. The filter skips p32's
        zero coordinates and sums the other products in coordinate order,
        each product and each partial sum rounded to float32. A skipped
        product x_j * 0 is an exact zero (rows are finite), so this is the
        float32 dot in one more summation order, and the bound holds as it
        stands.

        2^-21 covers the scaling. The filter runs only while every N lies in
        [2^-126, 2^126], so r is a normal float32 within a relative
        2^-24 + 2^-53 of 1 / N, and the product adds a relative 2^-24 and,
        if it underflows, an absolute 2^-150. |p| <= 1 + 2^-29 for d < 2^23,
        so |p32| < 1 + 2^-23, and |t| <= |p32| + beta0 < 2 + 2^-22 since
        beta < 1. The scaled score thus errs from t by at most
        (2 + 2^-22) * (2^-23 + 2^-52) + 2^-150 < 2^-22 + 2^-43 < 2^-21, and
        clipping, which moves no two values further apart, keeps that.
        The overflow test below already gives max N < 2^126 when
        |p32| >= 1; rounding p to float32 can leave |p32| just short of 1,
        so the range of N is tested too, against cached extremes.

        Let S_k be the exact k-th largest s and A_k the k-th largest a.
        A row with s >= S_k has a >= S_k - beta, and A_k <= S_k + beta
        because every a is at most its s + beta; so the row has
        a >= A_k - 2 beta and is a candidate. Candidates thus include
        every exact top-k row and every row tied with the k-th, and the
        k-th largest exact score among them is S_k.

        A_k is found in two stages, without partitioning every row. Let F
        be the k-th largest a of every _SAMPLE_STRIDE-th row. Those k rows score at
        least F, so F <= A_k. The rows C1 with a >= F - 2 beta include
        every row with a >= A_k, so the k-th largest a in C1 is A_k; and
        A_k - 2 beta >= F - 2 beta, so the rows of C1 with
        a >= A_k - 2 beta are exactly the candidates above. When the
        sample has fewer than k rows, C1 is every row.
        """
        n = len(self._ids)
        if k >= n:
            return np.arange(n)
        d = self.dimension
        p32 = p.astype(np.float32)
        p32_norm = float(np.linalg.norm(p32.astype(np.float64)))
        beta = (1.0 + 2.0**-20) * (
            _gamma(d, _U32) * p32_norm + float(np.linalg.norm(p32 - p)) + _gamma(d, _U64)
        ) + d * (2.0**-149 + 2.0**-1074 / qnorm) / self._norm_min + 2.0**-40 + 2.0**-21
        # Scores lie in [-1, 1], so beta >= 1 filters nothing. With beta < 1,
        # partial sums of the float32 dot stay below 2 * |x| * |p32|, which
        # the last test keeps inside float32's range; the middle two keep
        # every reciprocal normal.
        if not (
            beta < 1.0
            and 2.0**-126 <= self._norm_min
            and self._norm_max <= 2.0**126
            and 2.0 * self._norm_max * p32_norm < 2.0**127
        ):
            return np.arange(n)
        columns = self._matrix.T  # row-major (d, capacity); a view, never a copy
        # Term at a time over the query's nonzero coordinates, each a
        # contiguous column.
        dot = np.zeros(n, dtype=np.float32)
        for j in np.flatnonzero(p32).tolist():
            dot += columns[j, :n] * p32[j]
        dot *= self._inv_norms[:n]
        np.clip(dot, -1.0, 1.0, out=dot)
        rows, scores = None, dot  # C1, every row until the sample narrows it
        sample = dot[::_SAMPLE_STRIDE]
        if len(sample) >= k:
            rows = np.flatnonzero(dot >= _at_most(_kth_largest(sample, k) - 2.0 * beta))
            scores = dot[rows]
        keep = scores >= _at_most(_kth_largest(scores, k) - 2.0 * beta)
        return np.flatnonzero(keep) if rows is None else rows[keep]

    def save(self, directory: str | Path) -> None:
        """Persist cards, vectors, and manifest in format 3; load() restores
        exactly, and a loaded store saves byte-identical cards.jsonl."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        fmt = _FORMATS[FORMAT_VERSION]
        (directory / "cards.jsonl").write_bytes(self._text)
        count = len(self._ids)
        header = fmt.magic + struct.pack("<II", count, self.dimension)
        digest = fmt.checksum(header)
        with open(directory / "vectors.bin", "wb") as fh:
            fh.write(header)
            for start in range(0, count, _CHUNK_ROWS):
                rows = np.ascontiguousarray(
                    self._matrix[start : min(start + _CHUNK_ROWS, count)], dtype="<f4"
                )
                digest.update(rows)
                fh.write(rows)
            fh.write(digest.digest())
        manifest = {
            "format_version": FORMAT_VERSION,
            "dimension": self.dimension,
            "count": count,
            "embedder_id": self.embedder.embedder_id,
            fmt.cards_key: fmt.checksum(self._text).hexdigest(),
        }
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    @classmethod
    def load(cls, directory: str | Path, embedder: Embedder | None = None) -> "MemoryStore":
        """Load a persisted store of format 3 or 2, verifying layout and
        checksums; cards are decoded on first read. The embedder is
        resolved and checked by check_manifest.
        """
        directory = Path(directory)
        manifest = read_manifest(directory)
        embedder = check_manifest(manifest, embedder)
        fmt = _FORMATS[manifest["format_version"]]
        dimension = manifest["dimension"]
        count = manifest["count"]

        vectors_path = directory / "vectors.bin"
        if not vectors_path.is_file():
            raise StoreFormatError(f"store at {directory} is missing vectors.bin")
        matrix, norms = _read_vectors(vectors_path, fmt, count, dimension)

        cards_path = directory / "cards.jsonl"
        if not cards_path.is_file():
            raise StoreFormatError(f"store at {directory} is missing cards.jsonl")
        with open(cards_path, "rb") as fh:
            text = bytearray(os.fstat(fh.fileno()).st_size)
            if fh.readinto(text) != len(text):
                raise StoreFormatError("cards.jsonl shrank while it was read")
        if fmt.checksum(text).hexdigest() != manifest[fmt.cards_key]:
            raise ChecksumError("cards.jsonl failed checksum verification")
        if text and not text.endswith(b"\n"):
            text += b"\n"  # save() ends every line, the last one too
        ends, ids, cards = _index_lines(text)
        if len(ends) != count:
            raise StoreFormatError(f"cards.jsonl has {len(ends)} lines, manifest says {count}")

        bad = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))
        if len(bad):
            raise StoreFormatError(
                f"vectors.bin row {bad[0] + 1} (card {ids[bad[0]]!r}) is zero or not finite"
            )
        store = cls(embedder)
        store._ids, store._text, store._cards = ids, text, cards
        store._ends = np.array(ends, dtype=np.int64)
        store._matrix, store._norms, store._inv_norms = matrix, norms, _inverse_norms(norms)
        if count:
            store._norm_min, store._norm_max = float(norms.min()), float(norms.max())
        store._positions = dict(zip(ids, range(count)))
        if len(store._positions) != count:
            repeated = next(i for row, i in enumerate(ids) if store._positions[i] != row)
            raise StoreFormatError(f"cards.jsonl repeats card id {repeated!r}")
        return store


def read_manifest(directory: Path) -> dict:
    """The store's manifest.json, refused with StoreFormatError unless it is
    a format 3 or format 2 object whose dimension and count are integers
    and whose embedder_id and cards checksum are strings."""
    path = directory / "manifest.json"
    if not path.is_file():
        raise StoreFormatError(f"no store at {directory} (missing manifest.json)")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSON and UTF-8 faults
        raise StoreFormatError(f"manifest.json is not JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise StoreFormatError("manifest.json is not a JSON object")
    version = manifest.get("format_version")
    if version == 1:
        raise StoreFormatError(
            "format_version 1 is no longer read; re-run govern to rebuild the store"
        )
    try:
        fmt = _FORMATS[version]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON value
        raise StoreFormatError(f"unsupported format_version {version!r}") from None
    for key, kind in (
        ("dimension", int), ("count", int), ("embedder_id", str), (fmt.cards_key, str)
    ):
        value = manifest.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise StoreFormatError(f"manifest.json {key} must be {kind.__name__}, got {value!r}")
    return manifest


def check_manifest(manifest: dict, embedder: Embedder | None = None) -> Embedder:
    """The embedder a manifest from read_manifest names, refused with
    StoreFormatError unless it matches the manifest's dimension.

    When no embedder is passed, the manifest's embedder id must name a
    default embedder; an explicitly passed embedder must match the
    manifest so different embedders are never mixed.
    """
    embedder_id = manifest["embedder_id"]
    if embedder is None:
        try:
            embedder = default_embedder_for(embedder_id)
        except ValueError as exc:
            raise StoreFormatError(f"manifest.json embedder_id {embedder_id!r}: {exc}") from exc
        if embedder is None:
            raise StoreFormatError(
                f"store was built with embedder {embedder_id!r}; pass that embedder to load()"
            )
    elif embedder.embedder_id != embedder_id:
        raise StoreFormatError(
            f"embedder mismatch: store has {embedder_id!r}, got {embedder.embedder_id!r}"
        )
    if embedder.dimension != manifest["dimension"]:
        raise StoreFormatError(
            f"dimension mismatch: manifest {manifest['dimension']}, embedder {embedder.dimension}"
        )
    return embedder


def _read_vectors(
    path: Path, fmt: _Format, count: int, dimension: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stream vectors.bin into a column-major float32 matrix and the float64
    row norms, a block of rows at a time, checking its layout and checksum."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER + fmt.trailer:
            raise StoreFormatError("vectors.bin truncated (no room for header and checksum)")
        header = fh.read(_HEADER)
        if header[: len(fmt.magic)] != fmt.magic:
            raise StoreFormatError("vectors.bin has wrong magic bytes (version mismatch?)")
        file_count, file_dim = struct.unpack_from("<II", header, len(fmt.magic))
        if (file_count, file_dim) != (count, dimension):
            raise StoreFormatError(
                f"vectors.bin header ({file_count}, {file_dim}) disagrees with manifest "
                f"({count}, {dimension})"
            )
        expected = _HEADER + count * dimension * 4 + fmt.trailer
        if size != expected:
            raise StoreFormatError(f"vectors.bin is {size} bytes, expected {expected} (truncated?)")
        digest = fmt.checksum(header)
        matrix = np.empty((count, dimension), dtype=np.float32, order="F")
        norms = np.empty(count)
        buffer = memoryview(bytearray(min(count, _CHUNK_ROWS) * dimension * 4))
        for start in range(0, count, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, count)
            chunk = buffer[: (stop - start) * dimension * 4]
            if fh.readinto(chunk) != len(chunk):
                raise StoreFormatError("vectors.bin shrank while it was read")
            digest.update(chunk)
            rows = np.frombuffer(chunk, dtype="<f4").reshape(stop - start, dimension)
            matrix[start:stop] = rows
            norms[start:stop] = _row_norms(rows)
        if fh.read(fmt.trailer) != digest.digest():
            raise ChecksumError("vectors.bin failed checksum verification")
    return matrix, norms


def dedup(
    cards: list[ExperienceCard],
    embedder: Embedder,
    threshold: float = DEFAULT_DEDUP_THRESHOLD,
) -> list[ExperienceCard]:
    """Collapse duplicates, keeping the lexicographically smallest source.

    Stage 1 groups exact duplicates (equal normalized index text) and cards
    that share a card id, which a store can hold only once; stage 2 groups
    near-duplicates (cosine >= threshold). Groups are merged transitively,
    each keeps the card with the smallest (repo, issue, pr), the earliest
    on a tie, and survivors preserve input order -- which makes dedup
    idempotent.
    """
    n = len(cards)
    if n <= 1:
        return list(cards)

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    texts = [compose_index_text(c) for c in cards]
    first: dict[tuple[str, str], int] = {}
    for i, (card, text) in enumerate(zip(cards, texts)):
        for key in (("text", normalized_text(text)), ("id", card.card_id)):
            union(first.setdefault(key, i), i)

    matrix = np.stack([embedder.embed(t) for t in texts]).astype(np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    embeddable = norms > 0.0
    # Each block of rows is compared with itself and the rows after it, since
    # only pairs i < j are decided. The block and its denominator take at most
    # 2 * chunk * n floats. Each decision is the same IEEE expression
    # block[i, j] / (norms[i] * norms[j]) >= threshold as a per-pair scan.
    chunk = 256
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = matrix[start:stop] @ matrix[start:].T
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(block, np.multiply.outer(norms[start:stop], norms[start:]), out=block)
        hits = block >= threshold
        hits &= embeddable[start:]
        hits[~embeddable[start:stop]] = False
        rows, cols = np.divmod(np.flatnonzero(hits), n - start)  # 2-D nonzero is ~15x slower
        upper = cols > rows
        for i, j in zip((rows[upper] + start).tolist(), (cols[upper] + start).tolist()):
            union(i, j)

    best: dict[int, int] = {}
    for i, card in enumerate(cards):
        root = find(i)
        if root not in best or card.source.as_tuple() < cards[best[root]].source.as_tuple():
            best[root] = i
    keep = set(best.values())
    return [card for i, card in enumerate(cards) if i in keep]
