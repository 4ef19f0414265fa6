from __future__ import annotations

import hashlib
import json
import math
import random
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgov.embedding import HashingEmbedder
from memgov.errors import (
    ChecksumError,
    DataError,
    DuplicateCardError,
    StoreFormatError,
    UnembeddableTextError,
    UnknownCardError,
)
from memgov.cards import card_to_dict
from memgov.store import (
    MemoryStore,
    compose_index_text,
    cosine_similarity,
    dedup,
)

from conftest import make_card


def make_store(cards=()):
    store = MemoryStore(HashingEmbedder())
    for card in cards:
        store.index_card(card)
    return store


def distinct_cards(n, prefix="topic"):
    rng = random.Random(99)
    words = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()
    out = []
    for i in range(n):
        out.append(
            make_card(
                issue=i + 1,
                pr=1000 + i,
                summary=f"{prefix} {words[i % 10]} failure {i}",
                signals=tuple(f"{words[(i + j) % 10]} {j}" for j in range(12)),
            )
        )
    return out


# --- cosine ---------------------------------------------------------------


def test_cosine_identical_vectors_is_one():
    v = HashingEmbedder().embed("null pointer")
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-9)


def test_cosine_orthogonal_axes():
    a = np.zeros(8, dtype=np.float32)
    b = np.zeros(8, dtype=np.float32)
    a[0] = 1.0
    b[1] = 1.0
    assert cosine_similarity(a, b) == 0.0


def test_cosine_known_value():
    a = np.array([1.0, 0.0], dtype=np.float32)
    b = np.array([1.0, 1.0], dtype=np.float32)
    assert cosine_similarity(a, b) == pytest.approx(math.sqrt(2) / 2, rel=1e-12)


def test_cosine_rejects_zero_norm_and_mismatch():
    v = np.ones(4, dtype=np.float32)
    with pytest.raises(UnembeddableTextError):
        cosine_similarity(v, np.zeros(4, dtype=np.float32))
    with pytest.raises(DataError):
        cosine_similarity(v, np.ones(5, dtype=np.float32))


def test_cosine_symmetry_bound_and_scale_invariance():
    rng = np.random.default_rng(42)
    for _ in range(300):
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        s = cosine_similarity(a, b)
        assert s == cosine_similarity(b, a)
        assert -1.0 <= s <= 1.0
        scale = float(rng.uniform(0.1, 100.0))
        assert cosine_similarity(a * scale, b) == pytest.approx(s, abs=1e-6)


# --- indexing and search ---------------------------------------------------


def test_index_and_search_round_trip(card):
    store = make_store([card])
    hits = store.search(compose_index_text(card), k=5)
    assert hits[0].card_id == card.card_id
    assert hits[0].similarity == pytest.approx(1.0, abs=1e-9)
    assert hits[0].preview == card.index


def test_index_text_excludes_resolution(card):
    text = compose_index_text(card)
    assert card.index.problem_summary in text
    assert card.resolution.root_cause not in text
    assert card.resolution.patch_digest not in text


def test_duplicate_card_id_rejected(card):
    store = make_store([card])
    with pytest.raises(DuplicateCardError):
        store.index_card(card)


def test_blank_card_is_unembeddable():
    blank = make_card(summary="...", signals=tuple("?" * (i + 1) for i in range(10)))
    store = make_store()
    with pytest.raises(UnembeddableTextError):
        store.index_card(blank)


def test_search_empty_store():
    assert make_store().search("anything") == []


def test_search_k_larger_than_store():
    cards = distinct_cards(3)
    store = make_store(cards)
    hits = store.search("alpha failure", k=50)
    assert len(hits) == 3
    sims = [h.similarity for h in hits]
    assert sims == sorted(sims, reverse=True)


def test_search_rejects_bad_inputs(card):
    store = make_store([card])
    with pytest.raises(DataError):
        store.search("q", k=0)
    with pytest.raises(UnembeddableTextError):
        store.search("!!!")


def test_exact_tie_broken_by_card_id():
    # Same index text -> identical vectors -> tie -> id ascending.
    a = make_card(issue=1, pr=2, summary="same text")
    b = make_card(issue=5, pr=9, summary="same text")
    store = make_store([b, a])
    hits = store.search("same text signal", k=2)
    assert [h.card_id for h in hits] == sorted([a.card_id, b.card_id])
    assert hits[0].similarity == hits[1].similarity


def test_search_matches_bruteforce_oracle():
    cards = distinct_cards(200)
    store = make_store(cards)
    emb = HashingEmbedder()
    rng = random.Random(3)
    for _ in range(20):
        query = f"{rng.choice('alpha beta gamma delta'.split())} failure {rng.randrange(100)}"
        q = emb.embed(query)
        oracle = sorted(
            (
                (-cosine_similarity(q, store.vectors[i]), cards[i].card_id)
                for i in range(len(cards))
            ),
        )
        expected = [cid for _, cid in oracle[:10]]
        got = [h.card_id for h in store.search(query, k=10)]
        assert got == expected



def test_tie_across_top_k_cut_comes_in_id_order():
    # Three identical index texts score the same; indexed in reverse id
    # order, the tie straddles the k-th place at k=1 and k=2.
    tied = [make_card(issue=i, pr=50 + i, summary="same text") for i in (1, 2, 3)]
    other = make_card(issue=9, pr=99, summary="unrelated words", signals=("x 1",) * 10)
    store = make_store(sorted(tied, key=lambda c: c.card_id, reverse=True) + [other])
    ids = sorted(c.card_id for c in tied)
    for k in (1, 2, 3):
        hits = store.search("same text signal", k=k)
        assert [h.card_id for h in hits] == ids[:k]
        assert len({h.similarity for h in hits}) == 1


def test_k_beyond_store_size_returns_every_card_ranked():
    cards = distinct_cards(7)
    store = make_store(cards)
    hits = store.search("alpha failure", k=50)
    assert sorted(h.card_id for h in hits) == sorted(c.card_id for c in cards)
    assert [(-h.similarity, h.card_id) for h in hits] == sorted(
        (-h.similarity, h.card_id) for h in hits
    )
    assert hits == store.search("alpha failure", k=7)


class TableEmbedder:
    """Maps each text to a fixed vector, so that tests choose the rows and
    the query directly."""

    def __init__(self, dimension, table):
        self.dimension = dimension
        self.embedder_id = f"table-{dimension}"
        self.table = table

    def embed(self, text):
        return self.table[text]


def table_store(vectors, issues=None):
    """A store whose row i holds vectors[i], with card ids ordered by
    `issues` (a permutation) rather than by row."""
    issues = issues if issues is not None else range(1, len(vectors) + 1)
    cards = [make_card(issue=issue, pr=issue, summary=f"row {row}") for row, issue in enumerate(issues)]
    table = {compose_index_text(c): np.asarray(v, dtype=np.float32) for c, v in zip(cards, vectors)}
    store = MemoryStore(TableEmbedder(len(vectors[0]), table))
    for c in cards:
        store.index_card(c)
    return store


def reference_search(store, query, k):
    """The exact all-rows scan that search() must reproduce bit for bit:
    float64 einsum over every row, norm division, clip, partition and the
    (-similarity, card id) sort."""
    n = len(store)
    ids = store.card_ids()
    q = np.asarray(store.embedder.embed(query), dtype=np.float64)
    qnorm = float(np.linalg.norm(q))
    wide = store.vectors.astype(np.float64)
    sims = np.einsum("ij,j->i", store.vectors, q)
    sims /= np.sqrt(np.vecdot(wide, wide)) * qnorm
    np.clip(sims, -1.0, 1.0, out=sims)
    cut = np.partition(sims, n - k)[n - k] if k < n else -1.0
    rows = sorted(np.flatnonzero(sims >= cut).tolist(), key=lambda r: (-float(sims[r]), ids[r]))
    return [(ids[r], float(sims[r])) for r in rows[:k]]


def hits_of(store, query, k):
    return [(h.card_id, h.similarity) for h in store.search(query, k)]


@st.composite
def scan_cases(draw):
    """A matrix of rows with planted exact duplicates, scaled copies and
    one-ulp neighbours (so that ties and near-ties straddle the top-k cut),
    card ids in shuffled order, and a query that is a random vector, a row
    or a row's neighbour."""
    d = draw(st.sampled_from([1, 7, 256]))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((n, d)).astype(np.float32)
    rows[rows == 0] = 1.0
    for i in range(n):
        j = int(rng.integers(n))
        kind = draw(st.sampled_from(["own", "duplicate", "scaled", "ulp"]))
        if kind == "duplicate":
            rows[i] = rows[j]
        elif kind == "scaled":
            rows[i] = rows[j] * np.float32(draw(st.sampled_from([0.25, 3.0, 1e-3, 1e3])))
        elif kind == "ulp":
            rows[i] = rows[j]
            c = int(rng.integers(d))
            rows[i, c] = np.nextafter(rows[i, c], np.float32(np.inf))
    query = draw(st.sampled_from(["random", "row", "near"]))
    q = rng.standard_normal(d).astype(np.float32)
    if query != "random":
        q = rows[int(rng.integers(n))].copy()
        if query == "near":
            q[0] = np.nextafter(q[0], np.float32(-np.inf))
    q[q == 0] = 1.0
    issues = draw(st.permutations(range(1, n + 1)))
    return rows, q, issues, draw(st.integers(1, n + 2)), draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=scan_cases())
def test_search_equals_all_rows_reference(case, tmp_path_factory):
    rows, q, issues, k, reload = case
    store = table_store(list(rows), issues)
    store.embedder.table["the query"] = q
    # Spare capacity past the last row holds no row; poison it.
    store._matrix[len(store) :] = np.nan
    store._norms[len(store) :] = np.nan
    expected = reference_search(store, "the query", k)
    assert hits_of(store, "the query", k) == expected
    if reload:  # a loaded store scans its own column-major copy of vectors.bin
        path = tmp_path_factory.mktemp("scan")
        store.save(path)
        loaded = MemoryStore.load(path, store.embedder)
        assert not loaded.vectors.flags.writeable
        assert hits_of(loaded, "the query", k) == expected


def test_float32_order_inversion_at_the_cut_is_rechecked():
    # Summed in float32 in any order, row 0's small terms round away
    # (0.5 + 3 * 2^-27 rounds to 0.5, and 3 * 2^-27 is below half an ulp of
    # 0.5), so the float32 filter ranks row 0 strictly below row 1; in
    # float64 row 0 scores about 0.5 + 2.2e-8, above row 1's exact 0.5. A
    # filter that keeps only rows at or above the float32 k-th score, or
    # that ranks by float32 scores, returns row 1 first.
    t = 2.0**-26
    rows = [[1.0, t, t, t], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    store = table_store(rows)
    store.embedder.table["the query"] = np.full(4, 0.5, dtype=np.float32)
    wide = store.vectors.astype(np.float64)
    approx = store.vectors @ np.full(4, 0.5, dtype=np.float32) / np.linalg.norm(wide, axis=1)
    assert approx[0] < approx[1] == 0.5
    first, second = store.card_ids()[:2]
    for k in (1, 2):
        assert hits_of(store, "the query", k) == reference_search(store, "the query", k)
    assert [h.card_id for h in store.search("the query", 2)] == [first, second]
    assert store.search("the query", 1)[0].similarity > 0.5


def bit_hits(store, query, k):
    return [(card_id, similarity.hex()) for card_id, similarity in hits_of(store, query, k)]


def bit_reference(store, query, k):
    return [(card_id, similarity.hex()) for card_id, similarity in reference_search(store, query, k)]


@st.composite
def sparse_scan_cases(draw):
    """Rows and a query with a few nonzero coordinates each, as feature
    hashing gives. Rows share none, some or all of the query's coordinates;
    exact duplicates, scaled copies and one-ulp neighbours of the query and
    of other rows put ties and near-ties at the top-k cut. At d > 1 the
    query may also have an entry that is nonzero but whose unit-vector
    entry rounds to zero in float32 (a subnormal beside entries of 1e3)."""
    d = draw(st.sampled_from([1, 7, 256]))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sparse(support):
        v = np.zeros(d, dtype=np.float32)
        v[support] = rng.standard_normal(len(support)).astype(np.float32)
        v[support] = np.where(v[support] == 0, np.float32(1), v[support])
        return v

    q_support = rng.choice(d, int(rng.integers(1, min(d, 6) + 1)), replace=False)
    q = sparse(q_support)
    tiny = d > 1 and draw(st.booleans())
    if tiny:  # |q| >= 1e3, so 2^-149 / |q| is below half of float32's least subnormal
        q *= np.float32(1e3) / np.abs(q).max()
        q[rng.choice(np.flatnonzero(q == 0))] = np.float32(2.0**-149)
    outside = np.setdiff1d(np.arange(d), np.flatnonzero(q))
    rows = np.zeros((n, d), dtype=np.float32)
    for i in range(n):
        kind = draw(st.sampled_from(["own", "overlap", "disjoint", "copy", "scaled", "ulp"]))
        source = rows[int(rng.integers(i))] if i and draw(st.booleans()) else q
        if kind == "own":
            rows[i] = sparse(rng.choice(d, int(rng.integers(1, min(d, 5) + 1)), replace=False))
        elif kind == "overlap":
            shared = rng.choice(q_support, int(rng.integers(1, len(q_support) + 1)), replace=False)
            rows[i] = sparse(np.union1d(shared, rng.choice(d, int(rng.integers(0, 3)))))
        elif kind == "disjoint" and len(outside):
            width = int(rng.integers(1, min(len(outside), 4) + 1))
            rows[i] = sparse(rng.choice(outside, width, replace=False))
        elif kind == "scaled":
            rows[i] = source * np.float32(draw(st.sampled_from([0.25, 3.0, 1e-3, 1e3])))
        else:
            rows[i] = source
            if kind == "ulp":
                c = int(rng.choice(np.flatnonzero(source)))
                rows[i, c] = np.nextafter(source[c], np.float32(np.inf))
    issues = draw(st.permutations(range(1, n + 1)))
    return rows, q, tiny, issues, draw(st.integers(1, n + 2)), draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=sparse_scan_cases())
def test_sparse_search_equals_all_rows_reference(case, tmp_path_factory):
    rows, q, tiny, issues, k, reload = case
    store = table_store(list(rows), issues)
    store.embedder.table["the query"] = q
    p = q.astype(np.float64) / np.linalg.norm(q.astype(np.float64))
    if tiny:  # the filter drops a coordinate the exact pass keeps
        assert np.count_nonzero(p.astype(np.float32)) < np.count_nonzero(q)
    expected = bit_reference(store, "the query", k)
    assert bit_hits(store, "the query", k) == expected
    if reload:
        path = tmp_path_factory.mktemp("sparse")
        store.save(path)
        assert bit_hits(MemoryStore.load(path, store.embedder), "the query", k) == expected


@pytest.mark.parametrize("k", [2049, 2050])
def test_every_row_search_equals_reference_across_blocks(k):
    # With k >= n the exact pass scores every row, 1,024 rows at a time.
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((2049, 7)).astype(np.float32)
    rows[1500] = rows[3]  # a tie across blocks
    store = table_store(list(rows))
    store.embedder.table["the query"] = rng.standard_normal(7).astype(np.float32)
    assert bit_hits(store, "the query", k) == bit_reference(store, "the query", k)


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2049])
def test_save_load_save_is_byte_identical_across_chunks(tmp_path, count):
    # save and load stream vectors.bin in blocks of 1,024 rows.
    rows = np.random.default_rng(count).standard_normal((count, 7)).astype(np.float32)
    store = table_store(list(rows)) if count else MemoryStore(TableEmbedder(7, {}))
    store.save(tmp_path / "a")
    loaded = MemoryStore.load(tmp_path / "a", store.embedder)
    assert loaded.vectors.tobytes() == rows.tobytes()
    loaded.save(tmp_path / "b")
    for name in ("cards.jsonl", "vectors.bin", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    payload = b"MEMGIDX2" + struct.pack("<II", count, 7) + rows.astype("<f4").tobytes()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    assert (tmp_path / "a" / "vectors.bin").read_bytes() == payload + digest


def test_browse_returns_full_card(card):
    store = make_store([card])
    assert store.browse(card.card_id) == card
    with pytest.raises(UnknownCardError):
        store.browse("nope")


# --- dedup ------------------------------------------------------------------


def test_dedup_exact_duplicates_keep_smallest_source():
    a = make_card(issue=9, pr=1, summary="identical body")
    b = make_card(issue=2, pr=7, summary="identical body")
    survivors = dedup([a, b], HashingEmbedder())
    assert survivors == [b]  # (repo, 2, 7) < (repo, 9, 1)


def test_dedup_keeps_unrelated_cards():
    cards = distinct_cards(5)
    assert dedup(cards, HashingEmbedder()) == cards


def test_dedup_near_duplicates_collapse():
    base_signals = tuple(f"shared token {i}" for i in range(12))
    a = make_card(issue=4, pr=4, summary="parser crash on empty payload", signals=base_signals)
    b = make_card(issue=3, pr=3, summary="parser crash on empty payloads", signals=base_signals)
    emb = HashingEmbedder()
    sim = cosine_similarity(emb.embed(compose_index_text(a)), emb.embed(compose_index_text(b)))
    assert sim >= 0.95  # fixture sanity: these are near-duplicates
    survivors = dedup([a, b], emb, threshold=0.95)
    assert survivors == [b]


def test_dedup_transitive_chains_collapse_to_one():
    signals = tuple(f"shared token {i}" for i in range(12))
    cards = [
        make_card(issue=i, pr=i, summary=f"crash with variant {'x' * i}", signals=signals)
        for i in range(1, 4)
    ]
    survivors = dedup(cards, HashingEmbedder(), threshold=0.9)
    assert len(survivors) == 1 and survivors[0].source.issue == 1


def test_dedup_is_idempotent_and_order_preserving():
    rng = random.Random(31)
    cards = distinct_cards(60)
    # Plant some exact duplicates with shuffled positions.
    clones = [
        make_card(issue=500 + i, pr=i, summary=cards[i].index.problem_summary,
                  signals=cards[i].index.signals)
        for i in range(10)
    ]
    pool = cards + clones
    rng.shuffle(pool)
    emb = HashingEmbedder()
    once = dedup(pool, emb)
    twice = dedup(once, emb)
    assert once == twice
    positions = {c.card_id: i for i, c in enumerate(pool)}
    assert [positions[c.card_id] for c in once] == sorted(positions[c.card_id] for c in once)


def pairwise_dedup(cards, embedder, threshold):
    """Reference dedup: every pair decided on its own, then union-find."""
    n = len(cards)
    texts = [compose_index_text(c) for c in cards]
    v = np.stack([embedder.embed(t) for t in texts]).astype(np.float64)
    norms = np.linalg.norm(v, axis=1)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            same_text = " ".join(texts[i].casefold().split()) == " ".join(texts[j].casefold().split())
            near = (
                norms[i] > 0
                and norms[j] > 0
                and float(v[i] @ v[j]) / (norms[i] * norms[j]) >= threshold
            )
            if same_text or near:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    best = {}
    for i, card in enumerate(cards):
        root = find(i)
        if root not in best or card.source.as_tuple() < cards[best[root]].source.as_tuple():
            best[root] = i
    return [cards[i] for i in sorted(best.values())]


DEDUP_VOCAB = "parser crash empty input deadlock worker pool timeout socket leak cache overflow".split()


@st.composite
def dedup_pools(draw):
    """Card texts with exact-text groups, near-duplicate chains and texts
    that embed to the zero vector, under shuffled, distinct sources."""
    texts = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["plain", "exact", "chain", "zero"]))
        if kind == "zero":
            mark = draw(st.sampled_from(["!!!", "?", "..."]))
            texts += [(mark, ("--",))] * draw(st.integers(1, 3))
            continue
        words = draw(st.lists(st.sampled_from(DEDUP_VOCAB), min_size=1, max_size=10))
        summary, signals = " ".join(words[:3]), tuple(words[3:])
        texts.append((summary, signals))
        if kind == "exact":  # same text after casefolding and whitespace collapse
            texts.append(("  " + summary.upper(), tuple(s.title() for s in signals)))
        elif kind == "chain":
            for extra in draw(st.lists(st.sampled_from(DEDUP_VOCAB), min_size=1, max_size=4)):
                signals += (extra,)
                texts.append((summary, signals))
    order = draw(st.permutations(range(len(texts))))
    issues = draw(st.permutations(range(1, len(texts) + 1)))
    repos = draw(st.lists(st.sampled_from(["acme/a", "acme/b"]), min_size=len(texts), max_size=len(texts)))
    return [
        make_card(repo=repos[k], issue=issues[k], pr=k + 1, summary=texts[k][0], signals=texts[k][1])
        for k in order
    ]


# Thresholds stay below 1: identical vectors score 1 only up to rounding, and
# the blocked matrix product and the per-pair dot product round differently.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(pool=dedup_pools(), threshold=st.sampled_from([0.5, 0.8, 0.9, 0.95]))
def test_dedup_matches_pairwise_reference(pool, threshold):
    emb = HashingEmbedder()
    assert dedup(pool, emb, threshold) == pairwise_dedup(pool, emb, threshold)


def test_dedup_pairs_across_row_blocks():
    # 600 cards scan in row blocks [0, 256), [256, 512) and the partial [512, 600).
    n = 600
    cards = [
        make_card(
            issue=n - i,  # later cards have smaller sources
            pr=i,
            summary=f"unique{i} failure{i}",
            signals=tuple(f"card{i}token{j}" for j in range(12)),
        )
        for i in range(n)
    ]
    for i, mark in ((7, "!!!"), (300, "???"), (520, "...")):  # zero vectors
        cards[i] = make_card(issue=n - i, pr=i, summary=mark, signals=("--",))

    def twin_of(i, j):  # card j becomes a near-duplicate of card i
        base = cards[i]
        cards[j] = make_card(
            issue=n - j,
            pr=j,
            summary=base.index.problem_summary,
            signals=base.index.signals + (f"variant{j}",),
        )

    groups = [(255, 256), (511, 512), (10, 599), (3, 299, 550)]
    for group in groups:
        for j in group[1:]:
            twin_of(group[0], j)
    emb = HashingEmbedder()
    for group in groups:
        for j in group[1:]:
            a, b = (emb.embed(compose_index_text(cards[k])) for k in (group[0], j))
            assert cosine_similarity(a, b) >= 0.95  # fixture sanity
    losers = {k for group in groups for k in group if k != max(group)}
    survivors = dedup(cards, emb, threshold=0.95)
    assert survivors == [c for i, c in enumerate(cards) if i not in losers]
    assert survivors == pairwise_dedup(cards, emb, 0.95)


# --- persistence -------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    cards = distinct_cards(50)
    store = make_store(cards)
    store.save(tmp_path / "store")
    loaded = MemoryStore.load(tmp_path / "store")
    assert len(loaded) == 50
    assert loaded.card_ids() == store.card_ids()
    for original, restored in zip(store.vectors, loaded.vectors):
        assert np.array_equal(original, restored)  # byte-exact
    for query in ("alpha failure", "gamma failure 7", "kappa theta"):
        assert [h.card_id for h in store.search(query)] == [
            h.card_id for h in loaded.search(query)
        ]
    assert loaded.browse(cards[3].card_id) == cards[3]
    assert [loaded.browse(c.card_id) for c in cards] == cards



def test_index_into_loaded_store(tmp_path):
    cards = distinct_cards(30)
    make_store(cards[:20]).save(tmp_path / "first")
    loaded = MemoryStore.load(tmp_path / "first")
    assert not loaded.vectors.flags.writeable  # a read-only row-major copy of the matrix
    for card in cards[20:]:
        loaded.index_card(card)
    fresh = make_store(cards)
    assert loaded.card_ids() == fresh.card_ids()
    assert loaded.vectors.tobytes() == fresh.vectors.tobytes()
    for query in ("alpha failure", "topic zeta failure 27", "kappa 3"):
        assert [(h.card_id, h.similarity) for h in loaded.search(query, k=12)] == [
            (h.card_id, h.similarity) for h in fresh.search(query, k=12)
        ]
    assert loaded.browse(cards[4].card_id) == cards[4]
    assert loaded.browse(cards[25].card_id) == cards[25]
    loaded.save(tmp_path / "grown")
    fresh.save(tmp_path / "fresh")
    for name in ("cards.jsonl", "vectors.bin", "manifest.json"):
        assert (tmp_path / "grown" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    reloaded = MemoryStore.load(tmp_path / "grown")
    assert reloaded.vectors.tobytes() == fresh.vectors.tobytes()
    assert [reloaded.browse(c.card_id) for c in cards] == cards


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
def test_load_refuses_a_nan_infinite_or_zero_row(tmp_path, value):
    store = make_store(distinct_cards(50))
    store.save(tmp_path / "store")
    path = tmp_path / "store" / "vectors.bin"
    raw = bytearray(path.read_bytes())
    start, width = 16 + 7 * 256 * 4, 256 * 4
    raw[start : start + width] = np.full(256, value, dtype="<f4").tobytes()
    payload = bytes(raw[:-8])
    path.write_bytes(payload + hashlib.blake2b(payload, digest_size=8).digest())
    with pytest.raises(StoreFormatError) as err:
        MemoryStore.load(tmp_path / "store")
    assert "row 8" in str(err.value)
    assert store.card_ids()[7] in str(err.value)


def test_index_refuses_a_non_finite_vector(card):
    text = compose_index_text(card)
    store = MemoryStore(TableEmbedder(2, {text: np.array([np.inf, 1.0], dtype=np.float32)}))
    with pytest.raises(UnembeddableTextError):
        store.index_card(card)
    assert len(store) == 0


def test_save_empty_store_round_trips(tmp_path):
    store = make_store()
    store.save(tmp_path / "store")
    assert len(MemoryStore.load(tmp_path / "store")) == 0


def test_load_missing_dir_is_not_found(tmp_path):
    with pytest.raises(StoreFormatError):
        MemoryStore.load(tmp_path / "absent")


def test_corrupted_vectors_fail_checksum(tmp_path):
    store = make_store(distinct_cards(10))
    store.save(tmp_path / "store")
    path = tmp_path / "store" / "vectors.bin"
    raw = bytearray(path.read_bytes())
    raw[40] ^= 0xFF  # flip one payload byte
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        MemoryStore.load(tmp_path / "store")


def test_truncated_vectors_detected(tmp_path):
    store = make_store(distinct_cards(10))
    store.save(tmp_path / "store")
    path = tmp_path / "store" / "vectors.bin"
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(StoreFormatError):
        MemoryStore.load(tmp_path / "store")


def test_wrong_magic_is_version_mismatch(tmp_path):
    store = make_store(distinct_cards(3))
    store.save(tmp_path / "store")
    path = tmp_path / "store" / "vectors.bin"
    raw = bytearray(path.read_bytes())
    raw[:8] = b"MEMGIDX9"
    path.write_bytes(bytes(raw))
    with pytest.raises(StoreFormatError) as err:
        MemoryStore.load(tmp_path / "store")
    assert "magic" in str(err.value)


def test_embedder_mismatch_is_refused(tmp_path):
    store = make_store(distinct_cards(3))
    store.save(tmp_path / "store")
    with pytest.raises(StoreFormatError):
        MemoryStore.load(tmp_path / "store", embedder=HashingEmbedder(dimension=64))


def test_vectors_bin_layout(tmp_path):
    cards = distinct_cards(4)
    store = make_store(cards)
    store.save(tmp_path / "store")
    raw = (tmp_path / "store" / "vectors.bin").read_bytes()
    assert raw[:8] == b"MEMGIDX2"
    count, dim = struct.unpack_from("<II", raw, 8)
    assert (count, dim) == (4, 256)
    assert len(raw) == 16 + count * dim * 4 + 8
    assert raw[-8:] == hashlib.blake2b(raw[:-8], digest_size=8).digest()


def test_manifest_records_cards_digest(tmp_path):
    make_store(distinct_cards(4)).save(tmp_path / "store")
    manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
    blob = (tmp_path / "store" / "cards.jsonl").read_bytes()
    assert manifest["format_version"] == 2
    assert manifest["cards_blake2b"] == hashlib.blake2b(blob, digest_size=8).hexdigest()


def test_corrupted_cards_fail_checksum(tmp_path):
    make_store(distinct_cards(10)).save(tmp_path / "store")
    path = tmp_path / "store" / "cards.jsonl"
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01  # flip one bit inside some card's fields
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        MemoryStore.load(tmp_path / "store")


def test_loaded_store_saves_identical_cards_file(tmp_path):
    make_store(distinct_cards(20)).save(tmp_path / "a")
    MemoryStore.load(tmp_path / "a").save(tmp_path / "b")
    for name in ("cards.jsonl", "vectors.bin", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def rewrite_cards(directory, edit):
    """Rewrite cards.jsonl through edit(lines) and re-record its digest, as
    a foreign writer would, so only the lazy card decoding can object."""
    path = directory / "cards.jsonl"
    lines = edit(path.read_bytes().split(b"\n")[:-1])
    blob = b"".join(line + b"\n" for line in lines)
    path.write_bytes(blob)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["cards_blake2b"] = hashlib.blake2b(blob, digest_size=8).hexdigest()
    (directory / "manifest.json").write_text(json.dumps(manifest))


def test_malformed_card_line_fails_when_first_read(tmp_path):
    cards = distinct_cards(5)
    make_store(cards).save(tmp_path / "store")

    def truncate_third(lines):
        lines[2] = lines[2][:-20]
        return lines

    rewrite_cards(tmp_path / "store", truncate_third)
    loaded = MemoryStore.load(tmp_path / "store")
    assert loaded.browse(cards[1].card_id) == cards[1]
    with pytest.raises(StoreFormatError, match="cards.jsonl line 3"):
        loaded.browse(cards[2].card_id)


def test_card_id_disagreeing_with_its_index_fails_when_read(tmp_path):
    cards = distinct_cards(3)
    make_store(cards).save(tmp_path / "store")

    def duplicate_key(lines):
        # The line starts with card 0's id, but JSON keeps the last key.
        lines[0] = lines[0][:-1] + b', "card_id": "impostor"}'
        return lines

    rewrite_cards(tmp_path / "store", duplicate_key)
    loaded = MemoryStore.load(tmp_path / "store")
    with pytest.raises(StoreFormatError, match="line 1"):
        loaded.browse(cards[0].card_id)


def test_repeated_card_id_is_refused_at_load(tmp_path):
    make_store(distinct_cards(3)).save(tmp_path / "store")
    rewrite_cards(tmp_path / "store", lambda lines: [lines[0], lines[1], lines[0]])
    with pytest.raises(StoreFormatError, match="repeats"):
        MemoryStore.load(tmp_path / "store")


def test_card_ids_in_other_layouts_are_decoded_at_load(tmp_path):
    cards = distinct_cards(3)
    make_store(cards).save(tmp_path / "store")

    def reorder_keys(lines):
        return [json.dumps(json.loads(line), sort_keys=True).encode() for line in lines]

    rewrite_cards(tmp_path / "store", reorder_keys)
    loaded = MemoryStore.load(tmp_path / "store")
    assert loaded.card_ids() == [c.card_id for c in cards]
    assert [loaded.browse(c.card_id) for c in cards] == cards


def test_concurrent_first_reads_share_one_card(tmp_path):
    cards = distinct_cards(30)
    make_store(cards).save(tmp_path / "store")
    loaded = MemoryStore.load(tmp_path / "store")
    results = [[] for _ in range(4)]

    def read(out):
        for card in cards:
            out.append(loaded.browse(card.card_id))

    threads = [threading.Thread(target=read, args=(out,)) for out in results]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for out in results:
        assert out == cards
        assert all(a is b for a, b in zip(out, results[0]))


def write_v1_store(directory, store):
    """Write a store in format 1 by hand, following its documented layout:
    MEMGIDX1 magic and a little-endian u64 FNV-1a trailer (zeros here: load
    refuses the manifest before it reads vectors.bin), no cards digest."""
    directory.mkdir()
    cards = [store.browse(card_id) for card_id in store.card_ids()]
    with (directory / "cards.jsonl").open("w") as fh:
        for card in cards:
            fh.write(json.dumps(card_to_dict(card)) + "\n")
    matrix = store.vectors
    payload = (
        b"MEMGIDX1"
        + struct.pack("<II", len(cards), store.dimension)
        + matrix.astype("<f4").tobytes()
    )
    (directory / "vectors.bin").write_bytes(payload + bytes(8))
    manifest = {
        "format_version": 1,
        "dimension": store.dimension,
        "count": len(cards),
        "embedder_id": store.embedder.embedder_id,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def test_format_1_store_is_refused(tmp_path):
    write_v1_store(tmp_path / "v1", make_store(distinct_cards(12)))
    with pytest.raises(StoreFormatError) as err:
        MemoryStore.load(tmp_path / "v1")
    assert "re-run govern" in str(err.value)
