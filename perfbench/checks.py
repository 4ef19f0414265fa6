"""Checks on the program's outputs, computed apart from the program.

Each function returns a list of problems; an empty list means the output
passed. None of them compares against a stored copy of earlier output:
expectations come from what the generator planted, from the documented
API contract, or from the benchmark's own float64 feature hashing.
"""

from __future__ import annotations

import re

import numpy as np

from gen import REJECT_REASONS, TripletPlan
from hashembed import OwnEmbedder, normalized_text

DEDUP_THRESHOLD = 0.95  # the program's documented default
NEAR_TIE = 1e-6  # float32 storage moves a cosine by far less than this
HIT_KEYS = {"card_id", "similarity", "preview"}
PREVIEW_KEYS = {"problem_summary", "signals"}
RESOLUTION_KEYS = ("root_cause", "fix_strategy", "patch_digest", "verification")
CARD_KEYS = {"card_id", "source", "index", "resolution"}
_ITEM_ERROR = re.compile(REJECT_REASONS["corrupt"].replace("{line}", r"(\d+)"))


def index_text(card: dict) -> str:
    """What the program embeds: summary, newline, signals joined by '; '."""
    return card["index"]["problem_summary"] + "\n" + "; ".join(card["index"]["signals"])


def source_of(card: dict) -> tuple[str, int, int]:
    s = card["source"]
    return s["repo"], s["issue"], s["pr"]


# --- governance -------------------------------------------------------------


def audit_matches_plan(records: list[dict], counts: dict, plan: TripletPlan) -> list[str]:
    """Audit reasons and counts equal what the generator planted, and
    indexed + rejected == read."""
    problems = []
    if counts.get("read") != plan.read:
        problems.append(f"read {counts.get('read')} != {plan.read} lines written")
    by_source: dict[tuple, list[dict]] = {}
    item_errors = []
    for r in records:
        if r.get("repo") is None:
            item_errors.append(r)
        else:
            by_source.setdefault((r["repo"], r["issue"], r["pr"]), []).append(r)

    expected_lines = sorted(n + 1 for n, kind in enumerate(plan.kinds) if kind == "corrupt")
    got_lines = sorted(
        int(m.group(1)) for r in item_errors
        if (m := _ITEM_ERROR.match(r.get("reason", ""))) is not None
    )
    if len(item_errors) != len(expected_lines) or got_lines != expected_lines:
        problems.append(f"item-error records on lines {got_lines[:5]}..., corrupt lines {expected_lines[:5]}...")

    rejected = len(item_errors)
    accepted = 0
    for kind, source in zip(plan.kinds, plan.sources):
        if kind == "corrupt":
            continue
        recs = by_source.get(source, [])
        if kind in REJECT_REASONS:
            ok = len(recs) == 1 and recs[0].get("reason", "").startswith(REJECT_REASONS[kind])
            rejected += 1
        else:
            qc = [r for r in recs if "accepted" in r]
            ok = len(qc) == 1 and qc[0]["accepted"] is True
            accepted += 1
        if not ok:
            problems.append(f"{kind} triplet {source}: audit records {recs}")
    duplicates = sum(1 for recs in by_source.values() for r in recs if r.get("reason") == "duplicate")
    if counts.get("qc_accepted") != accepted:
        problems.append(f"qc_accepted {counts.get('qc_accepted')} != {accepted} planted repairs")
    if counts.get("deduped") != duplicates:
        problems.append(f"deduped {counts.get('deduped')} != {duplicates} duplicate records")
    if counts.get("indexed", 0) + rejected + duplicates != plan.read:
        problems.append(
            f"indexed {counts.get('indexed')} + rejected {rejected + duplicates} != read {plan.read}"
        )
    return problems


def dedup_survivors(cards: list[dict], plan: TripletPlan, embedder: OwnEmbedder) -> list[str]:
    """Each planted group leaves exactly its smallest source; no two stored
    cards share normalized index text or reach the dedup cosine."""
    problems = []
    stored = {source_of(c) for c in cards}
    for group in plan.exact_groups + plan.near_groups:
        left = [s for s in group if s in stored]
        if left != [min(group)]:
            problems.append(f"duplicate group {group} left {left}, expected [{min(group)}]")
    planted = {s for g in plan.exact_groups + plan.near_groups for s in g}
    for kind, source in zip(plan.kinds, plan.sources):
        if kind == "unique" and source not in stored and source not in planted:
            problems.append(f"unique repair {source} missing from the store")
    texts = [index_text(c) for c in cards]
    keys = [normalized_text(t) for t in texts]
    if len(set(keys)) != len(keys):
        problems.append(f"{len(keys) - len(set(keys))} stored cards repeat a normalized index text")
    vectors = embedder.embed_many(texts)
    sims = vectors @ vectors.T
    np.fill_diagonal(sims, -1.0)
    i, j = np.unravel_index(int(np.argmax(sims)), sims.shape)
    if sims[i, j] >= DEDUP_THRESHOLD:
        problems.append(
            f"stored cards {cards[i]['card_id']} and {cards[j]['card_id']} have cosine {sims[i, j]:.6f}"
        )
    return problems


# --- in-process search ------------------------------------------------------


class Reference:
    """The served cards as the benchmark sees them: ids in store order,
    their own float64 unit embeddings, and the full card for each id."""

    def __init__(self, ids: list[str], texts: list[str], card_of, embedder: OwnEmbedder):
        self.ids = np.array(ids)
        self.row_of = {card_id: row for row, card_id in enumerate(ids)}
        self.matrix = embedder.embed_many(texts)
        # Cards with the same vector (twins) tie exactly in every search.
        self.vector_key = np.array([hash(row.tobytes()) for row in self.matrix])
        self.card_of = card_of  # card id -> card dict
        self.embedder = embedder

    def scores(self, query: str) -> np.ndarray:
        return self.matrix @ self.embedder.embed_many([query])[0]


def brute_force(query: str, k: int, hits: list, ref: Reference) -> list[str]:
    """Hits equal a float64 flat scan over the benchmark's own embeddings:
    order may differ only among near-tied scores, and exactly tied cards
    (such as twins) must come in card-id order."""
    scores, ids = ref.scores(query), ref.ids
    if len(hits) != min(k, len(ids)):
        return [f"{len(hits)} hits for k={k} over {len(ids)} cards"]
    problems = []
    rows = []
    for card_id, sim in hits:
        row = ref.row_of.get(card_id)
        if row is None:
            return [f"hit {card_id} is not in the store"]
        if abs(sim - scores[row]) > NEAR_TIE:
            problems.append(f"{card_id}: similarity {sim!r}, reference {scores[row]!r}")
        rows.append(row)
    if len(set(rows)) != len(rows):
        problems.append("repeated hit")
    twins = ref.vector_key
    for a, b in zip(rows, rows[1:]):
        if scores[a] < scores[b] - NEAR_TIE or (twins[a] == twins[b] and ids[a] > ids[b]):
            problems.append(f"{ids[a]} ({scores[a]!r}) ranked before {ids[b]} ({scores[b]!r})")
    outside = np.ones(len(ids), dtype=bool)
    outside[rows] = False
    last = rows[-1]
    if outside.any():
        best = np.max(scores[outside])
        if best > scores[last] + NEAR_TIE:
            problems.append(f"a card outside the hits scores {best!r} above the last hit {scores[last]!r}")
        tied = outside & (twins == twins[last])
        if tied.any() and min(ids[tied]) < ids[last]:
            problems.append(f"twin {min(ids[tied])} left out for {ids[last]}")
    return problems


def self_query(text: str, hits: list, ref: Reference) -> list[str]:
    """A card's own index text returns it, or its smaller-id twin, first
    at similarity 1."""
    expected = min(ref.ids[ref.scores(text) >= 1.0 - 1e-9])
    if not hits or hits[0][0] != expected or abs(hits[0][1] - 1.0) > 1e-9:
        return [f"own text of {expected} returned {hits[:1]}"]
    return []


def browsed_card(card: dict, ref: Reference) -> list[str]:
    """browse returns exactly the card that was stored."""
    expected = ref.card_of(card.get("card_id"))
    return [] if card == expected else [f"browse returned {card!r}, stored {expected!r}"]


# --- HTTP API ---------------------------------------------------------------


def session_created(body) -> list[str]:
    if not (isinstance(body, dict) and set(body) == {"session_id"} and isinstance(body["session_id"], str)):
        return [f"bad session body {body!r}"]
    return []


def search_response(body, k: int, n: int) -> list[str]:
    """Documented shape, previews only, min(k, n) hits ordered by
    (-similarity, card id)."""
    if not (isinstance(body, dict) and set(body) == {"hits"} and isinstance(body["hits"], list)):
        return [f"bad search body keys {sorted(body) if isinstance(body, dict) else body!r}"]
    hits = body["hits"]
    problems = []
    if len(hits) != min(k, n):
        problems.append(f"{len(hits)} hits for top_k={k} over {n} cards")
    for h in hits:
        if not (isinstance(h, dict) and set(h) == HIT_KEYS and set(h["preview"]) == PREVIEW_KEYS
                and isinstance(h["card_id"], str) and isinstance(h["similarity"], float)
                and -1.0 <= h["similarity"] <= 1.0):
            problems.append(f"bad hit {h!r}")
            return problems
    keys = [(-h["similarity"], h["card_id"]) for h in hits]
    if keys != sorted(keys):
        problems.append("hits not ordered by (-similarity, card id)")
    return problems


def search_round(query: str, k: int, ids: list[str]) -> tuple[str, str, str]:
    """The session-log round the documented API records for a search."""
    return "search", f"query={query!r} top_k={k}", "hits=" + ",".join(ids)


def browse_round(card_id: str) -> tuple[str, str, str]:
    return "browse", f"card_id={card_id}", "ok"


def browse_response(card, card_id: str, preview: dict) -> list[str]:
    """A full card; its index layer is what the preview showed, and the
    preview carried none of its resolution text."""
    if not (isinstance(card, dict) and set(card) == CARD_KEYS
            and set(card["resolution"]) == set(RESOLUTION_KEYS)):
        return [f"bad card body {card!r}"]
    problems = []
    if card["card_id"] != card_id:
        problems.append(f"browse {card_id} returned {card['card_id']}")
    if card["index"] != preview:
        problems.append(f"{card_id}: index layer differs from its search preview")
    shown = preview["problem_summary"] + "\n" + "\n".join(preview["signals"])
    for key in RESOLUTION_KEYS:
        if card["resolution"][key] in shown:
            problems.append(f"{card_id}: preview carries resolution field {key}")
    return problems


def brief_response(body, browsed: list[dict]) -> list[str]:
    """The brief is the browsed cards' fields concatenated in browse order."""
    expected = {
        "root_cause_pattern": "\n\n".join(c["resolution"]["root_cause"] for c in browsed),
        "modification_logic": "\n\n".join(c["resolution"]["fix_strategy"] for c in browsed),
        "validation_strategy": "\n\n".join(c["resolution"]["verification"] for c in browsed),
        "source_card_ids": [c["card_id"] for c in browsed],
    }
    return [] if body == expected else [f"brief {body!r} != {expected!r}"]


def session_log(body, session_id: str, rounds: list[tuple[str, str, str]]) -> list[str]:
    """Exactly the client's rounds, in order, with timestamps never
    decreasing."""
    if not (isinstance(body, dict) and set(body) == {"session_id", "rounds"}):
        return [f"bad session log {body!r}"]
    problems = []
    if body["session_id"] != session_id:
        problems.append(f"log of {body['session_id']} for session {session_id}")
    got = [(r.get("kind"), r.get("request"), r.get("result")) for r in body["rounds"]]
    if got != rounds:
        problems.append(f"session rounds {got!r} != {rounds!r}")
    stamps = [r.get("timestamp") for r in body["rounds"]]
    if not all(isinstance(t, float) for t in stamps) or stamps != sorted(stamps):
        problems.append(f"session timestamps {stamps!r} decrease")
    return problems
