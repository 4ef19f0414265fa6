"""Tests of the benchmark itself: seeded generators repeat exactly, and
every check accepts correct output and rejects output corrupted on purpose.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from hashembed import OwnEmbedder  # noqa: E402


# --- generators ---------------------------------------------------------------


def test_triplets_repeat_for_a_seed(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    plan_a = gen.write_triplets(a, 200, 7)
    plan_b = gen.write_triplets(b, 200, 7)
    gen.write_triplets(c, 200, 8)
    assert a.read_bytes() == b.read_bytes()
    assert plan_a == plan_b
    assert a.read_bytes() != c.read_bytes()


def test_triplet_make_up_is_fixed(tmp_path):
    plan = gen.write_triplets(tmp_path / "t", 400, 3)
    blocks = 400 // gen.TRIPLET_BLOCK
    for kind in gen.REJECT_KINDS:
        assert plan.count(kind) == blocks
    assert len(plan.exact_groups) == len(plan.near_groups) == blocks
    assert plan.count("exact") == 3 * blocks and plan.count("near") == 2 * blocks
    sources = [s for s in plan.sources if s is not None]
    assert len(sources) == len(set(sources))  # card ids never collide


def test_cards_queries_and_issues_repeat_for_a_seed(tmp_path):
    a = gen.write_cards(tmp_path / "a", 300, 5)
    b = gen.write_cards(tmp_path / "b", 300, 5)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert a == b
    ids, texts, offsets, twins = a
    assert len(twins) == 300 // gen.CARD_TWIN_EVERY
    with open(tmp_path / "a") as fh:
        fh.seek(offsets[17])
        assert json.loads(fh.readline())["card_id"] == ids[17]
    assert gen.search_queries(5, texts, 50) == gen.search_queries(5, texts, 50)
    assert [k for _, k in gen.search_queries(5, texts, 20)].count(100) == 3
    assert gen.agent_issues(5, 12) == gen.agent_issues(5, 12)
    assert gen.agent_issues(5, 12) != gen.agent_issues(6, 12)


# --- governance checks --------------------------------------------------------


def _govern(tmp_path, count=200):
    """Run the program's pipeline in process over generated triplets."""
    from memgov.audit import AuditLog
    from memgov.config import PipelineConfig
    from memgov.distillation import RuleBasedDistiller
    from memgov.ingestion import load_fixture_triplets
    from memgov.pipeline import run_govern
    from memgov.quality import RuleBasedEvaluator

    triplets = tmp_path / "triplets.jsonl"
    plan = gen.write_triplets(triplets, count, 11)
    out = tmp_path / "store"
    audit = AuditLog(out / "audit.jsonl")
    counts = run_govern(load_fixture_triplets(triplets), out, PipelineConfig(),
                        RuleBasedDistiller(), RuleBasedEvaluator(), audit=audit)
    cards = [json.loads(line) for line in open(out / "cards.jsonl")]
    return plan, counts.as_dict(), list(audit.entries), cards


def test_govern_checks_pass_on_the_program_and_fail_on_corruption(tmp_path):
    plan, counts, records, cards = _govern(tmp_path)
    assert checks.audit_matches_plan(records, counts, plan) == []
    assert checks.dedup_survivors(cards, plan, OwnEmbedder()) == []

    dropped = [r for r in records if not r.get("reason", "").startswith("no-anchors")]
    assert checks.audit_matches_plan(dropped, counts, plan)
    assert checks.audit_matches_plan(records, {**counts, "indexed": counts["indexed"] + 1}, plan)

    # An uncollapsed duplicate: a second member of an exact group survives.
    group = plan.exact_groups[0]
    kept = next(c for c in cards if checks.source_of(c) == min(group))
    other = max(group)
    extra = copy.deepcopy(kept)
    extra["card_id"] = "uncollapsed"
    extra["source"] = {"repo": other[0], "issue": other[1], "pr": other[2]}
    assert checks.dedup_survivors(cards + [extra], plan, OwnEmbedder())

    # The wrong member survives.
    swapped = [extra if c is kept else c for c in cards]
    assert checks.dedup_survivors(swapped, plan, OwnEmbedder())


# --- search checks ------------------------------------------------------------


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("cards") / "cards.jsonl"
    ids, texts, offsets, twins = gen.write_cards(path, 400, 9)
    cards = {json.loads(line)["card_id"]: json.loads(line) for line in open(path)}
    return checks.Reference(ids, texts, cards.get, OwnEmbedder()), twins, texts


def _program_hits(store, query, k):
    return [[h.card_id, h.similarity] for h in store.search(query, k=k)]


@pytest.fixture(scope="module")
def store(reference):
    from memgov.cards import card_from_dict
    from memgov.embedding import HashingEmbedder
    from memgov.store import MemoryStore

    ref = reference[0]
    s = MemoryStore(HashingEmbedder())
    for card_id in ref.ids:
        s.index_card(card_from_dict(ref.card_of(str(card_id))))
    return s


def test_brute_force_accepts_the_program_and_rejects_swapped_hits(reference, store):
    ref, _, texts = reference
    for query, k in gen.search_queries(9, texts, 20):
        hits = _program_hits(store, query, k)
        assert checks.brute_force(query, k, hits, ref) == []
        if k > 1:
            swapped = [hits[1], hits[0], *hits[2:]]
            if hits[0][1] - hits[1][1] > checks.NEAR_TIE:
                assert checks.brute_force(query, k, swapped, ref)
            assert checks.brute_force(query, k, hits[:-1], ref)  # too few hits


def test_twins_tie_in_card_id_order(reference, store):
    ref, twins, _ = reference
    twin, original = next(iter(twins.items()))
    text = checks.index_text(ref.card_of(twin))
    hits = _program_hits(store, text, 3)
    assert checks.self_query(text, hits, ref) == []
    assert checks.brute_force(text, 3, hits, ref) == []
    assert {hits[0][0], hits[1][0]} == {twin, original}
    reordered = [hits[1], hits[0], hits[2]]
    assert checks.self_query(text, reordered, ref)
    assert checks.brute_force(text, 3, reordered, ref)


def test_browse_check_rejects_a_changed_card(reference):
    ref = reference[0]
    card = copy.deepcopy(ref.card_of(str(ref.ids[3])))
    assert checks.browsed_card(card, ref) == []
    card["resolution"]["verification"] += " twice"
    assert checks.browsed_card(card, ref)


# --- HTTP checks --------------------------------------------------------------


def _hit(card, sim):
    return {"card_id": card["card_id"], "similarity": sim, "preview": card["index"]}


def test_http_checks(reference):
    ref = reference[0]
    a, b = (ref.card_of(str(i)) for i in sorted(ref.ids[:2]))
    body = {"hits": [_hit(a, 0.5), _hit(b, 0.5)]}
    assert checks.search_response(body, 2, 400) == []
    assert checks.search_response({"hits": body["hits"][::-1]}, 2, 400)  # tie out of id order
    assert checks.search_response({"hits": body["hits"][:1]}, 2, 400)  # too few

    leaked = copy.deepcopy(body)
    leaked["hits"][0]["preview"]["root_cause"] = a["resolution"]["root_cause"]
    assert checks.search_response(leaked, 2, 400)
    assert checks.browse_response(a, a["card_id"], a["index"]) == []
    other_preview = copy.deepcopy(a["index"])
    other_preview["signals"] = other_preview["signals"][1:]
    assert checks.browse_response(a, a["card_id"], other_preview)
    leaky = copy.deepcopy(a)
    leaky["resolution"]["verification"] = leaky["index"]["signals"][0]
    assert checks.browse_response(leaky, a["card_id"], leaky["index"])

    brief = {
        "root_cause_pattern": a["resolution"]["root_cause"] + "\n\n" + b["resolution"]["root_cause"],
        "modification_logic": a["resolution"]["fix_strategy"] + "\n\n" + b["resolution"]["fix_strategy"],
        "validation_strategy": a["resolution"]["verification"] + "\n\n" + b["resolution"]["verification"],
        "source_card_ids": [a["card_id"], b["card_id"]],
    }
    assert checks.brief_response(brief, [a, b]) == []
    assert checks.brief_response(brief, [b, a])

    rounds = [checks.search_round("q 'x'", 10, [a["card_id"]]), checks.browse_round(a["card_id"])]
    log = {"session_id": "s1", "rounds": [
        {"kind": k, "request": q, "result": r, "timestamp": 1.0 + i} for i, (k, q, r) in enumerate(rounds)
    ]}
    assert checks.session_log(log, "s1", rounds) == []
    assert checks.session_log(log, "s1", rounds[:1])
    backwards = copy.deepcopy(log)
    backwards["rounds"][1]["timestamp"] = 0.5
    assert checks.session_log(backwards, "s1", rounds)
