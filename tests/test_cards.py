from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings

from memgov.cards import (
    card_from_dict,
    card_to_dict,
    make_card_id,
    normalized_text,
    parse_patch_digest,
    validate_schema,
)
from memgov.errors import DataError

from conftest import any_cards, make_card


def violated_fields(card) -> set[str]:
    return {v.field for v in validate_schema(card)}


def test_well_formed_card_has_no_violations(card):
    assert validate_schema(card) == []


def test_nine_signals_violates_minimum(card):
    bad = make_card(signals=tuple(f"signal {i}" for i in range(9)))
    violations = validate_schema(bad)
    assert any(v.field == "signals" and "count 9 below minimum 10" in v.reason for v in violations)


def test_nineteen_signals_violates_maximum():
    bad = make_card(signals=tuple(f"signal {i}" for i in range(19)))
    assert any("above maximum 18" in v.reason for v in validate_schema(bad))


def test_hex_run_in_summary_is_flagged():
    bad = make_card(summary="fails after a1b2c3d4e5f6a1b2 lands")
    assert any(
        v.field == "problem_summary" and "repo-specific identifier" in v.reason
        for v in validate_schema(bad)
    )


def test_own_repo_slug_in_signal_is_flagged():
    signals = tuple(f"signal {i}" for i in range(11)) + ("acme/widgets parser",)
    bad = make_card(signals=signals)
    assert any(v.field == "signals[11]" for v in validate_schema(bad))


def test_duplicate_signals_after_normalization_are_flagged():
    signals = tuple(f"signal {i}" for i in range(10)) + ("Null  Pointer", "null pointer")
    bad = make_card(signals=signals)
    violations = validate_schema(bad)
    assert any(v.field == "signals[11]" and "duplicate" in v.reason for v in violations)


def test_signal_word_count_bounds():
    signals = tuple(f"signal {i}" for i in range(10)) + (
        "one two three four five six seven",  # 7 words
        "   ",  # 0 words
    )
    fields = violated_fields(make_card(signals=signals))
    assert "signals[10]" in fields and "signals[11]" in fields


def test_empty_resolution_fields_are_violations():
    bad = make_card(root_cause="  ", verification="")
    fields = violated_fields(bad)
    assert "root_cause" in fields and "verification" in fields


@pytest.mark.parametrize(
    "digest,expected",
    [
        ("CHUNK: a\nCHUNK: b\nCHUNK: c", "no AREA: line"),
        ("AREA: x\nCHUNK: a\nCHUNK: b", "2 CHUNK: lines below minimum 3"),
        ("AREA: x\n" + "\n".join(f"CHUNK: {i}" for i in range(9)), "9 CHUNK: lines above maximum 8"),
    ],
)
def test_patch_digest_structure(digest, expected):
    bad = make_card(patch_digest=digest)
    assert any(expected in v.reason for v in validate_schema(bad))


def test_parse_patch_digest_strips_prefixes(card):
    areas, chunks = parse_patch_digest(card.resolution.patch_digest)
    assert areas == ["src/parser.py"]
    assert len(chunks) == 3 and chunks[0] == "added guard"


def test_validate_is_pure_and_idempotent(card):
    bad = make_card(signals=("only", "two"))
    assert validate_schema(bad) == validate_schema(bad)
    assert validate_schema(card) == validate_schema(card)


def test_serialization_round_trip(card):
    data = json.loads(json.dumps(card_to_dict(card)))
    assert card_from_dict(data) == card


def test_round_trip_preserves_all_fields_of_random_cards():
    rng = random.Random(7)
    for _ in range(50):
        card = make_card(
            summary=f"summary {rng.random()}",
            signals=tuple(f"sig {rng.randrange(10**6)} {i}" for i in range(rng.randint(10, 18))),
            root_cause=f"cause {rng.random()}",
        )
        assert card_from_dict(card_to_dict(card)) == card


def test_card_from_dict_names_missing_field():
    data = card_to_dict(make_card())
    del data["resolution"]
    with pytest.raises(DataError) as err:
        card_from_dict(data)
    assert "resolution" in str(err.value)


def test_normalized_text_examples():
    assert normalized_text("  Null  Pointer ") == "null pointer"
    assert normalized_text("NPE") == "npe"
    assert normalized_text("   ") == ""


def test_normalized_text_idempotent():
    rng = random.Random(3)
    corpus = ["Null Pointer", "  A\t\tB  ", "MiXeD CaSe", "x" * 40, "a  b   c"]
    for _ in range(100):
        raw = rng.choice(corpus)
        once = normalized_text(raw)
        assert normalized_text(once) == once


def test_make_card_id_is_deterministic_and_distinct():
    a = make_card_id("acme/widgets", 12, 34)
    assert a == make_card_id("acme/widgets", 12, 34)
    assert a != make_card_id("acme/widgets", 12, 35)
    assert "/" not in a


@pytest.mark.parametrize(
    "repo, readable",
    [
        ("acme/widgets", "acme--widgets"),
        ("a-b/c-d", "a-b--c-d"),
        ("x//y", "x----y"),
        ("-a/b-", "-a--b-"),
    ],
)
def test_make_card_id_keeps_the_readable_form(repo, readable):
    assert make_card_id(repo, 5, 6) == f"{readable}-i5-pr6"


@pytest.mark.parametrize(
    "first, second",
    [("acme/widgets", "acme--widgets"), ("a-/b", "a/-b"), ("a/b", "a--b"), ("a---b", "a-/b")],
)
def test_make_card_id_tells_colliding_slugs_apart(first, second):
    assert make_card_id(first, 1, 2) != make_card_id(second, 1, 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(card=any_cards())
def test_any_card_round_trips_through_json(card):
    assert card_from_dict(json.loads(json.dumps(card_to_dict(card)))) == card
