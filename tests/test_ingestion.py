from __future__ import annotations

import json
from datetime import timezone

import pytest

from memgov.errors import DataError
from memgov.ingestion import (
    AuthorRole,
    Comment,
    ItemError,
    RawTriplet,
    RepoStats,
    load_fixture_triplets,
    triplet_from_dict,
)

from conftest import make_triplet


def comment_row(c: Comment) -> dict:
    return {
        "author_role": c.author_role.value,
        "body": c.body,
        "timestamp": c.timestamp.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def triplet_row(t: RawTriplet) -> dict:
    """The JSON form that triplet_from_dict reads, written out for fixtures."""
    return {
        "repo": t.repo,
        "issue": {
            "number": t.issue.number,
            "title": t.issue.title,
            "body": t.issue.body,
            "comments": [comment_row(c) for c in t.issue.comments],
        },
        "pr": {
            "number": t.pr.number,
            "merged": t.pr.merged,
            "linked_issue_refs": list(t.pr.linked_issue_refs),
            "discussion": [comment_row(c) for c in t.pr.discussion],
        },
        "patch_text": t.patch_text,
    }


def test_repo_stats_validation():
    with pytest.raises(DataError):
        RepoStats(repo="", stars=1, issues=1, pulls=1)
    with pytest.raises(DataError):
        RepoStats(repo="a/b", stars=-1, issues=0, pulls=0)


def test_comment_body_empty_only_for_bots():
    Comment(author_role=AuthorRole.BOT, body="", timestamp=make_triplet().issue.comments[0].timestamp)
    with pytest.raises(DataError):
        Comment(author_role=AuthorRole.CONTRIBUTOR, body="", timestamp=make_triplet().issue.comments[0].timestamp)


def test_load_fixture_triplets_order_and_determinism(tmp_path, triplet):
    path = tmp_path / "triplets.jsonl"
    rows = [triplet_row(make_triplet(issue_number=i, pr_number=100 + i)) for i in (5, 3, 9)]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    first = list(load_fixture_triplets(path))
    second = list(load_fixture_triplets(path))
    assert [t.issue.number for t in first] == [5, 3, 9]
    assert first == second


def test_load_fixture_triplets_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert list(load_fixture_triplets(path)) == []


def test_load_fixture_triplets_missing_field_cites_line(tmp_path, triplet):
    rows = [triplet_row(triplet), triplet_row(triplet)]
    del rows[1]["patch_text"]
    path = tmp_path / "triplets.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = list(load_fixture_triplets(path))
    assert isinstance(out[0], RawTriplet)
    assert isinstance(out[1], ItemError) and out[1].line == 2
    assert "patch_text" in out[1].message


def test_load_fixture_triplets_missing_file(tmp_path):
    with pytest.raises(DataError):
        list(load_fixture_triplets(tmp_path / "nope.jsonl"))


def test_triplet_serde_round_trip(triplet):
    assert triplet_from_dict(triplet_row(triplet)) == triplet


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("pr", "merged", "false"),
        ("pr", "merged", 0),
        ("issue", "number", 3.9),
        ("issue", "number", True),
        ("issue", "number", "3"),
        ("pr", "number", 3.0),
        ("pr", "number", True),
        ("pr", "linked_issue_refs", [True]),
        ("pr", "linked_issue_refs", [3.9]),
        ("pr", "linked_issue_refs", ["3"]),
    ],
)
def test_mistyped_field_is_an_item_error_naming_it(tmp_path, triplet, section, key, value):
    row = triplet_row(triplet)
    row[section][key] = value
    path = tmp_path / "triplets.jsonl"
    path.write_text(json.dumps(row) + "\n")
    [item] = load_fixture_triplets(path)
    assert isinstance(item, ItemError) and item.line == 1
    assert f"(field: {section}.{key})" in item.message
