"""Repository stats and linked (issue, PR, patch) triplets: the data model
and its JSON form.

Triplet fixture files are JSON Lines, one raw-triplet object per line:

    {"repo": "...",
     "issue": {"number", "title", "body", "comments": [comment...]},
     "pr": {"number", "merged", "linked_issue_refs", "discussion": [comment...]},
     "patch_text": "..."}

where a comment is {"author_role": "maintainer|contributor|bot|unknown",
"body": "...", "timestamp": "2024-01-02T03:04:05Z"}. The issue and PR
numbers and each linked_issue_refs entry are JSON integers and merged is a
JSON boolean; any other type is a malformed entry, never coerced. Streaming
operations yield ItemError records for malformed entries instead of aborting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterator, Union

from .errors import DataError


class AuthorRole(str, Enum):
    MAINTAINER = "maintainer"
    CONTRIBUTOR = "contributor"
    BOT = "bot"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class RepoStats:
    """Popularity and maintenance counters for one repository.

    Counts are non-negative but not forced to be integral: synthetic
    fixtures may use fractional values to probe the scoring curve.
    """

    repo: str
    stars: float
    issues: float
    pulls: float

    def __post_init__(self) -> None:
        if not self.repo:
            raise DataError("repo slug is empty", field="repo")
        for name in ("stars", "issues", "pulls"):
            value = getattr(self, name)
            if isinstance(value, bool) or not value >= 0:
                raise DataError(f"{name} must be a number >= 0, got {value!r}", field=name)


@dataclass(frozen=True)
class Comment:
    author_role: AuthorRole
    body: str
    timestamp: datetime

    def __post_init__(self) -> None:
        if not self.body and self.author_role is not AuthorRole.BOT:
            raise DataError("empty body allowed only for bot comments", field="body")


@dataclass(frozen=True)
class Issue:
    number: int
    title: str
    body: str
    comments: tuple[Comment, ...]


@dataclass(frozen=True)
class PullRequest:
    number: int
    merged: bool
    linked_issue_refs: tuple[int, ...]
    discussion: tuple[Comment, ...]


@dataclass(frozen=True)
class RawTriplet:
    repo: str
    issue: Issue
    pr: PullRequest
    patch_text: str

    def __post_init__(self) -> None:
        if self.issue.number <= 0:
            raise DataError("issue number must be positive", field="issue.number")
        if self.pr.number <= 0:
            raise DataError("pr number must be positive", field="pr.number")


@dataclass(frozen=True)
class ItemError:
    """A skippable per-item failure inside a stream."""

    message: str
    line: int | None = None

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}" if self.line else self.message


TripletOrError = Union[RawTriplet, ItemError]


def parse_timestamp(raw: str) -> datetime:
    ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def comment_from_dict(data: dict) -> Comment:
    return Comment(
        author_role=AuthorRole(data.get("author_role", "unknown")),
        body=data.get("body", ""),
        timestamp=parse_timestamp(data["timestamp"]),
    )


def _typed(value, kind: type, field: str):
    """The value when json.loads made it a ``kind``: an int is no bool and a
    bool no int here, and neither a fraction nor a string passes."""
    if type(value) is not kind:
        raise DataError(f"expected {kind.__name__}, got {type(value).__name__}", field=field)
    return value


def triplet_from_dict(data: dict) -> RawTriplet:
    """Build a RawTriplet from its JSON form, raising DataError on gaps."""
    try:
        issue = data["issue"]
        pr = data["pr"]
        if pr is None:
            raise DataError("triplet has no pr", field="pr")
        return RawTriplet(
            repo=data["repo"],
            issue=Issue(
                number=_typed(issue["number"], int, "issue.number"),
                title=issue.get("title", ""),
                body=issue.get("body", ""),
                comments=tuple(comment_from_dict(c) for c in issue.get("comments", [])),
            ),
            pr=PullRequest(
                number=_typed(pr["number"], int, "pr.number"),
                merged=_typed(pr["merged"], bool, "pr.merged"),
                linked_issue_refs=tuple(
                    _typed(n, int, "pr.linked_issue_refs") for n in pr.get("linked_issue_refs", [])
                ),
                discussion=tuple(comment_from_dict(c) for c in pr.get("discussion", [])),
            ),
            patch_text=data["patch_text"],
        )
    except KeyError as exc:
        raise DataError("triplet missing required key", field=str(exc.args[0])) from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"triplet malformed: {exc}") from exc


def load_fixture_triplets(path: str | Path) -> Iterator[TripletOrError]:
    """Stream RawTriplets from a JSON Lines fixture file, in file order.

    Lines end at "\n" and are decoded as strict UTF-8. Missing files raise
    DataError; malformed lines, undecodable bytes included, yield ItemError
    citing the 1-based line number.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"fixture file not found: {path}")
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                yield ItemError(f"invalid UTF-8: {exc.reason} at byte {exc.start}", line=lineno)
                continue
            if not line.strip():
                continue
            try:
                yield triplet_from_dict(json.loads(line))
            except json.JSONDecodeError as exc:
                yield ItemError(f"invalid JSON: {exc.msg}", line=lineno)
            except DataError as exc:
                yield ItemError(str(exc), line=lineno)
