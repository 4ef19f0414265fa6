"""Acquisition of repository stats and (issue, PR, patch) triplets.

Two interchangeable sources implement the same small client surface:

* HttpForgeClient -- JSON-over-HTTP forge API, authenticated via the
  MEMGOV_FORGE_TOKEN environment variable; MEMGOV_FORGE_BASE_URL overrides
  the endpoint (test servers). Retries transient failures with exponential
  backoff; pipeline stages only ever see a stream.
* FixtureForge -- offline directory of JSON fixtures, so every pipeline
  stage runs fully deterministically without a network.

Triplet fixture files are JSON Lines, one raw-triplet object per line:

    {"repo": "...",
     "issue": {"number", "title", "body", "comments": [comment...]},
     "pr": {"number", "merged", "linked_issue_refs", "discussion": [comment...]},
     "patch_text": "..."}

where a comment is {"author_role": "maintainer|contributor|bot|unknown",
"body": "...", "timestamp": "2024-01-02T03:04:05Z"}. Streaming operations
yield ItemError records for malformed entries instead of aborting.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterator, Union

from .errors import DataError, SourceError
from .providers import retry_call

DEFAULT_MIN_STARS = 100

ENV_FORGE_TOKEN = "MEMGOV_FORGE_TOKEN"
ENV_FORGE_BASE_URL = "MEMGOV_FORGE_BASE_URL"

# Forge-native linkage conventions in PR text: "fixes #12" etc.
_LINK_RE = re.compile(r"\b(?:fixes|closes|resolves)\s+#(\d+)", re.IGNORECASE)


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
            if not value >= 0:
                raise DataError(f"{name} must be >= 0, got {value}", field=name)


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


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def comment_from_dict(data: dict) -> Comment:
    return Comment(
        author_role=AuthorRole(data.get("author_role", "unknown")),
        body=data.get("body", ""),
        timestamp=parse_timestamp(data["timestamp"]),
    )


def comment_to_dict(c: Comment) -> dict:
    return {
        "author_role": c.author_role.value,
        "body": c.body,
        "timestamp": format_timestamp(c.timestamp),
    }


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
                number=int(issue["number"]),
                title=issue.get("title", ""),
                body=issue.get("body", ""),
                comments=tuple(comment_from_dict(c) for c in issue.get("comments", [])),
            ),
            pr=PullRequest(
                number=int(pr["number"]),
                merged=bool(pr["merged"]),
                linked_issue_refs=tuple(int(n) for n in pr.get("linked_issue_refs", [])),
                discussion=tuple(comment_from_dict(c) for c in pr.get("discussion", [])),
            ),
            patch_text=data["patch_text"],
        )
    except KeyError as exc:
        raise DataError("triplet missing required key", field=str(exc.args[0])) from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"triplet malformed: {exc}") from exc


def triplet_to_dict(t: RawTriplet) -> dict:
    return {
        "repo": t.repo,
        "issue": {
            "number": t.issue.number,
            "title": t.issue.title,
            "body": t.issue.body,
            "comments": [comment_to_dict(c) for c in t.issue.comments],
        },
        "pr": {
            "number": t.pr.number,
            "merged": t.pr.merged,
            "linked_issue_refs": list(t.pr.linked_issue_refs),
            "discussion": [comment_to_dict(c) for c in t.pr.discussion],
        },
        "patch_text": t.patch_text,
    }


def detect_linked_issues(pr_title: str, pr_body: str, discussion_bodies: list[str]) -> set[int]:
    """Scan PR text for "fixes #N" / "closes #N" / "resolves #N" references."""
    refs: set[int] = set()
    for text in [pr_title, pr_body, *discussion_bodies]:
        refs.update(int(m) for m in _LINK_RE.findall(text))
    return refs


class FixtureForge:
    """Offline forge backed by a fixture directory.

    Layout: ``repos.json`` (list of repo-stats objects) and
    ``triplets/<owner>__<name>.jsonl`` with one raw record per line. Raw
    records look like triplet objects but ``pr`` may be null (issue without
    any pull request).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        if not self.root.is_dir():
            raise SourceError(f"fixture directory not found: {self.root}", retryable=False)

    def list_repo_stats(self) -> list[dict]:
        path = self.root / "repos.json"
        if not path.is_file():
            raise SourceError(f"fixture file not found: {path}", retryable=False)
        return json.loads(path.read_text())

    def iter_raw_records(self, repo: str) -> Iterator[tuple[int, dict | ItemError]]:
        path = self.root / "triplets" / (repo.replace("/", "__") + ".jsonl")
        if not path.is_file():
            raise SourceError(f"no triplet fixture for repo {repo!r}: {path}", retryable=False)
        with path.open() as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    yield lineno, json.loads(line)
                except json.JSONDecodeError as exc:
                    yield lineno, ItemError(f"invalid JSON: {exc.msg}", line=lineno)


class HttpForgeClient:
    """Minimal JSON-over-HTTP forge client.

    Endpoints: GET {base}/repos -> [stats...], and
    GET {base}/repos/{owner}/{name}/triplets?page=N ->
    {"items": [raw records...], "next_page": int|null}.
    """

    def __init__(
        self,
        base_url: str | None = None,
        token: str | None = None,
        max_retries: int = 3,
        backoff: float = 0.5,
        timeout: float = 30.0,
    ):
        self.base_url = (base_url or os.environ.get(ENV_FORGE_BASE_URL, "")).rstrip("/")
        if not self.base_url:
            raise SourceError(
                f"no forge base URL configured (set {ENV_FORGE_BASE_URL})", retryable=False
            )
        self.token = token if token is not None else os.environ.get(ENV_FORGE_TOKEN)
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        # Imported here, not at module level: requests takes about 0.1 s to
        # import, and only this client needs it.
        import requests

        self.session = requests.Session()

    def _get(self, path: str, params: dict | None = None) -> object:
        """One GET of a JSON document. Connection errors, 429 and 5xx raise
        a retryable SourceError; callers retry through providers.retry_call."""
        import requests  # loaded by __init__; binds the name for the except clause

        headers = {"Authorization": f"Bearer {self.token}"} if self.token else {}
        url = f"{self.base_url}{path}"
        try:
            resp = self.session.get(url, params=params, headers=headers, timeout=self.timeout)
        except requests.RequestException as exc:
            raise SourceError(f"forge unreachable: {exc}") from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            raise SourceError(f"forge returned {resp.status_code} for {url}")
        if resp.status_code in (401, 403):
            raise SourceError(f"forge auth failure ({resp.status_code})", retryable=False)
        if resp.status_code >= 400:
            raise SourceError(f"forge returned {resp.status_code} for {url}", retryable=False)
        try:
            return resp.json()
        except ValueError as exc:
            raise DataError(f"forge response is not JSON: {exc}") from exc

    def list_repo_stats(self) -> list[dict]:
        payload = retry_call(lambda: self._get("/repos"), self.max_retries, self.backoff)
        if not isinstance(payload, list):
            raise DataError("expected a JSON array of repo stats", field="repos")
        return payload

    def iter_raw_records(self, repo: str) -> Iterator[tuple[int, dict | ItemError]]:
        page = 1
        counter = 0
        while page is not None:
            payload = retry_call(
                lambda: self._get(f"/repos/{repo}/triplets", {"page": page}),
                self.max_retries,
                self.backoff,
            )
            if not isinstance(payload, dict) or "items" not in payload:
                raise DataError("triplet page missing 'items'", field="items")
            for item in payload["items"]:
                counter += 1
                yield counter, item
            page = payload.get("next_page")


ForgeSource = Union[FixtureForge, HttpForgeClient]


def fetch_repo_stats(source: ForgeSource, min_stars: float = DEFAULT_MIN_STARS) -> list[RepoStats]:
    """List repositories with stars >= min_stars (boundary inclusive)."""
    out = []
    for entry in source.list_repo_stats():
        try:
            stats = RepoStats(
                repo=entry["repo"],
                stars=entry["stars"],
                issues=entry["issues"],
                pulls=entry["pulls"],
            )
        except KeyError as exc:
            raise DataError("repo stats missing required key", field=str(exc.args[0])) from exc
        if stats.stars >= min_stars:
            out.append(stats)
    return out


def _link_and_build(record: dict) -> RawTriplet | None:
    """Turn a raw forge record into a linked RawTriplet, or None if the
    issue has no referencing PR."""
    pr = record.get("pr")
    if pr is None:
        return None
    issue_number = int(record["issue"]["number"])
    detected = detect_linked_issues(
        pr.get("title", ""),
        pr.get("body", ""),
        [c.get("body", "") for c in pr.get("discussion", [])],
    )
    explicit = {int(n) for n in pr.get("linked_issue_refs", [])}
    refs = sorted(explicit | detected)
    if issue_number not in refs:
        return None
    linked = dict(record)
    linked["pr"] = {**pr, "linked_issue_refs": refs}
    return triplet_from_dict(linked)


def harvest_triplets(source: ForgeSource, repo: str) -> Iterator[TripletOrError]:
    """Stream linked (issue, PR, patch) triplets for one repository.

    Every yielded triplet's PR references its issue (explicit forge
    cross-links plus "fixes/closes/resolves #N" text scan). Issues without
    a referencing PR produce nothing; malformed records surface as
    ItemError values, never as stream termination.
    """
    for lineno, record in source.iter_raw_records(repo):
        if isinstance(record, ItemError):
            yield record
            continue
        try:
            triplet = _link_and_build(record)
        except DataError as exc:
            yield ItemError(str(exc), line=lineno)
            continue
        if triplet is not None:
            yield triplet


def load_fixture_triplets(path: str | Path) -> Iterator[TripletOrError]:
    """Stream RawTriplets from a JSON Lines fixture file, in file order.

    Missing files raise DataError; malformed lines yield ItemError citing
    the 1-based line number.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"fixture file not found: {path}")
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                yield triplet_from_dict(json.loads(line))
            except json.JSONDecodeError as exc:
                yield ItemError(f"invalid JSON: {exc.msg}", line=lineno)
            except DataError as exc:
                yield ItemError(str(exc), line=lineno)
