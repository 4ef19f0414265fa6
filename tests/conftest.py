from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import strategies as st

from memgov.cards import CardSource, ExperienceCard, IndexLayer, ResolutionLayer, make_card_id
from memgov.ingestion import AuthorRole, Comment, Issue, PullRequest, RawTriplet
from memgov.purification import purify

SIMPLE_DIFF = (
    "--- a/src/parser.py\n"
    "+++ b/src/parser.py\n"
    "@@ -1,2 +1,3 @@\n"
    " context line\n"
    "+guard against empty input\n"
    " trailing line\n"
)

TRACEBACK_BODY = (
    "Running the parser fails on empty files.\n"
    "Traceback (most recent call last)\n"
    '  File "src/parser.py", line 10, in parse\n'
    "ValueError: empty input\n"
)


def make_comment(body: str, role: AuthorRole = AuthorRole.CONTRIBUTOR, ts: str = "2024-01-01T00:00:00") -> Comment:
    return Comment(
        author_role=role,
        body=body,
        timestamp=datetime.fromisoformat(ts).replace(tzinfo=timezone.utc),
    )


def make_triplet(
    repo: str = "acme/widgets",
    issue_number: int = 12,
    pr_number: int = 34,
    title: str = "crash on empty input",
    body: str = TRACEBACK_BODY,
    issue_comments: list[Comment] | None = None,
    discussion: list[Comment] | None = None,
    merged: bool = True,
    linked: list[int] | None = None,
    patch_text: str = SIMPLE_DIFF,
) -> RawTriplet:
    if issue_comments is None:
        issue_comments = [
            make_comment("I can reproduce this error, the stack trace points at the parser")
        ]
    if discussion is None:
        discussion = [make_comment("Patch updates src/parser.py to add the guard")]
    return RawTriplet(
        repo=repo,
        issue=Issue(
            number=issue_number, title=title, body=body, comments=tuple(issue_comments)
        ),
        pr=PullRequest(
            number=pr_number,
            merged=merged,
            linked_issue_refs=tuple(linked if linked is not None else [issue_number]),
            discussion=tuple(discussion),
        ),
        patch_text=patch_text,
    )


def make_instance(**kwargs):
    result = purify(make_triplet(**kwargs))
    assert not hasattr(result, "reason"), f"fixture triplet was rejected: {result}"
    return result


def make_card(
    repo: str = "acme/widgets",
    issue: int = 12,
    pr: int = 34,
    summary: str = "crash on empty input",
    signals: tuple[str, ...] | None = None,
    root_cause: str = "parser assumed non-empty payload",
    fix_strategy: str = "add a guard for the empty case",
    patch_digest: str = "AREA: src/parser.py\nCHUNK: added guard\nCHUNK: adjusted docs\nCHUNK: kept API stable",
    verification: str = "run the parser tests",
) -> ExperienceCard:
    if signals is None:
        signals = tuple(f"signal {i}" for i in range(12))
    return ExperienceCard(
        card_id=make_card_id(repo, issue, pr),
        source=CardSource(repo, issue, pr),
        index=IndexLayer(problem_summary=summary, signals=signals),
        resolution=ResolutionLayer(
            root_cause=root_cause,
            fix_strategy=fix_strategy,
            patch_digest=patch_digest,
            verification=verification,
        ),
    )


# Any code point, lone surrogates included, with quotes, backslashes and
# newlines drawn often: the characters JSON must escape.
ANY_TEXT = st.text(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from('"\\\n')), max_size=12
)


def any_cards():
    """Cards whose every string is arbitrary text. A fixed ASCII signal ends
    each signal tuple, so that every card's index text embeds."""
    return st.builds(
        ExperienceCard,
        card_id=ANY_TEXT,
        source=st.builds(CardSource, repo=ANY_TEXT, issue=st.integers(), pr=st.integers()),
        index=st.builds(
            IndexLayer,
            problem_summary=ANY_TEXT,
            signals=st.lists(ANY_TEXT, max_size=3).map(lambda s: (*s, "roundtrip")),
        ),
        resolution=st.builds(
            ResolutionLayer,
            root_cause=ANY_TEXT,
            fix_strategy=ANY_TEXT,
            patch_digest=ANY_TEXT,
            verification=ANY_TEXT,
        ),
    )


@pytest.fixture
def triplet() -> RawTriplet:
    return make_triplet()


@pytest.fixture
def instance():
    return make_instance()


@pytest.fixture
def card() -> ExperienceCard:
    return make_card()
