"""Instance purification: keep only closed-loop repair records.

A triplet survives purification when, in this order:

  (a) its PR was merged and explicitly references the issue,
  (b) its patch parses as a unified diff,
  (c) its issue thread contains at least one diagnostic anchor
      (stack trace, exception name, assertion failure), and
  (d) the technical-content ratio of the combined comment thread is at
      least tau (rejection is strictly-below).

Rejection reports the first failing check. "Technical" is decided by a
deterministic rule-based classifier (fenced code, anchors, file paths, or
two or more lexicon terms); an LLM classifier can be swapped in through
the same callable interface. Each comment is classified once: the purified
instance keeps the technical comments, and condensation works from them.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, Union

from .diffs import Diff, parse_unified_diff
from .errors import ConfigError, DiffParseError
from .ingestion import Comment, RawTriplet

DEFAULT_TAU = 0.2

# Reasons, in check order; audits rely on these strings being stable.
REASON_LINKAGE = "linkage"
REASON_DIFF = "unparsable-diff"
REASON_ANCHORS = "no-anchors"
REASON_RATIO = "low-technical-ratio"

# Also the source of the rule-based distiller's exception-name signals.
EXCEPTION_NAME = re.compile(r"\b\w+(?:Error|Exception)\b")

DEFAULT_ANCHOR_PATTERNS = (
    r"Traceback \(most recent call last\)",
    r'^\s*File "[^"\n]+", line \d+',
    EXCEPTION_NAME.pattern,
    r"^.*\bassert(?:ion)?\b.*\b(?:fail(?:ed|ure|s)?|error)\b.*$",
)

DEFAULT_TECHNICAL_LEXICON = (
    "error", "stack", "patch", "regression", "reproduce",
    "traceback", "assert", "segfault", "null", "exception",
)

_FENCED_CODE = re.compile(r"```")
# "/"- or "."-joined path ending in a code-like extension.
_FILE_PATH = re.compile(
    r"\b[\w.-]+(?:/[\w.-]+)*\.(?:py|pyx|js|ts|tsx|jsx|java|kt|c|h|cc|cpp|hpp|cs|go|rs|rb|php|sh|pl|sql|yml|yaml|toml|json|ini|cfg|xml|html|css)\b"
)


@dataclass(frozen=True)
class PurificationConfig:
    tau: float = DEFAULT_TAU
    anchor_patterns: tuple[str, ...] = DEFAULT_ANCHOR_PATTERNS
    technical_lexicon: tuple[str, ...] = DEFAULT_TECHNICAL_LEXICON

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must be in [0, 1], got {self.tau}")
        self.anchor_res  # compiles, and so checks, every pattern

    @cached_property
    def anchor_res(self) -> tuple[re.Pattern, ...]:
        """The anchor patterns compiled with re.MULTILINE, once per config."""
        compiled = []
        for pattern in self.anchor_patterns:
            try:
                compiled.append(re.compile(pattern, re.MULTILINE))
            except (re.error, OverflowError, RecursionError) as exc:
                raise ConfigError(f"invalid anchor pattern {pattern!r}: {exc}") from exc
        return tuple(compiled)


@dataclass(frozen=True)
class Anchor:
    """One diagnostic excerpt and where it was found."""

    text: str
    source: str  # issue_body | issue_comment | pr_discussion


@dataclass(frozen=True)
class PurifiedInstance:
    triplet: RawTriplet
    diff: Diff
    anchors: tuple[Anchor, ...]
    technical_ratio: float
    # The comments the classifier judged technical, in combined-thread order.
    technical_comments: tuple[Comment, ...]


@dataclass(frozen=True)
class Rejection:
    """A triplet that failed purification; carries the first failing check."""

    triplet: RawTriplet
    reason: str
    detail: str


PurifyResult = Union[PurifiedInstance, Rejection]


def _anchor_excerpts(text: str, patterns: Sequence[re.Pattern]) -> list[str]:
    """Maximal anchor regions: runs of consecutive lines with any match.

    A multi-line stack trace therefore comes back as one excerpt, while an
    isolated "ValueError: ..." mention yields just its own line.
    """
    lines = text.split("\n")
    offsets: list[int] = []
    pos = 0
    for line in lines:
        offsets.append(pos)
        pos += len(line) + 1
    matched = [False] * len(lines)
    for pattern in patterns:
        for m in pattern.finditer(text):
            # Mark every line the match touches.
            first = bisect.bisect_right(offsets, m.start()) - 1
            last = bisect.bisect_right(offsets, max(m.end() - 1, m.start())) - 1
            for i in range(first, last + 1):
                matched[i] = True
    excerpts: list[str] = []
    run: list[str] = []
    for i, line in enumerate(lines):
        if matched[i]:
            run.append(line)
        elif run:
            excerpts.append("\n".join(run))
            run = []
    if run:
        excerpts.append("\n".join(run))
    return excerpts


def scan_text_anchors(text: str, cfg: PurificationConfig | None = None) -> list[str]:
    """Anchor excerpts from one free-text blob (demo clients, ad-hoc scans)."""
    return _anchor_excerpts(text, (cfg or PurificationConfig()).anchor_res)


def detect_anchors(triplet: RawTriplet, cfg: PurificationConfig) -> list[Anchor]:
    """Find diagnostic anchors in the issue body, issue comments, and PR
    discussion, recording each excerpt's source."""
    patterns = cfg.anchor_res
    anchors: list[Anchor] = []
    for excerpt in _anchor_excerpts(triplet.issue.body, patterns):
        anchors.append(Anchor(excerpt, "issue_body"))
    for comment in triplet.issue.comments:
        for excerpt in _anchor_excerpts(comment.body, patterns):
            anchors.append(Anchor(excerpt, "issue_comment"))
    for comment in triplet.pr.discussion:
        for excerpt in _anchor_excerpts(comment.body, patterns):
            anchors.append(Anchor(excerpt, "pr_discussion"))
    return anchors


class RuleBasedCommentClassifier:
    """Deterministic stand-in for an LLM technicality judge.

    A comment is technical when it contains a fenced code block, a
    diagnostic anchor, a recognizable file path, or at least two distinct
    lexicon terms.
    """

    def __init__(self, cfg: PurificationConfig | None = None):
        self.cfg = cfg or PurificationConfig()
        self._term_res = [
            re.compile(rf"\b{re.escape(term)}\w*", re.IGNORECASE)
            for term in self.cfg.technical_lexicon
        ]

    def __call__(self, comment: Comment) -> bool:
        body = comment.body
        if not body.strip():
            return False
        if _FENCED_CODE.search(body):
            return True
        if any(p.search(body) for p in self.cfg.anchor_res):
            return True
        if _FILE_PATH.search(body):
            return True
        distinct_terms = sum(1 for term_re in self._term_res if term_re.search(body))
        return distinct_terms >= 2


Classifier = Callable[[Comment], bool]


def combined_thread(triplet: RawTriplet) -> list[Comment]:
    """Issue comments followed by PR discussion: the ratio's domain."""
    return [*triplet.issue.comments, *triplet.pr.discussion]


def purify(
    triplet: RawTriplet,
    cfg: PurificationConfig | None = None,
    classifier: Classifier | None = None,
) -> PurifyResult:
    """Run checks (a)-(d) and return the purified instance or the first
    failing check as a Rejection. Rejection is data, not an error."""
    cfg = cfg or PurificationConfig()
    classifier = classifier or RuleBasedCommentClassifier(cfg)

    if not (triplet.pr.merged and triplet.issue.number in triplet.pr.linked_issue_refs):
        detail = "pr not merged" if not triplet.pr.merged else "pr does not reference the issue"
        return Rejection(triplet, REASON_LINKAGE, detail)

    try:
        diff = parse_unified_diff(triplet.patch_text)
    except DiffParseError as exc:
        return Rejection(triplet, REASON_DIFF, str(exc))

    anchors = detect_anchors(triplet, cfg)
    if not anchors:
        return Rejection(triplet, REASON_ANCHORS, "no diagnostic anchors in issue or discussion")

    thread = combined_thread(triplet)
    technical = tuple(c for c in thread if classifier(c))
    # The fraction of comments classified technical; an empty thread is vacuously 1.0.
    ratio = len(technical) / len(thread) if thread else 1.0
    if ratio < cfg.tau:
        return Rejection(triplet, REASON_RATIO, f"technical ratio {ratio:.4f} < tau {cfg.tau}")

    return PurifiedInstance(
        triplet=triplet,
        diff=diff,
        anchors=tuple(anchors),
        technical_ratio=ratio,
        technical_comments=technical,
    )
