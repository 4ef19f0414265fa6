"""Standardization: condense comment streams and draft dual-layer cards.

The distiller is an abstract provider. Production is an LLM prompt pipeline
(ChatDistiller, prompt text externalized under memgov/prompts); tests and
offline runs use a deterministic rule-based extractor (RuleBasedDistiller)
behind the same interface. Neither judges quality -- that is the quality
gate's job.

When a request carries feedback naming deficient dimensions, only the
fields belonging to those dimensions are regenerated; everything else is
reproduced verbatim from the base draft.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Protocol

from .cards import (
    SIGNALS_MAX,
    SIGNALS_MIN,
    CardSource,
    ExperienceCard,
    IndexLayer,
    ResolutionLayer,
    _HEX_RUN,
    make_card_id,
)
from .diffs import hunk_stats
from .errors import MalformedOutputError
from .ingestion import Comment
from .providers import ChatProvider, PromptTemplate, extract_json_object, retry_call
from .purification import EXCEPTION_NAME, PurifiedInstance, combined_thread

CARD_FIELDS = (
    "problem_summary", "signals", "root_cause", "fix_strategy", "patch_digest", "verification",
)

# Which card fields each QC dimension governs; schema violations arrive as
# "schema:<field>" pseudo-dimensions.
DIMENSION_FIELDS = {
    "faithfulness-to-source": ("problem_summary", "signals"),
    "signal-quality": ("signals",),
    "root-cause-evidence": ("root_cause",),
    "strategy-actionability": ("fix_strategy",),
    "digest-groundedness": ("patch_digest",),
    "verification-concreteness": ("verification",),
}

_MIN_COLLAPSE_RUN = 3

_STOPWORDS = frozenset(
    "a an and are as at be but by for from has have if in into is it its of on or "
    "that the their then there these this to was were when which while with".split()
)

_WORD = re.compile(r"[A-Za-z0-9_]+")

_TEST_PATH_HINT = re.compile(r"(?:^|/)(?:tests?|testing)(?:/|_)|_test\.|test_", re.IGNORECASE)


@dataclass(frozen=True)
class CondensedThread:
    """The purified discussion a distiller actually sees.

    kept_comments are the technical comments from the combined stream
    (issue comments then PR discussion); their surviving text is unaltered,
    but consecutive duplicate log blocks are collapsed to one occurrence
    plus a repetition marker line.
    """

    issue_title: str
    issue_body: str
    kept_comments: tuple[Comment, ...]
    dropped_count: int
    diff_summary_lines: tuple[str, ...]


@dataclass(frozen=True)
class DistillerRequest:
    instance: PurifiedInstance
    condensed: CondensedThread
    feedback: tuple[tuple[str, str], ...] = ()  # (dimension, feedback text)


class Distiller(Protocol):
    def distill(self, request: DistillerRequest) -> ExperienceCard:
        ...


def _collapse_repeated_runs(body: str) -> str:
    """Collapse back-to-back repeats of any line-run of >= 3 lines to a
    single occurrence followed by an "[xN]" marker."""
    lines = body.split("\n")
    out: list[str] = []
    i = 0
    n = len(lines)
    while i < n:
        collapsed = False
        max_len = (n - i) // 2
        for run_len in range(max_len, _MIN_COLLAPSE_RUN - 1, -1):
            block = lines[i : i + run_len]
            repeats = 1
            while lines[i + repeats * run_len : i + (repeats + 1) * run_len] == block:
                repeats += 1
            if repeats > 1:
                out.extend(block)
                out.append(f"[×{repeats}]")
                i += repeats * run_len
                collapsed = True
                break
        if not collapsed:
            out.append(lines[i])
            i += 1
    return "\n".join(out)


def purify_content(instance: PurifiedInstance) -> CondensedThread:
    """Keep the comments purification judged technical and deduplicate
    their repeated log blocks; no comment is classified again.

    Idempotent: condensing an already-condensed thread changes nothing.
    """
    kept: list[Comment] = []
    for comment in instance.technical_comments:
        collapsed = _collapse_repeated_runs(comment.body)
        if collapsed != comment.body:
            comment = Comment(comment.author_role, collapsed, comment.timestamp)
        kept.append(comment)

    stats = hunk_stats(instance.diff)
    summary_lines = tuple(
        f"{path}: {hunks} hunk{'s' if hunks != 1 else ''}, +{added} -{deleted}"
        for path, (hunks, added, deleted) in stats.items()
    )
    return CondensedThread(
        issue_title=instance.triplet.issue.title,
        issue_body=instance.triplet.issue.body,
        kept_comments=tuple(kept),
        dropped_count=len(combined_thread(instance.triplet)) - len(kept),
        diff_summary_lines=summary_lines,
    )


def _scrub_identifiers(text: str, repo: str) -> str:
    """Strip repo-specific identifiers from index-layer text."""
    text = _HEX_RUN.sub("", text)
    if repo:
        text = re.compile(re.escape(repo), re.IGNORECASE).sub("", text)
    return " ".join(text.split())


def _keywords(text: str) -> list[str]:
    out = []
    for word in _WORD.findall(text):
        lower = word.lower()
        if lower in _STOPWORDS or len(lower) < 3 or lower.isdigit():
            continue
        if lower not in out:
            out.append(lower)
    return out


def _path_tokens(paths: list[str]) -> list[str]:
    tokens: list[str] = []
    for path in paths:
        for part in re.split(r"[/._-]+", path):
            lower = part.lower()
            if len(lower) >= 3 and not lower.isdigit() and lower not in tokens:
                tokens.append(lower)
    return tokens


class RuleBasedDistiller:
    """Deterministic extractor used offline and in tests.

    Byte-identical requests produce byte-identical cards. The summary comes
    from the issue title; signals are anchor tokens plus title keywords,
    padded from diff-path tokens into the 10-18 band; the resolution layer
    is templated from diff file paths and hunk statistics.
    """

    def __init__(self, react_to_feedback: bool = True):
        self.react_to_feedback = react_to_feedback

    def distill(self, request: DistillerRequest) -> ExperienceCard:
        anchor_names = self._anchor_tokens(request)
        fields = self._base_fields(request, anchor_names)
        if request.feedback and self.react_to_feedback:
            improved = self._improved_fields(request, fields, anchor_names)
            for name in self._feedback_fields(request.feedback):
                fields[name] = improved[name]
        triplet = request.instance.triplet
        return ExperienceCard(
            card_id=make_card_id(triplet.repo, triplet.issue.number, triplet.pr.number),
            source=CardSource(triplet.repo, triplet.issue.number, triplet.pr.number),
            index=IndexLayer(
                problem_summary=fields["problem_summary"], signals=tuple(fields["signals"])
            ),
            resolution=ResolutionLayer(
                root_cause=fields["root_cause"],
                fix_strategy=fields["fix_strategy"],
                patch_digest=fields["patch_digest"],
                verification=fields["verification"],
            ),
        )

    @staticmethod
    def _feedback_fields(feedback: tuple[tuple[str, str], ...]) -> list[str]:
        targets: list[str] = []
        for dimension, _text in feedback:
            if dimension.startswith("schema:"):
                name = dimension.split(":", 1)[1]
                name = re.sub(r"\[\d+\]$", "", name)  # signals[3] -> signals
                names = (name,) if name in CARD_FIELDS else ()
            else:
                names = DIMENSION_FIELDS.get(dimension, ())
            for name in names:
                if name not in targets:
                    targets.append(name)
        return targets

    @staticmethod
    def _anchor_tokens(request: DistillerRequest) -> list[str]:
        """Lower-cased exception names from the anchors, first occurrence order."""
        tokens: list[str] = []
        for anchor in request.instance.anchors:
            for name in EXCEPTION_NAME.findall(anchor.text):
                lower = name.lower()
                if lower not in tokens:
                    tokens.append(lower)
        return tokens

    def _scrub(self, request: DistillerRequest, text: str) -> str:
        return _scrub_identifiers(text, request.instance.triplet.repo)

    def _signals(self, request: DistillerRequest, anchor_names: list[str], extended: bool) -> list[str]:
        """Anchor tokens plus title keywords; diff-path tokens pad up to the
        minimum, and anything past the maximum is truncated."""
        triplet = request.instance.triplet
        candidates = list(anchor_names)
        for kw in _keywords(triplet.issue.title):
            if kw not in candidates:
                candidates.append(kw)
        if extended:
            for kw in _keywords(triplet.issue.body):
                if kw not in candidates:
                    candidates.append(kw)
        signals = [tok for tok in (self._scrub(request, t) for t in candidates) if tok]
        signals = signals[:SIGNALS_MAX]
        for tok in _path_tokens(request.instance.diff.changed_paths()):
            if len(signals) >= SIGNALS_MIN:
                break
            tok = self._scrub(request, tok)
            if tok and tok not in signals:
                signals.append(tok)
        filler = 1
        while len(signals) < SIGNALS_MIN:
            candidate = f"diagnostic detail {filler}"
            if candidate not in signals:
                signals.append(candidate)
            filler += 1
        return signals

    def _base_fields(self, request: DistillerRequest, anchor_names: list[str]) -> dict:
        triplet = request.instance.triplet
        diff = request.instance.diff
        paths = diff.changed_paths()
        stats = hunk_stats(diff)
        summary = self._scrub(request, triplet.issue.title.strip()) or "unspecified failure"

        area_lines = [f"AREA: {path}" for path in paths] or ["AREA: (no files changed)"]
        chunk_lines = []
        for path in paths[:8]:
            hunks, added, deleted = stats[path]
            chunk_lines.append(
                f"CHUNK: {path} reworked in {hunks} hunk{'s' if hunks != 1 else ''} (+{added}/-{deleted})"
            )
        total_added = sum(a for _, a, _ in stats.values())
        total_deleted = sum(d for _, _, d in stats.values())
        fallback_chunks = [
            f"CHUNK: net change of +{total_added}/-{total_deleted} lines across {len(paths)} file(s)",
            "CHUNK: behavior adjusted where the failure was triggered",
            "CHUNK: surrounding logic kept compatible with existing callers",
        ]
        for line in fallback_chunks:
            if len(chunk_lines) >= 3:
                break
            chunk_lines.append(line)
        digest = "\n".join(area_lines + chunk_lines[:8])

        symptom = anchor_names[0] if anchor_names else "the reported failure"
        root_cause = (
            f"{symptom} raised because the code path touching "
            f"{', '.join(paths[:3]) or 'the affected module'} did not handle the reported input"
        )
        fix_strategy = (
            f"adjust {', '.join(paths[:3]) or 'the affected module'} to guard the failing case "
            f"and keep behavior compatible (+{total_added}/-{total_deleted} lines)"
        )

        test_paths = [p for p in paths if _TEST_PATH_HINT.search(p)]
        if test_paths:
            verification = "run the updated tests: " + ", ".join(test_paths)
        else:
            verification = "reproduce the reported failure, apply the change, and confirm the symptom is gone"

        return {
            "problem_summary": summary,
            "signals": self._signals(request, anchor_names, extended=False),
            "root_cause": root_cause,
            "fix_strategy": fix_strategy,
            "patch_digest": digest,
            "verification": verification,
        }

    def _improved_fields(self, request: DistillerRequest, base: dict, anchor_names: list[str]) -> dict:
        """Regeneration pass: the base templates, fed with more source material."""
        fields = dict(base)
        triplet = request.instance.triplet
        anchors = request.instance.anchors

        fields["signals"] = self._signals(request, anchor_names, extended=True)
        first_anchor = anchors[0].text.split("\n")[-1].strip() if anchors else ""
        if first_anchor:
            scrubbed = self._scrub(request, first_anchor)
            if scrubbed:
                fields["problem_summary"] = f"{fields['problem_summary']} ({scrubbed})"
        evidence = "; ".join(self._scrub(request, a.text.split(chr(10))[-1]) for a in anchors[:2])
        if evidence:
            fields["root_cause"] = f"{fields['root_cause']}; evidence: {evidence}"
        fields["fix_strategy"] += "; validated against the reported trigger before merge"
        fields["verification"] += (
            f"; check the thread's reproduction steps from issue #{triplet.issue.number}"
        )
        return fields


class ChatDistiller:
    """LLM-backed distiller rendering an externalized prompt template."""

    def __init__(
        self,
        provider: ChatProvider,
        template: PromptTemplate | None = None,
        retries: int = 3,
        backoff: float = 0.5,
    ):
        self.provider = provider
        self.template = template or PromptTemplate.load("distill_card")
        self.retries = retries
        self.backoff = backoff

    def _render(self, request: DistillerRequest) -> str:
        condensed = request.condensed
        feedback_section = ""
        if request.feedback:
            notes = "\n".join(f"- {dim}: {text}" for dim, text in request.feedback)
            feedback_section = (
                "A previous draft was rejected. Regenerate only the sections named "
                f"below and keep everything else unchanged:\n{notes}"
            )
        return self.template.render(
            {
                "issue_title": condensed.issue_title,
                "issue_body": condensed.issue_body,
                "discussion": "\n---\n".join(c.body for c in condensed.kept_comments),
                "anchors": "\n".join(a.text for a in request.instance.anchors),
                "diff_summary": "\n".join(condensed.diff_summary_lines),
                "feedback_section": feedback_section,
            }
        )

    def _parse(self, text: str, request: DistillerRequest) -> ExperienceCard:
        data = extract_json_object(text)
        missing = [f for f in CARD_FIELDS if f not in data]
        if missing:
            raise MalformedOutputError(f"provider output missing fields: {', '.join(missing)}")
        triplet = request.instance.triplet
        return ExperienceCard(
            card_id=make_card_id(triplet.repo, triplet.issue.number, triplet.pr.number),
            source=CardSource(triplet.repo, triplet.issue.number, triplet.pr.number),
            index=IndexLayer(
                problem_summary=str(data["problem_summary"]),
                signals=tuple(str(s) for s in data["signals"]),
            ),
            resolution=ResolutionLayer(
                root_cause=str(data["root_cause"]),
                fix_strategy=str(data["fix_strategy"]),
                patch_digest=str(data["patch_digest"]),
                verification=str(data["verification"]),
            ),
        )

    def distill(self, request: DistillerRequest) -> ExperienceCard:
        prompt = self._render(request)
        completion = retry_call(
            lambda: self.provider.complete(prompt), retries=self.retries, backoff=self.backoff
        )
        try:
            return self._parse(completion, request)
        except MalformedOutputError:
            # One automatic re-request before surfacing malformed output.
            completion = retry_call(
                lambda: self.provider.complete(prompt), retries=self.retries, backoff=self.backoff
            )
            return self._parse(completion, request)
