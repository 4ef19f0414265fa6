"""Checklist-based quality control and the bounded refine loop.

Each draft card is scored per dimension in [0, 1]; the aggregate is the
unweighted mean. A card is ingested once its aggregate reaches gamma AND it
has no schema violations. Otherwise the report's feedback (plus schema
violations rendered as "schema:<field>" feedback) drives a regeneration,
for at most max_iterations attempts.

The evaluator is an abstract provider: production is an LLM reviewer
(ChatEvaluator); tests use a deterministic rule-based scorer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Protocol, Union

from .cards import ExperienceCard, Violation, card_to_dict, parse_patch_digest, validate_schema
from .distillation import DIMENSION_FIELDS, CondensedThread, Distiller, DistillerRequest
from .errors import ConfigError, MalformedOutputError
from .providers import ChatProvider, PromptTemplate, extract_json_object, retry_call
from .purification import PurifiedInstance

DEFAULT_GAMMA = 0.7
DEFAULT_MAX_ITERATIONS = 3
FEEDBACK_TRIGGER = 0.5  # dimensions scoring below this get targeted feedback

DEFAULT_DIMENSIONS = tuple(DIMENSION_FIELDS)


@dataclass(frozen=True)
class QcConfig:
    gamma: float = DEFAULT_GAMMA
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    dimensions: tuple[str, ...] = DEFAULT_DIMENSIONS

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not self.dimensions:
            raise ConfigError("at least one QC dimension is required")


@dataclass(frozen=True)
class QcReport:
    per_dimension: dict[str, float]
    aggregate: float
    feedback: tuple[tuple[str, str], ...]
    iteration: int


@dataclass(frozen=True)
class QcAccepted:
    card: ExperienceCard
    report: QcReport


@dataclass(frozen=True)
class QcRejected:
    report: QcReport
    last_card: ExperienceCard


QcOutcome = Union[QcAccepted, QcRejected]


class Evaluator(Protocol):
    def scores(
        self, card: ExperienceCard, instance: PurifiedInstance, dimensions: tuple[str, ...]
    ) -> dict[str, tuple[float, str]]:
        """Per-dimension (score, feedback text)."""
        ...


def _tokens(text: str) -> set[str]:
    out = set()
    for raw in text.split():
        token = raw.strip(".,;:!?()[]{}'\"`").casefold()
        if token:
            out.add(token)
    return out


class RuleBasedEvaluator:
    """Deterministic checklist scorer used offline and in tests.

    Rules per dimension (all produce a fraction in [0, 1]):

    * faithfulness-to-source: fraction of signals all of whose tokens occur
      in the source issue text (title, body, comments).
    * signal-quality: fraction of signals that are 1-4 words and avoid
      vague filler terms.
    * root-cause-evidence: 1.0 if the root cause names a changed path or an
      anchor token, else 0.0.
    * strategy-actionability: 1.0 if the fix strategy contains an action
      verb, else 0.0.
    * digest-groundedness: fraction of digest AREA paths present in the
      diff.
    * verification-concreteness: 1.0 if the verification mentions a test
      artifact or reproduction step, else 0.0.
    """

    VAGUE_TERMS = frozenset({"issue", "problem", "thing", "stuff", "bug", "misc"})
    ACTION_VERBS = frozenset(
        "add adjust guard validate check handle fix normalize refactor remove rename "
        "replace rework convert synchronize escape clamp retry".split()
    )
    VERIFICATION_HINTS = frozenset(
        "test tests pytest unittest reproduce reproduction regression assert verify confirm".split()
    )

    def scores(
        self, card: ExperienceCard, instance: PurifiedInstance, dimensions: tuple[str, ...]
    ) -> dict[str, tuple[float, str]]:
        self.check_dimensions(dimensions)
        return {dim: getattr(self, "_" + dim.replace("-", "_"))(card, instance) for dim in dimensions}

    @staticmethod
    def check_dimensions(dimensions: tuple[str, ...]) -> None:
        """Refuse a dimension that has no rule, before any card is scored."""
        for dim in dimensions:
            if dim not in DEFAULT_DIMENSIONS:
                raise ConfigError(f"rule-based evaluator has no rule for dimension {dim!r}")

    def _source_tokens(self, instance: PurifiedInstance) -> set[str]:
        issue = instance.triplet.issue
        tokens = _tokens(issue.title) | _tokens(issue.body)
        for comment in issue.comments:
            tokens |= _tokens(comment.body)
        return tokens

    def _faithfulness_to_source(self, card, instance):
        source = self._source_tokens(instance)
        signals = card.index.signals
        if not signals:
            return 0.0, "no signals to ground in the issue"
        grounded = sum(1 for s in signals if _tokens(s) and _tokens(s) <= source)
        score = grounded / len(signals)
        return score, f"{len(signals) - grounded} signal(s) use tokens absent from the issue"

    def _signal_quality(self, card, instance):
        signals = card.index.signals
        if not signals:
            return 0.0, "no signals present"
        good = sum(
            1
            for s in signals
            if 1 <= len(s.split()) <= 4 and not (_tokens(s) & self.VAGUE_TERMS)
        )
        score = good / len(signals)
        return score, f"{len(signals) - good} signal(s) are too long or too vague"

    def _root_cause_evidence(self, card, instance):
        text = card.resolution.root_cause.casefold()
        paths = [p.casefold() for p in instance.diff.changed_paths()]
        anchor_tokens = set()
        for anchor in instance.anchors:
            anchor_tokens |= _tokens(anchor.text)
        grounded = any(p in text for p in paths) or bool(anchor_tokens & _tokens(text))
        return (1.0 if grounded else 0.0), "root cause cites neither a changed path nor an anchor"

    def _strategy_actionability(self, card, instance):
        words = _tokens(card.resolution.fix_strategy)
        return (
            (1.0 if words & self.ACTION_VERBS else 0.0),
            "fix strategy names no concrete action",
        )

    def _digest_groundedness(self, card, instance):
        areas, _chunks = parse_patch_digest(card.resolution.patch_digest)
        if not areas:
            return 0.0, "digest has no AREA lines"
        diff_paths = set(instance.diff.changed_paths())
        grounded = sum(1 for area in areas if area in diff_paths)
        score = grounded / len(areas)
        return score, f"{len(areas) - grounded} AREA path(s) are absent from the diff"

    def _verification_concreteness(self, card, instance):
        words = _tokens(card.resolution.verification)
        return (
            (1.0 if words & self.VERIFICATION_HINTS else 0.0),
            "verification names neither tests nor reproduction steps",
        )


class ChatEvaluator:
    """LLM-backed checklist evaluator rendering an externalized template."""

    def __init__(self, provider: ChatProvider, template: PromptTemplate | None = None):
        self.provider = provider
        self.template = template or PromptTemplate.load("evaluate_card")

    def scores(
        self, card: ExperienceCard, instance: PurifiedInstance, dimensions: tuple[str, ...]
    ) -> dict[str, tuple[float, str]]:
        issue = instance.triplet.issue
        prompt = self.template.render(
            {
                "dimensions": "\n".join(f"- {d}" for d in dimensions),
                "card_json": json.dumps(card_to_dict(card), indent=2),
                "issue_title": issue.title,
                "issue_body": issue.body,
                "diff_summary": "\n".join(
                    f"{p}" for p in instance.diff.changed_paths()
                ),
            }
        )
        completion = retry_call(lambda: self.provider.complete(prompt))
        data = extract_json_object(completion)
        out: dict[str, tuple[float, str]] = {}
        # A dimension missing from the output is left out: evaluate_card refuses it.
        for dim in (d for d in dimensions if d in data):
            entry = data[dim]
            try:
                score, feedback = entry["score"], str(entry.get("feedback", ""))
                if isinstance(score, bool) or not isinstance(score, (int, float)):
                    raise TypeError(f"score must be a JSON number, got {score!r}")
                score = float(score)  # OverflowError: an integer past float's range
            except (TypeError, KeyError, OverflowError) as exc:
                raise MalformedOutputError(f"evaluator output malformed for {dim!r}: {exc}") from exc
            out[dim] = (score, feedback)
        return out


def evaluate_card(
    card: ExperienceCard,
    instance: PurifiedInstance,
    evaluator: Evaluator,
    cfg: QcConfig,
    iteration: int = 1,
) -> QcReport:
    """Score one card on every configured dimension.

    Out-of-range provider scores are malformed output; feedback covers
    exactly the dimensions scoring below the trigger line.
    """
    raw = evaluator.scores(card, instance, cfg.dimensions)
    per_dimension: dict[str, float] = {}
    feedback: list[tuple[str, str]] = []
    for dim in cfg.dimensions:
        if dim not in raw:
            raise MalformedOutputError(f"evaluator returned no score for dimension {dim!r}")
        score, note = raw[dim]
        if not 0.0 <= score <= 1.0:
            raise MalformedOutputError(f"evaluator score for {dim!r} out of range: {score}")
        per_dimension[dim] = score
        if score < FEEDBACK_TRIGGER:
            feedback.append((dim, note))
    aggregate = sum(per_dimension.values()) / len(per_dimension)
    return QcReport(
        per_dimension=per_dimension,
        aggregate=aggregate,
        feedback=tuple(feedback),
        iteration=iteration,
    )


def _violations_as_feedback(violations: list[Violation]) -> list[tuple[str, str]]:
    return [(f"schema:{v.field}", v.reason) for v in violations]


def refine_loop(
    instance: PurifiedInstance,
    condensed: CondensedThread,
    distiller: Distiller,
    evaluator: Evaluator,
    cfg: QcConfig,
) -> QcOutcome:
    """Distill -> validate -> evaluate, feeding failures back, at most
    max_iterations times.

    Provider retries happen inside the distiller/evaluator and do not
    consume iterations. The accepted card always has an empty violation
    list and aggregate >= gamma at acceptance time.
    """
    feedback: tuple[tuple[str, str], ...] = ()
    card = None
    report = None
    for iteration in range(1, cfg.max_iterations + 1):
        request = DistillerRequest(instance=instance, condensed=condensed, feedback=feedback)
        card = distiller.distill(request)
        violations = validate_schema(card)
        report = evaluate_card(card, instance, evaluator, cfg, iteration=iteration)
        if report.aggregate >= cfg.gamma and not violations:
            return QcAccepted(card=card, report=report)
        feedback = tuple([*report.feedback, *_violations_as_feedback(violations)])
    assert card is not None and report is not None
    return QcRejected(report=report, last_card=card)
