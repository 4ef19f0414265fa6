"""End-to-end governance: triplets in, a persisted memory store out.

Per item: purify -> condense -> refine loop (distill + evaluate). Accepted
cards are then deduplicated, indexed, and saved. Every input is accounted
for in the audit log: indexed + rejected == read. Per-item rejections are
counted, never fatal; only infrastructure faults (unreadable input,
provider down) abort the run.

Worker threads parallelize the per-item stages, but results are folded
back in input order, so identical inputs with deterministic providers
yield identical stores and audit logs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .audit import AuditLog
from .cards import ExperienceCard, validate_schema
from .config import PipelineConfig
from .distillation import Distiller, purify_content
from .errors import ConfigError
from .ingestion import ItemError, RawTriplet, TripletOrError
from .purification import Classifier, Rejection, RuleBasedCommentClassifier, purify
from .quality import Evaluator, QcAccepted, refine_loop
from .store import MemoryStore, dedup


@dataclass
class GovernCounts:
    read: int = 0
    purified: int = 0
    distilled: int = 0
    qc_accepted: int = 0
    deduped: int = 0  # removed as duplicates
    indexed: int = 0

    def as_dict(self) -> dict:
        return {
            "read": self.read,
            "purified": self.purified,
            "distilled": self.distilled,
            "qc_accepted": self.qc_accepted,
            "deduped": self.deduped,
            "indexed": self.indexed,
        }


@dataclass(frozen=True)
class _ItemOutcome:
    kind: str  # item-error | rejected | qc-rejected | accepted
    audit: tuple[dict, ...]
    card: ExperienceCard | None = None


def _process_item(
    item: TripletOrError,
    cfg: PipelineConfig,
    distiller: Distiller,
    evaluator: Evaluator,
    classifier: Classifier,
) -> _ItemOutcome:
    if isinstance(item, ItemError):
        return _ItemOutcome(
            kind="item-error",
            audit=({"repo": None, "issue": None, "pr": None, "reason": f"item-error: {item}"},),
        )
    triplet: RawTriplet = item
    result = purify(triplet, cfg.purification, classifier)
    if isinstance(result, Rejection):
        return _ItemOutcome(
            kind="rejected",
            audit=(
                {
                    "repo": triplet.repo,
                    "issue": triplet.issue.number,
                    "pr": triplet.pr.number,
                    "reason": f"{result.reason}: {result.detail}",
                },
            ),
        )
    condensed = purify_content(result, classifier)
    outcome = refine_loop(result, condensed, distiller, evaluator, cfg.qc)
    accepted = isinstance(outcome, QcAccepted)
    decision = {
        "repo": triplet.repo,
        "issue": triplet.issue.number,
        "pr": triplet.pr.number,
        "iteration": outcome.report.iteration,
        "aggregate": outcome.report.aggregate,
        "accepted": accepted,
    }
    if not accepted:
        return _ItemOutcome(kind="qc-rejected", audit=(decision,))
    return _ItemOutcome(kind="accepted", audit=(decision,), card=outcome.card)


def run_govern(
    items: Iterable[TripletOrError],
    output_dir: str | Path,
    cfg: PipelineConfig,
    distiller: Distiller,
    evaluator: Evaluator,
    classifier: Classifier | None = None,
    audit: AuditLog | None = None,
    workers: int | None = None,
) -> GovernCounts:
    """Run the full governance pipeline and persist the resulting store."""
    classifier = classifier or RuleBasedCommentClassifier(cfg.purification)
    audit = audit or AuditLog(None)
    workers = cfg.workers if workers is None else workers
    if workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    counts = GovernCounts()

    items = list(items)
    counts.read = len(items)

    def task(item: TripletOrError) -> _ItemOutcome:
        return _process_item(item, cfg, distiller, evaluator, classifier)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(task, items))
    else:
        outcomes = [task(item) for item in items]

    accepted_cards: list[ExperienceCard] = []
    for outcome in outcomes:
        for record in outcome.audit:
            audit.record(record)
        if outcome.kind in ("accepted", "qc-rejected"):
            counts.purified += 1
            counts.distilled += 1
        if outcome.kind == "accepted":
            counts.qc_accepted += 1
            assert outcome.card is not None
            accepted_cards.append(outcome.card)

    embedder = cfg.embedder.build()
    survivors = dedup(accepted_cards, embedder, threshold=cfg.dedup_threshold)
    surviving_ids = {c.card_id for c in survivors}
    counts.deduped = len(accepted_cards) - len(survivors)
    for card in accepted_cards:
        if card.card_id not in surviving_ids:
            audit.rejection(card.source.repo, card.source.issue, card.source.pr, "duplicate")

    store = MemoryStore(embedder)
    for card in survivors:
        violations = validate_schema(card)
        if violations:  # QC guarantees this does not happen; belt and braces
            audit.rejection(
                card.source.repo,
                card.source.issue,
                card.source.pr,
                "schema: " + "; ".join(str(v) for v in violations),
            )
            continue
        store.index_card(card)
        counts.indexed += 1

    store.save(output_dir)
    return counts


def run_purify_only(
    items: Iterable[TripletOrError],
    cfg: PipelineConfig,
    classifier: Classifier | None = None,
    audit: AuditLog | None = None,
) -> dict:
    """Audit-only dry run of the purification stage."""
    classifier = classifier or RuleBasedCommentClassifier(cfg.purification)
    audit = audit or AuditLog(None)
    read = accepted = 0
    for item in items:
        read += 1
        if isinstance(item, ItemError):
            audit.rejection(None, None, None, f"item-error: {item}")
            continue
        result = purify(item, cfg.purification, classifier)
        if isinstance(result, Rejection):
            audit.rejection(
                item.repo, item.issue.number, item.pr.number, f"{result.reason}: {result.detail}"
            )
        else:
            accepted += 1
    return {"read": read, "accepted": accepted, "rejected": read - accepted}
