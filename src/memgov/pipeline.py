"""End-to-end governance: triplets in, a persisted memory store out.

Per item: purify -> condense -> refine loop (distill + evaluate). Accepted
cards are then deduplicated, indexed, and saved. A surviving card whose
index text embeds to the zero vector (with the default embedder, text with
no ASCII letter or digit, such as a Cyrillic-only index layer) cannot be
searched, so it is rejected as "unembeddable" instead of indexed. Every input is accounted for in the
audit log: indexed + rejected == read. Per-item rejections are counted,
never fatal; only infrastructure faults (unreadable input, provider down)
abort the run.

``cfg.workers`` worker threads parallelize the per-item stages, but results
are folded back in input order, so identical inputs with deterministic
providers yield identical stores and audit logs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

from .audit import AuditLog, rejection
from .cards import ExperienceCard
from .cards import validate_schema  # noqa: F401  perfbench/tracing.py wraps pipeline.validate_schema
from .config import PipelineConfig
from .distillation import Distiller, purify_content
from .errors import UnembeddableTextError
from .ingestion import ItemError, TripletOrError
from .purification import Classifier, PurifiedInstance, Rejection, RuleBasedCommentClassifier, purify
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
        return asdict(self)


def _purified(
    item: TripletOrError, cfg: PipelineConfig, classifier: Classifier
) -> PurifiedInstance | dict:
    """The purified instance, or the audit record that rejects the item."""
    if isinstance(item, ItemError):
        return rejection(None, None, None, f"item-error: {item}")
    result = purify(item, cfg.purification, classifier)
    if isinstance(result, Rejection):
        reason = f"{result.reason}: {result.detail}"
        return rejection(item.repo, item.issue.number, item.pr.number, reason)
    return result


def _process_item(
    item: TripletOrError,
    cfg: PipelineConfig,
    distiller: Distiller,
    evaluator: Evaluator,
    classifier: Classifier,
) -> tuple[dict, ExperienceCard | None]:
    """The item's audit record, and its card when QC accepted it."""
    result = _purified(item, cfg, classifier)
    if isinstance(result, dict):
        return result, None
    triplet = result.triplet
    condensed = purify_content(result)
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
    return decision, outcome.card if accepted else None


def run_govern(
    items: Iterable[TripletOrError],
    output_dir: str | Path,
    cfg: PipelineConfig,
    distiller: Distiller,
    evaluator: Evaluator,
    classifier: Classifier | None = None,
    audit: AuditLog | None = None,
) -> GovernCounts:
    """Run the full governance pipeline and persist the resulting store.

    A serial run streams ``items``: it pulls each item only after writing
    the previous one's audit record, and keeps only the accepted cards.
    ``cfg.workers > 1`` still submits every item to the pool at once.
    """
    classifier = classifier or RuleBasedCommentClassifier(cfg.purification)
    audit = audit or AuditLog(None)
    counts = GovernCounts()

    def task(item: TripletOrError) -> tuple[dict, ExperienceCard | None]:
        return _process_item(item, cfg, distiller, evaluator, classifier)

    accepted_cards: list[ExperienceCard] = []
    # The pool starts no thread until work is submitted to it.
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        outcomes = pool.map(task, items) if cfg.workers > 1 else map(task, items)
        for record, card in outcomes:
            counts.read += 1
            audit.record(record)
            if "iteration" in record:  # a QC decision: purified and distilled
                counts.purified += 1
                counts.distilled += 1
            if card is not None:
                counts.qc_accepted += 1
                accepted_cards.append(card)

    embedder = cfg.embedder.build()
    survivors = dedup(accepted_cards, embedder, threshold=cfg.dedup_threshold)
    # By identity, since dedup also groups cards that share a card id.
    surviving = {id(c) for c in survivors}
    counts.deduped = len(accepted_cards) - len(survivors)
    for card in accepted_cards:
        if id(card) not in surviving:
            audit.record(rejection(*card.source.as_tuple(), "duplicate"))

    # refine_loop accepts only cards with no schema violations, so every
    # survivor is indexed as it is, unless it embeds to the zero vector.
    store = MemoryStore(embedder)
    for card in survivors:
        try:
            store.index_card(card)
        except UnembeddableTextError:
            audit.record(rejection(*card.source.as_tuple(), "unembeddable"))
        else:
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
        result = _purified(item, cfg, classifier)
        if isinstance(result, dict):
            audit.record(result)
        else:
            accepted += 1
    return {"read": read, "accepted": accepted, "rejected": read - accepted}
