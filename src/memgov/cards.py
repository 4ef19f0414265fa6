"""Experience-card data model and lexical/structural validation.

An experience card is the governed memory unit. It pairs an index layer
(problem summary plus diagnostic signals, the retrieval interface) with a
resolution layer (root cause, fix strategy, patch digest, verification --
the reusable repair knowledge).

Serialization is one JSON object per card:

    {"card_id": ..., "source": {"repo", "issue", "pr"},
     "index": {"problem_summary", "signals": [...]},
     "resolution": {"root_cause", "fix_strategy", "patch_digest", "verification"}}

The patch digest is a single text field with a line-prefix convention:
lines beginning with "AREA:" name changed areas and lines beginning with
"CHUNK:" describe key chunks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DataError

SIGNALS_MIN = 10
SIGNALS_MAX = 18
SIGNAL_MAX_WORDS = 6
CHUNKS_MIN = 3
CHUNKS_MAX = 8

AREA_PREFIX = "AREA:"
CHUNK_PREFIX = "CHUNK:"

# Long hexadecimal runs are treated as repo-specific identifiers (commit
# hashes and the like); they must not appear in the index layer.
_HEX_RUN = re.compile(r"[0-9a-fA-F]{12,}")


@dataclass(frozen=True)
class CardSource:
    """Origin of a card: repository slug plus issue and PR numbers."""

    repo: str
    issue: int
    pr: int

    def as_tuple(self) -> tuple[str, int, int]:
        return (self.repo, self.issue, self.pr)


@dataclass(frozen=True)
class IndexLayer:
    """Retrieval interface: problem summary plus matchable signal phrases."""

    problem_summary: str
    signals: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", tuple(self.signals))


@dataclass(frozen=True)
class ResolutionLayer:
    """Reusable repair knowledge distilled from the fix."""

    root_cause: str
    fix_strategy: str
    patch_digest: str
    verification: str


@dataclass(frozen=True)
class ExperienceCard:
    card_id: str
    source: CardSource
    index: IndexLayer
    resolution: ResolutionLayer


@dataclass(frozen=True)
class Violation:
    """One violated invariant: the offending field and the reason."""

    field: str
    reason: str

    def __str__(self) -> str:
        return f"{self.field}: {self.reason}"


def normalized_text(text: str) -> str:
    """Case-fold, collapse each whitespace run to one space, strip."""
    return " ".join(text.casefold().split())


def parse_patch_digest(digest: str) -> tuple[list[str], list[str]]:
    """Split a patch digest into its AREA and CHUNK entries.

    Returns (areas, chunks) with the prefixes stripped. Lines that carry
    neither prefix are free text and are ignored here.
    """
    areas: list[str] = []
    chunks: list[str] = []
    for line in digest.splitlines():
        if line.startswith(AREA_PREFIX):
            areas.append(line[len(AREA_PREFIX):].strip())
        elif line.startswith(CHUNK_PREFIX):
            chunks.append(line[len(CHUNK_PREFIX):].strip())
    return areas, chunks


def _index_identifier_violations(card: ExperienceCard) -> list[Violation]:
    """Lexical scan of index-layer fields for repo-specific identifiers."""
    violations = []
    slug = card.source.repo.casefold()

    def check(field_name: str, text: str) -> None:
        if _HEX_RUN.search(text):
            violations.append(Violation(field_name, "repo-specific identifier (hexadecimal run of 12+ chars)"))
        elif slug and slug in text.casefold():
            violations.append(Violation(field_name, f"repo-specific identifier (own repo slug {card.source.repo!r})"))

    check("problem_summary", card.index.problem_summary)
    for i, sig in enumerate(card.index.signals):
        check(f"signals[{i}]", sig)
    return violations


def validate_schema(card: ExperienceCard) -> list[Violation]:
    """Check every card invariant; an empty list means the card is valid.

    Violations are data, not errors: the refine loop feeds them back to the
    distiller. Pure and idempotent.
    """
    v: list[Violation] = []

    if not card.index.problem_summary.strip():
        v.append(Violation("problem_summary", "empty after trimming"))

    signals = card.index.signals
    n = len(signals)
    if n < SIGNALS_MIN:
        v.append(Violation("signals", f"count {n} below minimum {SIGNALS_MIN}"))
    elif n > SIGNALS_MAX:
        v.append(Violation("signals", f"count {n} above maximum {SIGNALS_MAX}"))

    seen: dict[str, int] = {}
    for i, sig in enumerate(signals):
        words = len(sig.split())
        if not 1 <= words <= SIGNAL_MAX_WORDS:
            v.append(Violation(f"signals[{i}]", f"{words} words outside 1..{SIGNAL_MAX_WORDS}"))
        # An empty key is no error here; the word-count check flags it.
        key = normalized_text(sig)
        if key in seen:
            v.append(Violation(f"signals[{i}]", f"duplicate of signals[{seen[key]}] after normalization"))
        else:
            seen[key] = i

    res = card.resolution
    for name, text in (
        ("root_cause", res.root_cause),
        ("fix_strategy", res.fix_strategy),
        ("patch_digest", res.patch_digest),
        ("verification", res.verification),
    ):
        if not text.strip():
            v.append(Violation(name, "empty after trimming"))

    if res.patch_digest.strip():
        areas, chunks = parse_patch_digest(res.patch_digest)
        if len(areas) < 1:
            v.append(Violation("patch_digest", "no AREA: line (need at least 1 changed area)"))
        nc = len(chunks)
        if nc < CHUNKS_MIN:
            v.append(Violation("patch_digest", f"{nc} CHUNK: lines below minimum {CHUNKS_MIN}"))
        elif nc > CHUNKS_MAX:
            v.append(Violation("patch_digest", f"{nc} CHUNK: lines above maximum {CHUNKS_MAX}"))

    v.extend(_index_identifier_violations(card))
    return v


def card_to_dict(card: ExperienceCard) -> dict:
    """Serialize one card to the wire/file representation."""
    return {
        "card_id": card.card_id,
        "source": {"repo": card.source.repo, "issue": card.source.issue, "pr": card.source.pr},
        "index": {
            "problem_summary": card.index.problem_summary,
            "signals": list(card.index.signals),
        },
        "resolution": {
            "root_cause": card.resolution.root_cause,
            "fix_strategy": card.resolution.fix_strategy,
            "patch_digest": card.resolution.patch_digest,
            "verification": card.resolution.verification,
        },
    }


def card_from_dict(data: dict) -> ExperienceCard:
    """Deserialize a card, raising DataError naming the first missing field."""
    try:
        source = data["source"]
        index = data["index"]
        resolution = data["resolution"]
        return ExperienceCard(
            card_id=data["card_id"],
            source=CardSource(repo=source["repo"], issue=int(source["issue"]), pr=int(source["pr"])),
            index=IndexLayer(
                problem_summary=index["problem_summary"],
                signals=tuple(index["signals"]),
            ),
            resolution=ResolutionLayer(
                root_cause=resolution["root_cause"],
                fix_strategy=resolution["fix_strategy"],
                patch_digest=resolution["patch_digest"],
                verification=resolution["verification"],
            ),
        )
    except KeyError as exc:
        raise DataError("card object missing required key", field=str(exc.args[0])) from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"card object malformed: {exc}") from exc


def make_card_id(repo: str, issue: int, pr: int) -> str:
    """Deterministic card id from the source triple, distinct for distinct
    triples.

    Re-running the pipeline over the same inputs must mint identical ids, so
    ids are derived, not random. The id is the slug, then "-i{issue}-pr{pr}".
    A slug with no "--" and no "-" next to a "/" is written with each "/" as
    "--"; there every run of dashes is one "-" or two per "/", never three
    long. Any other slug is written "---" and then the slug with "%", "-"
    and "/" percent-escaped, which holds no dash. Reading the issue and PR
    from the right recovers the written slug, and the written slug the slug.
    """
    if "--" in repo or "-/" in repo or "/-" in repo:
        escaped = repo.replace("%", "%25").replace("-", "%2D").replace("/", "%2F")
        return f"---{escaped}-i{issue}-pr{pr}"
    return f"{repo.replace('/', '--')}-i{issue}-pr{pr}"
