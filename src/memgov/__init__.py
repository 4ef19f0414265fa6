"""Experience governance and experiential memory for coding agents.

The pipeline turns raw (issue, PR, patch) triplets into validated
dual-layer experience cards and indexes them; the service side exposes
searching and browsing primitives over the resulting memory.
"""

from .cards import (
    CardSource,
    ExperienceCard,
    IndexLayer,
    ResolutionLayer,
    Violation,
    normalize_signal,
    validate_schema,
)
from .diffs import Diff, DiffParseError, parse_unified_diff, render_diff
from .distillation import (
    ChatDistiller,
    CondensedThread,
    DistillerRequest,
    RuleBasedDistiller,
    purify_content,
)
from .embedding import DEFAULT_DIMENSION, Embedder, HashingEmbedder
from .ingestion import (
    Comment,
    FixtureForge,
    HttpForgeClient,
    ItemError,
    RawTriplet,
    RepoStats,
    fetch_repo_stats,
    harvest_triplets,
    load_fixture_triplets,
)
from .purification import (
    Anchor,
    PurificationConfig,
    PurifiedInstance,
    Rejection,
    RuleBasedCommentClassifier,
    detect_anchors,
    purify,
)
from .quality import (
    ChatEvaluator,
    QcAccepted,
    QcConfig,
    QcRejected,
    QcReport,
    RuleBasedEvaluator,
    evaluate_card,
    refine_loop,
)
from .selection import RepoScore, SelectionConfig, score_repository, select_top_m
from .store import (
    DEFAULT_TOP_K,
    MemoryStore,
    SearchHit,
    compose_index_text,
    cosine_similarity,
    dedup,
)

__version__ = "0.1.0"
