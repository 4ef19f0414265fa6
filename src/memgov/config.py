"""Pipeline configuration: one JSON document for every stage's knobs.

Example:

    {
      "selection": {"lambda_s": 1.0, "lambda_i": 1.0, "lambda_p": 1.0, "top_m": 50},
      "purification": {"tau": 0.2},
      "qc": {"gamma": 0.7, "max_iterations": 3},
      "embedder": {"id": "feature-hash-256", "dimension": 256},
      "dedup": {"threshold": 0.95},
      "paths": {"audit_log": null},
      "provider": {"endpoint": null, "model": null, "max_inflight": 8},
      "workers": 1
    }

Every key is optional; defaults match the module-level constants. Unknown
keys are configuration errors so typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .embedding import DEFAULT_DIMENSION, Embedder, default_embedder_for
from .errors import ConfigError
from .providers import DEFAULT_MAX_INFLIGHT
from .purification import PurificationConfig
from .quality import QcConfig
from .selection import SelectionConfig
from .store import DEFAULT_DEDUP_THRESHOLD


@dataclass(frozen=True)
class EmbedderConfig:
    id: str = f"feature-hash-{DEFAULT_DIMENSION}"
    dimension: int = DEFAULT_DIMENSION

    def build(self) -> Embedder:
        embedder = default_embedder_for(self.id)
        if embedder is None:
            raise ConfigError(
                f"unknown embedder id {self.id!r}; built-in ids look like 'feature-hash-256'"
            )
        if embedder.dimension != self.dimension:
            raise ConfigError(
                f"embedder id {self.id!r} implies dimension {embedder.dimension}, "
                f"config says {self.dimension}"
            )
        return embedder


@dataclass(frozen=True)
class PathsConfig:
    audit_log: str | None = None


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str | None = None
    model: str | None = None
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    request_log: str | None = None


@dataclass(frozen=True)
class PipelineConfig:
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    purification: PurificationConfig = field(default_factory=PurificationConfig)
    qc: QcConfig = field(default_factory=QcConfig)
    embedder: EmbedderConfig = field(default_factory=EmbedderConfig)
    dedup_threshold: float = DEFAULT_DEDUP_THRESHOLD
    paths: PathsConfig = field(default_factory=PathsConfig)
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    workers: int = 1

    def __post_init__(self) -> None:
        t = self.dedup_threshold
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0.0 < t <= 1.0:
            raise ConfigError(f"dedup threshold must be in (0, 1], got {t!r}")
        w = self.workers
        if isinstance(w, bool) or not isinstance(w, int) or w < 1:
            raise ConfigError(f"workers must be an integer >= 1, got {w!r}")


def _build(cls, data: dict, section: str):
    known = set(cls.__dataclass_fields__)
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in config section {section!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad config section {section!r}: {exc}") from exc


def config_from_dict(data: dict) -> PipelineConfig:
    known = {"selection", "purification", "qc", "embedder", "dedup", "paths", "provider", "workers"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    purification = data.get("purification", {})
    if "anchor_patterns" in purification:
        purification = {**purification, "anchor_patterns": tuple(purification["anchor_patterns"])}
    if "technical_lexicon" in purification:
        purification = {**purification, "technical_lexicon": tuple(purification["technical_lexicon"])}
    qc = data.get("qc", {})
    if "dimensions" in qc:
        qc = {**qc, "dimensions": tuple(qc["dimensions"])}

    dedup = data.get("dedup", {})
    extra = set(dedup) - {"threshold"}
    if extra:
        raise ConfigError(f"unknown key {extra.pop()!r} in config section 'dedup'")

    return PipelineConfig(
        selection=_build(SelectionConfig, data.get("selection", {}), "selection"),
        purification=_build(PurificationConfig, purification, "purification"),
        qc=_build(QcConfig, qc, "qc"),
        embedder=_build(EmbedderConfig, data.get("embedder", {}), "embedder"),
        dedup_threshold=dedup.get("threshold", DEFAULT_DEDUP_THRESHOLD),
        paths=_build(PathsConfig, data.get("paths", {}), "paths"),
        provider=_build(ProviderConfig, data.get("provider", {}), "provider"),
        workers=data.get("workers", 1),
    )


def load_config(path: str | Path | None) -> PipelineConfig:
    """Load a config file; a missing path means all defaults."""
    if path is None:
        return PipelineConfig()
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return config_from_dict(data)
