"""Pipeline configuration: one JSON document for every stage's knobs.

Example:

    {
      "selection": {"lambda_s": 1.0, "lambda_i": 1.0, "lambda_p": 1.0, "top_m": 50},
      "purification": {"tau": 0.2},
      "qc": {"gamma": 0.7, "max_iterations": 3},
      "embedder": {"id": "feature-hash-256"},
      "dedup": {"threshold": 0.95},
      "paths": {"audit_log": null},
      "provider": {"endpoint": null, "model": null, "max_inflight": 8},
      "workers": 1
    }

Every key is optional; defaults match the module-level constants. Unknown
keys, a section that is not an object and a value of the wrong JSON type
are configuration errors, so typos fail loudly and before any work. The
embedder id names the dimension: feature-hash-N embeds into N dimensions.
"""

from __future__ import annotations

import json
import math
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

    def __post_init__(self) -> None:
        self.build()  # an unknown id fails at load, not after the run

    def build(self) -> Embedder:
        embedder = default_embedder_for(self.id)
        if embedder is None:
            raise ConfigError(
                f"unknown embedder id {self.id!r}; built-in ids look like 'feature-hash-256'"
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

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigError(f"max_inflight must be >= 1, got {self.max_inflight}")


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


# What a JSON value must be for each field annotation in the config classes.
_EXPECTED = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", lambda v: (_is_int(v) or isinstance(v, float)) and _is_finite(v)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple[str, ...]": (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(item, str) for item in v),
    ),
}


def _section(data: dict, section: str) -> dict:
    value = data.get(section, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    return value


def _build(cls, data: dict, section: str):
    fields = cls.__dataclass_fields__
    kwargs = {}
    for key, value in _section(data, section).items():
        if key not in fields:
            raise ConfigError(f"unknown key {key!r} in config section {section!r}")
        expected, accepts = _EXPECTED[fields[key].type]
        if not accepts(value):
            raise ConfigError(f"{section}.{key} must be {expected}, got {value!r}")
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad config section {section!r}: {exc}") from exc


def config_from_dict(data: dict) -> PipelineConfig:
    known = {"selection", "purification", "qc", "embedder", "dedup", "paths", "provider", "workers"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    dedup = _section(data, "dedup")
    extra = set(dedup) - {"threshold"}
    if extra:
        raise ConfigError(f"unknown key {extra.pop()!r} in config section 'dedup'")

    return PipelineConfig(
        selection=_build(SelectionConfig, data, "selection"),
        purification=_build(PurificationConfig, data, "purification"),
        qc=_build(QcConfig, data, "qc"),
        embedder=_build(EmbedderConfig, data, "embedder"),
        dedup_threshold=dedup.get("threshold", DEFAULT_DEDUP_THRESHOLD),
        paths=_build(PathsConfig, data, "paths"),
        provider=_build(ProviderConfig, data, "provider"),
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return config_from_dict(data)
