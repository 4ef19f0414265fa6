"""Shared exception types for the governance pipeline and memory service."""

from __future__ import annotations


class MemgovError(Exception):
    """Base class for all library errors."""


class ConfigError(MemgovError):
    """Invalid configuration (bad pattern, out-of-range threshold, etc.)."""


class DataError(MemgovError):
    """Malformed input data. Carries an optional field/line locator."""

    def __init__(self, message: str, *, field: str | None = None, line: int | None = None):
        self.field = field
        self.line = line
        parts = [message]
        if field is not None:
            parts.append(f"(field: {field})")
        if line is not None:
            parts.append(f"(line {line})")
        super().__init__(" ".join(parts))


class DiffParseError(DataError):
    """Unified-diff input that cannot be parsed. ``line`` is 1-based."""


class ProviderError(MemgovError):
    """LLM/embedding provider failure. ``retryable`` marks transient faults."""

    def __init__(self, message: str, *, retryable: bool = True):
        self.retryable = retryable
        super().__init__(message)


class MalformedOutputError(ProviderError):
    """Provider responded, but the payload does not match the contract."""

    def __init__(self, message: str):
        super().__init__(message, retryable=False)


class StoreError(MemgovError):
    """Base class for memory-store faults."""


class UnembeddableTextError(StoreError):
    """Text whose embedding has zero norm and so cannot be indexed or searched."""


class DuplicateCardError(StoreError):
    """A card id was indexed twice."""


class UnknownCardError(StoreError):
    """Browse/lookup of a card id that is not in the store."""


class StoreFormatError(StoreError):
    """Persisted store is unreadable: bad magic, version, or layout."""


class ChecksumError(StoreFormatError):
    """Persisted vector file failed checksum verification."""
