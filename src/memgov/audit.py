"""JSON Lines audit log for per-item pipeline decisions.

Two record shapes share the file: rejections {repo, issue, pr, reason}
(purification failures, dedup removals, unembeddable cards, unreadable
items) and QC decisions {repo, issue, pr, iteration, aggregate, accepted}.
Records carry no timestamps so identical runs produce identical logs.

The file is opened once and written through one buffered handle; use the
log as a context manager (or call close()) so the last records reach the
file, also when a run fails.
"""

from __future__ import annotations

import json
from pathlib import Path


def rejection(repo: str | None, issue: int | None, pr: int | None, reason: str) -> dict:
    """A rejection record; an unreadable item has no repo, issue or pr."""
    return {"repo": repo, "issue": issue, "pr": pr, "reason": reason}


class AuditLog:
    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path else None
        self._fh = None
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w")

    def __enter__(self) -> AuditLog:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._fh:
            self._fh.close()

    def record(self, record: dict) -> None:
        if self._fh:
            self._fh.write(json.dumps(record) + "\n")

    @property
    def entries(self) -> list[dict]:
        """The records written so far, read back from the file (none
        without one)."""
        if not self.path:
            return []
        if not self._fh.closed:
            self._fh.flush()
        return [json.loads(line) for line in self.path.read_text().splitlines()]
