"""JSON Lines audit log for per-item pipeline decisions.

Two record shapes share the file: rejections {repo, issue, pr, reason}
(purification failures, dedup removals, unreadable items) and QC decisions
{repo, issue, pr, iteration, aggregate, accepted}. Records carry no
timestamps so identical runs produce identical logs.
"""

from __future__ import annotations

import json
from pathlib import Path


class AuditLog:
    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path else None
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")
        self.entries: list[dict] = []

    def record(self, record: dict) -> None:
        self.entries.append(record)
        if self.path:
            with self.path.open("a") as fh:
                fh.write(json.dumps(record) + "\n")

    def rejection(self, repo: str | None, issue: int | None, pr: int | None, reason: str) -> None:
        self.record({"repo": repo, "issue": issue, "pr": pr, "reason": reason})
