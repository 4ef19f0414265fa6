"""
End-to-end experience governance
================================

Raw (issue, PR, patch) triplets go in; a searchable store of validated
dual-layer experience cards comes out. This walkthrough runs the whole
pipeline offline with the deterministic rule-based providers.
"""

import json
import tempfile
from pathlib import Path

from memgov.audit import AuditLog
from memgov.config import PipelineConfig
from memgov.distillation import RuleBasedDistiller
from memgov.ingestion import load_fixture_triplets
from memgov.pipeline import run_govern
from memgov.quality import RuleBasedEvaluator
from memgov.store import MemoryStore

workdir = Path(tempfile.mkdtemp(prefix="memgov-demo-"))

# A tiny fixture: three resolvable bugs, one PR that was never merged, and
# one issue whose patch does not parse. Each record is one JSON line.
DIFF = (
    "--- a/src/scheduler/core.py\n"
    "+++ b/src/scheduler/core.py\n"
    "@@ -10,2 +10,3 @@\n"
    " def drain(self):\n"
    "+    self.guard_reentrancy()\n"
    "     self.flush()\n"
)


def triplet(i, merged=True, patch=DIFF):
    return {
        "repo": "demo/scheduler",
        "issue": {
            "number": i,
            "title": f"deadlock when draining queue variant {i}",
            "body": (
                "Draining a busy queue never returns.\n"
                "Traceback (most recent call last)\n"
                f'  File "src/scheduler/core.py", line {10 + i}, in drain\n'
                "DeadlockError: re-entrant drain\n"
            ),
            "comments": [
                {
                    "author_role": "maintainer",
                    "body": "Reproduced; the stack trace shows a re-entrant drain error",
                    "timestamp": "2024-05-01T09:00:00Z",
                }
            ],
        },
        "pr": {
            "number": 100 + i,
            "merged": merged,
            "linked_issue_refs": [i],
            "discussion": [
                {
                    "author_role": "contributor",
                    "body": f"fixes #{i}; adds a reentrancy guard in src/scheduler/core.py",
                    "timestamp": "2024-05-02T09:00:00Z",
                }
            ],
        },
        "patch_text": patch,
    }


fixture = workdir / "triplets.jsonl"
rows = [triplet(1), triplet(2), triplet(3), triplet(4, merged=False), triplet(5, patch="garbage")]
fixture.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
print(f"wrote {len(rows)} raw triplets to {fixture}")

# Govern: purify -> condense -> distill + checklist QC -> dedup -> index.
store_dir = workdir / "store"
with AuditLog(workdir / "audit.jsonl") as audit:
    counts = run_govern(
        load_fixture_triplets(fixture),
        store_dir,
        PipelineConfig(),
        distiller=RuleBasedDistiller(),
        evaluator=RuleBasedEvaluator(),
        audit=audit,
    )
print("\npipeline counts:")
for key, value in counts.as_dict().items():
    print(f"  {key:12s} {value}")

print("\naudit trail (one line per decision):")
for entry in audit.entries:
    print("  " + json.dumps(entry))

# The persisted store is immediately searchable.
store = MemoryStore.load(store_dir)
print(f"\nstore holds {len(store)} cards; searching for 'deadlock drain queue':")
for hit in store.search("deadlock drain queue", k=3):
    print(f"  {hit.similarity:.3f}  {hit.card_id}  {hit.preview.problem_summary}")

top = store.search("deadlock drain queue", k=1)[0]
card = store.browse(top.card_id)
print(f"\nfull card {card.card_id}:")
print(f"  root cause:   {card.resolution.root_cause}")
print(f"  fix strategy: {card.resolution.fix_strategy}")
print(f"  verification: {card.resolution.verification}")
