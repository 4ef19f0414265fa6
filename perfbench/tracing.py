"""Spans around the program's public functions, recorded from outside.

`install()` replaces a fixed list of memgov functions and methods with
wrappers that record (name, start, end, parent) in memory; `Tracer.write`
saves them once the process is done. Nothing under src/ changes: the
wrappers are installed by the benchmark's own launcher before the
program runs, and only when tracing is asked for.

Self time of a span is its duration minus the time its direct children
cover; children of one span never overlap, because a span's children
run on its own thread.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, parent
        self.counters: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[int, int]:
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append((name, 0, 0, stack[-1] if stack else -1))
        stack.append(idx)
        return idx, time.perf_counter_ns()

    def _close(self, idx: int, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack().pop()
        name, _, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, end, parent)

    def wrap(self, fn, name: str, tag=None):
        """`fn` with a span around each call; `tag(args, result)` may name
        a counter to increment."""

        def wrapper(*args, **kwargs):
            idx, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start)
            if tag is not None:
                counter = tag(args, result)
                if counter:
                    self.counters[counter] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_iter(self, fn, name: str):
        """`fn` returning an iterator; each next() is one span."""

        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                idx, start = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx, start)
                yield item

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark's per-layer metrics use."""
    from memgov import cli, pipeline, quality, store
    from memgov.distillation import RuleBasedDistiller
    from memgov.embedding import HashingEmbedder
    from memgov.purification import Rejection
    from memgov.quality import QcAccepted
    from memgov.server import ToolService
    from memgov.store import MemoryStore

    w = tracer.wrap
    cli.load_fixture_triplets = tracer.wrap_iter(cli.load_fixture_triplets, "ingestion.parse")
    cli.run_govern = w(cli.run_govern, "pipeline.run_govern")
    pipeline.purify = w(
        pipeline.purify, "purification.purify",
        lambda a, r: "purification.rejected" if isinstance(r, Rejection) else None,
    )
    pipeline.purify_content = w(pipeline.purify_content, "distillation.purify_content")
    pipeline.refine_loop = w(
        pipeline.refine_loop, "quality.refine_loop",
        lambda a, r: "quality.accepted" if isinstance(r, QcAccepted) else None,
    )
    RuleBasedDistiller.distill = w(RuleBasedDistiller.distill, "distillation.distill")
    quality.evaluate_card = w(quality.evaluate_card, "quality.evaluate_card")
    quality.validate_schema = w(quality.validate_schema, "cards.validate_schema")
    pipeline.validate_schema = w(pipeline.validate_schema, "cards.validate_schema")
    dedup = pipeline.dedup

    def counted_dedup(cards, *args, **kwargs):
        result = dedup(cards, *args, **kwargs)
        tracer.counters["store.dedup_removed"] += len(cards) - len(result)
        return result

    pipeline.dedup = w(counted_dedup, "store.dedup")
    HashingEmbedder.embed = w(HashingEmbedder.embed, "embedding.embed")
    MemoryStore.index_card = w(MemoryStore.index_card, "store.index_card")
    MemoryStore.save = w(MemoryStore.save, "store.save")
    MemoryStore.search = w(MemoryStore.search, "store.search")
    MemoryStore.browse = w(MemoryStore.browse, "store.browse")
    MemoryStore.load = classmethod(w(MemoryStore.load.__func__, "store.load"))
    store.card_from_dict = w(store.card_from_dict, "cards.decode")
    ToolService.handle_search = w(ToolService.handle_search, "server.handle_search")


# --- reading traces back ------------------------------------------------


class Trace:
    def __init__(self, path: str):
        with open(path) as fh:
            data = json.load(fh)
        self.spans = [tuple(s) for s in data["spans"]]
        self.counters = data["counters"]
        self._children: dict[int, list[int]] = defaultdict(list)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                self._children[parent].append(i)

    def indices(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def duration(self, i: int) -> float:
        _, start, end, _ = self.spans[i]
        return (end - start) / 1e9

    def self_time(self, i: int) -> float:
        return self.duration(i) - sum(self.duration(c) for c in self._children[i])

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.indices(name))

    def count(self, name: str) -> int:
        return len(self.indices(name))

    def children(self, i: int, name: str) -> list[int]:
        return [c for c in self._children[i] if self.spans[c][0] == name]

    def parent_name(self, i: int) -> str | None:
        parent = self.spans[i][3]
        return self.spans[parent][0] if parent >= 0 else None
