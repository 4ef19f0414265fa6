"""Entry point of every process that runs the program.

    python3 launch.py cli ARGS...                  memgov's command line
    python3 launch.py build CARDS STORE RESULT     index_card every card, then save
    python3 launch.py serve STORE PLAN RESULT      load, search and browse in process

The program is imported from src/ beside this directory. When the
environment names a trace file in PERFBENCH_TRACE, spans are recorded
around the program's functions and written there when the process ends.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def build(cards_path: str, store_dir: str, result_path: str) -> int:
    """Index every card into a fresh store, then save it; only those two
    steps are timed."""
    from memgov.cards import card_from_dict
    from memgov.embedding import HashingEmbedder
    from memgov.store import MemoryStore

    with open(cards_path) as fh:
        cards = [card_from_dict(json.loads(line)) for line in fh]
    start = time.perf_counter()
    store = MemoryStore(HashingEmbedder())
    for card in cards:
        store.index_card(card)
    store.save(store_dir)
    build_s = time.perf_counter() - start
    with open(result_path, "w") as fh:
        json.dump({"build_s": build_s, "cards": len(store)}, fh)
    return 0


def _hits(hits) -> list:
    return [[h.card_id, h.similarity] for h in hits]


def serve(store_dir: str, plan_path: str, result_path: str) -> int:
    """Set up the store several times, then a closed loop of search plus
    browse of the top hit for the planned time."""
    from memgov.cards import card_to_dict
    from memgov.server import SearchRequest, ToolService
    from memgov.store import MemoryStore

    with open(plan_path) as fh:
        plan = json.load(fh)
    out = {"setup_s": [], "search_ms": [], "checked": [], "self": [], "attempted": 0}
    store = None
    for _ in range(plan["setup_reps"]):
        store = None
        gc.collect()
        start = time.perf_counter()
        store = MemoryStore.load(store_dir)
        store.search(plan["first_query"], k=10)
        out["setup_s"].append(time.perf_counter() - start)
        out["attempted"] += 1

    queries = plan["queries"]
    deadline = time.perf_counter() + plan["seconds"]
    i = 0
    while i % plan["round"] or i < plan["min_searches"] or time.perf_counter() < deadline:
        query, k = queries[i % len(queries)]
        start = time.perf_counter()
        hits = store.search(query, k=k)
        out["search_ms"].append((time.perf_counter() - start) * 1e3)
        card = store.browse(hits[0].card_id)
        out["attempted"] += 2
        if i < plan["check_first"]:
            out["checked"].append([query, k, _hits(hits), card_to_dict(card)])
        i += 1

    for text in plan["self_queries"]:
        out["self"].append([text, _hits(store.search(text, k=3))])
        out["attempted"] += 1

    if plan.get("replay"):  # traced runs: the agent's searches, in process
        service = ToolService(store)
        for query, k in plan["replay"]:
            service.handle_search(SearchRequest(query=query, top_k=k))
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


def main(argv: list[str]) -> int:
    trace_path = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if trace_path:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        mode, args = argv[0], argv[1:]
        if mode == "cli":
            from memgov.cli import main as cli_main

            return cli_main(args)
        if mode == "build":
            return build(*args)
        if mode == "serve":
            return serve(*args)
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
