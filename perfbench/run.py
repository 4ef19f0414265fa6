"""memgov benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is taken from src/ there.
Every workload runs the same four phases over its own inputs, with the
measured time spent where the workload's name says (README.md has the
details and the reasons):

  govern  `memgov --fixture-mode --json govern` over generated triplets
  build   index_card for every generated card, then save (search-135k only)
  serve   a fresh process: load, first search, then search + browse
  http    `memgov serve` in its own process and one closed-loop agent

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
the program's functions are traced and the last line holds the per-layer
metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from agent import Agent, Client  # noqa: E402
from hashembed import OwnEmbedder  # noqa: E402
from tracing import Trace  # noqa: E402

ROOT = HERE.parent
LAUNCH = str(HERE / "launch.py")
MB = 1e6
MIN_TAIL_SAMPLES = 100  # search_tail_ms is the 90th percentile: 10 samples beyond it
CHECKED_SEARCHES = 30
SELF_QUERIES = 20
REPLAYED_SEARCHES = 60


@dataclass(frozen=True)
class Workload:
    triplets: int  # per govern run, a multiple of 20
    cards: int  # generated cards indexed by the build phase (0: none)
    serve_seconds: float | None  # search loop length; None: --seconds
    setup_reps: int  # loads + first searches in the serve process
    http_cycles: int | None  # agent sessions, in cycles of all plans; None: --seconds
    http_spawns: int  # `memgov serve` starts timed; the last one serves the agent
    e2e_from: str  # which phase gives setup_s, peak_rss_mb and search_*: serve or http


WORKLOADS = {
    "govern-mixed": Workload(3000, 0, 3.0, 9, 60, 1, "serve"),
    "search-135k": Workload(1000, 135_000, None, 3, 3, 1, "serve"),
    "agent-http": Workload(1000, 0, 2.0, 5, None, 5, "http"),
}
AGENT_ISSUES = 3000


class Run:
    """State of one benchmark run: its directory, counts and findings."""

    def __init__(self, workdir: Path, trace: bool):
        self.dir = workdir
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.traces: dict[str, list[str]] = {}

    def note(self, phase: str, since: float) -> None:
        print(f"[perfbench] {phase}: {time.perf_counter() - since:.1f} s", file=sys.stderr)

    def check(self, problems: list[str], where: str) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)

    def popen(self, args: list[str], trace_name: str | None, **kwargs) -> subprocess.Popen:
        env = dict(os.environ)
        env.pop("PERFBENCH_TRACE", None)
        if self.trace and trace_name:
            path = str(self.dir / f"trace-{trace_name}-{len(self.traces.get(trace_name, []))}.json")
            self.traces.setdefault(trace_name, []).append(path)
            env["PERFBENCH_TRACE"] = path
        err = open(self.dir / "stderr.log", "ab")
        try:
            return subprocess.Popen([sys.executable, "-u", LAUNCH, *args], env=env, stderr=err, **kwargs)
        finally:
            err.close()

    def program(self, args: list[str], trace_name: str | None) -> tuple[str, float, float]:
        """Run one program process to its end: (stdout, wall s, peak RSS MB)."""
        start = time.perf_counter()
        proc = self.popen(args, trace_name, stdout=subprocess.PIPE)
        out = proc.stdout.read().decode()  # until the process exits
        wall = time.perf_counter() - start
        proc.stdout.close()
        code, rss = reap(proc, 170)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"{args[:2]} exited with {code}")
        return out, wall, rss


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for a child (killing it after `timeout`); (exit code, peak RSS MB)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss * 1024 / MB
        if time.monotonic() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.005)


def store_bytes(store: Path) -> int:
    return sum((store / name).stat().st_size for name in ("cards.jsonl", "vectors.bin", "manifest.json"))


def read_jsonl(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# --- phases -------------------------------------------------------------------


class Governor:
    """`memgov govern` over one generated triplet file, run as often as
    asked; the first run's store is the one served and is checked in full."""

    def __init__(self, run: Run, w: Workload, seed: int):
        self.run = run
        self.triplets = w.triplets
        self.path = run.dir / "triplets.jsonl"
        self.plan = gen.write_triplets(self.path, w.triplets, seed)
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.store: Path | None = None
        self.cards: list[dict] = []

    def once(self) -> None:
        run = self.run
        out_dir = run.dir / f"governed-{len(self.walls)}"
        out, wall, peak = run.program(
            ["cli", "--fixture-mode", "--json", "govern", str(self.path), str(out_dir)], "govern"
        )
        self.walls.append(wall)
        self.rss.append(peak)
        counts = json.loads(out.strip().splitlines()[-1]) if out.strip() else {}
        if self.store is None:
            self.store, self.counts = out_dir, counts
            self.cards = read_jsonl(out_dir / "cards.jsonl")
            audit = read_jsonl(out_dir / "audit.jsonl")
            run.check(checks.audit_matches_plan(audit, counts, self.plan), "govern audit")
            run.check(checks.dedup_survivors(self.cards, self.plan, OwnEmbedder()), "govern dedup")
            return
        same = counts == self.counts and all(
            (out_dir / f).read_bytes() == (self.store / f).read_bytes()
            for f in ("cards.jsonl", "vectors.bin", "audit.jsonl")
        )
        if not same:
            run.problems.append(f"govern run {len(self.walls)} differs from the first over the same input")
        shutil.rmtree(out_dir)


def build_phase(run: Run, w: Workload, seed: int) -> dict:
    cards_path = run.dir / "cards.jsonl"
    ids, texts, offsets, _twins = gen.write_cards(cards_path, w.cards, seed)
    store = run.dir / "store"
    result = run.dir / "build.json"
    run.program(["build", str(cards_path), str(store), str(result)], "build")
    build = json.loads(result.read_text())
    if build["cards"] != w.cards:
        run.problems.append(f"build indexed {build['cards']} of {w.cards} cards")
    fh = open(cards_path, "rb")

    def card_of(card_id):
        row = ref_rows.get(card_id)
        if row is None:
            return None
        fh.seek(offsets[row])
        return json.loads(fh.readline())

    ref_rows = {card_id: row for row, card_id in enumerate(ids)}
    return {"store": store, "build_s": build["build_s"], "ids": ids, "texts": texts,
            "card_of": card_of, "close": fh.close}


def serve_phase(run: Run, w: Workload, store: Path, ref: checks.Reference, queries: list,
                seconds: float, self_texts: list[str], replay: list) -> dict:
    plan_path, result = run.dir / "serve-plan.json", run.dir / "serve.json"
    plan = {
        "setup_reps": w.setup_reps,
        "first_query": queries[0][0],
        "queries": queries,
        "seconds": seconds,
        "min_searches": MIN_TAIL_SAMPLES,
        "round": len(gen.K_PATTERN),
        "check_first": CHECKED_SEARCHES,
        "self_queries": self_texts,
        "replay": replay if run.trace else [],
    }
    plan_path.write_text(json.dumps(plan))
    _, _, rss = run.program(["serve", str(store), str(plan_path), str(result)], "serve")
    out = json.loads(result.read_text())
    run.attempted += out["attempted"] - 1  # the process itself counted one
    for query, k, hits, card in out["checked"]:
        run.check(checks.brute_force(query, k, hits, ref), f"search {query[:40]!r} k={k}")
        run.check(checks.browsed_card(card, ref), "browse")
    for text, hits in out["self"]:
        run.check(checks.self_query(text, hits, ref), "self query")
    out["rss"] = rss
    return out


def start_server(run: Run, store: Path, first_query: str) -> tuple[subprocess.Popen, int, float, float]:
    """Spawn `memgov serve`; (process, port, ready s, setup s): ready when
    it prints its `serving N cards` line, set up when the first search is
    answered."""
    start = time.perf_counter()
    proc = run.popen(["cli", "serve", str(store), "--port", "0"], None, stdout=subprocess.PIPE)
    line = proc.stdout.readline().decode()
    ready = time.perf_counter() - start
    if not line.startswith("serving "):
        proc.kill()
        reap(proc, 60)
        raise RuntimeError(f"memgov serve printed {line!r}")
    port = int(line.rsplit(":", 1)[1])
    status, _ = Client(port).call("search", "POST", "/v1/search", {"query": first_query, "top_k": 10})
    setup = time.perf_counter() - start
    run.attempted += 1
    if status != 200:
        run.failed += 1
    return proc, port, ready, setup


def stop_server(run: Run, proc: subprocess.Popen) -> float:
    proc.send_signal(signal.SIGTERM)
    rest = proc.stdout.read().decode()
    proc.stdout.close()
    code, rss = reap(proc, 60)
    if code != 0 or "shut down cleanly" not in rest:
        run.problems.append(f"memgov serve ended with {code}: {rest!r}")
    return rss


def http_phase(run: Run, w: Workload, store: Path, card_count: int, issues: list, seconds: float) -> dict:
    cycles = w.http_cycles
    ready, setup = [], []
    for i in range(w.http_spawns):
        proc, port, r, s = start_server(run, store, issues[-1].queries()[0])
        ready.append(r)
        setup.append(s)
        if i < w.http_spawns - 1:
            stop_server(run, proc)
    client = Client(port)
    agent = Agent(client, card_count)
    cycle = len(gen.AGENT_PLANS)
    cycle_s: list[float] = []
    start = time.perf_counter()
    try:
        while (len(cycle_s) < cycles) if cycles else (time.perf_counter() - start < seconds):
            began = time.perf_counter()
            for _ in range(cycle):
                agent.session(issues[agent.attempted_sessions % len(issues)])
            cycle_s.append(time.perf_counter() - began)
    finally:
        rss = stop_server(run, proc)
    run.attempted += client.attempted
    run.failed += client.failed
    run.check(agent.errors[:20], "http")
    if agent.sessions != agent.attempted_sessions:
        run.problems.append(f"{agent.attempted_sessions - agent.sessions} agent sessions failed")
    return {"ready": ready, "setup": setup, "rss": rss, "rtt": client.rtt_ms,
            "sessions_per_s": cycle / statistics.median(cycle_s)}


# --- metrics ------------------------------------------------------------------


def e2e_metrics(w: Workload, gov: Governor, build: dict | None, serve: dict, http: dict, store: Path) -> dict:
    from_http = w.e2e_from == "http"
    search_ms = http["rtt"]["search"] if from_http else serve["search_ms"]
    govern_s = min(gov.walls)
    if from_http:
        rss = http["rss"]
    elif build:  # the serving process, apart from the build
        rss = serve["rss"]
    else:  # govern-mixed: the governing process
        rss = statistics.median(gov.rss)
    return {
        "setup_s": (statistics.median(http["setup"] if from_http else serve["setup_s"]), "s"),
        "peak_rss_mb": (rss, "MB"),
        "store_mb": (store_bytes(store) / MB, "MB"),
        "govern_triplets_per_s": (gov.triplets / govern_s, "triplets/s"),
        "build_s": (build["build_s"] if build else govern_s, "s"),
        "search_p50_ms": (statistics.median(search_ms), "ms"),
        "search_tail_ms": (statistics.quantiles(search_ms, n=10, method="inclusive")[8], "ms"),
        "sessions_per_s": (http["sessions_per_s"], "sessions/s"),
    }


def _govern_layers(t: Trace) -> dict:
    distills = t.count("distillation.distill")
    run_govern = t.indices("pipeline.run_govern")
    return {
        "ingestion.parse_s": t.total("ingestion.parse"),
        "purification.purify_s": t.total("purification.purify"),
        "purification.rejected": t.counters.get("purification.rejected", 0),
        "distillation.purify_content_s": t.total("distillation.purify_content"),
        "distillation.distill_s": t.total("distillation.distill"),
        "distillation.distill_calls": distills,
        "quality.evaluate_s": t.total("quality.evaluate_card"),
        "quality.accepted_per_distill": t.counters.get("quality.accepted", 0) / max(distills, 1),
        "cards.validate_schema_s": t.total("cards.validate_schema"),
        "pipeline.self_s": sum(t.self_time(i) for i in run_govern),
        "store.dedup_s": t.total("store.dedup"),
        "store.dedup_removed": t.counters.get("store.dedup_removed", 0),
    }


def _write_layers(t: Trace) -> dict:
    return {
        "embedding.embed_s": t.total("embedding.embed"),
        "embedding.embeds_per_indexed_card": t.count("embedding.embed") / max(t.count("store.index_card"), 1),
        "store.index_card_s": t.total("store.index_card"),
        "store.save_s": t.total("store.save"),
    }


def _serve_layers(t: Trace, loop_searches: int) -> dict:
    loads = set(t.indices("store.load"))
    searches = [i for i in t.indices("store.search") if t.parent_name(i) is None]
    first, after_load = [], False
    for i in sorted(loads.union(searches)):
        if i in loads:
            after_load = True
        elif after_load:
            first.append(i)
            after_load = False
    # The set-ups come first, then the loop, then the self queries.
    loop = searches[len(first):len(first) + loop_searches]
    embeds = [t.duration(c) for i in loop for c in t.children(i, "embedding.embed")]
    own = [t.duration(i) - sum(t.duration(c) for c in t.children(i, "embedding.embed")) for i in loop]
    browses = [t.duration(i) for i in t.indices("store.browse")]
    handled = [t.duration(i) for i in t.indices("server.handle_search")]
    return {
        "store.load_s": statistics.median(t.duration(i) for i in loads),
        "store.first_search_s": statistics.median(t.duration(i) for i in first),
        "embedding.query_embed_p50_ms": statistics.median(embeds) * 1e3,
        "store.search_self_p50_ms": statistics.median(own) * 1e3,
        "store.browse_p50_us": statistics.median(browses) * 1e6,
        "store.cards_decoded": t.count("cards.decode") / len(t.indices("store.search")),
        "server.handle_search_p50_ms": statistics.median(handled) * 1e3,
    }


PER_LAYER_UNITS = {
    "ingestion.parse_s": "s", "purification.purify_s": "s", "purification.rejected": "count",
    "distillation.purify_content_s": "s", "distillation.distill_s": "s",
    "distillation.distill_calls": "count", "quality.evaluate_s": "s",
    "quality.accepted_per_distill": "ratio", "cards.validate_schema_s": "s",
    "pipeline.self_s": "s", "store.dedup_s": "s", "store.dedup_removed": "count",
    "embedding.embed_s": "s", "embedding.embeds_per_indexed_card": "ratio",
    "store.index_card_s": "s", "store.save_s": "s", "store.load_s": "s",
    "store.first_search_s": "s", "embedding.query_embed_p50_ms": "ms",
    "store.search_self_p50_ms": "ms", "store.browse_p50_us": "us",
    "store.cards_decoded": "cards/search", "cli.serve_ready_s": "s",
    "server.search_p50_ms": "ms", "server.browse_p50_ms": "ms", "server.session_p50_ms": "ms",
    "server.transfer_brief_p50_ms": "ms", "server.session_get_p50_ms": "ms",
    "server.handle_search_p50_ms": "ms",
}


def layer_metrics(run: Run, serve: dict, http: dict) -> dict:
    def median_of(dicts: list[dict]) -> dict:
        return {key: statistics.median_low(d[key] for d in dicts) for key in dicts[0]}

    govern = [Trace(p) for p in run.traces["govern"]]
    values = median_of([_govern_layers(t) for t in govern])
    write = [Trace(p) for p in run.traces["build"]] if "build" in run.traces else govern
    values.update(median_of([_write_layers(t) for t in write]))
    values.update(_serve_layers(Trace(run.traces["serve"][0]), len(serve["search_ms"])))
    values["cli.serve_ready_s"] = statistics.median(http["ready"])
    for endpoint in ("search", "browse", "session", "transfer_brief", "session_get"):
        values[f"server.{endpoint}_p50_ms"] = statistics.median(http["rtt"][endpoint])
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


# --- the run ------------------------------------------------------------------


def run_workload(run: Run, name: str, seed: int, seconds: float) -> dict:
    w = WORKLOADS[name]
    issues = gen.agent_issues(seed, AGENT_ISSUES)
    agent_searches = [q for issue in issues for q in issue.queries()]
    t = time.perf_counter()
    gov = Governor(run, w, seed)
    gov.once()
    gov.once()
    while name == "govern-mixed" and time.perf_counter() - t < seconds:
        gov.once()
    run.note("govern and its checks", t)
    embedder = OwnEmbedder()
    build = None
    t = time.perf_counter()
    if w.cards:
        build = build_phase(run, w, seed)
        store = build["store"]
        ref = checks.Reference(build["ids"], build["texts"], build["card_of"], embedder)
        queries = gen.search_queries(seed, build["texts"], 4000)
        step = w.cards // SELF_QUERIES
        twins = range(gen.CARD_TWIN_EVERY - 1, w.cards, w.cards // 4)
        self_texts = [build["texts"][i] for i in sorted({*range(0, w.cards, step), *twins})]
        run.note("build and reference embeddings", t)
        gov.once()
    else:
        store = gov.store
        cards = gov.cards
        by_id = {c["card_id"]: c for c in cards}
        ref = checks.Reference([c["card_id"] for c in cards], [checks.index_text(c) for c in cards],
                               by_id.get, embedder)
        queries = [(q, gen.K_PATTERN[i % len(gen.K_PATTERN)]) for i, q in enumerate(agent_searches)]
        self_texts = [checks.index_text(c) for c in cards[:: max(1, len(cards) // SELF_QUERIES)]]
    replay = [(q, gen.AGENT_TOP_K) for q in agent_searches[:REPLAYED_SEARCHES]]
    t = time.perf_counter()
    try:
        serve = serve_phase(run, w, store, ref, queries, w.serve_seconds or seconds, self_texts, replay)
    finally:
        if build:
            build["close"]()
    run.note("serve and its checks", t)
    # A govern run after each later phase too: the fastest govern time is
    # then picked from moments spread over the whole run.
    gov.once()
    t = time.perf_counter()
    http = http_phase(run, w, store, len(ref.ids), issues, seconds)
    run.note("http", t)
    gov.once()
    print(f"[perfbench] fastest of {len(gov.walls)} govern runs: {min(gov.walls):.3f} s", file=sys.stderr)
    if run.trace:
        return layer_metrics(run, serve, http)
    return e2e_metrics(w, gov, build, serve, http, store)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "memgov" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'memgov'} is missing", file=sys.stderr)
        return 2
    # One CPU for the whole run, children included: on a 2-vCPU VM the
    # hand-offs between the agent and the server on different vCPUs made
    # HTTP figures swing by 2x with the host's load; on one they repeat.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = HERE / ".work"
    for old in work.glob("*-*"):  # left behind by a run that was killed
        if not _alive(int(old.name.rsplit("-", 1)[1])):
            shutil.rmtree(old, ignore_errors=True)
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = Run(workdir, bool(args.trace))
    try:
        metrics = run_workload(run, args.workload, args.seed, args.seconds)
    finally:
        if run.problems:
            sys.stderr.write("\n".join(run.problems[:20]) + "\n")
        stderr_log = workdir / "stderr.log"
        if stderr_log.exists() and stderr_log.stat().st_size:
            sys.stderr.write(stderr_log.read_text()[-4000:])
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
