"""Operator command line: pipeline, store inspection, server, demo client.

Commands: govern, select, purify, search, browse, serve, demo-agent, stats.
Exit codes: 0 success, 1 usage error, 2 data error, 3 infrastructure error.
--json output modes emit exactly the tool server's response bodies, so
scripted clients can swap the CLI and the HTTP API freely.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .audit import AuditLog
from .cards import card_to_dict
from .config import PipelineConfig, load_config
from .distillation import RuleBasedDistiller
from .embedding import _TOKEN
from .errors import ConfigError, DataError, MemgovError, ProviderError, StoreError
from .ingestion import RepoStats, load_fixture_triplets
from .pipeline import run_govern, run_purify_only
from .providers import ENV_LLM_ENDPOINT, HttpChatProvider
from .purification import scan_text_anchors
from .quality import RuleBasedEvaluator
from .selection import select_top_m
from .store import DEFAULT_TOP_K, MemoryStore, read_manifest, search_hit_to_dict

# .server (and with it selectors, email.utils and uuid) is imported only by
# serve and demo-agent, so every other command starts without it.
if TYPE_CHECKING:
    from .server import ToolService, TransferBrief

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFRA = 3

# Demo-agent policy knobs; illustrative defaults, not normative.
DEMO_REFINE_THRESHOLD = 0.3
DEMO_DEFAULT_ROUNDS = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; contract says 1
        raise _UsageError(message)


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in [low, high], unbounded above when high is None."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be an integer {bounds}, got {value}")
        return value

    return parse


_positive_int = _int_in(1)


def build_parser() -> _Parser:
    parser = _Parser(prog="memgov", description=__doc__.split("\n")[0])
    parser.add_argument("--config", help="pipeline config file (JSON)")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument(
        "--workers", type=_positive_int, default=None, help="parallel pipeline workers"
    )
    parser.add_argument(
        "--fixture-mode",
        action="store_true",
        help="force deterministic rule-based providers (no network)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("govern", help="run the full governance pipeline")
    p.add_argument("input", help="JSONL triplet fixture file")
    p.add_argument("output_dir", help="directory for the resulting store")
    p.set_defaults(func=cmd_govern)

    p = sub.add_parser("select", help="rank repositories by score")
    p.add_argument("stats_file", help="JSONL of {repo, stars, issues, pulls}")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("purify", help="audit-only dry run of purification")
    p.add_argument("input", help="JSONL triplet fixture file")
    p.add_argument("--audit-log", help="where to write rejection records")
    p.set_defaults(func=cmd_purify)

    p = sub.add_parser("search", help="query a store")
    p.add_argument("index_dir")
    p.add_argument("query")
    p.add_argument("--top-k", type=_positive_int, default=DEFAULT_TOP_K)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("browse", help="fetch one full card by id")
    p.add_argument("index_dir")
    p.add_argument("card_id")
    p.set_defaults(func=cmd_browse)

    p = sub.add_parser("serve", help="serve the tool API over HTTP")
    p.add_argument("index_dir")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_int_in(0, 65535), default=8080)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("demo-agent", help="scripted search->browse->brief walkthrough")
    p.add_argument("index_dir")
    p.add_argument("issue_file", help="text file: first line title, rest body")
    p.add_argument("--rounds", type=_positive_int, default=DEMO_DEFAULT_ROUNDS)
    p.add_argument("--top-k", type=_positive_int, default=DEFAULT_TOP_K)
    p.set_defaults(func=cmd_demo_agent)

    p = sub.add_parser("stats", help="store summary from the manifest")
    p.add_argument("index_dir")
    p.set_defaults(func=cmd_stats)

    return parser


def _providers(args, cfg: PipelineConfig):
    """Pick distiller/evaluator: rule-based stubs unless an LLM endpoint is
    configured and --fixture-mode is off."""
    endpoint = cfg.provider.endpoint or os.environ.get(ENV_LLM_ENDPOINT)
    if args.fixture_mode or not endpoint:
        RuleBasedEvaluator.check_dimensions(cfg.qc.dimensions)
        return RuleBasedDistiller(), RuleBasedEvaluator()
    from .distillation import ChatDistiller
    from .quality import ChatEvaluator

    provider = HttpChatProvider(
        endpoint=endpoint,
        model=cfg.provider.model,
        max_inflight=cfg.provider.max_inflight,
        request_log=cfg.provider.request_log,
    )
    return ChatDistiller(provider), ChatEvaluator(provider)


def cmd_govern(args) -> int:
    cfg = load_config(args.config)
    if args.workers is not None:
        cfg = dataclasses.replace(cfg, workers=args.workers)  # re-runs its checks
    input_path = Path(args.input)
    if not input_path.is_file():
        raise DataError(f"input file not found: {input_path}")
    distiller, evaluator = _providers(args, cfg)
    audit_path = cfg.paths.audit_log or str(Path(args.output_dir) / "audit.jsonl")
    with AuditLog(audit_path) as audit:
        counts = run_govern(
            load_fixture_triplets(input_path),
            args.output_dir,
            cfg,
            distiller=distiller,
            evaluator=evaluator,
            audit=audit,
        )
    _print_fields(args, counts.as_dict())
    if not args.json:
        print(f"audit log: {audit_path}")
    return EXIT_OK


def _print_fields(args, fields: dict) -> None:
    """One JSON object with --json, else one "key: value" line per field."""
    if args.json:
        print(json.dumps(fields))
    else:
        for key, value in fields.items():
            print(f"{key}: {value}")


def _read_stats_file(path: Path) -> list[RepoStats]:
    if not path.is_file():
        raise DataError(f"stats file not found: {path}")
    out = []
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"malformed stats entry: {exc}", line=lineno) from exc
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                out.append(
                    RepoStats(
                        repo=entry["repo"],
                        stars=entry["stars"],
                        issues=entry["issues"],
                        pulls=entry["pulls"],
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, DataError) as exc:
                raise DataError(f"malformed stats entry: {exc}", line=lineno) from exc
    return out


def cmd_select(args) -> int:
    cfg = load_config(args.config)
    ranked = select_top_m(_read_stats_file(Path(args.stats_file)), cfg.selection)
    if args.json:
        print(json.dumps([{"repo": r.repo, "score": r.score} for r in ranked]))
    else:
        for r in ranked:
            print(f"{r.repo}\t{r.score:.6f}")
    return EXIT_OK


def cmd_purify(args) -> int:
    cfg = load_config(args.config)
    input_path = Path(args.input)
    if not input_path.is_file():
        raise DataError(f"input file not found: {input_path}")
    with AuditLog(args.audit_log) as audit:
        counts = run_purify_only(load_fixture_triplets(input_path), cfg, audit=audit)
    _print_fields(args, counts)
    return EXIT_OK


def cmd_search(args) -> int:
    hits = MemoryStore.load(args.index_dir).search(args.query, k=args.top_k)
    if args.json:
        print(json.dumps({"hits": [search_hit_to_dict(h) for h in hits]}))
    else:
        if not hits:
            print("no hits")
        for rank, hit in enumerate(hits, 1):
            print(f"{rank:2d}. {hit.card_id}  similarity={hit.similarity:.4f}")
            print(f"    {hit.preview.problem_summary}")
    return EXIT_OK


def cmd_browse(args) -> int:
    card = MemoryStore.load(args.index_dir).browse(args.card_id)
    if args.json:
        print(json.dumps(card_to_dict(card)))
    else:
        print(f"card:     {card.card_id}")
        print(f"source:   {card.source.repo} issue #{card.source.issue} pr #{card.source.pr}")
        print(f"summary:  {card.index.problem_summary}")
        print(f"signals:  {'; '.join(card.index.signals)}")
        print(f"root cause:\n  {card.resolution.root_cause}")
        print(f"fix strategy:\n  {card.resolution.fix_strategy}")
        print("patch digest:")
        for line in card.resolution.patch_digest.splitlines():
            print(f"  {line}")
        print(f"verification:\n  {card.resolution.verification}")
    return EXIT_OK


def _load_service(index_dir: str) -> ToolService:
    from .server import ToolService

    return ToolService(MemoryStore.load(index_dir))


def cmd_serve(args) -> int:
    from .server import make_http_server

    service = _load_service(args.index_dir)
    try:
        server = make_http_server(service, host=args.host, port=args.port)
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return EXIT_INFRA
    host, port = server.server_address[:2]
    print(f"serving {len(service.store)} cards on http://{host}:{port}")

    def stop(_signum, _frame):
        server.shutdown()  # returns at once; serve_forever then returns

    try:
        signal.signal(signal.SIGINT, stop)
        signal.signal(signal.SIGTERM, stop)
    except ValueError:
        pass  # not the main thread (tests); rely on server.shutdown()
    try:
        server.serve_forever()
    finally:
        server.server_close()
    print("shut down cleanly")
    return EXIT_OK


def _demo_query_parts(issue_text: str) -> tuple[list[str], list[str]]:
    """Initial query tokens (title + first anchor) and the pool of further
    anchor tokens for refinement rounds."""
    excerpts = scan_text_anchors(issue_text)
    tokens = _unique_tokens([issue_text.split("\n")[0], *excerpts[:1]])
    pool = [token for token in _unique_tokens(excerpts[1:]) if token not in tokens]
    return tokens, pool


def _unique_tokens(texts: list[str]) -> list[str]:
    """The texts' case-folded tokens, each once, in first-seen order."""
    return list(dict.fromkeys(t for text in texts for t in _TOKEN.findall(text.casefold())))


def run_demo_agent(
    service: ToolService,
    issue_text: str,
    rounds: int = DEMO_DEFAULT_ROUNDS,
    top_k: int = DEFAULT_TOP_K,
) -> tuple[list[dict], TransferBrief | None]:
    """Reference search policy: query from anchors + title, refine while the
    best similarity stays under the threshold, then browse and assemble.

    Returns (round trace, brief or None when nothing relevant surfaced).
    """
    from .server import BrowseRequest, SearchRequest

    tokens, pool = _demo_query_parts(issue_text)
    session_id = service.sessions.create()
    trace: list[dict] = []
    best_hits = []
    for round_no in range(1, max(rounds, 1) + 1):
        query = " ".join(tokens)
        hits = service.handle_search(
            SearchRequest(query=query, top_k=top_k, session_id=session_id)
        )
        best = hits[0].similarity if hits else 0.0
        trace.append(
            {
                "round": round_no,
                "query": query,
                "hits": [(h.card_id, h.similarity) for h in hits],
                "best": best,
            }
        )
        best_hits = hits
        if best >= DEMO_REFINE_THRESHOLD or not pool:
            break
        tokens.append(pool.pop(0))  # next unmatched anchor token
    if not best_hits or best_hits[0].similarity < DEMO_REFINE_THRESHOLD:
        return trace, None
    top = best_hits[0]
    service.handle_browse(BrowseRequest(card_id=top.card_id, session_id=session_id))
    brief = service.assemble_transfer_brief(session_id, [top.card_id])
    return trace, brief


def cmd_demo_agent(args) -> int:
    issue_path = Path(args.issue_file)
    if not issue_path.is_file():
        raise DataError(f"issue file not found: {issue_path}")
    try:
        issue_text = issue_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"issue file is not UTF-8: {issue_path}: {exc}")
    trace, brief = run_demo_agent(
        _load_service(args.index_dir), issue_text, rounds=args.rounds, top_k=args.top_k
    )
    if args.json:
        print(
            json.dumps(
                {
                    "rounds": trace,
                    "brief": brief.to_dict() if brief else None,
                }
            )
        )
        return EXIT_OK
    for entry in trace:
        print(f"round {entry['round']}: query={entry['query']!r}")
        for card_id, sim in entry["hits"][:3]:
            print(f"    {card_id}  similarity={sim:.4f}")
    if brief is None:
        print("warning: no sufficiently similar experience found; brief is empty")
        return EXIT_OK
    print("transfer brief:")
    print(f"  root cause pattern:  {brief.root_cause_pattern}")
    print(f"  modification logic:  {brief.modification_logic}")
    print(f"  validation strategy: {brief.validation_strategy}")
    print(f"  sources: {', '.join(brief.source_card_ids)}")
    return EXIT_OK


def cmd_stats(args) -> int:
    _print_fields(args, read_manifest(Path(args.index_dir)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, DataError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ProviderError, OSError) as exc:
        print(f"infrastructure error: {exc}", file=sys.stderr)
        return EXIT_INFRA
    except MemgovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
