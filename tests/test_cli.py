from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import requests

from memgov.audit import AuditLog
from memgov.cards import IndexLayer, card_from_dict, validate_schema
from memgov.cli import _providers, main
from memgov.config import PipelineConfig, config_from_dict
from memgov.distillation import RuleBasedDistiller
from memgov.errors import ConfigError
from memgov.ingestion import load_fixture_triplets
from memgov.pipeline import GovernCounts, run_govern
from memgov.quality import RuleBasedEvaluator
from memgov.server import REQUEST_TIMEOUT_SECONDS, ToolService, make_http_server
from memgov.store import MemoryStore
from memgov.embedding import HashingEmbedder

from pipeline_fixtures import make_triplet_dict, write_mixed_fixture, write_planted_store_pairs


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def small_fixture(tmp_path) -> Path:
    path = tmp_path / "triplets.jsonl"
    rows = [json.dumps(make_triplet_dict(i)) for i in (7, 8, 9)]
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def built_store(tmp_path, small_fixture, capsys) -> Path:
    out = tmp_path / "store"
    code, _, _ = run_cli(capsys, "govern", str(small_fixture), str(out))
    assert code == 0
    return out


# --- govern -------------------------------------------------------------


def test_govern_counts_and_accounting(tmp_path, capsys):
    fixture = tmp_path / "input.jsonl"
    write_mixed_fixture(fixture, count=30)
    out = tmp_path / "store"
    code, stdout, _ = run_cli(capsys, "--json", "govern", str(fixture), str(out))
    assert code == 0
    counts = json.loads(stdout)
    assert counts["read"] == 30
    assert counts["indexed"] == counts["qc_accepted"] - counts["deduped"]
    audit_lines = [json.loads(l) for l in (out / "audit.jsonl").read_text().splitlines()]
    rejected = [l for l in audit_lines if "reason" in l or l.get("accepted") is False]
    assert counts["indexed"] + len(rejected) == counts["read"]


def test_govern_missing_input_names_path(tmp_path, capsys):
    code, _, err = run_cli(capsys, "govern", str(tmp_path / "absent.jsonl"), str(tmp_path / "o"))
    assert code == 2
    assert "absent.jsonl" in err


def test_govern_all_rejected_is_still_success(tmp_path, capsys):
    fixture = tmp_path / "input.jsonl"
    rows = []
    for i in (1, 2, 3):
        t = make_triplet_dict(i)
        t["pr"]["merged"] = False
        rows.append(json.dumps(t))
    fixture.write_text("\n".join(rows) + "\n")
    out = tmp_path / "store"
    code, stdout, _ = run_cli(capsys, "--json", "govern", str(fixture), str(out))
    assert code == 0
    assert json.loads(stdout)["indexed"] == 0


def test_govern_reruns_identically(tmp_path, capsys):
    fixture = tmp_path / "input.jsonl"
    write_mixed_fixture(fixture, count=20)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run_cli(capsys, "govern", str(fixture), str(out1))[0] == 0
    assert run_cli(capsys, "govern", str(fixture), str(out2))[0] == 0
    assert (out1 / "cards.jsonl").read_bytes() == (out2 / "cards.jsonl").read_bytes()
    assert (out1 / "audit.jsonl").read_bytes() == (out2 / "audit.jsonl").read_bytes()


def test_govern_parallel_matches_serial(tmp_path, capsys):
    fixture = tmp_path / "input.jsonl"
    write_mixed_fixture(fixture, count=20)
    serial, parallel = tmp_path / "s1", tmp_path / "s4"
    assert run_cli(capsys, "govern", str(fixture), str(serial))[0] == 0
    assert run_cli(capsys, "--workers", "4", "govern", str(fixture), str(parallel))[0] == 0
    assert (serial / "cards.jsonl").read_bytes() == (parallel / "cards.jsonl").read_bytes()
    assert (serial / "audit.jsonl").read_bytes() == (parallel / "audit.jsonl").read_bytes()


def test_govern_keeps_one_card_per_repeated_source(tmp_path, capsys):
    first = make_triplet_dict(7)
    clone = make_triplet_dict(7)
    clone["issue"]["title"] = "renderer drops frames after a window resize"
    fixture = tmp_path / "input.jsonl"
    fixture.write_text(json.dumps(first) + "\n" + json.dumps(clone) + "\n")
    out = tmp_path / "store"
    code, stdout, _ = run_cli(capsys, "--json", "govern", str(fixture), str(out))
    assert code == 0
    counts = json.loads(stdout)
    assert (counts["qc_accepted"], counts["deduped"], counts["indexed"]) == (2, 1, 1)
    audit = [json.loads(l) for l in (out / "audit.jsonl").read_text().splitlines()]
    assert [r for r in audit if "reason" in r] == [
        {"repo": "acme/widgets", "issue": 7, "pr": 1007, "reason": "duplicate"}
    ]
    (card,) = (out / "cards.jsonl").read_text().splitlines()
    assert json.loads(card)["index"]["problem_summary"] == first["issue"]["title"]


@pytest.mark.parametrize("slugs", [("acme/widgets", "acme--widgets"), ("a-/b", "a/-b")])
def test_govern_keeps_distinct_sources_whose_slugs_differ_only_in_dashes(tmp_path, capsys, slugs):
    first = make_triplet_dict(7)
    other = make_triplet_dict(7, duplicate_of=12)  # same issue and PR, unrelated texts
    first["repo"], other["repo"] = slugs
    fixture = tmp_path / "input.jsonl"
    fixture.write_text(json.dumps(first) + "\n" + json.dumps(other) + "\n")
    out = tmp_path / "store"
    code, stdout, _ = run_cli(capsys, "--json", "govern", str(fixture), str(out))
    assert code == 0
    counts = json.loads(stdout)
    assert (counts["qc_accepted"], counts["deduped"], counts["indexed"]) == (2, 0, 2)
    cards = [json.loads(l) for l in (out / "cards.jsonl").read_text().splitlines()]
    assert sorted(c["source"]["repo"] for c in cards) == sorted(slugs)
    assert len({c["card_id"] for c in cards}) == 2


def test_serial_govern_pulls_an_item_only_after_writing_the_last_record(tmp_path, small_fixture):
    audit = AuditLog(tmp_path / "audit.jsonl")
    written_before_third = []

    def items():
        for i, item in enumerate(load_fixture_triplets(small_fixture)):
            if i == 2:
                written_before_third.append(len(audit.entries))
            yield item

    with audit:
        run_govern(
            items(),
            tmp_path / "store",
            PipelineConfig(),
            distiller=RuleBasedDistiller(),
            evaluator=RuleBasedEvaluator(),
            audit=audit,
        )
    assert written_before_third == [2]


class CyrillicIndexDistiller(RuleBasedDistiller):
    """Gives issue 8's card an index layer with no ASCII letter or digit."""

    def distill(self, request):
        card = super().distill(request)
        if card.source.issue != 8:
            return card
        words = "один два три четыре пять шесть семь восемь девять десять".split()
        index = IndexLayer("сбой планировщика", tuple(f"ошибка номер {w}" for w in words))
        return dataclasses.replace(card, index=index)


class AcceptingEvaluator:
    def scores(self, card, instance, dimensions):
        return {dim: (1.0, "") for dim in dimensions}


@pytest.mark.parametrize("workers", [1, 2])
def test_unembeddable_card_is_rejected_and_the_rest_indexed(tmp_path, small_fixture, workers):
    out = tmp_path / "store"
    with AuditLog(tmp_path / "audit.jsonl") as audit:
        counts = run_govern(
            load_fixture_triplets(small_fixture),
            out,
            PipelineConfig(workers=workers),
            distiller=CyrillicIndexDistiller(),
            evaluator=AcceptingEvaluator(),
            audit=audit,
        )
        records = audit.entries
    assert (counts.read, counts.qc_accepted, counts.deduped, counts.indexed) == (3, 3, 0, 2)
    rejections = [r for r in records if "reason" in r]
    assert rejections == [{"repo": "acme/widgets", "issue": 8, "pr": 1008, "reason": "unembeddable"}]
    assert counts.indexed + len(rejections) == counts.read
    store = MemoryStore.load(out)
    assert [store.browse(i).source.issue for i in store.card_ids()] == [7, 9]


def test_workers_flag_overrides_the_config(tmp_path, small_fixture, capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(
        "memgov.cli.run_govern", lambda items, out, cfg, **kw: seen.append(cfg.workers) or GovernCounts()
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"workers": 3}))
    for flags in ([], ["--workers", "2"]):
        code, _, _ = run_cli(
            capsys, "--config", str(config_path), *flags, "govern", str(small_fixture), str(tmp_path / "s")
        )
        assert code == 0
    assert seen == [3, 2]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_bad_workers_flag_is_usage_error(tmp_path, small_fixture, capsys, workers):
    out = tmp_path / "store"
    code, _, err = run_cli(capsys, "--workers", workers, "govern", str(small_fixture), str(out))
    assert code == 1
    assert err.startswith("usage error: ") and "--workers" in err
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_pipeline_config_rejects_workers_below_one(workers):
    with pytest.raises(ConfigError, match="workers"):
        PipelineConfig(workers=workers)


@pytest.mark.parametrize(
    "config",
    [
        {"workers": "two"},
        {"workers": 0},
        {"dedup": {"threshold": 7}},
        {"purification": 5},
        {"selection": 7},
        {"paths": []},
        {"dedup": 5},
        {"purification": {"anchor_patterns": 5}},
        {"embedder": {"id": 5}},
        {"embedder": {"id": "nope"}},
        {"embedder": {"id": "feature-hash-100000"}},
        {"qc": {"max_iterations": 2.5}},
        {"qc": {"dimensions": "abc"}},
        {"provider": {"max_inflight": 0}},
        {"provider": {"max_inflight": -1}},
        b'{"workers": "\xff"}',
    ],
    ids=[
        "workers-string",
        "workers-zero",
        "dedup-threshold-7",
        "purification-int",
        "selection-int",
        "paths-list",
        "dedup-int",
        "anchor-patterns-int",
        "embedder-id-int",
        "embedder-id-unknown",
        "embedder-id-past-max-dimension",
        "max-iterations-float",
        "dimensions-string",
        "max-inflight-zero",
        "max-inflight-negative",
        "undecodable-byte",
    ],
)
def test_bad_config_value_is_data_error(tmp_path, small_fixture, capsys, config):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    out = tmp_path / "store"
    code, _, err = run_cli(capsys, "--config", str(config_path), "govern", str(small_fixture), str(out))
    assert code == 2
    assert err.startswith("error: ")
    assert not out.exists()


def test_removed_embedder_dimension_key_is_refused(tmp_path, small_fixture, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"embedder": {"id": "feature-hash-256", "dimension": 256}}))
    out = tmp_path / "store"
    code, _, err = run_cli(capsys, "--config", str(config_path), "govern", str(small_fixture), str(out))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "'dimension'" in err
    assert not out.exists()


# "source-tokens" names a helper method, not a rule; it used to be called as one.
@pytest.mark.parametrize("dimension", ["nope", "source-tokens"])
def test_unknown_qc_dimension_is_refused_before_any_output(tmp_path, small_fixture, capsys, dimension):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"qc": {"dimensions": [dimension]}}))
    out = tmp_path / "store"
    code, _, err = run_cli(
        capsys, "--fixture-mode", "--config", str(config_path), "govern", str(small_fixture), str(out)
    )
    assert code == 2
    assert err == f"error: rule-based evaluator has no rule for dimension {dimension!r}\n"
    assert not out.exists()
    assert not (out / "audit.jsonl").exists()


def test_chat_evaluator_takes_any_qc_dimension(monkeypatch):
    monkeypatch.setenv("MEMGOV_LLM_ENDPOINT", "http://127.0.0.1:9/v1/chat")
    monkeypatch.setenv("MEMGOV_LLM_MODEL", "anything")
    cfg = config_from_dict({"qc": {"dimensions": ["nope"]}})
    _distiller, evaluator = _providers(argparse.Namespace(fixture_mode=False), cfg)
    assert not isinstance(evaluator, RuleBasedEvaluator)


def test_failed_govern_keeps_the_audit_records_written(tmp_path, small_fixture, capsys):
    out = tmp_path / "store"
    (out / "cards.jsonl").mkdir(parents=True)  # save() cannot write the store
    code, _, _ = run_cli(capsys, "govern", str(small_fixture), str(out))
    assert code == 3
    audit = [json.loads(l) for l in (out / "audit.jsonl").read_text().splitlines()]
    assert len(audit) == 3  # one QC decision per triplet


def test_undecodable_triplet_line_is_one_item_error(tmp_path, small_fixture, capsys):
    lines = small_fixture.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b'"title": "', b'"title": "\xff')
    small_fixture.write_bytes(b"".join(lines))
    out = tmp_path / "store"
    code, stdout, _ = run_cli(capsys, "--json", "govern", str(small_fixture), str(out))
    assert code == 0
    assert json.loads(stdout)["read"] == 3
    audit = [json.loads(l) for l in (out / "audit.jsonl").read_text().splitlines()]
    errors = [r["reason"] for r in audit if r.get("reason", "").startswith("item-error")]
    assert len(errors) == 1 and errors[0].startswith("item-error: line 2: invalid UTF-8")
    code, stdout, _ = run_cli(capsys, "--json", "purify", str(small_fixture))
    assert code == 0 and json.loads(stdout)["read"] == 3


def test_fixture_mode_never_dials_llm(tmp_path, small_fixture, capsys, monkeypatch):
    monkeypatch.setenv("MEMGOV_LLM_ENDPOINT", "http://127.0.0.1:9/v1/chat")
    monkeypatch.setenv("MEMGOV_LLM_MODEL", "anything")
    out = tmp_path / "store"
    code, _, _ = run_cli(capsys, "--fixture-mode", "govern", str(small_fixture), str(out))
    assert code == 0  # an HTTP attempt against port 9 would fail


def test_indexed_cards_validate(built_store):
    with (built_store / "cards.jsonl").open() as fh:
        cards = [card_from_dict(json.loads(line)) for line in fh]
    assert cards
    for card in cards:
        assert validate_schema(card) == []


# --- select --------------------------------------------------------------


def test_select_empty_stats_file(tmp_path, capsys):
    path = tmp_path / "stats.jsonl"
    path.write_text("")
    code, stdout, _ = run_cli(capsys, "select", str(path))
    assert code == 0 and stdout == ""


def test_select_ranks_and_matches_oracle(tmp_path, capsys):
    rows = [
        {"repo": "c/top", "stars": 5000, "issues": 500, "pulls": 50},
        {"repo": "a/mid", "stars": 500, "issues": 50, "pulls": 5},
        {"repo": "b/low", "stars": 5, "issues": 0, "pulls": 0},
    ]
    path = tmp_path / "stats.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    code, stdout, _ = run_cli(capsys, "--json", "select", str(path))
    assert code == 0
    ranked = json.loads(stdout)
    assert [r["repo"] for r in ranked] == ["c/top", "a/mid", "b/low"]
    scores = [r["score"] for r in ranked]
    assert scores == sorted(scores, reverse=True)


def test_select_malformed_line_cites_number(tmp_path, capsys):
    path = tmp_path / "stats.jsonl"
    path.write_text('{"repo": "a/a", "stars": 1, "issues": 1, "pulls": 1}\n{"repo": "b/b"}\n')
    code, _, err = run_cli(capsys, "select", str(path))
    assert code == 2 and "line 2" in err


def test_select_refuses_a_boolean_count(tmp_path, capsys):
    path = tmp_path / "stats.jsonl"
    path.write_text('{"repo": "a/a", "stars": true, "issues": 1, "pulls": 1}\n')
    code, stdout, err = run_cli(capsys, "select", str(path))
    assert code == 2 and stdout == ""
    assert "stars" in err and "line 1" in err


def test_select_undecodable_line_is_data_error(tmp_path, capsys):
    path = tmp_path / "stats.jsonl"
    path.write_bytes(b'{"repo": "a/a", "stars": 1, "issues": 1, "pulls": 1}\n{"repo": "b/\xff"}\n')
    code, _, err = run_cli(capsys, "select", str(path))
    assert code == 2
    assert err.startswith("error: malformed stats entry") and "line 2" in err


# --- purify ---------------------------------------------------------------


def test_purify_dry_run_counts(tmp_path, capsys):
    fixture = tmp_path / "input.jsonl"
    expected = write_mixed_fixture(fixture, count=30)
    audit = tmp_path / "audit.jsonl"
    code, stdout, _ = run_cli(
        capsys, "--json", "purify", str(fixture), "--audit-log", str(audit)
    )
    assert code == 0
    counts = json.loads(stdout)
    assert counts["read"] == 30
    assert counts["accepted"] == expected["accepted"]
    assert counts["rejected"] == len(audit.read_text().splitlines())


def test_purify_audit_matches_govern_rejections(tmp_path, capsys):
    fixture = tmp_path / "input.jsonl"
    write_mixed_fixture(fixture, count=40)
    purify_audit = tmp_path / "purify-audit.jsonl"
    assert run_cli(capsys, "purify", str(fixture), "--audit-log", str(purify_audit))[0] == 0
    out = tmp_path / "store"
    assert run_cli(capsys, "govern", str(fixture), str(out))[0] == 0
    rejections = []
    for line in (out / "audit.jsonl").read_text().splitlines():
        if json.loads(line).get("reason", "duplicate") != "duplicate":
            rejections.append(line)
    assert any(line.startswith('{"repo": null') for line in rejections)
    assert purify_audit.read_text().splitlines() == rejections


# --- search / browse -------------------------------------------------------


def test_search_default_top_k_is_ten(tmp_path, capsys):
    store = MemoryStore(HashingEmbedder())
    pairs = write_planted_store_pairs(15)
    for card_dict, _ in pairs:
        store.index_card(card_from_dict(card_dict))
    store_dir = tmp_path / "store"
    store.save(store_dir)
    code, stdout, _ = run_cli(capsys, "--json", "search", str(store_dir), "deadlock in parser")
    assert code == 0
    assert len(json.loads(stdout)["hits"]) == 10


def test_search_json_pipes_into_browse(built_store, capsys):
    code, stdout, _ = run_cli(capsys, "--json", "search", str(built_store), "pipeline failure")
    assert code == 0
    top = json.loads(stdout)["hits"][0]
    code, stdout, _ = run_cli(capsys, "--json", "browse", str(built_store), top["card_id"])
    assert code == 0
    card = json.loads(stdout)
    assert card["card_id"] == top["card_id"]
    assert set(card["resolution"]) == {"root_cause", "fix_strategy", "patch_digest", "verification"}


def test_search_human_output_lists_ranks(built_store, capsys):
    code, stdout, _ = run_cli(capsys, "search", str(built_store), "pipeline failure")
    assert code == 0
    assert "similarity=" in stdout


def test_browse_unknown_id_fails_with_not_found(built_store, capsys):
    code, _, err = run_cli(capsys, "browse", str(built_store), "missing-id")
    assert code == 2
    assert "missing-id" in err


def test_search_unembeddable_query_is_data_error(built_store, capsys):
    code, _, _ = run_cli(capsys, "search", str(built_store), "!!!")
    assert code == 2


def test_stats_reports_manifest(built_store, capsys):
    code, stdout, _ = run_cli(capsys, "--json", "stats", str(built_store))
    assert code == 0
    manifest = json.loads(stdout)
    assert manifest["dimension"] == 256 and manifest["count"] >= 1


@pytest.mark.parametrize("command", ["search", "stats"])
@pytest.mark.parametrize(
    "manifest",
    [b"{not json", b"[1,2]", {"dimension": None}, {"count": "abc"}, {"embedder_id": 5}, b"\xff\xfe"],
    ids=["not-json", "array", "no-dimension", "count-string", "embedder-id-int", "not-utf8"],
)
def test_malformed_manifest_is_data_error(built_store, capsys, command, manifest):
    path = built_store / "manifest.json"
    if isinstance(manifest, dict):  # edit the real manifest; None drops the key
        fields = {**json.loads(path.read_text()), **manifest}
        manifest = json.dumps({k: v for k, v in fields.items() if v is not None}).encode()
    path.write_bytes(manifest)
    args = [str(built_store), "pipeline failure"] if command == "search" else [str(built_store)]
    code, stdout, err = run_cli(capsys, command, *args)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: manifest.json") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["search", "browse"])
@pytest.mark.parametrize("embedder_id", ["feature-hash-0", "feature-hash-100000"])
def test_manifest_naming_a_refused_embedder_is_data_error(built_store, capsys, command, embedder_id):
    path = built_store / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "embedder_id": embedder_id}))
    code, stdout, err = run_cli(capsys, command, str(built_store), "pipeline failure")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: manifest.json") and err.count("\n") == 1
    assert embedder_id in err


@pytest.fixture
def planted_store(tmp_path) -> Path:
    store = MemoryStore(HashingEmbedder())
    for card_dict, _ in write_planted_store_pairs(15):
        store.index_card(card_from_dict(card_dict))
    store.save(tmp_path / "store")
    return tmp_path / "store"


def test_json_search_and_browse_print_the_http_bodies(planted_store, capsys):
    server = make_http_server(ToolService(MemoryStore.load(planted_store)))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        query = "deadlock in parser"
        for k in (1, 10):
            code, stdout, _ = run_cli(
                capsys, "--json", "search", str(planted_store), query, "--top-k", str(k)
            )
            assert code == 0
            body = requests.post(f"{base}/v1/search", json={"query": query, "top_k": k}).json()
            assert json.loads(stdout) == body and len(body["hits"]) == k
        card_id = body["hits"][-1]["card_id"]
        code, stdout, _ = run_cli(capsys, "--json", "browse", str(planted_store), card_id)
        assert code == 0
        assert json.loads(stdout) == requests.post(
            f"{base}/v1/browse", json={"card_id": card_id}
        ).json()
    finally:
        server.shutdown()
        server.server_close()


# --- usage errors -----------------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1


def test_missing_argument_is_usage_error(capsys):
    assert run_cli(capsys, "search")[0] == 1


def test_bad_flag_is_usage_error(capsys):
    assert run_cli(capsys, "stats", "somewhere", "--bogus")[0] == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("serve", "somewhere", "--port", "-1"), "--port"),
        (("serve", "somewhere", "--port", "70000"), "--port"),
        (("search", "somewhere", "deadlock", "--top-k", "0"), "--top-k"),
        (("demo-agent", "somewhere", "issue.txt", "--top-k", "-1"), "--top-k"),
        (("demo-agent", "somewhere", "issue.txt", "--rounds", "-2"), "--rounds"),
        (("demo-agent", "somewhere", "issue.txt", "--rounds", "0"), "--rounds"),
    ],
)
def test_out_of_range_flag_is_usage_error(capsys, argv, flag):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("usage error: ") and flag in err


# --- demo agent ---------------------------------------------------------------


@pytest.fixture
def planted(tmp_path):
    store = MemoryStore(HashingEmbedder())
    pairs = write_planted_store_pairs(20)
    for card_dict, _ in pairs:
        store.index_card(card_from_dict(card_dict))
    store_dir = tmp_path / "planted-store"
    store.save(store_dir)
    return store_dir, pairs


def test_demo_agent_finds_planted_card(planted, tmp_path, capsys):
    store_dir, pairs = planted
    card_dict, issue_text = pairs[3]
    issue = tmp_path / "issue.txt"
    issue.write_text(issue_text)
    code, stdout, _ = run_cli(capsys, "--json", "demo-agent", str(store_dir), str(issue))
    assert code == 0
    result = json.loads(stdout)
    assert result["rounds"][0]["hits"][0][0] == card_dict["card_id"]
    brief = result["brief"]
    assert brief["root_cause_pattern"] == card_dict["resolution"]["root_cause"]
    assert brief["modification_logic"] == card_dict["resolution"]["fix_strategy"]
    assert brief["validation_strategy"] == card_dict["resolution"]["verification"]


def test_demo_agent_gibberish_warns_and_exits_zero(planted, tmp_path, capsys):
    store_dir, _ = planted
    issue = tmp_path / "issue.txt"
    issue.write_text("zzzz qqqq wwww\nnothing matches here at all\n")
    code, stdout, _ = run_cli(capsys, "demo-agent", str(store_dir), str(issue))
    assert code == 0
    assert "warning" in stdout


def test_demo_agent_refuses_a_non_utf8_issue_file(planted, tmp_path, capsys):
    store_dir, _ = planted
    issue = tmp_path / "issue.txt"
    issue.write_bytes(b"\xff\xfe bad")
    code, stdout, stderr = run_cli(capsys, "demo-agent", str(store_dir), str(issue))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and "UTF-8" in stderr
    assert len(stderr.splitlines()) == 1


def test_demo_agent_respects_round_cap(planted, tmp_path, capsys):
    store_dir, _ = planted
    issue = tmp_path / "issue.txt"
    issue.write_text(
        "unrelated words entirely\n"
        "Traceback (most recent call last)\n"
        "AlphaError: one\nBetaError: two\nGammaError: three\n"
    )
    code, stdout, _ = run_cli(
        capsys, "--json", "demo-agent", str(store_dir), str(issue), "--rounds", "1"
    )
    assert code == 0
    assert len(json.loads(stdout)["rounds"]) == 1


# --- serve (subprocess) ------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_serve_health_and_clean_shutdown(built_store):
    port = _free_port()
    with subprocess.Popen(
        [sys.executable, "-m", "memgov.cli", "serve", str(built_store), "--port", str(port)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    ) as proc:
        try:
            deadline = time.time() + 10
            health = None
            while time.time() < deadline:
                try:
                    health = requests.get(f"http://127.0.0.1:{port}/v1/health", timeout=1).json()
                    break
                except requests.RequestException:
                    time.sleep(0.1)
            assert health is not None, "server never came up"
            manifest = json.loads((built_store / "manifest.json").read_text())
            assert health["card_count"] == manifest["count"]
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()


def test_serve_stops_on_sigterm_while_a_connection_stays_silent(built_store):
    port = _free_port()
    with subprocess.Popen(
        [sys.executable, "-u", "-m", "memgov.cli", "serve", str(built_store), "--port", str(port)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    ) as proc:
        try:
            assert proc.stdout.readline().startswith("serving ")
            with socket.create_connection(("127.0.0.1", port), timeout=10):
                # Answered after the silent connection was accepted and handed on.
                assert requests.get(f"http://127.0.0.1:{port}/v1/health", timeout=10).ok
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=REQUEST_TIMEOUT_SECONDS + 2) == 0
            assert "shut down cleanly" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()


def test_serve_occupied_port_is_infrastructure_error(built_store):
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "memgov.cli", "serve", str(built_store), "--port", str(port)],
            capture_output=True,
            timeout=30,
        )
        assert proc.returncode == 3
    finally:
        blocker.close()


def test_console_script_entrypoint(built_store):
    proc = subprocess.run(
        [sys.executable, "-m", "memgov.cli", "--json", "stats", str(built_store)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["format_version"] == 3
