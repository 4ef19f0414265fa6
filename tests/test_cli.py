from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest
import requests

from memgov.cards import card_from_dict, validate_schema
from memgov.cli import main
from memgov.config import PipelineConfig
from memgov.distillation import RuleBasedDistiller
from memgov.errors import ConfigError
from memgov.ingestion import load_fixture_triplets
from memgov.pipeline import run_govern
from memgov.quality import RuleBasedEvaluator
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


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_bad_workers_flag_is_usage_error(tmp_path, small_fixture, capsys, workers):
    out = tmp_path / "store"
    code, _, err = run_cli(capsys, "--workers", workers, "govern", str(small_fixture), str(out))
    assert code == 1
    assert err.startswith("usage error: ") and "--workers" in err
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_run_govern_rejects_workers_below_one(tmp_path, small_fixture, workers):
    with pytest.raises(ConfigError, match="workers"):
        run_govern(
            load_fixture_triplets(small_fixture),
            tmp_path / "store",
            PipelineConfig(),
            distiller=RuleBasedDistiller(),
            evaluator=RuleBasedEvaluator(),
            workers=workers,
        )
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize(
    "config",
    [{"workers": "two"}, {"workers": 0}, {"dedup": {"threshold": 7}}],
    ids=["workers-string", "workers-zero", "dedup-threshold-7"],
)
def test_bad_config_value_is_data_error(tmp_path, small_fixture, capsys, config):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "store"
    code, _, err = run_cli(capsys, "--config", str(config_path), "govern", str(small_fixture), str(out))
    assert code == 2
    assert err.startswith("error: ")
    assert not out.exists()


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
    proc = subprocess.Popen(
        [sys.executable, "-m", "memgov.cli", "serve", str(built_store), "--port", str(port)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
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
    assert json.loads(proc.stdout)["format_version"] == 2
