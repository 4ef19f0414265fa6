"""Each memgov process imports only what its command runs. Every check runs
in a fresh interpreter, since this test process has long imported it all."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from memgov.embedding import HashingEmbedder
from memgov.store import MemoryStore

from conftest import make_card

ROOT = Path(__file__).resolve().parents[1]

# What only govern, select, purify and demo-agent run, and email.utils,
# which the server does without.
PIPELINE = [
    "memgov.pipeline",
    "memgov.config",
    "memgov.audit",
    "memgov.ingestion",
    "memgov.purification",
    "memgov.distillation",
    "memgov.diffs",
    "memgov.quality",
    "memgov.selection",
    "memgov.providers",
    "concurrent.futures",
    "email.utils",
]


def loaded_after(code: str, modules: list[str]) -> list[str]:
    """Run `code` in a fresh interpreter over src/; return which of
    `modules` it left in sys.modules."""
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in {modules!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize(
    "code, absent",
    [
        ("import memgov.cli", ["requests", "http.server", "memgov.server"]),
        ("import memgov.store", ["requests", "memgov.pipeline"]),
        ("import memgov.providers, memgov.ingestion", ["requests"]),
        ("import memgov.ingestion", ["requests", "memgov.providers"]),
    ],
    ids=["cli", "store", "http-clients", "ingestion"],
)
def test_import_leaves_unused_modules_unloaded(code, absent):
    assert loaded_after(code, absent) == []


@pytest.mark.parametrize("code", ["import memgov.cli", "import memgov.cli, memgov.server"])
def test_cli_and_server_start_without_the_pipeline(code):
    assert loaded_after(code, PIPELINE) == []


@pytest.mark.parametrize("command", ["search", "browse"])
def test_search_and_browse_run_without_the_server(tmp_path, command):
    card = make_card(summary="worker pool deadlock on shutdown")
    store = MemoryStore(HashingEmbedder())
    store.index_card(card)
    store.save(tmp_path)
    argv = [command, str(tmp_path), "worker pool deadlock" if command == "search" else card.card_id]
    code = (
        "import contextlib, io\n"
        "from memgov import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0"
    )
    assert loaded_after(code, ["memgov.server", "http.server", "requests"]) == []


@pytest.mark.parametrize("command", ["search", "browse", "stats"])
def test_store_commands_run_without_the_pipeline(tmp_path, command):
    card = make_card(summary="worker pool deadlock on shutdown")
    store = MemoryStore(HashingEmbedder())
    store.index_card(card)
    store.save(tmp_path)
    extra = {"search": ["worker pool deadlock"], "browse": [card.card_id], "stats": []}[command]
    code = (
        "import contextlib, io\n"
        "from memgov import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({[command, str(tmp_path), *extra]!r}) == 0"
    )
    assert loaded_after(code, PIPELINE) == []
