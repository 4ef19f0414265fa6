"""The benchmark's tracer wraps memgov functions by name; a rename or
deletion under src/ must fail here rather than in the benchmark run."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from pipeline_fixtures import write_mixed_fixture

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs_against_src():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_govern_records_the_pipeline_and_each_parse(tmp_path):
    fixture, trace = tmp_path / "triplets.jsonl", tmp_path / "trace.json"
    write_mixed_fixture(fixture, count=40)
    argv = ["--fixture-mode", "--json", "govern", str(fixture), str(tmp_path / "store")]
    code = (
        "import contextlib, io, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "from memgov import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        f"tracer.write({str(trace)!r})"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(trace.read_text())["spans"]
    names = [name for name, _start, _end, _parent in spans]
    assert names.count("pipeline.run_govern") == 1
    govern = names.index("pipeline.run_govern")
    parses = [parent for name, _start, _end, parent in spans if name == "ingestion.parse"]
    assert len(parses) >= 40 and set(parses) == {govern}  # one per item, inside the run
