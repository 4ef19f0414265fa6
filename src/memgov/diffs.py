"""Strict unified-diff parsing and rendering.

The parser accepts standard unified format: optional git-style file headers
("diff --git", extended header lines such as mode changes and renames),
"---"/"+++" label lines, and "@@" hunks. Extended headers are recorded as
file-level metadata. Binary patches ("Binary files ... differ",
"GIT binary patch") are rejected: cards need line-level semantics.

Parsing is all-or-nothing. Malformed input raises DiffParseError with a
1-based line number; there is never a partial result. Hunk line counts are
checked against the declared lengths while parsing, so a successfully
parsed Diff always satisfies |context|+|del| == old_len and
|context|+|add| == new_len per hunk.

render_diff() produces a canonical text form (full hunk counts, no
timestamps) whose re-parse equals the original Diff.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DiffParseError

CONTEXT = "context"
ADD = "add"
DEL = "del"

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@(.*)$")
_GIT_HEADER_RE = re.compile(r"^diff --git a/(.*) b/(.*)$")
_RENAME_FROM_RE = re.compile(r"^rename from (.*)$")
_RENAME_TO_RE = re.compile(r"^rename to (.*)$")

# Extended git header lines tolerated between "diff --git" and "---".
_EXT_HEADER_PREFIXES = (
    "old mode ",
    "new mode ",
    "deleted file mode ",
    "new file mode ",
    "copy from ",
    "copy to ",
    "rename from ",
    "rename to ",
    "similarity index ",
    "dissimilarity index ",
    "index ",
)

_BINARY_MARKERS = ("GIT binary patch",)
_BINARY_RE = re.compile(r"^Binary files .* differ$")


@dataclass(frozen=True)
class DiffLine:
    kind: str  # context | add | del
    text: str
    no_newline: bool = False  # "\ No newline at end of file" follows


@dataclass(frozen=True)
class Hunk:
    old_start: int
    old_len: int
    new_start: int
    new_len: int
    section: str
    lines: tuple[DiffLine, ...]


@dataclass(frozen=True)
class FileDiff:
    old_path: str
    new_path: str
    hunks: tuple[Hunk, ...]
    metadata: tuple[str, ...] = ()  # raw extended-header lines, verbatim

    def paths(self) -> set[str]:
        return {p for p in (self.old_path, self.new_path) if p != "/dev/null"}


@dataclass(frozen=True)
class Diff:
    files: tuple[FileDiff, ...]

    def changed_paths(self) -> list[str]:
        seen: dict[str, None] = {}
        for f in self.files:
            for p in sorted(f.paths()):
                seen.setdefault(p, None)
        return list(seen)


def _strip_label(raw: str, prefix: str) -> str:
    """Turn a ---/+++ label into a path: drop timestamp, a/ or b/ prefix."""
    label = raw.split("\t", 1)[0].strip()
    if label != "/dev/null" and label.startswith(prefix):
        label = label[len(prefix):]
    return label


class _Parser:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        if self.lines and self.lines[-1] == "":
            self.lines.pop()  # trailing newline
        self.pos = 0  # 0-based index into self.lines

    @property
    def lineno(self) -> int:
        return self.pos + 1

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def advance(self) -> str:
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def fail(self, message: str, lineno: int | None = None) -> DiffParseError:
        return DiffParseError(message, line=self.lineno if lineno is None else lineno)

    def parse(self) -> Diff:
        if not self.lines:
            raise DiffParseError("empty input", line=1)
        files: list[FileDiff] = []
        while (line := self.peek()) is not None:
            if line == "":
                self.advance()  # blank separator between files / at EOF
                continue
            files.append(self.parse_file())
        if not files:
            raise DiffParseError("empty input", line=1)
        return Diff(files=tuple(files))

    def parse_file(self) -> FileDiff:
        line = self.peek()
        assert line is not None
        if _BINARY_RE.match(line) or any(line.startswith(p) for p in _BINARY_MARKERS):
            raise self.fail("binary patch is not parseable content")
        if line.startswith("diff --git "):
            return self.parse_git_file()
        if line.startswith("--- "):
            return self.parse_plain_file(metadata=())
        raise self.fail(f"malformed file header: {line[:80]!r}")

    def parse_git_file(self) -> FileDiff:
        header_no = self.lineno
        m = _GIT_HEADER_RE.match(self.advance())
        if m is None:
            raise self.fail("malformed git file header", header_no)
        git_old, git_new = m.group(1), m.group(2)

        metadata: list[str] = []
        rename_from = rename_to = None
        while (line := self.peek()) is not None:
            if _BINARY_RE.match(line) or any(line.startswith(p) for p in _BINARY_MARKERS):
                raise self.fail("binary patch is not parseable content")
            if line.startswith(_EXT_HEADER_PREFIXES):
                if (m := _RENAME_FROM_RE.match(line)) is not None:
                    rename_from = m.group(1)
                elif (m := _RENAME_TO_RE.match(line)) is not None:
                    rename_to = m.group(1)
                metadata.append(self.advance())
                continue
            break

        old_path = rename_from if rename_from is not None else git_old
        new_path = rename_to if rename_to is not None else git_new

        line = self.peek()
        if line is not None and line.startswith("--- "):
            return self.parse_plain_file(metadata=tuple(metadata))
        # Header-only entry (mode change, pure rename): no hunks.
        if line is None or line == "" or line.startswith("diff --git "):
            return FileDiff(old_path=old_path, new_path=new_path, hunks=(), metadata=tuple(metadata))
        raise self.fail(f"unexpected line in file header: {line[:80]!r}")

    def parse_plain_file(self, metadata: tuple[str, ...]) -> FileDiff:
        minus_no = self.lineno
        minus = self.advance()
        if not minus.startswith("--- "):
            raise self.fail("expected '---' file label", minus_no)
        plus = self.peek()
        if plus is None or not plus.startswith("+++ "):
            raise self.fail("expected '+++' file label after '---'")
        self.advance()

        old_path = _strip_label(minus[4:], "a/")
        new_path = _strip_label(plus[4:], "b/")

        hunks: list[Hunk] = []
        while (line := self.peek()) is not None and line.startswith("@@"):
            hunks.append(self.parse_hunk())
        if not hunks:
            raise self.fail("file has labels but no hunks", minus_no)
        # Anything that still looks like hunk content here is an error, not
        # the start of the next file.
        line = self.peek()
        if line is not None and line != "" and not (
            line.startswith("diff --git ") or line.startswith("--- ")
        ):
            raise self.fail(f"line outside any hunk: {line[:80]!r}")
        return FileDiff(
            old_path=old_path, new_path=new_path, hunks=tuple(hunks), metadata=metadata
        )

    def parse_hunk(self) -> Hunk:
        header_no = self.lineno
        m = _HUNK_RE.match(self.advance())
        if m is None:
            raise self.fail("malformed hunk header", header_no)
        old_start = int(m.group(1))
        old_len = int(m.group(2)) if m.group(2) is not None else 1
        new_start = int(m.group(3))
        new_len = int(m.group(4)) if m.group(4) is not None else 1
        section = m.group(5).lstrip()

        lines: list[DiffLine] = []
        old_left, new_left = old_len, new_len
        while old_left > 0 or new_left > 0:
            raw = self.peek()
            if raw is None:
                raise self.fail(
                    f"hunk truncated: {old_left} old / {new_left} new lines missing", header_no
                )
            if raw.startswith("\\"):
                # "\ No newline at end of file" annotates the previous line.
                if not lines:
                    raise self.fail("no-newline marker before any hunk line")
                self.advance()
                prev = lines[-1]
                lines[-1] = DiffLine(prev.kind, prev.text, no_newline=True)
                continue
            if raw == "":
                kind, text = CONTEXT, ""  # tolerated: trailing-space-stripped context line
            elif raw[0] == " ":
                kind, text = CONTEXT, raw[1:]
            elif raw[0] == "+":
                kind, text = ADD, raw[1:]
            elif raw[0] == "-":
                kind, text = DEL, raw[1:]
            else:
                raise self.fail(
                    f"hunk body ended early ({old_left} old / {new_left} new lines missing)",
                    header_no,
                )
            if kind in (CONTEXT, DEL):
                if old_left <= 0:
                    raise self.fail("hunk contains more old-side lines than declared")
                old_left -= 1
            if kind in (CONTEXT, ADD):
                if new_left <= 0:
                    raise self.fail("hunk contains more new-side lines than declared")
                new_left -= 1
            self.advance()
            lines.append(DiffLine(kind, text))
        # A trailing no-newline marker can follow the final hunk line.
        raw = self.peek()
        if raw is not None and raw.startswith("\\"):
            self.advance()
            prev = lines[-1]
            lines[-1] = DiffLine(prev.kind, prev.text, no_newline=True)
        return Hunk(old_start, old_len, new_start, new_len, section, tuple(lines))


def parse_unified_diff(text: str) -> Diff:
    """Parse unified-diff text into a Diff, or raise DiffParseError."""
    if not text.strip():
        raise DiffParseError("empty input", line=1)
    return _Parser(text).parse()


_KIND_PREFIX = {CONTEXT: " ", ADD: "+", DEL: "-"}


def render_diff(diff: Diff) -> str:
    """Render a Diff back to canonical unified-diff text.

    parse_unified_diff(render_diff(d)) == d for any parsed d.
    """
    out: list[str] = []
    for f in diff.files:
        # Every file gets its own "diff --git" line, so that a file's labels
        # and hunks never read back as part of a header-only entry before it.
        old = f.old_path if f.old_path != "/dev/null" else f.new_path
        new = f.new_path if f.new_path != "/dev/null" else f.old_path
        out.append(f"diff --git a/{old} b/{new}")
        out.extend(f.metadata)
        if f.hunks:
            old_label = f.old_path if f.old_path == "/dev/null" else f"a/{f.old_path}"
            new_label = f.new_path if f.new_path == "/dev/null" else f"b/{f.new_path}"
            out.append(f"--- {old_label}")
            out.append(f"+++ {new_label}")
        for h in f.hunks:
            suffix = f" {h.section}" if h.section else ""
            out.append(f"@@ -{h.old_start},{h.old_len} +{h.new_start},{h.new_len} @@{suffix}")
            for line in h.lines:
                out.append(_KIND_PREFIX[line.kind] + line.text)
                if line.no_newline:
                    out.append("\\ No newline at end of file")
    return "\n".join(out) + "\n"


def hunk_stats(diff: Diff) -> dict[str, tuple[int, int, int]]:
    """Per-path (hunks, added, deleted) counts, for digests and summaries."""
    stats: dict[str, tuple[int, int, int]] = {}
    for f in diff.files:
        path = f.new_path if f.new_path != "/dev/null" else f.old_path
        hunks, added, deleted = stats.get(path, (0, 0, 0))
        for h in f.hunks:
            hunks += 1
            added += sum(1 for l in h.lines if l.kind == ADD)
            deleted += sum(1 for l in h.lines if l.kind == DEL)
        stats[path] = (hunks, added, deleted)
    return stats
