from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memgov.diffs import (
    ADD,
    CONTEXT,
    DEL,
    Diff,
    DiffLine,
    DiffParseError,
    FileDiff,
    Hunk,
    hunk_stats,
    parse_unified_diff,
    render_diff,
)

from diff_corpus import build_adversarial, build_corpus

MINIMAL = "--- a/f\n+++ b/f\n@@ -1,1 +1,1 @@\n-x\n+y\n"


def test_minimal_diff():
    diff = parse_unified_diff(MINIMAL)
    assert len(diff.files) == 1
    f = diff.files[0]
    assert (f.old_path, f.new_path) == ("f", "f")
    assert len(f.hunks) == 1
    h = f.hunks[0]
    assert (h.old_start, h.old_len, h.new_start, h.new_len) == (1, 1, 1, 1)
    assert [(l.kind, l.text) for l in h.lines] == [(DEL, "x"), (ADD, "y")]


def test_empty_input_is_an_error():
    for text in ("", "   \n  "):
        with pytest.raises(DiffParseError) as err:
            parse_unified_diff(text)
        assert "empty input" in str(err.value)
        assert err.value.line == 1


def test_count_mismatch_cites_hunk_header_line():
    text = "--- a/f\n+++ b/f\n@@ -1,1 +1,2 @@\n-x\n+y\n"
    with pytest.raises(DiffParseError) as err:
        parse_unified_diff(text)
    assert err.value.line == 3


def test_malformed_file_header_has_line_number():
    with pytest.raises(DiffParseError) as err:
        parse_unified_diff("not a diff\n--- a/f\n")
    assert err.value.line == 1


def test_overshoot_line_is_an_error():
    text = "--- a/f\n+++ b/f\n@@ -1,1 +1,1 @@\n-x\n+y\n+z\n"
    with pytest.raises(DiffParseError) as err:
        parse_unified_diff(text)
    assert err.value.line == 6


def test_counts_match_line_kinds():
    corpus = build_corpus(count=60)
    for text in corpus:
        diff = parse_unified_diff(text)
        for f in diff.files:
            for h in f.hunks:
                old = sum(1 for l in h.lines if l.kind in (CONTEXT, DEL))
                new = sum(1 for l in h.lines if l.kind in (CONTEXT, ADD))
                assert old == h.old_len and new == h.new_len


def test_omitted_count_defaults_to_one():
    text = "--- a/f\n+++ b/f\n@@ -3 +3 @@\n-a\n+b\n"
    h = parse_unified_diff(text).files[0].hunks[0]
    assert (h.old_len, h.new_len) == (1, 1)


def test_section_header_is_preserved():
    text = "--- a/f\n+++ b/f\n@@ -1,1 +1,1 @@ def frob():\n-x\n+y\n"
    diff = parse_unified_diff(text)
    assert diff.files[0].hunks[0].section == "def frob():"
    assert parse_unified_diff(render_diff(diff)) == diff


def test_no_newline_marker_round_trips():
    text = (
        "--- a/f\n+++ b/f\n@@ -1,1 +1,1 @@\n-old\n"
        "\\ No newline at end of file\n+new\n\\ No newline at end of file\n"
    )
    diff = parse_unified_diff(text)
    lines = diff.files[0].hunks[0].lines
    assert all(l.no_newline for l in lines)
    assert parse_unified_diff(render_diff(diff)) == diff


def test_git_metadata_is_recorded():
    text = (
        "diff --git a/x.py b/x.py\n"
        "old mode 100644\n"
        "new mode 100755\n"
    )
    diff = parse_unified_diff(text)
    f = diff.files[0]
    assert f.hunks == ()
    assert f.metadata == ("old mode 100644", "new mode 100755")
    assert parse_unified_diff(render_diff(diff)) == diff


def test_rename_paths_come_from_rename_lines():
    text = (
        "diff --git a/old.py b/new.py\n"
        "similarity index 100%\n"
        "rename from old.py\n"
        "rename to new.py\n"
    )
    f = parse_unified_diff(text).files[0]
    assert (f.old_path, f.new_path) == ("old.py", "new.py")


def test_binary_patch_is_rejected():
    with pytest.raises(DiffParseError) as err:
        parse_unified_diff("Binary files a/img.png and b/img.png differ\n")
    assert "binary" in str(err.value)
    git_binary = (
        "diff --git a/img.png b/img.png\n"
        "index 1111111..2222222 100644\n"
        "GIT binary patch\n"
        "literal 42\n"
    )
    with pytest.raises(DiffParseError):
        parse_unified_diff(git_binary)


def test_timestamps_in_labels_are_dropped():
    text = (
        "--- a/f.txt\t2024-01-01 10:00:00.000000000 +0000\n"
        "+++ b/f.txt\t2024-01-02 10:00:00.000000000 +0000\n"
        "@@ -1,1 +1,1 @@\n-x\n+y\n"
    )
    f = parse_unified_diff(text).files[0]
    assert (f.old_path, f.new_path) == ("f.txt", "f.txt")


def test_dev_null_paths_survive():
    text = "--- /dev/null\n+++ b/new.txt\n@@ -0,0 +1,1 @@\n+hello\n"
    diff = parse_unified_diff(text)
    f = diff.files[0]
    assert f.old_path == "/dev/null" and f.new_path == "new.txt"
    assert f.paths() == {"new.txt"}
    assert parse_unified_diff(render_diff(diff)) == diff


def test_corpus_parses_and_fixpoints():
    corpus = build_corpus(count=200)
    for text in corpus:
        diff = parse_unified_diff(text)
        rendered = render_diff(diff)
        assert parse_unified_diff(rendered) == diff


def test_adversarial_mutations_fail_with_line_numbers():
    for text in build_adversarial(count=50):
        with pytest.raises(DiffParseError) as err:
            parse_unified_diff(text)
        assert isinstance(err.value.line, int) and err.value.line >= 1


def test_hunk_stats_counts_adds_and_dels():
    stats = hunk_stats(parse_unified_diff(MINIMAL))
    assert stats == {"f": (1, 1, 1)}


# --- render/parse fixpoint properties --------------------------------------

# Paths and header text the format can carry: no whitespace, so no " b/"
# splits a git header line and no label loses a tail.
_PATHS = st.text("abxyz019._/-", min_size=1, max_size=12)
_TEXT = st.text(st.characters(blacklist_characters="\n"), max_size=20)
_METADATA = st.sampled_from(
    ["old mode 100644", "new mode 100755", "new file mode 100644", "deleted file mode 100644",
     "index 1a2b3c4..5d6e7f8 100644", "similarity index 90%", "copy from q", "copy to r"]
)


@st.composite
def hunks(draw):
    kinds = draw(st.lists(st.sampled_from([CONTEXT, ADD, DEL]), max_size=6))
    lines = tuple(DiffLine(kind, draw(_TEXT), draw(st.booleans())) for kind in kinds)
    old_len = sum(1 for line in lines if line.kind != ADD)
    new_len = sum(1 for line in lines if line.kind != DEL)
    section = draw(_TEXT).lstrip()
    return Hunk(draw(st.integers(0, 999)), old_len, draw(st.integers(0, 999)), new_len, section, lines)


@st.composite
def file_diffs(draw):
    metadata = tuple(draw(st.lists(_METADATA, max_size=3)))
    old, new = draw(_PATHS), draw(_PATHS)
    if draw(st.booleans()):  # a rename names its paths in the metadata too
        metadata += (f"rename from {old}", f"rename to {new}")
    file_hunks = tuple(draw(st.lists(hunks(), max_size=3)))
    if file_hunks:  # only labels can say /dev/null
        old = draw(st.sampled_from([old, "/dev/null"]))
        new = draw(st.sampled_from([new, "/dev/null"]))
    return FileDiff(old, new, file_hunks, metadata)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(diff=st.lists(file_diffs(), min_size=1, max_size=4).map(lambda files: Diff(tuple(files))))
def test_generated_diffs_round_trip(diff):
    assert parse_unified_diff(render_diff(diff)) == diff


_SOUP_LINES = [
    "diff --git a/x b/x", "diff --git a/y b/z", "--- a/x", "+++ b/x", "--- /dev/null",
    "+++ /dev/null", "--- y\t2024-01-01", "@@ -1 +1 @@", "@@ -1,2 +1,2 @@  def f():",
    "@@ -0,0 +1 @@", "@@ -1 +0,0 @@", "+a", "-a", " a", "", "\\ No newline at end of file",
    "new file mode 100644", "rename from x", "rename to w", "index 1..2", "Binary files a and b differ",
    "garbage",
]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(lines=st.lists(st.sampled_from(_SOUP_LINES), min_size=1, max_size=14), newline=st.booleans())
@example(
    lines=["diff --git a/x b/x", "diff --git a/y b/z", "--- a/x", "+++ b/x", "@@ -1 +1 @@", "-a", "+a"],
    newline=True,
)
def test_line_soup_parses_to_a_fixpoint_or_fails(lines, newline):
    text = "\n".join(lines) + ("\n" if newline else "")
    try:
        diff = parse_unified_diff(text)
    except DiffParseError:
        return
    assert parse_unified_diff(render_diff(diff)) == diff
