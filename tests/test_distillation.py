from __future__ import annotations

import pytest

from memgov.cards import validate_schema
from memgov.distillation import (
    CARD_FIELDS,
    ChatDistiller,
    DistillerRequest,
    RuleBasedDistiller,
    purify_content,
)
from memgov.errors import MalformedOutputError, ProviderError
from memgov.providers import PromptTemplate

from memgov.purification import RuleBasedCommentClassifier, combined_thread, purify

from conftest import make_comment, make_instance, make_triplet

TECHNICAL = "I hit this error and the traceback points at the parser"
CHATTER = "thanks so much, great work everyone!"

TRACE_5_LINES = (
    "Traceback (most recent call last)\n"
    '  File "src/parser.py", line 9, in parse\n'
    '  File "src/parser.py", line 22, in scan\n'
    '  File "src/parser.py", line 40, in emit\n'
    "ValueError: empty input"
)


def request_for(instance, feedback=()):
    return DistillerRequest(
        instance=instance, condensed=purify_content(instance), feedback=tuple(feedback)
    )


def test_purify_content_drops_non_technical():
    instance = make_instance(
        issue_comments=[make_comment(TECHNICAL) for _ in range(3)] + [make_comment(CHATTER)],
        discussion=[make_comment(TECHNICAL), make_comment(CHATTER)],
    )
    condensed = purify_content(instance)
    assert len(condensed.kept_comments) == 4
    assert condensed.dropped_count == 2


def test_purify_content_keeps_all_technical():
    instance = make_instance(
        issue_comments=[make_comment(TECHNICAL) for _ in range(3)],
        discussion=[make_comment(TECHNICAL)],
    )
    condensed = purify_content(instance)
    assert condensed.dropped_count == 0


def test_duplicate_log_block_collapses_with_marker():
    body = TRACE_5_LINES + "\n" + TRACE_5_LINES
    instance = make_instance(issue_comments=[make_comment(body)])
    condensed = purify_content(instance)
    kept = condensed.kept_comments[0].body
    assert kept.count("Traceback (most recent call last)") == 1
    assert "[×2]" in kept


def test_short_repeats_are_not_collapsed():
    body = "ok\nok\nvalue error in src/parser.py"  # 1-line repeat, below the 3-line floor
    instance = make_instance(issue_comments=[make_comment(body)])
    condensed = purify_content(instance)
    assert condensed.kept_comments[0].body == body


def test_purify_content_is_idempotent():
    body = TRACE_5_LINES + "\n" + TRACE_5_LINES
    instance = make_instance(
        issue_comments=[make_comment(body), make_comment(TECHNICAL), make_comment(CHATTER)]
    )
    once = purify_content(instance)
    # Re-running over the already-condensed comments must change nothing.
    from memgov.distillation import _collapse_repeated_runs

    for comment in once.kept_comments:
        assert _collapse_repeated_runs(comment.body) == comment.body


def test_each_comment_is_classified_once(monkeypatch):
    seen = []
    judge = RuleBasedCommentClassifier.__call__

    def counting(self, comment):
        seen.append(comment.body)
        return judge(self, comment)

    monkeypatch.setattr(RuleBasedCommentClassifier, "__call__", counting)
    triplet = make_triplet(
        issue_comments=[make_comment(f"{TECHNICAL} {i}") for i in range(3)] + [make_comment(CHATTER)],
        discussion=[make_comment(f"{TECHNICAL} 3"), make_comment(CHATTER + " too")],
    )
    instance = purify(triplet)
    condensed = purify_content(instance)
    assert seen == [c.body for c in combined_thread(triplet)]
    assert condensed.kept_comments == instance.technical_comments
    assert condensed.dropped_count == 2


def test_diff_summary_lines_present(instance):
    condensed = purify_content(instance)
    assert condensed.diff_summary_lines == ("src/parser.py: 1 hunk, +1 -0",)


def test_stub_summary_contains_issue_title():
    instance = make_instance(title="crash on empty input")
    card = RuleBasedDistiller().distill(request_for(instance))
    assert "crash on empty input" in card.index.problem_summary


def test_stub_pads_signals_to_ten_from_diff_paths():
    body = (
        "observed failures:\n"
        "FooError: one\nBarException: two\nBazError: three\nQuxException: four\n"
    )
    diff = (
        "--- a/store/evict/manager.py\n"
        "+++ b/store/evict/manager.py\n"
        "@@ -1,1 +1,2 @@\n context\n+fix\n"
    )
    instance = make_instance(title="cache corruption shutdown", body=body, patch_text=diff)
    card = RuleBasedDistiller().distill(request_for(instance))
    assert list(card.index.signals) == [
        "fooerror", "barexception", "bazerror", "quxexception",
        "cache", "corruption", "shutdown",
        "store", "evict", "manager",
    ]


def test_stub_is_deterministic(instance):
    request = request_for(instance)
    a = RuleBasedDistiller().distill(request)
    b = RuleBasedDistiller().distill(request)
    assert a == b


def test_stub_output_is_schema_valid(instance):
    card = RuleBasedDistiller().distill(request_for(instance))
    assert validate_schema(card) == []


def test_feedback_regenerates_only_named_fields(instance):
    distiller = RuleBasedDistiller()
    base = distiller.distill(request_for(instance))
    feedback = [("verification-concreteness", "verification names neither tests nor steps")]
    revised = distiller.distill(request_for(instance, feedback=feedback))
    assert revised.resolution.verification != base.resolution.verification
    assert revised.resolution.root_cause == base.resolution.root_cause
    assert revised.resolution.fix_strategy == base.resolution.fix_strategy
    assert revised.index == base.index


def test_schema_feedback_targets_the_field(instance):
    distiller = RuleBasedDistiller()
    base = distiller.distill(request_for(instance))
    revised = distiller.distill(
        request_for(instance, feedback=[("schema:signals[3]", "duplicate signal")])
    )
    assert revised.index.signals != base.index.signals
    assert revised.resolution == base.resolution


class FakeProvider:
    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts: list[str] = []

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


GOOD_JSON = (
    '{"problem_summary": "parser crash on empty input", '
    '"signals": ["empty input", "parser crash", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10"], '
    '"root_cause": "missing guard", "fix_strategy": "add guard", '
    '"patch_digest": "AREA: src/parser.py\\nCHUNK: a\\nCHUNK: b\\nCHUNK: c", '
    '"verification": "pytest tests/test_parser.py"}'
)


def test_chat_distiller_parses_provider_json(instance):
    provider = FakeProvider(["Here you go:\n" + GOOD_JSON])
    card = ChatDistiller(provider).distill(request_for(instance))
    assert card.index.problem_summary == "parser crash on empty input"
    assert len(card.index.signals) == 10
    assert card.card_id  # deterministic id from the source triple


def test_chat_distiller_retries_once_on_missing_field(instance):
    missing = GOOD_JSON.replace('"verification": "pytest tests/test_parser.py"', '"x": 1')
    provider = FakeProvider([missing, GOOD_JSON])
    card = ChatDistiller(provider).distill(request_for(instance))
    assert card.resolution.verification == "pytest tests/test_parser.py"
    assert len(provider.prompts) == 2


def test_chat_distiller_surfaces_double_malformed(instance):
    missing = GOOD_JSON.replace('"verification": "pytest tests/test_parser.py"', '"x": 1')
    provider = FakeProvider([missing, missing])
    with pytest.raises(MalformedOutputError):
        ChatDistiller(provider).distill(request_for(instance))


def test_chat_distiller_retries_transient_provider_errors(instance):
    provider = FakeProvider([ProviderError("503"), GOOD_JSON])
    card = ChatDistiller(provider).distill(request_for(instance))
    assert card.resolution.root_cause == "missing guard"


def test_chat_distiller_prompt_carries_feedback(instance):
    provider = FakeProvider([GOOD_JSON])
    feedback = [("signal-quality", "too vague"), ("schema:signals", "count 9 below minimum 10")]
    ChatDistiller(provider).distill(request_for(instance, feedback=feedback))
    prompt = provider.prompts[0]
    assert "signal-quality: too vague" in prompt
    assert "schema:signals: count 9 below minimum 10" in prompt


def test_prompt_template_placeholders():
    template = PromptTemplate("title={{title}} body={{body}}")
    assert template.render({"title": "t", "body": "b"}) == "title=t body=b"
    assert template.fields == {"title", "body"}


def test_card_fields_constant_matches_schema():
    assert set(CARD_FIELDS) == {
        "problem_summary", "signals", "root_cause", "fix_strategy", "patch_digest", "verification",
    }
