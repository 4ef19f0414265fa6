from __future__ import annotations

import pytest

from memgov.errors import ConfigError
from memgov.ingestion import AuthorRole
from memgov.purification import (
    REASON_ANCHORS,
    REASON_DIFF,
    REASON_LINKAGE,
    REASON_RATIO,
    PurificationConfig,
    PurifiedInstance,
    Rejection,
    RuleBasedCommentClassifier,
    combined_thread,
    detect_anchors,
    purify,
    scan_text_anchors,
)

from conftest import TRACEBACK_BODY, make_comment, make_triplet

CLASSIFIER = RuleBasedCommentClassifier()

TECHNICAL = "I hit this error and the traceback points at the parser"  # two lexicon terms
CHATTER = "thanks so much, great work everyone!"


def test_traceback_block_is_one_anchor():
    triplet = make_triplet(body=TRACEBACK_BODY)
    anchors = detect_anchors(triplet, PurificationConfig())
    issue_anchors = [a for a in anchors if a.source == "issue_body"]
    assert len(issue_anchors) == 1
    text = issue_anchors[0].text
    assert "Traceback (most recent call last)" in text
    assert 'File "src/parser.py"' in text
    assert "ValueError: empty input" in text


def test_prose_only_issue_has_no_anchors():
    triplet = make_triplet(
        body="It would be nice to have a dark theme.",
        issue_comments=[make_comment("agreed, purely cosmetic request")],
        discussion=[make_comment("sounds good")],
    )
    assert detect_anchors(triplet, PurificationConfig()) == []


def test_exception_name_in_comment_is_an_anchor():
    triplet = make_triplet(
        body="something is off",
        issue_comments=[make_comment("I see ValueError: bad input when running")],
    )
    anchors = detect_anchors(triplet, PurificationConfig())
    comment_anchors = [a for a in anchors if a.source == "issue_comment"]
    assert any("ValueError: bad input" in a.text for a in comment_anchors)


def test_anchor_sources_are_recorded():
    triplet = make_triplet(
        body="plain prose",
        issue_comments=[make_comment("AssertionError in test")],
        discussion=[make_comment("KeyError: 'x' seen during review")],
    )
    sources = {a.source for a in detect_anchors(triplet, PurificationConfig())}
    assert sources == {"issue_comment", "pr_discussion"}


def test_scan_text_anchors_plain_text():
    excerpts = scan_text_anchors("prose\nTypeError: cannot add\nprose")
    assert excerpts == ["TypeError: cannot add"]


def test_invalid_anchor_pattern_is_config_error():
    with pytest.raises(ConfigError):
        PurificationConfig(anchor_patterns=("[unclosed",))


def test_classifier_rules():
    assert CLASSIFIER(make_comment("```py\nx = 1\n```"))  # fenced code
    assert CLASSIFIER(make_comment("ValueError: boom"))  # anchor
    assert CLASSIFIER(make_comment("see src/parser.py for details"))  # file path
    assert CLASSIFIER(make_comment(TECHNICAL))  # two lexicon terms
    assert not CLASSIFIER(make_comment("error"))  # single term is not enough
    assert not CLASSIFIER(make_comment(CHATTER))
    assert not CLASSIFIER(make_comment("", role=AuthorRole.BOT))


def ratio_of(issue_comments, discussion=()):
    result = purify(make_triplet(issue_comments=list(issue_comments), discussion=list(discussion)))
    assert isinstance(result, PurifiedInstance), result
    return result.technical_ratio


def test_ratio_all_technical():
    assert ratio_of([make_comment(TECHNICAL) for _ in range(5)]) == 1.0


def test_ratio_empty_thread_is_vacuous():
    assert ratio_of([]) == 1.0


def test_ratio_one_of_five():
    # Exactly tau: rejection is strictly below, so the instance survives.
    comments = [make_comment(TECHNICAL)] + [make_comment(CHATTER) for _ in range(4)]
    assert ratio_of(comments) == pytest.approx(0.2)


def test_ratio_covers_issue_and_pr_threads():
    ratio = ratio_of(
        [make_comment(TECHNICAL)],
        [make_comment(CHATTER), make_comment(CHATTER), make_comment(CHATTER)],
    )
    assert ratio == pytest.approx(0.25)


def test_instance_keeps_technical_comments_in_thread_order():
    triplet = make_triplet(
        issue_comments=[make_comment(CHATTER), make_comment(TECHNICAL + " one")],
        discussion=[make_comment(TECHNICAL + " two"), make_comment(CHATTER)],
    )
    instance = purify(triplet)
    thread = combined_thread(triplet)
    assert instance.technical_comments == (thread[1], thread[2])


def test_purify_accepts_clean_triplet(instance):
    assert isinstance(instance, PurifiedInstance)
    assert instance.anchors and instance.technical_ratio >= 0.2


def test_purify_rejects_unmerged_pr():
    result = purify(make_triplet(merged=False))
    assert isinstance(result, Rejection) and result.reason == REASON_LINKAGE


def test_purify_rejects_unlinked_pr():
    result = purify(make_triplet(linked=[999]))
    assert isinstance(result, Rejection) and result.reason == REASON_LINKAGE


def test_purify_rejects_bad_diff():
    result = purify(make_triplet(patch_text="not a diff"))
    assert isinstance(result, Rejection) and result.reason == REASON_DIFF


def test_purify_rejects_missing_anchors():
    result = purify(
        make_triplet(
            body="plain feature request",
            issue_comments=[make_comment(TECHNICAL)],
            discussion=[make_comment(TECHNICAL)],
        )
    )
    assert isinstance(result, Rejection) and result.reason == REASON_ANCHORS


def test_purify_reports_first_failing_check():
    # Both linkage and diff are broken; linkage is check (a).
    result = purify(make_triplet(merged=False, patch_text="junk"))
    assert isinstance(result, Rejection) and result.reason == REASON_LINKAGE


def make_ratio_triplet(technical: int, total: int):
    comments = [make_comment(TECHNICAL) for _ in range(technical)]
    comments += [make_comment(CHATTER) for _ in range(total - technical)]
    return make_triplet(issue_comments=comments, discussion=[])


def test_tau_boundary_exact_is_accepted():
    result = purify(make_ratio_triplet(1, 5))  # ratio exactly 0.2
    assert isinstance(result, PurifiedInstance)
    assert result.technical_ratio == pytest.approx(0.2)


def test_just_below_tau_is_rejected():
    result = purify(make_ratio_triplet(199, 1000))  # 0.199
    assert isinstance(result, Rejection) and result.reason == REASON_RATIO


def test_raising_tau_never_accepts_a_rejected_instance():
    triplet = make_ratio_triplet(1, 4)  # ratio 0.25
    for tau_low, tau_high in ((0.1, 0.3), (0.25, 0.8)):
        low = purify(triplet, PurificationConfig(tau=tau_low))
        high = purify(triplet, PurificationConfig(tau=tau_high))
        if isinstance(low, Rejection):
            assert isinstance(high, Rejection)


def test_purify_is_deterministic(triplet):
    a = purify(triplet)
    b = purify(triplet)
    assert isinstance(a, PurifiedInstance) and isinstance(b, PurifiedInstance)
    assert a.anchors == b.anchors and a.technical_ratio == b.technical_ratio


def test_tau_out_of_range_is_config_error():
    with pytest.raises(ConfigError):
        PurificationConfig(tau=1.5)
