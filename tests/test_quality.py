from __future__ import annotations

import pytest

from memgov.cards import validate_schema
from memgov.distillation import DistillerRequest, RuleBasedDistiller, purify_content
from memgov.errors import ConfigError, MalformedOutputError, ProviderError
from memgov.quality import (
    ChatEvaluator,
    QcAccepted,
    QcConfig,
    QcRejected,
    RuleBasedEvaluator,
    evaluate_card,
    refine_loop,
)

from conftest import make_card


class ScriptedEvaluator:
    """Returns a fixed score for every dimension, per call index."""

    def __init__(self, aggregates):
        self.aggregates = list(aggregates)
        self.calls = 0
        self.seen_cards = []

    def scores(self, card, instance, dimensions):
        value = self.aggregates[min(self.calls, len(self.aggregates) - 1)]
        self.calls += 1
        self.seen_cards.append(card)
        return {d: (value, f"{d} scored {value}") for d in dimensions}


class RecordingDistiller(RuleBasedDistiller):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.requests: list[DistillerRequest] = []

    def distill(self, request):
        self.requests.append(request)
        return super().distill(request)


def condensed_for(instance):
    return purify_content(instance)


def test_rule_based_faithfulness_full_marks(instance):
    # Signals drawn verbatim from the issue text are fully grounded.
    card = make_card(
        signals=("crash", "empty", "input", "parser", "valueerror", "traceback",
                 "empty input", "fails", "running", "files")
    )
    report = evaluate_card(card, instance, RuleBasedEvaluator(), QcConfig())
    assert report.per_dimension["faithfulness-to-source"] == 1.0


def test_rule_based_groundedness_zero_for_absent_files(instance):
    card = make_card(
        patch_digest="AREA: elsewhere/other.py\nCHUNK: a\nCHUNK: b\nCHUNK: c"
    )
    report = evaluate_card(card, instance, RuleBasedEvaluator(), QcConfig())
    assert report.per_dimension["digest-groundedness"] == 0.0


def test_aggregate_is_the_mean(instance, card):
    report = evaluate_card(card, instance, ScriptedEvaluator([0.8]), QcConfig())
    assert report.aggregate == pytest.approx(0.8)
    assert set(report.per_dimension) == set(QcConfig().dimensions)


def test_feedback_covers_exactly_low_dimensions(instance, card):
    class Mixed:
        def scores(self, card, instance, dimensions):
            return {
                d: ((0.4, "weak " + d) if i < 2 else (0.9, "fine"))
                for i, d in enumerate(dimensions)
            }

    report = evaluate_card(card, instance, Mixed(), QcConfig())
    low = {d for d, _ in report.feedback}
    assert low == set(QcConfig().dimensions[:2])


def test_out_of_range_score_is_malformed_output(instance, card):
    report_cfg = QcConfig()
    with pytest.raises(MalformedOutputError):
        evaluate_card(card, instance, ScriptedEvaluator([1.5]), report_cfg)


def test_missing_dimension_is_malformed_output(instance, card):
    class Partial:
        def scores(self, card, instance, dimensions):
            return {dimensions[0]: (1.0, "")}

    with pytest.raises(MalformedOutputError):
        evaluate_card(card, instance, Partial(), QcConfig())


def test_refine_accepts_on_first_pass(instance):
    evaluator = ScriptedEvaluator([0.9])
    outcome = refine_loop(
        instance, condensed_for(instance), RuleBasedDistiller(), evaluator, QcConfig()
    )
    assert isinstance(outcome, QcAccepted)
    assert outcome.report.iteration == 1
    assert evaluator.calls == 1
    assert validate_schema(outcome.card) == []


def test_refine_rejects_after_exactly_three_cycles(instance):
    evaluator = ScriptedEvaluator([0.1])
    distiller = RecordingDistiller()
    outcome = refine_loop(instance, condensed_for(instance), distiller, evaluator, QcConfig())
    assert isinstance(outcome, QcRejected)
    assert outcome.report.iteration == 3
    assert evaluator.calls == 3
    assert len(distiller.requests) == 3


@pytest.mark.parametrize("pass_at", [1, 2, 3])
def test_refine_accepts_at_iteration_n(instance, pass_at):
    aggregates = [0.2] * (pass_at - 1) + [0.95]
    evaluator = ScriptedEvaluator(aggregates)
    distiller = RecordingDistiller()
    outcome = refine_loop(instance, condensed_for(instance), distiller, evaluator, QcConfig())
    assert isinstance(outcome, QcAccepted)
    assert outcome.report.iteration == pass_at
    assert evaluator.calls == pass_at


def test_nth_request_carries_previous_feedback_verbatim(instance):
    evaluator = ScriptedEvaluator([0.2, 0.2, 0.2])
    distiller = RecordingDistiller()
    refine_loop(instance, condensed_for(instance), distiller, evaluator, QcConfig())
    first = distiller.requests[0]
    assert first.feedback == ()
    cfg = QcConfig()
    expected = tuple((d, f"{d} scored 0.2") for d in cfg.dimensions)
    assert distiller.requests[1].feedback == expected
    assert distiller.requests[2].feedback == expected


def test_schema_violations_become_feedback(instance):
    class NineSignals(RuleBasedDistiller):
        def distill(self, request):
            card = super().distill(request)
            if not request.feedback:  # first draft is broken
                return type(card)(
                    card_id=card.card_id,
                    source=card.source,
                    index=type(card.index)(
                        problem_summary=card.index.problem_summary,
                        signals=card.index.signals[:9],
                    ),
                    resolution=card.resolution,
                )
            return card

    nine = NineSignals()
    evaluator = ScriptedEvaluator([0.9, 0.9])
    outcome = refine_loop(instance, condensed_for(instance), nine, evaluator, QcConfig())
    assert isinstance(outcome, QcAccepted)
    assert outcome.report.iteration == 2
    assert validate_schema(outcome.card) == []


class FeedbackIgnoringDistiller(RuleBasedDistiller):
    def distill(self, request):
        return super().distill(DistillerRequest(request.instance, request.condensed))


def test_identical_reports_when_distiller_ignores_feedback(instance):
    evaluator = ScriptedEvaluator([0.3])
    distiller = FeedbackIgnoringDistiller()
    outcome = refine_loop(instance, condensed_for(instance), distiller, evaluator, QcConfig())
    assert isinstance(outcome, QcRejected)
    assert evaluator.calls == 3
    assert evaluator.seen_cards[0] == evaluator.seen_cards[1] == evaluator.seen_cards[2]


def test_provider_errors_do_not_consume_iterations(instance):
    from memgov.distillation import ChatDistiller

    from test_distillation import GOOD_JSON, FakeProvider

    provider = FakeProvider([ProviderError("503"), GOOD_JSON])
    distiller = ChatDistiller(provider)
    evaluator = ScriptedEvaluator([0.9])
    outcome = refine_loop(instance, condensed_for(instance), distiller, evaluator, QcConfig())
    assert isinstance(outcome, QcAccepted)
    assert outcome.report.iteration == 1


def test_max_iterations_is_configurable(instance):
    evaluator = ScriptedEvaluator([0.0])
    cfg = QcConfig(max_iterations=5)
    outcome = refine_loop(
        instance, condensed_for(instance), RuleBasedDistiller(), evaluator, cfg
    )
    assert isinstance(outcome, QcRejected) and outcome.report.iteration == 5


def test_gamma_boundary_is_inclusive(instance, card):
    evaluator = ScriptedEvaluator([0.7])
    outcome = refine_loop(
        instance, condensed_for(instance), RuleBasedDistiller(), evaluator, QcConfig(gamma=0.7)
    )
    assert isinstance(outcome, QcAccepted)


def test_qc_config_validation():
    with pytest.raises(ConfigError):
        QcConfig(gamma=1.2)
    with pytest.raises(ConfigError):
        QcConfig(max_iterations=0)
    with pytest.raises(ConfigError):
        QcConfig(dimensions=())


def test_chat_evaluator_parses_scores(instance, card):
    import json

    from test_distillation import FakeProvider

    cfg = QcConfig()
    payload = json.dumps(
        {d: {"score": 0.75, "feedback": "fine"} for d in cfg.dimensions}
    )
    provider = FakeProvider([payload])
    report = evaluate_card(card, instance, ChatEvaluator(provider), cfg)
    assert report.aggregate == pytest.approx(0.75)


def test_chat_evaluator_rejects_missing_dimension(instance, card):
    import json

    from test_distillation import FakeProvider

    cfg = QcConfig()
    payload = json.dumps({cfg.dimensions[0]: {"score": 0.75, "feedback": "ok"}})
    provider = FakeProvider([payload])
    with pytest.raises(MalformedOutputError):
        evaluate_card(card, instance, ChatEvaluator(provider), cfg)


@pytest.mark.parametrize(
    "score",
    [True, False, "0.9", None, [0.9], 10**400],
    ids=["true", "false", "string", "null", "list", "int-past-float"],
)
def test_chat_evaluator_refuses_a_score_that_is_not_a_json_number(instance, card, score):
    import json

    from test_distillation import FakeProvider

    cfg = QcConfig()
    scores = {d: {"score": 0.75, "feedback": "fine"} for d in cfg.dimensions}
    scores[cfg.dimensions[-1]]["score"] = score
    provider = FakeProvider([json.dumps(scores)])
    with pytest.raises(MalformedOutputError, match=cfg.dimensions[-1]):
        evaluate_card(card, instance, ChatEvaluator(provider), cfg)


def test_chat_evaluator_takes_an_integer_score(instance, card):
    import json

    from test_distillation import FakeProvider

    cfg = QcConfig()
    payload = json.dumps({d: {"score": 1, "feedback": "fine"} for d in cfg.dimensions})
    report = evaluate_card(card, instance, ChatEvaluator(FakeProvider([payload])), cfg)
    assert report.aggregate == 1.0
