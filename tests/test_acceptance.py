"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion (each passing test also prints an ACCEPTANCE line, visible with
-s or in the captured-output section).
"""

from __future__ import annotations

import json
import random
import re
import threading
import time
import mpmath
import numpy as np
import pytest
import requests

from memgov.cards import (
    CardSource,
    ExperienceCard,
    IndexLayer,
    ResolutionLayer,
    card_from_dict,
    validate_schema,
)
from memgov.cli import main as cli_main, run_demo_agent
from memgov.distillation import DistillerRequest, RuleBasedDistiller, purify_content
from memgov.embedding import HashingEmbedder
from memgov.errors import ChecksumError, DataError, DiffParseError, UnembeddableTextError
from memgov.ingestion import RepoStats
from memgov.purification import PurifiedInstance, Rejection, purify
from memgov.quality import QcAccepted, QcConfig, QcRejected, refine_loop
from memgov.selection import SelectionConfig, score_repository, select_top_m
from memgov.server import ToolService, make_http_server
from memgov.store import MemoryStore, compose_index_text, cosine_similarity, dedup

from conftest import make_comment, make_triplet
from diff_corpus import build_adversarial, build_corpus
from pipeline_fixtures import write_mixed_fixture, write_planted_store_pairs


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d}: PASS - {text}")


# --- criterion 1: repository scoring oracle ---------------------------------


def test_criterion_01_scoring_oracle_equivalence():
    rng = random.Random(10_001)
    mpmath.mp.dps = 40
    stats, configs = [], []
    for _ in range(1000):
        stats.append(
            RepoStats(
                repo=f"org{rng.randrange(100)}/repo{rng.randrange(10**6)}",
                stars=rng.choice([rng.randrange(10**6), rng.uniform(0, 10**6)]),
                issues=rng.choice([rng.randrange(10**5), rng.uniform(0, 10**5)]),
                pulls=rng.choice([rng.randrange(10**4), rng.uniform(0, 10**4)]),
            )
        )
        configs.append(
            SelectionConfig(
                lambda_s=rng.uniform(0.01, 3.0),
                lambda_i=rng.uniform(0.01, 3.0),
                lambda_p=rng.uniform(0.01, 3.0),
                top_m=rng.randint(1, 50),
            )
        )

    start = time.perf_counter()
    scores = [score_repository(s, c).score for s, c in zip(stats, configs)]
    shared_cfg = SelectionConfig(top_m=25)
    selected = select_top_m(stats, shared_cfg)
    library_runtime = time.perf_counter() - start

    worst = 0.0
    for s, c, got in zip(stats, configs, scores):
        expected = (
            mpmath.mpf(c.lambda_s) * mpmath.log(1 + mpmath.mpf(s.stars))
            + mpmath.mpf(c.lambda_i) * mpmath.log(1 + mpmath.mpf(s.issues))
            + mpmath.mpf(c.lambda_p) * mpmath.log(1 + mpmath.mpf(s.pulls))
        )
        rel = abs(mpmath.mpf(got) - expected) / max(abs(expected), mpmath.mpf("1e-300"))
        worst = max(worst, float(rel))
    assert worst <= 1e-12, f"worst relative error {worst}"

    oracle = sorted(
        (score_repository(s, shared_cfg) for s in stats), key=lambda r: (-r.score, r.repo)
    )[:25]
    assert selected == oracle
    assert library_runtime < 1.0, f"scoring+selection took {library_runtime:.3f}s"
    report(1, f"1000 scores within 1e-12 of mpmath (worst {worst:.2e}); top-M equals full sort")


# --- criterion 2: ranking invariance across log bases ------------------------


def test_criterion_02_log_base_ranking_invariance():
    rng = random.Random(10_002)
    for trial in range(200):
        pool = [
            RepoStats(
                repo=f"o/r{trial}-{i}",
                stars=rng.randrange(1, 10**6),
                issues=rng.randrange(0, 10**5),
                pulls=rng.randrange(0, 10**4),
            )
            for i in range(rng.randint(5, 30))
        ]
        m = rng.randint(1, len(pool))
        rankings = [
            [r.repo for r in select_top_m(pool, SelectionConfig(top_m=m, log_base=base))]
            for base in (2.0, float(np.e), 10.0)
        ]
        assert rankings[0] == rankings[1] == rankings[2], f"trial {trial} diverged"
    report(2, "top-M selections identical for log bases {2, e, 10} on 200 stat sets")


# --- criterion 3: tau boundary and labeled purification corpus ---------------

TECH = "I hit this error and the traceback points at the failing module"
CHAT = "thanks for the quick response, much appreciated!"


def ratio_thread(technical: int, chatter: int):
    comments = [make_comment(TECH) for _ in range(technical)]
    comments += [make_comment(CHAT) for _ in range(chatter)]
    return make_triplet(issue_comments=comments, discussion=[])


def test_criterion_03_tau_boundary_on_labeled_corpus():
    corpus: list[tuple] = []  # (label, triplet)
    corpus.append(("accept", ratio_thread(1, 4)))  # ratio exactly 0.2
    corpus.append(("accept", ratio_thread(200, 800)))  # exactly 0.2, large thread
    corpus.append(("reject", ratio_thread(199, 801)))  # 0.199
    corpus.append(("accept", ratio_thread(5, 0)))  # 1.0
    corpus.append(("accept", ratio_thread(1, 1)))  # 0.5
    corpus.append(("accept", ratio_thread(3, 9)))  # 0.25
    corpus.append(("accept", make_triplet(issue_comments=[], discussion=[])))  # vacuous 1.0
    corpus.append(("accept", ratio_thread(2, 8)))  # 0.2 boundary again
    corpus.append(("reject", ratio_thread(1, 5)))  # ~0.1667
    corpus.append(("reject", ratio_thread(0, 4)))  # 0.0
    corpus.append(("reject", ratio_thread(1, 9)))  # 0.1
    corpus.append(("reject", ratio_thread(3, 17)))  # 0.15
    corpus.append(("reject", make_triplet(merged=False)))  # linkage (a)
    corpus.append(("reject", make_triplet(linked=[999])))  # linkage (a)
    corpus.append(("reject", make_triplet(merged=False, patch_text="junk")))  # first check wins
    corpus.append(("reject", make_triplet(patch_text="not a diff")))  # diff (b)
    corpus.append(("reject", make_triplet(patch_text="--- a/f\n+++ b/f\n@@ -1,1 +1,9 @@\n-x\n+y\n")))
    corpus.append(("reject", make_triplet(body="feature request, nothing failing",
                                          issue_comments=[make_comment(TECH)],
                                          discussion=[make_comment(TECH)])))  # anchors (c)
    corpus.append(("accept", make_triplet()))
    corpus.append(("accept", make_triplet(title="loader stalls on huge archives")))
    assert len(corpus) == 20

    for i, (label, triplet) in enumerate(corpus):
        result = purify(triplet)
        got = "accept" if isinstance(result, PurifiedInstance) else "reject"
        assert got == label, f"thread {i}: expected {label}, got {got} ({result})"

    exact = purify(ratio_thread(1, 4))
    assert isinstance(exact, PurifiedInstance) and exact.technical_ratio == pytest.approx(0.2)
    below = purify(ratio_thread(199, 801))
    assert isinstance(below, Rejection) and below.reason == "low-technical-ratio"
    report(3, "ratio 0.2 accepted, 0.199 rejected; labeled 20-thread corpus matched 20/20")


# --- criterion 4: diff parser corpus and adversarial set ----------------------


def test_criterion_04_diff_corpus_and_adversarial():
    from memgov.diffs import parse_unified_diff, render_diff

    corpus = build_corpus(count=200)
    parsed = 0
    for text in corpus:
        diff = parse_unified_diff(text)
        assert parse_unified_diff(render_diff(diff)) == diff
        parsed += 1
    assert parsed == 200

    for i, text in enumerate(build_adversarial(count=50)):
        with pytest.raises(DiffParseError) as err:
            parse_unified_diff(text)
        assert isinstance(err.value.line, int) and err.value.line >= 1, f"case {i} lacks line"
    report(4, "200/200 diffs parse and fixpoint; 50/50 mutations raise line-numbered errors")


# --- criterion 5: card schema property cross-check ----------------------------

_HEX = re.compile(r"[0-9a-fA-F]{12,}")


def independently_valid(card: ExperienceCard) -> bool:
    """Second validator, coded straight from the stated invariants."""
    if not card.index.problem_summary.strip():
        return False
    signals = list(card.index.signals)
    if not 10 <= len(signals) <= 18:
        return False
    normalized = [" ".join(s.casefold().split()) for s in signals]
    if len(set(normalized)) != len(normalized):
        return False
    if any(not 1 <= len(s.split()) <= 6 for s in signals):
        return False
    res = card.resolution
    if not all(t.strip() for t in (res.root_cause, res.fix_strategy, res.patch_digest, res.verification)):
        return False
    areas = [l for l in res.patch_digest.splitlines() if l.startswith("AREA:")]
    chunks = [l for l in res.patch_digest.splitlines() if l.startswith("CHUNK:")]
    if len(areas) < 1 or not 3 <= len(chunks) <= 8:
        return False
    slug = card.source.repo.casefold()
    for text in [card.index.problem_summary, *signals]:
        if _HEX.search(text):
            return False
        if slug and slug in text.casefold():
            return False
    return True


_GEN_WORDS = "alpha beta gamma delta epsilon zeta eta theta iota kappa mu nu".split()


def _clean_card(rng: random.Random) -> dict:
    def phrase(lo=1, hi=4):
        return " ".join(rng.choice(_GEN_WORDS) for _ in range(rng.randint(lo, hi)))

    count = rng.choice([10, 11, 12, 14, 16, 18])  # boundary counts included
    signals = [f"{phrase(1, 5)} {i}" for i in range(count)]
    digest = "\n".join(
        [f"AREA: src/{rng.choice(_GEN_WORDS)}.py" for _ in range(rng.randint(1, 2))]
        + [f"CHUNK: {phrase(2, 5)}" for _ in range(rng.choice([3, 5, 8]))]
    )
    return {
        "summary": phrase(3, 8),
        "signals": signals,
        "root_cause": phrase(4, 9),
        "fix_strategy": phrase(4, 9),
        "patch_digest": digest,
        "verification": phrase(3, 7),
    }


_MUTATIONS = (
    "too_few_signals", "too_many_signals", "long_signal", "blank_signal",
    "duplicate_signal", "hex_in_signal", "slug_in_signal", "empty_summary",
    "hex_in_summary", "slug_in_summary", "empty_resolution_field",
    "no_area", "few_chunks", "many_chunks",
)


def random_card(rng: random.Random) -> ExperienceCard:
    fields = _clean_card(rng)
    if rng.random() >= 0.45:  # dirty card: apply 1-2 targeted mutations
        for mutation in rng.sample(_MUTATIONS, k=rng.randint(1, 2)):
            s = fields["signals"]
            if mutation == "too_few_signals":
                fields["signals"] = s[: rng.randint(0, 9)]
            elif mutation == "too_many_signals":
                fields["signals"] = s + [f"extra pad {i}" for i in range(19 - len(s) + rng.randint(0, 3))]
            elif mutation == "long_signal" and s:
                s[rng.randrange(len(s))] = "one two three four five six seven"
            elif mutation == "blank_signal" and s:
                s[rng.randrange(len(s))] = "   "
            elif mutation == "duplicate_signal" and s:
                s[rng.randrange(len(s))] = s[rng.randrange(len(s))].upper()
            elif mutation == "hex_in_signal" and s:
                s[rng.randrange(len(s))] = "deadbeefcafe1234 spill"
            elif mutation == "slug_in_signal" and s:
                s[rng.randrange(len(s))] = "acme/widgets glue"
            elif mutation == "empty_summary":
                fields["summary"] = rng.choice(["", "   "])
            elif mutation == "hex_in_summary":
                fields["summary"] += " after a1b2c3d4e5f6a1b2 landed"
            elif mutation == "slug_in_summary":
                fields["summary"] += " only inside acme/widgets"
            elif mutation == "empty_resolution_field":
                fields[rng.choice(["root_cause", "fix_strategy", "verification"])] = rng.choice(["", " "])
            elif mutation == "no_area":
                fields["patch_digest"] = "\n".join(
                    l for l in fields["patch_digest"].splitlines() if not l.startswith("AREA:")
                )
            elif mutation == "few_chunks":
                lines = fields["patch_digest"].splitlines()
                kept, chunks = [], 0
                for line in lines:
                    if line.startswith("CHUNK:") and chunks >= rng.randint(0, 2):
                        continue
                    chunks += line.startswith("CHUNK:")
                    kept.append(line)
                fields["patch_digest"] = "\n".join(kept)
            elif mutation == "many_chunks":
                fields["patch_digest"] += "".join(f"\nCHUNK: pad {i}" for i in range(9))
    return ExperienceCard(
        card_id=f"c{rng.randrange(10**9)}",
        source=CardSource("acme/widgets", rng.randint(1, 999), rng.randint(1, 999)),
        index=IndexLayer(problem_summary=fields["summary"], signals=tuple(fields["signals"])),
        resolution=ResolutionLayer(
            root_cause=fields["root_cause"],
            fix_strategy=fields["fix_strategy"],
            patch_digest=fields["patch_digest"],
            verification=fields["verification"],
        ),
    )


def test_criterion_05_schema_validator_cross_check():
    rng = random.Random(10_005)
    agree_valid = agree_invalid = 0
    for i in range(10_000):
        card = random_card(rng)
        ours = validate_schema(card) == []
        theirs = independently_valid(card)
        assert ours == theirs, f"card {i}: library={ours} independent={theirs}\n{card}"
        if ours:
            agree_valid += 1
        else:
            agree_invalid += 1
    assert agree_valid > 100 and agree_invalid > 100  # the generator covers both sides
    report(5, f"10,000 random cards: validators agree ({agree_valid} valid / {agree_invalid} invalid)")


# --- criterion 6: refine loop bound -------------------------------------------


class ScriptedEvaluator:
    def __init__(self, aggregates):
        self.aggregates = list(aggregates)
        self.calls = 0

    def scores(self, card, instance, dimensions):
        value = self.aggregates[min(self.calls, len(self.aggregates) - 1)]
        self.calls += 1
        return {d: (value, f"{d} scored {value}") for d in dimensions}


class RecordingDistiller(RuleBasedDistiller):
    def __init__(self):
        super().__init__()
        self.requests: list[DistillerRequest] = []

    def distill(self, request):
        self.requests.append(request)
        return super().distill(request)


def test_criterion_06_refine_loop_bound():
    instance = purify(make_triplet())
    assert isinstance(instance, PurifiedInstance)
    condensed = purify_content(instance)
    cfg = QcConfig()

    always_failing = ScriptedEvaluator([0.1])
    distiller = RecordingDistiller()
    outcome = refine_loop(instance, condensed, distiller, always_failing, cfg)
    assert isinstance(outcome, QcRejected)
    assert always_failing.calls == 3 and len(distiller.requests) == 3
    assert outcome.report.iteration == 3

    for n in (1, 2, 3):
        evaluator = ScriptedEvaluator([0.2] * (n - 1) + [0.95])
        distiller = RecordingDistiller()
        outcome = refine_loop(instance, condensed, distiller, evaluator, cfg)
        assert isinstance(outcome, QcAccepted) and outcome.report.iteration == n
        assert evaluator.calls == n
        if n > 1:
            expected = tuple((d, f"{d} scored 0.2") for d in cfg.dimensions)
            assert distiller.requests[n - 1].feedback == expected  # verbatim carry-over
        assert distiller.requests[0].feedback == ()
    report(6, "always-fail stops after exactly 3 cycles; pass-at-n accepts at n with verbatim feedback")


# --- criteria 7 and 10 share a 10,000-card synthetic store ---------------------

VOCAB = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima mike "
    "november oscar papa quebec romeo sierra tango uniform victor whiskey xray yankee zulu"
).split()


def synth_card(rng: random.Random, i: int, summary=None, signals=None) -> ExperienceCard:
    summary = summary or " ".join(rng.choice(VOCAB) for _ in range(rng.randint(3, 6)))
    signals = signals or tuple(
        f"{rng.choice(VOCAB)} {rng.choice(VOCAB)} {j}" for j in range(rng.randint(10, 14))
    )
    return ExperienceCard(
        card_id=f"syn-{i:05d}",
        source=CardSource("synthetic/corpus", i + 1, i + 1),
        index=IndexLayer(problem_summary=summary, signals=signals),
        resolution=ResolutionLayer(
            root_cause="cause",
            fix_strategy="strategy",
            patch_digest="AREA: src/mod.py\nCHUNK: a\nCHUNK: b\nCHUNK: c",
            verification="test plan",
        ),
    )


@pytest.fixture(scope="module")
def ten_k_store():
    rng = random.Random(10_007)
    store = MemoryStore(HashingEmbedder())
    cards = []
    i = 0
    while len(cards) < 10_000:
        card = synth_card(rng, i)
        i += 1
        cards.append(card)
        # Every ~50th card gets an identical-index twin: exact tie fodder.
        if len(cards) % 50 == 0 and len(cards) < 10_000:
            twin = ExperienceCard(
                card_id=f"syn-{i:05d}",
                source=CardSource("synthetic/corpus", i + 1, i + 1),
                index=card.index,
                resolution=card.resolution,
            )
            i += 1
            cards.append(twin)
    for card in cards:
        store.index_card(card)
    return store, cards


def brute_force_ranking(store: MemoryStore, query: str, k: int) -> list[str]:
    emb = store.embedder
    q = emb.embed(query)
    keyed = sorted(
        (-cosine_similarity(q, vector), card_id)
        for card_id, vector in zip(store.card_ids(), store.vectors)
    )
    return [cid for _, cid in keyed[:k]]


def test_criterion_07_retrieval_oracle_equivalence(ten_k_store):
    store, cards = ten_k_store
    rng = random.Random(10_070)
    queries = [
        " ".join(rng.choice(VOCAB) for _ in range(rng.randint(2, 6))) for _ in range(95)
    ]
    queries += [compose_index_text(cards[rng.randrange(len(cards))]) for _ in range(5)]
    for qi, query in enumerate(queries):
        for k in (1, 10, 100):
            got = [h.card_id for h in store.search(query, k=k)]
            expected = brute_force_ranking(store, query, k)
            assert got == expected, f"query {qi} k={k} diverged from brute force"
    default_hits = store.search(queries[0])
    assert len(default_hits) == 10  # default k

    self_query = compose_index_text(cards[123])
    top = store.search(self_query, k=1)[0]
    assert top.similarity == pytest.approx(1.0, abs=1e-9)
    report(7, "search equals brute-force ids+order for 100 queries at k in {1,10,100}")


# --- criterion 8: similarity properties ----------------------------------------


def test_criterion_08_similarity_properties():
    rng = np.random.default_rng(10_008)
    for i in range(10_000):
        d = int(rng.integers(2, 65))
        a = rng.standard_normal(d)
        b = rng.standard_normal(d)
        s = cosine_similarity(a, b)
        assert s == cosine_similarity(b, a), f"pair {i}: symmetry"
        assert -1.0 <= s <= 1.0, f"pair {i}: bound"
        scale = float(rng.uniform(1e-3, 1e3))
        assert abs(cosine_similarity(scale * a, b) - s) <= 1e-6, f"pair {i}: scale"
    with pytest.raises(UnembeddableTextError):
        cosine_similarity(np.zeros(8), np.ones(8))
    with pytest.raises(DataError):
        cosine_similarity(np.ones(8), np.ones(9))
    report(8, "symmetry, |sim|<=1, scale invariance over 10,000 pairs; zero-norm/mismatch error")


# --- criterion 9: dedup ---------------------------------------------------------


def independent_dedup(cards, embedder, threshold):
    """Second clustering route: full pairwise matrix + naive union-find."""
    n = len(cards)
    texts = [compose_index_text(c) for c in cards]
    vectors = np.stack([embedder.embed(t) for t in texts]).astype(np.float64)
    norms = np.linalg.norm(vectors, axis=1)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            same_text = " ".join(texts[i].casefold().split()) == " ".join(texts[j].casefold().split())
            near = (
                norms[i] > 0
                and norms[j] > 0
                and float(vectors[i] @ vectors[j]) / (norms[i] * norms[j]) >= threshold
            )
            if same_text or near:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    winners = {}
    for i, card in enumerate(cards):
        root = find(i)
        if root not in winners or card.source.as_tuple() < cards[winners[root]].source.as_tuple():
            winners[root] = i
    keep = sorted(winners.values())
    return [cards[i] for i in keep]


def test_criterion_09_dedup():
    rng = random.Random(10_009)
    emb = HashingEmbedder()

    pool = [synth_card(rng, i) for i in range(940)]
    for i in range(20):  # 20 exact-duplicate groups of 3
        base = pool[i * 3]
        for j in (1, 2):
            pool.append(
                ExperienceCard(
                    card_id=f"dup-{i}-{j}",
                    source=CardSource("synthetic/corpus", 20_000 + i * 10 + j, j),
                    index=base.index,
                    resolution=base.resolution,
                )
            )
    near_pairs = []
    for i in range(10):  # planted near-duplicates, each pair far from the others
        signals = tuple(f"case{i} mark{i} slot{j}" for j in range(12))
        a = synth_card(rng, 30_000 + i, summary=f"planted scenario{i} with long tail", signals=signals)
        b = synth_card(rng, 31_000 + i, summary=f"planted scenario{i} with long tails", signals=signals)
        near_pairs.append((a, b))
        pool.extend([a, b])
    assert len(pool) == 1000
    rng.shuffle(pool)

    for a, b in near_pairs:
        sim = cosine_similarity(emb.embed(compose_index_text(a)), emb.embed(compose_index_text(b)))
        assert sim >= 0.95, f"planted pair below threshold: {sim}"

    once = dedup(pool, emb, threshold=0.95)
    twice = dedup(once, emb, threshold=0.95)
    assert once == twice, "dedup is not idempotent"

    expected = independent_dedup(pool, emb, threshold=0.95)
    assert once == expected, "dedup disagrees with brute-force pairwise clustering"

    surviving_ids = {c.card_id for c in once}
    for a, b in near_pairs:
        winner = a if a.source.as_tuple() < b.source.as_tuple() else b
        loser = b if winner is a else a
        assert winner.card_id in surviving_ids and loser.card_id not in surviving_ids
    report(9, "dedup idempotent on 1000 cards and equal to brute-force pairwise clustering")


# --- criterion 10: persistence ---------------------------------------------------


def test_criterion_10_persistence_round_trip(ten_k_store, tmp_path):
    store, _cards = ten_k_store
    directory = tmp_path / "store"
    store.save(directory)
    loaded = MemoryStore.load(directory)
    assert len(loaded) == len(store)
    assert loaded.card_ids() == store.card_ids()
    for original, restored in zip(store.vectors, loaded.vectors):
        assert original.tobytes() == restored.tobytes()  # byte-exact

    rng = random.Random(10_010)
    for _ in range(50):
        query = " ".join(rng.choice(VOCAB) for _ in range(rng.randint(2, 5)))
        before = [(h.card_id, h.similarity) for h in store.search(query, k=10)]
        after = [(h.card_id, h.similarity) for h in loaded.search(query, k=10)]
        assert before == after

    raw = bytearray((directory / "vectors.bin").read_bytes())
    raw[len(raw) // 2] ^= 0x01
    (directory / "vectors.bin").write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        MemoryStore.load(directory)
    report(10, "10,000-card store round-trips byte-exactly; 50 probes identical; corruption detected")


# --- criterion 11: end-to-end governance at desk scale -----------------------------


def test_criterion_11_end_to_end_governance(tmp_path, capsys):
    fixture = tmp_path / "triplets.jsonl"
    write_mixed_fixture(fixture, count=100)
    out1 = tmp_path / "store1"

    start = time.perf_counter()
    code = cli_main(["--json", "govern", str(fixture), str(out1)])
    elapsed = time.perf_counter() - start
    stdout = capsys.readouterr().out
    assert code == 0
    assert elapsed < 10.0, f"govern took {elapsed:.2f}s"
    counts = json.loads(stdout)
    assert counts["read"] == 100

    cards = [card_from_dict(json.loads(l)) for l in (out1 / "cards.jsonl").read_text().splitlines()]
    assert len(cards) == counts["indexed"] > 0
    for card in cards:
        assert validate_schema(card) == []

    audit = [json.loads(l) for l in (out1 / "audit.jsonl").read_text().splitlines()]
    rejections = [a for a in audit if "reason" in a or a.get("accepted") is False]
    assert counts["indexed"] + len(rejections) == counts["read"]

    out2 = tmp_path / "store2"
    assert cli_main(["govern", str(fixture), str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "cards.jsonl").read_bytes() == (out2 / "cards.jsonl").read_bytes()
    report(11, f"100 triplets governed in {elapsed:.2f}s; audit accounts 100%; re-run identical")


# --- criterion 12: tool API contract ------------------------------------------------

RESOLUTION_KEYS = {"resolution", "root_cause", "fix_strategy", "patch_digest", "verification"}


def _deep_keys(obj):
    keys = set()
    if isinstance(obj, dict):
        for key, value in obj.items():
            keys.add(key)
            keys |= _deep_keys(value)
    elif isinstance(obj, list):
        for item in obj:
            keys |= _deep_keys(item)
    return keys


def test_criterion_12_tool_api_contract():
    store = MemoryStore(HashingEmbedder())
    pairs = write_planted_store_pairs(20)
    for card_dict, _ in pairs:
        store.index_card(card_from_dict(card_dict))
    service = ToolService(store)

    server = make_http_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        for query in ("deadlock scheduler", "overflow parser stage", "cache corruption"):
            body = requests.post(f"{base}/v1/search", json={"query": query}).json()
            assert body["hits"], query
            assert not (_deep_keys(body) & RESOLUTION_KEYS)
        browse = requests.post(
            f"{base}/v1/browse", json={"card_id": pairs[0][0]["card_id"]}
        ).json()
        assert RESOLUTION_KEYS - {"resolution"} <= set(browse["resolution"])
    finally:
        server.shutdown()
        server.server_close()

    hits_at_rank1 = 0
    for card_dict, issue_text in pairs:
        trace, brief = run_demo_agent(ToolService(store), issue_text, rounds=3, top_k=10)
        top_id = trace[-1]["hits"][0][0]
        assert top_id == card_dict["card_id"], f"planted card not at rank 1 for {card_dict['card_id']}"
        hits_at_rank1 += 1
        assert brief is not None
        res = card_dict["resolution"]
        assert brief.root_cause_pattern == res["root_cause"]
        assert brief.modification_logic == res["fix_strategy"]
        assert brief.validation_strategy == res["verification"]
    assert hits_at_rank1 == 20  # recall@10 = 1.0 (at rank 1, in fact)
    report(12, "search leaks no resolution fields; demo agent recall@10 = 20/20 with exact briefs")


# --- criterion 13: throughput at full corpus scale -----------------------------------


@pytest.mark.slow
def test_criterion_13_throughput_at_135k(tmp_path):
    n, d = 135_000, 256
    rng = np.random.default_rng(10_013)
    matrix = rng.standard_normal((n, d)).astype(np.float32)
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)

    store = MemoryStore(HashingEmbedder())
    shared_signals = tuple(f"shared signal {i}" for i in range(10))
    resolution = ResolutionLayer(
        root_cause="cause",
        fix_strategy="strategy",
        patch_digest="AREA: src/mod.py\nCHUNK: a\nCHUNK: b\nCHUNK: c",
        verification="plan",
    )
    for i in range(n):
        card = ExperienceCard(
            card_id=f"bulk-{i:06d}",
            source=CardSource("bulk/corpus", i + 1, i + 1),
            index=IndexLayer(problem_summary=f"synthetic case {i:06d}", signals=shared_signals),
            resolution=resolution,
        )
        store._append(card, matrix[i])

    directory = tmp_path / "big"
    store.save(directory)

    start = time.perf_counter()
    loaded = MemoryStore.load(directory)
    load_seconds = time.perf_counter() - start
    assert len(loaded) == n
    assert load_seconds < 5.0, f"load took {load_seconds:.2f}s"

    loaded.search("warm up the scan cache", k=10)
    per_query = []
    for i in range(5):
        start = time.perf_counter()
        hits = loaded.search(f"synthetic case {i} failure mode probe", k=10)
        per_query.append(time.perf_counter() - start)
        assert len(hits) == 10
    worst = max(per_query)
    assert worst < 0.5, f"slowest query {worst * 1000:.0f}ms"
    report(
        13,
        f"135K x 256 store: load {load_seconds:.2f}s (<5s), worst query {worst * 1000:.0f}ms (<500ms)",
    )
