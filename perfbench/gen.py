"""Seeded input generators for the benchmark.

Everything here is a pure function of its seed: the same seed gives the
same triplet file, card file, query list and agent issues, byte for byte.
The program under test only ever sees what these functions write or send.

Make-up fixed by the generators (see README.md for the reasoning):

* Triplets come in blocks of 20 that are shuffled together: 1 corrupt
  JSON line, 1 unmerged PR, 1 unparsable diff, 1 issue with no
  diagnostic anchor, 1 low-technical-ratio thread, and 15 closed-loop
  repairs. Of the 15, one exact-duplicate group of 3 (same issue text and
  patch under other sources) and one near-duplicate pair (same issue plus
  one extra title word) are planted, so dedup must remove 3 per block.
* Cards (the 135k corpus) carry a realistic index layer (summary plus
  10-18 signals) and resolution layer; 1 card in 50 is a twin that copies
  the index layer of an earlier card under a new id and resolution.
* Search queries mix k = 1, 10 and 100 in a fixed 3:14:3 ratio per 20.
* Agent issues cycle through six plans: 1-3 searches times 1-2 browses.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

import numpy as np

TRIPLET_BLOCK = 20
CARD_TWIN_EVERY = 50

COMPONENTS = (
    "scheduler parser cache socket renderer allocator indexer planner decoder router "
    "serializer tokenizer compiler linker loader resolver validator migrator exporter importer "
    "watcher poller dispatcher broker consumer producer buffer pipeline encoder uploader "
    "downloader archiver compressor checksum signer verifier session gateway proxy balancer "
    "registry catalog ledger journal snapshot replicator shard partitioner compactor vacuum "
    "optimizer executor profiler tracer logger formatter templater paginator throttler "
    "retrier notifier mailer webhook cron queue mutex semaphore timer clock locale "
    "keyring vault credential oauth saml ldap dns resolvconf tls certificate handshake "
    "cursor iterator collector reducer mapper joiner sorter grouper window aggregator"
).split()
SUBSYSTEMS = (
    "core worker client server handler adapter backend frontend device plugin hook "
    "middleware bridge factory emitter manager controller service daemon agent runner "
    "engine kernel module bundle store index view model schema config settings"
).split()
SYMPTOMS = (
    "deadlock overflow corruption timeout crash leak hang panic underflow race "
    "starvation livelock segfault truncation duplication stall regression drift "
    "desync mismatch rollback"
).split()
GERUNDS = (
    "draining flushing parsing rotating compacting reloading resizing encoding decoding "
    "replaying retrying batching merging splitting caching evicting streaming polling "
    "scheduling rendering importing exporting migrating validating"
).split()
ADJECTIVES = (
    "empty nested unicode large stale concurrent partial malformed sparse duplicate "
    "expired cyclic remote cold warm negative huge zero compressed encrypted"
).split()
OBJECTS = (
    "queue payload manifest header record batch chunk frame segment packet token "
    "entry snapshot table column index file stream request response handle"
).split()
CONDITIONS = (
    "load shutdown startup failover restart pressure contention backpressure "
    "reconnect upgrade rollover eviction"
).split()
ACTIONS = (
    "guard validate clamp retry synchronize escape normalize handle check convert"
).split()
FILES = "core worker state utils io api lock pool cache hooks codec wire".split()
EXTS = ("py", "go", "rs", "ts", "java", "c")
SYLLABLES = (
    "ka ze ro mi tu va lo ne si pa do re fu gi ha jo ku la mo nu po qi ru sa te vi wo xa yu zo "
    "bri cla dru fle gro pla tri sno"
).split()

REPOS = tuple(f"{org}/{proj}" for org in ("acme", "globex", "initech", "umbrella")
              for proj in ("engine", "library", "server"))

TECHNICAL_COMMENTS = (
    "I can reproduce this error, the traceback points at the failing module",
    "Same stack here after the upgrade; the null check does not run before the call",
    "Added a regression test that reproduces the error on every run",
    "The patch looks right: the stack shows the exception before the guard",
)
CHATTER_COMMENTS = (
    "thanks for looking into it, really appreciated!",
    "any update on this one?",
    "+1, seeing it too",
    "great, thank you for the quick turnaround",
)

REJECT_KINDS = ("corrupt", "unmerged", "bad-diff", "no-anchors", "low-ratio")
# Audit reason prefix per planted rejection class.
REJECT_REASONS = {
    "corrupt": "item-error: line {line}: invalid JSON",
    "unmerged": "linkage: pr not merged",
    "bad-diff": "unparsable-diff: ",
    "no-anchors": "no-anchors: ",
    "low-ratio": "low-technical-ratio: ",
}

# k per position in each run of 20 queries: 3 x 1, 14 x 10, 3 x 100.
K_PATTERN = (10, 1, 10, 10, 100, 10, 10, 1, 10, 10, 10, 100, 10, 10, 1, 10, 10, 100, 10, 10)
# (searches, browses) per agent issue, cycled.
AGENT_PLANS = ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2))
AGENT_TOP_K = 10


def _word(rng: random.Random, syllables: int = 3) -> str:
    return "".join(rng.choice(SYLLABLES) for _ in range(syllables))


def _camel(*parts: str) -> str:
    return "".join(p.capitalize() for p in parts)


def _comment(body: str, minute: int) -> dict:
    return {
        "author_role": "contributor",
        "body": body,
        "timestamp": f"2024-03-01T12:{minute % 60:02d}:00Z",
    }


def _diff(rng: random.Random, paths: list[str], action: str, symptom: str) -> str:
    out = []
    for path in paths:
        out.append(f"--- a/{path}\n+++ b/{path}\n")
        start = 1
        for _ in range(rng.randint(1, 2)):
            start += rng.randint(5, 60)
            added = rng.randint(1, 4)
            out.append(f"@@ -{start},2 +{start},{2 + added} @@ def {_word(rng, 2)}():\n")
            out.append(" existing line\n")
            for j in range(added):
                out.append(f"+    {action} the {symptom} case {j}\n")
            out.append(" closing line\n")
    return "".join(out)


def _break_diff(patch: str) -> str:
    # Declare one more new-side line than the hunk has: DiffParseError.
    head, sep, rest = patch.partition("@@ -")
    old, _, tail = rest.partition(" @@")
    old_range, new_range = old.split(" +")
    start, length = new_range.split(",")
    return f"{head}{sep}{old_range} +{start},{int(length) + 1} @@{tail}"


@dataclass
class TripletPlan:
    """What the generator planted, for the checks."""

    kinds: list[str] = field(default_factory=list)  # per file line
    sources: list[tuple[str, int, int] | None] = field(default_factory=list)
    exact_groups: list[list[tuple[str, int, int]]] = field(default_factory=list)
    near_groups: list[list[tuple[str, int, int]]] = field(default_factory=list)

    @property
    def read(self) -> int:
        return len(self.kinds)

    def count(self, kind: str) -> int:
        return self.kinds.count(kind)


class _Sources:
    """Unique (repo, issue, pr) triples, so card ids never collide."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.next_issue = {repo: rng.randint(10, 500) for repo in REPOS}

    def take(self) -> tuple[str, int, int]:
        repo = self.rng.choice(REPOS)
        issue = self.next_issue[repo]
        self.next_issue[repo] += self.rng.randint(1, 7)
        return repo, issue, issue + 10000 + self.rng.randint(0, 99)


def _issue_material(rng: random.Random, case: str) -> dict:
    component = rng.choice(COMPONENTS)
    symptom = rng.choice(SYMPTOMS)
    return {
        "component": component,
        "subsystem": rng.choice(SUBSYSTEMS),
        "symptom": symptom,
        "gerund": rng.choice(GERUNDS),
        "adjective": rng.choice(ADJECTIVES),
        "object": rng.choice(OBJECTS),
        "condition": rng.choice(CONDITIONS),
        "action": rng.choice(ACTIONS),
        "case": case,
        "exception": _camel(component, symptom) + "Error",
        "files": rng.sample(FILES, rng.randint(1, 3)),
        "ext": rng.choice(EXTS),
        "frames": rng.randint(2, 6),
    }


def _title(m: dict) -> str:
    return (
        f"{m['symptom']} in {m['component']} {m['subsystem']} when {m['gerund']} "
        f"{m['adjective']} {m['object']} under {m['condition']} ({m['case']})"
    )


def _triplet(rng: random.Random, m: dict, source: tuple[str, int, int]) -> dict:
    repo, issue, pr = source
    paths = [f"src/{m['component']}/{f}.{m['ext']}" for f in m["files"]]
    frames = "".join(
        f'  File "{paths[i % len(paths)]}", line {rng.randint(10, 900)}, in {_word(rng, 2)}\n'
        for i in range(m["frames"])
    )
    body = (
        f"Observed a {m['symptom']} in the {m['component']} {m['subsystem']} while "
        f"{m['gerund']} a {m['adjective']} {m['object']}.\n"
        "Traceback (most recent call last)\n"
        f"{frames}"
        f"{m['exception']}: {m['object']} {m['symptom']} under {m['condition']}\n"
    )
    comments = [_comment(rng.choice(TECHNICAL_COMMENTS), rng.randint(0, 59)),
                _comment(rng.choice(CHATTER_COMMENTS), rng.randint(0, 59))]
    return {
        "repo": repo,
        "issue": {"number": issue, "title": _title(m), "body": body, "comments": comments},
        "pr": {
            "number": pr,
            "merged": True,
            "linked_issue_refs": [issue],
            "discussion": [_comment(f"fixes #{issue}; patch touches {paths[0]}", 30)],
        },
        "patch_text": _diff(rng, paths, m["action"], m["symptom"]),
    }


def _with_source(t: dict, source: tuple[str, int, int]) -> dict:
    """A copy of triplet `t` filed under another source."""
    repo, issue, pr = source
    t = json.loads(json.dumps(t))
    t["repo"] = repo
    t["issue"]["number"] = issue
    t["pr"]["number"] = pr
    t["pr"]["linked_issue_refs"] = [issue]
    link = t["pr"]["discussion"][0]
    link["body"] = f"fixes #{issue};" + link["body"].split(";", 1)[1]
    return t


def triplet_block(rng: random.Random, sources: _Sources, plan: TripletPlan) -> list[tuple]:
    """One block of 20 (kind, source, triplet dict or corrupt line) with
    the fixed make-up."""

    def fresh() -> tuple[tuple[str, int, int], dict]:
        m = _issue_material(rng, _word(rng))
        source = sources.take()
        return source, _triplet(rng, m, source)

    out: list[tuple] = []
    for kind in REJECT_KINDS:
        source, t = fresh()
        if kind == "corrupt":
            out.append((kind, None, json.dumps(t)[:37]))  # cut mid-object
            continue
        if kind == "unmerged":
            t["pr"]["merged"] = False
        elif kind == "bad-diff":
            t["patch_text"] = _break_diff(t["patch_text"])
        elif kind == "no-anchors":
            t["issue"]["body"] = (
                f"The {t['issue']['title'].split(' (')[0]} shows up now and then; "
                "nothing else is logged."
            )
        elif kind == "low-ratio":
            t["issue"]["comments"] = [_comment(rng.choice(CHATTER_COMMENTS), i) for i in range(6)]
            t["pr"]["discussion"] = [_comment(rng.choice(CHATTER_COMMENTS), i) for i in range(3)]
        out.append((kind, source, t))

    # Exact-duplicate group of 3: identical issue and patch, other sources.
    source, base = fresh()
    group = [source, sources.take(), sources.take()]
    plan.exact_groups.append(group)
    out.extend(("exact", s, base if s == source else _with_source(base, s)) for s in group)

    # Near-duplicate pair: the twin's title gains a stopword, which adds one
    # token to the summary and none to the signals (cosine about 0.99).
    source, base = fresh()
    twin_source = sources.take()
    twin = _with_source(base, twin_source)
    twin["issue"]["title"] = base["issue"]["title"].replace(" when ", " when the ", 1)
    plan.near_groups.append([source, twin_source])
    out.append(("near", source, base))
    out.append(("near", twin_source, twin))

    while len(out) < TRIPLET_BLOCK:
        source, t = fresh()
        out.append(("unique", source, t))
    return out


def write_triplets(path, count: int, seed: int) -> TripletPlan:
    """Write `count` triplets (a multiple of 20) as JSON Lines."""
    if count % TRIPLET_BLOCK:
        raise ValueError(f"triplet count must be a multiple of {TRIPLET_BLOCK}")
    rng = random.Random(f"triplets-{seed}")
    sources = _Sources(rng)
    plan = TripletPlan()
    items = []
    for _ in range(count // TRIPLET_BLOCK):
        items.extend(triplet_block(rng, sources, plan))
    rng.shuffle(items)
    lines = []
    for kind, source, t in items:
        plan.kinds.append(kind)
        plan.sources.append(source)
        lines.append(t if isinstance(t, str) else json.dumps(t))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return plan


def held_out_issue_texts(rng: random.Random) -> tuple[str, list[str]]:
    """(title, stack-trace lines) of an issue that is in no input file."""
    m = _issue_material(rng, _word(rng, 4))
    paths = [f"src/{m['component']}/{f}.{m['ext']}" for f in m["files"]]
    trace = [
        f'File "{paths[i % len(paths)]}", line {rng.randint(1000, 99999)}, in {_word(rng, 2)}'
        for i in range(2)
    ]
    trace.append(f"{_camel(m['component'], _word(rng, 2))}Error: {m['object']} {m['symptom']}")
    return _title(m), trace


# --- the 135k card corpus -------------------------------------------------


class _Stream:
    """The subset of random.Random's API the generators use, drawn from
    numpy in bulk: about three times faster for the 135k corpus."""

    def __init__(self, seed: int, label: int):
        gen = np.random.default_rng([seed, label])
        chunks = iter(lambda: gen.integers(0, 1 << 30, 1 << 16).tolist(), None)
        self._next = itertools.chain.from_iterable(chunks).__next__

    def choice(self, seq):
        return seq[self._next() % len(seq)]

    def randint(self, a: int, b: int) -> int:
        return a + self._next() % (b - a + 1)

    def randrange(self, n: int) -> int:
        return self._next() % n

    def sample(self, seq, k: int) -> list:
        pool = list(seq)
        return [pool.pop(self._next() % len(pool)) for _ in range(k)]


def _extra_signals(rng, m: dict):
    """Further signal phrases for a card, drawn only as far as needed."""
    yield f"{m['gerund']} {m['object']}"
    yield f"{m['adjective']} {m['object']}"
    yield f"{m['component']} {m['subsystem']}"
    yield f"under {m['condition']}"
    yield m["case"]
    yield f"{m['symptom']} after {rng.choice(CONDITIONS)}"
    yield f"{rng.choice(COMPONENTS)} {rng.choice(SUBSYSTEMS)}"
    yield _word(rng, 2) + "error"
    yield f"{rng.choice(GERUNDS)} {rng.choice(OBJECTS)}"
    yield f"{m['files'][0]} {m['ext']}"
    yield f"line {rng.randint(10, 999)}"
    yield f"{rng.choice(SYMPTOMS)} {rng.choice(COMPONENTS)}"
    yield f"{_word(rng, 2)} {_word(rng, 2)}"
    yield f"{rng.choice(ACTIONS)} {rng.choice(OBJECTS)} {rng.choice(CONDITIONS)}"
    yield f"{_word(rng, 3)} timeout"
    yield f"{rng.choice(ADJECTIVES)} {rng.choice(OBJECTS)}"


def _card(rng, card_id: str, source: tuple[str, int, int], index: dict | None) -> dict:
    m = _issue_material(rng, _word(rng))
    if index is None:
        signals: list[str] = [m["exception"].lower(), f"{m['component']} {m['symptom']}"]
        want = rng.randint(10, 18)
        for s in _extra_signals(rng, m):
            if len(signals) == want:
                break
            if s not in signals:
                signals.append(s)
        index = {"problem_summary": _title(m), "signals": signals}
    paths = [f"src/{m['component']}/{f}.{m['ext']}" for f in m["files"]]
    chunks = [f"CHUNK: {p} reworked in {rng.randint(1, 4)} hunks" for p in paths]
    while len(chunks) < 3:
        chunks.append(f"CHUNK: {m['action']} the {m['symptom']} path in the {m['subsystem']}")
    repo, issue, pr = source
    return {
        "card_id": card_id,
        "source": {"repo": repo, "issue": issue, "pr": pr},
        "index": index,
        "resolution": {
            "root_cause": (
                f"{m['exception']} raised because the {m['component']} {m['subsystem']} did not "
                f"{m['action']} the {m['adjective']} {m['object']} while {m['gerund']}"
            ),
            "fix_strategy": f"{m['action']} the {m['object']} in {paths[0]} before {m['gerund']}",
            "patch_digest": "\n".join([f"AREA: {p}" for p in paths] + chunks),
            "verification": f"run the {m['component']} tests and reproduce the {m['symptom']}",
        },
    }


def write_cards(path, count: int, seed: int) -> tuple[list[str], list[str], list[int], dict]:
    """Write `count` card JSON lines; returns (ids, index texts, line
    offsets, twin map id -> id of the card whose index layer it copies)."""
    rng = _Stream(seed, 135)
    sources = _Sources(rng)
    ids: list[str] = []
    texts: list[str] = []
    offsets: list[int] = []
    indexes: list[dict] = []
    twins: dict[str, str] = {}
    pos = 0
    with open(path, "w") as fh:
        for i in range(count):
            source = sources.take()
            repo, issue, pr = source
            card_id = f"{repo.replace('/', '--')}-i{issue}-pr{pr}"
            index = None
            if i % CARD_TWIN_EVERY == CARD_TWIN_EVERY - 1:
                j = rng.randrange(i)
                index = indexes[j]
                twins[card_id] = ids[j]
            card = _card(rng, card_id, source, index)
            line = json.dumps(card) + "\n"
            fh.write(line)
            offsets.append(pos)
            pos += len(line)  # the generated text is ASCII
            ids.append(card_id)
            indexes.append(card["index"])
            texts.append(card["index"]["problem_summary"] + "\n" + "; ".join(card["index"]["signals"]))
    return ids, texts, offsets, twins


def search_queries(rng_seed: int, texts: list[str], count: int) -> list[tuple[str, int]]:
    """(query, k) pairs: parts of a target card's index text plus tokens no
    card has (line numbers, unseen exception names)."""
    rng = random.Random(f"queries-{rng_seed}")
    out = []
    for i in range(count):
        target = texts[rng.randrange(len(texts))]
        summary, signals = target.split("\n", 1)
        words = summary.split()
        picked = rng.sample(signals.split("; "), rng.randint(1, 4))
        query = " ".join(words[: rng.randint(3, len(words))] + picked) + (
            f" line {rng.randint(1000, 99999)} {_camel(_word(rng, 2), _word(rng, 2))}Error"
        )
        out.append((query, K_PATTERN[i % len(K_PATTERN)]))
    return out


@dataclass(frozen=True)
class AgentIssue:
    title: str
    trace: tuple[str, ...]
    searches: int
    browses: int

    def queries(self) -> list[str]:
        """Each search refines the last with one more stack-trace line."""
        return [" ".join([self.title, *self.trace[:n]]) for n in range(1, self.searches + 1)]


def agent_issues(seed: int, count: int) -> list[AgentIssue]:
    rng = random.Random(f"agent-{seed}")
    out = []
    for i in range(count):
        title, trace = held_out_issue_texts(rng)
        searches, browses = AGENT_PLANS[i % len(AGENT_PLANS)]
        out.append(AgentIssue(title, tuple(trace), searches, browses))
    return out
