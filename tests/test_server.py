from __future__ import annotations

import contextlib
import json
import os
import re
import select
import socket
import string
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from email.utils import formatdate, parsedate_to_datetime
from urllib.parse import quote

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memgov import server as server_module
from memgov.embedding import HashingEmbedder
from memgov.errors import DataError, UnknownCardError
from memgov.server import (
    MAX_BODY_BYTES,
    MAX_QUERY_CHARS,
    MAX_SESSIONS,
    MAX_TOP_K,
    BrowseRequest,
    SearchRequest,
    SessionRegistry,
    ToolService,
    UnknownSessionError,
    make_http_server,
)
from memgov.store import MemoryStore

from conftest import make_card

RESOLUTION_KEYS = {"root_cause", "fix_strategy", "patch_digest", "verification", "resolution"}


def build_service(n=5):
    store = MemoryStore(HashingEmbedder())
    cards = []
    for i in range(n):
        card = make_card(
            issue=i + 1,
            pr=100 + i,
            summary=f"worker pool deadlock variant {chr(97 + i)}",
            signals=tuple(f"token{i} {j}" for j in range(11)),
        )
        store.index_card(card)
        cards.append(card)
    return ToolService(store), cards


@pytest.fixture
def live():
    service, cards = build_service()
    server = make_http_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base, service, cards
    server.shutdown()
    server.server_close()


def deep_keys(obj):
    keys = set()
    if isinstance(obj, dict):
        for key, value in obj.items():
            keys.add(key)
            keys |= deep_keys(value)
    elif isinstance(obj, list):
        for item in obj:
            keys |= deep_keys(item)
    return keys


def test_health(live):
    base, _service, cards = live
    body = requests.get(f"{base}/v1/health").json()
    assert body == {
        "status": "ok",
        "card_count": len(cards),
        "dimension": 256,
        "embedder_id": "feature-hash-256",
    }


def test_search_returns_previews_only(live):
    base, _service, _cards = live
    resp = requests.post(f"{base}/v1/search", json={"query": "worker pool deadlock"})
    assert resp.status_code == 200
    body = resp.json()
    assert len(body["hits"]) == 5
    sims = [h["similarity"] for h in body["hits"]]
    assert sims == sorted(sims, reverse=True)
    assert not (deep_keys(body) & RESOLUTION_KEYS)
    first = body["hits"][0]
    assert set(first) == {"card_id", "similarity", "preview"}
    assert set(first["preview"]) == {"problem_summary", "signals"}


def test_search_is_deterministic(live):
    base, _service, _cards = live
    payload = {"query": "worker pool deadlock", "top_k": 3}
    a = requests.post(f"{base}/v1/search", json=payload).content
    b = requests.post(f"{base}/v1/search", json=payload).content
    assert a == b


def test_search_rejects_bad_top_k(live):
    base, _service, _cards = live
    resp = requests.post(f"{base}/v1/search", json={"query": "x", "top_k": 0})
    assert resp.status_code == 400
    assert resp.json()["error"]["code"] == "invalid_request"


@pytest.mark.parametrize("top_k, status", [(100, 200), (101, 400), (10**9, 400)])
def test_search_caps_top_k(live, top_k, status):
    base, _service, cards = live
    resp = requests.post(f"{base}/v1/search", json={"query": "worker pool deadlock", "top_k": top_k})
    assert resp.status_code == status
    if status == 200:
        assert len(resp.json()["hits"]) == len(cards)
    else:
        assert resp.json()["error"]["code"] == "invalid_request"

def test_search_unembeddable_query_is_client_error(live):
    base, _service, _cards = live
    resp = requests.post(f"{base}/v1/search", json={"query": "!!!"})
    assert resp.status_code == 400
    assert resp.json()["error"]["code"] == "unembeddable_query"


def test_browse_returns_full_card(live):
    base, _service, cards = live
    resp = requests.post(f"{base}/v1/browse", json={"card_id": cards[2].card_id})
    assert resp.status_code == 200
    body = resp.json()
    assert body["card_id"] == cards[2].card_id
    assert body["resolution"]["root_cause"] == cards[2].resolution.root_cause


def test_browse_unknown_id_is_404(live):
    base, _service, _cards = live
    resp = requests.post(f"{base}/v1/browse", json={"card_id": "missing"})
    assert resp.status_code == 404
    assert resp.json()["error"]["code"] == "not_found"


def test_browse_is_immutable(live):
    base, _service, cards = live
    payload = {"card_id": cards[0].card_id}
    a = requests.post(f"{base}/v1/browse", json=payload).content
    b = requests.post(f"{base}/v1/browse", json=payload).content
    assert a == b


def test_unknown_path_and_bad_json_envelopes(live):
    base, _service, _cards = live
    resp = requests.post(f"{base}/v1/nope", json={})
    assert resp.status_code == 404 and "error" in resp.json()
    resp = requests.post(
        f"{base}/v1/search", data="{", headers={"Content-Type": "application/json"}
    )
    assert resp.status_code == 400
    assert resp.json()["error"]["code"] == "invalid_json"



@pytest.mark.parametrize("session_id", [["abc"], {"id": "abc"}], ids=["list", "object"])
def test_non_string_session_id_is_client_error(live, session_id):
    base, _service, cards = live
    for path, body in (
        ("/v1/search", {"query": "deadlock"}),
        ("/v1/browse", {"card_id": cards[0].card_id}),
    ):
        resp = requests.post(f"{base}{path}", json={**body, "session_id": session_id})
        assert resp.status_code == 400
        assert resp.json()["error"]["code"] == "invalid_request"


def raw_request(base, head, body=b""):
    """Send one hand-written request over a socket; return (status, JSON body,
    or None when there is no body) once the server closes the connection."""
    port = int(base.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head.encode() + b"\r\n\r\n" + body)
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    status_line, _, payload = response.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(payload) if payload else None


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_bad_content_length_is_client_error(live, length):
    base, _service, _cards = live
    status, body = raw_request(base, f"POST /v1/search HTTP/1.0\r\nContent-Length: {length}", b"{}")
    assert status == 400
    assert body["error"]["code"] == "invalid_request"


def test_oversized_body_is_refused_unread(live):
    base, _service, _cards = live
    # No body follows the header: the server answers and closes without
    # waiting for the megabyte it was promised.
    head = f"POST /v1/search HTTP/1.0\r\nContent-Length: {MAX_BODY_BYTES + 1}"
    status, body = raw_request(base, head)
    assert status == 413
    assert body["error"]["code"] == "payload_too_large"
    payload = json.dumps({"query": "worker pool deadlock"}).ljust(MAX_BODY_BYTES).encode()
    status, body = raw_request(base, f"POST /v1/search HTTP/1.0\r\nContent-Length: {len(payload)}", payload)
    assert status == 200
    assert len(body["hits"]) == 5


def test_oversized_body_sent_in_full_still_gets_the_413(live):
    base, _service, _cards = live
    # The client writes the whole 4 MB body before it reads. The server
    # answers first, then drops the body until the client closes, so the
    # answer arrives rather than a connection reset.
    body = b"x" * (4 << 20)
    status, payload = raw_request(base, f"POST /v1/search HTTP/1.0\r\nContent-Length: {len(body)}", body)
    assert status == 413
    assert payload["error"]["code"] == "payload_too_large"


@pytest.mark.parametrize(
    "head, status, code",
    [
        ("PUT /v1/search HTTP/1.0\r\nContent-Length: 2", 405, "method_not_allowed"),
        ("GET /v1/session/a b HTTP/1.0", 400, "bad_request"),
        (f"GET /{'x' * 70_000} HTTP/1.0", 414, "request_uri_too_long"),
    ],
    ids=["unknown-method", "bad-request-line", "uri-too-long"],
)
def test_malformed_requests_get_the_error_envelope(live, head, status, code):
    base, _service, _cards = live
    got, body = raw_request(base, head, b"{}")
    assert got == status
    assert body["error"]["code"] == code
    assert isinstance(body["error"]["message"], str)


def test_unknown_method_answers_405_with_allow(live):
    base, _service, _cards = live
    resp = requests.put(f"{base}/v1/search", json={"query": "deadlock"})
    assert resp.status_code == 405
    assert resp.headers["Allow"] == "GET, POST"
    assert resp.headers["Content-Type"] == "application/json"
    assert resp.json()["error"]["code"] == "method_not_allowed"


def test_head_answers_405_without_content(live):
    base, _service, _cards = live
    assert raw_request(base, "HEAD /v1/health HTTP/1.0") == (405, None)


@pytest.fixture(scope="module")
def served():
    service, _cards = build_service()
    server = make_http_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", service.sessions.create()
    server.shutdown()
    server.server_close()


# Any code point in strings, lone surrogates included (json.dumps escapes
# them as \udxxx), and NaN and infinities, which Python's JSON reads.
JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=20)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=10,
)
LIVE_SESSION = "<live session>"  # replaced by the served fixture's session id
SESSION_IDS = st.just(LIVE_SESSION) | JSON_TEXT | JSON_VALUES
CARD_IDS = st.sampled_from([card.card_id for card in build_service()[1]]) | JSON_TEXT | JSON_VALUES


def bodies(fields: dict, optional: dict | None = None):
    """Any JSON value, or an object whose fields hold well- and ill-formed values."""
    return st.one_of(JSON_VALUES, st.fixed_dictionaries(fields, optional=optional or {}))


SEARCH_BODIES = bodies(
    {"query": JSON_TEXT | JSON_VALUES},
    {"top_k": st.integers(-2, MAX_TOP_K + 2) | JSON_VALUES, "session_id": SESSION_IDS},
)
POST_BODIES = {
    "/v1/browse": bodies({"card_id": CARD_IDS}, {"session_id": SESSION_IDS}),
    "/v1/session": bodies({}, {"session_id": SESSION_IDS}),
    "/v1/transfer_brief": bodies(
        {"session_id": SESSION_IDS}, {"card_ids": st.lists(CARD_IDS, max_size=3) | JSON_VALUES}
    ),
}
OK_KEYS = {
    "/v1/search": {"hits"},
    "/v1/browse": {"card_id", "source", "index", "resolution"},
    "/v1/session": {"session_id"},
    "/v1/transfer_brief": {
        "root_cause_pattern", "modification_logic", "validation_strategy", "source_card_ids",
    },
}


def assert_no_500(served, path: str, body: bytes) -> None:
    base, session_id = served
    body = body.replace(json.dumps(LIVE_SESSION).encode(), json.dumps(session_id).encode())
    resp = requests.post(f"{base}{path}", data=body)
    assert resp.status_code < 500, resp.text
    assert set(resp.json()) == (OK_KEYS[path] if resp.status_code == 200 else {"error"})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(body=SEARCH_BODIES.map(lambda v: json.dumps(v).encode()))
@example(body=b"[" * 100_000)
@example(body=b'{"query": "\\ud800 deadlock \\udfff", "top_k": 3}')
def test_search_answers_no_500_for_any_json_body(served, body):
    assert_no_500(served, "/v1/search", body)


# Browse runs first, so that some briefs find cards browsed in the live session.
@pytest.mark.parametrize("path", list(POST_BODIES))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_post_endpoints_answer_no_500_for_any_json_body(served, path, data):
    body = data.draw(POST_BODIES[path].map(lambda v: json.dumps(v).encode()), label="body")
    assert_no_500(served, path, body)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tail=st.just(LIVE_SESSION) | st.text("0123456789abcdef", max_size=40) | JSON_TEXT)
def test_get_session_answers_no_500_for_any_path_tail(served, tail):
    base, session_id = served
    live = tail == LIVE_SESSION
    # Printable ASCII goes on the request line as it is; everything else is
    # percent-encoded, lone surrogates included.
    tail = quote(session_id if live else tail, safe=string.punctuation, errors="surrogatepass")
    status, payload = raw_request(base, f"GET /v1/session/{tail} HTTP/1.0")
    assert status == (200 if live else 404), payload
    assert set(payload) == ({"session_id", "rounds"} if live else {"error"})


@pytest.mark.parametrize("chars, status", [(MAX_QUERY_CHARS, 200), (MAX_QUERY_CHARS + 1, 400)])
def test_search_caps_query_length(live, chars, status):
    base, _service, _cards = live
    query = ("deadlock " * chars)[:chars]
    payload = json.dumps({"query": query}).encode()
    status_got, body = raw_request(base, f"POST /v1/search HTTP/1.0\r\nContent-Length: {len(payload)}", payload)
    assert status_got == status
    if status == 400:
        assert body["error"]["code"] == "invalid_request"
    else:
        assert body["hits"]


def test_session_flow_over_http(live):
    base, _service, cards = live
    session_id = requests.post(f"{base}/v1/session", json={}).json()["session_id"]
    requests.post(f"{base}/v1/search", json={"query": "deadlock", "session_id": session_id})
    requests.post(
        f"{base}/v1/browse", json={"card_id": cards[0].card_id, "session_id": session_id}
    )
    log = requests.get(f"{base}/v1/session/{session_id}").json()
    assert [r["kind"] for r in log["rounds"]] == ["search", "browse"]
    timestamps = [r["timestamp"] for r in log["rounds"]]
    assert timestamps == sorted(timestamps)

    brief = requests.post(
        f"{base}/v1/transfer_brief",
        json={"session_id": session_id, "card_ids": [cards[0].card_id]},
    ).json()
    assert brief["root_cause_pattern"] == cards[0].resolution.root_cause
    assert brief["modification_logic"] == cards[0].resolution.fix_strategy
    assert brief["validation_strategy"] == cards[0].resolution.verification
    assert brief["source_card_ids"] == [cards[0].card_id]


def test_transfer_brief_requires_browsed_cards(live):
    base, _service, cards = live
    session_id = requests.post(f"{base}/v1/session", json={}).json()["session_id"]
    resp = requests.post(
        f"{base}/v1/transfer_brief",
        json={"session_id": session_id, "card_ids": [cards[0].card_id]},
    )
    assert resp.status_code == 409
    assert resp.json()["error"]["code"] == "card_not_browsed"


def test_transfer_brief_unknown_session(live):
    base, _service, _cards = live
    resp = requests.post(
        f"{base}/v1/transfer_brief", json={"session_id": "f" * 32, "card_ids": []}
    )
    assert resp.status_code == 404


def test_brief_concatenates_in_browse_order():
    service, cards = build_service()
    session_id = service.sessions.create()
    for card in (cards[3], cards[1]):
        service.handle_browse(BrowseRequest(card_id=card.card_id, session_id=session_id))
    brief = service.assemble_transfer_brief(
        session_id, [cards[1].card_id, cards[3].card_id]
    )
    assert brief.source_card_ids == (cards[3].card_id, cards[1].card_id)
    assert brief.root_cause_pattern == (
        cards[3].resolution.root_cause + "\n\n" + cards[1].resolution.root_cause
    )


def test_session_rounds_are_append_only_under_concurrency():
    service, _cards = build_service()
    session_id = service.sessions.create()

    def worker(i):
        for _ in range(25):
            service.handle_search(
                SearchRequest(query=f"deadlock {i}", top_k=2, session_id=session_id)
            )

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    log = service.sessions.get(session_id)
    assert len(log.rounds) == 100
    timestamps = [r.timestamp for r in log.rounds]
    assert timestamps == sorted(timestamps)


def test_session_registry_drops_the_oldest_beyond_its_cap(live):
    base, service, _cards = live
    service.sessions = SessionRegistry()
    first = requests.post(f"{base}/v1/session", json={}).json()["session_id"]
    for _ in range(MAX_SESSIONS - 1):
        service.sessions.create()
    assert len(service.sessions._sessions) == MAX_SESSIONS
    assert requests.get(f"{base}/v1/session/{first}").status_code == 200
    last = requests.post(f"{base}/v1/session", json={}).json()["session_id"]
    assert len(service.sessions._sessions) == MAX_SESSIONS
    resp = requests.get(f"{base}/v1/session/{first}")
    assert resp.status_code == 404
    assert resp.json()["error"]["code"] == "not_found"
    resp = requests.post(f"{base}/v1/search", json={"query": "deadlock", "session_id": first})
    assert resp.status_code == 404
    resp = requests.post(f"{base}/v1/search", json={"query": "deadlock", "session_id": last})
    assert resp.status_code == 200
    assert [r["kind"] for r in requests.get(f"{base}/v1/session/{last}").json()["rounds"]] == [
        "search"
    ]
    with pytest.raises(UnknownSessionError):
        service.sessions.get(first)


def test_a_full_session_refuses_search_and_browse_before_running_them(live, monkeypatch):
    base, _service, cards = live
    monkeypatch.setattr(server_module, "MAX_SESSION_ROUNDS", 2)
    session_id = requests.post(f"{base}/v1/session", json={}).json()["session_id"]
    search = {"query": "deadlock", "session_id": session_id}
    browse = {"card_id": cards[0].card_id, "session_id": session_id}
    assert requests.post(f"{base}/v1/search", json=search).status_code == 200
    assert requests.post(f"{base}/v1/browse", json=browse).status_code == 200
    # "!!!" alone answers 400 unembeddable_query: 409 shows the search never ran.
    for path, body in (("search", search), ("browse", browse), ("search", {**search, "query": "!!!"})):
        resp = requests.post(f"{base}/v1/{path}", json=body)
        assert resp.status_code == 409
        assert resp.json()["error"]["code"] == "session_full"
    rounds = requests.get(f"{base}/v1/session/{session_id}").json()["rounds"]
    assert [r["kind"] for r in rounds] == ["search", "browse"]
    resp = requests.post(f"{base}/v1/search", json={"query": "deadlock"})
    assert resp.status_code == 200 and resp.json()["hits"]
    assert requests.post(f"{base}/v1/browse", json={"card_id": cards[0].card_id}).status_code == 200


class OneCardStore:
    """A store stub whose browse returns one fixed card for any id."""

    def __init__(self, card):
        self.card = card

    def browse(self, card_id):
        return self.card


def test_long_browse_history_costs_constant_time_per_id(monkeypatch):
    # A browse and each id a brief names are looked up, not scanned for: with
    # lists, these 30,000 browses and one brief took about 12 s. The round
    # cap is raised so that one session can hold them.
    monkeypatch.setattr(server_module, "MAX_SESSION_ROUNDS", 30_001)
    service = ToolService(OneCardStore(make_card()))
    session_id = service.sessions.create()
    ids = [f"card-{i}" for i in range(30_000)]
    start = time.perf_counter()
    for card_id in ids + ids[:1]:
        service.handle_browse(BrowseRequest(card_id=card_id, session_id=session_id))
    brief = service.assemble_transfer_brief(session_id, ids[::-1])
    assert time.perf_counter() - start < 2.0
    assert brief.source_card_ids == tuple(ids)  # browse order, each id once


@pytest.mark.parametrize(
    "timestamp",
    [
        0,
        951_782_400,  # 29 February 2000
        1_709_164_799.75,  # the last second of 28 February 2024
        2**31 + 86_400,  # after January 2038
        *(1_700_000_000 + day * 86_400 for day in range(7)),  # every weekday
        *(1_704_067_200 + month * 2_678_400 for month in range(12)),  # every month of 2024
    ],
)
def test_http_date_matches_email_utils(timestamp):
    assert server_module._http_date(timestamp) == formatdate(timestamp, usegmt=True)


def test_a_live_answer_carries_the_current_date(live):
    base, _service, _cards = live
    before = time.time()
    header = requests.get(f"{base}/v1/health").headers["Date"]
    after = time.time()
    assert re.fullmatch(r"\w{3}, \d{2} \w{3} \d{4} \d{2}:\d{2}:\d{2} GMT", header)
    assert int(before) <= parsedate_to_datetime(header).timestamp() <= after


def test_search_request_validation():
    service, _ = build_service()
    with pytest.raises(DataError):
        service.handle_search(SearchRequest(query="x", top_k=0))
    with pytest.raises(UnknownCardError):
        service.handle_browse(BrowseRequest(card_id=""))


# --- serving ------------------------------------------------------------------

POOL_TIMEOUT = 0.3  # REQUEST_TIMEOUT_SECONDS in the pool tests


@pytest.fixture
def pooled(monkeypatch):
    """A live server with a 0.3 s request timeout."""
    monkeypatch.setattr(server_module, "REQUEST_TIMEOUT_SECONDS", POOL_TIMEOUT)
    service, cards = build_service()
    server = make_http_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}", service, cards
    server.shutdown()
    server.server_close()


def silent_connection(base) -> socket.socket:
    """Open a connection that sends nothing."""
    return socket.create_connection(("127.0.0.1", int(base.rsplit(":", 1)[1])), timeout=10)


def test_concurrent_clients_get_the_sequential_answers(pooled):
    _server, base, _service, cards = pooled
    calls = [("GET", "/v1/health", None)]
    calls += [("POST", "/v1/search", {"query": f"worker pool deadlock variant {c}"}) for c in "abc"]
    calls += [("POST", "/v1/browse", {"card_id": card.card_id}) for card in cards[:4]]

    def call(method, path, body):
        resp = requests.request(method, base + path, json=body)
        return resp.status_code, resp.content

    sequential = [call(*c) for c in calls]
    barrier = threading.Barrier(len(calls))

    def concurrent(c):
        barrier.wait()
        return call(*c)

    with ThreadPoolExecutor(len(calls)) as clients:
        assert list(clients.map(concurrent, calls)) == sequential
    assert all(status == 200 for status, _ in sequential)


def test_request_in_flight_at_shutdown_is_answered_before_close_returns(pooled):
    server, base, service, _cards = pooled
    entered, release = threading.Event(), threading.Event()
    search = service.handle_search

    def held_search(req):
        entered.set()
        release.wait(10)
        return search(req)

    service.handle_search = held_search
    answers = []
    client = threading.Thread(
        target=lambda: answers.append(requests.post(f"{base}/v1/search", json={"query": "deadlock"}))
    )
    client.start()
    assert entered.wait(10)
    server.shutdown()
    closer = threading.Thread(target=server.server_close)
    closer.start()
    closer.join(0.5)
    assert closer.is_alive()  # server_close waits for the request in flight
    release.set()
    closer.join(10)
    client.join(10)
    assert not closer.is_alive()
    assert answers[0].status_code == 200
    assert len(answers[0].json()["hits"]) == 5


@pytest.mark.parametrize("silent", [1, 2], ids=["one-worker-free", "all-workers-held"])
def test_health_is_answered_while_connections_stay_silent(pooled, silent):
    _server, base, _service, cards = pooled
    sockets = [silent_connection(base) for _ in range(silent)]
    try:
        start = time.monotonic()
        resp = requests.get(f"{base}/v1/health", timeout=10)
        elapsed = time.monotonic() - start
    finally:
        for sock in sockets:
            sock.close()
    assert resp.status_code == 200
    assert resp.json()["card_count"] == len(cards)
    # With every worker held, the answer waits for the timeout to free one:
    # the documented limit of a fixed pool, not a hang.
    assert elapsed < POOL_TIMEOUT + 2.0


def test_server_stops_within_the_timeout_while_a_connection_stays_silent(pooled):
    server, base, _service, _cards = pooled
    sock = silent_connection(base)
    # Answered after the silent connection was accepted and handed on.
    assert requests.get(f"{base}/v1/health", timeout=10).status_code == 200
    stopper = threading.Thread(target=lambda: (server.shutdown(), server.server_close()))
    start = time.monotonic()
    stopper.start()
    try:
        stopper.join(POOL_TIMEOUT + 2.0)
        assert not stopper.is_alive(), "server_close waited on the silent connection"
        assert time.monotonic() - start < POOL_TIMEOUT + 2.0
    finally:
        sock.close()
        stopper.join(10)


def test_stalled_body_times_out_without_a_500(pooled):
    _server, base, _service, _cards = pooled
    status, body = raw_request(base, "POST /v1/search HTTP/1.0\r\nContent-Length: 100", b'{"query": ')
    assert status == 408
    assert body["error"]["code"] == "request_timeout"


# --- the event loop: deadlines, the connection cap, raw bytes -----------------


@contextlib.contextmanager
def serving(service):
    """Base URL of a server for service, running on its own thread."""
    server = make_http_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)


def read_until_closed(sock: socket.socket) -> bytes:
    """Everything the server sends until it closes; a reset ends it too."""
    data = b""
    try:
        while chunk := sock.recv(4096):
            data += chunk
    except ConnectionResetError:
        pass
    return data


def test_health_is_answered_past_the_old_worker_count(live):
    # 40 silent connections: more than the 32 workers of a thread pool. The
    # clock starts before the first, since a connection waiting in a full
    # listen backlog is a stall too.
    base, _service, cards = live
    start = time.monotonic()
    sockets = [silent_connection(base) for _ in range(40)]
    try:
        resp = requests.get(f"{base}/v1/health", timeout=10)
        elapsed = time.monotonic() - start
    finally:
        for sock in sockets:
            sock.close()
    assert resp.status_code == 200
    assert resp.json()["card_count"] == len(cards)
    assert elapsed < 0.5


@pytest.mark.parametrize("sent", [b"", b"G"], ids=["silent", "stalled"])
def test_a_new_client_is_answered_when_clients_hold_every_connection(monkeypatch, sent):
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
    service, _cards = build_service()
    with serving(service) as base:
        first, second = silent_connection(base), silent_connection(base)
        with first, second:
            for sock in (first, second):
                sock.sendall(sent)
            start = time.monotonic()
            resp = requests.get(f"{base}/v1/health", timeout=10)
            elapsed = time.monotonic() - start
            assert resp.status_code == 200
            assert elapsed < 0.5
            if sent:
                # The connection with the earliest deadline made room. One
                # that sent nothing is not handed over at all on Linux,
                # where the listener defers accept.
                assert read_until_closed(first) == b""


def test_a_trickled_request_line_times_out_as_a_whole(pooled):
    _server, base, _service, _cards = pooled
    start = time.monotonic()
    with silent_connection(base) as sock:
        for byte in b"GET /v1/health HTTP/1.0\r\n\r\n":
            try:
                sock.sendall(bytes([byte]))
            except OSError:  # closed by the server
                break
            if select.select([sock], [], [], 0.2)[0]:  # answered or closed
                break
        response = read_until_closed(sock)
    assert time.monotonic() - start < POOL_TIMEOUT + 1.0
    assert response == b"" or response.startswith(b"HTTP/1.0 408 "), response


def fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_no_connection_outlives_its_deadline(pooled, monkeypatch):
    monkeypatch.setattr(server_module, "LINGER_SECONDS", POOL_TIMEOUT)
    _server, base, _service, _cards = pooled
    before = fd_count()
    assert raw_request(base, "GET /v1/health HTTP/1.0")[0] == 200
    assert raw_request(base, "GET /v1/session/a b HTTP/1.0")[0] == 400
    held = []  # client ends kept open, so that only the server can close them
    for head in (
        f"POST /v1/search HTTP/1.0\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n",  # 413
        'POST /v1/search HTTP/1.0\r\nContent-Length: 100\r\n\r\n{"query": ',  # 408
        "",  # silent
    ):
        sock = silent_connection(base)
        sock.sendall(head.encode())
        held.append(sock)
    with silent_connection(base) as sock:  # abandoned mid-request
        sock.sendall(b"POST /v1/sea")
    try:
        deadline = time.monotonic() + POOL_TIMEOUT * 2 + 2.0
        while fd_count() != before + len(held) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert fd_count() == before + len(held)
    finally:
        for sock in held:
            sock.close()
    assert fd_count() == before


RAW_TIMEOUT = 0.5  # REQUEST_TIMEOUT_SECONDS of the raw-bytes server


@pytest.fixture(scope="module")
def raw_served():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_module, "REQUEST_TIMEOUT_SECONDS", RAW_TIMEOUT)
        service, _cards = build_service()
        with serving(service) as base:
            yield int(base.rsplit(":", 1)[1])


REQUEST_LINES = st.sampled_from(
    [
        b"GET /v1/health HTTP/1.0",
        b"GET /v1/session/abc HTTP/1.1",
        b"POST /v1/search HTTP/1.0",
        b"POST /v1/browse HTTP/1.1",
        b"POST /v1/session HTTP/1.0",
        b"POST /v1/transfer_brief HTTP/1.0",
        b"PUT /v1/search HTTP/1.0",
    ]
) | st.binary(max_size=40)
HEADER_LINES = st.lists(
    st.binary(max_size=30)
    | st.sampled_from([b"Content-Length: 5", b"Content-Length: x", b"Host: a"]),
    max_size=4,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    line=REQUEST_LINES,
    headers=HEADER_LINES,
    body=st.binary(max_size=100),
    declared=st.booleans(),
    half_close=st.booleans(),
)
@example(
    line=b"POST /v1/search HTTP/1.0", headers=[], body=b"\x80", declared=True, half_close=False
)
@example(
    line=b"POST /v1/search HTTP/1.0", headers=[], body=b"1" * 5000, declared=True, half_close=False
)
def test_any_request_bytes_get_no_5xx_and_no_hang(
    raw_served, line, headers, body, declared, half_close
):
    head = line + b"\r\n" + b"".join(header + b"\r\n" for header in headers)
    if declared:
        head += b"Content-Length: %d\r\n" % len(body)
    start = time.monotonic()
    with socket.create_connection(("127.0.0.1", raw_served), timeout=RAW_TIMEOUT + 1) as sock:
        try:
            sock.sendall(head + b"\r\n" + body)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:  # closed by the server before everything was sent
            pass
        response = read_until_closed(sock)
    assert time.monotonic() - start < RAW_TIMEOUT + 1
    if response:
        assert response.startswith(b"HTTP/1.0 "), response[:100]
        assert int(response.split(b" ", 2)[1]) < 500, response
