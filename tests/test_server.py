from __future__ import annotations

import json
import socket
import string
import threading
from urllib.parse import quote

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memgov.embedding import HashingEmbedder
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
    """Send one hand-written request over a socket; return (status, JSON body)
    once the server closes the connection."""
    port = int(base.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head.encode() + b"\r\n\r\n" + body)
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    status_line, _, payload = response.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(payload)


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


def test_search_request_validation():
    with pytest.raises(Exception):
        SearchRequest(query="x", top_k=0)
    with pytest.raises(Exception):
        BrowseRequest(card_id="")
