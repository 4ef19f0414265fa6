from __future__ import annotations

import json
import socket
import threading

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


def raw_post(base, head, body=b""):
    """Send one hand-written POST over a socket; return (status, JSON body)
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
    status, body = raw_post(base, f"POST /v1/search HTTP/1.0\r\nContent-Length: {length}", b"{}")
    assert status == 400
    assert body["error"]["code"] == "invalid_request"


def test_oversized_body_is_refused_unread(live):
    base, _service, _cards = live
    # No body follows the header: the server answers and closes without
    # waiting for the megabyte it was promised.
    head = f"POST /v1/search HTTP/1.0\r\nContent-Length: {MAX_BODY_BYTES + 1}"
    status, body = raw_post(base, head)
    assert status == 413
    assert body["error"]["code"] == "payload_too_large"
    payload = json.dumps({"query": "worker pool deadlock"}).ljust(MAX_BODY_BYTES).encode()
    status, body = raw_post(base, f"POST /v1/search HTTP/1.0\r\nContent-Length: {len(payload)}", payload)
    assert status == 200
    assert len(body["hits"]) == 5


def test_oversized_body_sent_in_full_still_gets_the_413(live):
    base, _service, _cards = live
    # The client writes the whole 4 MB body before it reads. The server
    # answers first, then drops the body until the client closes, so the
    # answer arrives rather than a connection reset.
    body = b"x" * (4 << 20)
    status, payload = raw_post(base, f"POST /v1/search HTTP/1.0\r\nContent-Length: {len(body)}", body)
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
SEARCH_BODIES = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries(
        {"query": JSON_TEXT | JSON_VALUES},
        optional={
            "top_k": st.integers(-2, MAX_TOP_K + 2) | JSON_VALUES,
            "session_id": st.just("<live session>") | JSON_TEXT | JSON_VALUES,
        },
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(body=SEARCH_BODIES.map(lambda v: json.dumps(v).encode()))
@example(body=b"[" * 100_000)
@example(body=b'{"query": "\\ud800 deadlock \\udfff", "top_k": 3}')
def test_search_answers_no_500_for_any_json_body(served, body):
    base, session_id = served
    body = body.replace(b'"<live session>"', json.dumps(session_id).encode())
    resp = requests.post(f"{base}/v1/search", data=body)
    assert resp.status_code < 500, resp.text
    assert set(resp.json()) == ({"hits"} if resp.status_code == 200 else {"error"})


@pytest.mark.parametrize("chars, status", [(MAX_QUERY_CHARS, 200), (MAX_QUERY_CHARS + 1, 400)])
def test_search_caps_query_length(live, chars, status):
    base, _service, _cards = live
    query = ("deadlock " * chars)[:chars]
    payload = json.dumps({"query": query}).encode()
    status_got, body = raw_post(base, f"POST /v1/search HTTP/1.0\r\nContent-Length: {len(payload)}", payload)
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


def test_store_not_loaded_is_503():
    service = ToolService(None)
    server = make_http_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        resp = requests.post(f"{base}/v1/search", json={"query": "x"})
        assert resp.status_code == 503
        assert resp.json()["error"]["code"] == "store_not_loaded"
    finally:
        server.shutdown()
        server.server_close()


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
