from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from memgov.errors import MalformedOutputError, ProviderError
from memgov.providers import HttpChatProvider, retry_call


def completion(text: str) -> bytes:
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": text}}]}).encode()


class _ChatHandler(BaseHTTPRequestHandler):
    # Reset before each test by the chat_server fixture.
    reply: tuple[int, bytes]
    received: list

    def log_message(self, *args):
        pass

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.received.append((self.path, dict(self.headers), json.loads(body)))
        status, payload = self.reply
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture(scope="module")
def stub_server():
    handler = type("StubChat", (_ChatHandler,), {})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions", handler
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture
def chat_server(stub_server):
    """A stub chat-completions endpoint; set `handler.reply` to (status, body)."""
    _endpoint, handler = stub_server
    handler.reply = (200, completion("ok"))
    handler.received = []
    return stub_server


def provider(endpoint: str, **kwargs) -> HttpChatProvider:
    return HttpChatProvider(endpoint=endpoint, api_key="k3y", model="stub-model", timeout=10, **kwargs)


def test_complete_returns_the_completion_text(chat_server):
    endpoint, handler = chat_server
    handler.reply = (200, completion("root cause: stale lock"))
    assert provider(endpoint).complete("why?") == "root cause: stale lock"
    [(path, headers, payload)] = handler.received
    assert path == "/v1/chat/completions"
    assert headers["Authorization"] == "Bearer k3y"
    assert payload == {
        "model": "stub-model",
        "messages": [{"role": "user", "content": "why?"}],
        "temperature": 0,
    }


@pytest.mark.parametrize("status", [429, 500, 503])
def test_rate_limit_and_server_faults_are_retryable(chat_server, status):
    endpoint, handler = chat_server
    handler.reply = (status, b"{}")
    with pytest.raises(ProviderError) as err:
        provider(endpoint).complete("why?")
    assert err.value.retryable
    assert not isinstance(err.value, MalformedOutputError)
    assert str(status) in str(err.value)


@pytest.mark.parametrize("status", [400, 401, 404, 422])
def test_other_client_faults_are_not_retryable(chat_server, status):
    endpoint, handler = chat_server
    handler.reply = (status, b"{}")
    with pytest.raises(ProviderError) as err:
        provider(endpoint).complete("why?")
    assert not err.value.retryable
    assert not isinstance(err.value, MalformedOutputError)
    assert str(status) in str(err.value)


def test_unreachable_endpoint_is_retryable():
    with socket.socket() as sock:  # a port that was free a moment ago
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(ProviderError, match="provider unreachable") as err:
        provider(f"http://127.0.0.1:{port}/v1/chat/completions").complete("why?")
    assert err.value.retryable


@pytest.mark.parametrize(
    "body",
    [b"not json", b"[]", b"{}", b'{"choices": []}', b'{"choices": [{"text": "x"}]}'],
    ids=["not-json", "array", "no-choices", "empty-choices", "no-message"],
)
def test_unexpected_response_shape_is_malformed_output(chat_server, body):
    endpoint, handler = chat_server
    handler.reply = (200, body)
    with pytest.raises(MalformedOutputError):
        provider(endpoint).complete("why?")


def test_request_log_gains_one_json_line_per_call(chat_server, tmp_path):
    endpoint, handler = chat_server
    log = tmp_path / "requests.jsonl"
    client = provider(endpoint, request_log=log)
    for prompt, text in (("first", "one"), ("second", "two")):
        handler.reply = (200, completion(text))
        assert client.complete(prompt) == text
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert records == [
        {"model": "stub-model", "prompt": "first", "response": "one"},
        {"model": "stub-model", "prompt": "second", "response": "two"},
    ]


# --- retry_call ------------------------------------------------------------


def flaky(*outcomes):
    """A callable that raises or returns each outcome in turn, and the list
    of calls made to it."""
    calls = []

    def fn():
        outcome = outcomes[len(calls)]
        calls.append(outcome)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    return fn, calls


def test_retry_call_returns_the_first_success_without_sleeping():
    fn, calls = flaky("ok")
    sleeps = []
    assert retry_call(fn, sleep=sleeps.append) == "ok"
    assert len(calls) == 1 and sleeps == []


def test_retry_call_backs_off_exponentially_between_retryable_errors():
    fn, calls = flaky(ProviderError("a"), ProviderError("b"), ProviderError("c"), "ok")
    sleeps = []
    assert retry_call(fn, retries=3, backoff=0.5, sleep=sleeps.append) == "ok"
    assert len(calls) == 4 and sleeps == [0.5, 1.0, 2.0]


def test_retry_call_reraises_after_the_last_retry():
    errors = [ProviderError(str(n)) for n in range(4)]
    fn, calls = flaky(*errors)
    sleeps = []
    with pytest.raises(ProviderError) as err:
        retry_call(fn, retries=3, backoff=0.5, sleep=sleeps.append)
    assert err.value is errors[-1]
    assert len(calls) == 4 and sleeps == [0.5, 1.0, 2.0]


@pytest.mark.parametrize(
    "error",
    [MalformedOutputError("shape"), ProviderError("denied", retryable=False), ValueError("bug")],
    ids=["malformed-output", "not-retryable", "value-error"],
)
def test_retry_call_lets_other_errors_through_at_once(error):
    fn, calls = flaky(error, "ok")
    sleeps = []
    with pytest.raises(type(error)) as err:
        retry_call(fn, sleep=sleeps.append)
    assert err.value is error
    assert len(calls) == 1 and sleeps == []
