"""Dual-primitive tool interface: searching and browsing over HTTP.

Endpoints (JSON bodies):

* POST /v1/search         {"query", "top_k"?, "session_id"?}, 1 <= top_k <= 100,
                          query at most 4,096 characters
                          -> {"hits": [{"card_id", "similarity",
                              "preview": {"problem_summary", "signals"}}]}
* POST /v1/browse         {"card_id", "session_id"?} -> full card object
* POST /v1/session        {} -> {"session_id"}
* GET  /v1/session/{id}   -> {"session_id", "rounds": [...]}
* POST /v1/transfer_brief {"session_id", "card_ids"} -> transfer brief
* GET  /v1/health         -> {"status", "card_count", "dimension", "embedder_id"}

Errors use the uniform envelope {"error": {"code", "message"}}: 4xx for
client faults, and 500 only for an unexpected fault inside an endpoint.
One table, _FAULTS, maps what any route raises to its status and code.
The envelope also covers the requests refused before routing: a method
other than GET or POST answers 405 method_not_allowed with "Allow: GET,
POST" (headers only for HEAD), a malformed request line 400 bad_request,
and a request line over 64 KiB 414 request_uri_too_long. A body whose Content-Length
exceeds 1 MiB answers 413 payload_too_large without being parsed. The
server then closes its side and reads and drops what the client still
sends, at most 64 MiB for at most 2 s, so that a client that wrote the
whole body before reading still gets the answer rather than a reset. A
body nested too deeply to parse answers 400 invalid_json. Search
responses never contain resolution-layer content; browsing is the only
way to read it.

Sessions are server-side conveniences for audit and brief assembly;
search and browse remain fully usable without one. At most 10,000 sessions
are kept; creating one more drops the oldest, which then answers 404. The
store snapshot is immutable while serving, so concurrent reads need no
locking; session logs are the only mutable state and are synchronized
internally.

Serving model: a fixed pool of at most MAX_WORKERS reused threads answers
the requests, one per connection (HTTP/1.0), so at most MAX_WORKERS run at
once. Further connections wait, unanswered, until a worker is free. A
connection silent for REQUEST_TIMEOUT_SECONDS on any read or write is
closed; a body that stalls that long answers 408 request_timeout. A worker
is taken when a connection is accepted, not when its request arrives, so
MAX_WORKERS connections that send nothing hold every worker and make every
other client, health checks included, wait up to REQUEST_TIMEOUT_SECONDS;
a client that keeps reopening them keeps the server stalled. The timeout
bounds each read, not the whole request, so a client that trickles its
request a byte at a time holds a worker for as long as it keeps sending.
server_close() waits for the requests in flight, so a clean stop (SIGTERM
or SIGINT under `memgov serve`) finishes them, and a client holding an idle
connection open delays it by at most REQUEST_TIMEOUT_SECONDS.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, HTTPServer

from .cards import ExperienceCard, card_to_dict
from .errors import DataError, MemgovError, UnembeddableTextError, UnknownCardError
from .store import DEFAULT_TOP_K, MemoryStore, SearchHit, search_hit_to_dict

# Largest top_k an HTTP search may ask for: each hit's card is decoded and
# kept, so an uncapped k lets one request decode the whole store.
MAX_TOP_K = 100
# Largest request body and search query accepted over HTTP; like MAX_TOP_K
# they bound what one request can make the server hold.
MAX_BODY_BYTES = 1_048_576
MAX_QUERY_CHARS = 4096
# Bounds on the lingering close after a 413: bytes read and dropped, and seconds.
LINGER_BYTES = 64 << 20
LINGER_SECONDS = 2.0
# Most live sessions; creating one more evicts the oldest created.
MAX_SESSIONS = 10_000
# Most requests served at once, each on a reused pool thread.
MAX_WORKERS = 32
# Seconds a connection may stay silent, on any one read or write, before
# the server closes it; also bounds how long a clean stop waits.
REQUEST_TIMEOUT_SECONDS = 5.0


@dataclass(frozen=True)
class SearchRequest:
    query: str
    top_k: int = DEFAULT_TOP_K
    session_id: str | None = None


@dataclass(frozen=True)
class BrowseRequest:
    card_id: str
    session_id: str | None = None


@dataclass(frozen=True)
class SessionRound:
    kind: str  # search | browse
    request: str
    result: str
    timestamp: float


@dataclass
class SessionLog:
    session_id: str
    rounds: list[SessionRound] = field(default_factory=list)
    browsed: list[str] = field(default_factory=list)  # card ids, browse order

    def to_dict(self) -> dict:
        return {"session_id": self.session_id, "rounds": [asdict(r) for r in self.rounds]}


@dataclass(frozen=True)
class TransferBrief:
    """Evidence package assembled verbatim from browsed cards.

    The analogical mapping onto a target repository is the client agent's
    reasoning job, deliberately not performed here.
    """

    root_cause_pattern: str
    modification_logic: str
    validation_strategy: str
    source_card_ids: tuple[str, ...]

    def to_dict(self) -> dict:
        return asdict(self)


class SessionRegistry:
    """Append-only session logs; timestamps never decrease. Holds at most
    MAX_SESSIONS logs: creating one more forgets the oldest created."""

    def __init__(self):
        self._sessions: dict[str, SessionLog] = {}
        self._lock = threading.Lock()
        self._last_ts = 0.0

    def create(self) -> str:
        session_id = uuid.uuid4().hex
        with self._lock:
            if len(self._sessions) >= MAX_SESSIONS:
                del self._sessions[next(iter(self._sessions))]  # dicts keep creation order
            self._sessions[session_id] = SessionLog(session_id=session_id)
        return session_id

    def _log(self, session_id: str) -> SessionLog:
        """The session's log, or UnknownSessionError; call with the lock held."""
        log = self._sessions.get(session_id)
        if log is None:
            raise UnknownSessionError(f"no session with id {session_id!r}")
        return log

    def get(self, session_id: str) -> SessionLog:
        with self._lock:
            return self._log(session_id)

    def append(
        self, session_id: str, kind: str, request: str, result: str, browsed: str | None = None
    ) -> None:
        """Log one round; a browse also passes its card id, which joins the
        session's browse order unless already in it."""
        with self._lock:
            log = self._log(session_id)
            self._last_ts = max(self._last_ts, time.time())
            log.rounds.append(SessionRound(kind, request, result, self._last_ts))
            if browsed is not None and browsed not in log.browsed:
                log.browsed.append(browsed)


class UnknownSessionError(MemgovError):
    pass


class CardNotBrowsedError(MemgovError):
    pass


class ToolService:
    """The primitives behind the HTTP API, callable in-process as well."""

    def __init__(self, store: MemoryStore):
        self.store = store
        self.sessions = SessionRegistry()

    def handle_search(self, req: SearchRequest) -> list[SearchHit]:
        hits = self.store.search(req.query, k=req.top_k)
        if req.session_id is not None:
            self.sessions.append(
                req.session_id,
                kind="search",
                request=f"query={req.query!r} top_k={req.top_k}",
                result="hits=" + ",".join(h.card_id for h in hits),
            )
        return hits

    def handle_browse(self, req: BrowseRequest) -> ExperienceCard:
        card = self.store.browse(req.card_id)
        if req.session_id is not None:
            self.sessions.append(
                req.session_id, "browse", f"card_id={req.card_id}", "ok", browsed=req.card_id
            )
        return card

    def assemble_transfer_brief(self, session_id: str, card_ids: list[str]) -> TransferBrief:
        """Concatenate browsed cards' resolution fields, in browse order."""
        log = self.sessions.get(session_id)
        for card_id in card_ids:
            if card_id not in log.browsed:
                raise CardNotBrowsedError(
                    f"card {card_id!r} was not browsed in session {session_id!r}"
                )
        wanted = set(card_ids)
        ordered = [cid for cid in log.browsed if cid in wanted]
        cards = [self.store.browse(cid) for cid in ordered]
        return TransferBrief(
            root_cause_pattern="\n\n".join(c.resolution.root_cause for c in cards),
            modification_logic="\n\n".join(c.resolution.fix_strategy for c in cards),
            validation_strategy="\n\n".join(c.resolution.verification for c in cards),
            source_card_ids=tuple(ordered),
        )

    def health(self) -> dict:
        return {
            "status": "ok",
            "card_count": len(self.store),
            "dimension": self.store.dimension,
            "embedder_id": self.store.embedder.embedder_id,
        }


class _ApiError(Exception):
    def __init__(self, status: int, code: str, message: str):
        self.status = status
        self.code = code
        self.message = message


# The answer to each fault a route may raise, first match wins; any other
# exception answers 500 internal.
_FAULTS: dict[type[Exception], tuple[int, str]] = {
    UnembeddableTextError: (400, "unembeddable_query"),
    UnknownCardError: (404, "not_found"),
    UnknownSessionError: (404, "not_found"),
    CardNotBrowsedError: (409, "card_not_browsed"),
    DataError: (400, "invalid_request"),
}

_SESSION_PATH = re.compile(r"^/v1/session/([0-9a-f]+)$")


class _Handler(BaseHTTPRequestHandler):
    service: ToolService  # set by make_http_server
    # HTTP/1.0: one request per connection, so pool threads finish with
    # their request and a clean shutdown only waits for in-flight work.
    protocol_version = "HTTP/1.0"

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def _send(self, status: int, payload: dict, headers: tuple = ()) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":  # an answer to HEAD carries no content (RFC 9110, 9.3.2)
            self.wfile.write(body)

    def _fail(self, err: _ApiError, headers: tuple = ()) -> None:
        self._send(err.status, {"error": {"code": err.code, "message": err.message}}, headers)
        if err.status == 413:
            self._linger()

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """Answer the faults BaseHTTPRequestHandler finds before any do_*
        method runs (a malformed request line, a request line over 64 KiB, a
        bad header, a method with no do_* method) in the error envelope, not
        the base class's HTML page."""
        if code == HTTPStatus.NOT_IMPLEMENTED:  # an unknown method is the client's fault
            err = _ApiError(405, "method_not_allowed", f"method {self.command!r} is not allowed")
            self._fail(err, (("Allow", "GET, POST"),))
            return
        status = HTTPStatus(code)
        self._fail(_ApiError(status, status.name.lower(), message or status.phrase))

    def _linger(self) -> None:
        """Lingering close (RFC 9112, section 9.6): half-close, then drop
        the unread body until the client closes, LINGER_SECONDS pass or
        LINGER_BYTES are read. Closing with unread bytes would reset the
        connection and could discard the answer before the client reads it."""
        deadline = time.monotonic() + LINGER_SECONDS
        left = LINGER_BYTES
        try:
            self.connection.shutdown(socket.SHUT_WR)
            while left > 0 and (remaining := deadline - time.monotonic()) > 0:
                self.connection.settimeout(remaining)
                chunk = self.rfile.read1(min(left, 1 << 16))
                if not chunk:
                    break
                left -= len(chunk)
        except OSError:  # reset by the client, or the deadline passed
            pass

    def _read_json(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            raise DataError(f"bad Content-Length {header!r}")
        if length > MAX_BODY_BYTES:  # answered by _fail with a lingering close
            raise _ApiError(
                413, "payload_too_large", f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:  # the client stalled mid-body
            raise _ApiError(408, "request_timeout", f"body not received within {self.timeout} s")
        if not raw:
            return {}
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _ApiError(400, "invalid_json", f"request body is not JSON: {exc.msg}")
        except RecursionError:  # e.g. a megabyte of "["
            raise _ApiError(400, "invalid_json", "request body nests too deeply")
        if not isinstance(data, dict):
            raise DataError("request body must be a JSON object")
        return data

    def _answer(self, route) -> None:
        """Send the body route() returns, or the error envelope for what it raised."""
        try:
            self._send(200, route())
        except _ApiError as err:
            self._fail(err)
        except Exception as exc:
            status, code = next(
                (answer for fault, answer in _FAULTS.items() if isinstance(exc, fault)),
                (500, "internal"),
            )
            self._fail(_ApiError(status, code, str(exc)))

    def do_GET(self) -> None:
        self._answer(self._get)

    def do_POST(self) -> None:
        self._answer(self._post)

    def _get(self) -> dict:
        if self.path == "/v1/health":
            return self.service.health()
        m = _SESSION_PATH.match(self.path)
        if m:
            return self.service.sessions.get(m.group(1)).to_dict()
        raise _ApiError(404, "not_found", f"unknown path {self.path}")

    def _post(self) -> dict:
        body = self._read_json()
        if self.path == "/v1/search":
            return self._search(body)
        if self.path == "/v1/browse":
            return self._browse(body)
        if self.path == "/v1/session":
            return {"session_id": self.service.sessions.create()}
        if self.path == "/v1/transfer_brief":
            return self._brief(body)
        raise _ApiError(404, "not_found", f"unknown path {self.path}")

    def _search(self, body: dict) -> dict:
        if "query" not in body or not isinstance(body["query"], str):
            raise DataError("search needs a string 'query'")
        if len(body["query"]) > MAX_QUERY_CHARS:
            raise DataError(f"query longer than {MAX_QUERY_CHARS} characters")
        top_k = body.get("top_k", DEFAULT_TOP_K)
        if not isinstance(top_k, int) or isinstance(top_k, bool) or not 1 <= top_k <= MAX_TOP_K:
            raise DataError(f"top_k must be an integer in [1, {MAX_TOP_K}], got {top_k!r}")
        req = SearchRequest(query=body["query"], top_k=top_k, session_id=_session_id(body))
        hits = self.service.handle_search(req)
        return {"hits": [search_hit_to_dict(h) for h in hits]}

    def _browse(self, body: dict) -> dict:
        card_id = body.get("card_id")
        if not card_id or not isinstance(card_id, str):
            raise DataError("browse needs a non-empty 'card_id'")
        req = BrowseRequest(card_id=card_id, session_id=_session_id(body))
        return card_to_dict(self.service.handle_browse(req))

    def _brief(self, body: dict) -> dict:
        session_id = body.get("session_id")
        card_ids = body.get("card_ids")
        if not session_id or not isinstance(session_id, str):
            raise DataError("transfer_brief needs a 'session_id'")
        if not isinstance(card_ids, list) or not all(isinstance(c, str) for c in card_ids):
            raise DataError("transfer_brief needs a list of 'card_ids'")
        return self.service.assemble_transfer_brief(session_id, card_ids).to_dict()


def _session_id(body: dict) -> str | None:
    session_id = body.get("session_id")
    if session_id is not None and not isinstance(session_id, str):
        raise DataError(f"session_id must be a string, got {session_id!r}")
    return session_id


class _PooledHTTPServer(HTTPServer):
    """HTTPServer whose accept loop hands each connection to a pool of
    reused threads and waits while all of them are busy."""

    def __init__(self, address, handler):
        # Before binding: a failed bind calls server_close(). No thread
        # starts until the first request.
        self._pool = ThreadPoolExecutor(MAX_WORKERS, thread_name_prefix="memgov-http")
        self._free = threading.BoundedSemaphore(MAX_WORKERS)
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        self._free.acquire()
        try:
            self._pool.submit(self._serve_one, request, client_address)
        except BaseException:  # e.g. no thread could start: give the slot back
            self._free.release()
            raise

    def _serve_one(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)
            self._free.release()

    def server_close(self) -> None:
        super().server_close()
        self._pool.shutdown()  # waits for the requests in flight


def make_http_server(service: ToolService, host: str = "127.0.0.1", port: int = 0) -> HTTPServer:
    """Build (but do not start) the HTTP server bound to host:port.

    Port 0 picks a free port; server.server_address reports the real one.
    Call serve_forever() to run, then shutdown() and server_close() for a
    clean stop that lets in-flight requests finish.
    """
    handler = type(
        "BoundHandler", (_Handler,), {"service": service, "timeout": REQUEST_TIMEOUT_SECONDS}
    )
    return _PooledHTTPServer((host, port), handler)
