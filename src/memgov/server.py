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
POST" (headers only for HEAD), a request line that is not "METHOD SP
target SP HTTP/1.x" 400 bad_request, a request line over 64 KiB 414
request_uri_too_long, and a request head (request line and headers) over
64 KiB or with more than 100 header lines 431
request_header_fields_too_large. A body whose Content-Length exceeds 1 MiB
answers 413 payload_too_large without being read. A body that is not JSON
in UTF-8, or nests too deeply to parse, answers 400 invalid_json. Search
responses never contain resolution-layer content; browsing is the only way
to read it.

Sessions are server-side conveniences for audit and brief assembly;
search and browse remain fully usable without one. At most 10,000 sessions
are kept; creating one more drops the oldest, which then answers 404. The
store snapshot is immutable while serving, so concurrent reads need no
locking; session logs are the only mutable state and are synchronized
internally.

Serving model: one thread runs one `selectors` loop, the single-process
event-driven design of Flash (Pai, Druschel and Zwaenepoel, USENIX ATC
1999). The loop accepts connections, reads each request's line, headers
and Content-Length body into a buffer with non-blocking reads, then runs
the route inline and sends the answer in one buffer: one request per
connection (HTTP/1.0). No read or write ever blocks the loop.

* One deadline per connection. REQUEST_TIMEOUT_SECONDS runs from accept to
  the last body byte: a partial request then answers 408 request_timeout,
  and a connection that sent nothing is closed. An answer the client does
  not read within the same time is dropped. On Linux the listener sets
  TCP_DEFER_ACCEPT, so the kernel hands a connection over once its first
  bytes arrive, or after about a second of silence; the loop then usually
  reads the whole request right after accepting it.
* An answer sent before the whole request was read (the 400, 405, 413,
  414 and 431 refusals above, and the 408) ends with a lingering close
  (RFC 9112, section 9.6): the server half-closes, then reads and drops
  what the client still sends, at most LINGER_BYTES for at most
  LINGER_SECONDS, so that a client that writes its whole request before
  reading gets the answer, not a reset.
* At most MAX_CONNECTIONS connections are open. When one more arrives, the
  open connection with the earliest deadline that is still waiting on its
  client is closed to make room, so silent or trickling clients cannot
  make a new client wait. A head is held to 64 KiB and a body to
  MAX_BODY_BYTES, so the buffers hold at most MAX_CONNECTIONS x (64 KiB +
  MAX_BODY_BYTES) bytes, about 68 MiB.
* Requests are answered one at a time, so a slow route delays the others.
  Under the GIL a pool of threads ran no two requests' Python code at once
  either; it overlapped only work inside numpy, such as two searches over a
  large store on two CPUs. The traffic served here is one closed-loop agent
  that opens a connection per request: the hand-off to a pool cost it more
  than that overlap gave, and keep-alive would not help it.
* shutdown() asks the loop to stop and returns at once. server_close()
  waits until the loop has sent the answers already made, then closes
  every connection, so a clean stop (SIGTERM or SIGINT under `memgov
  serve`) finishes the request in flight and never waits on an idle client.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import sys
import threading
import time
import traceback
import uuid
from dataclasses import asdict, dataclass, field
from email.utils import formatdate
from http import HTTPStatus

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
# Largest request head (request line and headers), and most header lines.
MAX_HEAD_BYTES = 65_536
MAX_HEADER_LINES = 100
# Bounds on a lingering close: bytes read and dropped, and seconds.
LINGER_BYTES = 64 << 20
LINGER_SECONDS = 2.0
# Most live sessions; creating one more evicts the oldest created.
MAX_SESSIONS = 10_000
# Most open connections; one more closes the open one with the earliest
# deadline that is still waiting on its client.
MAX_CONNECTIONS = 64
# Seconds from accept to the last byte of a request, and for the client to
# read its answer; also bounds how long a clean stop waits.
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
    browsed: dict[str, None] = field(default_factory=dict)  # card ids, browse order

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

    def browsed(self, session_id: str) -> dict[str, None]:
        """A copy of the session's browsed card ids, in browse order."""
        with self._lock:
            return dict(self._log(session_id).browsed)

    def append(
        self, session_id: str, kind: str, request: str, result: str, browsed: str | None = None
    ) -> None:
        """Log one round; a browse also passes its card id, which joins the
        session's browse order unless already in it."""
        with self._lock:
            log = self._log(session_id)
            self._last_ts = max(self._last_ts, time.time())
            log.rounds.append(SessionRound(kind, request, result, self._last_ts))
            if browsed is not None:
                log.browsed.setdefault(browsed)


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
        browsed = self.sessions.browsed(session_id)
        for card_id in card_ids:
            if card_id not in browsed:
                raise CardNotBrowsedError(
                    f"card {card_id!r} was not browsed in session {session_id!r}"
                )
        wanted = set(card_ids)
        ordered = [cid for cid in browsed if cid in wanted]
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
    def __init__(self, status: int, code: str, message: str, headers: tuple = (), content=True):
        self.status = status
        self.code = code
        self.message = message
        self.headers = headers
        self.content = content  # False: send the headers only (an answer to HEAD)

    def body(self) -> bytes:
        return json.dumps({"error": {"code": self.code, "message": self.message}}).encode()


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


class _Routes:
    """The endpoints: one whole request to its status and JSON body."""

    def __init__(self, service: ToolService):
        self.service = service

    def answer(self, method: str, path: str, raw: bytes) -> tuple[int, bytes]:
        """The body the route returns, or the error envelope for what it raised."""
        try:
            payload = self._get(path) if method == "GET" else self._post(path, raw)
            return 200, json.dumps(payload).encode()
        except _ApiError as err:
            return err.status, err.body()
        except Exception as exc:
            status, code = next(
                (answer for fault, answer in _FAULTS.items() if isinstance(exc, fault)),
                (500, "internal"),
            )
            return status, _ApiError(status, code, str(exc)).body()

    def _get(self, path: str) -> dict:
        if path == "/v1/health":
            return self.service.health()
        m = _SESSION_PATH.match(path)
        if m:
            return self.service.sessions.get(m.group(1)).to_dict()
        raise _ApiError(404, "not_found", f"unknown path {path}")

    def _post(self, path: str, raw: bytes) -> dict:
        body = _read_json(raw)
        if path == "/v1/search":
            return self._search(body)
        if path == "/v1/browse":
            return self._browse(body)
        if path == "/v1/session":
            return {"session_id": self.service.sessions.create()}
        if path == "/v1/transfer_brief":
            return self._brief(body)
        raise _ApiError(404, "not_found", f"unknown path {path}")

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


def _read_json(raw: bytes) -> dict:
    if not raw:
        return {}
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _ApiError(400, "invalid_json", f"request body is not JSON: {exc.msg}")
    except ValueError as exc:  # not UTF-8, or a number too long for int()
        raise _ApiError(400, "invalid_json", f"request body is not JSON: {exc}")
    except RecursionError:  # e.g. a megabyte of "["
        raise _ApiError(400, "invalid_json", "request body nests too deeply")
    if not isinstance(data, dict):
        raise DataError("request body must be a JSON object")
    return data


def _session_id(body: dict) -> str | None:
    session_id = body.get("session_id")
    if session_id is not None and not isinstance(session_id, str):
        raise DataError(f"session_id must be a string, got {session_id!r}")
    return session_id


_REQUEST_LINE = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+) (\S+) HTTP/1\.[0-9]")
_HEAD_END = re.compile(rb"\r?\n\r?\n")
_ALLOW = (("Allow", "GET, POST"),)


def _parse_head(head: bytes) -> tuple[str, str, int]:
    """The method, path and body length of a request head (its bytes before
    the blank line), or the _ApiError that answers it."""
    line, *fields = head.split(b"\n")
    m = _REQUEST_LINE.fullmatch(line.rstrip(b"\r"))
    if m is None:
        raise _ApiError(400, "bad_request", f"malformed request line {line[:200]!r}")
    if len(fields) > MAX_HEADER_LINES:
        raise _ApiError(
            431, "request_header_fields_too_large", f"more than {MAX_HEADER_LINES} header lines"
        )
    length = None
    for line in fields:
        name, colon, value = line.partition(b":")
        if not colon:
            raise _ApiError(400, "bad_request", f"malformed header line {line[:200]!r}")
        if length is None and name.strip().lower() == b"content-length":
            length = value.strip()
    method, path = m.group(1).decode(), m.group(2).decode("latin-1")
    if method not in ("GET", "POST"):
        err = f"method {method!r} is not allowed"
        raise _ApiError(405, "method_not_allowed", err, _ALLOW, content=method != "HEAD")
    length = length or b"0"
    try:
        size = int(length) if length.isdigit() else -1
    except ValueError:  # more digits than int() converts
        size = -1
    if size < 0:
        raise _ApiError(400, "invalid_request", f"bad Content-Length {length.decode('latin-1')!r}")
    if size > MAX_BODY_BYTES:
        raise _ApiError(
            413, "payload_too_large", f"body of {size} bytes exceeds {MAX_BODY_BYTES}"
        )
    return method, path, size


def _response(status: int, body: bytes, headers: tuple = (), content: bool = True) -> bytes:
    """Status line, headers and body in one buffer."""
    head = [
        f"HTTP/1.0 {status} {HTTPStatus(status).phrase}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Date: {formatdate(usegmt=True)}",
        *(f"{name}: {value}" for name, value in headers),
        "\r\n",
    ]
    return "\r\n".join(head).encode() + (body if content else b"")


class _Connection:
    """One client's socket, deadline and buffers. It reads until `out` holds
    an answer and writes until `out` is empty; then, if `left` is set, it
    drops what the client still sends (a lingering close)."""

    __slots__ = (
        "sock", "deadline", "events", "buf", "head", "body_start", "body_end", "out", "left"
    )

    def __init__(self, sock: socket.socket, deadline: float):
        self.sock = sock
        self.deadline = deadline
        self.events = 0  # what the selector watches for; 0: not registered
        self.buf = bytearray()
        self.head: tuple[str, str] | None = None  # method and path, once read
        self.body_start = self.body_end = 0  # where the body lies in buf
        self.out: memoryview | None = None
        self.left: int | None = None  # bytes a lingering close may still drop

    def waiting(self) -> bool:
        """Still reading its request or lingering: nothing left to send."""
        return self.out is None


class HttpServer:
    """The tool API on one selectors loop; see the module docstring."""

    def __init__(self, service: ToolService, host: str, port: int):
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        if hasattr(socket, "TCP_DEFER_ACCEPT"):  # Linux: accept once the first bytes are in
            self._listener.setsockopt(socket.IPPROTO_TCP, socket.TCP_DEFER_ACCEPT, 1)
        self.server_address = self._listener.getsockname()
        self._routes = _Routes(service)
        self._timeout = REQUEST_TIMEOUT_SECONDS
        self._max_connections = MAX_CONNECTIONS
        self._connections: set[_Connection] = set()
        self._wake, self._waker = socket.socketpair()
        self._waker.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake, selectors.EVENT_READ)
        self._stop = False
        self._state = threading.Lock()  # guards _running and _closed
        self._running = self._closed = False
        self._stopped = threading.Event()

    def serve_forever(self) -> None:
        """Run the loop until shutdown() or server_close()."""
        with self._state:
            if self._closed:
                return
            self._running = True
        try:
            while True:
                soonest = self._expire()
                if self._stop:
                    if self._listener in self._selector.get_map():
                        self._selector.unregister(self._listener)
                    for conn in [c for c in self._connections if c.waiting()]:
                        self._close(conn)
                    if not self._connections:
                        return
                timeout = None if soonest is None else max(soonest - time.monotonic(), 0.0)
                for key, _events in self._selector.select(timeout):
                    self._dispatch(key)
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Ask the loop to stop, and return at once; safe in a signal handler."""
        self._stop = True
        try:
            self._waker.send(b"\0")
        except OSError:  # already woken (buffer full), or closed
            pass

    def server_close(self) -> None:
        """Stop the loop, wait until it has sent the answers already made,
        then close every connection and socket."""
        self.shutdown()
        with self._state:
            self._closed = True
            running = self._running
        if running:
            self._stopped.wait()
        for conn in list(self._connections):
            self._close(conn)
        self._selector.close()
        for sock in (self._listener, self._wake, self._waker):
            sock.close()

    def _dispatch(self, key: selectors.SelectorKey) -> None:
        if key.data is None:
            if key.fileobj is self._listener:
                self._accept()
            else:
                self._wake.recv(4096)
        elif key.data in self._connections:  # not closed earlier in this round
            self._serve(key.data)

    def _accept(self) -> None:
        try:
            sock, _address = self._listener.accept()
        except OSError:  # the client left before its connection was accepted
            return
        sock.setblocking(False)
        if len(self._connections) >= self._max_connections:
            self._close(min(self._connections, key=lambda c: (not c.waiting(), c.deadline)))
        conn = _Connection(sock, time.monotonic() + self._timeout)
        self._connections.add(conn)
        # With TCP_DEFER_ACCEPT the request has mostly arrived by now:
        # answering it at once spares registering the socket and a select.
        self._serve(conn)

    def _serve(self, conn: _Connection) -> None:
        """Read or write, whichever the connection waits for. A fault in
        this server drops the connection, not the loop."""
        try:
            if conn.out is None:
                self._read(conn)
            else:
                self._flush(conn)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self._close(conn)

    def _read(self, conn: _Connection) -> None:
        if conn.left is not None:  # lingering
            want = 1 << 16
        elif conn.head is None:
            want = MAX_HEAD_BYTES - len(conn.buf)
        else:
            want = min(conn.body_end - len(conn.buf), 1 << 16)
        try:
            chunk = conn.sock.recv(want)
        except BlockingIOError:
            self._watch(conn, selectors.EVENT_READ)
            return
        except OSError:  # reset by the client
            self._close(conn)
            return
        if conn.left is not None:  # lingering: drop it
            conn.left -= len(chunk)
            if not chunk or conn.left <= 0:
                self._close(conn)
        elif not chunk:  # the client stopped sending before its request was whole
            if conn.buf:
                self._fail(conn, _ApiError(400, "bad_request", "request ended before it was whole"))
            else:
                self._close(conn)
        else:
            scanned = max(len(conn.buf) - 3, 0)
            conn.buf += chunk
            try:
                request = self._request(conn, scanned)
            except _ApiError as err:
                self._fail(conn, err)
                return
            if request is None:
                self._watch(conn, selectors.EVENT_READ)
            else:
                status, body = self._routes.answer(*request)
                self._send(conn, _response(status, body), linger=False)

    def _request(self, conn: _Connection, scanned: int) -> tuple[str, str, bytes] | None:
        """(method, path, body) once the buffer holds the whole request;
        None while more is to come. scanned: where the blank line may start."""
        buf = conn.buf
        if conn.head is None:
            end = _HEAD_END.search(buf, scanned)
            if end is None:
                if len(buf) < MAX_HEAD_BYTES:
                    return None
                if b"\n" not in buf:
                    raise _ApiError(
                        414, "request_uri_too_long", f"request line over {MAX_HEAD_BYTES} bytes"
                    )
                raise _ApiError(
                    431, "request_header_fields_too_large", f"head over {MAX_HEAD_BYTES} bytes"
                )
            method, path, size = _parse_head(bytes(buf[: end.start()]))
            conn.head = method, path
            conn.body_start, conn.body_end = end.end(), end.end() + size
        if len(buf) < conn.body_end:
            return None
        return *conn.head, bytes(buf[conn.body_start : conn.body_end])

    def _fail(self, conn: _Connection, err: _ApiError) -> None:
        """Answer before the request was read whole, then close lingering."""
        self._send(conn, _response(err.status, err.body(), err.headers, err.content), linger=True)

    def _send(self, conn: _Connection, answer: bytes, linger: bool) -> None:
        conn.out = memoryview(answer)
        conn.left = LINGER_BYTES if linger else None
        conn.deadline = time.monotonic() + self._timeout
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        except OSError:  # the client is gone
            self._close(conn)
            return
        conn.out = conn.out[sent:]
        if conn.out:
            self._watch(conn, selectors.EVENT_WRITE)
            return
        if conn.left is None:
            self._close(conn)
            return
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            self._close(conn)
            return
        conn.out = None
        conn.deadline = time.monotonic() + LINGER_SECONDS
        self._watch(conn, selectors.EVENT_READ)

    def _watch(self, conn: _Connection, events: int) -> None:
        if conn.events != events:
            if conn.events:
                self._selector.modify(conn.sock, events, conn)
            else:
                self._selector.register(conn.sock, events, conn)
            conn.events = events

    def _expire(self) -> float | None:
        """Act on every deadline that has passed; return the next deadline."""
        now = time.monotonic()
        for conn in [c for c in self._connections if c.deadline <= now]:
            if conn.waiting() and conn.left is None and conn.buf:
                err = f"request not received within {self._timeout} s"
                self._fail(conn, _ApiError(408, "request_timeout", err))
            else:
                self._close(conn)
        return min((c.deadline for c in self._connections), default=None)

    def _close(self, conn: _Connection) -> None:
        if conn in self._connections:
            self._connections.remove(conn)
            if conn.events:
                self._selector.unregister(conn.sock)
            conn.sock.close()


def make_http_server(service: ToolService, host: str = "127.0.0.1", port: int = 0) -> HttpServer:
    """Build (but do not start) the HTTP server bound to host:port.

    Port 0 picks a free port; server.server_address reports the real one.
    Call serve_forever() to run, then shutdown() and server_close() for a
    clean stop that sends the answer in flight.
    """
    return HttpServer(service, host, port)
